//! Lazy, deterministic page-content generation.
//!
//! The payload served for a page is a pure function of the world seed and
//! the page id, so a large world stores no content — only graph metadata.
//! Text is sampled from the page's topical lexicon (Zipf-weighted), the
//! shared common vocabulary, and the pseudo-word filler tail; hyperlinks
//! are rendered with realistic anchor texts (including the "click here"
//! noise that the extended anchor stopword list must remove).
//!
//! A page is written in one pass into one buffer, in the order its
//! random draws are made. A word is one fixed-size copy of a 16-byte
//! zero-padded entry (`Lexicons`) and a length bump, picked from three
//! candidates without a branch; links are written in place by the world's
//! one URL writer. DESIGN.md ("Simulated fetch cost model") gives the
//! costs and the draw-order contract that keeps every payload byte for
//! byte what it was.

use crate::lexicon;
use crate::{PageKind, PageMeta, TopicInfo, World};
use bingo_graph::PageId;
use bingo_textproc::content::{make_pdf, make_zip};
use bingo_textproc::MimeType;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::select_unpredictable;

/// A word as one fixed-size copy: its bytes zero-padded to 16, and its
/// length.
#[derive(Debug)]
struct Padded {
    bytes: [u8; 16],
    len: u8,
}

/// One lexicon, its words padded.
fn padded(words: &[&str]) -> Vec<Padded> {
    let pad = |word: &&str| {
        assert!(word.len() <= 16, "lexicon word {word:?} exceeds 16 bytes");
        let mut bytes = [0; 16];
        bytes[..word.len()].copy_from_slice(word.as_bytes());
        let len = word.len() as u8;
        Padded { bytes, len }
    };
    words.iter().map(pad).collect()
}

/// A world's lexicons with their words padded: the common vocabulary,
/// then each topic's. Built with the world and never changed, so fetches
/// from any thread read them without a lock.
#[derive(Debug)]
pub(crate) struct Lexicons(Vec<Vec<Padded>>);

impl Lexicons {
    pub(crate) fn new(topics: &[TopicInfo]) -> Self {
        let lexicons = std::iter::once(lexicon::COMMON).chain(topics.iter().map(|t| t.lexicon));
        Lexicons(lexicons.map(padded).collect())
    }

    /// The padded words of `topic`'s lexicon; the common vocabulary's for
    /// none.
    fn of(&self, topic: Option<u32>) -> &[Padded] {
        &self.0[topic.map_or(0, |t| t as usize + 1)]
    }
}

/// One `u64` already drawn, replayed through `rand`'s own conversions, so
/// a value derived from it is the value a direct draw would have given.
/// A conversion that asks for a second draw panics rather than differ.
struct Replay(Option<u64>);

impl RngCore for Replay {
    fn next_u64(&mut self) -> u64 {
        self.0.take().expect("a conversion takes one draw")
    }
}

/// Closes the title and opens the body paragraph.
const BODY: &str = "</title></head><body><p>";

/// The full payload served when fetching `id` (including format
/// envelopes for non-HTML types).
pub fn payload(world: &World, id: PageId) -> String {
    payload_of(world, id, &world.page_ref(id))
}

/// [`payload`] for page metadata the caller has already derived.
pub(crate) fn payload_of(world: &World, id: PageId, meta: &PageMeta) -> String {
    if let Some(ov) = &meta.content_override {
        return ov.to_string();
    }
    let rng = SmallRng::seed_from_u64(
        world
            .seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.wrapping_mul(0xB5_29_7A_4D)),
    );
    let mut page = Page {
        out: Vec::with_capacity(4096),
        rng,
        world,
    };
    page.text("<html><head><title>");
    let topic = meta.topic;
    match meta.kind {
        PageKind::Welcome => {
            let n = page.rng.gen_range(8..25);
            for end in [BODY, ". "] {
                page.text("Welcome to ");
                world.write_host_name(&mut page.out, meta.host);
                page.text(end);
            }
            page.words(None, n);
        }
        PageKind::Hub => {
            let n = page.rng.gen_range(30..60);
            page.text("Resources on ");
            page.text(topic.map_or("the web", |t| &world.topics()[t as usize].name));
            page.text(BODY);
            page.words(topic, n);
        }
        PageKind::AuthorHome => {
            let name = &world.authors()[meta.author.unwrap() as usize].name;
            let n = page.rng.gen_range(60..120);
            for text in ["Homepage of ", name, BODY, "Homepage of ", name] {
                page.text(text);
            }
            page.text(". Research interests: ");
            page.words(topic, 8);
            page.text(". ");
            page.words(topic, n);
        }
        PageKind::AuthorPub => {
            let is_paper = meta.mime == MimeType::Pdf;
            let n = page
                .rng
                .gen_range(if is_paper { 200..400 } else { 100..250 });
            if is_paper {
                for end in [" ", ": a ", " approach"] {
                    page.word(topic, None);
                    page.text(end);
                }
            } else {
                page.text("Publications of ");
                page.text(&world.authors()[meta.author.unwrap() as usize].name);
            }
            page.text(BODY);
            page.words(topic, n);
        }
        _ => {
            let n = page.rng.gen_range(120..300);
            for end in [" ", BODY] {
                page.word(topic, None);
                page.text(end);
            }
            for i in 0..n {
                if i > 0 {
                    page.text(" ");
                }
                page.word(topic, meta.secondary_topic);
            }
        }
    }
    page.text("</p>");
    page.links(meta);
    page.text("</body></html>");
    let html = page.take();
    match meta.mime {
        MimeType::Pdf => make_pdf(&html),
        MimeType::Zip => {
            // A proceedings archive: the main document plus a couple of
            // short topical entries; the zip handler concatenates them.
            page.words(topic, 40);
            let extra1 = page.take();
            page.words(topic, 40);
            let extra2 = page.take();
            make_zip(&[&html, &extra1, &extra2])
        }
        _ => html,
    }
}

/// A page being written: its one buffer and its generator.
struct Page<'w> {
    out: Vec<u8>,
    rng: SmallRng,
    world: &'w World,
}

impl Page<'_> {
    fn text(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
    }

    /// The text written so far, its allocation trimmed to it (a crawler
    /// may hold many payloads); the buffer starts over.
    fn take(&mut self) -> String {
        self.out.shrink_to_fit();
        String::from_utf8(std::mem::take(&mut self.out)).expect("generated text is UTF-8")
    }

    /// One word: mostly topic lexicon (Zipf), some common vocabulary,
    /// some filler tail. A page with a secondary topic splits its topical
    /// mass between the two lexicons.
    fn word(&mut self, topic: Option<u32>, secondary: Option<u32>) {
        let lexicons = &self.world.lexicons;
        let roll: f64 = self.rng.gen();
        let lex = match (topic, secondary) {
            // The only branch: which topic a topical word of a two-topic
            // page comes from is drawn for that word alone.
            (Some(t), Some(s)) => {
                if roll < 0.5 {
                    lexicons.of(Some(if self.rng.gen_bool(0.6) { t } else { s }))
                } else {
                    lexicons.of(topic)
                }
            }
            _ => lexicons.of(topic),
        };
        let draw = Some(self.rng.next_u64());
        let u: f64 = Replay(draw).gen();
        let common = lexicons.of(None);
        let (i, j) = (zipf(u, lex.len()), zipf(u, common.len()));
        let (filler, len) = lexicon::filler_bytes(Replay(draw).gen_range(0..5000u64));
        let filler = Padded {
            bytes: filler.to_le_bytes(),
            len: len as u8,
        };
        // The topic word below 0.5, the common word below 0.85, else the
        // filler: selected without a branch, as the roll is a coin toss.
        let other = select_unpredictable(roll < 0.85, &common[j], &filler);
        let word = select_unpredictable(roll < 0.5, &lex[i], other);
        let end = self.out.len() + usize::from(word.len);
        self.out.extend_from_slice(&word.bytes);
        self.out.truncate(end);
    }

    fn words(&mut self, topic: Option<u32>, count: usize) {
        for i in 0..count {
            if i > 0 {
                self.text(if i % 13 == 12 { ". " } else { " " });
            }
            self.word(topic, None);
        }
    }

    /// The out-links of a page as HTML anchors. Some links use the
    /// target's alias URL (producing duplicate content under two URLs);
    /// some anchors are navigation noise ("click here").
    fn links(&mut self, meta: &PageMeta) {
        let world = self.world;
        for &target in &meta.out {
            self.text(" <a href=\"");
            match world.alias_url_of(target) {
                Some(alias) if self.rng.gen_bool(0.3) => self.text(alias),
                _ => world.write_url(&mut self.out, target),
            }
            self.text("\">");
            self.anchor(target);
            self.text("</a>");
        }
        for raw in &meta.extra_out_urls {
            for text in [" <a href=\"", raw, "\">more</a>"] {
                self.text(text);
            }
        }
    }

    fn anchor(&mut self, target: PageId) {
        if self.rng.gen_bool(0.15) {
            let noise = ["click here", "more", "link", "home page", "next page"];
            let pick = self.rng.gen_range(0..5);
            return self.text(noise[pick]);
        }
        let world = self.world;
        // What the anchor is drawn from, read without deriving a paged
        // target's metadata whole.
        let (kind, topic, author, host) = match &world.paged {
            Some(p) => (
                p.kind_of(target),
                p.true_topic(target),
                None,
                p.host_of(target),
            ),
            None => {
                let m = &world.pages[target as usize];
                (m.kind, m.topic, m.author, m.host)
            }
        };
        match kind {
            PageKind::AuthorHome => self.text(&world.authors()[author.unwrap() as usize].name),
            PageKind::AuthorPub => {
                self.word(topic, None);
                self.text(" paper");
            }
            PageKind::Welcome => world.write_host_name(&mut self.out, host),
            _ => {
                self.word(topic, None);
                self.text(" ");
                self.word(topic, None);
            }
        }
    }
}

/// Zipf-ish index from a uniform `u`: low indexes much more likely. The
/// `% n` is reached only where rounding lands on `n`.
fn zipf(u: f64, n: usize) -> usize {
    let i = ((n as f64) * u * u * u) as usize;
    if i < n {
        i
    } else {
        i % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorldConfig;

    #[test]
    fn payload_is_deterministic() {
        let world = WorldConfig::small_test(4).build();
        for id in (0..world.page_count() as u64).step_by(23) {
            assert_eq!(payload(&world, id), payload(&world, id));
        }
    }

    #[test]
    fn topical_pages_use_topic_vocabulary() {
        let world = WorldConfig::small_test(4).build();
        // Find a database-research content page and check lexicon presence.
        let id = (0..world.page_count() as u64)
            .find(|&id| world.page(id).topic == Some(0) && world.page(id).kind == PageKind::Content)
            .unwrap();
        let p = payload(&world, id);
        let hits = lexicon::DATABASE_RESEARCH
            .iter()
            .filter(|w| p.contains(*w))
            .count();
        assert!(hits >= 5, "only {hits} topical words in payload");
    }

    #[test]
    fn pdf_pages_are_envelopes() {
        let world = WorldConfig::small_test(4).build();
        let id = (0..world.page_count() as u64)
            .find(|&id| world.page(id).mime == MimeType::Pdf)
            .unwrap();
        assert!(payload(&world, id).starts_with("%SIMPDF\n"));
    }

    #[test]
    fn zip_pages_are_archives_with_entries() {
        let world = WorldConfig::small_test(4).build();
        let id = (0..world.page_count() as u64).find(|&id| world.page(id).mime == MimeType::Zip);
        // Zip pages are rare (3%); tolerate absence in a tiny world by
        // scanning a second seed.
        let (world, id) = match id {
            Some(id) => (world, id),
            None => {
                let w2 = WorldConfig::small_test(9).build();
                let id2 = (0..w2.page_count() as u64)
                    .find(|&id| w2.page(id).mime == MimeType::Zip)
                    .expect("some zip page across two seeds");
                (w2, id2)
            }
        };
        let p = payload(&world, id);
        assert!(p.starts_with("%SIMZIP\n"));
        let html = MimeType::Zip.to_html(&p).unwrap();
        let parsed = bingo_textproc::html::parse(&html);
        assert!(parsed.text.split_whitespace().count() > 50);
    }

    #[test]
    fn links_render_as_anchors() {
        let world = WorldConfig::small_test(4).build();
        let id = (0..world.page_count() as u64)
            .find(|&id| !world.page(id).out.is_empty() && world.page(id).mime == MimeType::Html)
            .unwrap();
        let p = payload(&world, id);
        let parsed = bingo_textproc::html::parse(&p);
        assert_eq!(
            parsed.links.len(),
            world.page(id).out.len() + world.page(id).extra_out_urls.len()
        );
        // Every rendered link resolves back to the intended target.
        for (link, &target) in parsed.links.iter().zip(&world.page(id).out) {
            assert_eq!(world.resolve_url(&link.href), Some(target));
        }
    }

    #[test]
    fn welcome_pages_are_text_poor() {
        let world = WorldConfig::small_test(4).build();
        let welcome = (0..world.page_count() as u64)
            .find(|&id| world.page(id).kind == PageKind::Welcome)
            .unwrap();
        let content = (0..world.page_count() as u64)
            .find(|&id| world.page(id).kind == PageKind::Content)
            .unwrap();
        let wt = bingo_textproc::html::parse(&payload(&world, welcome)).text;
        let ct = bingo_textproc::html::parse(&payload(&world, content)).text;
        assert!(
            wt.split_whitespace().count() < ct.split_whitespace().count(),
            "welcome pages must carry less text than content pages"
        );
    }
}
