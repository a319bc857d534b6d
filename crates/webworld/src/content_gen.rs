//! Lazy, deterministic page-content generation.
//!
//! The payload served for a page is a pure function of the world seed and
//! the page id, so a large world stores no content — only graph metadata.
//! Text is sampled from the page's topical lexicon (Zipf-weighted), the
//! shared common vocabulary, and the pseudo-word filler tail; hyperlinks
//! are rendered with realistic anchor texts (including the "click here"
//! noise that the extended anchor stopword list must remove).

use crate::lexicon;
use crate::{PageKind, World};
use bingo_graph::PageId;
use bingo_textproc::content::{make_pdf, make_zip};
use bingo_textproc::MimeType;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The full payload served when fetching `id` (including format
/// envelopes for non-HTML types).
pub fn payload(world: &World, id: PageId) -> String {
    let meta = world.page_ref(id);
    if let Some(ov) = &meta.content_override {
        return ov.to_string();
    }
    let mut rng = SmallRng::seed_from_u64(
        world
            .seed()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id.wrapping_mul(0xB5_29_7A_4D)),
    );

    let (title, body) = match meta.kind {
        PageKind::Welcome => welcome_text(world, id, &mut rng),
        PageKind::Hub => hub_text(world, id, &mut rng),
        PageKind::AuthorHome => author_home_text(world, id, &mut rng),
        PageKind::AuthorPub => author_pub_text(world, id, &mut rng),
        _ => content_text(world, id, &mut rng),
    };
    let links = render_links(world, id, &mut rng);
    let html = format!(
        "<html><head><title>{title}</title></head><body><p>{body}</p>{links}</body></html>"
    );
    match meta.mime {
        MimeType::Pdf => make_pdf(&html),
        MimeType::Zip => {
            // A proceedings archive: the main document plus a couple of
            // short topical entries; the zip handler concatenates them.
            let extra1 = words(world, meta.topic, 40, &mut rng);
            let extra2 = words(world, meta.topic, 40, &mut rng);
            make_zip(&[&html, &extra1, &extra2])
        }
        _ => html,
    }
}

/// Sample one word for a topical page onto the end of `out`: mostly
/// topic lexicon (Zipf), some common vocabulary, some filler tail. Pages
/// with a secondary topic split their topical mass between the two
/// lexicons.
fn push_word_blended(
    out: &mut String,
    world: &World,
    topic: Option<u32>,
    secondary: Option<u32>,
    rng: &mut SmallRng,
) {
    let roll: f64 = rng.gen();
    match (topic, secondary) {
        (Some(t), Some(s)) if roll < 0.5 => {
            let pick = if rng.gen_bool(0.6) { t } else { s };
            let lex = world.topics()[pick as usize].lexicon;
            out.push_str(lex[zipf(rng, lex.len())]);
        }
        (Some(t), None) if roll < 0.5 => {
            let lex = world.topics()[t as usize].lexicon;
            out.push_str(lex[zipf(rng, lex.len())]);
        }
        _ if roll < 0.85 => out.push_str(lexicon::COMMON[zipf(rng, lexicon::COMMON.len())]),
        _ => lexicon::push_filler_word(out, rng.gen_range(0..5000u64)),
    }
}

fn push_word(out: &mut String, world: &World, topic: Option<u32>, rng: &mut SmallRng) {
    push_word_blended(out, world, topic, None, rng)
}

/// Zipf-ish index: low indexes much more likely.
fn zipf(rng: &mut SmallRng, n: usize) -> usize {
    let u: f64 = rng.gen();
    ((n as f64) * u * u * u) as usize % n
}

fn words(world: &World, topic: Option<u32>, count: usize, rng: &mut SmallRng) -> String {
    let mut out = String::with_capacity(count * 8);
    for i in 0..count {
        if i > 0 {
            out.push(if i % 13 == 12 { '.' } else { ' ' });
            if i % 13 == 12 {
                out.push(' ');
            }
        }
        push_word(&mut out, world, topic, rng);
    }
    out
}

fn content_text(world: &World, id: PageId, rng: &mut SmallRng) -> (String, String) {
    let meta = world.page_ref(id);
    let n = rng.gen_range(120..300);
    let mut title = String::new();
    push_word(&mut title, world, meta.topic, rng);
    title.push(' ');
    push_word(&mut title, world, meta.topic, rng);
    let mut body = String::with_capacity(n * 8);
    for i in 0..n {
        if i > 0 {
            body.push(' ');
        }
        push_word_blended(&mut body, world, meta.topic, meta.secondary_topic, rng);
    }
    (title, body)
}

fn welcome_text(world: &World, id: PageId, rng: &mut SmallRng) -> (String, String) {
    let meta = world.page_ref(id);
    let host = world.host_ref(meta.host);
    let n = rng.gen_range(8..25);
    (
        format!("Welcome to {}", host.name),
        format!("Welcome to {}. {}", host.name, words(world, None, n, rng)),
    )
}

fn hub_text(world: &World, id: PageId, rng: &mut SmallRng) -> (String, String) {
    let meta = world.page_ref(id);
    let n = rng.gen_range(30..60);
    let title = format!(
        "Resources on {}",
        meta.topic
            .map(|t| world.topics()[t as usize].name.clone())
            .unwrap_or_else(|| "the web".to_string())
    );
    (title, words(world, meta.topic, n, rng))
}

fn author_home_text(world: &World, id: PageId, rng: &mut SmallRng) -> (String, String) {
    let meta = world.page_ref(id);
    let author = &world.authors()[meta.author.unwrap() as usize];
    let n = rng.gen_range(60..120);
    (
        format!("Homepage of {}", author.name),
        format!(
            "Homepage of {}. Research interests: {}. {}",
            author.name,
            words(world, meta.topic, 8, rng),
            words(world, meta.topic, n, rng)
        ),
    )
}

fn author_pub_text(world: &World, id: PageId, rng: &mut SmallRng) -> (String, String) {
    let meta = world.page_ref(id);
    let author = &world.authors()[meta.author.unwrap() as usize];
    let is_paper = meta.mime == MimeType::Pdf;
    let n = rng.gen_range(if is_paper { 200..400 } else { 100..250 });
    let title = if is_paper {
        let mut title = String::new();
        push_word(&mut title, world, meta.topic, rng);
        title.push(' ');
        push_word(&mut title, world, meta.topic, rng);
        title.push_str(": a ");
        push_word(&mut title, world, meta.topic, rng);
        title.push_str(" approach");
        title
    } else {
        format!("Publications of {}", author.name)
    };
    (title, words(world, meta.topic, n, rng))
}

/// Render the out-links of a page as HTML anchors. Some links use the
/// target's alias URL (producing duplicate content under two URLs); some
/// anchors are navigation noise ("click here").
fn render_links(world: &World, id: PageId, rng: &mut SmallRng) -> String {
    let meta = world.page_ref(id);
    let mut out = String::new();
    for &target in &meta.out {
        out.push_str(" <a href=\"");
        match world.alias_url_of(target) {
            Some(alias) if rng.gen_bool(0.3) => out.push_str(alias),
            _ => out.push_str(&world.url_of(target)),
        }
        out.push_str("\">");
        push_anchor_text(&mut out, world, target, rng);
        out.push_str("</a>");
    }
    for raw in &meta.extra_out_urls {
        out.push_str(" <a href=\"");
        out.push_str(raw);
        out.push_str("\">more</a>");
    }
    out
}

fn push_anchor_text(out: &mut String, world: &World, target: PageId, rng: &mut SmallRng) {
    if rng.gen_bool(0.15) {
        out.push_str(["click here", "more", "link", "home page", "next page"][rng.gen_range(0..5)]);
        return;
    }
    let meta = world.page_ref(target);
    match meta.kind {
        PageKind::AuthorHome => {
            out.push_str(&world.authors()[meta.author.unwrap() as usize].name);
        }
        PageKind::AuthorPub => {
            push_word(out, world, meta.topic, rng);
            out.push_str(" paper");
        }
        PageKind::Welcome => out.push_str(&world.host_ref(meta.host).name),
        _ => {
            push_word(out, world, meta.topic, rng);
            out.push(' ');
            push_word(out, world, meta.topic, rng);
        }
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
        let reg = bingo_textproc::ContentRegistry::new();
        let html = reg.to_html(MimeType::Zip, &p).unwrap();
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
