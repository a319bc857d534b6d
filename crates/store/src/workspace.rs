//! The packed write workspace of [`crate::segment::Spine`]; the layout
//! is described in the [`crate::segment`] module doc.

use crate::tables::{DocumentHead, DocumentRow, LinkRow};
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash::{self, map_bytes, FxHashMap};
use bingo_textproc::MimeType;

/// One document's fixed-width fields and where its url, title and pairs
/// sit in the arenas.
struct DocRecord {
    id: PageId,
    size: usize,
    fetched_at: u64,
    /// Start of the url in `text`; the title follows it.
    text_start: usize,
    pairs_start: usize,
    url_len: u32,
    title_len: u32,
    pair_count: u32,
    host: HostId,
    depth: u32,
    confidence: f32,
    topic: Option<u32>,
    mime: MimeType,
}

/// One link: its pages (0: source, 1: target), its href's ordinal, and
/// per side the next chained entry on that page.
struct LinkEntry {
    pages: [PageId; 2],
    href: u32,
    next: [u32; 2],
}

/// The end of a chain.
const NO_LINK: u32 = u32::MAX;

/// The unsealed rows, packed.
#[derive(Default)]
pub(crate) struct Workspace {
    docs: Vec<DocRecord>,
    /// Every url and title, back to back.
    text: String,
    /// Every row's encoded `term_freqs`, back to back.
    pairs: Vec<u8>,
    /// Document id -> position in `docs`.
    index: FxHashMap<PageId, usize>,
    links: Vec<LinkEntry>,
    /// Per side, the first and last chained entry of each page.
    chain_ends: [FxHashMap<PageId, (u32, u32)>; 2],
    /// Every distinct href once, back to back, and where each ends.
    hrefs: String,
    href_ends: Vec<usize>,
    /// `fxhash(href)` -> the first href with that hash.
    href_by_hash: FxHashMap<u64, u32>,
}

impl Workspace {
    pub(crate) fn document_count(&self) -> usize {
        self.docs.len()
    }

    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.index.contains_key(&id)
    }

    /// Append a row whose id the workspace does not hold yet.
    pub(crate) fn insert_document(&mut self, row: &DocumentRow) {
        let len = |n: usize| u32::try_from(n).expect("a row field holds < 2^32 items");
        self.index.insert(row.id, self.docs.len());
        self.docs.push(DocRecord {
            id: row.id,
            size: row.size,
            fetched_at: row.fetched_at,
            text_start: self.text.len(),
            pairs_start: self.pairs.len(),
            url_len: len(row.url.len()),
            title_len: len(row.title.len()),
            pair_count: len(row.term_freqs.len()),
            host: row.host,
            depth: row.depth,
            confidence: row.confidence,
            topic: row.topic,
            mime: row.mime,
        });
        self.text.push_str(&row.url);
        self.text.push_str(&row.title);
        encode_pairs(&mut self.pairs, &row.term_freqs);
    }

    /// Append a link; only the first entry of an edge is chained.
    pub(crate) fn insert_link(&mut self, link: &LinkRow) {
        let e = u32::try_from(self.links.len()).expect("fewer than 2^32 workspace links");
        let pages = [link.from, link.to];
        let seen = self.chain(0, link.from).any(|known| known.pages == pages);
        let href = self.intern(&link.to_url);
        self.links.push(LinkEntry {
            pages,
            href,
            next: [NO_LINK; 2],
        });
        for (side, page) in pages.into_iter().enumerate().filter(|_| !seen) {
            let ends = self.chain_ends[side].entry(page).or_insert((e, e));
            if ends.1 != e {
                self.links[ends.1 as usize].next[side] = e;
                ends.1 = e;
            }
        }
    }

    fn href(&self, ordinal: u32) -> &str {
        let i = ordinal as usize;
        let start = i.checked_sub(1).map_or(0, |prev| self.href_ends[prev]);
        &self.hrefs[start..self.href_ends[i]]
    }

    /// The ordinal of `href`, stored on first sight. An href whose hash
    /// slot another href holds is stored again at each sight.
    fn intern(&mut self, href: &str) -> u32 {
        let next = u32::try_from(self.href_ends.len()).expect("fewer than 2^32 hrefs");
        let slot = *self
            .href_by_hash
            .entry(fxhash::hash_one(href))
            .or_insert(next);
        if slot != next && self.href(slot) == href {
            return slot;
        }
        self.hrefs.push_str(href);
        self.href_ends.push(self.hrefs.len());
        next
    }

    /// The chained entries whose `side` is `page`, in insertion order.
    fn chain(&self, side: usize, page: PageId) -> impl Iterator<Item = &LinkEntry> + '_ {
        let mut e = self.chain_ends[side]
            .get(&page)
            .map_or(NO_LINK, |&(first, _)| first);
        std::iter::from_fn(move || {
            let entry = self.links.get(e as usize)?;
            e = entry.next[side];
            Some(entry)
        })
    }

    /// Distinct neighbours of `page` on `side` (0: successors, 1:
    /// predecessors) in first-occurrence order.
    pub(crate) fn neighbours(
        &self,
        side: usize,
        page: PageId,
    ) -> impl Iterator<Item = PageId> + '_ {
        self.chain(side, page)
            .map(move |entry| entry.pages[1 - side])
    }

    fn head_at(&self, i: usize) -> DocumentHead<'_> {
        let r = &self.docs[i];
        let url_end = r.text_start + r.url_len as usize;
        let title_end = url_end + r.title_len as usize;
        DocumentHead {
            host: r.host,
            topic: r.topic,
            confidence: r.confidence,
            text: [
                (&self.text, r.text_start, url_end),
                (&self.text, url_end, title_end),
            ],
        }
    }

    pub(crate) fn head(&self, id: PageId) -> Option<DocumentHead<'_>> {
        Some(self.head_at(*self.index.get(&id)?))
    }

    /// Row `i` decoded into `row`, reusing its buffers.
    fn decode_into(&self, i: usize, row: &mut DocumentRow) {
        let (r, head) = (&self.docs[i], self.head_at(i));
        row.url.replace_range(.., head.url());
        row.title.replace_range(.., head.title());
        decode_pairs(
            &self.pairs[r.pairs_start..],
            r.pair_count,
            &mut row.term_freqs,
        );
        row.id = r.id;
        row.host = r.host;
        row.mime = r.mime;
        row.depth = r.depth;
        row.topic = r.topic;
        row.confidence = r.confidence;
        row.size = r.size;
        row.fetched_at = r.fetched_at;
    }

    /// Row `i` (insertion order), decoded.
    pub(crate) fn row(&self, i: usize) -> DocumentRow {
        let mut row = DocumentRow::default();
        self.decode_into(i, &mut row);
        row
    }

    pub(crate) fn document(&self, id: PageId) -> Option<DocumentRow> {
        Some(self.row(*self.index.get(&id)?))
    }

    /// Document ids in insertion order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.docs.iter().map(|r| r.id)
    }

    /// Set a row's topic and confidence; returns its old topic, or
    /// `None` when the workspace does not hold `id`.
    pub(crate) fn set_topic(
        &mut self,
        id: PageId,
        topic: Option<u32>,
        confidence: f32,
    ) -> Option<Option<u32>> {
        let r = &mut self.docs[*self.index.get(&id)?];
        r.confidence = confidence;
        Some(std::mem::replace(&mut r.topic, topic))
    }

    /// Run `f` on every row in insertion order, each decoded into one
    /// reused row; stops at the first error.
    pub(crate) fn for_each_document<E>(
        &self,
        mut f: impl FnMut(&DocumentRow) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut row = DocumentRow::default();
        (0..self.docs.len()).try_for_each(|i| {
            self.decode_into(i, &mut row);
            f(&row)
        })
    }

    /// Run `f` on every link in insertion order, duplicates included,
    /// each built into one reused row; stops at the first error.
    pub(crate) fn for_each_link<E>(
        &self,
        mut f: impl FnMut(&LinkRow) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut row = LinkRow::default();
        self.links.iter().try_for_each(|entry| {
            [row.from, row.to] = entry.pages;
            row.to_url.replace_range(.., self.href(entry.href));
            f(&row)
        })
    }

    /// Heap bytes of the workspace, from its tables' capacities.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.docs.capacity() * size_of::<DocRecord>()
            + self.text.capacity()
            + self.pairs.capacity()
            + map_bytes(&self.index)
            + self.links.capacity() * size_of::<LinkEntry>()
            + self.chain_ends.iter().map(map_bytes).sum::<usize>()
            + self.hrefs.capacity()
            + self.href_ends.capacity() * size_of::<usize>()
            + map_bytes(&self.href_by_hash)
    }
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut value = 0;
    for shift in (0..).step_by(7) {
        let byte = bytes[*at];
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    value
}

/// Append `pairs`: per pair the zig-zagged term-id delta, then the tf.
fn encode_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    let mut prev = 0i64;
    for &(term, tf) in pairs {
        let delta = i64::from(term) - prev;
        put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
        put_varint(out, u64::from(tf));
        prev = i64::from(term);
    }
}

/// Replace `out` with the `count` pairs [`encode_pairs`] wrote at the
/// start of `bytes`.
fn decode_pairs(bytes: &[u8], count: u32, out: &mut Vec<(u32, u32)>) {
    let (mut at, mut prev) = (0, 0i64);
    out.clear();
    out.extend((0..count).map(|_| {
        let zigzag = get_varint(bytes, &mut at);
        prev += (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        (prev as u32, get_varint(bytes, &mut at) as u32)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_round_trip_unsorted_repeated_and_extreme() {
        let pairs = vec![
            (u32::MAX, u32::MAX),
            (0, 0),
            (7, 1),
            (7, 127),
            (3, 128),
            (u32::MAX, 1),
            (1 << 31, 16_384),
        ];
        let mut bytes = Vec::new();
        encode_pairs(&mut bytes, &pairs);
        let mut back = vec![(9, 9)];
        decode_pairs(&bytes, pairs.len() as u32, &mut back);
        assert_eq!(back, pairs);
    }

    /// Two hrefs with one fxhash (the pair `lib.rs` pins for urls): each
    /// link still reads back its own.
    #[test]
    fn hrefs_sharing_a_hash_read_back_exactly() {
        let hrefs = [
            "http://sports17.com/p2804.html",
            "http://sports17.com/p2889.html",
        ];
        assert_eq!(fxhash::hash_one(hrefs[0]), fxhash::hash_one(hrefs[1]));
        let mut ws = Workspace::default();
        let links: Vec<LinkRow> = (0..6)
            .map(|i| LinkRow {
                from: i,
                to: i + 1,
                to_url: hrefs[i as usize % 2].to_string(),
            })
            .collect();
        links.iter().for_each(|link| ws.insert_link(link));
        let mut back = Vec::new();
        ws.for_each_link(|link| {
            back.push(link.clone());
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(back, links);
        assert_eq!(
            ws.href_ends.len(),
            4,
            "the first href once, the second at each sight"
        );
    }

    #[test]
    fn sorted_small_gaps_take_two_bytes_a_pair() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i * 20, 1 + i % 3)).collect();
        let mut bytes = Vec::new();
        encode_pairs(&mut bytes, &pairs);
        assert_eq!(bytes.len(), 2 * pairs.len());
    }
}
