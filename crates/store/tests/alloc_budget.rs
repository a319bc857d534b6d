//! Memory budget of the in-memory store, counted not timed.
//!
//! A store with no directory holds every row the crawl stored, so its
//! bytes per posting and per link decide how large a crawl database
//! fits in memory beside the live index. This fills one with 25k
//! synthetic rows (≈96 `(term, tf)` pairs each, skewed toward low term
//! ids, as a crawl's vocabulary is) and ≈7 links per row whose targets
//! and hrefs repeat, and counts the heap bytes it still holds: bytes
//! allocated minus bytes freed. The count is deterministic, so this
//! gates the layout in CI without a clock, and it checks
//! `DocumentStore::resident_bytes`, the store's own estimate, against
//! it.

use bingo_store::{DocumentRow, DocumentStore, LinkRow};
use bingo_textproc::MimeType;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap bytes this thread allocated minus those it freed; per thread
    /// because the tests of one binary run side by side.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count(delta: i64) {
        // Not `with`: the allocator also runs while a thread is torn down.
        let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` in a const-initialized
// thread-local without a destructor, so counting neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Documents in the store.
const DOCS: u64 = 25_000;
/// Rows per batch, as the bulk loader flushes.
const BATCH: u64 = 256;
/// Links per document.
const LINKS_PER_DOC: u64 = 7;

/// A step of a 64-bit LCG.
fn next(h: &mut u64) -> u64 {
    *h = h
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *h >> 20
}

fn url(id: u64) -> String {
    format!("http://h{}.example.org/papers/p{id}.html", id % 500)
}

/// 97 draws of a squared uniform term id below 50k, deduplicated
/// (≈96 distinct), with tf 1–4.
fn row(id: u64) -> DocumentRow {
    let mut h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut term_freqs: Vec<(u32, u32)> = (0..97)
        .map(|_| {
            let u = next(&mut h) % 100_000;
            ((u * u / 200_000) as u32, 1 + (next(&mut h) % 4) as u32)
        })
        .collect();
    term_freqs.sort_unstable_by_key(|&(t, _)| t);
    term_freqs.dedup_by_key(|&mut (t, _)| t);
    DocumentRow {
        id,
        url: url(id),
        host: (id % 500) as u32,
        mime: MimeType::Html,
        depth: 1 + (id % 5) as u32,
        title: format!("Transaction recovery, part {id}"),
        topic: Some((id % 3) as u32),
        confidence: 0.5,
        term_freqs,
        size: 2048,
        fetched_at: id,
    }
}

/// Row `id`'s links: to pages near it and to a few popular ones, so
/// targets and hrefs repeat.
fn links(id: u64) -> Vec<LinkRow> {
    let mut h = id.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
    (0..LINKS_PER_DOC)
        .map(|i| {
            let to = match i {
                0 => next(&mut h) % 64,
                _ => (id + 1 + next(&mut h) % 400) % (2 * DOCS),
            };
            LinkRow {
                from: id,
                to,
                to_url: url(to),
            }
        })
        .collect()
}

#[test]
fn an_in_memory_store_holds_at_most_7_heap_bytes_per_posting_and_74_per_link() {
    let before = live_bytes();
    let store = DocumentStore::new();
    let mut postings = 0u64;
    for from in (0..DOCS).step_by(BATCH as usize) {
        let rows: Vec<DocumentRow> = (from..(from + BATCH).min(DOCS)).map(row).collect();
        postings += rows.iter().map(|r| r.term_freqs.len() as u64).sum::<u64>();
        assert!(store.insert_documents(rows).is_empty());
    }
    let docs_held = (live_bytes() - before) as f64;
    for from in (0..DOCS).step_by(BATCH as usize) {
        store.insert_links((from..(from + BATCH).min(DOCS)).flat_map(links).collect());
    }
    let held = (live_bytes() - before) as f64;
    let links_held = held - docs_held;
    let link_count = DOCS * LINKS_PER_DOC;
    assert_eq!(store.document_count() as u64, DOCS);
    assert_eq!(store.link_count() as u64, link_count);
    assert!(
        (2_300_000..2_500_000).contains(&postings),
        "fixture changed: {postings} postings"
    );

    let per_posting = docs_held / postings as f64;
    assert!(
        per_posting <= 7.0,
        "{per_posting:.2} heap bytes per posting ({docs_held} bytes, {postings} postings)"
    );
    let per_link = links_held / link_count as f64;
    assert!(
        per_link <= 74.0,
        "{per_link:.1} heap bytes per link ({links_held} bytes, {link_count} links)"
    );
    let estimate = store.resident_bytes() as f64;
    assert!(
        (estimate - held).abs() <= 0.2 * held,
        "resident_bytes {estimate} against {held} counted"
    );
}
