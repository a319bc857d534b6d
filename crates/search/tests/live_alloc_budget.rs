//! Memory budget of the live index, counted not timed.
//!
//! The serving index holds every posting the crawl has stored, so its
//! bytes per posting decide how large a portal fits in memory. This
//! builds the index the way a crawl feeds it — `live_commit`'s synthetic
//! rows (≈60 distinct terms each, skewed toward low term ids), 25k
//! documents, a commit every 256 rows — and counts the heap bytes it
//! still holds afterwards: bytes allocated minus bytes freed. The count
//! is deterministic, so this gates the layout in CI without a clock, and
//! it checks `LiveIndex::resident_bytes`, the index's own estimate, against
//! it.

use bingo_search::LiveIndex;
use bingo_store::DocumentRow;
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

/// Documents in the index.
const DOCS: u64 = 25_000;
/// Rows per commit, as `serve_live` commits.
const COMMIT_EVERY: u64 = 256;

/// `benches/live_commit.rs`'s row: 64 draws of a squared uniform term
/// id below 50k, deduplicated.
fn row(id: u64) -> DocumentRow {
    let mut h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut term_freqs: Vec<(u32, u32)> = (0..64)
        .map(|_| {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (h >> 33) % 100_000;
            ((u * u / 200_000) as u32, 1 + ((h >> 20) % 4) as u32)
        })
        .collect();
    term_freqs.sort_unstable_by_key(|&(t, _)| t);
    term_freqs.dedup_by_key(|&mut (t, _)| t);
    DocumentRow {
        id,
        url: String::new(),
        host: (id % 50) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: String::new(),
        topic: None,
        confidence: 0.0,
        term_freqs,
        size: 2048,
        fetched_at: id,
    }
}

#[test]
fn a_live_index_holds_at_most_32_heap_bytes_per_posting() {
    let before = live_bytes();
    let live = LiveIndex::new(COMMIT_EVERY as usize);
    let mut postings = 0u64;
    for from in (0..DOCS).step_by(COMMIT_EVERY as usize) {
        let rows: Vec<DocumentRow> = (from..(from + COMMIT_EVERY).min(DOCS)).map(row).collect();
        postings += rows.iter().map(|r| r.term_freqs.len() as u64).sum::<u64>();
        live.ingest(&rows);
    }
    live.commit();
    let held = (live_bytes() - before) as f64;
    assert_eq!(live.pending_docs(), 0);
    assert!(postings > 1_400_000, "fixture changed: {postings} postings");

    let per_posting = held / postings as f64;
    assert!(
        per_posting <= 32.0,
        "{per_posting:.1} heap bytes per posting ({held} bytes, {postings} postings)"
    );
    let estimate = live.resident_bytes() as f64;
    assert!(
        (estimate - held).abs() <= 0.2 * held,
        "resident_bytes {estimate} against {held} counted"
    );
}
