//! Allocation budgets of the JSON codec, counted not timed.
//!
//! A sealed segment row is written and read through `serde_json` on the
//! crawl's hot path, and a frontier queue entry is encoded into every
//! checkpoint and decoded on every resume. Either direction
//! must cost O(log bytes) heap allocations — the output string's growth,
//! and on the way in the value's own strings and vectors — and nothing
//! per number, per term pair or per field. The counts are deterministic,
//! so this gates the codec's cost model in CI without reading a clock.

use bingo_crawler::QueueEntry;
use bingo_store::tables::DocumentRow;
use bingo_textproc::{MimeType, TermId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread; per thread
    /// because the tests of one binary run side by side.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // Not `with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `Cell` in a const-initialized
// thread-local without a destructor, so counting neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A content page's row: 250 term pairs, ≈2.4 KB of JSON.
fn row() -> DocumentRow {
    DocumentRow {
        id: 48_213,
        url: "http://cs-u4.edu/~db/papers/aries-recovery.html".into(),
        host: 117,
        mime: MimeType::Html,
        depth: 3,
        title: "ARIES: a transaction recovery method".into(),
        topic: Some(2),
        confidence: 0.734_281_3,
        term_freqs: (0..250u32).map(|i| (i * 37 + 5, 1 + i % 4)).collect(),
        size: 2_731,
        fetched_at: 1_043_219,
    }
}

#[test]
fn a_document_row_costs_allocations_per_byte_doubling_not_per_term_pair() {
    let row = row();
    let pairs = row.term_freqs.len() as u64;
    let (json, encode) = counted(|| serde_json::to_string(&row).unwrap());
    assert!(json.len() > 2_000, "fixture changed: {} bytes", json.len());
    let (back, decode) = counted(|| serde_json::from_str::<DocumentRow>(&json).unwrap());
    assert_eq!(back, row);
    assert!(
        encode <= 16 && decode <= 16 && encode + decode < pairs / 8,
        "{encode} + {decode} allocations for {pairs} term pairs"
    );
}

#[test]
fn a_queue_entry_costs_a_handful_of_allocations() {
    let mut entry = QueueEntry::seed("http://cs-u4.edu/~db/index.html", Some(1));
    entry.priority = 0.25;
    entry.depth = 2;
    entry.src_page = 77;
    entry.anchor_terms = (0..12).map(TermId).collect();
    let (json, encode) = counted(|| serde_json::to_string(&entry).unwrap());
    let (back, decode) = counted(|| serde_json::from_str::<QueueEntry>(&json).unwrap());
    assert_eq!(back, entry);
    assert!(
        encode <= 8 && decode <= 8,
        "{encode} + {decode} allocations for {} bytes",
        json.len()
    );
}
