//! Allocation budgets of the document analyzer, counted not timed.
//!
//! A page analyzed against a dictionary that already knows its words must
//! cost O(links + log tokens) heap allocations: the href and the term
//! list of each link, the title, and a handful of vectors — nothing per
//! token, per tag or per text run. The counts are deterministic, so this
//! gates the analyzer's cost model in CI without reading a clock.

use bingo_textproc::{analyze_html, html, AnalyzedDocument, SharedVocabulary, Vocabulary};
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

/// A content page of `WorldConfig::portal(2003, 1500, 1)`: 2.7 KB, 253
/// body terms, 9 links.
const PORTAL_PAGE: &str = include_str!("fixtures/portal_page.html");

fn assert_budget(doc: &AnalyzedDocument, allocations: u64) {
    let (tokens, links) = (doc.terms.len() as u64, doc.links.len() as u64);
    assert!(tokens > 200 && links > 5, "fixture changed: {tokens} terms");
    assert!(
        allocations < tokens / 8 && allocations <= 2 * links + 7,
        "{allocations} allocations for {tokens} tokens and {links} links"
    );
}

#[test]
fn known_page_allocates_per_link_not_per_token() {
    let mut vocab = Vocabulary::new();
    let first = analyze_html(PORTAL_PAGE, &mut vocab);
    let (second, allocations) = counted(|| analyze_html(PORTAL_PAGE, &mut vocab));
    assert_eq!(first, second);
    assert_budget(&second, allocations);
}

#[test]
fn known_page_allocates_per_link_on_the_shared_dictionary() {
    let vocab = SharedVocabulary::new();
    let first = analyze_html(PORTAL_PAGE, &mut &vocab);
    let (second, allocations) = counted(|| analyze_html(PORTAL_PAGE, &mut &vocab));
    assert_eq!(first, second);
    assert_budget(&second, allocations);
}

/// Skipping a `<script>` must not copy the rest of the page: 20,000 empty
/// blocks once cost 40,000 allocations of up to 340 KB each.
#[test]
fn script_blocks_are_skipped_in_place() {
    let page = "<script></script>".repeat(20_000) + "<STYLE>p{}</STYLE >visible";
    let (doc, allocations) = counted(|| html::parse(&page));
    assert_eq!(doc.text, "visible");
    assert!(allocations < 8, "{allocations} allocations");
}
