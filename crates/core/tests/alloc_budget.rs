//! Allocation budgets of one judgment, counted not timed.
//!
//! Once a thread has judged a page, judging it again must not touch the
//! heap: the pair counts, the weights, the hits and their order live in
//! buffers the thread reuses. The crawl-time assessment allocates only
//! what it hands on to the commit — the page's distinct features for the
//! live corpus, and the features of a page accepted into a topic, for the
//! archetype candidate pool. The counts are deterministic, so this gates
//! the judge's cost model in CI without reading a clock.

use bingo_core::{BingoEngine, EngineConfig, TopicTree};
use bingo_crawler::Assess;
use bingo_textproc::{analyze_html, AnalyzedDocument, ContentRegistry, DocumentFeatures};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{FetchOutcome, PageKind, World};
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

/// URLs of the content pages of `topic`, in id order.
fn content_urls(world: &World, topic: u32) -> impl Iterator<Item = String> + '_ {
    (0..world.page_count() as u64)
        .filter(move |&id| {
            world.true_topic(id) == Some(topic) && world.page(id).kind == PageKind::Content
        })
        .map(|id| world.url_of(id))
}

/// A three-topic engine (database research, data mining and web IR
/// against two noise topics, as in the pipeline benchmark) and later
/// pages of all five topics to judge with it, analyzed against its
/// dictionary: some are accepted, some rejected.
fn engine_and_pages() -> (BingoEngine, Vec<AnalyzedDocument>) {
    let world = WorldConfig::portal(2003, 300, 1).build();
    let mut engine = BingoEngine::new(EngineConfig::default());
    for (true_topic, name) in ["database research", "data mining", "web ir"]
        .iter()
        .enumerate()
    {
        let topic = engine.add_topic(TopicTree::ROOT, name);
        for url in content_urls(&world, true_topic as u32).take(8) {
            engine
                .add_training_url(&world, topic, &url)
                .expect("page fetches");
        }
    }
    for noise in [3, 4] {
        for url in content_urls(&world, noise).take(8) {
            let _ = engine.add_others_url(&world, &url);
        }
    }
    engine.train().expect("the fixture trains");
    let registry = ContentRegistry::new();
    let mut pages = Vec::new();
    for topic in 0..5 {
        for url in content_urls(&world, topic).skip(8).take(4) {
            if let FetchOutcome::Ok(r) = world.fetch(&url, 0) {
                if let Ok(html) = registry.to_html(r.mime, &r.payload) {
                    pages.push(analyze_html(&html, &mut engine.vocab));
                }
            }
        }
    }
    (engine, pages)
}

#[test]
fn a_warmed_page_is_classified_without_allocating() {
    let (engine, pages) = engine_and_pages();
    let classifier = engine.batch_classifier();
    let mut accepted = 0;
    for page in &pages {
        let features = DocumentFeatures::from_document(page);
        let first = classifier.classify(&features);
        let (again, allocations) = counted(|| classifier.classify(&features));
        assert_eq!(again, first);
        assert_eq!(allocations, 0, "{} terms", page.terms.len());
        accepted += usize::from(first.topic.is_some());
    }
    assert!(
        accepted > 0 && accepted < pages.len(),
        "{accepted} of {}",
        pages.len()
    );
}

#[test]
fn a_warmed_page_is_assessed_allocating_only_what_it_hands_on() {
    let (engine, pages) = engine_and_pages();
    let classifier = engine.batch_classifier();
    for page in &pages {
        let (anchors, neighbors) = (&page.terms[..3], &page.terms[3..9]);
        // The page as the pipeline's judge sees it.
        let mut features = DocumentFeatures::from_document(page);
        features.add_incoming_anchor(anchors);
        features.add_neighbor_terms(neighbors);
        let kept = classifier.classify(&features).topic.is_some();
        drop(classifier.assess(page, anchors, neighbors));
        let (assessed, allocations) = counted(|| classifier.assess(page, anchors, neighbors));
        drop(assessed);
        // The distinct features, and an accepted page's features: its
        // term and pair counts and its link context, one vector each.
        assert_eq!(allocations, if kept { 5 } else { 1 }, "accepted: {kept}");
    }
}
