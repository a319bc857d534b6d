//! The judge's every bit, pinned in tier-1: about 200 pages of a small
//! portal world judged by a three-topic engine — through the batch
//! classifier, through `BingoEngine::classify` and through the engine
//! saved and loaded again — must give the `(topic, confidence bits)`
//! list an older build gave, digest for digest. A change to the
//! classification kernel that moves one bit of one confidence fails
//! here, not only in the experiment reports.

use bingo::core::persist::{load_engine, save_engine};
use bingo::crawler::Judgment;
use bingo::prelude::*;
use bingo::store::durable::checksum;
use bingo::textproc::{analyze_html, ContentRegistry, DocumentFeatures};
use bingo::webworld::{FetchOutcome, PageKind};

/// `digest` of the judgments at commit 79e3b44, the build before the
/// judge counted instead of sorting.
const PARENT_DIGEST: u64 = 5466867877225450670;
/// Pages judged, and how many of them some topic accepted, then.
const PARENT_PAGES: usize = 199;
const PARENT_ACCEPTED: usize = 84;

/// URLs of the content pages of `topic`, in id order.
fn content_urls(world: &World, topic: u32) -> impl Iterator<Item = String> + '_ {
    (0..world.page_count() as u64)
        .filter(move |&id| {
            world.true_topic(id) == Some(topic) && world.page(id).kind == PageKind::Content
        })
        .map(|id| world.url_of(id))
}

/// The pipeline benchmark's engine at a smaller size — database
/// research, data mining and web IR against two noise topics — and the
/// features of every 23rd page of the world that fetches, with the
/// link context a crawl would give them.
fn engine_and_pages() -> (BingoEngine, Vec<DocumentFeatures>) {
    let world = WorldConfig::portal(2003, 300, 1).build();
    let mut engine = BingoEngine::new(EngineConfig::default());
    for (true_topic, name) in ["database research", "data mining", "web ir"]
        .iter()
        .enumerate()
    {
        let topic = engine.add_topic(TopicTree::ROOT, name);
        // Pages on a flaky host may not fetch; the others suffice.
        for url in content_urls(&world, true_topic as u32).take(10) {
            let _ = engine.add_training_url(&world, topic, &url);
        }
    }
    for noise in [3, 4] {
        for url in content_urls(&world, noise).take(10) {
            let _ = engine.add_others_url(&world, &url);
        }
    }
    engine.train().expect("the fixture trains");
    let registry = ContentRegistry::new();
    let mut pages = Vec::new();
    for id in (1..world.page_count() as u64).step_by(23) {
        let FetchOutcome::Ok(response) = world.fetch(&world.url_of(id), 0) else {
            continue;
        };
        let Ok(html) = registry.to_html(response.mime, &response.payload) else {
            continue;
        };
        let doc = analyze_html(&html, &mut engine.vocab);
        let mut features = DocumentFeatures::from_document(&doc);
        // Anchor and neighbour terms of the page's own, as a link to it
        // and the page before it would carry.
        let terms = &doc.terms;
        features.add_incoming_anchor(&terms[..terms.len().min(3)]);
        features.add_neighbor_terms(&terms[terms.len() / 2..terms.len().min(terms.len() / 2 + 8)]);
        pages.push(features);
    }
    (engine, pages)
}

/// `checksum` of the judgments written one per line as `topic
/// confidence-bits`.
fn digest(judgments: &[Judgment]) -> u64 {
    let text: String = judgments
        .iter()
        .map(|j| format!("{:?} {:08x}\n", j.topic, j.confidence.to_bits()))
        .collect();
    checksum(text.as_bytes())
}

#[test]
fn judgments_keep_every_bit_of_the_older_build() {
    let (engine, pages) = engine_and_pages();
    let classifier = engine.batch_classifier();
    let shared: Vec<Judgment> = pages.iter().map(|f| classifier.classify(f)).collect();
    let one_by_one: Vec<Judgment> = pages.iter().map(|f| engine.classify(f)).collect();
    let mut bytes = Vec::new();
    save_engine(&engine, &mut bytes).expect("saves");
    let reloaded = load_engine(&bytes[..]).expect("loads");
    let after_reload: Vec<Judgment> = pages.iter().map(|f| reloaded.classify(f)).collect();

    let accepted = shared.iter().filter(|j| j.topic.is_some()).count();
    assert_eq!(one_by_one, shared);
    assert_eq!(after_reload, shared);
    assert_eq!((pages.len(), accepted), (PARENT_PAGES, PARENT_ACCEPTED));
    assert_eq!(digest(&shared), PARENT_DIGEST);
}
