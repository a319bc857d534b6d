//! The checkpoint codec is a fixed point: any checkpoint a crawl takes
//! reads back and writes out as the same bytes.

use bingo_crawler::checkpoint::checkpoint_bytes;
use bingo_crawler::{CrawlCheckpoint, CrawlConfig, Crawler, Judgment, PageContext};
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// The checkpoint of a short crawl of `small_test(seed)`, judged with
/// confidences spread over both signs so the frontier holds varied
/// priorities.
fn checkpoint_after(seed: u64, deadline_ms: u64) -> CrawlCheckpoint {
    let world = Arc::new(WorldConfig::small_test(seed).build());
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = |doc: &AnalyzedDocument, _: &PageContext| {
        let spread = (doc.terms.len() % 17) as f32 / 16.0 - 0.3;
        Judgment {
            topic: (spread > 0.0).then_some(0),
            confidence: spread,
        }
    };
    crawler.run_until(deadline_ms, &mut judge, &mut Vocabulary::new());
    crawler.checkpoint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn checkpoint_text_is_a_fixed_point(
        seed in 0u64..1_000,
        deadline_ms in 2_000u64..20_000,
    ) {
        let cp = checkpoint_after(seed, deadline_ms);
        let text = String::from_utf8(checkpoint_bytes(&cp).unwrap()).unwrap();
        let back: CrawlCheckpoint = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
