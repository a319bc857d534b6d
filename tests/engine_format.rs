//! An `engine.json` written by an older build (format version 2: the
//! live corpus in full next to the frozen one) loads, saves in the
//! current format (the frozen table plus the counts pending beside it),
//! and reloads into an engine that judges every page as the first did,
//! before and after a retraining.

use bingo::core::persist::{load_engine, save_engine};
use bingo::prelude::*;
use bingo::webworld::PageKind;

/// Written at commit c7c9c0a over `WorldConfig::small_test(71)`.
const V2: &[u8] = include_bytes!("../crates/core/tests/fixtures/engine_parent_c7c9c0a.json");

/// `(topic, confidence bits)` of every content page of the first 300,
/// judged in order; the analysis grows the engine's corpus as it goes.
fn judgments(engine: &mut BingoEngine, world: &World) -> Vec<(Option<u32>, u32)> {
    let mut judged = Vec::new();
    for id in (0..300u64).filter(|&id| world.page(id).kind == PageKind::Content) {
        if let Ok((_, _, features)) = engine.analyze_url(world, &world.url_of(id)) {
            let judgment = engine.classify(&features);
            judged.push((judgment.topic, judgment.confidence.to_bits()));
        }
    }
    judged
}

#[test]
fn v2_snapshot_resaved_in_the_current_format_judges_alike() {
    let world = WorldConfig::small_test(71).build();
    let mut from_v2 = load_engine(V2).unwrap();
    let mut current = Vec::new();
    save_engine(&from_v2, &mut current).unwrap();
    assert!(current.len() < V2.len(), "one df table is written, not two");
    let mut reloaded = load_engine(&current[..]).unwrap();

    let expected = judgments(&mut from_v2, &world);
    assert!(expected.len() > 50);
    assert!(expected.iter().any(|&(topic, _)| topic.is_some()));
    assert!(expected.iter().any(|&(topic, _)| topic.is_none()));
    assert_eq!(judgments(&mut reloaded, &world), expected);
    // A retraining freezes the live counts, pending ones included.
    assert_eq!(reloaded.corpus().doc_count(), from_v2.corpus().doc_count());
    from_v2.train().unwrap();
    reloaded.train().unwrap();
    assert_eq!(
        judgments(&mut reloaded, &world),
        judgments(&mut from_v2, &world)
    );
}
