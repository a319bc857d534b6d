//! An `engine.json` written by an older build loads and saves in the
//! current format. Format version 2 (the live corpus in full next to the
//! frozen one) resaves as the frozen table plus the counts pending beside
//! it, and reloads into an engine that judges every page as the first
//! did, before and after a retraining. Format version 3 resaves as its
//! own bytes without the settings that are constants now.

use bingo::core::persist::{load_engine, save_engine};
use bingo::prelude::*;
use bingo::webworld::PageKind;
use serde_json::Value;

/// Written at commit c7c9c0a over `WorldConfig::small_test(71)`.
const V2: &[u8] = include_bytes!("../crates/core/tests/fixtures/engine_parent_c7c9c0a.json");

/// Written at commit b82963c by `bingo crawl --seed 2003 --authors 300
/// --budget-secs 20`, after the harvest.
const V3: &[u8] = include_bytes!("fixtures/session_parent_b82963c/gen-000002/engine.json");

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

/// The object at `path` below `value`.
fn object_at<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Vec<(String, Value)> {
    let Value::Object(entries) = value else {
        panic!("not an object");
    };
    match path.split_first() {
        None => entries,
        Some((key, rest)) => {
            let (_, inner) = entries.iter_mut().find(|(k, _)| k == key).unwrap();
            object_at(inner, rest)
        }
    }
}

/// Remove `keys` from the object at `path`, each of which it must hold.
fn remove(value: &mut Value, path: &[&str], keys: &[&str]) {
    let entries = object_at(value, path);
    for key in keys {
        let at = entries.iter().position(|(k, _)| k == key);
        entries.remove(at.unwrap_or_else(|| panic!("no {key} at {path:?}")));
    }
}

#[test]
fn v3_snapshot_resaves_as_its_bytes_without_the_constant_settings() {
    let text = std::str::from_utf8(V3).unwrap();
    let mut expected: Value = serde_json::from_str(text).unwrap();
    // The tree writes the fixture's very bytes back.
    assert_eq!(serde_json::to_string(&expected).unwrap(), text);
    let engine_keys = [
        "meta_learning",
        "meta_harvesting",
        "single_classifier",
        "n_auth",
        "n_conf",
        "candidate_pool",
        "hub_boost",
    ];
    remove(&mut expected, &["config"], &engine_keys);
    let svm_keys = ["cost", "max_iterations", "tolerance", "bias_value", "seed"];
    remove(&mut expected, &["config", "model", "svm"], &svm_keys);
    let selection_keys = ["pre_select", "select"];
    remove(
        &mut expected,
        &["config", "model", "selection"],
        &selection_keys,
    );
    let root = object_at(&mut expected, &[]);
    let (_, version) = root.iter_mut().find(|(k, _)| k == "version").unwrap();
    assert_eq!(*version, Value::U64(3));
    *version = Value::U64(4);
    let (_, Value::Array(models)) = root.iter_mut().find(|(k, _)| k == "models").unwrap() else {
        panic!("models is not an array");
    };
    assert!(!models.is_empty());
    for entry in models {
        let Value::Array(pair) = entry else {
            panic!("a model entry is not an (id, model) pair");
        };
        remove(&mut pair[1], &[], &["best_space"]);
    }

    let mut current = Vec::new();
    save_engine(&load_engine(V3).unwrap(), &mut current).unwrap();
    let expected = serde_json::to_string(&expected).unwrap();
    assert!(current == expected.as_bytes(), "v3 resaved differs");
}
