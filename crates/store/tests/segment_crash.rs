//! Crash-point matrix for segment seals: killing the write at *any*
//! byte of a segment flush — inside the segment file, between segment
//! and manifest, inside the manifest — must never lose an acked seal,
//! and recovery (reopening the store directory) must come up on
//! exactly the newest committed manifest. Rows that were only in the
//! workspace when the crash hit are not durable yet, but they stay
//! readable in the live handle and a retried seal lands them.
//!
//! Seed-driven like `crates/crawler/tests/crash.rs`: set
//! `BINGO_CRASH_SEEDS=7,8,9` to sweep extra pseudo-random crash points
//! (CI pins a fixed seed matrix).

use bingo_store::segment::SEGMENTS_FILE;
use bingo_store::{CrashFs, DocumentRow, DocumentStore, LinkRow};
use bingo_textproc::{fxhash, MimeType};
use std::path::PathBuf;

fn doc(id: u64) -> DocumentRow {
    DocumentRow {
        id,
        url: format!("http://h{}/p{id}", id % 3),
        host: (id % 3) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: format!("doc {id}"),
        topic: Some((id % 2) as u32),
        confidence: 0.5,
        term_freqs: vec![(1, 2), (7, 1)],
        size: 100,
        fetched_at: id,
    }
}

fn link(from: u64, to: u64) -> LinkRow {
    LinkRow {
        from,
        to,
        to_url: format!("http://h{}/p{to}", to % 3),
    }
}

fn crash_seeds() -> Vec<u64> {
    match std::env::var("BINGO_CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bingo-segcrash-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Build a store with batch A sealed (the acked generation) and batch B
/// staged in the workspace, ready for the seal under test.
fn store_at_second_seal(dir: &PathBuf) -> DocumentStore {
    let store = DocumentStore::segmented_with(dir, 1_000_000).expect("open");
    for id in 0..4 {
        store.insert_document(doc(id)).unwrap();
        store.insert_link(link(id, id + 1));
    }
    store.seal_now().expect("acked seal of batch A");
    for id in 4..8 {
        store.insert_document(doc(id)).unwrap();
        store.insert_link(link(id, id + 1));
    }
    store
}

/// Byte sizes (second segment file, manifest) of a clean second seal.
fn seal_sizes() -> (u64, u64) {
    let dir = fresh_dir("sizes");
    let store = store_at_second_seal(&dir);
    store.seal_now().expect("clean seal");
    let seg = std::fs::metadata(dir.join("seg-000001.jsonl"))
        .unwrap()
        .len();
    let manifest = std::fs::metadata(dir.join(SEGMENTS_FILE)).unwrap().len();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    (seg, manifest)
}

#[test]
fn seal_killed_at_every_byte_keeps_the_acked_segment() {
    let (seg_len, manifest_len) = seal_sizes();
    let total = seg_len + manifest_len;

    // Exact boundaries: before the first byte, one byte in, the edges
    // of the segment/manifest gap, the last manifest byte.
    let mut budgets: Vec<u64> = vec![0, 1, seg_len - 1, seg_len, seg_len + 1, total - 1];
    for seed in crash_seeds() {
        for i in 0u64..6 {
            budgets.push(fxhash::hash_one(&(seed, i)) % total);
        }
    }
    budgets.sort_unstable();
    budgets.dedup();
    budgets.retain(|b| *b < total);

    for budget in budgets {
        let dir = fresh_dir(&format!("matrix-{budget}"));
        let store = store_at_second_seal(&dir);

        let fs = CrashFs::with_budget(budget);
        assert!(
            store.seal_now_with(&fs).is_err(),
            "budget {budget}: seal must report the crash"
        );
        assert!(fs.crashed(), "budget {budget}: crash must have fired");

        // The live handle still merges workspace + sealed reads: no row
        // vanished with the failed seal.
        assert_eq!(store.document_count(), 8, "budget {budget}: live reads");
        assert_eq!(store.document(6).unwrap().title, "doc 6");

        // Recovery: reopening sees exactly the acked first seal — never
        // a torn second segment, never fewer rows than were acked.
        let reopened = DocumentStore::segmented(&dir)
            .unwrap_or_else(|e| panic!("budget {budget}: reopen failed: {e}"));
        assert_eq!(
            reopened.document_count(),
            4,
            "budget {budget}: acked batch lost or torn batch surfaced"
        );
        assert_eq!(reopened.segment_count(), 1, "budget {budget}");
        for id in 0..4 {
            assert!(
                reopened.document(id).is_some(),
                "budget {budget}: acked row {id} lost"
            );
        }
        // Reopen reaped any orphan the crash left: every remaining
        // segment file is referenced by the manifest.
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != SEGMENTS_FILE && n != "seg-000000.jsonl")
            .collect();
        assert!(
            leftovers.is_empty(),
            "budget {budget}: orphan debris survived reopen: {leftovers:?}"
        );
        drop(reopened);

        // The workspace rows were never acked — but a retried seal from
        // the live handle lands them, and recovery then sees all eight.
        store.seal_now().expect("retried seal");
        drop(store);
        let recovered = DocumentStore::segmented(&dir).unwrap();
        assert_eq!(recovered.document_count(), 8, "budget {budget}: retry");
        assert_eq!(recovered.link_count(), 8, "budget {budget}: retry links");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `SEGMENTS.json` that cannot be parsed names nothing for sure:
/// the open fails and every sealed segment stays on disk, as does a
/// generation prune run over the same directory.
#[test]
fn unparseable_manifest_fails_the_open_and_deletes_nothing() {
    let dir = fresh_dir("garbled-manifest");
    let store = DocumentStore::segmented_with(&dir, 1_000_000).expect("open");
    for id in 0..8 {
        store.insert_document(doc(id)).unwrap();
        if id % 2 == 1 {
            store.seal_now().expect("seal");
        }
    }
    assert_eq!(store.segment_count(), 4);
    drop(store);
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort_unstable();
        names
    };
    let before = listing();
    assert_eq!(before.len(), 5, "four segments and the manifest");
    std::fs::write(dir.join(SEGMENTS_FILE), b"{\"magic\":1").unwrap();
    assert!(matches!(
        DocumentStore::segmented(&dir),
        Err(bingo_store::StoreError::Persist(_))
    ));
    assert_eq!(listing(), before, "a failed open deleted files");
    bingo_store::durable::prune_generations(&dir, 1);
    assert_eq!(listing(), before, "a prune deleted files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_any_commit_recovers_an_empty_store() {
    let dir = fresh_dir("first-seal");
    let store = DocumentStore::segmented_with(&dir, 1_000_000).expect("open");
    for id in 0..4 {
        store.insert_document(doc(id)).unwrap();
    }
    // Kill the very first seal mid-segment: no manifest was ever
    // committed, so recovery sees an empty (but valid) store.
    let fs = CrashFs::with_budget(40);
    assert!(store.seal_now_with(&fs).is_err());
    drop(store);
    let reopened = DocumentStore::segmented(&dir).expect("reopen");
    assert_eq!(reopened.document_count(), 0);
    assert_eq!(reopened.segment_count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
