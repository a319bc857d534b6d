//! Checkpoint-corruption property tests: however a session directory is
//! damaged — any file truncated at any offset, any byte window garbled,
//! any piece missing — [`Crawler::resume_session`] must either roll
//! back to an older complete generation or surface a clean
//! [`CheckpointError`]. Never a panic, never a half-loaded crawler.
//! Plus property tests that same-seed crawls emit byte-identical
//! telemetry (the determinism contract the bench gate enforces at macro
//! scale).

use bingo_crawler::checkpoint::{checkpoint_bytes, CheckpointError, CRAWLER_FILE, STORE_FILE};
use bingo_crawler::{
    CrawlCheckpoint, CrawlConfig, CrawlTelemetry, Crawler, Judgment, PageContext, QueueEntry,
};
use bingo_obs::{EventLog, Registry};
use bingo_store::durable::{self, MANIFEST_FILE};
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The files making up one checkpoint generation.
const PIECES: [&str; 3] = [MANIFEST_FILE, CRAWLER_FILE, STORE_FILE];

fn accept_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

fn small_world(seed: u64) -> Arc<World> {
    Arc::new(WorldConfig::small_test(seed).build())
}

/// Crawl a little and save a valid session into a fresh directory.
fn saved_session(tag: &str) -> (Arc<World>, PathBuf) {
    let world = small_world(42);
    let dir = std::env::temp_dir().join(format!("bingo-ckpt-corruption-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(20_000, &mut judge, &mut vocab);
    assert!(
        crawler.stats().stored_pages > 0,
        "session too small to test"
    );
    crawler.save_session(&dir).expect("save session");
    (world, dir)
}

/// One crawled-and-saved session, built once and copied per proptest
/// case so each case corrupts a private clone.
fn template() -> &'static (Arc<World>, PathBuf) {
    static TEMPLATE: OnceLock<(Arc<World>, PathBuf)> = OnceLock::new();
    TEMPLATE.get_or_init(|| saved_session("template"))
}

/// Copy the template session into a fresh directory.
fn clone_session(tag: &str) -> PathBuf {
    let (_, src) = template();
    let gen = durable::find_newest_complete(src).expect("template has a complete generation");
    let dst = std::env::temp_dir().join(format!("bingo-ckpt-corruption-{tag}"));
    std::fs::remove_dir_all(&dst).ok();
    let gen_dir = dst.join(gen.dir.file_name().expect("generation dir name"));
    std::fs::create_dir_all(&gen_dir).unwrap();
    for piece in PIECES {
        std::fs::copy(gen.dir.join(piece), gen_dir.join(piece)).unwrap();
    }
    dst
}

fn resume(world: &Arc<World>, dir: &Path) -> Result<Crawler, CheckpointError> {
    Crawler::resume_session(world.clone(), CrawlConfig::default(), dir)
}

#[test]
fn intact_session_resumes() {
    let (world, dir) = saved_session("intact");
    let crawler = resume(&world, &dir).expect("intact session must resume");
    assert!(crawler.stats().stored_pages > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rollback_recovers_the_previous_generation() {
    // Two generations; the newest one damaged → resume must roll back
    // to the older complete generation, not fail.
    let world = small_world(42);
    let dir = std::env::temp_dir().join("bingo-ckpt-corruption-rollback");
    std::fs::remove_dir_all(&dir).ok();
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(15_000, &mut judge, &mut vocab);
    crawler.save_session(&dir).expect("first save");
    let stored_then = crawler.stats().stored_pages;
    crawler.run_until(40_000, &mut judge, &mut vocab);
    crawler.save_session(&dir).expect("second save");

    let generations = durable::complete_generations(&dir);
    assert_eq!(generations.len(), 2, "both generations kept (keep=2)");
    // Garble the newest generation's store snapshot: its checksum no
    // longer matches the manifest, so the generation is incomplete.
    let newest_store = generations[0].dir.join(STORE_FILE);
    let mut bytes = std::fs::read(&newest_store).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xa5;
    std::fs::write(&newest_store, &bytes).unwrap();

    let resumed = resume(&world, &dir).expect("rollback to older generation");
    assert_eq!(
        resumed.stats().stored_pages,
        stored_then,
        "resume recovered the first save's state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_pieces_are_clean_errors() {
    // Whole directory absent.
    let world = small_world(42);
    let nowhere = std::env::temp_dir().join("bingo-ckpt-corruption-does-not-exist");
    std::fs::remove_dir_all(&nowhere).ok();
    assert!(matches!(
        resume(&world, &nowhere),
        Err(CheckpointError::Io(_))
    ));

    // Intact but uncommitted files in the session root — no manifest
    // vouches for them, so they must never be loaded as a session.
    let dir = clone_session("flat-root");
    let gen = durable::generation_numbers(&dir);
    let gen_dir = durable::generation_dir(&dir, gen[0]);
    for piece in [CRAWLER_FILE, STORE_FILE] {
        std::fs::rename(gen_dir.join(piece), dir.join(piece)).unwrap();
    }
    let (world, _) = template();
    assert!(
        matches!(resume(world, &dir), Err(CheckpointError::Io(_))),
        "un-checksummed files in the session root were loaded"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Any single piece deleted from the only generation: the manifest
    // no longer verifies (or is gone), so there is no complete
    // generation.
    for piece in PIECES {
        let dir = clone_session(&format!("missing-{piece}"));
        let gen = durable::generation_numbers(&dir);
        let gen_dir = durable::generation_dir(&dir, gen[0]);
        std::fs::remove_file(gen_dir.join(piece)).unwrap();
        let (world, _) = template();
        assert!(
            resume(world, &dir).is_err(),
            "missing {piece} must fail cleanly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A committed generation whose crawler checkpoint is well-formed JSON
/// but names more outgoing queues than incoming ones (the frontier is
/// sized from the incoming queues) is refused as a bad checkpoint.
#[test]
fn a_frontier_with_more_outgoing_than_incoming_queues_is_refused() {
    let (world, src) = template();
    let gen = durable::find_newest_complete(src).expect("template has a complete generation");
    let text = std::fs::read_to_string(gen.dir.join(CRAWLER_FILE)).unwrap();
    let mut cp: CrawlCheckpoint = serde_json::from_str(&text).unwrap();
    let seed = QueueEntry::seed(&world.url_of(1), Some(0));
    cp.frontier.incoming = vec![Vec::new()];
    cp.frontier.outgoing = vec![Vec::new(), vec![seed]];
    cp.frontier.parked.clear();
    let dir = std::env::temp_dir().join("bingo-ckpt-corruption-frontier-shape");
    std::fs::remove_dir_all(&dir).ok();
    let mut writer = durable::GenerationWriter::begin(&durable::StdFs, &dir).unwrap();
    let store = std::fs::read(gen.dir.join(STORE_FILE)).unwrap();
    writer.write_file(STORE_FILE, &store).unwrap();
    writer
        .write_file(CRAWLER_FILE, &checkpoint_bytes(&cp).unwrap())
        .unwrap();
    writer.commit().unwrap();
    assert!(
        matches!(resume(world, &dir), Err(CheckpointError::Format(_))),
        "a frontier with an outgoing queue past the incoming ones must be refused"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A segmented session's generation is only as good as the segment
/// files it references: one missing, truncated or bit-flipped — or the
/// whole directory gone — and that generation is skipped like a torn
/// one, the previous complete generation resumes, and when none is
/// left the error is clean.
#[test]
fn damaged_referenced_segments_roll_back_to_the_previous_generation() {
    let world = small_world(42);
    let root = std::env::temp_dir().join("bingo-ckpt-corruption-segments");
    std::fs::remove_dir_all(&root).ok();
    let (segments, session) = (root.join("segments"), root.join("session"));
    let store = DocumentStore::segmented_with(&segments, 8).unwrap();
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), store.clone());
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    // Generation 1 before the first seal: it references no segment.
    while crawler.stats().stored_pages < 5 {
        crawler.step(&mut judge, &mut vocab);
    }
    assert_eq!(store.segment_count(), 0);
    crawler.save_session(&session).expect("first save");
    let first_stored = crawler.stats().stored_pages;
    // Generation 2 references three.
    while store.segment_count() < 3 {
        crawler.step(&mut judge, &mut vocab);
    }
    crawler.save_session(&session).expect("second save");
    let second_stored = crawler.stats().stored_pages;
    drop((crawler, store));

    let stored_after_resume = || {
        let resumed = resume(&world, &session)?;
        assert!(resumed.store().is_segmented());
        assert_eq!(
            resumed.store().document_count() as u64,
            resumed.stats().stored_pages
        );
        Ok::<u64, CheckpointError>(resumed.stats().stored_pages)
    };
    assert_eq!(stored_after_resume().unwrap(), second_stored, "intact");

    let victim = segments.join("seg-000001.jsonl");
    let intact = std::fs::read(&victim).unwrap();
    let mut flipped = intact.clone();
    flipped[intact.len() / 2] ^= 0x01;
    let damages: [(&str, Option<&[u8]>); 3] = [
        ("missing", None),
        ("truncated", Some(&intact[..intact.len() / 2])),
        ("one bit flipped", Some(&flipped)),
    ];
    for (damage, bytes) in damages {
        match bytes {
            Some(bytes) => std::fs::write(&victim, bytes).unwrap(),
            None => std::fs::remove_file(&victim).unwrap(),
        }
        assert_eq!(
            stored_after_resume().unwrap_or_else(|e| panic!("segment {damage}: {e}")),
            first_stored,
            "segment {damage}: rollback to the generation before it"
        );
        std::fs::write(&victim, &intact).unwrap();
    }
    assert_eq!(stored_after_resume().unwrap(), second_stored, "repaired");

    // The directory the header names is gone: generation 2 cannot open,
    // generation 1 needs nothing from it.
    std::fs::rename(&segments, root.join("segments-moved")).unwrap();
    assert_eq!(
        stored_after_resume().unwrap(),
        first_stored,
        "directory gone"
    );
    // With generation 1 gone too nothing is resumable.
    std::fs::remove_dir_all(durable::generation_dir(&session, 1)).unwrap();
    assert!(
        matches!(stored_after_resume(), Err(CheckpointError::Store(_))),
        "no resumable generation must be a clean store error"
    );
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncate any piece of the only generation at an arbitrary offset:
    /// resume must fail with a clean error (no older generation exists),
    /// never panic.
    #[test]
    fn truncation_anywhere_fails_clean(piece in 0usize..3, frac in 0.0f64..1.0) {
        let dir = clone_session(&format!("trunc-{piece}-{}", (frac * 1e6) as u64));
        let gen = durable::generation_numbers(&dir);
        let path = durable::generation_dir(&dir, gen[0]).join(PIECES[piece]);
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (world, _) = template();
        let outcome = resume(world, &dir).map(|_| ());
        prop_assert!(outcome.is_err(), "truncated {} at {cut} must fail", PIECES[piece]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Garble an arbitrary byte window of any piece (XOR 0xA5): the
    /// manifest checksum (or the manifest itself) no longer verifies,
    /// and resume fails cleanly.
    #[test]
    fn garbling_anywhere_fails_clean(
        piece in 0usize..3,
        frac in 0.0f64..1.0,
        window in 1usize..16,
    ) {
        let dir = clone_session(&format!("garble-{piece}-{}-{window}", (frac * 1e6) as u64));
        let gen = durable::generation_numbers(&dir);
        let path = durable::generation_dir(&dir, gen[0]).join(PIECES[piece]);
        let mut bytes = std::fs::read(&path).unwrap();
        let start = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
        let end = (start + window).min(bytes.len());
        for b in &mut bytes[start..end] {
            *b ^= 0xa5;
        }
        std::fs::write(&path, &bytes).unwrap();
        let (world, _) = template();
        let outcome = resume(world, &dir).map(|_| ());
        prop_assert!(
            outcome.is_err(),
            "garbled {} at {start}..{end} must fail",
            PIECES[piece]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Run a telemetry-instrumented crawl and return its deterministic
/// telemetry as bytes: (metrics snapshot JSON, events JSONL).
fn telemetry_bytes(seed: u64, budget_ms: u64) -> (String, String) {
    let world = Arc::new(WorldConfig::chaos(seed).build());
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    crawler.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(budget_ms, &mut judge, &mut vocab);
    (registry.snapshot().to_json(), events.to_jsonl())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The determinism contract of the observability layer, at property
    /// scale: whatever the seed and budget, two identical runs emit
    /// byte-identical deterministic metrics and event logs.
    #[test]
    fn same_seed_runs_emit_identical_telemetry(seed in 0u64..64, budget_ms in 4_000u64..30_000) {
        let (snap_a, events_a) = telemetry_bytes(seed, budget_ms);
        let (snap_b, events_b) = telemetry_bytes(seed, budget_ms);
        prop_assert_eq!(snap_a, snap_b);
        prop_assert_eq!(events_a, events_b);
    }

    /// Different budgets must actually change the telemetry (guards
    /// against the snapshot being trivially empty).
    #[test]
    fn telemetry_reflects_the_crawl(seed in 0u64..16) {
        let (snap, events) = telemetry_bytes(seed, 25_000);
        prop_assert!(snap.contains("crawl.fetch.ok"));
        prop_assert!(!snap.contains("wall"), "wall-clock metric registered in crawl telemetry");
        // Chaos worlds trip breakers: the event log should not be empty
        // for most seeds, but an empty log is legal — only assert shape.
        for line in events.lines() {
            prop_assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
