//! Saving and restoring a trained engine.
//!
//! A BINGO! crawl is a long-running affair ("setting up an overnight
//! crawl ... looking at the results the next morning", Section 1.2);
//! the trained state — topic tree with training documents, vocabulary,
//! corpus statistics and all per-topic decision models — survives the
//! process through a JSON snapshot, so postprocessing, feedback rounds
//! and crawl resumption can run in later sessions.
//!
//! Format version 2 stores the corpus statistics the models were trained
//! with once (`frozen`), next to the live ones (`corpus`); version 1
//! repeated them inside every feature space of every model.

use crate::engine::{BingoEngine, EngineError, Phase};
use crate::model::TopicModel;
use crate::topic::TopicTree;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::tfidf::{CorpusStats, TfIdfWeighter};
use bingo_textproc::Vocabulary;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

#[derive(Serialize, Deserialize)]
struct EngineSnapshot {
    magic: String,
    version: u64,
    config: crate::engine::EngineConfig,
    phase: Phase,
    vocab: Vocabulary,
    tree: TopicTree,
    corpus: CorpusStats,
    frozen: TfIdfWeighter,
    models: Vec<(u32, TopicModel)>,
}

const MAGIC: &str = "bingo-engine";
const VERSION: u64 = 2;

/// The format fields of a snapshot of any version, read before the
/// rest; every other field is skipped, not built.
#[derive(Deserialize)]
struct FormatProbe {
    magic: String,
    version: u64,
}

/// Serialize the engine's trained state to a writer as JSON.
pub fn save_engine<W: Write>(engine: &BingoEngine, w: W) -> Result<(), EngineError> {
    let snapshot = EngineSnapshot {
        magic: MAGIC.to_string(),
        version: VERSION,
        config: engine.config.clone(),
        phase: engine.phase(),
        vocab: engine.vocab.clone(),
        tree: engine.tree.clone(),
        corpus: engine.corpus().clone(),
        frozen: engine.frozen().clone(),
        models: engine.models_snapshot(),
    };
    serde_json::to_writer(w, &snapshot).map_err(|e| EngineError::Persist(e.to_string()))
}

/// Restore an engine from a snapshot. Derived lookup structures
/// (vocabulary index, feature-selection projections, scoring tables) are
/// rebuilt and every model gets its handle to the one frozen weighter;
/// the candidate pool is session state and starts empty.
pub fn load_engine<R: Read>(mut r: R) -> Result<BingoEngine, EngineError> {
    let persist = |e: &dyn std::fmt::Display| EngineError::Persist(e.to_string());
    let mut text = String::new();
    r.read_to_string(&mut text).map_err(|e| persist(&e))?;
    // Magic and version first, so a snapshot of another format is
    // refused by name rather than by whichever field it lacks.
    let probe: FormatProbe = serde_json::from_str(&text).map_err(|e| persist(&e))?;
    if probe.magic != MAGIC {
        return Err(EngineError::Persist(format!("bad magic {:?}", probe.magic)));
    }
    if probe.version != VERSION {
        return Err(EngineError::Persist(format!(
            "unsupported version {} (this build reads {VERSION})",
            probe.version
        )));
    }
    let mut snapshot: EngineSnapshot = serde_json::from_str(&text).map_err(|e| persist(&e))?;
    snapshot.vocab.rebuild_index();
    let mut models: FxHashMap<u32, TopicModel> = FxHashMap::default();
    for (id, mut model) in snapshot.models {
        model.restore(&snapshot.frozen);
        models.insert(id, model);
    }
    Ok(BingoEngine::from_parts(
        snapshot.config,
        snapshot.phase,
        snapshot.vocab,
        snapshot.tree,
        snapshot.corpus,
        snapshot.frozen,
        models,
    ))
}

/// File name of the engine snapshot inside a crawl-session directory.
pub const ENGINE_FILE: &str = "engine.json";

/// Save a complete crawl session — the trained engine plus the
/// crawler's checkpoint and document store — into `dir` as one
/// crash-consistent checkpoint generation: all three files and the
/// manifest land in the same `gen-NNNNNN` directory, so a crash at any
/// byte of the write leaves the previous generation untouched. Together
/// with [`load_session`] this is the "overnight crawl" workflow with
/// crash tolerance: a killed harvest resumes from the last complete
/// generation written by this function (or by the crawler's automatic
/// checkpoint interval, which writes the same layout minus the engine
/// file).
pub fn save_session<P: AsRef<std::path::Path>>(
    engine: &BingoEngine,
    crawler: &bingo_crawler::Crawler,
    dir: P,
) -> Result<(), EngineError> {
    save_session_with(engine, crawler, &bingo_store::durable::StdFs, dir)
}

/// [`save_session`] over an injectable filesystem (crash-point testing).
pub fn save_session_with<P: AsRef<std::path::Path>>(
    engine: &BingoEngine,
    crawler: &bingo_crawler::Crawler,
    fs: &dyn bingo_store::durable::DurableFs,
    dir: P,
) -> Result<(), EngineError> {
    let dir = dir.as_ref();
    let persist = |e: std::io::Error| EngineError::Persist(e.to_string());
    let mut writer = bingo_store::durable::GenerationWriter::begin(fs, dir).map_err(persist)?;
    crawler
        .write_session_into(&mut writer)
        .map_err(|e| EngineError::Persist(e.to_string()))?;
    let mut engine_bytes = Vec::new();
    save_engine(engine, &mut engine_bytes)?;
    writer
        .write_file(ENGINE_FILE, &engine_bytes)
        .map_err(persist)?;
    writer.commit().map_err(persist)?;
    crawler.prune_session(fs, dir);
    Ok(())
}

/// Resume a crawl session saved by [`save_session`]: rebuilds the
/// engine and a crawler positioned exactly where the crawl stopped.
/// `world` and `config` must match the original crawl. The engine comes
/// from the newest complete generation that carries an engine snapshot
/// (automatic crawl checkpoints do not); the crawler from the newest
/// complete generation overall. Only manifest-committed files are ever
/// loaded.
pub fn load_session<P: AsRef<std::path::Path>>(
    world: std::sync::Arc<bingo_webworld::World>,
    config: bingo_crawler::CrawlConfig,
    dir: P,
) -> Result<(BingoEngine, bingo_crawler::Crawler), EngineError> {
    let dir = dir.as_ref();
    let engine_path = bingo_store::durable::complete_generations(dir)
        .into_iter()
        .find(|g| g.manifest.files.iter().any(|f| f.name == ENGINE_FILE))
        .map(|g| g.dir.join(ENGINE_FILE))
        .ok_or_else(|| {
            EngineError::Persist(format!(
                "no complete generation with an engine snapshot in {}",
                dir.display()
            ))
        })?;
    let file = std::fs::File::open(engine_path).map_err(|e| EngineError::Persist(e.to_string()))?;
    let engine = load_engine(std::io::BufReader::new(file))?;
    let crawler = bingo_crawler::Crawler::resume_session(world, config, dir)
        .map_err(|e| EngineError::Persist(e.to_string()))?;
    Ok((engine, crawler))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, TopicTree as Tree};
    use bingo_webworld::gen::WorldConfig;

    fn trained_engine() -> (BingoEngine, bingo_webworld::World, crate::TopicId) {
        let world = WorldConfig::small_test(71).build();
        let mut engine = BingoEngine::new(EngineConfig::default());
        let topic = engine.add_topic(Tree::ROOT, "database research");
        for a in &world.authors()[..3] {
            engine
                .add_training_url(&world, topic, &world.url_of(a.homepage))
                .unwrap();
        }
        let mut added = 0;
        for id in 0..world.page_count() as u64 {
            if matches!(world.true_topic(id), Some(2) | Some(3)) {
                if engine.add_others_url(&world, &world.url_of(id)).is_ok() {
                    added += 1;
                }
                if added >= 20 {
                    break;
                }
            }
        }
        engine.train().unwrap();
        (engine, world, topic)
    }

    #[test]
    fn round_trip_preserves_decisions() {
        let (mut engine, world, topic) = trained_engine();
        // Collect a probe set and its verdicts before saving.
        let probes: Vec<_> = (0..world.page_count() as u64)
            .filter(|&id| {
                matches!(world.true_topic(id), Some(0) | Some(2))
                    && world.page(id).kind == bingo_webworld::PageKind::Content
            })
            .take(12)
            .filter_map(|id| {
                engine
                    .analyze_url(&world, &world.url_of(id))
                    .ok()
                    .map(|(_, _, f)| f)
            })
            .collect();
        let before: Vec<_> = probes.iter().map(|f| engine.classify(f)).collect();

        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let restored = load_engine(&buf[..]).unwrap();

        assert_eq!(restored.tree.len(), engine.tree.len());
        assert_eq!(restored.vocab.len(), engine.vocab.len());
        assert_eq!(restored.phase(), engine.phase());
        assert!(restored.model(topic).is_some());
        let after: Vec<_> = probes.iter().map(|f| restored.classify(f)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.topic, a.topic);
            assert_eq!(b.confidence.to_bits(), a.confidence.to_bits());
        }
    }

    #[test]
    fn restored_engine_can_retrain() {
        let (engine, world, topic) = trained_engine();
        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let mut restored = load_engine(&buf[..]).unwrap();
        // Training data came back: retraining from scratch succeeds.
        restored.train().unwrap();
        assert!(restored.model(topic).is_some());
        let _ = world;
    }

    #[test]
    fn rejects_garbage_and_wrong_magic() {
        assert!(load_engine(&b"not json"[..]).is_err());
        let wrong = serde_json::json!({
            "magic": "nope", "version": 1, "config": serde_json::Value::Null,
        });
        assert!(load_engine(wrong.to_string().as_bytes()).is_err());
    }

    #[test]
    fn frozen_statistics_are_stored_once_and_shared_after_load() {
        let (engine, _world, topic) = trained_engine();
        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        // One df map for the live corpus, one for the frozen view; none
        // per feature space.
        assert_eq!(json.matches("\"doc_freq\"").count(), 2);
        assert!(!json.contains("\"weighter\""));

        let restored = load_engine(json.as_bytes()).unwrap();
        let spaces = &restored.model(topic).unwrap().spaces;
        assert!(spaces.len() > 1);
        for space in spaces {
            assert!(space.weighter.shares_stats_with(restored.frozen()));
        }
        assert_eq!(
            restored.frozen().stats().doc_count(),
            engine.frozen().stats().doc_count()
        );
    }

    /// `engine.json` as the build before the compact df table wrote it
    /// (commit c7c9c0a: `small_test(71)`, two bookmarks, three OTHERS, a
    /// retraining between two short crawl slices, so live and frozen
    /// statistics differ and hold features of all four namespaces).
    #[test]
    fn parent_written_snapshot_loads_and_saves_back_byte_for_byte() {
        let parent = include_bytes!("../tests/fixtures/engine_parent_c7c9c0a.json");
        let engine = load_engine(&parent[..]).unwrap();
        assert!(engine.corpus().doc_count() > engine.frozen().stats().doc_count());
        let mut saved = Vec::new();
        save_engine(&engine, &mut saved).unwrap();
        assert!(
            saved == parent,
            "re-saved snapshot differs from the parent's"
        );
    }

    #[test]
    fn older_format_version_is_refused_by_name() {
        let (engine, _world, _topic) = trained_engine();
        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert_eq!(json.matches("\"version\":2").count(), 1);
        let v1 = json.replace("\"version\":2", "\"version\":1");
        match load_engine(v1.as_bytes()) {
            Err(EngineError::Persist(msg)) => {
                assert!(msg.contains("unsupported version"), "{msg}")
            }
            other => panic!("expected a persist error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn session_round_trip_resumes_crawl() {
        use bingo_crawler::{CrawlConfig, Crawler};
        use bingo_store::DocumentStore;
        use std::sync::Arc;

        let (mut engine, world, _topic) = trained_engine();
        let world = Arc::new(world);
        let config = CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
        crawler.add_seed(&world.url_of(1), None);
        engine.crawl_until(&mut crawler, 3_000, 0);
        let mid_stored = crawler.stats().stored_pages;
        let mid_clock = crawler.clock_ms();
        assert!(mid_stored > 0, "warm-up crawl stored nothing");

        let dir = std::env::temp_dir().join("bingo-session-test");
        std::fs::remove_dir_all(&dir).ok();
        save_session(&engine, &crawler, &dir).unwrap();

        let (mut engine2, mut resumed) = load_session(world.clone(), config, &dir).unwrap();
        assert_eq!(resumed.stats().stored_pages, mid_stored);
        assert_eq!(resumed.clock_ms(), mid_clock);
        assert_eq!(
            resumed.store().document_count(),
            crawler.store().document_count()
        );
        // Both the original and the resumed session keep crawling.
        let more = engine2.crawl_until(&mut resumed, u64::MAX, 0);
        assert!(more > 0, "resumed session must continue the harvest");
        assert!(resumed.stats().stored_pages > mid_stored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_session_save_rolls_back_engine_and_crawler_together() {
        use bingo_crawler::{CrawlConfig, Crawler};
        use bingo_store::durable::CrashFs;
        use bingo_store::DocumentStore;
        use std::sync::Arc;

        let (mut engine, world, _topic) = trained_engine();
        let world = Arc::new(world);
        let config = CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
        crawler.add_seed(&world.url_of(1), None);
        engine.crawl_until(&mut crawler, 3_000, 0);
        assert!(crawler.stats().stored_pages > 0);

        let dir = std::env::temp_dir().join("bingo-session-crash-test");
        std::fs::remove_dir_all(&dir).ok();
        save_session(&engine, &crawler, &dir).unwrap();
        let stored_then = crawler.stats().stored_pages;

        // More progress, then the process dies partway through the next
        // combined save: neither the newer crawl state nor a newer
        // engine snapshot may become visible.
        engine.crawl_until(&mut crawler, 8_000, 0);
        let fs = CrashFs::with_budget(512);
        assert!(save_session_with(&engine, &crawler, &fs, &dir).is_err());
        assert!(fs.crashed());

        let (engine2, resumed) = load_session(world.clone(), config, &dir).unwrap();
        assert_eq!(
            resumed.stats().stored_pages,
            stored_then,
            "crawler rolled back to the last complete generation"
        );
        assert_eq!(engine2.tree.len(), engine.tree.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}
