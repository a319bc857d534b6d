//! Saving and restoring a trained engine.
//!
//! A BINGO! crawl is a long-running affair ("setting up an overnight
//! crawl ... looking at the results the next morning", Section 1.2);
//! the trained state — topic tree with training documents, vocabulary,
//! corpus statistics and all per-topic decision models — survives the
//! process through a JSON snapshot, so postprocessing, feedback rounds
//! and crawl resumption can run in later sessions.
//!
//! Format version 4 stores the corpus statistics the models were trained
//! with once (`frozen`), and beside them only what was counted since
//! (`pending`), one df map each: the live statistics are their sum.
//! Version 3 was version 4 plus the settings that are constants now:
//! `EngineConfig::{meta_learning, meta_harvesting, single_classifier,
//! n_auth, n_conf, candidate_pool, hub_boost}`, `SvmConfig::{cost,
//! max_iterations, tolerance, bias_value, seed}`,
//! `FeatureSelectionConfig::{pre_select, select}` and every model's
//! `best_space`. It still loads: a key naming no field is skipped, and
//! no writer outside tests ever saved any of them at a value other than
//! the constant that replaced it. Version 2 stored the live statistics in full (`corpus`) next to
//! `frozen`; it still loads, with `pending` = `corpus` − `frozen`, and a
//! file where that difference is negative is refused. Version 1
//! repeated the statistics inside every feature space of every model.
//! Every df map is checked on load: a repeated feature key, a zero df or
//! a df above its map's document count is refused.

use crate::engine::{BingoEngine, EngineConfig, EngineError, Phase};
use crate::model::TopicModel;
use crate::topic::TopicTree;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::tfidf::{CorpusStats, TfIdfWeighter};
use bingo_textproc::Vocabulary;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// A snapshot as written: borrowed from the engine, nothing copied but
/// the pending counts.
struct EngineSnapshot<'a> {
    config: &'a EngineConfig,
    phase: Phase,
    vocab: &'a Vocabulary,
    tree: &'a TopicTree,
    frozen: &'a TfIdfWeighter,
    pending: CorpusStats,
    models: Vec<(u32, &'a TopicModel)>,
}

impl Serialize for EngineSnapshot<'_> {
    fn serialize(&self, out: &mut String) {
        let fields: [(&str, &dyn Serialize); 9] = [
            ("magic", &MAGIC),
            ("version", &VERSION),
            ("config", self.config),
            ("phase", &self.phase),
            ("vocab", self.vocab),
            ("tree", self.tree),
            ("frozen", self.frozen),
            ("pending", &self.pending),
            ("models", &self.models),
        ];
        for (i, (name, value)) in fields.into_iter().enumerate() {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(name);
            out.push_str("\":");
            value.serialize(out);
        }
        out.push('}');
    }
}

/// A snapshot as read, of version 2 (`corpus`) or 3 and 4 (`pending`).
#[derive(Deserialize)]
struct LoadedSnapshot {
    config: EngineConfig,
    phase: Phase,
    vocab: Vocabulary,
    tree: TopicTree,
    #[serde(default)]
    corpus: Option<CorpusStats>,
    frozen: TfIdfWeighter,
    #[serde(default)]
    pending: Option<CorpusStats>,
    models: Vec<(u32, TopicModel)>,
}

const MAGIC: &str = "bingo-engine";
const VERSION: u64 = 4;
/// The oldest version this build reads.
const OLDEST_VERSION: u64 = 2;

/// The format fields of a snapshot of any version, read before the
/// rest; every other field is skipped, not built.
#[derive(Deserialize)]
struct FormatProbe {
    magic: String,
    version: u64,
}

/// Serialize the engine's trained state to a writer as JSON.
pub fn save_engine<W: Write>(engine: &BingoEngine, w: W) -> Result<(), EngineError> {
    let pending = engine
        .corpus()
        .counted_since(engine.frozen())
        .ok_or_else(|| {
            EngineError::Persist("live corpus holds fewer counts than the frozen one".into())
        })?;
    let snapshot = EngineSnapshot {
        config: &engine.config,
        phase: engine.phase(),
        vocab: &engine.vocab,
        tree: &engine.tree,
        frozen: engine.frozen(),
        pending,
        models: engine.models_by_id(),
    };
    serde_json::to_writer(w, &snapshot).map_err(|e| EngineError::Persist(e.to_string()))
}

/// Refuse a df map with a df above its document count: counted by
/// distinct features, no document adds more than one to a feature.
fn check_df_bound(name: &str, stats: &CorpusStats) -> Result<(), EngineError> {
    let (max, docs) = (stats.max_doc_freq(), stats.doc_count());
    if max > docs {
        return Err(EngineError::Persist(format!(
            "{name}: a df of {max} in a corpus of {docs} documents"
        )));
    }
    Ok(())
}

/// Restore an engine from a snapshot. Derived lookup structures
/// (vocabulary index, feature-selection projections, scoring tables) are
/// rebuilt and every model gets its handle to the one frozen weighter;
/// the live corpus is that weighter's table with the pending counts
/// beside it. The candidate pool is session state and starts empty.
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
    if !(OLDEST_VERSION..=VERSION).contains(&probe.version) {
        return Err(EngineError::Persist(format!(
            "unsupported version {} (this build reads {OLDEST_VERSION} to {VERSION})",
            probe.version
        )));
    }
    let mut snapshot: LoadedSnapshot = serde_json::from_str(&text).map_err(|e| persist(&e))?;
    check_df_bound("frozen", snapshot.frozen.stats())?;
    let pending = if probe.version == OLDEST_VERSION {
        let corpus = snapshot
            .corpus
            .ok_or_else(|| persist(&"missing field `corpus`"))?;
        check_df_bound("corpus", &corpus)?;
        corpus
            .counted_since(&snapshot.frozen)
            .ok_or_else(|| persist(&"corpus holds fewer counts than frozen: not frozen from it"))?
    } else {
        let pending = snapshot
            .pending
            .ok_or_else(|| persist(&"missing field `pending`"))?;
        check_df_bound("pending", &pending)?;
        pending
    };
    // Counts are `u32`: no df of the live corpus may overflow one.
    let docs = snapshot
        .frozen
        .stats()
        .doc_count()
        .checked_add(pending.doc_count());
    if docs.is_none_or(|docs| docs > u64::from(u32::MAX)) {
        return Err(persist(&"more documents than a df count holds"));
    }
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
        CorpusStats::from_frozen(&snapshot.frozen, pending),
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
/// generation written by this function. (The crawler's automatic
/// checkpoint interval writes the same layout minus the engine file;
/// [`load_session`] skips those generations.)
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
    bingo_store::durable::prune_generations(dir, bingo_store::durable::DEFAULT_KEEP_GENERATIONS);
    Ok(())
}

/// Resume a crawl session saved by [`save_session`]: rebuilds the
/// engine and a crawler positioned exactly where the crawl stopped.
/// `world` and `config` must match the original crawl. Both come from
/// one generation: the newest complete one that carries an engine
/// snapshot and whose store opens. The crawler's automatic checkpoints
/// ([`bingo_crawler::CrawlConfig::checkpoint_dir`]) write crawler-only
/// generations, which are skipped here; once they have pruned every
/// generation this function wrote, the session fails to load. Only
/// manifest-committed files are ever loaded.
pub fn load_session<P: AsRef<std::path::Path>>(
    world: std::sync::Arc<bingo_webworld::World>,
    config: bingo_crawler::CrawlConfig,
    dir: P,
) -> Result<(BingoEngine, bingo_crawler::Crawler), EngineError> {
    let holds_engine = |g: &bingo_store::durable::CompleteGeneration| {
        g.manifest.files.iter().any(|f| f.name == ENGINE_FILE)
    };
    let (crawler, generation) =
        bingo_crawler::Crawler::resume_generation(world, config, dir.as_ref(), holds_engine)
            .map_err(|e| EngineError::Persist(format!("session with an engine snapshot: {e}")))?;
    let file = std::fs::File::open(generation.dir.join(ENGINE_FILE))
        .map_err(|e| EngineError::Persist(e.to_string()))?;
    let engine = load_engine(std::io::BufReader::new(file))?;
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
        // One df map for the frozen view, one for the counts pending
        // beside it; none per feature space.
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
    /// (commit c7c9c0a, format version 2: `small_test(71)`, two
    /// bookmarks, three OTHERS, a retraining between two short crawl
    /// slices, so live and frozen statistics differ and hold features of
    /// all four namespaces).
    const PARENT: &[u8] = include_bytes!("../tests/fixtures/engine_parent_c7c9c0a.json");

    /// A top-level field of a snapshot, as the JSON text it was written as.
    fn field_text(json: &[u8], name: &str) -> String {
        let value: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(json).unwrap()).unwrap();
        serde_json::to_string(value.get(name).unwrap()).unwrap()
    }

    #[test]
    fn parent_written_snapshot_loads_and_saves_in_the_current_format_to_a_fixed_point() {
        let engine = load_engine(PARENT).unwrap();
        // Every live and every frozen count is the v2 file's.
        assert!(engine.corpus().doc_count() > engine.frozen().stats().doc_count());
        let live = serde_json::to_string(engine.corpus()).unwrap();
        assert_eq!(live, field_text(PARENT, "corpus"));
        let frozen = serde_json::to_string(engine.frozen()).unwrap();
        assert_eq!(frozen, field_text(PARENT, "frozen"));
        // The live corpus is the frozen table with the rest pending.
        assert_eq!(
            engine.corpus().table_ptr(),
            engine.frozen().stats().table_ptr()
        );

        let mut current = Vec::new();
        save_engine(&engine, &mut current).unwrap();
        assert_eq!(field_text(&current, "version"), VERSION.to_string());
        assert_eq!(field_text(&current, "frozen"), frozen);
        let pending: CorpusStats = serde_json::from_str(&field_text(&current, "pending")).unwrap();
        assert_eq!(
            pending.doc_count(),
            engine.corpus().doc_count() - engine.frozen().stats().doc_count()
        );
        assert!(current.len() < PARENT.len());
        let reloaded = load_engine(&current[..]).unwrap();
        assert_eq!(serde_json::to_string(reloaded.corpus()).unwrap(), live);
        let mut again = Vec::new();
        save_engine(&reloaded, &mut again).unwrap();
        assert!(
            again == current,
            "save -> load -> save is not a fixed point"
        );
    }

    #[test]
    fn v2_snapshot_with_live_counts_below_the_frozen_ones_is_refused() {
        // Swapping the two maps makes `corpus` - `frozen` negative.
        let text = String::from_utf8(PARENT.to_vec()).unwrap();
        let (corpus, frozen) = (field_text(PARENT, "corpus"), field_text(PARENT, "frozen"));
        let swapped = text
            .replace(&corpus, "CORPUS")
            .replace(&frozen, &corpus)
            .replace("CORPUS", &frozen);
        match load_engine(swapped.as_bytes()) {
            Err(EngineError::Persist(msg)) => assert!(msg.contains("fewer counts"), "{msg}"),
            other => panic!("expected a persist error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn damaged_df_maps_are_refused() {
        let refused = |json: &str, what: &str| match load_engine(json.as_bytes()) {
            Err(EngineError::Persist(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a persist error, got {:?}", other.map(|_| ())),
        };
        let text = String::from_utf8(PARENT.to_vec()).unwrap();
        let corpus = field_text(PARENT, "corpus");
        let docs = corpus[..corpus.find(',').unwrap()].to_string();
        refused(
            &text.replacen(&docs, "{\"doc_count\":1", 1),
            "corpus: a df of",
        );
        let (engine, _world, _topic) = trained_engine();
        let mut current = Vec::new();
        save_engine(&engine, &mut current).unwrap();
        let current = String::from_utf8(current).unwrap();
        let frozen = field_text(current.as_bytes(), "frozen");
        let docs = frozen[..frozen.find(',').unwrap()].to_string();
        refused(
            &current.replacen(&docs, "{\"doc_count\":1", 1),
            "frozen: a df of",
        );
        // `trained_engine` judged nothing after training: pending is empty.
        let pending = r#""pending":{"doc_count":0,"doc_freq":{}}"#;
        assert!(current.contains(pending));
        refused(
            &current.replace(pending, r#""pending":{"doc_count":1,"doc_freq":{"7":2}}"#),
            "pending: a df of",
        );
        refused(
            &current.replace(
                pending,
                r#""pending":{"doc_count":3,"doc_freq":{"7":2,"7":3}}"#,
            ),
            "repeated feature key 7",
        );
        refused(
            &current.replace(
                pending,
                r#""pending":{"doc_count":4294967295,"doc_freq":{}}"#,
            ),
            "more documents than a df count holds",
        );
    }

    #[test]
    fn older_format_version_is_refused_by_name() {
        let (engine, _world, _topic) = trained_engine();
        let mut buf = Vec::new();
        save_engine(&engine, &mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let current = format!("\"version\":{VERSION}");
        assert_eq!(json.matches(&current).count(), 1);
        let v1 = json.replace(&current, "\"version\":1");
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
    fn session_loads_engine_and_crawl_from_one_generation() {
        use bingo_crawler::{CrawlConfig, Crawler};
        use bingo_store::DocumentStore;
        use std::sync::Arc;

        // Save a session at 3,000 ms, then crawl on to 4,000 ms with
        // automatic checkpoints, which add crawler-only generations.
        let crawl = |every: u64, dir: &std::path::Path| {
            let (mut engine, world, _topic) = trained_engine();
            let world = Arc::new(world);
            let config = CrawlConfig {
                max_depth: 0,
                checkpoint_every_docs: every,
                checkpoint_dir: Some(dir.to_path_buf()),
                ..CrawlConfig::default()
            };
            std::fs::remove_dir_all(dir).ok();
            let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
            crawler.add_seed(&world.url_of(1), None);
            engine.crawl_until(&mut crawler, 3_000, 0);
            save_session(&engine, &crawler, dir).unwrap();
            let saved = (
                serde_json::to_string(&crawler.checkpoint()).unwrap(),
                engine.vocab.len(),
            );
            let written = crawler.stats().checkpoints_written;
            engine.crawl_until(&mut crawler, 4_000, 0);
            assert!(crawler.stats().checkpoints_written > written);
            (world, config, saved)
        };

        // One automatic generation on top of the saved one: the crawl
        // resumes from the saved generation, whose dictionary names
        // every term its store holds.
        let dir = std::env::temp_dir().join("bingo-session-pairing-test");
        let (world, config, (checkpoint, vocab_len)) = crawl(15, &dir);
        let (engine, resumed) = load_session(world, config, &dir).unwrap();
        assert_eq!(
            serde_json::to_string(&resumed.checkpoint()).unwrap(),
            checkpoint
        );
        assert_eq!(engine.vocab.len(), vocab_len);
        resumed.store().for_each_document(|row| {
            for &(t, _) in &row.term_freqs {
                assert!((t as usize) < vocab_len, "term {t} past the dictionary");
            }
        });

        // Enough automatic generations to prune the saved one: the
        // session fails closed.
        let (world, config, _) = crawl(5, &dir);
        match load_session(world, config, &dir) {
            Err(EngineError::Persist(msg)) => assert!(msg.contains("engine snapshot"), "{msg}"),
            other => panic!("expected a persist error, got {:?}", other.map(|_| ())),
        }
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
