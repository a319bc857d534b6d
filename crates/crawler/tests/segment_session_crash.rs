//! Crash matrix over segment-referenced sessions: where durability and
//! scale meet. A segmented crawl seals and checkpoints several
//! times; then the process dies — in a save, at any byte, or in a seal
//! that follows a committed generation. In every case
//! [`Crawler::resume_session`] must hand back a *segmented* store over
//! the same directory, positioned at the newest complete generation,
//! and the resumed crawl run to frontier exhaustion must leave a full
//! export ([`persist::write_snapshot`]) and a segment directory that are
//! byte-identical to those of a crawl that was never interrupted and
//! never checkpointed.
//!
//! One thing is not checkpointed by design: the DNS cache. A resumed
//! crawl re-resolves, which shifts virtual fetch times. So every run
//! here — the reference included — passes the crawler through
//! `checkpoint()`/`restore_checkpoint()` at each generation point,
//! which is exactly what a resume from that generation does to it. The
//! reference still never saves, never reloads its store and never
//! reopens its segment directory.
//!
//! Seed-driven like `crash.rs`: `BINGO_CRASH_SEEDS=7,8,9` sweeps extra
//! pseudo-random crash points (CI pins a fixed seed matrix).

use bingo_crawler::checkpoint::{CRAWLER_FILE, STORE_FILE};
use bingo_crawler::{CrawlConfig, Crawler, Judgment, PageContext, StepOutcome};
use bingo_store::durable::{self, CrashFs, MANIFEST_FILE};
use bingo_store::{persist, DocumentStore, StdFs};
use bingo_textproc::{fxhash, AnalyzedDocument, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Documents per sealed segment.
const SEAL_EVERY: usize = 16;
/// Stored pages between generation points.
const CHECKPOINT_EVERY: u64 = 40;
/// The generation point at which the doomed crawls die: two generations
/// are committed, and two more segments sealed, before it.
const DEATH_POINT: u64 = 3;

fn accept_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

fn crash_seeds() -> Vec<u64> {
    match std::env::var("BINGO_CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// The scratch directories of one crawl: segments and session
/// generations under one root.
struct Site(PathBuf);

impl Site {
    /// A fresh site. Tags of one test have one length, so the segment
    /// directory recorded in a generation's header — and with it the
    /// byte size of a save — is the same on every site of the test.
    fn fresh(tag: &str) -> Site {
        let root = std::env::temp_dir().join(format!("bingo-segsession-{tag}"));
        std::fs::remove_dir_all(&root).ok();
        Site(root)
    }

    fn segments(&self) -> PathBuf {
        self.0.join("segments")
    }

    fn session(&self) -> PathBuf {
        self.0.join("session")
    }

    fn crawler(&self, world: &Arc<World>) -> Crawler {
        let store = DocumentStore::segmented_with(self.segments(), SEAL_EVERY)
            .expect("segment directory opens");
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), store);
        crawler.add_seed(&world.url_of(1), Some(0));
        crawler
    }

    /// Every file of the segment directory, by name, with its bytes.
    fn segment_files(&self) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(self.segments())
            .expect("segment directory lists")
            .map(|e| e.unwrap())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Step `crawler` until the frontier empties. Each time the stored count
/// crosses a multiple of [`CHECKPOINT_EVERY`], `at_point(k, ..)` runs
/// (`k` = the multiple); `false` from it means the process died there.
/// Otherwise the crawler state then goes through a checkpoint round trip
/// (see the module docs). Returns whether the frontier was exhausted.
fn drive(
    crawler: &mut Crawler,
    vocab: &mut Vocabulary,
    at_point: &mut dyn FnMut(u64, &Crawler, &Vocabulary) -> bool,
) -> bool {
    let mut judge = accept_all();
    loop {
        match crawler.step(&mut judge, vocab) {
            StepOutcome::FrontierEmpty => return true,
            StepOutcome::Skipped(_) => {}
            StepOutcome::Stored { .. } => {
                let stored = crawler.stats().stored_pages;
                if stored.is_multiple_of(CHECKPOINT_EVERY) {
                    if !at_point(stored / CHECKPOINT_EVERY, crawler, vocab) {
                        return false;
                    }
                    let cp = crawler.checkpoint();
                    crawler.restore_checkpoint(cp);
                }
            }
        }
    }
}

/// What a finished crawl left behind.
#[derive(PartialEq)]
struct Outcome {
    export: Vec<u8>,
    segment_files: Vec<(String, Vec<u8>)>,
}

impl std::fmt::Debug for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.segment_files.iter().map(|(n, _)| &n[..]).collect();
        write!(f, "export of {} bytes, files {names:?}", self.export.len())
    }
}

fn finish(site: &Site, crawler: &Crawler) -> Outcome {
    crawler.store().seal_now().expect("final seal");
    let mut export = Vec::new();
    persist::write_snapshot(crawler.store(), &mut export).expect("export");
    Outcome {
        export,
        segment_files: site.segment_files(),
    }
}

/// The crawl that is never interrupted and never checkpoints.
fn reference(world: &Arc<World>, tag: &str) -> Outcome {
    let site = Site::fresh(tag);
    let mut crawler = site.crawler(world);
    let mut points = 0;
    let exhausted = drive(&mut crawler, &mut Vocabulary::new(), &mut |k, _, _| {
        points = k;
        true
    });
    assert!(exhausted);
    assert!(
        points > DEATH_POINT,
        "world too small: {points} generation points"
    );
    assert!(crawler.store().segment_count() > 8);
    finish(&site, &crawler)
}

/// What the last committed generation of a doomed crawl captured.
struct Acked {
    vocab: Vocabulary,
    documents: usize,
    stored_pages: u64,
}

/// A checkpointing crawl that saves a generation at every point before
/// [`DEATH_POINT`] and is killed by `die` at it. The crawler is dropped.
fn doomed(site: &Site, world: &Arc<World>, die: &mut dyn FnMut(&Crawler)) -> Acked {
    let mut crawler = site.crawler(world);
    let mut acked = None;
    let exhausted = drive(&mut crawler, &mut Vocabulary::new(), &mut |k, c, v| {
        if k == DEATH_POINT {
            die(c);
            return false;
        }
        c.save_session(site.session()).expect("clean save");
        acked = Some(Acked {
            vocab: v.clone(),
            documents: c.store().document_count(),
            stored_pages: c.stats().stored_pages,
        });
        true
    });
    assert!(!exhausted, "the crawl ended before its death point");
    acked.expect("a generation was committed before the death point")
}

/// Resume `site`, check the recovered store is the segmented one the
/// acked generation described, and finish the crawl — checkpointing at
/// every further point, so later generations and pruning run too.
fn resume_and_finish(
    site: &Site,
    world: &Arc<World>,
    acked: Acked,
    case: &dyn std::fmt::Display,
) -> Outcome {
    let mut resumed =
        Crawler::resume_session(world.clone(), CrawlConfig::default(), site.session())
            .unwrap_or_else(|e| panic!("{case}: resume failed: {e}"));
    let store = resumed.store().clone();
    assert!(store.is_segmented(), "{case}: resumed store is in memory");
    assert_eq!(store.segment_dir(), Some(site.segments()), "{case}");
    assert_eq!(store.document_count(), acked.documents, "{case}");
    assert_eq!(resumed.stats().stored_pages, acked.stored_pages, "{case}");
    assert!(
        store.workspace_documents() < SEAL_EVERY,
        "{case}: {} resident rows — the corpus, not the workspace",
        store.workspace_documents()
    );
    let mut vocab = acked.vocab;
    let exhausted = drive(&mut resumed, &mut vocab, &mut |_, c, _| {
        c.save_session(site.session())
            .unwrap_or_else(|e| panic!("{case}: save after resume failed: {e}"));
        true
    });
    assert!(exhausted);
    finish(site, &resumed)
}

/// The header line of a generation's store file.
fn store_header(gen_dir: &Path) -> serde_json::Value {
    let text = std::fs::read_to_string(gen_dir.join(STORE_FILE)).expect("store file reads");
    serde_json::from_str(text.lines().next().expect("header line")).expect("header")
}

/// Segment file names a generation's store file references.
fn referenced_segments(gen_dir: &Path) -> Vec<String> {
    let header = store_header(gen_dir);
    let segments = header
        .get("manifest")
        .and_then(|m| m.get("segments"))
        .and_then(|s| s.as_array())
        .expect("reference header lists segments");
    segments
        .iter()
        .map(|s| s.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

/// Boundary budgets of a write made of consecutive `pieces`, plus a
/// seed-driven sweep in between; every budget kills the write.
fn budgets(pieces: &[u64], salt: &str) -> Vec<u64> {
    let total: u64 = pieces.iter().sum();
    let mut budgets = vec![0, 1, total - 1];
    let mut edge = 0;
    for piece in &pieces[..pieces.len() - 1] {
        edge += piece;
        budgets.extend([edge - 1, edge, edge + 1]);
    }
    for seed in crash_seeds() {
        for i in 0u64..4 {
            budgets.push(fxhash::hash_one(&(seed, i, salt)) % total);
        }
    }
    budgets.sort_unstable();
    budgets.dedup();
    budgets.retain(|b| *b < total);
    budgets
}

#[test]
fn save_killed_at_any_byte_resumes_segmented_and_converges() {
    let world = Arc::new(WorldConfig::small_test(42).build());
    let expected = reference(&world, "save-ref");

    // Byte sizes of the save under test, from a clean run of it. Every
    // case runs at the same site path: the store file names the segment
    // directory, so its bytes — and the decimal width of their checksum
    // in MANIFEST.json — depend on the path.
    let site = Site::fresh("save");
    let mut sizes = Vec::new();
    doomed(&site, &world, &mut |c| {
        let generation = c.save_session_with(&StdFs, site.session()).unwrap();
        let dir = durable::generation_dir(&site.session(), generation);
        let size = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        sizes = vec![size(STORE_FILE), size(CRAWLER_FILE), size(MANIFEST_FILE)];
        // The generation holds no sealed row: workspace rows only.
        let header = store_header(&dir);
        let rows = header.get("documents").and_then(|d| d.as_u64()).unwrap();
        assert_eq!(rows as usize, c.store().workspace_documents());
        assert!(rows < SEAL_EVERY as u64 && c.store().sealed_documents() > 5 * SEAL_EVERY);
        assert_eq!(
            referenced_segments(&dir).len(),
            c.store().segment_count(),
            "every sealed segment is referenced"
        );
    });
    drop(site);

    for budget in budgets(&sizes, "save") {
        let case = format!("budget {budget}");
        let site = Site::fresh("save");
        let acked = doomed(&site, &world, &mut |c| {
            let fs = CrashFs::with_budget(budget);
            let saved = c.save_session_with(&fs, site.session());
            assert!(saved.is_err(), "{case}: save must report the crash");
            assert!(fs.crashed(), "{case}: crash must have fired");
        });
        assert_eq!(acked.stored_pages, (DEATH_POINT - 1) * CHECKPOINT_EVERY);
        let outcome = resume_and_finish(&site, &world, acked, &case);
        assert_eq!(outcome, expected, "{case}: resumed crawl diverged");
    }
}

#[test]
fn seal_killed_after_a_committed_generation_converges() {
    let world = Arc::new(WorldConfig::small_test(42).build());
    let expected = reference(&world, "seal-ref");

    // Byte sizes (segment file, manifest) of the seal under test.
    let site = Site::fresh("seal-siz");
    let mut sizes = Vec::new();
    doomed(&site, &world, &mut |c| {
        let segment = format!("seg-{:06}.jsonl", c.store().segment_count());
        assert!(c.store().seal_now().unwrap(), "workspace was empty");
        let size = |name: &str| std::fs::metadata(site.segments().join(name)).unwrap().len();
        sizes = vec![size(&segment), size(bingo_store::SEGMENTS_FILE)];
    });
    drop(site);

    for (i, budget) in budgets(&sizes, "seal").into_iter().enumerate() {
        let case = format!("seal budget {budget}");
        let site = Site::fresh(&format!("seal-{i:03}"));
        // Two segments were sealed since the last generation; this
        // third seal dies and leaves a torn temp file or an orphan.
        let acked = doomed(&site, &world, &mut |c| {
            let fs = CrashFs::with_budget(budget);
            assert!(c.store().seal_now_with(&fs).is_err(), "{case}");
            assert!(fs.crashed(), "{case}: crash must have fired");
        });
        let outcome = resume_and_finish(&site, &world, acked, &case);
        assert_eq!(outcome, expected, "{case}: resumed crawl diverged");
    }
}
