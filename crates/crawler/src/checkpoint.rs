//! Crawl checkpoints: the crawler's full mid-crawl state in one
//! serializable record, so a crawl killed at any point (the paper's
//! multi-day harvests make that a certainty, Section 4.2) resumes from
//! the last checkpoint instead of restarting.
//!
//! A checkpoint captures everything [`crate::Crawler`] owns besides the
//! world and the document store: virtual clock, statistics, frontier
//! (including parked backoff entries, each with the neighbour terms it
//! will be judged with), duplicate fingerprints, per-host breaker
//! health and simulated thread/connection-slot timelines. All
//! collection-backed fields are stored as sorted vectors so two
//! checkpoints of identical state are byte-identical.
//!
//! Checkpoints reach disk only as one file of a manifest-committed
//! generation ([`crate::Crawler::save_session`]), so a kill *during* a
//! write never replaces the previous complete checkpoint.

use crate::dedup::DedupSnapshot;
use crate::frontier::FrontierSnapshot;
use crate::hosts::HostHealth;
use crate::types::CrawlStats;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::TermId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// Format marker of checkpoint files.
pub const MAGIC: &str = "bingo-checkpoint";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// File name of the crawler checkpoint inside a session directory.
pub const CRAWLER_FILE: &str = "crawler.json";
/// File name of the store snapshot inside a session directory.
pub const STORE_FILE: &str = "store.jsonl";

/// The crawler's complete mid-crawl state (everything except the world
/// and the document store, which is snapshotted separately).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlCheckpoint {
    /// Format marker ([`MAGIC`]).
    pub magic: String,
    /// Format version ([`VERSION`]).
    pub version: u32,
    /// Virtual clock at checkpoint time.
    pub clock_ms: u64,
    /// Crawl counters so far.
    pub stats: CrawlStats,
    /// Frontier queues, including parked backoff entries.
    pub frontier: FrontierSnapshot,
    /// Duplicate-fingerprint sets.
    pub dedup: DedupSnapshot,
    /// Per-host breaker health, sorted by hostname.
    pub host_health: Vec<(String, HostHealth)>,
    /// Hosts successfully visited, sorted.
    pub visited_hosts: Vec<String>,
    /// Simulated thread pool: (free-at, thread id), sorted.
    pub threads: Vec<(u64, usize)>,
    /// Per-host connection slots: (host, free-at per slot), sorted.
    pub host_slots: Vec<(String, Vec<u64>)>,
    /// (page id, top terms) of every stored page, as sessions written
    /// before the terms rode the queue entries hold them. Never written;
    /// [`load_checkpoint`] moves them onto the entries and empties it.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub page_top_terms: Vec<(u64, Vec<TermId>)>,
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(String),
    /// The file exists but is not a valid checkpoint.
    Format(String),
    /// The session's store snapshot failed to save/load.
    Store(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Format(e) => write!(f, "bad checkpoint: {e}"),
            CheckpointError::Store(e) => write!(f, "session store error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Serialize `cp` to a JSON byte string (the exact bytes of a
/// generation's [`CRAWLER_FILE`]).
pub fn checkpoint_bytes(cp: &CrawlCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    serde_json::to_string(cp)
        .map(String::into_bytes)
        .map_err(|e| CheckpointError::Format(e.to_string()))
}

/// Read a checkpoint back, validating magic, version and the frontier's
/// shape. The `page_top_terms` of an older session become the
/// `neighbor_terms` of every entry whose `src_page` they name.
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<CrawlCheckpoint, CheckpointError> {
    let bytes = std::fs::read_to_string(path)?;
    let mut cp: CrawlCheckpoint =
        serde_json::from_str(&bytes).map_err(|e| CheckpointError::Format(e.to_string()))?;
    if cp.magic != MAGIC {
        return Err(CheckpointError::Format(format!("bad magic {:?}", cp.magic)));
    }
    if cp.version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {}",
            cp.version
        )));
    }
    let f = &mut cp.frontier;
    if f.outgoing.len() != f.incoming.len() {
        return Err(CheckpointError::Format("uneven frontier queues".into()));
    }
    let tops: FxHashMap<_, _> = std::mem::take(&mut cp.page_top_terms).into_iter().collect();
    let queued = f.incoming.iter_mut().chain(&mut f.outgoing).flatten();
    for entry in queued.chain(f.parked.iter_mut().map(|(_, e)| e)) {
        if let Some(terms) = tops.get(&entry.src_page) {
            entry.neighbor_terms = terms.clone();
        }
    }
    Ok(cp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::QueueEntry;

    /// A queued link found on page 3, whose top terms are 1 and 9.
    fn child() -> QueueEntry {
        QueueEntry {
            src_page: 3,
            neighbor_terms: vec![TermId(1), TermId(9)],
            ..QueueEntry::seed("http://h/x", Some(0))
        }
    }

    fn minimal() -> CrawlCheckpoint {
        CrawlCheckpoint {
            magic: MAGIC.to_string(),
            version: VERSION,
            clock_ms: 123,
            stats: CrawlStats::default(),
            frontier: FrontierSnapshot {
                incoming: vec![vec![child()]],
                outgoing: vec![Vec::new()],
                parked: Vec::new(),
                overflow: 0,
            },
            dedup: DedupSnapshot {
                url_hashes: vec![1, 2],
                ip_path: vec![(1, 2)],
                ip_size: vec![(1, 100)],
            },
            host_health: vec![("h".into(), HostHealth::default())],
            visited_hosts: vec!["h".into()],
            threads: vec![(0, 0), (5, 1)],
            host_slots: vec![("h".into(), vec![0, 7])],
            page_top_terms: Vec::new(),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bingo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let cp = minimal();
        std::fs::write(&path, checkpoint_bytes(&cp).unwrap()).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.clock_ms, 123);
        assert_eq!(loaded.dedup.url_hashes, vec![1, 2]);
        assert_eq!(loaded.threads, vec![(0, 0), (5, 1)]);
        assert_eq!(loaded.frontier.incoming, vec![vec![child()]]);
        // Encoding the loaded checkpoint reproduces the same bytes.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            checkpoint_bytes(&loaded).unwrap()
        );
        // An empty `page_top_terms` is omitted, and entries carry their
        // neighbour terms.
        let text = String::from_utf8(checkpoint_bytes(&loaded).unwrap()).unwrap();
        assert!(text.ends_with("\"host_slots\":[[\"h\",[0,7]]]}"), "{text}");
        assert!(text.contains("\"src_page\":3,\"anchor_terms\":[],\"neighbor_terms\":[1,9],"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn host_graph_of_an_older_blended_crawl_is_skipped() {
        // Builds that had an authority blend appended the host graph as
        // the checkpoint's last key. It is read past, the crawl resumes
        // exactly as if the key were absent, and it is not written back.
        use crate::{Crawler, Judgment, PageContext};
        use bingo_store::{persist, DocumentStore};
        use bingo_textproc::{AnalyzedDocument, Vocabulary};
        use bingo_webworld::gen::WorldConfig;
        use std::sync::Arc;

        let world = Arc::new(WorldConfig::small_test(59).build());
        let judge = |doc: &AnalyzedDocument, _: &PageContext| Judgment {
            topic: Some(0),
            confidence: 0.1 + (doc.links.len() % 8) as f32 / 8.0,
        };
        let mut crawler = Crawler::new(world.clone(), Default::default(), DocumentStore::new());
        crawler.add_seed(&world.url_of(1), Some(0));
        let mut vocab = Vocabulary::new();
        crawler.run_until(4_000, &mut judge.clone(), &mut vocab);
        let current = checkpoint_bytes(&crawler.checkpoint()).unwrap();

        let host_graph = concat!(
            r#","host_graph":{"graph":{"hosts":["a.edu","b.edu"],"#,
            r#""edges":[[0,1,3]],"scores":[0.35,0.65],"links_observed":7,"#,
            r#""intra_host_links":4,"recomputes":1},"#,
            r#""page_hosts":[[1,0],[2,1]],"batches_since_recompute":2}"#
        );
        let mut older = current[..current.len() - 1].to_vec();
        older.extend_from_slice(host_graph.as_bytes());
        older.push(b'}');
        let dir = std::env::temp_dir().join("bingo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let load = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let cp = load_checkpoint(&path).unwrap();
            std::fs::remove_file(path).ok();
            cp
        };
        let older = load("blended.json", &older);
        assert_eq!(checkpoint_bytes(&older).unwrap(), current);

        // Resumed from either file (the resolver cache is not part of a
        // checkpoint, so both resume from a cold one), the crawl goes on
        // identically.
        let resume = |cp: CrawlCheckpoint| {
            let mut buf = Vec::new();
            persist::write_snapshot(crawler.store(), &mut buf).unwrap();
            let store = persist::read_snapshot(&buf[..]).unwrap();
            let mut resumed = Crawler::new(world.clone(), Default::default(), store);
            resumed.restore_checkpoint(cp);
            let stored = resumed.run_until(12_000, &mut judge.clone(), &mut vocab.clone());
            assert!(stored > 0, "the restored crawl stored nothing");
            (stored, checkpoint_bytes(&resumed.checkpoint()).unwrap())
        };
        assert_eq!(resume(older), resume(load("current.json", &current)));
    }

    #[test]
    fn older_page_top_terms_move_onto_the_entries() {
        // The form older builds wrote: no terms on the entries, every
        // stored page's top terms in one table. A seed has no source,
        // and page 4 is not in the table: both get no terms.
        let mut old = minimal();
        let seed = QueueEntry::seed("http://h/", Some(0));
        let orphan = QueueEntry {
            src_page: 4,
            ..seed.clone()
        };
        let strip = |e: QueueEntry| QueueEntry {
            neighbor_terms: Vec::new(),
            ..e
        };
        old.frontier.incoming = vec![vec![strip(child()), seed.clone()]];
        old.frontier.outgoing = vec![vec![orphan.clone()]];
        old.frontier.parked = vec![(9, strip(child()))];
        old.page_top_terms = vec![(3, vec![TermId(1), TermId(9)]), (5, vec![TermId(2)])];
        let dir = std::env::temp_dir().join("bingo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        std::fs::write(&path, checkpoint_bytes(&old).unwrap()).unwrap();
        let loaded = load_checkpoint(&path).unwrap();
        assert_eq!(loaded.frontier.incoming, vec![vec![child(), seed]]);
        assert_eq!(loaded.frontier.outgoing, vec![vec![orphan]]);
        assert_eq!(loaded.frontier.parked, vec![(9, child())]);
        assert!(loaded.page_top_terms.is_empty());
        let text = String::from_utf8(checkpoint_bytes(&loaded).unwrap()).unwrap();
        assert!(!text.contains("page_top_terms"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage_and_bad_magic() {
        let dir = std::env::temp_dir().join("bingo-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, b"not json").unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        let mut cp = minimal();
        cp.magic = "nope".into();
        std::fs::write(&path, checkpoint_bytes(&cp).unwrap()).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        assert!(matches!(
            load_checkpoint(dir.join("missing.json")),
            Err(CheckpointError::Io(_))
        ));
        std::fs::remove_file(path).ok();
    }
}
