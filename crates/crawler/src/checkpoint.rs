//! Crawl checkpoints: the crawler's full mid-crawl state in one
//! serializable record, so a crawl killed at any point (the paper's
//! multi-day harvests make that a certainty, Section 4.2) resumes from
//! the last checkpoint instead of restarting.
//!
//! A checkpoint captures everything [`crate::Crawler`] owns besides the
//! world and the document store: virtual clock, statistics, frontier
//! (including parked backoff entries), duplicate fingerprints, per-host
//! breaker health, simulated thread/connection-slot timelines and the
//! neighbour-term cache. All collection-backed fields are stored as
//! sorted vectors so two checkpoints of identical state are
//! byte-identical.
//!
//! Checkpoints reach disk only as one file of a manifest-committed
//! generation ([`crate::Crawler::save_session`]), so a kill *during* a
//! write never replaces the previous complete checkpoint.

use crate::dedup::DedupSnapshot;
use crate::frontier::FrontierSnapshot;
use crate::hosts::HostHealth;
use crate::types::CrawlStats;
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
///
/// Serialization is hand-written (not derived) for one reason: the
/// `host_graph` field must be *omitted entirely* when `None` so that
/// authority-free crawls produce byte-identical checkpoint files to
/// builds that predate the field, and files without it still load.
#[derive(Debug, Clone)]
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
    /// Neighbour-term cache: (page id, top terms), sorted by page.
    pub page_top_terms: Vec<(u64, Vec<TermId>)>,
    /// Host-graph authority state; present only when the authority
    /// blend is enabled, and skipped entirely when absent so checkpoint
    /// bytes are unchanged for authority-free crawls.
    pub host_graph: Option<crate::authority::AuthorityCheckpoint>,
}

impl Serialize for CrawlCheckpoint {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("magic".to_string(), self.magic.to_value()),
            ("version".to_string(), self.version.to_value()),
            ("clock_ms".to_string(), self.clock_ms.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("frontier".to_string(), self.frontier.to_value()),
            ("dedup".to_string(), self.dedup.to_value()),
            ("host_health".to_string(), self.host_health.to_value()),
            ("visited_hosts".to_string(), self.visited_hosts.to_value()),
            ("threads".to_string(), self.threads.to_value()),
            ("host_slots".to_string(), self.host_slots.to_value()),
            ("page_top_terms".to_string(), self.page_top_terms.to_value()),
        ];
        if let Some(hg) = &self.host_graph {
            fields.push(("host_graph".to_string(), hg.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for CrawlCheckpoint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn req<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(x) => T::from_value(x),
                None => Err(serde::Error::custom(format!(
                    "missing field `{name}` in CrawlCheckpoint"
                ))),
            }
        }
        Ok(CrawlCheckpoint {
            magic: req(v, "magic")?,
            version: req(v, "version")?,
            clock_ms: req(v, "clock_ms")?,
            stats: req(v, "stats")?,
            frontier: req(v, "frontier")?,
            dedup: req(v, "dedup")?,
            host_health: req(v, "host_health")?,
            visited_hosts: req(v, "visited_hosts")?,
            threads: req(v, "threads")?,
            host_slots: req(v, "host_slots")?,
            page_top_terms: req(v, "page_top_terms")?,
            host_graph: match v.get("host_graph") {
                Some(x) => Some(Deserialize::from_value(x)?),
                None => None,
            },
        })
    }
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

/// Elements [`JsonOut::array`] hands to the serializer at a time.
const ENCODE_RUN: usize = 4096;

/// Compact JSON written piece by piece. The serializer this workspace
/// vendors turns whatever it is handed into a `Value` tree before
/// writing it, and for a checkpoint's O(visited URLs) collections that
/// tree is several times the size of the JSON — on the million-page
/// gate crawl it alone overran the crawl's memory budget. Encoding the
/// large arrays a bounded run of elements at a time keeps the
/// transient at the size of the output; the bytes are exactly those of
/// `serde_json::to_string` over the whole record.
#[derive(Default)]
struct JsonOut(Vec<u8>);

fn encode<T: Serialize + ?Sized>(value: &T) -> Result<String, CheckpointError> {
    serde_json::to_string(value).map_err(|e| CheckpointError::Format(e.to_string()))
}

impl JsonOut {
    fn begin(&mut self) {
        self.0.push(b'{');
    }

    fn end(&mut self) {
        self.0.push(b'}');
    }

    /// `"name":`, comma-separated from a preceding field.
    fn field(&mut self, name: &str) {
        if self.0.last() != Some(&b'{') {
            self.0.push(b',');
        }
        self.0.push(b'"');
        self.0.extend_from_slice(name.as_bytes());
        self.0.extend_from_slice(b"\":");
    }

    fn value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CheckpointError> {
        self.0.extend_from_slice(encode(value)?.as_bytes());
        Ok(())
    }

    /// `items` as one array, serialized [`ENCODE_RUN`] elements at a
    /// time (each run's own brackets dropped).
    fn array<T: Serialize>(&mut self, items: &[T]) -> Result<(), CheckpointError> {
        self.0.push(b'[');
        for (i, run) in items.chunks(ENCODE_RUN).enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            let text = encode(run)?;
            self.0
                .extend_from_slice(&text.as_bytes()[1..text.len() - 1]);
        }
        self.0.push(b']');
        Ok(())
    }

    /// An array of arrays, each inner one through [`JsonOut::array`].
    fn arrays<T: Serialize>(&mut self, outer: &[Vec<T>]) -> Result<(), CheckpointError> {
        self.0.push(b'[');
        for (i, inner) in outer.iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            self.array(inner)?;
        }
        self.0.push(b']');
        Ok(())
    }
}

/// Serialize `cp` to a JSON byte string (the exact bytes of a
/// generation's [`CRAWLER_FILE`], and of `serde_json::to_string(cp)`).
pub fn checkpoint_bytes(cp: &CrawlCheckpoint) -> Result<Vec<u8>, CheckpointError> {
    let mut o = JsonOut::default();
    o.begin();
    o.field("magic");
    o.value(&cp.magic)?;
    o.field("version");
    o.value(&cp.version)?;
    o.field("clock_ms");
    o.value(&cp.clock_ms)?;
    o.field("stats");
    o.value(&cp.stats)?;
    o.field("frontier");
    o.begin();
    o.field("incoming");
    o.arrays(&cp.frontier.incoming)?;
    o.field("outgoing");
    o.arrays(&cp.frontier.outgoing)?;
    o.field("parked");
    o.array(&cp.frontier.parked)?;
    o.field("overflow");
    o.value(&cp.frontier.overflow)?;
    o.end();
    o.field("dedup");
    o.begin();
    o.field("url_hashes");
    o.array(&cp.dedup.url_hashes)?;
    o.field("ip_path");
    o.array(&cp.dedup.ip_path)?;
    o.field("ip_size");
    o.array(&cp.dedup.ip_size)?;
    o.end();
    o.field("host_health");
    o.array(&cp.host_health)?;
    o.field("visited_hosts");
    o.array(&cp.visited_hosts)?;
    o.field("threads");
    o.array(&cp.threads)?;
    o.field("host_slots");
    o.array(&cp.host_slots)?;
    o.field("page_top_terms");
    o.array(&cp.page_top_terms)?;
    if let Some(host_graph) = &cp.host_graph {
        o.field("host_graph");
        o.value(host_graph)?;
    }
    o.end();
    Ok(o.0)
}

/// Read a checkpoint back, validating magic and version.
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<CrawlCheckpoint, CheckpointError> {
    let bytes = std::fs::read_to_string(path)?;
    let cp: CrawlCheckpoint =
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
    Ok(cp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> CrawlCheckpoint {
        CrawlCheckpoint {
            magic: MAGIC.to_string(),
            version: VERSION,
            clock_ms: 123,
            stats: CrawlStats::default(),
            frontier: FrontierSnapshot {
                incoming: vec![Vec::new()],
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
            page_top_terms: vec![(3, vec![TermId(1), TermId(9)])],
            host_graph: None,
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
        assert_eq!(loaded.page_top_terms, vec![(3, vec![TermId(1), TermId(9)])]);
        // Encoding the loaded checkpoint reproduces the same bytes.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            checkpoint_bytes(&loaded).unwrap()
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn streamed_bytes_are_the_whole_record_encoding() {
        use crate::frontier::QueueEntry;
        let run = ENCODE_RUN as u64;
        let mut cp = minimal();
        // Empty arrays, arrays of exactly one run, and arrays that end
        // one element into a third run.
        cp.dedup.url_hashes = (0..2 * run + 1).collect();
        cp.dedup.ip_path = (0..run).map(|i| (i as u32, i * 7)).collect();
        cp.dedup.ip_size = Vec::new();
        let entry = |i: u64| QueueEntry::seed(&format!("http://h/\"p{i}\""), Some(1));
        cp.frontier.incoming = vec![Vec::new(), (0..run + 1).map(entry).collect()];
        cp.frontier.outgoing = vec![vec![entry(0)]];
        cp.frontier.parked = vec![(5, entry(1)), (9, entry(2))];
        cp.page_top_terms = (0..run + 1).map(|i| (i, vec![TermId(i as u32)])).collect();
        let whole = serde_json::to_string(&cp).unwrap().into_bytes();
        assert_eq!(checkpoint_bytes(&cp).unwrap(), whole);
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
