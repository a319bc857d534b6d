//! Duplicate recognition (Section 4.2).
//!
//! "The crawler uses several fingerprints to recognize duplicates. The
//! initial step consists of simple URL matching (our implementation
//! merely compares the hashcode representation of the visited URL, with a
//! small risk of falsely dismissing a new document). In the next step,
//! the crawler checks the combination of returned IP address and path of
//! the resource. Finally ... we assume that the filesize is a unique
//! value within the same host and consider candidates with previously
//! seen IP/filesize combinations as duplicates."
//!
//! The three fingerprint sets are the crawl's largest purely linear
//! memory consumers — one entry per distinct URL / fetched page. For
//! memory-bounded crawls they ride on [`bingo_store::SpillSet`]: a
//! capacity-bounded hot tier plus hash-sharded sorted spill files, with
//! a Bloom-style front filter so the exact check hits disk only on a
//! probable duplicate. Answers are exact either way, so a spilling
//! filter is byte-identical to the resident one — same booleans, same
//! snapshots — and when everything fits under the cap no spill file is
//! ever written. Spill files are run-scratch: checkpoints materialize
//! the sorted sets ([`Dedup::snapshot`]) and recovery sweeps stale
//! files instead of reading them.

use bingo_store::spill::{reap_stale_spill_files, SpillSet, SpillSetConfig, SpillSetStats};
use bingo_store::DurableFs;
use bingo_textproc::fxhash;
use std::path::PathBuf;

/// File-name prefix of dedup spill shards (`dedup-url-3.spill`, …).
pub const DEDUP_SPILL_PREFIX: &str = "dedup-";

/// Spill policy for the duplicate filter's fingerprint sets.
#[derive(Debug, Clone)]
pub struct DedupSpillConfig {
    /// Directory the shard files live in (created if missing; stale
    /// `dedup-*.spill` files from an aborted run are swept first).
    pub dir: PathBuf,
    /// Hot-tier capacity in fingerprints, *per set* (URL, IP+path,
    /// IP+size each get this many resident keys).
    pub hot_cap: usize,
    /// log2 of each set's front-filter size in bits.
    pub bloom_bits_log2: u32,
}

impl DedupSpillConfig {
    /// Defaults sized for multi-million-page crawls: 1M hot
    /// fingerprints and an 8 MiB front filter per set.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DedupSpillConfig {
            dir: dir.into(),
            hot_cap: 1 << 20,
            bloom_bits_log2: 26,
        }
    }
}

/// Aggregated deterministic counters over the three fingerprint sets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DedupStats {
    /// Fingerprints resident in the hot tiers.
    pub hot: usize,
    /// Fingerprints living in spill shard files.
    pub spilled: usize,
    /// Hot-tier merges into shard files so far.
    pub merges: u64,
    /// Disk probes issued (front filter said "maybe").
    pub disk_probes: u64,
    /// Disk probes that confirmed a duplicate.
    pub disk_hits: u64,
    /// Failed shard-file reads/writes (answers stayed exact; the
    /// affected fingerprints stayed resident).
    pub io_errors: u64,
    /// Stale spill files swept at construction.
    pub stale_reaped: u64,
}

/// The three-stage duplicate filter.
#[derive(Debug, Default)]
pub struct Dedup {
    /// Hashcodes of URLs already queued/visited (not the URLs themselves —
    /// mirroring the paper's memory/accuracy trade-off).
    url_hashes: SpillSet,
    /// (IP, path-hash) pairs already fetched.
    ip_path: SpillSet,
    /// (IP, filesize) pairs already fetched.
    ip_size: SpillSet,
    /// Stale spill files swept when this filter was constructed.
    stale_reaped: u64,
}

/// Widen an (IP, u64) fingerprint into one `u128` key whose numeric
/// order equals the tuple's lexicographic order, so sorted snapshots
/// stay byte-identical to the historical sorted-tuple form.
fn pair_key(ip: u32, second: u64) -> u128 {
    ((ip as u128) << 64) | second as u128
}

fn split_pair(key: u128) -> (u32, u64) {
    ((key >> 64) as u32, key as u64)
}

impl Dedup {
    /// Empty filter, fully resident (no cap, no disk).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty filter that spills each fingerprint set past
    /// `cfg.hot_cap`. Sweeps stale `dedup-*.spill` files in `cfg.dir`
    /// first ([`Dedup::stats`] reports how many).
    pub fn with_spill(cfg: &DedupSpillConfig) -> Self {
        Self::with_spill_fs(cfg, std::sync::Arc::new(bingo_store::StdFs))
    }

    /// The filter a crawl under `config` runs with: spilling past
    /// `dedup_hot_cap` when `dedup_spill_dir` is set, resident
    /// otherwise.
    pub fn for_config(config: &crate::types::CrawlConfig) -> Self {
        match &config.dedup_spill_dir {
            Some(dir) => Self::with_spill(&DedupSpillConfig {
                hot_cap: config.dedup_hot_cap,
                ..DedupSpillConfig::new(dir)
            }),
            None => Self::new(),
        }
    }

    /// [`Dedup::with_spill`] through an explicit [`DurableFs`], so
    /// crash tests can kill shard-file merges at an exact byte offset.
    pub fn with_spill_fs(cfg: &DedupSpillConfig, fs: std::sync::Arc<dyn DurableFs>) -> Self {
        std::fs::create_dir_all(&cfg.dir).expect("dedup spill dir");
        let stale_reaped = reap_stale_spill_files(&cfg.dir, &[DEDUP_SPILL_PREFIX]) as u64;
        let set = |name: &str| {
            SpillSet::spilling(
                &SpillSetConfig {
                    dir: cfg.dir.clone(),
                    prefix: format!("{DEDUP_SPILL_PREFIX}{name}-"),
                    hot_cap: cfg.hot_cap,
                    bloom_bits_log2: cfg.bloom_bits_log2,
                },
                std::sync::Arc::clone(&fs),
            )
        };
        Dedup {
            url_hashes: set("url"),
            ip_path: set("path"),
            ip_size: set("size"),
            stale_reaped,
        }
    }

    /// Stage 1: mark a URL as seen. Returns `false` when its hash was
    /// already present (treat as duplicate).
    pub fn mark_url(&mut self, url: &str) -> bool {
        self.url_hashes.insert(fxhash::hash_one(&url) as u128)
    }

    /// True when the URL hash was seen before (non-mutating).
    pub fn url_seen(&self, url: &str) -> bool {
        self.url_hashes.contains(fxhash::hash_one(&url) as u128)
    }

    /// Stages 2+3: mark a fetched response by server IP, resource path
    /// and reported size. Returns `false` when either fingerprint
    /// matches a previous response (duplicate content).
    pub fn mark_response(&mut self, ip: u32, path: &str, size: u64) -> bool {
        let path_new = self.ip_path.insert(pair_key(ip, fxhash::hash_one(&path)));
        let size_new = self.ip_size.insert(pair_key(ip, size));
        path_new && size_new
    }

    /// [`Dedup::mark_url`] that records the insert (if it was new) into
    /// `journal`, so a panicked batch can be rolled back.
    pub fn mark_url_journaled(&mut self, url: &str, journal: &mut Vec<DedupMark>) -> bool {
        let hash = fxhash::hash_one(&url);
        let new = self.url_hashes.insert(hash as u128);
        if new {
            journal.push(DedupMark::Url(hash));
        }
        new
    }

    /// [`Dedup::mark_response`] that records the inserts (only those
    /// that were actually new) into `journal` for rollback.
    pub fn mark_response_journaled(
        &mut self,
        ip: u32,
        path: &str,
        size: u64,
        journal: &mut Vec<DedupMark>,
    ) -> bool {
        let path_hash = fxhash::hash_one(&path);
        let path_new = self.ip_path.insert(pair_key(ip, path_hash));
        if path_new {
            journal.push(DedupMark::IpPath(ip, path_hash));
        }
        let size_new = self.ip_size.insert(pair_key(ip, size));
        if size_new {
            journal.push(DedupMark::IpSize(ip, size));
        }
        path_new && size_new
    }

    /// Undo journaled marks after a worker panic: the requeued URLs
    /// must not see their own half-processed fingerprints as
    /// duplicates. Only entries the journal proves were newly inserted
    /// are removed, so concurrent marks by other workers survive.
    /// Fingerprints that already spilled are tombstoned in place.
    pub fn unmark(&mut self, journal: &[DedupMark]) {
        for mark in journal {
            match *mark {
                DedupMark::Url(h) => {
                    self.url_hashes.remove(h as u128);
                }
                DedupMark::IpPath(ip, path_hash) => {
                    self.ip_path.remove(pair_key(ip, path_hash));
                }
                DedupMark::IpSize(ip, size) => {
                    self.ip_size.remove(pair_key(ip, size));
                }
            }
        }
    }

    /// Number of distinct URLs marked.
    pub fn urls_marked(&self) -> usize {
        self.url_hashes.len()
    }

    /// Aggregated spill counters across the three fingerprint sets.
    /// All zero for a fully resident filter.
    pub fn stats(&self) -> DedupStats {
        let mut agg = DedupStats {
            stale_reaped: self.stale_reaped,
            ..DedupStats::default()
        };
        for s in [
            self.url_hashes.stats(),
            self.ip_path.stats(),
            self.ip_size.stats(),
        ] {
            let SpillSetStats {
                hot,
                spilled,
                tombstones: _,
                merges,
                disk_probes,
                disk_hits,
                io_errors,
            } = s;
            agg.hot += hot;
            agg.spilled += spilled;
            agg.merges += merges;
            agg.disk_probes += disk_probes;
            agg.disk_hits += disk_hits;
            agg.io_errors += io_errors;
        }
        agg
    }

    /// Serializable snapshot, sorted for byte-stable checkpoints.
    /// Spilled fingerprints are materialized from disk, so a checkpoint
    /// is self-contained and recovery never depends on spill files.
    pub fn snapshot(&self) -> DedupSnapshot {
        DedupSnapshot {
            url_hashes: self
                .url_hashes
                .to_sorted_vec()
                .into_iter()
                .map(|k| k as u64)
                .collect(),
            ip_path: self
                .ip_path
                .to_sorted_vec()
                .into_iter()
                .map(split_pair)
                .collect(),
            ip_size: self
                .ip_size
                .to_sorted_vec()
                .into_iter()
                .map(split_pair)
                .collect(),
        }
    }

    /// Rebuild the filter from a snapshot, fully resident.
    pub fn restore(snap: DedupSnapshot) -> Self {
        Self::restore_into(Self::new(), snap)
    }

    /// Refill an empty filter — resident or spilling — from a snapshot.
    /// Snapshots are backend-agnostic: a checkpoint taken by a spilling
    /// crawl restores into a resident filter and vice versa.
    pub fn restore_into(mut d: Dedup, snap: DedupSnapshot) -> Self {
        for h in snap.url_hashes {
            d.url_hashes.insert(h as u128);
        }
        for (ip, path_hash) in snap.ip_path {
            d.ip_path.insert(pair_key(ip, path_hash));
        }
        for (ip, size) in snap.ip_size {
            d.ip_size.insert(pair_key(ip, size));
        }
        d
    }
}

/// One fingerprint newly inserted during a journaled mark — the unit of
/// rollback after a worker panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupMark {
    /// A URL hashcode (stage 1).
    Url(u64),
    /// An (IP, path-hash) fingerprint (stage 2).
    IpPath(u32, u64),
    /// An (IP, filesize) fingerprint (stage 3).
    IpSize(u32, u64),
}

/// Serialized form of the duplicate filter for crawl checkpoints.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DedupSnapshot {
    /// Sorted URL hashcodes.
    pub url_hashes: Vec<u64>,
    /// Sorted (IP, path-hash) fingerprints.
    pub ip_path: Vec<(u32, u64)>,
    /// Sorted (IP, filesize) fingerprints.
    pub ip_size: Vec<(u32, u64)>,
}

/// Extract the path component of an `http://host/path` URL.
pub fn path_of_url(url: &str) -> &str {
    url.strip_prefix("http://")
        .and_then(|rest| rest.find('/').map(|i| &rest[i..]))
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-dedup-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A config small enough that every test exercises the disk path.
    fn tiny_spill(dir: &std::path::Path) -> DedupSpillConfig {
        DedupSpillConfig {
            dir: dir.to_path_buf(),
            hot_cap: 4,
            bloom_bits_log2: 10,
        }
    }

    #[test]
    fn url_stage() {
        let mut d = Dedup::new();
        assert!(d.mark_url("http://a/x"));
        assert!(!d.mark_url("http://a/x"));
        assert!(d.mark_url("http://a/y"));
        assert!(d.url_seen("http://a/x"));
        assert!(!d.url_seen("http://a/z"));
        assert_eq!(d.urls_marked(), 2);
    }

    #[test]
    fn ip_path_stage_catches_host_aliases() {
        // Same path + size served under two hostnames on one IP.
        let mut d = Dedup::new();
        assert!(d.mark_response(42, "/page.html", 1000));
        assert!(!d.mark_response(42, "/page.html", 2000), "same ip+path");
    }

    #[test]
    fn ip_size_stage_catches_path_aliases() {
        // Same content under two paths on one host: size matches.
        let mut d = Dedup::new();
        assert!(d.mark_response(42, "/canonical.html", 1234));
        assert!(!d.mark_response(42, "/alias/canonical.html", 1234));
    }

    #[test]
    fn different_hosts_do_not_collide() {
        let mut d = Dedup::new();
        assert!(d.mark_response(1, "/p", 100));
        assert!(d.mark_response(2, "/p", 100), "other IP is fine");
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut d = Dedup::new();
        d.mark_url("http://a/x");
        d.mark_url("http://a/y");
        d.mark_response(42, "/x", 100);
        d.mark_response(7, "/y", 200);
        let snap = d.snapshot();
        let r = Dedup::restore(snap.clone());
        assert!(r.url_seen("http://a/x"));
        assert_eq!(r.urls_marked(), 2);
        let mut r = r;
        assert!(!r.mark_response(42, "/x", 999), "ip+path survives");
        assert!(!r.mark_response(42, "/other", 100), "ip+size survives");
        // Snapshots of identical state are identical (sorted).
        assert_eq!(
            format!("{:?}", Dedup::restore(snap.clone()).snapshot()),
            format!("{snap:?}")
        );
    }

    #[test]
    fn journaled_marks_roll_back_exactly_the_new_inserts() {
        let mut d = Dedup::new();
        assert!(d.mark_response(42, "/pre-existing", 500));
        let mut journal = Vec::new();
        assert!(d.mark_url_journaled("http://a/x", &mut journal));
        // Path collides with the pre-existing entry; only the size
        // fingerprint is new, so only it lands in the journal.
        assert!(!d.mark_response_journaled(42, "/pre-existing", 900, &mut journal));
        assert!(d.mark_response_journaled(42, "/fresh", 1000, &mut journal));
        assert_eq!(journal.len(), 4, "url + new size + fresh path + fresh size");
        d.unmark(&journal);
        // Rolled-back entries mark as new again...
        assert!(d.mark_url("http://a/x"));
        assert!(d.mark_response(42, "/fresh", 1000));
        // ...while the pre-existing fingerprint survived the rollback.
        assert!(!d.mark_response(42, "/pre-existing", 777));
    }

    #[test]
    fn spilled_filter_matches_resident_filter_and_snapshots_agree() {
        let dir = temp_dir("equiv");
        let mut resident = Dedup::new();
        let mut spilled = Dedup::with_spill(&tiny_spill(&dir));
        for i in 0..200u64 {
            let url = format!("http://h{}.test/p{}", i % 13, i % 57);
            assert_eq!(spilled.mark_url(&url), resident.mark_url(&url), "{url}");
            let (ip, size) = ((i % 9) as u32, i % 31);
            assert_eq!(
                spilled.mark_response(ip, path_of_url(&url), size),
                resident.mark_response(ip, path_of_url(&url), size),
                "response {i}"
            );
        }
        assert_eq!(spilled.urls_marked(), resident.urls_marked());
        let stats = spilled.stats();
        assert!(stats.merges > 0, "cap 4 must spill: {stats:?}");
        assert!(stats.spilled > 0);
        // Byte-identical serialized snapshots.
        assert_eq!(
            serde_json::to_string(&spilled.snapshot()).unwrap(),
            serde_json::to_string(&resident.snapshot()).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilling_restore_round_trips_and_journal_rollback_reaches_disk() {
        let dir = temp_dir("restore");
        let mut d = Dedup::with_spill(&tiny_spill(&dir));
        for i in 0..50u64 {
            d.mark_url(&format!("http://a/{i}"));
            d.mark_response((i % 5) as u32, &format!("/{i}"), 1000 + i);
        }
        // Journaled marks that certainly spill before the rollback.
        let mut journal = Vec::new();
        d.mark_url_journaled("http://rollback/me", &mut journal);
        d.mark_response_journaled(99, "/rollback", 9999, &mut journal);
        for i in 50..80u64 {
            d.mark_url(&format!("http://a/{i}"));
        }
        d.unmark(&journal);
        assert!(!d.url_seen("http://rollback/me"));
        assert!(d.mark_response(99, "/rollback", 9999), "rolled back");
        let snap = d.snapshot();
        // Restore through a *fresh* spilling filter in a new directory.
        let dir2 = temp_dir("restore-2");
        let r = Dedup::restore_into(Dedup::with_spill(&tiny_spill(&dir2)), snap.clone());
        assert_eq!(
            serde_json::to_string(&r.snapshot()).unwrap(),
            serde_json::to_string(&snap).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn stale_spill_files_swept_at_construction() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("dedup-url-0.spill"), b"stale").unwrap();
        std::fs::write(dir.join("dedup-size-9.spill"), b"stale").unwrap();
        std::fs::write(dir.join("slot-1.spill"), b"not ours").unwrap();
        let d = Dedup::with_spill(&tiny_spill(&dir));
        assert_eq!(d.stats().stale_reaped, 2);
        assert!(dir.join("slot-1.spill").exists(), "frontier files spared");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_extraction() {
        assert_eq!(path_of_url("http://h.com/a/b.html"), "/a/b.html");
        assert_eq!(path_of_url("http://h.com"), "");
        assert_eq!(path_of_url("nonsense"), "");
    }
}
