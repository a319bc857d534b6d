//! Capacity-bounded, disk-spilling fingerprint sets.
//!
//! BINGO!'s duplicate filter and the store's auxiliary indexes are pure
//! membership structures over fixed-width fingerprints, and they are the
//! last crawl state that grows linearly with the number of pages (the
//! BUbiNG lesson: URL-seen sets must go off-heap for massive crawls). A
//! [`SpillSet`] keeps a bounded *hot* tier in memory and, once the hot
//! tier reaches its cap, merges it into 16 hash-sharded, sorted,
//! fixed-width record files on disk:
//!
//! * **Exactness.** Membership answers are exact, never probabilistic.
//!   A Bloom-style front filter over the spilled keys only decides
//!   whether a disk probe is needed at all; a positive filter answer is
//!   always confirmed by binary search over the shard file.
//! * **Bounded residency.** Resident state is the hot tier (≤ cap
//!   keys), the front filter bits, one sparse sample key per
//!   `SAMPLE_EVERY` disk records, and tombstones for keys removed
//!   while spilled. Everything else lives in the shard files.
//! * **Crash discipline.** Shard files are rewritten only through
//!   [`DurableFs::atomic_write`], so a kill at any byte leaves the
//!   previous sorted run intact — never a torn file. Spill files are
//!   run-scratch like the frontier's: checkpoints materialize the full
//!   key set ([`SpillSet::to_sorted_vec`]) and recovery never reads
//!   them, so stale files from an aborted run are swept, not replayed.
//! * **Determinism.** Spill points are a pure function of the insertion
//!   sequence and the cap, and all hashing is fxhash, so two same-seed
//!   crawls spill identically and their spill telemetry matches byte
//!   for byte.

use crate::durable::{DurableFs, StdFs};
use bingo_textproc::fxhash::{self, FxHashSet};
use std::cell::Cell;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Number of shard files a spilled set is split over; a power of two so
/// the shard of a key is a cheap mask of its hash.
pub const SPILL_SHARDS: usize = 16;

/// Bytes per on-disk record (one little-endian `u128` fingerprint).
const RECORD_BYTES: usize = 16;

/// One resident sample key per this many disk records: a membership
/// probe binary-searches the samples, then reads and scans a single
/// block of at most this many records.
const SAMPLE_EVERY: usize = 64;

/// File-name prefixes of every spill-file family the system writes.
/// The stale-file sweep on recovery reaps all of them — frontier slots,
/// dedup shards, distributed lease journals, and per-node scratch
/// directories alike (see [`reap_stale_spill_files`]).
pub const SPILL_FILE_PREFIXES: &[&str] = &["slot-", "dedup-", "lease-", "node-"];

/// Suffix shared by all spill scratch files.
pub const SPILL_FILE_SUFFIX: &str = ".spill";

/// Suffix of per-node scratch *directories* a distributed crawl's
/// worker nodes write under (`node-3.scratch/`). A killed node leaves
/// its directory behind; recovery never reads it — node state is
/// restored from committed snapshot generations — so stale ones are
/// swept whole.
pub const SCRATCH_DIR_SUFFIX: &str = ".scratch";

/// Where and how aggressively a [`SpillSet`] spills.
#[derive(Debug, Clone)]
pub struct SpillSetConfig {
    /// Directory the shard files live in (created if missing).
    pub dir: PathBuf,
    /// File-name prefix, e.g. `dedup-url-` → `dedup-url-3.spill`.
    pub prefix: String,
    /// Hot-tier capacity in keys; reaching it triggers a merge of the
    /// whole hot tier into the shard files.
    pub hot_cap: usize,
    /// log2 of the front-filter size in bits. 26 (8 MiB) keeps the
    /// false-positive rate in the low percent for tens of millions of
    /// keys; tests use much smaller filters to exercise the disk path.
    pub bloom_bits_log2: u32,
}

impl SpillSetConfig {
    /// Conventional defaults: 1M hot keys, an 8 MiB front filter.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>) -> Self {
        SpillSetConfig {
            dir: dir.into(),
            prefix: prefix.into(),
            hot_cap: 1 << 20,
            bloom_bits_log2: 26,
        }
    }
}

/// Deterministic counters describing a [`SpillSet`]'s behavior.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpillSetStats {
    /// Keys currently resident in the hot tier.
    pub hot: usize,
    /// Keys currently in shard files (tombstoned ones included).
    pub spilled: usize,
    /// Spilled keys logically removed but not yet compacted away.
    pub tombstones: usize,
    /// Hot-tier merges into the shard files so far.
    pub merges: u64,
    /// Disk probes issued (front filter said "maybe").
    pub disk_probes: u64,
    /// Disk probes that found the key (the filter told the truth).
    pub disk_hits: u64,
    /// Shard-file writes that failed; the affected keys stayed hot, so
    /// answers remain exact at the cost of the memory bound.
    pub io_errors: u64,
}

/// Two-probe Bloom front filter over the spilled keys. A negative
/// answer is authoritative (no disk probe); a positive answer is merely
/// a license to go look.
pub(crate) struct Bloom {
    words: Vec<u64>,
    mask: u64,
}

impl Bloom {
    pub(crate) fn new(bits_log2: u32) -> Self {
        let bits = 1u64 << bits_log2.clamp(6, 36);
        Bloom {
            words: vec![0u64; (bits / 64) as usize],
            mask: bits - 1,
        }
    }

    fn probes(key: u128) -> (u64, u64) {
        let h1 = fxhash::hash_one(&key);
        let h2 = fxhash::hash_one(&h1) | 1;
        (h1, h1.wrapping_add(h2))
    }

    pub(crate) fn add(&mut self, key: u128) {
        let (a, b) = Self::probes(key);
        for bit in [a & self.mask, b & self.mask] {
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    pub(crate) fn maybe(&self, key: u128) -> bool {
        let (a, b) = Self::probes(key);
        [a & self.mask, b & self.mask]
            .iter()
            .all(|bit| self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }
}

/// One sorted shard file plus its resident sparse sample index.
struct ColdShard {
    path: PathBuf,
    /// Read handle, reopened after every merge rewrite.
    file: Option<File>,
    /// Records in the file.
    count: usize,
    /// Key of record `i * SAMPLE_EVERY` for each `i` — the binary-search
    /// skeleton that turns a probe into one block read.
    samples: Vec<u128>,
}

impl ColdShard {
    fn read_block(&self, start: usize, len: usize) -> io::Result<Vec<u128>> {
        let file = self
            .file
            .as_ref()
            .ok_or_else(|| io::Error::other("spill shard not open"))?;
        let mut buf = vec![0u8; len * RECORD_BYTES];
        file.read_exact_at(&mut buf, (start * RECORD_BYTES) as u64)?;
        Ok(buf
            .chunks_exact(RECORD_BYTES)
            .map(|c| u128::from_le_bytes(c.try_into().expect("16-byte chunk")))
            .collect())
    }

    /// Exact membership: binary-search the samples, read one block,
    /// binary-search the block.
    fn contains(&self, key: u128) -> io::Result<bool> {
        if self.count == 0 || self.samples.is_empty() || key < self.samples[0] {
            return Ok(false);
        }
        let idx = self.samples.partition_point(|&s| s <= key) - 1;
        let start = idx * SAMPLE_EVERY;
        let len = SAMPLE_EVERY.min(self.count - start);
        let block = self.read_block(start, len)?;
        Ok(block.binary_search(&key).is_ok())
    }

    /// All records in the file, in sorted order.
    fn read_all(&self) -> io::Result<Vec<u128>> {
        if self.count == 0 {
            return Ok(Vec::new());
        }
        self.read_block(0, self.count)
    }
}

/// The spilling backend; absent entirely for resident sets.
struct Cold {
    fs: Arc<dyn DurableFs>,
    hot_cap: usize,
    shards: Vec<ColdShard>,
    bloom: Bloom,
    /// Keys logically removed while living in a shard file; physically
    /// dropped at the next merge touching their shard.
    tombstones: FxHashSet<u128>,
    spilled: usize,
    merges: u64,
    // Probe counters are `Cell`s so read-only membership checks keep
    // the historical `&self` signatures of the dedup filter.
    disk_probes: Cell<u64>,
    disk_hits: Cell<u64>,
    io_errors: Cell<u64>,
}

impl Cold {
    fn shard_of(key: u128) -> usize {
        fxhash::hash_one(&key) as usize & (SPILL_SHARDS - 1)
    }

    fn contains(&self, key: u128) -> bool {
        if self.spilled == 0 || !self.bloom.maybe(key) {
            return false;
        }
        self.disk_probes.set(self.disk_probes.get() + 1);
        match self.shards[Self::shard_of(key)].contains(key) {
            Ok(found) => {
                if found {
                    self.disk_hits.set(self.disk_hits.get() + 1);
                }
                found
            }
            Err(_) => {
                // A failed probe cannot invent a duplicate: treat as
                // absent (the caller may re-insert; exactness of
                // *positive* answers is what dedup correctness needs).
                self.io_errors.set(self.io_errors.get() + 1);
                false
            }
        }
    }
}

/// An exact membership set over `u128` fingerprints with a bounded
/// resident hot tier and sorted shard files for the cold mass. Without
/// a [`SpillSetConfig`] it degenerates to a plain hash set, bit-for-bit
/// equivalent to the pre-spill implementation.
pub struct SpillSet {
    hot: FxHashSet<u128>,
    cold: Option<Cold>,
}

impl std::fmt::Debug for SpillSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillSet")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for SpillSet {
    fn default() -> Self {
        Self::resident()
    }
}

impl SpillSet {
    /// A purely in-memory set (no cap, no disk).
    pub fn resident() -> Self {
        SpillSet {
            hot: FxHashSet::default(),
            cold: None,
        }
    }

    /// A spilling set writing shard files through `fs`. The directory
    /// is created; pre-existing shard files of the same prefix are
    /// scratch from an aborted run and must be swept by the caller
    /// first (see [`reap_stale_spill_files`]).
    pub fn spilling(cfg: &SpillSetConfig, fs: Arc<dyn DurableFs>) -> Self {
        fs.create_dir_all(&cfg.dir).expect("spill dir");
        let shards = (0..SPILL_SHARDS)
            .map(|s| ColdShard {
                path: cfg
                    .dir
                    .join(format!("{}{s}{SPILL_FILE_SUFFIX}", cfg.prefix)),
                file: None,
                count: 0,
                samples: Vec::new(),
            })
            .collect();
        SpillSet {
            hot: FxHashSet::default(),
            cold: Some(Cold {
                fs,
                hot_cap: cfg.hot_cap.max(1),
                shards,
                bloom: Bloom::new(cfg.bloom_bits_log2),
                tombstones: FxHashSet::default(),
                spilled: 0,
                merges: 0,
                disk_probes: Cell::new(0),
                disk_hits: Cell::new(0),
                io_errors: Cell::new(0),
            }),
        }
    }

    /// A spilling set on the real filesystem.
    pub fn spilling_std(cfg: &SpillSetConfig) -> Self {
        Self::spilling(cfg, Arc::new(StdFs))
    }

    /// Insert `key`; `true` when it was absent.
    pub fn insert(&mut self, key: u128) -> bool {
        if self.hot.contains(&key) {
            return false;
        }
        if let Some(cold) = &mut self.cold {
            if cold.tombstones.contains(&key) {
                // The key is physically on disk but logically removed:
                // resurrect it in place instead of duplicating it hot.
                cold.tombstones.remove(&key);
                return true;
            }
            if cold.contains(key) {
                return false;
            }
        }
        self.hot.insert(key);
        let over_cap = self
            .cold
            .as_ref()
            .is_some_and(|c| self.hot.len() >= c.hot_cap);
        if over_cap {
            self.spill();
        }
        true
    }

    /// Exact membership without mutation of the set contents (probe
    /// counters still advance).
    pub fn contains(&self, key: u128) -> bool {
        if self.hot.contains(&key) {
            return true;
        }
        match &self.cold {
            Some(cold) => !cold.tombstones.contains(&key) && cold.contains(key),
            None => false,
        }
    }

    /// Remove `key`; `true` when it was present. Spilled keys are
    /// tombstoned and physically dropped at the next merge.
    pub fn remove(&mut self, key: u128) -> bool {
        if self.hot.remove(&key) {
            return true;
        }
        match &mut self.cold {
            Some(cold) if !cold.tombstones.contains(&key) && cold.contains(key) => {
                cold.tombstones.insert(key);
                true
            }
            _ => false,
        }
    }

    /// Number of keys logically present.
    pub fn len(&self) -> usize {
        let cold = self
            .cold
            .as_ref()
            .map(|c| c.spilled - c.tombstones.len())
            .unwrap_or(0);
        self.hot.len() + cold
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic behavior counters.
    pub fn stats(&self) -> SpillSetStats {
        match &self.cold {
            Some(c) => SpillSetStats {
                hot: self.hot.len(),
                spilled: c.spilled,
                tombstones: c.tombstones.len(),
                merges: c.merges,
                disk_probes: c.disk_probes.get(),
                disk_hits: c.disk_hits.get(),
                io_errors: c.io_errors.get(),
            },
            None => SpillSetStats {
                hot: self.hot.len(),
                ..SpillSetStats::default()
            },
        }
    }

    /// Merge the entire hot tier into the shard files. Public so
    /// callers can force a spill at a quiescent point (tests, memory
    /// pressure); normally triggered by the hot cap.
    pub fn spill(&mut self) {
        let Some(cold) = &mut self.cold else {
            return;
        };
        if self.hot.is_empty() && cold.tombstones.is_empty() {
            return;
        }
        // Route every hot key and tombstone to its shard, sorted.
        let mut incoming: Vec<Vec<u128>> = vec![Vec::new(); SPILL_SHARDS];
        for &key in &self.hot {
            incoming[Cold::shard_of(key)].push(key);
        }
        let mut dead: Vec<Vec<u128>> = vec![Vec::new(); SPILL_SHARDS];
        for &key in &cold.tombstones {
            dead[Cold::shard_of(key)].push(key);
        }
        cold.merges += 1;
        for s in 0..SPILL_SHARDS {
            if incoming[s].is_empty() && dead[s].is_empty() {
                continue;
            }
            incoming[s].sort_unstable();
            let shard = &mut cold.shards[s];
            let old = match shard.read_all() {
                Ok(old) => old,
                Err(_) => {
                    // Unreadable shard: keep its keys' replacements hot
                    // (exactness over the memory bound).
                    cold.io_errors.set(cold.io_errors.get() + 1);
                    continue;
                }
            };
            let dead_set: FxHashSet<u128> = dead[s].iter().copied().collect();
            let mut merged: Vec<u128> = Vec::with_capacity(old.len() + incoming[s].len());
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < incoming[s].len() {
                let take_old =
                    j >= incoming[s].len() || (i < old.len() && old[i] <= incoming[s][j]);
                let key = if take_old {
                    i += 1;
                    old[i - 1]
                } else {
                    j += 1;
                    incoming[s][j - 1]
                };
                if !dead_set.contains(&key) {
                    merged.push(key);
                }
            }
            let mut bytes = Vec::with_capacity(merged.len() * RECORD_BYTES);
            for key in &merged {
                bytes.extend_from_slice(&key.to_le_bytes());
            }
            if cold.fs.atomic_write(&shard.path, &bytes).is_err() {
                // The old sorted run is still intact (atomic_write never
                // tears); the incoming keys simply stay hot.
                cold.io_errors.set(cold.io_errors.get() + 1);
                continue;
            }
            match File::open(&shard.path) {
                Ok(f) => shard.file = Some(f),
                Err(_) => {
                    cold.io_errors.set(cold.io_errors.get() + 1);
                    continue;
                }
            }
            // This shard went old.len() → merged.len() records.
            cold.spilled = cold.spilled + merged.len() - old.len();
            shard.count = merged.len();
            shard.samples = merged.iter().step_by(SAMPLE_EVERY).copied().collect();
            // Hot keys and tombstones are disjoint by construction
            // (re-inserting a tombstoned key resurrects it on disk
            // instead of going hot), so every incoming key enters the
            // front filter.
            for &key in &incoming[s] {
                cold.bloom.add(key);
                self.hot.remove(&key);
            }
            for key in &dead[s] {
                cold.tombstones.remove(key);
            }
        }
    }

    /// Materialize every logically present key, sorted — the
    /// self-contained checkpoint form (recovery never reads spill
    /// files). Panics on an unreadable shard file, like the frontier's
    /// spill materialization: a checkpoint over unreadable scratch
    /// would silently lose fingerprints.
    pub fn to_sorted_vec(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self.hot.iter().copied().collect();
        if let Some(cold) = &self.cold {
            for shard in &cold.shards {
                for key in shard.read_all().expect("spill shard read") {
                    if !cold.tombstones.contains(&key) {
                        keys.push(key);
                    }
                }
            }
        }
        keys.sort_unstable();
        keys
    }
}

/// Delete leftover run-scratch in `dir` whose name starts with one of
/// `prefixes`:
///
/// * spill files (`.spill`, or `.spill.tmp` — the torn sibling a crash
///   mid-[`DurableFs::atomic_write`] leaves behind),
/// * any other torn `.tmp` sibling of an atomic write, e.g. the
///   `lease-journal.json.tmp` a killed coordinator abandons,
/// * per-node scratch *directories* (`node-3.scratch/`) left by killed
///   worker nodes, removed whole.
///
/// None of these are ever part of recovery — checkpoints and snapshot
/// generations are self-contained — so stale ones from an aborted run
/// are pure garbage. Returns how many files and directories were
/// removed.
pub fn reap_stale_spill_files(dir: &Path, prefixes: &[&str]) -> usize {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0;
    for entry in rd.filter_map(|e| e.ok()) {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let base = name.strip_suffix(".tmp").unwrap_or(&name);
        if !prefixes.iter().any(|p| base.starts_with(p)) {
            continue;
        }
        let is_dir = entry.file_type().map(|t| t.is_dir()).unwrap_or(false);
        let removed = if is_dir {
            base.ends_with(SCRATCH_DIR_SUFFIX) && std::fs::remove_dir_all(entry.path()).is_ok()
        } else {
            (base.ends_with(SPILL_FILE_SUFFIX) || name.ends_with(".tmp"))
                && std::fs::remove_file(entry.path()).is_ok()
        };
        if removed {
            reaped += 1;
        }
    }
    reaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::CrashFs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-spillset-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn tiny_cfg(dir: &Path) -> SpillSetConfig {
        SpillSetConfig {
            dir: dir.to_path_buf(),
            prefix: "dedup-t-".to_string(),
            hot_cap: 8,
            bloom_bits_log2: 10,
        }
    }

    /// Deterministic pseudo-random key stream with repeats.
    fn key_stream(n: usize) -> Vec<u128> {
        (0..n)
            .map(|i| fxhash::hash_one(&(i % (n / 2 + 1))) as u128)
            .collect()
    }

    #[test]
    fn spilled_set_answers_like_a_hash_set() {
        let dir = temp_dir("equiv");
        let mut spilled = SpillSet::spilling_std(&tiny_cfg(&dir));
        let mut model: FxHashSet<u128> = FxHashSet::default();
        for key in key_stream(400) {
            assert_eq!(spilled.insert(key), model.insert(key), "insert {key}");
            assert_eq!(spilled.len(), model.len());
        }
        for key in key_stream(400) {
            assert!(spilled.contains(key));
        }
        assert!(!spilled.contains(0xdead_beef));
        assert!(spilled.stats().merges > 0, "hot cap 8 must have spilled");
        assert_eq!(
            spilled.to_sorted_vec(),
            {
                let mut v: Vec<u128> = model.iter().copied().collect();
                v.sort_unstable();
                v
            },
            "materialized snapshot matches the model"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_tombstones_spilled_keys_and_reinsert_resurrects() {
        let dir = temp_dir("tombstone");
        let mut s = SpillSet::spilling_std(&tiny_cfg(&dir));
        let keys = key_stream(100);
        for &k in &keys {
            s.insert(k);
        }
        let victim = keys[0];
        assert!(s.remove(victim));
        assert!(!s.contains(victim));
        assert!(!s.remove(victim), "double remove is a no-op");
        assert!(s.insert(victim), "reinsert after remove is new");
        assert!(s.contains(victim));
        // Force a merge: tombstones drain, contents stay logically equal.
        let before = s.to_sorted_vec();
        s.spill();
        assert_eq!(s.to_sorted_vec(), before);
        assert_eq!(s.stats().tombstones, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_set_never_touches_disk() {
        let mut s = SpillSet::resident();
        for key in key_stream(100) {
            s.insert(key);
        }
        let st = s.stats();
        assert_eq!((st.spilled, st.merges, st.disk_probes), (0, 0, 0));
    }

    #[test]
    fn crash_during_merge_keeps_answers_exact_and_files_untorn() {
        // Sweep the crash point through the byte stream of the shard
        // rewrites: whatever the budget, membership answers stay exact
        // (keys that failed to spill remain hot) and every shard file
        // on disk is a whole, sorted run.
        let keys = key_stream(120);
        for budget in (0..4000u64).step_by(61) {
            let dir = temp_dir(&format!("crash-{budget}"));
            let fs = Arc::new(CrashFs::with_budget(budget));
            let mut s = SpillSet::spilling(&tiny_cfg(&dir), fs.clone());
            let mut model: FxHashSet<u128> = FxHashSet::default();
            for &k in &keys {
                assert_eq!(s.insert(k), model.insert(k), "budget {budget} key {k}");
            }
            for &k in &keys {
                assert!(s.contains(k), "budget {budget}: lost key {k}");
            }
            assert_eq!(s.len(), model.len(), "budget {budget}");
            // Every shard file parses as sorted fixed-width records.
            if let Ok(rd) = std::fs::read_dir(&dir) {
                for entry in rd.filter_map(|e| e.ok()) {
                    let name = entry.file_name().to_string_lossy().to_string();
                    if !name.ends_with(SPILL_FILE_SUFFIX) {
                        continue; // .tmp debris of the crashed write
                    }
                    let bytes = std::fs::read(entry.path()).unwrap();
                    assert_eq!(bytes.len() % RECORD_BYTES, 0, "torn {name}");
                    let recs: Vec<u128> = bytes
                        .chunks_exact(RECORD_BYTES)
                        .map(|c| u128::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    assert!(recs.windows(2).all(|w| w[0] < w[1]), "unsorted {name}");
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stale_files_are_reaped_by_prefix() {
        let dir = temp_dir("reap");
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "slot-0.spill",
            "dedup-url-3.spill",
            "vocab-7.spill",
            "work-0.spill",
            "keep.jsonl",
            "other-1.spill",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let reaped = reap_stale_spill_files(&dir, SPILL_FILE_PREFIXES);
        assert_eq!(reaped, 2);
        assert!(dir.join("keep.jsonl").exists());
        for retired in ["vocab-7.spill", "work-0.spill", "other-1.spill"] {
            assert!(dir.join(retired).exists(), "unknown prefix spared");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_journal_temps_and_scratch_dirs_are_reaped() {
        let dir = temp_dir("reap-dist");
        std::fs::create_dir_all(&dir).unwrap();
        // Torn atomic-write sibling of a lease journal, and a spill temp.
        std::fs::write(dir.join("lease-journal.json.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("slot-2.spill.tmp"), b"torn").unwrap();
        // Committed journal: never touched.
        std::fs::write(dir.join("lease-journal.json"), b"{}").unwrap();
        // Scratch directory of a killed node, with contents.
        let scratch = dir.join("node-3.scratch");
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("seg-000001.jsonl"), b"x").unwrap();
        // Directories that merely share a prefix are spared.
        std::fs::create_dir_all(dir.join("node-0")).unwrap();
        // Unknown-prefix temp file is spared.
        std::fs::write(dir.join("other.json.tmp"), b"torn").unwrap();

        let reaped = reap_stale_spill_files(&dir, SPILL_FILE_PREFIXES);
        assert_eq!(reaped, 3, "journal temp + spill temp + scratch dir");
        assert!(dir.join("lease-journal.json").exists(), "committed spared");
        assert!(dir.join("node-0").exists(), "non-scratch dir spared");
        assert!(dir.join("other.json.tmp").exists(), "unknown prefix spared");
        assert!(!scratch.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
