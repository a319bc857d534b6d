//! Crash-consistent artifact persistence: atomic file installs and
//! versioned checkpoint generations.
//!
//! The crawl "may be a database with several million documents"
//! accumulated over days (Section 1.2); losing it to a kill that lands
//! mid-write is not acceptable. This module applies the classic
//! write-ahead-intent discipline of log-structured stores to every
//! session artifact:
//!
//! * [`atomic_write`] never touches the destination in place — bytes go
//!   to a sibling temp file, are flushed and fsynced, and replace the
//!   destination in one rename. A crash at any byte leaves either the
//!   old file or the new file, never a torn hybrid.
//! * A session directory holds numbered **generations**
//!   (`gen-000001/`, `gen-000002/`, …). Each generation's files are
//!   written first; a `MANIFEST.json` recording per-file lengths and
//!   checksums is installed *last* and acts as the commit record. A
//!   generation without a valid manifest — or whose files fail length
//!   or checksum verification — never existed as far as recovery is
//!   concerned.
//! * [`find_newest_complete`] scans generations newest-first and
//!   returns the first one that verifies: rollback-to-last-good is the
//!   load path, not a special case.
//! * [`prune_generations`] keeps the newest K complete generations
//!   (default [`DEFAULT_KEEP_GENERATIONS`]) so multi-day crawls don't
//!   fill the disk with history.
//!
//! All writes go through the [`DurableFs`] trait so tests can inject
//! crashes at an exact byte offset ([`CrashFs`]): the crash-point
//! matrix in `crates/crawler/tests/crash.rs` proves "kill the process
//! at byte N of a checkpoint write, for any N" recovers the newest
//! complete generation.

use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// File name of the per-generation commit record.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Format marker of manifest files.
pub const MANIFEST_MAGIC: &str = "bingo-manifest";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Complete generations kept by [`prune_generations`] by default.
pub const DEFAULT_KEEP_GENERATIONS: usize = 2;

/// Checksum used in manifests: deterministic, dependency-free fxhash
/// over the file bytes. Not cryptographic — it guards against torn and
/// bit-rotted files, not adversaries.
pub fn checksum(bytes: &[u8]) -> u64 {
    bingo_textproc::fxhash::hash_one(&bytes)
}

/// One file recorded in a generation manifest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name relative to the generation directory.
    pub name: String,
    /// Exact byte length.
    pub len: u64,
    /// [`checksum`] of the bytes.
    pub checksum: u64,
}

/// The commit record of one checkpoint generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Format marker ([`MANIFEST_MAGIC`]).
    pub magic: String,
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Generation number (monotonic within a session directory).
    pub generation: u64,
    /// Files belonging to the generation, in write order.
    pub files: Vec<ManifestEntry>,
}

/// A complete (manifest-verified) generation found in a session
/// directory.
#[derive(Debug, Clone)]
pub struct CompleteGeneration {
    /// Generation number.
    pub generation: u64,
    /// Directory holding the generation's files.
    pub dir: PathBuf,
    /// Its parsed commit record.
    pub manifest: Manifest,
}

/// Filesystem abstraction for durable writes, so tests can kill the
/// write at an exact byte offset. Production code uses [`StdFs`].
pub trait DurableFs: Send + Sync {
    /// Write `bytes` to `path` atomically (temp file → flush → fsync →
    /// rename). On error the destination is untouched; at most a
    /// partial temp file is left behind.
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

impl DurableFs for StdFs {
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        atomic_write(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Sibling temp path: `store.jsonl` → `store.jsonl.tmp` (suffix append,
/// not extension replacement, so dotted names stay unambiguous).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// flush + fsync, then one rename. The destination either keeps its old
/// content or holds the complete new content — never a prefix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable (best effort: some filesystems
    // reject directory fsync).
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// A crash-injecting filesystem: writes succeed until a total byte
/// budget is exhausted, then the "process dies" — the write in flight
/// keeps only the bytes that fit (left in the temp file, never
/// renamed) and every later operation fails. Driving the budget over
/// `0..total_session_bytes` sweeps the crash point through every byte
/// of a save, including the gaps *between* files.
#[derive(Debug)]
pub struct CrashFs {
    budget: AtomicU64,
    dead: AtomicBool,
}

impl CrashFs {
    /// A filesystem that dies after `budget` bytes have been written.
    pub fn with_budget(budget: u64) -> Self {
        CrashFs {
            budget: AtomicU64::new(budget),
            dead: AtomicBool::new(false),
        }
    }

    /// True once the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn died(&self) -> io::Error {
        self.dead.store(true, Ordering::SeqCst);
        io::Error::other("injected crash: byte budget exhausted")
    }
}

impl DurableFs for CrashFs {
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.crashed() {
            return Err(self.died());
        }
        let len = bytes.len() as u64;
        let left = self.budget.load(Ordering::SeqCst);
        if left >= len {
            self.budget.fetch_sub(len, Ordering::SeqCst);
            return atomic_write(path, bytes);
        }
        // The crash lands mid-write: the temp file keeps the prefix
        // that fit, the rename never happens, the destination (if any)
        // keeps its old content.
        self.budget.store(0, Ordering::SeqCst);
        let _ = std::fs::write(tmp_path(path), &bytes[..left as usize]);
        Err(self.died())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.crashed() {
            return Err(self.died());
        }
        std::fs::create_dir_all(path)
    }
}

/// Directory name of generation `n` inside a session directory.
pub fn generation_dir(session: &Path, generation: u64) -> PathBuf {
    session.join(format!("gen-{generation:06}"))
}

/// Parse a generation number out of a `gen-NNNNNN` directory name.
fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// All generation numbers present in `session` (complete or not),
/// sorted descending. A missing or unreadable directory is just empty.
pub fn generation_numbers(session: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(session) else {
        return Vec::new();
    };
    let mut gens: Vec<u64> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| generation_of(&e.file_name().to_string_lossy()))
        .collect();
    gens.sort_unstable_by(|a, b| b.cmp(a));
    gens
}

/// Verify one generation directory against its manifest: the manifest
/// must parse with the right magic/version and every listed file must
/// match its recorded length and checksum.
pub fn verify_generation(dir: &Path) -> Option<Manifest> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).ok()?;
    let manifest: Manifest = serde_json::from_str(&text).ok()?;
    if manifest.magic != MANIFEST_MAGIC || manifest.version != MANIFEST_VERSION {
        return None;
    }
    for entry in &manifest.files {
        let bytes = std::fs::read(dir.join(&entry.name)).ok()?;
        if bytes.len() as u64 != entry.len || checksum(&bytes) != entry.checksum {
            return None;
        }
    }
    Some(manifest)
}

/// The complete generations of `session`, newest first, each verified
/// only when the iterator reaches it — a caller that stops after the
/// first (or the first `keep`) never reads the older ones.
pub fn complete_newest_first(session: &Path) -> impl Iterator<Item = CompleteGeneration> + '_ {
    generation_numbers(session)
        .into_iter()
        .filter_map(move |generation| {
            let dir = generation_dir(session, generation);
            verify_generation(&dir).map(|manifest| CompleteGeneration {
                generation,
                dir,
                manifest,
            })
        })
}

/// All complete generations in `session`, newest first.
pub fn complete_generations(session: &Path) -> Vec<CompleteGeneration> {
    complete_newest_first(session).collect()
}

/// The newest complete generation in `session`, if any — the rollback
/// target every load goes through.
pub fn find_newest_complete(session: &Path) -> Option<CompleteGeneration> {
    complete_newest_first(session).next()
}

/// Delete everything but the newest `keep` complete generations
/// (incomplete generations — crashed attempts — are always garbage and
/// removed when older siblings go; generations older than the kept ones
/// are deleted unverified). Also reaps orphaned segment files
/// a crash between segment seal and manifest commit left in the
/// session directory (see [`crate::segment::reap_orphan_segments`]).
/// Returns the number of generation directories plus orphan files
/// removed; failures to remove are skipped, never fatal.
pub fn prune_generations(session: &Path, keep: usize) -> usize {
    let reaped = crate::segment::reap_orphan_segments(session);
    let keep_gens: Vec<u64> = complete_newest_first(session)
        .take(keep.max(1))
        .map(|g| g.generation)
        .collect();
    if keep_gens.is_empty() {
        return reaped; // nothing proven good: don't delete generations
    }
    let newest_kept = *keep_gens.iter().max().unwrap_or(&0);
    let mut pruned = 0;
    for generation in generation_numbers(session) {
        // Never touch attempts newer than the newest kept commit: an
        // in-flight writer may be mid-commit there.
        if generation > newest_kept || keep_gens.contains(&generation) {
            continue;
        }
        if std::fs::remove_dir_all(generation_dir(session, generation)).is_ok() {
            pruned += 1;
        }
    }
    pruned + reaped
}

/// Staged writer for one checkpoint generation: `begin` picks the next
/// generation number, `write_file` installs each artifact atomically,
/// and `commit` writes the manifest — the single operation that makes
/// the generation visible to recovery.
pub struct GenerationWriter<'a> {
    fs: &'a dyn DurableFs,
    gen_dir: PathBuf,
    generation: u64,
    files: Vec<ManifestEntry>,
}

impl<'a> GenerationWriter<'a> {
    /// Open the next generation of `session` (created if missing).
    pub fn begin(fs: &'a dyn DurableFs, session: &Path) -> io::Result<Self> {
        fs.create_dir_all(session)?;
        let generation = generation_numbers(session).first().copied().unwrap_or(0) + 1;
        let gen_dir = generation_dir(session, generation);
        fs.create_dir_all(&gen_dir)?;
        Ok(GenerationWriter {
            fs,
            gen_dir,
            generation,
            files: Vec::new(),
        })
    }

    /// The generation number being written.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The directory the generation's files land in.
    pub fn dir(&self) -> &Path {
        &self.gen_dir
    }

    /// Write one artifact into the generation and record it for the
    /// manifest. `name` may contain `/` separators (`node-0/store.jsonl`)
    /// — a distributed snapshot commits per-node subtrees under one
    /// manifest; intermediate directories are created through the same
    /// [`DurableFs`], so an injected crash can land on the mkdir too.
    pub fn write_file(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let path = self.gen_dir.join(name);
        if let Some(parent) = path.parent() {
            if parent != self.gen_dir {
                self.fs.create_dir_all(parent)?;
            }
        }
        self.fs.atomic_write(&path, bytes)?;
        self.files.push(ManifestEntry {
            name: name.to_string(),
            len: bytes.len() as u64,
            checksum: checksum(bytes),
        });
        Ok(())
    }

    /// Commit: write the manifest last. Until this returns `Ok`, the
    /// generation does not exist as far as recovery is concerned.
    pub fn commit(self) -> io::Result<u64> {
        let manifest = Manifest {
            magic: MANIFEST_MAGIC.to_string(),
            version: MANIFEST_VERSION,
            generation: self.generation,
            files: self.files,
        };
        let json = serde_json::to_string(&manifest).map_err(|e| io::Error::other(e.to_string()))?;
        self.fs
            .atomic_write(&self.gen_dir.join(MANIFEST_FILE), json.as_bytes())?;
        Ok(self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_session(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-durable-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn write_generation(session: &Path, files: &[(&str, &[u8])]) -> u64 {
        let fs = StdFs;
        let mut w = GenerationWriter::begin(&fs, session).unwrap();
        for (name, bytes) in files {
            w.write_file(name, bytes).unwrap();
        }
        w.commit().unwrap()
    }

    #[test]
    fn atomic_write_replaces_and_survives_error_paths() {
        let dir = temp_session("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert!(!tmp_path(&path).exists(), "temp file cleaned by rename");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_number_monotonically_and_verify() {
        let session = temp_session("gen");
        let g1 = write_generation(&session, &[("a", b"alpha"), ("b", b"beta")]);
        let g2 = write_generation(&session, &[("a", b"alpha-2")]);
        assert_eq!((g1, g2), (1, 2));
        let newest = find_newest_complete(&session).unwrap();
        assert_eq!(newest.generation, 2);
        assert_eq!(newest.manifest.files.len(), 1);
        assert_eq!(std::fs::read(newest.dir.join("a")).unwrap(), b"alpha-2");
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn nested_file_names_commit_and_verify() {
        let session = temp_session("nested");
        let fs = StdFs;
        let mut w = GenerationWriter::begin(&fs, &session).unwrap();
        w.write_file("node-0/store.jsonl", b"alpha").unwrap();
        w.write_file("node-1/store.jsonl", b"beta").unwrap();
        w.write_file("coordinator.json", b"{}").unwrap();
        w.commit().unwrap();
        let newest = find_newest_complete(&session).unwrap();
        assert_eq!(newest.manifest.files.len(), 3);
        assert_eq!(
            std::fs::read(newest.dir.join("node-1/store.jsonl")).unwrap(),
            b"beta"
        );
        // Corrupting one node's file invalidates the whole generation.
        std::fs::write(newest.dir.join("node-0/store.jsonl"), b"XXXXX").unwrap();
        assert!(find_newest_complete(&session).is_none());
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn uncommitted_generation_is_invisible() {
        let session = temp_session("uncommitted");
        write_generation(&session, &[("a", b"good")]);
        let fs = StdFs;
        let mut w = GenerationWriter::begin(&fs, &session).unwrap();
        w.write_file("a", b"half-done").unwrap();
        drop(w); // no commit: manifest never written
        let newest = find_newest_complete(&session).unwrap();
        assert_eq!(newest.generation, 1, "uncommitted gen-2 ignored");
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn corrupt_files_invalidate_the_generation() {
        let session = temp_session("corrupt");
        write_generation(&session, &[("a", b"old")]);
        write_generation(&session, &[("a", b"new contents")]);
        let g2 = generation_dir(&session, 2);
        // Flip bytes without changing the length: checksum catches it.
        std::fs::write(g2.join("a"), b"new CONTENTS").unwrap();
        let newest = find_newest_complete(&session).unwrap();
        assert_eq!(newest.generation, 1, "rolled back past corrupt gen-2");
        // Truncation: length check catches it.
        write_generation(&session, &[("a", b"third time")]);
        let g3 = generation_dir(&session, 3);
        std::fs::write(g3.join("a"), b"thi").unwrap();
        assert_eq!(find_newest_complete(&session).unwrap().generation, 1);
        // Garbled manifest: generation never existed.
        write_generation(&session, &[("a", b"fourth")]);
        std::fs::write(
            generation_dir(&session, 4).join(MANIFEST_FILE),
            b"\xff\x00garbage",
        )
        .unwrap();
        assert_eq!(find_newest_complete(&session).unwrap().generation, 1);
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn crash_fs_kills_at_byte_budget() {
        let session = temp_session("crashfs");
        // Budget sweep over a two-file generation: whatever the budget,
        // either the commit completes or no complete generation exists.
        let payload_a = b"0123456789".as_slice();
        let payload_b = b"abcdefghijklmnopqrst".as_slice();
        for budget in 0..200u64 {
            let session = session.join(format!("b{budget}"));
            let fs = CrashFs::with_budget(budget);
            let result = (|| -> io::Result<u64> {
                let mut w = GenerationWriter::begin(&fs, &session)?;
                w.write_file("a", payload_a)?;
                w.write_file("b", payload_b)?;
                w.commit()
            })();
            match result {
                Ok(generation) => {
                    assert!(!fs.crashed());
                    assert_eq!(
                        find_newest_complete(&session).unwrap().generation,
                        generation
                    );
                }
                Err(_) => {
                    assert!(fs.crashed());
                    assert!(
                        find_newest_complete(&session).is_none(),
                        "budget {budget}: a torn generation verified as complete"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn crash_fs_between_files_keeps_previous_generation() {
        let session = temp_session("crash-between");
        write_generation(&session, &[("a", b"good-a"), ("b", b"good-b")]);
        // Exactly enough budget for file "a": the crash lands between
        // file a and file b of generation 2.
        let fs = CrashFs::with_budget(6);
        let mut w = GenerationWriter::begin(&fs, &session).unwrap();
        w.write_file("a", b"new-a!").unwrap();
        assert!(w.write_file("b", b"new-b!").is_err());
        let newest = find_newest_complete(&session).unwrap();
        assert_eq!(newest.generation, 1);
        assert_eq!(std::fs::read(newest.dir.join("a")).unwrap(), b"good-a");
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_keeps_newest_k_and_counts() {
        let session = temp_session("prune");
        for i in 0..5u8 {
            write_generation(&session, &[("a", &[i])]);
        }
        let pruned = prune_generations(&session, 2);
        assert_eq!(pruned, 3, "three old generations removed");
        let left = generation_numbers(&session);
        assert_eq!(left, vec![5, 4]);
        assert_eq!(prune_generations(&session, 2), 0, "idempotent");
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_keep_zero_still_keeps_the_newest() {
        let session = temp_session("prune-zero");
        for i in 0..3u8 {
            write_generation(&session, &[("a", &[i])]);
        }
        // keep = 0 would leave no rollback target; it clamps to 1.
        assert_eq!(prune_generations(&session, 0), 2);
        assert_eq!(generation_numbers(&session), vec![3]);
        assert!(find_newest_complete(&session).is_some());
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_with_fewer_generations_than_keep_removes_nothing() {
        let session = temp_session("prune-few");
        for i in 0..2u8 {
            write_generation(&session, &[("a", &[i])]);
        }
        assert_eq!(prune_generations(&session, 5), 0);
        assert_eq!(generation_numbers(&session), vec![2, 1]);
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_spares_trailing_incomplete_but_removes_older_ones() {
        let session = temp_session("prune-incomplete");
        let fs = StdFs;
        // Generation 1: a crashed attempt (no manifest).
        {
            let mut w = GenerationWriter::begin(&fs, &session).unwrap();
            w.write_file("a", b"torn").unwrap();
        }
        // Generations 2 and 3: complete.
        write_generation(&session, &[("a", &[2])]);
        write_generation(&session, &[("a", &[3])]);
        // Generation 4: an in-flight attempt newer than any commit.
        {
            let mut w = GenerationWriter::begin(&fs, &session).unwrap();
            w.write_file("a", b"in-flight").unwrap();
        }
        // Keep 1 → generation 3 stays; the old complete generation 2 and
        // the old crashed generation 1 go; the in-flight generation 4 is
        // never touched (its writer may still be mid-commit).
        assert_eq!(prune_generations(&session, 1), 2);
        assert_eq!(generation_numbers(&session), vec![4, 3]);
        assert_eq!(
            find_newest_complete(&session).map(|g| g.generation),
            Some(3)
        );
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_reaps_orphan_segment_files() {
        let session = temp_session("prune-orphans");
        for i in 0..3u8 {
            write_generation(&session, &[("a", &[i])]);
        }
        // Debris of a crash between segment seal and manifest commit:
        // no SEGMENTS.json references these, so both are orphans.
        std::fs::write(session.join("seg-000007.jsonl"), b"orphan").unwrap();
        std::fs::write(session.join("seg-000008.jsonl.tmp"), b"torn").unwrap();
        assert_eq!(
            prune_generations(&session, 2),
            3,
            "one old generation + two orphan segment files"
        );
        assert_eq!(generation_numbers(&session), vec![3, 2]);
        assert!(!session.join("seg-000007.jsonl").exists());
        assert!(!session.join("seg-000008.jsonl.tmp").exists());
        std::fs::remove_dir_all(&session).ok();
    }

    #[test]
    fn pruning_never_deletes_without_a_good_generation() {
        let session = temp_session("prune-empty");
        let fs = StdFs;
        let mut w = GenerationWriter::begin(&fs, &session).unwrap();
        w.write_file("a", b"torn").unwrap();
        drop(w);
        assert_eq!(prune_generations(&session, 2), 0);
        assert_eq!(generation_numbers(&session), vec![1]);
        std::fs::remove_dir_all(&session).ok();
    }
}
