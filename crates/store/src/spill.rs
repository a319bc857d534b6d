//! Sweeping run-scratch left behind by an aborted run.
//!
//! Two layers write scratch files next to durable state: the
//! frontier's per-slot spill files and the distributed coordinator's
//! lease journal temps. Neither is ever part of recovery — checkpoints
//! and snapshot generations are self-contained — so whatever a killed
//! run leaves behind is garbage, swept by [`reap_stale_spill_files`]
//! before the next run starts.

use std::path::Path;

/// File-name prefixes of every spill-file family the system writes.
/// The stale-file sweep on recovery reaps both — frontier slots and
/// distributed lease journals (see [`reap_stale_spill_files`]).
pub const SPILL_FILE_PREFIXES: &[&str] = &["slot-", "lease-"];

/// Suffix shared by all spill scratch files.
pub const SPILL_FILE_SUFFIX: &str = ".spill";

/// Delete leftover run-scratch in `dir` whose name starts with one of
/// `prefixes`:
///
/// * spill files (`.spill`, or `.spill.tmp` — the torn sibling a crash
///   mid-[`crate::DurableFs::atomic_write`] leaves behind),
/// * any other torn `.tmp` sibling of an atomic write, e.g. the
///   `lease-journal.json.tmp` a killed coordinator abandons.
///
/// Neither is ever part of recovery — checkpoints and snapshot
/// generations are self-contained — so stale ones from an aborted run
/// are pure garbage. Directories are never removed. Returns how many
/// files were removed.
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
        if (base.ends_with(SPILL_FILE_SUFFIX) || name.ends_with(".tmp"))
            && std::fs::remove_file(entry.path()).is_ok()
        {
            reaped += 1;
        }
    }
    reaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-spill-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn stale_files_are_reaped_by_prefix() {
        let dir = temp_dir("reap");
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "slot-0.spill",
            "lease-1.spill",
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
        for retired in [
            "dedup-url-3.spill",
            "vocab-7.spill",
            "work-0.spill",
            "other-1.spill",
        ] {
            assert!(dir.join(retired).exists(), "unknown prefix spared");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_journal_temps_are_reaped_and_directories_spared() {
        let dir = temp_dir("reap-dist");
        std::fs::create_dir_all(&dir).unwrap();
        // Torn atomic-write sibling of a lease journal, and a spill temp.
        std::fs::write(dir.join("lease-journal.json.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("slot-2.spill.tmp"), b"torn").unwrap();
        // Committed journal: never touched.
        std::fs::write(dir.join("lease-journal.json"), b"{}").unwrap();
        // Directories are spared, whatever their name.
        std::fs::create_dir_all(dir.join("lease-0.spill")).unwrap();
        // Unknown-prefix temp file is spared.
        std::fs::write(dir.join("other.json.tmp"), b"torn").unwrap();

        let reaped = reap_stale_spill_files(&dir, SPILL_FILE_PREFIXES);
        assert_eq!(reaped, 2, "journal temp + spill temp");
        assert!(dir.join("lease-journal.json").exists(), "committed spared");
        assert!(dir.join("lease-0.spill").exists(), "directory spared");
        assert!(dir.join("other.json.tmp").exists(), "unknown prefix spared");
        std::fs::remove_dir_all(&dir).ok();
    }
}
