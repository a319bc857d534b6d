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
//! memory consumers — one entry per distinct URL / fetched page — and
//! they stay resident. A checkpoint serialises every fingerprint
//! ([`Dedup::snapshot`]) into `crawler.json`, so an off-heap set would
//! be read back onto the heap at every generation anyway; bounding this
//! layer takes generations that reference on-disk fingerprint runs, the
//! way they reference sealed store segments. The keys are `u128`, so a
//! wider URL hash costs no storage.

use bingo_textproc::fxhash::{self, FxHashSet};

/// The three-stage duplicate filter.
#[derive(Debug, Default)]
pub struct Dedup {
    /// Hashcodes of URLs already queued/visited (not the URLs themselves —
    /// mirroring the paper's memory/accuracy trade-off).
    url_hashes: FxHashSet<u128>,
    /// (IP, path-hash) pairs already fetched.
    ip_path: FxHashSet<u128>,
    /// (IP, filesize) pairs already fetched.
    ip_size: FxHashSet<u128>,
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
    /// Empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage 1: mark a URL as seen. Returns `false` when its hash was
    /// already present (treat as duplicate).
    pub fn mark_url(&mut self, url: &str) -> bool {
        self.url_hashes.insert(fxhash::hash_one(&url) as u128)
    }

    /// True when the URL hash was seen before (non-mutating).
    pub fn url_seen(&self, url: &str) -> bool {
        self.url_hashes.contains(&(fxhash::hash_one(&url) as u128))
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
    pub fn unmark(&mut self, journal: &[DedupMark]) {
        for mark in journal {
            match *mark {
                DedupMark::Url(h) => self.url_hashes.remove(&(h as u128)),
                DedupMark::IpPath(ip, path_hash) => self.ip_path.remove(&pair_key(ip, path_hash)),
                DedupMark::IpSize(ip, size) => self.ip_size.remove(&pair_key(ip, size)),
            };
        }
    }

    /// Number of distinct URLs marked.
    pub fn urls_marked(&self) -> usize {
        self.url_hashes.len()
    }

    /// Fingerprints held across the three sets (the `crawl.dedup.hot`
    /// gauge).
    pub fn fingerprints(&self) -> usize {
        self.url_hashes.len() + self.ip_path.len() + self.ip_size.len()
    }

    /// Serializable snapshot, sorted for byte-stable checkpoints.
    pub fn snapshot(&self) -> DedupSnapshot {
        DedupSnapshot {
            url_hashes: sorted(&self.url_hashes).map(|k| k as u64).collect(),
            ip_path: sorted(&self.ip_path).map(split_pair).collect(),
            ip_size: sorted(&self.ip_size).map(split_pair).collect(),
        }
    }

    /// Rebuild the filter from a snapshot.
    pub fn restore(snap: DedupSnapshot) -> Self {
        Dedup {
            url_hashes: snap.url_hashes.into_iter().map(u128::from).collect(),
            ip_path: snap
                .ip_path
                .into_iter()
                .map(|(ip, h)| pair_key(ip, h))
                .collect(),
            ip_size: snap
                .ip_size
                .into_iter()
                .map(|(ip, s)| pair_key(ip, s))
                .collect(),
        }
    }
}

/// The keys of `set` in ascending order.
fn sorted(set: &FxHashSet<u128>) -> impl Iterator<Item = u128> {
    let mut keys: Vec<u128> = set.iter().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
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
    fn path_extraction() {
        assert_eq!(path_of_url("http://h.com/a/b.html"), "/a/b.html");
        assert_eq!(path_of_url("http://h.com"), "");
        assert_eq!(path_of_url("nonsense"), "");
    }
}
