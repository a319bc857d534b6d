//! Crawl configuration, statistics and shared types.

use bingo_textproc::fxhash::FxHashSet;
use bingo_webworld::fetch::host_of_url;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Maximum accepted hostname length (RFC 1738; Section 4.2).
pub const MAX_HOSTNAME_LEN: usize = 255;
/// Maximum accepted URL length (Section 4.2).
pub const MAX_URL_LEN: usize = 1000;
/// Priority decay per tunnelling step (paper: 0.5).
pub const TUNNEL_DECAY: f32 = 0.5;
/// Maximum redirects followed per chain (paper: 25).
pub const MAX_REDIRECTS: u32 = 25;
/// Estimated per-document processing cost in virtual ms (parsing,
/// classification, storing) added to each simulated thread's busy time.
pub const PROCESSING_COST_MS: u64 = 5;
/// Base delay for per-URL retry backoff after a transient failure.
/// Retry `n` waits `RETRY_BACKOFF_MS << n` (capped by
/// [`crate::hosts::MAX_BACKOFF_MS`]) plus deterministic jitter, on the
/// virtual clock.
pub const RETRY_BACKOFF_MS: u64 = 250;
/// Simulated crawler threads (paper testbed: 15).
pub const SIMULATED_THREADS: usize = 15;
/// Fetch attempts after the first before a URL is given up (paper: "the
/// number of retrials is restricted to 3").
pub const MAX_RETRIES: u32 = 3;
/// Outgoing queue capacity per topic (paper: 1,000).
pub const OUTGOING_QUEUE_CAP: usize = 1_000;
/// Maximum simultaneous connections per host (paper testbed: 2). A
/// fetch whose host has no free connection slot waits for one.
pub const PER_HOST_CONNECTIONS: usize = 2;

/// Why [`CrawlConfig::admit_url`] turned a URL away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UrlRejection {
    /// No hostname could be parsed out of the URL.
    Malformed,
    /// URL longer than [`MAX_URL_LEN`] or hostname longer than
    /// [`MAX_HOSTNAME_LEN`].
    TooLong,
    /// Hostname is in `locked_hosts`.
    LockedHost,
    /// Hostname is outside a configured `allowed_hosts` restriction.
    OutsideAllowed,
}

impl UrlRejection {
    /// Short human-readable reason (the `StepOutcome::Skipped` label).
    pub fn reason(self) -> &'static str {
        match self {
            UrlRejection::Malformed => "malformed url",
            UrlRejection::TooLong => "url length guard",
            UrlRejection::LockedHost => "locked host",
            UrlRejection::OutsideAllowed => "outside allowed domains",
        }
    }
}

/// The crawl focusing rule (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FocusRule {
    /// Learning phase: "accept only those links where
    /// `class(p) = class(q)`" — links are followed only from documents
    /// classified into the same topic the link was queued for; rejected
    /// documents contribute links only through bounded tunnelling.
    Sharp,
    /// Harvesting phase: accept links from documents classified into
    /// *any* topic of interest.
    Soft,
}

/// Frontier ordering (Section 2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlStrategy {
    /// Learning phase: "a limited (mostly depth-first) crawl" — deeper
    /// URLs first.
    DepthFirst,
    /// Harvesting phase: breadth-first with SVM-confidence
    /// prioritization — best-confidence URLs first.
    BestFirst,
}

/// Crawl parameters; defaults follow the paper's testbed (Section 5.1).
/// The testbed's fixed values (threads, retries, outgoing queue cap,
/// connections per host, breaker timing) are constants:
/// [`SIMULATED_THREADS`], [`MAX_RETRIES`], [`OUTGOING_QUEUE_CAP`],
/// [`PER_HOST_CONNECTIONS`] and those of [`crate::hosts`].
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Focusing rule in effect.
    pub focus: FocusRule,
    /// Frontier ordering.
    pub strategy: CrawlStrategy,
    /// Maximum crawl depth (0 = unlimited). Learning phase: 4.
    pub max_depth: u32,
    /// Maximum tunnelling distance through rejected pages (paper: 2).
    pub max_tunnel: u32,
    /// Incoming queue capacity per topic (paper: 25,000).
    pub incoming_queue_cap: usize,
    /// When set, the crawl only visits these hostnames (learning-phase
    /// domain restriction).
    pub allowed_hosts: Option<FxHashSet<String>>,
    /// Hostnames never visited ("the domains of major Web search engines
    /// were explicitly locked", and DBLP is locked in the experiment).
    pub locked_hosts: FxHashSet<String>,
    /// Write a crawl checkpoint every N stored documents (0 = never).
    pub checkpoint_every_docs: u64,
    /// Directory checkpoints are written into; required when
    /// `checkpoint_every_docs > 0`. Automatic checkpoints are
    /// crawler-only generations ([`crate::Crawler::save_session`]): they
    /// hold no engine snapshot, so `bingo_core::persist::load_session`
    /// skips them, and they count towards the generations kept.
    pub checkpoint_dir: Option<PathBuf>,
    /// Ignored: every frontier queue is resident. Kept as frozen
    /// `benchmark/` surface until that surface is next revised.
    pub frontier_spill_dir: Option<PathBuf>,
    /// Ignored, like `frontier_spill_dir`.
    pub frontier_hot_cap: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            focus: FocusRule::Sharp,
            strategy: CrawlStrategy::DepthFirst,
            max_depth: 4,
            max_tunnel: 2,
            incoming_queue_cap: 25_000,
            allowed_hosts: None,
            locked_hosts: FxHashSet::default(),
            checkpoint_every_docs: 0,
            checkpoint_dir: None,
            frontier_spill_dir: None,
            frontier_hot_cap: 4096,
        }
    }
}

impl CrawlConfig {
    /// The harvesting-phase variant of this configuration: soft focus,
    /// best-first ordering, no depth limit, no domain restriction
    /// (Section 3.3).
    pub fn harvesting(&self) -> CrawlConfig {
        CrawlConfig {
            focus: FocusRule::Soft,
            strategy: CrawlStrategy::BestFirst,
            max_depth: 0,
            allowed_hosts: None,
            ..self.clone()
        }
    }

    /// The URL hygiene guard of Section 4.2 ("document type
    /// management"), shared by every executor at both fetch and enqueue
    /// time: the URL must parse, stay within the length limits, and its
    /// host must be neither locked nor outside the allowed domains.
    /// Returns the hostname; callers decide how a rejection is counted.
    pub fn admit_url<'u>(&self, url: &'u str) -> Result<&'u str, UrlRejection> {
        let host = host_of_url(url).ok_or(UrlRejection::Malformed)?;
        if url.len() > MAX_URL_LEN || host.len() > MAX_HOSTNAME_LEN {
            return Err(UrlRejection::TooLong);
        }
        if self.locked_hosts.contains(host) {
            return Err(UrlRejection::LockedHost);
        }
        match &self.allowed_hosts {
            Some(allowed) if !allowed.contains(host) => Err(UrlRejection::OutsideAllowed),
            _ => Ok(host),
        }
    }
}

/// Total-ordered queue key derived from an `f32` priority. Smaller keys
/// sort first, so the key negates the priority: the BTree's first entry
/// is the *highest*-priority URL. Fixed-point scaling keeps the ordering
/// total (no NaN pitfalls) at microscale resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueuePriority(i64);

impl QueuePriority {
    /// Key for a priority value.
    pub fn new(priority: f32) -> Self {
        let p = if priority.is_nan() { 0.0 } else { priority };
        QueuePriority(-((p.clamp(-1e12, 1e12) as f64 * 1e6.to_owned()) as i64))
    }

    /// Approximate priority back from the key.
    pub fn as_f32(self) -> f32 {
        (-(self.0 as f64) / 1e6) as f32
    }
}

/// The verdict of the engine's classifier on one document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgment {
    /// Topic the document was assigned to; `None` = rejected everywhere
    /// (the OTHERS case).
    pub topic: Option<u32>,
    /// Classification confidence (signed hyperplane distance of the
    /// winning topic, or the best rejected score).
    pub confidence: f32,
}

impl Judgment {
    /// Outright rejection with the given (non-positive) confidence.
    pub fn reject(confidence: f32) -> Self {
        Judgment {
            topic: None,
            confidence,
        }
    }
}

/// Crawl context handed to the judge along with the analyzed document.
#[derive(Debug, Clone)]
pub struct PageContext {
    /// Page id in the web graph.
    pub page_id: u64,
    /// URL the document was fetched from.
    pub url: String,
    /// Crawl depth.
    pub depth: u32,
    /// Topic the enqueuing parent was classified into, if any.
    pub src_topic: Option<u32>,
    /// Anchor terms of the link that enqueued this page (for the
    /// anchor-text feature space).
    pub anchor_terms: Vec<bingo_textproc::TermId>,
    /// Most significant terms of the hyperlink predecessor that enqueued
    /// this page (for the neighbour-document feature space, Section 3.4).
    pub neighbor_terms: Vec<bingo_textproc::TermId>,
    /// Virtual time of the fetch.
    pub fetched_at: u64,
}

/// Counters reported in Table 1 plus the operational counters the
/// Section 4.2 mechanisms produce.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrawlStats {
    /// URLs taken off the frontier and processed (Table 1 "Visited URLs").
    pub visited_urls: u64,
    /// Documents stored in the database (Table 1 "Stored pages").
    pub stored_pages: u64,
    /// Hyperlinks extracted from stored documents (Table 1).
    pub extracted_links: u64,
    /// Documents positively classified into a topic (Table 1).
    pub positively_classified: u64,
    /// Distinct hosts successfully visited (Table 1).
    pub visited_hosts: u64,
    /// Maximum crawl depth reached (Table 1).
    pub max_depth: u32,
    /// Duplicates dismissed by any fingerprint.
    pub duplicates: u64,
    /// Fetch failures (timeouts, 404s, DNS).
    pub fetch_errors: u64,
    /// Redirects followed.
    pub redirects: u64,
    /// Documents dropped by MIME/size limits.
    pub mime_rejected: u64,
    /// URLs dropped by hygiene guards (length limits, locked hosts).
    pub url_rejected: u64,
    /// Links dropped because a frontier queue was full.
    pub queue_overflow: u64,
    /// Virtual time elapsed (ms).
    pub elapsed_ms: u64,
    /// Fetches re-attempted after a transient failure (backoff retries).
    pub retries: u64,
    /// Total virtual ms URLs spent parked in retry/breaker backoff.
    pub backoff_wait_ms: u64,
    /// Payload bytes fetched but discarded (truncated or unparseable
    /// bodies, abandoned redirect chains).
    pub wasted_bytes: u64,
    /// Responses whose body was shorter than the advertised size.
    pub truncated_fetches: u64,
    /// Circuit breakers tripped open.
    pub breaker_opened: u64,
    /// Half-open probe fetches issued.
    pub breaker_probes: u64,
    /// Breakers closed again by a successful probe.
    pub breaker_closed: u64,
    /// Hosts excluded for the rest of the crawl (breaker exhausted).
    pub hosts_dead: u64,
    /// Crawl checkpoints written.
    pub checkpoints_written: u64,
}

impl CrawlStats {
    /// Fold another set of counters into this one: sums everywhere,
    /// except the high-water marks (`max_depth`, `elapsed_ms`), which
    /// take the maximum. Used by the real-thread executor to aggregate
    /// per-worker counters.
    pub fn merge(&mut self, other: &CrawlStats) {
        self.visited_urls += other.visited_urls;
        self.stored_pages += other.stored_pages;
        self.extracted_links += other.extracted_links;
        self.positively_classified += other.positively_classified;
        self.visited_hosts += other.visited_hosts;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.duplicates += other.duplicates;
        self.fetch_errors += other.fetch_errors;
        self.redirects += other.redirects;
        self.mime_rejected += other.mime_rejected;
        self.url_rejected += other.url_rejected;
        self.queue_overflow += other.queue_overflow;
        self.elapsed_ms = self.elapsed_ms.max(other.elapsed_ms);
        self.retries += other.retries;
        self.backoff_wait_ms = self.backoff_wait_ms.saturating_add(other.backoff_wait_ms);
        self.wasted_bytes += other.wasted_bytes;
        self.truncated_fetches += other.truncated_fetches;
        self.breaker_opened += other.breaker_opened;
        self.breaker_probes += other.breaker_probes;
        self.breaker_closed += other.breaker_closed;
        self.hosts_dead += other.hosts_dead;
        self.checkpoints_written += other.checkpoints_written;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_testbed() {
        let c = CrawlConfig::default();
        assert_eq!(c.max_depth, 4);
        assert_eq!(c.max_tunnel, 2);
        assert_eq!(c.incoming_queue_cap, 25_000);
    }

    #[test]
    fn harvesting_variant_relaxes() {
        let c = CrawlConfig {
            allowed_hosts: Some(["x.edu".to_string()].into_iter().collect()),
            ..CrawlConfig::default()
        };
        let h = c.harvesting();
        assert_eq!(h.focus, FocusRule::Soft);
        assert_eq!(h.strategy, CrawlStrategy::BestFirst);
        assert_eq!(h.max_depth, 0);
        assert!(h.allowed_hosts.is_none());
        assert_eq!(h.max_tunnel, c.max_tunnel);
        assert_eq!(h.incoming_queue_cap, c.incoming_queue_cap);
    }

    #[test]
    fn admit_url_applies_every_guard() {
        let config = CrawlConfig {
            locked_hosts: ["locked.example".to_string()].into_iter().collect(),
            ..CrawlConfig::default()
        };
        let confined = CrawlConfig {
            allowed_hosts: Some(["in.edu".to_string()].into_iter().collect()),
            ..config.clone()
        };
        // A URL of exactly `len` bytes on host `h.edu`.
        let url_of_len = |len: usize| format!("http://h.edu/{}", "p".repeat(len - 13));
        let host_of_len = |len: usize| "h".repeat(len);
        let cases: Vec<(&CrawlConfig, String, Result<String, UrlRejection>)> = vec![
            (&config, url_of_len(1000), Ok("h.edu".into())),
            (&config, url_of_len(1001), Err(UrlRejection::TooLong)),
            (
                &config,
                format!("http://{}/x", host_of_len(255)),
                Ok(host_of_len(255)),
            ),
            (
                &config,
                format!("http://{}/x", host_of_len(256)),
                Err(UrlRejection::TooLong),
            ),
            (&config, "not a url".into(), Err(UrlRejection::Malformed)),
            (
                &config,
                "http://locked.example/x".into(),
                Err(UrlRejection::LockedHost),
            ),
            (&confined, "http://in.edu/x".into(), Ok("in.edu".into())),
            (
                &confined,
                "http://out.edu/x".into(),
                Err(UrlRejection::OutsideAllowed),
            ),
            // Locked wins over the domain restriction.
            (
                &confined,
                "http://locked.example/x".into(),
                Err(UrlRejection::LockedHost),
            ),
        ];
        for (cfg, url, want) in cases {
            let got = cfg.admit_url(&url).map(str::to_string);
            assert_eq!(got, want, "{} bytes: {:.60}", url.len(), url);
        }
    }

    #[test]
    fn judgment_reject() {
        let j = Judgment::reject(-0.4);
        assert_eq!(j.topic, None);
        assert_eq!(j.confidence, -0.4);
    }
}
