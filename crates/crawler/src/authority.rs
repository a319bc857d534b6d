//! Authority-guided frontier ordering: a host-level webgraph maintained
//! online from the store's link rows, blended into frontier priorities.
//!
//! BINGO! runs HITS only at retraining time; the Treasure-Crawler /
//! PDD-crawler line of work shows that blending link-structure authority
//! with content relevance prediction lifts harvest ratio. This module
//! threads that signal into the crawl:
//!
//! * [`HostAuthority`] is an [`IndexTee`]: it observes every accepted
//!   document row (to learn which host each stored page lives on) and
//!   every link-row batch the bulk loader flushes, folding them into a
//!   [`HostGraph`] — page-level links compact onto host pairs with
//!   multiplicities.
//! * Every `recompute_every_batches` observed link batches the authority
//!   scores are recomputed *incrementally* (PageRank warm-started from
//!   the previous vector, or exact harmonic centrality), not from
//!   scratch on every batch. Batches arrive in virtual-clock order, so
//!   the recompute schedule is deterministic.
//! * The crawler blends the signal into every enqueued link:
//!   `priority = α·content_priority + β·host_authority(link host)`,
//!   where `content_priority` is the existing SVM-confidence-derived
//!   priority and `host_authority` is normalized to `[0, 1]`.
//!
//! **Determinism.** With `enabled = false` (the default) no tee is
//! attached and the blend multiplies by nothing — the crawl is
//! bit-identical to a build without this module. With the blend on, all
//! inputs (link arrival order, recompute cadence, score arithmetic) are
//! pure functions of the seeded crawl, so same-seed runs still replay
//! byte-identical telemetry; `α = 1, β = 0` degenerates to the unblended
//! ordering exactly (`1.0 * p + 0.0 * a == p` in IEEE 754 for finite
//! `p`). The graph checkpoints inside the crawler's generation
//! machinery ([`AuthorityCheckpoint`]), so a resumed crawl replays the
//! same orderings as an uninterrupted one.

use bingo_graph::{AuthoritySignal, HostGraph, HostGraphSnapshot, HostNode, PageRankConfig};
use bingo_store::{DocumentRow, IndexTee, LinkRow};
use bingo_textproc::fxhash::FxHashMap;
use bingo_webworld::fetch::host_of_url;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::telemetry::GraphTelemetry;

/// Configuration of the authority blend. Disabled by default so
/// existing crawls hold bit-identical.
#[derive(Debug, Clone)]
pub struct AuthorityConfig {
    /// Master switch: `false` (default) attaches no tee and leaves
    /// frontier priorities untouched.
    pub enabled: bool,
    /// Weight of the content-derived priority (SVM confidence).
    pub alpha: f32,
    /// Weight of the normalized host authority.
    pub beta: f32,
    /// Recompute authority every N observed link batches (a batch = one
    /// bulk-loader flush; ≥ 1).
    pub recompute_every_batches: u64,
    /// Which centrality serves as host authority.
    pub signal: AuthoritySignal,
    /// PageRank parameters for [`AuthoritySignal::PageRank`].
    pub pagerank: PageRankConfig,
}

impl Default for AuthorityConfig {
    fn default() -> Self {
        AuthorityConfig {
            enabled: false,
            alpha: 0.7,
            beta: 0.3,
            recompute_every_batches: 32,
            signal: AuthoritySignal::PageRank,
            pagerank: PageRankConfig::default(),
        }
    }
}

impl AuthorityConfig {
    /// An enabled blend with the default weights.
    pub fn enabled() -> Self {
        AuthorityConfig {
            enabled: true,
            ..AuthorityConfig::default()
        }
    }
}

/// Serializable state of a [`HostAuthority`], embedded in
/// [`crate::checkpoint::CrawlCheckpoint`] so resume replays identical
/// frontier orderings. All fields sort deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuthorityCheckpoint {
    /// The host graph (nodes, edges, scores).
    pub graph: HostGraphSnapshot,
    /// Stored-page → host-node map, sorted by page id.
    pub page_hosts: Vec<(u64, HostNode)>,
    /// Link batches observed since the last recompute.
    pub batches_since_recompute: u64,
}

struct AuthorityState {
    graph: HostGraph,
    /// Host node of every stored page, learned from accepted document
    /// rows; link rows carry only the *source* page id, so this map
    /// resolves the source host.
    page_hosts: FxHashMap<u64, HostNode>,
    batches_since_recompute: u64,
}

/// Shared host-graph + authority-score state fed by the store tee and
/// queried by the crawler's frontier policy.
pub struct HostAuthority {
    cfg: AuthorityConfig,
    state: Mutex<AuthorityState>,
    telemetry: Mutex<GraphTelemetry>,
}

impl HostAuthority {
    /// Fresh empty authority state.
    pub fn new(cfg: AuthorityConfig, telemetry: GraphTelemetry) -> Self {
        HostAuthority {
            cfg,
            state: Mutex::new(AuthorityState {
                graph: HostGraph::new(),
                page_hosts: FxHashMap::default(),
                batches_since_recompute: 0,
            }),
            telemetry: Mutex::new(telemetry),
        }
    }

    /// Route this authority's metrics into a different registry (the
    /// crawler swaps telemetry when the engine wires a shared one).
    pub fn set_telemetry(&self, telemetry: GraphTelemetry) {
        *self.telemetry.lock() = telemetry;
    }

    /// The blend: `α·content + β·authority(host)`. `content` is the
    /// existing confidence-derived priority; unknown hosts contribute 0.
    pub fn blend(&self, content: f32, host: &str) -> f32 {
        self.cfg.alpha * content + self.cfg.beta * self.authority_of(host)
    }

    /// Normalized authority of a host in `[0, 1]` (0 before the first
    /// recompute or for unseen hosts).
    pub fn authority_of(&self, host: &str) -> f32 {
        self.state.lock().graph.authority_of(host) as f32
    }

    /// Hosts currently in the graph.
    pub fn host_count(&self) -> usize {
        self.state.lock().graph.host_count()
    }

    /// Distinct inter-host edges.
    pub fn edge_count(&self) -> usize {
        self.state.lock().graph.edge_count()
    }

    /// Authority recomputations performed.
    pub fn recomputes(&self) -> u64 {
        self.state.lock().graph.recomputes()
    }

    /// Top-`n` hosts by authority score, best first.
    pub fn top_hosts(&self, n: usize) -> Vec<(String, f64)> {
        self.state
            .lock()
            .graph
            .top(n)
            .into_iter()
            .map(|(h, s)| (h.to_string(), s))
            .collect()
    }

    /// Snapshot for the crawl checkpoint (sorted, byte-stable).
    pub fn checkpoint(&self) -> AuthorityCheckpoint {
        let state = self.state.lock();
        let mut page_hosts: Vec<(u64, HostNode)> =
            state.page_hosts.iter().map(|(&p, &h)| (p, h)).collect();
        page_hosts.sort_unstable();
        AuthorityCheckpoint {
            graph: state.graph.snapshot(),
            page_hosts,
            batches_since_recompute: state.batches_since_recompute,
        }
    }

    /// Overwrite state from a checkpoint (resume path).
    pub fn restore(&self, cp: AuthorityCheckpoint) {
        let mut state = self.state.lock();
        state.graph = HostGraph::restore(cp.graph);
        state.page_hosts = cp.page_hosts.into_iter().collect();
        state.batches_since_recompute = cp.batches_since_recompute;
        let telemetry = self.telemetry.lock();
        telemetry.hosts.set(state.graph.host_count() as i64);
        telemetry.edges.set(state.graph.edge_count() as i64);
    }
}

impl IndexTee for HostAuthority {
    fn on_insert(&self, rows: &[DocumentRow]) {
        let mut state = self.state.lock();
        for row in rows {
            if let Some(host) = host_of_url(&row.url) {
                let node = state.graph.intern(host);
                state.page_hosts.insert(row.id, node);
            }
        }
    }

    fn on_links(&self, links: &[LinkRow]) {
        let mut state = self.state.lock();
        let mut observed = 0u64;
        for link in links {
            let Some(&from) = state.page_hosts.get(&link.from) else {
                continue; // source page never stored (should not happen)
            };
            let Some(to_host) = host_of_url(&link.to_url) else {
                continue;
            };
            let to = state.graph.intern(to_host);
            state.graph.add_link_nodes(from, to);
            observed += 1;
        }
        state.batches_since_recompute += 1;
        let due = state.batches_since_recompute >= self.cfg.recompute_every_batches.max(1);
        let iters = if due {
            state.batches_since_recompute = 0;
            Some(state.graph.recompute(self.cfg.signal, self.cfg.pagerank))
        } else {
            None
        };
        let telemetry = self.telemetry.lock();
        telemetry.links.add(observed);
        telemetry.hosts.set(state.graph.host_count() as i64);
        telemetry.edges.set(state.graph.edge_count() as i64);
        if let Some(iters) = iters {
            telemetry.recomputes.inc();
            telemetry.recompute_iters.observe(iters as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_textproc::MimeType;

    fn doc(id: u64, url: &str) -> DocumentRow {
        DocumentRow {
            id,
            url: url.into(),
            host: 0,
            mime: MimeType::Html,
            depth: 0,
            title: String::new(),
            topic: None,
            confidence: 0.0,
            term_freqs: vec![],
            size: 1,
            fetched_at: 0,
        }
    }

    fn link(from: u64, to: u64, to_url: &str) -> LinkRow {
        LinkRow {
            from,
            to,
            to_url: to_url.into(),
        }
    }

    fn authority(cfg: AuthorityConfig) -> HostAuthority {
        HostAuthority::new(cfg, crate::telemetry::CrawlTelemetry::default().graph)
    }

    #[test]
    fn tee_builds_the_host_graph() {
        let auth = authority(AuthorityConfig {
            recompute_every_batches: 1,
            ..AuthorityConfig::enabled()
        });
        auth.on_insert(&[doc(1, "http://a.edu/x"), doc(2, "http://b.org/y")]);
        auth.on_links(&[
            link(1, 2, "http://b.org/y"),
            link(1, 3, "http://c.com/z"),
            link(2, 3, "http://c.com/z"),
            link(1, 4, "http://a.edu/other"), // intra-host: no edge
        ]);
        assert_eq!(auth.host_count(), 3);
        assert_eq!(auth.edge_count(), 3);
        assert_eq!(auth.recomputes(), 1, "cadence 1 recomputes per batch");
        // c.com is the sink: highest authority.
        assert_eq!(auth.top_hosts(1)[0].0, "c.com");
        assert!((auth.authority_of("c.com") - 1.0).abs() < 1e-6);
        assert_eq!(auth.authority_of("unknown.net"), 0.0);
    }

    #[test]
    fn recompute_cadence_counts_batches() {
        let auth = authority(AuthorityConfig {
            recompute_every_batches: 3,
            ..AuthorityConfig::enabled()
        });
        auth.on_insert(&[doc(1, "http://a.edu/x")]);
        auth.on_links(&[link(1, 2, "http://b.org/p")]);
        auth.on_links(&[link(1, 3, "http://c.com/p")]);
        assert_eq!(auth.recomputes(), 0, "two batches: not yet due");
        auth.on_links(&[link(1, 4, "http://d.io/p")]);
        assert_eq!(auth.recomputes(), 1, "third batch triggers");
    }

    #[test]
    fn blend_with_beta_zero_is_identity() {
        let auth = authority(AuthorityConfig {
            alpha: 1.0,
            beta: 0.0,
            recompute_every_batches: 1,
            ..AuthorityConfig::enabled()
        });
        auth.on_insert(&[doc(1, "http://a.edu/x")]);
        auth.on_links(&[link(1, 2, "http://b.org/p")]);
        for p in [0.0f32, 0.25, 0.5, 0.99, 7.5] {
            assert_eq!(auth.blend(p, "b.org"), p);
        }
    }

    #[test]
    fn checkpoint_round_trips_byte_identically() {
        let auth = authority(AuthorityConfig {
            recompute_every_batches: 2,
            ..AuthorityConfig::enabled()
        });
        auth.on_insert(&[doc(1, "http://a.edu/x"), doc(2, "http://b.org/y")]);
        auth.on_links(&[link(1, 2, "http://b.org/y"), link(2, 3, "http://c.com/z")]);
        let cp = auth.checkpoint();
        assert_eq!(cp.batches_since_recompute, 1);

        let restored = authority(AuthorityConfig::enabled());
        restored.restore(cp.clone());
        assert_eq!(restored.host_count(), auth.host_count());
        assert_eq!(restored.edge_count(), auth.edge_count());
        assert_eq!(restored.authority_of("c.com"), auth.authority_of("c.com"));
        let a = serde_json::to_string(&cp).unwrap();
        let b = serde_json::to_string(&restored.checkpoint()).unwrap();
        assert_eq!(a, b, "restore → checkpoint is byte-identical");
    }
}
