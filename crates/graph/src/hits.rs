//! HITS topic distillation with Bharat-Henzinger improvements
//! (Kleinberg, JACM 1999; Bharat & Henzinger, SIGIR 1998).
//!
//! "The actual computation of hub and authority scores is essentially an
//! iterative approximation of the principal Eigenvectors for two matrices
//! derived from the adjacency matrix of the graph" (Section 2.5).
//!
//! The Bharat-Henzinger refinement guards against mutually reinforcing
//! relationships between hosts: when `k` pages on one host all point to
//! the same target, each such edge contributes authority weight `1/k`
//! (and symmetrically `1/m` for hub weight when one page is pointed to by
//! `m` pages of a single host). Purely intra-host edges (self-promotion,
//! navigation bars) are dropped entirely.

use crate::{HostId, LinkSource, PageId};
use bingo_textproc::fxhash::{FxHashMap, FxHashSet};

/// Maximum power iterations.
pub const MAX_ITERATIONS: usize = 50;
/// Convergence threshold on the L1 change of the score vectors.
pub const EPSILON: f64 = 1e-8;

/// The HITS computation.
///
/// ```
/// use bingo_graph::{Hits, LinkGraph};
///
/// let mut g = LinkGraph::new();
/// for p in 0..4 { g.add_page(p, p as u32); }
/// g.add_link(0, 3);
/// g.add_link(1, 3);
/// g.add_link(2, 3);
/// let result = Hits.run(&g, &[0, 1, 2, 3]);
/// assert_eq!(result.top_authorities(1)[0].0, 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Hits;

/// Authority and hub scores over the analyzed node set.
#[derive(Debug, Clone)]
pub struct HitsResult {
    /// Node set in the order of the score vectors.
    pub nodes: Vec<PageId>,
    /// Authority score per node (L2-normalized).
    pub authority: Vec<f64>,
    /// Hub score per node (L2-normalized).
    pub hub: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
}

impl HitsResult {
    /// Top-`n` authorities as `(page, score)`, best first.
    pub fn top_authorities(&self, n: usize) -> Vec<(PageId, f64)> {
        top_n(&self.nodes, &self.authority, n)
    }

    /// Top-`n` hubs as `(page, score)`, best first.
    pub fn top_hubs(&self, n: usize) -> Vec<(PageId, f64)> {
        top_n(&self.nodes, &self.hub, n)
    }

    /// Authority score of a specific page (0.0 when outside the node set).
    pub fn authority_of(&self, page: PageId) -> f64 {
        self.nodes
            .iter()
            .position(|&p| p == page)
            .map(|i| self.authority[i])
            .unwrap_or(0.0)
    }
}

fn top_n(nodes: &[PageId], scores: &[f64], n: usize) -> Vec<(PageId, f64)> {
    let mut pairs: Vec<(PageId, f64)> = nodes.iter().copied().zip(scores.iter().copied()).collect();
    pairs.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    pairs.truncate(n);
    pairs
}

/// A weighted edge in the analyzed subgraph.
struct Edge {
    from: usize,
    to: usize,
    /// Bharat-Henzinger authority weight (used when propagating hub → auth).
    auth_weight: f64,
    /// Bharat-Henzinger hub weight (used when propagating auth → hub).
    hub_weight: f64,
}

impl Hits {
    /// Run HITS over the subgraph induced by `nodes` (typically the
    /// expanded base set of a topic, see [`crate::expand_base_set`]).
    pub fn run<S: LinkSource + ?Sized>(&self, source: &S, nodes: &[PageId]) -> HitsResult {
        let n = nodes.len();
        let index: FxHashMap<PageId, usize> =
            nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let hosts: Vec<HostId> = nodes.iter().map(|&p| source.host_of(p)).collect();

        // Collect the induced edges.
        let mut raw_edges: Vec<(usize, usize)> = Vec::new();
        for (i, &p) in nodes.iter().enumerate() {
            let mut seen: FxHashSet<usize> = FxHashSet::default();
            for s in source.successors(p) {
                if let Some(&j) = index.get(&s) {
                    if i == j || !seen.insert(j) {
                        continue;
                    }
                    if hosts[i] == hosts[j] {
                        continue;
                    }
                    raw_edges.push((i, j));
                }
            }
        }

        // Bharat-Henzinger weights: count, per target, how many linking
        // pages share a host; per source, how many linked pages share a
        // host.
        let mut in_by_host: FxHashMap<(usize, HostId), u32> = FxHashMap::default();
        let mut out_by_host: FxHashMap<(usize, HostId), u32> = FxHashMap::default();
        for &(i, j) in &raw_edges {
            *in_by_host.entry((j, hosts[i])).or_insert(0) += 1;
            *out_by_host.entry((i, hosts[j])).or_insert(0) += 1;
        }
        let edges: Vec<Edge> = raw_edges
            .into_iter()
            .map(|(i, j)| Edge {
                from: i,
                to: j,
                auth_weight: 1.0 / in_by_host[&(j, hosts[i])] as f64,
                hub_weight: 1.0 / out_by_host[&(i, hosts[j])] as f64,
            })
            .collect();

        // Power iteration.
        let mut authority = vec![1.0f64; n];
        let mut hub = vec![1.0f64; n];
        normalize(&mut authority);
        normalize(&mut hub);
        let mut iterations = 0;
        for it in 0..MAX_ITERATIONS {
            iterations = it + 1;
            let mut new_auth = vec![0.0f64; n];
            for e in &edges {
                new_auth[e.to] += e.auth_weight * hub[e.from];
            }
            normalize(&mut new_auth);
            let mut new_hub = vec![0.0f64; n];
            for e in &edges {
                new_hub[e.from] += e.hub_weight * new_auth[e.to];
            }
            normalize(&mut new_hub);

            let delta: f64 = authority
                .iter()
                .zip(&new_auth)
                .map(|(a, b)| (a - b).abs())
                .chain(hub.iter().zip(&new_hub).map(|(a, b)| (a - b).abs()))
                .sum();
            authority = new_auth;
            hub = new_hub;
            if delta < EPSILON {
                break;
            }
        }

        HitsResult {
            nodes: nodes.to_vec(),
            authority,
            hub,
            iterations,
        }
    }
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkGraph;

    /// A classic hub/authority structure on distinct hosts:
    /// hubs 0,1,2 all point to authorities 10,11; page 20 is isolated.
    fn hub_authority_graph() -> LinkGraph {
        let mut g = LinkGraph::new();
        for p in [0u64, 1, 2] {
            g.add_page(p, p as HostId + 1);
        }
        g.add_page(10, 100);
        g.add_page(11, 101);
        g.add_page(20, 200);
        for h in [0u64, 1, 2] {
            g.add_link(h, 10);
            g.add_link(h, 11);
        }
        g
    }

    #[test]
    fn authorities_and_hubs_separate() {
        let g = hub_authority_graph();
        let nodes: Vec<PageId> = vec![0, 1, 2, 10, 11, 20];
        let res = Hits.run(&g, &nodes);
        let top_auth = res.top_authorities(2);
        assert!(top_auth.iter().all(|&(p, _)| p == 10 || p == 11));
        let top_hubs = res.top_hubs(3);
        assert!(top_hubs.iter().all(|&(p, s)| p <= 2 && s > 0.0));
        assert_eq!(res.authority_of(20), 0.0);
    }

    #[test]
    fn intra_host_links_ignored() {
        let mut g = LinkGraph::new();
        // Host 1 contains pages 0..=3; 0,1,2 all "boost" page 3.
        for p in 0..4u64 {
            g.add_page(p, 1);
        }
        for p in 0..3u64 {
            g.add_link(p, 3);
        }
        // A single cross-host link to page 10.
        g.add_page(4, 2);
        g.add_page(10, 3);
        g.add_link(4, 10);
        let nodes: Vec<PageId> = vec![0, 1, 2, 3, 4, 10];
        let res = Hits.run(&g, &nodes);
        assert!(
            res.authority_of(10) > res.authority_of(3),
            "cross-host endorsement must beat same-host self-promotion"
        );
    }

    #[test]
    fn bh_weighting_discounts_host_farms() {
        let mut g = LinkGraph::new();
        // Farm: 5 pages on host 1 link to authority 50.
        for p in 0..5u64 {
            g.add_page(p, 1);
        }
        g.add_page(50, 10);
        for p in 0..5u64 {
            g.add_link(p, 50);
        }
        // Organic: 3 pages on 3 distinct hosts link to authority 51.
        for p in 20..23u64 {
            g.add_page(p, p as HostId);
        }
        g.add_page(51, 11);
        for p in 20..23u64 {
            g.add_link(p, 51);
        }
        let nodes: Vec<PageId> = vec![0, 1, 2, 3, 4, 20, 21, 22, 50, 51];
        let res = Hits.run(&g, &nodes);
        assert!(
            res.authority_of(51) > res.authority_of(50),
            "3 independent hosts must outweigh a 5-page single-host farm: {} vs {}",
            res.authority_of(51),
            res.authority_of(50)
        );
    }

    #[test]
    fn empty_node_set() {
        let g = LinkGraph::new();
        let res = Hits.run(&g, &[]);
        assert!(res.nodes.is_empty());
        assert!(res.top_authorities(5).is_empty());
    }

    #[test]
    fn converges_quickly_on_small_graph() {
        let g = hub_authority_graph();
        let res = Hits.run(&g, &[0, 1, 2, 10, 11, 20]);
        assert!(
            res.iterations < MAX_ITERATIONS,
            "took {} iterations",
            res.iterations
        );
    }

    #[test]
    fn scores_are_normalized() {
        let g = hub_authority_graph();
        let res = Hits.run(&g, &[0, 1, 2, 10, 11, 20]);
        let an: f64 = res.authority.iter().map(|x| x * x).sum();
        let hn: f64 = res.hub.iter().map(|x| x * x).sum();
        assert!((an - 1.0).abs() < 1e-6);
        assert!((hn - 1.0).abs() < 1e-6);
    }
}
