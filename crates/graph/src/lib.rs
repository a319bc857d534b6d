//! Link analysis substrate (Section 2.5).
//!
//! BINGO! applies the Bharat-Henzinger variant of Kleinberg's HITS
//! algorithm to each topic upon retraining, identifying a set of
//! *authorities* (pages with the most significant content on the topic,
//! candidates for archetype promotion) and *hubs* (the best link
//! collections, prioritized for crawling next).
//!
//! The node set is built in two steps: (1) all documents positively
//! classified into the topic — the *base set*; (2) all successors plus a
//! bounded set of predecessors obtained from a large unfocused web
//! database (here: any [`LinkSource`], e.g. the crawler's link table or
//! the web simulator).
#![forbid(unsafe_code)]

pub mod hits;

pub use hits::{Hits, HitsConfig, HitsResult};

use bingo_textproc::fxhash::{FxHashMap, FxHashSet};

/// Identifier of a page in the web graph. The webworld, the store and the
/// crawler all share this id space.
pub type PageId = u64;

/// Identifier of a host (site). Used by the Bharat-Henzinger edge
/// weighting to discount mutually reinforcing same-host link farms.
pub type HostId = u32;

/// Read access to (a fragment of) the hyperlink-induced web graph.
///
/// Implemented by the crawler's link database and by the web simulator
/// (which plays the role of the paper's "large unfocused Web database that
/// internally maintains a large fraction of the full Web graph").
pub trait LinkSource {
    /// Pages this page links to.
    fn successors(&self, page: PageId) -> Vec<PageId>;
    /// Pages linking to this page.
    fn predecessors(&self, page: PageId) -> Vec<PageId>;
    /// The host a page lives on.
    fn host_of(&self, page: PageId) -> HostId;
}

/// An in-memory directed link graph, the standard [`LinkSource`]
/// implementation used for a topic's crawl results.
#[derive(Debug, Default, Clone)]
pub struct LinkGraph {
    out: FxHashMap<PageId, Vec<PageId>>,
    inc: FxHashMap<PageId, Vec<PageId>>,
    hosts: FxHashMap<PageId, HostId>,
}

impl LinkGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a page with its host. Idempotent.
    pub fn add_page(&mut self, page: PageId, host: HostId) {
        self.hosts.entry(page).or_insert(host);
        self.out.entry(page).or_default();
        self.inc.entry(page).or_default();
    }

    /// Add a directed edge; both endpoints must have been added. Parallel
    /// edges are collapsed.
    pub fn add_link(&mut self, from: PageId, to: PageId) {
        debug_assert!(self.hosts.contains_key(&from) && self.hosts.contains_key(&to));
        let out = self.out.entry(from).or_default();
        if !out.contains(&to) {
            out.push(to);
            self.inc.entry(to).or_default().push(from);
        }
    }

    /// Number of registered pages.
    pub fn page_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.out.values().map(Vec::len).sum()
    }

    /// True when the page is known to the graph.
    pub fn contains(&self, page: PageId) -> bool {
        self.hosts.contains_key(&page)
    }

    /// All registered pages.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.hosts.keys().copied()
    }
}

impl LinkSource for LinkGraph {
    fn successors(&self, page: PageId) -> Vec<PageId> {
        self.out.get(&page).cloned().unwrap_or_default()
    }

    fn predecessors(&self, page: PageId) -> Vec<PageId> {
        self.inc.get(&page).cloned().unwrap_or_default()
    }

    fn host_of(&self, page: PageId) -> HostId {
        self.hosts.get(&page).copied().unwrap_or(0)
    }
}

/// Build the HITS node set from a base set: the base pages, all their
/// successors, and up to `max_predecessors` predecessors per base page
/// (Section 2.5, step 2).
pub fn expand_base_set<S: LinkSource + ?Sized>(
    source: &S,
    base: &[PageId],
    max_predecessors: usize,
) -> Vec<PageId> {
    let mut set: FxHashSet<PageId> = base.iter().copied().collect();
    for &p in base {
        for s in source.successors(p) {
            set.insert(s);
        }
        for q in source.predecessors(p).into_iter().take(max_predecessors) {
            set.insert(q);
        }
    }
    let mut nodes: Vec<PageId> = set.into_iter().collect();
    nodes.sort_unstable();
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> LinkGraph {
        let mut g = LinkGraph::new();
        for p in 0..5 {
            g.add_page(p, (p % 2) as HostId);
        }
        g.add_link(0, 1);
        g.add_link(1, 2);
        g.add_link(2, 3);
        g.add_link(3, 4);
        g
    }

    #[test]
    fn add_and_query() {
        let g = chain();
        assert_eq!(g.page_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(1), vec![2]);
        assert_eq!(g.predecessors(2), vec![1]);
        assert_eq!(g.host_of(3), 1);
        assert!(g.contains(0));
        assert!(!g.contains(99));
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut g = chain();
        g.add_link(0, 1);
        g.add_link(0, 1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.predecessors(1), vec![0]);
    }

    #[test]
    fn expand_includes_successors_and_bounded_predecessors() {
        let mut g = LinkGraph::new();
        for p in 0..10 {
            g.add_page(p, 0);
        }
        // Node 5 is the base; 6 is its successor; 0..5 all link to 5.
        g.add_link(5, 6);
        for p in 0..5 {
            g.add_link(p, 5);
        }
        let expanded = expand_base_set(&g, &[5], 2);
        assert!(expanded.contains(&5));
        assert!(expanded.contains(&6));
        // Exactly 2 predecessors admitted.
        let preds = expanded.iter().filter(|&&p| p < 5).count();
        assert_eq!(preds, 2);
    }

    #[test]
    fn expand_deduplicates() {
        let g = chain();
        let expanded = expand_base_set(&g, &[1, 2], 10);
        let mut sorted = expanded.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), expanded.len());
        // 1,2 base; successors 2,3; predecessors 0,1.
        assert_eq!(expanded, vec![0, 1, 2, 3]);
    }
}
