//! # bingo — a reproduction of the BINGO! focused crawler (CIDR 2003)
//!
//! BINGO! ("Bookmark-Induced Gathering of Information") is a focused
//! crawler for *information portal generation* and *expert Web search*.
//! Unlike index-based search engines, it interleaves crawling, automatic
//! SVM classification into a user-provided topic tree,
//! mutual-information feature selection, HITS link analysis and
//! archetype-driven retraining, in two phases: a precision-oriented
//! *learning* phase and a recall-oriented *harvesting* phase.
//!
//! This facade crate re-exports the full workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`textproc`] | `bingo-textproc` | HTML parsing, Porter stemming, tf·idf, feature spaces, MIME-type conversion |
//! | [`ml`] | `bingo-ml` | linear SVM, ξα estimator, MI feature selection, Naive Bayes, meta classifier, k-means |
//! | [`graph`] | `bingo-graph` | link graph, HITS with Bharat-Henzinger weighting |
//! | [`store`] | `bingo-store` | embedded crawl database: flat tables, bulk loader, snapshots |
//! | [`webworld`] | `bingo-webworld` | deterministic synthetic web (the paper's live-Web substitute) |
//! | [`crawler`] | `bingo-crawler` | focused crawler: frontier, focusing rules, tunnelling, dedup, DNS, hosts |
//! | [`dist`] | `bingo-dist` | distributed crawl: coordinator/worker sharding, leased work journal, multi-node snapshots |
//! | [`core`] | `bingo-core` | the BINGO! engine: topic tree, per-topic models, archetypes, phases |
//! | [`search`] | `bingo-search` | local search engine: inverted index, ranking, feedback, clustering |
//! | [`serve`] | `bingo-serve` | portal serving: snapshot-swap live index queries during the crawl, load generation |
//!
//! See `examples/quickstart.rs` for an end-to-end portal crawl and
//! `DESIGN.md`/`EXPERIMENTS.md` for the paper-experiment mapping.
#![forbid(unsafe_code)]

pub use bingo_core as core;
pub use bingo_crawler as crawler;
pub use bingo_dist as dist;
pub use bingo_graph as graph;
pub use bingo_ml as ml;
pub use bingo_search as search;
pub use bingo_serve as serve;
pub use bingo_store as store;
pub use bingo_textproc as textproc;
pub use bingo_webworld as webworld;

/// Most commonly used items in one import.
pub mod prelude {
    pub use bingo_core::{BingoEngine, EngineConfig, Phase, TopicId, TopicTree};
    pub use bingo_crawler::{CrawlConfig, CrawlStats, Crawler, FocusRule};
    pub use bingo_search::{LiveIndex, QueryOptions, RankingScheme, SearchEngine, TopicFilter};
    pub use bingo_serve::{PortalRequest, PortalResponse, PortalService};
    pub use bingo_store::DocumentStore;
    pub use bingo_textproc::{SparseVector, Vocabulary};
    pub use bingo_webworld::gen::WorldConfig;
    pub use bingo_webworld::World;
}
