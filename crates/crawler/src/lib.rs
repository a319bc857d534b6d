//! The focused crawler (Sections 2.1, 3.3 and 4.2).
//!
//! The crawler processes a prioritized URL frontier with simulated
//! multi-threading over the synthetic web:
//!
//! * per-topic **incoming/outgoing queues** with size limits, ordered by
//!   SVM confidence ([`frontier`]),
//! * **focusing rules**: sharp focus (learning phase) vs. soft focus
//!   (harvesting phase), with depth-limited **tunnelling** whose priority
//!   decays exponentially per step ([`types::FocusRule`]),
//! * **duplicate elimination** by URL hash, IP+path and IP+filesize
//!   fingerprints ([`dedup`]),
//! * an **asynchronous-style caching DNS resolver** with LRU replacement,
//!   TTL invalidation and alternative-server retry ([`dns`]),
//! * **host management**: per-host circuit breakers (closed → open →
//!   half-open with probe fetches) replacing the paper's one-way
//!   good/slow/bad escalation, plus locked domains ([`hosts`]),
//! * **adaptive retry**: transient failures (timeouts, 5xx bursts,
//!   truncated bodies, DNS flaps) park the URL for an exponential
//!   backoff with deterministic jitter on the virtual clock,
//! * **checkpoint/resume**: the full mid-crawl state — frontier, parked
//!   retries, breaker health, duplicate fingerprints, thread timelines —
//!   serializes to a session directory ([`checkpoint`]); two resumes from
//!   one checkpoint are byte-identical, but not yet equal to the crawl that
//!   was never interrupted, because the DNS resolver cache is not part of
//!   the checkpoint and a resumed crawl pays its lookups again,
//! * URL hygiene: hostname ≤ 255 chars, URL ≤ 1000 chars, redirect chains
//!   bounded, MIME-type and size limits per document class,
//! * one **post-fetch core** — content-convert → analyze → classify →
//!   bulk-load → outcome accounting → focus decision — that every
//!   executor schedules documents into ([`pipeline`]),
//! * a **discrete-event executor** modelling the testbed's 15 crawler
//!   threads, two connections per host, over virtual time
//!   ([`types::SIMULATED_THREADS`], [`types::PER_HOST_CONNECTIONS`]),
//!   deterministic and snapshot-friendly ([`Crawler`]),
//!   which prepares the pages it will pop next on spare cores without
//!   changing a byte of its output ([`lookahead`]), and a real-thread
//!   executor that pulls batches through the same pipeline for raw
//!   throughput measurements ([`threaded`]).
//!
//! Classification is a caller's closure: [`Crawler::crawl_ahead`] judges
//! each page with an [`Assess`] half, which lookahead workers may run
//! ahead of the pop, and a commit closure applied in pop order;
//! [`Crawler::step`] takes one
//! `FnMut(&AnalyzedDocument, &PageContext) -> Judgment`, a split judge
//! whose assessment is empty. The BINGO! engine (crate `bingo-core`) judges
//! with its hierarchical SVM classifier and drives phase switches and
//! retraining between crawl steps.
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod dedup;
pub mod dns;
pub mod frontier;
pub mod hosts;
pub mod lookahead;
pub mod pipeline;
pub mod telemetry;
pub mod threaded;
pub mod types;

mod step;

pub use checkpoint::{CheckpointError, CrawlCheckpoint};
pub use dedup::Dedup;
pub use dns::CachingResolver;
pub use frontier::{Frontier, QueueEntry, SpillConfig};
pub use hosts::{BreakerState, FailureOutcome, HostDecision, HostHealth, HostManager, HostState};
pub use pipeline::{BatchJudge, DocOutcome, DocPipeline, FetchedDoc, PipelineMetrics};
pub use step::{Crawler, StepOutcome};
pub use telemetry::CrawlTelemetry;
pub use threaded::{run_pipeline, PipelineOptions, ThroughputReport};
pub use types::{
    CrawlConfig, CrawlStats, CrawlStrategy, FocusRule, Judgment, PageContext, UrlRejection,
};

use bingo_textproc::{AnalyzedDocument, TermId};

/// The side-effect-free half of a crawl-time judge, for
/// [`Crawler::crawl_ahead`]: what a page's judgment depends on besides
/// the crawl's mutable state. Lookahead workers run it before the page
/// is popped; the commit half (a closure passed beside it) then applies
/// the assessment — corpus statistics, candidate pools, telemetry — in
/// pop order on the crawl thread.
pub trait Assess: Sync {
    /// What the assessment hands to the commit half.
    type Assessment: Send;
    /// Assess `doc`, reached through a link with `anchor_terms` from a
    /// page whose most significant terms are `neighbor_terms`. The
    /// result may depend on nothing else.
    fn assess(
        &self,
        doc: &AnalyzedDocument,
        anchor_terms: &[TermId],
        neighbor_terms: &[TermId],
    ) -> Self::Assessment;
}
