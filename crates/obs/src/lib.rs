//! Observability substrate for the BINGO! workspace.
//!
//! The paper tracks crawl quality through quantities it watches
//! constantly — harvest ratio, SVM confidence distributions, frontier
//! depth, per-host fetch health — but computes them ad hoc. Industrial
//! crawlers (BUbiNG and friends) treat always-on metrics as a
//! first-class subsystem. This crate is that subsystem:
//!
//! * a lock-cheap [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   log-scale [`Histogram`]s — handles are `Arc`-backed atomics, so the
//!   hot path pays one relaxed atomic op per observation and never
//!   touches the registry lock after creation,
//! * deterministic [`MetricsSnapshot`]s: every metric is derived from
//!   the *virtual* clock or from document contents, so the snapshots of
//!   two same-seed runs serialize to identical bytes,
//! * a structured [`EventLog`] keyed to the webworld virtual clock,
//!   serializing to JSONL with sorted fields so same-seed runs emit
//!   byte-identical telemetry.
//!
//! # Determinism rules
//!
//! 1. A metric is observed from virtual time, document counts, or any
//!    other seed-derived quantity. Wall time is never a metric: the
//!    standalone `benchmark/` crate measures it from outside, and
//!    `ci.sh` rejects a wall clock in product telemetry.
//! 2. Events carry only seed-derived fields and are emitted from the
//!    single-threaded discrete-event crawl loop, so sequence numbers are
//!    reproducible.
//!
//! Snapshots serialize through `BTreeMap`s, so JSON key order is the
//! sorted metric-name order regardless of registration order.
#![forbid(unsafe_code)]

pub mod events;
pub mod histogram;
pub mod registry;

pub use events::{Event, EventLog};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry};
