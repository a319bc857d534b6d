//! The post-fetch core (Section 4.1): everything that happens to a
//! document after its bytes arrive, implemented once.
//!
//! ```text
//! fetch → content-convert → analyze → classify → bulk-load → settle → follow links
//! ```
//!
//! The paper's crawler threads all push documents through one path —
//! convert, analyze, classify, per-thread workspace, bulk loader — and
//! so do the three executors here. An executor is only its scheduler:
//! the discrete-event [`crate::Crawler`] (virtual-clock frontier,
//! politeness slots, breakers, retries), the real-thread
//! [`crate::threaded::run_pipeline`] (a flat work list drained by N
//! workers, no link following) and the distributed worker node (a
//! leased shard). Each owns one [`DocPipeline`] per worker and calls,
//! in order:
//!
//! * [`DocPipeline::run`] — MIME/size admission, response
//!   fingerprints, HTML conversion, analysis, classification, document
//!   and link rows, bulk-load. Scheduler policy enters through two
//!   callbacks: the response-fingerprint test (a plain [`crate::Dedup`]
//!   or one behind a mutex) and the judge. Its content stage,
//!   [`prepare_content`], is pure, so the discrete-event executor may run
//!   it ahead of the rest ([`crate::lookahead`]).
//! * [`DocPipeline::settle`] — the one mapping from a [`DocOutcome`] to
//!   [`CrawlStats`].
//! * [`plan_links`] / [`admit_link`] — the Section 3.3 focus decision
//!   and the per-link hygiene filter, pure functions of the
//!   configuration, the parent's queue entry and the judgment. Each
//!   child entry carries the parent's [`top_terms`], the neighbour
//!   features it is judged with (Section 3.4). What
//!   stays with the scheduler is only what needs its state: the host
//!   breaker, the duplicate filter and where the entry is pushed.
//!
//! Link rows are emitted for **every resolvable out-link of a stored
//! document** (order-independent), not just for links that survived the
//! frontier's enqueue filters. This makes the stored link graph a
//! property of the document set rather than of the crawl schedule, so
//! the executors agree on it; the HITS link analysis only gets a
//! denser, more faithful graph out of this.

use crate::frontier::QueueEntry;
use crate::telemetry::CrawlTelemetry;
use crate::types::{
    CrawlConfig, CrawlStats, CrawlStrategy, FocusRule, Judgment, PageContext, UrlRejection,
    TUNNEL_DECAY,
};
use bingo_obs::{Counter, Gauge, Histogram, Registry};
use bingo_store::{BulkLoader, BulkLoaderObs, DocumentRow, DocumentStore, LinkRow, StoreError};
use bingo_textproc::fxhash::{FxHashMap, FxHashSet};
use bingo_textproc::{
    analyze_html, AnalyzedDocument, AnalyzedLink, ContentRegistry, Interner, TermId,
    TextprocMetrics,
};
use bingo_webworld::fetch::FetchResponse;
use bingo_webworld::World;
use std::sync::Arc;

/// How many of a page's terms feed the neighbour-document feature space
/// of its successors (Section 3.4).
pub const NEIGHBOR_TERMS_KEPT: usize = 8;

/// A successfully fetched document entering the processing stages,
/// together with the crawl context the frontier policy attached to it.
#[derive(Debug, Clone)]
pub struct FetchedDoc {
    /// The simulated HTTP response.
    pub response: FetchResponse,
    /// Crawl depth the URL was fetched at.
    pub depth: u32,
    /// Topic of the enqueuing parent, if any.
    pub src_topic: Option<u32>,
    /// Anchor terms of the enqueuing link.
    pub anchor_terms: Vec<TermId>,
    /// Top terms of the enqueuing predecessor (neighbour feature space).
    pub neighbor_terms: Vec<TermId>,
    /// Timestamp recorded as `fetched_at`: virtual ms on the
    /// deterministic executor, 0 on the threaded one.
    pub fetched_at: u64,
}

/// What the pipeline did with one fetched document.
#[derive(Debug, Clone)]
pub enum DocOutcome {
    /// Dropped by the MIME-type/size filter.
    MimeFiltered,
    /// An IP+path or IP+size fingerprint matched a previous response.
    DuplicateContent,
    /// Content conversion failed; the payload bytes were wasted.
    Malformed {
        /// Payload bytes fetched for nothing.
        wasted_bytes: u64,
    },
    /// Analyzed, judged and stored (document row + link rows).
    Stored {
        /// Page id of the stored document.
        page_id: u64,
        /// The analyzed document (the policy layer feeds successors
        /// from it: top terms, link enqueueing).
        doc: AnalyzedDocument,
        /// The classifier's verdict.
        judgment: Judgment,
    },
    /// Analyzed and judged, but the id was already in the store (the
    /// same page re-fetched through another alias or redirect chain).
    AlreadyStored {
        /// Page id that collided.
        page_id: u64,
        /// The analyzed document (still useful to the policy layer).
        doc: AnalyzedDocument,
        /// The classifier's verdict (judged before the collision was
        /// known, exactly like the per-document executor).
        judgment: Judgment,
    },
}

impl DocOutcome {
    /// Why the document was not stored (the `StepOutcome::Skipped`
    /// label); `None` for [`DocOutcome::Stored`].
    pub fn skip_reason(&self) -> Option<&'static str> {
        match self {
            DocOutcome::MimeFiltered => Some("mime/size filter"),
            DocOutcome::DuplicateContent => Some("duplicate content"),
            DocOutcome::Malformed { .. } => Some("malformed payload"),
            DocOutcome::AlreadyStored { .. } => Some("already stored"),
            DocOutcome::Stored { .. } => None,
        }
    }
}

/// A thread-shareable batch classifier: the classify stage of the
/// real-thread executor. The BINGO! engine implements it with the
/// hierarchical SVM classifier (`bingo_core::TopicClassifier`).
pub trait BatchJudge: Sync {
    /// Judge a batch of analyzed documents with their crawl contexts.
    /// Must return exactly one judgment per document.
    fn judge_batch(&self, docs: &[AnalyzedDocument], ctxs: &[PageContext]) -> Vec<Judgment>;
}

impl<F> BatchJudge for F
where
    F: Fn(&AnalyzedDocument, &PageContext) -> Judgment + Sync,
{
    fn judge_batch(&self, docs: &[AnalyzedDocument], ctxs: &[PageContext]) -> Vec<Judgment> {
        docs.iter().zip(ctxs).map(|(d, c)| self(d, c)).collect()
    }
}

/// Per-stage pipeline metrics: document counts in and out of each
/// stage, batch sizes and queue depth. Cloning shares the underlying
/// atomics.
#[derive(Clone)]
pub struct PipelineMetrics {
    /// Documents entering the pipeline (successful fetches).
    pub fetched: Counter,
    /// Documents dropped by the MIME/size filter.
    pub mime_rejected: Counter,
    /// Documents dropped as response-fingerprint duplicates.
    pub duplicates: Counter,
    /// Documents converted to canonical HTML.
    pub converted: Counter,
    /// Documents whose conversion failed.
    pub malformed: Counter,
    /// Documents analyzed.
    pub analyzed: Counter,
    /// Documents classified.
    pub classified: Counter,
    /// Documents bulk-loaded into the store.
    pub loaded: Counter,
    /// Documents rejected at load time (id already stored).
    pub load_duplicates: Counter,
    /// Link rows emitted.
    pub link_rows: Counter,
    /// Batches processed.
    pub batches: Counter,
    /// Documents per batch.
    pub batch_docs: Arc<Histogram>,
    /// URLs waiting ahead of the pipeline (frontier or work list).
    pub queue_depth: Gauge,
}

impl PipelineMetrics {
    /// Register all pipeline metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        PipelineMetrics {
            fetched: registry.counter("pipeline.fetch.docs"),
            mime_rejected: registry.counter("pipeline.fetch.mime_rejected"),
            duplicates: registry.counter("pipeline.fetch.duplicates"),
            converted: registry.counter("pipeline.convert.docs"),
            malformed: registry.counter("pipeline.convert.malformed"),
            analyzed: registry.counter("pipeline.analyze.docs"),
            classified: registry.counter("pipeline.classify.docs"),
            loaded: registry.counter("pipeline.load.docs"),
            load_duplicates: registry.counter("pipeline.load.duplicates"),
            link_rows: registry.counter("pipeline.load.link_rows"),
            batches: registry.counter("pipeline.batches"),
            batch_docs: registry.histogram("pipeline.batch.docs"),
            queue_depth: registry.gauge("pipeline.queue.depth"),
        }
    }
}

/// The MIME-type/size admission filter (Section 4.2 "document type
/// management").
pub fn admit(registry: &ContentRegistry, response: &FetchResponse) -> bool {
    registry.can_handle(response.mime) && response.size <= response.mime.max_size() as u64
}

/// What the content stage made of an admitted response.
#[derive(Debug)]
pub enum Content {
    /// Conversion to canonical HTML failed.
    Malformed,
    /// Converted and analyzed.
    Analyzed(AnalyzedDocument),
}

/// The content stage of one admitted response: conversion to canonical
/// HTML, then analysis against `vocab`. Pure apart from interning: it
/// touches no counter, store or duplicate filter, so a lookahead worker
/// runs it ahead of the commit against a read-only dictionary view
/// ([`bingo_textproc::KnownTerms`]) and the commit runs it inline
/// against the real dictionary.
pub fn prepare_content<I: Interner + ?Sized>(
    registry: &ContentRegistry,
    response: &FetchResponse,
    vocab: &mut I,
) -> Content {
    match registry.to_html(response.mime, &response.payload) {
        Ok(html) => Content::Analyzed(analyze_html(&html, vocab)),
        Err(_) => Content::Malformed,
    }
}

/// The crawl context handed to the judge for one fetched document.
pub fn page_context(fetched: &FetchedDoc) -> PageContext {
    PageContext {
        page_id: fetched.response.page_id,
        url: fetched.response.url.clone(),
        depth: fetched.depth,
        src_topic: fetched.src_topic,
        anchor_terms: fetched.anchor_terms.clone(),
        neighbor_terms: fetched.neighbor_terms.clone(),
        fetched_at: fetched.fetched_at,
    }
}

/// The most significant terms of an analyzed document (by frequency,
/// ties by term id): what the neighbour feature space of its successors
/// sees.
pub fn top_terms(doc: &AnalyzedDocument) -> Vec<TermId> {
    let order = |a: &(TermId, u32), b: &(TermId, u32)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    let mut by_freq: Vec<(TermId, u32)> = doc.term_freqs.clone();
    // The order is total (ids are distinct): select the best few, then
    // sort only those.
    if by_freq.len() > NEIGHBOR_TERMS_KEPT {
        by_freq.select_nth_unstable_by(NEIGHBOR_TERMS_KEPT, order);
        by_freq.truncate(NEIGHBOR_TERMS_KEPT);
    }
    by_freq.sort_unstable_by(order);
    by_freq.into_iter().map(|(t, _)| t).collect()
}

/// Build the store row of one analyzed, judged document.
pub fn document_row(
    world: &World,
    fetched: &FetchedDoc,
    doc: &AnalyzedDocument,
    judgment: &Judgment,
) -> DocumentRow {
    DocumentRow {
        id: fetched.response.page_id,
        url: fetched.response.url.clone(),
        host: bingo_graph::LinkSource::host_of(world, fetched.response.page_id),
        mime: fetched.response.mime,
        depth: fetched.depth,
        title: doc.title.clone(),
        topic: judgment.topic,
        confidence: judgment.confidence,
        term_freqs: doc.term_freqs.iter().map(|&(t, f)| (t.0, f)).collect(),
        size: fetched.response.size as usize,
        fetched_at: fetched.fetched_at,
    }
}

/// Link rows of a stored document: every out-link that resolves to a
/// page of the world, in document order.
pub fn link_rows(world: &World, page_id: u64, doc: &AnalyzedDocument) -> Vec<LinkRow> {
    doc.links
        .iter()
        .filter_map(|link| {
            world.resolve_url(&link.href).map(|to| LinkRow {
                from: page_id,
                to,
                to_url: link.href.clone(),
            })
        })
        .collect()
}

/// One worker's post-fetch state: content registry, bulk-load
/// workspace (with its flush-error observer) and the metric handles the
/// stages report into. Every executor builds one per worker through
/// [`DocPipeline::new`] — the only place crawl-side `BulkLoader` values
/// are constructed. (Lookahead workers, which only run the content
/// stage, hold a `ContentRegistry` of their own.)
pub struct DocPipeline {
    registry: ContentRegistry,
    loader: BulkLoader,
    textproc: TextprocMetrics,
    metrics: PipelineMetrics,
    stored: Counter,
}

impl DocPipeline {
    /// A pipeline writing into `store` in workspaces of `batch_size`
    /// documents, reporting into `telemetry`'s registry.
    pub fn new(store: DocumentStore, batch_size: usize, telemetry: &CrawlTelemetry) -> Self {
        DocPipeline {
            registry: ContentRegistry::new(),
            loader: BulkLoader::with_batch_size(store, batch_size).with_observer(
                BulkLoaderObs::new(&telemetry.registry, telemetry.events.clone()),
            ),
            textproc: telemetry.textproc.clone(),
            metrics: telemetry.pipeline.clone(),
            stored: telemetry.stored.clone(),
        }
    }

    /// Push buffered rows to the store (also the segmented store's seal
    /// point). [`DocPipeline::run`] flushes after each stage that
    /// stages rows, so this only matters as the final seal at shutdown.
    pub fn flush(&mut self) {
        self.loader.flush();
    }

    /// Drop rows staged by a batch that died mid-stage (worker panic):
    /// they must not leak into the store when the batch is re-driven.
    pub fn discard(&mut self) {
        self.loader.discard_pending();
    }

    /// Drive one batch of fetched documents through convert → analyze →
    /// classify → bulk-load. Returns one [`DocOutcome`] per input
    /// document, in input order. Every row the batch produces is in the
    /// store when this returns.
    ///
    /// `mark_response` is the executor's response-fingerprint policy
    /// (stages 2+3 of [`crate::Dedup`]); it runs between the MIME
    /// filter and conversion. `judge` classifies the surviving
    /// documents in one call.
    pub fn run<I: Interner + ?Sized>(
        &mut self,
        world: &World,
        vocab: &mut I,
        batch: Vec<FetchedDoc>,
        mark_response: impl FnMut(&FetchResponse) -> bool,
        judge: impl FnOnce(&[AnalyzedDocument], &[PageContext]) -> Vec<Judgment>,
    ) -> Vec<DocOutcome> {
        let batch = batch.into_iter().map(|item| (item, None)).collect();
        self.commit(world, vocab, batch, mark_response, judge)
    }

    /// [`DocPipeline::run`] over documents whose content stage may have
    /// run ahead: an item paired with its [`Content`] skips conversion
    /// and analysis, and only its analysis counters are recorded — the
    /// document must be what [`prepare_content`] gives against `vocab`
    /// now. Items paired with `None` run the content stage here.
    pub(crate) fn commit<I: Interner + ?Sized>(
        &mut self,
        world: &World,
        vocab: &mut I,
        batch: Vec<(FetchedDoc, Option<Content>)>,
        mut mark_response: impl FnMut(&FetchResponse) -> bool,
        judge: impl FnOnce(&[AnalyzedDocument], &[PageContext]) -> Vec<Judgment>,
    ) -> Vec<DocOutcome> {
        let DocPipeline {
            registry,
            loader,
            textproc,
            metrics,
            ..
        } = self;
        metrics.batches.inc();
        metrics.batch_docs.observe(batch.len() as u64);
        metrics.fetched.add(batch.len() as u64);
        let mut outcomes: Vec<Option<DocOutcome>> = batch.iter().map(|_| None).collect();

        // Stage: admit (MIME/size), fingerprint, convert + analyze.
        let mut slots: Vec<usize> = Vec::with_capacity(batch.len());
        let mut fetched: Vec<FetchedDoc> = Vec::with_capacity(batch.len());
        let mut docs: Vec<AnalyzedDocument> = Vec::with_capacity(batch.len());
        for (i, (item, ready)) in batch.into_iter().enumerate() {
            if !admit(registry, &item.response) {
                metrics.mime_rejected.inc();
                outcomes[i] = Some(DocOutcome::MimeFiltered);
                continue;
            }
            if !mark_response(&item.response) {
                metrics.duplicates.inc();
                outcomes[i] = Some(DocOutcome::DuplicateContent);
                continue;
            }
            match ready.unwrap_or_else(|| prepare_content(registry, &item.response, vocab)) {
                Content::Analyzed(doc) => {
                    metrics.converted.inc();
                    textproc.record(&doc, vocab.term_count());
                    slots.push(i);
                    docs.push(doc);
                    fetched.push(item);
                }
                Content::Malformed => {
                    metrics.malformed.inc();
                    outcomes[i] = Some(DocOutcome::Malformed {
                        wasted_bytes: item.response.payload.len() as u64,
                    });
                }
            }
        }
        metrics.analyzed.add(docs.len() as u64);

        // Stage: classify.
        let ctxs: Vec<PageContext> = fetched.iter().map(page_context).collect();
        let judgments = judge(&docs, &ctxs);
        assert_eq!(
            judgments.len(),
            docs.len(),
            "judge must return one judgment per document"
        );
        metrics.classified.add(docs.len() as u64);

        // Stage: bulk-load. Documents flush in one batch; the store reports
        // id collisions back as errors, which decide which documents emit
        // link rows (a duplicate stores neither row nor links).
        for ((item, doc), judgment) in fetched.iter().zip(&docs).zip(&judgments) {
            loader.add_document(document_row(world, item, doc, judgment));
        }
        loader.flush();
        let mut dup_errors: FxHashMap<u64, usize> = FxHashMap::default();
        for err in loader.take_errors() {
            if let StoreError::DuplicateKey(id) = err {
                *dup_errors.entry(id).or_insert(0) += 1;
            }
        }
        // Within one batch the first occurrence of an id stores unless the
        // id was already in the store; every later occurrence is the
        // duplicate the errors describe.
        let mut occurrences: FxHashMap<u64, usize> = FxHashMap::default();
        for item in &fetched {
            *occurrences.entry(item.response.page_id).or_insert(0) += 1;
        }
        let mut first_seen: FxHashSet<u64> = FxHashSet::default();
        let mut links_emitted = 0u64;
        for ((slot, item), (doc, judgment)) in slots
            .iter()
            .zip(&fetched)
            .zip(docs.into_iter().zip(judgments))
        {
            let id = item.response.page_id;
            let stored = first_seen.insert(id)
                && dup_errors.get(&id).copied().unwrap_or(0) < occurrences[&id];
            if stored {
                for link in link_rows(world, id, &doc) {
                    links_emitted += 1;
                    loader.add_link(link);
                }
                metrics.loaded.inc();
                outcomes[*slot] = Some(DocOutcome::Stored {
                    page_id: id,
                    doc,
                    judgment,
                });
            } else {
                metrics.load_duplicates.inc();
                outcomes[*slot] = Some(DocOutcome::AlreadyStored {
                    page_id: id,
                    doc,
                    judgment,
                });
            }
        }
        loader.flush();
        metrics.link_rows.add(links_emitted);

        outcomes
            .into_iter()
            .map(|o| o.expect("every document has an outcome"))
            .collect()
    }

    /// Settle one outcome: fold it into the crawl counters
    /// (`mime_rejected`, `duplicates`, `wasted_bytes`, `stored_pages`,
    /// `positively_classified`, `extracted_links`, `crawl.stored`).
    /// Returns the newly stored page, whose links the scheduler may now
    /// follow.
    pub fn settle<'o>(
        &self,
        outcome: &'o DocOutcome,
        stats: &mut CrawlStats,
    ) -> Option<(u64, &'o AnalyzedDocument, &'o Judgment)> {
        match outcome {
            DocOutcome::MimeFiltered => stats.mime_rejected += 1,
            DocOutcome::DuplicateContent => stats.duplicates += 1,
            DocOutcome::Malformed { wasted_bytes } => {
                stats.mime_rejected += 1;
                stats.wasted_bytes += wasted_bytes;
            }
            DocOutcome::AlreadyStored { .. } => stats.duplicates += 1,
            DocOutcome::Stored {
                page_id,
                doc,
                judgment,
            } => {
                stats.stored_pages += 1;
                self.stored.inc();
                if judgment.topic.is_some() {
                    stats.positively_classified += 1;
                }
                stats.extracted_links += doc.links.len() as u64;
                return Some((*page_id, doc, judgment));
            }
        }
        None
    }
}

/// How the out-links of one judged page enter the frontier: the result
/// of the Section 3.3 focus decision, identical for every link of the
/// page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPlan {
    /// Depth the links are fetched at (parent + 1).
    pub depth: u32,
    /// Tunnelling steps behind the links (0 after an on-topic page).
    pub tunnel: u32,
    /// Topic the links are queued for.
    pub src_topic: Option<u32>,
    /// Queue priority of the links.
    pub priority: f32,
}

impl LinkPlan {
    /// The queue entry of `link`, found on stored page `src_page` whose
    /// [`top_terms`] are `terms`.
    pub fn entry(&self, link: &AnalyzedLink, src_page: u64, terms: &[TermId]) -> QueueEntry {
        QueueEntry {
            url: link.href.clone(),
            priority: self.priority,
            depth: self.depth,
            tunnel: self.tunnel,
            src_topic: self.src_topic,
            src_page,
            anchor_terms: link.anchor_terms.clone(),
            neighbor_terms: terms.to_vec(),
            redirects: 0,
            attempt: 0,
        }
    }
}

/// Decide how a page judged `judgment`, reached through `parent`,
/// propagates the crawl (Section 3.3). `None` when its links are not
/// followed: past the depth limit, or rejected with the tunnelling
/// budget used up.
pub fn plan_links(
    config: &CrawlConfig,
    parent: &QueueEntry,
    judgment: &Judgment,
) -> Option<LinkPlan> {
    let depth = parent.depth + 1;
    if config.max_depth > 0 && depth > config.max_depth {
        return None;
    }
    let on_topic = match (config.focus, judgment.topic) {
        // Sharp: the document must be classified into the same topic
        // it was queued for (seeds with src_topic None accept any
        // positive classification).
        (FocusRule::Sharp, Some(t)) => parent.src_topic.is_none() || parent.src_topic == Some(t),
        // Soft: any topic of interest counts.
        (FocusRule::Soft, Some(_)) => true,
        (_, None) => false,
    };
    let (tunnel, src_topic, base_priority) = if on_topic {
        (
            0,
            judgment.topic.or(parent.src_topic),
            judgment.confidence.max(0.0),
        )
    } else {
        // Tunnelling through a rejected (or off-topic) page.
        let tunnel = parent.tunnel + 1;
        if tunnel > config.max_tunnel {
            return None;
        }
        let inherited = if parent.priority.is_finite() && parent.priority < 1e12 {
            parent.priority
        } else {
            1.0
        };
        (
            tunnel,
            parent.src_topic,
            (inherited * TUNNEL_DECAY).max(0.001),
        )
    };
    // Depth-first learning gives deeper URLs higher priority;
    // best-first harvesting orders by confidence.
    let priority = match config.strategy {
        CrawlStrategy::DepthFirst => depth as f32 * 10.0 + base_priority,
        CrawlStrategy::BestFirst => base_priority,
    };
    Some(LinkPlan {
        depth,
        tunnel,
        src_topic,
        priority,
    })
}

/// The per-link hygiene filter at enqueue time: the link's hostname
/// when [`CrawlConfig::admit_url`] lets it through. Off-domain links
/// are expected, not a hygiene failure, so they are dropped uncounted;
/// every other rejection counts as `url_rejected`.
pub fn admit_link<'u>(
    config: &CrawlConfig,
    url: &'u str,
    stats: &mut CrawlStats,
) -> Option<&'u str> {
    match config.admit_url(url) {
        Ok(host) => Some(host),
        Err(UrlRejection::OutsideAllowed) => None,
        Err(_) => {
            stats.url_rejected += 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_store::DocumentStore;
    use bingo_textproc::Vocabulary;
    use bingo_webworld::gen::WorldConfig;
    use bingo_webworld::FetchOutcome;

    fn fetch_ok(world: &World, id: u64) -> Option<FetchedDoc> {
        match world.fetch(&world.url_of(id), 0) {
            FetchOutcome::Ok(response) => Some(FetchedDoc {
                response,
                depth: 1,
                src_topic: None,
                anchor_terms: Vec::new(),
                neighbor_terms: Vec::new(),
                fetched_at: 7,
            }),
            _ => None,
        }
    }

    #[test]
    fn settle_maps_each_outcome_to_its_exact_stats_delta() {
        let doc = bingo_textproc::analyze_html(
            r#"<p>alpha alpha beta</p><a href="http://h/x">x</a><a href="http://h/y">y</a>"#,
            &mut Vocabulary::new(),
        );
        let judged = |topic, fresh| {
            let (page_id, doc) = (9, doc.clone());
            let judgment = Judgment {
                topic,
                confidence: 0.5,
            };
            match fresh {
                true => DocOutcome::Stored {
                    page_id,
                    doc,
                    judgment,
                },
                false => DocOutcome::AlreadyStored {
                    page_id,
                    doc,
                    judgment,
                },
            }
        };
        // Columns: mime_rejected, duplicates, wasted_bytes, stored_pages,
        // positively_classified, extracted_links, crawl.stored.
        let cases = [
            (DocOutcome::MimeFiltered, [1, 0, 0, 0, 0, 0, 0]),
            (DocOutcome::DuplicateContent, [0, 1, 0, 0, 0, 0, 0]),
            (
                DocOutcome::Malformed { wasted_bytes: 77 },
                [1, 0, 77, 0, 0, 0, 0],
            ),
            (judged(Some(1), false), [0, 1, 0, 0, 0, 0, 0]),
            (judged(Some(1), true), [0, 0, 0, 1, 1, 2, 1]),
            (judged(None, true), [0, 0, 0, 1, 0, 2, 1]),
        ];
        for (outcome, want) in cases {
            let telemetry = CrawlTelemetry::default();
            let pipeline = DocPipeline::new(DocumentStore::new(), 1, &telemetry);
            let mut stats = CrawlStats::default();
            pipeline.settle(&outcome, &mut stats);
            // The whole struct is compared: no other counter may move.
            let want_stats = CrawlStats {
                mime_rejected: want[0],
                duplicates: want[1],
                wasted_bytes: want[2],
                stored_pages: want[3],
                positively_classified: want[4],
                extracted_links: want[5],
                ..CrawlStats::default()
            };
            assert_eq!(
                serde_json::to_string(&stats).unwrap(),
                serde_json::to_string(&want_stats).unwrap(),
                "{outcome:?}"
            );
            assert_eq!(telemetry.stored.get(), want[6], "{outcome:?}");
            assert_eq!(outcome.skip_reason().is_none(), want[3] == 1);
        }
    }

    #[test]
    fn batch_stores_documents_and_all_resolvable_links() {
        let world = WorldConfig::small_test(61).build();
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        let mut pipeline = DocPipeline::new(store.clone(), 4, &telemetry);
        let content = ContentRegistry::new();
        let mut vocab = Vocabulary::new();

        let batch: Vec<FetchedDoc> = (0..30u64).filter_map(|id| fetch_ok(&world, id)).collect();
        assert!(batch.len() >= 5, "world too hostile for the test");
        let n = batch.len();
        let expected_links: usize = batch
            .iter()
            .map(|f| {
                let html = content
                    .to_html(f.response.mime, &f.response.payload)
                    .unwrap();
                let doc = bingo_textproc::analyze_html(&html, &mut Vocabulary::new());
                link_rows(&world, f.response.page_id, &doc).len()
            })
            .sum();

        let outcomes = pipeline.run(
            &world,
            &mut vocab,
            batch,
            |_| true,
            |docs, ctxs| {
                docs.iter()
                    .zip(ctxs)
                    .map(|(_, c)| Judgment {
                        topic: Some(0),
                        confidence: c.depth as f32,
                    })
                    .collect()
            },
        );
        assert_eq!(outcomes.len(), n);
        let stored = outcomes
            .iter()
            .filter(|o| matches!(o, DocOutcome::Stored { .. }))
            .count();
        assert_eq!(stored, n, "healthy fetches all store");
        assert_eq!(store.document_count(), n);
        assert_eq!(store.link_count(), expected_links);
        store.for_each_document(|row| {
            assert_eq!(row.depth, 1);
            assert_eq!(row.fetched_at, 7);
            assert_eq!(row.topic, Some(0));
        });
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counters["pipeline.load.docs"], n as u64);
        assert_eq!(snap.counters["pipeline.batches"], 1);
        assert_eq!(
            snap.counters["pipeline.load.link_rows"],
            expected_links as u64
        );
    }

    #[test]
    fn batch_outcomes_keep_input_order_and_classify_duplicates() {
        let world = WorldConfig::small_test(62).build();
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        let mut pipeline = DocPipeline::new(store.clone(), 256, &telemetry);
        let mut vocab = Vocabulary::new();

        let a = fetch_ok(&world, 1).unwrap();
        let b = fetch_ok(&world, 2).unwrap();
        // The same page twice in one batch: the second occurrence must
        // come back `AlreadyStored`, not `Stored`.
        let batch = vec![a.clone(), b, a];
        let outcomes = pipeline.run(
            &world,
            &mut vocab,
            batch,
            |_| true,
            |docs, ctxs| {
                docs.iter()
                    .zip(ctxs)
                    .map(|_| Judgment {
                        topic: None,
                        confidence: -0.5,
                    })
                    .collect()
            },
        );
        assert!(matches!(
            &outcomes[0],
            DocOutcome::Stored { page_id: 1, .. }
        ));
        assert!(matches!(
            &outcomes[1],
            DocOutcome::Stored { page_id: 2, .. }
        ));
        assert!(
            matches!(&outcomes[2], DocOutcome::AlreadyStored { page_id: 1, judgment, .. }
                if judgment.confidence == -0.5)
        );
        assert_eq!(store.document_count(), 2);
        assert_eq!(
            telemetry.registry.snapshot().counters["pipeline.load.duplicates"],
            1
        );
    }

    #[test]
    fn fingerprint_duplicates_skip_conversion() {
        let world = WorldConfig::small_test(63).build();
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        let mut pipeline = DocPipeline::new(store.clone(), 256, &telemetry);
        let mut vocab = Vocabulary::new();

        let batch = vec![fetch_ok(&world, 1).unwrap()];
        let outcomes = pipeline.run(
            &world,
            &mut vocab,
            batch,
            |_| false, // every response is a known fingerprint
            |docs, _| {
                assert!(docs.is_empty(), "nothing reaches the judge");
                Vec::new()
            },
        );
        assert!(matches!(outcomes[0], DocOutcome::DuplicateContent));
        assert_eq!(store.document_count(), 0);
        assert_eq!(
            telemetry.registry.snapshot().counters["pipeline.fetch.duplicates"],
            1
        );
    }
}
