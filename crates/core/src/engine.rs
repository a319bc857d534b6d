//! The BINGO! engine: orchestrates classification, archetype selection,
//! retraining, and the learning → harvesting phase transition
//! (Sections 2.6, 3.1-3.3).

use crate::model::{features_from_term_freqs, HitBuffers, ModelConfig, TopicModel};
use crate::telemetry::EngineTelemetry;
use crate::topic::{TopicId, TopicTree, TrainingDoc};
use bingo_crawler::pipeline::{prepare_content, Content};
use bingo_crawler::{Assess, Crawler, Judgment, PageContext, StepOutcome};
use bingo_graph::{expand_base_set, Hits, LinkSource};
use bingo_ml::meta::MetaPolicy;
use bingo_obs::Event;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::tfidf::{CorpusStats, TfIdfWeighter};
use bingo_textproc::vocab::TermId;
use bingo_textproc::{
    analyze_html, AnalyzedDocument, DocWeights, DocumentFeatures, FeatureParts, PairCounter,
    Vocabulary,
};
use bingo_webworld::{FetchOutcome, World};
use std::cell::RefCell;
use std::sync::Arc;

/// Top authorities considered for archetype promotion (N_auth,
/// Section 2.5).
pub const N_AUTH: usize = 10;
/// Top-confidence documents considered for promotion (N_conf,
/// Section 3.2).
pub const N_CONF: usize = 10;
/// Archetypes a topic needs before harvesting may start, and the most
/// one retraining promotes per topic: min{N_auth, N_conf} (Section 2.6).
pub(crate) const ARCHETYPES_PER_ROUND: usize = if N_AUTH < N_CONF { N_AUTH } else { N_CONF };
/// Candidate pool kept per topic between retrainings.
pub const CANDIDATE_POOL: usize = 200;
/// Top hubs whose outgoing links are boosted after each retraining
/// (Section 2.5).
pub const HUB_BOOST: usize = 5;

/// Engine-level configuration (defaults follow Section 5.1).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct EngineConfig {
    /// Per-topic model training parameters.
    pub model: ModelConfig,
    /// Enforce the mean-training-confidence threshold on archetypes
    /// (Section 3.2; switch off to reproduce the topic-drift ablation).
    pub archetype_threshold: bool,
    /// Predecessors admitted per base-set page in HITS expansion.
    pub max_predecessors: usize,
    /// Base-set size cap for the per-topic link analysis.
    pub max_base_set: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            model: ModelConfig::default(),
            archetype_threshold: true,
            max_predecessors: 10,
            max_base_set: 1000,
        }
    }
}

/// Crawl phase (Section 2.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Calibrating precision: sharp focus, depth-first, archetype hunt.
    Learning,
    /// Maximizing recall: soft focus, best-first.
    Harvesting,
}

impl Phase {
    /// The meta decision function of the phase (Section 3.5): unanimous
    /// while learning, for precision; ξα-weighted while harvesting.
    pub fn meta_policy(self) -> MetaPolicy {
        match self {
            Phase::Learning => MetaPolicy::Unanimous,
            Phase::Harvesting => MetaPolicy::WeightedAverage,
        }
    }
}

/// Errors surfaced by engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The URL could not be fetched from the simulated web.
    Fetch(String),
    /// The payload could not be converted/analyzed.
    Content(String),
    /// Training prerequisites missing (no positives/negatives).
    Training(&'static str),
    /// Engine snapshot (de)serialization failed.
    Persist(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Fetch(u) => write!(f, "cannot fetch {u}"),
            EngineError::Content(u) => write!(f, "cannot analyze {u}"),
            EngineError::Training(m) => write!(f, "training failed: {m}"),
            EngineError::Persist(m) => write!(f, "persistence error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// An automatically classified document remembered as a potential
/// archetype.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Page id.
    pub page_id: u64,
    /// URL.
    pub url: String,
    /// Classification confidence at crawl time.
    pub confidence: f32,
    /// Full feature ingredients captured at crawl time.
    pub features: DocumentFeatures,
}

/// Summary of one retraining round.
#[derive(Debug, Clone, Default)]
pub struct RetrainReport {
    /// Archetypes promoted per topic.
    pub promoted: Vec<(TopicId, usize)>,
    /// Hub URLs boosted into the frontier.
    pub hubs_boosted: usize,
}

/// The link analysis of a topic's last retraining, kept for as long as
/// its inputs repeat: the world is immutable, so an equal base set under
/// equal parameters expands to the same nodes and scores.
struct LinkAnalysis {
    world: Arc<World>,
    base: Vec<u64>,
    /// The `max_predecessors` it was computed with.
    max_predecessors: usize,
    authorities: Vec<(u64, f64)>,
    hubs: Vec<(u64, f64)>,
}

/// The engine.
pub struct BingoEngine {
    /// The user's topic tree with training data.
    pub tree: TopicTree,
    /// Shared term dictionary.
    pub vocab: Vocabulary,
    /// Engine configuration.
    pub config: EngineConfig,
    /// The live corpus statistics: one df table and the counts of the
    /// pages judged since the last successful [`train`](Self::train),
    /// which folds them into the table in place. Before the first round
    /// nothing else holds the table and pages count straight into it.
    corpus: CorpusStats,
    /// The corpus as frozen by the last successful `train`: a handle on
    /// `corpus`'s table, the one weighter every space of every model in
    /// `models` holds a handle to, and the one every page is weighed
    /// with. Before the first round, the empty corpus's.
    frozen: TfIdfWeighter,
    models: FxHashMap<u32, TopicModel>,
    phase: Phase,
    candidates: FxHashMap<u32, Vec<Candidate>>,
    /// Per topic, what its last link analysis read and found.
    link_analysis: FxHashMap<u32, LinkAnalysis>,
    obs: EngineTelemetry,
}

impl BingoEngine {
    /// New engine with an empty topic tree.
    pub fn new(config: EngineConfig) -> Self {
        BingoEngine {
            tree: TopicTree::new(),
            vocab: Vocabulary::new(),
            config,
            corpus: CorpusStats::new(),
            frozen: TfIdfWeighter::default(),
            models: FxHashMap::default(),
            phase: Phase::Learning,
            candidates: FxHashMap::default(),
            link_analysis: FxHashMap::default(),
            obs: EngineTelemetry::default(),
        }
    }

    /// Route this engine's metrics and events into a shared telemetry
    /// namespace.
    pub fn set_telemetry(&mut self, obs: EngineTelemetry) {
        self.obs = obs;
        self.gauge_corpus();
    }

    /// The engine's metric handles and event log.
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.obs
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The trained model of a topic, when available.
    pub fn model(&self, topic: TopicId) -> Option<&TopicModel> {
        self.models.get(&topic.0)
    }

    /// The engine's live corpus statistics: the frozen table plus the
    /// counts judged since the last [`train`](Self::train).
    pub fn corpus(&self) -> &CorpusStats {
        &self.corpus
    }

    /// Add a topic under `parent`.
    pub fn add_topic(&mut self, parent: TopicId, name: &str) -> TopicId {
        self.tree.add_topic(parent, name)
    }

    /// Fetch a URL from the simulated web and produce its features;
    /// updates the corpus statistics.
    pub fn analyze_url(
        &mut self,
        world: &World,
        url: &str,
    ) -> Result<(u64, String, DocumentFeatures), EngineError> {
        // A few attempts tolerate flaky hosts.
        let response = (0..4)
            .find_map(|attempt| match world.fetch(url, attempt) {
                FetchOutcome::Ok(r) => Some(r),
                _ => None,
            })
            .ok_or_else(|| EngineError::Fetch(url.to_string()))?;
        let Content::Analyzed(doc) = prepare_content(&response, &mut self.vocab) else {
            return Err(EngineError::Content(url.to_string()));
        };
        let features = self.record_analysis(&doc);
        Ok((response.page_id, doc.title, features))
    }

    /// Analyze a raw HTML string into features (virtual training
    /// documents, e.g. a query turned into a document for expert search).
    pub fn analyze_virtual(&mut self, html: &str) -> DocumentFeatures {
        let doc = analyze_html(html, &mut self.vocab);
        self.record_analysis(&doc)
    }

    /// Roll an analyzed document into the text-processing counters and
    /// the corpus statistics, and return its features.
    fn record_analysis(&mut self, doc: &AnalyzedDocument) -> DocumentFeatures {
        self.obs.textproc.record(doc, self.vocab.len());
        let features = DocumentFeatures::from_document(doc);
        self.corpus.add_document(features.distinct_features());
        features
    }

    /// Add an intellectually classified training document for `topic` by
    /// URL (bookmark-style seeding).
    pub fn add_training_url(
        &mut self,
        world: &World,
        topic: TopicId,
        url: &str,
    ) -> Result<(), EngineError> {
        let (page_id, _title, features) = self.analyze_url(world, url)?;
        self.tree.node_mut(topic).training.push(TrainingDoc {
            page_id,
            url: url.to_string(),
            features,
            archetype: false,
        });
        Ok(())
    }

    /// Add a virtual training document (not backed by a page).
    pub fn add_training_virtual(&mut self, topic: TopicId, html: &str) {
        let features = self.analyze_virtual(html);
        self.tree.node_mut(topic).training.push(TrainingDoc {
            page_id: 0,
            url: String::new(),
            features,
            archetype: false,
        });
    }

    /// Populate the virtual OTHERS class with a far-away document
    /// (Section 3.1's systematic negative examples).
    pub fn add_others_url(&mut self, world: &World, url: &str) -> Result<(), EngineError> {
        let (page_id, _title, features) = self.analyze_url(world, url)?;
        self.tree.others.push(TrainingDoc {
            page_id,
            url: url.to_string(),
            features,
            archetype: false,
        });
        Ok(())
    }

    /// (Re)train all topic classifiers: for each topic, positives are its
    /// subtree's training docs; negatives are the competing siblings'
    /// docs plus the OTHERS class. The corpus statistics are frozen once
    /// for the whole round: the previous round's handles on the df table
    /// are released, the counts judged since are folded into it in place,
    /// and the table is shared with the new models. A round that fails
    /// leaves counts, models and judgments as they were.
    pub fn train(&mut self) -> Result<(), EngineError> {
        let mut sets = Vec::new();
        for id in self.tree.topic_ids() {
            let positives: Vec<&DocumentFeatures> = self
                .tree
                .subtree_training(id)
                .into_iter()
                .map(|d| &d.features)
                .collect();
            let mut negatives: Vec<&DocumentFeatures> = Vec::new();
            for sib in self.tree.siblings(id) {
                negatives.extend(
                    self.tree
                        .subtree_training(sib)
                        .into_iter()
                        .map(|d| &d.features),
                );
            }
            negatives.extend(self.tree.others.iter().map(|d| &d.features));
            if positives.is_empty() {
                continue;
            }
            if negatives.is_empty() {
                return Err(EngineError::Training(
                    "no negative examples: populate OTHERS or add sibling topics",
                ));
            }
            sets.push((id, positives, negatives));
        }
        // Release every handle on the table so the fold is in place.
        // A `frozen` that reads another table (the empty corpus's before
        // the first round, or the one the pending counts outgrew) is
        // kept: a failed round cannot rebuild it by undoing the fold.
        let previous = std::mem::take(&mut self.frozen);
        for model in self.models.values_mut() {
            model.set_weighter(&self.frozen);
        }
        let kept = (previous.stats().table_ptr() != self.corpus.table_ptr()).then_some(previous);
        let folded = self.corpus.fold();
        let frozen = self.corpus.weighter();
        let mut new_models = FxHashMap::default();
        for (id, positives, negatives) in sets {
            if let Some(model) =
                TopicModel::train(&positives, &negatives, &frozen, &self.config.model)
            {
                new_models.insert(id.0, model);
            }
        }
        if new_models.is_empty() {
            drop(frozen);
            let restored = self.corpus.unfold(folded);
            self.frozen = kept.unwrap_or(restored);
            for model in self.models.values_mut() {
                model.set_weighter(&self.frozen);
            }
            self.gauge_corpus();
            return Err(EngineError::Training("no topic could be trained"));
        }
        self.obs.train_rounds.inc();
        self.obs.train_models.set(new_models.len() as i64);
        let features: usize = new_models
            .values()
            .map(|m| m.spaces.iter().map(|s| s.selector.len()).sum::<usize>())
            .sum();
        self.obs.train_features.set(features as i64);
        self.frozen = frozen;
        self.models = new_models;
        self.gauge_corpus();
        Ok(())
    }

    /// Publish the corpus statistics' resident bytes.
    fn gauge_corpus(&self) {
        let bytes = self.corpus.resident_bytes();
        self.obs
            .corpus_bytes
            .set(bytes.try_into().unwrap_or(i64::MAX));
    }

    /// Classify a document top-down through the topic tree
    /// (Section 2.4). Returns the deepest accepted topic and the
    /// confidence of the final decision.
    pub fn classify(&self, features: &DocumentFeatures) -> Judgment {
        self.batch_classifier().classify(features)
    }

    /// A read-only, `Sync` classification handle over the trained
    /// models, using the meta policy of the current phase. Worker
    /// threads of the batch document pipeline share one of these to
    /// classify concurrently while the engine itself stays untouched.
    pub fn batch_classifier(&self) -> TopicClassifier<'_> {
        TopicClassifier {
            tree: &self.tree,
            models: &self.models,
            weighter: &self.frozen,
            obs: &self.obs,
            policy: self.phase.meta_policy(),
        }
    }

    /// Mean training confidence of a topic (the archetype threshold).
    pub fn mean_training_confidence(&self, topic: TopicId) -> f32 {
        self.models
            .get(&topic.0)
            .map(|m| m.mean_training_confidence)
            .unwrap_or(0.0)
    }

    /// Run the crawler until `deadline_ms` (virtual), retraining every
    /// `retrain_every` stored-and-positively-classified documents when
    /// `retrain_every > 0`. Returns documents stored in this slice.
    ///
    /// Every core but one prepares the pages the crawl is about to pop
    /// ([`Crawler::crawl_ahead`]); the crawl is the one
    /// [`judge_step`](Self::judge_step) makes, step for step.
    pub fn crawl_until(
        &mut self,
        crawler: &mut Crawler,
        deadline_ms: u64,
        retrain_every: u64,
    ) -> u64 {
        let workers = std::thread::available_parallelism().map_or(0, |n| n.get() - 1);
        self.crawl_until_with_workers(crawler, deadline_ms, retrain_every, workers)
    }

    /// [`crawl_until`](Self::crawl_until) with `workers` lookahead
    /// threads instead of one per spare core; the equivalence tests pin
    /// that the count changes nothing but speed.
    #[doc(hidden)]
    pub fn crawl_until_with_workers(
        &mut self,
        crawler: &mut Crawler,
        deadline_ms: u64,
        retrain_every: u64,
        workers: usize,
    ) -> u64 {
        let mut stored = 0u64;
        let mut classified_since_retrain = 0u64;
        // One epoch per model: the crawl runs ahead until the next
        // retraining is due.
        while crawler.clock_ms() < deadline_ms {
            let mut frontier_empty = false;
            let (assess, mut ledger, vocab) = self.judge_halves();
            crawler.crawl_ahead(
                deadline_ms,
                &assess,
                &mut |_, ctx, assessed| ledger.record(ctx, assessed),
                vocab,
                workers,
                &mut |outcome| {
                    match outcome {
                        StepOutcome::Stored { judgment, .. } => {
                            stored += 1;
                            classified_since_retrain += u64::from(judgment.topic.is_some());
                        }
                        StepOutcome::Skipped(_) => {}
                        StepOutcome::FrontierEmpty => frontier_empty = true,
                    }
                    retrain_every > 0 && classified_since_retrain >= retrain_every
                },
            );
            if frontier_empty || retrain_every == 0 || classified_since_retrain < retrain_every {
                break;
            }
            classified_since_retrain = 0;
            let _ = self.retrain(crawler);
        }
        self.gauge_corpus();
        stored
    }

    /// One crawl step with this engine as the judge.
    pub fn judge_step(&mut self, crawler: &mut Crawler) -> StepOutcome {
        let (assess, mut ledger, vocab) = self.judge_halves();
        let mut judge = |doc: &AnalyzedDocument, ctx: &PageContext| {
            let assessed = assess.assess(doc, &ctx.anchor_terms, &ctx.neighbor_terms);
            ledger.record(ctx, assessed)
        };
        crawler.step(&mut judge, vocab)
    }

    /// The crawl-time judge in its two halves — the classifier, and the
    /// ledger of corpus statistics and archetype candidates — beside the
    /// dictionary the crawl interns into.
    fn judge_halves(&mut self) -> (TopicClassifier<'_>, Ledger<'_>, &mut Vocabulary) {
        let BingoEngine {
            tree,
            vocab,
            corpus,
            frozen,
            models,
            phase,
            candidates,
            obs,
            ..
        } = self;
        let assess = TopicClassifier {
            tree,
            models,
            weighter: frozen,
            obs,
            policy: phase.meta_policy(),
        };
        let ledger = Ledger {
            corpus,
            candidates,
            obs,
        };
        (assess, ledger, vocab)
    }

    /// Retraining round (Sections 2.5, 3.2): promote archetypes from top
    /// authorities and top-confidence documents, retrain all classifiers,
    /// and boost the best hubs' links in the frontier.
    pub fn retrain(&mut self, crawler: &mut Crawler) -> RetrainReport {
        let mut report = RetrainReport::default();
        let leaves = self.tree.leaves();
        for topic in leaves {
            let t = topic.0;
            // --- Link analysis over the topic's crawled documents.
            let mut base = crawler.store().topic_documents(t);
            base.truncate(self.config.max_base_set);
            let mut hub_candidates: Vec<(u64, f64)> = Vec::new();
            let mut authority_candidates: Vec<(u64, f64)> = Vec::new();
            if !base.is_empty() {
                // Once a topic holds `max_base_set` documents the base
                // set — insertion order, truncated — repeats from one
                // retraining to the next.
                let world = crawler.world();
                let max_predecessors = self.config.max_predecessors;
                let known = self.link_analysis.get(&t).filter(|known| {
                    Arc::ptr_eq(&known.world, world)
                        && known.max_predecessors == max_predecessors
                        && known.base == base
                });
                if known.is_none() {
                    let nodes = expand_base_set(world.as_ref(), &base, max_predecessors);
                    let hits = Hits.run(world.as_ref(), &nodes);
                    self.link_analysis.insert(
                        t,
                        LinkAnalysis {
                            world: Arc::clone(world),
                            base,
                            max_predecessors,
                            authorities: hits.top_authorities(N_AUTH),
                            hubs: hits.top_hubs(HUB_BOOST),
                        },
                    );
                }
                let analysis = &self.link_analysis[&t];
                authority_candidates = analysis.authorities.clone();
                hub_candidates = analysis.hubs.clone();
            }

            // --- Candidate set: top authorities ∪ top-confidence docs.
            // The pool is ranked by reference; only the survivors are
            // cloned.
            let mut pool: Vec<&Candidate> = self.candidates(topic).iter().collect();
            pool.sort_by(|a, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            pool.truncate(N_CONF);
            let mut union: FxHashMap<u64, Candidate> =
                pool.into_iter().map(|c| (c.page_id, c.clone())).collect();
            for (page, _score) in &authority_candidates {
                if union.contains_key(page) {
                    continue;
                }
                // Rebuild features from the stored row when the candidate
                // pool does not hold this authority.
                if let Some(row) = crawler.store().document(*page) {
                    if row.topic != Some(t) {
                        continue;
                    }
                    let features = features_from_term_freqs(&row.term_freqs);
                    let confidence = self
                        .models
                        .get(&t)
                        .map(|m| m.confidence(&features, MetaPolicy::WeightedAverage))
                        .unwrap_or(0.0);
                    union.insert(
                        *page,
                        Candidate {
                            page_id: *page,
                            url: row.url,
                            confidence,
                            features,
                        },
                    );
                }
            }

            // --- Threshold and promotion (Section 3.2).
            let threshold = if self.config.archetype_threshold {
                self.mean_training_confidence(topic)
            } else {
                f32::MIN
            };
            let existing: std::collections::HashSet<u64> = self
                .tree
                .node(topic)
                .training
                .iter()
                .map(|d| d.page_id)
                .collect();
            let mut ordered: Vec<Candidate> = union.into_values().collect();
            ordered.sort_by(|a, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut promoted = 0usize;
            for cand in ordered {
                if promoted >= ARCHETYPES_PER_ROUND {
                    break;
                }
                if cand.confidence <= threshold || existing.contains(&cand.page_id) {
                    continue;
                }
                self.tree.node_mut(topic).training.push(TrainingDoc {
                    page_id: cand.page_id,
                    url: cand.url,
                    features: cand.features,
                    archetype: true,
                });
                promoted += 1;
            }
            if promoted > 0 {
                report.promoted.push((topic, promoted));
            }

            // --- Resume from the best hubs (Section 2.5): their links go
            // to the high-priority end of the crawl queue.
            let world = crawler.world().clone();
            for (hub, score) in hub_candidates {
                for succ in world.successors(hub) {
                    let url = world.url_of(succ);
                    crawler.boost_url(&url, Some(t), 10.0 + score as f32);
                    report.hubs_boosted += 1;
                }
            }
        }
        // Retrain with the extended basis (feature selection reruns
        // inside model training).
        let _ = self.train();
        self.obs.retrain_rounds.inc();
        let promoted_total: usize = report.promoted.iter().map(|&(_, n)| n).sum();
        self.obs.promoted.add(promoted_total as u64);
        self.obs.hubs_boosted.add(report.hubs_boosted as u64);
        self.obs.events.emit(
            Event::at(crawler.clock_ms(), "engine.retrain")
                .with("hubs_boosted", report.hubs_boosted)
                .with("promoted", promoted_total),
        );
        report
    }

    /// Manually promote a crawled document to training data — the user
    /// feedback step between learning and harvesting (Section 2.6: "the
    /// user can intellectually identify archetypes among the documents
    /// found so far"). When `trimmed_html` is given, the user has edited
    /// the page to remove irrelevant, diluting parts (Section 2.6's
    /// page-trimming), and the trimmed text is analyzed instead of the
    /// stored features.
    pub fn promote_manual_archetype(
        &mut self,
        store: &bingo_store::DocumentStore,
        topic: TopicId,
        page_id: u64,
        trimmed_html: Option<&str>,
    ) -> Result<(), EngineError> {
        let row = store
            .document(page_id)
            .ok_or(EngineError::Training("document not in the crawl database"))?;
        if self
            .tree
            .node(topic)
            .training
            .iter()
            .any(|d| d.page_id == page_id)
        {
            return Ok(()); // already training data
        }
        let features = match trimmed_html {
            Some(html) => self.analyze_virtual(html),
            None => features_from_term_freqs(&row.term_freqs),
        };
        self.tree.node_mut(topic).training.push(TrainingDoc {
            page_id,
            url: row.url,
            features,
            archetype: true,
        });
        Ok(())
    }

    /// Number of archetypes promoted so far for a topic.
    pub fn archetype_count(&self, topic: TopicId) -> usize {
        self.tree
            .node(topic)
            .training
            .iter()
            .filter(|d| d.archetype)
            .count()
    }

    /// "Once the training set has reached min{N_auth, N_conf} documents
    /// per topic" the harvesting phase can start.
    pub fn ready_for_harvesting(&self) -> bool {
        self.tree
            .leaves()
            .iter()
            .all(|&t| self.archetype_count(t) >= ARCHETYPES_PER_ROUND)
    }

    /// Switch to the harvesting phase: soft focus, best-first strategy,
    /// no depth/domain limits (Section 3.3).
    pub fn switch_to_harvesting(&mut self, crawler: &mut Crawler) {
        self.phase = Phase::Harvesting;
        crawler.config = crawler.config.harvesting();
        self.obs
            .events
            .emit(Event::at(crawler.clock_ms(), "engine.phase.harvesting"));
    }

    /// The frozen corpus view the current models were trained with
    /// (persistence support).
    pub(crate) fn frozen(&self) -> &TfIdfWeighter {
        &self.frozen
    }

    /// All trained models by topic id (persistence support).
    pub(crate) fn models_by_id(&self) -> Vec<(u32, &TopicModel)> {
        let mut v: Vec<(u32, &TopicModel)> = self.models.iter().map(|(&k, m)| (k, m)).collect();
        v.sort_by_key(|&(k, _)| k);
        v
    }

    /// Rebuild an engine from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_parts(
        config: EngineConfig,
        phase: Phase,
        vocab: Vocabulary,
        tree: TopicTree,
        corpus: CorpusStats,
        frozen: TfIdfWeighter,
        models: FxHashMap<u32, TopicModel>,
    ) -> Self {
        let engine = BingoEngine {
            tree,
            vocab,
            config,
            corpus,
            frozen,
            models,
            phase,
            candidates: FxHashMap::default(),
            link_analysis: FxHashMap::default(),
            obs: EngineTelemetry::default(),
        };
        engine.gauge_corpus();
        engine
    }

    /// Candidate pool of a topic (inspection/testing).
    pub fn candidates(&self, topic: TopicId) -> &[Candidate] {
        self.candidates
            .get(&topic.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// A shareable, read-only view of the engine's trained classifier:
/// topic tree, per-topic models, meta policy and telemetry, nothing
/// mutable. `Sync`, so the real-thread document pipeline can classify
/// on every worker against one handle. Obtain one via
/// [`BingoEngine::batch_classifier`].
///
/// Unlike the crawl-time judge, this handle performs *no* corpus or
/// archetype-candidate bookkeeping — it is the harvesting fast path,
/// where throughput matters and retraining is off.
#[derive(Clone, Copy)]
pub struct TopicClassifier<'a> {
    tree: &'a TopicTree,
    models: &'a FxHashMap<u32, TopicModel>,
    weighter: &'a TfIdfWeighter,
    obs: &'a EngineTelemetry,
    policy: MetaPolicy,
}

impl TopicClassifier<'_> {
    /// Classify one document; identical to [`BingoEngine::classify`].
    pub fn classify(&self, features: &DocumentFeatures) -> Judgment {
        let judgment = with_scratch(|scratch| {
            let JudgeScratch {
                weights,
                link_keys,
                hits,
                ..
            } = scratch;
            self.judge(features.parts(), weights, link_keys, hits)
        });
        self.obs.record_judgment(&judgment);
        judgment
    }

    /// Weigh `parts` into `weights` and classify them, gathering hits in
    /// `hits`. No telemetry.
    fn judge(
        &self,
        parts: FeatureParts<'_>,
        weights: &mut DocWeights,
        link_keys: &mut Vec<u32>,
        hits: &mut HitBuffers,
    ) -> Judgment {
        weights.weigh(parts, self.weighter, link_keys);
        classify_impl(
            self.tree,
            self.models,
            parts.term_freqs,
            weights,
            self.policy,
            hits,
        )
    }
}

/// The classify stage of the real-thread document pipeline: build each
/// page's multi-space features (document + incoming anchors + neighbour
/// terms) and classify it.
impl bingo_crawler::BatchJudge for TopicClassifier<'_> {
    fn judge_batch(&self, docs: &[AnalyzedDocument], ctxs: &[PageContext]) -> Vec<Judgment> {
        with_scratch(|scratch| {
            let JudgeScratch {
                pairs,
                weights,
                link_keys,
                hits,
            } = scratch;
            (docs.iter().zip(ctxs))
                .map(|(doc, ctx)| {
                    let parts = page_parts(doc, &ctx.anchor_terms, &ctx.neighbor_terms, pairs);
                    let judgment = self.judge(parts, weights, link_keys, hits);
                    self.obs.record_judgment(&judgment);
                    judgment
                })
                .collect()
        })
    }
}

/// A crawled page weighed and classified against the frozen models: the
/// pure half of the crawl-time judge, which lookahead workers compute
/// ahead of the page's commit. It carries only what the commit reads.
pub struct Assessed {
    /// Every feature of the page once, in feature order: what it adds to
    /// the live corpus.
    distinct: Vec<TermId>,
    /// The features, kept only for a page accepted into a topic — the
    /// one case the candidate pool wants them.
    features: Option<DocumentFeatures>,
    judgment: Judgment,
}

/// The crawl-time judge's pure half: the page's features, weighed once
/// with the frozen corpus, and the top-down classification. No
/// telemetry — the commit half records the judgment.
impl Assess for TopicClassifier<'_> {
    type Assessment = Assessed;

    fn assess(&self, doc: &AnalyzedDocument, anchors: &[TermId], neighbors: &[TermId]) -> Assessed {
        with_scratch(|scratch| {
            let JudgeScratch {
                pairs,
                weights,
                link_keys,
                hits,
            } = scratch;
            let parts = page_parts(doc, anchors, neighbors, pairs);
            let judgment = self.judge(parts, weights, link_keys, hits);
            // Weighed with the frozen corpus, counted into the live one:
            // the weights list every feature of the page once, in feature
            // order.
            let distinct = weights.entries().iter().map(|&(f, _)| TermId(f)).collect();
            Assessed {
                distinct,
                features: judgment.topic.is_some().then(|| parts.to_features()),
                judgment,
            }
        })
    }
}

/// A crawled page's features: its own terms, its pairs counted in
/// `pairs`, and the link context the crawler collected for it —
/// `DocumentFeatures::from_document` with the context added, borrowed.
fn page_parts<'a>(
    doc: &'a AnalyzedDocument,
    anchors: &'a [TermId],
    neighbors: &'a [TermId],
    pairs: &'a mut PairCounter,
) -> FeatureParts<'a> {
    FeatureParts {
        term_freqs: &doc.term_freqs,
        pair_freqs: pairs.count(&doc.terms),
        incoming_anchor_terms: anchors,
        neighbor_terms: neighbors,
    }
}

/// What the judge reuses from page to page on one thread, so that
/// judging a page allocates nothing once the buffers have grown to a
/// page's size.
#[derive(Default)]
struct JudgeScratch {
    pairs: PairCounter,
    weights: DocWeights,
    /// The link-context keys being counted.
    link_keys: Vec<u32>,
    hits: HitBuffers,
}

thread_local! {
    static SCRATCH: RefCell<JudgeScratch> = RefCell::default();
}

/// Run `f` with this thread's judge buffers.
fn with_scratch<R>(f: impl FnOnce(&mut JudgeScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Already lent out further up this thread's stack.
        Err(_) => f(&mut JudgeScratch::default()),
    })
}

/// The crawl-time judge's commit half: the corpus statistics, archetype
/// candidate pools and judgment telemetry every judged page feeds, in
/// pop order. Borrows disjoint engine fields so the crawler can hold
/// the shared vocabulary mutably at the same time.
struct Ledger<'a> {
    corpus: &'a mut CorpusStats,
    candidates: &'a mut FxHashMap<u32, Vec<Candidate>>,
    obs: &'a EngineTelemetry,
}

impl Ledger<'_> {
    fn record(&mut self, ctx: &PageContext, assessed: Assessed) -> Judgment {
        let Assessed {
            distinct,
            features,
            judgment,
        } = assessed;
        self.corpus.add_document(distinct);
        self.obs.record_judgment(&judgment);
        if let (Some(t), Some(features)) = (judgment.topic, features) {
            let pool = self.candidates.entry(t).or_default();
            pool.push(Candidate {
                page_id: ctx.page_id,
                url: ctx.url.clone(),
                confidence: judgment.confidence,
                features,
            });
            if pool.len() > CANDIDATE_POOL * 2 {
                pool.sort_by(|a, b| {
                    b.confidence
                        .partial_cmp(&a.confidence)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                pool.truncate(CANDIDATE_POOL);
            }
        }
        judgment
    }
}

/// Top-down hierarchical classification: at each level evaluate the
/// competing children; descend into the most confident acceptor; a
/// document nobody accepts lands in OTHERS (rejection). `weights` is the
/// document weighed once with the frozen corpus all of `models` were
/// trained with, for every model on the way down; `term_freqs` are its
/// body term frequencies, for a Naive Bayes member.
fn classify_impl(
    tree: &TopicTree,
    models: &FxHashMap<u32, TopicModel>,
    term_freqs: &[(TermId, u32)],
    weights: &DocWeights,
    policy: MetaPolicy,
    hits: &mut HitBuffers,
) -> Judgment {
    let mut current = TopicTree::ROOT;
    let mut assigned: Option<TopicId> = None;
    let mut confidence = f32::MIN;
    loop {
        let children = &tree.node(current).children;
        if children.is_empty() {
            break;
        }
        let mut best: Option<(TopicId, f32)> = None;
        let mut best_rejected = f32::MIN;
        for &child in children {
            let Some(model) = models.get(&child.0) else {
                continue;
            };
            let (accept, conf) = model.decide_with(term_freqs, weights, policy, hits);
            if accept {
                if best.map(|(_, c)| conf > c).unwrap_or(true) {
                    best = Some((child, conf));
                }
            } else {
                best_rejected = best_rejected.max(conf);
            }
        }
        match best {
            Some((child, conf)) => {
                assigned = Some(child);
                confidence = conf;
                current = child;
            }
            None => {
                if assigned.is_none() {
                    confidence = if best_rejected == f32::MIN {
                        -1.0
                    } else {
                        best_rejected
                    };
                }
                break;
            }
        }
    }
    Judgment {
        topic: assigned.map(|t| t.0),
        confidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::save_engine;
    use crate::tests::trained_engine;
    use bingo_crawler::CrawlConfig;
    use bingo_store::DocumentStore;
    use bingo_webworld::gen::WorldConfig;

    /// What four short crawl slices, each closed by a retraining, leave behind;
    /// `forget` drops the link-analysis memo before every retraining.
    /// Also returns how many retrainings found their base set unchanged.
    fn crawl_with_retrains(max_base_set: usize, forget: bool) -> (Vec<String>, usize) {
        let world = Arc::new(WorldConfig::small_test(52).build());
        let (mut engine, topic) = trained_engine(&world);
        engine.config.max_base_set = max_base_set;
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        let (mut trace, mut repeats) = (Vec::new(), 0);
        let mut last_base: Option<Vec<u64>> = None;
        for round in 1..=4u64 {
            engine.crawl_until(&mut crawler, round * 1_500, 0);
            let mut base = crawler.store().topic_documents(topic.0);
            base.truncate(max_base_set);
            assert!(!base.is_empty());
            repeats += usize::from(last_base.as_ref() == Some(&base));
            if forget {
                engine.link_analysis.clear();
            }
            let report = engine.retrain(&mut crawler);
            // Hit or miss, the memo now describes this retraining.
            assert_eq!(engine.link_analysis[&topic.0].base, base);
            last_base = Some(base);

            let archetypes: Vec<u64> = engine
                .tree
                .node(topic)
                .training
                .iter()
                .map(|d| d.page_id)
                .collect();
            let mut snapshot = Vec::new();
            save_engine(&engine, &mut snapshot).unwrap();
            trace.push(format!(
                "{:?} {} {archetypes:?} {:?} {:?}",
                report.promoted,
                report.hubs_boosted,
                crawler.stats(),
                crawler.store().topic_documents(topic.0),
            ));
            trace.push(String::from_utf8(snapshot).unwrap());
        }
        (trace, repeats)
    }

    /// A trained engine after a crawl slice to `deadline_ms`, so counts
    /// are pending, with the features of up to 50 stored pages to judge.
    fn engine_with_pending_counts(deadline_ms: u64) -> (BingoEngine, Vec<DocumentFeatures>) {
        let world = Arc::new(WorldConfig::small_test(52).build());
        let (mut engine, topic) = trained_engine(&world);
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        crawler.add_seed(&world.url_of(world.authors()[0].homepage), Some(topic.0));
        engine.crawl_until(&mut crawler, deadline_ms, 0);
        let mut rows = crawler.store().all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        let probes: Vec<DocumentFeatures> = rows
            .iter()
            .map(|row| features_from_term_freqs(&row.term_freqs))
            .take(50)
            .collect();
        assert!(engine.corpus().doc_count() > engine.frozen().stats().doc_count());
        (engine, probes)
    }

    /// Everything a failed round must leave as it was: the judgments of
    /// `probes`, every live df, and the snapshot (frozen view, pending
    /// counts, models).
    fn state(engine: &BingoEngine, probes: &[DocumentFeatures]) -> (String, String, Vec<u8>) {
        let judgments: String = probes
            .iter()
            .map(|f| engine.classify(f))
            .map(|j| format!("{:?} {:08x};", j.topic, j.confidence.to_bits()))
            .collect();
        let mut snapshot = Vec::new();
        save_engine(engine, &mut snapshot).unwrap();
        (
            judgments,
            serde_json::to_string(engine.corpus()).unwrap(),
            snapshot,
        )
    }

    #[test]
    fn a_failed_train_changes_nothing() {
        // Long enough that the pending counts moved into a private copy
        // of the table, which the failed round must not disturb either.
        let (mut engine, probes) = engine_with_pending_counts(2_000);
        assert_eq!(probes.len(), 50);
        assert_ne!(
            engine.corpus().table_ptr(),
            engine.frozen().stats().table_ptr()
        );
        let before = state(&engine, &probes);
        let table = engine.corpus().table_ptr();

        // Refused before anything is released.
        let others = std::mem::take(&mut engine.tree.others);
        let err = engine.train().unwrap_err();
        assert_eq!(
            err,
            EngineError::Training("no negative examples: populate OTHERS or add sibling topics")
        );
        engine.tree.others = others;
        assert!(state(&engine, &probes) == before);

        // Refused after the fold: no space trains, the fold is undone.
        let spaces = std::mem::take(&mut engine.config.model.spaces);
        let err = engine.train().unwrap_err();
        assert_eq!(err, EngineError::Training("no topic could be trained"));
        engine.config.model.spaces = spaces;
        assert!(state(&engine, &probes) == before);
        assert_eq!(engine.corpus().table_ptr(), table);
        for space in &engine.models.values().next().unwrap().spaces {
            assert!(space.weighter.shares_stats_with(&engine.frozen));
        }
    }

    #[test]
    fn a_successful_train_copies_no_table() {
        let (mut engine, _probes) = engine_with_pending_counts(400);
        let live = serde_json::to_string(engine.corpus()).unwrap();
        let table = engine.corpus().table_ptr();
        assert_eq!(engine.frozen().stats().table_ptr(), table);
        engine.train().unwrap();
        // The pending counts were folded into the very table the corpus
        // and the previous round shared; the new round reads it.
        assert_eq!(engine.corpus().table_ptr(), table);
        assert_eq!(engine.frozen().stats().table_ptr(), table);
        assert_eq!(serde_json::to_string(engine.corpus()).unwrap(), live);
        assert_eq!(serde_json::to_string(engine.frozen()).unwrap(), live);
        for model in engine.models.values() {
            for space in &model.spaces {
                assert!(space.weighter.shares_stats_with(&engine.frozen));
            }
        }
        let gauge = engine.telemetry().registry.snapshot().gauges["engine.corpus.resident_bytes"];
        assert_eq!(gauge, engine.corpus().resident_bytes() as i64);
    }

    #[test]
    fn remembered_link_analysis_changes_nothing() {
        // A base set capped at 12 documents repeats from the second
        // retraining on: the memo answers.
        let (remembered, repeats) = crawl_with_retrains(12, false);
        assert_eq!(repeats, 3);
        assert!(remembered == crawl_with_retrains(12, true).0);
    }

    #[test]
    fn a_grown_base_set_is_analysed_again() {
        // Uncapped, every slice adds documents to the base set: the memo
        // misses every time (`crawl_with_retrains` checks it was replaced)
        // and the crawl is the one a memo-less engine makes.
        let (remembered, repeats) = crawl_with_retrains(1000, false);
        assert_eq!(repeats, 0);
        assert!(remembered == crawl_with_retrains(1000, true).0);
    }
}
