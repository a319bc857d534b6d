//! Engine telemetry: classification, training and retraining metrics.
//!
//! Confidence values are floats; histograms store `u64`, so confidences
//! are recorded in milli-units (`|confidence| * 1000` rounded down),
//! split into positive and negative histograms. That keeps the snapshot
//! deterministic (the underlying SVM math is) while preserving the
//! distribution shape the paper watches when tuning the archetype
//! threshold.

use bingo_crawler::Judgment;
use bingo_obs::{Counter, EventLog, Gauge, Histogram, Registry};
use bingo_textproc::TextprocMetrics;
use std::sync::Arc;

/// Metric and event handles for one engine. Cloning shares the
/// underlying registry and atomics.
#[derive(Clone)]
pub struct EngineTelemetry {
    /// The registry the handles live in.
    pub registry: Arc<Registry>,
    /// Structured event log (retraining rounds, phase switches).
    pub events: Arc<EventLog>,
    /// Documents classified (accepted or rejected).
    pub classified: Counter,
    /// Documents accepted into some topic.
    pub accepted: Counter,
    /// Documents rejected into OTHERS.
    pub rejected: Counter,
    /// Confidence (milli-units) of accepted documents.
    pub conf_pos_milli: Arc<Histogram>,
    /// |confidence| (milli-units) of rejected documents.
    pub conf_neg_milli: Arc<Histogram>,
    /// Full training rounds completed.
    pub train_rounds: Counter,
    /// Topic models produced by the last training round.
    pub train_models: Gauge,
    /// Total MI-selected features across all spaces of all models.
    pub train_features: Gauge,
    /// Retraining rounds completed.
    pub retrain_rounds: Counter,
    /// Archetypes promoted across all retraining rounds.
    pub promoted: Counter,
    /// Hub links boosted into the frontier.
    pub hubs_boosted: Counter,
    /// [`CorpusStats::resident_bytes`](bingo_textproc::CorpusStats::resident_bytes)
    /// of the judge's corpus after its latest fold, freeze or crawl slice.
    pub corpus_bytes: Gauge,
    /// Document-analysis metrics for engine-side analysis (training
    /// seeds, virtual documents).
    pub textproc: TextprocMetrics,
}

impl EngineTelemetry {
    /// Register all engine metrics in `registry`, logging events to
    /// `events`.
    pub fn new(registry: Arc<Registry>, events: Arc<EventLog>) -> Self {
        EngineTelemetry {
            classified: registry.counter("engine.classify.total"),
            accepted: registry.counter("engine.classify.accepted"),
            rejected: registry.counter("engine.classify.rejected"),
            conf_pos_milli: registry.histogram("engine.classify.conf_pos_milli"),
            conf_neg_milli: registry.histogram("engine.classify.conf_neg_milli"),
            train_rounds: registry.counter("engine.train.rounds"),
            train_models: registry.gauge("engine.train.models"),
            train_features: registry.gauge("engine.train.features"),
            retrain_rounds: registry.counter("engine.retrain.rounds"),
            promoted: registry.counter("engine.retrain.promoted"),
            hubs_boosted: registry.counter("engine.retrain.hubs_boosted"),
            corpus_bytes: registry.gauge("engine.corpus.resident_bytes"),
            textproc: TextprocMetrics::new(registry.clone()),
            registry,
            events,
        }
    }

    /// Roll one classification verdict into the counters and confidence
    /// histograms.
    pub fn record_judgment(&self, judgment: &Judgment) {
        self.classified.inc();
        let milli = (judgment.confidence.abs() * 1000.0) as u64;
        if judgment.topic.is_some() {
            self.accepted.inc();
            self.conf_pos_milli.observe(milli);
        } else {
            self.rejected.inc();
            // Rejections at the f32::MIN sentinel carry no signal.
            if judgment.confidence.is_finite() && judgment.confidence > -1e18 {
                self.conf_neg_milli.observe(milli);
            }
        }
    }
}

impl Default for EngineTelemetry {
    fn default() -> Self {
        EngineTelemetry::new(Arc::new(Registry::new()), Arc::new(EventLog::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judgments_split_by_acceptance() {
        let t = EngineTelemetry::default();
        t.record_judgment(&Judgment {
            topic: Some(0),
            confidence: 0.5,
        });
        t.record_judgment(&Judgment {
            topic: None,
            confidence: -0.25,
        });
        let snap = t.registry.snapshot();
        assert_eq!(snap.counters["engine.classify.total"], 2);
        assert_eq!(snap.counters["engine.classify.accepted"], 1);
        assert_eq!(snap.counters["engine.classify.rejected"], 1);
        assert_eq!(snap.histograms["engine.classify.conf_pos_milli"].max, 500);
        assert_eq!(snap.histograms["engine.classify.conf_neg_milli"].max, 250);
    }
}
