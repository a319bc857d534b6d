//! Relevance ranking (Section 3.6).
//!
//! "The search engine supports both exact and vague filtering at
//! user-selectable classes of the topic hierarchy, with relevance ranking
//! based on the usual IR metrics such as cosine similarity. In addition,
//! it can rank filtered document sets based on the classifier's
//! confidence and it can perform the HITS link analysis to compute
//! authority scores. Different ranking schemes can be combined into a
//! linear sum with appropriate weights."

use crate::index::TermIndex;
use bingo_graph::{Hits, LinkSource, PageId};
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::FxHashMap;

/// Topic filtering mode (Section 3.6: "exact and vague filtering at
/// user-selectable classes of the topic hierarchy").
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TopicFilter {
    /// No topic restriction.
    #[default]
    Any,
    /// Documents assigned exactly to this topic node.
    Exact(u32),
    /// Vague: documents assigned to any of these nodes (typically a
    /// subtree of the topic hierarchy), *or* unassigned documents whose
    /// classification confidence is at least the threshold — borderline
    /// material a strict filter would hide.
    Vague {
        /// Accepted topic nodes.
        topics: Vec<u32>,
        /// Minimum confidence for unassigned documents.
        min_confidence: f32,
    },
}

impl TopicFilter {
    /// Does a document with this assignment pass the filter?
    pub fn accepts(&self, topic: Option<u32>, confidence: f32) -> bool {
        match self {
            TopicFilter::Any => true,
            TopicFilter::Exact(t) => topic == Some(*t),
            TopicFilter::Vague {
                topics,
                min_confidence,
            } => match topic {
                Some(t) => topics.contains(&t),
                None => confidence >= *min_confidence,
            },
        }
    }
}

/// How to order matching documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingScheme {
    /// Cosine similarity between query and document tf·idf vectors.
    Cosine,
    /// The classifier's confidence in the topic assignment.
    Confidence,
    /// HITS authority score over the matching documents' link subgraph.
    Authority,
    /// Weighted linear combination of the three components.
    Combined {
        /// Weight of the cosine component.
        cosine: f32,
        /// Weight of the confidence component.
        confidence: f32,
        /// Weight of the authority component.
        authority: f32,
    },
}

/// One search result with its ranking components (exposed so a human
/// expert can experiment with different weightings).
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// Document id.
    pub doc_id: PageId,
    /// Document URL.
    pub url: String,
    /// Document title — the "content preview" shown in the prepared
    /// result lists the user evaluates (Section 5.3).
    pub title: String,
    /// Final score under the requested scheme.
    pub score: f32,
    /// Cosine similarity to the query.
    pub cosine: f32,
    /// Classifier confidence.
    pub confidence: f32,
    /// HITS authority score within the result set.
    pub authority: f32,
}

/// Rank the documents matching `query_terms` (AND-free vector-space
/// matching: any document containing at least one query term competes).
/// Generic over [`TermIndex`], so the batch-built index and a live
/// snapshot share one scoring path.
pub fn rank<I: TermIndex + ?Sized>(
    store: &DocumentStore,
    index: &I,
    query_terms: &[u32],
    filter: &TopicFilter,
    scheme: RankingScheme,
    top_k: usize,
) -> Vec<SearchHit> {
    if query_terms.is_empty() {
        return Vec::new();
    }

    // Accumulate cosine numerators over postings.
    let mut scores: FxHashMap<PageId, f32> = FxHashMap::default();
    let mut query_norm_sq = 0.0f32;
    for &term in query_terms {
        let idf = index.idf(term);
        if idf == 0.0 {
            continue;
        }
        let qw = idf; // query tf = 1
        query_norm_sq += qw * qw;
        index.for_each_posting(term, &mut |doc, tf| {
            let dw = crate::index::damped(tf) * idf;
            *scores.entry(doc).or_insert(0.0) += qw * dw;
        });
    }
    let query_norm = query_norm_sq.sqrt();
    if query_norm == 0.0 {
        return Vec::new();
    }

    // Topic filter. A match is judged and scored from two scalars of its
    // row, read in place; `url` and `title` are fetched further down,
    // for the `top_k` survivors only.
    let mut matches: Vec<SearchHit> = Vec::new();
    for (doc, dot) in scores {
        let Some((topic, confidence)) = store.with_head(doc, |head| (head.topic, head.confidence))
        else {
            continue;
        };
        if !filter.accepts(topic, confidence) {
            continue;
        }
        let denom = query_norm * index.norm(doc);
        let cosine = if denom > 0.0 { dot / denom } else { 0.0 };
        matches.push(SearchHit {
            doc_id: doc,
            url: String::new(),
            title: String::new(),
            score: 0.0,
            cosine,
            confidence,
            authority: 0.0,
        });
    }

    // Link analysis over the matching set (plus its stored
    // neighbourhood) when the scheme needs it.
    if needs_authority(scheme) && !matches.is_empty() {
        let base: Vec<PageId> = matches.iter().map(|h| h.doc_id).collect();
        let nodes = bingo_graph::expand_base_set(store, &base, 10);
        let hits = Hits.run(store as &dyn LinkSource, &nodes);
        for m in &mut matches {
            m.authority = hits.authority_of(m.doc_id) as f32;
        }
    }

    for m in &mut matches {
        m.score = match scheme {
            RankingScheme::Cosine => m.cosine,
            RankingScheme::Confidence => m.confidence,
            RankingScheme::Authority => m.authority,
            RankingScheme::Combined {
                cosine,
                confidence,
                authority,
            } => cosine * m.cosine + confidence * m.confidence + authority * m.authority,
        };
    }
    matches.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc_id.cmp(&b.doc_id))
    });
    matches.truncate(top_k);
    for m in &mut matches {
        if let Some((url, title)) = store.with_head(m.doc_id, |head| {
            (head.url().to_string(), head.title().to_string())
        }) {
            m.url = url;
            m.title = title;
        }
    }
    matches
}

fn needs_authority(scheme: RankingScheme) -> bool {
    match scheme {
        RankingScheme::Authority => true,
        RankingScheme::Combined { authority, .. } => authority != 0.0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::analyze_query;
    use crate::tests::sample_store;
    use crate::InvertedIndex;

    #[test]
    fn cosine_prefers_term_dense_docs() {
        let (store, vocab) = sample_store();
        let index = InvertedIndex::build(&store);
        let q = analyze_query(&vocab, "aries");
        let hits = rank(
            &store,
            &index,
            &q,
            &TopicFilter::Any,
            RankingScheme::Cosine,
            10,
        );
        assert_eq!(hits.len(), 2);
        assert!(hits[0].cosine >= hits[1].cosine);
    }

    #[test]
    fn empty_query_empty_result() {
        let (store, _vocab) = sample_store();
        let index = InvertedIndex::build(&store);
        assert!(rank(
            &store,
            &index,
            &[],
            &TopicFilter::Any,
            RankingScheme::Cosine,
            10
        )
        .is_empty());
    }

    #[test]
    fn combined_weights_zero_equals_components() {
        let (store, vocab) = sample_store();
        let index = InvertedIndex::build(&store);
        let q = analyze_query(&vocab, "recovery");
        let cosine_only = rank(
            &store,
            &index,
            &q,
            &TopicFilter::Exact(1),
            RankingScheme::Combined {
                cosine: 1.0,
                confidence: 0.0,
                authority: 0.0,
            },
            10,
        );
        let plain = rank(
            &store,
            &index,
            &q,
            &TopicFilter::Exact(1),
            RankingScheme::Cosine,
            10,
        );
        let a: Vec<u64> = cosine_only.iter().map(|h| h.doc_id).collect();
        let b: Vec<u64> = plain.iter().map(|h| h.doc_id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn vague_filter_spans_topics_and_confidence() {
        let (store, vocab) = sample_store();
        let index = InvertedIndex::build(&store);
        let q = analyze_query(&vocab, "release");
        // "release" matches docs 1 (topic 1), 3 (topic 1), 5 (topic 2).
        let vague = TopicFilter::Vague {
            topics: vec![1, 2],
            min_confidence: 0.0,
        };
        let hits = rank(&store, &index, &q, &vague, RankingScheme::Cosine, 10);
        let ids: std::collections::HashSet<u64> = hits.iter().map(|h| h.doc_id).collect();
        assert!(ids.contains(&1) && ids.contains(&5));
        // Exact on topic 2 excludes topic-1 docs.
        let exact = rank(
            &store,
            &index,
            &q,
            &TopicFilter::Exact(2),
            RankingScheme::Cosine,
            10,
        );
        assert!(exact.iter().all(|h| h.doc_id == 5));
    }

    #[test]
    fn topic_filter_accepts_semantics() {
        assert!(TopicFilter::Any.accepts(None, -1.0));
        assert!(TopicFilter::Exact(3).accepts(Some(3), 0.0));
        assert!(!TopicFilter::Exact(3).accepts(Some(4), 9.0));
        assert!(!TopicFilter::Exact(3).accepts(None, 9.0));
        let v = TopicFilter::Vague {
            topics: vec![1, 2],
            min_confidence: 0.2,
        };
        assert!(v.accepts(Some(1), -5.0));
        assert!(!v.accepts(Some(3), 5.0));
        assert!(v.accepts(None, 0.3), "confident unassigned doc passes");
        assert!(!v.accepts(None, 0.1));
    }
}
