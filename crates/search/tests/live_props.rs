//! Property: a live index fed the store's rows in *any* arrival order
//! under *any* commit chunking is indistinguishable from
//! `InvertedIndex::build` over that store — norms bit for bit, every
//! term's postings, and `rank` hit for hit under every ranking scheme and
//! topic filter — and every hit carries its row's metadata.

use bingo_search::rank::rank;
use bingo_search::{InvertedIndex, LiveIndex, RankingScheme, SearchHit, TermIndex, TopicFilter};
use bingo_store::{DocumentRow, DocumentStore, LinkRow};
use bingo_textproc::MimeType;
use proptest::prelude::*;

const SCHEMES: [RankingScheme; 5] = [
    RankingScheme::Cosine,
    RankingScheme::Confidence,
    RankingScheme::Authority,
    RankingScheme::PageRank,
    RankingScheme::Combined {
        cosine: 1.0,
        confidence: 0.5,
        authority: 0.25,
    },
];

fn filters() -> [TopicFilter; 3] {
    [
        TopicFilter::Any,
        TopicFilter::Exact(1),
        TopicFilter::Vague {
            topics: vec![0, 2],
            min_confidence: 0.0,
        },
    ]
}

/// `(term_freqs, topic, confidence)` of one document.
type RowSpec = (Vec<(u32, u32)>, Option<u32>, f32);

fn row_specs() -> impl Strategy<Value = Vec<RowSpec>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u32..40, 1u32..9), 0..12),
            proptest::option::of(0u32..3),
            -1.0f32..1.0,
        ),
        1..40,
    )
}

fn row(id: u64, (mut term_freqs, topic, confidence): RowSpec) -> DocumentRow {
    // Stored rows list each term once, in term order.
    term_freqs.sort_unstable_by_key(|&(t, _)| t);
    term_freqs.dedup_by_key(|&mut (t, _)| t);
    DocumentRow {
        id,
        url: format!("http://h{}.example/d{id}.html", id % 7),
        host: (id % 7) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: format!("doc {id}"),
        topic,
        confidence,
        term_freqs,
        size: 100,
        fetched_at: id,
    }
}

/// Everything `rank` computes about a hit list, floats by bit pattern.
fn key(hits: &[SearchHit]) -> Vec<(u64, [u32; 4])> {
    hits.iter()
        .map(|h| {
            let parts = [h.score, h.cosine, h.confidence, h.authority];
            (h.doc_id, parts.map(f32::to_bits))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_commit_chunking_ranks_like_the_batch_index(
        specs in row_specs(),
        chunks in proptest::collection::vec(1usize..9, 1..6),
        links in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
        queries in proptest::collection::vec(proptest::collection::vec(0u32..45, 1..4), 1..5),
        top_k in 1usize..12,
        arrival in proptest::collection::vec(any::<u32>(), 40),
    ) {
        // Ids follow generation order; rows arrive ordered by a drawn
        // key, as concurrent writers deliver them, so a commit's rows
        // are generally out of id order.
        let mut rows: Vec<DocumentRow> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| row(i as u64 + 1, spec))
            .collect();
        rows.sort_by_key(|r| arrival[r.id as usize - 1]);
        let store = DocumentStore::new();
        prop_assert!(store.insert_documents(rows.clone()).is_empty());
        for (from, to) in links {
            let (from, to) = (&rows[from % rows.len()], &rows[to % rows.len()]);
            store.insert_link(LinkRow { from: from.id, to: to.id, to_url: to.url.clone() });
        }

        let live = LiveIndex::new(0);
        let mut rest = rows.as_slice();
        for &chunk in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(chunk.min(rest.len()));
            live.ingest(head);
            live.commit();
            rest = tail;
        }
        let snapshot = live.reader().snapshot();
        let batch = InvertedIndex::build(&store);

        prop_assert_eq!(TermIndex::doc_count(&*snapshot), batch.doc_count());
        prop_assert_eq!(snapshot.term_count(), batch.term_count());
        for row in &rows {
            prop_assert_eq!(
                snapshot.norm(row.id).to_bits(),
                batch.norm(row.id).to_bits(),
                "norm of doc {}", row.id
            );
        }
        for term in 0..45 {
            let mut incremental = Vec::new();
            snapshot.for_each_posting(term, &mut |doc, tf| incremental.push((doc, tf)));
            incremental.sort_unstable();
            let full: Vec<_> = batch.postings(term).collect();
            prop_assert!(full.windows(2).all(|w| w[0].0 < w[1].0), "term {} in id order", term);
            prop_assert_eq!(incremental, full, "postings of term {}", term);
        }

        for mut terms in queries {
            terms.sort_unstable();
            terms.dedup();
            for filter in &filters() {
                for scheme in SCHEMES {
                    let incremental = rank(&store, &*snapshot, &terms, filter, scheme, top_k);
                    let full = rank(&store, &batch, &terms, filter, scheme, top_k);
                    prop_assert_eq!(
                        key(&incremental), key(&full),
                        "terms {:?}, {:?}, {:?}", terms, filter, scheme
                    );
                    prop_assert!(incremental.len() <= top_k);
                    for hit in &incremental {
                        let stored = store.document(hit.doc_id).expect("hits are stored rows");
                        prop_assert_eq!(&hit.url, &stored.url);
                        prop_assert_eq!(&hit.title, &stored.title);
                        prop_assert_eq!(hit.confidence.to_bits(), stored.confidence.to_bits());
                        prop_assert!(filter.accepts(stored.topic, stored.confidence));
                    }
                }
            }
        }
    }
}
