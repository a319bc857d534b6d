//! Property-based tests of the text-processing substrate: the HTML
//! parser and content handlers must survive arbitrary (including
//! adversarial) input, and the analyzer invariants must hold on any
//! document the web could serve.

use bingo_textproc::content::{make_pdf, make_word, make_zip, ContentRegistry};
use bingo_textproc::features::{ns_index, pair_feature, Namespace, PAIR_WINDOW};
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::html;
use bingo_textproc::stem::porter_stem;
use bingo_textproc::tfidf::{CorpusStats, TfIdfWeighter};
use bingo_textproc::tokenize::Tokenizer;
use bingo_textproc::vector::SparseVector;
use bingo_textproc::{
    analyze_html, radix, AnalyzedDocument, DocWeights, DocumentFeatures, FeatureSpaceKind,
    MimeType, PairCounter, TermId, Vocabulary,
};
use proptest::prelude::*;

/// What `CorpusStats` was before its compact df table, and still is on
/// disk: a document count and one `u32 → u64` map.
#[derive(Default, serde::Serialize)]
struct PlainCorpus {
    doc_count: u64,
    doc_freq: FxHashMap<u32, u64>,
}

impl PlainCorpus {
    fn add_document(&mut self, features: &[u32]) {
        self.doc_count += 1;
        for &f in features {
            *self.doc_freq.entry(f).or_insert(0) += 1;
        }
    }

    fn df(&self, feature: u32) -> u64 {
        self.doc_freq.get(&feature).copied().unwrap_or(0)
    }

    fn idf_bits(&self, feature: u32) -> u32 {
        let (n, df) = (self.doc_count.max(1) as f32, self.df(feature) as f32);
        let idf = if df == 0.0 {
            (1.0 + n).ln()
        } else {
            (1.0 + n / df).ln()
        };
        idf.to_bits()
    }
}

/// A feature of any of the four namespaces whose local index is small,
/// next to the bound of the dense part of the df table (2¹⁶), or
/// anywhere in the 30 bits.
fn df_feature() -> impl Strategy<Value = u32> {
    let local = prop_oneof![0u32..24, (1u32 << 16) - 3..(1 << 16) + 3, 0u32..1 << 30];
    (0u32..4, local).prop_map(|(namespace, local)| namespace << 30 | local)
}

/// Distinct keys of `keys` with their counts, in key order: sorted by
/// comparison and counted run by run.
fn counted_by_comparison(mut keys: Vec<u32>) -> Vec<(u32, u32)> {
    keys.sort_unstable();
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for key in keys {
        match runs.last_mut() {
            Some((last, n)) if *last == key => *n += 1,
            _ => runs.push((key, 1)),
        }
    }
    runs
}

/// A page body: short (a few pair keys, or a few dozen), or page-sized;
/// over two term ids (one pair key, repeated), a handful, or many. One
/// id only gives no pairs.
fn body_terms() -> impl Strategy<Value = Vec<TermId>> {
    let ids = |n: u32| {
        prop_oneof![
            proptest::collection::vec(0..n, 0..16),
            proptest::collection::vec(0..n, 15..22),
            proptest::collection::vec(0..n, 0..400),
        ]
    };
    prop_oneof![ids(1), ids(2), ids(6), ids(5_000)]
        .prop_map(|ids| ids.into_iter().map(TermId).collect())
}

proptest! {
    // ---- HTML parser fuzzing ---------------------------------------

    #[test]
    fn html_parser_never_panics(input in ".{0,400}") {
        let doc = html::parse(&input);
        // Whitespace normalization: no doubled spaces, no leading/
        // trailing whitespace.
        prop_assert!(!doc.text.contains("  "));
        prop_assert_eq!(doc.text.trim(), doc.text.as_str());
        for link in &doc.links {
            prop_assert!(!link.anchor.contains("  "));
        }
    }

    #[test]
    fn html_parser_handles_tag_soup(
        pieces in proptest::collection::vec(
            prop_oneof![
                Just("<a href=\"http://x/\">".to_string()),
                Just("</a>".to_string()),
                Just("<script>".to_string()),
                Just("</script>".to_string()),
                Just("<!--".to_string()),
                Just("-->".to_string()),
                Just("<title>".to_string()),
                Just("</p".to_string()),
                Just("&amp;".to_string()),
                Just("&bogus;".to_string()),
                "[a-z ]{1,12}".prop_map(|s| s),
            ],
            0..30,
        )
    ) {
        let input: String = pieces.concat();
        let doc = html::parse(&input);
        // Every extracted link has a non-empty href.
        prop_assert!(doc.links.iter().all(|l| !l.href.is_empty()));
    }

    #[test]
    fn analyzer_counts_are_consistent(input in ".{0,300}") {
        let mut vocab = Vocabulary::new();
        let doc = analyze_html(&input, &mut vocab);
        let total: u32 = doc.term_freqs.iter().map(|&(_, f)| f).sum();
        prop_assert_eq!(total as usize, doc.terms.len());
        // Every interned term id is resolvable.
        for &t in &doc.terms {
            prop_assert!((t.0 as usize) < vocab.len());
        }
        // term_freqs sorted strictly.
        for w in doc.term_freqs.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    // ---- Tokenizer ----------------------------------------------------

    #[test]
    fn tokens_are_lowercase_alpha_bounded(input in ".{0,200}") {
        let t = Tokenizer::default();
        for tok in t.tokens(&input) {
            prop_assert!(tok.len() >= 2 && tok.len() <= 32);
            prop_assert!(tok.chars().all(|c| c.is_alphabetic()));
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    // ---- Stemmer under token conditions ------------------------------

    #[test]
    fn stemming_tokens_never_panics(input in "[a-zA-Zéüß ]{0,120}") {
        let t = Tokenizer::default();
        for tok in t.tokens(&input) {
            let stem = porter_stem(&tok);
            prop_assert!(!stem.is_empty());
        }
    }

    // ---- Content handlers ---------------------------------------------

    #[test]
    fn content_registry_never_panics(payload in ".{0,300}") {
        let reg = ContentRegistry::new();
        for mime in [
            MimeType::Html, MimeType::Plain, MimeType::Pdf, MimeType::Word,
            MimeType::PowerPoint, MimeType::Zip, MimeType::Video, MimeType::Other,
        ] {
            let _ = reg.to_html(mime, &payload);
        }
    }

    #[test]
    fn envelopes_round_trip(text in "[a-zA-Z0-9 .,]{0,200}") {
        let reg = ContentRegistry::new();
        let pdf = reg.to_html(MimeType::Pdf, &make_pdf(&text)).unwrap();
        prop_assert!(pdf.contains(&text));
        let word = reg.to_html(MimeType::Word, &make_word(&text)).unwrap();
        prop_assert!(word.contains(&text));
        let zip = reg
            .to_html(MimeType::Zip, &make_zip(&[&text, "second entry"]))
            .unwrap();
        prop_assert!(zip.contains(&text));
        prop_assert!(zip.contains("second entry"));
    }

    // ---- Sparse vectors (crate-level remap/filter laws) ---------------

    // ---- Corpus statistics -----------------------------------------

    #[test]
    fn corpus_stats_answer_and_serialize_like_a_plain_map(
        docs in proptest::collection::vec(proptest::collection::vec(df_feature(), 0..12), 0..12),
        frozen_after in 0usize..12,
        unseen in proptest::collection::vec(df_feature(), 4),
    ) {
        let mut stats = CorpusStats::new();
        let mut plain = PlainCorpus::default();
        let mut frozen: Option<(TfIdfWeighter, PlainCorpus)> = None;
        let probes: Vec<u32> = docs.iter().flatten().copied().chain(unseen).collect();
        let agree = |stats: &CorpusStats, weighter: &TfIdfWeighter, plain: &PlainCorpus| {
            prop_assert_eq!(stats.doc_count(), plain.doc_count);
            for &f in &probes {
                prop_assert_eq!(stats.doc_freq(TermId(f)), plain.df(f), "df of {}", f);
                prop_assert_eq!(stats.idf(TermId(f)).to_bits(), plain.idf_bits(f));
                prop_assert_eq!(weighter.idf(TermId(f)).to_bits(), plain.idf_bits(f));
            }
            let json = serde_json::to_string(stats).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(plain).unwrap());
            let back: CorpusStats = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
            Ok(())
        };
        for (i, doc) in docs.iter().enumerate() {
            if i == frozen_after {
                let copy = PlainCorpus {
                    doc_count: plain.doc_count,
                    doc_freq: plain.doc_freq.clone(),
                };
                frozen = Some((stats.weighter(), copy));
            }
            // A feature listed twice in one document counts twice.
            stats.add_document(doc.iter().map(|&f| TermId(f)));
            plain.add_document(doc);
        }
        agree(&stats, &stats.weighter(), &plain)?;
        // The view frozen mid-stream saw none of the later documents.
        if let Some((weighter, plain_then)) = &frozen {
            agree(weighter.stats(), weighter, plain_then)?;
        }
    }

    // ---- Feature counting ------------------------------------------

    #[test]
    fn pair_runs_are_the_sorted_and_counted_window_pairs(terms in body_terms()) {
        let mut keys = Vec::new();
        for (i, &a) in terms.iter().enumerate() {
            for &b in &terms[i + 1..terms.len().min(i + PAIR_WINDOW)] {
                if a != b {
                    keys.push(pair_feature(a, b));
                }
            }
        }
        let want = counted_by_comparison(keys);
        let mut term_freqs = counted_by_comparison(terms.iter().map(|t| t.0).collect());
        let doc = AnalyzedDocument {
            title: String::new(),
            term_freqs: term_freqs.drain(..).map(|(t, n)| (TermId(t), n)).collect(),
            terms,
            links: Vec::new(),
        };
        prop_assert_eq!(&DocumentFeatures::from_document(&doc).pair_freqs, &want);
        // A counter that already counted another page counts this one
        // alike.
        let mut counter = PairCounter::default();
        counter.count(&doc.terms[doc.terms.len() / 2..]);
        prop_assert_eq!(counter.count(&doc.terms), &want[..]);
    }

    #[test]
    fn link_context_runs_are_sorted_and_counted(
        anchors in proptest::collection::vec(0u32..40, 0..150),
        neighbors in proptest::collection::vec(prop_oneof![0u32..40, 0u32..1 << 30], 0..150),
    ) {
        let keys = |terms: &[u32], ns| terms.iter().map(|&t| ns_index(ns, t)).collect();
        let mut want = counted_by_comparison(keys(&anchors, Namespace::Anchor));
        want.extend(counted_by_comparison(keys(&neighbors, Namespace::Neighbor)));
        let f = DocumentFeatures {
            incoming_anchor_terms: anchors.into_iter().map(TermId).collect(),
            neighbor_terms: neighbors.into_iter().map(TermId).collect(),
            ..DocumentFeatures::default()
        };
        prop_assert_eq!(f.occurrences(FeatureSpaceKind::Combined), want.clone());
        let weights = DocWeights::new(&f, &TfIdfWeighter::default());
        let weighed: Vec<u32> = weights.entries().iter().map(|&(i, _)| i).collect();
        let want: Vec<u32> = want.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(weighed, want);
    }

    #[test]
    fn radix_sort_orders_keys_of_every_namespace(
        keys in prop_oneof![
            proptest::collection::vec(df_feature(), 0..64),
            proptest::collection::vec(df_feature(), 0..2_000),
            (df_feature(), 0usize..200).prop_map(|(key, n)| vec![key; n]),
        ],
    ) {
        let mut want = keys.clone();
        want.sort_unstable();
        let (mut got, mut swap) = (keys, vec![7; 3]);
        radix::sort(&mut got, &mut swap);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn remap_drops_and_shifts_consistently(
        pairs in proptest::collection::vec((0u32..100, 0.1f32..5.0), 0..30),
    ) {
        let v = SparseVector::from_pairs(pairs);
        // Injective shift map keeps all entries.
        let shifted = v.remap(|i| Some(i + 1000));
        prop_assert_eq!(shifted.nnz(), v.nnz());
        // Drop-everything map empties.
        let none = v.remap(|_| None);
        prop_assert!(none.is_empty());
        // filter == remap-with-identity-on-kept.
        let f1 = v.filter_indices(|i| i % 2 == 0);
        let f2 = v.remap(|i| (i % 2 == 0).then_some(i));
        prop_assert_eq!(f1.entries(), f2.entries());
    }

    #[test]
    fn scale_and_norm_interact_linearly(
        pairs in proptest::collection::vec((0u32..50, -3.0f32..3.0), 1..20),
        k in 0.1f32..4.0,
    ) {
        let v = SparseVector::from_pairs(pairs);
        let mut scaled = v.clone();
        scaled.scale(k);
        prop_assert!((scaled.norm() - k * v.norm()).abs() < 1e-2 * (1.0 + v.norm()));
    }
}

/// Deterministic (non-proptest) regression cases for the HTML parser
/// found worth pinning.
#[test]
fn parser_pinned_edge_cases() {
    // Unterminated comment swallows the rest.
    let d = html::parse("visible<!-- hidden forever");
    assert_eq!(d.text, "visible");
    // Unterminated script likewise.
    let d = html::parse("<script>alert(1)");
    assert_eq!(d.text, "");
    // Attribute value with spaces in quotes.
    let d = html::parse("<a href=\"http://x/a b\">t</a>");
    assert_eq!(d.links[0].href, "http://x/a b");
    // '<' not starting a tag.
    let d = html::parse("1 < 2 and 3 > 2");
    assert!(d.text.starts_with("1"));
}
