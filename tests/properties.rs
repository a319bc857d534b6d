//! Property-based tests of the core data structures and invariants,
//! spanning crates through the public facade.

use bingo::crawler::frontier::{Frontier, QueueEntry};
use bingo::crawler::Dedup;
use bingo::ml::svm::{LinearSvm, SvmConfig};
use bingo::ml::TrainingSet;
use bingo::textproc::stem::porter_stem;
use bingo::textproc::tfidf::CorpusStats;
use bingo::textproc::vocab::{TermId, Vocabulary};
use bingo::textproc::SparseVector;
use proptest::prelude::*;

fn sparse_vec() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..500, -10.0f32..10.0), 0..40).prop_map(SparseVector::from_pairs)
}

proptest! {
    // ---- Sparse vector algebra --------------------------------------

    #[test]
    fn dot_product_is_commutative(a in sparse_vec(), b in sparse_vec()) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-3);
    }

    #[test]
    fn cosine_is_bounded(a in sparse_vec(), b in sparse_vec()) {
        let c = a.cosine(&b);
        prop_assert!((-1.0001..=1.0001).contains(&c), "cosine {c}");
    }

    #[test]
    fn norm_matches_self_dot(a in sparse_vec()) {
        prop_assert!((a.norm().powi(2) - a.dot(&a)).abs() < 1e-2 * (1.0 + a.dot(&a)));
    }

    #[test]
    fn add_scaled_is_linear(a in sparse_vec(), b in sparse_vec(), k in -5.0f32..5.0) {
        let c = a.add_scaled(&b, k);
        // Check on a few probe indices.
        for idx in [0u32, 7, 123, 499] {
            let expect = a.get(idx) + k * b.get(idx);
            prop_assert!((c.get(idx) - expect).abs() < 1e-3,
                "index {idx}: {} vs {expect}", c.get(idx));
        }
    }

    #[test]
    fn entries_sorted_unique_nonzero(a in sparse_vec()) {
        for w in a.entries().windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert!(a.entries().iter().all(|&(_, v)| v != 0.0));
    }

    #[test]
    fn normalized_is_unit_or_empty(a in sparse_vec()) {
        let n = a.normalized();
        if a.is_empty() {
            prop_assert!(n.is_empty());
        } else {
            prop_assert!((n.norm() - 1.0).abs() < 1e-3);
        }
    }

    // ---- Porter stemmer ---------------------------------------------

    #[test]
    fn stemmer_never_grows_words(word in "[a-z]{1,20}") {
        let stem = porter_stem(&word);
        prop_assert!(stem.len() <= word.len(), "{word} -> {stem}");
        prop_assert!(!stem.is_empty());
        prop_assert!(stem.is_ascii());
    }

    #[test]
    fn stemmer_is_deterministic(word in "[a-z]{1,20}") {
        prop_assert_eq!(porter_stem(&word), porter_stem(&word));
    }

    // ---- Vocabulary ---------------------------------------------------

    #[test]
    fn vocabulary_intern_lookup_roundtrip(words in proptest::collection::vec("[a-z]{1,10}", 1..50)) {
        let mut v = Vocabulary::new();
        let ids: Vec<TermId> = words.iter().map(|w| v.intern(w)).collect();
        for (w, &id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.lookup(w), Some(id));
            prop_assert_eq!(v.term(id), w.as_str());
        }
        // Interning again returns identical ids.
        for (w, &id) in words.iter().zip(&ids) {
            prop_assert_eq!(v.intern(w), id);
        }
    }

    // ---- tf·idf --------------------------------------------------------

    #[test]
    fn idf_is_monotone_in_rarity(
        df_counts in proptest::collection::vec(1u32..50, 2..10),
    ) {
        let mut stats = CorpusStats::new();
        let max_df = *df_counts.iter().max().unwrap();
        // Build documents such that term t appears in df_counts[t] docs.
        for doc in 0..max_df {
            let terms: Vec<TermId> = df_counts
                .iter()
                .enumerate()
                .filter(|&(_, &df)| doc < df)
                .map(|(t, _)| TermId(t as u32))
                .collect();
            stats.add_document(terms);
        }
        for (t1, &df1) in df_counts.iter().enumerate() {
            for (t2, &df2) in df_counts.iter().enumerate() {
                if df1 < df2 {
                    prop_assert!(
                        stats.idf(TermId(t1 as u32)) >= stats.idf(TermId(t2 as u32)),
                        "rarer term must have >= idf"
                    );
                }
            }
        }
    }

    // ---- Frontier -------------------------------------------------------

    #[test]
    fn frontier_pops_in_priority_order(
        priorities in proptest::collection::vec(0.0f32..100.0, 1..60),
    ) {
        let mut f = Frontier::new(1, 1000, 100);
        for (i, &p) in priorities.iter().enumerate() {
            let mut e = QueueEntry::seed(&format!("http://h/p{i}"), Some(0));
            e.priority = p;
            f.push(e);
        }
        let mut last = f32::INFINITY;
        let mut popped = 0;
        while let Some(e) = f.pop() {
            prop_assert!(e.priority <= last + 1e-4,
                "priority order violated: {} after {last}", e.priority);
            last = e.priority;
            popped += 1;
        }
        prop_assert_eq!(popped, priorities.len());
    }

    #[test]
    fn frontier_capacity_never_exceeded(
        n in 1usize..200,
    ) {
        let mut f = Frontier::new(1, 20, 5);
        for i in 0..n {
            let mut e = QueueEntry::seed(&format!("http://h/p{i}"), Some(0));
            e.priority = (i % 17) as f32;
            f.push(e);
        }
        prop_assert!(f.len() <= 25 + 5, "len {}", f.len());
    }

    #[test]
    fn frontier_priority_is_total_order_under_ties(
        // Few distinct priorities → many ties; the pop order must still
        // be deterministic (a total order, not a partial one).
        priorities in proptest::collection::vec(0u8..4, 1..50),
    ) {
        let build = || {
            let mut f = Frontier::new(1, 1000, 100);
            for (i, &p) in priorities.iter().enumerate() {
                let mut e = QueueEntry::seed(&format!("http://h/p{i}"), Some(0));
                e.priority = p as f32;
                f.push(e);
            }
            f
        };
        let drain = |mut f: Frontier| {
            let mut urls = Vec::new();
            let mut last = f32::INFINITY;
            while let Some(e) = f.pop() {
                prop_assert!(e.priority <= last + 1e-4, "order violated");
                last = e.priority;
                urls.push(e.url);
            }
            Ok(urls)
        };
        let a = drain(build())?;
        let b = drain(build())?;
        prop_assert_eq!(a.len(), priorities.len());
        prop_assert_eq!(a, b);
    }

    // ---- Dedup ---------------------------------------------------------

    #[test]
    fn dedup_url_marking_is_idempotent(urls in proptest::collection::vec("[a-z]{1,12}", 1..40)) {
        let mut d = Dedup::new();
        let mut first: std::collections::HashSet<String> = Default::default();
        for u in &urls {
            let fresh = d.mark_url(u);
            prop_assert_eq!(fresh, first.insert(u.clone()));
        }
    }

    #[test]
    fn dedup_signatures_stable_under_path_alias_permutation(
        responses in proptest::collection::vec(
            (0u32..5, "/[a-z]{1,8}", 50u64..60), 1..30),
        rot in 0usize..30,
    ) {
        // The same set of (IP, path, size) responses — e.g. path aliases
        // of one another — produces identical fingerprint state no
        // matter the order the crawler encounters them in.
        let mark_all = |order: &[(u32, String, u64)]| {
            let mut d = Dedup::new();
            for (ip, path, size) in order {
                d.mark_response(*ip, path, *size);
            }
            d.snapshot()
        };
        let forward = mark_all(&responses);
        let mut permuted = responses.clone();
        let rot = rot % permuted.len();
        permuted.rotate_left(rot);
        permuted.reverse();
        let backward = mark_all(&permuted);
        prop_assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
    }

    // ---- Circuit breaker ------------------------------------------------

    #[test]
    fn breaker_never_closes_without_successful_probe(
        ops in proptest::collection::vec((0u8..3, 1u64..2000), 1..80),
    ) {
        use bingo::crawler::hosts::{BreakerConfig, BreakerState, HostManager};
        let mut m = HostManager::with_config(BreakerConfig {
            failure_threshold: 2,
            base_backoff_ms: 100,
            max_backoff_ms: 1000,
            jitter_permille: 250,
            max_open_cycles: 3,
        });
        let mut now = 0u64;
        for &(op, dt) in &ops {
            now += dt;
            let before = m.breaker_state("h");
            match op {
                0 => { m.record_failure("h", now); }
                1 => { m.record_success("h"); }
                _ => { m.decide("h", now); }
            }
            let after = m.breaker_state("h");
            // The only path back to Closed is a successful probe from
            // HalfOpen: an Open breaker can never jump straight to
            // Closed, and nothing resurrects a Dead host.
            if matches!(before, BreakerState::Open { .. }) {
                prop_assert_ne!(after, BreakerState::Closed);
            }
            if before == BreakerState::Dead {
                prop_assert_eq!(after, BreakerState::Dead);
            }
            if before == BreakerState::HalfOpen && after == BreakerState::Closed {
                prop_assert_eq!(op, 1);
            }
        }
    }

    // ---- SVM -------------------------------------------------------------

    #[test]
    fn svm_separates_disjoint_supports(seed in 0u64..500) {
        // Positives on features 0..10, negatives on 10..20.
        let mut set = TrainingSet::new();
        for i in 0..12u32 {
            let f = i % 10;
            set.push(SparseVector::from_pairs(vec![(f, 1.0), (20, 0.1)]), true);
            set.push(SparseVector::from_pairs(vec![(10 + f, 1.0), (20, 0.1)]), false);
        }
        let model = LinearSvm::new(SvmConfig { seed, ..SvmConfig::default() })
            .train(&set)
            .unwrap();
        for (x, label) in &set.examples {
            prop_assert_eq!(model.confidence(x) >= 0.0, *label);
        }
    }
}
