//! Property-based tests of the sharded shared vocabulary: what each
//! document holds, read as term text through the run's own dictionary,
//! must not depend on thread count, scheduling, or the order documents
//! arrive in — and the seed terms keep their ids.

use bingo_textproc::{analyze_html, Interner, SharedVocabulary, TermId, Vocabulary};
use proptest::prelude::*;

/// Analyze `docs` on `threads` OS threads against one shared dictionary
/// and return its snapshot plus the terms of every document as text
/// (sorted so results are comparable across runs).
fn analyze_sharded(
    docs: &[String],
    seed: &Vocabulary,
    threads: usize,
) -> (Vocabulary, Vec<Vec<String>>) {
    let shared = SharedVocabulary::seeded(seed);
    let mut raw_ids: Vec<Vec<TermId>> = vec![Vec::new(); docs.len()];
    std::thread::scope(|scope| {
        let mut rest = &mut raw_ids[..];
        let chunk = docs.len().div_ceil(threads.max(1)).max(1);
        for batch in docs.chunks(chunk) {
            let (head, tail) = rest.split_at_mut(batch.len().min(rest.len()));
            rest = tail;
            let shared = &shared;
            scope.spawn(move || {
                for (slot, html) in head.iter_mut().zip(batch) {
                    let doc = analyze_html(html, &mut &*shared);
                    *slot = doc.terms;
                }
            });
        }
    });
    let vocab = shared.snapshot();
    let per_doc = raw_ids
        .into_iter()
        .map(|terms| {
            let mut text: Vec<String> = terms.iter().map(|&t| vocab.term(t).to_string()).collect();
            text.sort_unstable();
            text
        })
        .collect();
    (vocab, per_doc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Analyzing a shuffled corpus at 1, 2 and 8 threads interns the same
    /// term set, keeps the seed ids, and gives every document the same
    /// terms.
    #[test]
    fn document_terms_independent_of_thread_count_and_order(
        words in proptest::collection::vec("[a-z]{2,8}", 4..40),
        shuffle in proptest::collection::vec(any::<u64>(), 12),
        seed_words in proptest::collection::vec("[a-z]{2,8}", 0..6),
    ) {
        // Build a small corpus of HTML documents over the word pool.
        let docs: Vec<String> = (0..12usize)
            .map(|i| {
                let body: Vec<&str> = (0..6)
                    .map(|j| words[(i * 7 + j * 5 + shuffle[i] as usize) % words.len()].as_str())
                    .collect();
                format!("<html><body>{}</body></html>", body.join(" "))
            })
            .collect();
        let mut seed = Vocabulary::new();
        for w in &seed_words {
            Interner::intern(&mut seed, w);
        }

        let mut shuffled = docs.clone();
        // Deterministic shuffle driven by the generated entropy.
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, shuffle[i % shuffle.len()] as usize % (i + 1));
        }

        let (v1, ids1) = analyze_sharded(&docs, &seed, 1);
        let (v2, mut ids2) = analyze_sharded(&shuffled, &seed, 2);
        let (v8, mut ids8) = analyze_sharded(&shuffled, &seed, 8);

        // Same term set; ids past the seed are arrival-ordered.
        let terms = |v: &Vocabulary| -> Vec<String> {
            let mut terms: Vec<String> = v.iter().map(|(_, t)| t.to_string()).collect();
            terms.sort_unstable();
            terms
        };
        prop_assert_eq!(terms(&v1), terms(&v2));
        prop_assert_eq!(terms(&v1), terms(&v8));
        // Seed ids survive in place.
        for v in [&v1, &v2, &v8] {
            for (id, term) in seed.iter() {
                prop_assert_eq!(v.lookup(term), Some(id));
            }
        }

        // Same terms per document regardless of interleaving. The
        // shuffled runs analyzed a permuted corpus; compare as sets of
        // per-document term lists.
        let mut ids1 = ids1;
        ids1.sort();
        ids2.sort();
        ids8.sort();
        prop_assert_eq!(&ids1, &ids2);
        prop_assert_eq!(&ids1, &ids8);
    }
}

/// Every thread analyzes *every* page, so each thread's memo fills with
/// the same tokens while the others race it to intern their stems. Each
/// thread's documents, read as term text, must be the single-threaded
/// `Vocabulary` result read as term text.
#[test]
fn threads_analyzing_the_same_pages_agree_with_one_thread() {
    const THREADS: usize = 4;
    let words = [
        "Recovery",
        "recovering",
        "logs",
        "LOGGING",
        "the",
        "click",
        "here",
        "naïve",
        "Café",
        "serializability",
        "mining",
        "mined",
        "AT&amp;T",
        "databases",
        "x",
        "joins",
        "Über",
    ];
    let pages: Vec<String> = (0..40usize)
        .map(|i| {
            let word = |j: usize| words[(i * 5 + j * 3) % words.len()];
            format!(
                "<title>{} {}</title><p>{} {} <b>{}</b> {}</p><a href=\"/p{i}\">{} {}</a>",
                word(0),
                word(1),
                word(2),
                word(3),
                word(4),
                word(5),
                word(6),
                word(7),
            )
        })
        .collect();
    let mut seed = Vocabulary::new();
    for w in ["mine", "zebra"] {
        seed.intern(w);
    }

    let mut single = seed.clone();
    let expected: Vec<_> = pages.iter().map(|p| analyze_html(p, &mut single)).collect();

    let shared = SharedVocabulary::seeded(&seed);
    let barrier = std::sync::Barrier::new(THREADS);
    let per_thread: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, barrier, pages) = (&shared, &barrier, &pages);
                scope.spawn(move || {
                    barrier.wait();
                    // Staggered starts: no two threads meet the words in
                    // the same order.
                    let mut docs: Vec<_> = (0..pages.len())
                        .map(|i| (i * 7 + t * 11) % pages.len())
                        .map(|i| (i, analyze_html(&pages[i], &mut &*shared)))
                        .collect();
                    docs.sort_by_key(|&(i, _)| i);
                    docs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let threaded = shared.snapshot();
    let sorted_terms = |v: &Vocabulary| {
        let mut terms: Vec<String> = v.iter().map(|(_, t)| t.to_string()).collect();
        terms.sort_unstable();
        terms
    };
    assert_eq!(sorted_terms(&threaded), sorted_terms(&single));
    for (id, term) in seed.iter() {
        assert_eq!(threaded.lookup(term), Some(id), "seed id of {term}");
    }

    let as_text = |doc: &bingo_textproc::AnalyzedDocument, vocab: &Vocabulary| {
        let text = |t: &TermId| vocab.term(*t).to_string();
        (
            doc.title.clone(),
            doc.terms.iter().map(text).collect::<Vec<_>>(),
            doc.links
                .iter()
                .map(|l| (l.href.clone(), l.anchor_terms.iter().map(text).collect()))
                .collect::<Vec<(String, Vec<String>)>>(),
        )
    };
    for docs in &per_thread {
        assert_eq!(docs.len(), pages.len());
        for ((i, doc), want) in docs.iter().zip(&expected) {
            assert_eq!(as_text(doc, &threaded), as_text(want, &single), "page {i}");
        }
    }
}
