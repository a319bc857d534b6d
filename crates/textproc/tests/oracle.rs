//! The one-pass analyzer against the composition it replaced.
//!
//! `reference` is the analyzer as it was written before the scan/memo
//! rewrite: parse the whole page, tokenize the whole text into `String`s,
//! stem and intern every occurrence, count frequencies in a hash map.
//! `analyze_html` must return the same document and leave the same
//! dictionary behind — for both interners, with a full memo, on a thread
//! whose memo keeps changing dictionaries, and through the lookahead's
//! read-only view of a dictionary.

use bingo_textproc::{
    analyze_html, html, porter_stem, AnalyzedDocument, AnalyzedLink, KnownTerms, SharedVocabulary,
    TermId, Tokenizer, Vocabulary,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

fn reference(html_text: &str, vocab: &mut Vocabulary) -> AnalyzedDocument {
    let parsed = html::parse(html_text);
    let terms: Vec<TermId> = Tokenizer::default()
        .tokens(&parsed.text)
        .map(|token| vocab.intern(&porter_stem(&token)))
        .collect();
    let mut freq_map: HashMap<TermId, u32> = HashMap::new();
    for &t in &terms {
        *freq_map.entry(t).or_insert(0) += 1;
    }
    let mut term_freqs: Vec<(TermId, u32)> = freq_map.into_iter().collect();
    term_freqs.sort_unstable_by_key(|&(t, _)| t);
    let anchor_tokenizer = Tokenizer::for_anchor_text();
    let links = parsed
        .links
        .iter()
        .map(|l| AnalyzedLink {
            href: l.href.clone(),
            anchor_terms: anchor_tokenizer
                .tokens(&l.anchor)
                .map(|t| vocab.intern(&porter_stem(&t)))
                .collect(),
        })
        .collect();
    AnalyzedDocument {
        title: parsed.title,
        terms,
        term_freqs,
        links,
    }
}

fn terms_of(vocab: &Vocabulary) -> Vec<String> {
    vocab.iter().map(|(_, t)| t.to_string()).collect()
}

/// Arbitrary tag soup: the pieces named in the analyzer's cost model —
/// mixed-case and spaced tags, entities (also inside words), comments,
/// raw-text elements, nested and unclosed anchors, non-ASCII letters and
/// whitespace, and tokens on both sides of the 2..=32 length limits.
fn soup() -> impl Strategy<Value = String> {
    const FIXED: &[&str] = &[
        "<p>",
        "<P>",
        "<Br/>",
        "</p",
        "<TITLE>",
        "<title>",
        "</Title>",
        "<a href=\"http://x/a\">",
        "<A HREF='u/v'>",
        "<a class=\"x\"href=\"y\">",
        "<a name=top>",
        "<a hreflang=en href=bare>",
        "</a>",
        "</A >",
        "<script>",
        "<SCRIPT type=x>",
        "</SCRIPT >",
        "</script>",
        "<STYLE>",
        "</Style>",
        "<!--",
        "-->",
        "<",
        ">",
        "&amp;",
        "AT&amp;T",
        "R&amp;D",
        "&lt;",
        "&gt;",
        "&quot;",
        "&apos;",
        "&nbsp;",
        "&bogus;",
        "&",
        " ",
        "\n",
        "\u{a0}",
        "\u{2003}",
        "-",
        "42",
        "x",
        "ab",
        "the",
        "The",
        "click",
        "Here",
        "Café",
        "ÜBER",
        "naïve",
        "straße",
        "İstanbul",
        "ΣΟΦΟΣ",
        "数据库",
        "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq",
        "Qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqqq",
        "ééééééééééééééé",
        "éééééééééééééééé",
        "ééééééééééééééééé",
        "serializability",
        "Internationalization",
        "Databases",
        "mining",
        "MINING",
    ];
    let fixed = || (0..FIXED.len()).prop_map(|i| FIXED[i].to_string());
    // The vendored `prop_oneof!` draws its arms uniformly; repeats weigh.
    let piece = prop_oneof![
        fixed(),
        fixed(),
        fixed(),
        "[a-zA-Z]{1,12}",
        "[a-zA-Z]{1,12}",
        "[a-z]{14,18}",
        ".{0,6}",
    ];
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| {
        let mut out = String::new();
        for (i, piece) in pieces.iter().enumerate() {
            out.push_str(piece);
            // Mostly space-separated words, sometimes glued pieces.
            if i % 3 != 0 {
                out.push(' ');
            }
        }
        out
    })
}

fn corpus() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(soup(), 1..6)
}

/// A dictionary whose memo has taken all the tokens it ever will, and the
/// reference dictionary holding the same terms.
fn saturated() -> &'static (Vocabulary, Vocabulary) {
    static PAIR: OnceLock<(Vocabulary, Vocabulary)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let (mut fast, mut slow) = (Vocabulary::new(), Vocabulary::new());
        // More distinct tokens than the memo's documented 12,288.
        let page: Vec<String> = (0..14_000u32)
            .map(|n| {
                (0..4)
                    .map(|place| char::from(b'a' + (n / 26u32.pow(place) % 26) as u8))
                    .chain("zq".chars())
                    .collect()
            })
            .collect();
        let page = page.join(" ");
        assert_eq!(analyze_html(&page, &mut fast), reference(&page, &mut slow));
        (fast, slow)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn vocabulary_matches_reference(pages in corpus()) {
        let (mut fast, mut slow) = (Vocabulary::new(), Vocabulary::new());
        // Twice over, so the second round is answered from the memo.
        for page in pages.iter().chain(&pages) {
            prop_assert_eq!(analyze_html(page, &mut fast), reference(page, &mut slow));
        }
        prop_assert_eq!(terms_of(&fast), terms_of(&slow));
    }

    #[test]
    fn shared_vocabulary_matches_reference(pages in corpus()) {
        let fast = SharedVocabulary::new();
        let mut slow = Vocabulary::new();
        for page in pages.iter().chain(&pages) {
            prop_assert_eq!(analyze_html(page, &mut &fast), reference(page, &mut slow));
        }
        prop_assert_eq!(terms_of(&fast.snapshot()), terms_of(&slow));
    }

    #[test]
    fn full_memo_matches_reference(pages in corpus()) {
        let (mut fast, mut slow) = saturated().clone();
        for page in pages.iter().chain(&pages) {
            prop_assert_eq!(analyze_html(page, &mut fast), reference(page, &mut slow));
        }
        prop_assert_eq!(terms_of(&fast), terms_of(&slow));
    }

    /// The lookahead's view of a replica that knows every stem, and more
    /// terms past the view: the reference's analysis, ids included, with
    /// nothing interned. One stem the view lacks — absent from the
    /// dictionary, or present but past the view — makes a page unknown.
    #[test]
    fn known_terms_matches_reference(pages in corpus()) {
        let mut slow = Vocabulary::new();
        let want: Vec<AnalyzedDocument> = pages.iter().map(|page| reference(page, &mut slow)).collect();
        let unknown = (b'a'..=b'z')
            .map(|c| format!("unknown{}", char::from(c)))
            .find(|word| slow.lookup(&porter_stem(word)).is_none())
            .expect("a stem the replica lacks");
        let mut replica = slow.clone();
        let len = replica.len();
        replica.intern(&porter_stem(&unknown));
        for (page, want) in pages.iter().chain(&pages).zip(want.iter().chain(&want)) {
            let mut view = KnownTerms::new(&mut replica, len);
            prop_assert_eq!(&analyze_html(page, &mut view), want);
            prop_assert!(view.all_known());
        }
        let page = format!("<p>{unknown}</p> {}", pages[0]);
        for dictionary in [&mut replica, &mut slow] {
            let mut view = KnownTerms::new(dictionary, len);
            analyze_html(&page, &mut view);
            prop_assert!(!view.all_known());
        }
        prop_assert_eq!(replica.len(), len + 1, "a view never interns");
        prop_assert_eq!(slow.len(), len, "a view never interns");
    }

    /// One thread, two shared dictionaries that number the same words
    /// differently, pages dealt to them alternately: the thread's memo
    /// must never answer for the dictionary it met before.
    #[test]
    fn one_thread_alternating_dictionaries(pages in corpus()) {
        let mut seed = Vocabulary::new();
        for word in ["zebra", "mine", "databas"] {
            seed.intern(word);
        }
        let fast = [SharedVocabulary::new(), SharedVocabulary::seeded(&seed)];
        let mut slow = [Vocabulary::new(), seed.clone()];
        for (i, page) in pages.iter().chain(&pages).enumerate() {
            let which = i % 2;
            prop_assert_eq!(
                analyze_html(page, &mut &fast[which]),
                reference(page, &mut slow[which])
            );
            // The same page straight into the other dictionary, so every
            // token of it is in the memo under the wrong dictionary's id.
            prop_assert_eq!(
                analyze_html(page, &mut &fast[1 - which]),
                reference(page, &mut slow[1 - which])
            );
        }
        for which in 0..2 {
            prop_assert_eq!(terms_of(&fast[which].snapshot()), terms_of(&slow[which]));
        }
    }
}

/// A page of stopwords is known to any view, even an empty one, and
/// whether its stopwords are decided afresh or answered from the memo:
/// a stopword creates no id and is never unknown.
#[test]
fn stopwords_are_known_to_an_empty_view() {
    let page = "The <b>and</B> OF a <a href=\"x\">the</a> between";
    let mut empty = Vocabulary::new();
    for _ in 0..2 {
        let mut view = KnownTerms::new(&mut empty, 0);
        let doc = analyze_html(page, &mut view);
        assert!(view.all_known());
        assert!(doc.terms.is_empty() && doc.links[0].anchor_terms.is_empty());
    }
    assert!(empty.is_empty());
}
