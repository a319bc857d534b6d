//! Text processing substrate for the BINGO! focused crawler.
//!
//! This crate implements the *document analyzer* of the paper (Section 2.2)
//! and the richer feature spaces of Section 3.4:
//!
//! * an HTML parser that strips tags, extracts the title, hyperlinks and
//!   their anchor texts ([`html`]),
//! * content handlers that convert non-HTML formats (simulated PDF, Word,
//!   zip archives) into analyzable text ([`content`]),
//! * a tokenizer with stopword elimination ([`tokenize`], [`stopwords`]),
//! * the full Porter stemming algorithm ([`stem`]),
//! * a term dictionary interning strings to dense [`TermId`]s ([`vocab`]),
//! * sparse feature vectors with the algebra the classifier needs
//!   ([`vector`]),
//! * `tf*idf` weighting over a document corpus ([`tfidf`]),
//! * feature-space construction: single terms, sliding-window term pairs,
//!   anchor texts of predecessors, and neighbour-document terms, plus
//!   combined spaces ([`features`]), whose per-page keys are put in order
//!   by a radix sort ([`radix`]).
#![forbid(unsafe_code)]

pub mod content;
pub mod features;
pub mod fxhash;
pub mod html;
pub mod metrics;
pub mod radix;
pub mod stem;
pub mod stopwords;
pub mod tfidf;
pub mod tokenize;
pub mod vector;
pub mod vocab;

pub use content::{ContentHandler, ContentRegistry, MimeType};
pub use features::{DocWeights, DocumentFeatures, FeatureParts, FeatureSpaceKind, PairCounter};
pub use html::{HtmlDocument, Hyperlink};
pub use metrics::{analyze_html_metered, TextprocMetrics};
pub use stem::porter_stem;
pub use tfidf::{CorpusStats, TfIdfWeighter};
pub use tokenize::Tokenizer;
pub use vector::SparseVector;
pub use vocab::{Interner, KnownTerms, SharedVocabulary, TermId, TermLookup, Vocabulary};

use stopwords::StopList;
use tokenize::{Key, RawToken};
use vocab::TokenMemo;

/// A fully analyzed document: the output of the document analyzer that the
/// classifier, the feature selection and the local search engine consume.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalyzedDocument {
    /// Document title (from `<title>` when available, else empty).
    pub title: String,
    /// Stemmed, stopword-free body terms in document order.
    pub terms: Vec<TermId>,
    /// Raw term frequencies over `terms`, sorted by term id.
    pub term_freqs: Vec<(TermId, u32)>,
    /// Outgoing hyperlinks with their (analyzed) anchor terms.
    pub links: Vec<AnalyzedLink>,
}

/// A hyperlink extracted from an analyzed document.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalyzedLink {
    /// Raw target as written in the `href` attribute.
    pub href: String,
    /// Stemmed anchor-text terms (with the extended stopword list of
    /// Section 3.4 applied, removing phrases such as "click here").
    pub anchor_terms: Vec<TermId>,
}

impl AnalyzedDocument {
    /// Total number of body term occurrences.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the document body produced no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Analyze an HTML document end to end: parse, tokenize, stem, intern.
///
/// This is the main entry point equivalent to the paper's document analyzer:
/// it takes raw HTML and produces the bag-of-words representation plus the
/// extracted link structure. Generic over the [`Interner`] so the same
/// analyzer serves the deterministic crawler (`&mut Vocabulary`) and the
/// concurrent pipeline (`&mut &SharedVocabulary`).
///
/// One pass of the scanner behind [`html::parse`], nothing allocated per
/// token, one memo probe per raw token. The result is what tokenizing
/// `parse`'s `text` and then each anchor would give, ids included: an
/// anchor's run is a body run first, so an anchor term is never new.
pub fn analyze_html<I: Interner + ?Sized>(html_text: &str, vocab: &mut I) -> AnalyzedDocument {
    vocab.analyze(html_text)
}

/// The analyzer's kernel, run by each [`Interner`] with its token memo.
/// `resolve` interns a stem, or is `None` where a view lacks it, as is
/// an id from `known` on. Also returns whether every token was known;
/// the tokens after the first that was not are skipped.
pub(crate) fn analyze_page(
    html_text: &str,
    memo: &mut TokenMemo,
    known: u32,
    mut resolve: impl FnMut(&str) -> Option<TermId>,
) -> (AnalyzedDocument, bool) {
    let mut all_known = true;
    // One allocation for the usual page: markup included, prose runs to
    // more than eight bytes per kept token.
    let mut terms = Vec::with_capacity(html_text.len() / 8);
    let mut links = Vec::new();
    let mut anchor_terms = Vec::new();
    let title = html::scan(html_text, |event| match event {
        html::Event::Text { chunk, in_anchor } => tokenize::for_each_raw_token(chunk, |raw| {
            if !all_known {
                return;
            }
            let value = match raw {
                RawToken::Key(key) => remembered(memo, key, &mut resolve),
                RawToken::Text(token) => decide(token, &mut resolve),
            };
            match value {
                Some(TokenMemo::STOPWORD) => {}
                Some(value) if value & !TokenMemo::ANCHOR_STOP < known => {
                    let id = TermId(value & !TokenMemo::ANCHOR_STOP);
                    terms.push(id);
                    if in_anchor && value & TokenMemo::ANCHOR_STOP == 0 {
                        anchor_terms.push(id);
                    }
                }
                _ => all_known = false,
            }
        }),
        html::Event::Link { href } => links.push(AnalyzedLink {
            href,
            anchor_terms: std::mem::take(&mut anchor_terms),
        }),
    });

    let term_freqs = memo.term_freqs(&terms);
    let doc = AnalyzedDocument {
        title,
        terms,
        term_freqs,
        links,
    };
    (doc, all_known)
}

/// The memo's value for the token `key` stands for, decided and
/// remembered on a miss.
fn remembered(
    memo: &mut TokenMemo,
    key: &Key,
    resolve: &mut impl FnMut(&str) -> Option<TermId>,
) -> Option<u32> {
    if let Some(value) = memo.get(key) {
        return Some(value);
    }
    let len = key.iter().position(|&byte| byte == 0).unwrap_or(key.len());
    let token = std::str::from_utf8(&key[..len]).expect("a key holds a token's UTF-8");
    let value = decide(token, resolve)?;
    memo.insert(key, value);
    Some(value)
}

/// The [`TokenMemo`] value of the lowercase raw `token`, worked out in
/// full: one stopword probe, then `porter_stem` and `resolve`.
fn decide(token: &str, resolve: &mut impl FnMut(&str) -> Option<TermId>) -> Option<u32> {
    let list = stopwords::list_of(token);
    if list == Some(StopList::Basic) {
        return Some(TokenMemo::STOPWORD);
    }
    let TermId(id) = resolve(&porter_stem(token))?;
    assert!(id < TokenMemo::ANCHOR_STOP - 1, "term ids fit in 31 bits");
    Some(list.map_or(id, |_| id | TokenMemo::ANCHOR_STOP))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_html_end_to_end() {
        let mut vocab = Vocabulary::new();
        let doc = analyze_html(
            "<html><head><title>Data Mining</title></head>\
             <body>Mining patterns from databases. \
             <a href=\"http://a.example/x\">clustering paper</a></body></html>",
            &mut vocab,
        );
        assert_eq!(doc.title, "Data Mining");
        let stems: Vec<&str> = doc.terms.iter().map(|&t| vocab.term(t)).collect();
        assert!(stems.contains(&"mine"));
        assert!(stems.contains(&"pattern"));
        assert!(stems.contains(&"databas"));
        assert_eq!(doc.links.len(), 1);
        let anchors: Vec<&str> = doc.links[0]
            .anchor_terms
            .iter()
            .map(|&t| vocab.term(t))
            .collect();
        assert!(anchors.contains(&"cluster"));
    }

    #[test]
    fn term_freqs_are_sorted_and_consistent() {
        let mut vocab = Vocabulary::new();
        let doc = analyze_html("<p>alpha beta alpha gamma alpha beta</p>", &mut vocab);
        let total: u32 = doc.term_freqs.iter().map(|&(_, f)| f).sum();
        assert_eq!(total as usize, doc.terms.len());
        for w in doc.term_freqs.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn empty_document() {
        let mut vocab = Vocabulary::new();
        let doc = analyze_html("", &mut vocab);
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 0);
        assert!(doc.term_freqs.is_empty());
    }
}
