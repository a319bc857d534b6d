//! Stopword elimination (Section 2.2), with the extended list for anchor
//! texts (Section 3.4: "it is very crucial to use an extended form of
//! stopword elimination on anchor texts" to remove phrases such as
//! "click here").

use crate::fxhash::FxHashMap;
use std::sync::OnceLock;

/// Standard English stopword list used by the document analyzer.
pub const BASIC_STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Additional web-navigation stopwords applied to anchor texts only.
pub const ANCHOR_STOPWORDS: &[&str] = &[
    "click",
    "here",
    "link",
    "page",
    "home",
    "next",
    "previous",
    "prev",
    "back",
    "top",
    "bottom",
    "more",
    "read",
    "readme",
    "goto",
    "go",
    "site",
    "website",
    "webpage",
    "index",
    "main",
    "menu",
    "contents",
    "table",
    "welcome",
    "download",
    "email",
    "mail",
    "contact",
    "last",
    "updated",
    "copyright",
    "disclaimer",
];

/// The list a stopword is on. The anchor list contains the basic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopList {
    /// [`BASIC_STOPWORDS`]: dropped from body and anchor text alike.
    Basic,
    /// [`ANCHOR_STOPWORDS`] only: a body term, dropped from anchor texts.
    Anchor,
}

/// The list `word` (lowercase) is on, if any: one probe answers both.
pub fn list_of(word: &str) -> Option<StopList> {
    static MAP: OnceLock<FxHashMap<&'static str, StopList>> = OnceLock::new();
    let map = MAP.get_or_init(|| {
        let anchor = ANCHOR_STOPWORDS.iter().map(|&w| (w, StopList::Anchor));
        // Basic last: a word on both lists ("more") is a basic stopword.
        let basic = BASIC_STOPWORDS.iter().map(|&w| (w, StopList::Basic));
        anchor.chain(basic).collect()
    });
    map.get(word).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stopwords() {
        assert_eq!(list_of("the"), Some(StopList::Basic));
        assert_eq!(list_of("and"), Some(StopList::Basic));
        assert_eq!(list_of("database"), None);
    }

    #[test]
    fn anchor_stopwords_are_superset() {
        assert_eq!(list_of("click"), Some(StopList::Anchor));
        assert_eq!(list_of("here"), Some(StopList::Basic));
        assert_eq!(list_of("more"), Some(StopList::Basic), "on both lists");
        assert_eq!(list_of("aries"), None);
    }

    #[test]
    fn lists_have_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for w in BASIC_STOPWORDS {
            assert!(seen.insert(*w), "duplicate basic stopword {w}");
        }
        let mut seen = std::collections::HashSet::new();
        for w in ANCHOR_STOPWORDS {
            assert!(seen.insert(*w), "duplicate anchor stopword {w}");
        }
    }
}
