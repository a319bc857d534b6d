//! The flat relations of the crawl database (Section 4.1: "a schema with
//! 24 flat relations" — here the two the crawl writes: documents and
//! links).

use bingo_graph::{HostId, PageId};
use bingo_textproc::MimeType;
use serde::{Deserialize, Serialize};

/// One crawled, analyzed, classified document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DocumentRow {
    /// Stable page id (shared with the web graph).
    pub id: PageId,
    /// Canonical URL the document was fetched from.
    pub url: String,
    /// Host the document lives on.
    pub host: HostId,
    /// MIME type as served.
    pub mime: MimeType,
    /// Crawl depth at which the page was reached.
    pub depth: u32,
    /// Document title.
    pub title: String,
    /// Topic node the classifier assigned (None = unclassified/OTHERS).
    pub topic: Option<u32>,
    /// Classification confidence (signed hyperplane distance).
    pub confidence: f32,
    /// Bag-of-words: `(feature index, frequency)`, sorted by index.
    pub term_freqs: Vec<(u32, u32)>,
    /// Size in bytes of the fetched payload.
    pub size: usize,
    /// Virtual timestamp (ms) of the fetch.
    pub fetched_at: u64,
}

/// The fields of a stored document that a reader can take without
/// decoding its `term_freqs`: what ranking reads of every match, and of
/// the top hits ([`crate::DocumentStore::with_head`]). The url and title
/// are read only when asked for, so reading the scalars touches no text.
#[derive(Clone, Copy)]
pub struct DocumentHead<'a> {
    /// Host the document lives on.
    pub host: HostId,
    /// Topic node the classifier assigned (None = unclassified/OTHERS).
    pub topic: Option<u32>,
    /// Classification confidence (signed hyperplane distance).
    pub confidence: f32,
    /// Url, then title: each a byte range of a string.
    pub(crate) text: [(&'a str, usize, usize); 2],
}

impl<'a> DocumentHead<'a> {
    /// Canonical URL the document was fetched from.
    pub fn url(&self) -> &'a str {
        let (text, start, end) = self.text[0];
        &text[start..end]
    }

    /// Document title.
    pub fn title(&self) -> &'a str {
        let (text, start, end) = self.text[1];
        &text[start..end]
    }
}

/// One hyperlink row (log-style: duplicates allowed; the store maintains
/// a deduplicated edge index on top).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkRow {
    /// Source page.
    pub from: PageId,
    /// Target page id (deterministically derived from the URL).
    pub to: PageId,
    /// Raw target URL, kept for redirect bookkeeping and debugging.
    pub to_url: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_row_roundtrips_through_serde() {
        let row = DocumentRow {
            id: 7,
            url: "http://db.example/aries".into(),
            host: 3,
            mime: MimeType::Pdf,
            depth: 2,
            title: "ARIES".into(),
            topic: Some(1),
            confidence: 0.75,
            term_freqs: vec![(0, 3), (5, 1)],
            size: 1234,
            fetched_at: 99,
        };
        let json = serde_json::to_string(&row).unwrap();
        let back: DocumentRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, row);
    }
}
