//! Tokenization: lowercasing, alphabetic token extraction and stopword
//! elimination (Section 2.2).

use crate::stopwords;

/// Token length limits: tokens outside this range carry no topical signal
/// (single letters, base64 blobs, crawler-trap noise).
const MIN_TOKEN_LEN: usize = 2;
const MAX_TOKEN_LEN: usize = 32;

/// A configurable tokenizer. The default configuration matches the paper's
/// analyzer (basic stopwords); [`Tokenizer::for_anchor_text`] applies the
/// extended anchor stopword list of Section 3.4.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    anchor_mode: bool,
}

impl Tokenizer {
    /// Tokenizer with the extended stopword list for anchor texts.
    pub fn for_anchor_text() -> Self {
        Tokenizer { anchor_mode: true }
    }

    /// Iterate over normalized (lowercased, stopword-filtered) tokens of
    /// `text`. Tokens are maximal runs of alphabetic characters; digits and
    /// punctuation are separators.
    pub fn tokens<'a>(&'a self, text: &'a str) -> impl Iterator<Item = String> + 'a {
        TokenIter {
            rest: text,
            tokenizer: self,
        }
    }

    /// Call `f` with every token [`tokens`](Self::tokens) would yield, in
    /// order, without allocating one `String` per token. ASCII text (where
    /// `char::is_alphabetic` and `to_lowercase` are their ASCII namesakes)
    /// is scanned bytewise: a token already in lowercase is a slice of
    /// `text`, any other is lowercased into a stack buffer. Non-ASCII text
    /// takes the `char` path of `tokens`.
    pub(crate) fn for_each_token(&self, text: &str, mut f: impl FnMut(&str)) {
        if !text.is_ascii() {
            self.tokens(text).for_each(|token| f(&token));
            return;
        }
        let bytes = text.as_bytes();
        let mut buf = [0u8; MAX_TOKEN_LEN];
        let mut end = 0;
        while let Some(skip) = bytes[end..].iter().position(u8::is_ascii_alphabetic) {
            let start = end + skip;
            let len = bytes[start..]
                .iter()
                .position(|b| !b.is_ascii_alphabetic())
                .unwrap_or(bytes.len() - start);
            end = start + len;
            if !(MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&len) {
                continue;
            }
            let mut token = &text[start..end];
            if token.bytes().any(|b| b.is_ascii_uppercase()) {
                let lower = &mut buf[..len];
                lower.copy_from_slice(token.as_bytes());
                lower.make_ascii_lowercase();
                token = std::str::from_utf8(lower).expect("ASCII letters are UTF-8");
            }
            if !self.is_stopword(token) {
                f(token);
            }
        }
    }

    fn is_stopword(&self, lower: &str) -> bool {
        if self.anchor_mode {
            stopwords::is_anchor_stopword(lower)
        } else {
            stopwords::is_stopword(lower)
        }
    }
}

struct TokenIter<'a> {
    rest: &'a str,
    tokenizer: &'a Tokenizer,
}

impl Iterator for TokenIter<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        loop {
            let start = self.rest.find(|c: char| c.is_alphabetic())?;
            let tail = &self.rest[start..];
            let end = tail
                .find(|c: char| !c.is_alphabetic())
                .unwrap_or(tail.len());
            let raw = &tail[..end];
            self.rest = &tail[end..];
            if raw.len() < MIN_TOKEN_LEN || raw.len() > MAX_TOKEN_LEN {
                continue;
            }
            let lower = raw.to_lowercase();
            if !self.tokenizer.is_stopword(&lower) {
                return Some(lower);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(t: &str) -> Vec<String> {
        Tokenizer::default().tokens(t).collect()
    }

    #[test]
    fn splits_on_non_alpha() {
        assert_eq!(toks("foo-bar_baz 42 qux"), vec!["foo", "bar", "baz", "qux"]);
    }

    #[test]
    fn lowercases() {
        assert_eq!(toks("ARIES Recovery"), vec!["aries", "recovery"]);
    }

    #[test]
    fn drops_stopwords() {
        assert_eq!(
            toks("the anatomy of a large scale engine"),
            vec!["anatomy", "large", "scale", "engine"]
        );
    }

    #[test]
    fn drops_single_letters_and_overlong() {
        let long = "x".repeat(40);
        assert_eq!(toks(&format!("q {long} ok")), vec!["ok"]);
    }

    #[test]
    fn anchor_mode_extended_stopwords() {
        let t = Tokenizer::for_anchor_text();
        let got: Vec<String> = t.tokens("click here for the shore release").collect();
        assert_eq!(got, vec!["shore", "release"]);
    }

    #[test]
    fn empty_input() {
        assert!(toks("").is_empty());
        assert!(toks("123 ... !!").is_empty());
    }
}
