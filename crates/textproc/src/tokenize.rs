//! Tokenization: lowercasing, alphabetic token extraction and stopword
//! elimination (Section 2.2).

use crate::stopwords::{self, StopList};

/// Token length limits: tokens outside this range carry no topical signal
/// (single letters, base64 blobs, crawler-trap noise).
const MIN_TOKEN_LEN: usize = 2;
const MAX_TOKEN_LEN: usize = 32;

/// Longest token, in bytes, with a [`Key`]; longer ones (none in the
/// generated lexicons, under 0.1% of English words) come as text.
pub(crate) const KEY_LEN: usize = 16;

/// A lowercase token's bytes, zero-padded. A token holds no zero byte and
/// at least two bytes, so the all-zero key is no token's.
pub(crate) type Key = [u8; KEY_LEN];

/// A lowercase token inside the length limits, stopword or not.
pub(crate) enum RawToken<'a> {
    /// A token of at most [`KEY_LEN`] bytes, as its key.
    Key(&'a Key),
    /// A longer token, as its text.
    Text(&'a str),
}

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
        RawTokens { rest: text }.filter(|token| match stopwords::list_of(token) {
            Some(StopList::Basic) => false,
            Some(StopList::Anchor) => !self.anchor_mode,
            None => true,
        })
    }
}

/// Call `f` with every raw token of `text` in order: the tokens both
/// [`Tokenizer`]s see before their stopword lists. ASCII text (where
/// `char::is_alphabetic` and `to_lowercase` are their ASCII namesakes) is
/// scanned 64 bytes at a time: a bit mask marks its letters, token edges
/// are the mask's changes, and each key is built in place from the input
/// (`| 0x20` lowercases an ASCII letter). Non-ASCII text takes the `char`
/// path of [`Tokenizer::tokens`]. Only tokens without a key allocate.
pub(crate) fn for_each_raw_token(text: &str, mut f: impl FnMut(RawToken<'_>)) {
    if !text.is_ascii() {
        for token in (RawTokens { rest: text }) {
            let mut key = Key::default();
            match key.get_mut(..token.len()) {
                Some(head) => {
                    head.copy_from_slice(token.as_bytes());
                    f(RawToken::Key(&key));
                }
                None => f(RawToken::Text(&token)),
            }
        }
        return;
    }
    let bytes = text.as_bytes();
    let (mut start, mut in_token) = (0, false);
    for (block, chunk) in bytes.chunks(64).enumerate() {
        let mut letters = 0u64;
        for (i, &byte) in chunk.iter().enumerate() {
            letters |= u64::from((byte | 0x20).wrapping_sub(b'a') < 26) << i;
        }
        let mut edges = letters ^ (letters << 1 | u64::from(in_token));
        while edges != 0 {
            let at = block * 64 + edges.trailing_zeros() as usize;
            if in_token {
                emit(bytes, start, at, &mut f);
            }
            (start, in_token) = (at, !in_token);
            edges &= edges - 1;
        }
    }
    if in_token {
        emit(bytes, start, bytes.len(), &mut f);
    }
}

/// Hand the letters `bytes[start..end]` to `f` if their number is inside
/// the limits.
fn emit(bytes: &[u8], start: usize, end: usize, f: &mut impl FnMut(RawToken<'_>)) {
    let raw = &bytes[start..end];
    if (MIN_TOKEN_LEN..=KEY_LEN).contains(&raw.len()) {
        // Sixteen bytes from `start` where the text has them: a load and
        // a mask, not a copy of `len` bytes.
        let mut padded = [0u8; KEY_LEN];
        match bytes.get(start..start + KEY_LEN) {
            Some(wide) => padded.copy_from_slice(wide),
            None => padded[..raw.len()].copy_from_slice(raw),
        }
        let kept = u128::MAX >> (128 - 8 * raw.len());
        let key = (u128::from_le_bytes(padded) | u128::from_le_bytes([0x20; KEY_LEN])) & kept;
        f(RawToken::Key(&key.to_le_bytes()));
    } else if (KEY_LEN..=MAX_TOKEN_LEN).contains(&raw.len()) {
        let token = std::str::from_utf8(raw).expect("ASCII letters are UTF-8");
        f(RawToken::Text(&token.to_ascii_lowercase()));
    }
}

/// The raw tokens of `rest` by the `char` definitions, lowercased.
struct RawTokens<'a> {
    rest: &'a str,
}

impl Iterator for RawTokens<'_> {
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
            if (MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&raw.len()) {
                return Some(raw.to_lowercase());
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
