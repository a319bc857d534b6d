//! A small, forgiving HTML parser: tag stripping, title extraction, and
//! hyperlink + anchor-text extraction (Sections 2.1-2.2).
//!
//! It is not a full HTML5 tree builder; it handles what a crawler needs
//! from real-world tag soup: nested/unclosed tags, attributes with single,
//! double or no quotes, comments, `script`/`style` content skipping, and
//! the common character entities.

use std::borrow::Cow;

/// A parsed HTML document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HtmlDocument {
    /// Contents of the first `<title>` element, whitespace-normalized.
    pub title: String,
    /// Visible text with tags removed, whitespace-normalized.
    pub text: String,
    /// All `<a href=...>` hyperlinks in document order.
    pub links: Vec<Hyperlink>,
}

/// One extracted `<a>` element.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hyperlink {
    /// The raw `href` attribute value.
    pub href: String,
    /// Text between `<a>` and `</a>`, whitespace-normalized.
    pub anchor: String,
}

/// What [`scan`] hands its sink, in document order.
#[derive(Debug)]
pub(crate) enum Event<'a> {
    /// One run of visible text between two tags, entities decoded. Any tag
    /// separates words, so a token never spans two runs: tokenizing run by
    /// run equals tokenizing [`HtmlDocument::text`].
    Text {
        /// The run; never empty, whitespace as written.
        chunk: &'a str,
        /// True when the run also belongs to the open `<a href>`.
        in_anchor: bool,
    },
    /// The open `<a href>` closed (at `</a>`, a nested `<a>` or the end of
    /// input); its text is the `in_anchor` runs since the last `Link`.
    Link {
        /// The raw `href` attribute value.
        href: String,
    },
}

/// Parse an HTML string.
pub fn parse(input: &str) -> HtmlDocument {
    let mut text = String::with_capacity(input.len() / 2);
    let mut anchor = String::new();
    let mut links = Vec::new();
    let title = scan(input, |event| match event {
        Event::Text { chunk, in_anchor } => {
            push_words(&mut text, chunk);
            if in_anchor {
                push_words(&mut anchor, chunk);
            }
        }
        Event::Link { href } => links.push(Hyperlink {
            href,
            anchor: std::mem::take(&mut anchor),
        }),
    });
    HtmlDocument { title, text, links }
}

/// The one HTML scanner: walk `input` once, hand text runs and closed
/// links to `sink`, and return the whitespace-normalized title. Apart
/// from the title it allocates once per link (the `href`), never per tag
/// or per text run.
pub(crate) fn scan(input: &str, sink: impl FnMut(Event<'_>)) -> String {
    let mut scanner = Scanner {
        input,
        pos: 0,
        sink,
        title: String::new(),
        title_seen: false,
        in_title: false,
        open_href: None,
    };
    scanner.run();
    scanner.title
}

struct Scanner<'a, F> {
    input: &'a str,
    pos: usize,
    sink: F,
    title: String,
    /// Set by the first text inside a `<title>`; later titles are ignored.
    title_seen: bool,
    /// Set while inside the `<title>` that counts.
    in_title: bool,
    /// `href` of the anchor currently open.
    open_href: Option<String>,
}

impl<F: FnMut(Event<'_>)> Scanner<'_, F> {
    fn run(&mut self) {
        while self.pos < self.input.len() {
            match self.input[self.pos..].find('<') {
                None => {
                    let rest = &self.input[self.pos..];
                    self.emit_text(rest);
                    break;
                }
                Some(rel) => {
                    let text_chunk = &self.input[self.pos..self.pos + rel];
                    self.emit_text(text_chunk);
                    self.pos += rel;
                    self.consume_tag();
                }
            }
        }
        // Unclosed <a> at EOF: keep what we have.
        self.close_anchor();
    }

    fn emit_text(&mut self, raw: &str) {
        if raw.is_empty() {
            return;
        }
        let decoded = decode_entities(raw);
        if self.in_title {
            self.title_seen = true;
            push_words(&mut self.title, &decoded);
        }
        (self.sink)(Event::Text {
            chunk: &decoded,
            in_anchor: self.open_href.is_some(),
        });
    }

    /// `self.pos` points at `<`. Consume the whole tag (or comment).
    fn consume_tag(&mut self) {
        let rest = &self.input[self.pos..];
        if rest.starts_with("<!--") {
            match rest.find("-->") {
                Some(end) => self.pos += end + 3,
                None => self.pos = self.input.len(),
            }
            return;
        }
        let Some(end_rel) = rest.find('>') else {
            self.pos = self.input.len();
            return;
        };
        let tag_body = &rest[1..end_rel];
        self.pos += end_rel + 1;

        let (closing, tag_body) = match tag_body.strip_prefix('/') {
            Some(t) => (true, t),
            None => (false, tag_body),
        };
        let name_end = tag_body
            .find(|c: char| c.is_whitespace() || c == '/')
            .unwrap_or(tag_body.len());
        let (name, attrs) = tag_body.split_at(name_end);
        let is = |tag: &str| name.eq_ignore_ascii_case(tag);

        if is("title") {
            self.in_title = !closing && !self.title_seen;
        } else if is("a") {
            // A nested <a> implicitly closes the previous one.
            self.close_anchor();
            if !closing {
                self.open_href = extract_attr(attrs, "href");
            }
        } else if !closing && is("script") {
            self.skip_raw_content(b"</script");
        } else if !closing && is("style") {
            self.skip_raw_content(b"</style");
        }
    }

    fn close_anchor(&mut self) {
        if let Some(href) = self.open_href.take() {
            (self.sink)(Event::Link { href });
        }
    }

    /// Skip everything up to the `>` of the first `close` tag (matched
    /// ignoring ASCII case), or to the end of input if there is none.
    fn skip_raw_content(&mut self, close: &[u8]) {
        let rest = &self.input[self.pos..];
        let end = find_ignore_ascii_case(rest.as_bytes(), close)
            .and_then(|at| Some(at + rest[at..].find('>')? + 1));
        self.pos += end.unwrap_or(rest.len());
    }
}

/// Byte offset of the first occurrence of the ASCII `needle` in `hay`,
/// ignoring ASCII case. A match covers ASCII bytes only, so in UTF-8 text
/// both of its ends are character boundaries.
fn find_ignore_ascii_case(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
}

/// Extract an attribute value from a tag-attribute string, handling
/// double-quoted, single-quoted and bare values.
fn extract_attr(attrs: &str, wanted: &str) -> Option<String> {
    let bytes = attrs.as_bytes();
    let mut search_from = 0;
    while let Some(rel) = find_ignore_ascii_case(&bytes[search_from..], wanted.as_bytes()) {
        let at = search_from + rel;
        // Must be a standalone attribute name: first in the tag, or after
        // whitespace or the closing quote of the previous value.
        let before_ok =
            at == 0 || bytes[at - 1].is_ascii_whitespace() || matches!(bytes[at - 1], b'\'' | b'"');
        let after = at + wanted.len();
        if let Some(val) = attrs[after..].trim_start().strip_prefix('=') {
            if before_ok {
                let val = val.trim_start();
                return Some(match val.as_bytes().first() {
                    Some(b'"') => val[1..].split('"').next().unwrap_or("").to_string(),
                    Some(b'\'') => val[1..].split('\'').next().unwrap_or("").to_string(),
                    _ => val
                        .split(|c: char| c.is_whitespace())
                        .next()
                        .unwrap_or("")
                        .to_string(),
                });
            }
        }
        search_from = after;
    }
    None
}

/// Decode the handful of entities that matter for text analysis.
fn decode_entities(raw: &str) -> Cow<'_, str> {
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let tail = &rest[amp..];
        let (rep, len) = if tail.starts_with("&amp;") {
            ("&", 5)
        } else if tail.starts_with("&lt;") {
            ("<", 4)
        } else if tail.starts_with("&gt;") {
            (">", 4)
        } else if tail.starts_with("&quot;") {
            ("\"", 6)
        } else if tail.starts_with("&apos;") {
            ("'", 6)
        } else if tail.starts_with("&nbsp;") {
            (" ", 6)
        } else {
            ("&", 1)
        };
        out.push_str(rep);
        rest = &tail[len..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Append the whitespace-separated words of `s` to `out`, one space
/// between any two words: `out` stays whitespace-normalized.
fn push_words(out: &mut String, s: &str) {
    for word in s.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_tags_and_normalizes() {
        let d = parse("<html><body><p>Hello   <b>focused</b>\ncrawling</p></body></html>");
        assert_eq!(d.text, "Hello focused crawling");
    }

    #[test]
    fn extracts_title() {
        let d = parse("<head><title>ARIES  Recovery</title></head><body>x</body>");
        assert_eq!(d.title, "ARIES Recovery");
    }

    #[test]
    fn only_first_title_counts() {
        let d = parse("<title>One</title><title>Two</title>");
        assert_eq!(d.title, "One");
    }

    #[test]
    fn extracts_links_with_anchors() {
        let d = parse(
            "<a href=\"http://x.org/a\">first link</a> mid \
             <a href='http://y.org/b'>second</a> <a href=bare>third</a>",
        );
        assert_eq!(d.links.len(), 3);
        assert_eq!(d.links[0].href, "http://x.org/a");
        assert_eq!(d.links[0].anchor, "first link");
        assert_eq!(d.links[1].href, "http://y.org/b");
        assert_eq!(d.links[2].href, "bare");
        assert_eq!(d.links[2].anchor, "third");
    }

    #[test]
    fn anchor_without_href_ignored() {
        let d = parse("<a name=\"top\">anchor</a>");
        assert!(d.links.is_empty());
        assert_eq!(d.text, "anchor");
    }

    #[test]
    fn skips_script_and_style() {
        let d = parse("<script>var x = '<a href=q>no</a>';</script><style>p{}</style>visible");
        assert_eq!(d.text, "visible");
        assert!(d.links.is_empty());
    }

    #[test]
    fn skips_comments() {
        let d = parse("before<!-- <a href=x>hidden</a> -->after");
        assert_eq!(d.text, "before after");
        assert!(d.links.is_empty());
    }

    #[test]
    fn decodes_entities() {
        let d = parse("Tom &amp; Jerry &lt;3 &quot;cartoons&quot;&nbsp;forever");
        assert_eq!(d.text, "Tom & Jerry <3 \"cartoons\" forever");
    }

    #[test]
    fn unclosed_anchor_at_eof() {
        let d = parse("<a href=\"http://x/\">dangling text");
        assert_eq!(d.links.len(), 1);
        assert_eq!(d.links[0].anchor, "dangling text");
    }

    #[test]
    fn nested_anchor_closes_previous() {
        let d = parse("<a href=\"u1\">one <a href=\"u2\">two</a>");
        assert_eq!(d.links.len(), 2);
        assert_eq!(d.links[0].anchor, "one");
        assert_eq!(d.links[1].anchor, "two");
    }

    #[test]
    fn malformed_tag_no_panic() {
        let d = parse("text < notatag and <a href=");
        assert!(d.text.starts_with("text"));
    }

    #[test]
    fn hreflang_is_not_href() {
        let d = parse("<a hreflang=\"en\" href=\"real\">x</a>");
        assert_eq!(d.links[0].href, "real");
    }

    #[test]
    fn href_right_after_a_closing_quote() {
        let d = parse("<a class=\"x\"href=\"y\">t</a> <a class='x'href='z'>u</a>");
        assert_eq!(d.links[0].href, "y");
        assert_eq!(d.links[1].href, "z");
    }

    #[test]
    fn raw_content_ends_at_a_close_tag_in_any_case() {
        let d = parse(
            "a<script>if (x</scrip) <b>no</b></SCRIPT >b\
             <STYLE>p{} </script> </Style>c\
             <script>never closed </scrip> <p>hidden",
        );
        assert_eq!(d.text, "a b c");
    }
}
