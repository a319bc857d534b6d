//! Document-type handling for non-HTML formats (Section 2.2).
//!
//! "The document analyzer can handle a wide range of content handlers for
//! different document formats (in particular, PDF, MS Word, MS PowerPoint
//! etc.) as well as common archive files (zip, gz) and converts the
//! recognized contents into HTML."
//!
//! Real PDF/Word parsing is out of scope (and the corpus is synthetic);
//! the simulated web emits *container formats* with the same structure a
//! real converter pipeline faces: a typed envelope whose payload must be
//! extracted and converted to HTML before analysis. The set of formats
//! is fixed, so each [`MimeType`] converts its own payload
//! ([`MimeType::to_html`]) and unhandleable types (video, audio) are
//! rejected so the crawler can skip them (Section 4.2 "document type
//! management").

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// MIME types known to the engine (the crawler checks all incoming
/// documents against this list, Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MimeType {
    /// `text/html`
    Html,
    /// `text/plain`
    Plain,
    /// `application/pdf` (simulated envelope)
    Pdf,
    /// `application/msword` (simulated envelope)
    Word,
    /// `application/vnd.ms-powerpoint` (simulated envelope)
    PowerPoint,
    /// `application/zip` (simulated archive of documents)
    Zip,
    /// `video/*` — never analyzable.
    Video,
    /// `audio/*` — never analyzable.
    Audio,
    /// Anything else.
    Other,
}

impl MimeType {
    /// Maximum accepted size in bytes per MIME type ("for each MIME type we
    /// specify a maximum size allowed by the crawler", based on large-scale
    /// corpus statistics). Zero means "never fetch".
    pub fn max_size(self) -> usize {
        match self {
            MimeType::Html | MimeType::Plain => 256 * 1024,
            MimeType::Pdf => 2 * 1024 * 1024,
            MimeType::Word | MimeType::PowerPoint => 1024 * 1024,
            MimeType::Zip => 4 * 1024 * 1024,
            MimeType::Video | MimeType::Audio => 0,
            MimeType::Other => 64 * 1024,
        }
    }

    /// Parse a MIME string such as `text/html`.
    pub fn parse(s: &str) -> MimeType {
        let s = s.split(';').next().unwrap_or("").trim();
        match s {
            "text/html" | "application/xhtml+xml" => MimeType::Html,
            "text/plain" => MimeType::Plain,
            "application/pdf" => MimeType::Pdf,
            "application/msword" => MimeType::Word,
            "application/vnd.ms-powerpoint" => MimeType::PowerPoint,
            "application/zip" | "application/gzip" => MimeType::Zip,
            _ if s.starts_with("video/") => MimeType::Video,
            _ if s.starts_with("audio/") => MimeType::Audio,
            _ => MimeType::Other,
        }
    }

    /// True for the types the analyzer converts: the crawler's accept
    /// test.
    pub fn is_handled(self) -> bool {
        !matches!(self, MimeType::Video | MimeType::Audio | MimeType::Other)
    }

    /// Convert a payload of this type to HTML. HTML is passed through
    /// borrowed; every other handled type is converted into a new string.
    pub fn to_html(self, payload: &str) -> Result<Cow<'_, str>, ContentError> {
        match self {
            MimeType::Html => Ok(Cow::Borrowed(payload)),
            MimeType::Plain => Ok(Cow::Owned(format!(
                "<html><body><pre>{payload}</pre></body></html>"
            ))),
            MimeType::Pdf => unwrap_envelope(payload, PDF_MAGIC),
            MimeType::Word => unwrap_envelope(payload, WORD_MAGIC),
            MimeType::PowerPoint => unwrap_envelope(payload, PPT_MAGIC),
            MimeType::Zip => unzip(payload),
            MimeType::Video | MimeType::Audio | MimeType::Other => {
                Err(ContentError::Unhandled(self))
            }
        }
    }
}

/// Error converting a payload to HTML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentError {
    /// The MIME type is not converted (video, audio, unknown types).
    Unhandled(MimeType),
    /// The payload did not match its declared format.
    Malformed(&'static str),
}

impl std::fmt::Display for ContentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContentError::Unhandled(m) => write!(f, "no content handler for {m:?}"),
            ContentError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ContentError {}

/// A stateless name kept only because `benchmark/` calls
/// `ContentRegistry::new()` and `ContentRegistry::to_html` (ROADMAP
/// item 5). It holds nothing: every conversion is [`MimeType::to_html`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ContentRegistry;

impl ContentRegistry {
    /// The stateless registry.
    pub fn new() -> Self {
        ContentRegistry
    }

    /// [`MimeType::to_html`], copied into an owned string.
    pub fn to_html(&self, mime: MimeType, payload: &str) -> Result<String, ContentError> {
        mime.to_html(payload).map(Cow::into_owned)
    }
}

/// Magic prefix of the simulated PDF envelope.
const PDF_MAGIC: &str = "%SIMPDF\n";
/// Magic prefix of the simulated Word envelope.
const WORD_MAGIC: &str = "%SIMDOC\n";
/// Magic prefix of the simulated PowerPoint envelope.
const PPT_MAGIC: &str = "%SIMPPT\n";
/// Magic prefix of the simulated zip container.
pub const ZIP_MAGIC: &str = "%SIMZIP\n";
/// Entry separator of the simulated zip container.
pub const ZIP_SEPARATOR: &str = "\n--entry--\n";

/// A simulated binary envelope: a magic line followed by the embedded
/// text. Mirrors a pdf-to-text converter: validate the container, pull
/// out the text.
fn unwrap_envelope(payload: &str, magic: &str) -> Result<Cow<'static, str>, ContentError> {
    let body = payload
        .strip_prefix(magic)
        .ok_or(ContentError::Malformed("missing format magic"))?;
    Ok(Cow::Owned(format!("<html><body>{body}</body></html>")))
}

/// The simulated archive: [`ZIP_MAGIC`], then entries separated by
/// [`ZIP_SEPARATOR`]; all entries are concatenated into one HTML
/// document, the way BINGO! treats an archive as one analyzable unit.
fn unzip(payload: &str) -> Result<Cow<'static, str>, ContentError> {
    let body = payload
        .strip_prefix(ZIP_MAGIC)
        .ok_or(ContentError::Malformed("missing zip magic"))?;
    let mut html = String::from("<html><body>");
    for entry in body.split(ZIP_SEPARATOR) {
        html.push_str("<div>");
        html.push_str(entry);
        html.push_str("</div>");
    }
    html.push_str("</body></html>");
    Ok(Cow::Owned(html))
}

/// Wrap text in a simulated PDF envelope (used by the web simulator).
pub fn make_pdf(text: &str) -> String {
    format!("{PDF_MAGIC}{text}")
}

/// Wrap text in a simulated Word envelope.
pub fn make_word(text: &str) -> String {
    format!("{WORD_MAGIC}{text}")
}

/// Wrap entries in a simulated zip container.
pub fn make_zip(entries: &[&str]) -> String {
    format!("{ZIP_MAGIC}{}", entries.join(ZIP_SEPARATOR))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mime_parsing() {
        assert_eq!(MimeType::parse("text/html; charset=utf-8"), MimeType::Html);
        assert_eq!(MimeType::parse("application/pdf"), MimeType::Pdf);
        assert_eq!(MimeType::parse("video/mp4"), MimeType::Video);
        assert_eq!(MimeType::parse("application/x-unknown"), MimeType::Other);
    }

    #[test]
    fn size_limits() {
        assert_eq!(MimeType::Video.max_size(), 0);
        assert!(MimeType::Pdf.max_size() > MimeType::Html.max_size());
    }

    #[test]
    fn pdf_envelope_round_trip() {
        let pdf = make_pdf("ARIES recovery algorithm paper text");
        let html = MimeType::Pdf.to_html(&pdf).unwrap();
        assert!(html.contains("ARIES recovery"));
        let parsed = crate::html::parse(&html);
        assert!(parsed.text.contains("ARIES recovery"));
    }

    #[test]
    fn malformed_pdf_rejected() {
        let err = MimeType::Pdf.to_html("not a pdf").unwrap_err();
        assert!(matches!(err, ContentError::Malformed(_)));
    }

    #[test]
    fn zip_concatenates_entries() {
        let zip = make_zip(&["first entry text", "second entry text"]);
        let html = MimeType::Zip.to_html(&zip).unwrap();
        assert!(html.contains("first entry text"));
        assert!(html.contains("second entry text"));
    }

    #[test]
    fn video_is_unhandled() {
        assert!(!MimeType::Video.is_handled());
        assert!(matches!(
            MimeType::Video.to_html("data"),
            Err(ContentError::Unhandled(MimeType::Video))
        ));
    }

    #[test]
    fn plain_text_wrapped() {
        let html = MimeType::Plain.to_html("hello plain world").unwrap();
        assert!(crate::html::parse(&html).text.contains("hello plain world"));
    }

    #[test]
    fn html_is_borrowed() {
        let page = "<p>as served</p>";
        assert!(matches!(MimeType::Html.to_html(page), Ok(Cow::Borrowed(p)) if p == page));
    }
}
