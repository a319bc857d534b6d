//! The document-type table of Sections 2.2 and 4.2, pinned row by row:
//! for every MIME type, the exact HTML a well-formed and a malformed
//! payload convert to (or the exact error), and the admission verdict
//! at the type's size limit and one byte past it.

use bingo_crawler::pipeline::admit;
use bingo_textproc::content::ContentError;
use bingo_textproc::MimeType;
use bingo_webworld::fetch::FetchResponse;

type Converted = Result<&'static str, ContentError>;

struct Row {
    mime: MimeType,
    well_formed: (&'static str, Converted),
    malformed: (&'static str, Converted),
    /// Admitted at `max_size` bytes; nothing is admitted one byte past.
    admitted_at_limit: bool,
}

fn table() -> Vec<Row> {
    use ContentError::{Malformed, Unhandled};
    use MimeType::*;
    vec![
        Row {
            mime: Html,
            well_formed: (
                "<html><body><p>ARIES</p></body></html>",
                Ok("<html><body><p>ARIES</p></body></html>"),
            ),
            malformed: ("<p>unclosed <b>tag", Ok("<p>unclosed <b>tag")),
            admitted_at_limit: true,
        },
        Row {
            mime: Plain,
            well_formed: (
                "hello plain world",
                Ok("<html><body><pre>hello plain world</pre></body></html>"),
            ),
            malformed: (
                "%SIMPDF\n<b>x",
                Ok("<html><body><pre>%SIMPDF\n<b>x</pre></body></html>"),
            ),
            admitted_at_limit: true,
        },
        Row {
            mime: Pdf,
            well_formed: (
                "%SIMPDF\nrecovery text",
                Ok("<html><body>recovery text</body></html>"),
            ),
            malformed: ("%SIMDOC\nnot a pdf", Err(Malformed("missing format magic"))),
            admitted_at_limit: true,
        },
        Row {
            mime: Word,
            well_formed: (
                "%SIMDOC\nword text",
                Ok("<html><body>word text</body></html>"),
            ),
            malformed: ("%SIMPDF\nword text", Err(Malformed("missing format magic"))),
            admitted_at_limit: true,
        },
        Row {
            mime: PowerPoint,
            well_formed: ("%SIMPPT\nslide", Ok("<html><body>slide</body></html>")),
            malformed: ("slide", Err(Malformed("missing format magic"))),
            admitted_at_limit: true,
        },
        Row {
            mime: Zip,
            well_formed: (
                "%SIMZIP\nfirst\n--entry--\nsecond",
                Ok("<html><body><div>first</div><div>second</div></body></html>"),
            ),
            malformed: ("%SIMPDF\nfirst", Err(Malformed("missing zip magic"))),
            admitted_at_limit: true,
        },
        Row {
            mime: Video,
            well_formed: ("", Err(Unhandled(Video))),
            malformed: ("%SIMPDF\nframes", Err(Unhandled(Video))),
            admitted_at_limit: false,
        },
        Row {
            mime: Audio,
            well_formed: ("", Err(Unhandled(Audio))),
            malformed: ("%SIMZIP\nsamples", Err(Unhandled(Audio))),
            admitted_at_limit: false,
        },
        Row {
            mime: Other,
            well_formed: ("<p>other</p>", Err(Unhandled(Other))),
            malformed: ("\u{0}\u{1}", Err(Unhandled(Other))),
            admitted_at_limit: false,
        },
    ]
}

fn response(mime: MimeType, size: u64) -> FetchResponse {
    FetchResponse {
        page_id: 1,
        url: "http://h.example/p".into(),
        ip: 7,
        mime,
        payload: String::new(),
        size,
        latency_ms: 0,
        truncated: false,
    }
}

#[test]
fn every_mime_type_converts_and_admits_as_pinned() {
    let rows = table();
    assert_eq!(rows.len(), 9, "one row per MimeType");
    for row in rows {
        for (payload, expected) in [row.well_formed, row.malformed] {
            let got = row.mime.to_html(payload);
            assert_eq!(
                got.as_deref().map_err(Clone::clone),
                expected,
                "{:?} on {payload:?}",
                row.mime
            );
        }
        let limit = row.mime.max_size() as u64;
        assert_eq!(
            admit(&response(row.mime, limit)),
            row.admitted_at_limit,
            "{:?} at max_size",
            row.mime
        );
        assert!(
            !admit(&response(row.mime, limit + 1)),
            "{:?} past max_size",
            row.mime
        );
    }
}
