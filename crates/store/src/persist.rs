//! Snapshot persistence for the crawl database.
//!
//! The crawl result "may be a database with several million documents"
//! that outlives the crawl process (the user inspects it the next
//! morning, Section 1.2). Snapshots are newline-delimited JSON: one
//! header line, then one line per document row, then one line per link
//! row — streamable in both directions, no whole-database buffer.
//!
//! Two forms share the header's magic and differ in its version:
//!
//! * the **full** form ([`write_snapshot`]) holds every row of the
//!   store: documents sorted by id, then links in insertion order;
//! * the **reference** form is what [`write_checkpoint`] writes for a
//!   store with a directory: sealed rows are already on disk in
//!   immutable, checksummed segment files, so the header records
//!   *which* segments (the manifest a seal would commit at that moment,
//!   the directory and the store configuration) and only the unsealed
//!   workspace rows follow. Its cost is O(workspace), not O(corpus). A
//!   store with no directory has nothing sealed to reference, and its
//!   checkpoint is the full form. Sealed segments are never rewritten,
//!   so writing one takes only the store's read lock and leaves the
//!   store as it was.
//!
//! [`read_snapshot`] and [`load`] accept either.

use crate::segment::{pe, SegmentManifest, SegmentStoreConfig, Spine};
use crate::tables::{DocumentRow, LinkRow};
use crate::{DocumentStore, StoreError};
use bingo_graph::PageId;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Header of the full form, with section counts enabling validation on
/// load.
#[derive(Debug, Serialize, Deserialize, PartialEq, Eq)]
struct SnapshotHeader {
    magic: String,
    version: u32,
    documents: usize,
    links: usize,
}

/// Header of the reference form. `documents` and `links` count the
/// workspace rows that follow; topic overrides ride in `manifest`.
#[derive(Debug, Serialize, Deserialize)]
struct ReferenceHeader {
    magic: String,
    version: u32,
    documents: usize,
    links: usize,
    /// The segment directory as the store was opened.
    dir: String,
    config: SegmentStoreConfig,
    manifest: SegmentManifest,
}

const MAGIC: &str = "bingo-snapshot";
const VERSION: u32 = 1;
const REFERENCE_VERSION: u32 = 2;

fn write_line<W: Write, T: Serialize>(w: &mut W, value: &T) -> Result<(), StoreError> {
    serde_json::to_writer(&mut *w, value).map_err(pe)?;
    w.write_all(b"\n").map_err(pe)
}

/// Write a full snapshot of the store to `w`: every document sorted by
/// id, then every link in insertion order. The bytes depend only on the
/// rows, not on how many are sealed, so exports and equivalence tests
/// can compare stores literally. Fails if a sealed segment cannot be
/// read.
pub fn write_snapshot<W: Write>(store: &DocumentStore, w: W) -> Result<(), StoreError> {
    let spine = store.spine.read();
    let ws = spine.workspace();
    let mut sealed = Vec::with_capacity(spine.sealed_documents());
    spine.for_each_sealed_document(|row| sealed.push(row))?;
    // Each row by id: sealed rows at their place in `sealed`, workspace
    // rows after them, decoded one at a time.
    let mut order: Vec<(PageId, usize)> = sealed
        .iter()
        .map(|row| row.id)
        .chain(ws.ids())
        .zip(0..)
        .collect();
    order.sort_unstable_by_key(|&(id, _)| id);
    let mut w = BufWriter::new(w);
    let header = SnapshotHeader {
        magic: MAGIC.to_string(),
        version: VERSION,
        documents: order.len(),
        links: spine.link_count(),
    };
    write_line(&mut w, &header)?;
    for (_, at) in order {
        match sealed.get(at) {
            Some(row) => write_line(&mut w, row)?,
            None => write_line(&mut w, &ws.row(at - sealed.len()))?,
        }
    }
    let mut link_err = None;
    spine.for_each_link(|link| {
        if link_err.is_none() {
            link_err = write_line(&mut w, link).err();
        }
    })?;
    if let Some(e) = link_err {
        return Err(e);
    }
    w.flush().map_err(pe)
}

/// Write what a checkpoint generation stores for `store`: the reference
/// form of a store with a directory, the full form ([`write_snapshot`],
/// byte for byte) of one without. Nothing is sealed: segment files stay
/// a pure function of the crawl and the seal threshold.
pub fn write_checkpoint<W: Write>(store: &DocumentStore, w: W) -> Result<(), StoreError> {
    let Some(dir) = store.segment_dir() else {
        return write_snapshot(store, w);
    };
    let dir = dir
        .to_str()
        .ok_or_else(|| pe("segment directory is not valid UTF-8"))?
        .to_string();
    let spine = store.spine.read();
    let ws = spine.workspace();
    let header = ReferenceHeader {
        magic: MAGIC.to_string(),
        version: REFERENCE_VERSION,
        documents: ws.document_count(),
        links: ws.link_count(),
        dir,
        config: spine.config().clone(),
        manifest: spine.manifest_now(),
    };
    let mut w = BufWriter::new(w);
    write_line(&mut w, &header)?;
    ws.for_each_document(|row| write_line(&mut w, row))?;
    ws.for_each_link(|link| write_line(&mut w, link))?;
    w.flush().map_err(pe)
}

/// The format fields of a header of either form; every other field is
/// skipped, not built.
#[derive(Deserialize)]
struct FormatProbe {
    magic: String,
    version: u32,
}

/// Parse a header line far enough to know the form: magic checked,
/// version returned.
fn header_version(line: &str) -> Result<u32, StoreError> {
    let probe: FormatProbe = serde_json::from_str(line).map_err(pe)?;
    if probe.magic != MAGIC {
        return Err(pe(format!("bad magic {:?}", probe.magic)));
    }
    Ok(probe.version)
}

/// Read a snapshot of either form into a fresh store. The full form
/// yields a store with no directory. The reference form opens the recorded
/// segment directory *at the recorded manifest* — every referenced
/// segment verified against its length and checksum, nothing on disk
/// created, deleted or rewritten — replays the workspace rows and
/// yields a segmented store; segments sealed after the snapshot are
/// ignored and replaced by the store's next seals. A reference header
/// whose configuration asks for a sparse index or compaction is
/// refused.
pub fn read_snapshot<R: Read>(r: R) -> Result<DocumentStore, StoreError> {
    let mut lines = BufReader::new(r).lines();
    let header_line = lines
        .next()
        .ok_or_else(|| pe("empty snapshot"))?
        .map_err(pe)?;
    let version = header_version(&header_line)?;
    let mut next = || -> Result<String, StoreError> {
        lines
            .next()
            .ok_or_else(|| pe("truncated snapshot"))?
            .map_err(pe)
    };
    match version {
        VERSION => {
            let header: SnapshotHeader = serde_json::from_str(&header_line).map_err(pe)?;
            let store = DocumentStore::new();
            for _ in 0..header.documents {
                let row: DocumentRow = serde_json::from_str(&next()?).map_err(pe)?;
                store.insert_document(row).map_err(pe)?;
            }
            let mut links = Vec::new();
            for _ in 0..header.links {
                let row: LinkRow = serde_json::from_str(&next()?).map_err(pe)?;
                links.push(row);
            }
            store.insert_links(links);
            Ok(store)
        }
        REFERENCE_VERSION => {
            let header: ReferenceHeader = serde_json::from_str(&header_line).map_err(pe)?;
            let mut spine =
                Spine::open_referenced(PathBuf::from(header.dir), header.config, header.manifest)?;
            for _ in 0..header.documents {
                spine.insert_document(&serde_json::from_str(&next()?).map_err(pe)?)?;
            }
            for _ in 0..header.links {
                spine.insert_link(&serde_json::from_str(&next()?).map_err(pe)?);
            }
            Ok(DocumentStore::from_spine(spine))
        }
        other => Err(pe(format!("unsupported version {other}"))),
    }
}

/// Load a snapshot of either form from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<DocumentStore, StoreError> {
    read_snapshot(std::fs::File::open(path).map_err(pe)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_textproc::MimeType;

    fn populated() -> DocumentStore {
        let s = DocumentStore::new();
        for i in 0..10u64 {
            s.insert_document(DocumentRow {
                id: i,
                url: format!("http://h{}/p{i}", i % 3),
                host: (i % 3) as u32,
                mime: MimeType::Html,
                depth: i as u32,
                title: format!("t{i}"),
                topic: if i % 2 == 0 { Some(1) } else { None },
                confidence: i as f32 / 10.0,
                term_freqs: vec![(i as u32, 1)],
                size: 10,
                fetched_at: i,
            })
            .unwrap();
        }
        s.insert_link(LinkRow {
            from: 0,
            to: 1,
            to_url: "http://h1/p1".into(),
        });
        s
    }

    #[test]
    fn round_trip() {
        let s = populated();
        let mut buf = Vec::new();
        write_snapshot(&s, &mut buf).unwrap();
        let loaded = read_snapshot(&buf[..]).unwrap();
        assert_eq!(loaded.document_count(), 10);
        assert_eq!(loaded.link_count(), 1);
        assert_eq!(loaded.document(3).unwrap().title, "t3");
        assert_eq!(loaded.topic_documents(1).len(), 5);
        use bingo_graph::LinkSource;
        assert_eq!(loaded.successors(0), vec![1]);
    }

    /// A full snapshot as earlier builds wrote it, with the always-zero
    /// `hosts` count in its header, loads; saving it again drops only
    /// that key.
    #[test]
    fn full_snapshot_with_a_hosts_count_loads() {
        let parent = concat!(
            r#"{"magic":"bingo-snapshot","version":1,"documents":1,"links":1,"hosts":0}"#,
            "\n",
            r#"{"id":7,"url":"http://h/a","host":0,"mime":"Html","depth":1,"title":"a","topic":2,"confidence":0.5,"term_freqs":[[1,2]],"size":10,"fetched_at":3}"#,
            "\n",
            r#"{"from":7,"to":8,"to_url":"http://h/b"}"#,
            "\n",
        );
        let loaded = read_snapshot(parent.as_bytes()).unwrap();
        assert_eq!(loaded.document(7).unwrap().term_freqs, vec![(1, 2)]);
        let mut saved = Vec::new();
        write_snapshot(&loaded, &mut saved).unwrap();
        assert_eq!(
            String::from_utf8(saved).unwrap(),
            parent.replace(r#","hosts":0"#, "")
        );
    }

    /// A reference-form header as earlier builds wrote it, with an empty
    /// `hosts` list in its manifest, loads; checkpointing the loaded
    /// store again drops only that key.
    #[test]
    fn reference_header_with_a_hosts_list_loads() {
        let dir =
            std::env::temp_dir().join(format!("bingo-store-ref-hosts-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = DocumentStore::segmented_with(&dir, 4).unwrap();
        for row in populated().all_documents() {
            s.insert_document(row).unwrap();
            s.commit_sealed().unwrap();
        }
        s.set_topic(0, Some(3), 0.25).unwrap();
        let mut current = Vec::new();
        write_checkpoint(&s, &mut current).unwrap();
        let current = String::from_utf8(current).unwrap();
        let parent = current.replacen(
            r#""overrides":[[0,3,0.25]]"#,
            r#""overrides":[[0,3,0.25]],"hosts":[]"#,
            1,
        );
        assert_ne!(parent, current);
        let loaded = read_snapshot(parent.as_bytes()).unwrap();
        assert_eq!(loaded.document(0).unwrap().topic, Some(3));
        let mut saved = Vec::new();
        write_checkpoint(&loaded, &mut saved).unwrap();
        assert_eq!(String::from_utf8(saved).unwrap(), current);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The retired sparse index and compaction are refused, not
    /// ignored: by a store opened on a directory, and by a reference
    /// header that asks for either.
    #[test]
    fn sparse_and_compaction_are_refused() {
        use crate::CompactionConfig;
        let dir = std::env::temp_dir().join(format!("bingo-store-refuse-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let sparse = SegmentStoreConfig {
            sparse: true,
            ..Default::default()
        };
        let compacting = SegmentStoreConfig {
            compaction: Some(CompactionConfig::default()),
            ..Default::default()
        };
        for cfg in [sparse, compacting] {
            assert!(matches!(
                DocumentStore::segmented_cfg(&dir, cfg),
                Err(StoreError::Persist(_))
            ));
        }
        let s = DocumentStore::segmented_with(&dir, 4).unwrap();
        for row in populated().all_documents() {
            s.insert_document(row).unwrap();
            s.commit_sealed().unwrap();
        }
        let mut current = Vec::new();
        write_checkpoint(&s, &mut current).unwrap();
        let current = String::from_utf8(current).unwrap();
        let path = dir.join("store.jsonl");
        std::fs::write(&path, &current).unwrap();
        assert_eq!(load(&path).unwrap().document_count(), 10);
        for (from, to) in [
            (r#""sparse":false"#, r#""sparse":true"#),
            (
                r#""compaction":null"#,
                r#""compaction":{"small_docs":4,"min_run":2}"#,
            ),
        ] {
            let asked = current.replacen(from, to, 1);
            assert_ne!(asked, current);
            std::fs::write(&path, asked).unwrap();
            assert!(matches!(load(&path), Err(StoreError::Persist(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The reference-form header bytes of a small segmented store (two
    /// seals, unsealed rows, an override on a sealed row), directory
    /// aside: sessions resume from headers earlier builds wrote, so a
    /// change here must be deliberate.
    #[test]
    fn reference_header_bytes_are_pinned() {
        const PINNED: &str = concat!(
            r#"{"magic":"bingo-snapshot","version":2,"documents":2,"links":1,"dir":"DIR","#,
            r#""config":{"seal_every":4,"sparse":false,"compaction":null},"#,
            r#""manifest":{"magic":"bingo-segments","version":1,"next_seg":2,"segments":["#,
            r#"{"name":"seg-000000.jsonl","docs":4,"links":0,"len":715,"checksum":1475736273760512848},"#,
            r#"{"name":"seg-000001.jsonl","docs":4,"links":0,"len":711,"checksum":15356108993364839010}],"#,
            r#""overrides":[[1,3,0.5]]}}"#,
        );
        let dir = std::env::temp_dir().join(format!("bingo-store-ref-pin-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = DocumentStore::segmented_with(&dir, 4).unwrap();
        for row in populated().all_documents() {
            s.insert_document(row).unwrap();
            s.commit_sealed().unwrap();
        }
        s.insert_link(LinkRow {
            from: 9,
            to: 1,
            to_url: "http://h1/p1".into(),
        });
        s.set_topic(1, Some(3), 0.5).unwrap();
        assert_eq!((s.segment_count(), s.workspace_documents()), (2, 2));
        let mut bytes = Vec::new();
        write_checkpoint(&s, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let header = text.lines().next().unwrap();
        assert_eq!(header.replace(dir.to_str().unwrap(), "DIR"), PINNED);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot counts every row in its header, so a sealed segment
    /// that cannot be read must fail the write, not shorten it: neither
    /// a document row damaged in place (the link rows after it still
    /// read) nor a deleted file.
    #[test]
    fn snapshot_fails_when_a_segment_is_unreadable() {
        let dir = std::env::temp_dir().join(format!("bingo-store-lost-seg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let s = DocumentStore::segmented(&dir).unwrap();
        for row in populated().all_documents() {
            s.insert_document(row).unwrap();
        }
        assert!(s.seal_now().unwrap());
        write_snapshot(&s, Vec::new()).unwrap();
        let seg = dir.join("seg-000000.jsonl");
        let bytes = std::fs::read(&seg).unwrap();
        let second_row = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut damaged = bytes.clone();
        damaged[second_row] = b'x';
        std::fs::write(&seg, &damaged).unwrap();
        assert!(matches!(
            write_snapshot(&s, Vec::new()),
            Err(StoreError::Persist(_))
        ));
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(
            write_snapshot(&s, Vec::new()),
            Err(StoreError::Persist(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_output() {
        let s = populated();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_snapshot(&s, &mut a).unwrap();
        write_snapshot(&s, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_snapshot(&b"not json\n"[..]).is_err());
        assert!(read_snapshot(&b""[..]).is_err());
        let bad_magic = r#"{"magic":"nope","version":1,"documents":0,"links":0,"hosts":0}"#;
        assert!(read_snapshot(format!("{bad_magic}\n").as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let s = populated();
        let mut buf = Vec::new();
        write_snapshot(&s, &mut buf).unwrap();
        let cut = buf.len() / 2;
        let err = read_snapshot(&buf[..cut]).unwrap_err();
        assert!(matches!(err, StoreError::Persist(_)));
    }

    #[test]
    fn file_round_trip() {
        let s = populated();
        let dir = std::env::temp_dir().join("bingo-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        write_snapshot(&s, std::fs::File::create(&path).unwrap()).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.document_count(), s.document_count());
        std::fs::remove_file(path).ok();
    }
}
