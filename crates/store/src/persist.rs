//! Snapshot persistence for the crawl database.
//!
//! The crawl result "may be a database with several million documents"
//! that outlives the crawl process (the user inspects it the next
//! morning, Section 1.2). Snapshots are newline-delimited JSON: one
//! header line, then one line per document row, then one line per link
//! row, then one per host row — streamable in both directions, no
//! whole-database buffer.

use crate::tables::{DocumentRow, HostRow, LinkRow};
use crate::{DocumentStore, StoreError};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Snapshot header with section counts, enabling validation on load.
#[derive(Debug, Serialize, Deserialize, PartialEq, Eq)]
struct SnapshotHeader {
    magic: String,
    version: u32,
    documents: usize,
    links: usize,
    hosts: usize,
}

const MAGIC: &str = "bingo-snapshot";
const VERSION: u32 = 1;

/// Write a snapshot of the store to `w`.
///
/// Byte-identical for an in-memory store and a segmented store holding
/// the same rows: both emit documents sorted by id, links in insertion
/// order, hosts sorted by id — so checkpoints and equivalence tests
/// can compare the two backends literally.
pub fn write_snapshot<W: Write>(store: &DocumentStore, w: W) -> Result<(), StoreError> {
    if let Some(spine) = &store.spine {
        return write_snapshot_segmented(&spine.read(), w);
    }
    let mut w = BufWriter::new(w);
    let inner = store.inner.read();
    let header = SnapshotHeader {
        magic: MAGIC.to_string(),
        version: VERSION,
        documents: inner.documents.len(),
        links: inner.links.len(),
        hosts: inner.hosts.len(),
    };
    let io_err = |e: std::io::Error| StoreError::Persist(e.to_string());
    let ser_err = |e: serde_json::Error| StoreError::Persist(e.to_string());

    serde_json::to_writer(&mut w, &header).map_err(ser_err)?;
    w.write_all(b"\n").map_err(io_err)?;
    // Deterministic order: sort by id so snapshots are comparable.
    let mut ids: Vec<_> = inner.documents.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        serde_json::to_writer(&mut w, &inner.documents[&id]).map_err(ser_err)?;
        w.write_all(b"\n").map_err(io_err)?;
    }
    for link in &inner.links {
        serde_json::to_writer(&mut w, link).map_err(ser_err)?;
        w.write_all(b"\n").map_err(io_err)?;
    }
    let mut host_ids: Vec<_> = inner.hosts.keys().copied().collect();
    host_ids.sort_unstable();
    for id in host_ids {
        serde_json::to_writer(&mut w, &inner.hosts[&id]).map_err(ser_err)?;
        w.write_all(b"\n").map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Segmented branch of [`write_snapshot`]: materialize the merged
/// (workspace + sealed, overrides applied) tables and emit the same
/// byte stream the in-memory path would.
fn write_snapshot_segmented<W: Write>(
    spine: &crate::segment::Spine,
    w: W,
) -> Result<(), StoreError> {
    let mut w = BufWriter::new(w);
    let io_err = |e: std::io::Error| StoreError::Persist(e.to_string());
    let ser_err = |e: serde_json::Error| StoreError::Persist(e.to_string());
    let header = SnapshotHeader {
        magic: MAGIC.to_string(),
        version: VERSION,
        documents: spine.document_count(),
        links: spine.link_count(),
        hosts: spine.host_count(),
    };
    serde_json::to_writer(&mut w, &header).map_err(ser_err)?;
    w.write_all(b"\n").map_err(io_err)?;
    let mut docs = spine.all_documents();
    docs.sort_unstable_by_key(|d| d.id);
    for row in &docs {
        serde_json::to_writer(&mut w, row).map_err(ser_err)?;
        w.write_all(b"\n").map_err(io_err)?;
    }
    let mut link_err = None;
    spine.for_each_link(|link| {
        if link_err.is_none() {
            link_err = serde_json::to_writer(&mut w, link)
                .map_err(ser_err)
                .and_then(|()| w.write_all(b"\n").map_err(io_err))
                .err();
        }
    })?;
    if let Some(e) = link_err {
        return Err(e);
    }
    for host in spine.hosts_sorted() {
        serde_json::to_writer(&mut w, &host).map_err(ser_err)?;
        w.write_all(b"\n").map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Read a snapshot into a fresh store.
pub fn read_snapshot<R: Read>(r: R) -> Result<DocumentStore, StoreError> {
    let mut lines = BufReader::new(r).lines();
    let perr = |m: String| StoreError::Persist(m);
    let header_line = lines
        .next()
        .ok_or_else(|| perr("empty snapshot".into()))?
        .map_err(|e| perr(e.to_string()))?;
    let header: SnapshotHeader =
        serde_json::from_str(&header_line).map_err(|e| perr(e.to_string()))?;
    if header.magic != MAGIC {
        return Err(perr(format!("bad magic {:?}", header.magic)));
    }
    if header.version != VERSION {
        return Err(perr(format!("unsupported version {}", header.version)));
    }

    let store = DocumentStore::new();
    let mut next = || -> Result<String, StoreError> {
        lines
            .next()
            .ok_or_else(|| perr("truncated snapshot".into()))?
            .map_err(|e| perr(e.to_string()))
    };
    for _ in 0..header.documents {
        let row: DocumentRow = serde_json::from_str(&next()?).map_err(|e| perr(e.to_string()))?;
        store
            .insert_document(row)
            .map_err(|e| perr(e.to_string()))?;
    }
    let mut links = Vec::with_capacity(header.links);
    for _ in 0..header.links {
        let row: LinkRow = serde_json::from_str(&next()?).map_err(|e| perr(e.to_string()))?;
        links.push(row);
    }
    store.insert_links(links);
    for _ in 0..header.hosts {
        let row: HostRow = serde_json::from_str(&next()?).map_err(|e| perr(e.to_string()))?;
        store.upsert_host(row);
    }
    Ok(store)
}

/// Load a snapshot from a file path.
pub fn load<P: AsRef<Path>>(path: P) -> Result<DocumentStore, StoreError> {
    let f = std::fs::File::open(path).map_err(|e| StoreError::Persist(e.to_string()))?;
    read_snapshot(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::HostState;
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
        s.upsert_host(HostRow {
            id: 0,
            name: "h0".into(),
            state: HostState::Slow,
            failures: 2,
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
        assert_eq!(loaded.host_count(), 1);
        assert_eq!(loaded.document(3).unwrap().title, "t3");
        assert_eq!(loaded.topic_documents(1).len(), 5);
        assert_eq!(loaded.host(0).unwrap().state, HostState::Slow);
        use bingo_graph::LinkSource;
        assert_eq!(loaded.successors(0), vec![1]);
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
