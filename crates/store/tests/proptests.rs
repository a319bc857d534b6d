//! Property-based tests of the storage engine: index consistency under
//! arbitrary operation sequences and lossless snapshots of arbitrary
//! databases. Rows carry what the packed workspace must keep exactly:
//! unsorted `term_freqs` with repeated term ids, term ids and tfs up to
//! `u32::MAX` (tf 0, 1, 127, 128 drawn often: the varint boundaries),
//! empty and non-ASCII urls and titles, urls shared by several rows,
//! and links repeated with repeated hrefs.

use bingo_graph::LinkSource;
use bingo_store::segment::{SegmentEntry, SegmentManifest};
use bingo_store::{persist, DocumentHead, DocumentRow, DocumentStore, LinkRow, SegmentStoreConfig};
use bingo_textproc::MimeType;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A term id: mostly small (so ids repeat within a row), sometimes
/// anywhere in `u32`.
fn term_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..40, 0u32..40, Just(u32::MAX), any::<u32>()]
}

/// A tf: the varint boundaries and the extremes, or anything small.
fn tf_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(127u32),
        Just(128u32),
        Just(u32::MAX),
        0u32..300,
        any::<u32>(),
    ]
}

/// A url: the page's own, or one several rows share (empty, non-ASCII).
fn url_of(id: u64, host: u32, pick: u8) -> String {
    match pick {
        0 => String::new(),
        1 => format!("http://bücher.example/straße/{}", id % 3),
        2 => "http://shared.example/".to_string(),
        _ => format!("http://h{host}.example/p{id}"),
    }
}

fn row_strategy() -> impl Strategy<Value = DocumentRow> {
    (
        (0u64..60, 0u32..8, 0u8..8),
        proptest::option::of(0u32..5),
        -1.0f32..1.0,
        proptest::collection::vec((term_strategy(), tf_strategy()), 0..12),
        0usize..5000,
        prop_oneof![Just(String::new()), "[a-z ]{0,8}", "[a-zäöüß语言 ]{1,6}"],
    )
        .prop_map(
            |((id, host, pick), topic, confidence, term_freqs, size, title)| DocumentRow {
                id,
                url: url_of(id, host, pick),
                host,
                mime: MimeType::Html,
                depth: (id % 7) as u32,
                title,
                topic,
                confidence,
                term_freqs,
                size,
                fetched_at: id * 3,
            },
        )
}

/// An href: the target's own, or one many links share.
fn href_of(to: u64, pick: u8) -> String {
    match pick {
        0 => String::new(),
        1 => "http://ä.example/ü".to_string(),
        _ => format!("u{to}"),
    }
}

/// An operation against the store.
#[derive(Debug, Clone)]
enum Op {
    Insert(DocumentRow),
    SetTopic(u64, Option<u32>, f32),
    /// `from`, `to`, and which href the link carries.
    Link(u64, u64, u8),
    /// Seal the store's workspace (no-op on a store with no directory)
    /// — this is what makes flush points arbitrary.
    Seal,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        row_strategy().prop_map(Op::Insert),
        (0u64..60, proptest::option::of(0u32..5), -1.0f32..1.0)
            .prop_map(|(id, t, c)| Op::SetTopic(id, t, c)),
        (0u64..60, 0u64..60, 0u8..4).prop_map(|(a, b, h)| Op::Link(a, b, h)),
        // Few pages: edges and hrefs repeat.
        (0u64..4, 0u64..4, 0u8..4).prop_map(|(a, b, h)| Op::Link(a, b, h)),
    ]
}

fn seg_op_strategy() -> impl Strategy<Value = Op> {
    // Unweighted arms (the vendored proptest has no weight syntax):
    // listing op_strategy twice biases toward data ops over seals.
    prop_oneof![op_strategy(), op_strategy(), Just(Op::Seal)]
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("bingo-store-prop-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn apply(store: &DocumentStore, op: &Op) -> bool {
    match op {
        Op::Insert(row) => store.insert_document(row.clone()).is_ok(),
        Op::SetTopic(id, t, c) => store.set_topic(*id, *t, *c).is_ok(),
        Op::Link(a, b, h) => {
            store.insert_link(LinkRow {
                from: *a,
                to: *b,
                to_url: href_of(*b, *h),
            });
            true
        }
        Op::Seal => {
            store.seal_now().expect("seal");
            true
        }
    }
}

/// What every store must answer, kept the plainest way: the rows by id
/// in insertion order, the link log, and per-topic id lists maintained
/// as reassignments happen.
#[derive(Default)]
struct Model {
    docs: BTreeMap<u64, DocumentRow>,
    inserted: Vec<u64>,
    links: Vec<LinkRow>,
    by_topic: BTreeMap<u32, Vec<u64>>,
}

impl Model {
    fn apply(&mut self, op: &Op) -> bool {
        match op {
            Op::Insert(row) => {
                if self.docs.contains_key(&row.id) {
                    return false;
                }
                if let Some(t) = row.topic {
                    self.by_topic.entry(t).or_default().push(row.id);
                }
                self.inserted.push(row.id);
                self.docs.insert(row.id, row.clone());
            }
            Op::SetTopic(id, topic, confidence) => {
                let Some(row) = self.docs.get_mut(id) else {
                    return false;
                };
                if let Some(old) = row.topic {
                    self.by_topic.entry(old).or_default().retain(|d| d != id);
                }
                row.topic = *topic;
                row.confidence = *confidence;
                if let Some(t) = topic {
                    self.by_topic.entry(*t).or_default().push(*id);
                }
            }
            Op::Link(a, b, h) => self.links.push(LinkRow {
                from: *a,
                to: *b,
                to_url: href_of(*b, *h),
            }),
            Op::Seal => {}
        }
        true
    }

    /// Distinct `pick`ed neighbours over the link log, in first
    /// occurrence order.
    fn adjacent(&self, pick: impl Fn(&LinkRow) -> Option<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        for n in self.links.iter().filter_map(pick) {
            if !out.contains(&n) {
                out.push(n);
            }
        }
        out
    }

    fn topic(&self, t: u32) -> Vec<u64> {
        self.by_topic.get(&t).cloned().unwrap_or_default()
    }

    /// The rows in the order a scan must yield them. Seals keep
    /// insertion order, so every store scans in insertion order.
    fn scan(&self) -> Vec<DocumentRow> {
        self.inserted
            .iter()
            .map(|id| self.docs[id].clone())
            .collect()
    }

    /// Each stored url with the id of the newest row holding it.
    fn by_url(&self) -> BTreeMap<String, u64> {
        self.inserted
            .iter()
            .map(|id| (self.docs[id].url.clone(), *id))
            .collect()
    }

    /// The bytes `persist::write_snapshot` must write: a header, the rows
    /// by id, then the link log.
    fn snapshot(&self) -> Vec<u8> {
        let mut out = format!(
            "{{\"magic\":\"bingo-snapshot\",\"version\":1,\"documents\":{},\"links\":{}}}\n",
            self.docs.len(),
            self.links.len()
        )
        .into_bytes();
        for row in self.docs.values() {
            serde_json::to_writer(&mut out, row).unwrap();
            out.push(b'\n');
        }
        for link in &self.links {
            serde_json::to_writer(&mut out, link).unwrap();
            out.push(b'\n');
        }
        out
    }
}

/// What [`DocumentStore::with_head`] reads of a row.
type Head = (String, String, u32, Option<u32>, f32);

fn head_of(head: DocumentHead<'_>) -> Head {
    let text = |s: &str| s.to_string();
    (
        text(head.url()),
        text(head.title()),
        head.host,
        head.topic,
        head.confidence,
    )
}

/// `store` answers every read as `model` does; `topics_in_order` is
/// false after a reopen, which rebuilds topic lists in insertion order.
fn check(store: &DocumentStore, model: &Model, topics_in_order: bool) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.document_count(), model.docs.len());
    prop_assert_eq!(store.link_count(), model.links.len());
    for id in 0..60u64 {
        let row = model.docs.get(&id).cloned();
        prop_assert_eq!(store.document(id), row.clone(), "doc {}", id);
        let want = row.as_ref().map(|r| {
            (
                r.url.clone(),
                r.title.clone(),
                r.host,
                r.topic,
                r.confidence,
            )
        });
        prop_assert_eq!(store.with_head(id, head_of), want, "head {}", id);
        prop_assert_eq!(
            store.host_of(id),
            row.map_or(0, |r| r.host),
            "host_of {}",
            id
        );
        let succ = model.adjacent(|l| (l.from == id).then_some(l.to));
        prop_assert_eq!(store.successors(id), succ, "succ {}", id);
        let pred = model.adjacent(|l| (l.to == id).then_some(l.from));
        prop_assert_eq!(store.predecessors(id), pred, "pred {}", id);
    }
    for t in 0..5u32 {
        let (mut got, mut want) = (store.topic_documents(t), model.topic(t));
        if !topics_in_order {
            got.sort_unstable();
            want.sort_unstable();
        }
        prop_assert_eq!(got, want, "topic {}", t);
    }
    for (url, id) in model.by_url() {
        let hit = store.document_by_url(&url);
        prop_assert_eq!(hit, Some(model.docs[&id].clone()), "url {}", &url);
    }
    prop_assert_eq!(store.all_links(), model.links.clone());
    prop_assert_eq!(store.all_documents(), model.scan(), "scan order");
    let mut streamed = Vec::new();
    store.for_each_document(|row| streamed.push(row.clone()));
    prop_assert_eq!(streamed, model.scan(), "for_each_document");
    let mut snapshot = Vec::new();
    persist::write_snapshot(store, &mut snapshot).unwrap();
    prop_assert!(snapshot == model.snapshot(), "write_snapshot bytes");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topic_index_always_matches_rows(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let store = DocumentStore::new();
        for op in &ops {
            apply(&store, op);
        }
        // Invariant: the by-topic index and the row fields agree exactly.
        let mut by_row: std::collections::HashMap<u32, std::collections::BTreeSet<u64>> =
            Default::default();
        store.for_each_document(|row| {
            if let Some(t) = row.topic {
                by_row.entry(t).or_default().insert(row.id);
            }
        });
        for t in 0..5u32 {
            let idx: std::collections::BTreeSet<u64> =
                store.topic_documents(t).into_iter().collect();
            let rows = by_row.remove(&t).unwrap_or_default();
            prop_assert_eq!(idx, rows, "topic {} index mismatch", t);
        }
        // Invariant: link index is symmetric.
        for id in 0..60u64 {
            for succ in store.successors(id) {
                prop_assert!(store.predecessors(succ).contains(&id));
            }
        }
    }

    #[test]
    fn snapshots_are_lossless(
        rows in proptest::collection::vec(row_strategy(), 0..40),
        links in proptest::collection::vec((0u64..60, 0u64..60), 0..20),
    ) {
        let store = DocumentStore::new();
        let mut inserted: std::collections::BTreeSet<u64> = Default::default();
        for row in rows {
            if store.insert_document(row.clone()).is_ok() {
                inserted.insert(row.id);
            }
        }
        for (a, b) in links {
            store.insert_link(LinkRow { from: a, to: b, to_url: format!("u{b}") });
        }

        let mut buf = Vec::new();
        persist::write_snapshot(&store, &mut buf).unwrap();
        let restored = persist::read_snapshot(&buf[..]).unwrap();

        prop_assert_eq!(restored.document_count(), store.document_count());
        prop_assert_eq!(restored.link_count(), store.link_count());
        for &id in &inserted {
            prop_assert_eq!(restored.document(id), store.document(id));
            let mut a = restored.successors(id);
            let mut b = store.successors(id);
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
        // Second snapshot of the restored store is byte-identical.
        let mut buf2 = Vec::new();
        persist::write_snapshot(&restored, &mut buf2).unwrap();
        prop_assert_eq!(buf, buf2);
    }

    /// A store with no directory and one with a directory, sealed at
    /// arbitrary (flush) points, both answer as the plain model does —
    /// same rows, same index order, same link adjacency, rows scanned
    /// in insertion order — and write byte-identical snapshots; reads
    /// stay stable across a reopen from disk.
    #[test]
    fn segmented_store_matches_in_memory_for_arbitrary_seal_points(
        ops in proptest::collection::vec(seg_op_strategy(), 0..100)
    ) {
        let dir = fresh_dir("seg");
        let mut model = Model::default();
        let mem = DocumentStore::new();
        // Threshold high enough that only explicit Op::Seal seals.
        let seg = DocumentStore::segmented_with(&dir, 1_000_000).unwrap();
        for op in &ops {
            let want = model.apply(op);
            prop_assert_eq!(apply(&mem, op), want, "op outcome diverged: {:?}", op);
            prop_assert_eq!(apply(&seg, op), want, "op outcome diverged: {:?}", op);
        }
        prop_assert_eq!(mem.segment_count(), 0);
        check(&mem, &model, true)?;
        check(&seg, &model, true)?;

        // Snapshots of the two stores are byte-identical.
        let mut mem_snap = Vec::new();
        persist::write_snapshot(&mem, &mut mem_snap).unwrap();
        let mut seg_snap = Vec::new();
        persist::write_snapshot(&seg, &mut seg_snap).unwrap();
        prop_assert_eq!(&mem_snap, &seg_snap, "live snapshot bytes diverged");

        // Permutation stability across reopen: a final seal persists
        // the workspace and trailing overrides; reading the directory
        // back yields the same database (topic lists are set-equal —
        // reopen rebuilds them in insertion order).
        seg.seal_now().unwrap();
        drop(seg);
        let re = DocumentStore::segmented_with(&dir, 1_000_000).unwrap();
        check(&re, &model, false)?;
        let mut re_snap = Vec::new();
        persist::write_snapshot(&re, &mut re_snap).unwrap();
        prop_assert_eq!(&mem_snap, &re_snap, "reopen snapshot bytes diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a checkpoint generation stores for a segmented store — the
    /// segment references plus the workspace rows — loads back into the
    /// same database as the full snapshot taken at the same moment,
    /// whatever the rows, seal points and overrides on sealed rows; and
    /// loading it leaves the segment directory exactly as it was.
    #[test]
    fn checkpoint_references_load_as_the_full_snapshot(
        ops in proptest::collection::vec(seg_op_strategy(), 0..100),
    ) {
        let dir = fresh_dir("ckpt");
        let cfg = SegmentStoreConfig {
            // Threshold high enough that only explicit Op::Seal seals.
            seal_every: 1_000_000,
            ..Default::default()
        };
        let live = DocumentStore::segmented_cfg(&dir, cfg.clone()).unwrap();
        for op in &ops {
            apply(&live, op);
        }
        let listing = || -> Vec<(String, u64, std::time::SystemTime)> {
            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .map(|entries| {
                    entries
                        .map(|e| e.unwrap())
                        .map(|e| {
                            let meta = e.metadata().unwrap();
                            let name = e.file_name().to_string_lossy().into_owned();
                            (name, meta.len(), meta.modified().unwrap())
                        })
                        .collect()
                })
                .unwrap_or_default(); // nothing sealed yet: no directory
            files.sort();
            files
        };

        let mut full = Vec::new();
        persist::write_snapshot(&live, &mut full).unwrap();
        let mut checkpoint = Vec::new();
        persist::write_checkpoint(&live, &mut checkpoint).unwrap();
        // One header, then the unsealed rows and nothing else.
        let text = std::str::from_utf8(&checkpoint).unwrap();
        let header: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        let count = |name: &str| header.get(name).and_then(|n| n.as_u64()).unwrap() as usize;
        prop_assert_eq!(count("documents"), live.workspace_documents());
        prop_assert_eq!(text.lines().count(), 1 + count("documents") + count("links"));

        let before = listing();
        let loaded = persist::read_snapshot(&checkpoint[..]).unwrap();
        prop_assert_eq!(listing(), before, "loading touched the segment directory");
        prop_assert!(loaded.is_segmented());
        prop_assert_eq!(loaded.segment_dir(), live.segment_dir());
        prop_assert_eq!(loaded.segment_count(), live.segment_count());
        prop_assert_eq!(loaded.workspace_documents(), live.workspace_documents());

        let mut reloaded = Vec::new();
        persist::write_snapshot(&loaded, &mut reloaded).unwrap();
        prop_assert_eq!(&reloaded, &full, "loaded checkpoint is not the full snapshot");
        for id in 0..60u64 {
            prop_assert_eq!(loaded.document(id), live.document(id), "doc {}", id);
        }
        for row in live.all_documents() {
            let hit = loaded.document_by_url(&row.url);
            prop_assert_eq!(hit, live.document_by_url(&row.url), "url {}", &row.url);
        }
        for t in 0..5u32 {
            let as_set = |s: &DocumentStore| -> std::collections::BTreeSet<u64> {
                s.topic_documents(t).into_iter().collect()
            };
            prop_assert_eq!(as_set(&loaded), as_set(&live), "topic {}", t);
        }
        prop_assert_eq!(loaded.all_links(), live.all_links());

        // The loaded handle carries its lineage forward: its next seal
        // commits it (even with nothing to seal), and the directory then
        // reopens as the same database.
        drop(live);
        loaded.seal_now().unwrap();
        drop(loaded);
        let reopened = DocumentStore::segmented_cfg(&dir, cfg).unwrap();
        let mut resealed = Vec::new();
        persist::write_snapshot(&reopened, &mut resealed).unwrap();
        prop_assert_eq!(&resealed, &full, "sealed checkpoint lineage diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `SEGMENTS.json` text is a fixed point of the codec. A manifest as
    /// earlier builds wrote it, with an empty `hosts` list after the
    /// overrides, reads back as the same manifest: saving it again drops
    /// only that key.
    #[test]
    fn segment_manifest_text_is_a_fixed_point(
        segments in proptest::collection::vec((0u64..1_000_000, 0u64..500, any::<u64>()), 0..6),
        overrides in proptest::collection::vec(
            (any::<u64>(), proptest::option::of(0u32..5), -1.0f32..1.0),
            0..6,
        ),
    ) {
        let manifest = SegmentManifest {
            magic: "bingo-segments".into(),
            version: 1,
            next_seg: segments.len() as u64,
            segments: segments
                .iter()
                .enumerate()
                .map(|(i, &(len, docs, checksum))| SegmentEntry {
                    name: format!("seg-{i:06}.jsonl"),
                    docs,
                    links: docs / 3,
                    len,
                    checksum,
                })
                .collect(),
            overrides,
        };
        let text = serde_json::to_string(&manifest).unwrap();
        let back: SegmentManifest = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&serde_json::to_string(&back).unwrap(), &text);

        let at = text.len() - 1;
        let parent = format!("{},\"hosts\":[]{}", &text[..at], &text[at..]);
        let back: SegmentManifest = serde_json::from_str(&parent).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
