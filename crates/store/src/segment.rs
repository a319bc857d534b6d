//! Append-only on-disk segments behind an in-memory write workspace —
//! the one backend of every [`crate::DocumentStore`].
//!
//! The paper's crawl result "may be a database with several million
//! documents" (Section 1.2). This module gives the store a BUbiNG-style
//! memory-bounded shape: writes land in an in-memory **workspace**, and
//! [`BulkLoader::flush`](crate::BulkLoader) periodically **seals** the
//! workspace into an immutable on-disk **segment** file. Reads merge the
//! workspace with lazy segment reads, so resident memory holds only
//! per-row *locators* (segment + byte offset), never the million
//! document bodies. A store with no directory ([`crate::DocumentStore::new`])
//! is the same structure with a workspace that never seals.
//!
//! On-disk layout of a segmented store directory:
//!
//! ```text
//! store-dir/
//!   SEGMENTS.json      <- manifest: the commit record (written last)
//!   seg-000000.jsonl   <- header line, then doc rows, then link rows
//!   seg-000001.jsonl
//!   ...
//! ```
//!
//! Crash consistency reuses the [`crate::durable`] discipline:
//!
//! * Segment files and the manifest are installed with
//!   [`DurableFs::atomic_write`] — a torn write leaves at most a
//!   sibling `.tmp` prefix, never a half-written segment.
//! * The manifest is rewritten *after* the segment file: a crash
//!   between the two leaves an **orphan** segment file that the
//!   manifest never references. Recovery ignores it and
//!   [`reap_orphan_segments`] (also run by
//!   [`crate::durable::prune_generations`]) deletes it; the workspace
//!   rows it contained were never acked as sealed, so nothing is lost.
//! * On open, every referenced segment is verified against its
//!   recorded length and checksum before any locator is trusted.
//! * A checkpoint generation of a segmented store references sealed
//!   segments by name, length and checksum instead of copying their
//!   rows ([`crate::persist::write_checkpoint`]), and loading one opens
//!   this directory *at the manifest it recorded*, touching nothing.
//!   From the first reference on the store never deletes or rewrites a
//!   file a kept generation may name: compaction moves the entries it
//!   replaces into the manifest's `retained` list (same atomic commit)
//!   instead of orphaning them, every reap spares `retained`, and
//!   [`crate::persist::release_unreferenced`] drops what the surviving
//!   generations no longer list.
//!
//! Segment readers are lazy ("mmap-or-read" resolved to the portable
//! read path): a point lookup seeks to the row's recorded offset and
//! reads exactly one line; scans stream one segment at a time.
//!
//! Sealing changes no answer (property-tested in `tests/proptests.rs`
//! against a plain model), with one documented deviation: after a
//! *reopen* the per-topic id lists reflect insertion order with topic
//! overrides applied in place, not the original reassignment order
//! (set-equal, order may differ).

use crate::durable::{checksum, DurableFs};
use crate::tables::{DocumentRow, LinkRow};
use crate::StoreError;
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash::{self, FxHashMap};
use serde::{Deserialize, Serialize};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// File name of the segment manifest (the commit record).
pub const SEGMENTS_FILE: &str = "SEGMENTS.json";
/// Format marker of the segment manifest.
pub const SEGMENTS_MAGIC: &str = "bingo-segments";
/// Format marker of individual segment files.
pub const SEGMENT_MAGIC: &str = "bingo-segment";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Default workspace size (documents) that triggers a seal of the
/// workspace into a new on-disk segment.
pub const DEFAULT_SEAL_EVERY: usize = 4096;
/// Sparse-index sampling interval: one resident `(id, offset)` pair per
/// this many sealed rows; a point lookup reads at most one such block.
pub const SPARSE_SAMPLE_EVERY: usize = 64;

/// Behavior of a segmented store beyond the seal threshold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentStoreConfig {
    /// Workspace size (documents) that triggers a seal
    /// ([`DEFAULT_SEAL_EVERY`]).
    pub seal_every: usize,
    /// Sparse resident index. The dense default keeps one locator per
    /// sealed row (exact, byte-identical to the historical layout);
    /// sparse mode keeps only per-segment fence keys plus every
    /// [`SPARSE_SAMPLE_EVERY`]th `(id, offset)` sample, sorts each
    /// segment's rows by id, and answers point reads with one block
    /// read. Sparse stores drop the resident URL-hash and topic
    /// indexes too: [`crate::DocumentStore::document_by_url`] and
    /// [`crate::DocumentStore::topic_documents`] become cold scans
    /// (set-equal, order may differ — same caveat as a dense reopen).
    pub sparse: bool,
    /// Merge adjacent runs of small sealed segments after a seal;
    /// `None` never compacts.
    pub compaction: Option<CompactionConfig>,
}

impl Default for SegmentStoreConfig {
    fn default() -> Self {
        SegmentStoreConfig {
            seal_every: DEFAULT_SEAL_EVERY,
            sparse: false,
            compaction: None,
        }
    }
}

/// When and how sealed segments are merged. Compaction bounds the
/// segment count (and with it open-time verification cost and
/// per-segment resident index overhead) on long crawls whose seals are
/// small, and *materializes* topic overrides into the rewritten rows so
/// the resident override map shrinks back.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CompactionConfig {
    /// Segments with fewer document rows than this are merge
    /// candidates.
    pub small_docs: usize,
    /// Minimum adjacent run of candidates that triggers a merge (at
    /// most one run is merged per seal).
    pub min_run: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            small_docs: DEFAULT_SEAL_EVERY,
            min_run: 4,
        }
    }
}

/// Deterministic compaction counters (all zero when compaction is off).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Merge runs performed.
    pub runs: u64,
    /// Source segments consumed by merges.
    pub segments_merged: u64,
    /// Document rows rewritten.
    pub rows_rewritten: u64,
    /// Topic overrides materialized into rewritten rows (and dropped
    /// from the resident override map).
    pub overrides_materialized: u64,
    /// Bytes written into merged segments.
    pub bytes_written: u64,
    /// Replaced segment files reaped after commit.
    pub orphans_reaped: u64,
}

fn url_hash(url: &str) -> u64 {
    fxhash::hash_one(url)
}

pub(crate) fn pe<E: std::fmt::Display>(e: E) -> StoreError {
    StoreError::Persist(e.to_string())
}

/// Parse one JSONL line (the vendored serde_json has no `from_slice`).
fn from_line<T: serde::Deserialize>(line: &[u8]) -> Result<T, StoreError> {
    serde_json::from_str(std::str::from_utf8(line).map_err(pe)?).map_err(pe)
}

/// One sealed segment recorded in the manifest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment file name relative to the store directory.
    pub name: String,
    /// Document rows in the segment.
    pub docs: u64,
    /// Link rows in the segment.
    pub links: u64,
    /// Exact byte length of the file.
    pub len: u64,
    /// [`checksum`] of the file bytes.
    pub checksum: u64,
}

/// The store-level commit record: which segments exist, plus the small
/// mutable state (topic overrides) that rides along.
///
/// Rewritten atomically at every seal. Topic overrides that happen
/// *after* the last seal live only in memory until the next seal —
/// durable via [`crate::persist`] checkpoints in the meantime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentManifest {
    /// Format marker ([`SEGMENTS_MAGIC`]).
    pub magic: String,
    /// Format version ([`SEGMENT_VERSION`]).
    pub version: u32,
    /// Number the next sealed segment will take.
    pub next_seg: u64,
    /// Sealed segments in seal order.
    pub segments: Vec<SegmentEntry>,
    /// Re-classification overrides applied to sealed rows:
    /// `(id, topic, confidence)`, sorted by id.
    pub overrides: Vec<(PageId, Option<u32>, f32)>,
    /// File names of segments compaction replaced while a checkpoint
    /// generation may still reference them. Not part of the store's
    /// contents, but every reap treats them as referenced until
    /// [`crate::persist::release_unreferenced`] drops them. Omitted when
    /// empty, so a store no checkpoint generation references writes the
    /// same `SEGMENTS.json` bytes as builds that predate the field, and
    /// their files still load.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub retained: Vec<String>,
}

impl SegmentManifest {
    fn empty() -> Self {
        SegmentManifest {
            magic: SEGMENTS_MAGIC.to_string(),
            version: SEGMENT_VERSION,
            next_seg: 0,
            segments: Vec::new(),
            overrides: Vec::new(),
            retained: Vec::new(),
        }
    }
}

/// First line of every segment file.
#[derive(Debug, Serialize, Deserialize)]
struct SegmentHeader {
    magic: String,
    version: u32,
    seg: u64,
    docs: u64,
    links: u64,
}

/// Locator of one sealed document row: which segment, and where in it.
/// This — not the row — is what stays resident per document (dense
/// index mode only).
#[derive(Debug, Clone, Copy)]
struct SegLoc {
    seg: u32,
    offset: u64,
    len: u32,
}

/// Sparse resident index of one sealed segment (rows sorted by id):
/// fence keys plus every [`SPARSE_SAMPLE_EVERY`]th row's `(id, byte
/// offset)`. A point lookup binary-searches the samples and reads one
/// block — O(rows / SAMPLE) resident entries instead of O(rows).
#[derive(Debug, Clone)]
struct SparseSegIndex {
    min_id: PageId,
    max_id: PageId,
    /// `(id, byte offset)` of every Nth row; the first row is always
    /// sampled, so `partition_point` never lands before a block start.
    samples: Vec<(PageId, u64)>,
    /// End offset of the document-row region (scan upper bound of the
    /// last block).
    docs_end: u64,
}

impl SparseSegIndex {
    /// Build from each sealed row's `(id, offset, len)`, in file order
    /// (= ascending id). A docless segment (links only) gets an
    /// always-miss fence.
    fn from_rows(rows: &[(PageId, u64, u32)]) -> Self {
        let Some(&(last_id, last_off, last_len)) = rows.last() else {
            return SparseSegIndex {
                min_id: 1,
                max_id: 0,
                samples: Vec::new(),
                docs_end: 0,
            };
        };
        SparseSegIndex {
            min_id: rows[0].0,
            max_id: last_id,
            samples: rows
                .iter()
                .step_by(SPARSE_SAMPLE_EVERY)
                .map(|&(id, off, _)| (id, off))
                .collect(),
            docs_end: last_off + last_len as u64 + 1,
        }
    }
}

/// A segment file split into lines with their byte offsets.
struct ParsedSegment<'a> {
    header: SegmentHeader,
    /// `(absolute byte offset, line bytes)` for each document row.
    doc_lines: Vec<(u64, &'a [u8])>,
    /// Line bytes for each link row.
    link_lines: Vec<&'a [u8]>,
}

fn parse_segment(bytes: &[u8]) -> Result<ParsedSegment<'_>, StoreError> {
    let mut lines: Vec<(u64, &[u8])> = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| pos + i)
            .unwrap_or(bytes.len());
        lines.push((pos as u64, &bytes[pos..end]));
        pos = end + 1;
    }
    let Some(&(_, header_line)) = lines.first() else {
        return Err(pe("empty segment file"));
    };
    let header: SegmentHeader = from_line(header_line)?;
    if header.magic != SEGMENT_MAGIC || header.version != SEGMENT_VERSION {
        return Err(pe(format!("bad segment header magic/version: {header:?}")));
    }
    let expect = 1 + header.docs as usize + header.links as usize;
    if lines.len() != expect {
        return Err(pe(format!(
            "segment line count {} != header {}",
            lines.len(),
            expect
        )));
    }
    let doc_lines = lines[1..1 + header.docs as usize].to_vec();
    let link_lines = lines[1 + header.docs as usize..]
        .iter()
        .map(|&(_, l)| l)
        .collect();
    Ok(ParsedSegment {
        header,
        doc_lines,
        link_lines,
    })
}

/// The store state: workspace + sealed segments + resident locator
/// indexes. Wrapped in a lock by [`crate::DocumentStore`].
pub(crate) struct Spine {
    /// `None` for a store with no directory: it never seals.
    dir: Option<PathBuf>,
    manifest: SegmentManifest,
    cfg: SegmentStoreConfig,
    // --- in-memory write workspace (insertion order defines segment bytes) ---
    ws_docs: Vec<DocumentRow>,
    ws_index: FxHashMap<PageId, usize>,
    ws_links: Vec<LinkRow>,
    /// The distinct edges of `ws_links`.
    ws_edges: Adjacency,
    // --- resident indexes over sealed rows (dense mode) ---
    locs: FxHashMap<PageId, SegLoc>,
    /// `fxhash(url) -> id` of the first URL with that hash, verified
    /// against the row's URL on read.
    by_url_hash: FxHashMap<u64, PageId>,
    /// Exact `url -> id` for every later URL whose hash slot in
    /// `by_url_hash` was already taken. Newer than the slot's row, so
    /// it is asked first.
    url_collisions: FxHashMap<String, PageId>,
    /// Effective topic -> ids, workspace and sealed rows combined, in
    /// (re)assignment order.
    by_topic: FxHashMap<u32, Vec<PageId>>,
    // --- resident indexes over sealed rows (sparse mode) ---
    /// Per-segment sparse indexes, parallel to `manifest.segments`.
    sparse: Vec<SparseSegIndex>,
    /// Front filter over sealed ids: duplicate-id checks hit disk only
    /// on a probable duplicate.
    sealed_ids: Bloom,
    /// Sealed row count (sparse mode has no `locs` to count).
    sealed_docs_ct: usize,
    // --- shared mutable metadata ---
    /// Re-classification of sealed (immutable) rows, applied on read.
    overrides: FxHashMap<PageId, (Option<u32>, f32)>,
    sealed_links: u64,
    /// Overrides changed since the last manifest commit; a seal with an
    /// empty workspace still recommits the manifest then.
    meta_dirty: bool,
    /// A checkpoint generation may reference this store's segment files
    /// ([`Spine::pin`]): compaction retains what it replaces instead of
    /// orphaning it.
    pinned: bool,
    compaction_stats: CompactionStats,
}

impl std::fmt::Debug for Spine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spine")
            .field("dir", &self.dir)
            .field("segments", &self.manifest.segments.len())
            .field("sealed_docs", &self.locs.len())
            .field("workspace_docs", &self.ws_docs.len())
            .finish()
    }
}

/// Distinct `[from, to]` edges in first-occurrence order, chained per
/// source and per target: a lookup walks only its page's edges, and an
/// insert allocates nothing per page.
#[derive(Default)]
struct Adjacency {
    edges: Vec<[PageId; 2]>,
    /// Per edge and side (0: source, 1: target), the next edge with the
    /// same page on that side, or `NO_EDGE`.
    next: Vec<[u32; 2]>,
    /// Per side, the first and last edge of each page.
    ends: [FxHashMap<PageId, (u32, u32)>; 2],
}

const NO_EDGE: u32 = u32::MAX;

impl Adjacency {
    /// The edges whose `side` is `page`, in insertion order.
    fn chain(&self, side: usize, page: PageId) -> impl Iterator<Item = [PageId; 2]> + '_ {
        let mut e = self.ends[side]
            .get(&page)
            .map_or(NO_EDGE, |&(first, _)| first);
        std::iter::from_fn(move || {
            let edge = *self.edges.get(e as usize)?;
            e = self.next[e as usize][side];
            Some(edge)
        })
    }

    fn insert(&mut self, edge: [PageId; 2]) {
        if self.chain(0, edge[0]).any(|known| known == edge) {
            return;
        }
        let e = u32::try_from(self.edges.len()).expect("fewer than 2^32 workspace edges");
        self.edges.push(edge);
        self.next.push([NO_EDGE; 2]);
        for (side, &page) in edge.iter().enumerate() {
            let ends = self.ends[side].entry(page).or_insert((e, e));
            if ends.1 != e {
                self.next[ends.1 as usize][side] = e;
                ends.1 = e;
            }
        }
    }
}

/// Two-probe Bloom front filter over `u128` keys. A negative answer is
/// authoritative; a positive answer is merely a license to go look.
struct Bloom {
    words: Vec<u64>,
    mask: u64,
}

impl Bloom {
    fn new(bits_log2: u32) -> Self {
        let bits = 1u64 << bits_log2.clamp(6, 36);
        Bloom {
            words: vec![0u64; (bits / 64) as usize],
            mask: bits - 1,
        }
    }

    fn probes(key: u128) -> (u64, u64) {
        let h1 = fxhash::hash_one(&key);
        let h2 = fxhash::hash_one(&h1) | 1;
        (h1, h1.wrapping_add(h2))
    }

    // `add` and `maybe` run only for sparse stores. Inlined, they grow
    // `Spine::open_at`'s row loop enough to slow a dense open by ≈3–7%
    // (measured on 40k-row segment sets), so they stay out of line.
    #[inline(never)]
    fn add(&mut self, key: u128) {
        let (a, b) = Self::probes(key);
        for bit in [a & self.mask, b & self.mask] {
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
    }

    #[inline(never)]
    fn maybe(&self, key: u128) -> bool {
        let (a, b) = Self::probes(key);
        [a & self.mask, b & self.mask]
            .iter()
            .all(|bit| self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }
}

/// Front-filter size of the sparse-mode sealed-id Bloom (2^28 bits =
/// 32 MiB): ~0.5% false-positive rate at ten million sealed rows, so
/// duplicate-id checks rarely touch disk.
const SEALED_BLOOM_BITS_LOG2: u32 = 28;

impl Spine {
    /// An empty store; with no directory every row stays in the
    /// workspace.
    pub(crate) fn empty(dir: Option<PathBuf>, cfg: SegmentStoreConfig) -> Self {
        let bloom_bits = if cfg.sparse {
            SEALED_BLOOM_BITS_LOG2
        } else {
            6
        };
        Spine {
            dir,
            manifest: SegmentManifest::empty(),
            cfg: SegmentStoreConfig {
                seal_every: cfg.seal_every.max(1),
                ..cfg
            },
            ws_docs: Vec::new(),
            ws_index: FxHashMap::default(),
            ws_links: Vec::new(),
            ws_edges: Adjacency::default(),
            locs: FxHashMap::default(),
            by_url_hash: FxHashMap::default(),
            url_collisions: FxHashMap::default(),
            by_topic: FxHashMap::default(),
            sparse: Vec::new(),
            sealed_ids: Bloom::new(bloom_bits),
            sealed_docs_ct: 0,
            overrides: FxHashMap::default(),
            sealed_links: 0,
            meta_dirty: false,
            pinned: false,
            compaction_stats: CompactionStats::default(),
        }
    }

    /// Open (or create) a segmented store directory: reap orphans from
    /// a crashed seal, then open at the committed manifest
    /// ([`Spine::open_at`]).
    ///
    /// Index mode belongs to the *handle*, not the files: the same
    /// directory opens dense or sparse (sparse segments are sorted by
    /// id, which a dense open indexes like any other order; a sparse
    /// open of dense segments rejects unsorted segments).
    pub(crate) fn open(dir: PathBuf, cfg: SegmentStoreConfig) -> Result<Self, StoreError> {
        reap_orphan_segments(&dir);
        let text = match std::fs::read_to_string(dir.join(SEGMENTS_FILE)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Spine::empty(Some(dir), cfg))
            }
            Err(e) => return Err(pe(e)),
        };
        Spine::open_at(dir, cfg, serde_json::from_str(&text).map_err(pe)?)
    }

    /// Open `dir` at `manifest` — the committed one ([`Spine::open`])
    /// or the one a checkpoint generation recorded — without touching
    /// the disk: every referenced segment is verified against its
    /// recorded length and checksum before a locator is trusted, and
    /// the resident indexes are rebuilt by streaming each segment once.
    /// Files the manifest does not name are ignored.
    pub(crate) fn open_at(
        dir: PathBuf,
        cfg: SegmentStoreConfig,
        manifest: SegmentManifest,
    ) -> Result<Self, StoreError> {
        let mut spine = Spine::empty(Some(dir), cfg);
        if manifest.magic != SEGMENTS_MAGIC || manifest.version != SEGMENT_VERSION {
            return Err(pe("bad segment manifest magic/version"));
        }
        spine.overrides = manifest
            .overrides
            .iter()
            .map(|&(id, topic, confidence)| (id, (topic, confidence)))
            .collect();
        for (seg, entry) in manifest.segments.iter().enumerate() {
            let bytes = std::fs::read(spine.file(&entry.name)).map_err(pe)?;
            if bytes.len() as u64 != entry.len || checksum(&bytes) != entry.checksum {
                return Err(pe(format!("segment {} failed verification", entry.name)));
            }
            let parsed = parse_segment(&bytes)?;
            if parsed.header.docs != entry.docs || parsed.header.links != entry.links {
                return Err(pe(format!(
                    "segment {} header/manifest mismatch",
                    entry.name
                )));
            }
            let mut sparse_rows: Vec<(PageId, u64, u32)> =
                Vec::with_capacity(if spine.cfg.sparse {
                    parsed.doc_lines.len()
                } else {
                    0
                });
            for &(offset, line) in &parsed.doc_lines {
                let row: DocumentRow = from_line(line)?;
                if spine.cfg.sparse {
                    if let Some(&(prev, _, _)) = sparse_rows.last() {
                        if prev >= row.id {
                            return Err(pe(format!(
                                "segment {} is not id-sorted; reopen it dense",
                                entry.name
                            )));
                        }
                    }
                    sparse_rows.push((row.id, offset, line.len() as u32));
                    spine.sealed_ids.add(row.id as u128);
                } else {
                    spine.index_url(&row.url, row.id);
                    let topic = match spine.overrides.get(&row.id) {
                        Some(&(t, _)) => t,
                        None => row.topic,
                    };
                    if let Some(t) = topic {
                        spine.by_topic.entry(t).or_default().push(row.id);
                    }
                    spine.locs.insert(
                        row.id,
                        SegLoc {
                            seg: seg as u32,
                            offset,
                            len: line.len() as u32,
                        },
                    );
                }
            }
            if spine.cfg.sparse {
                spine.sealed_docs_ct += sparse_rows.len();
                spine.sparse.push(SparseSegIndex::from_rows(&sparse_rows));
            }
            for line in &parsed.link_lines {
                // Parse to validate; the adjacency is streamed on demand.
                let _: LinkRow = from_line(line)?;
            }
            spine.sealed_links += parsed.header.links;
        }
        spine.manifest = manifest;
        Ok(spine)
    }

    /// [`Spine::open_at`] for a manifest recorded by a checkpoint
    /// generation. The handle starts pinned (that generation references
    /// its segments) and with its metadata dirty: `SEGMENTS.json` on
    /// disk may describe segments sealed after the generation, so the
    /// next seal commits this lineage even with an empty workspace.
    pub(crate) fn open_referenced(
        dir: PathBuf,
        cfg: SegmentStoreConfig,
        manifest: SegmentManifest,
    ) -> Result<Self, StoreError> {
        let mut spine = Spine::open_at(dir, cfg, manifest)?;
        spine.pinned = true;
        spine.meta_dirty = true;
        Ok(spine)
    }

    pub(crate) fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The store directory. Only a store with a directory seals, so only
    /// such a store has segments or a manifest to name.
    fn root(&self) -> &Path {
        self.dir()
            .expect("only a store with a directory has sealed files")
    }

    fn file(&self, name: &str) -> PathBuf {
        self.root().join(name)
    }

    pub(crate) fn config(&self) -> &SegmentStoreConfig {
        &self.cfg
    }

    /// The unsealed rows: documents and links in insertion order.
    pub(crate) fn workspace(&self) -> (&[DocumentRow], &[LinkRow]) {
        (&self.ws_docs, &self.ws_links)
    }

    /// Record that a checkpoint generation is about to reference this
    /// store's segment files by name, length and checksum.
    pub(crate) fn pin(&mut self) {
        self.pinned = true;
    }

    /// The manifest a commit would write *now*: the committed segments
    /// with the current overrides.
    pub(crate) fn manifest_now(&self) -> SegmentManifest {
        SegmentManifest {
            overrides: self.overrides_sorted(),
            ..self.manifest.clone()
        }
    }

    /// Install `manifest` as the commit record (atomic rewrite of
    /// `SEGMENTS.json`), then adopt it. On error nothing changed.
    fn commit_manifest(
        &mut self,
        fs: &dyn DurableFs,
        manifest: SegmentManifest,
    ) -> Result<(), StoreError> {
        let mut mjson = Vec::new();
        serde_json::to_writer(&mut mjson, &manifest).map_err(pe)?;
        fs.create_dir_all(self.root()).map_err(pe)?;
        fs.atomic_write(&self.file(SEGMENTS_FILE), &mjson)
            .map_err(pe)?;
        self.manifest = manifest;
        self.meta_dirty = false;
        Ok(())
    }

    pub(crate) fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    pub(crate) fn sealed_documents(&self) -> usize {
        if self.cfg.sparse {
            self.sealed_docs_ct
        } else {
            self.locs.len()
        }
    }

    pub(crate) fn workspace_documents(&self) -> usize {
        self.ws_docs.len()
    }

    pub(crate) fn document_count(&self) -> usize {
        self.sealed_documents() + self.ws_docs.len()
    }

    pub(crate) fn compaction_stats(&self) -> CompactionStats {
        self.compaction_stats
    }

    pub(crate) fn link_count(&self) -> usize {
        self.sealed_links as usize + self.ws_links.len()
    }

    pub(crate) fn insert_document(&mut self, row: DocumentRow) -> Result<(), StoreError> {
        if self.ws_index.contains_key(&row.id) || self.sealed_contains(row.id)? {
            return Err(StoreError::DuplicateKey(row.id));
        }
        if !self.cfg.sparse {
            self.index_url(&row.url, row.id);
            if let Some(topic) = row.topic {
                self.by_topic.entry(topic).or_default().push(row.id);
            }
        }
        self.ws_index.insert(row.id, self.ws_docs.len());
        self.ws_docs.push(row);
        Ok(())
    }

    fn index_url(&mut self, url: &str, id: PageId) {
        if *self.by_url_hash.entry(url_hash(url)).or_insert(id) != id {
            self.url_collisions.insert(url.to_string(), id);
        }
    }

    /// Exact membership; a sealed row that cannot be read counts as
    /// absent, as it does for [`Spine::document`].
    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.ws_index.contains_key(&id) || self.sealed_contains(id).unwrap_or(false)
    }

    /// Exact sealed-row membership. Dense: one resident-map probe.
    /// Sparse: the Bloom filter answers "definitely not" for almost
    /// every fresh id; a probable duplicate is confirmed with a sparse
    /// point read.
    fn sealed_contains(&self, id: PageId) -> Result<bool, StoreError> {
        if !self.cfg.sparse {
            return Ok(self.locs.contains_key(&id));
        }
        if !self.sealed_ids.maybe(id as u128) {
            return Ok(false);
        }
        Ok(self.sparse_find(id)?.is_some())
    }

    /// Sparse point lookup: fence-filter the segments, binary-search
    /// each candidate's samples, read one block, scan to the id. Rows
    /// in a block are id-sorted, so the scan early-exits.
    fn sparse_find(&self, id: PageId) -> Result<Option<DocumentRow>, StoreError> {
        for (seg, idx) in self.sparse.iter().enumerate() {
            if idx.samples.is_empty() || id < idx.min_id || id > idx.max_id {
                continue;
            }
            let i = idx.samples.partition_point(|&(s, _)| s <= id) - 1;
            let start = idx.samples[i].1;
            let end = idx
                .samples
                .get(i + 1)
                .map(|&(_, off)| off)
                .unwrap_or(idx.docs_end);
            let entry = &self.manifest.segments[seg];
            let mut f = std::fs::File::open(self.file(&entry.name)).map_err(pe)?;
            f.seek(SeekFrom::Start(start)).map_err(pe)?;
            let mut buf = vec![0u8; (end - start) as usize];
            f.read_exact(&mut buf).map_err(pe)?;
            for line in buf.split(|&b| b == b'\n') {
                if line.is_empty() {
                    continue;
                }
                let row: DocumentRow = from_line(line)?;
                match row.id.cmp(&id) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => return Ok(Some(row)),
                    std::cmp::Ordering::Greater => break,
                }
            }
        }
        Ok(None)
    }

    pub(crate) fn insert_link(&mut self, link: LinkRow) {
        self.ws_edges.insert([link.from, link.to]);
        self.ws_links.push(link);
    }

    pub(crate) fn set_topic(
        &mut self,
        id: PageId,
        topic: Option<u32>,
        confidence: f32,
    ) -> Result<(), StoreError> {
        if self.cfg.sparse {
            // No resident topic index to maintain — record the
            // override (reads apply it; compaction materializes it).
            if let Some(&i) = self.ws_index.get(&id) {
                self.ws_docs[i].topic = topic;
                self.ws_docs[i].confidence = confidence;
            } else if self.sealed_contains(id)? {
                self.overrides.insert(id, (topic, confidence));
                self.meta_dirty = true;
            } else {
                return Err(StoreError::MissingDocument(id));
            }
            return Ok(());
        }
        let old = if let Some(&i) = self.ws_index.get(&id) {
            let old = self.ws_docs[i].topic;
            self.ws_docs[i].topic = topic;
            self.ws_docs[i].confidence = confidence;
            old
        } else if let Some(&loc) = self.locs.get(&id) {
            let old = match self.overrides.get(&id) {
                Some(&(t, _)) => t,
                None => self.read_sealed(loc)?.topic,
            };
            self.overrides.insert(id, (topic, confidence));
            self.meta_dirty = true;
            old
        } else {
            return Err(StoreError::MissingDocument(id));
        };
        if let Some(old) = old {
            if let Some(list) = self.by_topic.get_mut(&old) {
                list.retain(|&d| d != id);
            }
        }
        if let Some(t) = topic {
            self.by_topic.entry(t).or_default().push(id);
        }
        Ok(())
    }

    /// Read one sealed row from disk and apply any topic override.
    fn read_sealed(&self, loc: SegLoc) -> Result<DocumentRow, StoreError> {
        let entry = &self.manifest.segments[loc.seg as usize];
        let mut f = std::fs::File::open(self.file(&entry.name)).map_err(pe)?;
        f.seek(SeekFrom::Start(loc.offset)).map_err(pe)?;
        let mut buf = vec![0u8; loc.len as usize];
        f.read_exact(&mut buf).map_err(pe)?;
        let mut row: DocumentRow = from_line(&buf)?;
        self.apply_override(&mut row);
        Ok(row)
    }

    fn apply_override(&self, row: &mut DocumentRow) {
        if let Some(&(topic, confidence)) = self.overrides.get(&row.id) {
            row.topic = topic;
            row.confidence = confidence;
        }
    }

    /// Run `f` on row `id`: a workspace row in place, a sealed one once
    /// read (a sealed row that cannot be read counts as absent).
    pub(crate) fn with_document<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&DocumentRow) -> R,
    ) -> Option<R> {
        if let Some(&i) = self.ws_index.get(&id) {
            return Some(f(&self.ws_docs[i]));
        }
        let row = if self.cfg.sparse {
            let mut row = self.sparse_find(id).ok()??;
            self.apply_override(&mut row);
            row
        } else {
            self.read_sealed(*self.locs.get(&id)?).ok()?
        };
        Some(f(&row))
    }

    pub(crate) fn document(&self, id: PageId) -> Option<DocumentRow> {
        self.with_document(id, DocumentRow::clone)
    }

    pub(crate) fn document_by_url(&self, url: &str) -> Option<DocumentRow> {
        if self.cfg.sparse {
            // Cold path by design: no resident URL index in sparse
            // mode. Workspace first (newest rows), then a segment scan.
            if let Some(row) = self.ws_docs.iter().find(|row| row.url == url) {
                return Some(row.clone());
            }
            let mut found = None;
            let _ = self.for_each_sealed_document(|row| {
                if found.is_none() && row.url == url {
                    found = Some(row);
                }
            });
            return found;
        }
        let id = match self.url_collisions.get(url) {
            Some(&id) => id,
            None => *self.by_url_hash.get(&url_hash(url))?,
        };
        // Verify: the hash slot may hold a different URL.
        self.with_document(id, |row| (row.url == url).then(|| row.clone()))?
    }

    pub(crate) fn topic_documents(&self, topic: u32) -> Vec<PageId> {
        if self.cfg.sparse {
            // Cold path by design: stream every row (overrides
            // applied), segment order then workspace — set-equal to
            // the dense index, order may differ.
            let mut ids = Vec::new();
            let _ = self.for_each_document(|row| {
                if row.topic == Some(topic) {
                    ids.push(row.id);
                }
            });
            return ids;
        }
        self.by_topic.get(&topic).cloned().unwrap_or_default()
    }

    /// Stream every *sealed* document row in segment order, overrides
    /// applied, handing each row over.
    pub(crate) fn for_each_sealed_document<F: FnMut(DocumentRow)>(
        &self,
        mut f: F,
    ) -> Result<(), StoreError> {
        for entry in &self.manifest.segments {
            let bytes = std::fs::read(self.file(&entry.name)).map_err(pe)?;
            for &(_, line) in &parse_segment(&bytes)?.doc_lines {
                let mut row: DocumentRow = from_line(line)?;
                self.apply_override(&mut row);
                f(row);
            }
        }
        Ok(())
    }

    /// Stream every document row (sealed segments in seal order, then
    /// the workspace in insertion order), overrides applied.
    pub(crate) fn for_each_document<F: FnMut(&DocumentRow)>(
        &self,
        mut f: F,
    ) -> Result<(), StoreError> {
        self.for_each_sealed_document(|row| f(&row))?;
        self.ws_docs.iter().for_each(f);
        Ok(())
    }

    /// Stream every *sealed* link row in seal order.
    fn for_each_sealed_link<F: FnMut(&LinkRow)>(&self, mut f: F) -> Result<(), StoreError> {
        for entry in &self.manifest.segments {
            let bytes = std::fs::read(self.file(&entry.name)).map_err(pe)?;
            for line in &parse_segment(&bytes)?.link_lines {
                f(&from_line(line)?);
            }
        }
        Ok(())
    }

    /// Stream every link row in global insertion order (seal order is
    /// insertion order; workspace links come last).
    pub(crate) fn for_each_link<F: FnMut(&LinkRow)>(&self, mut f: F) -> Result<(), StoreError> {
        self.for_each_sealed_link(&mut f)?;
        self.ws_links.iter().for_each(f);
        Ok(())
    }

    pub(crate) fn all_documents(&self) -> Vec<DocumentRow> {
        let mut rows = Vec::with_capacity(self.document_count());
        let _ = self.for_each_document(|row| rows.push(row.clone()));
        rows
    }

    pub(crate) fn all_links(&self) -> Vec<LinkRow> {
        let mut links = Vec::with_capacity(self.link_count());
        let _ = self.for_each_link(|l| links.push(l.clone()));
        links
    }

    /// Distinct neighbours of `page` on `side` (0: successors, 1:
    /// predecessors) in first-occurrence order over the whole link log:
    /// the streamed sealed links, then the workspace edges not seen yet.
    fn neighbours(&self, side: usize, page: PageId) -> Vec<PageId> {
        let ws = self.ws_edges.chain(side, page).map(|edge| edge[1 - side]);
        if self.sealed_links == 0 {
            return ws.collect();
        }
        let mut out = Vec::new();
        let mut add = |n: PageId| {
            if !out.contains(&n) {
                out.push(n);
            }
        };
        let _ = self.for_each_sealed_link(|l| {
            let edge = [l.from, l.to];
            if edge[side] == page {
                add(edge[1 - side]);
            }
        });
        ws.for_each(add);
        out
    }

    pub(crate) fn successors(&self, page: PageId) -> Vec<PageId> {
        self.neighbours(0, page)
    }

    pub(crate) fn predecessors(&self, page: PageId) -> Vec<PageId> {
        self.neighbours(1, page)
    }

    pub(crate) fn host_of(&self, page: PageId) -> HostId {
        self.with_document(page, |d| d.host).unwrap_or(0)
    }

    /// Whether the workspace has grown past the seal threshold. A store
    /// with no directory never seals.
    pub(crate) fn seal_due(&self) -> bool {
        let seal_every = self.cfg.seal_every;
        self.dir.is_some()
            && (self.ws_docs.len() >= seal_every || self.ws_links.len() >= seal_every * 16)
    }

    /// Seal the workspace when it has grown past the threshold.
    pub(crate) fn maybe_seal(&mut self, fs: &dyn DurableFs) -> Result<bool, StoreError> {
        if self.seal_due() {
            self.seal(fs)
        } else {
            Ok(false)
        }
    }

    /// Seal the workspace into a new immutable segment file: write the
    /// segment atomically, then rewrite the manifest atomically (the
    /// commit). On any error the workspace is left intact — rows stay
    /// readable, durability is retried at the next seal. A crash
    /// between the two writes leaves an orphan segment file that
    /// recovery ignores and [`reap_orphan_segments`] deletes.
    pub(crate) fn seal(&mut self, fs: &dyn DurableFs) -> Result<bool, StoreError> {
        if self.dir.is_none() {
            return Ok(false);
        }
        if self.ws_docs.is_empty() && self.ws_links.is_empty() {
            if !self.meta_dirty {
                return Ok(false);
            }
            // Metadata-only commit: overrides changed since the last
            // seal but there is no workspace to seal.
            self.commit_manifest(fs, self.manifest_now())?;
            return Ok(true);
        }
        let seg_index = self.manifest.segments.len() as u32;
        let seg_no = self.manifest.next_seg;
        let name = format!("seg-{seg_no:06}.jsonl");
        let header = SegmentHeader {
            magic: SEGMENT_MAGIC.to_string(),
            version: SEGMENT_VERSION,
            seg: seg_no,
            docs: self.ws_docs.len() as u64,
            links: self.ws_links.len() as u64,
        };
        // Row order in the file: insertion order, except sparse mode
        // sorts by id so block reads can binary-search. The order is
        // computed without disturbing the workspace — on a write error
        // `ws_index` must stay valid.
        let mut order: Vec<usize> = (0..self.ws_docs.len()).collect();
        if self.cfg.sparse {
            order.sort_unstable_by_key(|&i| self.ws_docs[i].id);
        }
        let mut bytes = Vec::new();
        serde_json::to_writer(&mut bytes, &header).map_err(pe)?;
        bytes.push(b'\n');
        let mut offsets = Vec::with_capacity(self.ws_docs.len());
        for &i in &order {
            let start = bytes.len() as u64;
            serde_json::to_writer(&mut bytes, &self.ws_docs[i]).map_err(pe)?;
            offsets.push((start, (bytes.len() as u64 - start) as u32));
            bytes.push(b'\n');
        }
        for link in &self.ws_links {
            serde_json::to_writer(&mut bytes, link).map_err(pe)?;
            bytes.push(b'\n');
        }
        fs.create_dir_all(self.root()).map_err(pe)?;
        fs.atomic_write(&self.file(&name), &bytes).map_err(pe)?;
        let mut manifest = self.manifest_now();
        manifest.segments.push(SegmentEntry {
            name,
            docs: self.ws_docs.len() as u64,
            links: self.ws_links.len() as u64,
            len: bytes.len() as u64,
            checksum: checksum(&bytes),
        });
        manifest.next_seg = seg_no + 1;
        self.commit_manifest(fs, manifest)?;
        // Committed: move the workspace into the sealed state.
        if self.cfg.sparse {
            let rows: Vec<(PageId, u64, u32)> = order
                .iter()
                .zip(&offsets)
                .map(|(&i, &(offset, len))| (self.ws_docs[i].id, offset, len))
                .collect();
            for &(id, _, _) in &rows {
                self.sealed_ids.add(id as u128);
            }
            self.sealed_docs_ct += rows.len();
            self.sparse.push(SparseSegIndex::from_rows(&rows));
        } else {
            for (&i, &(offset, len)) in order.iter().zip(&offsets) {
                self.locs.insert(
                    self.ws_docs[i].id,
                    SegLoc {
                        seg: seg_index,
                        offset,
                        len,
                    },
                );
            }
        }
        self.ws_docs.clear();
        self.ws_index.clear();
        self.sealed_links += self.ws_links.len() as u64;
        self.ws_links.clear();
        self.ws_edges = Adjacency::default();
        self.maybe_compact(fs)?;
        Ok(true)
    }

    /// Merge the first adjacent run of small sealed segments, if any.
    /// Called after every successful data seal; also reachable via
    /// [`crate::DocumentStore::compact_now_with`]. Returns whether a
    /// run was compacted.
    pub(crate) fn maybe_compact(&mut self, fs: &dyn DurableFs) -> Result<bool, StoreError> {
        let Some(cfg) = self.cfg.compaction else {
            return Ok(false);
        };
        let small_docs = cfg.small_docs.max(1) as u64;
        let min_run = cfg.min_run.max(2);
        let mut start = 0usize;
        while start < self.manifest.segments.len() {
            if self.manifest.segments[start].docs >= small_docs {
                start += 1;
                continue;
            }
            let mut end = start + 1;
            while end < self.manifest.segments.len()
                && self.manifest.segments[end].docs < small_docs
            {
                end += 1;
            }
            if end - start >= min_run {
                self.compact_run(fs, start, end - start)?;
                return Ok(true);
            }
            start = end;
        }
        Ok(false)
    }

    /// Rewrite the `len` sealed segments starting at index `start` as
    /// one merged segment under a fresh segment number. Overrides on
    /// merged rows are materialized into the rewritten rows and dropped
    /// from the override map. Crash-safe: the merged segment and the
    /// new manifest are written atomically (manifest last, as the
    /// commit record), and resident state mutates only after both
    /// writes succeed — a crash in between leaves an orphan segment
    /// that the next open reaps.
    fn compact_run(
        &mut self,
        fs: &dyn DurableFs,
        start: usize,
        len: usize,
    ) -> Result<(), StoreError> {
        let mut rows: Vec<DocumentRow> = Vec::new();
        let mut link_bytes: Vec<u8> = Vec::new();
        let mut links = 0u64;
        for entry in &self.manifest.segments[start..start + len] {
            let bytes = std::fs::read(self.file(&entry.name)).map_err(pe)?;
            let parsed = parse_segment(&bytes)?;
            for &(_, line) in &parsed.doc_lines {
                rows.push(from_line(line)?);
            }
            for line in &parsed.link_lines {
                link_bytes.extend_from_slice(line);
                link_bytes.push(b'\n');
            }
            links += parsed.header.links;
        }
        let mut materialized = 0u64;
        for row in &mut rows {
            if let Some(&(topic, confidence)) = self.overrides.get(&row.id) {
                row.topic = topic;
                row.confidence = confidence;
                materialized += 1;
            }
        }
        if self.cfg.sparse {
            rows.sort_unstable_by_key(|row| row.id);
        }
        let seg_no = self.manifest.next_seg;
        let name = format!("seg-{seg_no:06}.jsonl");
        let header = SegmentHeader {
            magic: SEGMENT_MAGIC.to_string(),
            version: SEGMENT_VERSION,
            seg: seg_no,
            docs: rows.len() as u64,
            links,
        };
        let mut bytes = Vec::new();
        serde_json::to_writer(&mut bytes, &header).map_err(pe)?;
        bytes.push(b'\n');
        let mut offsets = Vec::with_capacity(rows.len());
        for row in &rows {
            let off = bytes.len() as u64;
            serde_json::to_writer(&mut bytes, row).map_err(pe)?;
            offsets.push((off, (bytes.len() as u64 - off) as u32));
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(&link_bytes);
        fs.atomic_write(&self.file(&name), &bytes).map_err(pe)?;
        let mut manifest = self.manifest_now();
        let entry = SegmentEntry {
            name,
            docs: rows.len() as u64,
            links,
            len: bytes.len() as u64,
            checksum: checksum(&bytes),
        };
        let replaced = manifest.segments.splice(start..start + len, [entry]);
        let replaced: Vec<String> = replaced.map(|e| e.name).collect();
        if self.pinned {
            // A checkpoint generation may name the replaced files: keep
            // them out of every reap until they are released.
            manifest.retained.extend(replaced);
        }
        manifest.next_seg = seg_no + 1;
        let merged_ids: std::collections::HashSet<PageId> = rows.iter().map(|r| r.id).collect();
        manifest
            .overrides
            .retain(|(id, _, _)| !merged_ids.contains(id));
        self.commit_manifest(fs, manifest)?;
        // Committed: fold the merge into resident state.
        self.overrides.retain(|id, _| !merged_ids.contains(id));
        if self.cfg.sparse {
            let idx_rows: Vec<(PageId, u64, u32)> = rows
                .iter()
                .zip(&offsets)
                .map(|(row, &(off, rlen))| (row.id, off, rlen))
                .collect();
            self.sparse
                .splice(start..start + len, [SparseSegIndex::from_rows(&idx_rows)]);
        } else {
            let removed = (len - 1) as u32;
            let cutoff = (start + len) as u32;
            for loc in self.locs.values_mut() {
                if loc.seg >= cutoff {
                    loc.seg -= removed;
                }
            }
            for (row, &(off, rlen)) in rows.iter().zip(&offsets) {
                self.locs.insert(
                    row.id,
                    SegLoc {
                        seg: start as u32,
                        offset: off,
                        len: rlen,
                    },
                );
            }
        }
        self.compaction_stats.runs += 1;
        self.compaction_stats.segments_merged += len as u64;
        self.compaction_stats.rows_rewritten += rows.len() as u64;
        self.compaction_stats.overrides_materialized += materialized;
        self.compaction_stats.bytes_written += bytes.len() as u64;
        self.compaction_stats.orphans_reaped += reap_orphan_segments(self.root()) as u64;
        Ok(())
    }

    /// True when compaction is holding replaced segments for checkpoint
    /// generations.
    pub(crate) fn has_retained(&self) -> bool {
        !self.manifest.retained.is_empty()
    }

    /// Drop every retained segment name not in `referenced` (one
    /// manifest commit, only when the list changes) and reap the files.
    /// Returns the number of files removed.
    pub(crate) fn release_retained(
        &mut self,
        fs: &dyn DurableFs,
        referenced: &std::collections::HashSet<String>,
    ) -> Result<usize, StoreError> {
        if self
            .manifest
            .retained
            .iter()
            .all(|n| referenced.contains(n))
        {
            return Ok(0);
        }
        let mut manifest = self.manifest_now();
        manifest.retained.retain(|n| referenced.contains(n));
        self.commit_manifest(fs, manifest)?;
        Ok(reap_orphan_segments(self.root()))
    }

    fn overrides_sorted(&self) -> Vec<(PageId, Option<u32>, f32)> {
        let mut overrides: Vec<(PageId, Option<u32>, f32)> = self
            .overrides
            .iter()
            .map(|(&id, &(topic, confidence))| (id, topic, confidence))
            .collect();
        overrides.sort_unstable_by_key(|&(id, _, _)| id);
        overrides
    }
}

/// Delete segment files (and stale `.tmp` siblings) in `dir` that the
/// manifest neither references nor retains — the debris a crash between
/// segment write and manifest commit leaves behind. A missing or
/// unreadable manifest means no segment is referenced. Returns the number of
/// files removed. Single-writer: callers must not reap a directory
/// whose spine is mid-seal in another handle.
pub fn reap_orphan_segments(dir: &Path) -> usize {
    let referenced: std::collections::HashSet<String> =
        std::fs::read_to_string(dir.join(SEGMENTS_FILE))
            .ok()
            .and_then(|text| serde_json::from_str::<SegmentManifest>(&text).ok())
            .map(|m| {
                let names = m.segments.into_iter().map(|s| s.name);
                names.chain(m.retained).collect()
            })
            .unwrap_or_default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_tmp = name.ends_with(".tmp");
        let base = name.strip_suffix(".tmp").unwrap_or(&name);
        let is_seg = base.starts_with("seg-") && base.ends_with(".jsonl");
        let is_manifest_tmp = is_tmp && base == SEGMENTS_FILE;
        if !(is_seg || is_manifest_tmp) {
            continue;
        }
        if is_seg && !is_tmp && referenced.contains(base) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            reaped += 1;
        }
    }
    reaped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::StdFs;
    use bingo_textproc::MimeType;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-segment-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cfg4() -> SegmentStoreConfig {
        SegmentStoreConfig {
            seal_every: 4,
            ..Default::default()
        }
    }

    fn doc(id: u64, topic: Option<u32>) -> DocumentRow {
        DocumentRow {
            id,
            url: format!("http://h{}/p{id}", id % 3),
            host: (id % 3) as u32,
            mime: MimeType::Html,
            depth: 1,
            title: format!("doc {id}"),
            topic,
            confidence: 0.25,
            term_freqs: vec![(1, 2), (7, 1)],
            size: 100,
            fetched_at: id,
        }
    }

    #[test]
    fn seal_reopen_and_point_read() {
        let dir = temp_dir("seal");
        let mut spine = Spine::open(dir.clone(), cfg4()).unwrap();
        for i in 0..6 {
            spine.insert_document(doc(i, Some((i % 2) as u32))).unwrap();
        }
        spine.insert_link(LinkRow {
            from: 0,
            to: 1,
            to_url: "u".into(),
        });
        assert!(spine.seal(&StdFs).unwrap());
        spine.insert_document(doc(6, None)).unwrap();
        assert_eq!(spine.document_count(), 7);
        assert_eq!(spine.sealed_documents(), 6);
        assert_eq!(spine.document(3).unwrap().title, "doc 3");
        assert_eq!(spine.document(6).unwrap().title, "doc 6");
        assert!(spine.contains(3) && spine.contains(6) && !spine.contains(7));
        assert_eq!(spine.document_by_url("http://h1/p4").unwrap().id, 4);
        assert!(spine.document_by_url("http://h1/p99").is_none());
        // Workspace rows survive only via another seal; reopen sees sealed.
        assert!(spine.seal(&StdFs).unwrap());
        drop(spine);
        let spine = Spine::open(dir.clone(), cfg4()).unwrap();
        assert_eq!(spine.segment_count(), 2);
        assert_eq!(spine.document_count(), 7);
        assert_eq!(spine.link_count(), 1);
        assert_eq!(spine.document(5).unwrap().url, "http://h2/p5");
        assert_eq!(spine.successors(0), vec![1]);
        assert_eq!(spine.predecessors(1), vec![0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overrides_apply_to_sealed_rows_and_persist_via_next_seal() {
        let dir = temp_dir("override");
        let mut spine = Spine::open(dir.clone(), cfg4()).unwrap();
        for i in 0..3 {
            spine.insert_document(doc(i, Some(0))).unwrap();
        }
        spine.seal(&StdFs).unwrap();
        spine.set_topic(1, Some(9), 0.75).unwrap();
        assert_eq!(spine.document(1).unwrap().topic, Some(9));
        assert_eq!(spine.topic_documents(0), vec![0, 2]);
        assert_eq!(spine.topic_documents(9), vec![1]);
        // The override is carried into the next manifest commit.
        spine.insert_document(doc(3, None)).unwrap();
        spine.seal(&StdFs).unwrap();
        drop(spine);
        let spine = Spine::open(dir.clone(), cfg4()).unwrap();
        assert_eq!(spine.document(1).unwrap().topic, Some(9));
        assert_eq!(spine.document(1).unwrap().confidence, 0.75);
        assert_eq!(spine.topic_documents(9), vec![1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_segments_are_reaped_and_ignored() {
        let dir = temp_dir("orphan");
        let mut spine = Spine::open(dir.clone(), cfg4()).unwrap();
        spine.insert_document(doc(0, None)).unwrap();
        spine.seal(&StdFs).unwrap();
        // Simulate a crash between seal and manifest commit: an extra
        // segment file the manifest never saw.
        std::fs::write(dir.join("seg-000001.jsonl"), b"orphan bytes").unwrap();
        std::fs::write(dir.join("seg-000002.jsonl.tmp"), b"torn tmp").unwrap();
        assert_eq!(reap_orphan_segments(&dir), 2);
        assert_eq!(reap_orphan_segments(&dir), 0, "idempotent");
        let spine = Spine::open(dir.clone(), cfg4()).unwrap();
        assert_eq!(spine.segment_count(), 1);
        assert_eq!(spine.document_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_fails_verification_on_open() {
        let dir = temp_dir("corrupt");
        let mut spine = Spine::open(dir.clone(), cfg4()).unwrap();
        for i in 0..2 {
            spine.insert_document(doc(i, None)).unwrap();
        }
        spine.seal(&StdFs).unwrap();
        drop(spine);
        // Flip bytes in place (same length): checksum catches it.
        let seg = dir.join("seg-000000.jsonl");
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            Spine::open(dir.clone(), cfg4()),
            Err(StoreError::Persist(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sparse4() -> SegmentStoreConfig {
        SegmentStoreConfig {
            seal_every: 4,
            sparse: true,
            ..Default::default()
        }
    }

    #[test]
    fn sparse_mode_answers_match_dense() {
        let dir = temp_dir("sparse-eq");
        let mut spine = Spine::open(dir.clone(), sparse4()).unwrap();
        // Insert out of id order so the sparse seal has to sort.
        for i in [3u64, 0, 2, 1, 7, 4, 6, 5] {
            spine.insert_document(doc(i, Some((i % 2) as u32))).unwrap();
            if spine.workspace_documents() >= 4 {
                assert!(spine.seal(&StdFs).unwrap());
            }
        }
        spine.insert_document(doc(8, None)).unwrap();
        assert_eq!(spine.document_count(), 9);
        assert_eq!(spine.sealed_documents(), 8);
        for i in 0..9 {
            assert_eq!(spine.document(i).unwrap().title, format!("doc {i}"));
        }
        assert!(spine.document(99).is_none());
        assert!((0..9).all(|i| spine.contains(i)) && !spine.contains(99));
        assert_eq!(spine.document_by_url("http://h1/p4").unwrap().id, 4);
        assert!(spine.document_by_url("http://h1/p99").is_none());
        let mut evens = spine.topic_documents(0);
        evens.sort_unstable();
        assert_eq!(evens, vec![0, 2, 4, 6]);
        // Sealed duplicate ids are rejected through the bloom + block read.
        assert!(matches!(
            spine.insert_document(doc(3, None)),
            Err(StoreError::DuplicateKey(3))
        ));
        // Overrides on sealed rows work without a resident locator.
        spine.set_topic(5, Some(9), 0.9).unwrap();
        assert_eq!(spine.document(5).unwrap().topic, Some(9));
        assert!(matches!(
            spine.set_topic(42, Some(1), 0.1),
            Err(StoreError::MissingDocument(42))
        ));
        assert!(spine.seal(&StdFs).unwrap());
        drop(spine);
        // The same directory reopens in either mode with the same answers.
        for cfg in [cfg4(), sparse4()] {
            let spine = Spine::open(dir.clone(), cfg).unwrap();
            assert_eq!(spine.document_count(), 9);
            assert_eq!(spine.document(5).unwrap().topic, Some(9));
            assert_eq!(spine.document(8).unwrap().title, "doc 8");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sparse_open_rejects_unsorted_segments() {
        let dir = temp_dir("sparse-unsorted");
        let mut spine = Spine::open(dir.clone(), cfg4()).unwrap();
        // Dense seals keep insertion order: 1 before 0 is unsorted.
        spine.insert_document(doc(1, None)).unwrap();
        spine.insert_document(doc(0, None)).unwrap();
        spine.seal(&StdFs).unwrap();
        drop(spine);
        assert!(matches!(
            Spine::open(dir.clone(), sparse4()),
            Err(StoreError::Persist(_))
        ));
        // Dense reopen is unaffected.
        assert!(Spine::open(dir.clone(), cfg4()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn compacting(sparse: bool, min_run: usize) -> SegmentStoreConfig {
        SegmentStoreConfig {
            seal_every: 2,
            sparse,
            compaction: Some(CompactionConfig {
                small_docs: 5,
                min_run,
            }),
        }
    }

    #[test]
    fn compaction_merges_adjacent_small_segments() {
        for sparse in [false, true] {
            let dir = temp_dir(&format!("compact-{sparse}"));
            let mut spine = Spine::open(dir.clone(), compacting(sparse, 2)).unwrap();
            for i in 0..8u64 {
                spine.insert_document(doc(i, Some((i % 2) as u32))).unwrap();
                spine.insert_link(LinkRow {
                    from: i,
                    to: i + 1,
                    to_url: "u".into(),
                });
                spine.maybe_seal(&StdFs).unwrap();
            }
            // Seals of 2 rows each; every second seal completes a run of
            // two small segments and merges it. The merged 4-row segment
            // is still < small_docs, so the next merge folds into it too.
            assert_eq!(spine.document_count(), 8);
            assert!(
                spine.segment_count() < 4,
                "small segments were not merged: {}",
                spine.segment_count()
            );
            let stats = spine.compaction_stats();
            assert!(stats.runs >= 1);
            assert!(stats.segments_merged >= 2);
            assert!(stats.rows_rewritten >= 4);
            assert!(stats.bytes_written > 0);
            for i in 0..8 {
                assert_eq!(spine.document(i).unwrap().title, format!("doc {i}"));
            }
            assert_eq!(spine.link_count(), 8);
            drop(spine);
            // Merged directory reopens in both modes.
            for cfg in [cfg4(), sparse4()] {
                let spine = Spine::open(dir.clone(), cfg).unwrap();
                assert_eq!(spine.document_count(), 8);
                assert_eq!(spine.link_count(), 8);
                assert_eq!(spine.document(6).unwrap().title, "doc 6");
                assert_eq!(spine.successors(3), vec![4]);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn compaction_materializes_overrides_and_shifts_later_segments() {
        for sparse in [false, true] {
            let dir = temp_dir(&format!("compact-ovr-{sparse}"));
            // min_run 3 keeps the first two small seals unmerged so an
            // override can land on a sealed row before compaction runs.
            let mut spine = Spine::open(dir.clone(), compacting(sparse, 3)).unwrap();
            for i in 0..4u64 {
                spine.insert_document(doc(i, Some(0))).unwrap();
                spine.maybe_seal(&StdFs).unwrap();
            }
            assert_eq!(spine.segment_count(), 2);
            spine.set_topic(1, Some(9), 0.75).unwrap();
            // Third small seal completes the run; compaction merges all
            // three segments and bakes the override into the rows.
            for i in 4..6u64 {
                spine.insert_document(doc(i, Some(0))).unwrap();
            }
            spine.seal(&StdFs).unwrap();
            assert_eq!(spine.segment_count(), 1);
            let stats = spine.compaction_stats();
            assert_eq!(stats.overrides_materialized, 1);
            assert_eq!(spine.document(1).unwrap().topic, Some(9));
            assert_eq!(spine.document(1).unwrap().confidence, 0.75);
            // The override left the resident map: the next manifest
            // commit writes it empty, and a reopen still sees the topic.
            for i in 6..10u64 {
                spine.insert_document(doc(i, Some(1))).unwrap();
            }
            spine.seal(&StdFs).unwrap();
            // Rows in segments after the merged run stay addressable
            // (dense locs shifted; sparse indexes respliced).
            assert_eq!(spine.document(7).unwrap().title, "doc 7");
            drop(spine);
            let spine = Spine::open(dir.clone(), if sparse { sparse4() } else { cfg4() }).unwrap();
            assert_eq!(spine.manifest.overrides.len(), 0);
            assert_eq!(spine.document(1).unwrap().topic, Some(9));
            assert_eq!(spine.document_count(), 10);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
