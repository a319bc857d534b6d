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
//! The workspace holds its rows packed, not as [`DocumentRow`]s and
//! [`LinkRow`]s. A document is one fixed-width record plus its url and
//! title in one text arena and its `term_freqs` in one byte arena, each
//! pair a varint of the zig-zagged difference from the previous term id,
//! then a varint tf (2.17 bytes a pair on `serve_live`, against 8; any
//! `(u32, u32)` sequence round-trips, sorted or not). Links are one log
//! of `(from, to, href ordinal)` entries, each href text stored once;
//! the first entry of each distinct edge is chained to the next one with
//! the same source and with the same target, so successor and
//! predecessor lookups walk the log itself. Rows are decoded only where
//! the API hands one out, and [`crate::DocumentHead`] reads url, title
//! and scalars without decoding the pairs.
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
//!   A manifest that cannot be read or parsed names nothing for sure,
//!   so the reap then deletes nothing and the open fails.
//! * On open, every referenced segment is verified against its
//!   recorded length and checksum before any locator is trusted.
//! * A checkpoint generation of a segmented store references sealed
//!   segments by name, length and checksum instead of copying their
//!   rows ([`crate::persist::write_checkpoint`]), and loading one opens
//!   this directory *at the manifest it recorded*, touching nothing.
//!   No sealed segment is ever rewritten or replaced, so a generation's
//!   references stay valid for as long as no later seal reuses the
//!   names: only a crawl resumed from an older generation does, when
//!   its first seal takes the next number of the manifest it resumed.
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
use crate::tables::{DocumentHead, DocumentRow, LinkRow};
use crate::workspace::Workspace;
use crate::StoreError;
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash::{self, map_bytes, FxHashMap};
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

/// Behavior of a segmented store beyond the seal threshold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentStoreConfig {
    /// Workspace size (documents) that triggers a seal
    /// ([`DEFAULT_SEAL_EVERY`]).
    pub seal_every: usize,
    /// Retired: a sparse index over sealed rows. Must be `false`; a
    /// store asked for it refuses to open.
    pub sparse: bool,
    /// Retired: merging small sealed segments. Must be `None`; a store
    /// asked for it refuses to open.
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

impl SegmentStoreConfig {
    /// Refuse the retired options: every sealed row is indexed by one
    /// resident locator, and sealed segments are never merged.
    fn check(&self) -> Result<(), StoreError> {
        if self.sparse || self.compaction.is_some() {
            return Err(pe(
                "sparse segment indexes and compaction are not supported",
            ));
        }
        Ok(())
    }
}

/// Retired compaction policy, kept only as the type of
/// [`SegmentStoreConfig::compaction`]; its values are never read.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CompactionConfig {
    /// Document-row threshold of a small segment.
    pub small_docs: usize,
    /// Minimum adjacent run of small segments to merge.
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
}

impl SegmentManifest {
    fn empty() -> Self {
        SegmentManifest {
            magic: SEGMENTS_MAGIC.to_string(),
            version: SEGMENT_VERSION,
            next_seg: 0,
            segments: Vec::new(),
            overrides: Vec::new(),
        }
    }

    fn check(&self) -> Result<(), StoreError> {
        if self.magic != SEGMENTS_MAGIC || self.version != SEGMENT_VERSION {
            return Err(pe("bad segment manifest magic/version"));
        }
        Ok(())
    }
}

/// The committed manifest of `dir`: `None` when there is none yet, an
/// error when it cannot be read or is not a manifest.
fn read_manifest(dir: &Path) -> Result<Option<SegmentManifest>, StoreError> {
    let text = match std::fs::read_to_string(dir.join(SEGMENTS_FILE)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(pe(e)),
    };
    let manifest: SegmentManifest = serde_json::from_str(&text).map_err(pe)?;
    manifest.check()?;
    Ok(Some(manifest))
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
/// This — not the row — is what stays resident per document.
#[derive(Debug, Clone, Copy)]
struct SegLoc {
    seg: u32,
    offset: u64,
    len: u32,
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

/// The store state: the packed write workspace (see the module doc),
/// sealed segments, and the resident locator indexes. Wrapped in a lock
/// by [`crate::DocumentStore`].
pub(crate) struct Spine {
    /// `None` for a store with no directory: it never seals.
    dir: Option<PathBuf>,
    manifest: SegmentManifest,
    cfg: SegmentStoreConfig,
    /// The unsealed rows; insertion order defines segment bytes.
    ws: Workspace,
    // --- resident indexes over sealed rows ---
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
    // --- shared mutable metadata ---
    /// Re-classification of sealed (immutable) rows, applied on read.
    overrides: FxHashMap<PageId, (Option<u32>, f32)>,
    sealed_links: u64,
    /// Overrides changed since the last manifest commit; a seal with an
    /// empty workspace still recommits the manifest then.
    meta_dirty: bool,
}

impl std::fmt::Debug for Spine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spine")
            .field("dir", &self.dir)
            .field("segments", &self.manifest.segments.len())
            .field("sealed_docs", &self.locs.len())
            .field("workspace_docs", &self.ws.document_count())
            .finish()
    }
}

impl Spine {
    /// An empty store; with no directory every row stays in the
    /// workspace.
    pub(crate) fn empty(dir: Option<PathBuf>, cfg: SegmentStoreConfig) -> Self {
        Spine {
            dir,
            manifest: SegmentManifest::empty(),
            cfg: SegmentStoreConfig {
                seal_every: cfg.seal_every.max(1),
                ..cfg
            },
            ws: Workspace::default(),
            locs: FxHashMap::default(),
            by_url_hash: FxHashMap::default(),
            url_collisions: FxHashMap::default(),
            by_topic: FxHashMap::default(),
            overrides: FxHashMap::default(),
            sealed_links: 0,
            meta_dirty: false,
        }
    }

    /// Open (or create) a segmented store directory: read the committed
    /// manifest, reap orphans from a crashed seal, then open at that
    /// manifest ([`Spine::open_at`]). A manifest that cannot be read or
    /// parsed fails the open before anything is deleted.
    pub(crate) fn open(dir: PathBuf, cfg: SegmentStoreConfig) -> Result<Self, StoreError> {
        cfg.check()?;
        let manifest = read_manifest(&dir)?;
        reap_unlisted(&dir, manifest.as_ref());
        match manifest {
            Some(manifest) => Spine::open_at(dir, cfg, manifest),
            None => Ok(Spine::empty(Some(dir), cfg)),
        }
    }

    /// Open `dir` at a checked `manifest` — the committed one
    /// ([`Spine::open`]) or the one a checkpoint generation recorded
    /// ([`Spine::open_referenced`]) — without touching the disk: every
    /// referenced segment is verified against its recorded length and
    /// checksum before a locator is trusted, and the resident indexes
    /// are rebuilt by streaming each segment once. Files the manifest
    /// does not name are ignored.
    fn open_at(
        dir: PathBuf,
        cfg: SegmentStoreConfig,
        manifest: SegmentManifest,
    ) -> Result<Self, StoreError> {
        let mut spine = Spine::empty(Some(dir), cfg);
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
            for &(offset, line) in &parsed.doc_lines {
                let row: DocumentRow = from_line(line)?;
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
    /// generation. The handle starts with its metadata dirty:
    /// `SEGMENTS.json` on disk may describe segments sealed after the
    /// generation, so the next seal commits this lineage even with an
    /// empty workspace.
    pub(crate) fn open_referenced(
        dir: PathBuf,
        cfg: SegmentStoreConfig,
        manifest: SegmentManifest,
    ) -> Result<Self, StoreError> {
        cfg.check()?;
        manifest.check()?;
        let mut spine = Spine::open_at(dir, cfg, manifest)?;
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

    /// The unsealed rows.
    pub(crate) fn workspace(&self) -> &Workspace {
        &self.ws
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
        self.locs.len()
    }

    pub(crate) fn document_count(&self) -> usize {
        self.sealed_documents() + self.ws.document_count()
    }

    pub(crate) fn link_count(&self) -> usize {
        self.sealed_links as usize + self.ws.link_count()
    }

    /// Heap bytes of the store: the workspace and the resident indexes,
    /// from their lengths and capacities.
    pub(crate) fn resident_bytes(&self) -> usize {
        let lists = |ids: &Vec<PageId>| ids.capacity() * size_of::<PageId>();
        self.ws.resident_bytes()
            + map_bytes(&self.locs)
            + map_bytes(&self.by_url_hash)
            + map_bytes(&self.url_collisions)
            + self
                .url_collisions
                .keys()
                .map(String::capacity)
                .sum::<usize>()
            + map_bytes(&self.by_topic)
            + self.by_topic.values().map(lists).sum::<usize>()
            + map_bytes(&self.overrides)
    }

    pub(crate) fn insert_document(&mut self, row: &DocumentRow) -> Result<(), StoreError> {
        if self.contains(row.id) {
            return Err(StoreError::DuplicateKey(row.id));
        }
        self.index_url(&row.url, row.id);
        if let Some(topic) = row.topic {
            self.by_topic.entry(topic).or_default().push(row.id);
        }
        self.ws.insert_document(row);
        Ok(())
    }

    fn index_url(&mut self, url: &str, id: PageId) {
        if *self.by_url_hash.entry(url_hash(url)).or_insert(id) != id {
            self.url_collisions.insert(url.to_string(), id);
        }
    }

    /// Exact membership: two resident-map probes, no disk read.
    pub(crate) fn contains(&self, id: PageId) -> bool {
        self.ws.contains(id) || self.locs.contains_key(&id)
    }

    pub(crate) fn insert_link(&mut self, link: &LinkRow) {
        self.ws.insert_link(link);
    }

    pub(crate) fn set_topic(
        &mut self,
        id: PageId,
        topic: Option<u32>,
        confidence: f32,
    ) -> Result<(), StoreError> {
        let old = if let Some(old) = self.ws.set_topic(id, topic, confidence) {
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

    /// Run `f` on the head of row `id`: a workspace row's read in place,
    /// its pairs not decoded; a sealed row's once the row is read (a
    /// sealed row that cannot be read counts as absent).
    pub(crate) fn with_head<R>(
        &self,
        id: PageId,
        f: impl FnOnce(DocumentHead<'_>) -> R,
    ) -> Option<R> {
        if let Some(head) = self.ws.head(id) {
            return Some(f(head));
        }
        let row = self.read_sealed(*self.locs.get(&id)?).ok()?;
        Some(f(DocumentHead {
            host: row.host,
            topic: row.topic,
            confidence: row.confidence,
            text: [
                (&row.url, 0, row.url.len()),
                (&row.title, 0, row.title.len()),
            ],
        }))
    }

    /// Row `id`, decoded from the workspace or read from its segment (a
    /// sealed row that cannot be read counts as absent).
    pub(crate) fn document(&self, id: PageId) -> Option<DocumentRow> {
        match self.ws.document(id) {
            Some(row) => Some(row),
            None => self.read_sealed(*self.locs.get(&id)?).ok(),
        }
    }

    pub(crate) fn document_by_url(&self, url: &str) -> Option<DocumentRow> {
        let id = match self.url_collisions.get(url) {
            Some(&id) => id,
            None => *self.by_url_hash.get(&url_hash(url))?,
        };
        // Verify: the hash slot may hold a different URL.
        self.document(id).filter(|row| row.url == url)
    }

    pub(crate) fn topic_documents(&self, topic: u32) -> Vec<PageId> {
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
        self.ws.for_each_document(|row| {
            f(row);
            Ok(())
        })
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
        self.ws.for_each_link(|link| {
            f(link);
            Ok(())
        })
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
        let ws = self.ws.neighbours(side, page);
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
        self.with_head(page, |head| head.host).unwrap_or(0)
    }

    /// Whether the workspace has grown past the seal threshold. A store
    /// with no directory never seals.
    pub(crate) fn seal_due(&self) -> bool {
        let seal_every = self.cfg.seal_every;
        self.dir.is_some()
            && (self.ws.document_count() >= seal_every || self.ws.link_count() >= seal_every * 16)
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
        if self.ws.document_count() == 0 && self.ws.link_count() == 0 {
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
            docs: self.ws.document_count() as u64,
            links: self.ws.link_count() as u64,
        };
        let mut bytes = Vec::new();
        serde_json::to_writer(&mut bytes, &header).map_err(pe)?;
        bytes.push(b'\n');
        let mut offsets = Vec::with_capacity(self.ws.document_count());
        self.ws.for_each_document(|row| {
            let start = bytes.len() as u64;
            serde_json::to_writer(&mut bytes, row).map_err(pe)?;
            offsets.push((start, (bytes.len() as u64 - start) as u32));
            bytes.push(b'\n');
            Ok(())
        })?;
        self.ws.for_each_link(|link| {
            serde_json::to_writer(&mut bytes, link).map_err(pe)?;
            bytes.push(b'\n');
            Ok(())
        })?;
        fs.create_dir_all(self.root()).map_err(pe)?;
        fs.atomic_write(&self.file(&name), &bytes).map_err(pe)?;
        let mut manifest = self.manifest_now();
        manifest.segments.push(SegmentEntry {
            name,
            docs: header.docs,
            links: header.links,
            len: bytes.len() as u64,
            checksum: checksum(&bytes),
        });
        manifest.next_seg = seg_no + 1;
        self.commit_manifest(fs, manifest)?;
        // Committed: move the workspace into the sealed state.
        for (id, (offset, len)) in self.ws.ids().zip(offsets) {
            self.locs.insert(
                id,
                SegLoc {
                    seg: seg_index,
                    offset,
                    len,
                },
            );
        }
        self.sealed_links += header.links;
        self.ws = Workspace::default();
        Ok(true)
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
/// committed manifest does not reference — the debris a crash between
/// segment write and manifest commit leaves behind. With no manifest no
/// segment is referenced; a manifest that cannot be read or parsed
/// deletes nothing. Returns the number of files removed. Single-writer:
/// callers must not reap a directory whose spine is mid-seal in another
/// handle.
pub fn reap_orphan_segments(dir: &Path) -> usize {
    match read_manifest(dir) {
        Ok(manifest) => reap_unlisted(dir, manifest.as_ref()),
        Err(_) => 0,
    }
}

/// [`reap_orphan_segments`] against an already read manifest.
fn reap_unlisted(dir: &Path, manifest: Option<&SegmentManifest>) -> usize {
    let referenced: std::collections::HashSet<&str> = manifest
        .iter()
        .flat_map(|m| m.segments.iter().map(|s| s.name.as_str()))
        .collect();
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
            spine
                .insert_document(&doc(i, Some((i % 2) as u32)))
                .unwrap();
        }
        spine.insert_link(&LinkRow {
            from: 0,
            to: 1,
            to_url: "u".into(),
        });
        assert!(spine.seal(&StdFs).unwrap());
        spine.insert_document(&doc(6, None)).unwrap();
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
            spine.insert_document(&doc(i, Some(0))).unwrap();
        }
        spine.seal(&StdFs).unwrap();
        spine.set_topic(1, Some(9), 0.75).unwrap();
        assert_eq!(spine.document(1).unwrap().topic, Some(9));
        assert_eq!(spine.topic_documents(0), vec![0, 2]);
        assert_eq!(spine.topic_documents(9), vec![1]);
        // The override is carried into the next manifest commit.
        spine.insert_document(&doc(3, None)).unwrap();
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
        spine.insert_document(&doc(0, None)).unwrap();
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
            spine.insert_document(&doc(i, None)).unwrap();
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
}
