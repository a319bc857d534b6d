//! A deterministic synthetic web — the substrate substituting for the
//! live 2002 Web the paper crawled.
//!
//! The simulator reproduces everything the focused crawler's code paths
//! observe:
//!
//! * **Topical structure.** Pages belong to topics with their own
//!   vocabularies ([`lexicon`]); hyperlinks exhibit topical locality
//!   (a link stays on topic with configurable probability), hubs collect
//!   topical links, welcome/table-of-contents pages carry little text —
//!   the structure that makes focused crawling and tunnelling work.
//! * **An author directory** modeled on DBLP for the portal-generation
//!   experiment of Section 5.2 ([`dblp`]): authors with Zipf-distributed
//!   publication counts, homepages with "underneath" pages, in-link mass
//!   proportional to prominence.
//! * **Network realism** (Section 4.2): per-host latency, slow/flaky/dead
//!   hosts, DNS lookup latency and failures, redirects, path-alias
//!   duplicates, many MIME types with size limits, broken links, and
//!   crawler traps with overlong URLs.
//! * **Scenario overlays** ([`scenario`]): hand-specified named subgraphs
//!   such as the ARIES expert-search case study of Section 5.3.
//!
//! Page *content* is generated lazily and deterministically from the
//! world seed and page id ([`content_gen`]), so a hundred-thousand-page
//! world costs only its graph metadata in memory.
#![forbid(unsafe_code)]

pub mod content_gen;
pub mod dblp;
pub mod faults;
pub mod fetch;
pub mod gen;
pub mod lexicon;
pub mod nodefaults;
pub mod paged;
pub mod scenario;

pub use dblp::AuthorInfo;
pub use faults::{FaultKind, FaultPlan, FaultProfile, FaultScript, FaultWindow};
pub use fetch::{DnsError, FetchError, FetchOutcome, FetchResponse};
pub use nodefaults::{NodeFaultKind, NodeFaultPlan, NodeFaultProfile, NodeFaultWindow};
pub use paged::PagedConfig;

use bingo_graph::{HostId, LinkSource, PageId};
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::MimeType;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// What role a page plays in the web's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Ordinary topical content page.
    Content,
    /// Link collection (many topical cross-host links).
    Hub,
    /// Host entry page: little text, mostly navigation — the pages one
    /// must "tunnel" through (Section 3.3).
    Welcome,
    /// A researcher's homepage (author directory).
    AuthorHome,
    /// Page underneath a homepage: publication list, paper, CV.
    AuthorPub,
    /// Redirect stub pointing at a canonical page.
    Redirect,
    /// Unanalyzable media (exercises the MIME filter).
    Media,
    /// Scenario-defined page with explicit content.
    Scenario,
}

/// Behaviour class of a host (Section 4.2 failure handling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HostBehavior {
    /// Responds normally.
    Normal,
    /// Responds, but with heavily inflated latency.
    Slow,
    /// Fails a fraction of requests (timeout), expressed in per-mille.
    Flaky(u16),
    /// Never responds.
    Dead,
}

/// Static metadata of a simulated host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostMeta {
    /// Hostname (unique).
    pub name: String,
    /// Simulated IPv4 address as an opaque u32.
    pub ip: u32,
    /// Base round-trip latency in virtual milliseconds.
    pub base_latency_ms: u32,
    /// Behaviour class.
    pub behavior: HostBehavior,
    /// Authoritative DNS lookup latency in virtual milliseconds.
    pub dns_latency_ms: u32,
}

/// Static metadata of a simulated page. Content is *not* stored here; it
/// is generated on demand.
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// Host the page lives on.
    pub host: HostId,
    /// Path component of the canonical URL.
    pub path: String,
    /// True topic (ground truth for evaluation); `None` for welcome pages
    /// and other topic-unspecific material.
    pub topic: Option<u32>,
    /// Secondary topic whose vocabulary bleeds into the page (real pages
    /// are rarely single-topic; this creates the hard, ambiguous cases
    /// classifiers face on the real Web).
    pub secondary_topic: Option<u32>,
    /// Structural role.
    pub kind: PageKind,
    /// Served MIME type.
    pub mime: MimeType,
    /// Out-links as page ids (rendered to URLs at content time).
    pub out: Vec<PageId>,
    /// Redirect target for redirect stubs.
    pub redirect_to: Option<PageId>,
    /// Author index for author pages.
    pub author: Option<u32>,
    /// Explicit content for scenario pages.
    pub content_override: Option<Arc<str>>,
    /// Extra raw link targets rendered verbatim (broken links, traps).
    pub extra_out_urls: Vec<String>,
    /// Size override in bytes (media files report a large size).
    pub size_hint: Option<u32>,
}

/// A topic of the synthetic web.
#[derive(Debug, Clone)]
pub struct TopicInfo {
    /// Human-readable topic name.
    pub name: String,
    /// The topical vocabulary.
    pub lexicon: &'static [&'static str],
}

/// The generated world. Immutable after generation; cheap to share
/// across crawler threads via `Arc`.
#[derive(Debug)]
pub struct World {
    pub(crate) seed: u64,
    pub(crate) pages: Vec<PageMeta>,
    pub(crate) hosts: Vec<HostMeta>,
    /// Host name → id; among hosts of one name the first.
    pub(crate) host_index: FxHashMap<String, HostId>,
    pub(crate) topics: Vec<TopicInfo>,
    pub(crate) url_index: FxHashMap<String, PageId>,
    /// Alias URL per page (a second path serving identical content).
    pub(crate) aliases: FxHashMap<PageId, String>,
    pub(crate) in_links: FxHashMap<PageId, Vec<PageId>>,
    pub(crate) authors: Vec<AuthorInfo>,
    /// Scenario page names → ids.
    pub(crate) named: FxHashMap<String, PageId>,
    /// Scripted fault windows (empty unless configured; see [`faults`]).
    pub(crate) faults: FaultPlan,
    /// Per-page derivation backing paged worlds ([`World::paged`]);
    /// `None` for eagerly generated worlds.
    pub(crate) paged: Option<paged::PagedWeb>,
    /// The topics' and the common lexicon as padded words.
    pub(crate) lexicons: content_gen::Lexicons,
}

impl World {
    /// Number of pages.
    pub fn page_count(&self) -> usize {
        match &self.paged {
            Some(p) => p.page_count(),
            None => self.pages.len(),
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        match &self.paged {
            Some(p) => p.host_count(),
            None => self.hosts.len(),
        }
    }

    /// The topics of this world (index = topic id).
    pub fn topics(&self) -> &[TopicInfo] {
        &self.topics
    }

    /// Borrowed page metadata.
    ///
    /// # Panics
    ///
    /// Panics on paged worlds, whose metadata is generated on demand and
    /// cannot be borrowed — use [`World::page_meta`] instead.
    pub fn page(&self, id: PageId) -> &PageMeta {
        assert!(
            self.paged.is_none(),
            "World::page cannot borrow from a paged world; use page_meta"
        );
        &self.pages[id as usize]
    }

    /// Borrowed host metadata.
    ///
    /// # Panics
    ///
    /// Panics on paged worlds — use [`World::host_meta`] instead.
    pub fn host(&self, id: HostId) -> &HostMeta {
        assert!(
            self.paged.is_none(),
            "World::host cannot borrow from a paged world; use host_meta"
        );
        &self.hosts[id as usize]
    }

    /// Owned page metadata; works on both eager and paged worlds.
    pub fn page_meta(&self, id: PageId) -> PageMeta {
        match &self.paged {
            Some(p) => p.page_meta(id),
            None => self.pages[id as usize].clone(),
        }
    }

    /// Owned host metadata; works on both eager and paged worlds.
    pub fn host_meta(&self, id: HostId) -> HostMeta {
        match &self.paged {
            Some(p) => p.host_meta(id),
            None => self.hosts[id as usize].clone(),
        }
    }

    /// Page metadata for the simulator's own fetch and content paths:
    /// borrowed from an eager world; generated by a paged one with an
    /// empty `path`, which those paths write through
    /// [`World::write_path`] instead.
    pub(crate) fn page_ref(&self, id: PageId) -> Cow<'_, PageMeta> {
        match &self.paged {
            Some(p) => Cow::Owned(p.page_meta_pathless(id)),
            None => Cow::Borrowed(&self.pages[id as usize]),
        }
    }

    /// Host metadata, as [`page_ref`](Self::page_ref): a paged host's
    /// `name` is empty, written through [`World::write_host_name`]
    /// instead.
    pub(crate) fn host_ref(&self, id: HostId) -> Cow<'_, HostMeta> {
        match &self.paged {
            Some(p) => Cow::Owned(p.host_meta_nameless(id)),
            None => Cow::Borrowed(&self.hosts[id as usize]),
        }
    }

    /// Always 0: a paged world derives each page alone and generates no
    /// host blocks. Kept as frozen `benchmark/` surface until that
    /// surface is next revised.
    pub fn paged_blocks_generated(&self) -> u64 {
        0
    }

    /// Canonical URL of a page.
    pub fn url_of(&self, id: PageId) -> String {
        let mut url = Vec::new();
        self.write_url(&mut url, id);
        String::from_utf8(url).expect("host names and paths are UTF-8")
    }

    /// The canonical URL of `id`, written onto `out`: the one URL writer,
    /// behind [`World::url_of`] and every link of a generated page.
    pub(crate) fn write_url(&self, out: &mut Vec<u8>, id: PageId) {
        out.extend_from_slice(b"http://");
        let host = match &self.paged {
            Some(p) => p.host_of(id),
            None => self.pages[id as usize].host,
        };
        self.write_host_name(out, host);
        self.write_path(out, id);
    }

    /// The `/path` of page `id`'s URL, written onto `out`.
    pub(crate) fn write_path(&self, out: &mut Vec<u8>, id: PageId) {
        match &self.paged {
            Some(p) => p.write_path(out, id),
            None => {
                out.push(b'/');
                out.extend_from_slice(self.pages[id as usize].path.as_bytes());
            }
        }
    }

    /// The name of host `id`, written onto `out`.
    pub(crate) fn write_host_name(&self, out: &mut Vec<u8>, id: HostId) {
        match &self.paged {
            Some(p) => p.write_host_name(out, id),
            None => out.extend_from_slice(self.hosts[id as usize].name.as_bytes()),
        }
    }

    /// The alias URL of a page, when it has one.
    pub fn alias_url_of(&self, id: PageId) -> Option<&str> {
        self.aliases.get(&id).map(|s| s.as_str())
    }

    /// Resolve any known URL (canonical or alias) to its page.
    pub fn resolve_url(&self, url: &str) -> Option<PageId> {
        if let Some(p) = &self.paged {
            return p.resolve_url(url);
        }
        self.url_index.get(url).copied()
    }

    /// The author directory (DBLP analog); empty unless configured.
    pub fn authors(&self) -> &[AuthorInfo] {
        &self.authors
    }

    /// Look up a scenario page by its registered name.
    pub fn named_page(&self, name: &str) -> Option<PageId> {
        self.named.get(name).copied()
    }

    /// Ground-truth topic of a page.
    pub fn true_topic(&self, id: PageId) -> Option<u32> {
        match &self.paged {
            Some(p) => p.true_topic(id),
            None => self.pages[id as usize].topic,
        }
    }

    /// World seed (content generation is a pure function of seed and id).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault script of this world (empty for fault-free worlds).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Replace the fault script. Tests and experiments use this to run
    /// the *same* world with and without chaos.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }
}

impl LinkSource for World {
    fn successors(&self, page: PageId) -> Vec<PageId> {
        if let Some(p) = &self.paged {
            if (page as usize) < p.page_count() {
                return p.page_meta(page).out;
            }
            return Vec::new();
        }
        self.pages
            .get(page as usize)
            .map(|p| p.out.clone())
            .unwrap_or_default()
    }

    fn predecessors(&self, page: PageId) -> Vec<PageId> {
        // Paged worlds carry no in-link index (it would be O(world));
        // evaluation paths that need in-links use the document store's
        // link table, which indexes only what was crawled.
        self.in_links.get(&page).cloned().unwrap_or_default()
    }

    fn host_of(&self, page: PageId) -> HostId {
        if let Some(p) = &self.paged {
            if (page as usize) < p.page_count() {
                return p.host_of(page);
            }
            return 0;
        }
        self.pages.get(page as usize).map(|p| p.host).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorldConfig;

    #[test]
    fn small_world_generates() {
        let world = WorldConfig::small_test(7).build();
        assert!(world.page_count() > 100, "got {} pages", world.page_count());
        assert!(world.host_count() > 5);
        assert!(!world.topics().is_empty());
    }

    #[test]
    fn urls_resolve_round_trip() {
        let world = WorldConfig::small_test(7).build();
        for id in 0..world.page_count() as u64 {
            let url = world.url_of(id);
            assert_eq!(world.resolve_url(&url), Some(id), "url {url}");
        }
        assert_eq!(world.resolve_url("http://nowhere.example/x"), None);
    }

    #[test]
    fn aliases_resolve_to_same_page() {
        let world = WorldConfig::small_test(7).build();
        let mut found = 0;
        for id in 0..world.page_count() as u64 {
            if let Some(alias) = world.alias_url_of(id) {
                assert_eq!(world.resolve_url(alias), Some(id));
                assert_ne!(alias, world.url_of(id));
                found += 1;
            }
        }
        assert!(found > 0, "no aliases generated");
    }

    #[test]
    fn link_source_is_consistent() {
        let world = WorldConfig::small_test(7).build();
        for id in 0..world.page_count().min(200) as u64 {
            for succ in world.successors(id) {
                assert!(
                    world.predecessors(succ).contains(&id),
                    "edge {id}->{succ} missing from in-links"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorldConfig::small_test(7).build();
        let b = WorldConfig::small_test(7).build();
        assert_eq!(a.page_count(), b.page_count());
        for id in (0..a.page_count() as u64).step_by(17) {
            assert_eq!(a.url_of(id), b.url_of(id));
            assert_eq!(a.page(id).out, b.page(id).out);
        }
        let c = WorldConfig::small_test(8).build();
        // Different seed worlds differ somewhere.
        let differs = (0..a.page_count().min(c.page_count()) as u64)
            .any(|id| a.page(id).out != c.page(id).out || a.url_of(id) != c.url_of(id));
        assert!(differs);
    }
}
