//! Lazily paged world generation for memory-bounded scale crawls.
//!
//! An eagerly generated [`World`] materializes every
//! `PageMeta` up front — fine at a hundred thousand pages, hopeless at a
//! million when the point of the experiment is a bounded resident set.
//! A *paged* world stores **no** per-page state: host and page metadata
//! are a pure arithmetic function of `(seed, host, page-within-host)`,
//! derived afresh for each lookup. Nothing is cached, so the world's
//! resident footprint is O(1) regardless of total size, and lookups from
//! any number of threads share no lock.
//!
//! Layout of the synthetic scale web:
//!
//! * host `h` is `h{h}.scale.test`, always healthy, with hash-derived
//!   latencies; its topic is `h % TOPIC_COUNT`.
//! * page ids are `h * pages_per_host + k`; `k == 0` is the host's
//!   welcome page, the rest are topical content pages.
//! * the welcome page links to the first content pages of its own host
//!   and to the welcome pages of hosts `2h+1` and `2h+2` — a binary
//!   heap over hosts, so every host is reachable from host 0 within
//!   `log2(hosts)` cross-host hops.
//! * content page `k` links back to its welcome, to sibling `k+1`
//!   (chaining the whole host), and to the welcome of a same-topic
//!   host — the topical locality the focused crawler exploits.
//!
//! URLs are canonical: [`World::resolve_url`] accepts exactly the strings
//! [`World::url_of`] writes, as an eager world's URL index does.
//!
//! Content still flows through [`crate::content_gen`], which only needs
//! metadata, so payloads stay lazily generated exactly as for eager
//! worlds and page sizes vary naturally (the `(ip, size)` duplicate
//! fingerprint sees distinct sizes within a host except for rare,
//! deterministic coincidences).

use crate::{HostBehavior, HostMeta, PageKind, PageMeta, TopicInfo, World};
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash::{self, FxHashMap};
use bingo_textproc::MimeType;
use std::io::Write;

/// Topics of a paged world (fixed — the scale experiment needs one
/// target topic and predictable noise, not configurability).
const TOPIC_KEYS: [(&str, &str); 4] = [
    ("dbresearch", "database_research"),
    ("datamining", "data_mining"),
    ("sports", "sports"),
    ("entertainment", "entertainment"),
];

/// Hostname suffix of every paged-world host.
const HOST_SUFFIX: &str = ".scale.test";

/// Own-host content links carried by a welcome page.
const WELCOME_FANOUT: u64 = 12;

/// Configuration of a paged world.
#[derive(Debug, Clone)]
pub struct PagedConfig {
    /// Master seed (drives latencies and page content).
    pub seed: u64,
    /// Number of hosts.
    pub hosts: u32,
    /// Pages per host (first page is the welcome page).
    pub pages_per_host: u32,
    /// Ignored: a paged world caches nothing. Kept as frozen
    /// `benchmark/` surface until that surface is next revised.
    pub hot_cap: usize,
}

impl PagedConfig {
    /// The full-scale world: one million pages across twenty thousand
    /// hosts.
    pub fn scale_full(seed: u64) -> Self {
        PagedConfig {
            seed,
            hosts: 20_000,
            pages_per_host: 50,
            hot_cap: 1024,
        }
    }

    /// A ten-thousand-page miniature with the same shape, for tests and
    /// the quick bench mode.
    pub fn scale_smoke(seed: u64) -> Self {
        PagedConfig {
            seed,
            hosts: 400,
            pages_per_host: 25,
            hot_cap: 64,
        }
    }
}

/// The lazy backing of a paged [`World`]: the world's shape and seed,
/// from which every host and page is derived on demand.
#[derive(Debug)]
pub struct PagedWeb {
    seed: u64,
    hosts: u32,
    pages_per_host: u32,
}

impl PagedWeb {
    pub(crate) fn new(cfg: &PagedConfig) -> Self {
        assert!(cfg.hosts > 0 && cfg.pages_per_host > 0);
        PagedWeb {
            seed: cfg.seed,
            hosts: cfg.hosts,
            pages_per_host: cfg.pages_per_host,
        }
    }

    pub(crate) fn page_count(&self) -> usize {
        self.hosts as usize * self.pages_per_host as usize
    }

    pub(crate) fn host_count(&self) -> usize {
        self.hosts as usize
    }

    /// Page `k` of host `h` — a pure function of `(seed, h, k)`.
    pub(crate) fn page_meta(&self, id: PageId) -> PageMeta {
        let path = match id % self.pages_per_host as u64 {
            0 => "index.html".to_string(),
            k => format!("p{k}.html"),
        };
        PageMeta {
            path,
            ..self.page_meta_pathless(id)
        }
    }

    /// [`PagedWeb::page_meta`] with an empty `path`: what a fetch reads,
    /// derived without formatting the path.
    pub(crate) fn page_meta_pathless(&self, id: PageId) -> PageMeta {
        assert!(
            (id as usize) < self.page_count(),
            "page id {id} out of range for paged world"
        );
        let p = self.pages_per_host as u64;
        let host = self.host_of(id);
        let k = id % p;
        let base = id - k;
        let (topic, kind, out) = if k == 0 {
            // Welcome page: own-host fanout plus heap-child welcome links.
            let mut out: Vec<PageId> = (1..p.min(WELCOME_FANOUT + 1)).map(|k| base + k).collect();
            for child in [2 * host as u64 + 1, 2 * host as u64 + 2] {
                if child < self.hosts as u64 {
                    out.push(child * p);
                }
            }
            (None, PageKind::Welcome, out)
        } else {
            let mut out = vec![base]; // back to the welcome page
            if k + 1 < p {
                out.push(id + 1); // sibling chain covers the host
            }
            // One cross-host topical link: hosts `host + TOPIC_COUNT·j`
            // share this host's topic, and the stride varies per page so
            // the topical subgraph is well connected.
            let stride = 1 + fxhash::hash_one(&(self.seed, host, k, 0xcc5u32)) % 97;
            let peer = (host as u64 + TOPIC_KEYS.len() as u64 * stride) % self.hosts as u64;
            if peer != host as u64 {
                out.push(peer * p);
            }
            let topic = host % TOPIC_KEYS.len() as u32;
            (Some(topic), PageKind::Content, out)
        };
        PageMeta {
            host,
            path: String::new(),
            topic,
            secondary_topic: None,
            kind,
            mime: MimeType::Html,
            out,
            redirect_to: None,
            author: None,
            content_override: None,
            extra_out_urls: Vec::new(),
            size_hint: None,
        }
    }

    /// Host `h` — a pure function of `(seed, h)`.
    pub(crate) fn host_meta(&self, host: HostId) -> HostMeta {
        HostMeta {
            name: format!("h{host}{HOST_SUFFIX}"),
            ..self.host_meta_nameless(host)
        }
    }

    /// [`PagedWeb::host_meta`] with an empty `name`: what a fetch reads,
    /// derived without formatting the name.
    pub(crate) fn host_meta_nameless(&self, host: HostId) -> HostMeta {
        assert!(
            host < self.hosts,
            "host id {host} out of range for paged world"
        );
        let h = |salt: u32| fxhash::hash_one(&(self.seed, host, salt));
        HostMeta {
            name: String::new(),
            ip: 0x0b00_0000 + host,
            base_latency_ms: 20 + (h(0x1a7) % 100) as u32,
            behavior: HostBehavior::Normal,
            dns_latency_ms: 5 + (h(0xd15) % 55) as u32,
        }
    }

    pub(crate) fn host_of(&self, id: PageId) -> HostId {
        (id / self.pages_per_host as u64) as HostId
    }

    /// The name of host `host`, written onto `out`.
    pub(crate) fn write_host_name(&self, out: &mut Vec<u8>, host: HostId) {
        write!(out, "h{host}{HOST_SUFFIX}").expect("a Vec takes every write");
    }

    /// The `/path` of page `id`'s URL, written onto `out`.
    pub(crate) fn write_path(&self, out: &mut Vec<u8>, id: PageId) {
        match id % self.pages_per_host as u64 {
            0 => out.extend_from_slice(b"/index.html"),
            k => write!(out, "/p{k}.html").expect("a Vec takes every write"),
        }
    }

    pub(crate) fn resolve_url(&self, url: &str) -> Option<PageId> {
        let rest = url.strip_prefix("http://")?;
        let (name, path) = rest.split_once('/')?;
        let host = self.parse_host(name)?;
        let base = host as u64 * self.pages_per_host as u64;
        if path == "index.html" {
            return Some(base);
        }
        let k = canonical_number(path.strip_prefix('p')?.strip_suffix(".html")?)?;
        (k > 0 && k < self.pages_per_host as u64).then_some(base + k)
    }

    pub(crate) fn find_host(&self, name: &str) -> Option<(HostId, HostMeta)> {
        let id = self.parse_host(name)?;
        Some((id, self.host_meta(id)))
    }

    /// Every host's page 0 is its welcome page, the rest are content.
    pub(crate) fn kind_of(&self, id: PageId) -> PageKind {
        match id % self.pages_per_host as u64 {
            0 => PageKind::Welcome,
            _ => PageKind::Content,
        }
    }

    pub(crate) fn true_topic(&self, id: PageId) -> Option<u32> {
        if (id as usize) >= self.page_count() || id.is_multiple_of(self.pages_per_host as u64) {
            None
        } else {
            Some(self.host_of(id) % TOPIC_KEYS.len() as u32)
        }
    }

    fn parse_host(&self, name: &str) -> Option<HostId> {
        let id = canonical_number(name.strip_prefix('h')?.strip_suffix(HOST_SUFFIX)?)?;
        (id < self.hosts as u64).then_some(id as HostId)
    }
}

/// The number `digits` spells the way `format!("{n}")` writes it: ASCII
/// digits with no sign and no leading zero.
fn canonical_number(digits: &str) -> Option<u64> {
    let leading_zero = digits.len() > 1 && digits.starts_with('0');
    if leading_zero || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Topic table of a paged world.
pub(crate) fn topic_infos() -> Vec<TopicInfo> {
    TOPIC_KEYS
        .iter()
        .map(|(name, key)| TopicInfo {
            name: name.to_string(),
            lexicon: crate::lexicon::by_key(key).unwrap_or(crate::lexicon::COMMON),
        })
        .collect()
}

impl World {
    /// Build a lazily paged world: host and page metadata are derived
    /// arithmetically for each lookup, so even a million-page world holds
    /// no per-page state.
    ///
    /// Paged worlds answer every owned accessor
    /// ([`World::page_meta`], [`World::host_meta`], [`World::url_of`],
    /// [`World::resolve_url`], fetches, DNS) but do **not** support the
    /// borrowing accessors [`World::page`] / [`World::host`] (which
    /// panic) or the in-link index ([`bingo_graph::LinkSource::predecessors`]
    /// returns empty — evaluation paths needing in-links use the
    /// document store's link table instead).
    pub fn paged(cfg: PagedConfig) -> World {
        let topics = topic_infos();
        World {
            seed: cfg.seed,
            pages: Vec::new(),
            hosts: Vec::new(),
            host_index: FxHashMap::default(),
            lexicons: crate::content_gen::Lexicons::new(&topics),
            topics,
            url_index: FxHashMap::default(),
            aliases: FxHashMap::default(),
            in_links: FxHashMap::default(),
            authors: Vec::new(),
            named: FxHashMap::default(),
            faults: crate::faults::FaultPlan::empty(),
            paged: Some(PagedWeb::new(&cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::FetchOutcome;
    use bingo_graph::LinkSource;

    fn smoke() -> World {
        World::paged(PagedConfig::scale_smoke(11))
    }

    #[test]
    fn counts_and_ids_are_arithmetic() {
        let w = smoke();
        assert_eq!(w.page_count(), 400 * 25);
        assert_eq!(w.host_count(), 400);
        assert_eq!(w.host_of(0), 0);
        assert_eq!(w.host_of(25), 1);
        assert_eq!(w.host_of(25 * 399 + 24), 399);
    }

    #[test]
    fn urls_round_trip() {
        let w = smoke();
        for id in (0..w.page_count() as u64).step_by(37) {
            let url = w.url_of(id);
            assert_eq!(w.resolve_url(&url), Some(id), "url {url}");
        }
        assert_eq!(w.resolve_url("http://h0.scale.test/index.html"), Some(0));
        assert_eq!(w.resolve_url("http://h400.scale.test/index.html"), None);
        assert_eq!(w.resolve_url("http://h1.scale.test/p25.html"), None);
        assert_eq!(w.resolve_url("http://h1.scale.test/p0.html"), None);
        assert_eq!(w.resolve_url("http://nowhere.example/x"), None);
        // Only the spelling `url_of` writes resolves: no leading zeros,
        // no sign, no empty number.
        assert_eq!(w.resolve_url("http://h3.scale.test/p1.html"), Some(76));
        for url in [
            "http://h3.scale.test/p01.html",
            "http://h3.scale.test/p+1.html",
            "http://h3.scale.test/p.html",
            "http://h03.scale.test/p1.html",
            "http://h+3.scale.test/index.html",
            "http://h00.scale.test/index.html",
            "http://h.scale.test/index.html",
        ] {
            assert_eq!(w.resolve_url(url), None, "url {url}");
        }
        assert!(w.dns_lookup("h03.scale.test", 0).is_err());
    }

    #[test]
    fn every_host_reachable_from_host_zero() {
        let w = smoke();
        let mut seen = vec![false; w.host_count()];
        let mut queue = vec![0u64];
        seen[0] = true;
        while let Some(id) = queue.pop() {
            for succ in w.successors(id) {
                let h = w.host_of(succ) as usize;
                if !seen[h] {
                    seen[h] = true;
                    queue.push(w.host_of(succ) as u64 * 25);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "heap links must span all hosts");
    }

    #[test]
    fn sibling_chain_covers_every_page_of_a_host() {
        let w = smoke();
        let welcome = 7 * 25u64;
        let mut reach = std::collections::HashSet::new();
        let mut queue = vec![welcome];
        while let Some(id) = queue.pop() {
            if w.host_of(id) != 7 || !reach.insert(id) {
                continue;
            }
            queue.extend(w.successors(id));
        }
        assert_eq!(reach.len(), 25, "all pages of host 7 reachable");
    }

    /// Every `page_meta`, `host_meta` and `successors` result, digested
    /// per page id and summed, so the digest does not depend on the order
    /// the ids are read in.
    fn digest(w: &World, ids: impl Iterator<Item = PageId>) -> u64 {
        ids.fold(0u64, |acc, id| {
            let line = format!(
                "{:?} {:?} {:?}",
                w.page_meta(id),
                w.host_meta(w.host_of(id)),
                w.successors(id)
            );
            acc.wrapping_add(fxhash::hash_one(&(id, line)))
        })
    }

    /// Deriving each page alone builds exactly the metadata the host-block
    /// generator built: the constants are the digests of the block
    /// generator at commit 5882d21, for `scale_smoke` at two seeds.
    #[test]
    fn derivation_matches_the_block_generator() {
        for (seed, expected) in [(11, 0x05ee_0760_ffec_e37d), (2003, 0xc94d_8f9b_0c1d_573d)] {
            let w = World::paged(PagedConfig::scale_smoke(seed));
            let n = w.page_count() as u64;
            assert_eq!(digest(&w, 0..n), expected, "seed {seed}, forward");
            assert_eq!(digest(&w, (0..n).rev()), expected, "seed {seed}, reverse");
        }
    }

    #[test]
    fn fetch_and_dns_work_on_paged_worlds() {
        let w = smoke();
        let id = 3 * 25 + 4u64;
        let url = w.url_of(id);
        match w.fetch(&url, 0) {
            FetchOutcome::Ok(resp) => {
                assert_eq!(resp.page_id, id);
                assert!(!resp.payload.is_empty());
                assert_eq!(resp.size, resp.payload.len() as u64);
                // Topical vocabulary shows up in the content.
                assert_eq!(w.true_topic(id), Some(3));
            }
            o => panic!("{o:?}"),
        }
        let (ip, latency) = w.dns_lookup("h3.scale.test", 0).unwrap();
        assert_eq!(ip, 0x0b00_0003);
        assert!(latency > 0);
        match w.fetch("http://h3.scale.test/missing.html", 0) {
            FetchOutcome::Err { error, .. } => {
                assert_eq!(error, crate::FetchError::NotFound)
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn payload_sizes_within_a_host_are_distinct() {
        let w = smoke();
        let mut sizes = std::collections::HashSet::new();
        let mut dups = 0;
        for k in 0..25u64 {
            match w.fetch(&w.url_of(2 * 25 + k), 0) {
                FetchOutcome::Ok(r) => {
                    if !sizes.insert(r.size) {
                        dups += 1;
                    }
                }
                o => panic!("{o:?}"),
            }
        }
        // Sizes vary naturally with the per-page RNG; an occasional
        // deterministic coincidence is tolerated, wholesale collapse
        // (which would mark the host as all-duplicates) is not.
        assert!(dups <= 2, "{dups} duplicate sizes on one host");
    }
}
