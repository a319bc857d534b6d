//! World generation: topics, hosts, pages, the link graph, the author
//! directory, host behaviours, duplicates, redirects and traps.
//!
//! Generation is fully deterministic given [`WorldConfig::seed`].

use crate::dblp::{publication_count, AuthorInfo};
use crate::faults::{FaultPlan, FaultProfile, FaultWindow};
use crate::lexicon;
use crate::scenario::ScenarioSpec;
use crate::{HostBehavior, HostMeta, PageKind, PageMeta, TopicInfo, World};
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::MimeType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One topic of the synthetic web.
#[derive(Debug, Clone)]
pub struct TopicConfig {
    /// Topic name (also used in hostnames).
    pub name: String,
    /// Key into [`lexicon::by_key`].
    pub lexicon_key: String,
    /// Content pages to generate for the topic.
    pub pages: usize,
    /// Hosts carrying those pages.
    pub hosts: usize,
}

impl TopicConfig {
    /// Convenience constructor.
    pub fn new(name: &str, lexicon_key: &str, pages: usize, hosts: usize) -> Self {
        TopicConfig {
            name: name.to_string(),
            lexicon_key: lexicon_key.to_string(),
            pages,
            hosts: hosts.max(1),
        }
    }
}

/// Configuration of the synthetic author directory (attached to one
/// topic, for the portal-generation experiment).
#[derive(Debug, Clone)]
pub struct AuthorDirectoryConfig {
    /// Number of authors.
    pub authors: usize,
    /// Publication count of the most prolific author (DBLP: 258).
    pub max_pubs: u32,
    /// Topic id the directory belongs to.
    pub topic: u32,
    /// Department hosts carrying the homepages.
    pub hosts: usize,
}

/// Full world configuration. Use a preset
/// ([`WorldConfig::small_test`], [`WorldConfig::portal`],
/// [`WorldConfig::expert`]) or build one by hand.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; everything (graph and content) derives from it.
    pub seed: u64,
    /// Topics; index in this vector is the topic id.
    pub topics: Vec<TopicConfig>,
    /// Optional author directory.
    pub author_directory: Option<AuthorDirectoryConfig>,
    /// Scenario overlays applied after base generation.
    pub scenarios: Vec<ScenarioSpec>,
    /// Cross links per content page (mean).
    pub avg_out_links: usize,
    /// Probability that a cross link stays within the topic.
    pub p_intra_topic: f64,
    /// Fraction of topical content pages served as simulated PDF.
    pub pdf_fraction: f64,
    /// Fraction of topical pages that are hubs.
    pub hub_fraction: f64,
    /// Host behaviour mix, applied to noise-topic hosts only (research
    /// hosts stay reachable so experiments are about focusing, not luck).
    pub slow_host_fraction: f64,
    /// Fraction of noise hosts failing ~20% of requests.
    pub flaky_host_fraction: f64,
    /// Fraction of noise hosts that never respond.
    pub dead_host_fraction: f64,
    /// Fraction of pages that also exist under an alias path (duplicate
    /// content, exercises the IP+filesize fingerprint of Section 4.2).
    pub alias_fraction: f64,
    /// Fraction of pages reachable through a redirect stub.
    pub redirect_fraction: f64,
    /// Topic ids counted as "noise" for host-behaviour purposes. Topics
    /// not listed keep healthy hosts.
    pub noise_topics: Vec<u32>,
    /// Multiplier on host latencies. 1 gives LAN-like latencies for fast
    /// tests; ~10 approximates 2002-era web round trips so virtual crawl
    /// durations are comparable to the paper's wall-clock budgets.
    pub latency_scale: u32,
    /// Probability that a content page blends in a second topic's
    /// vocabulary (ambiguous pages are what make classification hard on
    /// the real Web).
    pub topic_blend: f64,
    /// Pairs of *related* topics whose vocabularies may blend (blending
    /// is symmetric). Unrelated topics never mix — a sports page does
    /// not cite recovery algorithms.
    pub related_topics: Vec<(u32, u32)>,
    /// Seeded fault script over the generated hosts ([`crate::faults`]).
    /// `None` (all presets) keeps the world fault-free; chaos tests set
    /// a profile or call [`World::install_faults`] after generation.
    pub fault_profile: Option<FaultProfile>,
}

impl WorldConfig {
    /// Tiny world for unit tests: two research topics plus noise.
    pub fn small_test(seed: u64) -> Self {
        WorldConfig {
            seed,
            topics: vec![
                TopicConfig::new("dbresearch", "database_research", 60, 3),
                TopicConfig::new("datamining", "data_mining", 40, 2),
                TopicConfig::new("sports", "sports", 60, 3),
                TopicConfig::new("entertainment", "entertainment", 60, 3),
            ],
            author_directory: Some(AuthorDirectoryConfig {
                authors: 20,
                max_pubs: 60,
                topic: 0,
                hosts: 2,
            }),
            scenarios: Vec::new(),
            avg_out_links: 5,
            p_intra_topic: 0.75,
            pdf_fraction: 0.2,
            hub_fraction: 0.06,
            slow_host_fraction: 0.1,
            flaky_host_fraction: 0.1,
            dead_host_fraction: 0.05,
            alias_fraction: 0.1,
            redirect_fraction: 0.05,
            noise_topics: vec![2, 3],
            latency_scale: 1,
            topic_blend: 0.25,
            related_topics: vec![(0, 1)],
            fault_profile: None,
        }
    }

    /// The small-test world with an aggressive fault script layered on:
    /// same graph and content as [`WorldConfig::small_test`], but most
    /// hosts suffer scripted outages, error bursts, slow drips,
    /// truncation, garbling, DNS flaps and redirect loops.
    pub fn chaos(seed: u64) -> Self {
        WorldConfig {
            fault_profile: Some(FaultProfile::chaos()),
            ..WorldConfig::small_test(seed)
        }
    }

    /// The portal-generation world of Section 5.2: a database-research
    /// community with `authors` researchers, embedded in a much larger
    /// noise web.
    pub fn portal(seed: u64, authors: usize, noise_scale: usize) -> Self {
        WorldConfig {
            seed,
            topics: vec![
                TopicConfig::new("dbresearch", "database_research", 400 + authors / 4, 12),
                TopicConfig::new("datamining", "data_mining", 250, 6),
                TopicConfig::new("webir", "web_ir", 250, 6),
                TopicConfig::new("sports", "sports", 900 * noise_scale, 20),
                TopicConfig::new("entertainment", "entertainment", 900 * noise_scale, 20),
                TopicConfig::new("agriculture", "agriculture", 600 * noise_scale, 12),
                TopicConfig::new("arts", "arts", 600 * noise_scale, 12),
            ],
            author_directory: Some(AuthorDirectoryConfig {
                authors,
                max_pubs: 258,
                topic: 0,
                hosts: (authors / 60).max(4),
            }),
            scenarios: Vec::new(),
            avg_out_links: 7,
            p_intra_topic: 0.72,
            pdf_fraction: 0.25,
            hub_fraction: 0.05,
            slow_host_fraction: 0.08,
            flaky_host_fraction: 0.08,
            dead_host_fraction: 0.04,
            alias_fraction: 0.08,
            redirect_fraction: 0.05,
            noise_topics: vec![3, 4, 5, 6],
            latency_scale: 10,
            topic_blend: 0.25,
            related_topics: vec![(0, 1), (0, 2), (1, 2)],
            fault_profile: None,
        }
    }

    /// The expert-search world of Section 5.3: the ARIES scenario overlay
    /// on top of a database/OS/noise web.
    pub fn expert(seed: u64) -> Self {
        WorldConfig {
            seed,
            topics: vec![
                TopicConfig::new("dbresearch", "database_research", 500, 10),
                TopicConfig::new("recovery", "aries_recovery", 220, 6),
                TopicConfig::new("opensource", "open_source", 260, 8),
                TopicConfig::new("sports", "sports", 900, 16),
                TopicConfig::new("entertainment", "entertainment", 900, 16),
            ],
            author_directory: None,
            scenarios: vec![crate::scenario::aries_scenario()],
            avg_out_links: 7,
            p_intra_topic: 0.7,
            pdf_fraction: 0.3,
            hub_fraction: 0.05,
            slow_host_fraction: 0.08,
            flaky_host_fraction: 0.08,
            dead_host_fraction: 0.04,
            alias_fraction: 0.08,
            redirect_fraction: 0.05,
            noise_topics: vec![3, 4],
            latency_scale: 10,
            topic_blend: 0.25,
            // Recovery and open-source both border database research but
            // not each other — the scenario's needle pages are the rare
            // bridge between the two communities.
            related_topics: vec![(0, 1), (0, 2)],
            fault_profile: None,
        }
    }

    /// Generate the world.
    pub fn build(self) -> World {
        Generator::new(self).run()
    }
}

pub(crate) struct Generator {
    cfg: WorldConfig,
    rng: StdRng,
    hosts: Vec<HostMeta>,
    pages: Vec<PageMeta>,
    topics: Vec<TopicInfo>,
    /// Hosts per topic.
    topic_hosts: Vec<Vec<HostId>>,
    /// Welcome page per host.
    host_welcome: Vec<PageId>,
    /// Pages per host (for nav links).
    host_pages: Vec<Vec<PageId>>,
    /// Content/hub pages per topic.
    topic_pages: Vec<Vec<PageId>>,
    /// Weighted link targets per topic: (page, weight, cumulative).
    authors: Vec<AuthorInfo>,
    named: FxHashMap<String, PageId>,
    /// Hand-authored fault windows from scenario overlays, merged into
    /// the generated fault plan at finish time.
    scenario_faults: Vec<(HostId, FaultWindow)>,
}

impl Generator {
    fn new(cfg: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Generator {
            rng,
            hosts: Vec::new(),
            pages: Vec::new(),
            topics: Vec::new(),
            topic_hosts: Vec::new(),
            host_welcome: Vec::new(),
            host_pages: Vec::new(),
            topic_pages: Vec::new(),
            authors: Vec::new(),
            named: FxHashMap::default(),
            scenario_faults: Vec::new(),
            cfg,
        }
    }

    fn run(mut self) -> World {
        let n_topics = self.cfg.topics.len();
        self.topic_hosts = vec![Vec::new(); n_topics];
        self.topic_pages = vec![Vec::new(); n_topics];
        for t in 0..n_topics {
            self.topics.push(TopicInfo {
                name: self.cfg.topics[t].name.clone(),
                lexicon: lexicon::by_key(&self.cfg.topics[t].lexicon_key)
                    .unwrap_or(lexicon::COMMON),
            });
        }

        for t in 0..n_topics {
            self.create_topic_hosts(t as u32);
        }
        for t in 0..n_topics {
            self.create_topic_pages(t as u32);
        }
        if let Some(ad) = self.cfg.author_directory.clone() {
            self.create_author_directory(&ad);
        }
        self.create_links();
        self.create_redirect_stubs();
        self.create_media_and_traps();
        self.apply_host_behaviors();
        let scenarios = std::mem::take(&mut self.cfg.scenarios);
        for spec in &scenarios {
            crate::scenario::apply(&mut self, spec);
        }
        self.finish()
    }

    pub(crate) fn add_host(&mut self, name: String, _healthy: bool) -> HostId {
        let id = self.hosts.len() as HostId;
        let scale = self.cfg.latency_scale.max(1);
        let base_latency_ms = self.rng.gen_range(20..120) * scale;
        let dns_latency_ms = self.rng.gen_range(5..60) * scale;
        self.hosts.push(HostMeta {
            name,
            ip: 0x0a00_0000 + id, // deterministic fake 10.x address space
            base_latency_ms,
            // Behaviours are (possibly) downgraded later in
            // apply_host_behaviors; `healthy` hosts are exempt from that.
            behavior: HostBehavior::Normal,
            dns_latency_ms,
        });
        self.host_pages.push(Vec::new());
        // Welcome page for the host.
        let wid = self.add_page(PageMeta {
            host: id,
            path: "index.html".to_string(),
            topic: None,
            secondary_topic: None,
            kind: PageKind::Welcome,
            mime: MimeType::Html,
            out: Vec::new(),
            redirect_to: None,
            author: None,
            content_override: None,
            extra_out_urls: Vec::new(),
            size_hint: None,
        });
        self.host_welcome.push(wid);
        id
    }

    pub(crate) fn add_page(&mut self, meta: PageMeta) -> PageId {
        let id = self.pages.len() as PageId;
        self.host_pages[meta.host as usize].push(id);
        self.pages.push(meta);
        id
    }

    fn create_topic_hosts(&mut self, topic: u32) {
        let tc = self.cfg.topics[topic as usize].clone();
        let tld = if self.cfg.noise_topics.contains(&topic) {
            "com"
        } else {
            "edu"
        };
        for h in 0..tc.hosts {
            let name = format!("{}{h}.{tld}", tc.name);
            let id = self.add_host(name, true);
            self.topic_hosts[topic as usize].push(id);
        }
    }

    fn create_topic_pages(&mut self, topic: u32) {
        let tc = self.cfg.topics[topic as usize].clone();
        let hosts = self.topic_hosts[topic as usize].clone();
        for k in 0..tc.pages {
            // Zipf-ish host pick: earlier hosts carry more pages.
            let hidx = self.zipf_index(hosts.len());
            let host = hosts[hidx];
            let is_hub = self.rng.gen_bool(self.cfg.hub_fraction);
            let is_pdf = !is_hub && self.rng.gen_bool(self.cfg.pdf_fraction);
            // A few "proceedings" archives per topic exercise the zip
            // conversion during crawls.
            let is_zip = !is_hub && !is_pdf && self.rng.gen_bool(0.03);
            let (kind, mime, path) = if is_hub {
                (PageKind::Hub, MimeType::Html, format!("links{k}.html"))
            } else if is_pdf {
                (PageKind::Content, MimeType::Pdf, format!("papers/p{k}.pdf"))
            } else if is_zip {
                (
                    PageKind::Content,
                    MimeType::Zip,
                    format!("proceedings/v{k}.zip"),
                )
            } else {
                (PageKind::Content, MimeType::Html, format!("p{k}.html"))
            };
            let partners: Vec<u32> = self
                .cfg
                .related_topics
                .iter()
                .filter_map(|&(a, b)| {
                    if a == topic {
                        Some(b)
                    } else if b == topic {
                        Some(a)
                    } else {
                        None
                    }
                })
                .collect();
            let secondary_topic = if kind == PageKind::Content
                && !partners.is_empty()
                && self.rng.gen_bool(self.cfg.topic_blend)
            {
                Some(partners[self.rng.gen_range(0..partners.len())])
            } else {
                None
            };
            let id = self.add_page(PageMeta {
                host,
                path,
                topic: Some(topic),
                secondary_topic,
                kind,
                mime,
                out: Vec::new(),
                redirect_to: None,
                author: None,
                content_override: None,
                extra_out_urls: Vec::new(),
                size_hint: None,
            });
            self.topic_pages[topic as usize].push(id);
        }
    }

    fn create_author_directory(&mut self, ad: &AuthorDirectoryConfig) {
        // Dedicated department hosts.
        let mut dept_hosts = Vec::new();
        for h in 0..ad.hosts {
            let id = self.add_host(format!("cs-u{h}.edu"), true);
            self.topic_hosts[ad.topic as usize].push(id);
            dept_hosts.push(id);
        }
        for a in 0..ad.authors {
            let pubs = publication_count(a, ad.max_pubs);
            let host = dept_hosts[a % dept_hosts.len()];
            let prefix_path = format!("~a{a}");
            let mut pages = Vec::new();
            let homepage = self.add_page(PageMeta {
                host,
                path: format!("{prefix_path}/index.html"),
                topic: Some(ad.topic),
                secondary_topic: None,
                kind: PageKind::AuthorHome,
                mime: MimeType::Html,
                out: Vec::new(),
                redirect_to: None,
                author: Some(a as u32),
                content_override: None,
                extra_out_urls: Vec::new(),
                size_hint: None,
            });
            pages.push(homepage);
            let pubs_page = self.add_page(PageMeta {
                host,
                path: format!("{prefix_path}/pubs.html"),
                topic: Some(ad.topic),
                secondary_topic: None,
                kind: PageKind::AuthorPub,
                mime: MimeType::Html,
                out: Vec::new(),
                redirect_to: None,
                author: Some(a as u32),
                content_override: None,
                extra_out_urls: Vec::new(),
                size_hint: None,
            });
            pages.push(pubs_page);
            let n_papers = (1 + pubs / 60).min(3) as usize;
            for p in 0..n_papers {
                let paper = self.add_page(PageMeta {
                    host,
                    path: format!("{prefix_path}/paper{p}.pdf"),
                    topic: Some(ad.topic),
                    secondary_topic: None,
                    kind: PageKind::AuthorPub,
                    mime: MimeType::Pdf,
                    out: Vec::new(),
                    redirect_to: None,
                    author: Some(a as u32),
                    content_override: None,
                    extra_out_urls: Vec::new(),
                    size_hint: None,
                });
                pages.push(paper);
            }
            let host_name = self.hosts[host as usize].name.clone();
            self.authors.push(AuthorInfo {
                index: a as u32,
                name: author_name(a as u32),
                publication_count: pubs,
                homepage,
                homepage_prefix: format!("http://{host_name}/{prefix_path}/"),
                pages: pages.clone(),
            });
            // Author pages participate in the topic's link universe.
            self.topic_pages[ad.topic as usize].extend(pages);
        }
    }

    /// Weighted target sampler for a topic: author homepages are weighted
    /// by publication count, hubs and early ("authority") pages get a
    /// boost, the rest weight 1. Returns a cumulative table.
    fn topic_target_table(&self, topic: u32) -> (Vec<PageId>, Vec<f64>) {
        let pages = &self.topic_pages[topic as usize];
        let mut cum = Vec::with_capacity(pages.len());
        let mut total = 0.0f64;
        for (i, &p) in pages.iter().enumerate() {
            let meta = &self.pages[p as usize];
            let w = match meta.kind {
                PageKind::AuthorHome => {
                    let a = meta.author.unwrap() as usize;
                    1.0 + self.authors[a].publication_count as f64 / 8.0
                }
                PageKind::Hub => 4.0,
                _ if i < pages.len() / 50 + 1 => 5.0, // designated authorities
                _ => 1.0,
            };
            total += w;
            cum.push(total);
        }
        (pages.clone(), cum)
    }

    fn sample_from_table(&mut self, table: &(Vec<PageId>, Vec<f64>)) -> Option<PageId> {
        let (pages, cum) = table;
        let total = *cum.last()?;
        let x = self.rng.gen_range(0.0..total);
        let idx = cum.partition_point(|&c| c <= x);
        pages.get(idx).or(pages.last()).copied()
    }

    fn create_links(&mut self) {
        let n_topics = self.cfg.topics.len();
        let tables: Vec<(Vec<PageId>, Vec<f64>)> = (0..n_topics)
            .map(|t| self.topic_target_table(t as u32))
            .collect();
        let all_pages = self.pages.len() as u64;

        for id in 0..all_pages {
            let meta = self.pages[id as usize].clone();
            let mut out: Vec<PageId> = Vec::new();
            match meta.kind {
                PageKind::Welcome => {
                    // Link to up to 20 pages of the own host.
                    let own: Vec<PageId> = self.host_pages[meta.host as usize]
                        .iter()
                        .copied()
                        .filter(|&p| p != id)
                        .take(20)
                        .collect();
                    out.extend(own);
                    // A couple of cross-host welcome links.
                    for _ in 0..2 {
                        let h = self.rng.gen_range(0..self.hosts.len());
                        let w = self.host_welcome[h];
                        if w != id {
                            out.push(w);
                        }
                    }
                }
                PageKind::Hub => {
                    let topic = meta.topic.unwrap_or(0) as usize;
                    let n = 15 + self.rng.gen_range(0..20);
                    for _ in 0..n {
                        if let Some(t) = self.sample_from_table(&tables[topic]) {
                            if t != id {
                                out.push(t);
                            }
                        }
                    }
                }
                PageKind::Content => {
                    // Navigation: own welcome + one sibling.
                    out.push(self.host_welcome[meta.host as usize]);
                    if let Some(&sib) = self.host_pages[meta.host as usize].get(
                        self.rng
                            .gen_range(0..self.host_pages[meta.host as usize].len()),
                    ) {
                        if sib != id {
                            out.push(sib);
                        }
                    }
                    // Cross links with topical locality.
                    let n = 1 + self.rng.gen_range(0..(self.cfg.avg_out_links * 2).max(2));
                    for _ in 0..n {
                        let target = if let (Some(topic), true) =
                            (meta.topic, self.rng.gen_bool(self.cfg.p_intra_topic))
                        {
                            self.sample_from_table(&tables[topic as usize])
                        } else {
                            Some(self.rng.gen_range(0..all_pages))
                        };
                        if let Some(t) = target {
                            if t != id {
                                out.push(t);
                            }
                        }
                    }
                }
                PageKind::AuthorHome => {
                    let a = meta.author.unwrap() as usize;
                    // Own pages.
                    out.extend(self.authors[a].pages.iter().copied().filter(|&p| p != id));
                    out.push(self.host_welcome[meta.host as usize]);
                    // Coauthor homepages, preferential by publication count.
                    let topic = meta.topic.unwrap_or(0) as usize;
                    for _ in 0..self.rng.gen_range(2..5) {
                        if let Some(t) = self.sample_from_table(&tables[topic]) {
                            if t != id {
                                out.push(t);
                            }
                        }
                    }
                }
                PageKind::AuthorPub => {
                    let a = meta.author.unwrap() as usize;
                    out.push(self.authors[a].homepage);
                    // Citations to other authors / topic pages.
                    let topic = meta.topic.unwrap_or(0) as usize;
                    for _ in 0..self.rng.gen_range(1..4) {
                        if let Some(t) = self.sample_from_table(&tables[topic]) {
                            if t != id {
                                out.push(t);
                            }
                        }
                    }
                }
                _ => {}
            }
            out.sort_unstable();
            out.dedup();
            self.pages[id as usize].out = out;
        }
    }

    fn create_redirect_stubs(&mut self) {
        let n = self.pages.len() as u64;
        for id in 0..n {
            if self.pages[id as usize].kind == PageKind::Welcome {
                continue;
            }
            if !self.rng.gen_bool(self.cfg.redirect_fraction) {
                continue;
            }
            let meta = &self.pages[id as usize];
            let stub = PageMeta {
                host: meta.host,
                path: format!("old/{}", meta.path),
                topic: None,
                secondary_topic: None,
                kind: PageKind::Redirect,
                mime: MimeType::Html,
                out: Vec::new(),
                redirect_to: Some(id),
                author: None,
                content_override: None,
                extra_out_urls: Vec::new(),
                size_hint: None,
            };
            let stub_id = self.add_page(stub);
            // Reroute a random existing link to the stub: pick a
            // predecessor-ish random page and append.
            let linker = self.rng.gen_range(0..n);
            if linker != stub_id {
                self.pages[linker as usize].out.push(stub_id);
            }
        }
    }

    fn create_media_and_traps(&mut self) {
        // One oversized media file per ~6th host, linked from the welcome
        // page; plus trap links (overlong URL, 404) on a few welcome pages.
        let n_hosts = self.hosts.len();
        for h in (0..n_hosts).step_by(6) {
            let media = self.add_page(PageMeta {
                host: h as HostId,
                path: format!("video{h}.mp4"),
                topic: None,
                secondary_topic: None,
                kind: PageKind::Media,
                mime: MimeType::Video,
                out: Vec::new(),
                redirect_to: None,
                author: None,
                content_override: Some("binary".into()),
                extra_out_urls: Vec::new(),
                size_hint: Some(50_000_000),
            });
            let w = self.host_welcome[h];
            self.pages[w as usize].out.push(media);
        }
        for h in (0..n_hosts).step_by(9) {
            let host_name = self.hosts[h].name.clone();
            let w = self.host_welcome[h];
            let long_path = "x".repeat(1200);
            self.pages[w as usize]
                .extra_out_urls
                .push(format!("http://{host_name}/{long_path}"));
            self.pages[w as usize]
                .extra_out_urls
                .push(format!("http://{host_name}/does-not-exist{h}.html"));
        }
    }

    fn apply_host_behaviors(&mut self) {
        // Only noise-topic hosts degrade; research hosts stay healthy.
        let mut noise_hosts: Vec<HostId> = Vec::new();
        for &t in &self.cfg.noise_topics {
            if let Some(hs) = self.topic_hosts.get(t as usize) {
                noise_hosts.extend(hs.iter().copied());
            }
        }
        // Explicit counts, guaranteeing at least one host per configured
        // failure class even in tiny worlds.
        let n = noise_hosts.len();
        let count = |frac: f64| -> usize {
            if frac <= 0.0 || n == 0 {
                0
            } else {
                ((frac * n as f64).round() as usize).clamp(1, n)
            }
        };
        let n_dead = count(self.cfg.dead_host_fraction);
        let n_flaky = count(self.cfg.flaky_host_fraction);
        let n_slow = count(self.cfg.slow_host_fraction);
        for (i, h) in noise_hosts.iter().enumerate() {
            let behavior = if i < n_dead {
                HostBehavior::Dead
            } else if i < n_dead + n_flaky {
                HostBehavior::Flaky(200)
            } else if i < n_dead + n_flaky + n_slow {
                HostBehavior::Slow
            } else {
                HostBehavior::Normal
            };
            self.hosts[*h as usize].behavior = behavior;
        }
    }

    fn finish(mut self) -> World {
        // Aliases.
        let mut aliases: FxHashMap<PageId, String> = FxHashMap::default();
        let n = self.pages.len() as u64;
        for id in 0..n {
            let meta = &self.pages[id as usize];
            if meta.kind == PageKind::Welcome || meta.kind == PageKind::Redirect {
                continue;
            }
            if self.rng.gen_bool(self.cfg.alias_fraction) {
                let host_name = &self.hosts[meta.host as usize].name;
                aliases.insert(id, format!("http://{host_name}/alias/{}", meta.path));
            }
        }

        // Host index; the first host of a name answers for it.
        let mut host_index: FxHashMap<String, HostId> = FxHashMap::default();
        for (id, host) in (0..).zip(&self.hosts) {
            host_index.entry(host.name.clone()).or_insert(id);
        }

        // In-link index.
        let mut in_links: FxHashMap<PageId, Vec<PageId>> = FxHashMap::default();
        for id in 0..n {
            for &t in &self.pages[id as usize].out {
                in_links.entry(t).or_default().push(id);
            }
        }

        // Fault script: seeded plan (when configured) plus any scenario
        // overlays. Generated *after* all hosts exist so the script
        // covers scenario-added hosts too.
        let mut faults = match &self.cfg.fault_profile {
            Some(profile) => FaultPlan::generate(self.cfg.seed, self.hosts.len(), profile),
            None => FaultPlan::empty(),
        };
        for (host, window) in self.scenario_faults.drain(..) {
            faults.insert_window(host, window);
        }

        let lexicons = crate::content_gen::Lexicons::new(&self.topics);
        let mut world = World {
            seed: self.cfg.seed,
            pages: self.pages,
            hosts: self.hosts,
            host_index,
            topics: self.topics,
            url_index: FxHashMap::default(),
            aliases,
            in_links,
            authors: self.authors,
            named: self.named,
            faults,
            paged: None,
            lexicons,
        };
        // URL index (canonical + alias).
        let canonical = (0..n).map(|id| (world.url_of(id), id));
        let alias_urls = world.aliases.iter().map(|(&id, alias)| (alias.clone(), id));
        world.url_index = canonical.chain(alias_urls).collect();
        world
    }

    /// Zipf-ish index into `0..n`: earlier indexes are more likely.
    fn zipf_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        let u: f64 = self.rng.gen_range(0.0f64..1.0);
        let idx = (n as f64 * u * u) as usize;
        idx.min(n - 1)
    }

    /// RNG access for scenario application.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    pub(crate) fn pages_mut(&mut self) -> &mut Vec<PageMeta> {
        &mut self.pages
    }

    pub(crate) fn pages_ref(&self) -> &[PageMeta] {
        &self.pages
    }

    pub(crate) fn hosts_ref(&self) -> &[HostMeta] {
        &self.hosts
    }

    pub(crate) fn topic_pages_ref(&self) -> &[Vec<PageId>] {
        &self.topic_pages
    }

    pub(crate) fn register_name(&mut self, name: String, page: PageId) {
        self.named.insert(name, page);
    }

    pub(crate) fn add_scenario_fault(&mut self, host: HostId, window: FaultWindow) {
        self.scenario_faults.push((host, window));
    }

    pub(crate) fn find_host(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .position(|h| h.name == name)
            .map(|i| i as HostId)
    }
}

/// Deterministic synthetic author name.
fn author_name(index: u32) -> String {
    let first = lexicon::filler_word(index as u64 * 31 + 7);
    let last = lexicon::filler_word(index as u64 * 17 + 3);
    let cap = |s: &str| {
        let mut c = s.chars();
        match c.next() {
            Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
            None => String::new(),
        }
    };
    format!("{} {}", cap(&first), cap(&last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_has_structure() {
        let world = WorldConfig::small_test(1).build();
        let mut kinds: std::collections::HashMap<PageKind, usize> = Default::default();
        for id in 0..world.page_count() as u64 {
            *kinds.entry(world.page(id).kind).or_insert(0) += 1;
        }
        assert!(kinds[&PageKind::Welcome] >= 10);
        assert!(kinds[&PageKind::Content] > 100);
        assert!(kinds.get(&PageKind::Hub).copied().unwrap_or(0) > 0);
        assert!(kinds[&PageKind::AuthorHome] == 20);
        assert!(kinds.get(&PageKind::Media).copied().unwrap_or(0) > 0);
        assert!(kinds.get(&PageKind::Redirect).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn author_directory_ground_truth() {
        let world = WorldConfig::small_test(1).build();
        let authors = world.authors();
        assert_eq!(authors.len(), 20);
        // Publication counts descend.
        for w in authors.windows(2) {
            assert!(w[0].publication_count >= w[1].publication_count);
        }
        // Homepage prefix matches the homepage URL.
        for a in authors {
            let url = world.url_of(a.homepage);
            assert!(
                url.starts_with(&a.homepage_prefix),
                "{url} vs {}",
                a.homepage_prefix
            );
            assert!(a.pages.len() >= 2, "homepage + pubs at least");
        }
    }

    #[test]
    fn topical_locality_holds() {
        let world = WorldConfig::small_test(3).build();
        // Measure: links from topic-0 content pages landing on topic-0.
        let mut same = 0usize;
        let mut cross = 0usize;
        for id in 0..world.page_count() as u64 {
            let p = world.page(id);
            if p.topic != Some(0) || p.kind != PageKind::Content {
                continue;
            }
            for &t in &p.out {
                match world.page(t).topic {
                    Some(0) => same += 1,
                    Some(_) => cross += 1,
                    None => {} // welcome/nav links don't count
                }
            }
        }
        assert!(
            same > cross,
            "topical locality violated: same={same} cross={cross}"
        );
    }

    #[test]
    fn prominent_authors_have_more_inlinks() {
        use bingo_graph::LinkSource;
        let world = WorldConfig::small_test(5).build();
        let authors = world.authors();
        let top = &authors[0];
        let bottom = &authors[authors.len() - 1];
        let top_in = world.predecessors(top.homepage).len();
        let bottom_in = world.predecessors(bottom.homepage).len();
        assert!(
            top_in > bottom_in,
            "top author in-links {top_in} <= bottom {bottom_in}"
        );
    }

    #[test]
    fn noise_hosts_carry_failures_research_hosts_do_not() {
        let world = WorldConfig::small_test(9).build();
        let mut degraded = 0;
        for h in 0..world.host_count() as u32 {
            let host = world.host(h);
            if host.behavior != HostBehavior::Normal {
                degraded += 1;
                assert!(
                    host.name.ends_with(".com"),
                    "research host {} degraded",
                    host.name
                );
            }
        }
        assert!(degraded > 0, "no degraded hosts generated");
    }

    #[test]
    fn redirect_stubs_point_at_canonical() {
        let world = WorldConfig::small_test(2).build();
        let mut seen = 0;
        for id in 0..world.page_count() as u64 {
            let p = world.page(id);
            if p.kind == PageKind::Redirect {
                let target = p.redirect_to.expect("redirect stub without target");
                assert_ne!(target, id);
                assert!((target as usize) < world.page_count());
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn author_names_deterministic() {
        assert_eq!(author_name(5), author_name(5));
        assert_ne!(author_name(5), author_name(6));
    }
}
