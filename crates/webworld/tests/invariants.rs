//! World-level invariants: a generated web must be internally
//! consistent regardless of configuration, because the crawler's
//! correctness arguments (dedup, politeness, focusing) rest on them.

use bingo_graph::LinkSource;
use bingo_textproc::MimeType;
use bingo_webworld::gen::{AuthorDirectoryConfig, TopicConfig, WorldConfig};
use bingo_webworld::{content_gen, FetchOutcome, HostBehavior, PageKind, World};

fn worlds() -> Vec<World> {
    vec![
        WorldConfig::small_test(101).build(),
        WorldConfig::expert(102).build(),
        WorldConfig::portal(103, 150, 1).build(),
        // A custom configuration exercising edge settings.
        WorldConfig {
            topics: vec![
                TopicConfig::new("solo", "web_ir", 30, 1),
                TopicConfig::new("noise", "arts", 20, 1),
            ],
            author_directory: Some(AuthorDirectoryConfig {
                authors: 5,
                max_pubs: 10,
                topic: 0,
                hosts: 1,
            }),
            noise_topics: vec![1],
            alias_fraction: 0.5,
            redirect_fraction: 0.3,
            ..WorldConfig::small_test(104)
        }
        .build(),
    ]
}

#[test]
fn all_out_links_resolve_to_valid_pages() {
    for world in worlds() {
        for id in 0..world.page_count() as u64 {
            for &t in &world.page(id).out {
                assert!(
                    (t as usize) < world.page_count(),
                    "dangling out-link {id}->{t}"
                );
            }
            if let Some(r) = world.page(id).redirect_to {
                assert!((r as usize) < world.page_count());
                assert_ne!(r, id, "self-redirect");
            }
        }
    }
}

#[test]
fn host_indices_and_urls_are_consistent() {
    for world in worlds() {
        for id in 0..world.page_count() as u64 {
            let meta = world.page(id);
            assert!((meta.host as usize) < world.host_count());
            let url = world.url_of(id);
            assert!(url.starts_with("http://"));
            assert_eq!(world.resolve_url(&url), Some(id));
            assert_eq!(world.host_of(id), meta.host);
        }
    }
}

#[test]
fn rendered_links_resolve_or_are_intentional_traps() {
    let world = WorldConfig::small_test(105).build();
    let mut checked = 0;
    for id in 0..world.page_count() as u64 {
        let meta = world.page(id);
        if meta.size_hint.is_some() || meta.redirect_to.is_some() {
            continue;
        }
        let payload = content_gen::payload(&world, id);
        let Ok(html) = meta.mime.to_html(&payload) else {
            continue;
        };
        let parsed = bingo_textproc::html::parse(&html);
        for link in &parsed.links {
            let resolvable = world.resolve_url(&link.href).is_some();
            let trap =
                link.href.len() > 1000 || meta.extra_out_urls.iter().any(|u| u == &link.href);
            assert!(
                resolvable || trap,
                "page {id} renders unresolvable non-trap link {}",
                link.href
            );
        }
        checked += 1;
        if checked >= 300 {
            break;
        }
    }
    assert!(checked > 100);
}

#[test]
fn fetch_is_total_over_all_pages() {
    // Every page yields *some* deterministic outcome; no panics, and
    // outcome types line up with metadata.
    let world = WorldConfig::small_test(106).build();
    for id in 0..world.page_count() as u64 {
        let url = world.url_of(id);
        let a = world.fetch(&url, 0);
        let b = world.fetch(&url, 0);
        match (&a, &b) {
            (FetchOutcome::Ok(x), FetchOutcome::Ok(y)) => {
                assert_eq!(x.page_id, y.page_id);
                assert_eq!(x.size, y.size);
                assert_eq!(x.payload, y.payload);
            }
            (
                FetchOutcome::Redirect { location: l1, .. },
                FetchOutcome::Redirect { location: l2, .. },
            ) => {
                assert_eq!(l1, l2);
            }
            (FetchOutcome::Err { error: e1, .. }, FetchOutcome::Err { error: e2, .. }) => {
                assert_eq!(e1, e2);
            }
            _ => panic!("nondeterministic outcome for {url}"),
        }
        if world.page(id).redirect_to.is_some() {
            let healthy = world.host(world.page(id).host).behavior == HostBehavior::Normal;
            if healthy {
                assert!(matches!(a, FetchOutcome::Redirect { .. }));
            }
        }
    }
}

#[test]
fn author_directory_is_sound() {
    let world = WorldConfig::portal(107, 120, 1).build();
    let authors = world.authors();
    assert_eq!(authors.len(), 120);
    for (i, a) in authors.iter().enumerate() {
        assert_eq!(a.index as usize, i);
        // All of the author's pages share the homepage prefix.
        for &p in &a.pages {
            let url = world.url_of(p);
            assert!(
                a.matches_url(&url),
                "author {i} page {url} outside {}",
                a.homepage_prefix
            );
        }
        // The homepage is an AuthorHome page of the directory topic.
        assert_eq!(world.page(a.homepage).kind, PageKind::AuthorHome);
        assert_eq!(world.true_topic(a.homepage), Some(0));
        // Prefixes are unique.
        for b in &authors[i + 1..] {
            assert_ne!(a.homepage_prefix, b.homepage_prefix);
        }
    }
}

#[test]
fn media_pages_never_offer_analyzable_payloads() {
    let world = WorldConfig::small_test(108).build();
    for id in 0..world.page_count() as u64 {
        let meta = world.page(id);
        if meta.kind != PageKind::Media {
            continue;
        }
        assert_eq!(meta.mime, MimeType::Video);
        assert!(!meta.mime.is_handled());
        assert!(meta.size_hint.unwrap_or(0) > MimeType::Html.max_size() as u32);
    }
}

#[test]
fn topic_pages_dominate_their_hosts() {
    // Host assignment sanity: pages of a topic live on that topic's
    // hosts (plus author/department hosts for the directory topic).
    let world = WorldConfig::small_test(109).build();
    for id in 0..world.page_count() as u64 {
        let meta = world.page(id);
        if meta.kind == PageKind::Content {
            let host_name = &world.host(meta.host).name;
            let t = meta.topic.expect("content pages are topical");
            let topic_name = &world.topics()[t as usize].name;
            assert!(
                host_name.starts_with(topic_name.as_str()),
                "content page {id} of topic {topic_name} on host {host_name}"
            );
        }
    }
}

#[test]
fn blending_respects_relatedness() {
    let world = WorldConfig::portal(110, 100, 1).build();
    // Portal preset relates research topics {0,1,2}; noise topics never
    // blend.
    for id in 0..world.page_count() as u64 {
        let meta = world.page(id);
        if let (Some(t), Some(s)) = (meta.topic, meta.secondary_topic) {
            assert!(t <= 2 && s <= 2, "non-research blend {t}<->{s}");
            assert_ne!(t, s);
        }
    }
}

/// Running digest of what the first `pages` pages serve: the generated
/// payload, and the whole outcome of fetching the canonical URL.
fn served_digest(world: &World, pages: u64) -> (u64, u64) {
    use bingo_textproc::fxhash::hash_one;
    (0..pages).fold((0, 0), |(payloads, fetches), id| {
        let payload = content_gen::payload(world, id);
        let outcome = format!("{:?}", world.fetch(&world.url_of(id), 0));
        (
            hash_one(&(payloads, payload.as_str())),
            hash_one(&(fetches, outcome.as_str())),
        )
    })
}

/// The simulator is the input of every benchmark workload and every
/// recorded report: what a page serves is pinned, digests recorded
/// before content generation stopped allocating per word and fetches
/// stopped cloning page and host metadata.
#[test]
fn served_content_is_pinned() {
    let eager = WorldConfig::portal(2003, 300, 1).build();
    assert_eq!(
        served_digest(&eager, 500),
        (5788488773033338018, 1430618683250780342)
    );
    let paged = World::paged(bingo_webworld::PagedConfig::scale_smoke(2003));
    assert_eq!(
        served_digest(&paged, 500),
        (16463262941268131461, 12063756773045639547)
    );
}
