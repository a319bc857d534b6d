//! Pins what the simulator serves: every payload of several worlds and
//! every fetch outcome of a chaos world, hashed. The crawler, the store
//! and every `experiments_*.json` depend on these bytes, so a change to
//! content generation or to the fetch path must leave each digest as it
//! is. The constants were recorded by this test at commit 445ad00,
//! before content generation was rewritten as a single pass.

use bingo_textproc::fxhash::hash_one;
use bingo_textproc::MimeType;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{
    content_gen, FaultKind, FaultWindow, FetchOutcome, PageKind, PagedConfig, World,
};

/// Every page's payload, folded in id order.
fn payload_digest(world: &World) -> u64 {
    (0..world.page_count() as u64).fold(0u64, |acc, id| {
        acc.rotate_left(5) ^ hash_one(&(id, content_gen::payload(world, id)))
    })
}

fn check(name: &str, world: &World, expected: u64) {
    let got = payload_digest(world);
    assert_eq!(got, expected, "{name}: payload digest {got:#018x}");
}

#[test]
fn small_test_payloads_are_pinned() {
    check(
        "small_test(4)",
        &WorldConfig::small_test(4).build(),
        0xc19f_84ae_ff7c_320f,
    );
}

#[test]
fn portal_payloads_are_pinned() {
    let world = WorldConfig::portal(2003, 500, 1).build();
    // The world exercises every generator path: blended pages, both
    // author page kinds, both envelopes, aliases, verbatim extra links
    // and fixed content.
    let ids = 0..world.page_count() as u64;
    let has = |f: &dyn Fn(u64) -> bool| ids.clone().any(f);
    assert!(has(&|id| world.page(id).secondary_topic.is_some()));
    assert!(has(&|id| world.page(id).kind == PageKind::AuthorHome));
    assert!(has(&|id| world.page(id).kind == PageKind::AuthorPub));
    assert!(has(&|id| world.page(id).kind == PageKind::Hub));
    assert!(has(&|id| world.page(id).mime == MimeType::Pdf));
    assert!(has(&|id| world.page(id).mime == MimeType::Zip));
    assert!(has(&|id| world.alias_url_of(id).is_some()));
    assert!(has(&|id| !world.page(id).extra_out_urls.is_empty()));
    assert!(has(&|id| world.page(id).content_override.is_some()));
    check("portal(2003, 500, 1)", &world, 0xba64_7eb3_6e48_bccf);
}

#[test]
fn scenario_payloads_are_pinned() {
    let world = WorldConfig::expert(102).build();
    let scenario = (0..world.page_count() as u64)
        .filter(|&id| world.page(id).kind == PageKind::Scenario)
        .count();
    assert!(scenario > 0, "the ARIES overlay adds scenario pages");
    check("expert(102)", &world, 0xb88a_be74_5615_b51a);
}

#[test]
fn paged_payloads_are_pinned() {
    for (seed, expected) in [(11, 0x42bf_6c9e_c661_a936), (2003, 0x419a_1e8a_b7b6_a193)] {
        let world = World::paged(PagedConfig::scale_smoke(seed));
        check(&format!("scale_smoke({seed})"), &world, expected);
    }
}

/// Fetches every canonical and alias URL of `WorldConfig::chaos(13)` at
/// time 0 and inside each fault window of its host, for two attempts,
/// follows redirect-loop hops, and looks up every host at the same
/// times: the outcomes, hashed in order, cover the fault windows
/// (garble, truncate, redirect loop, DNS flap) on top of the static host
/// behaviours. Seed 13's script draws no garble window, so one is added
/// on host 3.
#[test]
fn chaos_fetch_outcomes_are_pinned() {
    let mut world = WorldConfig::chaos(13).build();
    let mut plan = world.faults().clone();
    let garble = FaultWindow {
        start_ms: 5_000,
        end_ms: 15_000,
        kind: FaultKind::Garble,
    };
    plan.insert_window(3, garble);
    world.install_faults(plan);
    let times = |host: u32| {
        let windows = world.faults().windows_for(host).iter();
        std::iter::once(0).chain(windows.map(|w| (w.start_ms + w.end_ms) / 2))
    };
    let mut digest = 0u64;
    let mut fold = |line: String| digest = digest.rotate_left(5) ^ hash_one(&line);
    let (mut garbled, mut truncated, mut loops, mut flaps) = (0, 0, 0, 0);
    for h in 0..world.host_count() as u32 {
        let name = &world.host(h).name;
        for now in times(h) {
            let dns = world.dns_lookup_at(name, 0, now);
            flaps += matches!(dns, Err(bingo_webworld::DnsError::Timeout)) as usize;
            fold(format!("{now} {name} {dns:?}"));
        }
    }
    for id in 0..world.page_count() as u64 {
        let urls = [
            Some(world.url_of(id)),
            world.alias_url_of(id).map(String::from),
        ];
        for (now, url) in times(world.page(id).host).flat_map(|now| {
            let urls = urls.clone();
            urls.into_iter().flatten().map(move |url| (now, url))
        }) {
            for attempt in 0..2 {
                let mut url = url.clone();
                for _hop in 0..3 {
                    let outcome = world.fetch_at(&url, attempt, now);
                    fold(format!("{now} {attempt} {url} {outcome:?}"));
                    match outcome {
                        FetchOutcome::Ok(r) => {
                            truncated += r.truncated as usize;
                            let clean = world.page(id).size_hint.is_some()
                                || r.payload == content_gen::payload(&world, id);
                            garbled += (!clean && !r.truncated) as usize;
                            break;
                        }
                        FetchOutcome::Redirect { location, .. } => {
                            if !location.contains("/__loop/") {
                                break;
                            }
                            loops += 1;
                            url = location;
                        }
                        FetchOutcome::Err { .. } => break,
                    }
                }
            }
        }
    }
    assert_eq!((garbled, truncated, loops, flaps), (68, 70, 312, 1));
    assert_eq!(
        digest, 0x54fd_5d60_c2db_ecf9,
        "chaos(13) fetch digest {digest:#018x}"
    );
}
