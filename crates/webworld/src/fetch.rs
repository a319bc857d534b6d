//! Fetch and DNS simulation (Section 4.2 networking aspects).
//!
//! Every fetch returns a deterministic outcome given `(world seed, url,
//! attempt)`: success with payload and latency, a redirect, or a failure
//! (timeout on dead/flaky hosts, 404 on broken links). Latency models a
//! base round trip plus size-proportional transfer time; "slow" hosts
//! multiply it, letting the crawler's slow/bad host tagging kick in.

use crate::content_gen;
use crate::faults::FaultKind;
use crate::{HostBehavior, HostMeta, World};
use bingo_graph::{HostId, PageId};
use bingo_textproc::fxhash;
use bingo_textproc::MimeType;
use std::borrow::Cow;

/// Simulated bandwidth: bytes transferred per virtual millisecond.
pub const BYTES_PER_MS: u64 = 2000;

/// Virtual milliseconds until a timeout is reported.
pub const TIMEOUT_MS: u64 = 3000;

/// A successful fetch.
#[derive(Debug, Clone)]
pub struct FetchResponse {
    /// The page served.
    pub page_id: PageId,
    /// URL exactly as requested (may be an alias of the canonical URL).
    pub url: String,
    /// Server IP — one ingredient of the duplicate fingerprints.
    pub ip: u32,
    /// Served MIME type.
    pub mime: MimeType,
    /// Raw payload (with format envelope for non-HTML types).
    pub payload: String,
    /// Size in bytes as reported by the server (media files report their
    /// true size even though the payload is not materialized).
    pub size: u64,
    /// Virtual milliseconds the fetch took.
    pub latency_ms: u64,
    /// True when the delivered payload is shorter than the advertised
    /// `size` (a truncation fault): the client can detect the mismatch
    /// and treat the fetch as failed.
    pub truncated: bool,
}

/// Why a fetch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// Host did not respond within the timeout.
    Timeout,
    /// Host resolved but no such page.
    NotFound,
    /// Hostname does not exist.
    UnknownHost,
    /// Server answered with a 5xx status (transient server-side failure;
    /// a later retry may succeed).
    ServerError(u16),
}

impl FetchError {
    /// True for failures worth retrying later (the server may recover);
    /// 404 and unknown hosts are permanent.
    pub fn is_transient(self) -> bool {
        matches!(self, FetchError::Timeout | FetchError::ServerError(_))
    }
}

/// DNS failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsError {
    /// No such hostname.
    NxDomain,
    /// The queried DNS server timed out (transient; retry may succeed).
    Timeout,
}

/// Outcome of one fetch attempt.
#[derive(Debug, Clone)]
pub enum FetchOutcome {
    /// 200 OK.
    Ok(FetchResponse),
    /// 3xx redirect to `location`.
    Redirect {
        /// Target URL.
        location: String,
        /// Virtual milliseconds spent.
        latency_ms: u64,
    },
    /// Failure.
    Err {
        /// What went wrong.
        error: FetchError,
        /// Virtual milliseconds spent (a timeout costs the full budget).
        latency_ms: u64,
    },
}

/// Path prefix of synthetic redirect-loop chain URLs (see
/// [`FaultKind::RedirectLoop`]).
const LOOP_PREFIX: &str = "__loop/";

impl World {
    /// Authoritative DNS lookup: hostname → IP with lookup latency.
    /// Flaky hosts' DNS also fails transiently, varying with `attempt`
    /// (the crawler's resolver resends to alternative servers).
    pub fn dns_lookup(&self, hostname: &str, attempt: u32) -> Result<(u32, u64), DnsError> {
        self.dns_lookup_at(hostname, attempt, 0)
    }

    /// DNS lookup at virtual time `now_ms`: during a scripted
    /// [`FaultKind::DnsFlap`] window the authoritative servers time out
    /// on every attempt (cached resolutions are unaffected — the cache
    /// lives in the crawler's resolver).
    pub fn dns_lookup_at(
        &self,
        hostname: &str,
        attempt: u32,
        now_ms: u64,
    ) -> Result<(u32, u64), DnsError> {
        let Some((host_id, host)) = self.find_host(hostname) else {
            return Err(DnsError::NxDomain);
        };
        if matches!(
            self.faults.active(host_id, now_ms).map(|w| w.kind),
            Some(FaultKind::DnsFlap)
        ) {
            return Err(DnsError::Timeout);
        }
        if let HostBehavior::Flaky(permille) = host.behavior {
            let roll = fxhash::hash_one(&(self.seed, hostname, attempt, 0xD15u32)) % 1000;
            if (roll as u16) < permille / 2 {
                return Err(DnsError::Timeout);
            }
        }
        Ok((host.ip, host.dns_latency_ms as u64))
    }

    /// Fetch a URL. `attempt` differentiates retries: a flaky host may
    /// fail attempt 0 and serve attempt 1. Equivalent to
    /// [`World::fetch_at`] at virtual time 0 (fault-free unless a window
    /// starts at 0).
    pub fn fetch(&self, url: &str, attempt: u32) -> FetchOutcome {
        self.fetch_at(url, attempt, 0)
    }

    /// Fetch a URL at virtual time `now_ms`, applying any fault window
    /// scripted for the host at that instant on top of the host's static
    /// behaviour.
    pub fn fetch_at(&self, url: &str, attempt: u32, now_ms: u64) -> FetchOutcome {
        let Some(hostname) = host_of_url(url) else {
            return FetchOutcome::Err {
                error: FetchError::UnknownHost,
                latency_ms: 1,
            };
        };

        // Synthetic redirect-loop chain URLs exist only while the loop
        // window is active; they are not part of the page index. The
        // prefix is tested first: finding a paged host derives it.
        if let Some(hop) = parse_loop_url(url) {
            if let Some((host_id, host)) = self.find_host(hostname) {
                let active_loop = matches!(
                    self.faults.active(host_id, now_ms).map(|w| w.kind),
                    Some(FaultKind::RedirectLoop)
                );
                return if active_loop {
                    FetchOutcome::Redirect {
                        location: format!(
                            "http://{}/{}{}/{}",
                            host.name,
                            LOOP_PREFIX,
                            hop.0 + 1,
                            hop.1
                        ),
                        latency_ms: host.base_latency_ms as u64,
                    }
                } else {
                    FetchOutcome::Err {
                        error: FetchError::NotFound,
                        latency_ms: host.base_latency_ms as u64,
                    }
                };
            }
        }

        let Some(page_id) = self.resolve_url(url) else {
            // Host may exist (404) or not (unknown host).
            return match self.find_host(hostname) {
                Some((_, h)) => FetchOutcome::Err {
                    error: FetchError::NotFound,
                    latency_ms: h.base_latency_ms as u64,
                },
                None => FetchOutcome::Err {
                    error: FetchError::UnknownHost,
                    latency_ms: 1,
                },
            };
        };

        let meta = self.page_ref(page_id);
        let host = self.host_ref(meta.host);
        match host.behavior {
            HostBehavior::Dead => {
                return FetchOutcome::Err {
                    error: FetchError::Timeout,
                    latency_ms: TIMEOUT_MS,
                }
            }
            HostBehavior::Flaky(permille) => {
                let roll = fxhash::hash_one(&(self.seed, url, attempt)) % 1000;
                if (roll as u16) < permille {
                    return FetchOutcome::Err {
                        error: FetchError::Timeout,
                        latency_ms: TIMEOUT_MS,
                    };
                }
            }
            _ => {}
        }

        // Scripted fault window, if one is active right now.
        let fault = self.faults.active(meta.host, now_ms).map(|w| w.kind);
        match fault {
            Some(FaultKind::Outage) => {
                return FetchOutcome::Err {
                    error: FetchError::Timeout,
                    latency_ms: TIMEOUT_MS,
                }
            }
            Some(FaultKind::ErrorBurst { status }) => {
                return FetchOutcome::Err {
                    error: FetchError::ServerError(status),
                    latency_ms: host.base_latency_ms as u64,
                }
            }
            Some(FaultKind::RedirectLoop) => {
                let mut location = b"http://".to_vec();
                self.write_host_name(&mut location, meta.host);
                location.push(b'/');
                location.extend_from_slice(LOOP_PREFIX.as_bytes());
                location.push(b'1');
                self.write_path(&mut location, page_id);
                return FetchOutcome::Redirect {
                    location: String::from_utf8(location).expect("host names and paths are UTF-8"),
                    latency_ms: host.base_latency_ms as u64,
                };
            }
            _ => {}
        }

        let slow_factor = if host.behavior == HostBehavior::Slow {
            8
        } else {
            1
        };

        if let Some(target) = meta.redirect_to {
            return FetchOutcome::Redirect {
                location: self.url_of(target),
                latency_ms: host.base_latency_ms as u64 * slow_factor,
            };
        }

        // Oversized media is not materialized; the crawler aborts on the
        // reported size/MIME before the body transfer anyway.
        let (mut payload, size) = match meta.size_hint {
            Some(s) => (String::new(), s as u64),
            None => {
                let p = content_gen::payload_of(self, page_id, &meta);
                let len = p.len() as u64;
                (p, len)
            }
        };
        let jitter = fxhash::hash_one(&(self.seed, page_id, attempt, 0x1a7u32)) % 30;
        let mut latency_ms =
            (host.base_latency_ms as u64 + size / BYTES_PER_MS + jitter) * slow_factor;

        // Degraded-but-responding fault modes.
        let mut truncated = false;
        match fault {
            Some(FaultKind::SlowDrip { factor }) => {
                latency_ms *= factor.max(1) as u64;
                if latency_ms > TIMEOUT_MS {
                    // The drip is slower than the client's patience: the
                    // partial transfer is abandoned at the timeout.
                    return FetchOutcome::Err {
                        error: FetchError::Timeout,
                        latency_ms: TIMEOUT_MS,
                    };
                }
            }
            Some(FaultKind::Truncate { keep_permille }) => {
                let keep = payload.len() * keep_permille.min(999) as usize / 1000;
                let cut = (0..=keep).rev().find(|&i| payload.is_char_boundary(i));
                payload.truncate(cut.unwrap_or(0));
                truncated = true;
            }
            Some(FaultKind::Garble) => {
                payload = garble(&payload, self.seed ^ page_id);
            }
            _ => {}
        }

        FetchOutcome::Ok(FetchResponse {
            page_id,
            url: url.to_string(),
            ip: host.ip,
            mime: meta.mime,
            payload,
            size,
            latency_ms,
            truncated,
        })
    }

    /// True when no scripted fault window touches fetches of `url` — not
    /// on its host, nor on the host of the page it resolves to — so
    /// [`World::fetch_at`] gives the same outcome at every virtual time.
    pub fn fetch_ignores_time(&self, url: &str) -> bool {
        if self.faults.is_empty() {
            return true;
        }
        let host = host_of_url(url)
            .and_then(|name| self.find_host(name))
            .map(|(id, _)| id);
        let page_host = self.resolve_url(url).map(|id| self.page_ref(id).host);
        [host, page_host]
            .into_iter()
            .flatten()
            .all(|id| self.faults.windows_for(id).is_empty())
    }

    fn find_host(&self, name: &str) -> Option<(HostId, Cow<'_, HostMeta>)> {
        if let Some(p) = &self.paged {
            return p.find_host(name).map(|(id, host)| (id, Cow::Owned(host)));
        }
        let id = *self.host_index.get(name)?;
        Some((id, Cow::Borrowed(&self.hosts[id as usize])))
    }
}

/// Parse `http://host/__loop/{k}/{path}` into `(k, path)`.
fn parse_loop_url(url: &str) -> Option<(u32, &str)> {
    let rest = url.strip_prefix("http://")?;
    let slash = rest.find('/')?;
    let chain = rest[slash + 1..].strip_prefix(LOOP_PREFIX)?;
    let (hop, path) = chain.split_once('/')?;
    Some((hop.parse().ok()?, path))
}

/// Deterministically corrupt a payload: rotate ASCII letters by a
/// seed-derived shift. Markup, format envelopes and words all turn to
/// mush while the text stays valid UTF-8 (the downstream parsers see
/// garbage, exactly like bit-rot through a broken proxy).
fn garble(payload: &str, salt: u64) -> String {
    let shift = (fxhash::hash_one(&(salt, 0x6a4bu32)) % 25 + 1) as u8;
    payload
        .chars()
        .map(|c| match c {
            'a'..='z' => (b'a' + (c as u8 - b'a' + shift) % 26) as char,
            'A'..='Z' => (b'A' + (c as u8 - b'A' + shift) % 26) as char,
            _ => c,
        })
        .collect()
}

/// Extract the hostname of an `http://host/path` URL.
pub fn host_of_url(url: &str) -> Option<&str> {
    let rest = url.strip_prefix("http://")?;
    let end = rest.find('/').unwrap_or(rest.len());
    let host = &rest[..end];
    (!host.is_empty()).then_some(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorldConfig;
    use crate::PageKind;

    fn world() -> World {
        WorldConfig::small_test(13).build()
    }

    #[test]
    fn fetch_success_round_trip() {
        let w = world();
        let id = (0..w.page_count() as u64)
            .find(|&id| {
                w.page(id).kind == PageKind::Content
                    && w.host(w.page(id).host).behavior == HostBehavior::Normal
            })
            .unwrap();
        let url = w.url_of(id);
        match w.fetch(&url, 0) {
            FetchOutcome::Ok(resp) => {
                assert_eq!(resp.page_id, id);
                assert_eq!(resp.url, url);
                assert!(resp.latency_ms > 0);
                assert_eq!(resp.size, resp.payload.len() as u64);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn alias_serves_same_page_same_ip_same_size() {
        let w = world();
        let (id, alias) = (0..w.page_count() as u64)
            .find_map(|id| {
                w.alias_url_of(id).map(|a| (id, a.to_string())).filter(|_| {
                    w.host(w.page(id).host).behavior == HostBehavior::Normal
                        && w.page(id).size_hint.is_none()
                })
            })
            .unwrap();
        let canon = match w.fetch(&w.url_of(id), 0) {
            FetchOutcome::Ok(r) => r,
            o => panic!("{o:?}"),
        };
        let dup = match w.fetch(&alias, 0) {
            FetchOutcome::Ok(r) => r,
            o => panic!("{o:?}"),
        };
        assert_eq!(canon.page_id, dup.page_id);
        assert_eq!(canon.ip, dup.ip);
        assert_eq!(canon.size, dup.size);
        assert_ne!(canon.url, dup.url, "different URLs, same content");
    }

    #[test]
    fn missing_page_404_and_unknown_host() {
        let w = world();
        let host = w.host(0).name.clone();
        match w.fetch(&format!("http://{host}/definitely-missing.html"), 0) {
            FetchOutcome::Err { error, .. } => assert_eq!(error, FetchError::NotFound),
            o => panic!("{o:?}"),
        }
        match w.fetch("http://no-such-host.example/x", 0) {
            FetchOutcome::Err { error, .. } => assert_eq!(error, FetchError::UnknownHost),
            o => panic!("{o:?}"),
        }
        match w.fetch("garbage-url", 0) {
            FetchOutcome::Err { error, .. } => assert_eq!(error, FetchError::UnknownHost),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn dead_hosts_time_out() {
        let w = world();
        let dead_host = (0..w.host_count() as u32)
            .find(|&h| w.host(h).behavior == HostBehavior::Dead)
            .expect("small_test generates dead hosts");
        let page = (0..w.page_count() as u64)
            .find(|&id| w.page(id).host == dead_host)
            .unwrap();
        match w.fetch(&w.url_of(page), 0) {
            FetchOutcome::Err { error, latency_ms } => {
                assert_eq!(error, FetchError::Timeout);
                assert_eq!(latency_ms, TIMEOUT_MS);
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn flaky_host_varies_with_attempt() {
        let w = world();
        let flaky_host = (0..w.host_count() as u32)
            .find(|&h| matches!(w.host(h).behavior, HostBehavior::Flaky(_)))
            .expect("small_test generates flaky hosts");
        let page = (0..w.page_count() as u64)
            .find(|&id| w.page(id).host == flaky_host && w.page(id).size_hint.is_none())
            .unwrap();
        let url = w.url_of(page);
        // Over several attempts, at least one succeeds and the outcome per
        // attempt is deterministic.
        let outcomes: Vec<bool> = (0..20)
            .map(|a| matches!(w.fetch(&url, a), FetchOutcome::Ok(_)))
            .collect();
        assert!(outcomes.iter().any(|&ok| ok));
        let again: Vec<bool> = (0..20)
            .map(|a| matches!(w.fetch(&url, a), FetchOutcome::Ok(_)))
            .collect();
        assert_eq!(outcomes, again);
    }

    #[test]
    fn redirects_point_to_canonical() {
        let w = world();
        let stub = (0..w.page_count() as u64)
            .find(|&id| {
                w.page(id).kind == PageKind::Redirect
                    && w.host(w.page(id).host).behavior == HostBehavior::Normal
            })
            .expect("redirect stubs exist");
        match w.fetch(&w.url_of(stub), 0) {
            FetchOutcome::Redirect { location, .. } => {
                let target = w.page(stub).redirect_to.unwrap();
                assert_eq!(location, w.url_of(target));
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn media_reports_size_without_payload() {
        let w = world();
        let media = (0..w.page_count() as u64)
            .find(|&id| {
                w.page(id).kind == PageKind::Media
                    && w.host(w.page(id).host).behavior == HostBehavior::Normal
            })
            .unwrap();
        match w.fetch(&w.url_of(media), 0) {
            FetchOutcome::Ok(resp) => {
                assert_eq!(resp.mime, MimeType::Video);
                assert!(resp.size >= 1_000_000);
                assert!(resp.payload.is_empty());
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn dns_lookup_behaviour() {
        let w = world();
        let name = w.host(0).name.clone();
        let (ip, latency) = w.dns_lookup(&name, 0).unwrap();
        assert_eq!(ip, w.host(0).ip);
        assert!(latency > 0);
        assert_eq!(w.dns_lookup("nope.invalid", 0), Err(DnsError::NxDomain));
    }

    #[test]
    fn fault_windows_shape_fetch_outcomes() {
        use crate::faults::{FaultKind, FaultPlan, FaultWindow};
        let mut w = world();
        let id = (0..w.page_count() as u64)
            .find(|&id| {
                w.page(id).kind == PageKind::Content
                    && w.page(id).mime == MimeType::Html
                    && w.host(w.page(id).host).behavior == HostBehavior::Normal
            })
            .unwrap();
        let host = w.page(id).host;
        let url = w.url_of(id);
        let clean = match w.fetch_at(&url, 0, 0) {
            FetchOutcome::Ok(r) => r,
            o => panic!("{o:?}"),
        };
        let other = (0..w.page_count() as u64)
            .find(|&p| w.page(p).host != host)
            .unwrap();
        assert!(w.fetch_ignores_time(&url));

        let mut plan = FaultPlan::empty();
        for (start, kind) in [
            (1_000, FaultKind::Outage),
            (2_000, FaultKind::ErrorBurst { status: 503 }),
            (3_000, FaultKind::Truncate { keep_permille: 400 }),
            (4_000, FaultKind::Garble),
            (5_000, FaultKind::SlowDrip { factor: 1000 }),
            (6_000, FaultKind::DnsFlap),
            (7_000, FaultKind::RedirectLoop),
        ] {
            plan.insert_window(
                host,
                FaultWindow {
                    start_ms: start,
                    end_ms: start + 500,
                    kind,
                },
            );
        }
        w.install_faults(plan);
        assert!(!w.fetch_ignores_time(&url));
        assert!(w.fetch_ignores_time(&w.url_of(other)));

        // Outside every window the fetch is byte-identical to clean.
        match w.fetch_at(&url, 0, 500) {
            FetchOutcome::Ok(r) => {
                assert_eq!(r.payload, clean.payload);
                assert!(!r.truncated);
            }
            o => panic!("{o:?}"),
        }
        // Outage: timeout at full budget.
        match w.fetch_at(&url, 0, 1_100) {
            FetchOutcome::Err { error, latency_ms } => {
                assert_eq!(error, FetchError::Timeout);
                assert_eq!(latency_ms, TIMEOUT_MS);
            }
            o => panic!("{o:?}"),
        }
        // Error burst: 5xx, transient.
        match w.fetch_at(&url, 0, 2_100) {
            FetchOutcome::Err { error, .. } => {
                assert_eq!(error, FetchError::ServerError(503));
                assert!(error.is_transient());
            }
            o => panic!("{o:?}"),
        }
        // Truncation: short payload, full advertised size, flagged.
        match w.fetch_at(&url, 0, 3_100) {
            FetchOutcome::Ok(r) => {
                assert!(r.truncated);
                assert!(r.payload.len() < clean.payload.len());
                assert_eq!(r.size, clean.size, "full size still advertised");
            }
            o => panic!("{o:?}"),
        }
        // Garbling: same length, different bytes, not flagged.
        match w.fetch_at(&url, 0, 4_100) {
            FetchOutcome::Ok(r) => {
                assert!(!r.truncated);
                assert_eq!(r.payload.len(), clean.payload.len());
                assert_ne!(r.payload, clean.payload);
            }
            o => panic!("{o:?}"),
        }
        // Extreme slow-drip: abandoned at the timeout.
        match w.fetch_at(&url, 0, 5_100) {
            FetchOutcome::Err { error, latency_ms } => {
                assert_eq!(error, FetchError::Timeout);
                assert_eq!(latency_ms, TIMEOUT_MS);
            }
            o => panic!("{o:?}"),
        }
        // DNS flap: lookups fail during the window, recover after.
        let host_name = w.host(host).name.clone();
        assert_eq!(
            w.dns_lookup_at(&host_name, 0, 6_100),
            Err(DnsError::Timeout)
        );
        assert!(w.dns_lookup_at(&host_name, 0, 6_600).is_ok());
        // Redirect loop: every hop yields a fresh synthetic URL.
        let first = match w.fetch_at(&url, 0, 7_100) {
            FetchOutcome::Redirect { location, .. } => location,
            o => panic!("{o:?}"),
        };
        assert!(first.contains("/__loop/1/"));
        let second = match w.fetch_at(&first, 0, 7_200) {
            FetchOutcome::Redirect { location, .. } => location,
            o => panic!("{o:?}"),
        };
        assert!(second.contains("/__loop/2/"));
        assert_ne!(first, second);
        // After the window the synthetic chain URLs 404.
        match w.fetch_at(&first, 0, 8_000) {
            FetchOutcome::Err { error, .. } => assert_eq!(error, FetchError::NotFound),
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn chaos_preset_installs_fault_plan() {
        let w = WorldConfig::chaos(13).build();
        assert!(!w.faults().is_empty());
        assert!(w.faults().faulty() >= w.host_count() / 3);
        // Same seed, same script.
        let v = WorldConfig::chaos(13).build();
        for h in 0..w.host_count() as u32 {
            assert_eq!(w.faults().windows_for(h), v.faults().windows_for(h));
        }
        // The plain preset stays fault-free.
        assert!(world().faults().is_empty());
    }

    #[test]
    fn host_of_url_parsing() {
        assert_eq!(host_of_url("http://a.b/c"), Some("a.b"));
        assert_eq!(host_of_url("http://a.b"), Some("a.b"));
        assert_eq!(host_of_url("https://a.b/c"), None, "only http simulated");
        assert_eq!(host_of_url("http:///x"), None);
    }
}
