//! Seeded portal load generation.
//!
//! A [`QueryMix`] maps a request index to a [`PortalRequest`] through a
//! per-index seeded RNG, so request `i` is the same regardless of which
//! client or thread issues it — the whole workload is a pure function of
//! `(seed, lexicon)`. [`VirtualLoadGen`] drives a mix from
//! deterministic closed-loop clients on the *virtual* clock: interleave
//! [`VirtualLoadGen::tick`] with discrete-event crawler steps and the
//! full request schedule (and every serve metric) reproduces
//! bit-for-bit per seed. Paced wall-clock drivers (open and closed
//! loop) live in `benchmark/src/loadgen.rs`.

use crate::{PortalRequest, PortalResponse, PortalService};
use bingo_search::{IndexReader, QueryOptions, RankingScheme, TopicFilter};
use bingo_textproc::TermLookup;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded query workload over a harvested lexicon: weighted phrase
/// queries (with a spread of topic filters and ranking schemes), topic
/// browses and stats probes.
#[derive(Debug, Clone)]
pub struct QueryMix {
    seed: u64,
    phrases: Vec<String>,
    topics: Vec<u32>,
}

impl QueryMix {
    /// Build a mix of `phrase_count` phrases, each 1–3 words drawn from
    /// the given word pools (typically topic lexicons the crawl
    /// harvests from), plus topic browses over `topics`. Deterministic
    /// per seed.
    pub fn from_lexicons(
        seed: u64,
        pools: &[&[&str]],
        topics: &[u32],
        phrase_count: usize,
    ) -> Self {
        assert!(!pools.is_empty(), "query mix needs at least one word pool");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut phrases = Vec::with_capacity(phrase_count);
        for _ in 0..phrase_count {
            let words = rng.gen_range(1..=3usize);
            let mut phrase = String::new();
            for w in 0..words {
                let pool = pools[rng.gen_range(0..pools.len())];
                if w > 0 {
                    phrase.push(' ');
                }
                phrase.push_str(pool[rng.gen_range(0..pool.len())]);
            }
            phrases.push(phrase);
        }
        QueryMix {
            seed,
            phrases,
            topics: topics.to_vec(),
        }
    }

    /// The `i`-th request of the workload — a pure function of
    /// `(seed, i)`, independent of which client issues it.
    pub fn request(&self, i: u64) -> PortalRequest {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll: f64 = rng.gen();
        if roll < 0.04 {
            return PortalRequest::Stats;
        }
        if roll < 0.12 && !self.topics.is_empty() {
            return PortalRequest::TopicBrowse {
                topic: self.topics[rng.gen_range(0..self.topics.len())],
                limit: 10,
            };
        }
        let text = self.phrases[rng.gen_range(0..self.phrases.len())].clone();
        let filter_roll: f64 = rng.gen();
        let filter = if self.topics.is_empty() || filter_roll < 0.60 {
            TopicFilter::Any
        } else if filter_roll < 0.85 {
            TopicFilter::Exact(self.topics[rng.gen_range(0..self.topics.len())])
        } else {
            TopicFilter::Vague {
                topics: self.topics.clone(),
                min_confidence: 0.25,
            }
        };
        let ranking_roll: f64 = rng.gen();
        let ranking = if ranking_roll < 0.80 {
            RankingScheme::Cosine
        } else if ranking_roll < 0.95 {
            RankingScheme::Confidence
        } else {
            RankingScheme::Combined {
                cosine: 1.0,
                confidence: 0.5,
                authority: 0.0,
            }
        };
        PortalRequest::Query {
            text,
            opts: QueryOptions {
                filter,
                ranking,
                top_k: 10,
            },
        }
    }
}

struct VirtualClient {
    next_due_ms: u64,
    rng: SmallRng,
}

/// Deterministic closed-loop clients on the virtual clock: each client
/// issues its next request once the clock passes its think-time
/// deadline. Single-threaded by design — determinism evidence, not a
/// throughput measurement.
pub struct VirtualLoadGen {
    mix: QueryMix,
    clients: Vec<VirtualClient>,
    think_ms: (u64, u64),
    issued: u64,
    query_hits: u64,
    max_epoch: u64,
}

impl VirtualLoadGen {
    /// `clients` concurrent virtual users with uniform think times in
    /// `think_ms` (inclusive), staggered by a per-client seeded RNG.
    pub fn new(mix: QueryMix, clients: usize, think_ms: (u64, u64), seed: u64) -> Self {
        let clients = (0..clients)
            .map(|c| {
                let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64 + 1) << 17);
                let first = rng.gen_range(0..=think_ms.1);
                VirtualClient {
                    next_due_ms: first,
                    rng,
                }
            })
            .collect();
        VirtualLoadGen {
            mix,
            clients,
            think_ms,
            issued: 0,
            query_hits: 0,
            max_epoch: 0,
        }
    }

    /// Issue every request due at virtual time `now_ms`; returns how
    /// many were served this tick.
    pub fn tick(
        &mut self,
        now_ms: u64,
        service: &PortalService,
        reader: &mut IndexReader,
        vocab: &dyn TermLookup,
    ) -> u64 {
        let mut served = 0u64;
        for c in 0..self.clients.len() {
            while self.clients[c].next_due_ms <= now_ms {
                let req = self.mix.request(self.issued);
                self.issued += 1;
                served += 1;
                if let PortalResponse::Hits { epoch, hits } = service.handle(reader, vocab, &req) {
                    self.query_hits += hits.len() as u64;
                    self.max_epoch = self.max_epoch.max(epoch);
                }
                let client = &mut self.clients[c];
                let think = client.rng.gen_range(self.think_ms.0..=self.think_ms.1);
                client.next_due_ms += think.max(1);
            }
        }
        served
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total hits returned by keyword queries so far.
    pub fn query_hits(&self) -> u64 {
        self.query_hits
    }

    /// Highest index epoch observed in a query response.
    pub fn max_epoch(&self) -> u64 {
        self.max_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortalService;
    use bingo_search::LiveIndex;
    use bingo_store::{DocumentRow, DocumentStore};
    use bingo_textproc::Vocabulary;
    use std::sync::Arc;

    const POOLS: &[&[&str]] = &[
        &["recovery", "logging", "checkpoint", "transaction"],
        &["football", "season", "game"],
    ];

    fn store_with_docs(vocab: &mut Vocabulary, live: &LiveIndex) -> DocumentStore {
        let store = DocumentStore::new().with_tee(Arc::new(live.clone()));
        let texts = [
            (1u64, Some(1), "recovery logging checkpoint transaction"),
            (2, Some(1), "recovery checkpoint restart"),
            (3, Some(2), "football season game"),
        ];
        for (id, topic, text) in texts {
            let tfs: Vec<(u32, u32)> = text
                .split(' ')
                .map(|w| (vocab.intern(&bingo_textproc::porter_stem(w)).0, 1))
                .collect();
            store
                .insert_document(DocumentRow {
                    id,
                    url: format!("http://h/{id}"),
                    host: 1,
                    mime: bingo_textproc::MimeType::Html,
                    depth: 0,
                    title: format!("d{id}"),
                    topic,
                    confidence: 0.5,
                    term_freqs: tfs,
                    size: 1,
                    fetched_at: 0,
                })
                .unwrap();
        }
        live.commit();
        store
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let a = QueryMix::from_lexicons(7, POOLS, &[1, 2], 16);
        let b = QueryMix::from_lexicons(7, POOLS, &[1, 2], 16);
        for i in 0..200 {
            assert_eq!(format!("{:?}", a.request(i)), format!("{:?}", b.request(i)));
        }
        let c = QueryMix::from_lexicons(8, POOLS, &[1, 2], 16);
        let differs =
            (0..50).any(|i| format!("{:?}", a.request(i)) != format!("{:?}", c.request(i)));
        assert!(differs, "different seeds give different workloads");
    }

    #[test]
    fn mix_covers_all_request_kinds() {
        let mix = QueryMix::from_lexicons(11, POOLS, &[1, 2], 16);
        let mut kinds = [0u32; 3];
        for i in 0..500 {
            match mix.request(i) {
                PortalRequest::Query { .. } => kinds[0] += 1,
                PortalRequest::TopicBrowse { .. } => kinds[1] += 1,
                PortalRequest::Stats => kinds[2] += 1,
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
        assert!(kinds[0] > kinds[1] && kinds[1] > kinds[2], "{kinds:?}");
    }

    #[test]
    fn virtual_ticks_reproduce_exactly() {
        let mut vocab = Vocabulary::new();
        let live = LiveIndex::new(0);
        let store = store_with_docs(&mut vocab, &live);
        let service = PortalService::new(store, live);
        let run = |seed: u64| {
            let mix = QueryMix::from_lexicons(seed, POOLS, &[1, 2], 16);
            let mut gen = VirtualLoadGen::new(mix, 4, (5, 25), seed);
            let mut reader = service.reader();
            for now in (0..500).step_by(10) {
                gen.tick(now, &service, &mut reader, &vocab);
            }
            (gen.issued(), gen.query_hits(), gen.max_epoch())
        };
        assert_eq!(run(42), run(42));
        assert!(run(42).0 > 50, "4 clients over 500 virtual ms issue plenty");
    }
}
