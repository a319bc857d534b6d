//! The fault injector of the real-thread executor's supervision tests:
//! a judge that panics on seeded URLs.

use bingo_crawler::{BatchJudge, Judgment, PageContext};
use bingo_textproc::fxhash::{self, FxHashMap};
use bingo_textproc::AnalyzedDocument;
use std::sync::Mutex;

/// An accept-all [`BatchJudge`] that panics at the classify stage on
/// the URLs it selects — one in `one_in`, by a hash of the seed and the
/// URL — `panics_per_url` times each before it judges them: `u32::MAX`
/// models a poisoned document, a small count a transient crash. The
/// count is bumped before the unwind starts, so it survives the panic.
pub struct PanicJudge {
    seed: u64,
    one_in: u64,
    panics_per_url: u32,
    fired: Mutex<FxHashMap<String, u32>>,
}

impl PanicJudge {
    /// A judge selecting one URL in `one_in` under `seed`.
    pub fn new(seed: u64, one_in: u64, panics_per_url: u32) -> Self {
        PanicJudge {
            seed,
            one_in,
            panics_per_url,
            fired: Mutex::new(FxHashMap::default()),
        }
    }

    /// True when the judge panics on `url` (deterministic in seed + URL).
    pub fn selects(&self, url: &str) -> bool {
        fxhash::hash_one(&(self.seed, url)).is_multiple_of(self.one_in)
    }
}

impl BatchJudge for PanicJudge {
    fn judge_batch(&self, docs: &[AnalyzedDocument], ctxs: &[PageContext]) -> Vec<Judgment> {
        for ctx in ctxs.iter().filter(|ctx| self.selects(&ctx.url)) {
            let fire = {
                let mut fired = self.fired.lock().unwrap_or_else(|p| p.into_inner());
                let count = fired.entry(ctx.url.clone()).or_insert(0);
                if *count < self.panics_per_url {
                    *count += 1;
                    true
                } else {
                    false
                }
            };
            if fire {
                panic!("injected classify fault: {}", ctx.url);
            }
        }
        docs.iter()
            .map(|_| Judgment {
                topic: Some(0),
                confidence: 1.0,
            })
            .collect()
    }
}
