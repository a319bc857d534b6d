//! Cost of one `LiveIndex::commit` against corpus size — the curve
//! ROADMAP item 5 asks for. A commit recomputes every document norm, so
//! it is O(total postings); this bench times the *last* commit of 256
//! rows on top of 25k / 100k / 400k already committed documents
//! (synthetic rows, ≈60 distinct terms each, skewed toward low term
//! ids). EXPERIMENTS.md records the numbers.
//!
//! `cargo test` runs bench targets too (once, unoptimized); only `cargo
//! bench` passes `--bench`, and only then do the full sizes run.

use bingo_search::LiveIndex;
use bingo_store::DocumentRow;
use bingo_textproc::MimeType;
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

/// Rows of the timed commit.
const LAST: u64 = 256;
/// Rows per earlier commit (one sealed segment each).
const CHUNK: u64 = 25_000;

fn row(id: u64) -> DocumentRow {
    let mut h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut term_freqs: Vec<(u32, u32)> = (0..64)
        .map(|_| {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Square of a uniform draw: low ids are common, the tail is
            // long (term ids below 50k).
            let u = (h >> 33) % 100_000;
            ((u * u / 200_000) as u32, 1 + ((h >> 20) % 4) as u32)
        })
        .collect();
    term_freqs.sort_unstable_by_key(|&(t, _)| t);
    term_freqs.dedup_by_key(|&mut (t, _)| t);
    DocumentRow {
        id,
        url: String::new(),
        host: (id % 50) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: String::new(),
        topic: None,
        confidence: 0.0,
        term_freqs,
        size: 2048,
        fetched_at: id,
    }
}

fn rows(ids: std::ops::Range<u64>) -> Vec<DocumentRow> {
    ids.map(row).collect()
}

/// `docs - LAST` documents committed in chunks, `LAST` more staged.
fn staged(docs: u64) -> LiveIndex {
    let live = LiveIndex::new(0);
    let base = docs - LAST;
    let mut from = 0;
    while from < base {
        let to = (from + CHUNK).min(base);
        live.ingest(&rows(from..to));
        live.commit();
        from = to;
    }
    live.ingest(&rows(base..docs));
    live
}

fn bench_live_commit(c: &mut Criterion) {
    let full = std::env::args().any(|a| a == "--bench");
    let sizes: &[u64] = if full {
        &[25_000, 100_000, 400_000]
    } else {
        &[2_560]
    };
    let mut group = c.benchmark_group("live_commit");
    group.sample_size(10);
    for &docs in sizes {
        group.bench_with_input(BenchmarkId::new("last_256_at", docs), &docs, |b, &docs| {
            // By reference: dropping the index is not part of a commit.
            b.iter_batched_ref(
                || staged(docs),
                |live| live.commit(),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_live_commit);
criterion_main!(benches);
