//! E8: storage throughput (Section 4.1).
//!
//! The paper's lesson: per-row inserts cannot keep up; per-thread
//! workspaces flushed through a bulk loader sustain "up to ten thousand
//! documents per minute" (on 2002 hardware). These benches measure
//! row-at-a-time vs. batched loading, alone and with eight writers. The
//! whole multi-threaded fetch→convert→analyze→classify→bulk-load
//! pipeline is timed by the `pipeline_mt` workload of `benchmark/`.

use bingo_store::{BulkLoader, DocumentRow, DocumentStore};
use bingo_textproc::MimeType;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn row(id: u64) -> DocumentRow {
    DocumentRow {
        id,
        url: format!("http://h{}/p{id}", id % 50),
        host: (id % 50) as u32,
        mime: MimeType::Html,
        depth: 1,
        title: format!("doc {id}"),
        topic: Some((id % 5) as u32),
        confidence: 0.5,
        term_freqs: (0..40u32)
            .map(|t| (t * 7 + (id as u32 % 13), 1 + t % 4))
            .collect(),
        size: 2048,
        fetched_at: id,
    }
}

fn bench_insert_strategies(c: &mut Criterion) {
    const N: u64 = 2000;
    let mut group = c.benchmark_group("store_insert");
    group.throughput(Throughput::Elements(N));

    group.bench_function("row_at_a_time", |b| {
        b.iter(|| {
            let store = DocumentStore::new();
            for i in 0..N {
                store.insert_document(row(i)).unwrap();
            }
            black_box(store.document_count())
        })
    });

    for &batch in &[64usize, 256, 1024] {
        group.bench_with_input(
            BenchmarkId::new("bulk_loader", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let store = DocumentStore::new();
                    let mut loader = BulkLoader::with_batch_size(store.clone(), batch);
                    for i in 0..N {
                        loader.add_document(row(i));
                    }
                    loader.flush();
                    black_box(store.document_count())
                })
            },
        );
    }
    group.finish();
}

/// The paper's actual scenario: many crawler threads writing
/// concurrently. Row-at-a-time inserts serialize on the store lock;
/// per-thread workspaces flushed in batches amortize it.
fn bench_contended_inserts(c: &mut Criterion) {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 2000;
    let mut group = c.benchmark_group("store_insert_contended_8_threads");
    group.throughput(Throughput::Elements(THREADS * PER_THREAD));
    group.sample_size(10);

    group.bench_function("row_at_a_time", |b| {
        b.iter(|| {
            let store = DocumentStore::new();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let store = store.clone();
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            store.insert_document(row(t * 1_000_000 + i)).unwrap();
                        }
                    });
                }
            });
            black_box(store.document_count())
        })
    });

    group.bench_function("bulk_loader_256", |b| {
        b.iter(|| {
            let store = DocumentStore::new();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let store = store.clone();
                    scope.spawn(move || {
                        let mut loader = BulkLoader::with_batch_size(store, 256);
                        for i in 0..PER_THREAD {
                            loader.add_document(row(t * 1_000_000 + i));
                        }
                    });
                }
            });
            black_box(store.document_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insert_strategies, bench_contended_inserts);
criterion_main!(benches);
