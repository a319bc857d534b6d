//! E10 microbench: k-means clustering. SVM training and decision and MI
//! feature selection are measured by `benchmark/` (`ml.svm_train_s`,
//! `ml.svm_score_us`, `ml.mi_select_s`).

use bingo_ml::kmeans::{KMeans, KMeansConfig};
use bingo_textproc::SparseVector;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Synthetic sparse documents: even ones concentrate on low feature ids,
/// odd ones on high ones, with overlap noise.
fn synthetic_docs(n: usize, dim: u32, nnz: usize, seed: u64) -> Vec<SparseVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 0 } else { dim / 2 };
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|_| {
                    let f = base + rng.gen_range(0..dim / 2 + dim / 8) % dim;
                    (f, rng.gen_range(0.1..1.0f32))
                })
                .collect();
            SparseVector::from_pairs(pairs).normalized()
        })
        .collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let docs = synthetic_docs(400, 5000, 60, 11);
    c.bench_function("kmeans_k4_400docs", |b| {
        b.iter(|| {
            let res = KMeans::new(KMeansConfig { k: 4, seed: 1 })
                .run(black_box(&docs))
                .unwrap();
            black_box(res)
        })
    });
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
