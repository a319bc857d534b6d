//! E10 microbenches over analyzed documents: tf·idf weighting, term-pair
//! extraction, feature-space vectors. The analyzer itself (parse,
//! tokenize, stem, intern) is timed by `benchmark/` as
//! `textproc.analyze_s`.

use bingo_textproc::tfidf::CorpusStats;
use bingo_textproc::{analyze_html, DocumentFeatures, FeatureSpaceKind, Vocabulary};
use bingo_webworld::content_gen;
use bingo_webworld::gen::WorldConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sample_pages(n: usize) -> Vec<String> {
    let world = WorldConfig::small_test(42).build();
    (0..world.page_count() as u64)
        .filter(|&id| world.page(id).mime == bingo_textproc::MimeType::Html)
        .take(n)
        .map(|id| content_gen::payload(&world, id))
        .collect()
}

fn bench_feature_construction(c: &mut Criterion) {
    let pages = sample_pages(50);
    let mut vocab = Vocabulary::new();
    let docs: Vec<_> = pages.iter().map(|p| analyze_html(p, &mut vocab)).collect();
    c.bench_function("term_pair_feature_extraction_50_docs", |b| {
        b.iter(|| {
            for d in &docs {
                black_box(DocumentFeatures::from_document(black_box(d)));
            }
        })
    });
}

fn bench_tfidf(c: &mut Criterion) {
    let pages = sample_pages(100);
    let mut vocab = Vocabulary::new();
    let docs: Vec<_> = pages.iter().map(|p| analyze_html(p, &mut vocab)).collect();
    let mut stats = CorpusStats::new();
    for d in &docs {
        stats.add_document(d.term_freqs.iter().map(|&(t, _)| t));
    }
    let weighter = stats.weighter();
    c.bench_function("tfidf_weigh_100_docs", |b| {
        b.iter(|| {
            for d in &docs {
                black_box(weighter.weigh(black_box(&d.term_freqs)));
            }
        })
    });
}

fn bench_feature_space_vectors(c: &mut Criterion) {
    let pages = sample_pages(50);
    let mut vocab = Vocabulary::new();
    let docs: Vec<_> = pages
        .iter()
        .map(|p| DocumentFeatures::from_document(&analyze_html(p, &mut vocab)))
        .collect();
    c.bench_function("combined_space_occurrences_50_docs", |b| {
        b.iter(|| {
            for f in &docs {
                black_box(f.occurrences(FeatureSpaceKind::Combined));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_feature_construction,
    bench_tfidf,
    bench_feature_space_vectors
);
criterion_main!(benches);
