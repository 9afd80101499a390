//! Table IV / §VII benchmarks: the two preprocessing jobs, the
//! neighborhood+merge clustering job, and the end-to-end pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gepeto::prelude::*;
use gepeto_bench::{dfs_for, parapluie, scaled_chunk_bytes};
use std::hint::black_box;

fn bench_djcluster(c: &mut Criterion) {
    let ds = gepeto_bench::dataset(178, 0.01);
    let cluster = parapluie();
    let cfg = djcluster::DjConfig::default();

    let mut group = c.benchmark_group("djcluster");
    group.sample_size(10);

    // Preprocessing at each Table IV sampling rate.
    for window in [60i64, 300, 600] {
        let scfg = sampling::SamplingConfig::new(window, sampling::Technique::ClosestToUpperLimit);
        let sampled = sampling::sequential_sample(&ds, &scfg);
        group.bench_with_input(BenchmarkId::new("preprocess", window), &window, |b, _| {
            b.iter(|| {
                let mut dfs = dfs_for(&cluster, &sampled, scaled_chunk_bytes(64));
                let ctx = RunCtx::default();
                let pre = djcluster::mapreduce_preprocess(
                    &cluster, &mut dfs, "input", "clean", &cfg, &ctx,
                )
                .unwrap();
                black_box(pre.after_dedup)
            })
        });
    }

    // The clustering job on the 1-min preprocessed data: direct R-tree vs
    // the MapReduce-built R-tree.
    let scfg = sampling::SamplingConfig::new(60, sampling::Technique::ClosestToUpperLimit);
    let pre = djcluster::sequential_preprocess(&sampling::sequential_sample(&ds, &scfg), &cfg);
    let mut dfs = dfs_for(&cluster, &pre, scaled_chunk_bytes(32));
    let ctx = RunCtx::default();
    group.bench_function("cluster/direct-rtree", |b| {
        b.iter(|| {
            let (clustering, _) =
                djcluster::mapreduce_djcluster(&cluster, &mut dfs, "input", &cfg, None, &ctx)
                    .unwrap();
            black_box(clustering.clusters.len())
        })
    });
    let rcfg = gepeto::rtree_build::RTreeBuildConfig::default();
    group.bench_function("cluster/mapreduce-rtree", |b| {
        b.iter(|| {
            let (clustering, _) = djcluster::mapreduce_djcluster(
                &cluster,
                &mut dfs,
                "input",
                &cfg,
                Some(&rcfg),
                &ctx,
            )
            .unwrap();
            black_box(clustering.clusters.len())
        })
    });

    // Sequential baseline on the same preprocessed traces.
    let traces = pre.to_traces();
    group.bench_function("cluster/sequential", |b| {
        b.iter(|| {
            black_box(
                djcluster::sequential_djcluster(&traces, &cfg)
                    .clusters
                    .len(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_djcluster);
criterion_main!(benches);
