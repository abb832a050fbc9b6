//! Criterion benchmarks of index construction (the indexing-time dimension of
//! Table III): Ball-Tree vs BC-Tree vs NH vs FH on a fixed synthetic data set.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_data::{DataDistribution, SyntheticDataset};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

fn bench_construction(c: &mut Criterion) {
    let points = SyntheticDataset::new(
        "construction-bench",
        10_000,
        64,
        DataDistribution::GaussianClusters { clusters: 16, std_dev: 1.5 },
        5,
    )
    .generate()
    .unwrap();

    let mut group = c.benchmark_group("construction_n10k_d64");
    group.sample_size(10);

    group.bench_function("ball_tree_n0_100", |b| {
        b.iter_batched(
            || points.clone(),
            |ps| BallTreeBuilder::new(100).build(&ps).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("bc_tree_n0_100", |b| {
        b.iter_batched(
            || points.clone(),
            |ps| BcTreeBuilder::new(100).build(&ps).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("nh_lambda_1d_m8", |b| {
        b.iter_batched(
            || points.clone(),
            |ps| NhIndex::build(&ps, NhParams::new(1, 8)).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("fh_lambda_1d_m8", |b| {
        b.iter_batched(
            || points.clone(),
            |ps| FhIndex::build(&ps, FhParams::new(1, 8, 4)).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
