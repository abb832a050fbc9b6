//! Criterion benchmarks of single-query latency: exact and budgeted top-10 search for
//! every index, plus the linear-scan baseline (the per-query dimension of Figure 5).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder, BcTreeVariant};
use p2h_core::{LinearScan, P2hIndex, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_hash::{FhIndex, FhParams, NhIndex, NhParams};

fn bench_queries(c: &mut Criterion) {
    let points = SyntheticDataset::new(
        "query-bench",
        20_000,
        96,
        DataDistribution::GaussianClusters { clusters: 16, std_dev: 1.5 },
        9,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 16, QueryDistribution::DataDifference, 11).unwrap();

    let scan = LinearScan::new(points.clone());
    let ball = BallTreeBuilder::new(100).build(&points).unwrap();
    let bc = BcTreeBuilder::new(100).build(&points).unwrap();
    let nh = NhIndex::build(&points, NhParams::new(2, 16)).unwrap();
    let fh = FhIndex::build(&points, FhParams::new(2, 16, 4)).unwrap();

    let exact = SearchParams::exact(10);
    let budgeted = SearchParams::approximate(10, 2_000);

    let mut group = c.benchmark_group("query_n20k_d96_k10");
    let mut qi = 0usize;
    let mut next_query = || {
        qi = (qi + 1) % queries.len();
        &queries[qi]
    };

    group.bench_function("linear_scan_exact", |b| {
        b.iter(|| scan.search(black_box(next_query()), &exact))
    });
    group.bench_function("ball_tree_exact", |b| {
        b.iter(|| ball.search(black_box(next_query()), &exact))
    });
    group
        .bench_function("bc_tree_exact", |b| b.iter(|| bc.search(black_box(next_query()), &exact)));
    group.bench_function("bc_tree_wo_bounds_exact", |b| {
        let view = bc.with_variant(BcTreeVariant::WithoutBoth);
        b.iter(|| view.search(black_box(next_query()), &exact))
    });
    group.bench_function("ball_tree_budget_2000", |b| {
        b.iter(|| ball.search(black_box(next_query()), &budgeted))
    });
    group.bench_function("bc_tree_budget_2000", |b| {
        b.iter(|| bc.search(black_box(next_query()), &budgeted))
    });
    group.bench_function("nh_budget_2000", |b| {
        b.iter(|| nh.search(black_box(next_query()), &budgeted))
    });
    group.bench_function("fh_budget_2000", |b| {
        b.iter(|| fh.search(black_box(next_query()), &budgeted))
    });
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
