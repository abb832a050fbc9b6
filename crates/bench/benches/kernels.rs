//! Criterion micro-benchmarks of the innermost kernels: the dense inner product that
//! dominates both lower-bound evaluation and candidate verification, the node-level ball
//! bound, the point-level cone bound, and the quadratic transform of NH/FH.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2h_balltree::bound::node_ball_bound;
use p2h_balltree::bounds::{point_ball_bound, point_cone_bound};
use p2h_core::distance;
use p2h_core::kernels;
use p2h_core::Scalar;
use p2h_hash::QuadraticTransform;

fn random_vector(dim: usize, rng: &mut StdRng) -> Vec<Scalar> {
    (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_inner_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("inner_product");
    let mut rng = StdRng::seed_from_u64(1);
    for dim in [64usize, 128, 512, 1024] {
        let a = random_vector(dim, &mut rng);
        let b = random_vector(dim, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |bench, _| {
            bench.iter(|| distance::dot(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_blocked_leaf_scan(c: &mut Criterion) {
    // One leaf-sized strip of rows, verified three ways: per-point scalar (the seed's
    // loop), per-point dispatched kernel, and the blocked kernel the leaf scans use.
    let mut group = c.benchmark_group("leaf_scan_100rows");
    let mut rng = StdRng::seed_from_u64(3);
    for dim in [64usize, 128, 960] {
        let rows = 100;
        let query = random_vector(dim, &mut rng);
        let data: Vec<Scalar> = (0..rows).flat_map(|_| random_vector(dim, &mut rng)).collect();
        let mut out = vec![0.0 as Scalar; rows];
        group.bench_with_input(BenchmarkId::new("scalar_per_point", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0;
                for r in 0..rows {
                    acc += kernels::scalar::dot(black_box(&query), &data[r * dim..(r + 1) * dim])
                        .abs();
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("simd_per_point", dim), &dim, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0;
                for r in 0..rows {
                    acc += kernels::abs_dot(black_box(&query), &data[r * dim..(r + 1) * dim]);
                }
                acc
            })
        });
        group.bench_with_input(BenchmarkId::new("simd_blocked", dim), &dim, |bench, _| {
            bench.iter(|| {
                kernels::abs_dot_block(black_box(&query), &data, dim, &mut out);
                out[0]
            })
        });
    }
    group.finish();
}

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bounds");
    group.bench_function("node_ball_bound", |bench| {
        bench.iter(|| node_ball_bound(black_box(3.7), black_box(1.2), black_box(0.8)))
    });
    group.bench_function("point_ball_bound", |bench| {
        bench.iter(|| point_ball_bound(black_box(3.7), black_box(1.2), black_box(0.4)))
    });
    group.bench_function("point_cone_bound", |bench| {
        bench.iter(|| {
            point_cone_bound(black_box(1.1), black_box(0.6), black_box(2.0), black_box(0.9))
        })
    });
    group.finish();
}

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("quadratic_transform");
    let mut rng = StdRng::seed_from_u64(2);
    for (dim, factor) in [(128usize, 1usize), (128, 8)] {
        let x = random_vector(dim, &mut rng);
        let transform = QuadraticTransform::sampled(dim, factor * dim, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dim}_lambda{}d", factor)),
            &dim,
            |bench, _| bench.iter(|| transform.transform_data(black_box(&x))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inner_product,
    bench_blocked_leaf_scan,
    bench_bounds,
    bench_transform
);
criterion_main!(benches);
