//! Observability overhead guard: serving through [`Engine::serve`] — the fully
//! instrumented path (per-index metrics recorded, tracing compiled in but disabled) —
//! must stay within the same allocation budget as the raw executor (≤ 1 allocation
//! per query: the k-element result vector), return answers bit-identical to a direct
//! [`BatchExecutor::execute`] run, and cost at most a small constant factor in wall
//! time.
//!
//! The engine here is cold-started from a snapshot store with the load mode taken
//! from `P2H_STORE_MMAP`, so CI exercises this guard under both the copying and the
//! zero-copy loaders (and under `P2H_FORCE_SCALAR=1`).
//!
//! This file is its own test binary with a single `#[test]` so the counting global
//! allocator observes only this test's traffic. `P2H_TRACE` must not be set when it
//! runs — the point is the *disabled* tracing hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use p2h_core::SearchParams;
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BallTreeBuilder, BatchExecutor, BatchRequest, Engine, Store};

#[path = "../../store/tests/common/mod.rs"]
mod common;

use common::TestDir;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn instrumented_serving_keeps_the_allocation_budget_and_bit_identity() {
    assert!(
        std::env::var_os("P2H_TRACE").is_none(),
        "this guard measures the tracing-disabled hot path; unset P2H_TRACE"
    );

    let points = SyntheticDataset::new(
        "obs-overhead-test",
        6_000,
        24,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        42,
    )
    .generate()
    .unwrap();
    let tree = BallTreeBuilder::new(64).build(&points).unwrap();
    let base = generate_queries(&points, 64, QueryDistribution::DataDifference, 7).unwrap();
    let queries: Vec<_> = (0..512).map(|i| base[i % base.len()].clone()).collect();
    let n = queries.len() as u64;
    let k = 10;
    let request = BatchRequest::new(queries, SearchParams::exact(k));

    // Reference answers from the raw executor (same thread count, no metrics layer).
    let reference_executor = BatchExecutor::new(1);
    let reference = reference_executor.execute(&tree, &request);

    // Cold-start the engine from a snapshot store under the env-selected load mode:
    // the serve path below is exactly what a serving process runs.
    let dir = TestDir::new("obs-overhead");
    let store = Store::create(&dir).unwrap();
    store.save("tree", &tree).unwrap();
    let engine = Engine::from_store(&dir, 1).unwrap();

    // Warm-up: first-touch scratch growth, instrument-handle creation for the index
    // label, and any lazy stdlib allocations.
    let warmup = engine.serve("tree", &request).unwrap();
    assert_eq!(warmup.results.len(), n as usize);

    // Measured run: the instrumented path must allocate only each query's result
    // vector plus a constant per-batch overhead — metrics recording works on
    // stack-local streaming histograms merged once into cached atomic handles, and
    // disabled tracing is a single OnceLock read per batch.
    let before = allocations();
    let serve_start = Instant::now();
    let response = engine.serve("tree", &request).unwrap();
    let serve_elapsed = serve_start.elapsed();
    let during = allocations() - before;
    assert_eq!(response.results.len(), n as usize);

    let per_batch_overhead = 64;
    eprintln!(
        "obs_overhead: {during} allocations / {n} queries \
         ({:.3} per query), serve {serve_elapsed:?}",
        during as f64 / n as f64
    );
    assert!(
        during <= n + per_batch_overhead,
        "expected ≤ 1 allocation per query through the instrumented serve path, \
         observed {during} allocations for {n} queries"
    );
    assert!(during >= n, "counting allocator should observe the {n} result vectors");

    // Bit identity: instrumentation must never perturb answers — same neighbor ids,
    // same distance bits as the uninstrumented executor.
    for (served, reference) in response.results.iter().zip(reference.results.iter()) {
        assert_eq!(served.neighbors.len(), reference.neighbors.len());
        for (a, b) in served.neighbors.iter().zip(reference.neighbors.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    // Loose timing guard: the metrics layer is constant work per batch, so serving
    // must stay within a small factor of the raw executor on the same batch. The 5×
    // bound is deliberately slack (CI machines are noisy); a per-query regression —
    // atomics or allocation in the loop — blows past it on 512 queries.
    let raw_start = Instant::now();
    let raw = reference_executor.execute(&tree, &request);
    let raw_elapsed = raw_start.elapsed();
    assert_eq!(raw.results.len(), n as usize);
    assert!(
        serve_elapsed < raw_elapsed * 5 + std::time::Duration::from_millis(20),
        "instrumented serve took {serve_elapsed:?} vs {raw_elapsed:?} raw — \
         per-query metrics overhead crept in"
    );

    // The measured batch is visible in the exposition dump.
    let dump = engine.render_metrics();
    assert!(dump.contains("p2h_query_latency_ns_bucket{index=\"tree\""));
}
