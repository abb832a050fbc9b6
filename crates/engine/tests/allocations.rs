//! Verifies the allocation-free steady-state query path: executing a large batch
//! through the scratch-reusing executor must allocate nothing per query beyond each
//! query's k-element result vector (which is the answer handed to the caller, not
//! scratch) — whether the queries share traversals in groups or are answered alone.
//!
//! This file is its own test binary with a single `#[test]` so the counting global
//! allocator observes only this test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use p2h_balltree::{BallTreeBuilder, BcTreeBuilder};
use p2h_core::{P2hIndex, SearchParams, GROUP_WIDTH};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BatchExecutor, BatchRequest};

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
fn steady_state_batch_execution_is_allocation_free_per_query() {
    let points = SyntheticDataset::new(
        "alloc-test",
        6_000,
        24,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        42,
    )
    .generate()
    .unwrap();
    let ball = BallTreeBuilder::new(64).build(&points).unwrap();
    let bc = BcTreeBuilder::new(64).build(&points).unwrap();
    let base = generate_queries(&points, 64, QueryDistribution::DataDifference, 7).unwrap();
    let queries: Vec<_> = (0..512).map(|i| base[i % base.len()].clone()).collect();
    let n = queries.len() as u64;
    let k = 10;
    // Exact queries share traversals in groups of `GROUP_WIDTH`; budgeted ones are
    // answered alone. Both paths must hold the same budget.
    let grouped = BatchRequest::new(queries.clone(), SearchParams::exact(k));
    let alone = BatchRequest::new(queries, SearchParams::approximate(k, 1_500));

    let indexes: [(&dyn P2hIndex, &str); 2] = [(&ball, "Ball-Tree"), (&bc, "BC-Tree")];
    for (index, label) in indexes {
        for (request, path) in [(&grouped, "grouped"), (&alone, "alone")] {
            for threads in [1, 2] {
                // Warm-up run: any lazy allocations inside the standard library happen
                // here (each run builds its workers' scratch afresh).
                let executor = BatchExecutor::new(threads);
                let warmup = executor.execute(index, request);
                assert_eq!(warmup.results.len(), n as usize);

                // Measured run: the per-query path must allocate only each query's
                // result vector. `take_sorted` allocates exactly one k-element Vec per
                // query; everything else (collector heaps, traversal stacks, distance
                // strips, the group's result buffer) lives in the per-worker scratch.
                // The batch itself allocates a constant number of aggregate buffers
                // (slots, results, latencies, histogram, one scratch and one thread per
                // worker) independent of the query count.
                let before = allocations();
                let response = executor.execute(index, request);
                let during = allocations() - before;
                assert_eq!(response.results.len(), n as usize);
                assert!(response.results.iter().all(|r| r.neighbors.len() == k));

                // The exact batch really went through the shared traversal: the members
                // of a group report one wall time.
                let shared = response.results[..GROUP_WIDTH]
                    .iter()
                    .all(|r| r.stats.time_total_ns == response.results[0].stats.time_total_ns);
                assert_eq!(shared, path == "grouped", "{label}, {path}, {threads} threads");

                let per_batch_overhead = 64;
                assert!(
                    during <= n + per_batch_overhead,
                    "{label}, {path}, {threads} threads: expected ≤ 1 allocation per query \
                     (the result vector) plus constant batch overhead, observed {during} \
                     allocations for {n} queries"
                );
                // Sanity: the counter is actually wired up (the result vectors alone are
                // n allocs).
                assert!(during >= n, "counting allocator should observe the {n} result vectors");
            }
        }
    }
}
