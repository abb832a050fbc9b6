//! Allocation discipline of the sharded fan-out path: executing a large batch against
//! a `ShardedIndex` through the scratch-reusing batch executor must allocate, per
//! query, only the per-shard top-k lists and the merged result vector — `shards + 1`
//! small vectors — with everything else (collector heap, traversal stack, strips)
//! living in the per-worker `QueryScratch`. The shard server's grouped frame
//! (`search_shard_group`) is held to the same discipline: one neighbor list per query
//! and a handful of vectors per frame.
//!
//! This file is its own test binary with a single `#[test]` so the counting global
//! allocator observes only this test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use p2h_core::{QueryScratch, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BatchExecutor, BatchRequest, Partitioner, ShardIndexKind, ShardedIndexBuilder};

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
fn steady_state_sharded_execution_allocates_only_result_lists() {
    const SHARDS: u64 = 4;
    let points = SyntheticDataset::new(
        "sharded-alloc-test",
        6_000,
        24,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        42,
    )
    .generate()
    .unwrap();
    let sharded = ShardedIndexBuilder::new(
        Partitioner::Hash { shards: SHARDS as usize },
        ShardIndexKind::BallTree { leaf_size: 64 },
    )
    .build(&points)
    .unwrap();
    let base = generate_queries(&points, 64, QueryDistribution::DataDifference, 7).unwrap();
    let queries: Vec<_> = (0..512).map(|i| base[i % base.len()].clone()).collect();
    let n = queries.len() as u64;
    let k = 10;
    let request = BatchRequest::new(queries, SearchParams::exact(k));

    // Warm-up run: first-touch growth of collector heaps and traversal stacks.
    let executor = BatchExecutor::new(1);
    let warmup = executor.execute(&sharded, &request);
    assert_eq!(warmup.results.len(), n as usize);

    // Measured run. Per query: one k-element list per shard (`take_sorted` inside the
    // shard search), one shard-list spine, and the flattened merge vector — a fixed
    // `SHARDS + 2` budget, zero dependence on data size or query count beyond that.
    let before = allocations();
    let response = executor.execute(&sharded, &request);
    let during = allocations() - before;
    assert_eq!(response.results.len(), n as usize);
    assert!(response.results.iter().all(|r| r.neighbors.len() == k));

    let per_query_budget = SHARDS + 2;
    let per_batch_overhead = 64;
    assert!(
        during <= n * per_query_budget + per_batch_overhead,
        "expected ≤ {per_query_budget} allocations per query (per-shard lists + merge) \
         plus constant batch overhead, observed {during} allocations for {n} queries"
    );
    // Sanity: the counter is wired up (at minimum every query allocated its lists).
    assert!(during >= n, "counting allocator should observe the result vectors");

    // One shard answering frames of eight exact queries as a group, as a shard server
    // does: each query's neighbor list, plus per frame the sliced parameters, the run
    // buffer and the answer vector — nothing per row, per strip or per group member.
    const FRAME: usize = 8;
    let params = SearchParams::exact(k);
    let frame_params = [&params; FRAME];
    let mut scratch = QueryScratch::new();
    let mut serve_frames = || {
        for frame in request.queries.chunks(FRAME) {
            let answers = sharded.search_shard_group(0, frame, &frame_params, &mut scratch);
            assert!(answers.iter().all(|a| a.as_ref().is_some_and(|r| r.neighbors.len() == k)));
        }
    };
    serve_frames(); // warm-up: group collectors, group stack, staged coefficients
    let before = allocations();
    serve_frames();
    let during = allocations() - before;
    let per_frame_budget = 4;
    let frames = n / FRAME as u64;
    assert!(
        during <= n + frames * per_frame_budget,
        "expected ≤ 1 allocation per query plus {per_frame_budget} per frame, observed \
         {during} allocations for {n} queries in {frames} frames"
    );
}
