//! Property test: random insert/delete/query/compact interleavings against a
//! fresh-rebuild [`p2h_core::LinearScan`] oracle, under the dispatched (SIMD where
//! available) kernel backend. `oracle_scalar.rs` runs the same checker with the
//! scalar backend forced — separate binary because the override is process-global.
//! One fixed interleaving adds what random ones of at most 40 ops never reach: a
//! compacted base under a memtable that grows across several 64-row strips.

mod common;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn layered_serving_matches_fresh_rebuild(ops in common::ops_strategy()) {
        common::check_interleaving("simd", &ops)?;
    }
}

/// Queries before, during and after memtable growth over a compacted base, then after
/// the compaction that folds the memtable in. Each query's hyperplane passes through
/// one row, chosen on both sides of the memtable's strip boundaries, so a row the strip
/// scan drops or misplaces is some query's top-1.
#[test]
fn layered_serving_matches_fresh_rebuild_through_memtable_growth() {
    let row = |i: u32| -> Vec<f32> {
        (0..common::RAW_DIM)
            .map(|d| (i as f32 * 0.618_034 + d as f32 * 0.377).fract() * 2.0 - 1.0)
            .collect()
    };
    let inserts = |rows: std::ops::Range<u32>| -> Vec<common::OpTuple> {
        rows.map(|i| (0, 0, row(i), 0.0)).collect()
    };
    // The hyperplane with normal `(1, 0.5, -0.25)` through row `i`, asked with k = 3.
    let through = |rows: &[u32]| -> Vec<common::OpTuple> {
        let normal = vec![1.0, 0.5, -0.25];
        rows.iter()
            .map(|&i| {
                let bias = -row(i).iter().zip(&normal).map(|(x, w)| x * w).sum::<f32>();
                (5, 2, normal.clone(), bias)
            })
            .collect()
    };
    let compact = vec![(9, 0, vec![0.0; common::RAW_DIM], 0.0)];
    // Rows 0..150 become the base; the memtable then holds rows 150.., one 64-row
    // strip per 64 of them.
    let ops: Vec<common::OpTuple> = [
        inserts(0..150),
        compact.clone(),
        through(&[0, 75, 149]),
        inserts(150..220),
        through(&[150, 213, 214, 219]),
        inserts(220..350),
        through(&[150, 213, 214, 277, 278, 341, 342, 349]),
        compact,
        through(&[0, 149, 213, 278, 349]),
    ]
    .concat();
    common::check_interleaving("memtable-growth", &ops).unwrap();
}
