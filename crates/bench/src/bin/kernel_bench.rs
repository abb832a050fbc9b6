//! Microbenchmark of the dense kernels: scalar vs dispatched-SIMD vs blocked, across
//! the dimensions of the paper's data sets and representative leaf sizes.
//!
//! Prints a Markdown table of ns/point for four ways of computing the `|⟨x, q⟩|`
//! distances of a leaf-sized strip of points:
//!
//! * `scalar/pt`   — one `kernels::scalar::dot` call per point (the pre-kernel-layer
//!   baseline: per-point scalar verification),
//! * `simd/pt`     — one dispatched `kernels::abs_dot` call per point,
//! * `scalar-blk`  — `kernels::scalar::dot_block` over the whole strip (forced-scalar
//!   dispatch, showing the gain from amortized query reload alone),
//! * `simd-blk`    — dispatched `kernels::abs_dot_block` over the whole strip (the
//!   kernel behind every blocked leaf scan).
//!
//! A second table times what the tree traversals call per leaf strip, in ns per
//! (row · query): `kernels::abs_dot_tile` over a run of 64-row strips for groups of 1, 4
//! and 8 queries — every row selected, and every other row (the scattered survivors of
//! point-level pruning) — beside the strip-major `abs_dot_block` calls it replaced, and
//! `kernels::mask_gt` in ns per value. With `--stream-mb N` the same table is printed once
//! more over `N` MB of rows per pass: pick `N` beyond the last-level cache and the rows
//! come from DRAM, which is where the tile kernel's row prefetch earns its keep.
//!
//! A last table times the checksum, in GB/s: `kernels::crc32` as dispatched (PCLMULQDQ
//! folding where the AVX2 backend runs, else the portable arm) beside the portable
//! slice-by-16 arm and the byte-at-a-time loop both replaced, from a 64-byte frame to a
//! 64 MiB section (from memory unless the last-level cache is that large; a load's pass
//! is slower still, because it takes the page faults of a fresh mapping).
//!
//! Usage: `kernel_bench [--rows N] [--iters N] [--stream-mb N]` — `--rows` is the strip
//! (leaf) size, default 100 (the paper's reference `N0`); `--iters` scales the
//! measurement loop. Results are recorded in `EXPERIMENTS.md`.

use std::hint::black_box;
use std::time::Instant;

use p2h_core::kernels;
use p2h_core::{GroupCoeffs, Scalar, GROUP_WIDTH, LEAF_STRIP};

/// The bytewise CRC-32 the kernel tests compare every arm with; timed here as the baseline.
#[path = "../../../core/tests/common/mod.rs"]
mod reference;

/// Deterministic pseudo-random data; no RNG dependency needed for a microbench.
fn filled(len: usize, seed: u64) -> Vec<Scalar> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as Scalar / (1 << 24) as Scalar) * 2.0 - 1.0
        })
        .collect()
}

/// Best-of-three measurement of `body`, in ns per point.
fn measure(rows: usize, iters: usize, mut body: impl FnMut() -> Scalar) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..iters {
            sink += body();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        black_box(sink);
        best = best.min(elapsed / (iters as f64 * rows as f64));
    }
    best
}

fn main() {
    let mut rows = 100usize;
    let mut iters = 2_000usize;
    let mut stream_mb = 0usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                i += 1;
                rows = args[i].parse().expect("--rows expects an integer");
            }
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters expects an integer");
            }
            "--stream-mb" => {
                i += 1;
                stream_mb = args[i].parse().expect("--stream-mb expects an integer");
            }
            other => panic!(
                "unknown flag `{other}` (usage: kernel_bench [--rows N] [--iters N] [--stream-mb N])"
            ),
        }
        i += 1;
    }

    println!("detected backend: {}", kernels::detected_backend().label());
    println!("active backend:   {}", kernels::active_backend().label());
    println!("strip rows: {rows}\n");
    println!(
        "| dim | scalar/pt (ns) | simd/pt (ns) | scalar-blk (ns) | simd-blk (ns) | blk vs scalar/pt |"
    );
    println!("|---|---|---|---|---|---|");

    for dim in [16usize, 64, 128, 256, 960] {
        let query = filled(dim, 1);
        let data = filled(dim * rows, dim as u64);
        let mut out = vec![0.0 as Scalar; rows];
        // Scale iterations down for the big dims so every row costs similar wall time.
        let iters = (iters * 128 / dim.max(16)).max(50);

        let scalar_pt = measure(rows, iters, || {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += kernels::scalar::dot(black_box(&query), &data[r * dim..(r + 1) * dim]).abs();
            }
            acc
        });

        let simd_pt = measure(rows, iters, || {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += kernels::abs_dot(black_box(&query), &data[r * dim..(r + 1) * dim]);
            }
            acc
        });

        let scalar_blk = measure(rows, iters, || {
            kernels::scalar::dot_block(black_box(&query), &data, dim, &mut out);
            out[rows / 2]
        });

        let simd_blk = measure(rows, iters, || {
            kernels::abs_dot_block(black_box(&query), &data, dim, &mut out);
            out[rows / 2]
        });

        println!(
            "| {dim} | {scalar_pt:.2} | {simd_pt:.2} | {scalar_blk:.2} | {simd_blk:.2} | {:.1}x |",
            scalar_pt / simd_blk
        );
    }

    println!(
        "\nblk vs scalar/pt = per-point scalar abs_dot time over blocked dispatched time:\n\
         the speedup a blocked leaf scan gets over the seed's per-point scalar loop."
    );

    tile_table((iters / 64).max(5), |_| TILE_STRIPS);
    if stream_mb > 0 {
        println!("\n{stream_mb} MB of rows per pass:");
        let strip_bytes = |dim| dim * LEAF_STRIP * std::mem::size_of::<Scalar>();
        tile_table(1, |dim| (stream_mb << 20) / strip_bytes(dim));
    }

    let values = filled(LEAF_STRIP, 99);
    let per_value = measure(LEAF_STRIP, iters * 50, || {
        kernels::mask_gt(black_box(&values), black_box(0.25)).count_ones() as Scalar
    });
    println!("\nmask_gt over {LEAF_STRIP} values: {per_value:.3} ns/value");

    crc_table(iters);
}

/// GB/s of the three CRC-32 implementations over inputs of five sizes. Each measurement
/// covers at least `iters` × 32 KiB (64 MiB at the default) and is the best of three, so
/// every input a cache can hold is read from it.
fn crc_table(iters: usize) {
    println!("\n| crc32 input | bytewise (GB/s) | portable (GB/s) | dispatched (GB/s) |");
    println!("|---|---|---|---|");
    let bytes: Vec<u8> = filled(16 << 20, 5).iter().flat_map(|v| v.to_le_bytes()).collect();
    for (label, len) in
        [("64 B", 64), ("600 B", 600), ("4 KiB", 4 << 10), ("1 MiB", 1 << 20), ("64 MiB", 64 << 20)]
    {
        let input = &bytes[..len];
        let passes = ((iters << 15) / len).max(1);
        let gbps =
            |crc: fn(&[u8]) -> u32| 1.0 / measure(len, passes, || crc(black_box(input)) as Scalar);
        let (bytewise, portable, dispatched) =
            (gbps(reference::bytewise_crc32), gbps(kernels::scalar::crc32), gbps(kernels::crc32));
        println!("| {label} | {bytewise:.2} | {portable:.2} | {dispatched:.2} |");
    }
}

/// Strips streamed per pass of the tile table: with 129-d rows ~2 MB, so the rows come
/// from L2/L3 as they do in a traversal, not from L1.
const TILE_STRIPS: usize = 64;

/// ns per (row · query) of the leaf-tile kernel against the strip-major blocked calls,
/// over `strips_for(dim)` strips per pass.
fn tile_table(iters: usize, strips_for: impl Fn(usize) -> usize) {
    println!("\n| dim | queries | blk/strip (ns) | tile dense (ns) | tile half (ns) |");
    println!("|---|---|---|---|---|");
    let every_other = 0x5555_5555_5555_5555u64;
    for dim in [65usize, 129] {
        let tile_strips = strips_for(dim);
        let data = filled(dim * LEAF_STRIP * tile_strips, dim as u64);
        let strips = || data.chunks_exact(dim * LEAF_STRIP);
        let group: Vec<Vec<Scalar>> = (0..GROUP_WIDTH).map(|m| filled(dim, m as u64 + 1)).collect();
        let mut tile = [[0.0 as Scalar; LEAF_STRIP]; GROUP_WIDTH];
        for width in [1usize, 4, 8] {
            // As the traversal hands them over: cache-line-aligned copies.
            let mut staged = GroupCoeffs::default();
            staged.stage(dim, group[..width].iter().map(Vec::as_slice));
            let queries: Vec<&[Scalar]> = (0..width).map(|m| staged.member(m)).collect();
            let pairs = LEAF_STRIP * tile_strips * width;
            let blocked = measure(pairs, iters, || {
                let mut acc = 0.0;
                for rows in strips() {
                    for (query, out) in queries.iter().zip(&mut tile) {
                        kernels::abs_dot_block(black_box(query), rows, dim, out);
                        acc += out[7];
                    }
                }
                acc
            });
            let mut tiled = |mask: u64| {
                measure(pairs * mask.count_ones() as usize / LEAF_STRIP, iters, || {
                    let mut acc = 0.0;
                    for strip in 0..tile_strips {
                        // As the traversal hands them over: the rest of the leaf too
                        // (here one more strip), for the kernel to prefetch from.
                        let from = strip * dim * LEAF_STRIP;
                        let rows = &data[from..data.len().min(from + 2 * dim * LEAF_STRIP)];
                        let out = &mut tile[..width];
                        kernels::abs_dot_tile(black_box(&queries), rows, dim, mask, out);
                        acc += out[width - 1][6];
                    }
                    acc
                })
            };
            let (dense, half) = (tiled(u64::MAX), tiled(every_other));
            println!("| {dim} | {width} | {blocked:.2} | {dense:.2} | {half:.2} |");
        }
    }
}
