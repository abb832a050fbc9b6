//! Property tests for the kernel layer: every dispatched (possibly SIMD) kernel must
//! match the scalar reference within `1e-3` relative tolerance, across dimensions that
//! exercise every lane-count tail (scalar unroll 4, NEON stride 8, AVX2 stride 16 plus
//! the single extra 8-lane chunk), and the blocked and tile kernels must be bit-identical
//! per (query, row) pair to their single-vector counterparts. CI runs this file under
//! hardware dispatch and under `P2H_FORCE_SCALAR=1`, so every property holds on both
//! dispatch arms. The checksum kernel is the exception to "within tolerance": every arm
//! of `kernels::crc32` must equal the byte-at-a-time reference in every bit.

mod common;

use common::bytewise_crc32;
use p2h_core::kernels::{self, scalar};
use p2h_core::{Scalar, GROUP_WIDTH, LEAF_STRIP};
use proptest::prelude::*;

/// Relative-tolerance check: SIMD reassociation and FMA contraction may move the last
/// few ulps, bounded well below 1e-3 relative for inputs of this magnitude.
fn close(fast: Scalar, reference: Scalar) -> bool {
    (fast - reference).abs() <= 1e-3 * (1.0 + reference.abs())
}

/// A dimension strategy that hits every tail class: 1..=36 covers all residues mod 16
/// (and mod 8 / mod 4) with and without the extra 8-lane chunk; the larger sizes add
/// multi-iteration main loops with every residue.
fn dims() -> impl Strategy<Value = usize> {
    (0usize..48).prop_map(|i| if i < 36 { i + 1 } else { 16 * (i - 35) + (i % 9) })
}

/// The masks a traversal produces: every row, scattered survivors, a ball-cut prefix, a
/// lone survivor, nothing — cut to a strip of `rows` rows.
fn tile_mask(shape: usize, bits: u64, rows: usize) -> u64 {
    let held = if rows == LEAF_STRIP { u64::MAX } else { (1 << rows) - 1 };
    held & match shape {
        0 => u64::MAX,
        1 => bits,
        2 => bits & bits.rotate_left(17) & bits.rotate_left(41),
        3 => (1 << (bits % rows as u64)) - 1,
        4 => 1 << (bits % rows as u64),
        _ => 0,
    }
}

/// Deterministic bytes for the checksum tests.
fn crc_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

#[test]
fn checksum_known_answers_hold_for_every_arm_and_the_reference() {
    for crc in [kernels::crc32, scalar::crc32, bytewise_crc32] {
        // The standard CRC-32 check value.
        assert_eq!(crc(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc(b""), 0);
        assert_eq!(crc(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }
}

/// Every length through several 64-byte folding steps and every 16-byte lane remainder,
/// the sizes around a power of two, a frame-sized and a section-sized input — each at
/// every start alignment within a lane.
#[test]
fn checksum_arms_equal_the_bytewise_reference_at_every_length_and_alignment() {
    const MIB: usize = 1 << 20;
    let data = crc_bytes(MIB + 16, 7);
    for len in (0..=700).chain([1023, 1024, 1025, 4096, MIB]) {
        for offset in 0..=16 {
            let bytes = &data[offset..offset + len];
            let want = bytewise_crc32(bytes);
            assert_eq!(kernels::crc32(bytes), want, "dispatched, offset {offset}, len {len}");
            assert_eq!(scalar::crc32(bytes), want, "portable, offset {offset}, len {len}");
        }
    }
}

proptest! {
    #[test]
    fn checksum_arms_equal_the_bytewise_reference_on_random_bytes(
        seed in 0u64..u64::MAX,
        len in 0usize..5000,
        offset in 0usize..17,
    ) {
        let data = crc_bytes(offset + len, seed);
        let bytes = &data[offset..];
        let want = bytewise_crc32(bytes);
        prop_assert_eq!(kernels::crc32(bytes), want);
        prop_assert_eq!(scalar::crc32(bytes), want);
    }

    #[test]
    fn tile_is_bit_identical_to_single_abs_dot(
        dim in dims(),
        width in 1usize..GROUP_WIDTH + 1,
        rows in 1usize..LEAF_STRIP + 1,
        shape in 0usize..6,
        bits in 0u64..u64::MAX,
        seed in -3.0f32..3.0,
    ) {
        // Short strips (the last strip of a leaf) as often as full ones.
        let rows = if bits & 1 == 0 { LEAF_STRIP } else { rows };
        let mask = tile_mask(shape, bits, rows);
        let queries: Vec<Vec<Scalar>> = (0..width)
            .map(|m| (0..dim).map(|j| seed + ((j + 31 * m) as Scalar * 0.61).sin() * 2.0).collect())
            .collect();
        let queries: Vec<&[Scalar]> = queries.iter().map(Vec::as_slice).collect();
        // The traversal hands over the rest of the leaf: rows past the strip, never read.
        let held = rows + (bits >> 7) as usize % 40;
        let data: Vec<Scalar> =
            (0..dim * held).map(|j| (j as Scalar * 0.17).cos() * 2.0 - seed).collect();
        let untouched = Scalar::from_bits(0x7fc0_1234);
        let mut tile = vec![[untouched; LEAF_STRIP]; width];
        kernels::abs_dot_tile(&queries, &data, dim, mask, &mut tile);
        for (m, query) in queries.iter().enumerate() {
            for r in 0..LEAF_STRIP {
                let expected = if mask >> r & 1 == 1 {
                    kernels::abs_dot(&data[r * dim..(r + 1) * dim], query)
                } else {
                    untouched
                };
                prop_assert!(tile[m][r].to_bits() == expected.to_bits(),
                    "dim {}, width {}, rows {}, mask {:#x}: member {} row {}: {} vs {}",
                    dim, width, rows, mask, m, r, tile[m][r], expected);
            }
        }
    }

    #[test]
    fn mask_gt_matches_the_scalar_definition(
        len in 0usize..65,
        threshold_pick in 0usize..6,
        seed in -2.0f32..2.0,
        special in 0u64..u64::MAX,
    ) {
        let specials = [Scalar::INFINITY, Scalar::NEG_INFINITY, Scalar::NAN, 0.0, -0.0, seed];
        let values: Vec<Scalar> = (0..len)
            .map(|i| match (special >> (i % 60)) & 7 {
                // Specials, and plenty of values exactly equal to the threshold.
                0 => specials[i % specials.len()],
                1 | 2 => seed,
                _ => seed + (i as Scalar * 0.83).sin(),
            })
            .collect();
        let threshold = specials[threshold_pick];
        let mut expected = 0u64;
        for (i, &value) in values.iter().enumerate() {
            expected |= u64::from(value > threshold) << i;
        }
        prop_assert_eq!(kernels::mask_gt(&values, threshold), expected);
        prop_assert_eq!(scalar::mask_gt(&values, threshold), expected);
    }

    #[test]
    fn dispatched_dot_matches_scalar_reference(
        dim in dims(),
        seed in -5.0f32..5.0,
    ) {
        let a: Vec<Scalar> = (0..dim).map(|j| seed + (j as Scalar * 0.37).sin() * 3.0).collect();
        let b: Vec<Scalar> = (0..dim).map(|j| (j as Scalar * 0.73).cos() * 2.0 - seed).collect();
        prop_assert!(close(kernels::dot(&a, &b), scalar::dot(&a, &b)),
            "dim {}: {} vs {}", dim, kernels::dot(&a, &b), scalar::dot(&a, &b));
    }

    #[test]
    fn dispatched_norm_sq_matches_scalar_reference(dim in dims(), seed in -5.0f32..5.0) {
        let a: Vec<Scalar> = (0..dim).map(|j| seed + (j as Scalar * 0.59).sin() * 2.0).collect();
        prop_assert!(close(kernels::norm_sq(&a), scalar::norm_sq(&a)));
    }

    #[test]
    fn dispatched_euclidean_sq_matches_scalar_reference(dim in dims(), seed in -5.0f32..5.0) {
        let a: Vec<Scalar> = (0..dim).map(|j| seed + (j as Scalar * 0.41).sin() * 2.0).collect();
        let b: Vec<Scalar> = (0..dim).map(|j| (j as Scalar * 0.29).cos() * 3.0).collect();
        prop_assert!(close(kernels::euclidean_sq(&a, &b), scalar::euclidean_sq(&a, &b)));
    }

    #[test]
    fn blocked_dot_is_bit_identical_to_single_dot(
        dim in dims(),
        rows in 1usize..11,
        seed in -3.0f32..3.0,
    ) {
        let query: Vec<Scalar> =
            (0..dim).map(|j| seed + (j as Scalar * 0.61).sin() * 2.0).collect();
        let data: Vec<Scalar> =
            (0..dim * rows).map(|j| (j as Scalar * 0.17).cos() * 2.0 - seed).collect();
        let mut blocked = vec![0.0 as Scalar; rows];
        kernels::dot_block(&query, &data, dim, &mut blocked);
        for r in 0..rows {
            let single = kernels::dot(&query, &data[r * dim..(r + 1) * dim]);
            prop_assert!(blocked[r].to_bits() == single.to_bits(),
                "dim {}, row {}: {} vs {}", dim, r, blocked[r], single);
        }
    }

    #[test]
    fn blocked_abs_dot_matches_scalar_reference_within_tolerance(
        dim in dims(),
        rows in 1usize..11,
        seed in -3.0f32..3.0,
    ) {
        let query: Vec<Scalar> =
            (0..dim).map(|j| seed + (j as Scalar * 0.53).sin() * 2.0).collect();
        let data: Vec<Scalar> =
            (0..dim * rows).map(|j| (j as Scalar * 0.19).cos() * 2.0 + seed * 0.1).collect();
        let mut blocked = vec![0.0 as Scalar; rows];
        kernels::abs_dot_block(&query, &data, dim, &mut blocked);
        for r in 0..rows {
            let reference = scalar::dot(&query, &data[r * dim..(r + 1) * dim]).abs();
            prop_assert!(close(blocked[r], reference),
                "dim {}, row {}: {} vs {}", dim, r, blocked[r], reference);
        }
    }

    #[test]
    fn scalar_blocked_dot_is_bit_identical_to_scalar_dot(
        dim in dims(),
        rows in 1usize..9,
        seed in -3.0f32..3.0,
    ) {
        let query: Vec<Scalar> =
            (0..dim).map(|j| seed + (j as Scalar * 0.31).sin() * 2.0).collect();
        let data: Vec<Scalar> =
            (0..dim * rows).map(|j| (j as Scalar * 0.23).cos() * 2.0).collect();
        let mut blocked = vec![0.0 as Scalar; rows];
        scalar::dot_block(&query, &data, dim, &mut blocked);
        for r in 0..rows {
            let single = scalar::dot(&query, &data[r * dim..(r + 1) * dim]);
            prop_assert_eq!(blocked[r].to_bits(), single.to_bits());
        }
    }
}
