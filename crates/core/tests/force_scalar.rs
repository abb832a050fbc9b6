//! Tests for the process-global `force_scalar` dispatch override.
//!
//! This file is its own test binary with a single `#[test]`: toggling the override
//! while other tests run concurrently in the same process would flip the backend
//! between a test's blocked call and its single-row reference call and break their
//! bitwise comparisons. (The unit tests in `kernels::tests` deliberately avoid the
//! toggle for the same reason.)

mod common;

use common::bytewise_crc32;
use p2h_core::kernels::{self, scalar};
use p2h_core::{KernelBackend, Scalar, LEAF_STRIP};

/// The tile kernel and `mask_gt` under whichever backend is active: bit-identical to
/// that backend's `abs_dot`, and to the strict `>` definition.
fn check_tile_and_mask(query: &[Scalar], data: &[Scalar], dim: usize) {
    let rows = data.len() / dim;
    let queries = [query, &data[..dim], query];
    let mask = 0b1011;
    let mut tile = [[-1.0 as Scalar; LEAF_STRIP]; 3];
    kernels::abs_dot_tile(&queries, data, dim, mask, &mut tile);
    for (m, q) in queries.iter().enumerate() {
        for r in 0..rows {
            let expected = if mask >> r & 1 == 1 {
                kernels::abs_dot(&data[r * dim..(r + 1) * dim], q)
            } else {
                -1.0
            };
            assert_eq!(tile[m][r].to_bits(), expected.to_bits(), "member {m}, row {r}");
        }
    }
    assert_eq!(
        kernels::mask_gt(&tile[0][..rows], tile[0][1]),
        scalar::mask_gt(&tile[0][..rows], tile[0][1])
    );
}

/// The checksum under whichever arm the dispatcher takes: the same 32 bits as the portable
/// arm and the bytewise reference, below and above the folding arm's 64-byte minimum.
fn checksums(data: &[Scalar]) -> [u32; 5] {
    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    [0, 40, 64, 150, bytes.len()].map(|len| {
        let crc = kernels::crc32(&bytes[..len]);
        assert_eq!(crc, scalar::crc32(&bytes[..len]), "portable arm, {len} bytes");
        assert_eq!(crc, bytewise_crc32(&bytes[..len]), "bytewise reference, {len} bytes");
        // Chained over a short piece and a long one, as a streamed section is.
        let (head, tail) = bytes[..len].split_at(len.min(24));
        let chained = kernels::crc32_update(kernels::crc32_update(!0, head), tail);
        assert_eq!(!chained, crc, "chained update, {len} bytes");
        crc
    })
}

#[test]
fn force_scalar_switches_the_active_backend_and_back() {
    let dim = 40;
    let rows = 4;
    let query: Vec<Scalar> = (0..dim).map(|j| (j as Scalar * 0.37).sin() * 2.0).collect();
    let data: Vec<Scalar> = (0..dim * rows).map(|j| (j as Scalar * 0.13).cos() * 3.0).collect();
    let mut out = vec![0.0 as Scalar; rows];

    kernels::force_scalar(true);
    assert_eq!(kernels::active_backend(), KernelBackend::Scalar);
    kernels::dot_block(&query, &data, dim, &mut out);
    for r in 0..rows {
        assert_eq!(
            out[r].to_bits(),
            scalar::dot(&query, &data[r * dim..(r + 1) * dim]).to_bits(),
            "forced-scalar dispatch must route through the scalar kernels"
        );
    }
    check_tile_and_mask(&query, &data, dim);
    let forced_checksums = checksums(&data);

    // Un-forcing restores hardware dispatch (and overrides any P2H_FORCE_SCALAR env
    // setting, which is why this asserts against detected_backend, not a constant).
    kernels::force_scalar(false);
    assert_eq!(kernels::active_backend(), kernels::detected_backend());
    kernels::dot_block(&query, &data, dim, &mut out);
    for r in 0..rows {
        let single = kernels::dot(&query, &data[r * dim..(r + 1) * dim]);
        assert_eq!(out[r].to_bits(), single.to_bits());
    }
    check_tile_and_mask(&query, &data, dim);
    // A checksum has one right answer: what the forced path wrote, the hardware path reads.
    assert_eq!(checksums(&data), forced_checksums);
}
