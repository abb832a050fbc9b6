//! Portable scalar kernels: the reference implementations every SIMD backend must match.
//!
//! All kernels share one accumulation scheme — a 4-way unrolled main loop (four
//! independent partial sums over a stride-4 interleaving of the input) followed by a
//! sequential tail — so the compiler can vectorize and pipeline them even without
//! explicit SIMD, and so [`dot_block`] produces *bit-identical* per-row results to
//! [`dot`]: the blocked kernel keeps the same four partial sums per row and the same
//! tail, it merely interleaves the columns of several rows to amortize query loads.

use super::pop_row;
use crate::{Scalar, LEAF_STRIP};

/// Number of independent partial sums in the unrolled main loops.
const UNROLL: usize = 4;

/// Sequential tail of an inner product: `Σ_{j ≥ from} a[j]·b[j]`, accumulated strictly
/// left to right. Shared by the scalar and SIMD backends so every `dot`-family kernel
/// handles the non-multiple-of-lane-count remainder identically.
#[inline(always)]
pub(crate) fn tail_dot(a: &[Scalar], b: &[Scalar], from: usize) -> Scalar {
    let mut tail = 0.0;
    for j in from..a.len() {
        tail += a[j] * b[j];
    }
    tail
}

/// Sequential tail of a squared Euclidean distance: `Σ_{j ≥ from} (a[j] − b[j])²`,
/// accumulated strictly left to right. Shared across backends like [`tail_dot`].
#[inline(always)]
pub(crate) fn tail_euclidean_sq(a: &[Scalar], b: &[Scalar], from: usize) -> Scalar {
    let mut tail = 0.0;
    for j in from..a.len() {
        let diff = a[j] - b[j];
        tail += diff * diff;
    }
    tail
}

/// Inner product `⟨a, b⟩` with 4-way unrolled accumulation.
#[inline]
pub fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let main = a.len() - a.len() % UNROLL;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut j = 0;
    while j < main {
        s0 += a[j] * b[j];
        s1 += a[j + 1] * b[j + 1];
        s2 += a[j + 2] * b[j + 2];
        s3 += a[j + 3] * b[j + 3];
        j += UNROLL;
    }
    s0 + s1 + s2 + s3 + tail_dot(a, b, main)
}

/// Squared Euclidean norm `‖a‖²`, via the same accumulation scheme as [`dot`].
#[inline]
pub fn norm_sq(a: &[Scalar]) -> Scalar {
    dot(a, a)
}

/// Squared Euclidean distance `‖a − b‖²` with the same 4-way unrolled accumulation as
/// [`dot`] (the seed implementation was a naive fold; routing it through the unrolled
/// scheme lets the compiler vectorize it identically).
#[inline]
pub fn euclidean_sq(a: &[Scalar], b: &[Scalar]) -> Scalar {
    debug_assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    let main = a.len() - a.len() % UNROLL;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut j = 0;
    while j < main {
        let d0 = a[j] - b[j];
        let d1 = a[j + 1] - b[j + 1];
        let d2 = a[j + 2] - b[j + 2];
        let d3 = a[j + 3] - b[j + 3];
        s0 += d0 * d0;
        s1 += d1 * d1;
        s2 += d2 * d2;
        s3 += d3 * d3;
        j += UNROLL;
    }
    s0 + s1 + s2 + s3 + tail_euclidean_sq(a, b, main)
}

/// Number of rows processed together by the blocked kernels' fast path.
pub(crate) const BLOCK_ROWS: usize = 4;

/// Blocked inner products: one query against `out.len()` contiguous row-major rows.
///
/// `rows` must hold exactly `dim · out.len()` scalars; `out[r]` receives
/// `⟨query, rows[r·dim .. (r+1)·dim]⟩`, bit-identical to calling [`dot`] on that row.
///
/// Rows are processed [`BLOCK_ROWS`] at a time with column interleaving: each query
/// chunk is read once and fed to every row's partial sums, which amortizes the query
/// traffic and gives the optimizer `4 × BLOCK_ROWS` independent dependency chains.
pub fn dot_block(query: &[Scalar], rows: &[Scalar], dim: usize, out: &mut [Scalar]) {
    debug_assert_eq!(query.len(), dim, "dot_block: query/dim mismatch");
    debug_assert_eq!(rows.len(), dim * out.len(), "dot_block: rows/out mismatch");
    let main = dim - dim % UNROLL;
    let mut r = 0;
    while r + BLOCK_ROWS <= out.len() {
        let base = r * dim;
        let r0 = &rows[base..base + dim];
        let r1 = &rows[base + dim..base + 2 * dim];
        let r2 = &rows[base + 2 * dim..base + 3 * dim];
        let r3 = &rows[base + 3 * dim..base + 4 * dim];
        // acc[row][lane]: same four partial sums per row as in `dot`.
        let mut acc = [[0.0 as Scalar; UNROLL]; BLOCK_ROWS];
        let mut j = 0;
        while j < main {
            let q0 = query[j];
            let q1 = query[j + 1];
            let q2 = query[j + 2];
            let q3 = query[j + 3];
            acc[0][0] += r0[j] * q0;
            acc[0][1] += r0[j + 1] * q1;
            acc[0][2] += r0[j + 2] * q2;
            acc[0][3] += r0[j + 3] * q3;
            acc[1][0] += r1[j] * q0;
            acc[1][1] += r1[j + 1] * q1;
            acc[1][2] += r1[j + 2] * q2;
            acc[1][3] += r1[j + 3] * q3;
            acc[2][0] += r2[j] * q0;
            acc[2][1] += r2[j + 1] * q1;
            acc[2][2] += r2[j + 2] * q2;
            acc[2][3] += r2[j + 3] * q3;
            acc[3][0] += r3[j] * q0;
            acc[3][1] += r3[j + 1] * q1;
            acc[3][2] += r3[j + 2] * q2;
            acc[3][3] += r3[j + 3] * q3;
            j += UNROLL;
        }
        for (row, slice) in [r0, r1, r2, r3].into_iter().enumerate() {
            out[r + row] = acc[row][0]
                + acc[row][1]
                + acc[row][2]
                + acc[row][3]
                + tail_dot(query, slice, main);
        }
        r += BLOCK_ROWS;
    }
    // Remainder rows: the single-row kernel has the same summation order by design.
    while r < out.len() {
        out[r] = dot(query, &rows[r * dim..(r + 1) * dim]);
        r += 1;
    }
}

/// The selected rows of a strip against a few queries, one `dot` per pair:
/// `out[i][r] = |dot(queries[i], row r)|` for every set bit `r` of `mask`. This is the
/// whole scalar tile kernel (with [`dot`]) and the portable shape a SIMD backend without
/// a register-blocked tile falls back to (with its own single-row kernel), bit-identical
/// to that kernel by construction.
pub(crate) fn abs_dot_tile_by(
    dot: impl Fn(&[Scalar], &[Scalar]) -> Scalar,
    queries: &[&[Scalar]],
    rows: &[Scalar],
    dim: usize,
    mask: u64,
    out: &mut [[Scalar; LEAF_STRIP]],
) {
    for (query, out) in queries.iter().zip(out) {
        let mut bits = mask;
        while bits != 0 {
            let r = pop_row(&mut bits);
            out[r] = dot(query, &rows[r * dim..(r + 1) * dim]).abs();
        }
    }
}

/// Bit `i` of the result is set iff `values[i] > threshold` (false for a NaN on either
/// side): the definition every backend's `mask_gt` must reproduce.
pub fn mask_gt(values: &[Scalar], threshold: Scalar) -> u64 {
    debug_assert!(values.len() <= u64::BITS as usize, "mask_gt: more than 64 values");
    values.iter().enumerate().fold(0, |mask, (i, &value)| mask | u64::from(value > threshold) << i)
}

/// The reflected IEEE 802.3 CRC-32 polynomial (`zlib`, `png`).
const CRC_POLY: u32 = 0xEDB8_8320;
/// Bytes [`crc32_update`] consumes per step, one table each.
const CRC_SLICES: usize = 16;

/// `CRC_TABLES[k][b]` is the register after byte `b` and then `k` zero bytes, so one
/// step XORs sixteen independent look-ups; `CRC_TABLES[0]` is the byte-at-a-time table.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
};

/// Advances the raw CRC register (no initial or final inversion) over `data`,
/// slice-by-16 with a byte-at-a-time tail: the portable arm of
/// [`super::crc32_update`], which the folding arm also uses for what it leaves over.
#[inline]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut steps = data.chunks_exact(CRC_SLICES);
    for step in &mut steps {
        let head = state ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        state = 0;
        for (k, &byte) in head.to_le_bytes().iter().chain(&step[4..]).enumerate() {
            state ^= CRC_TABLES[CRC_SLICES - 1 - k][byte as usize];
        }
    }
    for &byte in steps.remainder() {
        state = CRC_TABLES[0][((state ^ byte as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE) of `data` by slice-by-16: the portable arm, and the definition the
/// folding arm must reproduce.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(u32::MAX, data)
}
