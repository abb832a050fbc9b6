//! Dense, row-major storage for the data points of a P2HNNS instance.

use crate::buf::VecBuf;
use crate::distance;
use crate::{Error, Result, Scalar};

/// A dense collection of `n` points in `R^dim`, stored row-major in a single buffer.
///
/// Following Section II of the paper, indexes operate on *augmented* points
/// `x = (p; 1) ∈ R^d` obtained from raw data points `p ∈ R^{d-1}` by appending a
/// constant 1. [`PointSet::augment`] performs that augmentation;
/// [`PointSet::from_rows`] accepts points that are already in the index dimension
/// (useful for tests and synthetic data).
///
/// Points are immutable once the set is created: every index in this workspace stores
/// either a reference to the [`PointSet`] or a reordered copy of its rows. The buffer
/// is a [`VecBuf`], so a point set restored from a memory-mapped snapshot
/// (`p2h-store`, `LoadMode::Mmap`) views the file directly instead of owning a heap
/// copy — [`PointSet::from_buf`] is that zero-copy construction path.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    /// Row-major data: `data[i * dim .. (i + 1) * dim]` is point `i`.
    data: VecBuf<Scalar>,
    /// Number of points.
    len: usize,
    /// Dimensionality of each point (after augmentation, if any).
    dim: usize,
}

impl PointSet {
    /// Creates a point set from a flat row-major buffer of points already in `R^dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDimension`] if `dim < 2`, [`Error::EmptyDataSet`] if the
    /// buffer is empty, and [`Error::DimensionMismatch`] if the buffer length is not a
    /// multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<Scalar>) -> Result<Self> {
        Self::from_buf(dim, data.into())
    }

    /// Creates a point set from an owned-or-mapped row-major buffer — the zero-copy
    /// construction path used when restoring a memory-mapped snapshot.
    ///
    /// # Errors
    ///
    /// Same shape checks as [`PointSet::from_flat`].
    pub fn from_buf(dim: usize, data: VecBuf<Scalar>) -> Result<Self> {
        if dim < 2 {
            return Err(Error::InvalidDimension(dim));
        }
        if data.is_empty() {
            return Err(Error::EmptyDataSet);
        }
        if !data.len().is_multiple_of(dim) {
            return Err(Error::DimensionMismatch { expected: dim, actual: data.len() % dim });
        }
        let len = data.len() / dim;
        Ok(Self { data, len, dim })
    }

    /// Creates a point set from per-point rows already in `R^dim`.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are empty, have inconsistent lengths, or `dim < 2`.
    pub fn from_rows(rows: &[Vec<Scalar>]) -> Result<Self> {
        let first = rows.first().ok_or(Error::EmptyDataSet)?;
        let dim = first.len();
        if dim < 2 {
            return Err(Error::InvalidDimension(dim));
        }
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(Error::DimensionMismatch { expected: dim, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Self { data: data.into(), len: rows.len(), dim })
    }

    /// Creates a point set by appending the constant 1 to every raw data point
    /// (`x = (p; 1)`, Section II of the paper).
    ///
    /// The resulting dimensionality is `raw_dim + 1`.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows are empty or have inconsistent lengths.
    pub fn augment(raw_rows: &[Vec<Scalar>]) -> Result<Self> {
        let first = raw_rows.first().ok_or(Error::EmptyDataSet)?;
        let raw_dim = first.len();
        if raw_dim < 1 {
            return Err(Error::InvalidDimension(raw_dim + 1));
        }
        let dim = raw_dim + 1;
        let mut data = Vec::with_capacity(raw_rows.len() * dim);
        for row in raw_rows {
            if row.len() != raw_dim {
                return Err(Error::DimensionMismatch { expected: raw_dim, actual: row.len() });
            }
            data.extend_from_slice(row);
            data.push(1.0);
        }
        Ok(Self { data: data.into(), len: raw_rows.len(), dim })
    }

    /// Creates a point set by appending the constant 1 to every row of a flat buffer of
    /// raw points in `R^{raw_dim}`.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer is empty or its length is not a multiple of
    /// `raw_dim`.
    pub fn augment_flat(raw_dim: usize, raw: &[Scalar]) -> Result<Self> {
        if raw_dim < 1 {
            return Err(Error::InvalidDimension(raw_dim + 1));
        }
        if raw.is_empty() {
            return Err(Error::EmptyDataSet);
        }
        if !raw.len().is_multiple_of(raw_dim) {
            return Err(Error::DimensionMismatch {
                expected: raw_dim,
                actual: raw.len() % raw_dim,
            });
        }
        let n = raw.len() / raw_dim;
        let dim = raw_dim + 1;
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            data.extend_from_slice(&raw[i * raw_dim..(i + 1) * raw_dim]);
            data.push(1.0);
        }
        Ok(Self { data: data.into(), len: n, dim })
    }

    /// Number of points in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set contains no points. Always `false` for successfully constructed
    /// sets, but provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of each point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns point `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[Scalar] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Returns the underlying row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[Scalar] {
        &self.data
    }

    /// Returns the contiguous row-major slice covering points `start..end`, i.e.
    /// `end - start` rows of `dim` scalars each. This is the input shape of the blocked
    /// kernels ([`crate::kernels::dot_block`]): a leaf's points, verified as one strip.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    #[inline]
    pub fn flat_range(&self, start: usize, end: usize) -> &[Scalar] {
        &self.data[start * self.dim..end * self.dim]
    }

    /// Iterates over all points in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[Scalar]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Computes the centroid (arithmetic mean) of a subset of points given by `indices`.
    ///
    /// Returns the centroid of the whole set when `indices` is empty. When the indices
    /// form a contiguous ascending run `start..end` (always the case for the whole set
    /// and for tree-ordered leaf ranges), the accumulation runs over the contiguous
    /// row-major slice with the blocked scheme of [`PointSet::centroid_of_range`]
    /// instead of one bounds-checked row lookup per point.
    pub fn centroid_of(&self, indices: &[usize]) -> Vec<Scalar> {
        if indices.is_empty() {
            return self.centroid_of_range(0, self.len);
        }
        let contiguous = indices.windows(2).all(|w| w[1] == w[0] + 1);
        if contiguous {
            return self.centroid_of_range(indices[0], indices[0] + indices.len());
        }
        let mut center = vec![0.0; self.dim];
        for &i in indices {
            distance::add_assign(&mut center, self.point(i));
        }
        distance::scale(&mut center, 1.0 / indices.len() as Scalar);
        center
    }

    /// Computes the centroid of the contiguous point range `start..end` with a blocked
    /// accumulation: four rows are combined per accumulator update, so `center` is
    /// loaded and stored once per block instead of once per row and the inner loop
    /// streams one contiguous slice. The per-coordinate sum associates as
    /// `c + (((r0 + r1) + r2) + r3)` per block (rows in index order) — deterministic
    /// for a given range, identical across thread counts and load modes.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or `end > self.len()`.
    pub fn centroid_of_range(&self, start: usize, end: usize) -> Vec<Scalar> {
        assert!(start < end && end <= self.len, "invalid centroid range {start}..{end}");
        let dim = self.dim;
        let mut center = vec![0.0; dim];
        let rows = self.flat_range(start, end);
        let mut blocks = rows.chunks_exact(4 * dim);
        for block in &mut blocks {
            for j in 0..dim {
                center[j] +=
                    ((block[j] + block[dim + j]) + block[2 * dim + j]) + block[3 * dim + j];
            }
        }
        for row in blocks.remainder().chunks_exact(dim) {
            distance::add_assign(&mut center, row);
        }
        distance::scale(&mut center, 1.0 / (end - start) as Scalar);
        center
    }

    /// Computes the centroid of the whole point set.
    pub fn centroid(&self) -> Vec<Scalar> {
        self.centroid_of(&[])
    }

    /// Memory footprint this point set *owns*, in bytes.
    ///
    /// For an owned set (on the heap or in its own pages) this counts the point payload
    /// plus the struct; for a mapped set (restored zero-copy from a snapshot) the
    /// payload bytes belong to the shared region — shared between every index viewing
    /// the file and, via the page cache, between processes — so they are not counted
    /// here.
    pub fn size_bytes(&self) -> usize {
        self.data.heap_bytes() + std::mem::size_of::<Self>()
    }

    /// Whether the point payload views a shared mapped region instead of owning its
    /// elements.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let ps = PointSet::from_rows(&rows).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.dim(), 3);
        assert!(!ps.is_empty());
        assert_eq!(ps.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(ps.point(1), &[4.0, 5.0, 6.0]);
        let collected: Vec<&[Scalar]> = ps.iter().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn from_flat_checks_shape() {
        assert!(matches!(
            PointSet::from_flat(3, vec![1.0, 2.0]),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(PointSet::from_flat(1, vec![1.0]), Err(Error::InvalidDimension(1))));
        assert!(matches!(PointSet::from_flat(2, vec![]), Err(Error::EmptyDataSet)));
        let ps = PointSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn augmentation_appends_one() {
        let raw = vec![vec![0.5, -0.5], vec![2.0, 3.0]];
        let ps = PointSet::augment(&raw).unwrap();
        assert_eq!(ps.dim(), 3);
        assert_eq!(ps.point(0), &[0.5, -0.5, 1.0]);
        assert_eq!(ps.point(1), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn augment_flat_matches_augment() {
        let raw_rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let flat: Vec<Scalar> = raw_rows.iter().flatten().copied().collect();
        let a = PointSet::augment(&raw_rows).unwrap();
        let b = PointSet::augment_flat(2, &flat).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(PointSet::from_rows(&rows), Err(Error::DimensionMismatch { .. })));
        assert!(matches!(PointSet::augment(&rows), Err(Error::DimensionMismatch { .. })));
    }

    #[test]
    fn empty_rejected() {
        let rows: Vec<Vec<Scalar>> = vec![];
        assert!(matches!(PointSet::from_rows(&rows), Err(Error::EmptyDataSet)));
        assert!(matches!(PointSet::augment(&rows), Err(Error::EmptyDataSet)));
        assert!(matches!(PointSet::augment_flat(2, &[]), Err(Error::EmptyDataSet)));
    }

    #[test]
    fn centroid_is_mean() {
        let rows = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let ps = PointSet::from_rows(&rows).unwrap();
        assert_eq!(ps.centroid(), vec![1.0, 2.0]);
        assert_eq!(ps.centroid_of(&[1]), vec![2.0, 4.0]);
    }

    #[test]
    fn size_bytes_counts_data() {
        let ps = PointSet::from_flat(2, vec![0.0; 64]).unwrap();
        assert!(ps.size_bytes() >= 64 * std::mem::size_of::<Scalar>());
        assert!(!ps.is_mapped());
    }

    #[test]
    fn contiguous_centroid_matches_range_path() {
        let rows: Vec<Vec<Scalar>> =
            (0..11).map(|i| vec![i as Scalar, (i * i) as Scalar * 0.25]).collect();
        let ps = PointSet::from_rows(&rows).unwrap();
        // A contiguous index list takes the blocked range path — bitwise the same.
        let indices: Vec<usize> = (2..9).collect();
        assert_eq!(ps.centroid_of(&indices), ps.centroid_of_range(2, 9));
        assert_eq!(ps.centroid(), ps.centroid_of_range(0, 11));
        // The blocked sum is the exact mean within f32 tolerance of the naive loop.
        let mut naive = vec![0.0 as Scalar; 2];
        for &i in &indices {
            distance::add_assign(&mut naive, ps.point(i));
        }
        distance::scale(&mut naive, 1.0 / indices.len() as Scalar);
        for (a, b) in ps.centroid_of(&indices).iter().zip(&naive) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // Scattered indices still take the per-point path.
        assert_eq!(ps.centroid_of(&[3]), ps.point(3).to_vec());
        let scattered = ps.centroid_of(&[0, 4, 10]);
        assert_eq!(scattered.len(), 2);
    }

    #[test]
    fn from_buf_is_from_flat_on_owned_buffers() {
        let a = PointSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = PointSet::from_buf(2, vec![1.0, 2.0, 3.0, 4.0].into()).unwrap();
        assert_eq!(a, b);
    }
}
