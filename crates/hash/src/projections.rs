//! Query-aware sorted random projections (the QALSH / RQALSH machinery of NH and FH).
//!
//! Every table draws one random direction in the transformed space and stores the data
//! projections as a sorted array. At query time the query is projected onto the same
//! directions and candidates are streamed either **nearest-first** (expanding outwards
//! from the query's position in each sorted array — the NNS side used by NH) or
//! **furthest-first** (expanding inwards from the extremes of each array — the FNS side
//! used by FH). Tables are merged by a priority queue on the projection gap, so the
//! stream is globally ordered by how promising each candidate's collision is.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p2h_core::{distance, Scalar};

/// A set of `m` sorted random-projection tables over vectors of a fixed dimensionality.
///
/// The tables are stored struct-of-arrays: one flat buffer of sorted projection values
/// and one flat buffer of the matching point ids, each `m × n` in table-major order
/// (table `t` owns `t·n .. (t+1)·n`).
#[derive(Debug, Clone)]
pub struct ProjectionTables {
    dim: usize,
    /// Number of indexed vectors per table.
    len: usize,
    /// `m · dim` direction components (each direction has unit expected norm).
    directions: Vec<Scalar>,
    /// `m · len` sorted projection values, table-major.
    values: Vec<Scalar>,
    /// `m · len` point ids aligned with `values`.
    ids: Vec<u32>,
}

impl ProjectionTables {
    /// Builds `m` sorted projection tables over `n` transformed vectors produced by
    /// `vector_of(i)` for `i in 0..n`.
    pub fn build<F>(n: usize, dim: usize, m: usize, seed: u64, mut vector_of: F) -> Self
    where
        F: FnMut(usize) -> Vec<Scalar>,
    {
        let m = m.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (dim as Scalar).sqrt();
        let directions: Vec<Scalar> = (0..m * dim)
            .map(|_| (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) * scale)
            .collect();

        let mut tables: Vec<Vec<(Scalar, u32)>> = vec![Vec::with_capacity(n); m];
        for i in 0..n {
            let v = vector_of(i);
            debug_assert_eq!(v.len(), dim);
            for (t, table) in tables.iter_mut().enumerate() {
                let dir = &directions[t * dim..(t + 1) * dim];
                table.push((distance::dot(dir, &v), i as u32));
            }
        }
        let mut values = Vec::with_capacity(m * n);
        let mut ids = Vec::with_capacity(m * n);
        for table in &mut tables {
            table.sort_by(|a, b| a.0.total_cmp(&b.0));
            values.extend(table.iter().map(|&(v, _)| v));
            ids.extend(table.iter().map(|&(_, id)| id));
        }
        Self { dim, len: n, directions, values, ids }
    }

    /// Number of projection tables `m`.
    pub fn table_count(&self) -> usize {
        self.directions.len() / self.dim
    }

    /// Dimensionality of the projected vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tables are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Projects a query vector onto every table direction.
    pub fn project(&self, v: &[Scalar]) -> Vec<Scalar> {
        debug_assert_eq!(v.len(), self.dim);
        (0..self.table_count())
            .map(|t| distance::dot(&self.directions[t * self.dim..(t + 1) * self.dim], v))
            .collect()
    }

    /// Heap memory owned by the tables and directions in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.directions.as_slice())
            + std::mem::size_of_val(self.values.as_slice())
            + std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of::<Self>()
    }

    /// Streams point ids nearest-first (smallest projection gap first), merged across
    /// all tables. Ids may repeat across tables; callers deduplicate.
    pub fn nearest_candidates(&self, query_projections: &[Scalar]) -> CandidateStream<'_> {
        CandidateStream::new(self, query_projections, ProbeOrder::Nearest)
    }

    /// Streams point ids furthest-first (largest projection gap first).
    pub fn furthest_candidates(&self, query_projections: &[Scalar]) -> CandidateStream<'_> {
        CandidateStream::new(self, query_projections, ProbeOrder::Furthest)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOrder {
    Nearest,
    Furthest,
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// Priority: negative gap for nearest-first (so the max-heap pops the smallest gap),
    /// positive gap for furthest-first.
    priority: Scalar,
    table: u32,
    /// 0 = cursor moving left / from the left end, 1 = moving right / from the right end.
    side: u8,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.table == other.table && self.side == other.side
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| self.table.cmp(&other.table))
            .then_with(|| self.side.cmp(&other.side))
    }
}

/// An iterator over point ids in probe order (see [`ProjectionTables::nearest_candidates`]
/// and [`ProjectionTables::furthest_candidates`]).
#[derive(Debug)]
pub struct CandidateStream<'a> {
    /// Flat sorted projection values, table-major.
    values: &'a [Scalar],
    /// Flat point ids aligned with `values`.
    ids: &'a [u32],
    /// Vectors per table.
    n: usize,
    query_projections: Vec<Scalar>,
    order: ProbeOrder,
    /// Per (table, side) cursor: the index of the *next* entry to emit.
    cursors: Vec<[isize; 2]>,
    heap: BinaryHeap<HeapEntry>,
    /// Number of heap pops so far (reported as `buckets_probed`).
    probes: u64,
}

impl<'a> CandidateStream<'a> {
    fn new(tables: &'a ProjectionTables, query_projections: &[Scalar], order: ProbeOrder) -> Self {
        assert_eq!(query_projections.len(), tables.table_count());
        let mut stream = Self {
            values: &tables.values,
            ids: &tables.ids,
            n: tables.len(),
            query_projections: query_projections.to_vec(),
            order,
            cursors: Vec::with_capacity(tables.table_count()),
            heap: BinaryHeap::with_capacity(tables.table_count() * 2),
            probes: 0,
        };
        let n = tables.len() as isize;
        for t in 0..tables.table_count() {
            let cursors = match order {
                ProbeOrder::Nearest => {
                    let qp = stream.query_projections[t];
                    let pos = stream.table_values(t).partition_point(|&v| v < qp) as isize;
                    [pos - 1, pos]
                }
                ProbeOrder::Furthest => [0, n - 1],
            };
            stream.cursors.push(cursors);
            for side in 0..2u8 {
                stream.push_cursor(t as u32, side);
            }
        }
        stream
    }

    #[inline]
    fn table_values(&self, t: usize) -> &'a [Scalar] {
        &self.values[t * self.n..(t + 1) * self.n]
    }

    /// Number of probe steps performed so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    fn push_cursor(&mut self, table: u32, side: u8) {
        let t = table as usize;
        let idx = self.cursors[t][side as usize];
        let values = self.table_values(t);
        if idx < 0 || idx >= values.len() as isize {
            return;
        }
        let gap = (values[idx as usize] - self.query_projections[t]).abs();
        let priority = match self.order {
            ProbeOrder::Nearest => -gap,
            ProbeOrder::Furthest => gap,
        };
        self.heap.push(HeapEntry { priority, table, side });
    }
}

impl Iterator for CandidateStream<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            let entry = self.heap.pop()?;
            let t = entry.table as usize;
            let side = entry.side as usize;
            let idx = self.cursors[t][side];
            // In the furthest order the two cursors sweep toward each other; once they
            // cross, everything between them has already been emitted by the other side,
            // so stale heap entries are skipped.
            if self.order == ProbeOrder::Furthest && self.cursors[t][0] > self.cursors[t][1] {
                continue;
            }
            self.probes += 1;
            let id = self.ids[t * self.n + idx as usize];
            // Advance the cursor: outward for nearest (left decreases, right increases),
            // inward for furthest (left increases, right decreases).
            let delta: isize = match (self.order, side) {
                (ProbeOrder::Nearest, 0) => -1,
                (ProbeOrder::Nearest, _) => 1,
                (ProbeOrder::Furthest, 0) => 1,
                (ProbeOrder::Furthest, _) => -1,
            };
            self.cursors[t][side] = idx + delta;
            self.push_cursor(entry.table, entry.side);
            return Some(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten 1-D vectors with values 0..10; a single table keeps the maths obvious.
    fn line_tables(m: usize) -> ProjectionTables {
        ProjectionTables::build(10, 1, m, 3, |i| vec![i as Scalar])
    }

    #[test]
    fn build_shapes() {
        let tables = line_tables(4);
        assert_eq!(tables.table_count(), 4);
        assert_eq!(tables.len(), 10);
        assert!(!tables.is_empty());
        assert!(tables.size_bytes() > 0);
        assert_eq!(tables.project(&[1.0]).len(), 4);
    }

    #[test]
    fn nearest_stream_visits_close_projections_first() {
        let tables = line_tables(1);
        // Query projecting near the value of point 6.
        let qproj = tables.project(&[6.2]);
        let order: Vec<u32> = tables.nearest_candidates(&qproj).take(4).collect();
        assert!(order.contains(&6), "closest point should be among the first probes: {order:?}");
        // The stream eventually yields every point exactly once per table.
        let all: Vec<u32> = tables.nearest_candidates(&qproj).collect();
        assert_eq!(all.len(), 10);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn furthest_stream_visits_extremes_first() {
        let tables = line_tables(1);
        // A query projecting at the location of point 0 makes the furthest-first order
        // unambiguous: 9, then 8, then 7, ...
        let qproj = tables.project(&[0.0]);
        let first: Vec<u32> = tables.furthest_candidates(&qproj).take(3).collect();
        assert_eq!(first, vec![9, 8, 7], "furthest-first probing must start at the far extreme");
        let all: Vec<u32> = tables.furthest_candidates(&qproj).collect();
        assert_eq!(all.len(), 10, "every point is eventually emitted exactly once");
        let mut sorted = all;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn multi_table_stream_emits_each_id_once_per_table() {
        let tables = line_tables(3);
        let qproj = tables.project(&[2.0]);
        let all: Vec<u32> = tables.nearest_candidates(&qproj).collect();
        assert_eq!(all.len(), 30);
        let far: Vec<u32> = tables.furthest_candidates(&qproj).collect();
        assert_eq!(far.len(), 30);
    }

    #[test]
    fn probe_counter_tracks_pops() {
        let tables = line_tables(2);
        let qproj = tables.project(&[0.0]);
        let mut stream = tables.nearest_candidates(&qproj);
        assert_eq!(stream.probes(), 0);
        let _ = stream.next();
        let _ = stream.next();
        assert_eq!(stream.probes(), 2);
    }

    #[test]
    fn nearest_order_is_monotone_in_gap_single_table() {
        let tables = line_tables(1);
        let qproj = tables.project(&[4.5]);
        let stream = tables.nearest_candidates(&qproj);
        let dir = tables.directions[0];
        let gaps: Vec<Scalar> = stream.map(|id| (dir * id as Scalar - qproj[0]).abs()).collect();
        assert!(
            gaps.windows(2).all(|w| w[0] <= w[1] + 1e-6),
            "nearest-first gaps must be non-decreasing: {gaps:?}"
        );
    }
}
