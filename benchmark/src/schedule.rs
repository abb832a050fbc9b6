//! The seeded operation schedule: which pool queries ride in which operation, in what
//! order. Both sides of a later comparison replay the identical list, and its hash
//! goes into the host fingerprint so two result files are only compared when they
//! did the same work.

/// splitmix64 — the harness's only random source; everything derives from `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed for one named purpose from the run seed.
pub fn derive_seed(seed: u64, purpose: &str) -> u64 {
    let mut state = seed ^ fnv1a(purpose.as_bytes());
    splitmix64(&mut state)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// One cycle of operations: a seeded permutation of the query pool cut into batches
/// of `batch` pool positions. Operation `i` of a run is `ops[i % ops.len()]`, so a
/// run of any length replays the same work in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub ops: Vec<Vec<u32>>,
}

impl Schedule {
    pub fn new(seed: u64, pool: usize, batch: usize) -> Self {
        assert!(batch > 0 && pool >= batch, "a schedule needs at least one full batch");
        let mut order: Vec<u32> = (0..pool as u32).collect();
        let mut state = derive_seed(seed, "schedule");
        for i in (1..order.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Self { ops: order.chunks_exact(batch).map(<[u32]>::to_vec).collect() }
    }

    pub fn op(&self, i: usize) -> &[u32] {
        &self.ops[i % self.ops.len()]
    }

    /// Operations per cycle.
    pub fn cycle(&self) -> usize {
        self.ops.len()
    }

    /// A hash of the op list together with everything else that fixes the work done:
    /// the workload, the data scale and the seed the inputs were generated from.
    pub fn hash(&self, workload: &str, seed: u64, shape: &[u64]) -> String {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(workload.as_bytes());
        bytes.extend_from_slice(&seed.to_le_bytes());
        for value in shape {
            bytes.extend_from_slice(&value.to_le_bytes());
        }
        for op in &self.ops {
            bytes.extend_from_slice(&(op.len() as u32).to_le_bytes());
            for position in op {
                bytes.extend_from_slice(&position.to_le_bytes());
            }
        }
        format!("{:016x}", fnv1a(&bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_op_list_and_hash() {
        let a = Schedule::new(7, 256, 8);
        let b = Schedule::new(7, 256, 8);
        assert_eq!(a, b);
        assert_eq!(
            a.hash("scan-bound", 7, &[100_000, 128]),
            b.hash("scan-bound", 7, &[100_000, 128])
        );
    }

    #[test]
    fn another_seed_workload_or_shape_gives_another_hash() {
        let a = Schedule::new(7, 256, 8);
        let b = Schedule::new(8, 256, 8);
        assert_ne!(a, b);
        let base = a.hash("scan-bound", 7, &[100_000, 128]);
        assert_ne!(base, b.hash("scan-bound", 8, &[100_000, 128]));
        assert_ne!(base, a.hash("prune-bound", 7, &[100_000, 128]));
        assert_ne!(base, a.hash("scan-bound", 7, &[10_000, 128]));
    }

    #[test]
    fn a_cycle_uses_every_pool_query_exactly_once() {
        let schedule = Schedule::new(3, 256, 16);
        assert_eq!(schedule.cycle(), 16);
        assert!(schedule.ops.iter().all(|op| op.len() == 16));
        let mut seen: Vec<u32> = schedule.ops.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..256).collect::<Vec<u32>>());
        assert_eq!(schedule.op(16), schedule.op(0));
    }
}
