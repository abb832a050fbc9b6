//! Crash-safety: `kill -9` the `live-writer` helper mid-WAL-append and
//! mid-compaction, reopen the store, and verify that **no acknowledged write is
//! lost** and the recovered index answers **bit-identically** to a fresh rebuild
//! over the recovered live points. The helper prints `ACK I/D <id>` only after the
//! operation's WAL fsync returned, so every acknowledged line this harness observed
//! must survive the kill.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, Scalar, SearchParams};
use p2h_live::LiveIndex;
use p2h_store::Store;

#[path = "../../store/tests/common/mod.rs"]
mod test_dir;

use test_dir::TestDir;

const RAW_DIM: usize = 3;

/// Mirror of `live-writer::raw_point` — keep the two identical.
fn raw_point(id: u32, raw_dim: usize) -> Vec<Scalar> {
    (0..raw_dim)
        .map(|j| {
            let mut x = (u64::from(id) << 32) | j as u64;
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            (x >> 40) as Scalar / (1u64 << 23) as Scalar - 1.0
        })
        .collect()
}

struct Writer {
    child: Child,
    lines: BufReader<ChildStdout>,
}

impl Writer {
    fn spawn(dir: &Path, mode: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_live-writer"))
            .arg(dir)
            .arg("s")
            .arg(RAW_DIM.to_string())
            .args(mode)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn live-writer");
        let lines = BufReader::new(child.stdout.take().expect("stdout piped"));
        Writer { child, lines }
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.lines.read_line(&mut line).expect("read line");
        line.trim().to_string()
    }

    fn expect_ready(&mut self) -> u32 {
        let line = self.read_line();
        let next_id = line.strip_prefix("READY ").unwrap_or_else(|| panic!("not READY: {line}"));
        next_id.parse().expect("READY id")
    }

    /// SIGKILL — no destructors, no flush, exactly the crash under test.
    fn kill(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("wait");
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[derive(Default)]
struct Acks {
    inserts: Vec<u32>,
    deletes: Vec<u32>,
}

impl Acks {
    fn record(&mut self, line: &str) {
        if let Some(id) = line.strip_prefix("ACK I ") {
            self.inserts.push(id.parse().expect("insert id"));
        } else if let Some(id) = line.strip_prefix("ACK D ") {
            self.deletes.push(id.parse().expect("delete id"));
        }
    }

    fn merge(&mut self, other: Acks) {
        self.inserts.extend(other.inserts);
        self.deletes.extend(other.deletes);
    }
}

/// Reads acknowledgements until `count` more have been observed (other lines pass
/// through untouched).
fn collect_acks(writer: &mut Writer, count: usize) -> Acks {
    let mut acks = Acks::default();
    while acks.inserts.len() + acks.deletes.len() < count {
        let line = writer.read_line();
        acks.record(&line);
    }
    acks
}

/// Reopens the killed store and checks the full contract: every acknowledged write
/// survived, every recovered point is bit-identical to its generator, and layered
/// serving matches a fresh `LinearScan` rebuild bit-for-bit.
fn verify_recovery(dir: &Path, acks: &Acks) -> u32 {
    let store = Store::open(dir).expect("reopen store after kill");
    let live = LiveIndex::open(&store, "s").expect("recover live index");

    let max_acked = acks.inserts.iter().copied().max().expect("some acked inserts");
    assert!(live.next_id() > max_acked, "acked insert {max_acked} not durable");

    let points: HashMap<u32, Vec<Scalar>> = live.live_points().into_iter().collect();
    for &id in &acks.inserts {
        // Ids ≡ 5 (mod 7) are delete victims: an acknowledged insert may since have
        // been deleted (acknowledged or in flight at the kill). Every other id must
        // still be live.
        if id % 7 == 5 {
            continue;
        }
        assert!(points.contains_key(&id), "acked insert {id} lost");
    }
    for &id in &acks.deletes {
        assert!(!points.contains_key(&id), "acked delete {id} resurrected");
    }
    for (id, point) in &points {
        let mut expected = raw_point(*id, RAW_DIM);
        expected.push(1.0);
        assert_eq!(point, &expected, "recovered point {id} is not bit-identical");
    }

    // Layered serving over the recovered state vs a fresh rebuild, bit for bit.
    let ordered = live.live_points();
    let rows: Vec<Vec<Scalar>> = ordered.iter().map(|(_, p)| p[..RAW_DIM].to_vec()).collect();
    let scan = LinearScan::new(PointSet::augment(&rows).expect("rebuild"));
    for (normal, bias) in
        [([1.0, 0.0, 0.0], 0.0), ([0.3, -0.7, 0.2], 0.4), ([-0.5, 0.5, 1.0], -0.8)]
    {
        let query = HyperplaneQuery::from_normal_and_bias(&normal, bias).expect("query");
        let layered: Vec<(u32, u32)> = live
            .search_exact(&query, 10)
            .expect("layered search")
            .neighbors
            .iter()
            .map(|n| (n.index as u32, n.distance.to_bits()))
            .collect();
        let rebuilt: Vec<(u32, u32)> = scan
            .search(&query, &SearchParams::exact(10))
            .neighbors
            .iter()
            .map(|n| (ordered[n.index].0, n.distance.to_bits()))
            .collect();
        assert_eq!(layered, rebuilt, "layered ≠ rebuild after crash recovery");
    }
    live.next_id()
}

#[test]
fn kill_mid_wal_append_loses_no_acknowledged_write() {
    let dir = TestDir::new("append");
    let mut writer = Writer::spawn(&dir, &["insert-loop"]);
    assert_eq!(writer.expect_ready(), 0);
    // Kill while the writer is mid-stream: SIGKILL lands at an arbitrary point in
    // an append/fsync cycle.
    let acks = collect_acks(&mut writer, 300);
    writer.kill();
    verify_recovery(&dir, &acks);
}

#[test]
fn kill_mid_compaction_loses_no_acknowledged_write() {
    let dir = TestDir::new("compact");
    let mut writer = Writer::spawn(&dir, &["compact-after", "200"]);
    assert_eq!(writer.expect_ready(), 0);
    let mut acks = Acks::default();
    // Drain acks until the compaction starts, then kill immediately: the SIGKILL
    // lands during the freeze/build/commit window (or just after — both must hold).
    loop {
        let line = writer.read_line();
        if line == "COMPACT-START" {
            break;
        }
        acks.record(&line);
    }
    writer.kill();
    let next_id = verify_recovery(&dir, &acks);

    // The recovered store keeps serving writes: restart the writer on the same
    // directory, stream more acknowledged mutations, crash again, recover again.
    let mut writer = Writer::spawn(&dir, &["insert-loop"]);
    assert_eq!(writer.expect_ready(), next_id);
    acks.merge(collect_acks(&mut writer, 100));
    writer.kill();
    verify_recovery(&dir, &acks);
}

#[test]
fn kill_after_compaction_replays_the_new_epoch_segment() {
    let dir = TestDir::new("epoch");
    let mut writer = Writer::spawn(&dir, &["compact-after", "60"]);
    assert_eq!(writer.expect_ready(), 0);
    let mut acks = Acks::default();
    let epoch = loop {
        let line = writer.read_line();
        if let Some(committed) = line.strip_prefix("COMPACT-DONE ") {
            break committed.parse::<u64>().expect("epoch");
        }
        acks.record(&line);
    };
    assert_eq!(epoch, 1);
    // Appends now target the new epoch's segment over the compacted tree base.
    acks.merge(collect_acks(&mut writer, 150));
    writer.kill();
    verify_recovery(&dir, &acks);
}
