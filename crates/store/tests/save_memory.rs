//! A save streams from the index's own arrays: it must not raise the heap by more than a
//! fixed buffer's worth, however large the index. A peak-tracking global allocator
//! measures the rise of each save path above the heap level just before the call:
//! `Store::save`, `Store::save_shard_group`, the two staging calls a compaction makes
//! (`save_live_snapshot`, `save_live_ids`), and `LiveIndex::compact` as a whole.
//!
//! A save that encoded its payload into a buffer first would rise by at least the
//! points once (and by twice that, if the sections were then joined into a file
//! image); the bound here is 1 MiB against 10.4 MB of points.
//!
//! This file is its own test binary with a single `#[test]`, so the allocator observes
//! only this test's traffic.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::TestDir;
use p2h_balltree::{BcTree, BcTreeBuilder};
use p2h_core::{P2hIndex, PointSet, Scalar, VecBuf};
use p2h_data::{DataDistribution, SyntheticDataset};
use p2h_live::LiveIndex;
use p2h_store::{LiveIdsSnapshot, LoadedIndex, ShardGroupMeta, Snapshot, Store};

struct PeakAllocator;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one is released: `realloc` may copy.
        grew(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Runs `f` and returns its result with how far the heap's peak rose above its level at
/// the call.
fn peak_rise<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

const MIB: usize = 1 << 20;
const N: usize = 40_000;
const RAW_DIM: usize = 64;

fn bytes_of<T>(values: &[T]) -> usize {
    std::mem::size_of_val(values)
}

fn build(points: &PointSet) -> BcTree {
    BcTreeBuilder::new(64).with_seed(3).build(points).unwrap()
}

fn assert_rise_below(label: &str, rise: usize, bound: usize, points_bytes: usize) {
    eprintln!("{label}: the heap rose {rise} B (bound {bound} B)");
    assert!(
        rise < bound,
        "{label}: the heap rose {rise} B (bound {bound} B; the points are {points_bytes} B)"
    );
}

#[test]
fn saves_stream_without_a_payload_sized_buffer() {
    let spec = SyntheticDataset::new(
        "save-memory",
        N,
        RAW_DIM,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        17,
    );
    let raw = spec.generate_raw();
    let points = PointSet::augment_flat(RAW_DIM, &raw).unwrap();
    assert_eq!((points.len(), points.dim()), (N, RAW_DIM + 1));
    let points_bytes = bytes_of(points.as_flat());
    let tree = build(&points);
    let dir = TestDir::new("save-memory");
    let store = Store::create(&dir).unwrap();
    // Warm-up: whatever the first save initialises lazily (metrics, fault rules) is
    // not the save's own cost.
    store
        .save("warm-up", &build(&PointSet::augment_flat(RAW_DIM, &raw[..64 * RAW_DIM]).unwrap()))
        .unwrap();

    // One snapshot.
    let (saved, rise) = peak_rise(|| store.save("tree", &tree));
    saved.unwrap();
    assert_rise_below("Store::save", rise, MIB, points_bytes);
    let loaded: BcTree = store.load("tree").unwrap();
    assert_eq!(loaded.encode_snapshot(), tree.encode_snapshot());

    // A shard group of two halves.
    let half = N / 2 * RAW_DIM;
    let shards = [&raw[..half], &raw[half..]]
        .map(|rows| LoadedIndex::BcTree(build(&PointSet::augment_flat(RAW_DIM, rows).unwrap())));
    let id_maps: Vec<VecBuf<u32>> = vec![
        (0..N as u32 / 2).collect::<Vec<_>>().into(),
        (N as u32 / 2..N as u32).collect::<Vec<_>>().into(),
    ];
    let meta = ShardGroupMeta {
        partitioner_tag: 0,
        requested_shards: 2,
        total_count: N,
        dim: RAW_DIM + 1,
        build_seed: 3,
    };
    let (saved, rise) = peak_rise(|| store.save_shard_group("group", &meta, &id_maps, &shards));
    saved.unwrap();
    assert_rise_below("Store::save_shard_group", rise, MIB, points_bytes);
    let group = store.load_shard_group("group").unwrap();
    assert_eq!(group.id_maps, id_maps);
    for (loaded, saved) in group.shards.iter().zip(&shards) {
        let (LoadedIndex::BcTree(loaded), LoadedIndex::BcTree(saved)) = (loaded, saved) else {
            panic!("a shard came back as another kind");
        };
        assert_eq!(loaded.encode_snapshot(), saved.encode_snapshot());
    }
    drop(shards);

    // The two files a compaction stages, straight through the store.
    let ids = LiveIdsSnapshot {
        epoch: 1,
        dim: RAW_DIM + 1,
        next_id: N as u32,
        ids: (0..N as u32).collect::<Vec<_>>().into(),
    };
    let (saved, rise) = peak_rise(|| {
        store.save_live_snapshot("staged.l1.base.p2hs", &tree)?;
        store.save_live_ids("staged.l1.ids.p2hs", &ids)
    });
    saved.unwrap();
    assert_rise_below("save_live_snapshot + save_live_ids", rise, MIB, points_bytes);
    drop(tree);

    // A whole compaction. Its build holds the frozen survivors and the new tree at
    // once, which no save can change; the bound allows exactly those two on top of the
    // 1 MiB, so what the save adds must fit in the 1 MiB.
    let live = LiveIndex::create(&store, "live", RAW_DIM + 1).unwrap();
    let rows: Vec<Vec<Scalar>> = raw.chunks_exact(RAW_DIM).map(<[Scalar]>::to_vec).collect();
    for batch in rows.chunks(5_000) {
        live.insert_batch(batch).unwrap();
    }
    drop(rows);
    let (report, rise) = peak_rise(|| live.compact());
    assert_eq!(report.unwrap().survivors, N);
    let files = store.live_entry("live").unwrap();
    let base = store.load_live_base(files.base_file.as_deref().unwrap()).unwrap();
    let LoadedIndex::BallTree(base) = base else { panic!("the live base is a Ball-Tree") };
    assert_eq!(base.len(), N);
    let frozen = points_bytes + N * 4;
    let new_tree = bytes_of(base.points().as_flat())
        + bytes_of(base.original_ids())
        + bytes_of(base.nodes())
        + bytes_of(base.centers());
    assert_rise_below("LiveIndex::compact", rise, frozen + new_tree + MIB, points_bytes);
}
