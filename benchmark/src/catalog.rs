//! The benchmark's catalogue: the named workloads and the named metrics with their
//! units, directions and regression bounds. `BENCHMARK.json` at the repository root
//! states the same catalogue for outside tooling; a unit test keeps the two in step.

/// Which synthetic data set a workload serves (recipes in `sut.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// 128-d, 16 wide Gaussian clusters: the tree cannot prune, leaf scans dominate.
    Wide128,
    /// 64-d, intrinsic rank 2: pruning works, bounds dominate.
    Tight64,
    /// 32-d clustered base plus a stream of arrivals for the live tier.
    Pool32,
}

/// The client call one operation of a workload makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    EngineServe,
    FrontWave,
    RouterRoute,
    LiveRound,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    pub entry: Entry,
    /// Hyperplane queries per operation.
    pub batch: usize,
    /// Closed-loop client threads (one connection each).
    pub clients: usize,
    /// Candidate budget; `None` = exact search.
    pub candidate_limit: Option<usize>,
}

/// Queries in one pipelined wave to the front server, and their candidate budget.
pub const FRONT_WAVE: usize = 16;
pub const FRONT_BUDGET: usize = 2_000;
/// Queries in one routed batch.
pub const ROUTER_BATCH: usize = 8;
/// Queries in one live round.
pub const LIVE_QUERIES: usize = 4;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "scan-bound",
        why: "BC-Tree on 128-d clustered data verifies ~90% of points: time is core kernels and memory bandwidth, so kernel changes show here and bounds or transport changes must not",
        data: Data::Wide128,
        entry: Entry::EngineServe,
        batch: 8,
        clients: 1,
        candidate_limit: None,
    },
    Workload {
        name: "prune-bound",
        why: "same engine call on rank-2 64-d data where point-level ball and cone bounds prune most points: time is bctree bounds and traversal, a pure kernel change moves it little",
        data: Data::Tight64,
        entry: Entry::EngineServe,
        batch: 8,
        clients: 1,
        candidate_limit: None,
    },
    Workload {
        name: "front-small",
        why: "pipelined waves of 16 budgeted queries over 2 connections to the front server: engine work is small, so queueing, wire codec and socket time dominate; the only recall<1 workload",
        data: Data::Tight64,
        entry: Entry::FrontWave,
        batch: FRONT_WAVE,
        clients: 2,
        candidate_limit: Some(FRONT_BUDGET),
    },
    Workload {
        name: "router-fanout",
        why: "exact batches of 8 routed over TCP to 2 shard servers and merged: exercises net pool, RPC and merge plus shard fan-out, and the slowest shard sets each batch's time",
        data: Data::Tight64,
        entry: Entry::RouterRoute,
        batch: ROUTER_BATCH,
        clients: 1,
        candidate_limit: None,
    },
    Workload {
        name: "live-rounds",
        why: "active-learning rounds on the live tier (4 exact queries, delete their top-1s, insert 8 arrivals, real fdatasync, background compaction): writes beside reads on shared layers",
        data: Data::Pool32,
        entry: Entry::LiveRound,
        batch: LIVE_QUERIES,
        clients: 1,
        candidate_limit: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Sizes that scale between the full benchmark and `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Points in the served index.
    pub n: usize,
    /// Rows streamed into the live tier after the base (cycled if a run outlasts them).
    pub arrivals: usize,
    /// Memtable rows that trigger a background compaction.
    pub compact_at: usize,
}

/// The live tier's sizes keep a time-boxed pass steady: a round retires up to four points
/// and admits [`ARRIVALS_PER_ROUND`], so the index grows by about a tenth over a pass
/// (at 64 arrivals a round it nearly tripled and the rounds slowed to half their speed
/// while being timed), and a compaction falls due about every 100 rounds, so that every
/// half-second slice of the window overlaps one.
pub const FULL: Scale = Scale { n: 100_000, arrivals: 32_000, compact_at: 800 };
pub const SMOKE: Scale = Scale { n: 10_000, arrivals: 3_200, compact_at: 80 };

/// Hyperplanes in every query pool, cycled.
pub const POOL: usize = 256;
/// Neighbours asked for.
pub const K: usize = 10;
/// Tree leaf size (the paper's N0).
pub const LEAF_SIZE: usize = 100;
/// Engine executor workers; the host the bounds were sized on has two cores.
pub const ENGINE_THREADS: usize = 2;
/// Rows a live round inserts.
pub const ARRIVALS_PER_ROUND: usize = 8;
/// Times the system's set-up (build, save, cold start, warm-up) is repeated in one
/// untraced run; `setup_s` reports the median so one slow repetition does not move it.
pub const SETUP_REPEATS: usize = 3;
/// Cold starts whose median is `cold_start_s`.
pub const COLD_STARTS: usize = 7;
/// Clock-paused correctness checkpoints in a live run.
pub const LIVE_CHECKPOINTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen between two sets
    /// of runs on different seeds: what `BENCHMARK.json` states.
    pub bound: f64,
    /// For a metric that repeats exactly for a seed: the amount, in its own unit, by
    /// which `compare` (which only compares equal seeds) lets it worsen instead.
    pub same_seed_bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, same_seed_bound: None }
}

/// The shares are sized from ten-seed sweeps on the sizing host, a shared 2-core VM
/// (quartile distance ÷ median; the README has the table). The throughput and the
/// latencies spread 4–14 % in a quiet hour and 11–17 % beside a simulated neighbour, and
/// the host changes speed by up to 30 % for longer than a run lasts, so they take the
/// widest share the outside driver allows; `setup_s` gets the widest by rule.
pub const END_TO_END: [EndToEnd; 9] = [
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    end_to_end("cold_start_s", "s", Better::Lower, 0.2),
    end_to_end("qps", "1/s", Better::Higher, 0.25),
    end_to_end("lat_p50_us", "us", Better::Lower, 0.25),
    end_to_end("lat_p95_us", "us", Better::Lower, 0.25),
    EndToEnd {
        same_seed_bound: Some(0.0),
        ..end_to_end("ok_share", "ratio", Better::Higher, 0.001)
    },
    // Recall moves ±8 % with the seed on `front-small`, and not at all for one seed.
    EndToEnd {
        same_seed_bound: Some(0.001),
        ..end_to_end("recall_at_10", "ratio", Better::Higher, 0.25)
    },
    end_to_end("peak_rss_mb", "MiB", Better::Lower, 0.2),
    end_to_end("store_amp", "ratio", Better::Lower, 0.01),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// `layer.name`; the layers are the program's crates. A traced pass measures the layers
/// in its workload's chain, from the workload's own set-up, traffic and replay; a layer
/// outside the chain reads 0.
pub const PER_LAYER: [PerLayer; 61] = [
    layer("data.generate_s", "s", Lower),
    layer("data.oracle_s", "s", Lower),
    layer("core.kernel_ns_per_row", "ns", Lower),
    layer("core.kernel_gbps", "GB/s", Higher),
    layer("core.scan_us_per_query", "us", Lower),
    layer("core.inner_products_per_query", "count", Lower),
    layer("bctree.build_s", "s", Lower),
    layer("bctree.bytes_per_point", "B", Lower),
    layer("bctree.search_us_per_query", "us", Lower),
    layer("bctree.bounds_share", "ratio", Lower),
    layer("bctree.verify_share", "ratio", Lower),
    layer("bctree.verified_frac", "ratio", Lower),
    layer("bctree.nodes_per_query", "count", Lower),
    layer("bctree.pruned_subtrees_per_query", "count", Higher),
    layer("bctree.pruned_ball_per_query", "count", Higher),
    layer("bctree.pruned_cone_per_query", "count", Higher),
    layer("balltree.build_s", "s", Lower),
    layer("balltree.search_us_per_query", "us", Lower),
    layer("balltree.verified_frac", "ratio", Lower),
    layer("engine.serve_us_per_batch", "us", Lower),
    layer("engine.executor_us_per_batch", "us", Lower),
    layer("engine.overhead_us_per_batch", "us", Lower),
    layer("engine.parallel_efficiency", "ratio", Higher),
    layer("engine.allocs_per_query", "count", Lower),
    layer("engine.serve_front_us_per_batch", "us", Lower),
    layer("store.save_s", "s", Lower),
    layer("store.load_mmap_s", "s", Lower),
    layer("store.load_copy_s", "s", Lower),
    layer("store.crc_share", "ratio", Lower),
    layer("store.bytes_per_point", "B", Lower),
    layer("store.wal_bytes_per_row", "B", Lower),
    layer("store.fsyncs_per_round", "count", Lower),
    layer("live.query_us_per_round", "us", Lower),
    layer("live.delete_us_per_round", "us", Lower),
    layer("live.insert_us_per_round", "us", Lower),
    layer("live.memtable_rows_mean", "count", Lower),
    layer("live.compactions", "count", Lower),
    layer("live.compaction_wall_s_mean", "s", Lower),
    layer("live.stall_rounds", "count", Lower),
    layer("shard.build_s", "s", Lower),
    layer("shard.imbalance", "ratio", Lower),
    layer("shard.local_fanout_us_per_batch", "us", Lower),
    layer("shard.merge_share", "ratio", Lower),
    layer("net.route_us_per_batch", "us", Lower),
    layer("net.overhead_us_per_batch", "us", Lower),
    layer("net.encode_us_per_query", "us", Lower),
    layer("net.decode_us_per_query", "us", Lower),
    layer("net.bytes_per_query", "B", Lower),
    layer("net.retries", "count", Lower),
    layer("front.wave_us", "us", Lower),
    layer("front.overhead_us_per_query", "us", Lower),
    layer("front.codec_us_per_query", "us", Lower),
    layer("front.queue_wait_us_mean", "us", Lower),
    layer("front.batch_size_mean", "count", Higher),
    layer("front.batches_per_request", "ratio", Lower),
    layer("front.shed", "count", Lower),
    layer("obs.render_us", "us", Lower),
    layer("obs.series", "count", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.unaccounted_us", "us", Lower),
    layer("bench.host_spin_ns", "ns", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|item| item.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the outside driver reads; the tables above are what the
    /// binary reports. They must name the same things.
    #[test]
    fn benchmark_json_states_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");

        assert_eq!(file.get("run_seconds").unwrap().as_f64().unwrap(), crate::DEFAULT_SECONDS);

        let workloads = file.get("workloads").unwrap();
        assert_eq!(names(workloads), WORKLOADS.map(|w| w.name.to_string()));
        for (stated, ours) in workloads.as_arr().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(stated.get("why").unwrap().as_str().unwrap(), ours.why);
            assert!(ours.why.len() <= 200, "{}: why is capped at 200 characters", ours.name);
        }

        let end_to_end = file.get("end_to_end").unwrap();
        assert_eq!(names(end_to_end), END_TO_END.map(|m| m.name.to_string()));
        for (stated, ours) in end_to_end.as_arr().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(stated.get("unit").unwrap().as_str().unwrap(), ours.unit);
            assert_eq!(stated.get("better").unwrap().as_str().unwrap(), ours.better.as_str());
            assert_eq!(stated.get("bound").unwrap().as_f64().unwrap(), ours.bound);
        }

        let per_layer = file.get("per_layer").unwrap();
        assert_eq!(names(per_layer), PER_LAYER.map(|m| m.name.to_string()));
        for (stated, ours) in per_layer.as_arr().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(stated.get("unit").unwrap().as_str().unwrap(), ours.unit);
            assert_eq!(stated.get("better").unwrap().as_str().unwrap(), ours.better.as_str());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used once");
        for name in all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
