//! The system under test. This is the **only** file of the benchmark that names
//! `p2hnns` APIs: a later PR that changes a public signature has to touch this file and
//! nothing else here. Everything is reached the way an outside caller would reach it —
//! public constructors, public serving entry points, and the counters the program
//! already exports.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use p2hnns::core::{kernels, QueryScratch};
use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::front::{FrontClient, FrontConfig, FrontHandle, FrontServer};
use p2hnns::net::{wire, Message, ServerHandle, WireQuery};
use p2hnns::{
    generate_queries, BallTreeBuilder, BatchExecutor, BcTreeBuilder, CompactionPolicy, Compactor,
    DataDistribution, HyperplaneQuery, LinearScan, LiveIndex, LoadMode, Neighbor, P2hIndex,
    Partitioner, PointSet, QueryDistribution, ReplicaSet, Router, RouterConfig, SearchParams,
    SearchResult, SearchStats, ShardIndexKind, ShardServer, ShardedExecutor, ShardedIndex,
    ShardedIndexBuilder, Store, SyntheticDataset,
};

use crate::catalog::{
    Data, Entry, Scale, Workload, ARRIVALS_PER_ROUND, ENGINE_THREADS, FRONT_WAVE, K, LEAF_SIZE,
    POOL, ROUTER_BATCH,
};
use crate::schedule::{derive_seed, Schedule};

/// The name every index is stored and served under.
const INDEX: &str = "main";
/// Rows per kernel call at the kernel level of the replay: the strip the program's own
/// leaf scans use (1 024-row strips measured ~50 % slower per row on the sizing host, so
/// they would not stand for the program's kernel time).
const KERNEL_STRIP: usize = p2hnns::core::LEAF_STRIP;
/// Rows per WAL batch while streaming a live tier's base in.
const SEED_BATCH: usize = 4_096;

/// The label of the distance-kernel backend the process dispatches to.
pub fn kernel_backend() -> &'static str {
    kernels::active_backend().label()
}

/// Every cold start in the benchmark maps snapshots instead of copying them, the way
/// `front-server` and `shard-server` are deployed. The front server resolves its load
/// mode from the environment, so this must run before any thread starts.
pub fn select_mmap_loading() {
    std::env::set_var("P2H_STORE_MMAP", "1");
}

pub const LOAD_MODE: &str = "mmap";

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Everything a workload is driven with, generated from the seed alone.
pub struct Inputs {
    pub workload: &'static Workload,
    pub scale: Scale,
    pub schedule: Schedule,
    pub raw_dim: usize,
    points: PointSet,
    /// Raw rows streamed into the live tier after the base.
    arrivals: Vec<Vec<f32>>,
    queries: Vec<HyperplaneQuery>,
    params: SearchParams,
    /// One request per operation of the schedule's cycle.
    requests: Arc<Vec<BatchRequest>>,
    /// Exact top-k of every pool query by linear scan.
    exact: Vec<Vec<Neighbor>>,
    /// What a budgeted search must return bit-for-bit: a direct in-process search of
    /// the built index under the same parameters (filled by the first build).
    budgeted: OnceLock<Vec<Vec<Neighbor>>>,
}

fn recipe(data: Data) -> (usize, DataDistribution) {
    match data {
        Data::Wide128 => (128, DataDistribution::GaussianClusters { clusters: 16, std_dev: 1.5 }),
        Data::Tight64 => (64, DataDistribution::Correlated { rank: 2, noise: 0.01 }),
        Data::Pool32 => (32, DataDistribution::GaussianClusters { clusters: 16, std_dev: 1.5 }),
    }
}

/// Generates the points, the arrivals and the query pool of `workload` from `seed`.
pub fn generate(workload: &'static Workload, scale: Scale, seed: u64) -> Result<Inputs, String> {
    let (raw_dim, distribution) = recipe(workload.data);
    let arrivals = if workload.entry == Entry::LiveRound { scale.arrivals } else { 0 };
    let raw = SyntheticDataset::new(
        workload.name,
        scale.n + arrivals,
        raw_dim,
        distribution,
        derive_seed(seed, "data"),
    )
    .generate_raw();
    let (base, tail) = raw.split_at(scale.n * raw_dim);
    let points = PointSet::augment_flat(raw_dim, base).map_err(|e| format!("points: {e}"))?;
    let queries = generate_queries(
        &points,
        POOL,
        QueryDistribution::DataDifference,
        derive_seed(seed, "queries"),
    )
    .map_err(|e| format!("queries: {e}"))?;
    let params = match workload.candidate_limit {
        Some(limit) => SearchParams::approximate(K, limit),
        None => SearchParams::exact(K),
    };
    let schedule = Schedule::new(seed, POOL, workload.batch);
    let request = |op: &Vec<u32>| {
        BatchRequest::new(op.iter().map(|&p| queries[p as usize].clone()).collect(), params.clone())
    };
    Ok(Inputs {
        workload,
        scale,
        requests: Arc::new(schedule.ops.iter().map(request).collect()),
        schedule,
        raw_dim,
        points,
        arrivals: tail.chunks_exact(raw_dim).map(<[f32]>::to_vec).collect(),
        queries,
        params,
        exact: Vec::new(),
        budgeted: OnceLock::new(),
    })
}

/// Computes the linear-scan oracle every reply is judged against.
pub fn compute_oracle(inputs: &mut Inputs) {
    let scan = LinearScan::new(inputs.points.clone());
    let exact = SearchParams::exact(K);
    let mut scratch = QueryScratch::new();
    inputs.exact = inputs
        .queries
        .iter()
        .map(|q| scan.search_with_scratch(q, &exact, &mut scratch).neighbors)
        .collect();
}

impl Inputs {
    fn expected(&self) -> &[Vec<Neighbor>] {
        match self.workload.candidate_limit {
            Some(_) => self.budgeted.get().expect("budgeted answers are filled by the build"),
            None => &self.exact,
        }
    }

    fn request(&self, op: usize) -> &BatchRequest {
        &self.requests[op % self.requests.len()]
    }

    /// The raw (unaugmented) rows `from..to` of the points, as the live tier takes them.
    fn raw_rows(&self, from: usize, to: usize) -> Vec<Vec<f32>> {
        (from..to).map(|i| self.points.point(i)[..self.raw_dim].to_vec()).collect()
    }

    /// What fixes the work a run does, for the schedule hash.
    pub fn shape(&self) -> Vec<u64> {
        vec![
            self.scale.n as u64,
            self.scale.arrivals as u64,
            self.scale.compact_at as u64,
            self.raw_dim as u64,
            POOL as u64,
            K as u64,
            LEAF_SIZE as u64,
            self.workload.candidate_limit.map_or(0, |l| l as u64),
        ]
    }
}

// ---------------------------------------------------------------------------
// Judging replies
// ---------------------------------------------------------------------------

/// The outcome of one client call: one slot per query, `None` where the system shed
/// or failed it, plus named sub-spans the call measured inside itself.
pub struct Reply {
    results: Vec<Option<SearchResult>>,
    pub phases: Vec<(&'static str, u64)>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub queries: u64,
    /// Queries missing, shed, or answered differently from the expected answer.
    pub wrong: u64,
    /// Correct answers that hold another point at exactly the distance of the one the
    /// oracle holds (see [`compare_answers`]).
    pub tie_breaks: u64,
    /// Returned neighbours no farther than the oracle's k-th / oracle neighbours
    /// there were (recall@k).
    pub recall_hits: u64,
    pub recall_total: u64,
}

impl Verdict {
    pub fn merge(&mut self, other: Verdict) {
        self.queries += other.queries;
        self.wrong += other.wrong;
        self.tie_breaks += other.tie_breaks;
        self.recall_hits += other.recall_hits;
        self.recall_total += other.recall_total;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Match {
    Identical,
    TieBroken,
    Wrong,
}

/// Compares an answer with the expected one: the f32 distance bits must agree at every
/// rank, and so must the ids — except that where two points lie at *exactly* the same
/// distance either is a correct answer. The trees keep the first such point they meet
/// at the k-th boundary while the linear scan keeps the lower id, so on data whose
/// distances quantise (rank-2 `tight64` does) the two differ about once in 2 500
/// neighbours. `distance_of` recomputes a point's distance from the data, which is
/// what proves the other id is a genuine tie and not a wrong point.
fn compare_answers(
    got: &[Neighbor],
    want: &[Neighbor],
    distance_of: &dyn Fn(usize) -> Option<f32>,
) -> Match {
    if got.len() != want.len() {
        return Match::Wrong;
    }
    let mut outcome = Match::Identical;
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.distance.to_bits() != w.distance.to_bits() {
            return Match::Wrong;
        }
        if got[..rank].iter().any(|earlier| earlier.index == g.index) {
            return Match::Wrong;
        }
        if g.index != w.index {
            let genuine_tie =
                distance_of(g.index).is_some_and(|d| d.to_bits() == w.distance.to_bits());
            if !genuine_tie {
                return Match::Wrong;
            }
            outcome = Match::TieBroken;
        }
    }
    outcome
}

fn judge_one(
    got: Option<&[Neighbor]>,
    want: &[Neighbor],
    exact: &[Neighbor],
    distance_of: &dyn Fn(usize) -> Option<f32>,
) -> Verdict {
    let mut verdict =
        Verdict { queries: 1, recall_total: exact.len() as u64, ..Verdict::default() };
    let Some(got) = got else {
        verdict.wrong = 1;
        return verdict;
    };
    match compare_answers(got, want, distance_of) {
        Match::Identical => {}
        Match::TieBroken => verdict.tie_breaks = 1,
        Match::Wrong => verdict.wrong = 1,
    }
    let kth = exact.last().map_or(f32::NEG_INFINITY, |n| n.distance);
    let hits = got.iter().filter(|g| g.distance <= kth).count().min(exact.len());
    verdict.recall_hits = hits as u64;
    verdict
}

fn judge(inputs: &Inputs, op: usize, reply: &Reply) -> Verdict {
    let positions = inputs.schedule.op(op);
    let mut verdict = Verdict::default();
    if reply.results.len() != positions.len() {
        verdict.queries = positions.len() as u64;
        verdict.wrong = positions.len() as u64;
        return verdict;
    }
    for (result, &position) in reply.results.iter().zip(positions) {
        let query = &inputs.queries[position as usize];
        let distance_of = |id: usize| {
            (id < inputs.points.len()).then(|| query.p2h_distance(inputs.points.point(id)))
        };
        verdict.merge(judge_one(
            result.as_ref().map(|r| r.neighbors.as_slice()),
            &inputs.expected()[position as usize],
            &inputs.exact[position as usize],
            &distance_of,
        ));
    }
    verdict
}

fn all_answered(results: Vec<SearchResult>) -> Reply {
    Reply { results: results.into_iter().map(Some).collect(), phases: Vec::new() }
}

// ---------------------------------------------------------------------------
// Building and saving
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct BuildReport {
    pub build_s: f64,
    pub save_s: f64,
}

fn bc_builder() -> BcTreeBuilder {
    BcTreeBuilder::new(LEAF_SIZE).with_seed(1)
}

fn build_sharded(points: &PointSet) -> Result<ShardedIndex, String> {
    ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 2 },
        ShardIndexKind::BcTree { leaf_size: LEAF_SIZE },
    )
    .with_seed(1)
    .build(points)
    .map_err(|e| format!("sharded build: {e}"))
}

/// Streams `rows` into a fresh live index of `store` and compacts them into its base.
/// The live tier persists as it goes, so this is both its build and its save.
fn seed_live(store: &Store, raw_dim: usize, rows: &[Vec<f32>]) -> Result<(), String> {
    let live = LiveIndex::create(store, INDEX, raw_dim + 1)
        .map_err(|e| format!("create live index: {e}"))?;
    for chunk in rows.chunks(SEED_BATCH) {
        live.insert_batch(chunk).map_err(|e| format!("seed insert: {e}"))?;
    }
    live.compact().map_err(|e| format!("seed compaction: {e}"))?;
    Ok(())
}

fn fresh_store(dir: &Path) -> Result<Store, String> {
    std::fs::remove_dir_all(dir).ok();
    Store::create(dir).map_err(|e| format!("create store: {e}"))
}

/// Builds the workload's index from its points and saves it into a fresh store at
/// `dir` — the offline half of set-up.
pub fn build_and_save(inputs: &Inputs, dir: &Path) -> Result<BuildReport, String> {
    let store = fresh_store(dir)?;
    let mut report = BuildReport::default();
    match inputs.workload.entry {
        Entry::EngineServe | Entry::FrontWave => {
            let start = Instant::now();
            let tree = bc_builder().build(&inputs.points).map_err(|e| format!("build: {e}"))?;
            report.build_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            store.save(INDEX, &tree).map_err(|e| format!("save: {e}"))?;
            report.save_s = start.elapsed().as_secs_f64();
            if inputs.workload.candidate_limit.is_some() {
                inputs.budgeted.get_or_init(|| {
                    let mut scratch = QueryScratch::new();
                    inputs
                        .queries
                        .iter()
                        .map(|q| {
                            tree.search_with_scratch(q, &inputs.params, &mut scratch).neighbors
                        })
                        .collect()
                });
            }
        }
        Entry::RouterRoute => {
            let start = Instant::now();
            let sharded = build_sharded(&inputs.points)?;
            report.build_s = start.elapsed().as_secs_f64();
            let start = Instant::now();
            sharded.save_into(&store, INDEX).map_err(|e| format!("save shard group: {e}"))?;
            report.save_s = start.elapsed().as_secs_f64();
        }
        Entry::LiveRound => {
            let start = Instant::now();
            seed_live(&store, inputs.raw_dim, &inputs.raw_rows(0, inputs.points.len()))?;
            report.build_s = start.elapsed().as_secs_f64();
        }
    }
    Ok(report)
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

pub type Metrics = Vec<(&'static str, f64)>;

/// One replayable layer below the client call: `run(op)` executes operation `op` at
/// that layer's public entry point.
pub struct Level {
    pub name: &'static str,
    /// The span this one nests under (the root span, a phase, or another level).
    pub parent: &'static str,
    /// Threads the real system spreads this level's work over (the replay uses one).
    pub workers: usize,
    pub run: Box<dyn FnMut(usize) + Send>,
}

/// What a traced pass measured around this workload's own calls, handed back to the
/// workload to be named as layer metrics.
pub struct Observed<'a> {
    pub report: BuildReport,
    /// Mean microseconds per operation of every span of the onion replay (work the
    /// replay ran on one thread counts the share one of its workers would carry).
    pub span_us: &'a BTreeMap<&'static str, f64>,
    /// How far each of [`Serving::counters`] moved over the traffic phase.
    pub counted: &'a BTreeMap<&'static str, f64>,
    /// Client calls the traffic phase made, and how many of them took more than three
    /// times their median.
    pub traffic_ops: u64,
    pub stalled_ops: u64,
}

impl Observed<'_> {
    fn span(&self, name: &str) -> f64 {
        self.span_us.get(name).copied().unwrap_or(0.0)
    }

    fn counted(&self, name: &str) -> f64 {
        self.counted.get(name).copied().unwrap_or(0.0)
    }
}

/// A cold-started workload as one closed-loop client sees it.
pub trait Serving: Send {
    /// The name of the client call's span.
    fn root(&self) -> &'static str;
    /// Makes client call number `op` of the schedule. The harness times this.
    fn call(&mut self, op: usize) -> Result<Reply, String>;
    /// Judges a reply (untimed).
    fn check(&mut self, op: usize, reply: &Reply) -> Verdict;
    /// A read-only stand-in for `call` used to warm up and to prove a cold start.
    fn probe(&mut self, op: usize) -> Result<Verdict, String> {
        let reply = self.call(op)?;
        Ok(self.check(op, &reply))
    }
    /// A clock-paused full-state correctness check, for workloads whose replies
    /// cannot be judged against a precomputed oracle.
    fn checkpoint(&mut self) -> Result<Option<Verdict>, String> {
        Ok(None)
    }
    /// A further client of the same server (its own connection), if the workload has
    /// more than one.
    fn another_client(&self) -> Result<Box<dyn Serving>, String> {
        Err("this workload has a single client".into())
    }
    /// The layers below the client call, outermost first.
    fn levels(&mut self) -> Vec<Level>;
    /// Cumulative readings of the counters the program exports for the layers this
    /// workload's traffic passes through.
    fn counters(&mut self) -> Result<Metrics, String> {
        Ok(Vec::new())
    }
    /// Names what a traced pass observed (after [`Serving::levels`] were replayed) as
    /// the metrics of the layers in this workload's chain.
    fn layer_metrics(&mut self, observed: &Observed<'_>) -> Metrics;
    /// Thread and connection counts, for the host fingerprint.
    fn threads(&self) -> Vec<(&'static str, u64)>;
    /// Stops servers and background threads and waits for them.
    fn finish(self: Box<Self>);
}

/// Opens the store at `dir` and starts serving it the way the workload's deployment
/// boots: nothing is rebuilt.
pub fn cold_start(inputs: &Arc<Inputs>, dir: &Path) -> Result<Box<dyn Serving>, String> {
    let inputs = Arc::clone(inputs);
    Ok(match inputs.workload.entry {
        Entry::EngineServe => {
            Box::new(EngineServing { engine: load_engine(dir)?, inputs, searched: None })
        }
        Entry::FrontWave => {
            let server = FrontServer::from_store(dir, front_config())
                .map_err(|e| format!("cold start: {e}"))?;
            let process = Arc::new(FrontProcess::serve(server)?);
            let waves = Arc::new(inputs.requests.iter().map(wave_of).collect());
            Box::new(FrontServing::connect(inputs, process, waves, true)?)
        }
        Entry::RouterRoute => {
            let routed = RoutedShards::start(dir)?;
            let batches = inputs.requests.iter().map(routed_batch_of).collect();
            Box::new(RouterServing {
                inputs,
                routed,
                batches,
                searched: None,
                fanout_ns: Arc::default(),
            })
        }
        Entry::LiveRound => {
            let tier = LiveTier::open(dir, inputs.scale.compact_at)?;
            Box::new(LiveServing { inputs, tier, rounds: 0, memtable_rows: 0, searched: None })
        }
    })
}

fn load_engine(dir: &Path) -> Result<Engine, String> {
    Engine::from_store_with(dir, ENGINE_THREADS, LoadMode::Mmap)
        .map_err(|e| format!("cold start: {e}"))
}

fn shared_index(engine: &Engine) -> Arc<dyn P2hIndex> {
    engine.registry().get(INDEX).expect("the served index is registered")
}

type SearchOne =
    Arc<dyn Fn(&HyperplaneQuery, &SearchParams, &mut QueryScratch) -> SearchStats + Send + Sync>;

/// What searching every pool query alone on one thread did: the work counters (they
/// repeat exactly for a seed) and, the searches having run `with_timing()`, where
/// their time went.
struct PoolSearch {
    /// The span of the level that replays these searches, and the threads the real
    /// system spreads them over.
    span: &'static str,
    workers: usize,
    stats: SearchStats,
}

impl PoolSearch {
    fn per_query(count: u64) -> f64 {
        count as f64 / POOL as f64
    }

    /// `core.*`: the kernel level ran `abs_dot_block` over as many rows as the
    /// searches verified.
    fn core_metrics(&self, inputs: &Inputs, observed: &Observed<'_>, out: &mut Metrics) {
        let rows_per_op =
            Self::per_query(self.stats.candidates_verified) * inputs.workload.batch as f64;
        let one_thread_ns = observed.span("core.kernel") * 1e3 * self.workers as f64;
        let ns_per_row = one_thread_ns / rows_per_op.max(1.0);
        out.push(("core.kernel_ns_per_row", ns_per_row));
        if ns_per_row > 0.0 {
            out.push(("core.kernel_gbps", (inputs.points.dim() * 4) as f64 / ns_per_row));
        }
        out.push(("core.inner_products_per_query", Self::per_query(self.stats.inner_products)));
    }

    /// `bctree.*` from searching the served index directly: the search level's time and
    /// what the bounds pruned.
    fn bctree_metrics(&self, inputs: &Inputs, observed: &Observed<'_>, out: &mut Metrics) {
        let one_thread_us = observed.span(self.span) * self.workers as f64;
        let total_ns = self.stats.time_total_ns.max(1) as f64;
        let n = inputs.points.len() as f64;
        out.extend([
            ("bctree.search_us_per_query", one_thread_us / inputs.workload.batch as f64),
            ("bctree.bounds_share", self.stats.time_bounds_ns as f64 / total_ns),
            ("bctree.verify_share", self.stats.time_verify_ns as f64 / total_ns),
            ("bctree.verified_frac", Self::per_query(self.stats.candidates_verified) / n),
            ("bctree.nodes_per_query", Self::per_query(self.stats.nodes_visited)),
            ("bctree.pruned_subtrees_per_query", Self::per_query(self.stats.pruned_subtrees)),
            ("bctree.pruned_ball_per_query", Self::per_query(self.stats.pruned_by_ball_bound)),
            ("bctree.pruned_cone_per_query", Self::per_query(self.stats.pruned_by_cone_bound)),
        ]);
    }
}

/// The two innermost levels every workload shares: each query of the operation
/// searched alone on one thread, and the distance kernel over as many rows as those
/// searches verified.
fn search_and_kernel_levels(
    inputs: &Arc<Inputs>,
    span: &'static str,
    parent: &'static str,
    workers: usize,
    search_one: SearchOne,
) -> (Vec<Level>, PoolSearch) {
    let mut scratch = QueryScratch::new();
    let timing = inputs.params.clone().with_timing();
    let mut stats = SearchStats::default();
    let verified: Vec<usize> = inputs
        .queries
        .iter()
        .map(|q| {
            let one = search_one(q, &timing, &mut scratch);
            stats.merge(&one);
            one.candidates_verified as usize
        })
        .collect();
    let search = {
        let inputs = Arc::clone(inputs);
        Level {
            name: span,
            parent,
            workers,
            run: Box::new(move |op| {
                for &p in inputs.schedule.op(op) {
                    black_box(search_one(
                        &inputs.queries[p as usize],
                        &inputs.params,
                        &mut scratch,
                    ));
                }
            }),
        }
    };
    let kernel = {
        let inputs = Arc::clone(inputs);
        let mut strip = vec![0.0f32; KERNEL_STRIP];
        Level {
            name: "core.kernel",
            parent: span,
            workers,
            run: Box::new(move |op| {
                for &p in inputs.schedule.op(op) {
                    let query = inputs.queries[p as usize].coeffs();
                    scan_rows(&inputs.points, query, verified[p as usize], &mut strip);
                }
            }),
        }
    };
    (vec![search, kernel], PoolSearch { span, workers, stats })
}

/// Runs the blocked distance kernel over the first `rows` rows of `points`.
fn scan_rows(points: &PointSet, query: &[f32], rows: usize, strip: &mut [f32]) {
    let rows = rows.min(points.len());
    let mut pos = 0;
    while pos < rows {
        let block = (rows - pos).min(strip.len());
        kernels::abs_dot_block(
            query,
            points.flat_range(pos, pos + block),
            points.dim(),
            &mut strip[..block],
        );
        black_box(&strip[..block]);
        pos += block;
    }
}

/// `engine.executor` → `bctree.search` → `core.kernel` for a plain index.
fn tree_levels(
    inputs: &Arc<Inputs>,
    parent: &'static str,
    index: Arc<dyn P2hIndex>,
) -> (Vec<Level>, PoolSearch) {
    let executor = {
        let (index, inputs) = (Arc::clone(&index), Arc::clone(inputs));
        let executor = BatchExecutor::new(ENGINE_THREADS);
        Level {
            name: "engine.executor",
            parent,
            workers: 1,
            run: Box::new(move |op| {
                black_box(executor.execute(index.as_ref(), inputs.request(op)));
            }),
        }
    };
    let (inner, searched) = search_and_kernel_levels(
        inputs,
        "bctree.search",
        "engine.executor",
        ENGINE_THREADS,
        Arc::new(move |q, p, scratch| index.search_with_scratch(q, p, scratch).stats),
    );
    let mut levels = vec![executor];
    levels.extend(inner);
    (levels, searched)
}

/// Two levels under `parent` that encode, and decode, the frames operation `op` puts
/// on the wire (`messages[op]`, cycled).
fn codec_levels(parent: &'static str, messages: Vec<Vec<Message>>) -> [Level; 2] {
    let frames: Vec<Vec<Vec<u8>>> =
        messages.iter().map(|op| op.iter().map(wire::frame_bytes).collect()).collect();
    let encode = Level {
        name: "net.encode",
        parent,
        workers: 1,
        run: Box::new(move |op| {
            for message in &messages[op % messages.len()] {
                black_box(wire::frame_bytes(message));
            }
        }),
    };
    let decode = Level {
        name: "net.decode",
        parent,
        workers: 1,
        run: Box::new(move |op| {
            for frame in &frames[op % frames.len()] {
                black_box(wire::frame_from_buf(frame).ok());
            }
        }),
    };
    [encode, decode]
}

/// `engine.*` of a workload whose chain enters the engine at `entry`: the entry point
/// against the executor below it, and the heap allocations of `one_cycle` of the entry
/// point over the whole pool.
fn engine_metrics(
    observed: &Observed<'_>,
    entry: (&'static str, &'static str),
    one_cycle: impl FnOnce(),
    out: &mut Metrics,
) {
    let (span, metric) = entry;
    let (entry_us, executor_us) = (observed.span(span), observed.span("engine.executor"));
    out.extend([
        (metric, entry_us),
        ("engine.executor_us_per_batch", executor_us),
        ("engine.overhead_us_per_batch", entry_us - executor_us),
        // The search level's span is already the share one of the workers carries.
        ("engine.parallel_efficiency", observed.span("bctree.search") / executor_us.max(1e-9)),
        ("engine.allocs_per_query", crate::alloc::count(one_cycle) as f64 / POOL as f64),
    ]);
}

/// `bctree.build_s` and `bctree.bytes_per_point` of the served BC-Tree.
fn served_tree_metrics(index: &dyn P2hIndex, observed: &Observed<'_>, out: &mut Metrics) {
    out.push(("bctree.build_s", observed.report.build_s));
    out.push(("bctree.bytes_per_point", index.index_size_bytes() as f64 / index.len() as f64));
}

// -- scan-bound / prune-bound: the engine called in process -------------------------

struct EngineServing {
    inputs: Arc<Inputs>,
    engine: Engine,
    searched: Option<PoolSearch>,
}

impl Serving for EngineServing {
    fn root(&self) -> &'static str {
        "engine.serve"
    }

    fn call(&mut self, op: usize) -> Result<Reply, String> {
        let request = self.inputs.request(op);
        self.engine
            .serve(INDEX, request)
            .map(|r| all_answered(r.results))
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, op: usize, reply: &Reply) -> Verdict {
        judge(&self.inputs, op, reply)
    }

    fn levels(&mut self) -> Vec<Level> {
        let (levels, searched) = tree_levels(&self.inputs, self.root(), shared_index(&self.engine));
        self.searched = Some(searched);
        levels
    }

    fn layer_metrics(&mut self, observed: &Observed<'_>) -> Metrics {
        let mut out = Metrics::new();
        served_tree_metrics(shared_index(&self.engine).as_ref(), observed, &mut out);
        if let Some(searched) = &self.searched {
            searched.core_metrics(&self.inputs, observed, &mut out);
            searched.bctree_metrics(&self.inputs, observed, &mut out);
        }
        let serve_the_pool = || {
            for request in self.inputs.requests.iter() {
                black_box(self.engine.serve(INDEX, request).ok());
            }
        };
        let entry = ("engine.serve", "engine.serve_us_per_batch");
        engine_metrics(observed, entry, serve_the_pool, &mut out);
        out
    }

    fn threads(&self) -> Vec<(&'static str, u64)> {
        vec![("engine_workers", self.engine.executor().threads() as u64)]
    }

    fn finish(self: Box<Self>) {}
}

// -- front-small: pipelined waves through the front server --------------------------

type Wave = Vec<(HyperplaneQuery, SearchParams)>;

fn wave_of(request: &BatchRequest) -> Wave {
    request.queries.iter().map(|q| (q.clone(), request.default_params.clone())).collect()
}

fn front_config() -> FrontConfig {
    FrontConfig { threads: ENGINE_THREADS, ..FrontConfig::default() }
}

/// The families of the front server's exposition the benchmark reads.
const FRONT_FAMILIES: [&str; 6] = [
    "p2h_front_requests_total",
    "p2h_front_batches_total",
    "p2h_front_batch_size_sum",
    "p2h_front_queue_wait_ns_sum",
    "p2h_front_queue_wait_ns_count",
    "p2h_front_shed_total",
];

/// Sums every sample of `family` in a Prometheus text exposition, whatever its labels.
fn exposition_value(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == family).then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// An in-process front server; whoever holds the handle last shuts it down.
struct FrontProcess {
    handle: Mutex<Option<FrontHandle>>,
    addr: String,
}

impl FrontProcess {
    fn serve(server: FrontServer) -> Result<Self, String> {
        let handle = server.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
        let addr = handle.addr().to_string();
        Ok(Self { handle: Mutex::new(Some(handle)), addr })
    }

    fn engine(&self) -> Arc<Engine> {
        self.handle.lock().expect("front handle lock").as_ref().expect("still serving").engine()
    }

    fn shutdown(&self) {
        if let Some(handle) = self.handle.lock().expect("front handle lock").take() {
            handle.shutdown();
        }
    }
}

struct FrontServing {
    inputs: Arc<Inputs>,
    process: Arc<FrontProcess>,
    client: FrontClient,
    waves: Arc<Vec<Wave>>,
    /// The first client owns the server's lifetime.
    owner: bool,
    searched: Option<PoolSearch>,
}

impl FrontServing {
    fn connect(
        inputs: Arc<Inputs>,
        process: Arc<FrontProcess>,
        waves: Arc<Vec<Wave>>,
        owner: bool,
    ) -> Result<Self, String> {
        let client = FrontClient::connect(&process.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Self { inputs, process, client, waves, owner, searched: None })
    }

    /// The frames one wave puts on the wire: a query and a reply per position.
    fn wire_messages(&self, positions: &[u32]) -> Vec<Message> {
        let inputs = &self.inputs;
        positions
            .iter()
            .flat_map(|&p| {
                let id = u64::from(p);
                let query = WireQuery::from_query(&inputs.queries[p as usize], &inputs.params);
                let result = SearchResult {
                    neighbors: inputs.expected()[p as usize].clone(),
                    stats: SearchStats::default(),
                };
                [
                    Message::FrontQuery { id, index: INDEX.to_string(), deadline_ms: 0, query },
                    Message::FrontReply { id, result },
                ]
            })
            .collect()
    }
}

impl Serving for FrontServing {
    fn root(&self) -> &'static str {
        "front.wave"
    }

    fn call(&mut self, op: usize) -> Result<Reply, String> {
        let wave = &self.waves[op % self.waves.len()];
        let outcomes = self.client.query_many(INDEX, wave, 0).map_err(|e| e.to_string())?;
        Ok(Reply { results: outcomes.into_iter().map(Result::ok).collect(), phases: Vec::new() })
    }

    fn check(&mut self, op: usize, reply: &Reply) -> Verdict {
        judge(&self.inputs, op, reply)
    }

    fn another_client(&self) -> Result<Box<dyn Serving>, String> {
        let client = Self::connect(
            Arc::clone(&self.inputs),
            Arc::clone(&self.process),
            Arc::clone(&self.waves),
            false,
        )?;
        Ok(Box::new(client))
    }

    fn levels(&mut self) -> Vec<Level> {
        let engine = self.process.engine();
        let index = shared_index(&engine);
        let serve_front = {
            let inputs = Arc::clone(&self.inputs);
            Level {
                name: "engine.serve_front",
                parent: self.root(),
                workers: 1,
                run: Box::new(move |op| {
                    black_box(engine.serve_front(INDEX, inputs.request(op)).ok());
                }),
            }
        };
        let (inner, searched) = tree_levels(&self.inputs, "engine.serve_front", index);
        self.searched = Some(searched);
        let messages = self.inputs.schedule.ops.iter().map(|op| self.wire_messages(op)).collect();
        let mut levels = vec![serve_front];
        levels.extend(inner);
        levels.extend(codec_levels(self.root(), messages));
        levels
    }

    /// Read the way an operator would: over the socket.
    fn counters(&mut self) -> Result<Metrics, String> {
        let text = self.client.metrics().map_err(|e| format!("front metrics: {e}"))?;
        Ok(FRONT_FAMILIES.map(|family| (family, exposition_value(&text, family))).to_vec())
    }

    fn layer_metrics(&mut self, observed: &Observed<'_>) -> Metrics {
        let engine = self.process.engine();
        let mut out = Metrics::new();
        served_tree_metrics(shared_index(&engine).as_ref(), observed, &mut out);
        if let Some(searched) = &self.searched {
            searched.core_metrics(&self.inputs, observed, &mut out);
            searched.bctree_metrics(&self.inputs, observed, &mut out);
        }
        let serve_the_pool = || {
            for request in self.inputs.requests.iter() {
                black_box(engine.serve_front(INDEX, request).ok());
            }
        };
        let entry = ("engine.serve_front", "engine.serve_front_us_per_batch");
        engine_metrics(observed, entry, serve_the_pool, &mut out);

        let wave = FRONT_WAVE as f64;
        let (encode, decode) = (observed.span("net.encode"), observed.span("net.decode"));
        let requests = observed.counted("p2h_front_requests_total").max(1.0);
        let batches = observed.counted("p2h_front_batches_total").max(1.0);
        let waits = observed.counted("p2h_front_queue_wait_ns_count").max(1.0);
        out.extend([
            ("net.encode_us_per_query", encode / wave),
            ("net.decode_us_per_query", decode / wave),
            ("front.wave_us", observed.span("front.wave")),
            (
                "front.overhead_us_per_query",
                (observed.span("front.wave") - observed.span("engine.serve_front")) / wave,
            ),
            ("front.codec_us_per_query", (encode + decode) / wave),
            (
                "front.queue_wait_us_mean",
                observed.counted("p2h_front_queue_wait_ns_sum") / waits / 1e3,
            ),
            ("front.batch_size_mean", observed.counted("p2h_front_batch_size_sum") / batches),
            ("front.batches_per_request", batches / requests),
            ("front.shed", observed.counted("p2h_front_shed_total")),
        ]);
        out
    }

    fn threads(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("engine_workers", self.process.engine().executor().threads() as u64),
            ("front_loops", front_config().effective_loops() as u64),
            ("client_connections", self.inputs.workload.clients as u64),
        ]
    }

    fn finish(self: Box<Self>) {
        if self.owner {
            self.process.shutdown();
        }
    }
}

// -- router-fanout: batches routed to two shard servers -----------------------------

type RoutedBatch = (Vec<HyperplaneQuery>, Vec<SearchParams>);

fn routed_batch_of(request: &BatchRequest) -> RoutedBatch {
    (request.queries.clone(), vec![request.default_params.clone(); request.queries.len()])
}

/// Two in-process shard servers, one hash shard each, and a router over them.
struct RoutedShards {
    servers: Vec<ServerHandle>,
    router: Router,
    index: Arc<ShardedIndex>,
}

impl RoutedShards {
    fn start(dir: &Path) -> Result<Self, String> {
        let store = Store::open_with(dir, LoadMode::Mmap).map_err(|e| format!("open: {e}"))?;
        let mut servers = Vec::new();
        let mut replicas = Vec::new();
        let mut index = None;
        for shard in 0..2 {
            let server = ShardServer::load(&store, INDEX).map_err(|e| format!("load: {e}"))?;
            index = Some(Arc::clone(server.index()));
            let handle = server
                .with_shards(vec![shard])
                .and_then(|s| s.serve("127.0.0.1:0"))
                .map_err(|e| format!("shard server {shard}: {e}"))?;
            replicas.push(ReplicaSet::new([handle.addr().to_string()]));
            servers.push(handle);
        }
        let router =
            Router::new(RouterConfig::new(INDEX, replicas)).map_err(|e| format!("router: {e}"))?;
        Ok(Self { servers, router, index: index.expect("two shard servers were loaded") })
    }

    fn route(&self, batch: &RoutedBatch) -> Result<Vec<SearchResult>, String> {
        let routed = self.router.route(&batch.0, &batch.1).map_err(|e| e.to_string())?;
        if !routed.is_complete() {
            return Err(format!("shards {:?} did not answer", routed.missing_shards));
        }
        Ok(routed.results)
    }

    fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

/// Every shard searched in turn on the calling thread; the merged work counters.
fn search_all_shards(
    index: &ShardedIndex,
    query: &HyperplaneQuery,
    params: &SearchParams,
    scratch: &mut QueryScratch,
) -> SearchStats {
    let mut stats = SearchStats::default();
    for shard in 0..index.shard_count() {
        if let Some(result) = index.search_shard(shard, query, params, scratch) {
            stats.merge(&result.stats);
        }
    }
    stats
}

struct RouterServing {
    inputs: Arc<Inputs>,
    routed: RoutedShards,
    batches: Vec<RoutedBatch>,
    searched: Option<PoolSearch>,
    /// Nanoseconds the local fan-out level's batches took, and spent merging.
    fanout_ns: Arc<[AtomicU64; 2]>,
}

impl RouterServing {
    /// The frames one routed batch puts on the wire: a query and a reply per shard.
    fn wire_messages(&self, request: &BatchRequest) -> Vec<Message> {
        let index = &self.routed.index;
        let params = &request.default_params;
        let queries: Vec<WireQuery> =
            request.queries.iter().map(|q| WireQuery::from_query(q, params)).collect();
        let mut scratch = QueryScratch::new();
        (0..index.shard_count())
            .flat_map(|shard| {
                let answers = request
                    .queries
                    .iter()
                    .map(|q| index.search_shard(shard, q, params, &mut scratch))
                    .collect();
                [
                    Message::ShardQuery { shard: shard as u32, queries: queries.clone() },
                    Message::ShardReply { shard: shard as u32, answers },
                ]
            })
            .collect()
    }
}

impl Serving for RouterServing {
    fn root(&self) -> &'static str {
        "net.route"
    }

    fn call(&mut self, op: usize) -> Result<Reply, String> {
        self.routed.route(&self.batches[op % self.batches.len()]).map(all_answered)
    }

    fn check(&mut self, op: usize, reply: &Reply) -> Verdict {
        judge(&self.inputs, op, reply)
    }

    fn levels(&mut self) -> Vec<Level> {
        let fanout = {
            let (index, inputs) = (Arc::clone(&self.routed.index), Arc::clone(&self.inputs));
            let totals = Arc::clone(&self.fanout_ns);
            let executor = ShardedExecutor::new(ENGINE_THREADS);
            Level {
                name: "shard.fanout",
                parent: self.root(),
                workers: 1,
                run: Box::new(move |op| {
                    let response = executor.execute(&index, inputs.request(op));
                    totals[0].fetch_add(response.wall_time_ns, Ordering::Relaxed);
                    totals[1].fetch_add(response.total_stats.time_merge_ns, Ordering::Relaxed);
                }),
            }
        };
        let index = Arc::clone(&self.routed.index);
        let (inner, searched) = search_and_kernel_levels(
            &self.inputs,
            "bctree.search",
            "shard.fanout",
            ENGINE_THREADS,
            Arc::new(move |q, p, scratch| search_all_shards(&index, q, p, scratch)),
        );
        self.searched = Some(searched);
        let messages = self.inputs.requests.iter().map(|r| self.wire_messages(r)).collect();
        let mut levels = vec![fanout];
        levels.extend(inner);
        levels.extend(codec_levels(self.root(), messages));
        levels
    }

    fn counters(&mut self) -> Result<Metrics, String> {
        let client = [("role", "client")];
        let counter = registry_reader();
        Ok(vec![
            (
                "p2h_net_bytes",
                (counter("p2h_net_bytes_sent_total", &client)
                    + counter("p2h_net_bytes_recv_total", &client)) as f64,
            ),
            (
                "p2h_net_retries",
                (counter("p2h_net_retries_total", &[])
                    + counter("p2h_net_timeouts_total", &[])
                    + counter("p2h_net_connect_errors_total", &[])) as f64,
            ),
        ])
    }

    fn layer_metrics(&mut self, observed: &Observed<'_>) -> Metrics {
        let index = &self.routed.index;
        let mut out = vec![
            ("shard.build_s", observed.report.build_s),
            ("bctree.bytes_per_point", index.index_size_bytes() as f64 / index.len() as f64),
        ];
        if let Some(searched) = &self.searched {
            searched.core_metrics(&self.inputs, observed, &mut out);
            searched.bctree_metrics(&self.inputs, observed, &mut out);
        }
        let sizes: Vec<f64> =
            (0..index.shard_count()).map(|s| index.shard(s).len() as f64).collect();
        let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
        let [wall_ns, merge_ns] = [0, 1].map(|i| self.fanout_ns[i].load(Ordering::Relaxed));
        let batch = ROUTER_BATCH as f64;
        let routed_queries = (observed.traffic_ops as f64 * batch).max(1.0);
        out.extend([
            ("shard.imbalance", sizes.iter().copied().fold(0.0, f64::max) / mean_size),
            ("shard.local_fanout_us_per_batch", observed.span("shard.fanout")),
            ("shard.merge_share", merge_ns as f64 / wall_ns.max(1) as f64),
            ("net.route_us_per_batch", observed.span("net.route")),
            (
                "net.overhead_us_per_batch",
                observed.span("net.route") - observed.span("shard.fanout"),
            ),
            ("net.encode_us_per_query", observed.span("net.encode") / batch),
            ("net.decode_us_per_query", observed.span("net.decode") / batch),
            ("net.bytes_per_query", observed.counted("p2h_net_bytes") / routed_queries),
            ("net.retries", observed.counted("p2h_net_retries")),
        ]);
        out
    }

    fn threads(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("shard_servers", self.routed.servers.len() as u64),
            ("router_fanout_threads", self.routed.index.shard_count() as u64),
        ]
    }

    fn finish(self: Box<Self>) {
        self.routed.shutdown();
    }
}

// -- live-rounds: active-learning rounds on the live tier ---------------------------

/// A cold-started live index with its background compaction policy running.
struct LiveTier {
    engine: Engine,
    live: Arc<LiveIndex>,
    compactor: Compactor,
}

impl LiveTier {
    fn open(dir: &Path, compact_at: usize) -> Result<Self, String> {
        let engine = load_engine(dir)?;
        let live = engine.live(INDEX).ok_or("the store holds no live entry")?;
        let compactor = CompactionPolicy {
            max_memtable_points: compact_at,
            max_interval: Duration::ZERO,
            poll_interval: Duration::from_millis(20),
        }
        .spawn(Arc::clone(&live));
        Ok(Self { engine, live, compactor })
    }

    fn query(&self, request: &BatchRequest) -> Result<Vec<SearchResult>, String> {
        self.engine.serve_live(INDEX, request).map(|r| r.results).map_err(|e| e.to_string())
    }

    /// One active-learning round: query the pool, retire the points the answers put
    /// closest to their hyperplanes (they got labelled), admit new arrivals. Returns
    /// the answers and the nanoseconds of the three parts.
    fn round(
        &self,
        request: &BatchRequest,
        arrivals: &[Vec<f32>],
    ) -> Result<(Vec<SearchResult>, [u64; 3]), String> {
        let start = Instant::now();
        let results = self.query(request)?;
        let queried = Instant::now();
        let mut labelled: Vec<u32> =
            results.iter().filter_map(|r| r.neighbors.first()).map(|n| n.index as u32).collect();
        labelled.sort_unstable();
        labelled.dedup();
        for id in labelled {
            self.engine.live_delete(INDEX, id).map_err(|e| format!("delete {id}: {e}"))?;
        }
        let deleted = Instant::now();
        self.engine.live_insert(INDEX, arrivals).map_err(|e| format!("insert: {e}"))?;
        let inserted = Instant::now();
        let parts = [queried - start, deleted - queried, inserted - deleted];
        Ok((results, parts.map(|d| d.as_nanos() as u64)))
    }
}

struct LiveServing {
    inputs: Arc<Inputs>,
    tier: LiveTier,
    /// Rounds made so far; fixes which arrivals the next round inserts.
    rounds: usize,
    /// `memtable_len()` summed over the rounds made so far.
    memtable_rows: u64,
    searched: Option<PoolSearch>,
}

impl Serving for LiveServing {
    fn root(&self) -> &'static str {
        "live.round"
    }

    fn call(&mut self, op: usize) -> Result<Reply, String> {
        let batches = self.inputs.arrivals.len() / ARRIVALS_PER_ROUND;
        let from = (self.rounds % batches) * ARRIVALS_PER_ROUND;
        let arrivals = &self.inputs.arrivals[from..from + ARRIVALS_PER_ROUND];
        let (results, [query, delete, insert]) =
            self.tier.round(self.inputs.request(op), arrivals)?;
        self.rounds += 1;
        Ok(Reply {
            results: results.into_iter().map(Some).collect(),
            phases: vec![("live.query", query), ("live.delete", delete), ("live.insert", insert)],
        })
    }

    /// A round's answers depend on every earlier round, so they are judged at
    /// checkpoints, not one by one. Untimed, so the memtable is sampled here.
    fn check(&mut self, _op: usize, reply: &Reply) -> Verdict {
        self.memtable_rows += self.tier.live.memtable_len() as u64;
        Verdict { queries: reply.results.len() as u64, ..Verdict::default() }
    }

    fn probe(&mut self, op: usize) -> Result<Verdict, String> {
        let results = self.tier.query(self.inputs.request(op))?;
        if self.rounds > 0 {
            return Ok(Verdict { queries: results.len() as u64, ..Verdict::default() });
        }
        // Nothing has mutated yet: the live tier holds exactly the base points, whose
        // ids are their positions.
        Ok(judge(&self.inputs, op, &all_answered(results)))
    }

    fn checkpoint(&mut self) -> Result<Option<Verdict>, String> {
        let rows = self.tier.live.live_points();
        let flat: Vec<f32> = rows.iter().flat_map(|(_, row)| row.iter().copied()).collect();
        let scan = LinearScan::new(
            PointSet::from_flat(self.inputs.raw_dim + 1, flat).map_err(|e| e.to_string())?,
        );
        let mut scratch = QueryScratch::new();
        let mut verdict = Verdict::default();
        let request = self.inputs.request(self.rounds);
        let served = self.tier.query(request)?;
        for (query, got) in request.queries.iter().zip(&served) {
            let mut want =
                scan.search_with_scratch(query, &request.default_params, &mut scratch).neighbors;
            for neighbor in &mut want {
                neighbor.index = rows[neighbor.index].0 as usize;
            }
            let distance_of = |id: usize| {
                let at = rows.binary_search_by_key(&id, |(row_id, _)| *row_id as usize).ok()?;
                Some(query.p2h_distance(&rows[at].1))
            };
            verdict.merge(judge_one(Some(&got.neighbors), &want, &want, &distance_of));
        }
        Ok(Some(verdict))
    }

    fn levels(&mut self) -> Vec<Level> {
        let live = Arc::clone(&self.tier.live);
        let (levels, searched) = search_and_kernel_levels(
            &self.inputs,
            "live.search",
            "live.query",
            1,
            Arc::new(move |q, p, scratch| {
                live.search_with_scratch(q, p, scratch).map(|r| r.stats).unwrap_or_default()
            }),
        );
        self.searched = Some(searched);
        levels
    }

    fn counters(&mut self) -> Result<Metrics, String> {
        let index = [("index", INDEX)];
        let counter = registry_reader();
        let compaction_wall_ns = p2hnns::obs::global()
            .snapshot()
            .series("p2h_live_compaction_wall_ns", &index)
            .and_then(|s| s.value.histogram().map(|h| h.sum()))
            .unwrap_or(0);
        Ok(vec![
            ("p2h_live_wal_bytes_total", counter("p2h_live_wal_bytes_total", &index) as f64),
            ("p2h_live_wal_fsyncs_total", counter("p2h_live_wal_fsyncs_total", &index) as f64),
            ("p2h_live_inserts_total", counter("p2h_live_inserts_total", &index) as f64),
            // A histogram's scalar reading is its sample count: compactions finished,
            // whatever triggered them.
            ("p2h_live_compactions", counter("p2h_live_compaction_wall_ns", &index) as f64),
            ("p2h_live_compaction_wall_ns_sum", compaction_wall_ns as f64),
            ("memtable_rows", self.memtable_rows as f64),
        ])
    }

    fn layer_metrics(&mut self, observed: &Observed<'_>) -> Metrics {
        let mut out = Metrics::new();
        if let Some(searched) = &self.searched {
            searched.core_metrics(&self.inputs, observed, &mut out);
        }
        let rounds = (observed.traffic_ops as f64).max(1.0);
        let compactions = observed.counted("p2h_live_compactions");
        out.extend([
            (
                "store.wal_bytes_per_row",
                observed.counted("p2h_live_wal_bytes_total")
                    / observed.counted("p2h_live_inserts_total").max(1.0),
            ),
            ("store.fsyncs_per_round", observed.counted("p2h_live_wal_fsyncs_total") / rounds),
            ("live.query_us_per_round", observed.span("live.query")),
            ("live.delete_us_per_round", observed.span("live.delete")),
            ("live.insert_us_per_round", observed.span("live.insert")),
            ("live.memtable_rows_mean", observed.counted("memtable_rows") / rounds),
            ("live.compactions", compactions),
            (
                "live.compaction_wall_s_mean",
                observed.counted("p2h_live_compaction_wall_ns_sum") / 1e9 / compactions.max(1.0),
            ),
            ("live.stall_rounds", observed.stalled_ops as f64),
        ]);
        out
    }

    fn threads(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("engine_workers", self.tier.engine.executor().threads() as u64),
            ("compactor_threads", 1),
        ]
    }

    fn finish(self: Box<Self>) {
        self.tier.compactor.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Layers measured beside the workload's chain
// ---------------------------------------------------------------------------

/// A reader of scalar series (a histogram reads as its sample count) over one
/// snapshot of the process-wide registry.
fn registry_reader() -> impl Fn(&str, &[(&str, &str)]) -> u64 {
    let snapshot = p2hnns::obs::global().snapshot();
    move |name, labels| snapshot.series(name, labels).map_or(0, |s| s.value.scalar())
}

fn load_seconds(dir: &Path, mode: LoadMode) -> Result<f64, String> {
    let start = Instant::now();
    let engine =
        Engine::from_store_with(dir, ENGINE_THREADS, mode).map_err(|e| format!("load: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    black_box(engine.registry().len());
    Ok(seconds)
}

/// `store.*` of the store the workload's own set-up just wrote at `dir`, before
/// anything serves it: its size, both loaders, and the checksum's share of a mapped
/// load.
pub fn store_metrics(inputs: &Inputs, dir: &Path, report: BuildReport) -> Result<Metrics, String> {
    let stages = || {
        let counter = registry_reader();
        ["read", "crc", "decode"]
            .map(|stage| counter("p2h_store_load_stage_ns_total", &[("stage", stage)]))
    };
    let before = stages();
    let mmap_s = load_seconds(dir, LoadMode::Mmap)?;
    let spent: Vec<u64> = stages().iter().zip(&before).map(|(a, b)| a - b).collect();
    Ok(vec![
        ("store.save_s", report.save_s),
        ("store.bytes_per_point", dir_bytes(dir) as f64 / inputs.points.len() as f64),
        ("store.load_mmap_s", mmap_s),
        ("store.crc_share", spent[1] as f64 / spent.iter().sum::<u64>().max(1) as f64),
        ("store.load_copy_s", load_seconds(dir, LoadMode::Copy)?),
    ])
}

/// `balltree.*`: a Ball-Tree over the workload's points searched with its pool — the
/// paper's comparison point for the two workloads that call a BC-Tree directly, and
/// the live tier's base. Empty for the other workloads.
pub fn balltree_metrics(inputs: &Inputs) -> Result<Metrics, String> {
    if !matches!(inputs.workload.entry, Entry::EngineServe | Entry::LiveRound) {
        return Ok(Metrics::new());
    }
    let start = Instant::now();
    let ball = BallTreeBuilder::new(LEAF_SIZE)
        .with_seed(1)
        .build(&inputs.points)
        .map_err(|e| format!("balltree build: {e}"))?;
    let build_s = start.elapsed().as_secs_f64();
    let exact = SearchParams::exact(K);
    let mut scratch = QueryScratch::new();
    let mut verified = 0u64;
    let start = Instant::now();
    for query in &inputs.queries {
        verified += ball.search_with_scratch(query, &exact, &mut scratch).stats.candidates_verified;
    }
    let pool = inputs.queries.len() as f64;
    Ok(vec![
        ("balltree.build_s", build_s),
        ("balltree.search_us_per_query", start.elapsed().as_secs_f64() * 1e6 / pool),
        ("balltree.verified_frac", verified as f64 / pool / inputs.points.len() as f64),
    ])
}

/// `obs.*`: what rendering the exposition costs once the workload's layers have
/// recorded into it, and how many series it holds.
pub fn exposition_metrics() -> Metrics {
    const RENDERS: usize = 8;
    let registry = p2hnns::obs::global();
    let start = Instant::now();
    for _ in 0..RENDERS {
        black_box(registry.render_text());
    }
    let render_us = start.elapsed().as_secs_f64() * 1e6 / RENDERS as f64;
    let series: usize = registry.snapshot().families.iter().map(|f| f.series.len()).sum();
    vec![("obs.render_us", render_us), ("obs.series", series as f64)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(pairs: &[(usize, f32)]) -> Vec<Neighbor> {
        pairs.iter().map(|&(index, distance)| Neighbor::new(index, distance)).collect()
    }

    /// Points 0..=4 at distances 0.1, 0.2, 0.3, 0.3, 0.5: points 2 and 3 tie exactly.
    fn distance_of(id: usize) -> Option<f32> {
        [0.1, 0.2, 0.3, 0.3, 0.5].get(id).copied()
    }

    #[test]
    fn equal_bits_and_ids_are_identical() {
        let want = answer(&[(0, 0.1), (1, 0.2), (2, 0.3)]);
        assert_eq!(compare_answers(&want, &want, &distance_of), Match::Identical);
    }

    #[test]
    fn the_other_point_of_an_exact_tie_is_a_correct_answer() {
        let want = answer(&[(0, 0.1), (1, 0.2), (2, 0.3)]);
        let got = answer(&[(0, 0.1), (1, 0.2), (3, 0.3)]);
        assert_eq!(compare_answers(&got, &want, &distance_of), Match::TieBroken);
    }

    #[test]
    fn anything_else_is_wrong() {
        let want = answer(&[(0, 0.1), (1, 0.2), (2, 0.3)]);
        // A farther point, whatever distance it claims.
        let farther = answer(&[(0, 0.1), (1, 0.2), (4, 0.5)]);
        assert_eq!(compare_answers(&farther, &want, &distance_of), Match::Wrong);
        let lying = answer(&[(0, 0.1), (1, 0.2), (4, 0.3)]);
        assert_eq!(compare_answers(&lying, &want, &distance_of), Match::Wrong);
        // The right ids with a distance that is off by one bit.
        let off = answer(&[(0, 0.1), (1, 0.2), (2, f32::from_bits(0.3f32.to_bits() + 1))]);
        assert_eq!(compare_answers(&off, &want, &distance_of), Match::Wrong);
        // One point twice, a missing neighbour, an unknown id.
        let want_tie = answer(&[(2, 0.3), (3, 0.3)]);
        let twice = answer(&[(3, 0.3), (3, 0.3)]);
        assert_eq!(compare_answers(&twice, &want_tie, &distance_of), Match::Wrong);
        assert_eq!(compare_answers(&want[..2], &want, &distance_of), Match::Wrong);
        let unknown = answer(&[(0, 0.1), (1, 0.2), (9, 0.3)]);
        assert_eq!(compare_answers(&unknown, &want, &distance_of), Match::Wrong);
    }

    #[test]
    fn recall_counts_ties_at_the_kth_distance_as_hits() {
        let exact = answer(&[(0, 0.1), (1, 0.2), (2, 0.3)]);
        let tied = answer(&[(0, 0.1), (1, 0.2), (3, 0.3)]);
        let verdict = judge_one(Some(&tied), &exact, &exact, &distance_of);
        assert_eq!((verdict.wrong, verdict.tie_breaks), (0, 1));
        assert_eq!((verdict.recall_hits, verdict.recall_total), (3, 3));
        let budgeted = answer(&[(0, 0.1), (4, 0.5), (4, 0.5)]);
        assert_eq!(judge_one(Some(&budgeted), &budgeted, &exact, &distance_of).recall_hits, 1);
        let missing = judge_one(None, &exact, &exact, &distance_of);
        assert_eq!((missing.wrong, missing.recall_hits), (1, 0));
    }
}
