//! One pass over one workload: set-up, the timed closed loop, the correctness gate,
//! and — in a traced pass — the workload's traffic watched through the counters the
//! program exports, then the onion replay that yields the layer budget.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::catalog::{
    Scale, Workload, COLD_STARTS, END_TO_END, LIVE_CHECKPOINTS, PER_LAYER, POOL, SETUP_REPEATS,
};
use crate::host;
use crate::json::Json;
use crate::stats::{median, nearest_rank, samples_beyond, supports_percentile};
use crate::sut::{self, BuildReport, Inputs, Observed, Reply, Serving};
use crate::trace::{self_times, unaccounted, Span, Trace};

/// Equal slices the timed window is cut into, and how many of them — the ones with the
/// highest throughput — the end-to-end throughput and latencies are taken from.
const SLICES: usize = 36;
const QUIET_SLICES: usize = 6;
/// The tail percentile that carries a bound: the highest one the quiet slices of the
/// slowest workload (~330 operations in three seconds) leave over ten samples beyond.
const TAIL_PERCENTILE: f64 = 95.0;
/// The share of a traced pass's window that goes to the workload's own traffic, cut
/// into this many slices without spans and as many with them; the onion replay takes
/// the rest.
const TRAFFIC_SHARE: f64 = 0.6;
const TRAFFIC_SLICES: usize = 3;
/// Times the onion replay goes through all its stages.
const ONION_ROUNDS: usize = 2;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for trace files and the temporary stores (removed on exit).
    pub out: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the pass's kind, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts, fingerprint, stability and (traced) the layer budget.
    pub detail: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Removes the pass's temporary stores however the pass ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&config.out)
        .map_err(|e| format!("create {}: {e}", config.out.display()))?;
    let work =
        WorkDir(config.out.join(format!("work-{}-{}", config.workload.name, std::process::id())));

    let start = Instant::now();
    let mut inputs = sut::generate(config.workload, config.scale, config.seed)?;
    let generate_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    sut::compute_oracle(&mut inputs);
    let oracle_s = start.elapsed().as_secs_f64();
    let inputs = Arc::new(inputs);

    let pass = Pass { config, inputs, store: work.0.join("store"), generate_s, oracle_s };
    if config.trace {
        pass.traced()
    } else {
        pass.untraced()
    }
}

struct Pass<'a> {
    config: &'a RunConfig,
    inputs: Arc<Inputs>,
    store: PathBuf,
    generate_s: f64,
    oracle_s: f64,
}

/// One repetition of the system's set-up: offline build and save, then a cold start
/// that must answer correctly, then one warm-up pass over the schedule's cycle.
struct SetUp {
    report: BuildReport,
    /// Seconds of each cold start made in this repetition (the last one is kept).
    cold_starts: Vec<f64>,
    warm_s: f64,
    serving: Box<dyn Serving>,
}

impl SetUp {
    fn seconds(&self) -> f64 {
        self.report.build_s
            + self.report.save_s
            + self.cold_starts.last().copied().unwrap_or(0.0)
            + self.warm_s
    }
}

fn cold_start(inputs: &Arc<Inputs>, store: &Path) -> Result<(Box<dyn Serving>, f64), String> {
    let start = Instant::now();
    let mut serving = sut::cold_start(inputs, store)?;
    let first = serving.probe(0);
    let seconds = start.elapsed().as_secs_f64();
    match first {
        Ok(first) if first.queries > 0 && first.wrong == 0 => Ok((serving, seconds)),
        other => {
            serving.finish();
            Err(format!("the first answer after a cold start was wrong: {other:?}"))
        }
    }
}

impl Pass<'_> {
    /// The online half of set-up, on the store `report` describes.
    fn start(&self, report: BuildReport, cold_starts: usize) -> Result<SetUp, String> {
        let mut seconds = Vec::with_capacity(cold_starts);
        for _ in 1..cold_starts {
            let (serving, cold_s) = cold_start(&self.inputs, &self.store)?;
            serving.finish();
            seconds.push(cold_s);
        }
        let (mut serving, cold_s) = cold_start(&self.inputs, &self.store)?;
        seconds.push(cold_s);
        let start = Instant::now();
        for op in 0..self.inputs.schedule.cycle() {
            if let Err(e) = serving.probe(op) {
                serving.finish();
                return Err(format!("warm-up: {e}"));
            }
        }
        Ok(SetUp { report, cold_starts: seconds, warm_s: start.elapsed().as_secs_f64(), serving })
    }

    /// Every client of the workload: `first` and a connection of its own for each other.
    fn clients(&self, first: Box<dyn Serving>) -> Result<Vec<Box<dyn Serving>>, String> {
        let mut clients = vec![first];
        for _ in 1..self.config.workload.clients {
            match clients[0].another_client() {
                Ok(client) => clients.push(client),
                Err(e) => {
                    finish_all(clients);
                    return Err(e);
                }
            }
        }
        Ok(clients)
    }

    fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.config.seconds * share)
    }

    // -- the untraced pass: end-to-end metrics ------------------------------------

    fn untraced(&self) -> Result<Outcome, String> {
        let mut set_up_s = Vec::new();
        let mut cold_s = Vec::new();
        let mut kept = None;
        for repeat in 0..SETUP_REPEATS {
            let last = repeat + 1 == SETUP_REPEATS;
            // Every repetition cold-starts once; the last makes up the rest of the
            // cold-start sample.
            let starts = if last { COLD_STARTS - (SETUP_REPEATS - 1) } else { 1 };
            let set_up = self.start(sut::build_and_save(&self.inputs, &self.store)?, starts)?;
            set_up_s.push(set_up.seconds());
            cold_s.extend(&set_up.cold_starts);
            if last {
                kept = Some(set_up.serving);
            } else {
                set_up.serving.finish();
            }
        }
        let serving = kept.expect("the last repetition is kept");
        let raw_bytes = (self.inputs.scale.n * self.inputs.raw_dim * 4) as f64;
        let store_amp = sut::dir_bytes(&self.store) as f64 / raw_bytes;
        let threads = serving.threads();

        let mut clients = self.clients(serving)?;
        let cycle = self.inputs.schedule.cycle();
        let spin_before = host::spin_ns();
        let log = traffic(&mut clients, cycle, self.window(1.0), LIVE_CHECKPOINTS, false);
        let spin_after = host::spin_ns();
        finish_all(clients);

        let mut sorted: Vec<u64> = log.samples.iter().map(|s| s.latency_ns).collect();
        sorted.sort_unstable();
        let Some(quiet) = quiet_slices(&log.samples, self.window(1.0)) else {
            return Err("no operation completed inside the timed window".into());
        };
        let values: BTreeMap<&str, f64> = BTreeMap::from([
            ("setup_s", self.generate_s + self.oracle_s + median(&set_up_s)),
            ("cold_start_s", median(&cold_s)),
            ("qps", quiet.qps),
            ("lat_p50_us", quiet.p50_us),
            ("lat_p95_us", quiet.tail_us),
            ("ok_share", log.ops.saturating_sub(log.failed_ops) as f64 / log.ops as f64),
            ("recall_at_10", log.recall_hits as f64 / log.recall_total.max(1) as f64),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("store_amp", store_amp),
        ]);
        let metrics = END_TO_END.iter().map(|m| (m.name, values[m.name], m.unit)).collect();

        let mut detail = self.detail(&threads, spin_before, spin_after);
        detail.push(("latency_samples".into(), Json::Num(sorted.len() as f64)));
        detail.push(("slices".into(), Json::Num(SLICES as f64)));
        detail.push(("quiet_slices".into(), Json::Num(quiet.slices as f64)));
        detail.push(("quiet_samples".into(), Json::Num(quiet.samples as f64)));
        detail.push((
            "samples_beyond_p95".into(),
            Json::Num(samples_beyond(quiet.samples, TAIL_PERCENTILE) as f64),
        ));
        detail.push((
            "tail_supported".into(),
            Json::Bool(supports_percentile(quiet.samples, TAIL_PERCENTILE)),
        ));
        // Informational only, over the whole window, whatever the host did during it.
        detail.push(("qps_whole_window".into(), Json::Num(log.qps())));
        detail.push(("lat_p99_us".into(), Json::Num(nearest_rank(&sorted, 99.0) as f64 / 1e3)));
        detail.push(("checkpoints".into(), Json::Num(log.checkpoints as f64)));
        detail.push(("tie_breaks".into(), Json::Num(log.tie_breaks as f64)));
        detail.push(("setup_repeats_s".into(), nums(&set_up_s)));
        detail.push(("cold_starts_s".into(), nums(&cold_s)));
        Ok(log.outcome(metrics, detail))
    }

    // -- the traced pass: per-layer metrics and the layer budget -----------------

    fn traced(&self) -> Result<Outcome, String> {
        let workload = self.config.workload;
        let report = sut::build_and_save(&self.inputs, &self.store)?;
        let mut values: BTreeMap<&'static str, f64> =
            sut::store_metrics(&self.inputs, &self.store, report)?.into_iter().collect();
        let set_up = self.start(report, 1)?;
        let threads = set_up.serving.threads();
        let mut clients = self.clients(set_up.serving)?;
        let spin_before = host::spin_ns();
        let observed = self.observe(&mut clients, report);
        let spin_after = host::spin_ns();
        finish_all(clients);
        let (log, layers, budget, trace) = observed?;
        values.extend(layers);
        values.extend(sut::balltree_metrics(&self.inputs)?);
        values.extend(sut::exposition_metrics());

        values.insert("data.generate_s", self.generate_s);
        values.insert("data.oracle_s", self.oracle_s);
        // The oracle is `LinearScan::search_with_scratch` over the pool.
        values.insert("core.scan_us_per_query", self.oracle_s * 1e6 / POOL as f64);
        values.insert("bench.host_spin_ns", (spin_before + spin_after) / 2.0);
        // A layer outside the workload's chain was not measured and reads 0.
        let metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect();

        let trace_name = format!("trace-{}.json", workload.name);
        let trace_file = self.config.out.join(&trace_name);
        let dump = Json::obj([
            ("workload", Json::str(workload.name)),
            ("seed", Json::Num(self.config.seed as f64)),
            ("budget", budget.clone()),
            ("spans", trace.to_json()),
        ]);
        std::fs::write(&trace_file, dump.render())
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

        let mut detail = self.detail(&threads, spin_before, spin_after);
        detail.push(("budget".into(), budget));
        detail.push(("spans".into(), Json::Num(trace.spans.len() as f64)));
        detail.push(("trace_file".into(), Json::str(trace_name)));
        Ok(log.outcome(metrics, detail))
    }

    /// What a traced pass watches. First the workload's own traffic — all its clients,
    /// without spans and with them, the exported counters read before and after. Then
    /// the onion replay: one caller replays the schedule at the client call and at every
    /// deeper level.
    #[allow(clippy::type_complexity)]
    fn observe(
        &self,
        clients: &mut [Box<dyn Serving>],
        report: BuildReport,
    ) -> Result<(ClientLog, Vec<(&'static str, f64)>, Json, Trace), String> {
        let cycle = self.inputs.schedule.cycle();
        let root = clients[0].root();
        let mut trace = Trace::new();

        // Plain and spanned slices take turns, so both see the system in the same states
        // (the live tier's memtable grows and is compacted as it runs).
        let before = clients[0].counters()?;
        let mut plain = ClientLog::default();
        let mut spanned = ClientLog::default();
        for slice in 1..=TRAFFIC_SLICES {
            let window = self.window(TRAFFIC_SHARE / (2 * TRAFFIC_SLICES) as f64);
            let closing_checkpoint = usize::from(slice == TRAFFIC_SLICES);
            plain.absorb(traffic(clients, cycle, window, 0, false), false);
            spanned.absorb(traffic(clients, cycle, window, closing_checkpoint, true), false);
        }
        let after = clients[0].counters()?;
        for call in &spanned.calls {
            record_call(&mut trace, root, call);
        }
        let counted: BTreeMap<&'static str, f64> =
            before.iter().zip(&after).map(|((name, b), (_, a))| (*name, a - b)).collect();
        let mut latencies: Vec<u64> =
            plain.samples.iter().chain(&spanned.samples).map(|s| s.latency_ns).collect();
        if latencies.is_empty() || plain.answered_queries == 0 {
            return Err("no operation completed inside the traced window".into());
        }
        latencies.sort_unstable();
        let stall = 3 * nearest_rank(&latencies, 50.0);
        let stalled_ops = latencies.iter().filter(|&&ns| ns > stall).count() as u64;
        let trace_overhead_pct = (plain.qps() - spanned.qps()) / plain.qps() * 100.0;

        // The onion replay, in rounds: the schedule replayed for a stage's length at the
        // client call, then at each deeper level in turn. Two rounds keep a drift in the
        // host's speed from landing on one level alone, and a stage is long enough that
        // the caches and the idle core the stage before it left behind cost it little.
        let serving = clients[0].as_mut();
        let mut levels = serving.levels();
        let mut onion = ClientLog::default();
        // What each span name contributed to the blocking path, in first-seen order.
        let mut totals: Vec<SpanTotal> = Vec::new();
        let mut add = |name: &'static str, parent: Option<&'static str>, span: &Span| {
            let at = totals.iter().position(|t| t.name == name).unwrap_or_else(|| {
                totals.push(SpanTotal { name, parent, ns: 0.0, spans: 0 });
                totals.len() - 1
            });
            totals[at].ns += span.effective_ns();
            totals[at].spans += 1;
        };
        let stage = self.window((1.0 - TRAFFIC_SHARE) / (ONION_ROUNDS * (levels.len() + 1)) as f64);
        let mut calls = 0;
        for _ in 0..ONION_ROUNDS {
            // The latest span of each name for every operation of the cycle: where the
            // same operation one layer further in hangs its span. A failed call leaves
            // none.
            let mut ids: Vec<Vec<(&'static str, u32)>> = vec![Vec::new(); cycle];
            calls += whole_cycles(calls, cycle, stage, |op| {
                let start = Instant::now();
                let reply = serving.call(op);
                let end = Instant::now();
                let done_at = Duration::ZERO;
                let phases = onion.settle(serving, op, op < cycle, done_at, end - start, reply);
                let call = phases.map(|phases| Call { index: op, start, end, phases });
                let spans = call.map_or(Vec::new(), |call| record_call(&mut trace, root, &call));
                for (i, (name, id)) in spans.iter().enumerate() {
                    add(name, (i > 0).then_some(root), &trace.spans[*id as usize]);
                }
                ids[op % cycle] = spans;
            });
            for level in &mut levels {
                whole_cycles(0, cycle, stage, |op| {
                    let start = Instant::now();
                    (level.run)(op);
                    let end = Instant::now();
                    let spans = &mut ids[op % cycle];
                    let parent = spans.iter().find(|(n, _)| *n == level.parent).map(|(_, id)| *id);
                    let id = trace.record(parent, level.name, op, start, end, level.workers);
                    match spans.iter_mut().find(|(n, _)| *n == level.name) {
                        Some(latest) => latest.1 = id,
                        None => spans.push((level.name, id)),
                    }
                    add(level.name, Some(level.parent), &trace.spans[id as usize]);
                });
            }
        }

        // The budget: one node per span name, holding its mean duration per operation.
        let names: Vec<&'static str> = totals.iter().map(|t| t.name).collect();
        let parents: Vec<Option<usize>> = totals
            .iter()
            .map(|t| t.parent.and_then(|p| names.iter().position(|n| *n == p)))
            .collect();
        let durations: Vec<f64> = totals.iter().map(|t| t.ns / t.spans as f64 / 1e3).collect();
        let own = self_times(&durations, &parents);
        let budget = Json::Arr(
            names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    Json::obj([
                        ("span", Json::str(*name)),
                        ("layer", Json::str(name.split('.').next().unwrap_or(name))),
                        ("parent", parents[i].map_or(Json::Null, |p| Json::str(names[p]))),
                        ("mean_us", Json::Num(durations[i])),
                        ("self_us", Json::Num(own[i])),
                    ])
                })
                .collect(),
        );

        let span_us: BTreeMap<&'static str, f64> =
            names.iter().copied().zip(durations.iter().copied()).collect();
        let mut layers = serving.layer_metrics(&Observed {
            report,
            span_us: &span_us,
            counted: &counted,
            traffic_ops: plain.ops + spanned.ops,
            stalled_ops,
        });
        layers.push(("bench.trace_overhead_pct", trace_overhead_pct));
        layers.push(("bench.unaccounted_us", unaccounted(&durations, &parents).abs()));

        let mut log = plain;
        log.absorb(spanned, false);
        log.absorb(onion, false);
        Ok((log, layers, budget, trace))
    }

    /// What every pass reports beside its metrics. The spin calibrations were taken
    /// right before and right after the measured part of the pass.
    fn detail(
        &self,
        threads: &[(&'static str, u64)],
        spin_before: f64,
        spin_after: f64,
    ) -> Vec<(String, Json)> {
        let inputs = &self.inputs;
        let drift = host::spin_drift(spin_before, spin_after);
        vec![
            ("workload".into(), Json::str(self.config.workload.name)),
            ("trace".into(), Json::Bool(self.config.trace)),
            ("seed".into(), Json::Num(self.config.seed as f64)),
            ("seconds".into(), Json::Num(self.config.seconds)),
            (
                "schedule_hash".into(),
                Json::str(inputs.schedule.hash(
                    self.config.workload.name,
                    self.config.seed,
                    &inputs.shape(),
                )),
            ),
            ("threads".into(), Json::obj(threads.iter().map(|(k, v)| (*k, Json::Num(*v as f64))))),
            ("spin_ns_before".into(), Json::Num(spin_before)),
            ("spin_ns_after".into(), Json::Num(spin_after)),
            ("unstable".into(), Json::Bool(drift > host::MAX_SPIN_DRIFT)),
        ]
    }
}

/// The spans of one name in the onion replay.
struct SpanTotal {
    name: &'static str,
    /// The name of the span these nest under.
    parent: Option<&'static str>,
    /// Nanoseconds they contributed to the blocking path.
    ns: f64,
    spans: u64,
}

/// Calls `each(op)` for whole cycles of the schedule from operation `first` on, until
/// `at_least` has passed; returns how many operations that made.
fn whole_cycles(
    first: usize,
    cycle: usize,
    at_least: Duration,
    mut each: impl FnMut(usize),
) -> usize {
    let began = Instant::now();
    let mut made = 0;
    while made == 0 || began.elapsed() < at_least {
        for op in first + made..first + made + cycle {
            each(op);
        }
        made += cycle;
    }
    made
}

/// Records a client call's span and, under it, the phases the call timed inside
/// itself; returns the ids by span name.
fn record_call(trace: &mut Trace, root: &'static str, call: &Call) -> Vec<(&'static str, u32)> {
    let id = trace.record(None, root, call.index, call.start, call.end, 1);
    let mut ids = vec![(root, id)];
    let mut at = call.start;
    for &(name, ns) in &call.phases {
        let end = at + Duration::from_nanos(ns);
        ids.push((name, trace.record(Some(id), name, call.index, at, end, 1)));
        at = end;
    }
    ids
}

fn finish_all(clients: Vec<Box<dyn Serving>>) {
    // Later clients first: the first one owns the server.
    for client in clients.into_iter().rev() {
        client.finish();
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

/// One completed client call, kept when a pass records spans.
struct Call {
    index: usize,
    start: Instant,
    end: Instant,
    /// Named sub-spans the call measured inside itself, in nanoseconds.
    phases: Vec<(&'static str, u64)>,
}

/// One client call as the loop measured it.
struct Sample {
    /// When the call completed, on the client's measured clock (pauses taken out).
    done_at: Duration,
    latency_ns: u64,
    /// Queries it answered correctly.
    answered: u64,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Oracle neighbours found / there were, over first cycles and checkpoints.
    recall_hits: u64,
    recall_total: u64,
    /// Correct answers that broke an exact distance tie differently from the oracle.
    tie_breaks: u64,
    ops: u64,
    /// Operations that errored or returned a missing, shed or wrong answer.
    failed_ops: u64,
    answered_queries: u64,
    checkpoints: u64,
    /// Wall time of the loop with checkpoints taken out.
    measured: Duration,
    calls: Vec<Call>,
    errors: Vec<String>,
}

impl ClientLog {
    fn outcome(
        &self,
        metrics: Vec<(&'static str, f64, &'static str)>,
        mut detail: Vec<(String, Json)>,
    ) -> Outcome {
        detail.push(("errors".into(), Json::Arr(self.errors.iter().map(Json::str).collect())));
        Outcome { attempted: self.ops, failed: self.failed_ops, metrics, detail: Json::Obj(detail) }
    }

    fn qps(&self) -> f64 {
        self.answered_queries as f64 / self.measured.as_secs_f64()
    }

    fn fail(&mut self, message: String) {
        self.failed_ops += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Books one client call that took `latency` and completed at `done_at` on the
    /// client's measured clock, and — with the clock stopped — the verdict on its
    /// reply. Recall is scored only where `score_recall` says so. Returns the phases of
    /// a call that succeeded.
    fn settle(
        &mut self,
        serving: &mut dyn Serving,
        index: usize,
        score_recall: bool,
        done_at: Duration,
        latency: Duration,
        reply: Result<Reply, String>,
    ) -> Option<Vec<(&'static str, u64)>> {
        self.samples.push(Sample { done_at, latency_ns: latency.as_nanos() as u64, answered: 0 });
        self.ops += 1;
        match reply {
            Ok(reply) => {
                let verdict = serving.check(index, &reply);
                if score_recall {
                    self.recall_hits += verdict.recall_hits;
                    self.recall_total += verdict.recall_total;
                }
                self.tie_breaks += verdict.tie_breaks;
                let answered = verdict.queries - verdict.wrong;
                self.answered_queries += answered;
                self.samples.last_mut().expect("pushed above").answered = answered;
                if verdict.wrong > 0 {
                    self.fail(format!(
                        "op {index}: {} of {} answers wrong",
                        verdict.wrong, verdict.queries
                    ));
                }
                Some(reply.phases)
            }
            Err(e) => {
                self.fail(format!("op {index}: {e}"));
                None
            }
        }
    }

    /// Adds another log's counts. Clients that ran `side_by_side` shared one window
    /// (the longest counts); logs taken one after the other add their windows up.
    fn absorb(&mut self, log: ClientLog, side_by_side: bool) {
        self.samples.extend(log.samples);
        self.recall_hits += log.recall_hits;
        self.recall_total += log.recall_total;
        self.tie_breaks += log.tie_breaks;
        self.ops += log.ops;
        self.failed_ops += log.failed_ops;
        self.answered_queries += log.answered_queries;
        self.checkpoints += log.checkpoints;
        self.measured = if side_by_side {
            self.measured.max(log.measured)
        } else {
            self.measured + log.measured
        };
        self.calls.extend(log.calls);
        self.errors.extend(log.errors);
    }
}

/// What the quiet slices of the timed window measured.
struct Quiet {
    qps: f64,
    p50_us: f64,
    tail_us: f64,
    /// Slices kept, and the latency samples in them.
    slices: usize,
    samples: usize,
}

/// Cuts the window into [`SLICES`] equal slices by when each call completed (calls that
/// completed after it closed belong to none), keeps the [`QUIET_SLICES`] slices with the
/// highest throughput and returns the throughput, the median latency and the tail latency
/// of the calls in them, pooled. On a shared host a neighbour only ever slows the
/// program down, so its fastest slices are the ones that measured the program and not
/// the neighbour: a disturbance has to cover five sixths of the window before it moves
/// these numbers, where it moves a whole-window mean or tail at once and a median over
/// slices once it covers half. A slice (about half a second of a 20-second window) holds at
/// least a whole cycle of the schedule and, on the live tier, overlaps a background
/// compaction wherever it falls, so the choice cannot favour cheap operations. `None`
/// when no call completed inside the window.
fn quiet_slices(samples: &[Sample], window: Duration) -> Option<Quiet> {
    let mut in_order: Vec<&Sample> = samples.iter().collect();
    in_order.sort_by_key(|s| s.done_at);
    let length = window / SLICES as u32;
    // (queries answered, seconds, latencies) of every slice a call completed in. A slice
    // runs from the completion before its first call to that of its last, so its
    // throughput is exact and not a count over a rounded length — and a stall that
    // leaves a slice empty lengthens the next one.
    let mut slices: Vec<(u64, f64, Vec<u64>)> = Vec::with_capacity(SLICES);
    let mut opened = Duration::ZERO;
    let mut rest = in_order.as_slice();
    for s in 1..=SLICES as u32 {
        let calls = rest.partition_point(|sample| sample.done_at < length * s);
        let (slice, later) = rest.split_at(calls);
        rest = later;
        let Some(last) = slice.last() else { continue };
        let seconds = (last.done_at - opened).as_secs_f64();
        opened = last.done_at;
        if seconds > 0.0 {
            let answered = slice.iter().map(|sample| sample.answered).sum();
            slices.push((answered, seconds, slice.iter().map(|s| s.latency_ns).collect()));
        }
    }
    slices.sort_by(|a, b| (b.0 as f64 / b.1).total_cmp(&(a.0 as f64 / a.1)));
    slices.truncate(QUIET_SLICES);
    let answered: u64 = slices.iter().map(|(answered, _, _)| answered).sum();
    let seconds: f64 = slices.iter().map(|(_, seconds, _)| seconds).sum();
    let mut latencies: Vec<u64> = slices.iter().flat_map(|(_, _, l)| l.iter().copied()).collect();
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    Some(Quiet {
        qps: answered as f64 / seconds,
        p50_us: nearest_rank(&latencies, 50.0) as f64 / 1e3,
        tail_us: nearest_rank(&latencies, TAIL_PERCENTILE) as f64 / 1e3,
        slices: slices.len(),
        samples: latencies.len(),
    })
}

/// The workload's own traffic for `window`: every client a closed loop in a thread of
/// its own, each starting at its own offset into the schedule's cycle.
fn traffic(
    clients: &mut [Box<dyn Serving>],
    cycle: usize,
    window: Duration,
    checkpoints: usize,
    keep_calls: bool,
) -> ClientLog {
    let count = clients.len();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let first_op = c * cycle / count;
                scope.spawn(move || {
                    drive(client.as_mut(), first_op, cycle, window, checkpoints, keep_calls)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = ClientLog::default();
    for log in logs {
        all.absorb(log, true);
    }
    all
}

/// Drives one closed-loop client for `window`: each call waits for its reply before
/// the next is made. Latency is the harness's own `Instant` pair around the call;
/// judging the reply and the `checkpoints` full-state checks (spread evenly over the
/// window, the last one on the final state) run with the clock paused.
fn drive(
    serving: &mut dyn Serving,
    first_op: usize,
    cycle: usize,
    window: Duration,
    mut checkpoints: usize,
    keep_calls: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let began = Instant::now();
    let mut paused = Duration::ZERO;
    let mut done = 0usize;
    while done == 0 || began.elapsed() - paused < window {
        let index = first_op + done;
        let start = Instant::now();
        let reply = serving.call(index);
        let end = Instant::now();
        done += 1;
        // Recall is scored over the client's first cycle only — every pool query
        // exactly once — so it repeats exactly however far a run gets.
        let judging = Instant::now();
        let done_at = end - began - paused;
        let phases = log.settle(serving, index, done <= cycle, done_at, end - start, reply);
        if let (true, Some(phases)) = (keep_calls, phases) {
            log.calls.push(Call { index, start, end, phases });
        }
        paused += judging.elapsed();
        // The k-th of N checkpoints falls due once k/N of the window is measured.
        let due = log.checkpoints as u32 + 1;
        if (due as usize) < checkpoints
            && began.elapsed() - paused >= window.mul_f64(f64::from(due) / checkpoints as f64)
            && !checkpoint(serving, &mut log, &mut paused)
        {
            checkpoints = 0;
        }
    }
    log.measured = began.elapsed() - paused;
    if checkpoints > 0 {
        checkpoint(serving, &mut log, &mut paused);
    }
    log
}

/// Runs one clock-paused full-state check; `false` when the workload has none.
fn checkpoint(serving: &mut dyn Serving, log: &mut ClientLog, paused: &mut Duration) -> bool {
    let start = Instant::now();
    let supported = match serving.checkpoint() {
        Ok(Some(verdict)) => {
            log.checkpoints += 1;
            log.recall_hits += verdict.recall_hits;
            log.recall_total += verdict.recall_total;
            log.tie_breaks += verdict.tie_breaks;
            if verdict.wrong > 0 {
                log.fail(format!(
                    "checkpoint {}: {} wrong answers",
                    log.checkpoints, verdict.wrong
                ));
            }
            true
        }
        Ok(None) => false,
        Err(e) => {
            log.fail(format!("checkpoint: {e}"));
            true
        }
    };
    *paused += start.elapsed();
    supported
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed loop of calls that each take `latency_ms` and answer 8 queries, from
    /// `from_ms` until `to_ms`.
    fn calls(from_ms: u64, to_ms: u64, latency_ms: u64) -> Vec<Sample> {
        (from_ms / latency_ms + 1..=to_ms / latency_ms)
            .map(|i| Sample {
                done_at: Duration::from_millis(i * latency_ms),
                latency_ns: latency_ms * 1_000_000,
                answered: 8,
            })
            .collect()
    }

    #[test]
    fn a_disturbance_over_two_thirds_of_the_window_does_not_move_the_quiet_slices() {
        let window = Duration::from_secs(36);
        let steady = quiet_slices(&calls(0, 36_000, 10), window).unwrap();
        assert!((steady.qps - 800.0).abs() < 1e-9, "{}", steady.qps);
        assert_eq!((steady.p50_us, steady.tail_us), (10_000.0, 10_000.0));
        assert_eq!(steady.slices, QUIET_SLICES);
        // A call that completes on a boundary opens the next slice.
        assert!((599..=600).contains(&steady.samples), "{}", steady.samples);

        // Twenty-four of the thirty-six seconds at a quarter of the speed: the whole
        // window answers 400 queries a second and a median over slices 200, the quiet
        // slices 800.
        let mut disturbed = calls(0, 4_000, 10);
        disturbed.extend(calls(4_000, 28_000, 40));
        disturbed.extend(calls(28_000, 36_000, 10));
        let quiet = quiet_slices(&disturbed, window).unwrap();
        assert!((quiet.qps - 800.0).abs() < 1e-9, "{}", quiet.qps);
        assert_eq!((quiet.p50_us, quiet.tail_us), (10_000.0, 10_000.0));
    }

    #[test]
    fn a_slice_without_a_completed_call_is_passed_over() {
        let window = Duration::from_secs(36);
        // Nothing completes in the last sixteen seconds.
        let stalled = quiet_slices(&calls(0, 20_000, 10), window).unwrap();
        assert!((stalled.qps - 800.0).abs() < 1e-9, "{}", stalled.qps);
        // A call that completes after the window closed belongs to no slice.
        let late = [Sample { done_at: Duration::from_millis(36_500), latency_ns: 1, answered: 8 }];
        assert!(quiet_slices(&late, window).is_none());
        assert!(quiet_slices(&[], window).is_none());
    }
}
