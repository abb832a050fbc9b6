//! Spans recorded by the harness around its calls into each layer, held in memory and
//! written out when the run ends, plus the self-time arithmetic of the layer budget.
//!
//! The spans come from an *onion replay*: the program has no spans of its own yet, so
//! the same operations are replayed at successively deeper public entry points and a
//! child span's `parent` is the same operation one layer further out. Parent and
//! child therefore ran at different wall-clock times; what links them is the
//! operation, and a layer's self time is its duration minus its children's durations.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Index of the operation in the run's schedule.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Threads the real system spreads this span's work over. A replay that runs the
    /// work on one thread counts `(end - start) / workers` towards the budget.
    pub workers: u32,
}

impl Span {
    /// The duration this span contributes to the blocking path, in nanoseconds.
    pub fn effective_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / f64::from(self.workers.max(1))
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        op: usize,
        start: Instant,
        end: Instant,
        workers: usize,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            op: op as u32,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            workers: workers as u32,
        });
        id
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                        ("name", Json::str(s.name)),
                        ("op", Json::Num(f64::from(s.op))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("workers", Json::Num(f64::from(s.workers))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every node of a span tree given as parallel arrays: a node's duration
/// minus the durations of its direct children, clamped at zero (a child replayed
/// alone can measure longer than it costs inside its parent). Unclamped, the self
/// times of a tree sum to its root's duration; [`unaccounted`] reports what clamping
/// broke.
pub fn self_times(durations: &[f64], parents: &[Option<usize>]) -> Vec<f64> {
    assert_eq!(durations.len(), parents.len());
    let mut children = vec![0.0; durations.len()];
    for (node, parent) in parents.iter().enumerate() {
        if let Some(p) = parent {
            children[*p] += durations[node];
        }
    }
    durations.iter().zip(&children).map(|(own, kids)| (own - kids).max(0.0)).collect()
}

/// Root duration minus the sum of all self times — zero when the budget telescopes
/// exactly, negative by the amount inner layers measured longer than their parents.
pub fn unaccounted(durations: &[f64], parents: &[Option<usize>]) -> f64 {
    let root: f64 =
        durations.iter().zip(parents).filter(|(_, p)| p.is_none()).map(|(d, _)| *d).sum();
    root - self_times(durations, parents).iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_a_chain_telescope_to_the_root() {
        // client 1400 -> engine 900 -> executor 850 -> search 600 -> kernel 450
        let durations = [1400.0, 900.0, 850.0, 600.0, 450.0];
        let parents = [None, Some(0), Some(1), Some(2), Some(3)];
        let own = self_times(&durations, &parents);
        assert_eq!(own, vec![500.0, 50.0, 250.0, 150.0, 450.0]);
        assert_eq!(own.iter().sum::<f64>(), durations[0]);
        assert_eq!(unaccounted(&durations, &parents), 0.0);
    }

    #[test]
    fn self_times_of_a_branching_tree_sum_to_the_root() {
        // round 7000 -> {query 6000 -> search 5800, delete 700, insert 250}
        let durations = [7000.0, 6000.0, 5800.0, 700.0, 250.0];
        let parents = [None, Some(0), Some(1), Some(0), Some(0)];
        let own = self_times(&durations, &parents);
        assert_eq!(own, vec![50.0, 200.0, 5800.0, 700.0, 250.0]);
        assert_eq!(own.iter().sum::<f64>(), 7000.0);
    }

    #[test]
    fn an_inner_layer_longer_than_its_parent_shows_as_unaccounted() {
        let durations = [100.0, 120.0];
        let parents = [None, Some(0)];
        assert_eq!(self_times(&durations, &parents), vec![0.0, 120.0]);
        assert_eq!(unaccounted(&durations, &parents), -20.0);
    }

    #[test]
    fn a_sequential_replay_of_parallel_work_counts_its_share() {
        let mut trace = Trace::new();
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(800);
        let root = trace.record(None, "engine.serve", 3, start, end, 1);
        let child = trace.record(Some(root), "bctree.search", 3, start, end, 2);
        assert_eq!(trace.spans[child as usize].parent, Some(root));
        assert_eq!(trace.spans[root as usize].effective_ns(), 800_000.0);
        assert_eq!(trace.spans[child as usize].effective_ns(), 400_000.0);
        let dumped = trace.to_json();
        assert_eq!(dumped.as_arr().unwrap().len(), 2);
        assert_eq!(dumped.as_arr().unwrap()[1].get("op").unwrap().as_f64(), Some(3.0));
    }
}
