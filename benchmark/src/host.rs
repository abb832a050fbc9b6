//! What the benchmark records about the machine it ran on, and the spin-loop
//! calibration that tells a quiet host from a disturbed one.

use std::hint::black_box;
use std::time::Instant;

use crate::schedule::splitmix64;

pub const RUSTC: &str = env!("P2H_BENCH_RUSTC");

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

const SPIN_ITERATIONS: u64 = 1_000_000;
/// Consecutive tries that must fail to beat the fastest one before it is believed.
const SPIN_SETTLED_AFTER: usize = 100;
/// Tries at most (~1 s).
const SPIN_TRIES: usize = 1_000;

/// Nanoseconds per 1 000 iterations of a fixed dependent-arithmetic loop, on every
/// core at once (the workloads keep every core busy, and a core alone clocks higher):
/// the mean over the cores of each one's fastest try (~1 ms each), which a passing
/// disturbance cannot move. A core goes on until a hundred tries in a row have not been
/// faster — one that was idle needs tens of milliseconds to reach its clock, and a
/// calibration that stops earlier reads that ramp as a drift. The same loop before and
/// after a run should take the same time; a drift means the host's speed changed
/// under the measurement.
pub fn spin_ns() -> f64 {
    let cores = nproc();
    let fastest: Vec<f64> = std::thread::scope(|scope| {
        let spinners: Vec<_> = (0..cores).map(|_| scope.spawn(fastest_spin_ns)).collect();
        spinners.into_iter().map(|s| s.join().expect("spin thread panicked")).collect()
    });
    fastest.iter().sum::<f64>() / cores as f64
}

fn fastest_spin_ns() -> f64 {
    let mut fastest = f64::INFINITY;
    let mut since_faster = 0;
    for _ in 0..SPIN_TRIES {
        let mut state = 0x5EED_u64;
        let start = Instant::now();
        for _ in 0..SPIN_ITERATIONS {
            black_box(splitmix64(&mut state));
        }
        let ns = start.elapsed().as_nanos() as f64 / (SPIN_ITERATIONS / 1_000) as f64;
        // A try within 1 % of the fastest is the same speed, not a faster one.
        if ns < fastest * 0.99 {
            since_faster = 0;
        } else {
            since_faster += 1;
        }
        fastest = fastest.min(ns);
        if since_faster >= SPIN_SETTLED_AFTER {
            break;
        }
    }
    fastest
}

/// Relative drift between two calibrations beyond which a run is marked unstable.
pub const MAX_SPIN_DRIFT: f64 = 0.10;

pub fn spin_drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.max(f64::MIN_POSITIVE)
}
