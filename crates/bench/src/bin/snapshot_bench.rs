//! Load-vs-rebuild: how much faster a serving process cold-starts from `p2h-store`
//! snapshots than by rebuilding its indexes from raw points — and how much faster
//! still when the snapshot is memory-mapped instead of copied.
//!
//! For each tree index the binary measures (1) the in-process build time, (2) the time
//! to snapshot it to disk, (3) the time to load + validate the snapshot back under
//! **both** load modes — `LoadMode::Copy` (read + decode every array into fresh heap)
//! and `LoadMode::Mmap` (map the file, serve the arrays zero-copy out of the mapping)
//! — and the snapshot file size; it then verifies that both loaded copies answer a
//! query batch **bit-identically** to the original. With `--check` a result mismatch
//! (or any snapshot error) exits non-zero, which is how CI runs it against the
//! forced-scalar kernel path.
//!
//! ```text
//! cargo run --release --bin snapshot_bench -- [--n N] [--dim D] [--queries Q]
//!     [--k K] [--check] [--out DIR]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use p2h_balltree::{BallTree, BallTreeBuilder, BcTree, BcTreeBuilder};
use p2h_bench::serving::{bit_identical, clustered_dataset, serving_queries};
use p2h_core::{kernels, HyperplaneQuery, P2hIndex, PointSet, SearchParams, SearchResult};
use p2h_engine::{BatchRequest, Engine};
use p2h_eval::{markdown_table, write_csv};
use p2h_store::{LoadMode, Snapshot, Store};

struct Config {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    check: bool,
    out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            n: 200_000,
            dim: 64,
            queries: 64,
            k: 10,
            check: false,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();

        fn take(args: &[String], i: &mut usize, name: &str) -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value for {name}")).clone()
        }

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--n" => cfg.n = take(&args, &mut i, "--n").parse().expect("--n: integer"),
                "--dim" => cfg.dim = take(&args, &mut i, "--dim").parse().expect("--dim: integer"),
                "--queries" => {
                    cfg.queries =
                        take(&args, &mut i, "--queries").parse().expect("--queries: integer")
                }
                "--k" => cfg.k = take(&args, &mut i, "--k").parse().expect("--k: integer"),
                "--check" => cfg.check = true,
                "--out" => cfg.out_dir = PathBuf::from(take(&args, &mut i, "--out")),
                other => {
                    eprintln!(
                        "unknown flag `{other}`; flags: --n --dim --queries --k --check --out"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        cfg
    }
}

fn answers(index: &dyn P2hIndex, queries: &[HyperplaneQuery], k: usize) -> Vec<SearchResult> {
    queries.iter().map(|q| index.search(q, &SearchParams::exact(k))).collect()
}

struct Row {
    label: &'static str,
    build_s: f64,
    save_s: f64,
    load_copy_s: f64,
    load_mmap_s: f64,
    file_mb: f64,
    identical: bool,
}

fn bench_index<S, F>(
    label: &'static str,
    store: &Store,
    name: &str,
    build: F,
    queries: &[HyperplaneQuery],
    k: usize,
) -> Row
where
    S: Snapshot,
    F: FnOnce() -> S,
{
    let start = Instant::now();
    let index = build();
    let build_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let path = store.save(name, &index).expect("snapshot save");
    let save_s = start.elapsed().as_secs_f64();
    let file_mb = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;

    let copy_store = store.clone().with_mode(LoadMode::Copy);
    let start = Instant::now();
    let loaded_copy: S = copy_store.load(name).expect("snapshot load (copy)");
    let load_copy_s = start.elapsed().as_secs_f64();

    let mmap_store = store.clone().with_mode(LoadMode::Mmap);
    let start = Instant::now();
    let loaded_mmap: S = mmap_store.load(name).expect("snapshot load (mmap)");
    let load_mmap_s = start.elapsed().as_secs_f64();

    let reference = answers(&index, queries, k);
    let same = bit_identical(&reference, &answers(&loaded_copy, queries, k))
        && bit_identical(&reference, &answers(&loaded_mmap, queries, k));
    Row { label, build_s, save_s, load_copy_s, load_mmap_s, file_mb, identical: same }
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "# snapshot_bench — load vs rebuild, copy vs mmap (n = {}, dim = {}, kernel backend: {})\n",
        cfg.n,
        cfg.dim,
        kernels::active_backend().label()
    );

    let points: PointSet = clustered_dataset("snapshot-bench", cfg.n, cfg.dim);
    let queries = serving_queries(&points, cfg.queries);

    let dir = cfg.out_dir.join("snapshot-store");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");

    let rows = [
        bench_index::<BallTree, _>(
            "Ball-Tree",
            &store,
            "ball",
            || BallTreeBuilder::new(100).with_seed(1).build(&points).expect("build"),
            &queries,
            cfg.k,
        ),
        bench_index::<BcTree, _>(
            "BC-Tree",
            &store,
            "bc",
            || BcTreeBuilder::new(100).with_seed(1).build(&points).expect("build"),
            &queries,
            cfg.k,
        ),
    ];

    let headers = [
        "index",
        "build (s)",
        "save (s)",
        "load copy (s)",
        "load mmap (s)",
        "file (MB)",
        "copy speedup",
        "mmap speedup",
        "bit-identical",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.3}", r.build_s),
                format!("{:.3}", r.save_s),
                format!("{:.3}", r.load_copy_s),
                format!("{:.3}", r.load_mmap_s),
                format!("{:.1}", r.file_mb),
                format!("{:.1}x", r.build_s / r.load_copy_s.max(1e-9)),
                format!("{:.1}x", r.build_s / r.load_mmap_s.max(1e-9)),
                if r.identical { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!("{}", markdown_table(&headers, &table));

    std::fs::create_dir_all(&cfg.out_dir).expect("create out dir");
    write_csv(&cfg.out_dir.join("snapshot_bench.csv"), &headers, &table).expect("write csv");
    println!("\ncsv written to {}", cfg.out_dir.join("snapshot_bench.csv").display());

    if rows.iter().any(|r| !r.identical) {
        eprintln!(
            "FAILED: a loaded index (copy or mmap) returned different answers than the original"
        );
        std::process::exit(1);
    }

    // Serve the snapshotted indexes through the engine — the instrumented (and, with
    // `P2H_TRACE` set, traced) production path — and verify serving changes nothing.
    let engine = Engine::from_store(&dir, 1).expect("cold-start engine from bench store");
    let request = BatchRequest::new(queries.clone(), SearchParams::exact(cfg.k));
    let mut serve_identical = true;
    for name in ["ball", "bc"] {
        let response = engine.serve(name, &request).expect("serve bench batch");
        let index = engine.registry().get(name).expect("registered index");
        let reference = answers(index.as_ref(), &queries, cfg.k);
        serve_identical &= bit_identical(&reference, &response.results);
    }
    if !serve_identical {
        eprintln!("FAILED: engine serving returned different answers than direct search");
        std::process::exit(1);
    }

    println!("\n## metrics exposition (Prometheus text format)\n");
    println!("```\n{}```", engine.render_metrics());

    if cfg.check {
        println!("check passed: copy- and mmap-loaded indexes are bit-identical to the originals");
        println!("check passed: engine serving (traced or not) is bit-identical to direct search");
    }
}
