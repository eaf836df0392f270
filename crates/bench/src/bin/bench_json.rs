//! JSON benchmark harness: measures the three perf-critical paths
//! (simulator throughput, profiling, equilibrium solves) with plain
//! `Instant` timing and writes machine-readable baselines to
//! `BENCH_simulator.json`, `BENCH_profiling.json`,
//! `BENCH_equilibrium.json` and `BENCH_optimize.json`.
//!
//! Unlike the criterion-shim benches (which print human-oriented lines),
//! this binary exists so the repo can commit comparable numbers and CI
//! can smoke-test that the measured paths still run. Usage:
//!
//! ```text
//! bench_json [--tiny] [--out DIR] [--workers N]
//! ```
//!
//! `--tiny` shrinks every workload to smoke-test size (CI), `--out`
//! selects the output directory (default: current directory), and
//! `--workers` sets the worker count used for the parallel batch
//! profiling entry and the optimizer's batch solves (default 4).

use bench::{synthetic_feature, synthetic_power_model, synthetic_profile};
use cmpsim::engine::{simulate, EngineKind, Placement, SimOptions};
use cmpsim::machine::MachineConfig;
use cmpsim::process::ProcessSpec;
use mpmc_model::equilibrium;
use mpmc_model::feature::FeatureVector;
use mpmc_model::profile::{ProfileOptions, Profiler};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::spec::SpecWorkload;

/// One measured benchmark entry.
struct Entry {
    name: String,
    /// Fastest observed repetition (the least-noise floor).
    min_ns_per_op: f64,
    median_ns_per_op: f64,
    /// 90th-percentile repetition (tail stability).
    p90_ns_per_op: f64,
    /// Operations (iterations) per second implied by the median.
    ops_per_s: f64,
    /// Optional domain throughput, e.g. simulated accesses per second.
    throughput_unit: Option<&'static str>,
    throughput_per_s: Option<f64>,
    reps: usize,
}

/// min / median / p90 wall-clock seconds of one call across repetitions.
struct Timing {
    min_s: f64,
    median_s: f64,
    p90_s: f64,
}

struct Config {
    tiny: bool,
    out_dir: String,
    workers: usize,
}

fn parse_args() -> Config {
    let mut cfg = Config { tiny: false, out_dir: ".".to_string(), workers: 4 };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tiny" => cfg.tiny = true,
            "--out" => {
                if let Some(d) = args.next() {
                    cfg.out_dir = d;
                }
            }
            "--workers" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    cfg.workers = n;
                }
            }
            other => {
                eprintln!("bench_json: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Times `op` `reps` times and returns min/median/p90 wall-clock seconds
/// of one call. `units` is the number of domain operations one call
/// performs (for ns/op normalization).
fn measure<F: FnMut() -> u64>(reps: usize, mut op: F) -> (Timing, u64) {
    let mut times = Vec::with_capacity(reps);
    let mut units = 0u64;
    for _ in 0..reps {
        // Bench harness: timing the operation is the whole point.
        #[allow(clippy::disallowed_methods)]
        let start = Instant::now();
        units = op();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let timing = Timing {
        min_s: times[0],
        median_s: times[times.len() / 2],
        p90_s: times[(times.len() - 1) * 9 / 10],
    };
    (timing, units)
}

fn entry(
    name: impl Into<String>,
    timing: Timing,
    units: u64,
    unit: Option<&'static str>,
    reps: usize,
) -> Entry {
    let per_op = |s: f64| s / units.max(1) as f64;
    let median_per_op_s = per_op(timing.median_s);
    Entry {
        name: name.into(),
        min_ns_per_op: per_op(timing.min_s) * 1e9,
        median_ns_per_op: median_per_op_s * 1e9,
        p90_ns_per_op: per_op(timing.p90_s) * 1e9,
        ops_per_s: if median_per_op_s > 0.0 { 1.0 / median_per_op_s } else { 0.0 },
        throughput_unit: unit,
        throughput_per_s: unit.map(|_| {
            if timing.median_s > 0.0 {
                units as f64 / timing.median_s
            } else {
                0.0
            }
        }),
        reps,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The current `"entries"` array body of an existing suite file, so a
/// regeneration can keep the previous generation's numbers visible as
/// `"previous_entries"` (one generation of trajectory, never nested).
fn previous_entries(path: &str) -> Option<String> {
    let old = std::fs::read_to_string(path).ok()?;
    let start = old.find("\"entries\": [")? + "\"entries\": [".len();
    let end = start + old[start..].find("\n  ]")?;
    let body = old[start..end].trim_matches('\n');
    (!body.trim().is_empty()).then(|| body.to_string())
}

fn write_suite(cfg: &Config, suite: &str, entries: &[Entry]) {
    let path = format!("{}/BENCH_{}.json", cfg.out_dir, suite);
    let previous = previous_entries(&path);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"suite\": \"{}\",", json_escape(suite));
    let _ = writeln!(out, "  \"mode\": \"{}\",", if cfg.tiny { "tiny" } else { "full" });
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let mut fields = format!(
            "\"name\": \"{}\", \"min_ns_per_op\": {:.1}, \"median_ns_per_op\": {:.1}, \
             \"p90_ns_per_op\": {:.1}, \"ops_per_s\": {:.3}, \"reps\": {}",
            json_escape(&e.name),
            e.min_ns_per_op,
            e.median_ns_per_op,
            e.p90_ns_per_op,
            e.ops_per_s,
            e.reps
        );
        if let (Some(unit), Some(tp)) = (e.throughput_unit, e.throughput_per_s) {
            let _ = write!(
                fields,
                ", \"throughput_unit\": \"{}\", \"throughput_per_s\": {:.1}",
                unit, tp
            );
        }
        let _ = writeln!(out, "    {{ {fields} }}{comma}");
    }
    match previous {
        Some(body) => {
            let _ = writeln!(out, "  ],");
            let _ = writeln!(out, "  \"previous_entries\": [");
            let _ = writeln!(out, "{body}");
            let _ = writeln!(out, "  ]");
        }
        None => {
            let _ = writeln!(out, "  ]");
        }
    }
    let _ = writeln!(out, "}}");
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("bench_json: cannot create {}: {e}", cfg.out_dir);
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("bench_json: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    print!("{out}");
}

fn sim_co_run(
    machine: &MachineConfig,
    pairs: &[(usize, SpecWorkload)],
    duration_s: f64,
    engine: EngineKind,
) -> u64 {
    let mut pl = Placement::idle(machine.num_cores());
    for (i, &(core, w)) in pairs.iter().enumerate() {
        pl.assign(
            core,
            ProcessSpec::new(
                w.name(),
                Box::new(w.params().generator(machine.l2_sets, i as u64 + 1)),
            ),
        )
        .expect("core in range");
    }
    let r = simulate(
        machine,
        pl,
        SimOptions { duration_s, warmup_s: 0.0, seed: 1, engine, ..Default::default() },
    )
    .expect("simulate");
    r.processes.iter().map(|p| p.counters.l2_refs).sum()
}

fn bench_simulator(cfg: &Config) {
    let machine = MachineConfig::four_core_server();
    let duration = if cfg.tiny { 0.01 } else { 0.1 };
    let reps = if cfg.tiny { 3 } else { 9 };
    let pairs2 = [(0usize, SpecWorkload::Mcf), (1, SpecWorkload::Gzip)];
    let pairs4 = [
        (0usize, SpecWorkload::Mcf),
        (1, SpecWorkload::Gzip),
        (2, SpecWorkload::Art),
        (3, SpecWorkload::Twolf),
    ];
    // Both kernels are measured so a regeneration shows what switching
    // the default engine cost (or bought); results are bit-identical,
    // only the timing differs.
    let mut entries = Vec::new();
    for engine in [EngineKind::Events, EngineKind::Lockstep] {
        let (t2, a2) = measure(reps, || sim_co_run(&machine, &pairs2, duration, engine));
        entries.push(entry(
            format!("co_run_accesses/2@{}", engine.name()),
            t2,
            a2,
            Some("accesses/s"),
            reps,
        ));
        let (t4, a4) = measure(reps, || sim_co_run(&machine, &pairs4, duration, engine));
        entries.push(entry(
            format!("co_run_accesses/4@{}", engine.name()),
            t4,
            a4,
            Some("accesses/s"),
            reps,
        ));
    }
    write_suite(cfg, "simulator", &entries);
}

fn bench_profiling(cfg: &Config) {
    let machine =
        MachineConfig { l2_sets: 64, l2_assoc: 8, ..MachineConfig::two_core_workstation() };
    // Tiny mode still needs enough simulated time for a usable profile
    // (too-short runs yield no occupancy points).
    let duration = if cfg.tiny { 0.06 } else { 0.15 };
    let warmup = if cfg.tiny { 0.02 } else { 0.05 };
    let reps = if cfg.tiny { 2 } else { 5 };
    let opts = |workers| ProfileOptions {
        duration_s: duration,
        warmup_s: warmup,
        seed: 1,
        workers,
        ..Default::default()
    };
    let suite: Vec<_> =
        [SpecWorkload::Mcf, SpecWorkload::Gzip, SpecWorkload::Art, SpecWorkload::Twolf]
            .iter()
            .map(|w| w.params())
            .collect();
    let mut entries = Vec::new();

    let profiler1 = Profiler::new(machine.clone()).with_options(opts(1));
    let params = SpecWorkload::Twolf.params();
    let (ts, _) = measure(reps, || {
        profiler1.profile(&params).expect("profile");
        1
    });
    entries.push(entry("profile_single_8way_tiny", ts, 1, Some("profiles/s"), reps));

    let (t1, n1) = measure(reps, || profiler1.profile_batch(&suite).expect("batch").len() as u64);
    entries.push(entry("profile_batch/workers=1", t1, n1, Some("profiles/s"), reps));

    let profiler_n = Profiler::new(machine.clone()).with_options(opts(cfg.workers));
    let (tn, nn) = measure(reps, || profiler_n.profile_batch(&suite).expect("batch").len() as u64);
    entries.push(entry(
        format!("profile_batch/workers={}", cfg.workers),
        tn,
        nn,
        Some("profiles/s"),
        reps,
    ));

    write_suite(cfg, "profiling", &entries);
}

fn bench_equilibrium(cfg: &Config) {
    let machine = MachineConfig::four_core_server();
    // Enough repetitions for a stable median and a meaningful p90; the
    // solver is fast enough now that reps are cheap.
    let reps = if cfg.tiny { 3 } else { 25 };
    let iters = if cfg.tiny { 20u64 } else { 400 };
    let mut entries = Vec::new();
    for k in [2usize, 3, 4] {
        let feats: Vec<FeatureVector> = (0..k)
            .map(|i| {
                synthetic_feature(
                    &format!("p{i}"),
                    &machine,
                    8 + 2 * i,
                    0.1 + 0.08 * i as f64,
                    0.005 + 0.01 * i as f64,
                )
            })
            .collect();
        let refs: Vec<&FeatureVector> = feats.iter().collect();
        let (tb, nb) = measure(reps, || {
            for _ in 0..iters {
                equilibrium::solve(&refs, 16).expect("solve");
            }
            iters
        });
        entries.push(entry(format!("bisection/{k}"), tb, nb, Some("solves/s"), reps));
        let (tn, nn) = measure(reps, || {
            for _ in 0..iters {
                equilibrium::solve_newton(&refs, 16).expect("solve");
            }
            iters
        });
        entries.push(entry(format!("newton/{k}"), tn, nn, Some("solves/s"), reps));
    }
    // Batched solving: 16 distinct three-way co-run sets through
    // solve_batch (shared scratch, single pass) vs one solve per set.
    let batch_feats: Vec<FeatureVector> = (0..8)
        .map(|i| {
            synthetic_feature(
                &format!("q{i}"),
                &machine,
                6 + i,
                0.08 + 0.05 * i as f64,
                0.004 + 0.006 * i as f64,
            )
        })
        .collect();
    let batch_sets: Vec<equilibrium::CorunSet<'_>> = (0..16)
        .map(|i| equilibrium::CorunSet {
            features: vec![
                &batch_feats[i % 8],
                &batch_feats[(i + 3) % 8],
                &batch_feats[(i + 5) % 8],
            ],
        })
        .collect();
    let batch_iters = iters / 10;
    let (tb, nb) = measure(reps, || {
        for _ in 0..batch_iters.max(1) {
            equilibrium::solve_batch(&batch_sets, 16).expect("batch solve");
        }
        batch_iters.max(1) * batch_sets.len() as u64
    });
    entries.push(entry("newton_batch_16x3", tb, nb, Some("solves/s"), reps));

    let (tf, nf) = measure(reps, || {
        for _ in 0..iters {
            std::hint::black_box(synthetic_feature("p", &machine, 12, 0.15, 0.02));
        }
        iters
    });
    entries.push(entry("feature_vector_construction", tf, nf, Some("features/s"), reps));
    write_suite(cfg, "equilibrium", &entries);
}

fn bench_optimize(cfg: &Config) {
    use mathkit::sync::CancelToken;
    use mpmc_model::assignment::CombinedModel;
    use mpmc_model::optimize::{self, Objective, OptimizeOptions};

    let machine = MachineConfig::four_core_server();
    // Seeded synthetic instance: varied reuse tails and access rates so
    // placements genuinely differ in power and makespan.
    let profiles: Vec<_> = (0..12)
        .map(|i| {
            synthetic_profile(
                &format!("p{i}"),
                &machine,
                0.08 + 0.06 * (i % 5) as f64,
                0.004 + 0.005 * (i % 4) as f64,
            )
        })
        .collect();
    let power = synthetic_power_model(&machine, 64);
    let combined = CombinedModel::new(&machine, &power);
    let cancel = CancelToken::never();
    let reps = if cfg.tiny { 3 } else { 9 };
    // Eight processes in both modes: CI gates the tiny run's exact
    // search throughput against the committed full-mode number.
    let n_exact = 8;
    let exact_procs: Vec<usize> = (0..n_exact).collect();
    let local_procs: Vec<usize> = (0..profiles.len()).collect();
    let mut entries = Vec::new();

    // Time-to-solution of the exact branch-and-bound engine (the path
    // `mpmc assign --optimize` takes on small machines).
    let exact_opts = OptimizeOptions { workers: cfg.workers, ..OptimizeOptions::default() };
    for objective in [Objective::MinPower, Objective::MinMakespan] {
        let spec = objective.spec().replace(':', "_");
        let (t, _) = measure(reps, || {
            optimize::optimize(&combined, &profiles, &exact_procs, objective, &exact_opts, &cancel)
                .expect("optimize");
            1
        });
        entries.push(entry(format!("exact_4c{n_exact}p/{spec}"), t, 1, Some("searches/s"), reps));
    }

    // Seeded local search on an instance the exact engine would not be
    // asked to enumerate (leaf limit 0 forces the large-machine path).
    let local_opts = OptimizeOptions {
        workers: cfg.workers,
        exhaustive_leaf_limit: 0,
        ..OptimizeOptions::default()
    };
    let (tl, _) = measure(reps, || {
        optimize::optimize(
            &combined,
            &profiles,
            &local_procs,
            Objective::MinPower,
            &local_opts,
            &cancel,
        )
        .expect("local search");
        1
    });
    entries.push(entry(
        format!("local_search_4c{}p/power", local_procs.len()),
        tl,
        1,
        Some("searches/s"),
        reps,
    ));

    // Best-found-vs-exhaustive gap on the seeded exact-size instance:
    // run the local search where brute force is still affordable and
    // report the power ratio (1.000 = the heuristic found the optimum).
    // The ratio rides in the throughput field so the min/median/p90
    // columns keep their time-to-solution meaning.
    let exhaustive =
        optimize::brute_force(&combined, &profiles, &exact_procs, Objective::MinPower, &cancel)
            .expect("brute force");
    let heuristic = optimize::optimize(
        &combined,
        &profiles,
        &exact_procs,
        Objective::MinPower,
        &local_opts,
        &cancel,
    )
    .expect("local search");
    let (tg, _) = measure(reps, || {
        optimize::brute_force(&combined, &profiles, &exact_procs, Objective::MinPower, &cancel)
            .expect("brute force");
        1
    });
    let mut gap_entry =
        entry(format!("brute_force_4c{n_exact}p/power"), tg, 1, Some("x_exhaustive_power"), reps);
    gap_entry.throughput_per_s = Some(heuristic.power_w / exhaustive.power_w.max(1e-12));
    entries.push(gap_entry);

    write_suite(cfg, "optimize", &entries);
}

fn main() {
    let cfg = parse_args();
    bench_simulator(&cfg);
    bench_profiling(&cfg);
    bench_equilibrium(&cfg);
    bench_optimize(&cfg);
}
