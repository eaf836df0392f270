//! `perfbench` — the end-to-end and per-layer benchmark of mpmc.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see README.md for why each was chosen):
//!
//! - `serve_hot`: closed-loop `estimate` requests over TCP, every answer
//!   an equilibrium-cache hit;
//! - `serve_churn`: closed-loop register/assign/estimate/unregister over
//!   TCP with a cache smaller than the co-run sets the run touches;
//! - `optimize_exact`: back-to-back exact min-power placement searches;
//! - `validate_full`: the full model-vs-simulator validation sweep.
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around each layer call and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it carries the run's context (seed, host parallelism, worker
//! counts, percentile sample counts).

#![forbid(unsafe_code)]
// Reading the wall clock is this program's purpose; the repository's
// clippy.toml bans it only where it could leak into model answers.
#![allow(clippy::disallowed_methods)]

mod fixtures;
mod optimize;
mod serve;
mod stats;
mod trace;
mod validate;

use mpmc_service::json::Json;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.wire_us", "us"),
    ("service.session_us", "us"),
    ("service.json_parse_us", "us"),
    ("service.json_render_us", "us"),
    ("service.shed", "count"),
    ("service.deadline_exceeded", "count"),
    ("service.singleflight_shared", "count"),
    ("service.breaker_trips", "count"),
    ("service.degraded", "count"),
    ("core.estimate_warm_us", "us"),
    ("core.estimate_solve_us", "us"),
    ("core.assign_candidates_us", "us"),
    ("core.equilibrium_solve_us", "us"),
    ("core.eqcache_hits", "count"),
    ("core.eqcache_misses", "count"),
    ("core.eqcache_evictions", "count"),
    ("core.eqcache_hit_ratio", "ratio"),
    ("core.solver_fallbacks", "count"),
    ("core.optimize_leaves", "count"),
    ("core.optimize_pruned", "count"),
    ("core.features_s", "s"),
    ("core.predict_s", "s"),
    ("cmpsim.simulate_s", "s"),
    ("cmpsim.accesses_per_s", "1/s"),
    ("cmpsim.lockstep_accesses_per_s", "1/s"),
    ("experiments.model_worst_spi_err_pct", "%"),
    ("unaccounted_us", "us"),
    ("unaccounted_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Worker threads given to every parallel call (`nproc` of the
/// reference host; results are bit-identical for any count).
pub const WORKERS: usize = 2;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Context for the human reader: sample counts, percentiles, worker
    /// counts, layer ledgers.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }
}

/// Durations of a run's set-ups. Host speed on a shared machine drifts
/// over seconds, so workloads with a short set-up repeat it between
/// timed operations too, and the median spans the whole run.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` `reps` times (at least once), recording each
    /// duration, and returns the last product. Earlier products are
    /// dropped before the next repetition starts.
    pub fn repeat<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> T {
        for _ in 1..reps {
            drop(self.time(&mut setup));
        }
        self.time(setup)
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let made = setup();
        self.0.push(start.elapsed().as_secs_f64());
        made
    }

    pub fn median(&self) -> f64 {
        stats::median(&self.0)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <serve_hot|serve_churn|optimize_exact|validate_full> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(cfg.seconds > 0.0 && cfg.seconds <= 3600.0) {
                    usage("--seconds must be in (0, 3600]");
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let tracer = trace::Tracer::new(cfg.trace);
    let mut out = match cfg.workload.as_str() {
        "serve_hot" => serve::hot(&cfg, &tracer),
        "serve_churn" => serve::churn(&cfg, &tracer),
        "optimize_exact" => optimize::run(&cfg, &tracer),
        "validate_full" => validate::run(&cfg, &tracer),
        "" => usage("--workload is required"),
        other => usage(&format!("unknown workload '{other}'")),
    };

    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut context = vec![
        ("workload".to_string(), Json::str(cfg.workload.as_str())),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        ("host_parallelism".to_string(), Json::Num(host_parallelism as f64)),
        ("workers".to_string(), Json::Num(WORKERS as f64)),
    ];
    if cfg.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.ndjson", cfg.workload, cfg.seed));
        match tracer.write(&path, Json::Obj(context.clone())) {
            Ok(()) => {
                context.push(("trace_file".to_string(), Json::str(path.display().to_string())));
                context.push(("spans".to_string(), Json::Num(tracer.len() as f64)));
            }
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    context.append(&mut out.detail);
    println!("{}", Json::Obj(context).render());

    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = out.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        let value = match value {
            Some(v) => v,
            // A layer the workload does not call has no span: zero.
            None if cfg.trace => 0.0,
            None => panic!("workload {} did not report end-to-end metric {name}", cfg.workload),
        };
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![("value".into(), Json::Num(value)), ("unit".into(), Json::str(unit))]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
