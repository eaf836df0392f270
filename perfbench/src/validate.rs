//! `validate_full`: the full differential validation sweep that
//! `mpmc validate` runs on the four-core server (36 mixes).
//!
//! One operation is one sweep. Every per-process differential check is
//! counted as attempted, and each failing check or invariant violation
//! as failed: the sweep reports model accuracy honestly, including the
//! known gzip-solo divergence (see README.md). The report must be
//! identical on every sweep of a run.
//!
//! The traced run replays the sweep's layers from outside:
//! `FeatureVector::from_workload` for the suite, the bisection and
//! robust predictions per mix, and `harness::run_assignments` over the
//! 36 placements on both simulator engines. The rest of the sweep
//! (worker-independence re-runs, invariant battery) is the unaccounted
//! remainder.

use crate::stats::{peak_rss_mb, Samples};
use crate::trace::Tracer;
use crate::{fixtures, Config, Outcome, SetupTimes, WORKERS};
use cmpsim::engine::EngineKind;
use experiments::diffval::{self, DiffConfig, ValidationReport};
use experiments::harness;
use mpmc_model::feature::FeatureVector;
use mpmc_model::perf::{PerformanceModel, SolverKind};
use mpmc_service::json::Json;
use std::time::Instant;
use workloads::spec::SpecWorkload;

/// Set-ups timed before the first sweep and after each sweep.
const SETUP_REPS: usize = 50;

/// The sweep's configuration and the suite's features: what
/// `mpmc validate` prepares before simulating.
fn build() -> DiffConfig {
    let mut cfg = DiffConfig::full(fixtures::machine());
    cfg.scale.workers = WORKERS;
    let features: Vec<FeatureVector> = SpecWorkload::table1_suite()
        .iter()
        .map(|w| FeatureVector::from_workload(&w.params(), &cfg.machine))
        .collect::<Result<_, _>>()
        .expect("suite features build");
    std::hint::black_box(features);
    cfg
}

/// Checks attempted and failed in one sweep.
fn tally(report: &ValidationReport) -> (u64, u64) {
    let checks: usize = report.mixes.iter().map(|m| m.processes.len()).sum();
    (checks as u64, (report.differential_failures + report.invariant_violations) as u64)
}

fn worst_spi_err_pct(report: &ValidationReport) -> f64 {
    let worst = report.mixes.iter().flat_map(|m| &m.processes).map(|p| p.errors.2);
    worst.fold(0.0, f64::max) * 100.0
}

/// Runs sweeps for `seconds`, checking each report against the first.
/// A sweep is started only if one more sweep as long as the last ends
/// within `seconds`, so a run lasts about `seconds`, never a sweep more.
fn sweeps(
    cfg: &DiffConfig,
    seconds: f64,
    view: &crate::trace::TracerView<'_>,
    reference: &mut Option<String>,
    setup: &mut SetupTimes,
    out: &mut Outcome,
) -> (Samples, ValidationReport) {
    let mut times = Samples::default();
    let mut last = None;
    let start = Instant::now();
    let mut last_s = 0.0;
    while last.is_none() || start.elapsed().as_secs_f64() + last_s <= seconds {
        let request = times.len() as u64;
        let (report, secs) = view.span("experiments.validate", 0, request, |_| diffval::run(cfg));
        let report = report.expect("the validation sweep runs to completion");
        times.push(secs);
        last_s = secs;
        let (attempted, failed) = tally(&report);
        out.attempted += attempted;
        out.failed += failed;
        let json = report.to_json();
        match reference {
            Some(first) if *first != json => out.correct = false,
            Some(_) => {}
            None => *reference = Some(json),
        }
        last = Some(report);
        setup.repeat(SETUP_REPS, build);
    }
    (times, last.expect("at least one sweep ran"))
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut setup = SetupTimes::default();
    let diff = setup.repeat(SETUP_REPS, build);
    let mut reference = None;

    if !cfg.trace {
        let view = tracer.with_enabled(false);
        let (mut times, report) =
            sweeps(&diff, cfg.seconds, &view, &mut reference, &mut setup, &mut out);
        out.metric("setup_s", setup.median());
        out.metric("peak_rss_mb", peak_rss_mb());
        out.metric("throughput_per_s", times.len() as f64 / times.sum());
        out.metric("latency_p50_us", times.percentile(0.5) * 1e6);
        out.metric("latency_p90_us", times.percentile(0.9) * 1e6);
        out.metric("latency_p99_us", times.percentile(0.99) * 1e6);
        out.detail("sweeps", times.summary_us());
        out.detail("model_worst_spi_err_pct", Json::Num(worst_spi_err_pct(&report)));
        out.detail("differential_failures", Json::Num(report.differential_failures as f64));
        return out;
    }

    let half = cfg.seconds / 2.0;
    let (mut plain, report) =
        sweeps(&diff, half, &tracer.with_enabled(false), &mut reference, &mut setup, &mut out);
    let (mut traced, _) =
        sweeps(&diff, half, &tracer.with_enabled(true), &mut reference, &mut setup, &mut out);

    let machine = &diff.machine;
    let suite = SpecWorkload::table1_suite().to_vec();
    let (features, features_s) = tracer.span("core.features", 0, 0, |_| {
        suite
            .iter()
            .map(|w| FeatureVector::from_workload(&w.params(), machine))
            .collect::<Result<Vec<_>, _>>()
            .expect("suite features build")
    });

    // The sweep's mixes: every workload solo on core 0, then every pair
    // on cores 0 and 1, in suite order.
    let n = suite.len();
    let mut mixes: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            mixes.push(vec![i, j]);
        }
    }
    let placements: Vec<harness::IndexPlacement> = mixes
        .iter()
        .map(|mix| {
            let mut pl = vec![Vec::new(); machine.num_cores()];
            for (slot, &w) in mix.iter().enumerate() {
                pl[slot].push(w);
            }
            pl
        })
        .collect();

    let assoc = machine.l2_assoc();
    let bisect = PerformanceModel::new(assoc);
    let robust = PerformanceModel::new(assoc).with_solver(SolverKind::Robust);
    let ((), predict_s) = tracer.span("core.predict", 0, 0, |span| {
        for (i, mix) in mixes.iter().enumerate() {
            let fvs: Vec<&FeatureVector> = mix.iter().map(|&w| &features[w]).collect();
            tracer.span("core.predict_mix", span, i as u64, |_| {
                bisect.predict(&fvs).expect("bisection prediction");
                robust.predict(&fvs).expect("robust prediction");
            });
        }
    });

    let simulate = |engine: EngineKind, name: &'static str| {
        let mut scale = diff.scale;
        scale.engine = engine;
        let (runs, secs) = tracer.span(name, 0, 0, |_| {
            harness::run_assignments(machine, &suite, &placements, &scale, 0x51)
                .expect("validation placements simulate")
        });
        let accesses: u64 =
            runs.iter().flat_map(|r| &r.processes).map(|p| p.counters.l2_refs).sum();
        (secs, accesses as f64 / secs)
    };
    let (simulate_s, accesses_per_s) = simulate(EngineKind::Events, "cmpsim.simulate");
    let (_, lockstep_per_s) = simulate(EngineKind::Lockstep, "cmpsim.simulate_lockstep");

    let sweep_s = plain.mean();
    let unaccounted = sweep_s - features_s - predict_s - simulate_s;
    out.metric("core.features_s", features_s);
    out.metric("core.predict_s", predict_s);
    out.metric("cmpsim.simulate_s", simulate_s);
    out.metric("cmpsim.accesses_per_s", accesses_per_s);
    out.metric("cmpsim.lockstep_accesses_per_s", lockstep_per_s);
    out.metric("experiments.model_worst_spi_err_pct", worst_spi_err_pct(&report));
    out.metric("unaccounted_s", unaccounted);
    out.metric("unaccounted_us", unaccounted * 1e6);
    let overhead = (traced.percentile(0.5) / plain.percentile(0.5) - 1.0) * 100.0;
    out.metric("trace_overhead_pct", overhead);
    out.detail("sweeps_untraced", plain.summary_us());
    out.detail("sweeps_traced", traced.summary_us());
    out.detail(
        "ledger_s_per_sweep",
        Json::Obj(vec![
            ("sweep".into(), Json::Num(sweep_s)),
            ("features".into(), Json::Num(features_s)),
            ("predict".into(), Json::Num(predict_s)),
            ("simulate".into(), Json::Num(simulate_s)),
            ("unaccounted".into(), Json::Num(unaccounted)),
        ]),
    );
    out
}
