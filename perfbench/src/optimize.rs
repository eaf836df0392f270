//! `optimize_exact`: back-to-back exact min-power placement searches.
//!
//! Eight seeded processes on the four-core server, searched with
//! `optimize::optimize` under the power objective. Each search gets a
//! fresh `CombinedModel`, as `mpmc assign --optimize` builds one per
//! command. The optimum must equal `optimize::brute_force` on the same
//! instance, computed once before timing and outside `setup_s`.

use crate::fixtures::{self, Stream};
use crate::stats::{peak_rss_mb, Samples};
use crate::trace::{Tracer, TracerView};
use crate::{Config, Outcome, SetupTimes, WORKERS};
use cmpsim::machine::MachineConfig;
use mathkit::sync::CancelToken;
use mpmc_model::assignment::{Assignment, CombinedModel};
use mpmc_model::eqcache::EqCacheStats;
use mpmc_model::equilibrium;
use mpmc_model::optimize::{self, Objective, OptimizeOptions, Optimized};
use mpmc_model::power::PowerModel;
use mpmc_model::profile::ProcessProfile;
use mpmc_service::json::Json;
use std::time::Instant;

const PROCESSES: usize = 8;
/// Set-ups timed before the first search and after each search.
const SETUP_REPS: usize = 5;

struct Instance {
    machine: MachineConfig,
    power: PowerModel,
    profiles: Vec<ProcessProfile>,
    processes: Vec<usize>,
    opts: OptimizeOptions,
}

fn build(seed: u64) -> Instance {
    let machine = fixtures::machine();
    let power = fixtures::power_model(&machine, seed);
    let names: Vec<String> = (0..PROCESSES).map(|i| format!("p{i}")).collect();
    let profiles = fixtures::profiles(&names, &machine, seed, 0x0B7);
    let opts = OptimizeOptions { workers: WORKERS, seed, ..OptimizeOptions::default() };
    Instance { machine, power, profiles, processes: (0..PROCESSES).collect(), opts }
}

fn search(inst: &Instance) -> (Optimized, EqCacheStats, u64) {
    let model = CombinedModel::new(&inst.machine, &inst.power);
    let got = optimize::optimize(
        &model,
        &inst.profiles,
        &inst.processes,
        Objective::MinPower,
        &inst.opts,
        &CancelToken::never(),
    )
    .expect("exact search over valid synthetic profiles succeeds");
    (got, model.equilibrium_cache_stats(), model.solver_fallbacks())
}

/// Back-to-back searches for `seconds`, each checked against the
/// brute-force optimum `expected`; set-up is timed again after each.
/// Returns the search times and the last search's result.
fn searches(
    inst: &Instance,
    expected: u64,
    seconds: f64,
    view: &TracerView<'_>,
    setup: &mut SetupTimes,
    out: &mut Outcome,
) -> (Samples, (Optimized, EqCacheStats, u64)) {
    let mut times = Samples::default();
    let mut last = None;
    let start = Instant::now();
    while last.is_none() || start.elapsed().as_secs_f64() < seconds {
        let request = times.len() as u64;
        let (r, secs) = view.span("core.optimize", 0, request, |_| search(inst));
        times.push(secs);
        out.attempted += 1;
        if r.0.power_w.to_bits() != expected {
            out.failed += 1;
        }
        last = Some(r);
        setup.repeat(SETUP_REPS, || build(inst.opts.seed));
    }
    (times, last.expect("at least one search ran"))
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupTimes::default();
    let inst = setup.repeat(SETUP_REPS, || build(cfg.seed));

    // Reference optimum, outside set-up and outside timing.
    let model = CombinedModel::new(&inst.machine, &inst.power);
    let brute = optimize::brute_force(
        &model,
        &inst.profiles,
        &inst.processes,
        Objective::MinPower,
        &CancelToken::never(),
    )
    .expect("brute force over 4^8 placements stays under its size cap");
    let expected = brute.power_w.to_bits();

    if !cfg.trace {
        let view = tracer.with_enabled(false);
        let (mut times, (got, _, _)) =
            searches(&inst, expected, cfg.seconds, &view, &mut setup, &mut out);
        out.correct = out.failed == 0;
        out.metric("setup_s", setup.median());
        out.metric("peak_rss_mb", peak_rss_mb());
        out.metric("throughput_per_s", times.len() as f64 / times.sum());
        out.metric("latency_p50_us", times.percentile(0.5) * 1e6);
        out.metric("latency_p90_us", times.percentile(0.9) * 1e6);
        out.metric("latency_p99_us", times.percentile(0.99) * 1e6);
        out.detail("searches", times.summary_us());
        out.detail("optimum_power_w", Json::Num(got.power_w));
        out.detail("leaves", Json::Num(got.evaluated as f64));
        return out;
    }

    // Traced run: half the time untraced, half traced (overhead), then
    // the layer probes on the same instance.
    let half = cfg.seconds / 2.0;
    let (mut plain, _) =
        searches(&inst, expected, half, &tracer.with_enabled(false), &mut setup, &mut out);
    let (mut traced, (got, eq, fallbacks)) =
        searches(&inst, expected, half, &tracer.with_enabled(true), &mut setup, &mut out);
    out.correct = out.failed == 0;

    // Leaf cost with every co-run set cached: score seeded complete
    // placements on a model one search has warmed.
    let warm = CombinedModel::new(&inst.machine, &inst.power);
    optimize::optimize(
        &warm,
        &inst.profiles,
        &inst.processes,
        Objective::MinPower,
        &inst.opts,
        &CancelToken::never(),
    )
    .expect("warm-up search succeeds");
    let mut rng = Stream::new(cfg.seed, 0x1EAF);
    let placements: Vec<Assignment> = (0..400)
        .map(|_| {
            let mut a = Assignment::new(inst.machine.num_cores());
            for p in 0..PROCESSES {
                a.assign(rng.below(inst.machine.num_cores()), p);
            }
            a
        })
        .collect();
    let mut warm_t = Samples::default();
    for (i, a) in placements.iter().enumerate() {
        let (r, secs) = tracer.span("core.estimate_warm", 0, i as u64, |_| {
            warm.estimate_processor_power(&inst.profiles, a)
        });
        r.expect("estimate over cached sets succeeds");
        warm_t.push(secs);
    }
    let cold = CombinedModel::new(&inst.machine, &inst.power).with_equilibrium_cache_capacity(0);
    let mut solve_t = Samples::default();
    for (i, a) in placements.iter().take(40).enumerate() {
        let (r, secs) = tracer.span("core.estimate_solve", 0, i as u64, |_| {
            cold.estimate_processor_power(&inst.profiles, a)
        });
        r.expect("uncached estimate succeeds");
        solve_t.push(secs);
    }

    // Every die-level co-run set the instance can produce: each single
    // process and each pair (two cores per die).
    let assoc = inst.machine.l2_assoc();
    let mut eq_t = Samples::default();
    let mut sets = 0u64;
    for a in 0..PROCESSES {
        for b in a..PROCESSES {
            let fv: Vec<_> = if a == b {
                vec![&inst.profiles[a].feature]
            } else {
                vec![&inst.profiles[a].feature, &inst.profiles[b].feature]
            };
            let (r, secs) =
                tracer.span("core.equilibrium_solve", 0, sets, |_| equilibrium::solve(&fv, assoc));
            r.expect("equilibrium of valid features solves");
            eq_t.push(secs);
            sets += 1;
        }
    }

    let search_us = plain.mean() * 1e6;
    let leaf_us = warm_t.mean() * 1e6;
    let solve_us = eq_t.mean() * 1e6;
    let unaccounted = search_us - got.evaluated as f64 * leaf_us - sets as f64 * solve_us;
    let lookups = (eq.hits + eq.misses).max(1);
    out.metric("core.estimate_warm_us", leaf_us);
    out.metric("core.estimate_solve_us", solve_t.mean() * 1e6);
    out.metric("core.equilibrium_solve_us", solve_us);
    out.metric("core.eqcache_hits", eq.hits as f64);
    out.metric("core.eqcache_misses", eq.misses as f64);
    out.metric("core.eqcache_evictions", eq.evictions as f64);
    out.metric("core.eqcache_hit_ratio", eq.hits as f64 / lookups as f64);
    out.metric("core.solver_fallbacks", fallbacks as f64);
    out.metric("core.optimize_leaves", got.evaluated as f64);
    out.metric("core.optimize_pruned", got.pruned as f64);
    out.metric("unaccounted_us", unaccounted);
    out.metric("unaccounted_s", unaccounted / 1e6);
    let overhead = (traced.percentile(0.5) / plain.percentile(0.5) - 1.0) * 100.0;
    out.metric("trace_overhead_pct", overhead);
    out.detail("search_untraced", plain.summary_us());
    out.detail("search_traced", traced.summary_us());
    out.detail(
        "ledger_us_per_search",
        Json::Obj(vec![
            ("search".into(), Json::Num(search_us)),
            ("leaves_x_estimate_warm".into(), Json::Num(got.evaluated as f64 * leaf_us)),
            ("sets_x_equilibrium_solve".into(), Json::Num(sets as f64 * solve_us)),
            ("unaccounted".into(), Json::Num(unaccounted)),
        ]),
    );
    out
}
