//! Bit-level goldens for the combined model and the placement optimizer.
//!
//! Every number in `tests/golden/golden_bits.txt` is the `f64::to_bits`
//! of an estimate or an optimizer answer (or an exact count), captured
//! before the co-run table replaced the per-combination memo-cache walk.
//! Any change to the order of float operations in Eq. 10/11 scoring, to
//! the tie-breaking of the searches, or to the symmetry dedup moves at
//! least one of them.
//!
//! Coverage:
//! - `estimate_processor_power` and `estimate_makespan` for 200 seeded
//!   placements, alternating the four-core server and a two-die machine
//!   with four cores per die;
//! - `estimate_candidates` for 40 seeded partial placements;
//! - degraded estimates on a half-warmed memo cache;
//! - `optimize` (power, makespan, capped, infeasible cap), local search
//!   and `brute_force`, including instances with duplicate processes,
//!   a second profile index with identical content, and a profile that
//!   shares a feature vector with another but not its instruction mix;
//! - the `bench_json` optimizer instances (`exact_4c8p`,
//!   `local_search_4c12p`, `brute_force_4c8p`).
//!
//! A change that is *meant* to move bits regenerates the file with
//! `cargo test --test golden_bits -- --ignored --nocapture print_goldens`
//! and says why in its description.

use mpmc::math::sync::CancelToken;
use mpmc::model::assignment::{Assignment, CombinedModel, DegradedSource};
use mpmc::model::optimize::{self, Objective, OptimizeOptions, Optimized};
use mpmc::model::power::PowerModel;
use mpmc::model::profile::ProcessProfile;
use mpmc::model::ModelError;
use mpmc::sim::machine::MachineConfig;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const GOLDEN: &str = include_str!("golden/golden_bits.txt");

fn server() -> MachineConfig {
    MachineConfig::four_core_server()
}

/// Two dies of four cores: Eq. 10 combinations of up to four processes.
fn wide() -> MachineConfig {
    MachineConfig { name: "wide".into(), dies: 2, cores_per_die: 4, ..server() }
}

/// Ten profiles: eight distinct, a copy of profile 2 under another index,
/// and one that shares profile 3's feature vector but not its
/// instruction mix.
fn profiles(machine: &MachineConfig) -> Vec<ProcessProfile> {
    let mut out: Vec<ProcessProfile> = (0..8)
        .map(|i| {
            bench::synthetic_profile(
                &format!("g{i}"),
                machine,
                0.05 + 0.055 * i as f64,
                0.004 + 0.0045 * ((i * 3) % 8) as f64,
            )
        })
        .collect();
    out.push(out[2].clone());
    let mut mix = out[3].clone();
    mix.l1rpi = 0.5;
    mix.brpi = 0.12;
    mix.fppi = 0.3;
    out.push(mix);
    out
}

struct Fixture {
    machine: MachineConfig,
    power: PowerModel,
    profiles: Vec<ProcessProfile>,
}

fn fixture(machine: MachineConfig) -> Fixture {
    let power = bench::synthetic_power_model(&machine, 64);
    let profiles = profiles(&machine);
    Fixture { machine, power, profiles }
}

fn random_placement(rng: &mut ChaCha8Rng, cores: usize, profiles: usize) -> Assignment {
    let mut asg = Assignment::new(cores);
    let n = rng.gen_range(1..=10);
    for _ in 0..n {
        let core = rng.gen_range(0..cores);
        asg.assign(core, rng.gen_range(0..profiles));
    }
    asg
}

fn estimates() -> Vec<u64> {
    let fixtures = [fixture(server()), fixture(wide())];
    let models: Vec<CombinedModel<'_, PowerModel>> =
        fixtures.iter().map(|f| CombinedModel::new(&f.machine, &f.power)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x601D);
    let mut out = Vec::new();
    for i in 0..200 {
        let f = &fixtures[i % 2];
        let asg = random_placement(&mut rng, f.machine.num_cores(), f.profiles.len());
        out.push(models[i % 2].estimate_processor_power(&f.profiles, &asg).unwrap().to_bits());
        out.push(models[i % 2].estimate_makespan(&f.profiles, &asg).unwrap().to_bits());
    }
    out
}

fn candidates() -> Vec<u64> {
    let fixtures = [fixture(server()), fixture(wide())];
    let mut rng = ChaCha8Rng::seed_from_u64(0xCA7D);
    let mut out = Vec::new();
    for i in 0..40 {
        let f = &fixtures[i % 2];
        // A fresh model per sweep, half of them warmed by an estimate of
        // the current placement: cold and warm caches alike.
        let model = CombinedModel::new(&f.machine, &f.power);
        let current = random_placement(&mut rng, f.machine.num_cores(), f.profiles.len());
        let tentative = rng.gen_range(0..f.profiles.len());
        let cores: Vec<usize> = (0..f.machine.num_cores()).collect();
        if i % 4 < 2 {
            model.estimate_processor_power(&f.profiles, &current).unwrap();
        }
        let got = model.estimate_candidates(&f.profiles, &current, tentative, &cores, 2).unwrap();
        out.extend(got.iter().map(|x| x.to_bits()));
    }
    out
}

fn degraded() -> Vec<u64> {
    let f = fixture(server());
    let model = CombinedModel::new(&f.machine, &f.power);
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE6A);
    let placements: Vec<Assignment> =
        (0..40).map(|_| random_placement(&mut rng, 4, f.profiles.len())).collect();
    for asg in &placements[..20] {
        model.estimate_processor_power(&f.profiles, asg).unwrap();
    }
    let mut out = Vec::new();
    for asg in &placements[20..] {
        let est = model.estimate_processor_power_degraded(&f.profiles, asg).unwrap();
        out.push(est.power_w.to_bits());
        out.push(source_code(est.source));
    }
    let procs = [0usize, 1, 2, 3, 8, 9];
    let (asg, est) = optimize::greedy_min_power_degraded(&model, &f.profiles, &procs).unwrap();
    out.push(est.power_w.to_bits());
    out.push(source_code(est.source));
    out.extend(queues(&asg.to_queues()));
    out
}

fn source_code(s: DegradedSource) -> u64 {
    match s {
        DegradedSource::ExactCache => 0,
        DegradedSource::StaleNeighbor => 1,
        DegradedSource::ProportionalSplit => 2,
    }
}

fn queues(qs: &[Vec<usize>]) -> Vec<u64> {
    let mut out = Vec::new();
    for q in qs {
        out.push(q.len() as u64);
        out.extend(q.iter().map(|&p| p as u64));
    }
    out
}

fn answer(got: &Optimized) -> Vec<u64> {
    let mut out = vec![got.power_w.to_bits(), got.makespan.to_bits(), got.evaluated, got.pruned];
    out.extend(queues(&got.assignment.to_queues()));
    out
}

/// The objectives of one optimizer case: power, makespan, a cap just
/// above the optimum, and an infeasible cap (its diagnostic).
fn all_objectives(f: &Fixture, procs: &[usize], opts: &OptimizeOptions, brute: bool) -> Vec<u64> {
    let cancel = CancelToken::never();
    let run = |objective: Objective| {
        let model = CombinedModel::new(&f.machine, &f.power);
        if brute {
            optimize::brute_force(&model, &f.profiles, procs, objective, &cancel)
        } else {
            optimize::optimize(&model, &f.profiles, procs, objective, opts, &cancel)
        }
    };
    let mut out = Vec::new();
    let power = run(Objective::MinPower).unwrap();
    out.extend(answer(&power));
    out.extend(answer(&run(Objective::MinMakespan).unwrap()));
    out.extend(answer(&run(Objective::PowerCapped { cap_w: power.power_w + 1.0 }).unwrap()));
    match run(Objective::PowerCapped { cap_w: 1.0 }) {
        Err(ModelError::InfeasiblePowerCap { best_power_w, best_placement, .. }) => {
            out.push(best_power_w.to_bits());
            out.extend(queues(&best_placement));
        }
        other => panic!("expected an infeasible cap, got {other:?}"),
    }
    out
}

fn optimizer() -> Vec<u64> {
    let exact = OptimizeOptions { workers: 2, ..OptimizeOptions::default() };
    let local = OptimizeOptions { workers: 2, exhaustive_leaf_limit: 0, seed: 3, restarts: 2 };
    let s = fixture(server());
    let w = fixture(wide());
    let mut out = Vec::new();
    out.extend(all_objectives(&s, &[0, 1, 2, 3, 4, 5], &exact, false));
    out.extend(all_objectives(&s, &[0, 0, 1, 8, 2, 2, 9, 3], &exact, false));
    out.extend(all_objectives(&s, &[0, 0, 1, 8, 2, 9], &exact, true));
    out.extend(all_objectives(&w, &[0, 1, 2, 3, 9], &exact, false));
    out.extend(all_objectives(&w, &[4, 2, 8, 2], &exact, true));
    out.extend(all_objectives(&s, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], &local, false));
    out.extend(all_objectives(&w, &[0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 9], &local, false));
    out
}

/// The optimizer instances `bench_json` times, built from the same
/// fixtures: twelve profiles on the four-core server, one shared model.
fn bench_instances() -> Vec<u64> {
    let machine = server();
    let profiles: Vec<ProcessProfile> = (0..12)
        .map(|i| {
            bench::synthetic_profile(
                &format!("p{i}"),
                &machine,
                0.08 + 0.06 * (i % 5) as f64,
                0.004 + 0.005 * (i % 4) as f64,
            )
        })
        .collect();
    let power = bench::synthetic_power_model(&machine, 64);
    let model = CombinedModel::new(&machine, &power);
    let cancel = CancelToken::never();
    let exact_procs: Vec<usize> = (0..8).collect();
    let local_procs: Vec<usize> = (0..12).collect();
    let exact = OptimizeOptions { workers: 2, ..OptimizeOptions::default() };
    let local =
        OptimizeOptions { workers: 2, exhaustive_leaf_limit: 0, ..OptimizeOptions::default() };
    let mut out = Vec::new();
    for objective in [Objective::MinPower, Objective::MinMakespan] {
        let got = optimize::optimize(&model, &profiles, &exact_procs, objective, &exact, &cancel);
        out.extend(answer(&got.unwrap()));
    }
    let got =
        optimize::optimize(&model, &profiles, &local_procs, Objective::MinPower, &local, &cancel);
    out.extend(answer(&got.unwrap()));
    let got =
        optimize::optimize(&model, &profiles, &exact_procs, Objective::MinPower, &local, &cancel);
    out.extend(answer(&got.unwrap()));
    let got = optimize::brute_force(&model, &profiles, &exact_procs, Objective::MinPower, &cancel);
    out.extend(answer(&got.unwrap()));
    out
}

/// `local_search_4c12p/power` alone, on a fresh model.
fn local_search_4c12p() -> Vec<u64> {
    let machine = server();
    let profiles: Vec<ProcessProfile> = (0..12)
        .map(|i| {
            bench::synthetic_profile(
                &format!("p{i}"),
                &machine,
                0.08 + 0.06 * (i % 5) as f64,
                0.004 + 0.005 * (i % 4) as f64,
            )
        })
        .collect();
    let power = bench::synthetic_power_model(&machine, 64);
    let model = CombinedModel::new(&machine, &power);
    let procs: Vec<usize> = (0..12).collect();
    let opts =
        OptimizeOptions { workers: 2, exhaustive_leaf_limit: 0, ..OptimizeOptions::default() };
    let got = optimize::optimize(
        &model,
        &profiles,
        &procs,
        Objective::MinPower,
        &opts,
        &CancelToken::never(),
    );
    answer(&got.unwrap())
}

type Section = (&'static str, fn() -> Vec<u64>);

const SECTIONS: [Section; 6] = [
    ("estimates", estimates),
    ("candidates", candidates),
    ("degraded", degraded),
    ("optimizer", optimizer),
    ("bench_instances", bench_instances),
    ("local_search_4c12p", local_search_4c12p),
];

fn golden(section: &str) -> Vec<u64> {
    let line = GOLDEN
        .lines()
        .find(|l| l.split_whitespace().next() == Some(section))
        .unwrap_or_else(|| panic!("no golden line for section {section}"));
    line.split_whitespace()
        .skip(1)
        .map(|w| u64::from_str_radix(w, 16).expect("golden words are hex"))
        .collect()
}

fn check(section: &str, got: &[u64]) {
    let want = golden(section);
    if let Some(i) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        panic!(
            "{section}: word {i} differs (want {:?}, got {:?}; {} vs {} words)",
            want.get(i).map(|w| format!("{w:016x}")),
            got.get(i).map(|w| format!("{w:016x}")),
            want.len(),
            got.len()
        );
    }
}

#[test]
fn estimates_match_goldens() {
    check("estimates", &estimates());
}

#[test]
fn candidate_sweeps_match_goldens() {
    check("candidates", &candidates());
}

#[test]
fn degraded_estimates_match_goldens() {
    check("degraded", &degraded());
}

#[test]
fn optimizer_answers_match_goldens() {
    check("optimizer", &optimizer());
}

#[test]
fn bench_instances_match_goldens() {
    check("bench_instances", &bench_instances());
}

#[test]
fn local_search_4c12p_power_matches_golden() {
    check("local_search_4c12p", &local_search_4c12p());
}

#[test]
#[ignore = "regenerates tests/golden/golden_bits.txt on stdout"]
fn print_goldens() {
    for (name, f) in SECTIONS {
        let words: Vec<String> = f().iter().map(|w| format!("{w:016x}")).collect();
        println!("{name} {}", words.join(" "));
    }
}
