//! Deterministic placement optimization over [`Assignment`]s (ROADMAP
//! item 2: turn the combined model of paper §5 into a scheduler).
//!
//! The paper's assignment-time estimator (Fig. 1, Eq. 11) answers "what
//! would this placement cost?"; this module closes the loop and searches
//! for the placement itself, under three objectives:
//!
//! - **min-power** ([`Objective::MinPower`]): least estimated average
//!   processor power (Eq. 11 summed over dies).
//! - **min-makespan** ([`Objective::MinMakespan`]): least worst-case
//!   relative completion time under Eq. 10 round-robin time sharing
//!   (see [`CombinedModel::estimate_makespan`]).
//! - **power-capped perf** ([`Objective::PowerCapped`]): least makespan
//!   among placements whose estimated power stays under a cap; an
//!   infeasible cap surfaces as
//!   [`ModelError::InfeasiblePowerCap`] carrying the least-power
//!   placement found as a diagnostic.
//!
//! # Search strategy
//!
//! Every engine scores placements from one co-run table per search:
//! the die-level co-run sets the search reaches are interned once, their
//! equilibria resolved once through the model's memo cache (the misses
//! solved together in one `solve_batch` over
//! [`OptimizeOptions::workers`]), and each placement is then scored by
//! the same allocation-free Eq. 10/11 walk as
//! [`CombinedModel::estimate_processor_power`] — bit-identical to it,
//! and identical for any worker count.
//!
//! Small instances are solved **exactly**: a depth-first enumeration
//! assigns processes (in canonical content order) to cores, with two
//! symmetry-pruning rules — a process may only open the *first* empty
//! core of a die and the *first* entirely-empty die, and
//! permutation-equivalent complete placements are deduplicated by a
//! fixed-width canonical key over process classes (per-die sorted queues,
//! dies sorted). For the min-makespan objective an admissible alone-SPI
//! bound additionally prunes subtrees that cannot beat the greedy
//! incumbent (a process on a queue of length `q` can never finish faster
//! than `q * alone_spi`, and queues only grow). Every co-run set the
//! instance can produce is then staged into the table and filled in one
//! batch, and the surviving classes are scored in enumeration order.
//!
//! When the distinct-leaf count exceeds
//! [`OptimizeOptions::exhaustive_leaf_limit`], the engine switches to a
//! **seeded local search**: a greedy construction plus seeded random
//! restarts, refined by steepest-descent move (process to another core)
//! and swap (two processes exchange cores) neighborhoods. The table
//! fills lazily: each round solves only the sets its neighbors add and
//! scores them in a fixed order, so local search is deterministic for
//! any worker count too — and, like the exact path, invariant under
//! scrambled process order because all decisions are made in canonical
//! content order.

use crate::assignment::{Assignment, CombinedModel, DegradedEstimate, DegradedSource};
use crate::corun::{CorunTable, Pid};
use crate::power::CorePowerModel;
use crate::profile::ProcessProfile;
use crate::ModelError;
use mathkit::sync::CancelToken;
use rand::Rng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::HashSet;

/// What the optimizer minimizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Least estimated average processor power (watts).
    MinPower,
    /// Least estimated makespan (worst relative completion time).
    MinMakespan,
    /// Least makespan subject to estimated power `<= cap_w` watts.
    PowerCapped {
        /// The power budget in watts.
        cap_w: f64,
    },
}

impl Objective {
    /// Parses the CLI/wire spelling: `power`, `makespan`, or
    /// `capped:<watts>`.
    ///
    /// # Errors
    ///
    /// A display-ready message when the spec is unknown or the cap is
    /// not a positive finite number (callers map it to their usage-error
    /// channel).
    pub fn from_spec(spec: &str) -> Result<Objective, String> {
        match spec {
            "power" => Ok(Objective::MinPower),
            "makespan" => Ok(Objective::MinMakespan),
            _ => {
                if let Some(watts) = spec.strip_prefix("capped:") {
                    let cap_w: f64 = watts.parse().map_err(|_| {
                        format!("invalid power cap '{watts}': expected a number of watts")
                    })?;
                    if !cap_w.is_finite() || cap_w <= 0.0 {
                        return Err(format!(
                            "invalid power cap '{watts}': must be positive and finite"
                        ));
                    }
                    Ok(Objective::PowerCapped { cap_w })
                } else {
                    Err(format!(
                        "unknown objective '{spec}': expected power, makespan, or capped:<watts>"
                    ))
                }
            }
        }
    }

    /// The stable wire spelling ([`Objective::from_spec`] round-trips it).
    pub fn spec(&self) -> String {
        match self {
            Objective::MinPower => "power".into(),
            Objective::MinMakespan => "makespan".into(),
            Objective::PowerCapped { cap_w } => format!("capped:{cap_w}"),
        }
    }
}

/// Tuning knobs for [`optimize`]. The defaults solve a 4-core /
/// 8-process instance exactly and fall back to local search beyond
/// roughly that size.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Worker threads for the batched equilibrium solves that fill the
    /// search's co-run table (`0` = auto). Results are bit-identical for
    /// any value.
    pub workers: usize,
    /// Seed for the local-search random restarts. Same seed, same
    /// machine, same process contents: same answer.
    pub seed: u64,
    /// Exact search is used while the symmetry-deduplicated placement
    /// count stays at or under this; beyond it the engine switches to
    /// seeded local search.
    pub exhaustive_leaf_limit: u64,
    /// Seeded random restarts for the local search (the greedy
    /// construction is always tried in addition).
    pub restarts: usize,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions { workers: 0, seed: 0, exhaustive_leaf_limit: 20_000, restarts: 2 }
    }
}

/// Which engine produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMethod {
    /// Exhaustive enumeration over symmetry classes: the answer is the
    /// true optimum of the model.
    Exact,
    /// Greedy construction + seeded restarts + move/swap descent: the
    /// answer is a deterministic local optimum.
    LocalSearch,
}

impl SearchMethod {
    /// Stable lowercase label for wire protocols and logs.
    pub fn name(self) -> &'static str {
        match self {
            SearchMethod::Exact => "exact",
            SearchMethod::LocalSearch => "local_search",
        }
    }
}

/// The optimizer's answer: the chosen placement plus both metrics and
/// search diagnostics.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen placement (profile indices per core, in canonical
    /// content order within each queue).
    pub assignment: Assignment,
    /// Estimated average processor power of the placement (watts).
    pub power_w: f64,
    /// Estimated makespan of the placement (relative completion time).
    pub makespan: f64,
    /// Placements whose objective was actually scored.
    pub evaluated: u64,
    /// Search nodes skipped: canonical-fingerprint duplicates plus (for
    /// makespan) alone-SPI bound prunes in the exact engine; non-improving
    /// neighbor evaluations in the local engine count under `evaluated`.
    pub pruned: u64,
    /// Which engine produced the answer.
    pub method: SearchMethod,
}

/// Scored placement: capped runs order infeasible placements after all
/// feasible ones, then by value; plain runs compare values directly.
#[derive(Debug, Clone, Copy)]
struct Score {
    infeasible: bool,
    value: f64,
}

impl Score {
    fn better_than(&self, other: &Score) -> bool {
        (self.infeasible, other.infeasible) == (false, true)
            || (self.infeasible == other.infeasible
                && self.value.total_cmp(&other.value) == std::cmp::Ordering::Less)
    }
}

/// Terminators of the exact engine's leaf keys (process classes are
/// smaller than any process count).
const QUEUE_END: u32 = u32::MAX;
const DIE_END: u32 = u32::MAX - 1;

/// The core/die topology the search walks, plus the processes to place
/// in canonical content order.
struct Instance {
    /// Profile index of each process, sorted by (content fingerprint,
    /// profile index) so scrambled inputs search identically.
    procs: Vec<usize>,
    /// Symmetry class per canonical process: the rank of its content
    /// fingerprint, so equal-content processes share a class.
    classes: Vec<u32>,
    /// Predicted full-cache (alone) SPI per canonical process.
    alone_spi: Vec<f64>,
    /// Cores grouped by die, ascending.
    cores_by_die: Vec<Vec<usize>>,
    num_cores: usize,
}

/// Scratch buffers of [`Instance::leaf_key`].
#[derive(Default)]
struct LeafScratch {
    key: Vec<u32>,
    dies: Vec<u32>,
    spans: Vec<std::ops::Range<usize>>,
    order: Vec<usize>,
}

impl Instance {
    fn new<M: CorePowerModel>(
        model: &CombinedModel<'_, M>,
        profiles: &[ProcessProfile],
        processes: &[usize],
    ) -> Result<Self, ModelError> {
        if processes.is_empty() {
            return Err(ModelError::EmptyInput("processes to place"));
        }
        let machine = model.machine();
        if machine.num_cores() == 0 {
            return Err(ModelError::EmptyInput("machine cores"));
        }
        for &p in processes {
            model.validate_process(profiles, p)?;
        }
        let mut keyed: Vec<(u64, usize)> =
            processes.iter().map(|&p| (profiles[p].feature.content_fingerprint(), p)).collect();
        keyed.sort_unstable();
        let mut classes = Vec::with_capacity(keyed.len());
        let mut class = 0u32;
        for (k, &(fp, _)) in keyed.iter().enumerate() {
            if k > 0 && fp != keyed[k - 1].0 {
                class += 1;
            }
            classes.push(class);
        }
        let procs: Vec<usize> = keyed.iter().map(|&(_, p)| p).collect();
        let assoc = machine.l2_assoc() as f64;
        let alone_spi: Vec<f64> =
            procs.iter().map(|&p| profiles[p].feature.spi_at(assoc)).collect();
        let cores_by_die: Vec<Vec<usize>> = (0..machine.dies)
            .map(|d| {
                machine
                    .cores_of(cmpsim::types::DieId(d as u32))
                    .iter()
                    .map(|c| c.0 as usize)
                    .collect()
            })
            .collect();
        Ok(Instance { procs, classes, alone_spi, cores_by_die, num_cores: machine.num_cores() })
    }

    /// Symmetry-pruned candidate cores for the next process given the
    /// current per-core class queues, into `out`: all occupied cores, the
    /// first empty core of each occupied die, and the first core of the
    /// first entirely-empty die (per die size, should dies ever differ).
    fn candidate_cores(&self, queues: &[Vec<u32>], out: &mut Vec<usize>) {
        out.clear();
        let empty = |cores: &[usize]| cores.iter().all(|&c| queues[c].is_empty());
        for (d, cores) in self.cores_by_die.iter().enumerate() {
            if empty(cores) {
                let opened = self.cores_by_die[..d]
                    .iter()
                    .any(|earlier| earlier.len() == cores.len() && empty(earlier));
                if let (false, Some(&first)) = (opened, cores.first()) {
                    out.push(first);
                }
                continue;
            }
            let mut first_empty_done = false;
            for &c in cores {
                if queues[c].is_empty() {
                    if !first_empty_done {
                        first_empty_done = true;
                        out.push(c);
                    }
                } else {
                    out.push(c);
                }
            }
        }
    }

    /// Canonical key of a complete placement over process classes, into
    /// `scratch.key`: each die's queues sorted, then the dies sorted;
    /// every queue closes with [`QUEUE_END`] and every die with
    /// [`DIE_END`]. Placements equal up to relabeling cores within a die,
    /// relabeling dies, and swapping equal-content processes share a key,
    /// and every key of an instance has the same width: processes plus
    /// cores plus dies.
    fn leaf_key(&self, queues: &[Vec<u32>], scratch: &mut LeafScratch) {
        let LeafScratch { key, dies, spans, order } = scratch;
        dies.clear();
        spans.clear();
        for cores in &self.cores_by_die {
            order.clear();
            order.extend_from_slice(cores);
            order.sort_by(|&a, &b| queues[a].cmp(&queues[b]));
            let start = dies.len();
            for &c in order.iter() {
                dies.extend_from_slice(&queues[c]);
                dies.push(QUEUE_END);
            }
            dies.push(DIE_END);
            spans.push(start..dies.len());
        }
        spans.sort_by(|a, b| dies[a.clone()].cmp(&dies[b.clone()]));
        key.clear();
        for span in spans.iter() {
            key.extend_from_slice(&dies[span.clone()]);
        }
    }

    /// Materializes a choice vector (core per canonical process) as an
    /// [`Assignment`]; queues fill in canonical content order.
    fn to_assignment(&self, choice: &[usize]) -> Assignment {
        let mut asg = Assignment::new(self.num_cores);
        for (k, &core) in choice.iter().enumerate() {
            asg.assign(core, self.procs[k]);
        }
        asg
    }

    /// Admissible makespan lower bound of any completion of the partial
    /// placement behind `queues`: a process on a queue of length `q` can
    /// never finish faster than `q * alone_spi`, and queues only grow as
    /// more processes are placed.
    fn makespan_bound(&self, queues: &[Vec<u32>], max_alone: &[f64]) -> f64 {
        let mut bound: f64 = 0.0;
        for (q, m) in queues.iter().zip(max_alone) {
            bound = bound.max(q.len() as f64 * m);
        }
        bound
    }
}

/// One placement's metrics, lazily computed per objective.
struct Metrics {
    power_w: Option<f64>,
    score: Score,
}

/// One search: the instance, the co-run table every engine scores
/// from, and the scratch placement staged and scored through it.
struct Search<'t, M: CorePowerModel> {
    inst: Instance,
    table: CorunTable<'t, M>,
    /// Table process per canonical process.
    pids: Vec<Pid>,
    queues: Vec<Vec<Pid>>,
    objective: Objective,
    /// Worker threads for the table's batch solves (`0` = auto).
    workers: usize,
    cancel: &'t CancelToken,
}

impl<'t, M: CorePowerModel> Search<'t, M> {
    fn new(
        model: &'t CombinedModel<'t, M>,
        profiles: &'t [ProcessProfile],
        processes: &[usize],
        objective: Objective,
        workers: usize,
        cancel: &'t CancelToken,
    ) -> Result<Self, ModelError> {
        let inst = Instance::new(model, profiles, processes)?;
        let table = CorunTable::new(model, profiles, inst.procs.iter().copied());
        let pids = inst.procs.iter().map(|&p| table.pid(p)).collect::<Result<_, _>>()?;
        let queues = vec![Vec::new(); inst.num_cores];
        Ok(Search { inst, table, pids, queues, objective, workers, cancel })
    }

    /// Loads a (possibly partial) choice vector into the scratch queues,
    /// in canonical process order.
    fn load(&mut self, choice: &[usize]) {
        for q in &mut self.queues {
            q.clear();
        }
        for (&core, &pid) in choice.iter().zip(&self.pids) {
            self.queues[core].push(pid);
        }
    }

    /// Interns the co-run sets `choice` needs.
    fn stage(&mut self, choice: &[usize]) -> Result<(), ModelError> {
        self.load(choice);
        self.table.stage(&self.queues, self.cancel)
    }

    /// Resolves every staged set not yet in the table.
    fn fill(&mut self) -> Result<(), ModelError> {
        self.table.fill(self.workers, self.cancel)
    }

    /// Scores a staged, filled placement under the search objective.
    fn score(&mut self, choice: &[usize]) -> Result<Metrics, ModelError> {
        self.load(choice);
        let (table, queues, cancel) = (&mut self.table, &self.queues, self.cancel);
        match self.objective {
            Objective::MinPower => {
                let p = table.power(queues, cancel)?;
                Ok(Metrics { power_w: Some(p), score: Score { infeasible: false, value: p } })
            }
            Objective::MinMakespan => {
                let m = table.makespan(queues, cancel)?;
                Ok(Metrics { power_w: None, score: Score { infeasible: false, value: m } })
            }
            Objective::PowerCapped { cap_w } => {
                let p = table.power(queues, cancel)?;
                if p.total_cmp(&cap_w) == std::cmp::Ordering::Greater {
                    // Over budget: ordered after every feasible placement,
                    // least-power first, so the best infeasible placement
                    // is still tracked for the diagnostic.
                    return Ok(Metrics {
                        power_w: Some(p),
                        score: Score { infeasible: true, value: p },
                    });
                }
                let m = table.makespan(queues, cancel)?;
                Ok(Metrics { power_w: Some(p), score: Score { infeasible: false, value: m } })
            }
        }
    }

    /// Converts a winning choice vector into the public [`Optimized`],
    /// computing both metrics from the table (the winner was scored, so
    /// its sets are filled). Surfaces the infeasible-cap error.
    fn finish(
        mut self,
        outcome: SearchOutcome,
        method: SearchMethod,
    ) -> Result<Optimized, ModelError> {
        if outcome.score.infeasible {
            // Only capped runs mark placements infeasible, and capped
            // scoring always tracks the least-power placement for the
            // diagnostic.
            if let (Objective::PowerCapped { cap_w }, Some((best_power_w, choice))) =
                (self.objective, &outcome.best_power)
            {
                return Err(ModelError::InfeasiblePowerCap {
                    cap_w,
                    best_power_w: *best_power_w,
                    best_placement: self.inst.to_assignment(choice).to_queues(),
                });
            }
            return Err(ModelError::EquilibriumFailed(
                "internal: infeasible placement score without a power cap".into(),
            ));
        }
        self.load(&outcome.choice);
        let power_w = self.table.power(&self.queues, self.cancel)?;
        let makespan = self.table.makespan(&self.queues, self.cancel)?;
        Ok(Optimized {
            assignment: self.inst.to_assignment(&outcome.choice),
            power_w,
            makespan,
            evaluated: outcome.evaluated,
            pruned: outcome.pruned,
            method,
        })
    }
}

/// Finds the best placement of `processes` (profile indices; repeats are
/// separate process instances) under `objective`. Deterministic: the
/// same machine, profiles contents, process multiset, objective, and
/// options produce the same answer bits for any worker count and any
/// input order.
///
/// # Errors
///
/// - [`ModelError::EmptyInput`] when there are no processes or cores.
/// - [`ModelError::InvalidAssignment`] for a bad profile index.
/// - [`ModelError::InfeasiblePowerCap`] when no placement satisfies a
///   [`Objective::PowerCapped`] budget; the error carries the
///   least-power placement found as a diagnostic.
/// - [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` once
///   `cancel` fires.
/// - Equilibrium errors from the performance model.
pub fn optimize<M: CorePowerModel + Sync>(
    model: &CombinedModel<'_, M>,
    profiles: &[ProcessProfile],
    processes: &[usize],
    objective: Objective,
    opts: &OptimizeOptions,
    cancel: &CancelToken,
) -> Result<Optimized, ModelError> {
    let mut search = Search::new(model, profiles, processes, objective, opts.workers, cancel)?;
    if let Some(done) = exact_search(&mut search, opts.exhaustive_leaf_limit)? {
        return search.finish(done, SearchMethod::Exact);
    }
    let done = local_search(&mut search, opts)?;
    search.finish(done, SearchMethod::LocalSearch)
}

/// Exhaustive scoring of every placement (no pruning, no dedup) — the
/// reference the exact engine is tested against, and the `--brute`
/// baseline of the CI smoke gate. Refuses instances with more than
/// 2^20 raw placements.
///
/// # Errors
///
/// As for [`optimize`], plus [`ModelError::InvalidAssignment`] when the
/// instance is too large to brute-force.
pub fn brute_force<M: CorePowerModel + Sync>(
    model: &CombinedModel<'_, M>,
    profiles: &[ProcessProfile],
    processes: &[usize],
    objective: Objective,
    cancel: &CancelToken,
) -> Result<Optimized, ModelError> {
    let mut search = Search::new(model, profiles, processes, objective, 0, cancel)?;
    let n = search.inst.procs.len();
    let c = search.inst.num_cores;
    let space = (c as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    if space > 1 << 20 {
        return Err(ModelError::InvalidAssignment(format!(
            "brute force over {c}^{n} placements is too large; use optimize()"
        )));
    }
    // One pass interns every co-run set of the space, a second scores it.
    let mut choice = vec![0usize; n];
    loop {
        cancel.check()?;
        search.stage(&choice)?;
        if !next_choice(&mut choice, c) {
            break;
        }
    }
    search.fill()?;
    let mut best: Option<(Score, Vec<usize>)> = None;
    let mut best_power: Option<(f64, Vec<usize>)> = None;
    let mut evaluated = 0u64;
    loop {
        cancel.check()?;
        let metrics = search.score(&choice)?;
        evaluated += 1;
        track_best(&mut best, &mut best_power, &metrics, &choice);
        if !next_choice(&mut choice, c) {
            break;
        }
    }
    // n >= 1 and c >= 1, so at least one placement was scored.
    let Some((score, choice)) = best else {
        return Err(ModelError::EmptyInput("placements to score"));
    };
    search.finish(
        SearchOutcome { score, choice, evaluated, pruned: 0, best_power },
        SearchMethod::Exact,
    )
}

/// Odometer increment over the `cores^N` placement space, first process
/// fastest; `false` once the space wraps around to all zeros.
fn next_choice(choice: &mut [usize], cores: usize) -> bool {
    for core in choice.iter_mut() {
        *core += 1;
        if *core < cores {
            return true;
        }
        *core = 0;
    }
    false
}

/// A fast, solver-free placement for the service's degraded tier: greedy
/// min-power construction where every estimate comes from the no-solve
/// degraded estimator (stale cache entries, neighbor splits, or the
/// proportional closed form — see
/// [`CombinedModel::estimate_processor_power_degraded`]). Reports the
/// worst equilibrium source any step needed so callers can tag the
/// answer honestly.
///
/// # Errors
///
/// Validation errors as for [`optimize`]; the degraded tiers themselves
/// cannot fail on valid inputs.
pub fn greedy_min_power_degraded<M: CorePowerModel>(
    model: &CombinedModel<'_, M>,
    profiles: &[ProcessProfile],
    processes: &[usize],
) -> Result<(Assignment, DegradedEstimate), ModelError> {
    let inst = Instance::new(model, profiles, processes)?;
    let worst = Cell::new(DegradedSource::ExactCache);
    let mut asg = Assignment::new(inst.num_cores);
    let mut last = 0.0;
    for &p in &inst.procs {
        let mut best: Option<(f64, usize)> = None;
        for core in 0..inst.num_cores {
            let cand = asg.try_with_assigned(core, p)?;
            let est = model.estimate_processor_power_degraded(profiles, &cand)?;
            if est.source > worst.get() {
                worst.set(est.source);
            }
            let better = match &best {
                None => true,
                Some((w, _)) => est.power_w.total_cmp(w) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some((est.power_w, core));
            }
        }
        // Instance::new rejected zero-core machines, so a core was found.
        let Some((power, core)) = best else {
            return Err(ModelError::EmptyInput("machine cores"));
        };
        asg.try_assign(core, p)?;
        last = power;
    }
    Ok((asg, DegradedEstimate { power_w: last, source: worst.get() }))
}

/// What a search engine hands back to [`Search::finish`].
struct SearchOutcome {
    score: Score,
    choice: Vec<usize>,
    evaluated: u64,
    pruned: u64,
    /// Least-power placement seen (capped runs only; the infeasibility
    /// diagnostic).
    best_power: Option<(f64, Vec<usize>)>,
}

fn track_best(
    best: &mut Option<(Score, Vec<usize>)>,
    best_power: &mut Option<(f64, Vec<usize>)>,
    metrics: &Metrics,
    choice: &[usize],
) {
    let better = match best {
        None => true,
        Some((incumbent, _)) => metrics.score.better_than(incumbent),
    };
    if better {
        *best = Some((metrics.score, choice.to_vec()));
    }
    if let Some(p) = metrics.power_w {
        let better = match best_power {
            None => true,
            Some((w, _)) => p.total_cmp(w) == std::cmp::Ordering::Less,
        };
        if better {
            *best_power = Some((p, choice.to_vec()));
        }
    }
}

/// Depth-first enumeration over symmetry classes. Returns `Ok(None)`
/// when the class count exceeds `limit` (local search takes over).
fn exact_search<M: CorePowerModel>(
    search: &mut Search<'_, M>,
    limit: u64,
) -> Result<Option<SearchOutcome>, ModelError> {
    // Greedy incumbent: seeds the makespan bound and guarantees the
    // exact answer is never worse than the constructive one.
    let greedy_choice = greedy_construct(search)?;
    let incumbent_bound = match search.objective {
        Objective::MinMakespan => Some(search.score(&greedy_choice)?.score.value),
        _ => None,
    };

    // Enumerate symmetry classes, dedup by canonical key, apply the
    // admissible makespan bound, and keep one representative choice
    // vector per class (flat, `n` cores per leaf). Bails out as soon as
    // the class count exceeds the limit, before any set is staged.
    let inst = &search.inst;
    let cancel = search.cancel;
    let n = inst.procs.len();
    let mut seen: HashSet<Box<[u32]>> = HashSet::new();
    let mut scratch = LeafScratch::default();
    let mut leaves: Vec<usize> = Vec::new();
    // Equal-content processes are the only source of equivalent leaves:
    // with every class distinct, the candidate rule already yields one
    // leaf per class, so the keys are only built when a class repeats.
    let dedup = inst.classes.windows(2).any(|w| w[0] == w[1]);
    let mut dup_pruned = 0u64;
    let mut over_limit = false;
    let mut cancelled = false;
    let mut dfs = Dfs::new(inst, incumbent_bound);
    dfs.walk(0, &mut |queues, choice| {
        if cancel.is_cancelled() {
            cancelled = true;
            return false;
        }
        if dedup {
            inst.leaf_key(queues, &mut scratch);
            if seen.contains(scratch.key.as_slice()) {
                dup_pruned += 1;
                return true;
            }
        }
        if (leaves.len() / n) as u64 >= limit {
            over_limit = true;
            return false;
        }
        if dedup {
            seen.insert(scratch.key.as_slice().into());
        }
        leaves.extend_from_slice(choice);
        true
    });
    let bound_pruned = dfs.pruned;
    if cancelled {
        return Err(ModelError::Math(mathkit::MathError::Cancelled));
    }
    if over_limit {
        return Ok(None);
    }
    let pruned = dup_pruned + bound_pruned;

    // Stage every co-run set the instance can produce, resolve them in
    // one batch, then score in enumeration order (ties keep the earlier
    // leaf). Workers only affect the batch solve, never the bits.
    search.table.stage_all(&search.pids);
    search.fill()?;
    let mut best: Option<(Score, Vec<usize>)> = None;
    let mut best_power: Option<(f64, Vec<usize>)> = None;
    let mut evaluated = 0u64;
    for choice in leaves.chunks_exact(n) {
        let metrics = search.score(choice)?;
        evaluated += 1;
        track_best(&mut best, &mut best_power, &metrics, choice);
    }

    // The greedy incumbent competes too (it is always one of the
    // enumerated classes unless the bound pruned its subtree, which can
    // only happen on a tie).
    let metrics = search.score(&greedy_choice)?;
    evaluated += 1;
    track_best(&mut best, &mut best_power, &metrics, &greedy_choice);

    // The greedy incumbent always scores, so `best` is populated.
    let Some((score, choice)) = best else {
        return Err(ModelError::EmptyInput("placements to score"));
    };
    Ok(Some(SearchOutcome { score, choice, evaluated, pruned, best_power }))
}

/// The exact engine's depth-first walk over symmetry classes: processes
/// in canonical order, each onto a candidate core.
struct Dfs<'a> {
    inst: &'a Instance,
    choice: Vec<usize>,
    /// Process classes per core.
    queues: Vec<Vec<u32>>,
    /// Largest alone SPI per core (for the makespan bound).
    max_alone: Vec<f64>,
    /// Candidate cores per depth.
    candidates: Vec<Vec<usize>>,
    incumbent_bound: Option<f64>,
    /// Subtrees cut by the makespan bound.
    pruned: u64,
}

impl<'a> Dfs<'a> {
    fn new(inst: &'a Instance, incumbent_bound: Option<f64>) -> Self {
        let n = inst.procs.len();
        Dfs {
            inst,
            choice: Vec::with_capacity(n),
            queues: vec![Vec::new(); inst.num_cores],
            max_alone: vec![0.0; inst.num_cores],
            candidates: vec![Vec::new(); n],
            incumbent_bound,
            pruned: 0,
        }
    }

    /// Places process `k` and below; `visit` gets each not-yet-pruned
    /// leaf (class queues + choice vector) and returns `false` to abort
    /// the whole walk.
    fn walk<V: FnMut(&[Vec<u32>], &[usize]) -> bool>(&mut self, k: usize, visit: &mut V) -> bool {
        let inst = self.inst;
        if k == inst.procs.len() {
            return visit(&self.queues, &self.choice);
        }
        let mut candidates = std::mem::take(&mut self.candidates[k]);
        inst.candidate_cores(&self.queues, &mut candidates);
        let mut cont = true;
        for &core in &candidates {
            let prev_max = self.max_alone[core];
            self.choice.push(core);
            self.queues[core].push(inst.classes[k]);
            self.max_alone[core] = prev_max.max(inst.alone_spi[k]);

            // Strictly-worse subtrees cannot improve on the incumbent;
            // ties are kept so the incumbent stays reachable.
            let bounded = self.incumbent_bound.is_some_and(|limit| {
                inst.makespan_bound(&self.queues, &self.max_alone).total_cmp(&limit)
                    == std::cmp::Ordering::Greater
            });
            if bounded {
                self.pruned += 1;
            } else {
                cont = self.walk(k + 1, visit);
            }

            self.max_alone[core] = prev_max;
            self.queues[core].pop();
            self.choice.pop();
            if !cont {
                break;
            }
        }
        self.candidates[k] = candidates;
        cont
    }
}

/// Greedy construction in canonical process order: each process goes to
/// the core that scores best given everything placed so far. Each step
/// stages and fills its candidates' sets before scoring them.
fn greedy_construct<M: CorePowerModel>(
    search: &mut Search<'_, M>,
) -> Result<Vec<usize>, ModelError> {
    let n = search.inst.procs.len();
    let cores = search.inst.num_cores;
    let mut choice: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..n {
        for core in 0..cores {
            choice.push(core);
            let staged = search.stage(&choice);
            choice.pop();
            staged?;
        }
        search.fill()?;
        let mut best: Option<(Score, usize)> = None;
        for core in 0..cores {
            choice.push(core);
            let metrics = search.score(&choice);
            choice.pop();
            let metrics = metrics?;
            let better = match &best {
                None => true,
                Some((s, _)) => metrics.score.better_than(s),
            };
            if better {
                best = Some((metrics.score, core));
            }
        }
        // Instance::new rejected zero-core machines, so a core was found.
        let Some((_, core)) = best else {
            return Err(ModelError::EmptyInput("machine cores"));
        };
        choice.push(core);
    }
    Ok(choice)
}

/// Seeded local search: greedy start plus seeded random restarts, each
/// refined by steepest-descent move/swap neighborhoods. The table fills
/// lazily: each round stages its neighbors, solves only the sets they
/// add (one batch), and scores them in a fixed order.
fn local_search<M: CorePowerModel>(
    search: &mut Search<'_, M>,
    opts: &OptimizeOptions,
) -> Result<SearchOutcome, ModelError> {
    const MAX_ROUNDS: usize = 64;
    let n = search.inst.procs.len();
    let cores = search.inst.num_cores;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.seed);
    let mut best: Option<(Score, Vec<usize>)> = None;
    let mut best_power: Option<(f64, Vec<usize>)> = None;
    let mut evaluated = 0u64;

    for restart in 0..=opts.restarts {
        let mut choice = if restart == 0 {
            greedy_construct(search)?
        } else {
            (0..n).map(|_| rng.gen_range(0..cores)).collect()
        };
        search.stage(&choice)?;
        search.fill()?;
        let start = search.score(&choice)?;
        evaluated += 1;
        let mut current = start.score;
        track_best(&mut best, &mut best_power, &start, &choice);

        for _round in 0..MAX_ROUNDS {
            // Neighborhood: every single-process move, then every pair
            // swap, in a fixed order.
            let mut neighbors: Vec<Vec<usize>> = Vec::new();
            for k in 0..n {
                for core in 0..cores {
                    if core == choice[k] {
                        continue;
                    }
                    let mut next = choice.clone();
                    next[k] = core;
                    neighbors.push(next);
                }
            }
            for a in 0..n {
                for b in (a + 1)..n {
                    if choice[a] == choice[b] {
                        continue;
                    }
                    let mut next = choice.clone();
                    next.swap(a, b);
                    neighbors.push(next);
                }
            }
            if neighbors.is_empty() {
                break;
            }
            for next in &neighbors {
                search.stage(next)?;
            }
            search.fill()?;
            let mut round_best: Option<(Score, usize)> = None;
            for (i, next) in neighbors.iter().enumerate() {
                let metrics = search.score(next)?;
                evaluated += 1;
                track_best(&mut best, &mut best_power, &metrics, next);
                let better = match &round_best {
                    None => metrics.score.better_than(&current),
                    Some((s, _)) => metrics.score.better_than(s),
                };
                if better {
                    round_best = Some((metrics.score, i));
                }
            }
            match round_best {
                Some((score, i)) => {
                    choice = neighbors[i].clone();
                    current = score;
                }
                None => break, // local optimum
            }
        }
    }

    // Every restart scores its starting point, so `best` is populated.
    let Some((score, choice)) = best else {
        return Err(ModelError::EmptyInput("placements to score"));
    };
    Ok(SearchOutcome { score, choice, evaluated, pruned: 0, best_power })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureVector;
    use crate::histogram::ReuseHistogram;
    use crate::power::{PowerModel, PowerObservation};
    use crate::spi::SpiModel;
    use cmpsim::machine::MachineConfig;
    use rand::Rng;
    use rand::SeedableRng;

    fn tiny_server() -> MachineConfig {
        MachineConfig { l2_sets: 64, l2_assoc: 8, ..MachineConfig::four_core_server() }
    }

    fn synthetic_profile(
        name: &str,
        tail: f64,
        api: f64,
        machine: &MachineConfig,
    ) -> ProcessProfile {
        let head = 1.0 - tail;
        let hist =
            ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail)
                .unwrap();
        let alpha = api * (machine.mem_cycles - machine.l2_hit_cycles) as f64 / machine.freq_hz;
        let beta = (machine.cpi_base + api * machine.l2_hit_cycles as f64) / machine.freq_hz;
        let feature = FeatureVector::new(
            name,
            hist,
            api,
            SpiModel::new(alpha, beta).unwrap(),
            machine.l2_assoc(),
        )
        .unwrap();
        ProcessProfile {
            feature,
            l1rpi: 0.35,
            l2rpi: api,
            brpi: 0.2,
            fppi: 0.1,
            processor_alone_w: 60.0,
            idle_processor_w: 44.0,
        }
    }

    fn synthetic_power_model(machine: &MachineConfig) -> PowerModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = machine.num_cores() as f64;
        let mut obs = Vec::new();
        for _ in 0..200 {
            let ips = rng.gen_range(1e6..2.4e7);
            let rates = cmpsim::hpc::EventRates {
                ips,
                l1rps: ips * rng.gen_range(0.2..0.5),
                l2rps: ips * rng.gen_range(0.001..0.05),
                l2mps: ips * rng.gen_range(0.0..0.02),
                brps: ips * rng.gen_range(0.05..0.3),
                fpps: ips * rng.gen_range(0.0..0.3),
            };
            let watts = machine.power.core_power(&rates) + machine.power.uncore_w / n;
            obs.push(PowerObservation { rates, core_watts: watts });
        }
        PowerModel::fit_mvlr(&obs).unwrap()
    }

    fn profile_set(machine: &MachineConfig, n: usize) -> Vec<ProcessProfile> {
        let tails = [0.05, 0.12, 0.2, 0.3, 0.4, 0.5, 0.08, 0.25];
        let apis = [0.008, 0.012, 0.02, 0.03, 0.04, 0.015, 0.025, 0.01];
        (0..n)
            .map(|i| {
                synthetic_profile(
                    &format!("p{i}"),
                    tails[i % tails.len()],
                    apis[i % apis.len()],
                    machine,
                )
            })
            .collect()
    }

    #[test]
    fn objective_spec_round_trips() {
        for spec in ["power", "makespan", "capped:55.5"] {
            let o = Objective::from_spec(spec).unwrap();
            assert_eq!(o.spec(), spec);
        }
        assert!(Objective::from_spec("speed").is_err());
        assert!(Objective::from_spec("capped:").is_err());
        assert!(Objective::from_spec("capped:-3").is_err());
        assert!(Objective::from_spec("capped:nan").is_err());
    }

    #[test]
    fn exact_matches_brute_force_on_all_objectives() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 5);
        let processes: Vec<usize> = (0..5).collect();
        let cancel = CancelToken::never();

        // A cap between the min and max power makes capped feasible but
        // non-trivial.
        let cm = CombinedModel::new(&m, &pm);
        let min_p =
            brute_force(&cm, &profiles, &processes, Objective::MinPower, &cancel).unwrap().power_w;
        let cap = min_p + 1.0;

        for objective in
            [Objective::MinPower, Objective::MinMakespan, Objective::PowerCapped { cap_w: cap }]
        {
            let cm = CombinedModel::new(&m, &pm);
            let exact = optimize(
                &cm,
                &profiles,
                &processes,
                objective,
                &OptimizeOptions::default(),
                &cancel,
            )
            .unwrap();
            assert_eq!(exact.method, SearchMethod::Exact, "{objective:?}");
            let cm2 = CombinedModel::new(&m, &pm);
            let brute = brute_force(&cm2, &profiles, &processes, objective, &cancel).unwrap();
            let (a, b) = match objective {
                Objective::MinPower => (exact.power_w, brute.power_w),
                _ => (exact.makespan, brute.makespan),
            };
            assert_eq!(a.to_bits(), b.to_bits(), "{objective:?}: exact {a} vs brute {b}");
            assert!(
                exact.evaluated < brute.evaluated,
                "{objective:?}: symmetry pruning should shrink the search \
                 ({} vs {})",
                exact.evaluated,
                brute.evaluated
            );
            assert_eq!(exact.assignment.num_processes(), processes.len());
        }
    }

    #[test]
    fn infeasible_cap_is_typed_with_diagnostic() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 4);
        let processes: Vec<usize> = (0..4).collect();
        let cm = CombinedModel::new(&m, &pm);
        let err = optimize(
            &cm,
            &profiles,
            &processes,
            Objective::PowerCapped { cap_w: 1.0 },
            &OptimizeOptions::default(),
            &CancelToken::never(),
        )
        .unwrap_err();
        match err {
            ModelError::InfeasiblePowerCap { cap_w, best_power_w, best_placement } => {
                assert_eq!(cap_w, 1.0);
                assert!(best_power_w > 1.0);
                let placed: usize = best_placement.iter().map(Vec::len).sum();
                assert_eq!(placed, 4, "diagnostic must carry a complete placement");
                // The diagnostic really is the least-power placement.
                let best = optimize(
                    &cm,
                    &profiles,
                    &processes,
                    Objective::MinPower,
                    &OptimizeOptions::default(),
                    &CancelToken::never(),
                )
                .unwrap();
                assert_eq!(best.power_w.to_bits(), best_power_w.to_bits());
            }
            other => panic!("expected InfeasiblePowerCap, got {other:?}"),
        }
    }

    #[test]
    fn local_search_is_valid_and_not_worse_than_random() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 6);
        let processes: Vec<usize> = (0..6).collect();
        let cm = CombinedModel::new(&m, &pm);
        let cancel = CancelToken::never();
        let opts = OptimizeOptions { exhaustive_leaf_limit: 0, restarts: 1, ..Default::default() };
        let got =
            optimize(&cm, &profiles, &processes, Objective::MinPower, &opts, &cancel).unwrap();
        assert_eq!(got.method, SearchMethod::LocalSearch);
        assert_eq!(got.assignment.num_processes(), 6);
        assert_eq!(got.assignment.num_cores(), m.num_cores());

        // Never worse than a seeded random placement.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.seed);
        let mut random = Assignment::new(m.num_cores());
        for &p in &processes {
            random.assign(rng.gen_range(0..m.num_cores()), p);
        }
        let random_power = cm.estimate_processor_power(&profiles, &random).unwrap();
        assert!(
            got.power_w <= random_power,
            "local search {} worse than random {}",
            got.power_w,
            random_power
        );
    }

    #[test]
    fn local_search_matches_exact_on_small_instance() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 4);
        let processes: Vec<usize> = (0..4).collect();
        let cm = CombinedModel::new(&m, &pm);
        let cancel = CancelToken::never();
        let exact = optimize(
            &cm,
            &profiles,
            &processes,
            Objective::MinPower,
            &OptimizeOptions::default(),
            &cancel,
        )
        .unwrap();
        let opts = OptimizeOptions { exhaustive_leaf_limit: 0, restarts: 2, ..Default::default() };
        let local =
            optimize(&cm, &profiles, &processes, Objective::MinPower, &opts, &cancel).unwrap();
        assert!(local.power_w >= exact.power_w, "local search cannot beat the true optimum");
        assert!(
            (local.power_w - exact.power_w) / exact.power_w < 0.05,
            "local search should land near the optimum: {} vs {}",
            local.power_w,
            exact.power_w
        );
    }

    #[test]
    fn validation_errors_are_typed() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 2);
        let cm = CombinedModel::new(&m, &pm);
        let cancel = CancelToken::never();
        let opts = OptimizeOptions::default();
        assert!(matches!(
            optimize(&cm, &profiles, &[], Objective::MinPower, &opts, &cancel),
            Err(ModelError::EmptyInput(_))
        ));
        assert!(matches!(
            optimize(&cm, &profiles, &[7], Objective::MinPower, &opts, &cancel),
            Err(ModelError::InvalidAssignment(_))
        ));
    }

    #[test]
    fn duplicate_profiles_are_separate_processes() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 2);
        let cm = CombinedModel::new(&m, &pm);
        let got = optimize(
            &cm,
            &profiles,
            &[0, 0, 1],
            Objective::MinPower,
            &OptimizeOptions::default(),
            &CancelToken::never(),
        )
        .unwrap();
        assert_eq!(got.assignment.num_processes(), 3);
    }

    #[test]
    fn degraded_greedy_places_everything_and_tags_source() {
        let m = tiny_server();
        let pm = synthetic_power_model(&m);
        let profiles = profile_set(&m, 4);
        let cm = CombinedModel::new(&m, &pm);
        // Cold cache: everything must come from the proportional tier.
        let (asg, est) = greedy_min_power_degraded(&cm, &profiles, &[0, 1, 2, 3]).unwrap();
        assert_eq!(asg.num_processes(), 4);
        assert!(est.power_w.is_finite());
        assert_eq!(est.source, DegradedSource::ProportionalSplit);
    }
}
