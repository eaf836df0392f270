//! The combined performance + power model for assignment-time power
//! estimation (paper §5, Fig. 1, Eq. 11).
//!
//! The power model alone cannot evaluate a *tentative* assignment: its
//! inputs are HPC rates that exist only after the processes run. The
//! combined model closes the loop with profiling data. Instruction-related
//! event rates (L1RPI, L2RPI, BRPI, FPPI) are process properties fixed by
//! the input data; contention only changes SPI and the miss ratio L2MPR —
//! both of which the performance model predicts. Each per-second rate is
//! then `rate = per-instruction rate / SPI`, and Eq. 9 turns the rates
//! into power. Averaging over the Eq. 10 process combinations yields the
//! processor power of the assignment — using profiling data only.

use crate::corun::{CorunTable, Pid};
use crate::eqcache::{EqCacheStats, EquilibriumCache};
use crate::equilibrium::{self, Equilibrium, SolveDiagnostics};
use crate::feature::FeatureVector;
use crate::perf::PerformanceModel;
use crate::power::CorePowerModel;
use crate::profile::ProcessProfile;
use crate::ModelError;
use cmpsim::machine::MachineConfig;
use cmpsim::types::DieId;
use mathkit::sync::CancelToken;
use std::cell::Cell;

/// A tentative process-to-core mapping over profile indices.
///
/// # Examples
///
/// ```
/// use mpmc_model::assignment::Assignment;
///
/// let mut asg = Assignment::new(4);
/// asg.assign(0, 2).assign(0, 1).assign(3, 0);
/// assert_eq!(asg.processes_on(0), &[2, 1]);
/// assert_eq!(asg.num_processes(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    per_core: Vec<Vec<usize>>,
}

impl Assignment {
    /// An empty assignment over `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        Assignment { per_core: vec![Vec::new(); num_cores] }
    }

    /// Adds process `profile_idx` to `core`'s run queue.
    ///
    /// Prefer [`Assignment::try_assign`] anywhere `core` comes from the
    /// outside world (wire requests, CLI arguments); this infallible name
    /// is for call sites whose index is locally proved in range.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn assign(&mut self, core: usize, profile_idx: usize) -> &mut Self {
        self.per_core[core].push(profile_idx);
        self
    }

    /// Fallible [`Assignment::assign`]: rejects an out-of-range `core`
    /// with a typed error instead of panicking, so wire- and CLI-driven
    /// callers cannot crash the process with a bad index.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_assign(&mut self, core: usize, profile_idx: usize) -> Result<&mut Self, ModelError> {
        if core >= self.per_core.len() {
            return Err(ModelError::InvalidCore { core, num_cores: self.per_core.len() });
        }
        self.per_core[core].push(profile_idx);
        Ok(self)
    }

    /// The processes queued on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; see
    /// [`Assignment::try_processes_on`] for untrusted indices.
    pub fn processes_on(&self, core: usize) -> &[usize] {
        &self.per_core[core]
    }

    /// Fallible [`Assignment::processes_on`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_processes_on(&self, core: usize) -> Result<&[usize], ModelError> {
        self.per_core
            .get(core)
            .map(Vec::as_slice)
            .ok_or(ModelError::InvalidCore { core, num_cores: self.per_core.len() })
    }

    /// Number of cores this assignment covers.
    pub fn num_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Total processes assigned.
    pub fn num_processes(&self) -> usize {
        self.per_core.iter().map(Vec::len).sum()
    }

    /// A copy with `profile_idx` additionally assigned to `core` — the
    /// "what if process K goes on core C" primitive of Fig. 1.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; see
    /// [`Assignment::try_with_assigned`] for untrusted indices.
    pub fn with_assigned(&self, core: usize, profile_idx: usize) -> Assignment {
        let mut next = self.clone();
        next.assign(core, profile_idx);
        next
    }

    /// Fallible [`Assignment::with_assigned`].
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCore`] if `core >= self.num_cores()`.
    pub fn try_with_assigned(
        &self,
        core: usize,
        profile_idx: usize,
    ) -> Result<Assignment, ModelError> {
        let mut next = self.clone();
        next.try_assign(core, profile_idx)?;
        Ok(next)
    }

    /// The per-core run queues as owned index lists (wire/diagnostic
    /// serialization helper).
    pub fn to_queues(&self) -> Vec<Vec<usize>> {
        self.per_core.clone()
    }
}

/// Where a degraded estimate's equilibria came from, ordered best to
/// worst. When one estimate mixes tiers across its Eq. 10 combinations,
/// the *worst* tier used is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedSource {
    /// Every contended combination was answered from a (possibly stale)
    /// exact cache entry — numerically identical to a fresh solve.
    ExactCache,
    /// At least one combination reused a cached *neighbor* co-run's
    /// cache split (same co-runner count, all but one fingerprint
    /// shared), re-rated against the requesting co-run's own curves.
    StaleNeighbor,
    /// At least one combination fell through to the proportional-to-API
    /// closed-form split ([`equilibrium::solve_proportional`]).
    ProportionalSplit,
}

impl Ord for DegradedSource {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for DegradedSource {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl DegradedSource {
    /// Stable lowercase label for wire protocols and logs.
    pub fn name(self) -> &'static str {
        match self {
            DegradedSource::ExactCache => "exact_cache",
            DegradedSource::StaleNeighbor => "stale_neighbor",
            DegradedSource::ProportionalSplit => "proportional_split",
        }
    }
}

/// A degraded-tier power estimate: the value plus an honest account of
/// where its equilibria came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedEstimate {
    /// Estimated average processor power (watts).
    pub power_w: f64,
    /// The worst equilibrium source any combination needed.
    pub source: DegradedSource,
}

/// The combined model: performance model + power model + profiles.
///
/// Every estimate is scored from a co-run table: the die-level co-run
/// sets the placement (or candidate sweep, or search) needs are interned
/// once, their equilibria resolved once, and the Eq. 10/11 walk then
/// reads per-member power and SPI from the table.
///
/// Equilibria are resolved through a memo cache, so the same co-runners
/// on the same cache are solved once across requests — the reuse a
/// long-running daemon gets. The cache key is the *canonically ordered*
/// list of co-runner content fingerprints (histogram + API + SPI
/// coefficients + associativity), so it stays valid even if callers
/// re-index, re-order, or rebuild their profile slices, and permuted
/// co-runner sets share one entry.
///
/// The cache is bounded (sharded LRU, default
/// [`eqcache::DEFAULT_CAPACITY`](crate::eqcache::DEFAULT_CAPACITY)
/// entries) so long-running services never grow without limit; an
/// evicted co-runner set simply re-solves to a bit-identical
/// [`Equilibrium`] on its next appearance.
pub struct CombinedModel<'a, M: CorePowerModel> {
    machine: &'a MachineConfig,
    power: &'a M,
    perf: PerformanceModel,
    eq_cache: EquilibriumCache,
    warm_start: bool,
}

impl<'a, M: CorePowerModel> CombinedModel<'a, M> {
    /// Creates a combined model for `machine` using the fitted core power
    /// model `power`.
    pub fn new(machine: &'a MachineConfig, power: &'a M) -> Self {
        CombinedModel {
            machine,
            power,
            perf: PerformanceModel::new(machine.l2_assoc()),
            eq_cache: EquilibriumCache::new(crate::eqcache::DEFAULT_CAPACITY),
            warm_start: false,
        }
    }

    /// Enables warm-started Newton on equilibrium cache misses: when a
    /// same-cardinality neighbor co-run is cached, its split seeds a
    /// damped Newton solve instead of the cold solver, falling back to
    /// the configured cold solver if the warm solve does not converge
    /// (counted in [`EqCacheStats::warm_fallbacks`]).
    ///
    /// Off by default because it is a *different deterministic policy*,
    /// not a bit-identical speedup: a warm-started solve converges to the
    /// same fixed point as the cold Newton solve but along a different
    /// iterate path, so last-bit results can differ from the cold-solver
    /// baseline and depend on which co-runs were estimated previously.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Replaces the equilibrium memo cache with one bounded at
    /// `capacity` entries (rounded up to a multiple of the shard count;
    /// 0 disables memoization). Estimates are bit-identical for any
    /// capacity — the bound only affects time and memory.
    #[must_use]
    pub fn with_equilibrium_cache_capacity(mut self, capacity: usize) -> Self {
        self.eq_cache = EquilibriumCache::new(capacity);
        self
    }

    /// The machine this model estimates for (the placement optimizer
    /// needs the core/die topology to enumerate candidates).
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The fitted core power model (Eq. 9).
    pub(crate) fn power_model(&self) -> &M {
        self.power
    }

    /// Number of distinct co-runner sets whose equilibrium is currently
    /// memoized (diagnostics / tests).
    pub fn cached_equilibria(&self) -> usize {
        self.eq_cache.entries()
    }

    /// A snapshot of the memo-cache counters (hits, misses, evictions,
    /// occupancy, capacity).
    pub fn equilibrium_cache_stats(&self) -> EqCacheStats {
        self.eq_cache.stats()
    }

    /// Fresh equilibrium solves that needed the fallback chain or came
    /// back degraded (service diagnostics).
    pub fn solver_fallbacks(&self) -> u64 {
        self.eq_cache.fallback_solves()
    }

    /// Drops all memoized equilibrium solves.
    pub fn clear_equilibrium_cache(&self) {
        self.eq_cache.clear();
    }

    /// Estimated average processor power of `assignment`, from profiling
    /// data only (Eq. 11 summed over dies).
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidAssignment`] if the assignment shape or any
    ///   profile index is invalid.
    /// - Equilibrium errors from the performance model.
    pub fn estimate_processor_power(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<f64, ModelError> {
        self.estimate_processor_power_cancellable(profiles, assignment, &CancelToken::never())
    }

    /// [`CombinedModel::estimate_processor_power`] with a cooperative
    /// cancellation token threaded into every equilibrium solve, so a
    /// serving deadline can reclaim the worker mid-estimate. Bit-identical
    /// to the plain method under a never-firing token.
    ///
    /// # Errors
    ///
    /// Everything the plain method returns, plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)` once
    /// the token fires.
    pub fn estimate_processor_power_cancellable(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        let (mut table, queues) = self.staged_table(profiles, assignment, cancel)?;
        table.fill(0, cancel)?;
        table.power(&queues, cancel)
    }

    /// Degraded-tier estimate: answers **without running the equilibrium
    /// solvers**, for a serving layer whose circuit breaker has tripped.
    /// Each contended co-run set is answered from the best available
    /// no-solve source — a (possibly stale) exact memo-cache entry, else
    /// the nearest cached neighbor co-run's split re-rated against the
    /// requesting processes' own curves, else the proportional-to-API
    /// closed form — and the *worst* tier any set needed is reported
    /// alongside the estimate. Degraded lookups never promote, insert,
    /// or count toward cache/fallback statistics.
    ///
    /// # Errors
    ///
    /// Validation errors as for
    /// [`CombinedModel::estimate_processor_power`]; the no-solve tiers
    /// themselves cannot fail on valid inputs.
    pub fn estimate_processor_power_degraded(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<DegradedEstimate, ModelError> {
        let never = CancelToken::never();
        let (mut table, queues) = self.staged_table(profiles, assignment, &never)?;
        let source = table.fill_degraded();
        Ok(DegradedEstimate { power_w: table.power(&queues, &never)?, source })
    }

    /// A table over `assignment`'s processes with every co-run set of
    /// the placement staged, plus the placement as table queues.
    fn staged_table<'t>(
        &'t self,
        profiles: &'t [ProcessProfile],
        assignment: &Assignment,
        cancel: &CancelToken,
    ) -> Result<(CorunTable<'t, M>, Vec<Vec<Pid>>), ModelError> {
        self.validate(profiles, assignment)?;
        let mut table = CorunTable::for_assignment(self, profiles, assignment);
        let queues = table.queues(assignment)?;
        table.stage(&queues, cancel)?;
        Ok((table, queues))
    }

    /// Estimated average power of one die's cores under `assignment`
    /// (exposed so callers can inspect the per-die split).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_die_power(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        die: DieId,
    ) -> Result<f64, ModelError> {
        let never = CancelToken::never();
        self.validate(profiles, assignment)?;
        let die = die.0 as usize;
        if die >= self.machine.dies {
            return Err(ModelError::InvalidAssignment(format!(
                "die {die} out of range: machine has {} dies",
                self.machine.dies
            )));
        }
        let mut table = CorunTable::for_assignment(self, profiles, assignment);
        let queues = table.queues(assignment)?;
        table.stage_die(die, &queues, &never)?;
        table.fill(0, &never)?;
        table.die_power(die, &queues, &never)
    }

    /// Estimated makespan of `assignment`: the worst per-process relative
    /// completion time under Eq. 10 round-robin time sharing. Each process
    /// retiring a fixed instruction budget on a queue of length `q`
    /// finishes in time proportional to `q * mean_spi`, where `mean_spi`
    /// is its seconds-per-instruction averaged over the Eq. 10
    /// combinations it runs in (contended SPIs come from the co-run
    /// equilibria; a process running alone in a combination uses its
    /// predicted full-cache SPI). The makespan is the maximum over all
    /// assigned processes; an empty assignment has makespan `0.0`. Units
    /// are seconds per instruction of budget — meaningful relative to
    /// other placements of the same process set on the same machine.
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_makespan(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
    ) -> Result<f64, ModelError> {
        self.estimate_makespan_cancellable(profiles, assignment, &CancelToken::never())
    }

    /// [`CombinedModel::estimate_makespan`] with a cooperative
    /// cancellation token (see
    /// [`CombinedModel::estimate_processor_power_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_makespan`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_makespan_cancellable(
        &self,
        profiles: &[ProcessProfile],
        assignment: &Assignment,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        let (mut table, queues) = self.staged_table(profiles, assignment, cancel)?;
        table.fill(0, cancel)?;
        table.makespan(&queues, cancel)
    }

    /// Fig. 1's incremental query: estimated processor power after
    /// additionally assigning `profile_idx` to `core`.
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_processor_power`].
    pub fn estimate_after_assigning(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        core: usize,
    ) -> Result<f64, ModelError> {
        self.estimate_after_assigning_cancellable(
            profiles,
            current,
            profile_idx,
            core,
            &CancelToken::never(),
        )
    }

    /// [`CombinedModel::estimate_after_assigning`] with a cooperative
    /// cancellation token (see
    /// [`CombinedModel::estimate_processor_power_cancellable`]).
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_after_assigning`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_after_assigning_cancellable(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        core: usize,
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        self.estimate_processor_power_cancellable(
            profiles,
            &current.try_with_assigned(core, profile_idx)?,
            cancel,
        )
    }

    /// Evaluates [`CombinedModel::estimate_after_assigning`] for every
    /// candidate core, returning one estimate per entry of `cores` in
    /// order. All candidates share one co-run table, so the sets common
    /// to several candidates (every die the tentative process does not
    /// touch) are resolved once, and the sets missing from the memo
    /// cache are solved together over `workers` threads (`0` = auto).
    /// The result is identical to a sequential loop for any worker
    /// count.
    ///
    /// # Errors
    ///
    /// The error of the first (lowest-index) failing candidate, exactly
    /// as a sequential loop would report.
    pub fn estimate_candidates(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        cores: &[usize],
        workers: usize,
    ) -> Result<Vec<f64>, ModelError>
    where
        M: Sync,
    {
        self.estimate_candidates_cancellable(
            profiles,
            current,
            profile_idx,
            cores,
            workers,
            &CancelToken::never(),
        )
    }

    /// [`CombinedModel::estimate_candidates`] with one cooperative
    /// cancellation token shared by the batch solve and the scoring
    /// walk: once it fires, the sweep reports
    /// [`mathkit::MathError::Cancelled`].
    ///
    /// # Errors
    ///
    /// As for [`CombinedModel::estimate_candidates`], plus
    /// [`ModelError::Math`]`(`[`mathkit::MathError::Cancelled`]`)`.
    pub fn estimate_candidates_cancellable(
        &self,
        profiles: &[ProcessProfile],
        current: &Assignment,
        profile_idx: usize,
        cores: &[usize],
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, ModelError>
    where
        M: Sync,
    {
        // Invalid candidates report their own error at their position.
        let tentatives: Vec<Result<Assignment, ModelError>> = cores
            .iter()
            .map(|&core| {
                let tentative = current.try_with_assigned(core, profile_idx)?;
                self.validate(profiles, &tentative)?;
                Ok(tentative)
            })
            .collect();
        let valid = || tentatives.iter().filter_map(|t| t.as_ref().ok());
        let procs = valid().flat_map(|t| t.per_core.iter().flatten().copied());
        let mut table = CorunTable::new(self, profiles, procs);
        let mut queues = Vec::with_capacity(tentatives.len());
        for tentative in valid() {
            let q = table.queues(tentative)?;
            table.stage(&q, cancel)?;
            queues.push(q);
        }
        table.fill(workers, cancel)?;
        let mut queues = queues.iter();
        let mut out = Vec::with_capacity(tentatives.len());
        for tentative in tentatives {
            tentative?;
            let Some(q) = queues.next() else {
                return Err(ModelError::EmptyInput("staged candidate placements"));
            };
            out.push(table.power(q, cancel)?);
        }
        Ok(out)
    }

    /// Resolves the equilibria of co-run sets for a co-run table fill:
    /// one memo-cache lookup per set; the misses are solved — together
    /// in one batch over `workers` threads, or with warm start one by one
    /// in set order, since warm seeds depend on what was memoized just
    /// before — and memoized. Each set's features and key must be in
    /// canonical (fingerprint) order, so that cached and fresh results
    /// line up position by position.
    ///
    /// # Errors
    ///
    /// Per-set solve errors come back in their set's slot;
    /// [`mathkit::MathError::Cancelled`] aborts the whole fill.
    pub(crate) fn resolve_sets(
        &self,
        sets: &[equilibrium::CorunSet<'_>],
        keys: &[Vec<u64>],
        workers: usize,
        cancel: &CancelToken,
    ) -> Result<Vec<Result<Equilibrium, ModelError>>, ModelError> {
        let cached: Vec<Option<Equilibrium>> = keys.iter().map(|k| self.eq_cache.get(k)).collect();
        let missing: Vec<usize> = (0..sets.len()).filter(|&i| cached[i].is_none()).collect();
        let solved: Vec<Result<Equilibrium, ModelError>> = if self.warm_start {
            let mut out = Vec::with_capacity(missing.len());
            for &i in &missing {
                let eq = match self.solve_warm(&sets[i].features, &keys[i], cancel) {
                    Some(warm) => warm,
                    None => self.perf.solve_cancellable(&sets[i].features, cancel),
                };
                out.push(self.memoize(&keys[i], eq)?);
            }
            out
        } else {
            let batch: Vec<equilibrium::CorunSet<'_>> = missing
                .iter()
                .map(|&i| equilibrium::CorunSet { features: sets[i].features.clone() })
                .collect();
            // Resolving an auto worker count reads the host's CPU quota;
            // fewer than two sets run inline anyway.
            let workers = if batch.len() < 2 { 1 } else { workers };
            let results = self.perf.solve_batch_results(&batch, workers, cancel);
            let mut out = Vec::with_capacity(missing.len());
            for (&i, eq) in missing.iter().zip(results) {
                out.push(self.memoize(&keys[i], eq)?);
            }
            out
        };
        let mut solved = solved.into_iter();
        let mut out = Vec::with_capacity(sets.len());
        for hit in cached {
            match hit.map(Ok).or_else(|| solved.next()) {
                Some(res) => out.push(res),
                None => return Err(ModelError::EmptyInput("solved co-run sets")),
            }
        }
        Ok(out)
    }

    /// Memoizes a fresh solve under its canonical `key` (failed solves
    /// are not cached, so their errors keep surfacing) and counts it when
    /// it needed the fallback chain. Cancellation aborts the fill.
    fn memoize(
        &self,
        key: &[u64],
        res: Result<Equilibrium, ModelError>,
    ) -> Result<Result<Equilibrium, ModelError>, ModelError> {
        match res {
            Ok(eq) => {
                if eq.diagnostics.degraded || !eq.diagnostics.fallbacks.is_empty() {
                    self.eq_cache.note_fallback();
                }
                self.eq_cache.insert(key.to_vec(), eq.clone());
                Ok(Ok(eq))
            }
            Err(ModelError::Math(mathkit::MathError::Cancelled)) => {
                Err(ModelError::Math(mathkit::MathError::Cancelled))
            }
            Err(e) => Ok(Err(e)),
        }
    }

    /// Warm-started Newton on a cache miss: seeds the solve from the
    /// nearest cached neighbor's split (see
    /// [`CombinedModel::with_warm_start`]). `features` and `key` are in
    /// canonical order. Returns `None` when warm-start is disabled, no
    /// neighbor exists, or the warm solve did not converge (cold
    /// fallback — counted as a warm fallback but *not* as a solver
    /// fallback, since the cold path is expected to succeed normally).
    fn solve_warm(
        &self,
        features: &[&FeatureVector],
        key: &[u64],
        cancel: &CancelToken,
    ) -> Option<Result<Equilibrium, ModelError>> {
        if !self.warm_start {
            return None;
        }
        let (nkey, near) = self.eq_cache.neighbor(key)?;
        self.eq_cache.note_warm_attempt();

        // Two-pointer multiset match of the sorted canonical keys: matched
        // positions inherit the neighbor's canonical split, the (at most
        // one) unmatched position gets the leftover capacity.
        let a = self.machine.l2_assoc() as f64;
        let mut seed = vec![f64::NAN; key.len()];
        let mut matched_sum = 0.0;
        let (mut i, mut j) = (0, 0);
        // lint:allow(cancellation_propagation) -- bounded two-pointer sweep: i or j advances every iteration
        while i < key.len() && j < nkey.len() {
            match key[i].cmp(&nkey[j]) {
                std::cmp::Ordering::Equal => {
                    seed[i] = near.sizes[j];
                    matched_sum += near.sizes[j];
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        let leftover = (a - matched_sum).clamp(0.05, a);
        for s in &mut seed {
            if s.is_nan() {
                *s = leftover;
            }
        }

        match equilibrium::solve_newton_warm_cancellable(
            features,
            self.machine.l2_assoc(),
            &seed,
            near.window,
            cancel,
        ) {
            Ok(eq) => {
                self.eq_cache.note_warm_hit();
                Some(Ok(eq))
            }
            Err(ModelError::Math(mathkit::MathError::Cancelled)) => {
                Some(Err(ModelError::Math(mathkit::MathError::Cancelled)))
            }
            Err(_) => {
                self.eq_cache.note_warm_fallback();
                None
            }
        }
    }

    /// No-solve equilibrium for the degraded tier, for a set whose
    /// `features` and `key` are in canonical order: exact (possibly
    /// stale) cache entry, else the nearest cached neighbor's split
    /// re-rated on the set's own feature curves, else the proportional
    /// closed form. Never iterates, never touches the fallback counter,
    /// and never promotes or inserts cache entries — degraded traffic
    /// must not distort the healthy path's statistics or recency order.
    pub(crate) fn resolve_degraded(
        &self,
        features: &[&FeatureVector],
        key: &[u64],
        worst: &Cell<DegradedSource>,
    ) -> Result<Equilibrium, ModelError> {
        if let Some(canon) = self.eq_cache.peek(key) {
            return Ok(canon);
        }
        if let Some((_, near)) = self.eq_cache.neighbor(key) {
            Self::note_worst(worst, DegradedSource::StaleNeighbor);
            // Borrow the neighbor's cache split positionally (both sides
            // are in canonical order) and re-rate MPA/SPI/APS against the
            // requesting processes' own curves.
            let diag = SolveDiagnostics {
                method: near.diagnostics.method,
                iterations: 0,
                residual: 0.0,
                fallbacks: Vec::new(),
                degraded: true,
            };
            return Ok(Equilibrium::from_sizes(
                features,
                near.sizes.clone(),
                near.window,
                near.cache_filled,
                diag,
            ));
        }
        Self::note_worst(worst, DegradedSource::ProportionalSplit);
        equilibrium::solve_proportional(features, self.machine.l2_assoc())
    }

    /// Records `tier` if it is worse than anything seen so far.
    fn note_worst(worst: &Cell<DegradedSource>, tier: DegradedSource) {
        if tier > worst.get() {
            worst.set(tier);
        }
    }

    fn validate(&self, profiles: &[ProcessProfile], asg: &Assignment) -> Result<(), ModelError> {
        if asg.num_cores() != self.machine.num_cores() {
            return Err(ModelError::InvalidAssignment(format!(
                "assignment covers {} cores, machine has {}",
                asg.num_cores(),
                self.machine.num_cores()
            )));
        }
        for &p in asg.per_core.iter().flatten() {
            self.validate_process(profiles, p)?;
        }
        Ok(())
    }

    /// Checks that `p` indexes a profile built for this machine's cache.
    pub(crate) fn validate_process(
        &self,
        profiles: &[ProcessProfile],
        p: usize,
    ) -> Result<(), ModelError> {
        let Some(profile) = profiles.get(p) else {
            return Err(ModelError::InvalidAssignment(format!(
                "profile index {p} out of range for {} profiles",
                profiles.len()
            )));
        };
        if profile.feature.assoc() != self.machine.l2_assoc() {
            return Err(ModelError::InvalidAssignment(format!(
                "profile '{}' was built for {} ways, machine cache has {}",
                profile.feature.name(),
                profile.feature.assoc(),
                self.machine.l2_assoc()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::ReuseHistogram;
    use crate::power::{PowerModel, PowerObservation};
    use crate::spi::SpiModel;
    use rand::Rng;
    use rand::SeedableRng;

    /// A hand-built profile so tests do not need simulation runs.
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

    /// A power model fitted on synthetic observations derived from the
    /// machine's ground truth.
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

    fn server() -> MachineConfig {
        MachineConfig::four_core_server()
    }

    #[test]
    fn assignment_builder() {
        let mut a = Assignment::new(2);
        a.assign(1, 0);
        assert_eq!(a.num_processes(), 1);
        assert_eq!(a.processes_on(0), &[] as &[usize]);
        let b = a.with_assigned(0, 1);
        assert_eq!(b.num_processes(), 2);
        assert_eq!(a.num_processes(), 1, "with_assigned must not mutate");
    }

    #[test]
    fn empty_assignment_is_all_idle() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let est = cm.estimate_processor_power(&[], &Assignment::new(4)).unwrap();
        let idle = 4.0 * pm.idle_core_watts();
        assert!((est - idle).abs() < 1e-9);
    }

    #[test]
    fn single_process_uses_alone_power() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let p = synthetic_profile("solo", 0.3, 0.02, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0);
        let est = cm.estimate_processor_power(std::slice::from_ref(&p), &asg).unwrap();
        // core 0: alone power; cores 1-3 idle.
        let expect = p.core_power_alone(pm.idle_core_watts()) + 3.0 * pm.idle_core_watts();
        assert!((est - expect).abs() < 1e-9, "{est} vs {expect}");
    }

    #[test]
    fn contended_pair_uses_model_power() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1); // same die -> contention
        let est = cm.estimate_processor_power(&[a, b], &asg).unwrap();
        // Sanity range: above idle, below silly.
        let idle = 4.0 * pm.idle_core_watts();
        assert!(est > idle + 4.0, "{est} vs idle {idle}");
        assert!(est < idle + 60.0, "{est}");
    }

    #[test]
    fn separate_dies_do_not_contend() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.4, 0.03, &m);
        let mut same_die = Assignment::new(4);
        same_die.assign(0, 0).assign(1, 1);
        let mut diff_die = Assignment::new(4);
        diff_die.assign(0, 0).assign(2, 1);
        let ps = vec![a, b];
        let p_same = cm.estimate_processor_power(&ps, &same_die).unwrap();
        let p_diff = cm.estimate_processor_power(&ps, &diff_die).unwrap();
        // Across dies each runs alone (profiled alone power); same-die
        // estimates must differ because contention changes the rates.
        assert!((p_same - p_diff).abs() > 0.05, "same {p_same} vs diff {p_diff}");
    }

    #[test]
    fn time_sharing_averages_combinations() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.3, 0.02, &m);
        // Both on core 0, partner idle: average of two alone powers.
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(0, 1);
        let est = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        let expect = (a.core_power_alone(pm.idle_core_watts())
            + b.core_power_alone(pm.idle_core_watts()))
            / 2.0
            + 3.0 * pm.idle_core_watts();
        assert!((est - expect).abs() < 1e-9, "{est} vs {expect}");
    }

    #[test]
    fn incremental_matches_full() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let ps = vec![a, b];
        let mut current = Assignment::new(4);
        current.assign(0, 0);
        let inc = cm.estimate_after_assigning(&ps, &current, 1, 1).unwrap();
        let full = cm.estimate_processor_power(&ps, &current.with_assigned(1, 1)).unwrap();
        assert_eq!(inc, full);
    }

    #[test]
    fn validation_errors() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        // Wrong core count.
        assert!(cm.estimate_processor_power(&[], &Assignment::new(2)).is_err());
        // Bad profile index.
        let mut asg = Assignment::new(4);
        asg.assign(0, 5);
        assert!(cm.estimate_processor_power(&[], &asg).is_err());
        // Out-of-range core in incremental query.
        assert!(cm.estimate_after_assigning(&[], &Assignment::new(4), 0, 9).is_err());
    }

    #[test]
    fn memoized_estimates_are_identical_and_cached() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let cold = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1, "one contended pair solved");
        let warm = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cold.to_bits(), warm.to_bits(), "cache must not change results");
        cm.clear_equilibrium_cache();
        assert_eq!(cm.cached_equilibria(), 0);
        let refilled = cm.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(cold.to_bits(), refilled.to_bits());
    }

    #[test]
    fn cache_distinguishes_profile_content_not_index() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let ab = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        // Same indices, swapped contents: must NOT hit the stale entry.
        let ba = cm.estimate_processor_power(&[b.clone(), a.clone()], &asg).unwrap();
        let fresh = CombinedModel::new(&m, &pm);
        let ba_ref = fresh.estimate_processor_power(&[b, a], &asg).unwrap();
        assert_eq!(ba.to_bits(), ba_ref.to_bits(), "stale cache hit");
        // Symmetric pair, so powers agree loosely but the solves differ.
        assert!((ab - ba).abs() < 1.0);
    }

    #[test]
    fn estimate_candidates_matches_sequential_for_all_worker_counts() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let ps = vec![a, b, c];
        let mut current = Assignment::new(4);
        current.assign(0, 0).assign(2, 1);
        let cores = [0usize, 1, 2, 3];
        let seq: Vec<f64> = {
            let cm = CombinedModel::new(&m, &pm);
            cores
                .iter()
                .map(|&core| cm.estimate_after_assigning(&ps, &current, 2, core).unwrap())
                .collect()
        };
        for workers in [1usize, 2, 8] {
            let cm = CombinedModel::new(&m, &pm);
            let par = cm.estimate_candidates(&ps, &current, 2, &cores, workers).unwrap();
            let seq_bits: Vec<u64> = seq.iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u64> = par.iter().map(|x| x.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "workers = {workers}");
            assert!(cm.cached_equilibria() >= 1);
        }
    }

    #[test]
    fn permuted_corunners_share_one_cache_entry_bit_equal() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let ab = cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1);
        // Swapped profile order: same co-runner *set*, so the canonical
        // memo key must hit the existing entry...
        let ba = cm.estimate_processor_power(&[b.clone(), a.clone()], &asg).unwrap();
        assert_eq!(cm.cached_equilibria(), 1, "permutation must not add an entry");
        // ...and the permuted cached result must be bit-equal to a fresh
        // solve in the swapped order.
        let fresh = CombinedModel::new(&m, &pm);
        let ba_ref = fresh.estimate_processor_power(&[b, a], &asg).unwrap();
        assert_eq!(ba.to_bits(), ba_ref.to_bits());
        // Same physical co-run, so the totals agree (summation order over
        // cores differs, so only up to rounding).
        assert!((ab - ba).abs() < 1e-9, "{ab} vs {ba}");
    }

    #[test]
    fn estimate_candidates_order_independent_through_memo_cache() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let cores = [0usize, 1, 2, 3];
        // Reference: profiles in order [a, b, c], tentative process = c.
        let ps_ref = vec![a.clone(), b.clone(), c.clone()];
        let mut cur_ref = Assignment::new(4);
        cur_ref.assign(0, 0).assign(1, 1);
        let cm_ref = CombinedModel::new(&m, &pm);
        let est_ref = cm_ref.estimate_candidates(&ps_ref, &cur_ref, 2, &cores, 2).unwrap();
        // Permuted: profiles in order [c, b, a]; the same physical
        // placement (a on core 0, b on core 1, c tentative).
        let ps_perm = vec![c, b, a];
        let mut cur_perm = Assignment::new(4);
        cur_perm.assign(0, 2).assign(1, 1);
        let cm_perm = CombinedModel::new(&m, &pm);
        // Warm the permuted model's cache with the reference order first,
        // so the permuted estimates flow through permuted cache hits.
        let full_ref = cm_ref.estimate_processor_power(&ps_ref, &cur_ref.with_assigned(1, 2));
        let warm = cm_perm.estimate_processor_power(&ps_perm, &cur_perm.with_assigned(1, 0));
        assert_eq!(full_ref.unwrap().to_bits(), warm.unwrap().to_bits());
        let est_perm = cm_perm.estimate_candidates(&ps_perm, &cur_perm, 0, &cores, 2).unwrap();
        let ref_bits: Vec<u64> = est_ref.iter().map(|x| x.to_bits()).collect();
        let perm_bits: Vec<u64> = est_perm.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ref_bits, perm_bits, "physical placement is identical");
    }

    #[test]
    fn cache_stays_bounded_and_evicted_entries_resolve_bit_identical() {
        let m = server();
        let pm = synthetic_power_model(&m);
        // A deliberately tiny bound so a modest sweep overflows it.
        let cm = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(8);
        let cap = cm.equilibrium_cache_stats().capacity;
        assert!((8..=16).contains(&cap), "rounded-up capacity, got {cap}");

        // Sweep far more distinct contended pairs than the bound holds.
        let partner = synthetic_profile("partner", 0.2, 0.015, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let mut cold = Vec::new();
        for i in 0..3 * cap {
            let p = synthetic_profile("p", 0.1 + 0.7 * (i as f64) / (3 * cap) as f64, 0.02, &m);
            let ps = vec![p, partner.clone()];
            cold.push(cm.estimate_processor_power(&ps, &asg).unwrap());
            let st = cm.equilibrium_cache_stats();
            assert!(st.entries <= st.capacity, "iteration {i}: {st:?}");
        }
        let st = cm.equilibrium_cache_stats();
        assert!(st.evictions > 0, "sweep must overflow the bound: {st:?}");
        assert_eq!(st.misses as usize, 3 * cap, "each distinct pair solves once");

        // Replaying the sweep forces re-solves of evicted pairs; every
        // estimate must be bit-identical to its cold pass.
        for (i, &cold_est) in cold.iter().enumerate() {
            let p = synthetic_profile("p", 0.1 + 0.7 * (i as f64) / (3 * cap) as f64, 0.02, &m);
            let ps = vec![p, partner.clone()];
            let warm = cm.estimate_processor_power(&ps, &asg).unwrap();
            assert_eq!(cold_est.to_bits(), warm.to_bits(), "iteration {i}");
        }
    }

    #[test]
    fn zero_capacity_cache_still_estimates_identically() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let cached = CombinedModel::new(&m, &pm);
        let uncached = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        let x = cached.estimate_processor_power(&ps, &asg).unwrap();
        let y = uncached.estimate_processor_power(&ps, &asg).unwrap();
        assert_eq!(x.to_bits(), y.to_bits());
        assert_eq!(uncached.cached_equilibria(), 0);
        assert_eq!(uncached.equilibrium_cache_stats().capacity, 0);
    }

    #[test]
    fn cancellable_with_never_token_is_bit_exact() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let plain = cm.estimate_processor_power(&ps, &asg).unwrap();
        cm.clear_equilibrium_cache();
        let never =
            cm.estimate_processor_power_cancellable(&ps, &asg, &CancelToken::never()).unwrap();
        assert_eq!(plain.to_bits(), never.to_bits());
        let cands = cm.estimate_candidates(&ps, &Assignment::new(4), 0, &[0, 1], 2).unwrap();
        let cands_c = cm
            .estimate_candidates_cancellable(
                &ps,
                &Assignment::new(4),
                0,
                &[0, 1],
                2,
                &CancelToken::never(),
            )
            .unwrap();
        let xb: Vec<u64> = cands.iter().map(|x| x.to_bits()).collect();
        let yb: Vec<u64> = cands_c.iter().map(|x| x.to_bits()).collect();
        assert_eq!(xb, yb);
    }

    #[test]
    fn fired_token_propagates_typed_cancellation() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let fired = CancelToken::from_fn(|| true);
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(
            matches!(err, ModelError::Math(mathkit::MathError::Cancelled)),
            "want typed cancellation, got {err:?}"
        );
        // Candidate sweep: core 1 shares core 0's die, so the candidate
        // co-run is contended and must hit the cancellation point.
        let mut cur = Assignment::new(4);
        cur.assign(0, 0);
        let err = cm.estimate_candidates_cancellable(&ps, &cur, 1, &[1], 2, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
        // The combination walk itself is a cancellation point, so a
        // fired token stops the estimate even when every equilibrium is
        // already cached and no solver would run.
        let _ = cm.estimate_processor_power(&ps, &asg).unwrap();
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
    }

    #[test]
    fn fired_token_cancels_solver_free_paths() {
        // One process alone on its die: the makespan walk takes the
        // alone-on-die shortcut and never enters an equilibrium solve,
        // so only the combination walk's own poll can observe the token.
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let ps = vec![synthetic_profile("a", 0.4, 0.03, &m)];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0);
        let fired = CancelToken::from_fn(|| true);
        let err = cm.estimate_makespan_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(
            matches!(err, ModelError::Math(mathkit::MathError::Cancelled)),
            "solver-free makespan path must still cancel, got {err:?}"
        );
        let err = cm.estimate_processor_power_cancellable(&ps, &asg, &fired).unwrap_err();
        assert!(matches!(err, ModelError::Math(mathkit::MathError::Cancelled)));
    }

    #[test]
    fn degraded_exact_cache_tier_is_bit_exact_with_healthy_estimate() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let healthy = cm.estimate_processor_power(&ps, &asg).unwrap();
        let stats_before = cm.equilibrium_cache_stats();
        let deg = cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::ExactCache);
        assert_eq!(deg.power_w.to_bits(), healthy.to_bits());
        let stats_after = cm.equilibrium_cache_stats();
        assert_eq!(stats_before, stats_after, "degraded reads must not touch counters");
        assert_eq!(cm.solver_fallbacks(), 0, "degraded answers are not solver fallbacks");
    }

    #[test]
    fn degraded_neighbor_tier_reuses_nearest_cached_split() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let c = synthetic_profile("c", 0.45, 0.032, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        // Warm the cache with the (a, b) pair, then ask degraded for
        // (c, b): same cardinality, shares b's fingerprint -> neighbor.
        cm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        let deg = cm.estimate_processor_power_degraded(&[c.clone(), b.clone()], &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::StaleNeighbor);
        assert!(deg.power_w.is_finite() && deg.power_w > 0.0);
        // The neighbor answer re-rates on c's own curves, so it should be
        // in the neighborhood of the true (c, b) estimate.
        let truth = cm.estimate_processor_power(&[c, b], &asg).unwrap();
        assert!(
            (deg.power_w - truth).abs() < 0.2 * truth,
            "neighbor estimate {} too far from truth {truth}",
            deg.power_w
        );
    }

    #[test]
    fn degraded_cold_cache_falls_back_to_proportional_split() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cm = CombinedModel::new(&m, &pm);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let ps = vec![a, b];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let deg = cm.estimate_processor_power_degraded(&ps, &asg).unwrap();
        assert_eq!(deg.source, DegradedSource::ProportionalSplit);
        assert!(deg.power_w.is_finite() && deg.power_w > 0.0);
        assert_eq!(cm.cached_equilibria(), 0, "degraded solves must not populate the cache");
        // Uncontended shapes never need an equilibrium, so even the
        // proportional tier reports the exact-cache (best) source.
        let mut solo = Assignment::new(4);
        solo.assign(0, 0);
        let deg_solo = cm.estimate_processor_power_degraded(&ps, &solo).unwrap();
        assert_eq!(deg_solo.source, DegradedSource::ExactCache);
        let healthy_solo = cm.estimate_processor_power(&ps, &solo).unwrap();
        assert_eq!(deg_solo.power_w.to_bits(), healthy_solo.to_bits());
    }

    #[test]
    fn degraded_source_order_and_names() {
        assert!(DegradedSource::ExactCache < DegradedSource::StaleNeighbor);
        assert!(DegradedSource::StaleNeighbor < DegradedSource::ProportionalSplit);
        assert_eq!(DegradedSource::ExactCache.name(), "exact_cache");
        assert_eq!(DegradedSource::StaleNeighbor.name(), "stale_neighbor");
        assert_eq!(DegradedSource::ProportionalSplit.name(), "proportional_split");
    }

    #[test]
    fn warm_start_converges_to_cold_fixed_point_and_counts() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let cold = CombinedModel::new(&m, &pm);
        let warm = CombinedModel::new(&m, &pm).with_warm_start(true);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let c = synthetic_profile("c", 0.45, 0.032, &m);
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        // First estimate on each model is a cold solve (empty cache, no
        // neighbor) and therefore bit-identical.
        let x0 = cold.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        let y0 = warm.estimate_processor_power(&[a.clone(), b.clone()], &asg).unwrap();
        assert_eq!(x0.to_bits(), y0.to_bits(), "no neighbor -> identical cold path");
        assert_eq!(warm.equilibrium_cache_stats().warm_attempts, 0);
        // Second pair has a cached same-cardinality neighbor sharing b:
        // the warm model seeds Newton from it and must land on the same
        // fixed point the cold model finds (same equations, tight tol).
        let x1 = cold.estimate_processor_power(&[c.clone(), b.clone()], &asg).unwrap();
        let y1 = warm.estimate_processor_power(&[c, b], &asg).unwrap();
        assert!((x1 - y1).abs() <= 1e-6 * x1.abs(), "cold {x1} vs warm {y1}");
        let st = warm.equilibrium_cache_stats();
        assert_eq!(st.warm_attempts, 1, "{st:?}");
        assert_eq!(st.warm_hits + st.warm_fallbacks, st.warm_attempts, "{st:?}");
        assert_eq!(warm.solver_fallbacks(), 0, "warm fallback is not a solver-health event");
        assert_eq!(cold.equilibrium_cache_stats().warm_attempts, 0);
    }

    #[test]
    fn warm_start_is_deterministic_across_runs() {
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.4, 0.03, &m);
        let b = synthetic_profile("b", 0.1, 0.01, &m);
        let c = synthetic_profile("c", 0.45, 0.032, &m);
        let ps = vec![a, b, c];
        let mut asg = Assignment::new(4);
        asg.assign(0, 0).assign(1, 1);
        let run = || {
            let cm = CombinedModel::new(&m, &pm).with_warm_start(true);
            let mut out = Vec::new();
            out.push(cm.estimate_processor_power(&ps, &asg).unwrap());
            out.push(cm.estimate_after_assigning(&ps, &asg, 2, 2).unwrap());
            out.extend(cm.estimate_candidates(&ps, &asg, 2, &[0, 1, 2, 3], 2).unwrap());
            let st = cm.equilibrium_cache_stats();
            (out.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(), st.warm_attempts, st.warm_hits)
        };
        let (bits1, att1, hit1) = run();
        let (bits2, att2, hit2) = run();
        assert_eq!(bits1, bits2, "warm-start policy must be deterministic");
        assert_eq!(att1, att2);
        assert_eq!(hit1, hit2);
    }

    #[test]
    fn candidate_sweep_is_bit_identical_without_memo_cache() {
        // The candidate sweep resolves the union of all candidates'
        // co-run sets through the memo cache and one batch solve;
        // estimates must stay bit-identical to a model without a cache
        // (capacity 0), whose sets are all fresh solves.
        let m = server();
        let pm = synthetic_power_model(&m);
        let a = synthetic_profile("a", 0.3, 0.02, &m);
        let b = synthetic_profile("b", 0.2, 0.015, &m);
        let c = synthetic_profile("c", 0.5, 0.04, &m);
        let ps = vec![a, b, c];
        let mut current = Assignment::new(4);
        current.assign(0, 0).assign(2, 1);
        let cores = [0usize, 1, 2, 3];
        let plain = CombinedModel::new(&m, &pm).with_equilibrium_cache_capacity(0);
        let staged = CombinedModel::new(&m, &pm);
        let x = plain.estimate_candidates(&ps, &current, 2, &cores, 2).unwrap();
        let y = staged.estimate_candidates(&ps, &current, 2, &cores, 2).unwrap();
        let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb);
        assert!(staged.cached_equilibria() >= 2, "the sweep should have populated the cache");
    }

    #[test]
    fn assignment_on_lower_power_machine_costs_less() {
        let big = server();
        let small = MachineConfig::duo_laptop();
        let pm_big = synthetic_power_model(&big);
        let pm_small = synthetic_power_model(&small);
        let p_big = synthetic_profile("x", 0.3, 0.02, &big);
        let p_small = synthetic_profile("x", 0.3, 0.02, &small);
        let mut asg_big = Assignment::new(4);
        asg_big.assign(0, 0);
        let mut asg_small = Assignment::new(2);
        asg_small.assign(0, 0);
        let e_big =
            CombinedModel::new(&big, &pm_big).estimate_processor_power(&[p_big], &asg_big).unwrap();
        let e_small = CombinedModel::new(&small, &pm_small)
            .estimate_processor_power(&[p_small], &asg_small)
            .unwrap();
        assert!(e_big > e_small);
    }
}
