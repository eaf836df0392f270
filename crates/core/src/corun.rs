//! The interned co-run table that scores placements (paper §5, Fig. 1,
//! Eqs. 10–11).
//!
//! Scoring a placement averages each die's power over its Eq. 10 process
//! combinations, and every contended combination needs the equilibrium
//! of its co-run set. A search scores thousands of placements that all
//! draw on the same few dozen die-level sets, so the table interns each
//! set once, resolves its equilibrium once (through the model's memo
//! cache, solving the misses together), and keeps for every member the
//! Eq. 9 core power and the SPI. Scoring is then a walk over the table:
//! no allocation, no lock, no fingerprinting.
//!
//! Use is two-phase: [`CorunTable::stage`] interns the sets a placement
//! needs, [`CorunTable::fill`] (or [`CorunTable::fill_degraded`])
//! resolves every staged set, and [`CorunTable::power`] /
//! [`CorunTable::makespan`] score. A score is bit-identical to solving
//! each combination on its own: the walk performs the same float
//! operations in the same order — idle term first, then members in slot
//! order; `sum / count` per die; dies summed in order.

use crate::assignment::{Assignment, CombinedModel, DegradedSource};
use crate::equilibrium::{CorunSet, Equilibrium};
use crate::power::CorePowerModel;
use crate::profile::ProcessProfile;
use crate::ModelError;
use cmpsim::hpc::EventRates;
use cmpsim::types::DieId;
use mathkit::sync::CancelToken;
use std::cell::Cell;
use std::collections::HashMap;

/// A process of the table: an index into its distinct profiles, which
/// are ordered by (content fingerprint, profile index).
pub(crate) type Pid = u32;

/// One member of a resolved co-run set, in the set's canonical position.
#[derive(Debug, Clone, Copy, Default)]
struct Member {
    /// Eq. 9 core power at the member's predicted rates (watts).
    power: f64,
    spi: f64,
    mpa: f64,
}

#[derive(Debug)]
enum SetState {
    Pending,
    /// `ties_differ` marks members with equal fingerprints that got
    /// different equilibrium values (a warm-started solve seeds them
    /// from a neighbor's asymmetric split): their values then depend on
    /// slot order and are looked up per walk.
    Ready {
        ties_differ: bool,
    },
    Failed(ModelError),
}

#[derive(Debug)]
struct Set {
    /// Range of the set in `Sets::keys` and `Sets::members`.
    start: usize,
    len: usize,
    state: SetState,
}

/// The interned sets. A set's key is its sorted pid multiset; because
/// pids follow fingerprint order, that is also the canonical order the
/// solvers and the memo cache use, so member `j` of a set is canonical
/// position `j` of its equilibrium.
#[derive(Debug, Default)]
struct Sets {
    index: HashMap<Box<[Pid]>, usize>,
    sets: Vec<Set>,
    keys: Vec<Pid>,
    members: Vec<Member>,
    /// `sets[..resolved]` are filled or failed; the rest are pending.
    resolved: usize,
}

/// Per-process constants, indexed by pid.
#[derive(Debug)]
struct Procs {
    /// Profile index per pid.
    profile: Vec<usize>,
    fingerprint: Vec<u64>,
    /// Measured alone power with the partner cores idle (Fig. 1 (1)/(2)).
    alone_w: Vec<f64>,
    /// Predicted full-cache SPI.
    alone_spi: Vec<f64>,
    /// (profile index, pid), sorted by profile index.
    by_profile: Vec<(usize, Pid)>,
}

/// Scratch buffers of the Eq. 10 walk, reused across placements.
#[derive(Debug, Default)]
struct Walk {
    combo: Vec<usize>,
    /// The running processes of one combination: (pid, slot), slot order.
    running: Vec<(Pid, usize)>,
    /// Sorted pid multiset of the running processes, and each running
    /// process's position in it.
    key: Vec<Pid>,
    pos: Vec<usize>,
    spi_sum: Vec<f64>,
    spi_n: Vec<u64>,
    offsets: Vec<usize>,
}

/// Interned die-level co-run sets of one instance with their resolved
/// equilibria, and the scorer that reads them.
pub(crate) struct CorunTable<'t, M: CorePowerModel> {
    model: &'t CombinedModel<'t, M>,
    profiles: &'t [ProcessProfile],
    procs: Procs,
    /// Core indices per die.
    dies: Vec<Vec<usize>>,
    idle_w: f64,
    sets: Sets,
    walk: Walk,
}

impl<'t, M: CorePowerModel> CorunTable<'t, M> {
    /// A table over the processes `procs` (profile indices, repeats
    /// allowed). Every index must be valid for `profiles`; callers
    /// validate first.
    pub(crate) fn new(
        model: &'t CombinedModel<'t, M>,
        profiles: &'t [ProcessProfile],
        procs: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut distinct: Vec<usize> = procs.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut order: Vec<(u64, usize)> =
            distinct.iter().map(|&p| (profiles[p].feature.content_fingerprint(), p)).collect();
        order.sort_unstable();

        let machine = model.machine();
        let idle_w = model.power_model().idle_core_watts();
        let assoc = machine.l2_assoc() as f64;
        let mut by_profile: Vec<(usize, Pid)> =
            order.iter().enumerate().map(|(pid, &(_, p))| (p, pid as Pid)).collect();
        by_profile.sort_unstable();
        let procs = Procs {
            profile: order.iter().map(|&(_, p)| p).collect(),
            fingerprint: order.iter().map(|&(fp, _)| fp).collect(),
            alone_w: order.iter().map(|&(_, p)| profiles[p].core_power_alone(idle_w)).collect(),
            alone_spi: order.iter().map(|&(_, p)| profiles[p].feature.spi_at(assoc)).collect(),
            by_profile,
        };
        let dies = (0..machine.dies)
            .map(|d| machine.cores_of(DieId(d as u32)).iter().map(|c| c.0 as usize).collect())
            .collect();
        CorunTable {
            model,
            profiles,
            procs,
            dies,
            idle_w,
            sets: Sets::default(),
            walk: Walk::default(),
        }
    }

    /// A table over the processes of `assignment`.
    pub(crate) fn for_assignment(
        model: &'t CombinedModel<'t, M>,
        profiles: &'t [ProcessProfile],
        assignment: &Assignment,
    ) -> Self {
        let procs =
            (0..assignment.num_cores()).flat_map(|c| assignment.processes_on(c).iter().copied());
        CorunTable::new(model, profiles, procs)
    }

    /// The pid of profile index `p`, if the table covers it.
    pub(crate) fn pid(&self, p: usize) -> Result<Pid, ModelError> {
        let by = &self.procs.by_profile;
        match by.binary_search_by_key(&p, |&(q, _)| q) {
            Ok(i) => Ok(by[i].1),
            Err(_) => Err(ModelError::InvalidAssignment(format!(
                "profile index {p} is not a process of this co-run table"
            ))),
        }
    }

    /// `assignment`'s run queues as pids.
    pub(crate) fn queues(&self, assignment: &Assignment) -> Result<Vec<Vec<Pid>>, ModelError> {
        (0..assignment.num_cores())
            .map(|c| assignment.processes_on(c).iter().map(|&p| self.pid(p)).collect())
            .collect()
    }

    /// Interns every contended co-run set the placement `queues` (one
    /// queue of pids per core) needs. Nothing is solved until
    /// [`CorunTable::fill`].
    ///
    /// # Errors
    ///
    /// [`mathkit::MathError::Cancelled`] once `cancel` fires.
    pub(crate) fn stage(
        &mut self,
        queues: &[Vec<Pid>],
        cancel: &CancelToken,
    ) -> Result<(), ModelError> {
        for die in 0..self.dies.len() {
            self.stage_die(die, queues, cancel)?;
        }
        Ok(())
    }

    /// Interns every co-run set some placement of the processes `pids`
    /// (one entry per process) can produce: each sub-multiset of two up
    /// to a die's core count. An exact search stages this once instead
    /// of walking every leaf.
    pub(crate) fn stage_all(&mut self, pids: &[Pid]) {
        let die_cores = self.dies.iter().map(Vec::len).max().unwrap_or(0);
        let mut sorted = pids.to_vec();
        sorted.sort_unstable();
        let mut key = Vec::with_capacity(die_cores);
        intern_subsets(&mut self.sets, &sorted, 0, &mut key, die_cores.min(pids.len()));
    }

    /// [`CorunTable::stage`] for one die.
    pub(crate) fn stage_die(
        &mut self,
        die: usize,
        queues: &[Vec<Pid>],
        cancel: &CancelToken,
    ) -> Result<(), ModelError> {
        let Walk { combo, running, key, pos, .. } = &mut self.walk;
        let sets = &mut self.sets;
        walk_die(&self.dies[die], queues, combo, running, cancel, |running, _| {
            if running.len() > 1 {
                rank_members(running, key, pos);
                sets.intern(key);
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Resolves every staged set: one memo-cache lookup per set, and the
    /// misses solved together over `workers` threads (`0` = auto). A set
    /// whose solve fails keeps its error, reported when a walk reaches it.
    ///
    /// # Errors
    ///
    /// [`mathkit::MathError::Cancelled`] once `cancel` fires.
    pub(crate) fn fill(&mut self, workers: usize, cancel: &CancelToken) -> Result<(), ModelError> {
        let pending = self.sets.resolved..self.sets.sets.len();
        if pending.is_empty() {
            return Ok(());
        }
        let (features, keys) = self.canonical_sets(pending.clone());
        let results = self.model.resolve_sets(&features, &keys, workers, cancel)?;
        for (s, res) in pending.zip(results) {
            self.settle(s, res);
        }
        self.sets.resolved = self.sets.sets.len();
        Ok(())
    }

    /// [`CorunTable::fill`] from the no-solve degraded tier; returns the
    /// worst equilibrium source any staged set needed.
    pub(crate) fn fill_degraded(&mut self) -> DegradedSource {
        let worst = Cell::new(DegradedSource::ExactCache);
        let pending = self.sets.resolved..self.sets.sets.len();
        let (features, keys) = self.canonical_sets(pending.clone());
        for ((s, set), key) in pending.zip(&features).zip(&keys) {
            let res = self.model.resolve_degraded(&set.features, key, &worst);
            self.settle(s, res);
        }
        self.sets.resolved = self.sets.sets.len();
        worst.get()
    }

    /// Features and memo-cache keys of the sets in `range`, in canonical
    /// (key) order.
    fn canonical_sets(&self, range: std::ops::Range<usize>) -> (Vec<CorunSet<'t>>, Vec<Vec<u64>>) {
        let profiles = self.profiles;
        range
            .map(|s| {
                let pids = self.sets.key(s);
                let features = pids
                    .iter()
                    .map(|&pid| &profiles[self.procs.profile[pid as usize]].feature)
                    .collect();
                let key = pids.iter().map(|&pid| self.procs.fingerprint[pid as usize]).collect();
                (CorunSet { features }, key)
            })
            .unzip()
    }

    /// Stores a resolved equilibrium (in canonical order) as per-member
    /// power and SPI.
    fn settle(&mut self, s: usize, res: Result<Equilibrium, ModelError>) {
        let eq = match res {
            Ok(eq) => eq,
            Err(e) => {
                self.sets.sets[s].state = SetState::Failed(e);
                return;
            }
        };
        let Set { start, len, .. } = self.sets.sets[s];
        let power_model = self.model.power_model();
        let mut ties_differ = false;
        for j in 0..len {
            let pid = self.sets.keys[start + j] as usize;
            let (spi, mpa) = (eq.spis[j], eq.mpas[j]);
            let profile = &self.profiles[self.procs.profile[pid]];
            self.sets.members[start + j] =
                Member { power: core_power(power_model, profile, spi, mpa), spi, mpa };
            if j > 0 {
                let prev = self.sets.keys[start + j - 1] as usize;
                let before = self.sets.members[start + j - 1];
                ties_differ |= self.procs.fingerprint[prev] == self.procs.fingerprint[pid]
                    && (before.spi.to_bits() != spi.to_bits()
                        || before.mpa.to_bits() != mpa.to_bits());
            }
        }
        self.sets.sets[s].state = SetState::Ready { ties_differ };
    }

    /// Eq. 11: estimated average processor power of the placement
    /// `queues`, every die's Eq. 10 average summed in die order.
    ///
    /// # Errors
    ///
    /// The stored error of the first failed set the walk reaches, or
    /// [`mathkit::MathError::Cancelled`] once `cancel` fires.
    pub(crate) fn power(
        &mut self,
        queues: &[Vec<Pid>],
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        let mut total = 0.0;
        for die in 0..self.dies.len() {
            total += self.die_power(die, queues, cancel)?;
        }
        Ok(total)
    }

    /// One die's Eq. 10 average power under `queues`.
    ///
    /// # Errors
    ///
    /// As for [`CorunTable::power`].
    pub(crate) fn die_power(
        &mut self,
        die: usize,
        queues: &[Vec<Pid>],
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        let cores = &self.dies[die];
        let idle_w = self.idle_w;
        let Walk { combo, running, key, pos, .. } = &mut self.walk;
        let (sets, procs) = (&self.sets, &self.procs);
        let ctx = Ctx { profiles: self.profiles, procs, power: self.model.power_model() };
        let mut sum = 0.0;
        let count = walk_die(cores, queues, combo, running, cancel, |running, _| {
            let idle = (cores.len() - running.len()) as f64 * idle_w;
            sum += match running {
                // Fig. 1 (1)/(2): no contention, measured alone power.
                [(pid, _)] => procs.alone_w[*pid as usize] + idle,
                _ => {
                    let s = sets.find(running, key, pos)?;
                    let mut power = idle;
                    for i in 0..running.len() {
                        power += sets.member(s, running, pos, i, &ctx).power;
                    }
                    power
                }
            };
            Ok(())
        })?;
        if count == 0 {
            return Ok(idle_w * cores.len() as f64);
        }
        Ok(sum / count as f64)
    }

    /// Estimated makespan of the placement `queues`: per process, its
    /// queue length times its SPI averaged over the Eq. 10 combinations
    /// it runs in (alone on the die: its full-cache SPI); the maximum
    /// over all processes, `0.0` for an empty placement.
    ///
    /// # Errors
    ///
    /// As for [`CorunTable::power`].
    pub(crate) fn makespan(
        &mut self,
        queues: &[Vec<Pid>],
        cancel: &CancelToken,
    ) -> Result<f64, ModelError> {
        let mut makespan: f64 = 0.0;
        let ctx =
            Ctx { profiles: self.profiles, procs: &self.procs, power: self.model.power_model() };
        for cores in &self.dies {
            let Walk { combo, running, key, pos, spi_sum, spi_n, offsets } = &mut self.walk;
            offsets.clear();
            let mut slots = 0;
            for &c in cores {
                offsets.push(slots);
                slots += queues[c].len();
            }
            spi_sum.clear();
            spi_sum.resize(slots, 0.0);
            spi_n.clear();
            spi_n.resize(slots, 0);
            let sets = &self.sets;
            let count = walk_die(cores, queues, combo, running, cancel, |running, combo| {
                if let [(pid, slot)] = running {
                    let at = offsets[*slot] + combo[*slot];
                    spi_sum[at] += ctx.procs.alone_spi[*pid as usize];
                    spi_n[at] += 1;
                    return Ok(());
                }
                let s = sets.find(running, key, pos)?;
                for (i, &(_, slot)) in running.iter().enumerate() {
                    let at = offsets[slot] + combo[slot];
                    spi_sum[at] += sets.member(s, running, pos, i, &ctx).spi;
                    spi_n[at] += 1;
                }
                Ok(())
            })?;
            if count == 0 {
                continue;
            }
            for (&c, &offset) in cores.iter().zip(offsets.iter()) {
                let size = queues[c].len();
                for at in offset..offset + size {
                    if spi_n[at] == 0 {
                        continue;
                    }
                    let completion = size as f64 * (spi_sum[at] / spi_n[at] as f64);
                    makespan = makespan.max(completion);
                }
            }
        }
        Ok(makespan)
    }
}

/// What a member lookup needs besides the sets.
struct Ctx<'a, M> {
    profiles: &'a [ProcessProfile],
    procs: &'a Procs,
    power: &'a M,
}

impl Sets {
    fn key(&self, s: usize) -> &[Pid] {
        let Set { start, len, .. } = self.sets[s];
        &self.keys[start..start + len]
    }

    fn intern(&mut self, key: &[Pid]) {
        if self.index.contains_key(key) {
            return;
        }
        let start = self.keys.len();
        self.keys.extend_from_slice(key);
        self.members.resize(start + key.len(), Member::default());
        self.index.insert(key.into(), self.sets.len());
        self.sets.push(Set { start, len: key.len(), state: SetState::Pending });
    }

    /// The set of the running processes, or the error its solve stored
    /// (`key` and `pos` as [`rank_members`] leaves them).
    fn find(
        &self,
        running: &[(Pid, usize)],
        key: &mut Vec<Pid>,
        pos: &mut Vec<usize>,
    ) -> Result<usize, ModelError> {
        rank_members(running, key, pos);
        let unstaged = || {
            ModelError::EquilibriumFailed(format!(
                "internal: co-run set {key:?} scored before it was filled"
            ))
        };
        let s = *self.index.get(key.as_slice()).ok_or_else(unstaged)?;
        match &self.sets[s].state {
            SetState::Ready { .. } => Ok(s),
            SetState::Failed(e) => Err(e.clone()),
            SetState::Pending => Err(unstaged()),
        }
    }

    /// Power and SPI of `running[i]` in set `s`, whose key position is
    /// `pos[i]`. Canonically, `running[i]` takes the values at its rank
    /// by (fingerprint, slot); members that share a fingerprint get
    /// identical values from a cold solve, so its key position serves,
    /// with the precomputed power. When a set's ties split, the rank is
    /// taken and the power recomputed for this member.
    fn member<M: CorePowerModel>(
        &self,
        s: usize,
        running: &[(Pid, usize)],
        pos: &[usize],
        i: usize,
        ctx: &Ctx<'_, M>,
    ) -> Member {
        let Set { start, ref state, .. } = self.sets[s];
        let SetState::Ready { ties_differ: true } = state else {
            return self.members[start + pos[i]];
        };
        let (pid, slot) = running[i];
        let fp = |p: Pid| ctx.procs.fingerprint[p as usize];
        let rank = running
            .iter()
            .filter(|&&(other, other_slot)| (fp(other), other_slot) < (fp(pid), slot))
            .count();
        let m = self.members[start + rank];
        let profile = &ctx.profiles[ctx.procs.profile[pid as usize]];
        Member { power: core_power(ctx.power, profile, m.spi, m.mpa), ..m }
    }
}

/// Eq. 9 core power of `profile` running at the predicted `spi` and L2
/// misses per access `mpa`: every per-instruction event rate divided by
/// SPI.
fn core_power<M: CorePowerModel>(power: &M, profile: &ProcessProfile, spi: f64, mpa: f64) -> f64 {
    let rates = EventRates {
        ips: 1.0 / spi,
        l1rps: profile.l1rpi / spi,
        l2rps: profile.l2rpi / spi,
        l2mps: profile.l2rpi * mpa / spi,
        brps: profile.brpi / spi,
        fpps: profile.fppi / spi,
    };
    power.predict_core(&rates)
}

/// Interns `key` extended by every sub-multiset of `pids[from..]`
/// (sorted) up to `max` members in all, each distinct multiset once.
fn intern_subsets(sets: &mut Sets, pids: &[Pid], from: usize, key: &mut Vec<Pid>, max: usize) {
    if key.len() >= 2 {
        sets.intern(key);
    }
    if key.len() == max {
        return;
    }
    for i in from..pids.len() {
        if i > from && pids[i] == pids[i - 1] {
            continue;
        }
        key.push(pids[i]);
        intern_subsets(sets, pids, i + 1, key, max);
        key.pop();
    }
}

/// Fills `key` with the sorted pid multiset of the running processes
/// and `pos[i]` with the key position of `running[i]` (equal pids in slot
/// order). Ranks by counting: a die holds a handful of processes.
fn rank_members(running: &[(Pid, usize)], key: &mut Vec<Pid>, pos: &mut Vec<usize>) {
    key.clear();
    key.resize(running.len(), 0);
    pos.clear();
    for (i, &(pid, _)) in running.iter().enumerate() {
        let rank =
            running.iter().enumerate().filter(|&(j, &(other, _))| (other, j) < (pid, i)).count();
        key[rank] = pid;
        pos.push(rank);
    }
}

/// Walks every Eq. 10 combination of one die — one process from each
/// non-empty core queue, the first non-empty core varying fastest —
/// polling `cancel` once per combination. `visit` gets the running
/// processes as (pid, slot) in slot order and the pick per slot
/// (`usize::MAX` for an idle core). Returns the number of combinations,
/// `0` for an idle die.
fn walk_die(
    cores: &[usize],
    queues: &[Vec<Pid>],
    combo: &mut Vec<usize>,
    running: &mut Vec<(Pid, usize)>,
    cancel: &CancelToken,
    mut visit: impl FnMut(&[(Pid, usize)], &[usize]) -> Result<(), ModelError>,
) -> Result<usize, ModelError> {
    combo.clear();
    combo.extend(cores.iter().map(|&c| if queues[c].is_empty() { usize::MAX } else { 0 }));
    if combo.iter().all(|&pick| pick == usize::MAX) {
        return Ok(0);
    }
    let mut count = 0;
    loop {
        cancel.check()?;
        running.clear();
        for (slot, (&c, &pick)) in cores.iter().zip(combo.iter()).enumerate() {
            if pick != usize::MAX {
                running.push((queues[c][pick], slot));
            }
        }
        visit(running, combo)?;
        count += 1;
        // Odometer increment over the non-empty cores.
        let mut advanced = false;
        for (slot, &c) in cores.iter().enumerate() {
            let size = queues[c].len();
            if size == 0 {
                continue;
            }
            if combo[slot] + 1 < size {
                combo[slot] += 1;
                advanced = true;
                break;
            }
            combo[slot] = 0;
        }
        if !advanced {
            return Ok(count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{SolveDiagnostics, SolveMethod};
    use crate::feature::FeatureVector;
    use crate::histogram::ReuseHistogram;
    use crate::power::{PowerModel, PowerObservation};
    use crate::spi::SpiModel;
    use cmpsim::machine::MachineConfig;
    use rand::Rng;
    use rand::SeedableRng;

    fn profile(name: &str, tail: f64, api: f64, l1rpi: f64, m: &MachineConfig) -> ProcessProfile {
        let head = 1.0 - tail;
        let hist =
            ReuseHistogram::new(vec![head * 0.5, head * 0.3, head * 0.15, head * 0.05], tail)
                .unwrap();
        let alpha = api * (m.mem_cycles - m.l2_hit_cycles) as f64 / m.freq_hz;
        let beta = (m.cpi_base + api * m.l2_hit_cycles as f64) / m.freq_hz;
        let spi = SpiModel::new(alpha, beta).unwrap();
        ProcessProfile {
            feature: FeatureVector::new(name, hist, api, spi, m.l2_assoc()).unwrap(),
            l1rpi,
            l2rpi: api,
            brpi: 0.2,
            fppi: 0.1,
            processor_alone_w: 60.0,
            idle_processor_w: 44.0,
        }
    }

    fn power_model(m: &MachineConfig) -> PowerModel {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let obs: Vec<PowerObservation> = (0..200)
            .map(|_| {
                let ips = rng.gen_range(1e6..2.4e7);
                let rates = EventRates {
                    ips,
                    l1rps: ips * rng.gen_range(0.2..0.5),
                    l2rps: ips * rng.gen_range(0.001..0.05),
                    l2mps: ips * rng.gen_range(0.0..0.02),
                    brps: ips * rng.gen_range(0.05..0.3),
                    fpps: ips * rng.gen_range(0.0..0.3),
                };
                let watts = m.power.core_power(&rates) + m.power.uncore_w / 4.0;
                PowerObservation { rates, core_watts: watts }
            })
            .collect();
        PowerModel::fit_mvlr(&obs).unwrap()
    }

    #[test]
    fn members_rank_by_pid_with_equal_pids_in_slot_order() {
        let (mut key, mut pos) = (Vec::new(), Vec::new());
        rank_members(&[(3, 0), (1, 1), (3, 2), (0, 3)], &mut key, &mut pos);
        assert_eq!(key, [0, 1, 3, 3]);
        assert_eq!(pos, [2, 1, 3, 0]);
    }

    #[test]
    fn stage_all_interns_each_sub_multiset_once() {
        let m = MachineConfig::four_core_server();
        let pm = power_model(&m);
        let model = CombinedModel::new(&m, &pm);
        let ps = [profile("a", 0.3, 0.02, 0.35, &m), profile("b", 0.1, 0.01, 0.35, &m)];
        let mut table = CorunTable::new(&model, &ps, [0, 1]);
        // Processes a, a, b on dies of two cores: {a, a} and {a, b}.
        let (a, b) = (table.pid(0).unwrap(), table.pid(1).unwrap());
        table.stage_all(&[a, b, a]);
        let mut keys: Vec<Vec<Pid>> =
            (0..table.sets.sets.len()).map(|s| table.sets.key(s).to_vec()).collect();
        keys.sort();
        let mut want = vec![vec![a, a], vec![a.min(b), a.max(b)]];
        want.sort();
        assert_eq!(keys, want);
    }

    #[test]
    fn split_ties_are_scored_by_fingerprint_then_slot() {
        // Two profiles with one feature vector but different instruction
        // mixes share a die. Should a solver ever give them different
        // values, each must get the values of its canonical position
        // (ranked by fingerprint, then slot) with its own power.
        let m = MachineConfig::four_core_server();
        let pm = power_model(&m);
        let model = CombinedModel::new(&m, &pm);
        let ps = [profile("a", 0.3, 0.02, 0.35, &m), profile("a", 0.3, 0.02, 0.5, &m)];
        let mut asg = Assignment::new(4);
        asg.assign(0, 1).assign(1, 0);
        let mut table = CorunTable::for_assignment(&model, &ps, &asg);
        let queues = table.queues(&asg).unwrap();
        table.stage(&queues, &CancelToken::never()).unwrap();
        assert_eq!(table.sets.sets.len(), 1);
        let diagnostics = SolveDiagnostics {
            method: SolveMethod::NestedBisection,
            iterations: 0,
            residual: 0.0,
            fallbacks: Vec::new(),
            degraded: false,
        };
        let (spis, mpas) = (vec![2e-8, 3e-8], vec![0.1, 0.3]);
        let eq = Equilibrium {
            sizes: vec![8.0, 8.0],
            mpas: mpas.clone(),
            spis: spis.clone(),
            apss: vec![1e6, 1e6],
            window: 1.0,
            cache_filled: true,
            diagnostics,
        };
        table.settle(0, Ok(eq));
        table.sets.resolved = 1;
        assert!(matches!(table.sets.sets[0].state, SetState::Ready { ties_differ: true }));

        // Slot 0 runs profile 1, slot 1 runs profile 0: canonical
        // positions 0 and 1 by slot, whatever the pids.
        let idle = pm.idle_core_watts();
        let want =
            core_power(&pm, &ps[1], spis[0], mpas[0]) + core_power(&pm, &ps[0], spis[1], mpas[1]);
        let got = table.power(&queues, &CancelToken::never()).unwrap();
        assert_eq!(got.to_bits(), (0.0 + want + idle * 2.0).to_bits());
        let makespan = table.makespan(&queues, &CancelToken::never()).unwrap();
        assert_eq!(makespan.to_bits(), spis[1].to_bits());
    }
}
