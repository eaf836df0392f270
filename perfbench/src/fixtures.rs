//! Seeded inputs: process profiles, the power model and placements.
//!
//! Everything here is a pure function of the benchmark seed, so the
//! same seed gives the same profiles, placements and request streams.

use cmpsim::hpc::EventRates;
use cmpsim::machine::MachineConfig;
use mpmc_model::feature::FeatureVector;
use mpmc_model::histogram::ReuseHistogram;
use mpmc_model::power::{PowerModel, PowerObservation};
use mpmc_model::profile::ProcessProfile;
use mpmc_model::spi::SpiModel;
use mpmc_service::chaos::mix64;

/// A deterministic stream of uniform numbers derived from one key.
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64, salt: u64) -> Self {
        Stream(mix64(seed ^ mix64(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in [lo, hi).
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The machine every workload runs on.
pub fn machine() -> MachineConfig {
    MachineConfig::four_core_server()
}

/// An Eq. 9 power model fitted on seeded synthetic observations of
/// `machine`'s ground-truth power, as `mpmc train` fits one on measured
/// ones.
pub fn power_model(machine: &MachineConfig, seed: u64) -> PowerModel {
    let mut s = Stream::new(seed, 0x0905_3E11);
    let cores = machine.num_cores() as f64;
    let obs: Vec<PowerObservation> = (0..400)
        .map(|_| {
            let ips = s.uniform(1e6, 2.4e7);
            let rates = EventRates {
                ips,
                l1rps: ips * s.uniform(0.2, 0.5),
                l2rps: ips * s.uniform(0.001, 0.05),
                l2mps: ips * s.uniform(0.0, 0.02),
                brps: ips * s.uniform(0.05, 0.3),
                fpps: ips * s.uniform(0.0, 0.3),
            };
            PowerObservation {
                rates,
                core_watts: machine.power.core_power(&rates) + machine.power.uncore_w / cores,
            }
        })
        .collect();
    PowerModel::fit_mvlr(&obs).expect("synthetic observations span all five features")
}

/// Seeded process profiles, one per name: geometric reuse histograms
/// with a streaming tail, and an L2 access intensity.
///
/// The three parameters that set a profile's cost (tail, decay, access
/// intensity) are drawn as a Latin hypercube: each takes every one of
/// `names.len()` equal strata of its range once, in a seeded order, at a
/// seeded point inside the stratum. Every seed gives a set spanning the
/// same ranges, so its members change with the seed while the cost of
/// the whole set, and hence the run-to-run spread, changes little.
pub fn profiles(
    names: &[String],
    machine: &MachineConfig,
    seed: u64,
    salt: u64,
) -> Vec<ProcessProfile> {
    let n = names.len();
    let mut s = Stream::new(seed, salt);
    let mut strata = [(); 3].map(|()| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, s.below(i + 1));
        }
        order
    });
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let u =
                strata.each_mut().map(|order| (order[i] as f64 + s.uniform(0.0, 1.0)) / n as f64);
            profile(name, machine, u, &mut s)
        })
        .collect()
}

fn profile(name: &str, machine: &MachineConfig, u: [f64; 3], s: &mut Stream) -> ProcessProfile {
    let tail = 0.03 + 0.32 * u[0];
    let decay = 0.6 + 0.32 * u[1];
    let api = 0.004 + 0.036 * u[2];
    let depth = 12;
    let mut w = Vec::with_capacity(depth);
    let mut cur = 1.0;
    for _ in 0..depth {
        w.push(cur);
        cur *= decay;
    }
    let head: f64 = w.iter().sum();
    let probs = w.iter().map(|x| x * (1.0 - tail) / head).collect();
    let hist = ReuseHistogram::new(probs, tail).expect("normalized by construction");
    let alpha = api * (machine.mem_cycles - machine.l2_hit_cycles) as f64 / machine.freq_hz;
    let beta = (machine.cpi_base + api * machine.l2_hit_cycles as f64) / machine.freq_hz;
    let spi = SpiModel::new(alpha, beta).expect("positive SPI coefficients");
    let feature = FeatureVector::new(name, hist, api, spi, machine.l2_assoc())
        .expect("well-formed synthetic feature");
    ProcessProfile {
        feature,
        l1rpi: s.uniform(0.25, 0.45),
        l2rpi: api,
        brpi: s.uniform(0.1, 0.25),
        fppi: s.uniform(0.0, 0.2),
        processor_alone_w: s.uniform(55.0, 62.0),
        idle_processor_w: 44.0,
    }
}

/// The text `mpmc profile --out` writes, which the `register` op takes.
pub fn profile_text(p: &ProcessProfile) -> String {
    let mut buf = Vec::new();
    mpmc_model::persist::write_profile(p, &mut buf).expect("writing to memory cannot fail");
    String::from_utf8(buf).expect("profile text is UTF-8")
}

/// Zipf-skewed rank in 0..n: rank r has weight 1/(r+1).
pub fn zipf_rank(s: &mut Stream, n: usize) -> usize {
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut x = s.uniform(0.0, total);
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

/// Distinct die-level co-run sets of a per-core placement: on each die,
/// every combination of one process per busy core (the sets the
/// combined model solves an equilibrium for). Sets are sorted lists of
/// indices into the caller's process list, deduplicated.
pub fn corun_sets(machine: &MachineConfig, queues: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut out = std::collections::BTreeSet::new();
    for die in 0..machine.dies {
        let busy: Vec<&Vec<usize>> = (0..machine.cores_per_die)
            .map(|c| &queues[die * machine.cores_per_die + c])
            .filter(|q| !q.is_empty())
            .collect();
        let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
        for q in busy {
            combos = combos
                .iter()
                .flat_map(|c| {
                    q.iter().map(move |&p| {
                        let mut next = c.clone();
                        next.push(p);
                        next
                    })
                })
                .collect();
        }
        for mut c in combos.into_iter().filter(|c| !c.is_empty()) {
            c.sort_unstable();
            out.insert(c);
        }
    }
    out.into_iter().collect()
}
