//! A deterministic, seeded fault plan for service chaos testing.
//!
//! Chaos testing is only useful if a failure reproduces: every fault
//! decision here is a **pure function of (seed, event index)** via
//! SplitMix64 mixing — no RNG state to share, no locks, no clock. The
//! same seed always yields the same fault schedule, so a chaos run that
//! finds a bug is a regression test for free.
//!
//! Two consumers:
//!
//! - The **server** ([`PredictionService::with_chaos`]
//!   (crate::server::PredictionService::with_chaos)) injects
//!   [`FaultPlan::solver_spike`] latency before each solve, which
//!   drives deadline expiries and admission shedding without needing a
//!   genuinely slow solver.
//! - The **load generator** (`mpmc-bench overload`) uses
//!   [`FaultPlan::wire_fault`] to pick per-request wire misbehavior:
//!   malformed JSON floods, slow-loris byte-at-a-time writers, mid-line
//!   disconnects, and already-expired deadlines (`deadline_ms: 0`,
//!   clock-free deadline pressure).

use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-distributed bijective mix.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-request wire misbehavior the load generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Send the request normally.
    None,
    /// Send syntactically broken JSON (parser must answer `usage`).
    Malformed,
    /// Write the request one byte at a time with pauses (slow-loris).
    SlowLoris,
    /// Close the socket halfway through the request line.
    Disconnect,
    /// Send a valid request with `deadline_ms: 0` (expires instantly).
    ExpiredDeadline,
}

impl WireFault {
    /// The stable label used in bench output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireFault::None => "none",
            WireFault::Malformed => "malformed",
            WireFault::SlowLoris => "slow_loris",
            WireFault::Disconnect => "disconnect",
            WireFault::ExpiredDeadline => "expired_deadline",
        }
    }
}

/// Distinct stream salts so each fault family draws independent bits
/// from the same seed.
const SALT_SPIKE: u64 = 0x5350_494B_4521_0001;
const SALT_WIRE: u64 = 0x5749_5245_4621_0002;

/// A seeded, deterministic fault schedule.
///
/// Rates are expressed as "one in `n` events" (`0` disables a family).
/// The *which* events are faulty is decided by mixing, not by strict
/// periodicity, so faults do not beat against request patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// One in `n` exact solves sleeps (0 = never).
    pub spike_one_in: u64,
    /// How long a spiked solve sleeps.
    pub spike_ms: u64,
    /// One in `n` requests is sent malformed (0 = never).
    pub malformed_one_in: u64,
    /// One in `n` requests is written slow-loris (0 = never).
    pub slowloris_one_in: u64,
    /// One in `n` requests disconnects mid-line (0 = never).
    pub disconnect_one_in: u64,
    /// One in `n` requests carries `deadline_ms: 0` (0 = never).
    pub expired_deadline_one_in: u64,
}

impl FaultPlan {
    /// A plan with every fault family disabled.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_one_in: 0,
            spike_ms: 0,
            malformed_one_in: 0,
            slowloris_one_in: 0,
            disconnect_one_in: 0,
            expired_deadline_one_in: 0,
        }
    }

    /// The default chaos mix used by tests and `mpmc-bench overload
    /// --chaos`: occasional solver spikes plus a spread of wire faults.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_one_in: 8,
            spike_ms: 50,
            malformed_one_in: 7,
            slowloris_one_in: 13,
            disconnect_one_in: 11,
            expired_deadline_one_in: 9,
        }
    }

    /// The seed this plan draws from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether one family fires at `event` given its `one_in` rate.
    fn fires(&self, salt: u64, event: u64, one_in: u64) -> bool {
        one_in > 0 && mix64(self.seed ^ salt ^ mix64(event)).is_multiple_of(one_in)
    }

    /// The latency to inject before exact solve number `event`, if any.
    #[must_use]
    pub fn solver_spike(&self, event: u64) -> Option<Duration> {
        if self.fires(SALT_SPIKE, event, self.spike_one_in) {
            Some(Duration::from_millis(self.spike_ms))
        } else {
            None
        }
    }

    /// The wire fault (if any) for request number `i`. Families are
    /// checked in a fixed priority order so at most one fires.
    #[must_use]
    pub fn wire_fault(&self, i: u64) -> WireFault {
        if self.fires(SALT_WIRE, i.wrapping_mul(4), self.malformed_one_in) {
            WireFault::Malformed
        } else if self.fires(SALT_WIRE, i.wrapping_mul(4) + 1, self.slowloris_one_in) {
            WireFault::SlowLoris
        } else if self.fires(SALT_WIRE, i.wrapping_mul(4) + 2, self.disconnect_one_in) {
            WireFault::Disconnect
        } else if self.fires(SALT_WIRE, i.wrapping_mul(4) + 3, self.expired_deadline_one_in) {
            WireFault::ExpiredDeadline
        } else {
            WireFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixing_is_deterministic_and_spread() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        // The finalizer is bijective, so 1000 distinct inputs give 1000
        // distinct outputs.
        let mut outs: Vec<u64> = (0..1000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 1000);
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::standard(7);
        let b = FaultPlan::standard(7);
        for i in 0..500u64 {
            assert_eq!(a.solver_spike(i), b.solver_spike(i));
            assert_eq!(a.wire_fault(i), b.wire_fault(i));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::standard(1);
        let b = FaultPlan::standard(2);
        let differs = (0..500u64).any(|i| a.wire_fault(i) != b.wire_fault(i));
        assert!(differs);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let p = FaultPlan::quiet(3);
        for i in 0..200u64 {
            assert_eq!(p.solver_spike(i), None);
            assert_eq!(p.wire_fault(i), WireFault::None);
        }
    }

    #[test]
    fn standard_plan_fires_every_family_eventually() {
        let p = FaultPlan::standard(11);
        let mut seen = [false; 5];
        let mut spiked = false;
        for i in 0..2000u64 {
            match p.wire_fault(i) {
                WireFault::None => seen[0] = true,
                WireFault::Malformed => seen[1] = true,
                WireFault::SlowLoris => seen[2] = true,
                WireFault::Disconnect => seen[3] = true,
                WireFault::ExpiredDeadline => seen[4] = true,
            }
            spiked |= p.solver_spike(i).is_some();
        }
        assert!(seen.iter().all(|&s| s), "families seen: {seen:?}");
        assert!(spiked);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::standard(5);
        let spikes = (0..8000u64).filter(|&i| p.solver_spike(i).is_some()).count();
        // one-in-8 nominal; allow a generous band since mixing is not
        // strictly periodic.
        assert!((500..=1500).contains(&spikes), "spikes = {spikes}");
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(WireFault::Malformed.name(), "malformed");
        assert_eq!(WireFault::SlowLoris.name(), "slow_loris");
        assert_eq!(WireFault::ExpiredDeadline.name(), "expired_deadline");
    }
}
