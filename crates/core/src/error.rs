use std::fmt;

/// Error type for the modeling framework.
#[derive(Debug, Clone)]
pub enum ModelError {
    /// A numerical routine failed.
    Math(mathkit::MathError),
    /// A simulation used during profiling failed.
    Sim(cmpsim::engine::SimError),
    /// An input collection was empty where at least one element is needed.
    EmptyInput(&'static str),
    /// A probability or probability-like quantity was outside `[0, 1]`
    /// or a histogram failed to normalize.
    InvalidDistribution(String),
    /// The equilibrium system could not be solved.
    EquilibriumFailed(String),
    /// An assignment referenced a process or core that does not exist.
    InvalidAssignment(String),
    /// A core index was outside the machine (typed so wire-facing layers
    /// can reject it as an input error instead of panicking on it).
    InvalidCore {
        /// The offending core index.
        core: usize,
        /// How many cores the assignment/machine actually has.
        num_cores: usize,
    },
    /// No placement satisfied a requested power cap. Carries the
    /// least-power placement the optimizer found (per-core profile
    /// indices) as a diagnostic so callers can report how far off the
    /// cap was — a solver-domain outcome, not an input error.
    InfeasiblePowerCap {
        /// The requested cap in watts.
        cap_w: f64,
        /// Estimated power of the best (least-power) placement found.
        best_power_w: f64,
        /// That placement, as per-core profile-index queues.
        best_placement: Vec<Vec<usize>>,
    },
    /// Profiling produced data the model cannot use (e.g. a process that
    /// never accessed the L2).
    UnusableProfile(String),
    /// An input carried NaN or infinity where a finite value is required.
    NonFinite(String),
    /// A result was produced by a degraded fallback path and the caller
    /// asked (strict mode) for degradation to be treated as failure.
    Degraded(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Math(e) => write!(f, "numerical error: {e}"),
            ModelError::Sim(e) => write!(f, "simulation error: {e}"),
            ModelError::EmptyInput(what) => write!(f, "empty input: {what}"),
            ModelError::InvalidDistribution(msg) => write!(f, "invalid distribution: {msg}"),
            ModelError::EquilibriumFailed(msg) => write!(f, "equilibrium solve failed: {msg}"),
            ModelError::InvalidAssignment(msg) => write!(f, "invalid assignment: {msg}"),
            ModelError::InvalidCore { core, num_cores } => {
                write!(f, "core {core} out of range: machine has {num_cores} cores")
            }
            ModelError::InfeasiblePowerCap { cap_w, best_power_w, best_placement } => write!(
                f,
                "power cap {cap_w} W is infeasible: best placement found needs \
                 {best_power_w} W ({best_placement:?})"
            ),
            ModelError::UnusableProfile(msg) => write!(f, "unusable profile: {msg}"),
            ModelError::NonFinite(msg) => write!(f, "non-finite input: {msg}"),
            ModelError::Degraded(msg) => write!(f, "degraded result rejected: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Math(e) => Some(e),
            ModelError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mathkit::MathError> for ModelError {
    fn from(e: mathkit::MathError) -> Self {
        ModelError::Math(e)
    }
}

impl From<cmpsim::engine::SimError> for ModelError {
    fn from(e: cmpsim::engine::SimError) -> Self {
        ModelError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let e = ModelError::from(mathkit::MathError::Singular);
        assert!(e.to_string().contains("numerical"));
        assert!(e.source().is_some());
        let e = ModelError::EmptyInput("processes");
        assert!(e.to_string().contains("processes"));
        assert!(e.source().is_none());
    }

    #[test]
    fn invalid_core_and_infeasible_cap_display() {
        let e = ModelError::InvalidCore { core: 7, num_cores: 4 };
        assert!(e.to_string().contains("core 7"));
        assert!(e.to_string().contains("4 cores"));
        assert!(e.source().is_none());
        let e = ModelError::InfeasiblePowerCap {
            cap_w: 50.0,
            best_power_w: 61.5,
            best_placement: vec![vec![0], vec![1]],
        };
        let msg = e.to_string();
        assert!(msg.contains("50"), "{msg}");
        assert!(msg.contains("61.5"), "{msg}");
        assert!(msg.contains("infeasible"), "{msg}");
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<ModelError>();
    }
}
