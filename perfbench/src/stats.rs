//! Percentiles from sorted raw samples, and process memory.
//!
//! Every percentile is read off the sorted samples themselves (nearest
//! rank), never from bucketed histograms, and travels with its sample
//! count and the number of samples beyond it.

use mpmc_service::json::Json;

/// Raw timing samples of one operation kind, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, seconds: f64) {
        self.values.push(seconds);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `q` in (0, 1]: the smallest sample with
    /// at least `q` of all samples at or below it. 0 when empty.
    pub fn percentile(&mut self, q: f64) -> f64 {
        self.sort();
        match self.values.len() {
            0 => 0.0,
            n => self.values[rank(q, n)],
        }
    }

    /// Samples strictly beyond the rank of percentile `q`.
    pub fn beyond(&self, q: f64) -> usize {
        match self.values.len() {
            0 => 0,
            n => n - 1 - rank(q, n),
        }
    }

    /// p50/p90/p99 in microseconds with the sample count and how many
    /// samples lie beyond each tail percentile.
    pub fn summary_us(&mut self) -> Json {
        let us = |v: f64| Json::Num(v * 1e6);
        Json::Obj(vec![
            ("count".into(), Json::Num(self.len() as f64)),
            ("p50_us".into(), us(self.percentile(0.50))),
            ("p90_us".into(), us(self.percentile(0.90))),
            ("p90_beyond".into(), Json::Num(self.beyond(0.90) as f64)),
            ("p99_us".into(), us(self.percentile(0.99))),
            ("p99_beyond".into(), Json::Num(self.beyond(0.99) as f64)),
            ("mean_us".into(), us(self.mean())),
        ])
    }
}

fn rank(q: f64, n: usize) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Median of a small set of values (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.percentile(0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.beyond(0.9), 10);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
