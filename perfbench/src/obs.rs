//! Per-layer observations gathered by the benchmark's own code at the
//! calls it makes into each layer: latency samples, counters and maxima,
//! keyed by the per-layer metric name they feed.

use std::collections::BTreeMap;

use crate::stats;

/// Observation store of one run.
#[derive(Debug, Default)]
pub struct Obs {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
}

impl Obs {
    /// Records one sample of `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Raises gauge `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.counters.entry(name).or_default();
        *e = e.max(v);
    }

    /// The samples of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Percentile `p` of samples `name` (0 when there are none).
    pub fn pct(&self, name: &str, p: f64) -> f64 {
        let s = self.samples(name);
        if s.is_empty() {
            0.0
        } else {
            stats::percentile(&stats::sorted(s), p)
        }
    }

    /// Mean of samples `name` (0 when there are none).
    pub fn mean(&self, name: &str) -> f64 {
        stats::mean(self.samples(name))
    }

    /// `num / den` of two counters (0 when `den` is 0).
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.counter(den);
        if d == 0.0 {
            0.0
        } else {
            self.counter(num) / d
        }
    }
}
