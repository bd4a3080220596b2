//! Correctness accounting shared by every phase: operations attempted,
//! operations failed, and a bounded list of failure reasons for the log.

use std::collections::BTreeMap;

/// Failure ledger of one run.
#[derive(Debug, Default)]
pub struct Gates {
    /// Operations attempted (updates, planned rules, breakages).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// Failure count per reason.
    pub reasons: BTreeMap<String, u64>,
}

impl Gates {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        *self.reasons.entry(reason.into()).or_default() += 1;
    }

    /// Checks `ok`, failing with `reason` otherwise.
    pub fn check(&mut self, ok: bool, reason: &str) {
        if !ok {
            self.fail(reason);
        }
    }

    /// Adds another ledger's counts to this one.
    pub fn merge(&mut self, other: Gates) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.reasons {
            *self.reasons.entry(k).or_default() += v;
        }
    }

    /// Share of attempted operations that did not fail.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}
