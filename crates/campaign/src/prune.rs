//! Schedule-space pruning: online HB-equivalence accounting.
//!
//! Raw throughput (executions per second) overstates a fuzzer's value:
//! two schedules that are happens-before-equivalent manifest exactly the
//! same races (`nodefz-hb`'s canonical-key theorem), so every redundant
//! execution is waste. This module makes the redundancy visible:
//! [`Pruner`] is the campaign controller's side. Every run's event log is
//! folded into a [`CanonKey`]; an LRU-capped [`SeenSet`] classifies each
//! run as *distinct* (a new equivalence class) or *redundant*. For
//! manifesting runs the pruner also memoizes the class's bug signature
//! and cross-checks repeats — an online soundness check of the
//! same-key-same-races theorem ([`ClassVerdict::Mismatch`] would mean a
//! canonicalization bug, never silently absorbed).
//!
//! [`CanonKey`]: nodefz_hb::CanonKey
//! [`SeenSet`]: nodefz_hb::SeenSet

use std::collections::HashMap;

use nodefz_hb::{CanonKey, SeenSet};
use nodefz_trace::BugSignature;

/// Default capacity of pruning seen-sets: large enough that a campaign's
/// working set never thrashes, small enough to bound memory (~16 bytes a
/// key).
pub const SEEN_CAP: usize = 1 << 20;

/// Counters describing a pruned campaign or bench window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Executions performed.
    pub runs: u64,
    /// Executions whose canonical key was new — distinct HB classes.
    pub distinct: u64,
    /// Executions whose canonical key was already seen.
    pub redundant: u64,
    /// Same-key runs whose outcome contradicted the memoized class
    /// outcome. Always 0 unless canonicalization is broken.
    pub mismatches: u64,
}

impl PruneCounters {
    /// Fraction of executions that re-visited an already-seen class.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.redundant as f64 / self.runs as f64
        }
    }
}

/// Opaque environment scope for [`Pruner::observe`]: FNV of the app name
/// folded with the environment seed. Two runs share a scope exactly when
/// they execute the same callbacks on the same inputs, which is the
/// precondition for "HB-equivalent ⟹ identical manifestation".
pub fn env_scope(app: &str, env_seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in app.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ env_seed
}

/// How [`Pruner::observe`] classified one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassVerdict {
    /// First run of its HB-equivalence class.
    Fresh,
    /// The class was already explored; the run added no information.
    Redundant,
    /// The run's outcome contradicted the class's memoized outcome —
    /// a canonicalization soundness violation.
    Mismatch,
}

/// Controller-side pruning state for a campaign: classifies every run by
/// canonical key and cross-checks that HB-equivalent runs of the *same
/// environment* produce the same bug (or none).
///
/// The seen-set is global: races are a pure function of the event log,
/// so an already-seen key means the run's race analysis is redundant no
/// matter which (app, env seed) produced it. The outcome memo is scoped
/// per environment, because HB equivalence only promises identical
/// manifestation when the callbacks themselves are identical — two
/// environments can share an event-log shape yet fail differently.
#[derive(Debug)]
pub struct Pruner {
    seen: SeenSet,
    /// Memoized outcome per observed (environment, class) pair, capped at
    /// the seen-set capacity (past the cap the tripwire degrades to
    /// best-effort rather than growing without bound).
    manifested: HashMap<(u64, CanonKey), Option<BugSignature>>,
    memo_cap: usize,
    counters: PruneCounters,
}

impl Pruner {
    /// Creates a pruner whose seen-set holds up to `cap` classes.
    pub fn new(cap: usize) -> Pruner {
        Pruner {
            seen: SeenSet::new(cap),
            manifested: HashMap::new(),
            memo_cap: cap,
            counters: PruneCounters::default(),
        }
    }

    /// Classifies one finished run: its canonical key, an opaque
    /// environment scope (hash of whatever fixes the callbacks — app and
    /// environment seed), plus the signature it manifested (if any).
    pub fn observe(
        &mut self,
        key: CanonKey,
        scope: u64,
        outcome: Option<&BugSignature>,
    ) -> ClassVerdict {
        self.counters.runs += 1;
        let fresh = self.seen.insert(key);
        if fresh {
            self.counters.distinct += 1;
        } else {
            self.counters.redundant += 1;
        }
        // Same environment, same class, same races: a repeat must
        // reproduce the memoized outcome exactly.
        match self.manifested.get(&(scope, key)) {
            Some(cached) => {
                let consistent = match (outcome, cached) {
                    (Some(sig), Some(memo)) => sig == memo,
                    (None, None) => true,
                    _ => false,
                };
                if !consistent {
                    self.counters.mismatches += 1;
                    return ClassVerdict::Mismatch;
                }
            }
            None => {
                if self.manifested.len() < self.memo_cap {
                    self.manifested.insert((scope, key), outcome.cloned());
                }
            }
        }
        if fresh {
            ClassVerdict::Fresh
        } else {
            ClassVerdict::Redundant
        }
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &PruneCounters {
        &self.counters
    }

    /// Distinct classes currently tracked.
    pub fn classes(&self) -> usize {
        self.seen.len()
    }

    /// Live health of the pruner's bounded structures — the seen-set LRU
    /// occupancy and churn that the cumulative [`PruneCounters`] cannot
    /// show. Surfaced in `nodefz-metrics-v1` snapshots so an operator can
    /// tell a saturated class set (evictions climbing, redundancy ratio
    /// no longer trustworthy) from a healthy one at a glance.
    pub fn health(&self) -> PruneHealth {
        PruneHealth {
            seen_occupancy: self.seen.len() as u64,
            seen_evictions: self.seen.evicted(),
            seen_hits: self.seen.hits(),
        }
    }
}

/// Point-in-time health of the [`Pruner`]'s seen-class LRU.
///
/// Kept separate from [`PruneCounters`] on purpose: the counters are a
/// cumulative, `Eq`-comparable record of classification verdicts that
/// other processes parse field-for-field, while health is a gauge of the
/// bounded data structure behind them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneHealth {
    /// Distinct classes currently resident in the seen-set LRU.
    pub seen_occupancy: u64,
    /// Classes evicted from the LRU since the campaign started. Nonzero
    /// means the redundancy ratio undercounts: an evicted class observed
    /// again is miscounted as fresh.
    pub seen_evictions: u64,
    /// Seen-set re-hits (redundant observations) since the start.
    pub seen_hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{CbKind, TypeSchedule};

    fn sig(app: &str, detail: &str) -> BugSignature {
        let mut schedule = TypeSchedule::new();
        schedule.push(CbKind::Timer);
        BugSignature::new(app, detail, &schedule)
    }

    #[test]
    fn pruner_classifies_fresh_redundant_and_mismatch() {
        let mut p = Pruner::new(16);
        let k1 = CanonKey(1);
        let k2 = CanonKey(2);
        let bug = sig("KUE", "lost job");

        assert_eq!(p.observe(k1, 0, None), ClassVerdict::Fresh);
        assert_eq!(p.observe(k1, 0, None), ClassVerdict::Redundant);
        assert_eq!(p.observe(k2, 0, Some(&bug)), ClassVerdict::Fresh);
        assert_eq!(p.observe(k2, 0, Some(&bug)), ClassVerdict::Redundant);
        // Same environment, same class, different outcome: the soundness
        // tripwire.
        assert_eq!(p.observe(k1, 0, Some(&bug)), ClassVerdict::Mismatch);
        assert_eq!(
            p.observe(k2, 0, Some(&sig("KUE", "other failure"))),
            ClassVerdict::Mismatch
        );
        assert_eq!(p.observe(k2, 0, None), ClassVerdict::Mismatch);

        let c = p.counters();
        assert_eq!(c.runs, 7);
        assert_eq!(c.distinct, 2);
        assert_eq!(c.redundant, 5);
        assert_eq!(c.mismatches, 3);
        assert_eq!(p.classes(), 2);
    }

    #[test]
    fn pruner_scopes_the_outcome_memo_per_environment() {
        let mut p = Pruner::new(16);
        let k = CanonKey(9);
        let bug = sig("GHO", "dropped row");

        assert_eq!(p.observe(k, 1, None), ClassVerdict::Fresh);
        // A different environment may manifest differently under the same
        // event-log shape: redundant for dedup, but no contradiction.
        assert_eq!(p.observe(k, 2, Some(&bug)), ClassVerdict::Redundant);
        assert_eq!(p.counters().mismatches, 0);
        // Within each environment the memo still binds.
        assert_eq!(p.observe(k, 1, Some(&bug)), ClassVerdict::Mismatch);
        assert_eq!(p.observe(k, 2, None), ClassVerdict::Mismatch);
        assert_eq!(p.counters().mismatches, 2);
    }
}
