//! Systematic (delay-bounded) schedule exploration.
//!
//! The paper observes that systematic testing of multi-threaded and
//! asynchronous-reactive programs is an alternative to randomized fuzzing,
//! and that "because it controls all points of non-determinism in Node.js,
//! Node.fz can also enable more systematic exploration" (§6). This module
//! realises that: a deterministic scheduler that enumerates schedules by a
//! *delay budget*, in the spirit of delay-bounded scheduling (Emmi et al.,
//! PoPL'11, the paper's citation [19]).
//!
//! A schedule is identified by a `schedule_id`: its bits decide, at each of
//! the first 64 *delay opportunities* (an expired timer about to run or a
//! ready descriptor about to be dispatched), whether to insert one delay.
//! `schedule_id = 0` is the undelayed schedule; enumerating ids 0..N walks
//! a growing neighbourhood of it. The total number of delays is capped by
//! `delay_budget`, which bounds the distance from the natural schedule
//! exactly as delay-bounded scheduling prescribes.

use std::cell::Cell;
use std::rc::Rc;

use nodefz_rt::{PoolMode, ReadyEntry, Scheduler, TimerVerdict, VDur};

/// Deterministic delay-bounded scheduler.
///
/// # Examples
///
/// ```
/// use nodefz::SystematicScheduler;
/// use nodefz_rt::{EventLoop, LoopConfig, VDur};
///
/// // Enumerate 8 schedules of the same program.
/// let mut distinct = std::collections::HashSet::new();
/// for schedule_id in 0..8 {
///     let sched = SystematicScheduler::new(schedule_id, 4);
///     let mut el = EventLoop::with_scheduler(LoopConfig::seeded(5), Box::new(sched));
///     el.enter(|cx| {
///         for i in 1..4u64 {
///             cx.set_timeout(VDur::micros(i * 500), move |cx| {
///                 cx.submit_work(VDur::micros(300), |_| (), |_, ()| {}).unwrap();
///             });
///         }
///     });
///     distinct.insert(el.run().schedule);
/// }
/// assert!(distinct.len() > 1, "delays produce distinct schedules");
/// ```
pub struct SystematicScheduler {
    schedule_id: u64,
    delay_budget: u32,
    opportunity: u32,
    delays_used: u32,
    /// Mirror of `opportunity` readable after the event loop consumed the
    /// scheduler (see [`SystematicScheduler::probed`]).
    probe: Option<OpportunityProbe>,
}

/// Shared view of how many delay opportunities a [`SystematicScheduler`]
/// consulted, readable after the run (the loop consumes the boxed
/// scheduler, so a direct accessor would be unreachable by then).
///
/// This is the key to sleep-set-style pruning: a run that consulted `k`
/// opportunities read only the low `k` bits of its `schedule_id`, so every
/// id agreeing on those bits yields the *identical* schedule and need not
/// be run (see [`explore_pruned`]).
#[derive(Clone, Debug, Default)]
pub struct OpportunityProbe {
    consulted: Rc<Cell<u32>>,
}

impl OpportunityProbe {
    /// Creates a fresh probe (zero until a probed scheduler runs).
    pub fn fresh() -> OpportunityProbe {
        OpportunityProbe::default()
    }

    /// Delay opportunities consulted by the probed run so far.
    pub fn consulted(&self) -> u32 {
        self.consulted.get()
    }

    /// The set of `schedule_id` bits the probed run actually read, as a
    /// mask over the low bits (all-ones once 64+ opportunities were
    /// consulted).
    pub fn decided_mask(&self) -> u64 {
        match self.consulted.get() {
            k if k >= 64 => u64::MAX,
            k => (1u64 << k) - 1,
        }
    }
}

impl PartialEq for OpportunityProbe {
    /// Probes are equal when they share the same underlying counter.
    fn eq(&self, other: &OpportunityProbe) -> bool {
        Rc::ptr_eq(&self.consulted, &other.consulted)
    }
}

impl SystematicScheduler {
    /// Creates the scheduler for one point of the enumeration.
    ///
    /// `schedule_id` selects which delay opportunities fire (bit `i` of the
    /// id delays opportunity `i`); `delay_budget` caps the total number of
    /// delays.
    pub fn new(schedule_id: u64, delay_budget: u32) -> SystematicScheduler {
        SystematicScheduler {
            schedule_id,
            delay_budget,
            opportunity: 0,
            delays_used: 0,
            probe: None,
        }
    }

    /// Like [`new`](SystematicScheduler::new), plus a probe that stays
    /// readable after the event loop consumed the scheduler.
    pub fn probed(schedule_id: u64, delay_budget: u32) -> (SystematicScheduler, OpportunityProbe) {
        let probe = OpportunityProbe::fresh();
        let mut sched = SystematicScheduler::new(schedule_id, delay_budget);
        sched.probe = Some(probe.clone());
        (sched, probe)
    }

    /// Delays inserted so far in this run.
    pub fn delays_used(&self) -> u32 {
        self.delays_used
    }

    /// Delay opportunities consulted so far: the number of low
    /// `schedule_id` bits this run's outcome depends on.
    pub fn opportunities_seen(&self) -> u32 {
        self.opportunity
    }

    fn take_opportunity(&mut self) -> bool {
        if self.delays_used >= self.delay_budget {
            return false;
        }
        let bit = self.opportunity;
        self.opportunity = self.opportunity.saturating_add(1);
        if let Some(probe) = &self.probe {
            probe.consulted.set(self.opportunity);
        }
        if bit >= 64 {
            return false;
        }
        let delay = (self.schedule_id >> bit) & 1 == 1;
        if delay {
            self.delays_used += 1;
        }
        delay
    }
}

impl Scheduler for SystematicScheduler {
    fn name(&self) -> &'static str {
        "systematic"
    }

    fn pool_mode(&self) -> PoolMode {
        // Serialized with FIFO picks: the pool must be deterministic for
        // the enumeration to be meaningful.
        PoolMode::Serialized {
            lookahead: 1,
            max_delay: VDur::ZERO,
        }
    }

    fn demux_done(&self) -> bool {
        // De-multiplexed completions are individually delayable events.
        true
    }

    fn on_timer(&mut self) -> TimerVerdict {
        if self.take_opportunity() {
            TimerVerdict::Defer {
                delay: VDur::millis(1),
            }
        } else {
            TimerVerdict::Run
        }
    }

    fn defer_ready(&mut self, _entry: &ReadyEntry) -> bool {
        self.take_opportunity()
    }

    fn defer_close(&mut self) -> bool {
        // Close events are covered through the ready/timer opportunities;
        // keeping them undelayed keeps the opportunity indices stable.
        false
    }
}

/// Runs an exploration over `ids` schedules, returning for each id whether
/// `oracle` deemed the run's report a manifestation, stopping early at the
/// first hit.
///
/// This is the systematic analogue of seed-hunting with the random fuzzer.
pub fn explore<R>(
    ids: std::ops::Range<u64>,
    delay_budget: u32,
    mut run_one: impl FnMut(SystematicScheduler) -> R,
    mut oracle: impl FnMut(&R) -> bool,
) -> Option<(u64, R)> {
    for id in ids {
        let sched = SystematicScheduler::new(id, delay_budget);
        let result = run_one(sched);
        if oracle(&result) {
            return Some((id, result));
        }
    }
    None
}

/// Counters from a pruned exploration (see [`explore_pruned`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Schedules actually executed.
    pub explored: u64,
    /// Schedules skipped as provably identical to an executed one.
    pub skipped: u64,
}

/// [`explore`] with sleep-set-style pruning of redundant ids.
///
/// A run that consulted `k` delay opportunities read only the low `k` bits
/// of its `schedule_id`; every later id agreeing on those bits would
/// re-execute the *identical* schedule, so it is skipped without running.
/// The outcome (first oracle hit or exhaustion) is exactly [`explore`]'s —
/// a skipped id's representative was already executed and judged — but the
/// number of runs can shrink dramatically when programs consult few
/// opportunities.
///
/// The explored-prefix list is scanned linearly per id, which is the right
/// trade for enumeration ranges in the thousands; callers walking much
/// larger ranges should shard them.
pub fn explore_pruned<R>(
    ids: std::ops::Range<u64>,
    delay_budget: u32,
    mut run_one: impl FnMut(SystematicScheduler) -> R,
    mut oracle: impl FnMut(&R) -> bool,
) -> (Option<(u64, R)>, PruneStats) {
    // Explored (bits, mask) pairs: any id with `id & mask == bits` is
    // schedule-identical to an already-executed run.
    let mut seen: Vec<(u64, u64)> = Vec::new();
    let mut stats = PruneStats::default();
    for id in ids {
        if seen.iter().any(|&(bits, mask)| id & mask == bits) {
            stats.skipped += 1;
            continue;
        }
        let (sched, probe) = SystematicScheduler::probed(id, delay_budget);
        let result = run_one(sched);
        stats.explored += 1;
        let mask = probe.decided_mask();
        seen.push((id & mask, mask));
        if oracle(&result) {
            return (Some((id, result)), stats);
        }
    }
    (None, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{EventLoop, LoopConfig};
    use std::collections::HashSet;

    fn run_id(schedule_id: u64) -> nodefz_rt::RunReport {
        let sched = SystematicScheduler::new(schedule_id, 6);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(17), Box::new(sched));
        el.enter(|cx| {
            for i in 1..5u64 {
                cx.set_timeout(VDur::micros(i * 400), move |cx| {
                    cx.submit_work(
                        VDur::micros(150 + i * 41),
                        |_| (),
                        |cx, ()| {
                            cx.set_immediate(|_| {});
                        },
                    )
                    .unwrap();
                });
            }
        });
        el.run()
    }

    #[test]
    fn id_zero_is_the_undelayed_schedule() {
        let mut s = SystematicScheduler::new(0, 8);
        for _ in 0..100 {
            assert_eq!(s.on_timer(), TimerVerdict::Run);
        }
        assert_eq!(s.delays_used(), 0);
    }

    #[test]
    fn enumeration_is_deterministic() {
        for id in [0u64, 1, 5, 0b1010] {
            let a = run_id(id);
            let b = run_id(id);
            assert_eq!(a.schedule, b.schedule, "id {id}");
            assert_eq!(a.end_time, b.end_time);
        }
    }

    #[test]
    fn enumeration_covers_multiple_distinct_schedules() {
        let schedules: HashSet<_> = (0..16).map(|id| run_id(id).schedule).collect();
        assert!(
            schedules.len() >= 4,
            "expected several distinct schedules, got {}",
            schedules.len()
        );
    }

    #[test]
    fn budget_caps_delays() {
        let mut s = SystematicScheduler::new(u64::MAX, 3);
        let mut deferred = 0;
        for _ in 0..50 {
            if matches!(s.on_timer(), TimerVerdict::Defer { .. }) {
                deferred += 1;
            }
        }
        assert_eq!(deferred, 3);
        assert_eq!(s.delays_used(), 3);
    }

    #[test]
    fn all_work_still_completes_under_any_id() {
        for id in 0..32 {
            let report = run_id(id);
            assert_eq!(report.pool.completed, 4, "id {id}");
            assert!(!report.crashed());
        }
    }

    #[test]
    fn probe_reports_consulted_opportunities() {
        let (sched, probe) = SystematicScheduler::probed(0b101, 8);
        assert_eq!(probe.consulted(), 0);
        assert_eq!(probe.decided_mask(), 0);
        let mut el = EventLoop::with_scheduler(LoopConfig::seeded(17), Box::new(sched));
        el.enter(|cx| {
            for i in 1..5u64 {
                cx.set_timeout(VDur::micros(i * 400), move |cx| {
                    cx.submit_work(VDur::micros(150), |_| (), |_, ()| {})
                        .unwrap();
                });
            }
        });
        el.run();
        let k = probe.consulted();
        assert!(k > 0, "the run consulted opportunities");
        assert!(k < 64, "small program consults few opportunities");
        assert_eq!(probe.decided_mask(), (1u64 << k) - 1);
    }

    #[test]
    fn pruned_exploration_matches_explore_with_fewer_runs() {
        let budget = 6;
        let ids = 0u64..64;
        let baseline = run_id(0).schedule;
        let mut oracle = |report: &nodefz_rt::RunReport| report.schedule != baseline;
        let plain = explore(ids.clone(), budget, drive, &mut oracle);
        let (pruned, stats) = explore_pruned(ids, budget, drive, &mut oracle);
        // Identical verdict: a skipped id is schedule-identical to an
        // executed representative, so pruning cannot change the first hit.
        assert_eq!(plain.as_ref().map(|(id, _)| *id), pruned.map(|(id, _)| id));
        assert_eq!(
            stats.explored + stats.skipped,
            plain.as_ref().map(|(id, _)| id + 1).unwrap_or(64)
        );

        fn drive(sched: SystematicScheduler) -> nodefz_rt::RunReport {
            let mut el = EventLoop::with_scheduler(LoopConfig::seeded(17), Box::new(sched));
            el.enter(|cx| {
                for i in 1..5u64 {
                    cx.set_timeout(VDur::micros(i * 400), move |cx| {
                        cx.submit_work(
                            VDur::micros(150 + i * 41),
                            |_| (),
                            |cx, ()| {
                                cx.set_immediate(|_| {});
                            },
                        )
                        .unwrap();
                    });
                }
            });
            el.run()
        }
    }

    #[test]
    fn pruning_skips_ids_beyond_the_consulted_bits() {
        // A single timer consults one opportunity per (re-deferred) firing:
        // only ids of the form 0b1…1 reach a fresh opportunity, so of 32
        // ids at most 6 distinct schedules exist and the rest are skipped.
        let run = |sched: SystematicScheduler| {
            let mut el = EventLoop::with_scheduler(LoopConfig::seeded(3), Box::new(sched));
            el.enter(|cx| {
                cx.set_timeout(VDur::millis(1), |cx| cx.report_error("t", ""));
            });
            el.run()
        };
        let (hit, stats) = explore_pruned(0..32, 4, run, |_| false);
        assert!(hit.is_none());
        assert_eq!(stats.explored + stats.skipped, 32);
        assert!(
            stats.explored <= 6,
            "all-ones prefixes only, got {} explored",
            stats.explored
        );
        assert!(stats.skipped >= 26);
    }

    #[test]
    fn explore_finds_a_matching_schedule() {
        // Hunt for any schedule whose type sequence differs from id 0's.
        let baseline = run_id(0).schedule;
        let found = explore(
            0..32,
            6,
            |sched| {
                let mut el = EventLoop::with_scheduler(LoopConfig::seeded(17), Box::new(sched));
                el.enter(|cx| {
                    for i in 1..5u64 {
                        cx.set_timeout(VDur::micros(i * 400), move |cx| {
                            cx.submit_work(
                                VDur::micros(150 + i * 41),
                                |_| (),
                                |cx, ()| {
                                    cx.set_immediate(|_| {});
                                },
                            )
                            .unwrap();
                        });
                    }
                });
                el.run()
            },
            |report| report.schedule != baseline,
        );
        assert!(found.is_some(), "some delayed schedule must differ");
        assert!(found.expect("checked").0 > 0, "id 0 is the baseline itself");
    }
}
