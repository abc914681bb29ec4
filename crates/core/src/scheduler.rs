//! The Node.fz fuzz scheduler (§4.3 of the paper).
//!
//! `FuzzScheduler` plugs into the runtime's [`Scheduler`] extension point
//! and amplifies the nondeterminism of the event loop and worker pool using
//! the paper's three techniques:
//!
//! 1. **De-multiplexing** — the worker-pool done queue is split onto
//!    per-task descriptors so each completion is an independently
//!    schedulable event (§4.3.1, §4.3.3).
//! 2. **Event shuffling** — the epoll ready list is shuffled with a bounded
//!    "degrees of freedom" distance, and the serialized worker picks
//!    uniformly among the first *DoF* queued tasks (§4.3.4).
//! 3. **Event delaying** — ready descriptors, expired timers and close
//!    events are probabilistically deferred to the next loop iteration;
//!    a deferred timer short-circuits the timer phase (preserving libuv's
//!    {timeout, registration} ordering) and injects a 5 ms delay.
//!
//! Every decision draws from a dedicated seed, independent of the
//! environment seed, so `(env_seed, sched_seed)` fully determines a run.

use nodefz_rt::{PoolMode, ReadyEntry, Rng, Scheduler, ShuffleScratch, TimerVerdict};

use crate::params::FuzzParams;

/// The Node.fz scheduler: randomized, legal perturbation of the schedule.
///
/// # Examples
///
/// ```
/// use nodefz::{FuzzParams, FuzzScheduler};
/// use nodefz_rt::{EventLoop, LoopConfig, VDur};
///
/// let sched = FuzzScheduler::new(FuzzParams::standard(), 7);
/// let mut el = EventLoop::with_scheduler(LoopConfig::seeded(1), Box::new(sched));
/// el.enter(|cx| {
///     cx.set_timeout(VDur::millis(1), |cx| cx.report_error("ran", ""));
/// });
/// assert!(el.run().has_error("ran"));
/// ```
pub struct FuzzScheduler {
    params: FuzzParams,
    rng: Rng,
    stats: FuzzStats,
    /// Reusable buffers for the bounded shuffle (one per poll iteration).
    scratch: ShuffleScratch,
}

/// Counters of the decisions a scheduler made during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Timers deferred.
    pub timers_deferred: u64,
    /// Timers allowed to run.
    pub timers_run: u64,
    /// Ready descriptors deferred.
    pub ready_deferred: u64,
    /// Ready lists shuffled.
    pub shuffles: u64,
    /// Close events deferred.
    pub closes_deferred: u64,
    /// Worker-pool picks that chose a non-head task.
    pub nonfifo_picks: u64,
}

impl FuzzScheduler {
    /// Creates a fuzz scheduler with the given parameters and decision seed.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`FuzzParams::validate`]; invalid
    /// parameters would silently bias experiments.
    pub fn new(params: FuzzParams, sched_seed: u64) -> FuzzScheduler {
        if let Err(e) = params.validate() {
            panic!("invalid FuzzParams: {e}");
        }
        FuzzScheduler {
            params,
            rng: Rng::new(sched_seed ^ 0x6E6F_6465_2E66_7A00), // "node.fz"
            stats: FuzzStats::default(),
            scratch: ShuffleScratch::new(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &FuzzParams {
        &self.params
    }

    /// Decision counters accumulated so far.
    pub fn stats(&self) -> FuzzStats {
        self.stats
    }
}

impl Scheduler for FuzzScheduler {
    fn name(&self) -> &'static str {
        "nodefz"
    }

    fn pool_mode(&self) -> PoolMode {
        if self.params.serialize_pool {
            PoolMode::Serialized {
                lookahead: self.params.wp_dof.unwrap_or(usize::MAX),
                // Our simulator folds the epoll threshold and the max delay
                // into one wait deadline: the worker proceeds at the earlier
                // of the two caps.
                max_delay: self.params.wp_max_delay.min(self.params.wp_epoll_threshold),
            }
        } else {
            PoolMode::Concurrent { workers: 4 }
        }
    }

    fn demux_done(&self) -> bool {
        self.params.demux_done
    }

    fn on_timer(&mut self) -> TimerVerdict {
        if self.rng.chance_pct(self.params.timer_defer_pct) {
            self.stats.timers_deferred += 1;
            TimerVerdict::Defer {
                delay: self.params.timer_defer_delay,
            }
        } else {
            self.stats.timers_run += 1;
            TimerVerdict::Run
        }
    }

    fn shuffle_ready(&mut self, ready: &mut Vec<ReadyEntry>) {
        let dist = self.params.epoll_dof.unwrap_or(usize::MAX);
        if dist == 0 || ready.len() < 2 {
            return;
        }
        self.stats.shuffles += 1;
        self.rng
            .shuffle_bounded_with(ready, dist, &mut self.scratch);
    }

    fn defer_ready(&mut self, _entry: &ReadyEntry) -> bool {
        let defer = self.rng.chance_pct(self.params.epoll_defer_pct);
        if defer {
            self.stats.ready_deferred += 1;
        }
        defer
    }

    fn defer_close(&mut self) -> bool {
        let defer = self.rng.chance_pct(self.params.close_defer_pct);
        if defer {
            self.stats.closes_deferred += 1;
        }
        defer
    }

    fn pick_task(&mut self, window: usize) -> usize {
        if window <= 1 {
            return 0;
        }
        let idx = self.rng.pick_index(window);
        if idx != 0 {
            self.stats.nonfifo_picks += 1;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodefz_rt::{Fd, VDur, VTime};

    fn ready_list(n: usize) -> Vec<ReadyEntry> {
        (0..n)
            .map(|i| ReadyEntry {
                fd: Fd(i as u32),
                at: VTime(i as u64),
                seq: i as u64,
            })
            .collect()
    }

    #[test]
    fn standard_params_defer_at_documented_rates() {
        let mut s = FuzzScheduler::new(FuzzParams::standard(), 1);
        let n = 100_000;
        let deferred = (0..n)
            .filter(|_| matches!(s.on_timer(), TimerVerdict::Defer { .. }))
            .count();
        let rate = deferred as f64 / n as f64;
        assert!((0.18..0.22).contains(&rate), "timer defer rate {rate}");
        let entry = ready_list(1)[0];
        let deferred = (0..n).filter(|_| s.defer_ready(&entry)).count();
        let rate = deferred as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "epoll defer rate {rate}");
        let deferred = (0..n).filter(|_| s.defer_close()).count();
        let rate = deferred as f64 / n as f64;
        assert!((0.04..0.06).contains(&rate), "close defer rate {rate}");
    }

    #[test]
    fn deferred_timer_injects_5ms() {
        let mut s = FuzzScheduler::new(FuzzParams::standard(), 2);
        loop {
            if let TimerVerdict::Defer { delay } = s.on_timer() {
                assert_eq!(delay, VDur::millis(5));
                break;
            }
        }
    }

    #[test]
    fn none_params_make_no_random_choices() {
        let mut s = FuzzScheduler::new(FuzzParams::none(), 3);
        let mut ready = ready_list(10);
        let orig = ready.clone();
        s.shuffle_ready(&mut ready);
        assert_eq!(ready, orig, "dof 0 must not shuffle");
        for _ in 0..1_000 {
            assert_eq!(s.on_timer(), TimerVerdict::Run);
            assert!(!s.defer_ready(&orig[0]));
            assert!(!s.defer_close());
            // With wp_dof = 1 the loop driver always presents a window of 1.
            assert_eq!(s.pick_task(1), 0);
        }
        assert_eq!(s.stats().timers_deferred, 0);
        assert_eq!(s.stats().ready_deferred, 0);
    }

    #[test]
    fn nofuzz_pool_mode_is_serialized_fifo() {
        let s = FuzzScheduler::new(FuzzParams::none(), 4);
        match s.pool_mode() {
            PoolMode::Serialized {
                lookahead,
                max_delay,
            } => {
                assert_eq!(lookahead, 1);
                assert_eq!(max_delay, VDur::ZERO);
            }
            other => panic!("unexpected pool mode {other:?}"),
        }
        assert!(s.demux_done());
    }

    #[test]
    fn standard_pool_mode_unlimited_lookahead() {
        let s = FuzzScheduler::new(FuzzParams::standard(), 5);
        match s.pool_mode() {
            PoolMode::Serialized {
                lookahead,
                max_delay,
            } => {
                assert_eq!(lookahead, usize::MAX);
                assert_eq!(max_delay, VDur::micros(100));
            }
            other => panic!("unexpected pool mode {other:?}"),
        }
    }

    #[test]
    fn shuffle_respects_bounded_dof() {
        let mut params = FuzzParams::standard();
        params.epoll_dof = Some(2);
        let mut s = FuzzScheduler::new(params, 6);
        for _ in 0..200 {
            let mut ready = ready_list(12);
            s.shuffle_ready(&mut ready);
            for (pos, e) in ready.iter().enumerate() {
                let dist = pos.abs_diff(e.seq as usize);
                assert!(dist <= 2, "entry {e:?} moved {dist} positions");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut s = FuzzScheduler::new(FuzzParams::standard(), 7);
        let mut ready = ready_list(20);
        s.shuffle_ready(&mut ready);
        let mut seqs: Vec<u64> = ready.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn pick_task_stays_in_window() {
        let mut s = FuzzScheduler::new(FuzzParams::standard(), 8);
        for w in 1..20 {
            for _ in 0..100 {
                assert!(s.pick_task(w) < w);
            }
        }
    }

    #[test]
    fn pick_task_covers_window() {
        let mut s = FuzzScheduler::new(FuzzParams::standard(), 9);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[s.pick_task(6)] = true;
        }
        assert!(seen.iter().all(|&x| x), "all window slots reachable");
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || FuzzScheduler::new(FuzzParams::standard(), 42);
        let mut a = mk();
        let mut b = mk();
        for _ in 0..1_000 {
            assert_eq!(a.on_timer(), b.on_timer());
            assert_eq!(a.pick_task(7), b.pick_task(7));
        }
    }

    #[test]
    #[should_panic(expected = "invalid FuzzParams")]
    fn invalid_params_rejected() {
        let mut p = FuzzParams::standard();
        p.timer_defer_pct = 500.0;
        let _ = FuzzScheduler::new(p, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = FuzzScheduler::new(FuzzParams::aggressive(), 10);
        for _ in 0..100 {
            let _ = s.on_timer();
            let _ = s.defer_close();
            let _ = s.pick_task(4);
        }
        let st = s.stats();
        assert!(st.timers_deferred > 0);
        assert!(st.timers_run > 0);
        assert!(st.closes_deferred > 0);
        assert!(st.nonfifo_picks > 0);
    }
}
