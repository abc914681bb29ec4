//! The parallel campaign driver.
//!
//! The event-loop simulator is single-threaded by design (`Rc` handles,
//! deterministic virtual time), so a campaign parallelizes across *runs*:
//! worker OS threads pull jobs from a work-stealing queue, instantiate the
//! bug case locally (via [`resolve_case`] — `Box<dyn BugCase>` is not
//! `Send`), and report results back over a channel. The controller
//! thread owns the bandit, the deduplicator, and the corpus:
//!
//! ```text
//! controller ── bandit picks (app, preset) ──► seed queue ──► workers
//!      ▲  │                                                     │
//!      │  └── new signature ──► repro channel ──► shrinker      │
//!      │                                             │          │
//!      └──── findings / shrink results ◄───── channel ◄─────────┘
//! ```
//!
//! A new signature becomes a repro job (delta debugging + acceptance
//! replays) for the campaign's one shrinker thread, so repro work runs
//! beside the fuzz workers instead of queueing ahead of later fuzz runs;
//! the shrunk repro is then persisted. The fuzz stream depends only on
//! the order of fuzz completions and their bandit rewards, never on a
//! shrink, so moving repro work off the workers changes no finding. The
//! campaign drains gracefully when the run budget is spent or the
//! wall-clock deadline passes, after every pending repro job finishes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use nodefz::{DecisionTrace, DirectedSpec, Mode, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::{RunCfg, Variant};
use nodefz_hb::{CanonBuilder, CanonKey};
use nodefz_rt::{EventLogHandle, TypeSchedule};
use nodefz_trace::BugSignature;

use crate::analyze::directed_specs;
use crate::bandit::{Arm, Bandit};
use crate::config::{preset_name, preset_params, CampaignConfig, DIRECTED_PRESET};
use crate::corpus::{Corpus, CorpusEntry};
use crate::dedup::{BugRecord, Deduper, Finding};
use crate::metrics::{self, Discovery, ReproStats, WorkerTelemetry};
use crate::prune::{ClassVerdict, Pruner, SEEN_CAP};
use crate::shrink::shrink;
use nodefz_obs::{Journal, JournalEvent, PruneOutcome, JOURNAL_CAP};

/// How many early runs of each arm have their type schedule sampled for
/// the per-arm diversity summary in `--metrics-out` snapshots. Pairwise
/// Levenshtein is quadratic in samples, so the curve stays cheap.
const SCHEDULE_SAMPLES: u64 = 8;

/// How often the controller rewrites the `--metrics-out` snapshot while
/// the campaign runs (a final snapshot is always written at the end).
const METRICS_INTERVAL: Duration = Duration::from_millis(500);

/// Resolves a campaign app abbreviation to its bug case. Beyond the
/// studied application bugs ([`nodefz_apps::by_abbr`]), campaigns can run
/// the conformance arms — generated programs judged against the
/// runtime's ordering oracle — under the `CONFORM` (independent
/// sampling) and `CONFORM-API` (API-graph traversal) abbreviations.
pub fn resolve_case(app: &str) -> Option<Box<dyn nodefz_apps::common::BugCase>> {
    if app.eq_ignore_ascii_case(nodefz_conform::ABBR) {
        return Some(nodefz_conform::bug_case());
    }
    if app.eq_ignore_ascii_case(nodefz_conform::API_ABBR) {
        return Some(nodefz_conform::api_bug_case());
    }
    nodefz_apps::by_abbr(app)
}

/// One unit of worker work: run the app once under a recording fuzz
/// scheduler — or, when a directed spec is attached, under a
/// race-directed scheduler that replays the spec's prefix and forces the
/// predicted flip.
struct Job {
    app: String,
    preset: usize,
    env_seed: u64,
    directed: Option<DirectedSpec>,
    /// Whether to ship the run's type schedule back for the per-arm
    /// diversity summary (the first few runs of each arm).
    want_schedule: bool,
}

/// One unit of shrinker work: minimize a new signature's manifesting
/// trace, then acceptance-replay it.
struct ReproJob {
    app: String,
    env_seed: u64,
    trace: DecisionTrace,
    signature: BugSignature,
}

/// Worker and shrinker → controller messages.
enum Msg {
    /// A fuzz worker finished a run.
    FuzzDone {
        app: String,
        preset: usize,
        finding: Option<Finding>,
        /// The run's type schedule, when the job asked for it.
        schedule: Option<TypeSchedule>,
        /// The run's HB canonical key plus its environment scope (see
        /// [`crate::prune::env_scope`]), when pruning is on.
        canon: Option<(CanonKey, u64)>,
    },
    /// The shrinker finished a repro job.
    ShrinkDone {
        signature: BugSignature,
        shrunk: DecisionTrace,
        original_len: usize,
        replays_ok: u32,
        /// Replays the job ran: shrink oracle calls plus acceptance checks.
        replays: u64,
        /// Wall time the shrinker spent on the job.
        busy: Duration,
    },
}

/// Per-worker deques with stealing: a worker pops its own queue front and,
/// when empty, steals the back half of the first non-empty peer queue.
struct SeedQueue {
    queues: Vec<Mutex<VecDeque<Job>>>,
}

impl SeedQueue {
    fn new(workers: usize) -> SeedQueue {
        SeedQueue {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        }
    }

    fn push(&self, slot: usize, job: Job) {
        self.queues[slot % self.queues.len()]
            .lock()
            .expect("queue lock")
            .push_back(job);
    }

    fn pop(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.queues[me].lock().expect("queue lock").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            let mut stolen = {
                let mut v = self.queues[victim].lock().expect("queue lock");
                let len = v.len();
                if len == 0 {
                    continue;
                }
                v.split_off(len - len.div_ceil(2))
            };
            let job = stolen.pop_front();
            if !stolen.is_empty() {
                self.queues[me].lock().expect("queue lock").extend(stolen);
            }
            return job;
        }
        None
    }
}

/// Progress events, for live reporting.
#[derive(Clone, Debug)]
pub enum Event {
    /// A fuzz run finished.
    Run {
        /// Runs completed so far.
        completed: u64,
        /// Total run budget.
        budget: u64,
    },
    /// A previously unseen bug signature manifested.
    NewBug {
        /// The new bug's dedup key.
        signature: BugSignature,
        /// Environment seed of the manifesting run.
        env_seed: u64,
    },
    /// A bug's trace finished shrinking.
    Shrunk {
        /// Which bug.
        signature: BugSignature,
        /// Decisions before shrinking.
        from: usize,
        /// Decisions after shrinking.
        to: usize,
        /// Acceptance replays that re-manifested it.
        replays_ok: u32,
    },
    /// The wall-clock deadline passed; the campaign is draining.
    DeadlineHit,
}

/// Summary of one deduplicated bug, for the final report.
#[derive(Clone, Debug)]
pub struct BugSummary {
    /// Bug abbreviation.
    pub app: String,
    /// Normalized failure site.
    pub site: String,
    /// Manifestations observed.
    pub hits: u64,
    /// Environment seed of the first manifestation.
    pub first_seed: u64,
    /// Decisions in the first manifesting trace.
    pub original_len: usize,
    /// Decisions after shrinking (== `original_len` when shrinking is off).
    pub shrunk_len: usize,
    /// Acceptance replays that re-manifested the bug.
    pub replays_ok: u32,
}

/// What a finished campaign reports.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Fuzz runs completed.
    pub runs: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// One summary per deduplicated bug, in stable signature order.
    pub bugs: Vec<BugSummary>,
    /// (app, preset name, pulls, recent-yield EMA) per bandit arm.
    pub arms: Vec<(String, &'static str, u64, f64)>,
    /// Whether the deadline cut the campaign short.
    pub hit_deadline: bool,
}

impl CampaignReport {
    /// Number of distinct bugs found.
    pub fn unique_bugs(&self) -> usize {
        self.bugs.len()
    }
}

/// The observable result of one fuzzed execution.
pub struct FuzzExec {
    /// The finding, when the bug manifested.
    pub finding: Option<Finding>,
    /// Callbacks dispatched during the run.
    pub dispatched: u64,
    /// The run's type schedule, when sampling was requested.
    pub schedule: Option<TypeSchedule>,
    /// The run's HB-equivalence canonical key plus its environment scope
    /// ([`crate::prune::env_scope`]), when the context prunes
    /// ([`RunContext::enable_prune`]).
    pub canon: Option<(CanonKey, u64)>,
}

/// Per-worker reusable execution state: the campaign/bench hot path.
///
/// One `RunContext` lives for a worker's whole lifetime and executes
/// thousands of runs, so anything that can be reset-and-reused across runs
/// instead of rebuilt belongs here: the [`LoopPool`] recycles the event
/// loop's heap buffers (timer wheel, poll set, pool queues, scratch
/// vectors), and the [`TraceHandle`] recycles the decision buffer — its
/// contents are only snapshotted when a run actually manifests a bug.
///
/// [`LoopPool`]: nodefz_rt::LoopPool
pub struct RunContext {
    pool: nodefz_rt::LoopPool,
    handle: TraceHandle,
    /// HB-canonicalization kit attached when pruning is on: the event-log
    /// handle every run records into plus the reusable canon builder and
    /// its scratch buffer — allocation-free at steady state, and purely
    /// observational (recording never changes seeds or schedules, so the
    /// executed run stream is identical with pruning on or off).
    prune: Option<PruneKit>,
    /// Loop-observability handle attached to every fuzz run (profiling
    /// only — it never changes seeds, decisions, or schedules).
    #[cfg(feature = "obs")]
    obs: Option<nodefz_rt::ObsHandle>,
}

/// The per-worker state [`RunContext::enable_prune`] attaches.
struct PruneKit {
    events: EventLogHandle,
    canon: CanonBuilder,
    scratch: Vec<u64>,
}

impl Default for RunContext {
    fn default() -> RunContext {
        RunContext::new()
    }
}

impl RunContext {
    /// Creates a fresh context.
    pub fn new() -> RunContext {
        RunContext {
            pool: nodefz_rt::LoopPool::new(),
            handle: TraceHandle::fresh(),
            prune: None,
            #[cfg(feature = "obs")]
            obs: None,
        }
    }

    /// Attaches the pruning kit: every subsequent fuzz run records an
    /// event log and reports its HB canonical key in
    /// [`FuzzExec::canon`].
    pub fn enable_prune(&mut self) {
        self.prune = Some(PruneKit {
            events: EventLogHandle::fresh(),
            canon: CanonBuilder::new(),
            scratch: Vec::new(),
        });
    }

    /// Attaches a loop-observability handle to every subsequent fuzz run.
    #[cfg(feature = "obs")]
    pub fn set_obs(&mut self, obs: nodefz_rt::ObsHandle) {
        self.obs = Some(obs);
    }

    /// Runs one fuzz job: the buggy variant under a recording fuzz
    /// scheduler. Unknown apps count as a non-manifesting run.
    pub fn fuzz_once(&mut self, app: &str, preset: usize, env_seed: u64) -> FuzzExec {
        self.fuzz_once_sampled(app, preset, env_seed, false)
    }

    /// Runs one race-directed job: the buggy variant under a
    /// [`DirectedSpec`]'s replay-then-flip scheduler, recorded so a
    /// confirming run is immediately a replayable repro. The env seed
    /// must match the spec's recorded run — the prefix replays against
    /// the same modelled environment.
    pub fn fuzz_directed(&mut self, app: &str, spec: DirectedSpec, env_seed: u64) -> FuzzExec {
        self.exec(app, DIRECTED_PRESET, env_seed, Some(spec), false)
    }

    /// Like [`RunContext::fuzz_once`], optionally cloning the run's type
    /// schedule out for diversity telemetry.
    pub fn fuzz_once_sampled(
        &mut self,
        app: &str,
        preset: usize,
        env_seed: u64,
        want_schedule: bool,
    ) -> FuzzExec {
        self.exec(app, preset, env_seed, None, want_schedule)
    }

    fn exec(
        &mut self,
        app: &str,
        preset: usize,
        env_seed: u64,
        directed: Option<DirectedSpec>,
        want_schedule: bool,
    ) -> FuzzExec {
        let Some(case) = resolve_case(app) else {
            return FuzzExec {
                finding: None,
                dispatched: 0,
                schedule: None,
                canon: None,
            };
        };
        // The recording scheduler resets the shared handle in place, so
        // reusing it across runs keeps the decision buffer's capacity.
        let mode = match directed {
            Some(spec) => Mode::Directed(spec, self.handle.clone()),
            None => Mode::Record(preset_params(preset), self.handle.clone()),
        };
        #[allow(unused_mut)]
        let mut run_cfg = RunCfg::new(mode, env_seed).pooled(&self.pool);
        if let Some(kit) = &self.prune {
            run_cfg = run_cfg.events(&kit.events);
        }
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.obs {
            run_cfg = run_cfg.observed(obs);
        }
        let out = case.run(&run_cfg, Variant::Buggy);
        let dispatched = out.report.dispatched;
        let schedule = want_schedule.then(|| out.report.schedule.clone());
        let finding = out.manifested.then(|| Finding {
            app: app.to_string(),
            preset,
            env_seed,
            signature: BugSignature::new(app, &out.detail, &out.report.schedule),
            detail: out.detail,
            trace: self.handle.snapshot(),
        });
        let canon = self.prune.as_mut().map(|kit| {
            let key = kit
                .events
                .with(|log| kit.canon.build(log, &mut kit.scratch));
            (key, crate::prune::env_scope(app, env_seed))
        });
        FuzzExec {
            finding,
            dispatched,
            schedule,
            canon,
        }
    }
}

/// Replays `trace` against `app` under `env_seed`; returns whether the run
/// manifested with signature `expected`.
pub(crate) fn replays_to(
    app: &str,
    env_seed: u64,
    trace: &DecisionTrace,
    expected: &BugSignature,
) -> bool {
    let case = match resolve_case(app) {
        Some(c) => c,
        None => return false,
    };
    let mode = Mode::Replay(trace.clone(), ReplayStatusHandle::fresh());
    let out = case.run(&RunCfg::new(mode, env_seed), Variant::Buggy);
    out.manifested && &BugSignature::new(app, &out.detail, &out.report.schedule) == expected
}

/// Replays a corpus entry and checks it still manifests its recorded bug.
///
/// This is the regression path: a corpus saved by one campaign can be
/// verified by any later build.
///
/// # Errors
///
/// Describes the mismatch (no manifestation, or a different signature).
pub fn verify_entry(entry: &CorpusEntry) -> Result<(), String> {
    let expected = entry.signature();
    if replays_to(&entry.app, entry.env_seed, &entry.trace, &expected) {
        Ok(())
    } else {
        Err(format!(
            "corpus entry {} did not re-manifest {expected}",
            entry.file_name()
        ))
    }
}

fn worker_loop(
    queue: Arc<SeedQueue>,
    me: usize,
    stop: Arc<AtomicBool>,
    tx: mpsc::Sender<Msg>,
    telemetry: WorkerTelemetry,
    prune: bool,
) {
    let mut ctx = RunContext::new();
    if prune {
        ctx.enable_prune();
    }
    // In instrumented builds above `off`, every fuzz run on this worker is
    // profiled through a thread-local handle (`Rc`-based, so it is created
    // here, not shipped across the spawn) and flushed into the shard.
    #[cfg(feature = "obs")]
    if let Some(obs) = telemetry.obs() {
        ctx.set_obs(obs.clone());
    }
    loop {
        let Some(Job {
            app,
            preset,
            env_seed,
            directed,
            want_schedule,
        }) = queue.pop(me)
        else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
            continue;
        };
        let exec = match directed {
            Some(spec) => ctx.fuzz_directed(&app, spec, env_seed),
            None => ctx.fuzz_once_sampled(&app, preset, env_seed, want_schedule),
        };
        telemetry.record_exec(exec.dispatched, exec.finding.is_some());
        if tx
            .send(Msg::FuzzDone {
                app,
                preset,
                finding: exec.finding,
                schedule: exec.schedule,
                canon: exec.canon,
            })
            .is_err()
        {
            return;
        }
    }
}

/// The shrinker thread: runs repro jobs in arrival order until the
/// controller drops the job channel at drain.
fn shrink_loop(
    jobs: mpsc::Receiver<ReproJob>,
    tx: mpsc::Sender<Msg>,
    do_shrink: bool,
    replay_checks: u32,
) {
    for ReproJob {
        app,
        env_seed,
        trace,
        signature,
    } in jobs
    {
        let started = Instant::now();
        let original_len = trace.decisions.len();
        let (shrunk, shrink_runs) = if do_shrink {
            let result = shrink(&trace, |t| replays_to(&app, env_seed, t, &signature));
            (result.trace, result.runs)
        } else {
            (trace, 0)
        };
        let replays_ok = (0..replay_checks)
            .filter(|_| replays_to(&app, env_seed, &shrunk, &signature))
            .count() as u32;
        let done = Msg::ShrinkDone {
            signature,
            shrunk,
            original_len,
            replays_ok,
            replays: shrink_runs + u64::from(replay_checks),
            busy: started.elapsed(),
        };
        if tx.send(done).is_err() {
            return;
        }
    }
}

/// Derives the i-th environment seed of a campaign (splitmix64 step).
pub(crate) fn derive_seed(base: u64, i: u64) -> u64 {
    let mut z = base
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds an arm into the campaign base seed so each arm probes its own
/// deterministic seed sequence. Worker completion order then only decides
/// *how many* seeds of each arm's sequence get probed, not which ones —
/// same-seed campaigns reproduce the same findings.
fn arm_base(base: u64, arm: &Arm) -> u64 {
    arm_seed(base, &arm.app, arm.preset)
}

/// The (app, preset)-folded base seed, shared with the throughput bench so
/// its seed stream matches a campaign's.
pub(crate) fn arm_seed(base: u64, app: &str, preset: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in app.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h ^ ((preset as u64) << 56)
}

/// Runs a campaign, invoking `on_event` for live progress.
///
/// # Errors
///
/// Fails on an invalid configuration or a corpus I/O error.
pub fn run_with_progress(
    cfg: &CampaignConfig,
    mut on_event: impl FnMut(&Event),
) -> Result<CampaignReport, String> {
    cfg.validate()?;
    let corpus = match &cfg.corpus_dir {
        Some(dir) => Some(Corpus::open(dir).map_err(|e| format!("corpus: {e}"))?),
        None => None,
    };

    // When the directed arm is on, analyze one recorded vanilla-posture
    // run per app up front (controller-side; two runs per app) and keep
    // the predicted flips. Apps with no predictions get no directed arm.
    let specs: std::collections::HashMap<String, (u64, Vec<DirectedSpec>)> = if cfg.directed {
        cfg.apps
            .iter()
            .map(|app| {
                let analysis_seed = derive_seed(arm_seed(cfg.base_seed, app, DIRECTED_PRESET), 0);
                (
                    app.clone(),
                    (analysis_seed, directed_specs(app, analysis_seed)),
                )
            })
            .collect()
    } else {
        Default::default()
    };
    let arms: Vec<Arm> = cfg
        .apps
        .iter()
        .flat_map(|app| {
            let directed = specs.get(app).is_some_and(|(_, s)| !s.is_empty());
            cfg.presets
                .iter()
                .copied()
                .chain(directed.then_some(DIRECTED_PRESET))
                .map(move |preset| Arm {
                    app: app.clone(),
                    preset,
                })
        })
        .collect();
    if arms.is_empty() {
        // Only reachable in a directed-only campaign (empty preset list)
        // where no targeted app's analysis predicted a race.
        return Err(format!(
            "no arms: directed analysis predicted no races for {}",
            cfg.apps.join(", ")
        ));
    }
    let mut bandit = Bandit::new(arms);
    let mut deduper = Deduper::new();
    // Controller-side pruning: classify every run's canonical key and
    // cross-check class outcomes. Accounting only — the dispatched run
    // stream is identical with pruning on or off (corpora match bytewise).
    let mut pruner = cfg.prune.then(|| Pruner::new(SEEN_CAP));
    // Flight recorder: a bounded ring of structured decisions (arm pulls
    // with the bandit state that made them, prune verdicts, discoveries),
    // persisted atomically at drain. Owned by the controller thread only.
    let mut journal = cfg.journal_out.as_ref().map(|_| Journal::new(JOURNAL_CAP));

    // One registry shard per worker: fuzz executions record into their
    // own shard with relaxed atomic adds; snapshots fold them here.
    let (registry, metric_ids) = metrics::build_registry(cfg.threads);
    let telemetry_on = cfg.metrics_out.is_some();

    let queue = Arc::new(SeedQueue::new(cfg.threads));
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<Msg>();
    let workers: Vec<_> = (0..cfg.threads)
        .map(|me| {
            let queue = queue.clone();
            let stop = stop.clone();
            let tx = tx.clone();
            let shard = registry.shard(me);
            let ids = metric_ids.clone();
            let level = cfg.obs_level;
            let prune = cfg.prune;
            std::thread::Builder::new()
                .name(format!("campaign-{me}"))
                .spawn(move || {
                    let telemetry = WorkerTelemetry::new(shard, ids, level);
                    worker_loop(queue, me, stop, tx, telemetry, prune)
                })
                .expect("spawn worker")
        })
        .collect();
    // One shrinker thread beside the workers: repro jobs never wait
    // behind fuzz runs, and fuzz runs never wait behind repro work.
    let (repro_tx, repro_rx) = mpsc::channel::<ReproJob>();
    let shrinker = {
        let tx = tx.clone();
        let (do_shrink, replay_checks) = (cfg.shrink, cfg.replay_checks);
        std::thread::Builder::new()
            .name("campaign-shrink".into())
            .spawn(move || shrink_loop(repro_rx, tx, do_shrink, replay_checks))
            .expect("spawn shrinker")
    };
    drop(tx);

    let start = Instant::now();
    let mut hit_deadline = false;
    let mut dispatched = 0u64;
    let mut completed = 0u64;
    let mut shrinks_pending = 0u64;
    let mut repro = ReproStats::default();
    let mut next_slot = 0usize;
    // (original trace length, for the final summary) keyed by signature.
    let mut originals: Vec<(BugSignature, usize)> = Vec::new();
    // Telemetry series the controller owns: the discovery curve and the
    // per-arm schedule samples feeding the diversity summary.
    let mut discovery: Vec<Discovery> = Vec::new();
    let mut arm_schedules: std::collections::HashMap<(String, usize), Vec<TypeSchedule>> =
        std::collections::HashMap::new();
    let mut last_metrics = Instant::now();

    // Deep enough that sub-millisecond runs never starve a worker while a
    // completion round-trips through the controller; shallow enough that
    // the bandit still steers most of the budget.
    let max_inflight = (cfg.threads as u64) * 8;
    let mut arm_pulls: std::collections::HashMap<(String, usize), u64> =
        std::collections::HashMap::new();
    let mut dispatch = |bandit: &mut Bandit,
                        dispatched: &mut u64,
                        next_slot: &mut usize,
                        journal: &mut Option<Journal>,
                        exec: u64| {
        // Snapshot *before* the pick so the journal records the posterior
        // state the decision was actually made from.
        let decision_state = journal.is_some().then(|| bandit.snapshot());
        let arm = bandit.pick();
        if let (Some(j), Some(snap)) = (journal.as_mut(), decision_state) {
            let s = snap.iter().find(|s| s.arm == arm);
            j.push(JournalEvent::ArmPull {
                exec,
                arm: format!("{}/{}", arm.app, preset_name(arm.preset)),
                pulls: s.map_or(0, |s| s.pulls) + 1,
                mean_reward: s.map_or(1.0, |s| s.mean_reward),
                ucb: s.and_then(|s| s.ucb_bound),
                successes: None,
                failures: None,
            });
        }
        let pull = arm_pulls.entry((arm.app.clone(), arm.preset)).or_insert(0);
        // The directed arm cycles predicted flips and bumps the retry
        // attempt each full cycle; its env seed is pinned to the analyzed
        // run's, because the replayed prefix only makes sense against the
        // same modelled environment. Ordinary arms scan derived seeds.
        let (env_seed, directed) = if arm.preset == DIRECTED_PRESET {
            let (analysis_seed, app_specs) =
                specs.get(&arm.app).expect("directed arm implies specs");
            let spec = app_specs[(*pull as usize) % app_specs.len()].clone();
            let attempt = *pull / app_specs.len() as u64;
            (*analysis_seed, Some(spec.with_attempt(attempt)))
        } else {
            (derive_seed(arm_base(cfg.base_seed, &arm), *pull), None)
        };
        // Sample the first few runs of each arm for diversity. Decided by
        // pull index, so sampling is as deterministic as the seed stream.
        let want_schedule = telemetry_on && *pull < SCHEDULE_SAMPLES;
        *pull += 1;
        queue.push(
            *next_slot,
            Job {
                app: arm.app,
                preset: arm.preset,
                env_seed,
                directed,
                want_schedule,
            },
        );
        *next_slot += 1;
        *dispatched += 1;
    };

    while dispatched < cfg.budget.min(max_inflight) {
        dispatch(
            &mut bandit,
            &mut dispatched,
            &mut next_slot,
            &mut journal,
            0,
        );
    }

    loop {
        let deadline_passed = cfg.deadline.is_some_and(|d| start.elapsed() >= d);
        if deadline_passed && !hit_deadline {
            hit_deadline = true;
            on_event(&Event::DeadlineHit);
        }
        if completed >= dispatched
            && shrinks_pending == 0
            && (completed >= cfg.budget || hit_deadline)
        {
            break;
        }
        let msg = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) => msg,
            // The shrinker only exits at drain, so one that finished with
            // jobs pending panicked: stop waiting for its results.
            Err(mpsc::RecvTimeoutError::Timeout)
                if shrinks_pending > 0 && shrinker.is_finished() =>
            {
                break
            }
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            Msg::FuzzDone {
                app,
                preset,
                finding,
                schedule,
                canon,
            } => {
                completed += 1;
                let arm = Arm { app, preset };
                if let (Some(pruner), Some((key, scope))) = (pruner.as_mut(), canon) {
                    let verdict =
                        pruner.observe(key, scope, finding.as_ref().map(|f| &f.signature));
                    if let Some(j) = journal.as_mut() {
                        j.push(JournalEvent::Prune {
                            exec: completed,
                            verdict: match verdict {
                                ClassVerdict::Fresh => PruneOutcome::Distinct,
                                ClassVerdict::Redundant => PruneOutcome::Redundant,
                                ClassVerdict::Mismatch => PruneOutcome::Mismatch,
                            },
                        });
                    }
                }
                if let Some(schedule) = schedule {
                    arm_schedules
                        .entry((arm.app.clone(), arm.preset))
                        .or_default()
                        .push(schedule);
                }
                let mut new_bugs = 0;
                if let Some(finding) = finding {
                    let env_seed = finding.env_seed;
                    let signature = finding.signature.clone();
                    let trace = finding.trace.clone();
                    if deduper.insert(finding) {
                        new_bugs = 1;
                        on_event(&Event::NewBug {
                            signature: signature.clone(),
                            env_seed,
                        });
                        if let Some(j) = journal.as_mut() {
                            j.push(JournalEvent::Discovery {
                                exec: completed,
                                app: arm.app.clone(),
                                site: signature.site.clone(),
                            });
                        }
                        discovery.push(Discovery {
                            signature: signature.to_string(),
                            app: arm.app.clone(),
                            site: signature.site.clone(),
                            // `completed` only moves forward and at most
                            // one signature is new per run, so the curve
                            // is monotone by construction.
                            first_exec: completed,
                            first_ms: start.elapsed().as_millis() as u64,
                        });
                        originals.push((signature.clone(), trace.decisions.len()));
                        // The send fails only when the shrinker panicked,
                        // which the drain reports.
                        let _ = repro_tx.send(ReproJob {
                            app: arm.app.clone(),
                            env_seed,
                            trace,
                            signature,
                        });
                        shrinks_pending += 1;
                        repro.max_pending = repro.max_pending.max(shrinks_pending);
                    }
                }
                bandit.reward(&arm, new_bugs);
                on_event(&Event::Run {
                    completed,
                    budget: cfg.budget,
                });
                if !hit_deadline && dispatched < cfg.budget {
                    dispatch(
                        &mut bandit,
                        &mut dispatched,
                        &mut next_slot,
                        &mut journal,
                        completed,
                    );
                }
            }
            Msg::ShrinkDone {
                signature,
                shrunk,
                original_len,
                replays_ok,
                replays,
                busy,
            } => {
                shrinks_pending -= 1;
                repro.jobs += 1;
                repro.replays += replays;
                repro.busy += busy;
                on_event(&Event::Shrunk {
                    signature: signature.clone(),
                    from: original_len,
                    to: shrunk.decisions.len(),
                    replays_ok,
                });
                deduper.attach_shrunk(&signature, shrunk, replays_ok);
                // Persist the repro the moment it is ready instead of only
                // at drain: if this process dies mid-campaign (a worker
                // shard reaped by the orchestrator), the corpus on disk is
                // a valid partial result. The drain-time pass below
                // re-saves every record with final hit counts.
                if let Some(corpus) = &corpus {
                    if let Some(record) = deduper.record_for(&signature) {
                        corpus
                            .save(&record_to_entry(record))
                            .map_err(|e| format!("corpus: {e}"))?;
                    }
                }
            }
        }
        if let Some(path) = &cfg.metrics_out {
            if last_metrics.elapsed() >= METRICS_INTERVAL {
                last_metrics = Instant::now();
                write_metrics(
                    path,
                    cfg,
                    start,
                    false,
                    &bandit,
                    &arm_schedules,
                    &discovery,
                    &registry,
                    deduper.records().len() as u64,
                    pruner.as_ref(),
                    repro,
                )?;
            }
        }
    }

    stop.store(true, Ordering::Release);
    drop(repro_tx);
    for w in workers {
        let _ = w.join();
    }
    shrinker
        .join()
        .map_err(|_| "campaign: the shrinker thread panicked".to_string())?;

    // Workers are quiescent: the final snapshot is exact, not sampled.
    if let Some(path) = &cfg.metrics_out {
        write_metrics(
            path,
            cfg,
            start,
            true,
            &bandit,
            &arm_schedules,
            &discovery,
            &registry,
            deduper.records().len() as u64,
            pruner.as_ref(),
            repro,
        )?;
    }
    if let (Some(path), Some(j)) = (&cfg.journal_out, journal.as_ref()) {
        j.write(path)
            .map_err(|e| format!("journal: cannot write {}: {e}", path.display()))?;
    }
    #[cfg(feature = "obs")]
    if let Some(path) = &cfg.trace_out {
        write_trace(path, cfg)?;
    }

    if let Some(corpus) = &corpus {
        for record in deduper.records() {
            let entry = record_to_entry(record);
            corpus.save(&entry).map_err(|e| format!("corpus: {e}"))?;
        }
    }

    let bugs = deduper
        .records()
        .into_iter()
        .map(|record| {
            let original_len = originals
                .iter()
                .find(|(sig, _)| sig == &record.first.signature)
                .map_or(record.first.trace.decisions.len(), |(_, len)| *len);
            BugSummary {
                app: record.first.app.clone(),
                site: record.first.signature.site.clone(),
                hits: record.hits,
                first_seed: record.first.env_seed,
                original_len,
                shrunk_len: record
                    .shrunk
                    .as_ref()
                    .map_or(original_len, |t| t.decisions.len()),
                replays_ok: record.replays_ok,
            }
        })
        .collect();
    let arms = bandit
        .summary()
        .into_iter()
        .map(|(arm, pulls, ema)| (arm.app, preset_name(arm.preset), pulls, ema))
        .collect();
    Ok(CampaignReport {
        runs: completed,
        elapsed: start.elapsed(),
        bugs,
        arms,
        hit_deadline,
    })
}

/// Runs a campaign without progress reporting.
///
/// # Errors
///
/// Fails on an invalid configuration or a corpus I/O error.
pub fn run(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    run_with_progress(cfg, |_| {})
}

/// Scrapes the registry and writes one `nodefz-metrics-v1` document.
#[allow(clippy::too_many_arguments)]
fn write_metrics(
    path: &std::path::Path,
    cfg: &CampaignConfig,
    start: Instant,
    finished: bool,
    bandit: &Bandit,
    arm_schedules: &std::collections::HashMap<(String, usize), Vec<TypeSchedule>>,
    discovery: &[Discovery],
    registry: &nodefz_obs::Registry,
    unique_bugs: u64,
    pruner: Option<&Pruner>,
    repro: ReproStats,
) -> Result<(), String> {
    let mut snapshot = metrics::collect(
        start.elapsed(),
        cfg.budget,
        unique_bugs,
        finished,
        &bandit.snapshot(),
        |app, preset| {
            arm_schedules
                .get(&(app.to_string(), preset))
                .cloned()
                .unwrap_or_default()
        },
        discovery,
        &registry.snapshot(),
        pruner.map(Pruner::counters),
        pruner.map(Pruner::health),
    );
    snapshot.repro = Some(repro);
    if finished {
        snapshot.apicov = conform_apicov(cfg, bandit);
    }
    // Atomic (temp file + rename): an orchestrator polls these snapshots
    // from another process while the campaign runs, and must never read a
    // torn document.
    nodefz_obs::write_atomic(path, &snapshot.to_json())
        .map_err(|e| format!("metrics: cannot write {}: {e}", path.display()))
}

/// How many pulls per `CONFORM-API` arm the final apicov accounting
/// replays. Coverage saturates well within 100 programs (the frozen
/// golden batch covers the full enumerated surface), so the cap bounds
/// the controller-side replay without losing information.
const APICOV_REPLAY_CAP: u64 = 500;

/// API-surface coverage of the campaign's `CONFORM-API` pulls, or `None`
/// when no such arm was pulled.
///
/// The conform case regenerates its program purely from the run's
/// environment seed, so replaying the head of each arm's deterministic
/// seed stream (`derive_seed(arm_base(..), pull)` — exactly the sequence
/// the workers consumed) under vanilla scheduling reconstructs the very
/// programs the campaign exercised and folds them into one
/// `nodefz-apicov-v1` snapshot. Runs on the controller at the final
/// metrics write only.
fn conform_apicov(cfg: &CampaignConfig, bandit: &Bandit) -> Option<nodefz_conform::ApiCovSnapshot> {
    use nodefz_conform::{ApiCoverage, OracleCtx};
    let mut cov = ApiCoverage::default();
    let mut pulled = false;
    for arm in bandit.snapshot() {
        if !arm.arm.app.eq_ignore_ascii_case(nodefz_conform::API_ABBR) || arm.pulls == 0 {
            continue;
        }
        pulled = true;
        let base = arm_base(cfg.base_seed, &arm.arm);
        for pull in 0..arm.pulls.min(APICOV_REPLAY_CAP) {
            let seed = derive_seed(base, pull);
            let prog = std::rc::Rc::new(nodefz_conform::generate_api(seed));
            let (report, log) = nodefz_conform::run_logged(&prog, seed, Mode::Vanilla, &None);
            let completed = matches!(report.termination, nodefz_rt::Termination::Quiescent);
            cov.record(
                &prog,
                &log,
                &OracleCtx {
                    demux: false,
                    completed,
                },
            );
        }
    }
    pulled.then(|| cov.snapshot())
}

/// Runs one dedicated instrumented execution after the campaign drains and
/// writes its loop-phase/callback timeline as a chrome://tracing document
/// (loadable in Perfetto). Workers never collect per-event traces — one
/// representative run is cheap and its schedule is deterministic: the
/// first app, the first preset, the arm's first derived seed.
#[cfg(feature = "obs")]
fn write_trace(path: &std::path::Path, cfg: &CampaignConfig) -> Result<(), String> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let app = cfg.apps.first().expect("validated: at least one app");
    let sink = Rc::new(RefCell::new(nodefz_obs::ChromeTrace::new()));
    let mut ctx = RunContext::new();
    ctx.set_obs(nodefz_rt::ObsHandle::with_sink(sink.clone()));
    let env_seed = derive_seed(arm_seed(cfg.base_seed, app, 0), 0);
    ctx.fuzz_once(app, 0, env_seed);
    let json = sink.borrow().to_json();
    std::fs::write(path, json).map_err(|e| format!("trace: cannot write {}: {e}", path.display()))
}

pub(crate) fn record_to_entry(record: &BugRecord) -> CorpusEntry {
    CorpusEntry {
        app: record.first.app.clone(),
        env_seed: record.first.env_seed,
        site: record.first.signature.site.clone(),
        kinds: record.first.signature.kinds,
        hits: record.hits,
        replays_ok: record.replays_ok,
        trace: record
            .shrunk
            .clone()
            .unwrap_or_else(|| record.first.trace.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(1, i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(derive_seed(1, 5), derive_seed(1, 5));
        assert_ne!(derive_seed(1, 5), derive_seed(2, 5));
    }

    #[test]
    fn seed_queue_pops_own_work_first_then_steals() {
        let q = SeedQueue::new(2);
        for i in 0..4 {
            q.push(
                0,
                Job {
                    app: "KUE".into(),
                    preset: 0,
                    env_seed: i,
                    directed: None,
                    want_schedule: false,
                },
            );
        }
        // Worker 1 has nothing: it steals from worker 0.
        let stolen = q.pop(1).expect("steals from the loaded peer");
        assert_eq!(stolen.env_seed, 2, "steals the back half");
        // Worker 0 still pops its own front.
        assert_eq!(q.pop(0).expect("own work remains").env_seed, 0);
    }

    #[test]
    fn empty_queues_pop_none() {
        let q = SeedQueue::new(3);
        assert!(q.pop(0).is_none());
        assert!(q.pop(2).is_none());
    }
}
