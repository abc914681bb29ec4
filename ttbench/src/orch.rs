//! `orchestrated`: `orchestrate()` over the 52-arm fig6 space.
//!
//! Each call runs 2 shards × 3 rounds with the default 40-run slices,
//! `worker_bin` set to the release `campaign` binary and a fresh workdir.
//! A run makes [`CALLS`] calls, call `c` with a base seed derived from
//! (`--seed`, `c`); then it repeats them, in order, while the run's time
//! lasts. Repeats only add timings: a repeated call must find what its
//! first call found. This is the only workload that spawns and reaps
//! processes and folds shard corpora.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use nodefz_campaign::{arm_space, arms_from_json, verify_entry, Corpus};
use nodefz_orchestrate::worker::{self, Handle};
use nodefz_orchestrate::{
    orchestrate, work_seed, MergedCorpus, OrchConfig, OrchReport, Outcome as WorkerOutcome,
    Scheduler, SchedulerKind, WorkItem,
};

use crate::common::{
    fig6_apps, fresh_dir, mix, peak_rss_mb, secs, Outcome, RunArgs, SETUP_REPEATS,
};
use crate::layers::REPLAY_CHECKS;
use crate::stats::{fastest, median, percentile, time_to_next_hit};

/// Distinct calls (base seeds) of the untraced run: 21–25 s on a 2-vCPU
/// host.
const CALLS: u64 = 16;
/// Distinct calls of the traced run's untraced reference.
const TRACED_CALLS: u64 = 6;
const SHARDS: usize = 2;
const ROUNDS: u32 = 3;
const SLICE_BUDGET: u64 = 40;
const WORKER_DEADLINE: Duration = Duration::from_secs(60);
/// The orchestrator's idle poll interval, mirrored by the traced loop.
const POLL_SLEEP: Duration = Duration::from_millis(15);

fn config(args: &RunArgs, bin: &Path, call: u64, workdir: PathBuf) -> OrchConfig {
    OrchConfig {
        apps: fig6_apps(),
        shards: SHARDS,
        rounds: ROUNDS,
        slices_per_round: None,
        slice_budget: SLICE_BUDGET,
        base_seed: mix(args.seed, 2, call),
        scheduler: SchedulerKind::Thompson,
        workdir,
        merged_corpus: None,
        orch_out: None,
        worker_deadline: WORKER_DEADLINE,
        worker_bin: bin.to_path_buf(),
        induce_crash: None,
        replay_checks: REPLAY_CHECKS,
        prune: false,
    }
}

/// Resolves the worker binary and proves it runs: it must list exactly
/// the arm space this process enumerates. Fails fast, so a missing build
/// never turns into 156 spawn failures.
fn resolve_worker(bin: Option<&Path>) -> Result<PathBuf, String> {
    let bin = bin.ok_or("orchestrated needs --worker-bin (the release campaign binary)")?;
    if !bin.is_file() {
        return Err(format!("worker binary {} does not exist", bin.display()));
    }
    let out = Command::new(bin)
        .args(["--list", "--json"])
        .output()
        .map_err(|e| format!("worker binary {}: {e}", bin.display()))?;
    let listed = arms_from_json(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("worker binary {} --list --json: {e}", bin.display()))?;
    let labels = |arms: &[nodefz_campaign::ArmSpec]| -> Vec<String> {
        arms.iter().map(|a| a.label()).collect()
    };
    if !out.status.success() || labels(&listed) != labels(&arm_space(&fig6_apps())) {
        return Err(format!(
            "worker binary {} does not list the fig6 arm space",
            bin.display()
        ));
    }
    Ok(bin.to_path_buf())
}

/// A call's set-up: its fresh workdir, then the worker binary resolved
/// and run and the arm space, [`SETUP_REPEATS`] times. Returns the
/// fastest of those. Making the workdir is not timed: how long that takes
/// depends on the file system's state (earlier runs' deletions still in
/// flight), not on the program.
fn set_up(args: &RunArgs, workdir: &Path) -> Result<f64, String> {
    fresh_dir(workdir)?;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        resolve_worker(args.worker_bin.as_deref())?;
        if arm_space(&fig6_apps()).len() != 52 {
            return Err("the fig6 arm space is not 52 arms".into());
        }
        times.push(secs(t));
    }
    Ok(fastest(&times))
}

struct Call {
    /// Which of the run's distinct base seeds the call used.
    seed_index: u64,
    setup_s: f64,
    wall_s: f64,
    report: OrchReport,
}

/// The run's `n`th call, on its `seed_index`th base seed.
fn call(args: &RunArgs, bin: &Path, n: u64, seed_index: u64) -> Result<Call, String> {
    let workdir = args.scratch.join(format!("orch-{n}"));
    let setup_s = set_up(args, &workdir)?;
    let cfg = config(args, bin, seed_index, workdir);
    let t = Instant::now();
    let report = orchestrate(&cfg, |_| {})?;
    Ok(Call {
        seed_index,
        setup_s,
        wall_s: secs(t),
        report,
    })
}

/// `distinct` calls, then repeats of them in order until `seconds`
/// pass, each call with its own set-up and workdir.
fn calls(args: &RunArgs, distinct: u64, seconds: f64) -> Result<(PathBuf, Vec<Call>), String> {
    fresh_dir(&args.scratch)?;
    let bin = resolve_worker(args.worker_bin.as_deref())?;
    let start = Instant::now();
    let mut done: Vec<Call> = Vec::new();
    while (done.len() as u64) < distinct || secs(start) < seconds {
        let n = done.len() as u64;
        done.push(call(args, &bin, n, n % distinct)?);
    }
    Ok((bin, done))
}

/// The first call of each distinct seed.
fn firsts(calls: &[Call]) -> impl Iterator<Item = &Call> {
    calls
        .iter()
        .enumerate()
        .filter(|(i, c)| c.seed_index == *i as u64)
        .map(|(_, c)| c)
}

/// Checks that every repeated call found what its seed's first call
/// found: the same bugs, after the same runs, with the same outcomes.
fn check_repeats(calls: &[Call], out: &mut Outcome) {
    fn key(c: &Call) -> (usize, Option<u64>, Vec<&str>) {
        let outcomes = c.report.work.iter().map(|w| w.outcome.as_str()).collect();
        (
            c.report.unique_bugs(),
            c.report.execs_to_full_discovery(),
            outcomes,
        )
    }
    let first: Vec<&Call> = firsts(calls).collect();
    let mismatched = calls
        .iter()
        .filter(|c| key(c) != key(first[c.seed_index as usize]))
        .count();
    out.check(
        mismatched == 0,
        format!(
            "{mismatched} of {} repeated call(s) disagree with their seed's first call",
            calls.len() - first.len()
        ),
    );
}

/// Time to the next merged discovery from every exec of the call, each
/// exec charged the call's mean wall time per run (ms). Children time
/// their own runs; the orchestrator sees only slice totals.
fn ttb_ms(c: &Call) -> Vec<f64> {
    let runs = c.report.total_runs as usize;
    let per_run_ms = c.wall_s * 1e3 / runs.max(1) as f64;
    let mut steps = vec![(per_run_ms, false); runs];
    for d in &c.report.discovery {
        if let Some(step) = (d.exec as usize)
            .checked_sub(1)
            .and_then(|i| steps.get_mut(i))
        {
            step.1 = true;
        }
    }
    let mut out = Vec::new();
    time_to_next_hit(&steps, false, &mut out);
    out
}

/// Verifies every merged corpus entry; returns (verified, failed). `what`
/// prefixes the check lines.
fn verify_merged(calls: &[&Call], what: &str, out: &mut Outcome) -> Result<(u64, u64), String> {
    let (mut verified, mut failed, mut short) = (0, 0, 0);
    for c in calls {
        let dir = &c.report.merged_dir;
        let entries = Corpus::open(dir)
            .and_then(|corpus| corpus.load_all())
            .map_err(|e| format!("merged corpus {}: {e}", dir.display()))?;
        short += usize::from(entries.len() != c.report.unique_bugs());
        for entry in &entries {
            verified += 1;
            failed += u64::from(verify_entry(entry).is_err());
        }
    }
    out.check(
        short == 0,
        format!("{short} {what}merged corpora without one entry per bug"),
    );
    out.check(
        failed == 0,
        format!("{failed} of {verified} {what}merged entries fail verify_entry"),
    );
    Ok((verified, failed))
}

/// Work items and verifications attempted, and those that failed: a work
/// item fails when its outcome is not `ok`.
fn account(calls: &[&Call], verified: u64, verify_failed: u64, out: &mut Outcome) {
    for c in calls {
        out.attempted += c.report.work.len() as u64;
        out.failed += c.report.work.iter().filter(|w| w.outcome != "ok").count() as u64;
    }
    out.attempted += verified;
    out.failed += verify_failed;
}

/// Verifies every call's merged corpus, and counts the work items and
/// verifications of each seed's first call: the repeats are checked to
/// match it, and how many there are depends on the clock.
fn check_and_account(calls: &[Call], out: &mut Outcome) -> Result<(), String> {
    let first: Vec<&Call> = firsts(calls).collect();
    let repeats: Vec<&Call> = calls[first.len()..].iter().collect();
    let (verified, verify_failed) = verify_merged(&first, "", out)?;
    verify_merged(&repeats, "repeated ", out)?;
    account(&first, verified, verify_failed, out);
    Ok(())
}

fn not_ok(calls: &[Call]) -> String {
    let mut seen: Vec<String> = calls
        .iter()
        .flat_map(|c| c.report.work.iter())
        .filter(|w| w.outcome != "ok")
        .map(|w| format!("{} {}", w.arm, w.outcome))
        .collect();
    seen.sort();
    seen.dedup();
    seen.join(", ")
}

fn med(calls: &[Call], f: impl Fn(&Call) -> f64) -> f64 {
    median(&calls.iter().map(f).collect::<Vec<_>>())
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let (_, calls) = calls(args, CALLS, args.seconds)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let wall: f64 = calls.iter().map(|c| c.wall_s).sum();
    let runs: u64 = calls.iter().map(|c| c.report.total_runs).sum();
    let pct = |q: f64, what: &str| -> Result<f64, String> {
        let per_call: Option<Vec<f64>> = calls.iter().map(|c| percentile(&ttb_ms(c), q)).collect();
        per_call
            .map(|v| median(&v))
            .ok_or_else(|| format!("{what}: too few samples"))
    };
    out.put(
        "setup_s",
        fastest(&calls.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
        "s",
    );
    out.put("execs_per_s", runs as f64 / wall, "1/s");
    out.put("campaign_s", med(&calls, |c| c.wall_s), "s");
    out.put("ttb_ms.p50", pct(0.5, "ttb_ms.p50")?, "ms");
    out.put("ttb_ms.p99", pct(0.99, "ttb_ms.p99")?, "ms");
    // Discovery depends on the seed only: one figure per distinct seed.
    let distinct: Vec<&Call> = firsts(&calls).collect();
    let per_seed =
        |f: &dyn Fn(&Call) -> f64| median(&distinct.iter().map(|c| f(c)).collect::<Vec<_>>());
    out.put(
        "runs_to_all",
        per_seed(&|c| c.report.execs_to_full_discovery().unwrap_or(0) as f64),
        "count",
    );
    out.put(
        "bugs_found",
        per_seed(&|c| c.report.unique_bugs() as f64),
        "count",
    );
    check_repeats(&calls, &mut out);
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    check_and_account(&calls, &mut out)?;
    out.notes.push(format!(
        "{} call(s), {} work items; not ok: {}",
        calls.len(),
        calls.iter().map(|c| c.report.work.len()).sum::<usize>(),
        not_ok(&calls)
    ));
    Ok(out)
}

/// Per-layer spans of one replicated orchestration.
#[derive(Default)]
struct Spans {
    spawn_reap_ms: Vec<f64>,
    child_ms: f64,
    fold_ms: Vec<f64>,
    write_ms: f64,
    quarantined: u64,
    unique: usize,
    outcomes: Vec<String>,
}

/// The child's own elapsed time, from its final metrics snapshot.
fn child_elapsed_ms(item: &WorkItem) -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string(item.metrics_path()) else {
        return (0, 0);
    };
    let Ok(doc) = nodefz_obs::JsonValue::parse(&text) else {
        return (0, 0);
    };
    let get = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    (get("elapsed_ms"), get("runs"))
}

/// Re-drives the orchestrator's round loop through `worker::spawn`,
/// `Handle::poll`, `MergedCorpus::fold_shard` and `write_to`, timing
/// each; same arms, seeds and processing order as `orchestrate()`.
fn replicate(cfg: &OrchConfig) -> Result<Spans, String> {
    let arms = arm_space(&cfg.apps);
    let slices = arms.len();
    let mut sched = Scheduler::new(cfg.scheduler, arms, cfg.base_seed);
    let mut merged = MergedCorpus::new();
    let mut spans = Spans::default();
    let mut next_index = 0;
    for round in 0..cfg.rounds {
        let picks: Vec<usize> = if round == 0 {
            let all = sched.active();
            all.iter().for_each(|&i| sched.pull(i));
            all
        } else {
            (0..slices).filter_map(|_| sched.pick()).collect()
        };
        if picks.is_empty() {
            break;
        }
        let items: VecDeque<WorkItem> = picks
            .into_iter()
            .map(|arm| {
                let state = &sched.arms()[arm];
                let label = state.spec.label();
                let index = next_index;
                next_index += 1;
                WorkItem {
                    index,
                    round,
                    arm,
                    seed: work_seed(cfg.base_seed, &label, state.pulls - 1),
                    budget: cfg.slice_budget,
                    dir: cfg.workdir.join(format!(
                        "r{round}-i{index}-{}",
                        label.replace('/', "-").to_lowercase()
                    )),
                    sabotage: false,
                }
            })
            .collect();
        let mut done = run_items(cfg, sched.arms(), items, &mut spans)?;
        done.sort_by_key(|(item, _)| item.index);
        for (item, outcome) in done {
            let t = Instant::now();
            let (new, _) = merged
                .fold_shard(&item.corpus_dir())
                .map_err(|e| format!("fold {}: {e}", item.dir.display()))?;
            spans.fold_ms.push(secs(t) * 1e3);
            let (elapsed_ms, runs) = child_elapsed_ms(&item);
            spans.child_ms += elapsed_ms as f64;
            sched.reward(item.arm, new.len() as u64, runs);
            if !outcome.is_ok() {
                sched.quarantine(item.arm, &outcome.label());
                spans.quarantined += 1;
            }
            spans.outcomes.push(outcome.label());
        }
        sched.end_round();
    }
    let t = Instant::now();
    merged
        .write_to(&cfg.merged_corpus_dir())
        .map_err(|e| format!("merged corpus: {e}"))?;
    spans.write_ms = secs(t) * 1e3;
    spans.unique = merged.unique_bugs();
    Ok(spans)
}

/// Runs one round's items with at most `shards` live workers, timing
/// each from `worker::spawn` until `Handle::poll` reaps it.
fn run_items(
    cfg: &OrchConfig,
    arms: &[nodefz_orchestrate::ArmState],
    mut pending: VecDeque<WorkItem>,
    spans: &mut Spans,
) -> Result<Vec<(WorkItem, WorkerOutcome)>, String> {
    let mut running: Vec<(Handle, Instant)> = Vec::new();
    let mut done = Vec::new();
    while !pending.is_empty() || !running.is_empty() {
        while running.len() < cfg.shards {
            let Some(item) = pending.pop_front() else {
                break;
            };
            let t = Instant::now();
            let spec = &arms[item.arm].spec;
            let handle = worker::spawn(&cfg.worker_bin, spec, &item, cfg.replay_checks, cfg.prune)?;
            running.push((handle, t));
        }
        let mut progressed = false;
        let mut i = 0;
        while i < running.len() {
            if let Some(outcome) = running[i].0.poll(cfg.worker_deadline) {
                let (handle, t) = running.swap_remove(i);
                spans.spawn_reap_ms.push(secs(t) * 1e3);
                done.push((handle.item, outcome));
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed && !running.is_empty() {
            std::thread::sleep(POLL_SLEEP);
        }
    }
    Ok(done)
}

/// The traced run: untraced reference calls for half the time, then the
/// replicated loop once on each of their [`TRACED_CALLS`] base seeds.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (bin, reference) = calls(args, TRACED_CALLS, args.seconds / 2.0)?;
    let mut traced: Vec<(f64, Spans)> = Vec::new();
    for (n, first) in firsts(&reference).enumerate() {
        let workdir = args.scratch.join(format!("traced-{n}"));
        fresh_dir(&workdir)?;
        let cfg = config(args, &bin, first.seed_index, workdir);
        let t = Instant::now();
        let spans = replicate(&cfg)?;
        traced.push((secs(t), spans));
    }
    let mut mismatched = 0;
    for ((_, spans), c) in traced.iter().zip(&reference) {
        let outcomes: Vec<String> = c.report.work.iter().map(|w| w.outcome.clone()).collect();
        mismatched +=
            usize::from(spans.unique != c.report.unique_bugs() || spans.outcomes != outcomes);
    }
    out.check(
        mismatched == 0,
        format!("{mismatched} replicated loop(s) disagree with orchestrate() on the same seed"),
    );

    let n = traced.len() as f64;
    let all = |f: fn(&Spans) -> &Vec<f64>| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|(_, s)| f(s).iter().copied())
            .collect()
    };
    let spawn_reap = all(|s| &s.spawn_reap_ms);
    let folds = all(|s| &s.fold_ms);
    let child_ms: f64 = traced.iter().map(|(_, s)| s.child_ms).sum();
    out.put("orchestrate.spawn_reap_ms", mean(&spawn_reap), "ms");
    out.put(
        "orchestrate.child_busy_share",
        child_ms / spawn_reap.iter().sum::<f64>().max(f64::EPSILON),
        "ratio",
    );
    out.put("orchestrate.fold_ms", mean(&folds), "ms");
    out.put(
        "orchestrate.write_ms",
        traced.iter().map(|(_, s)| s.write_ms).sum::<f64>() / n,
        "ms",
    );
    out.put(
        "orchestrate.quarantined",
        traced
            .iter()
            .map(|(_, s)| s.quarantined as f64)
            .sum::<f64>()
            / n,
        "count",
    );
    let traced_wall: f64 = traced.iter().map(|(w, _)| w).sum();
    let reference_wall: f64 = reference.iter().take(traced.len()).map(|c| c.wall_s).sum();
    out.put(
        "tracing_overhead",
        traced_wall / reference_wall - 1.0,
        "ratio",
    );

    check_and_account(&reference, &mut out)?;
    for (_, s) in &traced {
        out.attempted += s.outcomes.len() as u64;
        out.failed += s.outcomes.iter().filter(|o| *o != "ok").count() as u64;
    }
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    out.notes.push(format!("not ok: {}", not_ok(&reference)));
    Ok(out)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}
