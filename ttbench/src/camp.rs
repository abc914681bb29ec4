//! `campaign`: the in-process engine, `run_with_progress`.
//!
//! [`ROUNDS`] rounds of [`CAMPAIGNS_PER_ROUND`] campaigns over the fig6
//! apps, each with one worker thread (plus the controller thread), shrink
//! on, [`REPLAY_CHECKS`] acceptance replays, pruning on, a [`BUDGET`]-run
//! budget and a fresh corpus directory. Round `r` uses base seeds derived
//! from (`--seed`, `r`), so `--seed` alone fixes the seed set. Every seed
//! then runs again in further sweeps, at least [`SWEEPS`] in all and more
//! while the run's time lasts. With one worker a seed's runs-to-discovery
//! repeat exactly, so only host speed differs between its runs: each
//! window of [`WINDOW`] runs is charged its fastest time over the sweeps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nodefz_campaign::{run_with_progress, verify_entry, CampaignConfig, Corpus, Event, PRESETS};

use crate::common::{
    fig6_apps, fig6_arms, fresh_dir, mix, peak_rss_mb, secs, Outcome, RunArgs, SETUP_REPEATS,
};
use crate::layers::{campaign_layer, CampaignLayer, RunProbe, REPLAY_CHECKS};
use crate::stats::{fastest, median, pct};

/// Fuzz runs per campaign. About one campaign in three stops before its
/// last signature manifests, so `bugs_found` tracks fuzzing power, and a
/// run holds enough seeds for a steady runs-to-discovery mean.
pub const BUDGET: u64 = 500;
/// Runs per timed window. The worker completes runs while the controller
/// waits to be woken, so run completions reach the controller in bursts
/// and single intervals are mostly a few µs or a whole wake-up; a window
/// of 50 runs (a few ms) holds many bursts. Folding windows rather than
/// single intervals to their fastest keeps the fold from picking each
/// interval's luckiest burst: at one run per window the folded campaign
/// read 7% faster than at 50, and 2% faster again with four more sweeps;
/// at 50 the two differ by 0.2%.
const WINDOW: usize = 50;
/// Campaigns (distinct base seeds) per round.
pub const CAMPAIGNS_PER_ROUND: u64 = 16;
/// Rounds of the untraced run: 96 seeds, whose first [`SWEEPS`] sweeps
/// took 18–33 s on a 2-vCPU host, with the host's speed.
const ROUNDS: u64 = 6;
/// Rounds of the traced run's untraced reference.
const TRACED_ROUNDS: u64 = 2;
/// Times every seed runs at least; the fastest run is kept.
const SWEEPS: u64 = 4;
/// Probe runs per arm in the traced run's layer pass.
const PROBE_RUNS_PER_ARM: u64 = 60;
/// Layer probe passes over the same seeds; the fastest is kept.
const PROBE_PASSES: u64 = 3;

/// The configuration every campaign of the workload runs.
fn config(apps: &[String], base_seed: u64, corpus: Option<&Path>, budget: u64) -> CampaignConfig {
    CampaignConfig {
        threads: 1,
        budget,
        apps: apps.to_vec(),
        presets: (0..PRESETS.len()).collect(),
        shrink: true,
        replay_checks: REPLAY_CHECKS,
        corpus_dir: corpus.map(Path::to_path_buf),
        base_seed,
        prune: true,
        ..CampaignConfig::default()
    }
}

/// One finished campaign as seen from its progress events.
pub struct Campaign {
    /// Wall time: the sum of `windows` and `tail_ms`.
    pub wall_s: f64,
    pub runs: u64,
    pub unique: usize,
    /// (`APP/preset`, pulls) per bandit arm, when detail is kept.
    pub arm_pulls: Vec<(String, u64)>,
    pub corpus: PathBuf,
    /// Runs completed when the last new signature manifested.
    pub runs_to_all: u64,
    /// Per completed run: (ms since the previous run completed, or since
    /// the start, found a new bug); emptied for the runs that are not kept.
    pub steps: Vec<(f64, bool)>,
    /// Time of each [`WINDOW`] consecutive runs (the first from the
    /// start), ms.
    pub windows: Vec<f64>,
    /// The last run's completion to the campaign's return (pending
    /// shrinks, drain), ms.
    pub tail_ms: f64,
    /// Per new signature: its run's window and the time from the window's
    /// start to that run's completion, ms.
    pub found: Vec<(usize, f64)>,
    /// Campaign start to each accepted repro (`Event::Shrunk`), ms.
    pub repro_ms: Vec<f64>,
    pub replays_failed: u64,
}

impl Campaign {
    /// Cuts `steps` into [`WINDOW`]-run windows and places each new
    /// signature in its window.
    fn cut_windows(&mut self) {
        for (w, window) in self.steps.chunks(WINDOW).enumerate() {
            let mut at = 0.0;
            for &(ms, new_bug) in window {
                at += ms;
                if new_bug {
                    self.found.push((w, at));
                }
            }
            self.windows.push(at);
        }
    }

    /// Whether `other`, a run of the same seed, found the same bugs after
    /// the same runs.
    fn discovers_like(&self, other: &Campaign) -> bool {
        self.runs_to_all == other.runs_to_all
            && self.unique == other.unique
            && self.steps.len() == other.steps.len()
            && self.steps.iter().zip(&other.steps).all(|(a, b)| a.1 == b.1)
    }

    /// Folds in `again`, a run of the same seed that discovered alike:
    /// every window, the tail, every discovery's offset in its window and
    /// every repro time keep their fastest.
    fn fold_fastest(&mut self, again: &Campaign) {
        for (k, a) in self.windows.iter_mut().zip(&again.windows) {
            *k = k.min(*a);
        }
        self.tail_ms = self.tail_ms.min(again.tail_ms);
        for (k, a) in self.found.iter_mut().zip(&again.found) {
            k.1 = k.1.min(a.1);
        }
        if self.repro_ms.len() == again.repro_ms.len() {
            for (k, a) in self.repro_ms.iter_mut().zip(&again.repro_ms) {
                *k = k.min(*a);
            }
        }
        self.wall_s = (self.windows.iter().sum::<f64>() + self.tail_ms) / 1e3;
    }

    /// Campaign start to each new signature, ms: the windows before the
    /// run that found it, then its offset in its window.
    pub fn found_ms(&self) -> Vec<f64> {
        self.found
            .iter()
            .map(|&(w, offset)| self.windows[..w].iter().sum::<f64>() + offset)
            .collect()
    }
}

/// Runs one campaign, timestamping its progress events.
pub fn one(
    apps: &[String],
    base_seed: u64,
    corpus: PathBuf,
    metrics_out: Option<PathBuf>,
    detail: bool,
) -> Result<Campaign, String> {
    fresh_dir(&corpus)?;
    let mut cfg = config(apps, base_seed, Some(&corpus), BUDGET);
    cfg.metrics_out = metrics_out;
    let mut events: Vec<(Instant, Option<u32>)> = Vec::with_capacity(BUDGET as usize + 64);
    // Run = None marker, NewBug = Some(u32::MAX), Shrunk = Some(replays_ok).
    let start = Instant::now();
    let report = run_with_progress(&cfg, |e| match e {
        Event::Run { .. } => events.push((Instant::now(), None)),
        Event::NewBug { .. } => events.push((Instant::now(), Some(u32::MAX))),
        Event::Shrunk { replays_ok, .. } => events.push((Instant::now(), Some(*replays_ok))),
        Event::DeadlineHit => {}
    })?;
    let wall_s = secs(start);
    let arm_pulls = if detail {
        report
            .arms
            .iter()
            .map(|(app, preset, pulls, _)| (format!("{app}/{preset}"), *pulls))
            .collect()
    } else {
        Vec::new()
    };
    let mut c = Campaign {
        wall_s,
        runs: report.runs,
        unique: report.unique_bugs(),
        arm_pulls,
        corpus,
        runs_to_all: 0,
        steps: Vec::with_capacity(BUDGET as usize),
        windows: Vec::new(),
        tail_ms: 0.0,
        found: Vec::new(),
        repro_ms: Vec::new(),
        replays_failed: 0,
    };
    let (mut prev, mut new_bug) = (start, false);
    for (t, ev) in events {
        match ev {
            None => {
                let ms = t.duration_since(prev).as_secs_f64() * 1e3;
                c.steps.push((ms, new_bug));
                prev = t;
                new_bug = false;
            }
            Some(u32::MAX) => {
                // NewBug precedes the Run event of the run that found it.
                new_bug = true;
                c.runs_to_all = c.steps.len() as u64 + 1;
            }
            Some(ok) => {
                c.repro_ms.push(t.duration_since(start).as_secs_f64() * 1e3);
                c.replays_failed += u64::from(REPLAY_CHECKS.saturating_sub(ok));
            }
        }
    }
    c.tail_ms = (wall_s - prev.duration_since(start).as_secs_f64()) * 1e3;
    c.cut_windows();
    Ok(c)
}

/// Campaigns of a run. Every seed runs at least [`SWEEPS`] times, a sweep
/// apart, and its first run is kept with every window of [`WINDOW`] runs
/// (and the tail after the last) folded to its fastest over the sweeps,
/// as `fig6-fuzz` charges each run its fastest time. Contention from
/// other tenants of a shared host only ever slows a campaign down, and on
/// a 2-vCPU VM it comes and goes within a second, so whole campaigns of
/// 65 ms spread 0.2–0.3 across runs even at their fastest of four.
struct Rounds {
    /// The first run of each seed, in seed order, folded to its fastest.
    kept: Vec<Campaign>,
    /// The other runs of each seed.
    others: Vec<Campaign>,
    /// Seeds whose runs disagree on discovery (must be 0: with one worker
    /// a campaign is deterministic).
    mismatched: usize,
    /// Set-up times: each sweep's warm-up campaigns.
    setups: Vec<f64>,
}

/// A sweep's set-up: a warm-up campaign of one run per fig6 arm, without
/// shrinking or a corpus. Returns its time.
///
/// The fresh corpus directory of each campaign is made in the set-up too,
/// but not timed: how long a directory takes to make depends on the file
/// system's state (it varied 6× between runs on a 2-vCPU VM), not on
/// the program.
fn warm_up(args: &RunArgs, apps: &[String], sweep: u64) -> Result<f64, String> {
    let t = Instant::now();
    let arms = (apps.len() * PRESETS.len()) as u64;
    let cfg = CampaignConfig {
        shrink: false,
        ..config(apps, mix(args.seed, 9, sweep), None, arms)
    };
    run_with_progress(&cfg, |_| {})?;
    Ok(secs(t))
}

/// Runs `n_rounds` rounds of seeds, then the same seeds again in each
/// further sweep, until there were [`SWEEPS`] and `seconds` have passed;
/// `metrics` asks each campaign for a telemetry snapshot, `detail` keeps
/// arm pulls (traced runs only).
fn rounds(
    args: &RunArgs,
    apps: &[String],
    tag: &str,
    n_rounds: u64,
    seconds: f64,
    metrics: bool,
    detail: bool,
) -> Result<Rounds, String> {
    let run_seed = |sweep: u64, round: u64, i: u64| {
        let dir = args.scratch.join(format!("{tag}{sweep}-{round}-c{i}"));
        let metrics_out = metrics.then(|| dir.join("metrics.json"));
        one(
            apps,
            mix(args.seed, round, i),
            dir.join("corpus"),
            metrics_out,
            detail,
        )
    };
    let mut done = Rounds {
        kept: Vec::new(),
        others: Vec::new(),
        mismatched: 0,
        setups: Vec::new(),
    };
    let start = Instant::now();
    let mut sweep = 0;
    // Past the minimum, sweeps go on only while the run's time lasts.
    'sweeps: while sweep < SWEEPS || secs(start) < seconds {
        for _ in 0..SETUP_REPEATS {
            done.setups.push(warm_up(args, apps, sweep)?);
        }
        for round in 0..n_rounds {
            for i in 0..CAMPAIGNS_PER_ROUND {
                if sweep >= SWEEPS && secs(start) >= seconds {
                    break 'sweeps;
                }
                let again = run_seed(sweep, round, i)?;
                if sweep == 0 {
                    done.kept.push(again);
                    continue;
                }
                let kept = &mut done.kept[(round * CAMPAIGNS_PER_ROUND + i) as usize];
                let same = kept.discovers_like(&again);
                done.mismatched += usize::from(!same);
                if same {
                    kept.fold_fastest(&again);
                }
                done.others.push(Campaign {
                    steps: Vec::new(),
                    ..again
                });
            }
        }
        sweep += 1;
    }
    Ok(done)
}

impl Rounds {
    /// Checks discovery repeated and verifies every corpus. Counts the
    /// attempts and failures of one run per seed: the repeats are checked
    /// to discover alike, and how many there are depends on the clock.
    fn check_and_account(&self, out: &mut Outcome) -> Result<(), String> {
        out.check(
            self.mismatched == 0,
            format!(
                "{} repeat(s) of {} seeds found different bugs",
                self.mismatched,
                self.kept.len()
            ),
        );
        let kept: Vec<&Campaign> = self.kept.iter().collect();
        let others: Vec<&Campaign> = self.others.iter().collect();
        let (verified, verify_failed) = verify_all(&kept, "", out)?;
        verify_all(&others, "repeated ", out)?;
        account(&kept, verified, verify_failed, out);
        Ok(())
    }

    /// Time from campaign start to each signature's first manifestation,
    /// each at its fastest over the seed's repeats, pooled over seeds ×
    /// signatures (ms).
    fn ttb_ms(&self) -> Vec<f64> {
        self.kept.iter().flat_map(Campaign::found_ms).collect()
    }
}

/// Replays every corpus entry of every campaign: returns (verified,
/// failed), and checks each corpus holds one entry per found bug. `what`
/// prefixes the check lines.
fn verify_all(
    campaigns: &[&Campaign],
    what: &str,
    out: &mut Outcome,
) -> Result<(u64, u64), String> {
    let (mut verified, mut failed) = (0, 0);
    let mut short = 0;
    for c in campaigns {
        let entries = Corpus::open(&c.corpus)
            .and_then(|corpus| corpus.load_all())
            .map_err(|e| format!("corpus {}: {e}", c.corpus.display()))?;
        short += usize::from(entries.len() != c.unique);
        for entry in &entries {
            verified += 1;
            failed += u64::from(verify_entry(entry).is_err());
        }
    }
    out.check(
        short == 0,
        format!("{short} {what}corpora without one entry per found bug"),
    );
    out.check(
        failed == 0,
        format!("{failed} of {verified} {what}corpus entries fail verify_entry"),
    );
    Ok((verified, failed))
}

/// Attempts and failures of a set of campaigns: every budgeted run, every
/// acceptance replay, every verification.
fn account(campaigns: &[&Campaign], verified: u64, verify_failed: u64, out: &mut Outcome) {
    let budget = campaigns.len() as u64 * BUDGET;
    let runs: u64 = campaigns.iter().map(|c| c.runs).sum();
    let replays: u64 = campaigns
        .iter()
        .map(|c| c.repro_ms.len() as u64 * u64::from(REPLAY_CHECKS))
        .sum();
    let replays_failed: u64 = campaigns.iter().map(|c| c.replays_failed).sum();
    out.attempted += budget + replays + verified;
    out.failed += (budget - runs) + replays_failed + verify_failed;
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let apps = fig6_apps();
    fresh_dir(&args.scratch)?;
    let done = rounds(args, &apps, "r", ROUNDS, args.seconds, false, false)?;
    let campaigns = &done.kept;
    let ttb = done.ttb_ms();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let wall: f64 = campaigns.iter().map(|c| c.wall_s).sum();
    let runs: u64 = campaigns.iter().map(|c| c.runs).sum();
    let n = campaigns.len() as f64;
    let campaign_s = median(&campaigns.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    out.put("setup_s", fastest(&done.setups), "s");
    out.put("execs_per_s", runs as f64 / wall, "1/s");
    out.put("campaign_s", campaign_s, "s");
    out.put("ttb_ms.p50", pct(&ttb, 0.5, "ttb_ms.p50")?, "ms");
    out.put("ttb_ms.p99", pct(&ttb, 0.99, "ttb_ms.p99")?, "ms");
    out.put(
        "runs_to_all",
        campaigns.iter().map(|c| c.runs_to_all as f64).sum::<f64>() / n,
        "count",
    );
    let bugs: usize = campaigns.iter().map(|c| c.unique).sum();
    out.put(
        "bugs_found",
        bugs as f64 * CAMPAIGNS_PER_ROUND as f64 / n,
        "count",
    );
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    done.check_and_account(&mut out)?;
    out.notes.push(format!(
        "{} seeds x {BUDGET} runs, each run at least {SWEEPS} times; {bugs} bugs",
        campaigns.len(),
    ));
    Ok(out)
}

/// Distinct HB classes the campaign's pruner counted, from its final
/// metrics snapshot.
fn pruned_distinct(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc =
        nodefz_obs::JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("pruning")
        .and_then(|p| p.get("distinct"))
        .and_then(|d| d.as_u64())
        .ok_or_else(|| format!("{}: no pruning.distinct", path.display()))
}

/// The traced run: untraced reference rounds for half the time, then
/// their first round twice more, [`SWEEPS`] times each: untraced, and
/// with telemetry snapshots (for the pruner's distinct-class count and
/// the tracing overhead); then the layer probes.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let apps = fig6_apps();
    fresh_dir(&args.scratch)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let reference_rounds = rounds(
        args,
        &apps,
        "r",
        TRACED_ROUNDS,
        args.seconds / 2.0,
        false,
        true,
    )?;
    let reference = &reference_rounds.kept;
    let first_round = &reference[..CAMPAIGNS_PER_ROUND as usize];
    let untraced_rounds = rounds(args, &apps, "u", 1, 0.0, false, false)?;
    let traced_rounds = rounds(args, &apps, "t", 1, 0.0, true, false)?;
    let traced = &traced_rounds.kept;

    let intervals: Vec<f64> = reference
        .iter()
        .flat_map(|c| c.steps.iter().map(|s| s.0 * 1e3))
        .collect();
    let repro: Vec<f64> = reference.iter().flat_map(|c| c.repro_ms.clone()).collect();
    out.put("run_us.p50", pct(&intervals, 0.5, "run_us.p50")?, "us");
    out.put("run_us.p99", pct(&intervals, 0.99, "run_us.p99")?, "us");
    out.put("repro_ms.p50", pct(&repro, 0.5, "repro_ms.p50")?, "ms");
    out.put("repro_ms.p95", pct(&repro, 0.95, "repro_ms.p95")?, "ms");
    let mut distinct = 0;
    for c in traced {
        distinct += pruned_distinct(&c.corpus.with_file_name("metrics.json"))?;
    }
    let traced_wall: f64 = traced.iter().map(|c| c.wall_s).sum();
    let untraced_wall: f64 = untraced_rounds.kept.iter().map(|c| c.wall_s).sum();
    let reference_wall: f64 = first_round.iter().map(|c| c.wall_s).sum();
    out.put("distinct_per_s", distinct as f64 / traced_wall, "1/s");

    // Layer probes: the fuzz-run layers over the campaign's 39 arms, then
    // what the campaign does with each new signature. Like the campaigns,
    // each probe pass runs several times and the fastest is kept.
    let t = Instant::now();
    let arms = fig6_arms();
    let mut best: Option<(RunProbe, CampaignLayer)> = None;
    let mut arm_cost: BTreeMap<String, f64> = BTreeMap::new();
    for pass in 0..PROBE_PASSES {
        let mut probe = RunProbe::new(true);
        let mut costs: BTreeMap<String, f64> = BTreeMap::new();
        for k in 0..PROBE_RUNS_PER_ARM {
            for (a, arm) in arms.iter().enumerate() {
                let before = probe.fuzz_us();
                probe.run(
                    &arm.label,
                    &arm.app,
                    arm.preset,
                    mix(args.seed, 100 + a as u64, k),
                );
                *costs.entry(arm.label.clone()).or_default() += probe.fuzz_us() - before;
            }
        }
        for (label, us) in costs {
            let cost = arm_cost.entry(label).or_insert(f64::INFINITY);
            *cost = cost.min(us / PROBE_RUNS_PER_ARM as f64);
        }
        let dir = args.scratch.join(format!("probe-corpus-{pass}"));
        let layer = campaign_layer(&probe.firsts, &dir)?;
        out.attempted += probe.runs() + layer.replays + layer.verified;
        out.failed += probe.panics + layer.replays_failed + layer.verify_failed;
        if best
            .as_ref()
            .is_none_or(|(p, _)| probe.fuzz_us() < p.fuzz_us())
        {
            best = Some((probe, layer));
        }
    }
    let (probe, layer) = best.expect("at least one probe pass");
    probe.report(&mut out);
    for &(name, value, unit) in &layer.rows {
        out.put(name, value, unit);
    }
    let probe_s = secs(t);

    // Busy time of the reference round's stages, from the probed costs:
    // every run at its arm's fastest fuzz cost plus the HB layer, every
    // bug at the probed shrink + accept + save cost. The rest of the wall
    // time is the controller <-> worker hand-off.
    let hb_us = probe.hb_extra_us_per_run();
    let mut busy_s = 0.0;
    for c in first_round {
        for (label, pulls) in &c.arm_pulls {
            let per_run = arm_cost
                .get(label)
                .copied()
                .unwrap_or_else(|| probe.fuzz_us_per_run());
            busy_s += *pulls as f64 * (per_run + hb_us) / 1e6;
        }
        busy_s += c.unique as f64 * layer.per_repro_ms / 1e3;
    }
    out.put(
        "campaign.handoff_share",
        1.0 - busy_s / reference_wall,
        "ratio",
    );
    // Both rounds: the same seeds, each its fastest of SWEEPS runs.
    out.put(
        "tracing_overhead",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    out.notes.push(format!("layer probes took {probe_s:.3} s"));

    reference_rounds.check_and_account(&mut out)?;
    untraced_rounds.check_and_account(&mut out)?;
    traced_rounds.check_and_account(&mut out)?;
    out.put(
        "fail_share",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(steps: Vec<(f64, bool)>, tail_ms: f64) -> Campaign {
        let mut c = Campaign {
            wall_s: 0.0,
            runs: steps.len() as u64,
            unique: steps.iter().filter(|s| s.1).count(),
            arm_pulls: Vec::new(),
            corpus: PathBuf::new(),
            runs_to_all: steps.iter().rposition(|s| s.1).map_or(0, |i| i as u64 + 1),
            steps,
            windows: Vec::new(),
            tail_ms,
            found: Vec::new(),
            repro_ms: Vec::new(),
            replays_failed: 0,
        };
        c.cut_windows();
        c
    }

    #[test]
    fn fold_keeps_each_window_and_offset_at_its_fastest() {
        // Two windows and a half; bugs in run 10 and in run 70.
        let steps = |slow_first: f64, slow_second: f64| -> Vec<(f64, bool)> {
            (0..WINDOW * 5 / 2)
                .map(|i| {
                    let ms = if i < WINDOW { slow_first } else { slow_second };
                    (ms, i == 10 || i == WINDOW + 20)
                })
                .collect()
        };
        let mut kept = campaign(steps(2.0, 1.0), 5.0);
        let again = campaign(steps(1.0, 3.0), 4.0);
        assert!(kept.discovers_like(&again));
        kept.fold_fastest(&again);
        let w = WINDOW as f64;
        assert_eq!(kept.windows, vec![w, w, w / 2.0]);
        assert_eq!(kept.tail_ms, 4.0);
        assert_eq!(kept.found_ms(), vec![11.0, w + 21.0]);
        assert!((kept.wall_s - (2.5 * w + 4.0) / 1e3).abs() < 1e-12);
    }

    #[test]
    fn different_discoveries_do_not_fold() {
        let kept = campaign(vec![(1.0, false), (1.0, true)], 0.0);
        let other = campaign(vec![(1.0, true), (1.0, false)], 0.0);
        assert!(!kept.discovers_like(&other));
    }
}
