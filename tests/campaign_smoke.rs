//! End-to-end campaign smoke test: a small-budget, 2-thread campaign over
//! three planted bugs must find each, dedup to one report per bug, shrink
//! without growing any trace, and persist a corpus whose entries replay
//! deterministically.

use std::time::{Duration, Instant};

use nodefz_campaign::{run, run_with_progress, verify_entry, CampaignConfig, Corpus, Event};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("nodefz-smoke-{tag}-{}", std::process::id()))
}

#[test]
fn small_campaign_finds_dedups_shrinks_and_persists() {
    let corpus_dir = temp_dir("corpus");
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let cfg = CampaignConfig {
        threads: 2,
        budget: 60,
        apps: vec!["KUE".into(), "MKD".into(), "GHO".into()],
        corpus_dir: Some(corpus_dir.clone()),
        base_seed: 3,
        ..CampaignConfig::default()
    };

    let start = Instant::now();
    let report = run(&cfg).expect("campaign runs");
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "smoke campaign exceeded its timeout: {:?}",
        start.elapsed()
    );

    assert_eq!(report.runs, 60, "the whole budget is spent");
    // Each planted bug is found and dedups to exactly one report.
    assert_eq!(report.unique_bugs(), 3, "bugs: {:#?}", report.bugs);
    let mut apps: Vec<&str> = report.bugs.iter().map(|b| b.app.as_str()).collect();
    apps.sort_unstable();
    assert_eq!(apps, ["GHO", "KUE", "MKD"]);
    for bug in &report.bugs {
        assert!(
            bug.shrunk_len <= bug.original_len,
            "{}: shrink grew the trace ({} -> {})",
            bug.app,
            bug.original_len,
            bug.shrunk_len
        );
        assert_eq!(
            bug.replays_ok, cfg.replay_checks,
            "{}: shrunk repro must re-manifest in every acceptance replay",
            bug.app
        );
    }

    // The persisted corpus replays deterministically.
    let corpus = Corpus::open(&corpus_dir).unwrap();
    let entries = corpus.load_all().unwrap();
    assert_eq!(entries.len(), 3);
    for entry in &entries {
        verify_entry(entry).expect("corpus entry re-manifests its bug");
        // Twice: replay must be deterministic, not merely likely.
        verify_entry(entry).expect("corpus entry re-manifests on a second replay");
    }
    std::fs::remove_dir_all(&corpus_dir).unwrap();
}

/// Only in instrumented builds: worker loop-phase profiling lands in the
/// metrics document and `--trace-out` emits a chrome://tracing timeline.
#[test]
#[cfg(feature = "obs")]
fn instrumented_campaign_profiles_phases_and_exports_a_trace() {
    let metrics_path = temp_dir("obs-metrics").with_extension("json");
    let trace_path = temp_dir("obs-trace").with_extension("json");
    let cfg = CampaignConfig {
        threads: 2,
        budget: 20,
        apps: vec!["GHO".into()],
        base_seed: 9,
        shrink: false,
        replay_checks: 1,
        metrics_out: Some(metrics_path.clone()),
        trace_out: Some(trace_path.clone()),
        obs_level: nodefz_obs::ObsLevel::Counters,
        ..CampaignConfig::default()
    };
    run(&cfg).expect("campaign runs");

    let doc = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(
        doc.contains("\"phase\": \"timers\", \"entries\": "),
        "phase rows must be populated: {doc}"
    );
    assert!(
        !doc.contains("\"phase\": \"timers\", \"entries\": 0,"),
        "timer phase must have been profiled: {doc}"
    );
    assert!(
        doc.contains("\"kind\": \"timer\""),
        "per-kind dispatch counts must be present: {doc}"
    );

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"traceEvents\": ["), "{trace}");
    assert!(
        trace.contains("\"ph\": \"X\"") && trace.contains("\"cat\": \"phase\""),
        "complete events with phase spans expected: {trace}"
    );
    std::fs::remove_file(&metrics_path).unwrap();
    std::fs::remove_file(&trace_path).unwrap();
}

#[test]
fn deadline_drains_gracefully() {
    let cfg = CampaignConfig {
        threads: 2,
        budget: 1_000_000,
        apps: vec!["GHO".into()],
        deadline: Some(Duration::from_millis(200)),
        shrink: false,
        replay_checks: 1,
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let report = run(&cfg).expect("campaign runs");
    assert!(report.hit_deadline, "deadline must trip");
    assert!(report.runs < cfg.budget, "budget cannot complete in 200ms");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "drain must be prompt, took {:?}",
        start.elapsed()
    );
}

#[test]
fn metrics_snapshot_is_written_and_telemetry_does_not_perturb_findings() {
    let metrics_path = temp_dir("metrics").with_extension("json");
    let run_once = |metrics_out: Option<std::path::PathBuf>| {
        let cfg = CampaignConfig {
            threads: 2,
            budget: 40,
            apps: vec!["KUE".into(), "GHO".into()],
            base_seed: 5,
            shrink: false,
            replay_checks: 1,
            metrics_out,
            ..CampaignConfig::default()
        };
        let report = run(&cfg).expect("campaign runs");
        let mut sigs: Vec<(String, String)> = report
            .bugs
            .iter()
            .map(|b| (b.app.clone(), b.site.clone()))
            .collect();
        sigs.sort();
        sigs
    };

    let observed = run_once(Some(metrics_path.clone()));
    let bare = run_once(None);
    assert_eq!(observed, bare, "telemetry must not change what is found");
    assert!(!observed.is_empty(), "the planted bugs must be found");

    let doc = std::fs::read_to_string(&metrics_path).expect("snapshot written");
    for needle in [
        "\"schema\": \"nodefz-metrics-v1\"",
        "\"finished\": true",
        "\"runs\": 40",
        "\"arms\": [",
        "\"discovery\": [",
        "\"first_exec\":",
        "\"truncation\": 20000",
        "\"run_dispatched\":",
    ] {
        assert!(doc.contains(needle), "snapshot missing {needle}: {doc}");
    }
    // Every new signature got exactly one repro job by the final snapshot.
    let parsed = nodefz_obs::JsonValue::parse(&doc).expect("snapshot parses");
    let discovered = parsed
        .get("discovery")
        .and_then(|d| d.as_array())
        .map_or(0, |d| d.len() as u64);
    let repro = parsed
        .get("repro")
        .expect("final snapshot has a repro block");
    assert_eq!(
        repro.get("jobs").and_then(|v| v.as_u64()),
        Some(discovered),
        "{doc}"
    );
    assert!(
        repro.get("replays").and_then(|v| v.as_u64()) >= Some(discovered),
        "each job runs at least its acceptance replay: {doc}"
    );
    assert!(repro.get("busy_ms").and_then(|v| v.as_f64()).is_some());
    assert!(repro.get("max_pending").and_then(|v| v.as_u64()) >= Some(1));
    // Loop-phase rows exist only in instrumented builds at above-off
    // levels; this campaign ran at the default level, so either way the
    // array must be present (and the default build keeps it empty).
    assert!(doc.contains("\"phases\": ["));
    std::fs::remove_file(&metrics_path).unwrap();
}

#[test]
fn campaigns_with_the_same_seed_find_the_same_bugs() {
    let run_once = || {
        let cfg = CampaignConfig {
            threads: 2,
            budget: 30,
            apps: vec!["MKD".into(), "GHO".into()],
            base_seed: 7,
            shrink: false,
            replay_checks: 1,
            ..CampaignConfig::default()
        };
        let report = run(&cfg).expect("campaign runs");
        let mut sigs: Vec<(String, String)> = report
            .bugs
            .iter()
            .map(|b| (b.app.clone(), b.site.clone()))
            .collect();
        sigs.sort();
        sigs
    };
    assert_eq!(run_once(), run_once(), "finding set is seed-determined");
}

#[test]
fn conform_arm_runs_clean_in_a_campaign() {
    // The CONFORM arm fuzzes the runtime itself: generated programs
    // judged against the ordering oracle. On a correct runtime a
    // campaign over it must spend its whole budget without a finding —
    // any finding here would be a runtime bug, not an application bug.
    let cfg = CampaignConfig {
        threads: 2,
        budget: 40,
        apps: vec!["CONFORM".into()],
        base_seed: 11,
        replay_checks: 1,
        ..CampaignConfig::default()
    };
    let report = run(&cfg).expect("campaign runs");
    assert_eq!(report.runs, 40, "the whole budget is spent");
    assert_eq!(
        report.unique_bugs(),
        0,
        "the runtime violated its own ordering oracle: {:#?}",
        report.bugs
    );
}

/// What one campaign's progress events show of its fuzz stream.
struct Observed {
    /// Completed-run index of each `NewBug`, with its signature.
    new_bugs: Vec<(u64, String)>,
    /// Signatures in `Shrunk` events, in arrival order.
    shrunk: Vec<String>,
    /// (app, preset, pulls) per bandit arm.
    pulls: Vec<(String, &'static str, u64)>,
    hit_deadline: bool,
}

fn observe(cfg: &CampaignConfig) -> Observed {
    let (mut completed, mut new_bugs, mut shrunk) = (0u64, Vec::new(), Vec::new());
    let report = run_with_progress(cfg, |e| match e {
        Event::Run { completed: c, .. } => completed = *c,
        // A run's `NewBug` precedes its `Run` event.
        Event::NewBug { signature, .. } => new_bugs.push((completed + 1, signature.to_string())),
        Event::Shrunk { signature, .. } => shrunk.push(signature.to_string()),
        Event::DeadlineHit => {}
    })
    .expect("campaign runs");
    Observed {
        new_bugs,
        shrunk,
        pulls: report
            .arms
            .iter()
            .map(|(app, preset, pulls, _)| (app.clone(), *preset, *pulls))
            .collect(),
        hit_deadline: report.hit_deadline,
    }
}

fn one_worker(tag: &str, shrink: bool) -> CampaignConfig {
    let corpus_dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&corpus_dir);
    CampaignConfig {
        threads: 1,
        budget: 400,
        apps: vec!["GHO".into(), "AKA".into(), "KUE".into(), "FPS".into()],
        base_seed: 5,
        shrink,
        replay_checks: 3,
        corpus_dir: Some(corpus_dir),
        ..CampaignConfig::default()
    }
}

/// Sorted (file name, bytes) of every file in a corpus directory.
fn corpus_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn repro_work_does_not_perturb_the_fuzz_stream() {
    // Repro jobs run on the shrinker thread beside the one fuzz worker.
    // The fuzz stream depends only on fuzz completions and their rewards,
    // so shrinking on or off must not move a discovery or an arm pull.
    let with = one_worker("stream-shrink", true);
    let without = one_worker("stream-noshrink", false);
    let a = observe(&with);
    let b = observe(&without);
    assert!(a.new_bugs.len() >= 3, "bugs: {:?}", a.new_bugs);
    assert_eq!(a.new_bugs, b.new_bugs, "discoveries moved");
    assert_eq!(a.pulls, b.pulls, "arm pulls moved");
    for cfg in [with, without] {
        std::fs::remove_dir_all(cfg.corpus_dir.unwrap()).unwrap();
    }
}

#[test]
fn one_worker_campaigns_persist_byte_identical_corpora() {
    let first = one_worker("bytes-a", true);
    let second = one_worker("bytes-b", true);
    observe(&first);
    observe(&second);
    let (dir_a, dir_b) = (first.corpus_dir.unwrap(), second.corpus_dir.unwrap());
    let (a, b) = (corpus_bytes(&dir_a), corpus_bytes(&dir_b));
    assert!(
        a.len() >= 3,
        "corpus: {:?}",
        a.iter().map(|f| &f.0).collect::<Vec<_>>()
    );
    assert!(a == b, "corpora differ between same-seed runs");
    std::fs::remove_dir_all(dir_a).unwrap();
    std::fs::remove_dir_all(dir_b).unwrap();
}

#[test]
fn every_new_bug_is_shrunk_before_return() {
    // A zero deadline fires before the first completion, so every
    // discovery among the in-flight runs queues its repro job after the
    // deadline: the drain must still wait for each one.
    let mut cfg = one_worker("deadline", true);
    cfg.threads = 2;
    cfg.budget = 1_000_000;
    cfg.deadline = Some(Duration::ZERO);
    cfg.corpus_dir = None;
    let seen = observe(&cfg);
    assert!(seen.hit_deadline, "deadline must trip");
    assert!(!seen.new_bugs.is_empty(), "in-flight runs must find a bug");
    let mut found: Vec<&String> = seen.new_bugs.iter().map(|(_, s)| s).collect();
    let mut shrunk: Vec<&String> = seen.shrunk.iter().collect();
    found.sort();
    shrunk.sort();
    assert_eq!(found, shrunk, "one Shrunk per NewBug");

    // And without a deadline, at the end of the budget.
    let seen = observe(&one_worker("drain", true));
    let mut found: Vec<&String> = seen.new_bugs.iter().map(|(_, s)| s).collect();
    let mut shrunk: Vec<&String> = seen.shrunk.iter().collect();
    found.sort();
    shrunk.sort();
    assert_eq!(found, shrunk, "one Shrunk per NewBug");
    std::fs::remove_dir_all(temp_dir("drain")).unwrap();
}
