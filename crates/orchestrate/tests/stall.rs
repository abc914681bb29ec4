//! The orchestrator's stall path: a worker that outlives the worker
//! deadline is killed, reported as `stalled`, and its arm quarantined,
//! and the orchestration still returns promptly.
//!
//! Its own test binary: the worker is a freshly written script, and a
//! concurrent spawn from another test thread could inherit the script's
//! write handle and make exec fail with "text file busy".

use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nodefz_orchestrate::{orchestrate, OrchConfig};

#[test]
fn stalled_workers_are_killed_and_their_arms_quarantined() {
    let dir = std::env::temp_dir().join(format!("nodefz-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // `exec` so the killed process is the sleeper itself, not a shell
    // that would leave an orphaned `sleep` behind.
    let worker: PathBuf = dir.join("sleeper.sh");
    std::fs::write(&worker, "#!/bin/sh\nexec sleep 30\n").unwrap();
    std::fs::set_permissions(&worker, std::fs::Permissions::from_mode(0o755)).unwrap();

    let cfg = OrchConfig {
        apps: vec!["KUE".into()],
        // One shard per arm: every slice of the coverage round runs at once.
        shards: 4,
        rounds: 2,
        slice_budget: 10,
        workdir: dir.join("work"),
        worker_deadline: Duration::from_secs(1),
        worker_bin: worker,
        ..OrchConfig::default()
    };
    let start = Instant::now();
    let report = orchestrate(&cfg, |_| {}).expect("stalls quarantine arms, not fail the run");
    let took = start.elapsed();

    assert!(took < Duration::from_secs(10), "took {took:?}");
    assert!(!report.work.is_empty(), "the coverage round ran");
    for work in &report.work {
        assert_eq!(
            work.outcome, "stalled",
            "slice {}: {}",
            work.index, work.arm
        );
        assert_eq!(work.round, 0, "no slice after every arm is quarantined");
    }
    assert_eq!(report.arms.len(), report.work.len(), "one slice per arm");
    for arm in &report.arms {
        assert_eq!(
            arm.quarantined.as_deref(),
            Some("stalled"),
            "{}",
            arm.spec.label()
        );
    }
    assert_eq!(report.merged_entries, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
