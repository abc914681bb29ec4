//! Executions-per-second throughput trajectory (perf north star).
//!
//! Runs the campaign worker's hot path ([`RunContext::fuzz_once`] via
//! [`nodefz_campaign::measure`]) back-to-back for every (app, preset) arm
//! of the fig6 bug set, prints the per-arm table, and writes the
//! `nodefz-throughput-v3` JSON report to `BENCH_throughput.json` at the
//! repo root — the number successive PRs regress against.
//!
//! Run with: `cargo bench -p nodefz-bench --bench throughput`
//!
//! Environment knobs (all optional):
//! * `NFZ_BENCH_WINDOW_MS` — raw measurement window per arm (default 400)
//! * `NFZ_BENCH_WARMUP_MS` — warmup per arm, excluded (default 100)
//! * `NFZ_BENCH_OUT` — report path (default `BENCH_throughput.json`)
//!
//! Methodology caveats (see EXPERIMENTS.md): single-threaded on purpose —
//! per-worker throughput is the tracked quantity — and wall-clock windows
//! on a 1-CPU container are noisy, so compare totals, not single arms.
//!
//! [`RunContext::fuzz_once`]: nodefz_campaign::RunContext::fuzz_once

use std::time::Duration;

use nodefz_campaign::{measure, BenchConfig};

fn env_ms(var: &str, default: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default),
    )
}

fn main() {
    let apps: Vec<String> = nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .filter(|i| i.in_fig6)
        .map(|i| i.abbr.to_string())
        .collect();
    let cfg = BenchConfig {
        apps,
        warmup: env_ms("NFZ_BENCH_WARMUP_MS", 100),
        window: env_ms("NFZ_BENCH_WINDOW_MS", 400),
        base_seed: 1,
    };
    println!(
        "throughput: {} apps x 3 presets, {}ms warmup + {}ms window per arm",
        cfg.apps.len(),
        cfg.warmup.as_millis(),
        cfg.window.as_millis()
    );
    let report = match measure(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("throughput bench failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<6} {:<12} {:>8} {:>12} {:>14}",
        "app", "preset", "runs", "execs/s", "events/s"
    );
    for arm in &report.arms {
        println!(
            "{:<6} {:<12} {:>8} {:>12.1} {:>14.1}",
            arm.app,
            arm.preset,
            arm.runs,
            arm.execs_per_sec(),
            arm.events_per_sec()
        );
    }
    println!(
        "total: {} runs, {:.1} execs/s",
        report.total_runs(),
        report.total_execs_per_sec()
    );
    let out = std::env::var("NFZ_BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    match std::fs::write(&out, report.to_json()) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
}
