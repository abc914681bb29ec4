//! Time-to-bug benchmark for nodefz-rs.
//!
//! ```text
//! nodefz-ttbench --workload fig6-fuzz|campaign|orchestrated --seed N
//!                --seconds S --trace 0|1 [--worker-bin PATH]
//!                [--scratch DIR] [--results DIR]
//! nodefz-ttbench --print-digest [--runs-per-arm N] SEED...
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that fills the per-layer table and reports the
//! tracing overhead. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod camp;
mod common;
mod fig6;
mod layers;
mod orch;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Outcome, RunArgs};

/// End-to-end metrics every untraced run reports, in output order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "execs_per_s",
    "campaign_s",
    "ttb_ms.p50",
    "ttb_ms.p99",
    "runs_to_all",
    "bugs_found",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports, with their units. A layer
/// the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("rt.run_us", "us"),
    ("rt.callbacks_per_run", "count"),
    ("rt.ns_per_callback", "ns"),
    ("rt.iterations_per_run", "count"),
    ("rt.vtime_ms_per_run", "ms"),
    ("core.decisions_per_run", "count"),
    ("core.fuzz_overhead", "ratio"),
    ("core.replay_us", "us"),
    ("apps.manifest_rate", "ratio"),
    ("apps.resolve_us", "us"),
    ("trace.signature_us", "us"),
    ("trace.snapshot_us", "us"),
    ("hb.log_overhead", "ratio"),
    ("hb.events_per_run", "count"),
    ("hb.canon_us", "us"),
    ("hb.observe_us", "us"),
    ("hb.redundancy", "ratio"),
    ("campaign.dedup_us", "us"),
    ("campaign.shrink_ms", "ms"),
    ("campaign.shrink_replays", "count"),
    ("campaign.shrink_ratio", "ratio"),
    ("campaign.replay_ok", "ratio"),
    ("campaign.corpus_save_us", "us"),
    ("campaign.corpus_bytes", "bytes"),
    ("campaign.verify_ms", "ms"),
    ("campaign.handoff_share", "ratio"),
    ("orchestrate.spawn_reap_ms", "ms"),
    ("orchestrate.child_busy_share", "ratio"),
    ("orchestrate.fold_ms", "ms"),
    ("orchestrate.write_ms", "ms"),
    ("orchestrate.quarantined", "count"),
    ("run_us.p50", "us"),
    ("run_us.p99", "us"),
    ("repro_ms.p50", "ms"),
    ("repro_ms.p95", "ms"),
    ("distinct_per_s", "1/s"),
    ("fail_share", "ratio"),
    ("tracing_overhead", "ratio"),
];

const USAGE: &str = "usage: nodefz-ttbench --workload fig6-fuzz|campaign|orchestrated \
--seed N --seconds S --trace 0|1 [--worker-bin PATH] [--scratch DIR] [--results DIR]
       nodefz-ttbench --print-digest [--runs-per-arm N] SEED...";

struct Cli {
    workload: String,
    trace: bool,
    run: RunArgs,
    results: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut worker_bin, mut scratch, mut results) = (None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--worker-bin" => worker_bin = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--results" => results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Cli {
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            scratch: scratch
                .unwrap_or_else(|| PathBuf::from(".bench_out/scratch"))
                .join(&workload),
            worker_bin,
        },
        workload,
        trace: trace.ok_or("--trace is required")?,
        results,
    })
}

fn dispatch(cli: &Cli) -> Result<Outcome, String> {
    let run = &cli.run;
    match (cli.workload.as_str(), cli.trace) {
        ("fig6-fuzz", false) => fig6::run(run),
        ("fig6-fuzz", true) => fig6::run_traced(run),
        ("campaign", false) => camp::run(run),
        ("campaign", true) => camp::run_traced(run),
        ("orchestrated", false) => orch::run(run),
        ("orchestrated", true) => orch::run_traced(run),
        (other, _) => Err(format!(
            "unknown workload {other} (fig6-fuzz, campaign, orchestrated)"
        )),
    }
}

/// Orders the metrics to the declared list, fills layers the workload
/// never entered with 0, and refuses an undeclared or missing metric.
fn finalize(out: &mut Outcome, trace: bool) -> Result<(), String> {
    let declared: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        let units = |name: &str| out.metrics.iter().find(|m| m.0 == name).map_or("", |m| m.2);
        END_TO_END.iter().map(|&n| (n, units(n))).collect()
    };
    if let Some(extra) = out
        .metrics
        .iter()
        .find(|m| !declared.iter().any(|d| d.0 == m.0))
    {
        return Err(format!("undeclared metric {}", extra.0));
    }
    let mut ordered = Vec::new();
    for (name, unit) in declared {
        match out.metrics.iter().find(|m| m.0 == name) {
            Some(m) if m.1.is_finite() => ordered.push(m.clone()),
            Some(m) => return Err(format!("metric {name} is not finite ({})", m.1)),
            None if trace => ordered.push((name.to_string(), 0.0, unit)),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    out.metrics = ordered;
    Ok(())
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn table(cli: &Cli, out: &Outcome) -> String {
    let mut lines = vec![format!(
        "== {} seed {} ({}) ==",
        cli.workload,
        cli.run.seed,
        if cli.trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    )];
    lines.extend(out.notes.iter().cloned());
    for (name, value, unit) in &out.metrics {
        lines.push(format!("  {name:<30} {value:>16.6} {unit}"));
    }
    lines.push(format!(
        "  fail_share {}/{} = {:.6}  correct: {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.correct
    ));
    lines.join("\n")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-digest") {
        let (runs_per_arm, seeds) = match args.get(1).map(String::as_str) {
            Some("--runs-per-arm") => (
                args.get(2).and_then(|r| r.parse().ok()),
                args.get(3..).unwrap_or_default(),
            ),
            _ => (Some(fig6::RUNS_PER_ARM), &args[1..]),
        };
        let seeds: Option<Vec<u64>> = seeds.iter().map(|s| s.parse().ok()).collect();
        let (Some(runs_per_arm), Some(seeds)) = (runs_per_arm, seeds) else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        for seed in seeds {
            let digest = fig6::pass_digest(seed, runs_per_arm);
            println!("{seed} {runs_per_arm} {digest}");
        }
        return ExitCode::SUCCESS;
    }
    let cli = match parse(args.into_iter()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("nodefz-ttbench: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = dispatch(&cli).and_then(|mut out| finalize(&mut out, cli.trace).map(|()| out));
    // The scratch tree (corpora, workdirs) never outlives the run.
    let _ = std::fs::remove_dir_all(&cli.run.scratch);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("nodefz-ttbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = json(&out);
    println!("{}", table(&cli, &out));
    if let Some(dir) = &cli.results {
        let path = dir.join(format!(
            "{}-{}.json",
            cli.workload,
            if cli.trace { "traced" } else { "untraced" }
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &line)) {
            eprintln!("nodefz-ttbench: results {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
