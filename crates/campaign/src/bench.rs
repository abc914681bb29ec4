//! Schedule-space throughput measurement (`nodefz-throughput-v3`).
//!
//! Node.fz's value proposition is schedule bugs manifested *per unit of
//! testing time* (<1.1x overhead, Table 5 of the paper). Raw executions
//! per second overstates value: two happens-before-equivalent schedules
//! manifest exactly the same races, so the better currency is *distinct
//! schedule classes*. The bench measures two windows per (app, preset)
//! arm:
//!
//! 1. **raw** — a wall-clock window of record-mode executions run
//!    back-to-back, counted through the campaign's metrics registry
//!    ([`RunContext::fuzz_once`]).
//! 2. **canon** — the first [`CANON_RUNS`] runs of the arm's seed stream
//!    with the pruning kit attached ([`RunContext::enable_prune`]): every
//!    run's event log folds into an HB canonical key, and a seen-set
//!    splits runs into distinct vs redundant. The window is a fixed run
//!    count, not a time slice, so its `distinct` count is a pure function
//!    of (base seed, app, preset) and does not depend on the hardware;
//!    its wall time still yields a `distinct_per_sec`.
//!
//! The report serializes to `BENCH_throughput.json` at the repo root;
//! [`read_summary`] reads both v1 and v3 documents so the perf trajectory
//! spans the schema change.

use std::time::{Duration, Instant};

use nodefz_obs::{JsonValue, JsonWriter, ObsLevel};

use crate::config::PRESETS;
use crate::driver::{arm_seed, derive_seed, RunContext};
use crate::metrics::{build_registry, WorkerTelemetry};
use crate::prune::SEEN_CAP;

/// Runs in each arm's canon window: seed indices `0..CANON_RUNS` of the
/// arm's seed stream.
pub const CANON_RUNS: u64 = 1000;

/// Configuration of one throughput measurement.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Bug abbreviations to measure (each app × every preset is one arm).
    pub apps: Vec<String>,
    /// Wall-clock warmup per arm, excluded from the measurement.
    pub warmup: Duration,
    /// Wall-clock length of each arm's raw window.
    pub window: Duration,
    /// Base environment seed; per-run seeds derive like the campaign's.
    pub base_seed: u64,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            apps: Vec::new(),
            warmup: Duration::from_millis(100),
            window: Duration::from_millis(400),
            base_seed: 1,
        }
    }
}

/// The canon window: a fixed run prefix with online HB-class dedup.
#[derive(Clone, Debug)]
pub struct CanonWindow {
    /// Executions in the window ([`CANON_RUNS`]).
    pub runs: u64,
    /// Executions that opened a new HB-equivalence class.
    pub distinct: u64,
    /// Executions whose class was already seen.
    pub redundant: u64,
    /// Wall-clock time the window took.
    pub elapsed: Duration,
}

impl CanonWindow {
    /// Distinct HB classes per second — the honest throughput.
    pub fn distinct_per_sec(&self) -> f64 {
        self.distinct as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Fraction of executions that were HB-redundant.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.redundant as f64 / self.runs as f64
        }
    }
}

/// Measured throughput of one (app, preset) arm.
#[derive(Clone, Debug)]
pub struct ArmThroughput {
    /// Bug abbreviation.
    pub app: String,
    /// Preset name ("standard", "aggressive", "guided").
    pub preset: &'static str,
    /// Fuzzed executions completed inside the raw window.
    pub runs: u64,
    /// Callbacks dispatched across those executions.
    pub events: u64,
    /// Actual measured raw-window wall-clock time.
    pub elapsed: Duration,
    /// The canon window's measurement.
    pub canon: CanonWindow,
}

impl ArmThroughput {
    /// Raw executions per second.
    pub fn execs_per_sec(&self) -> f64 {
        self.runs as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Dispatched callbacks per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }
}

/// A full throughput report: one entry per (app, preset) arm.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Per-arm measurements, in (app, preset) order.
    pub arms: Vec<ArmThroughput>,
    /// The configuration that produced the report.
    pub config: BenchConfig,
}

impl ThroughputReport {
    /// Total raw executions across all arms.
    pub fn total_runs(&self) -> u64 {
        self.arms.iter().map(|a| a.runs).sum()
    }

    /// Total raw-window wall-clock time across all arms.
    pub fn total_elapsed(&self) -> Duration {
        self.arms.iter().map(|a| a.elapsed).sum()
    }

    /// Aggregate raw executions per second (total runs / total elapsed).
    pub fn total_execs_per_sec(&self) -> f64 {
        self.total_runs() as f64 / self.total_elapsed().as_secs_f64().max(f64::EPSILON)
    }

    /// Aggregate distinct HB classes per second across canon windows.
    pub fn total_distinct_per_sec(&self) -> f64 {
        let elapsed: Duration = self.arms.iter().map(|a| a.canon.elapsed).sum();
        self.total_distinct() as f64 / elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Distinct HB classes summed over every arm's canon window — a
    /// deterministic figure for a given base seed and app list.
    pub fn total_distinct(&self) -> u64 {
        self.arms.iter().map(|a| a.canon.distinct).sum()
    }

    /// Aggregate canon-window redundancy.
    pub fn total_redundancy_ratio(&self) -> f64 {
        let runs: u64 = self.arms.iter().map(|a| a.canon.runs).sum();
        let redundant: u64 = self.arms.iter().map(|a| a.canon.redundant).sum();
        if runs == 0 {
            0.0
        } else {
            redundant as f64 / runs as f64
        }
    }

    /// Serializes the report as the `nodefz-throughput-v3` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "nodefz-throughput-v3");
        w.field_u64("warmup_ms", self.config.warmup.as_millis() as u64);
        w.field_u64("window_ms", self.config.window.as_millis() as u64);
        w.field_u64("canon_runs", CANON_RUNS);
        w.field_u64("base_seed", self.config.base_seed);
        w.key("arms");
        w.begin_array();
        for arm in &self.arms {
            w.begin_object();
            w.field_str("app", &arm.app);
            w.field_str("preset", arm.preset);
            w.field_u64("runs", arm.runs);
            w.field_u64("events", arm.events);
            w.field_f64("elapsed_ms", arm.elapsed.as_secs_f64() * 1e3, 3);
            w.field_f64("execs_per_sec", arm.execs_per_sec(), 1);
            w.field_f64("events_per_sec", arm.events_per_sec(), 1);
            w.key("canon");
            w.begin_object();
            w.field_u64("runs", arm.canon.runs);
            w.field_u64("distinct", arm.canon.distinct);
            w.field_u64("redundant", arm.canon.redundant);
            w.field_f64("elapsed_ms", arm.canon.elapsed.as_secs_f64() * 1e3, 3);
            w.field_f64("distinct_per_sec", arm.canon.distinct_per_sec(), 1);
            w.field_f64("redundancy_ratio", arm.canon.redundancy_ratio(), 6);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.key("total");
        w.begin_object();
        w.field_u64("runs", self.total_runs());
        w.field_f64("elapsed_ms", self.total_elapsed().as_secs_f64() * 1e3, 3);
        w.field_f64("execs_per_sec", self.total_execs_per_sec(), 1);
        w.field_u64("distinct", self.total_distinct());
        w.field_f64("distinct_per_sec", self.total_distinct_per_sec(), 1);
        w.field_f64("redundancy_ratio", self.total_redundancy_ratio(), 6);
        w.end_object();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Measures throughput for every (app, preset) arm of `cfg`.
///
/// # Errors
///
/// Fails when no app is given or an abbreviation is unknown.
pub fn measure(cfg: &BenchConfig) -> Result<ThroughputReport, String> {
    if cfg.apps.is_empty() {
        return Err("bench: at least one app must be targeted".into());
    }
    for app in &cfg.apps {
        if nodefz_apps::by_abbr(app).is_none() {
            return Err(format!(
                "bench: unknown app '{app}' (known: {})",
                nodefz_apps::abbrs().join(", ")
            ));
        }
    }
    let mut ctx = RunContext::new();
    // Counting rides the campaign's own metrics registry (one shard, same
    // layout and recording path as a campaign worker), so per-arm numbers
    // are counter deltas across the measurement window.
    let (registry, ids) = build_registry(1);
    let telemetry = WorkerTelemetry::new(registry.shard(0), ids, ObsLevel::Off);
    let scrape = |registry: &nodefz_obs::Registry| {
        let snap = registry.snapshot();
        (
            snap.counter("campaign.runs").unwrap_or(0),
            snap.counter("campaign.dispatched").unwrap_or(0),
        )
    };
    let mut arms = Vec::with_capacity(cfg.apps.len() * PRESETS.len());
    for app in &cfg.apps {
        for (preset, preset_name) in PRESETS.iter().enumerate() {
            let base = arm_seed(cfg.base_seed, app, preset);
            let mut seed_no = 0u64;
            let warmup_start = Instant::now();
            while warmup_start.elapsed() < cfg.warmup {
                let _ = ctx.fuzz_once(app, preset, derive_seed(base, seed_no));
                seed_no += 1;
            }

            // Raw window: the v1 measurement, byte-for-byte comparable
            // with the v1 trajectory.
            let (runs_before, events_before) = scrape(&registry);
            let start = Instant::now();
            let elapsed = loop {
                let exec = ctx.fuzz_once(app, preset, derive_seed(base, seed_no));
                seed_no += 1;
                telemetry.record_exec(exec.dispatched, exec.finding.is_some());
                let elapsed = start.elapsed();
                if elapsed >= cfg.window {
                    break elapsed;
                }
            };
            let (runs_after, events_after) = scrape(&registry);

            arms.push(ArmThroughput {
                app: app.clone(),
                preset: preset_name,
                runs: runs_after - runs_before,
                events: events_after - events_before,
                elapsed,
                canon: canon_window(app, preset, base),
            });
        }
    }
    Ok(ThroughputReport {
        arms,
        config: cfg.clone(),
    })
}

/// The canon window: the arm's first [`CANON_RUNS`] seeds with the pruning
/// kit attached, deduping canonical keys online.
fn canon_window(app: &str, preset: usize, base: u64) -> CanonWindow {
    let mut ctx = RunContext::new();
    ctx.enable_prune();
    let mut seen = nodefz_hb::SeenSet::new(SEEN_CAP);
    let mut distinct = 0;
    let start = Instant::now();
    for seed_no in 0..CANON_RUNS {
        let exec = ctx.fuzz_once(app, preset, derive_seed(base, seed_no));
        let (key, _scope) = exec.canon.expect("pruning context yields keys");
        if seen.insert(key) {
            distinct += 1;
        }
    }
    CanonWindow {
        runs: CANON_RUNS,
        distinct,
        redundant: CANON_RUNS - distinct,
        elapsed: start.elapsed(),
    }
}

/// One arm row of a normalized bench summary ([`read_summary`]).
#[derive(Clone, Debug)]
pub struct BenchArmSummary {
    /// Bug abbreviation.
    pub app: String,
    /// Preset name.
    pub preset: String,
    /// Raw executions per second.
    pub execs_per_sec: f64,
    /// Distinct HB classes per second (`None` in v1 documents).
    pub distinct_per_sec: Option<f64>,
    /// Canon-window redundancy (`None` in v1 documents).
    pub redundancy_ratio: Option<f64>,
}

/// A normalized view over a persisted bench document, any schema version.
#[derive(Clone, Debug)]
pub struct BenchSummary {
    /// The document's schema tag.
    pub schema: String,
    /// Per-arm rows, in document order.
    pub arms: Vec<BenchArmSummary>,
    /// Aggregate raw executions per second.
    pub total_execs_per_sec: f64,
    /// Aggregate distinct HB classes per second (`None` in v1 documents).
    pub total_distinct_per_sec: Option<f64>,
}

/// Reads a persisted bench document — `nodefz-throughput-v1` or `-v3` —
/// into a normalized summary, so trajectory tooling spans the schema
/// change (v1 documents simply have no canon columns).
///
/// # Errors
///
/// Fails on malformed JSON, an unknown schema tag, or missing fields.
pub fn read_summary(json: &str) -> Result<BenchSummary, String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("bench document: {e}"))?;
    let schema =
        nodefz_obs::expect_schema_any(&doc, &["nodefz-throughput-v1", "nodefz-throughput-v3"])
            .map_err(|e| format!("bench document: {e}"))?
            .to_string();
    let arms = doc
        .get("arms")
        .and_then(|a| a.as_array())
        .ok_or("bench document: missing arms")?
        .iter()
        .map(|arm| {
            Ok(BenchArmSummary {
                app: arm
                    .get("app")
                    .and_then(|v| v.as_str())
                    .ok_or("arm: missing app")?
                    .to_string(),
                preset: arm
                    .get("preset")
                    .and_then(|v| v.as_str())
                    .ok_or("arm: missing preset")?
                    .to_string(),
                execs_per_sec: arm
                    .get("execs_per_sec")
                    .and_then(|v| v.as_f64())
                    .ok_or("arm: missing execs_per_sec")?,
                distinct_per_sec: arm
                    .get("canon")
                    .and_then(|c| c.get("distinct_per_sec"))
                    .and_then(|v| v.as_f64()),
                redundancy_ratio: arm
                    .get("canon")
                    .and_then(|c| c.get("redundancy_ratio"))
                    .and_then(|v| v.as_f64()),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let total = doc.get("total").ok_or("bench document: missing total")?;
    Ok(BenchSummary {
        schema,
        arms,
        total_execs_per_sec: total
            .get("execs_per_sec")
            .and_then(|v| v.as_f64())
            .ok_or("total: missing execs_per_sec")?,
        total_distinct_per_sec: total.get("distinct_per_sec").and_then(|v| v.as_f64()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canon-window distinct classes of GHO/standard at base seed 1.
    const GHO_STANDARD_SEED1_DISTINCT: u64 = 368;

    fn tiny() -> BenchConfig {
        BenchConfig {
            apps: vec!["GHO".into()],
            warmup: Duration::from_millis(5),
            window: Duration::from_millis(20),
            base_seed: 1,
        }
    }

    #[test]
    fn measures_nonzero_throughput() {
        let report = measure(&tiny()).unwrap();
        assert_eq!(report.arms.len(), PRESETS.len());
        for arm in &report.arms {
            assert!(arm.runs > 0, "no executions in window for {}", arm.app);
            assert!(arm.events > 0);
            assert!(arm.execs_per_sec() > 0.0);
            assert_eq!(arm.canon.runs, CANON_RUNS);
            assert_eq!(arm.canon.distinct + arm.canon.redundant, arm.canon.runs);
            assert!(arm.canon.distinct_per_sec() > 0.0);
        }
        assert!(report.total_execs_per_sec() > 0.0);
        assert!(report.total_distinct_per_sec() > 0.0);
        assert!(report.total_distinct() > 0);
    }

    #[test]
    fn canon_window_distinct_count_is_deterministic() {
        let base = arm_seed(1, "GHO", 0);
        let a = canon_window("GHO", 0, base);
        let b = canon_window("GHO", 0, base);
        assert_eq!(a.runs, CANON_RUNS);
        assert_eq!(a.distinct, b.distinct);
        assert_eq!(a.distinct, GHO_STANDARD_SEED1_DISTINCT);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = measure(&tiny()).unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"schema\": \"nodefz-throughput-v3\""));
        assert!(json.contains("\"distinct_per_sec\""));
        assert!(json.contains("\"redundancy_ratio\""));
        assert!(json.contains("\"canon_runs\": 1000"));
        assert_eq!(
            json.matches("\"app\"").count(),
            PRESETS.len(),
            "one arm object per preset"
        );
    }

    #[test]
    fn summary_reads_back_the_v3_document() {
        let report = measure(&tiny()).unwrap();
        let summary = read_summary(&report.to_json()).unwrap();
        assert_eq!(summary.schema, "nodefz-throughput-v3");
        assert_eq!(summary.arms.len(), report.arms.len());
        for (row, arm) in summary.arms.iter().zip(&report.arms) {
            assert_eq!(row.app, arm.app);
            assert!(row.distinct_per_sec.is_some());
            assert!(row.redundancy_ratio.is_some());
        }
        assert!(summary.total_distinct_per_sec.is_some());
    }

    #[test]
    fn summary_rejects_garbage() {
        assert!(read_summary("not json").is_err());
        assert!(read_summary("{\"schema\": \"nodefz-throughput-v9\"}").is_err());
        assert!(read_summary("{}").is_err());
    }

    #[test]
    fn unknown_or_missing_apps_are_rejected() {
        let mut cfg = tiny();
        cfg.apps = vec![];
        assert!(measure(&cfg).is_err());
        cfg.apps = vec!["NOPE".into()];
        let err = measure(&cfg).unwrap_err();
        assert!(err.contains("NOPE"), "{err}");
    }
}
