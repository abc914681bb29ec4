//! Pieces every workload shares: the fig6 arm set, seed derivation,
//! scratch directories, peak RSS, and the result record.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nodefz_campaign::PRESETS;

/// The fig6 experiment set: every reproduced bug the paper fuzzes (13).
pub fn fig6_apps() -> Vec<String> {
    nodefz_apps::registry()
        .iter()
        .map(|c| c.info())
        .filter(|i| i.in_fig6)
        .map(|i| i.abbr.to_string())
        .collect()
}

/// One (app, preset) fuzz arm.
#[derive(Clone, Debug)]
pub struct Arm {
    pub app: String,
    pub preset: usize,
    pub label: String,
}

/// Every fig6 app × preset {standard, aggressive, guided}: 39 arms.
pub fn fig6_arms() -> Vec<Arm> {
    fig6_apps()
        .into_iter()
        .flat_map(|app| {
            (0..PRESETS.len()).map(move |preset| Arm {
                label: format!("{app}/{}", PRESETS[preset]),
                app: app.clone(),
                preset,
            })
        })
        .collect()
}

/// Times each set-up is made in a row, each timed. `setup_s` is the
/// fastest of all of a run's set-ups: a set-up takes milliseconds, and on
/// a shared host single ones come out up to 2× slower.
pub const SETUP_REPEATS: usize = 5;

/// splitmix64 finalizer over a folded tuple: the benchmark's only source
/// of input seeds, so one `--seed` fixes every input.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(b.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds since `t`.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Creates `dir` empty, removing whatever a previous run left there.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// What the command line fixes for one run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Private scratch directory of this run (corpora, workdirs).
    pub scratch: PathBuf,
    /// The release `campaign` binary orchestrated workers run.
    pub worker_bin: Option<PathBuf>,
}

/// One workload run's outcome: the JSON line's fields plus a
/// human-readable notes section.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Output-check failures and other findings, printed above the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }
}
