//! # nodefz-campaign — parallel fuzzing-campaign orchestration
//!
//! The paper runs each bug's test case hundreds of times under `nodeFZ`
//! and counts manifestations (§5.1). This crate turns that loop into a
//! campaign: worker threads fan seeds across (app, parameterization) arms,
//! a bandit shifts budget toward the arms that keep yielding new bugs,
//! manifestations are deduplicated by failure signature, each new bug's
//! decision trace is minimized by delta debugging, and the minimized repro
//! is persisted to a text corpus whose entries replay deterministically.
//!
//! ```text
//! seeds ──► driver (N fuzz threads) ──► dedup ──► shrink (1 thread) ──► corpus
//!              ▲                                                          │
//!              └───────────── bandit budget reallocation ◄────────────────┘
//! ```
//!
//! See [`run`] / [`run_with_progress`] for the entry points and the
//! `campaign` binary for the command-line front end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod arms;
pub mod bandit;
pub mod bench;
pub mod config;
pub mod corpus;
pub mod dedup;
pub mod metrics;
pub mod prune;
pub mod report;
pub mod shrink;

mod driver;

pub use analyze::{analyze_campaign, AnalyzeConfig, AnalyzeReport, ConfirmedRace};
pub use arms::{arm_space, arms_from_json, arms_to_json, ArmMode, ArmSpec};
pub use bench::{
    measure, read_summary, ArmThroughput, BenchArmSummary, BenchConfig, BenchSummary, CanonWindow,
    ThroughputReport, CANON_RUNS,
};
pub use config::{
    preset_index, preset_name, preset_params, CampaignConfig, DIRECTED_PRESET, PRESETS,
};
pub use corpus::{Corpus, CorpusDecodeError, CorpusEntry};
pub use dedup::{BugRecord, Deduper, Finding};
pub use driver::{
    resolve_case, run, run_with_progress, verify_entry, BugSummary, CampaignReport, Event,
    FuzzExec, RunContext,
};
pub use metrics::{ArmMetrics, Discovery, MetricsSnapshot, PhaseMetrics, ReproStats};
pub use prune::{env_scope, ClassVerdict, PruneCounters, PruneHealth, Pruner};
pub use shrink::{shrink, ShrinkResult};
