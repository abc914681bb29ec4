//! Campaign configuration.

use std::path::PathBuf;
use std::time::Duration;

use nodefz_obs::ObsLevel;

/// The fuzz parameterizations a campaign cycles through, by preset index.
///
/// Each (app, preset) pair is one bandit arm; the allocator shifts budget
/// toward the arms that keep yielding new bugs.
pub const PRESETS: [&str; 3] = ["standard", "aggressive", "guided"];

/// The virtual preset index of the race-directed arm (one past the real
/// presets): its runs replay a recorded prefix and force a predicted
/// race's flipped order instead of fuzzing from scratch.
pub const DIRECTED_PRESET: usize = PRESETS.len();

/// Resolves a preset index — real or the virtual directed one — to the
/// name used in reports.
pub fn preset_name(preset: usize) -> &'static str {
    PRESETS.get(preset).copied().unwrap_or("directed")
}

/// Resolves a preset name (as spelled on the CLI and in reports) to its
/// index in [`PRESETS`].
pub fn preset_index(name: &str) -> Option<usize> {
    PRESETS.iter().position(|p| p.eq_ignore_ascii_case(name))
}

/// Resolves a preset index to its [`nodefz::FuzzParams`].
pub fn preset_params(preset: usize) -> nodefz::FuzzParams {
    match preset % PRESETS.len() {
        0 => nodefz::FuzzParams::standard(),
        1 => nodefz::FuzzParams::aggressive(),
        _ => nodefz::FuzzParams::guided_accurate_timers(),
    }
}

/// Everything a campaign needs to run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Fuzz worker threads. Every campaign also runs one shrinker thread
    /// beside them, which minimizes and acceptance-replays each new
    /// signature's trace, so repro work never queues ahead of fuzz runs.
    pub threads: usize,
    /// Total fuzz runs to spend across all arms.
    pub budget: u64,
    /// Bug abbreviations to target (Table 2 names, e.g. `["KUE", "MKD"]`).
    pub apps: Vec<String>,
    /// Which fuzz presets each app gets an arm for, as indices into
    /// [`PRESETS`] (default: all of them). An orchestrator scheduling
    /// (app, preset, mode) arms across worker processes restricts each
    /// worker to exactly one preset; an empty list is only valid together
    /// with [`CampaignConfig::directed`], yielding a directed-only
    /// campaign.
    pub presets: Vec<usize>,
    /// Wall-clock deadline; the campaign drains gracefully when it passes.
    pub deadline: Option<Duration>,
    /// Whether to delta-debug each new finding's decision trace.
    pub shrink: bool,
    /// How many replays must re-manifest a shrunk repro before it is
    /// accepted into the corpus.
    pub replay_checks: u32,
    /// Directory to persist minimized repros into (`None` = in-memory only).
    pub corpus_dir: Option<PathBuf>,
    /// Base environment seed; per-run seeds are derived deterministically.
    pub base_seed: u64,
    /// Whether to add a race-directed arm per app: a happens-before
    /// analysis of one recorded vanilla-posture run predicts racing
    /// callback pairs, and the arm's runs replay that run's prefix and
    /// force each predicted flip ([`DIRECTED_PRESET`]). Apps whose
    /// analysis predicts nothing get no directed arm.
    pub directed: bool,
    /// Where to write periodic `nodefz-metrics-v1` telemetry snapshots
    /// (`None` = no snapshots). Controller-side telemetry — arms,
    /// discovery curve, per-arm diversity — is collected whenever this is
    /// set; loop-phase timings additionally require the `obs` build and
    /// [`CampaignConfig::obs_level`] above [`ObsLevel::Off`].
    pub metrics_out: Option<PathBuf>,
    /// Where to write a chrome://tracing timeline of one dedicated
    /// instrumented run after the campaign drains (`None` = no trace).
    /// Requires a build with the `obs` feature.
    pub trace_out: Option<PathBuf>,
    /// Where to write the campaign flight-recorder journal
    /// (`nodefz-journal-v1` JSON lines: arm pulls with decision-time
    /// bandit state, prune verdicts, discoveries). `None` = no journal.
    pub journal_out: Option<PathBuf>,
    /// Runtime telemetry dial for worker runs. Above [`ObsLevel::Off`]
    /// the workers profile loop phases and per-kind dispatches into the
    /// metrics registry; requires a build with the `obs` feature.
    pub obs_level: ObsLevel,
    /// Whether to classify every run by its happens-before canonical key
    /// ([`crate::prune`]): the controller counts distinct vs redundant
    /// schedule classes, memoizes each class's outcome as an online
    /// soundness check, and reports the counters in metrics snapshots.
    /// Classification is pure accounting — the dispatched run stream is
    /// byte-for-byte identical with pruning on or off, so corpora match.
    pub prune: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            threads: 4,
            budget: 400,
            apps: Vec::new(),
            presets: (0..PRESETS.len()).collect(),
            deadline: None,
            shrink: true,
            replay_checks: 10,
            corpus_dir: None,
            base_seed: 1,
            directed: false,
            metrics_out: None,
            trace_out: None,
            journal_out: None,
            obs_level: ObsLevel::Off,
            prune: false,
        }
    }
}

impl CampaignConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.budget == 0 {
            return Err("budget must be at least 1 run".into());
        }
        if self.apps.is_empty() {
            return Err("at least one app must be targeted".into());
        }
        if self.presets.is_empty() && !self.directed {
            return Err("presets may only be empty in a directed-only campaign".into());
        }
        for &preset in &self.presets {
            if preset >= PRESETS.len() {
                return Err(format!(
                    "preset index {preset} out of range (presets: {})",
                    PRESETS.join(", ")
                ));
            }
        }
        for app in &self.apps {
            if crate::driver::resolve_case(app).is_none() {
                return Err(format!(
                    "unknown app '{app}' (known: {}, plus CONFORM and CONFORM-API)",
                    nodefz_apps::abbrs().join(", ")
                ));
            }
        }
        if cfg!(not(feature = "obs")) {
            if self.trace_out.is_some() {
                return Err(
                    "--trace-out needs loop instrumentation, which this binary was built \
                     without (rebuild with --features nodefz-orchestrate/obs)"
                        .into(),
                );
            }
            if !self.obs_level.is_off() {
                return Err(format!(
                    "--obs-level {} needs loop instrumentation, which this binary was built \
                     without (rebuild with --features nodefz-orchestrate/obs)",
                    self.obs_level.label()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_invalid_until_apps_are_set() {
        let mut cfg = CampaignConfig::default();
        assert!(cfg.validate().is_err());
        cfg.apps = vec!["KUE".into()];
        cfg.validate().unwrap();
    }

    #[test]
    fn unknown_app_is_named_in_the_error() {
        let cfg = CampaignConfig {
            apps: vec!["NOPE".into()],
            ..CampaignConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("NOPE"), "{err}");
    }

    #[test]
    fn telemetry_needing_instrumentation_is_rejected_in_a_bare_build() {
        let base = CampaignConfig {
            apps: vec!["KUE".into()],
            ..CampaignConfig::default()
        };
        let traced = CampaignConfig {
            trace_out: Some("trace.json".into()),
            ..base.clone()
        };
        let leveled = CampaignConfig {
            obs_level: ObsLevel::Counters,
            ..base.clone()
        };
        // Metrics snapshots never require the instrumented build.
        let metrics = CampaignConfig {
            metrics_out: Some("metrics.json".into()),
            ..base
        };
        metrics.validate().unwrap();
        if cfg!(feature = "obs") {
            traced.validate().unwrap();
            leveled.validate().unwrap();
        } else {
            assert!(traced.validate().unwrap_err().contains("--trace-out"));
            assert!(leveled.validate().unwrap_err().contains("--obs-level"));
        }
    }

    #[test]
    fn presets_resolve() {
        for i in 0..PRESETS.len() {
            preset_params(i).validate().unwrap();
        }
    }

    #[test]
    fn preset_restrictions_validate() {
        let base = CampaignConfig {
            apps: vec!["KUE".into()],
            ..CampaignConfig::default()
        };
        let one = CampaignConfig {
            presets: vec![1],
            ..base.clone()
        };
        one.validate().unwrap();
        let out_of_range = CampaignConfig {
            presets: vec![PRESETS.len()],
            ..base.clone()
        };
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .contains("out of range"));
        let empty = CampaignConfig {
            presets: vec![],
            ..base.clone()
        };
        assert!(empty.validate().unwrap_err().contains("directed-only"));
        let directed_only = CampaignConfig {
            presets: vec![],
            directed: true,
            ..base
        };
        directed_only.validate().unwrap();
    }

    #[test]
    fn preset_names_resolve_to_indices() {
        for (i, name) in PRESETS.iter().enumerate() {
            assert_eq!(preset_index(name), Some(i));
            assert_eq!(preset_index(&name.to_uppercase()), Some(i));
        }
        assert_eq!(preset_index("directed"), None);
        assert_eq!(preset_index("nope"), None);
    }

    #[test]
    fn preset_names_cover_the_directed_arm() {
        assert_eq!(preset_name(0), "standard");
        assert_eq!(preset_name(PRESETS.len() - 1), "guided");
        assert_eq!(preset_name(DIRECTED_PRESET), "directed");
    }
}
