//! Campaign telemetry: registry layout, worker-side recording, and the
//! `nodefz-metrics-v1` snapshot document.
//!
//! The controller owns a [`nodefz_obs::Registry`] with one shard per
//! worker thread. Workers record into their private shard after every
//! fuzz execution (a handful of relaxed atomic adds — no locks, no
//! allocation), and the controller folds the shards into a point-in-time
//! [`MetricsSnapshot`] whenever it writes `--metrics-out`. Controller-side
//! series — the bandit's per-arm state, per-arm schedule diversity, and
//! the bug-discovery curve — ride along in the same document, so a single
//! JSON file answers the paper's evaluation questions (Fig. 6's discovery
//! behavior, Fig. 7's diversity, §5.4's where-does-the-time-go) for a live
//! campaign.
//!
//! Loop-phase timings and per-kind dispatch counts only exist in builds
//! with the `obs` feature; without it the registry still carries the
//! campaign-level counters and the document's `phases`/`callbacks` arrays
//! are empty.

use std::sync::Arc;
use std::time::Duration;

use nodefz_obs::{
    CounterId, HistogramId, HistogramSnapshot, JsonWriter, ObsLevel, Registry, RegistryBuilder,
    RegistrySnapshot, ShardHandle,
};
use nodefz_trace::{DiversitySummary, PAPER_TRUNCATION};

use crate::bandit::ArmSnapshot;
use crate::prune::{PruneCounters, PruneHealth};

/// Upper bounds for the per-run dispatched-callback histogram. Bug runs
/// dispatch hundreds to a few thousand callbacks; the overflow bucket
/// catches pathological schedules.
const DISPATCH_BOUNDS: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Identifiers of every metric the campaign registers, shared by the
/// controller and all worker shards.
pub(crate) struct MetricIds {
    /// Fuzz executions completed.
    runs: CounterId,
    /// Executions whose oracle tripped (pre-dedup manifestations).
    manifested: CounterId,
    /// Callbacks dispatched across all executions.
    dispatched: CounterId,
    /// Per-run dispatched-callback distribution.
    run_dispatched: HistogramId,
    /// Per-phase (entries, vtime_ns, wall_ns) counters, by `Phase::index()`.
    #[cfg(feature = "obs")]
    phases: Vec<[CounterId; 3]>,
    /// Per-kind dispatch counters, by `CbKind::index()`.
    #[cfg(feature = "obs")]
    kinds: Vec<CounterId>,
}

/// Builds the campaign's frozen metric layout with `shards` worker shards.
pub(crate) fn build_registry(shards: usize) -> (Registry, Arc<MetricIds>) {
    let mut b = RegistryBuilder::new();
    let ids = MetricIds {
        runs: b.counter("campaign.runs"),
        manifested: b.counter("campaign.manifested"),
        dispatched: b.counter("campaign.dispatched"),
        run_dispatched: b.histogram("run.dispatched", &DISPATCH_BOUNDS),
        #[cfg(feature = "obs")]
        phases: nodefz_rt::Phase::all()
            .iter()
            .map(|p| {
                [
                    b.counter(&format!("phase.{}.entries", p.label())),
                    b.counter(&format!("phase.{}.vtime_ns", p.label())),
                    b.counter(&format!("phase.{}.wall_ns", p.label())),
                ]
            })
            .collect(),
        #[cfg(feature = "obs")]
        kinds: nodefz_rt::CbKind::all()
            .iter()
            .map(|k| b.counter(&format!("callback.{}", k.label())))
            .collect(),
    };
    (b.build(shards), Arc::new(ids))
}

/// A worker's telemetry kit: its registry shard plus, in instrumented
/// builds above [`ObsLevel::Off`], a loop-observability handle the worker
/// attaches to every run and flushes into the shard afterwards.
///
/// Constructed *on* the worker thread — the loop handle is `Rc`-based and
/// must not cross threads; only the shard handle and ids travel.
pub(crate) struct WorkerTelemetry {
    shard: ShardHandle,
    ids: Arc<MetricIds>,
    #[cfg(feature = "obs")]
    obs: Option<nodefz_rt::ObsHandle>,
}

impl WorkerTelemetry {
    pub(crate) fn new(shard: ShardHandle, ids: Arc<MetricIds>, level: ObsLevel) -> WorkerTelemetry {
        #[cfg(not(feature = "obs"))]
        let _ = level;
        WorkerTelemetry {
            shard,
            ids,
            #[cfg(feature = "obs")]
            obs: (!level.is_off()).then(nodefz_rt::ObsHandle::new),
        }
    }

    /// The loop handle to attach to runs, when profiling is on.
    #[cfg(feature = "obs")]
    pub(crate) fn obs(&self) -> Option<&nodefz_rt::ObsHandle> {
        self.obs.as_ref()
    }

    /// Records one finished fuzz execution, folding any loop profile the
    /// run accumulated into the shard and resetting it for the next run.
    pub(crate) fn record_exec(&self, dispatched: u64, manifested: bool) {
        self.shard.inc(self.ids.runs);
        self.shard.add(self.ids.dispatched, dispatched);
        self.shard.observe(self.ids.run_dispatched, dispatched);
        if manifested {
            self.shard.inc(self.ids.manifested);
        }
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.obs {
            for (profile, ids) in obs.phase_profiles().iter().zip(&self.ids.phases) {
                self.shard.add(ids[0], profile.entries);
                self.shard.add(ids[1], profile.vtime.as_nanos());
                self.shard.add(ids[2], profile.wall_ns);
            }
            for ((_, count), id) in obs.kind_counts().into_iter().zip(&self.ids.kinds) {
                self.shard.add(*id, count);
            }
            obs.reset();
        }
    }
}

/// One bandit arm's telemetry row.
#[derive(Clone, Debug)]
pub struct ArmMetrics {
    /// Bug abbreviation.
    pub app: String,
    /// Preset name.
    pub preset: &'static str,
    /// Runs spent on the arm.
    pub pulls: u64,
    /// Recent-yield EMA.
    pub mean_reward: f64,
    /// The allocator's current UCB score (`None` while unpulled).
    pub ucb_bound: Option<f64>,
    /// Schedule diversity over this arm's sampled runs, truncated at the
    /// paper's 20 K-callback mark (`None` until a schedule is sampled).
    pub diversity: Option<DiversitySummary>,
}

/// One point on the bug-discovery curve: when a signature was first seen.
#[derive(Clone, Debug)]
pub struct Discovery {
    /// The deduplicated signature, rendered.
    pub signature: String,
    /// Bug abbreviation.
    pub app: String,
    /// Normalized failure site.
    pub site: String,
    /// Completed-execution index at first sighting (strictly increasing
    /// across the curve: at most one signature is discovered per run).
    pub first_exec: u64,
    /// Wall-clock milliseconds from campaign start at first sighting.
    pub first_ms: u64,
}

/// The repro stage's work: the campaign's shrinker thread minimizing and
/// acceptance-replaying each new signature's trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReproStats {
    /// Repro jobs finished (one per new signature).
    pub jobs: u64,
    /// Replays those jobs ran: shrink oracle calls plus acceptance checks.
    pub replays: u64,
    /// Wall time the shrinker spent on them.
    pub busy: Duration,
    /// Most repro jobs queued or running at once.
    pub max_pending: u64,
}

/// Aggregated loop-phase timing, one row per phase.
#[derive(Clone, Debug)]
pub struct PhaseMetrics {
    /// Phase label (`timers`, `poll`, `demux`, …).
    pub phase: &'static str,
    /// Times the phase ran.
    pub entries: u64,
    /// Virtual time spent in the phase, nanoseconds.
    pub vtime_ns: u64,
    /// Wall-clock time spent in the phase, nanoseconds.
    pub wall_ns: u64,
}

/// A point-in-time campaign telemetry snapshot; serializes to the
/// `nodefz-metrics-v1` JSON document.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Wall-clock time since campaign start.
    pub elapsed: Duration,
    /// Total run budget.
    pub budget: u64,
    /// Fuzz executions completed.
    pub runs: u64,
    /// Callbacks dispatched across all executions.
    pub dispatched: u64,
    /// Executions whose oracle tripped (before dedup).
    pub manifested: u64,
    /// Distinct bug signatures found so far.
    pub unique_bugs: u64,
    /// Whether this is the campaign's final snapshot.
    pub finished: bool,
    /// Per-arm bandit state and diversity.
    pub arms: Vec<ArmMetrics>,
    /// The bug-discovery curve, in first-seen order.
    pub discovery: Vec<Discovery>,
    /// Loop-phase timings (empty without the `obs` build or above-`off`
    /// level).
    pub phases: Vec<PhaseMetrics>,
    /// Per-kind dispatch counts (same availability as `phases`).
    pub callbacks: Vec<(&'static str, u64)>,
    /// Per-run dispatched-callback distribution.
    pub run_dispatched: Option<HistogramSnapshot>,
    /// Schedule-space pruning counters (`None` unless the campaign ran
    /// with pruning on). Additive to the `nodefz-metrics-v1` schema:
    /// existing readers that ignore unknown fields keep working.
    pub pruning: Option<PruneCounters>,
    /// Seen-set LRU health riding along with the counters (same
    /// availability; additive fields inside the `pruning` block).
    pub prune_health: Option<PruneHealth>,
    /// Static-analysis precision counters (`None` unless the campaign
    /// ran the static analyzer). Additive, like `pruning`.
    pub sa: Option<nodefz_sa::SaMetrics>,
    /// API-surface coverage of the conform-api arms (`None` unless the
    /// campaign pulled a `CONFORM-API` arm). The full `nodefz-apicov-v1`
    /// document embeds under the `apicov` key — additive, like `sa`.
    pub apicov: Option<nodefz_conform::ApiCovSnapshot>,
    /// Repro-stage accounting (`None` outside a campaign driver). Additive,
    /// like `pruning`: readers of older snapshots without the block keep
    /// working.
    pub repro: Option<ReproStats>,
}

impl MetricsSnapshot {
    /// Executions per second so far.
    pub fn execs_per_sec(&self) -> f64 {
        self.runs as f64 / self.elapsed.as_secs_f64().max(f64::EPSILON)
    }

    /// Serializes the snapshot as the `nodefz-metrics-v1` document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "nodefz-metrics-v1");
        w.field_u64("elapsed_ms", self.elapsed.as_millis() as u64);
        w.field_u64("budget", self.budget);
        w.field_u64("runs", self.runs);
        w.field_u64("dispatched", self.dispatched);
        w.field_u64("manifested", self.manifested);
        w.field_u64("unique_bugs", self.unique_bugs);
        w.field_f64("execs_per_sec", self.execs_per_sec(), 1);
        w.field_bool("finished", self.finished);

        w.key("arms");
        w.begin_array();
        for arm in &self.arms {
            w.begin_object();
            w.field_str("app", &arm.app);
            w.field_str("preset", arm.preset);
            w.field_u64("pulls", arm.pulls);
            w.field_f64("mean_reward", arm.mean_reward, 6);
            w.key("ucb_bound");
            match arm.ucb_bound {
                Some(b) => w.f64(b, 6),
                None => w.null(),
            }
            w.key("diversity");
            match &arm.diversity {
                Some(d) => {
                    w.begin_object();
                    w.field_u64("runs", d.runs as u64);
                    w.field_f64("mean_pairwise_ld", d.mean_pairwise_ld, 6);
                    w.field_f64("min_pairwise_ld", d.min_pairwise_ld, 6);
                    w.field_f64("max_pairwise_ld", d.max_pairwise_ld, 6);
                    w.field_u64("distinct", d.distinct as u64);
                    w.field_f64("mean_len", d.mean_len, 1);
                    w.field_f64("kind_entropy", d.kind_entropy, 6);
                    w.field_u64("truncation", PAPER_TRUNCATION as u64);
                    w.end_object();
                }
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();

        w.key("discovery");
        w.begin_array();
        for d in &self.discovery {
            w.begin_object();
            w.field_str("signature", &d.signature);
            w.field_str("app", &d.app);
            w.field_str("site", &d.site);
            w.field_u64("first_exec", d.first_exec);
            w.field_u64("first_ms", d.first_ms);
            w.end_object();
        }
        w.end_array();

        w.key("phases");
        w.begin_array();
        for p in &self.phases {
            w.begin_object();
            w.field_str("phase", p.phase);
            w.field_u64("entries", p.entries);
            w.field_u64("vtime_ns", p.vtime_ns);
            w.field_u64("wall_ns", p.wall_ns);
            w.end_object();
        }
        w.end_array();

        w.key("callbacks");
        w.begin_array();
        for (kind, count) in &self.callbacks {
            w.begin_object();
            w.field_str("kind", kind);
            w.field_u64("count", *count);
            w.end_object();
        }
        w.end_array();

        w.key("run_dispatched");
        match &self.run_dispatched {
            Some(h) => {
                w.begin_object();
                w.key("bounds");
                w.begin_array();
                for b in &h.bounds {
                    w.u64(*b);
                }
                w.end_array();
                w.key("buckets");
                w.begin_array();
                for b in &h.buckets {
                    w.u64(*b);
                }
                w.end_array();
                w.field_u64("count", h.count);
                w.field_u64("sum", h.sum);
                w.field_f64("mean", h.mean(), 1);
                w.end_object();
            }
            None => w.null(),
        }

        if let Some(p) = &self.pruning {
            w.key("pruning");
            w.begin_object();
            w.field_u64("runs", p.runs);
            w.field_u64("distinct", p.distinct);
            w.field_u64("redundant", p.redundant);
            w.field_u64("mismatches", p.mismatches);
            if let Some(h) = &self.prune_health {
                w.field_u64("seen_occupancy", h.seen_occupancy);
                w.field_u64("seen_evictions", h.seen_evictions);
                w.field_u64("seen_hits", h.seen_hits);
            }
            w.field_f64("redundancy_ratio", p.redundancy_ratio(), 6);
            w.end_object();
        }

        if let Some(sa) = &self.sa {
            w.key("sa");
            w.begin_object();
            w.field_u64("models", sa.models);
            w.field_u64("candidates", sa.candidates);
            w.field_u64("av", sa.av);
            w.field_u64("ov", sa.ov);
            w.field_u64("cov", sa.cov);
            w.field_u64("confirmed", sa.confirmed);
            w.field_u64("confirmed_av", sa.confirmed_av);
            w.field_u64("confirmed_ov", sa.confirmed_ov);
            w.field_u64("confirmed_cov", sa.confirmed_cov);
            w.end_object();
        }

        if let Some(r) = &self.repro {
            w.key("repro");
            w.begin_object();
            w.field_u64("jobs", r.jobs);
            w.field_u64("replays", r.replays);
            w.field_f64("busy_ms", r.busy.as_secs_f64() * 1e3, 3);
            w.field_u64("max_pending", r.max_pending);
            w.end_object();
        }

        if let Some(cov) = &self.apicov {
            w.key("apicov");
            w.raw(&cov.to_json());
        }
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// Assembles a [`MetricsSnapshot`] from the controller's state and a
/// registry scrape. `schedules_of` supplies the sampled [`TypeSchedule`]s
/// of one arm for the diversity summary (empty slice = not sampled yet).
///
/// [`TypeSchedule`]: nodefz_rt::TypeSchedule
#[allow(clippy::too_many_arguments)]
pub(crate) fn collect(
    elapsed: Duration,
    budget: u64,
    unique_bugs: u64,
    finished: bool,
    arms: &[ArmSnapshot],
    schedules_of: impl Fn(&str, usize) -> Vec<nodefz_rt::TypeSchedule>,
    discovery: &[Discovery],
    registry: &RegistrySnapshot,
    pruning: Option<&PruneCounters>,
    prune_health: Option<PruneHealth>,
) -> MetricsSnapshot {
    let arms = arms
        .iter()
        .map(|a| {
            let samples = schedules_of(&a.arm.app, a.arm.preset);
            ArmMetrics {
                app: a.arm.app.clone(),
                preset: crate::config::preset_name(a.arm.preset),
                pulls: a.pulls,
                mean_reward: a.mean_reward,
                ucb_bound: a.ucb_bound,
                diversity: (!samples.is_empty())
                    .then(|| DiversitySummary::compute(&samples, PAPER_TRUNCATION)),
            }
        })
        .collect();
    MetricsSnapshot {
        elapsed,
        budget,
        runs: registry.counter("campaign.runs").unwrap_or(0),
        dispatched: registry.counter("campaign.dispatched").unwrap_or(0),
        manifested: registry.counter("campaign.manifested").unwrap_or(0),
        unique_bugs,
        finished,
        arms,
        discovery: discovery.to_vec(),
        phases: collect_phases(registry),
        callbacks: collect_callbacks(registry),
        run_dispatched: registry.histogram("run.dispatched").cloned(),
        pruning: pruning.copied(),
        prune_health,
        sa: None,
        apicov: None,
        repro: None,
    }
}

#[cfg(feature = "obs")]
fn collect_phases(registry: &RegistrySnapshot) -> Vec<PhaseMetrics> {
    nodefz_rt::Phase::all()
        .iter()
        .map(|p| PhaseMetrics {
            phase: p.label(),
            entries: registry
                .counter(&format!("phase.{}.entries", p.label()))
                .unwrap_or(0),
            vtime_ns: registry
                .counter(&format!("phase.{}.vtime_ns", p.label()))
                .unwrap_or(0),
            wall_ns: registry
                .counter(&format!("phase.{}.wall_ns", p.label()))
                .unwrap_or(0),
        })
        .collect()
}

#[cfg(not(feature = "obs"))]
fn collect_phases(_registry: &RegistrySnapshot) -> Vec<PhaseMetrics> {
    Vec::new()
}

#[cfg(feature = "obs")]
fn collect_callbacks(registry: &RegistrySnapshot) -> Vec<(&'static str, u64)> {
    nodefz_rt::CbKind::all()
        .iter()
        .map(|k| {
            (
                k.label(),
                registry
                    .counter(&format!("callback.{}", k.label()))
                    .unwrap_or(0),
            )
        })
        .collect()
}

#[cfg(not(feature = "obs"))]
fn collect_callbacks(_registry: &RegistrySnapshot) -> Vec<(&'static str, u64)> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::Arm;

    fn arm_snap(app: &str, pulls: u64) -> ArmSnapshot {
        ArmSnapshot {
            arm: Arm {
                app: app.into(),
                preset: 0,
            },
            pulls,
            mean_reward: 0.25,
            ucb_bound: (pulls > 0).then_some(0.75),
        }
    }

    fn schedule(kinds: &[nodefz_rt::CbKind]) -> nodefz_rt::TypeSchedule {
        let mut s = nodefz_rt::TypeSchedule::new();
        for &k in kinds {
            s.push(k);
        }
        s
    }

    #[test]
    fn diversity_uses_the_papers_truncation_mark() {
        // Fig. 7's metric truncates schedules at the first 20 K callbacks;
        // the snapshot must pin that constant, not invent its own.
        assert_eq!(PAPER_TRUNCATION, 20_000);
        let (reg, _) = build_registry(1);
        let snap = collect(
            Duration::from_millis(100),
            10,
            0,
            false,
            &[arm_snap("KUE", 2)],
            |_, _| {
                vec![
                    schedule(&[nodefz_rt::CbKind::Timer, nodefz_rt::CbKind::Check]),
                    schedule(&[nodefz_rt::CbKind::Check, nodefz_rt::CbKind::Timer]),
                ]
            },
            &[],
            &reg.snapshot(),
            None,
            None,
        );
        let div = snap.arms[0].diversity.as_ref().expect("sampled arm");
        assert_eq!(div.runs, 2);
        assert!(div.mean_pairwise_ld > 0.0);
        let json = snap.to_json();
        assert!(
            json.contains("\"truncation\": 20000"),
            "document must carry the truncation mark: {json}"
        );
    }

    #[test]
    fn unsampled_arms_serialize_null_diversity_and_bounds() {
        let (reg, _) = build_registry(1);
        let snap = collect(
            Duration::from_millis(50),
            10,
            0,
            false,
            &[arm_snap("KUE", 0)],
            |_, _| Vec::new(),
            &[],
            &reg.snapshot(),
            None,
            None,
        );
        assert!(snap.arms[0].diversity.is_none());
        let json = snap.to_json();
        assert!(json.contains("\"diversity\": null"), "{json}");
        assert!(json.contains("\"ucb_bound\": null"), "{json}");
    }

    #[test]
    fn worker_recording_lands_in_the_document() {
        let (reg, ids) = build_registry(2);
        let w0 = WorkerTelemetry::new(reg.shard(0), ids.clone(), ObsLevel::Off);
        let w1 = WorkerTelemetry::new(reg.shard(1), ids, ObsLevel::Off);
        w0.record_exec(100, false);
        w0.record_exec(300, true);
        w1.record_exec(700, false);
        let snap = collect(
            Duration::from_secs(1),
            10,
            1,
            true,
            &[],
            |_, _| Vec::new(),
            &[],
            &reg.snapshot(),
            None,
            None,
        );
        assert_eq!(snap.runs, 3);
        assert_eq!(snap.dispatched, 1100);
        assert_eq!(snap.manifested, 1);
        let hist = snap.run_dispatched.as_ref().expect("histogram registered");
        assert_eq!(hist.count, 3);
        assert_eq!(hist.sum, 1100);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"nodefz-metrics-v1\""));
        assert!(json.contains("\"finished\": true"));
    }

    #[test]
    fn discovery_curve_is_monotone_in_the_document_order() {
        let discovery = [
            Discovery {
                signature: "KUE:site-a".into(),
                app: "KUE".into(),
                site: "site-a".into(),
                first_exec: 3,
                first_ms: 12,
            },
            Discovery {
                signature: "MKD:site-b".into(),
                app: "MKD".into(),
                site: "site-b".into(),
                first_exec: 17,
                first_ms: 48,
            },
        ];
        let (reg, _) = build_registry(1);
        let snap = collect(
            Duration::from_secs(1),
            20,
            2,
            true,
            &[],
            |_, _| Vec::new(),
            &discovery,
            &reg.snapshot(),
            None,
            None,
        );
        assert!(
            snap.discovery
                .windows(2)
                .all(|w| { w[0].first_exec < w[1].first_exec && w[0].first_ms <= w[1].first_ms }),
            "discovery curve must be monotone: {:?}",
            snap.discovery
        );
        assert!(snap.to_json().contains("\"first_exec\": 17"));
    }
}
