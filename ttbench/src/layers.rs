//! The traced runs' layer probes.
//!
//! There is no tracing inside the program, so a traced run re-drives the
//! calls a fuzz run or a campaign makes, through the same public
//! functions, and times each call from here:
//!
//! * [`RunProbe`] does what `RunContext::fuzz_once` does — resolve the
//!   case, `BugCase::run` under a recording scheduler, and on a
//!   manifestation `BugSignature::new` and `TraceHandle::snapshot` — with
//!   a span around each, plus side runs for the ratios (Vanilla mode for
//!   the fuzzing overhead, Replay mode, an attached `EventLogHandle` with
//!   `CanonBuilder` and `Pruner` for the HB layer).
//! * [`campaign_layer`] takes the first finding of each signature through
//!   what the campaign does with it: `Deduper`, `shrink`, acceptance
//!   replays, `Corpus::save`, and `verify_entry`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use nodefz::{DecisionTrace, Mode, ReplayStatusHandle, TraceHandle};
use nodefz_apps::common::{BugCase, RunCfg, Variant};
use nodefz_campaign::{
    env_scope, preset_params, resolve_case, shrink, verify_entry, Corpus, CorpusEntry, Deduper,
    Finding, Pruner,
};
use nodefz_hb::CanonBuilder;
use nodefz_rt::{EventLogHandle, LoopPool};
use nodefz_trace::BugSignature;

use crate::common::{micros, Outcome};

/// One run in this many also runs under Vanilla mode, for the
/// Record ÷ Vanilla ratio (paper Figure 8).
const VANILLA_EVERY: u64 = 4;
/// One manifestation in this many is replayed from its recorded trace.
const REPLAY_EVERY: u64 = 4;
/// Acceptance replays per shrunk repro, as campaigns run them.
pub const REPLAY_CHECKS: u32 = 10;

/// Per-arm statistics the fig6 digest covers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArmStats {
    pub hits: u64,
    pub dispatched: u64,
    pub signatures: BTreeSet<String>,
}

/// Summed spans and counts of a probe.
#[derive(Default)]
struct Sums {
    runs: u64,
    hits: u64,
    resolve_us: f64,
    run_us: f64,
    dispatched: u64,
    iterations: u64,
    vtime_ns: u64,
    decisions: u64,
    sig_us: f64,
    snap_us: f64,
    paired_record_us: f64,
    vanilla_us: f64,
    replay_us: f64,
    replays: u64,
    hb_unlogged_us: f64,
    hb_logged_us: f64,
    hb_events: u64,
    canon_us: f64,
    observe_us: f64,
    hb_runs: u64,
    dedup_us: f64,
    dedup_calls: u64,
}

/// Re-drives fuzz runs layer by layer; see the module docs.
pub struct RunProbe {
    pool: LoopPool,
    handle: TraceHandle,
    /// The campaign's own per-run layers, when probed.
    kit: Option<CampaignKit>,
    sums: Sums,
    /// First finding of each signature, in discovery order.
    pub firsts: Vec<Finding>,
    seen: BTreeSet<String>,
    /// Per-arm outcome statistics, keyed by arm label.
    pub arms: BTreeMap<String, ArmStats>,
    /// Runs that panicked (caught).
    pub panics: u64,
}

/// What a campaign adds to every fuzz run: the HB layer (event log,
/// canon, pruner) and the deduper.
struct CampaignKit {
    events: EventLogHandle,
    canon: CanonBuilder,
    scratch: Vec<u64>,
    pruner: Pruner,
    deduper: Deduper,
}

impl RunProbe {
    /// `campaign_layers`: also time what a campaign adds to each run —
    /// the HB layer (event log, canon, pruner) on every run and
    /// `Deduper::insert` on every manifestation.
    pub fn new(campaign_layers: bool) -> RunProbe {
        RunProbe {
            pool: LoopPool::new(),
            handle: TraceHandle::fresh(),
            kit: campaign_layers.then(|| CampaignKit {
                events: EventLogHandle::fresh(),
                canon: CanonBuilder::new(),
                scratch: Vec::new(),
                pruner: Pruner::new(nodefz_campaign::prune::SEEN_CAP),
                deduper: Deduper::new(),
            }),
            sums: Sums::default(),
            firsts: Vec::new(),
            seen: BTreeSet::new(),
            arms: BTreeMap::new(),
            panics: 0,
        }
    }

    /// Wall time of the probe's fuzz runs proper (resolve + record-mode
    /// run + signature + snapshot), in µs: what `fuzz_once` spends.
    pub fn fuzz_us(&self) -> f64 {
        let s = &self.sums;
        s.resolve_us + s.run_us + s.sig_us + s.snap_us
    }

    /// Runs traced so far.
    pub fn runs(&self) -> u64 {
        self.sums.runs
    }

    /// Probes one record-mode fuzz run of `app` under `preset`.
    pub fn run(&mut self, label: &str, app: &str, preset: usize, env_seed: u64) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_inner(label, app, preset, env_seed)
        }));
        if caught.is_err() {
            self.panics += 1;
            // A run that unwound may leave the pooled loop state torn.
            self.pool = LoopPool::new();
            self.handle = TraceHandle::fresh();
        }
    }

    fn run_inner(&mut self, label: &str, app: &str, preset: usize, env_seed: u64) {
        let s = &mut self.sums;
        let t = Instant::now();
        let case = resolve_case(app).expect("fig6 apps resolve");
        s.resolve_us += micros(t);

        let params = preset_params(preset);
        let cfg = RunCfg::new(Mode::Record(params.clone(), self.handle.clone()), env_seed)
            .pooled(&self.pool);
        let t = Instant::now();
        let out = case.run(&cfg, Variant::Buggy);
        let run_us = micros(t);
        s.runs += 1;
        s.run_us += run_us;
        s.dispatched += out.report.dispatched;
        s.iterations += out.report.iterations;
        s.vtime_ns += out.report.end_time.as_nanos();
        s.decisions += self.handle.snapshot().decisions.len() as u64;
        let arm = self.arms.entry(label.to_string()).or_default();
        arm.dispatched += out.report.dispatched;

        let mut finding = None;
        if out.manifested {
            s.hits += 1;
            arm.hits += 1;
            let t = Instant::now();
            let signature = BugSignature::new(app, &out.detail, &out.report.schedule);
            s.sig_us += micros(t);
            let t = Instant::now();
            let trace = self.handle.snapshot();
            s.snap_us += micros(t);
            arm.signatures.insert(signature.to_string());
            if s.hits % REPLAY_EVERY == 1 {
                let replay = RunCfg::new(
                    Mode::Replay(trace.clone(), ReplayStatusHandle::fresh()),
                    env_seed,
                )
                .pooled(&self.pool);
                let t = Instant::now();
                case.run(&replay, Variant::Buggy);
                s.replay_us += micros(t);
                s.replays += 1;
            }
            finding = Some(Finding {
                app: app.to_string(),
                preset,
                env_seed,
                detail: out.detail.clone(),
                signature,
                trace,
            });
        }

        if s.runs.is_multiple_of(VANILLA_EVERY) {
            let vanilla = RunCfg::new(Mode::Vanilla, env_seed).pooled(&self.pool);
            let t = Instant::now();
            case.run(&vanilla, Variant::Buggy);
            s.vanilla_us += micros(t);
            s.paired_record_us += run_us;
        }

        if let Some(kit) = &mut self.kit {
            let logged = RunCfg::new(Mode::Record(params, self.handle.clone()), env_seed)
                .pooled(&self.pool)
                .events(&kit.events);
            let t = Instant::now();
            case.run(&logged, Variant::Buggy);
            s.hb_logged_us += micros(t);
            s.hb_unlogged_us += run_us;
            s.hb_runs += 1;
            let (key, events, canon_us) = kit.events.with(|log| {
                let t = Instant::now();
                let key = kit.canon.build(log, &mut kit.scratch);
                (key, log.events.len() as u64, micros(t))
            });
            s.hb_events += events;
            s.canon_us += canon_us;
            let t = Instant::now();
            kit.pruner.observe(
                key,
                env_scope(app, env_seed),
                finding.as_ref().map(|f| &f.signature),
            );
            s.observe_us += micros(t);
        }

        if let Some(finding) = finding {
            let name = finding.signature.to_string();
            let first = self.seen.insert(name).then(|| finding.clone());
            if let Some(kit) = &mut self.kit {
                let t = Instant::now();
                kit.deduper.insert(finding);
                s.dedup_us += micros(t);
                s.dedup_calls += 1;
            }
            if let Some(first) = first {
                self.firsts.push(first);
            }
        }
    }

    /// Fills the rt / core / apps / trace (and, when the campaign layers
    /// are probed, hb and `campaign.dedup_us`) rows of the per-layer
    /// table.
    pub fn report(&self, out: &mut Outcome) {
        let s = &self.sums;
        let runs = s.runs.max(1) as f64;
        out.put("rt.run_us", s.run_us / runs, "us");
        out.put("rt.callbacks_per_run", s.dispatched as f64 / runs, "count");
        out.put(
            "rt.ns_per_callback",
            s.run_us * 1e3 / s.dispatched.max(1) as f64,
            "ns",
        );
        out.put("rt.iterations_per_run", s.iterations as f64 / runs, "count");
        out.put("rt.vtime_ms_per_run", s.vtime_ns as f64 / 1e6 / runs, "ms");
        out.put("core.decisions_per_run", s.decisions as f64 / runs, "count");
        out.put(
            "core.fuzz_overhead",
            ratio(s.paired_record_us, s.vanilla_us),
            "ratio",
        );
        out.put(
            "core.replay_us",
            s.replay_us / s.replays.max(1) as f64,
            "us",
        );
        out.put("apps.manifest_rate", s.hits as f64 / runs, "ratio");
        out.put("apps.resolve_us", s.resolve_us / runs, "us");
        let hits = s.hits.max(1) as f64;
        out.put("trace.signature_us", s.sig_us / hits, "us");
        out.put("trace.snapshot_us", s.snap_us / hits, "us");
        if let Some(kit) = &self.kit {
            let hb_runs = s.hb_runs.max(1) as f64;
            out.put(
                "hb.log_overhead",
                ratio(s.hb_logged_us, s.hb_unlogged_us),
                "ratio",
            );
            out.put("hb.events_per_run", s.hb_events as f64 / hb_runs, "count");
            out.put("hb.canon_us", s.canon_us / hb_runs, "us");
            out.put("hb.observe_us", s.observe_us / hb_runs, "us");
            out.put(
                "hb.redundancy",
                kit.pruner.counters().redundancy_ratio(),
                "ratio",
            );
            out.put(
                "campaign.dedup_us",
                s.dedup_us / s.dedup_calls.max(1) as f64,
                "us",
            );
        }
    }

    /// HB-layer cost of one campaign run on top of `fuzz_us`: the event
    /// log's extra run time plus canon and pruner, in µs per run.
    pub fn hb_extra_us_per_run(&self) -> f64 {
        let s = &self.sums;
        (s.hb_logged_us - s.hb_unlogged_us + s.canon_us + s.observe_us) / s.hb_runs.max(1) as f64
    }

    /// Mean `fuzz_us` per run.
    pub fn fuzz_us_per_run(&self) -> f64 {
        self.fuzz_us() / self.sums.runs.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether replaying `trace` against `case` under `env_seed` manifests
/// `expected` — the oracle campaigns shrink and accept repros with.
fn replays_to(
    case: &dyn BugCase,
    env_seed: u64,
    trace: &DecisionTrace,
    expected: &BugSignature,
) -> bool {
    let mode = Mode::Replay(trace.clone(), ReplayStatusHandle::fresh());
    let out = case.run(&RunCfg::new(mode, env_seed), Variant::Buggy);
    out.manifested
        && &BugSignature::new(&expected.app, &out.detail, &out.report.schedule) == expected
}

/// What [`campaign_layer`] measured.
pub struct CampaignLayer {
    /// The `campaign.*` rows of the per-layer table.
    pub rows: Vec<(&'static str, f64, &'static str)>,
    /// Wall time of shrink + acceptance replays + save, per repro (ms).
    pub per_repro_ms: f64,
    /// Acceptance replays attempted and failed.
    pub replays: u64,
    pub replays_failed: u64,
    /// Entries verified and failed.
    pub verified: u64,
    pub verify_failed: u64,
}

/// Times what a campaign does with each new signature's first finding:
/// `shrink`, [`REPLAY_CHECKS`] acceptance replays, `Corpus::save` into
/// `corpus_dir`, then `verify_entry` on the saved entry.
pub fn campaign_layer(firsts: &[Finding], corpus_dir: &Path) -> Result<CampaignLayer, String> {
    let corpus = Corpus::open(corpus_dir).map_err(|e| format!("corpus: {e}"))?;
    let (mut shrink_ms, mut shrink_runs, mut ratio_sum) = (0.0, 0u64, 0.0);
    let (mut save_us, mut bytes, mut verify_ms) = (0.0, 0usize, 0.0);
    let (mut replays, mut replays_ok, mut verify_failed) = (0u64, 0u64, 0u64);
    let mut repro_ms = 0.0;
    for f in firsts {
        let case = resolve_case(&f.app).ok_or_else(|| format!("unknown app {}", f.app))?;
        let t_repro = Instant::now();
        let t = Instant::now();
        let shrunk = shrink(&f.trace, |t| {
            replays_to(case.as_ref(), f.env_seed, t, &f.signature)
        });
        shrink_ms += micros(t) / 1e3;
        shrink_runs += shrunk.runs;
        ratio_sum += shrunk.trace.decisions.len() as f64 / f.trace.decisions.len().max(1) as f64;
        let ok = (0..REPLAY_CHECKS)
            .filter(|_| replays_to(case.as_ref(), f.env_seed, &shrunk.trace, &f.signature))
            .count() as u32;
        replays += u64::from(REPLAY_CHECKS);
        replays_ok += u64::from(ok);
        let entry = CorpusEntry {
            app: f.app.clone(),
            env_seed: f.env_seed,
            site: f.signature.site.clone(),
            kinds: f.signature.kinds,
            hits: 1,
            replays_ok: ok,
            trace: shrunk.trace,
        };
        let t = Instant::now();
        corpus.save(&entry).map_err(|e| format!("corpus: {e}"))?;
        save_us += micros(t);
        repro_ms += micros(t_repro) / 1e3;
        bytes += entry.encode().len();
        let t = Instant::now();
        if verify_entry(&entry).is_err() {
            verify_failed += 1;
        }
        verify_ms += micros(t) / 1e3;
    }
    let n = firsts.len().max(1) as f64;
    Ok(CampaignLayer {
        rows: vec![
            ("campaign.shrink_ms", shrink_ms / n, "ms"),
            ("campaign.shrink_replays", shrink_runs as f64 / n, "count"),
            ("campaign.shrink_ratio", ratio_sum / n, "ratio"),
            (
                "campaign.replay_ok",
                replays_ok as f64 / replays.max(1) as f64,
                "ratio",
            ),
            ("campaign.corpus_save_us", save_us / n, "us"),
            ("campaign.corpus_bytes", bytes as f64 / n, "bytes"),
            ("campaign.verify_ms", verify_ms / n, "ms"),
        ],
        per_repro_ms: repro_ms / n,
        replays,
        replays_failed: replays - replays_ok,
        verified: firsts.len() as u64,
        verify_failed,
    })
}
