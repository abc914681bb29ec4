//! Persisted-format compatibility: `nodefz-trace v1` and `nodefz-repro v1`
//! documents written by earlier builds (before site interning and the
//! id-based hot path) must still parse, re-encode byte-identically, and
//! replay to the same schedule. The literals below are frozen copies of
//! the pre-interning on-disk format — do not regenerate them from code.

use nodefz::{decode_trace, encode_trace, Mode, ReplayStatusHandle, TraceHandle};
use nodefz_campaign::CorpusEntry;
use nodefz_rt::{EventLoop, LoopConfig, PoolMode, VDur};

/// A `nodefz-trace v1` document exactly as the seed build wrote it.
const LEGACY_TRACE: &str = "nodefz-trace v1\n\
pool serialized inf 100000\n\
demux 1\n\
t run\n\
t defer 5000000\n\
s 2 0 1\n\
s\n\
s 1 0 3 2 4 5 6 7 8 9 10 11\n\
r 1\n\
r 0\n\
c 0\n\
p 3\n\
end\n";

/// A `nodefz-repro v1` corpus entry exactly as the seed build wrote it.
const LEGACY_REPRO: &str = "nodefz-repro v1\n\
app KUE\n\
env_seed 12345\n\
site lost # of # jobs\n\
kinds 1042\n\
hits 17\n\
replays_ok 10\n\
--- trace\n\
nodefz-trace v1\n\
pool concurrent 4\n\
demux 0\n\
t run\n\
s 1 0\n\
p 0\n\
end\n";

#[test]
fn legacy_trace_document_round_trips_byte_identically() {
    let trace = decode_trace(LEGACY_TRACE).expect("pre-interning trace parses");
    assert_eq!(trace.decisions.len(), 9);
    assert_eq!(
        trace.pool_mode,
        PoolMode::Serialized {
            lookahead: usize::MAX,
            max_delay: VDur::micros(100),
        }
    );
    assert!(trace.demux_done);
    assert_eq!(encode_trace(&trace), LEGACY_TRACE);
}

#[test]
fn legacy_repro_document_round_trips_byte_identically() {
    let entry = CorpusEntry::decode(LEGACY_REPRO).expect("pre-interning repro parses");
    assert_eq!(entry.app, "KUE");
    assert_eq!(entry.env_seed, 12345);
    assert_eq!(entry.site, "lost # of # jobs");
    assert_eq!(entry.kinds, 1042);
    assert_eq!(entry.hits, 17);
    assert_eq!(entry.replays_ok, 10);
    assert_eq!(entry.trace.decisions.len(), 3);
    assert_eq!(entry.encode(), LEGACY_REPRO);
}

/// A trace recorded by the current build, serialized, decoded, and
/// replayed must reproduce the recorded run exactly — the full disk
/// round trip a corpus entry takes between campaigns.
#[test]
fn recorded_trace_survives_the_disk_format_and_replays_identically() {
    fn program(el: &mut EventLoop) {
        el.enter(|cx| {
            for i in 1..6u64 {
                cx.set_timeout(VDur::micros(i * 211), move |cx| {
                    cx.submit_work(VDur::micros(70), |_| (), |_, ()| {})
                        .unwrap();
                });
            }
        });
    }
    let handle = TraceHandle::fresh();
    let params = nodefz::FuzzParams::standard();
    let mut el = Mode::Record(params, handle.clone()).build_loop(LoopConfig::seeded(11), 31);
    program(&mut el);
    let original = el.run();

    let text = encode_trace(&handle.snapshot());
    let decoded = decode_trace(&text).expect("self-encoded trace decodes");
    let status = ReplayStatusHandle::fresh();
    let mut el = Mode::Replay(decoded, status.clone()).build_loop(LoopConfig::seeded(11), 0);
    program(&mut el);
    let replayed = el.run();

    assert_eq!(original.schedule, replayed.schedule);
    assert_eq!(original.end_time, replayed.end_time);
    status
        .verdict()
        .expect("faithful replay after disk round trip");
}

/// A `nodefz-throughput-v1` bench document exactly as the pre-pruning
/// build wrote it (abridged to two arms) — frozen, do not regenerate.
const LEGACY_BENCH: &str = r#"{
  "schema": "nodefz-throughput-v1",
  "warmup_ms": 100,
  "window_ms": 400,
  "base_seed": 1,
  "arms": [
    {"app": "GHO", "preset": "standard", "runs": 14506, "events": 1077523, "elapsed_ms": 400.009, "execs_per_sec": 36264.2, "events_per_sec": 2693748.5},
    {"app": "CLF", "preset": "aggressive", "runs": 36273, "events": 831506, "elapsed_ms": 400.007, "execs_per_sec": 90681.0, "events_per_sec": 2078730.4}
  ],
  "total": {"runs": 50779, "elapsed_ms": 800.016, "execs_per_sec": 63472.5, "events_per_sec": 2386213.1}
}
"#;

#[test]
fn legacy_bench_document_reads_back_without_pruning_columns() {
    let summary = nodefz_campaign::read_summary(LEGACY_BENCH).expect("v1 bench parses");
    assert_eq!(summary.schema, "nodefz-throughput-v1");
    assert_eq!(summary.total_execs_per_sec, 63472.5);
    assert_eq!(
        summary.total_distinct_per_sec, None,
        "v1 documents predate canonicalization"
    );
    assert_eq!(summary.arms.len(), 2);
    let gho = &summary.arms[0];
    assert_eq!((gho.app.as_str(), gho.preset.as_str()), ("GHO", "standard"));
    assert_eq!(gho.execs_per_sec, 36264.2);
    assert_eq!(gho.distinct_per_sec, None);
    assert_eq!(gho.redundancy_ratio, None);
}

/// A final `nodefz-metrics-v1` snapshot as the build before the repro
/// stage was accounted wrote it (`--apps KUE --presets standard --budget 6
/// --threads 1 --seed 3 --prune`) — frozen, do not regenerate.
const LEGACY_METRICS: &str = r#"{"schema": "nodefz-metrics-v1", "elapsed_ms": 2, "budget": 6, "runs": 6, "dispatched": 416, "manifested": 4, "unique_bugs": 1, "execs_per_sec": 2478.2, "finished": true, "arms": [{"app": "KUE", "preset": "standard", "pulls": 6, "mean_reward": 0.327680, "ucb_bound": 0.600914, "diversity": {"runs": 6, "mean_pairwise_ld": 0.251379, "min_pairwise_ld": 0.166667, "max_pairwise_ld": 0.320513, "distinct": 6, "mean_len": 69.3, "kind_entropy": 1.580811, "truncation": 20000}}], "discovery": [{"signature": "KUE:15bdb893f134167a", "app": "KUE", "site": "final state some(\"*\"), # retry queue entr(ies)", "first_exec": 1, "first_ms": 0}], "phases": [], "callbacks": [], "run_dispatched": {"bounds": [64, 128, 256, 512, 1024, 2048, 4096, 8192], "buckets": [0, 6, 0, 0, 0, 0, 0, 0, 0], "count": 6, "sum": 416, "mean": 69.3}, "pruning": {"runs": 6, "distinct": 6, "redundant": 0, "mismatches": 0, "seen_occupancy": 6, "seen_evictions": 0, "seen_hits": 0, "redundancy_ratio": 0.000000}}
"#;

/// Top-level keys of a parsed JSON object, in document order.
fn keys(doc: &nodefz_obs::JsonValue) -> Vec<&str> {
    match doc {
        nodefz_obs::JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// The `repro` block is additive: a snapshot without it still reads, and
/// the current build writes the same document plus that one block.
#[test]
fn metrics_snapshots_read_with_and_without_the_repro_block() {
    let legacy = nodefz_obs::JsonValue::parse(LEGACY_METRICS).expect("legacy snapshot parses");
    nodefz_obs::expect_schema(&legacy, "nodefz-metrics-v1").expect("same schema version");
    assert!(legacy.get("repro").is_none());
    // The fields the orchestrator and the benchmark read back.
    assert_eq!(legacy.get("runs").and_then(|v| v.as_u64()), Some(6));
    let first = &legacy.get("discovery").and_then(|d| d.as_array()).unwrap()[0];
    assert_eq!(first.get("first_exec").and_then(|v| v.as_u64()), Some(1));
    let pruning = legacy.get("pruning").unwrap();
    assert_eq!(pruning.get("distinct").and_then(|v| v.as_u64()), Some(6));

    let path =
        std::env::temp_dir().join(format!("nodefz-compat-metrics-{}.json", std::process::id()));
    let cfg = nodefz_campaign::CampaignConfig {
        threads: 1,
        budget: 6,
        apps: vec!["KUE".into()],
        presets: vec![0],
        base_seed: 3,
        prune: true,
        metrics_out: Some(path.clone()),
        ..nodefz_campaign::CampaignConfig::default()
    };
    nodefz_campaign::run(&cfg).expect("campaign runs");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let current = nodefz_obs::JsonValue::parse(&text).expect("current snapshot parses");
    let mut expected = keys(&legacy);
    expected.push("repro");
    assert_eq!(keys(&current), expected, "{text}");
    let repro = current.get("repro").unwrap();
    assert_eq!(repro.get("jobs").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(repro.get("max_pending").and_then(|v| v.as_u64()), Some(1));
}
