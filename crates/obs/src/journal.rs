//! Campaign flight recorder: a bounded, single-writer ring-buffer
//! journal of structured campaign events with a `nodefz-journal-v1`
//! JSON-lines codec.
//!
//! A long campaign produces far more decisions than anyone can keep —
//! the journal keeps the most recent `cap` of them, counting what it
//! sheds, so a post-mortem always has the tail that led to the outcome.
//! The writer is the single owning thread (the campaign driver or the
//! orchestrator main loop); there is no interior locking or shared
//! mutability anywhere on the push path, and every push is O(1) with no
//! allocation beyond the event payload itself.
//!
//! On disk the journal is JSON lines: a header object
//! (`{"schema": "nodefz-journal-v1", ...}`) followed by one object per
//! retained event. Sequence numbers are global and monotone, so a gap
//! after the header's `dropped` count is visible evidence of shedding,
//! not corruption. Documents are streamed to a temp file and renamed
//! into place, as [`crate::write_atomic`] does, so a concurrent reader
//! (the orchestrator scraping worker journals) never sees a torn file.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::fsio::write_atomic_with;
use crate::{JsonValue, JsonWriter};

/// Schema identifier written in the journal header line.
pub const JOURNAL_SCHEMA: &str = "nodefz-journal-v1";

/// Default ring capacity used by campaign and orchestrator journals.
pub const JOURNAL_CAP: usize = 4096;

/// Outcome of classifying one completed run against the seen-class set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneOutcome {
    /// First time this HB-equivalence class was executed.
    Distinct,
    /// The class had already been executed; the run was redundant.
    Redundant,
    /// The class was dispositioned without a full execution. No current
    /// producer emits it; older journals carry it and still parse.
    Forked,
    /// The per-environment outcome memo disagreed with this run — the
    /// soundness tripwire.
    Mismatch,
}

impl PruneOutcome {
    /// The on-disk spelling of this verdict.
    pub fn label(&self) -> &'static str {
        match self {
            PruneOutcome::Distinct => "distinct",
            PruneOutcome::Redundant => "redundant",
            PruneOutcome::Forked => "forked",
            PruneOutcome::Mismatch => "mismatch",
        }
    }

    /// Parses the on-disk spelling.
    pub fn parse(s: &str) -> Option<PruneOutcome> {
        match s {
            "distinct" => Some(PruneOutcome::Distinct),
            "redundant" => Some(PruneOutcome::Redundant),
            "forked" => Some(PruneOutcome::Forked),
            "mismatch" => Some(PruneOutcome::Mismatch),
            _ => None,
        }
    }
}

/// A worker process lifecycle transition, recorded by the orchestrator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// The worker process was spawned.
    Spawned,
    /// The worker exited and was reaped (reason carries the outcome).
    Reaped,
    /// The worker's arm was quarantined (reason carries why).
    Quarantined,
}

impl WorkerState {
    /// The on-disk spelling of this state.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerState::Spawned => "spawned",
            WorkerState::Reaped => "reaped",
            WorkerState::Quarantined => "quarantined",
        }
    }

    /// Parses the on-disk spelling.
    pub fn parse(s: &str) -> Option<WorkerState> {
        match s {
            "spawned" => Some(WorkerState::Spawned),
            "reaped" => Some(WorkerState::Reaped),
            "quarantined" => Some(WorkerState::Quarantined),
            _ => None,
        }
    }
}

/// One structured campaign event.
///
/// `exec` fields are completed-execution indices at the moment the event
/// was recorded, so events from one journal totally order against the
/// discovery curve in the matching `nodefz-metrics-v1` snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A bandit arm selection, with the decision-time posterior state.
    ///
    /// The campaign driver's UCB bandit fills `mean_reward`/`ucb`; the
    /// orchestrator's Thompson scheduler fills `successes`/`failures`.
    ArmPull {
        /// Completed executions when the pull was made.
        exec: u64,
        /// Arm label (`"GHO/aggressive"`, `"KUE/directed"`, ...).
        arm: String,
        /// Pulls of this arm so far, including this one.
        pulls: u64,
        /// Mean observed reward of the arm at decision time.
        mean_reward: f64,
        /// UCB bound at decision time (None before every arm has a pull,
        /// or under a posterior-sampling scheduler).
        ucb: Option<f64>,
        /// Beta-posterior success pseudo-count (Thompson scheduler).
        successes: Option<f64>,
        /// Beta-posterior failure pseudo-count (Thompson scheduler).
        failures: Option<f64>,
    },
    /// The Pruner's verdict for one classified run.
    Prune {
        /// Completed executions when the run was classified.
        exec: u64,
        /// The verdict.
        verdict: PruneOutcome,
    },
    /// A worker process lifecycle transition (orchestrator journals).
    Worker {
        /// Global work-item index.
        index: u64,
        /// Arm label the worker is running.
        arm: String,
        /// The transition.
        state: WorkerState,
        /// Outcome or quarantine reason (`"ok"`, `"crashed"`, ...).
        reason: Option<String>,
    },
    /// A unique-bug discovery, keyed by completed-execution index.
    Discovery {
        /// Completed executions when the bug first manifested.
        exec: u64,
        /// App abbreviation.
        app: String,
        /// Failure-signature site (the deduplication key's site part).
        site: String,
    },
}

impl JournalEvent {
    /// The `kind` discriminator written on the event's JSON line.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::ArmPull { .. } => "arm_pull",
            JournalEvent::Prune { .. } => "prune",
            JournalEvent::Worker { .. } => "worker",
            JournalEvent::Discovery { .. } => "discovery",
        }
    }
}

/// One retained journal entry: the event plus its stamps.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Global monotone sequence number (gaps = shed events).
    pub seq: u64,
    /// Milliseconds since the journal was created.
    pub t_ms: u64,
    /// The event payload.
    pub event: JournalEvent,
}

/// Errors from [`Journal::decode`].
#[derive(Debug)]
pub struct JournalDecodeError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JournalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JournalDecodeError {}

/// The bounded single-writer flight recorder.
pub struct Journal {
    cap: usize,
    start: Instant,
    buf: VecDeque<JournalEntry>,
    next_seq: u64,
    dropped: u64,
}

impl Journal {
    /// A new journal retaining at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Journal {
        Journal {
            cap: cap.max(1),
            start: Instant::now(),
            buf: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records an event, stamped with the elapsed wall time since the
    /// journal was created. Sheds the oldest retained event when full.
    pub fn push(&mut self, event: JournalEvent) {
        let t_ms = self.start.elapsed().as_millis() as u64;
        self.push_at(t_ms, event);
    }

    /// Records an event with an explicit timestamp (deterministic tests,
    /// replaying a decoded journal).
    pub fn push_at(&mut self, t_ms: u64, event: JournalEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(JournalEntry {
            seq: self.next_seq,
            t_ms,
            event,
        });
        self.next_seq += 1;
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.buf.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events shed because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the `nodefz-journal-v1` JSON-lines document.
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the journal encodes as UTF-8")
    }

    /// Streams the `nodefz-journal-v1` document into `out`: the header
    /// line, then one line per retained entry.
    fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", JOURNAL_SCHEMA);
        w.field_u64("cap", self.cap as u64);
        w.field_u64("dropped", self.dropped);
        w.field_u64("events", self.buf.len() as u64);
        w.end_object();
        writeln!(out, "{}", w.finish())?;
        for entry in &self.buf {
            writeln!(out, "{}", encode_entry(entry))?;
        }
        Ok(())
    }

    /// Parses a `nodefz-journal-v1` document back into a journal.
    ///
    /// The reconstructed journal preserves capacity, dropped count,
    /// sequence numbers, and timestamps; pushing into it continues the
    /// sequence.
    pub fn decode(text: &str) -> Result<Journal, JournalDecodeError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(JournalDecodeError {
            line: 1,
            message: "empty document".into(),
        })?;
        let header = JsonValue::parse(header).map_err(|e| JournalDecodeError {
            line: 1,
            message: e.to_string(),
        })?;
        crate::schema::expect_schema(&header, JOURNAL_SCHEMA).map_err(|e| JournalDecodeError {
            line: 1,
            message: e.to_string(),
        })?;
        let cap = field_u64(&header, "cap", 1)? as usize;
        let dropped = field_u64(&header, "dropped", 1)?;
        let mut journal = Journal::new(cap);
        journal.dropped = dropped;
        journal.next_seq = dropped;
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let entry = decode_entry(line, idx + 1)?;
            if journal.buf.len() == journal.cap {
                return Err(JournalDecodeError {
                    line: idx + 1,
                    message: format!("more than cap={} events retained", journal.cap),
                });
            }
            if entry.seq < journal.next_seq {
                return Err(JournalDecodeError {
                    line: idx + 1,
                    message: format!("seq {} not monotone (next {})", entry.seq, journal.next_seq),
                });
            }
            journal.next_seq = entry.seq + 1;
            journal.buf.push_back(entry);
        }
        Ok(journal)
    }

    /// Atomically persists the document (temp file + rename), streaming
    /// it line by line rather than rendering it whole first.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_atomic_with(path, |out| self.write_to(out))
    }
}

/// Renders one entry as its JSON line (no trailing newline).
pub fn encode_entry(entry: &JournalEntry) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("seq", entry.seq);
    w.field_u64("t_ms", entry.t_ms);
    w.field_str("kind", entry.event.kind());
    match &entry.event {
        JournalEvent::ArmPull {
            exec,
            arm,
            pulls,
            mean_reward,
            ucb,
            successes,
            failures,
        } => {
            w.field_u64("exec", *exec);
            w.field_str("arm", arm);
            w.field_u64("pulls", *pulls);
            w.field_f64("mean_reward", *mean_reward, 6);
            opt_f64(&mut w, "ucb", *ucb);
            opt_f64(&mut w, "successes", *successes);
            opt_f64(&mut w, "failures", *failures);
        }
        JournalEvent::Prune { exec, verdict } => {
            w.field_u64("exec", *exec);
            w.field_str("verdict", verdict.label());
        }
        JournalEvent::Worker {
            index,
            arm,
            state,
            reason,
        } => {
            w.field_u64("index", *index);
            w.field_str("arm", arm);
            w.field_str("state", state.label());
            match reason {
                Some(r) => w.field_str("reason", r),
                None => {
                    w.key("reason");
                    w.null();
                }
            }
        }
        JournalEvent::Discovery { exec, app, site } => {
            w.field_u64("exec", *exec);
            w.field_str("app", app);
            w.field_str("site", site);
        }
    }
    w.end_object();
    w.finish()
}

/// Parses one event line (1-based `line` for error reporting).
pub fn decode_entry(text: &str, line: usize) -> Result<JournalEntry, JournalDecodeError> {
    let err = |message: String| JournalDecodeError { line, message };
    let v = JsonValue::parse(text).map_err(|e| err(e.to_string()))?;
    let seq = field_u64(&v, "seq", line)?;
    let t_ms = field_u64(&v, "t_ms", line)?;
    let kind = v
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| err("missing kind".into()))?;
    let event = match kind {
        "arm_pull" => JournalEvent::ArmPull {
            exec: field_u64(&v, "exec", line)?,
            arm: field_str(&v, "arm", line)?,
            pulls: field_u64(&v, "pulls", line)?,
            mean_reward: field_f64(&v, "mean_reward", line)?,
            ucb: opt_field_f64(&v, "ucb"),
            successes: opt_field_f64(&v, "successes"),
            failures: opt_field_f64(&v, "failures"),
        },
        "prune" => {
            let verdict = field_str(&v, "verdict", line)?;
            JournalEvent::Prune {
                exec: field_u64(&v, "exec", line)?,
                verdict: PruneOutcome::parse(&verdict)
                    .ok_or_else(|| err(format!("bad prune verdict {verdict:?}")))?,
            }
        }
        "worker" => {
            let state = field_str(&v, "state", line)?;
            JournalEvent::Worker {
                index: field_u64(&v, "index", line)?,
                arm: field_str(&v, "arm", line)?,
                state: WorkerState::parse(&state)
                    .ok_or_else(|| err(format!("bad worker state {state:?}")))?,
                reason: v
                    .get("reason")
                    .and_then(|r| r.as_str())
                    .map(|s| s.to_string()),
            }
        }
        "discovery" => JournalEvent::Discovery {
            exec: field_u64(&v, "exec", line)?,
            app: field_str(&v, "app", line)?,
            site: field_str(&v, "site", line)?,
        },
        other => return Err(err(format!("unknown event kind {other:?}"))),
    };
    Ok(JournalEntry { seq, t_ms, event })
}

fn opt_f64(w: &mut JsonWriter, key: &str, v: Option<f64>) {
    match v {
        Some(x) => w.field_f64(key, x, 6),
        None => {
            w.key(key);
            w.null();
        }
    }
}

fn field_u64(v: &JsonValue, key: &str, line: usize) -> Result<u64, JournalDecodeError> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| JournalDecodeError {
            line,
            message: format!("missing or non-integer field {key:?}"),
        })
}

fn field_f64(v: &JsonValue, key: &str, line: usize) -> Result<f64, JournalDecodeError> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| JournalDecodeError {
            line,
            message: format!("missing or non-number field {key:?}"),
        })
}

fn field_str(v: &JsonValue, key: &str, line: usize) -> Result<String, JournalDecodeError> {
    v.get(key)
        .and_then(|x| x.as_str())
        .map(|s| s.to_string())
        .ok_or_else(|| JournalDecodeError {
            line,
            message: format!("missing or non-string field {key:?}"),
        })
}

fn opt_field_f64(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pull(exec: u64) -> JournalEvent {
        JournalEvent::ArmPull {
            exec,
            arm: "GHO/aggressive".into(),
            pulls: exec + 1,
            mean_reward: 0.25,
            ucb: Some(1.5),
            successes: None,
            failures: None,
        }
    }

    #[test]
    fn ring_sheds_oldest_and_counts_drops() {
        let mut j = Journal::new(3);
        for i in 0..5 {
            j.push_at(i, pull(i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        let seqs: Vec<u64> = j.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn document_round_trips_byte_identically() {
        let mut j = Journal::new(8);
        j.push_at(0, pull(0));
        j.push_at(
            3,
            JournalEvent::Prune {
                exec: 1,
                verdict: PruneOutcome::Redundant,
            },
        );
        j.push_at(
            5,
            JournalEvent::Worker {
                index: 2,
                arm: "KUE/directed".into(),
                state: WorkerState::Quarantined,
                reason: Some("crashed".into()),
            },
        );
        j.push_at(
            9,
            JournalEvent::Discovery {
                exec: 7,
                app: "GHO".into(),
                site: "gho:user-row".into(),
            },
        );
        let text = j.encode();
        let back = Journal::decode(&text).expect("decodes");
        assert_eq!(back.encode(), text);
        assert_eq!(back.len(), 4);
        assert_eq!(back.dropped(), 0);
    }

    #[test]
    fn streamed_write_matches_encode_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("nodefz-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut j = Journal::new(8);
        j.push_at(0, pull(0));
        let orch_pull = JournalEvent::ArmPull {
            exec: 40,
            arm: "KUE/standard/fuzz".into(),
            pulls: 2,
            mean_reward: 0.5,
            ucb: None,
            successes: Some(1.0),
            failures: Some(1.0),
        };
        j.push_at(1, orch_pull);
        for (t, verdict) in [
            PruneOutcome::Distinct,
            PruneOutcome::Redundant,
            PruneOutcome::Forked,
            PruneOutcome::Mismatch,
        ]
        .into_iter()
        .enumerate()
        {
            j.push_at(2 + t as u64, JournalEvent::Prune { exec: 1, verdict });
        }
        for (t, state, reason) in [
            (6, WorkerState::Spawned, None),
            (7, WorkerState::Reaped, Some("stalled".to_string())),
            (8, WorkerState::Quarantined, Some("stalled".to_string())),
        ] {
            j.push_at(
                t,
                JournalEvent::Worker {
                    index: 3,
                    arm: "KUE/directed".into(),
                    state,
                    reason,
                },
            );
        }
        j.push_at(
            9,
            JournalEvent::Discovery {
                exec: 7,
                app: "GHO".into(),
                site: "gho:user-row \"quoted\"".into(),
            },
        );
        // Ten events in a ring of eight: the header counts two dropped.
        assert_eq!(j.dropped(), 2);
        let path = dir.join("journal.jsonl");
        j.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, j.encode());
        // The header line, then exactly one `encode_entry` line per
        // retained event, each newline-terminated.
        let mut expected = String::from(
            "{\"schema\": \"nodefz-journal-v1\", \"cap\": 8, \"dropped\": 2, \"events\": 8}\n",
        );
        for entry in j.entries() {
            expected.push_str(&encode_entry(entry));
            expected.push('\n');
        }
        assert_eq!(text, expected);
        // Rewriting in place replaces the document.
        j.push_at(10, pull(11));
        j.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, j.encode());
        assert_eq!(Journal::decode(&text).unwrap().encode(), text);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["journal.jsonl".to_string()], "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_continues_the_sequence_after_drops() {
        let mut j = Journal::new(2);
        for i in 0..4 {
            j.push_at(i, pull(i));
        }
        let mut back = Journal::decode(&j.encode()).expect("decodes");
        back.push_at(10, pull(99));
        assert_eq!(back.entries().last().expect("entry").seq, 4);
    }

    #[test]
    fn rejects_torn_and_malformed_documents() {
        assert!(Journal::decode("").is_err());
        assert!(Journal::decode("{\"schema\": \"wrong\"}\n").is_err());
        let mut j = Journal::new(4);
        j.push_at(0, pull(0));
        let text = j.encode();
        let torn = &text[..text.len() - 3];
        assert!(Journal::decode(torn).is_err());
    }
}
