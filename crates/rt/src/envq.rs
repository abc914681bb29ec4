//! The environment timeline.
//!
//! Everything that happens "outside" the process — packets arriving, worker
//! tasks finishing, back-end servers replying — is a timestamped entry in a
//! virtual-time priority queue. Substrates schedule entries (with jittered
//! delays drawn from the environment RNG) and the poll phase drains them,
//! which is how virtual time advances while the loop would block in epoll.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ctx::Ctx;
use crate::pool::TaskId;
use crate::time::VTime;

/// A scheduled environment occurrence.
pub(crate) enum EnvAction {
    /// A running worker-pool task reaches its finish time.
    TaskFinish(TaskId),
    /// Re-examine the worker pool (used by the serialized worker's
    /// lookahead wait, §4.3.4 "max delay").
    PoolWakeup,
    /// An arbitrary environment effect (packet delivery, back-end reply…).
    /// Runs with loop context but is not traced as an application callback.
    /// Carries the event that scheduled it (provenance for the event log;
    /// `None` when no log is attached or the scheduling code was untracked).
    Custom(Box<dyn FnOnce(&mut Ctx<'_>)>, Option<crate::events::CbId>),
}

pub(crate) struct EnvEntry {
    pub at: VTime,
    pub seq: u64,
    pub action: EnvAction,
}

impl PartialEq for EnvEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EnvEntry {}
impl PartialOrd for EnvEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EnvEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
pub(crate) struct EnvQueue {
    heap: BinaryHeap<EnvEntry>,
    next_seq: u64,
}

impl EnvQueue {
    pub fn schedule(&mut self, at: VTime, action: EnvAction) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EnvEntry { at, seq, action });
    }

    /// Earliest scheduled time, if any.
    pub fn next_time(&self) -> Option<VTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next entry if it is due at or before `now`.
    pub fn pop_due(&mut self, now: VTime) -> Option<EnvEntry> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Scheduled entries (due or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_earliest_first() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(30), EnvAction::PoolWakeup);
        q.schedule(VTime(10), EnvAction::PoolWakeup);
        q.schedule(VTime(20), EnvAction::PoolWakeup);
        assert_eq!(q.next_time(), Some(VTime(10)));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(10));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(20));
        assert_eq!(q.pop_due(VTime(100)).unwrap().at, VTime(30));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(10), EnvAction::TaskFinish(TaskId(1)));
        q.schedule(VTime(10), EnvAction::TaskFinish(TaskId(2)));
        let first = q.pop_due(VTime(10)).unwrap();
        let second = q.pop_due(VTime(10)).unwrap();
        match (first.action, second.action) {
            (EnvAction::TaskFinish(a), EnvAction::TaskFinish(b)) => {
                assert_eq!(a, TaskId(1));
                assert_eq!(b, TaskId(2));
            }
            _ => panic!("unexpected actions"),
        }
    }

    #[test]
    fn not_due_stays_queued() {
        let mut q = EnvQueue::default();
        q.schedule(VTime(50), EnvAction::PoolWakeup);
        assert!(q.pop_due(VTime(49)).is_none());
        assert_eq!(q.len(), 1);
        assert!(q.pop_due(VTime(50)).is_some());
    }
}
