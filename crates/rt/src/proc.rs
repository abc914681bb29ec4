//! Simulated child processes.
//!
//! §4.2.1 of the paper lists child processes among the server-side
//! nondeterminism sources. A spawned child is an environment actor: it
//! emits output chunks at scheduled offsets and exits after a (jittered)
//! runtime. Output and exit arrive as poll events on the child's pipe
//! descriptor — fuzzable like everything else. `SIGCHLD` is raised at exit
//! for programs that watch it.

use std::collections::VecDeque;

use crate::poll::Fd;
use crate::time::VDur;

/// Identifier of a spawned child process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// Specification of a child process to spawn.
#[derive(Clone, Debug)]
pub struct ChildSpec {
    /// Nominal runtime until exit (jittered by the environment RNG).
    pub runtime: VDur,
    /// Exit code reported at termination.
    pub exit_code: i32,
    /// Output chunks: (offset from spawn, bytes). Offsets are clamped to
    /// the child's actual lifetime.
    pub output: Vec<(VDur, Vec<u8>)>,
}

impl ChildSpec {
    /// A child that just runs for `runtime` and exits 0.
    pub fn sleeper(runtime: VDur) -> ChildSpec {
        ChildSpec {
            runtime,
            exit_code: 0,
            output: Vec::new(),
        }
    }

    /// Adds an output chunk.
    pub fn with_output(mut self, offset: VDur, bytes: impl Into<Vec<u8>>) -> ChildSpec {
        self.output.push((offset, bytes.into()));
        self
    }

    /// Sets the exit code.
    pub fn with_exit_code(mut self, code: i32) -> ChildSpec {
        self.exit_code = code;
        self
    }
}

/// An event observable on a child's pipe.
pub(crate) enum ChildEvent {
    Output(Vec<u8>),
    Exit(i32),
}

pub(crate) struct ChildState {
    pub pid: Pid,
    pub fd: Fd,
    pub inbox: VecDeque<ChildEvent>,
    pub killed: bool,
    pub exited: bool,
}

#[derive(Default)]
pub(crate) struct ProcTable {
    pub children: Vec<ChildState>,
    pub next_pid: u32,
}

impl ProcTable {
    pub fn next_pid(&mut self) -> Pid {
        self.next_pid += 1;
        Pid(self.next_pid)
    }

    pub fn get_mut(&mut self, pid: Pid) -> Option<&mut ChildState> {
        self.children.iter_mut().find(|c| c.pid == pid)
    }

    pub fn by_fd(&mut self, fd: Fd) -> Option<&mut ChildState> {
        self.children.iter_mut().find(|c| c.fd == fd)
    }

    pub fn remove(&mut self, pid: Pid) -> Option<ChildState> {
        let idx = self.children.iter().position(|c| c.pid == pid)?;
        Some(self.children.swap_remove(idx))
    }

    pub fn running(&self) -> usize {
        self.children.iter().filter(|c| !c.exited).count()
    }

    /// Clears all state for a fresh run, keeping allocated capacity.
    pub fn reset(&mut self) {
        self.children.clear();
        self.next_pid = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder() {
        let spec = ChildSpec::sleeper(VDur::millis(5))
            .with_output(VDur::millis(1), b"hello".to_vec())
            .with_exit_code(3);
        assert_eq!(spec.runtime, VDur::millis(5));
        assert_eq!(spec.exit_code, 3);
        assert_eq!(spec.output.len(), 1);
    }

    #[test]
    fn table_pid_allocation_and_lookup() {
        let mut t = ProcTable::default();
        let a = t.next_pid();
        let b = t.next_pid();
        assert_ne!(a, b);
        t.children.push(ChildState {
            pid: a,
            fd: Fd(9),
            inbox: VecDeque::new(),
            killed: false,
            exited: false,
        });
        assert_eq!(t.running(), 1);
        assert!(t.get_mut(a).is_some());
        assert!(t.by_fd(Fd(9)).is_some());
        assert!(t.get_mut(b).is_none());
        assert!(t.remove(a).is_some());
        assert_eq!(t.running(), 0);
    }
}
