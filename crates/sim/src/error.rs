//! Typed simulation errors and deadlock diagnostics.
//!
//! The paper's central claim (§3.2, §6) is that μIR's latency-insensitive
//! execution model preserves behaviour under microarchitectural
//! transformation. When a μopt pass breaks that property — an undersized
//! buffer, a bad junction arbitration, a broken fusion plan — the simulator
//! is the first place the damage shows up, so every failure here carries
//! enough structured context (cycle, task, node, invocation) to localize
//! the transformation that caused it, plus a stable error code for
//! campaign-level bucketing.

use std::fmt;

/// What kind of hardware fault a [`SimError::Fault`] reports.
///
/// These are *detections* — the observable symptom at the ready/valid or
/// memory interface — as opposed to [`crate::fault::FaultClass`], which
/// names the injected root causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A token arrived on an edge out of instance order (dropped or
    /// duplicated token upstream).
    TokenMisorder,
    /// An uncorrectable memory-bank ECC error on a load/store response.
    EccUncorrectable,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::TokenMisorder => write!(f, "token misorder"),
            FaultKind::EccUncorrectable => write!(f, "uncorrectable ECC error"),
        }
    }
}

/// Whether a blocked channel is waiting for space or for a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// The producer cannot push: every register/FIFO slot holds a token.
    Full,
    /// The consumer cannot pop: no (visible) token has arrived.
    Empty,
}

impl fmt::Display for ChannelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelState::Full => write!(f, "full"),
            ChannelState::Empty => write!(f, "empty"),
        }
    }
}

/// One edge of the blocked-channel wait-for cycle: `src` is the node that
/// cannot make progress, waiting on `dst` through `edge`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// Task index.
    pub task: u32,
    /// Task name.
    pub task_name: String,
    /// Edge index within the task's dataflow.
    pub edge: u32,
    /// The waiting node.
    pub src: u32,
    /// The waiting node's name.
    pub src_name: String,
    /// The node being waited on.
    pub dst: u32,
    /// The waited-on node's name.
    pub dst_name: String,
    /// Token capacity of the channel.
    pub capacity: u32,
    /// Why the channel blocks: full (no space) or empty (no token).
    pub state: ChannelState,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} ({}) {} (n{}) -[e{} {}, cap {}]-> {} (n{})",
            self.task,
            self.task_name,
            self.src_name,
            self.src,
            self.edge,
            self.state,
            self.capacity,
            self.dst_name,
            self.dst
        )
    }
}

/// A concrete fix for a buffer-induced deadlock: re-buffer one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSuggestion {
    /// Task index of the edge to re-buffer.
    pub task: u32,
    /// Edge index within that task's dataflow.
    pub edge: u32,
    /// Suggested FIFO depth.
    pub depth: u32,
}

/// Occupancy snapshot of one stuck execution tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckTile {
    /// Task index.
    pub task: u32,
    /// Task name.
    pub task_name: String,
    /// Tile index within the task.
    pub tile: u32,
    /// Loop trip count of the active invocation.
    pub trip: u64,
    /// Instances admitted into the pipeline.
    pub admitted: u64,
    /// Instances retired.
    pub completed: u64,
    /// Spawned child invocations not yet finished.
    pub spawns_outstanding: u32,
}

/// Everything the watchdog learned about a stall: the wait-for cycle over
/// blocked channels (if one exists), per-tile occupancy, outstanding memory
/// traffic, and — when a full channel participates in the cycle — the
/// buffer bump that would break it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// The cycle of blocked channels, in wait-for order (`src` of entry
    /// *i+1* is the `dst` of entry *i*). Empty if the stall has no channel
    /// cycle (e.g. all progress is blocked on memory responses).
    pub wait_cycle: Vec<WaitEdge>,
    /// Occupancy of every still-active tile.
    pub stuck_tiles: Vec<StuckTile>,
    /// Queued-but-not-dispatched invocations per task (task index, depth).
    pub queued: Vec<(u32, usize)>,
    /// Memory requests still outstanding (a nonzero count with an empty
    /// `wait_cycle` points at a lost or timed-out memory response).
    pub mem_outstanding: u32,
    /// Nodes whose output handshake is stuck (task, node) — only populated
    /// under stuck-handshake fault injection.
    pub stuck_nodes: Vec<(u32, u32)>,
    /// Fix for a buffer-induced deadlock, if one of the cycle's channels is
    /// full: re-buffer that edge to the given depth.
    pub suggestion: Option<BufferSuggestion>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.wait_cycle.is_empty() {
            write!(f, "no blocked-channel cycle")?;
        } else {
            write!(f, "blocked-channel cycle: ")?;
            for (i, w) in self.wait_cycle.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{w}")?;
            }
        }
        if let Some(s) = &self.suggestion {
            write!(
                f,
                "; suggestion: grow task {} edge e{} to Fifo({})",
                s.task, s.edge, s.depth
            )?;
        }
        for t in &self.stuck_tiles {
            write!(
                f,
                "; task {} ({}) tile {}: trip {} admitted {} completed {} spawns {}",
                t.task, t.task_name, t.tile, t.trip, t.admitted, t.completed, t.spawns_outstanding
            )?;
        }
        for (t, n) in &self.queued {
            write!(f, "; task {t} queue {n}")?;
        }
        if self.mem_outstanding > 0 {
            write!(f, "; {} memory requests outstanding", self.mem_outstanding)?;
        }
        for (t, n) in &self.stuck_nodes {
            write!(f, "; stuck handshake at task {t} node n{n}")?;
        }
        Ok(())
    }
}

/// Simulation failure, with structured context for diagnosis.
///
/// Every variant has a stable [`code`](SimError::code) so campaign tooling
/// can bucket outcomes without string-matching the human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No progress for longer than `SimConfig::deadlock_cycles`.
    Deadlock {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
        /// Wait-for-graph diagnosis.
        report: Box<DeadlockReport>,
    },
    /// The hard cycle limit was reached before root completion.
    CycleLimitExhausted {
        /// The configured limit.
        limit: u64,
    },
    /// A hardware fault was detected at a ready/valid or memory interface.
    Fault {
        /// Cycle of detection.
        cycle: u64,
        /// Task index.
        task: u32,
        /// Task name.
        task_name: String,
        /// Node at whose interface the fault was observed.
        node: u32,
        /// Invocation uid.
        invocation: u64,
        /// Instance (loop iteration) being processed.
        instance: u64,
        /// Observed symptom.
        kind: FaultKind,
        /// Free-form detail (edge, expected/found instance, address…).
        detail: String,
    },
    /// Functional evaluation failed on a live (non-predicated-off) path:
    /// out-of-bounds access, missing argument, poison store, …
    EvalError {
        /// Cycle of the failure (0 if before execution started).
        cycle: u64,
        /// Task index, if the failure is localized to a task.
        task: Option<u32>,
        /// Task name ("" when `task` is `None`).
        task_name: String,
        /// Node index, if localized to a node.
        node: Option<u32>,
        /// Invocation uid, if an invocation was active.
        invocation: Option<u64>,
        /// What went wrong.
        detail: String,
    },
}

impl SimError {
    /// Stable machine-readable error code.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "E-SIM-DEADLOCK",
            SimError::CycleLimitExhausted { .. } => "E-SIM-LIMIT",
            SimError::Fault { .. } => "E-SIM-FAULT",
            SimError::EvalError { .. } => "E-SIM-EVAL",
        }
    }

    /// An [`SimError::EvalError`] with no site attached yet; the engine
    /// fills in cycle/task/node via [`SimError::at_site`].
    pub(crate) fn eval(detail: impl Into<String>) -> SimError {
        SimError::EvalError {
            cycle: 0,
            task: None,
            task_name: String::new(),
            node: None,
            invocation: None,
            detail: detail.into(),
        }
    }

    /// Attach execution-site context to a context-free `EvalError`;
    /// other variants (already fully located) pass through unchanged.
    pub(crate) fn at_site(
        self,
        cycle: u64,
        task: u32,
        task_name: &str,
        node: Option<u32>,
        invocation: Option<u64>,
    ) -> SimError {
        match self {
            SimError::EvalError {
                task: None, detail, ..
            } => SimError::EvalError {
                cycle,
                task: Some(task),
                task_name: task_name.to_string(),
                node,
                invocation,
                detail,
            },
            other => other,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.code())?;
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "deadlock at cycle {cycle}: {report}")
            }
            SimError::CycleLimitExhausted { limit } => {
                write!(f, "cycle limit {limit} exhausted")
            }
            SimError::Fault {
                cycle,
                task,
                task_name,
                node,
                invocation,
                instance,
                kind,
                detail,
            } => write!(
                f,
                "{kind} at cycle {cycle}, task {task} ({task_name}) node n{node} \
                 invocation {invocation} instance {instance}: {detail}"
            ),
            SimError::EvalError {
                cycle,
                task,
                task_name,
                node,
                invocation,
                detail,
            } => {
                write!(f, "evaluation error at cycle {cycle}")?;
                if let Some(t) = task {
                    write!(f, ", task {t} ({task_name})")?;
                }
                if let Some(n) = node {
                    write!(f, " node n{n}")?;
                }
                if let Some(u) = invocation {
                    write!(f, " invocation {u}")?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let errs = [
            SimError::Deadlock {
                cycle: 1,
                report: Box::new(DeadlockReport::default()),
            },
            SimError::CycleLimitExhausted { limit: 10 },
            SimError::Fault {
                cycle: 1,
                task: 0,
                task_name: "main".into(),
                node: 2,
                invocation: 1,
                instance: 0,
                kind: FaultKind::TokenMisorder,
                detail: "d".into(),
            },
            SimError::eval("boom"),
        ];
        let codes: Vec<&str> = errs.iter().map(SimError::code).collect();
        let mut uniq = codes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), codes.len(), "codes must be distinct: {codes:?}");
        for c in codes {
            assert!(c.starts_with("E-SIM-"), "{c}");
        }
    }

    #[test]
    fn at_site_fills_eval_context_only() {
        let e = SimError::eval("missing token").at_site(42, 1, "loop", Some(3), Some(7));
        match &e {
            SimError::EvalError {
                cycle,
                task,
                node,
                invocation,
                ..
            } => {
                assert_eq!(*cycle, 42);
                assert_eq!(*task, Some(1));
                assert_eq!(*node, Some(3));
                assert_eq!(*invocation, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        let d = SimError::CycleLimitExhausted { limit: 5 }.at_site(1, 0, "x", None, None);
        assert_eq!(d, SimError::CycleLimitExhausted { limit: 5 });
    }

    #[test]
    fn display_carries_code_and_context() {
        let e = SimError::eval("poison stored").at_site(9, 2, "body", Some(4), Some(11));
        let s = e.to_string();
        assert!(s.contains("E-SIM-EVAL"), "{s}");
        assert!(s.contains("cycle 9"), "{s}");
        assert!(s.contains("task 2 (body)"), "{s}");
        assert!(s.contains("n4"), "{s}");
    }

    #[test]
    fn deadlock_report_renders_cycle_and_suggestion() {
        let report = DeadlockReport {
            wait_cycle: vec![WaitEdge {
                task: 1,
                task_name: "loop".into(),
                edge: 3,
                src: 2,
                src_name: "mul".into(),
                dst: 4,
                dst_name: "store".into(),
                capacity: 0,
                state: ChannelState::Full,
            }],
            suggestion: Some(BufferSuggestion {
                task: 1,
                edge: 3,
                depth: 1,
            }),
            ..DeadlockReport::default()
        };
        let s = SimError::Deadlock {
            cycle: 100,
            report: Box::new(report),
        }
        .to_string();
        assert!(s.contains("blocked-channel cycle"), "{s}");
        assert!(s.contains("e3 full"), "{s}");
        assert!(s.contains("Fifo(1)"), "{s}");
    }
}
