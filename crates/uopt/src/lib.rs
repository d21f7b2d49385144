//! `muir-uopt` — the μopt microarchitecture-transformation framework (§4).
//!
//! Architecture ideas are realised as iterative transformations of the μIR
//! graph, never of RTL. Passes implement [`Pass`] and are composed by a
//! [`PassManager`] that verifies the graph's structural invariants after
//! every transformation (latency-agnostic interfaces make stacked passes
//! safe, §1 novelty iv). Each pass reports a [`PassDelta`] — the nodes and
//! edges it touched — which is exactly the quantity Table 4 compares
//! against FIRRTL.
//!
//! The paper's passes:
//!
//! | pass | paper | type |
//! |---|---|---|
//! | [`passes::TaskQueueing`] | Pass 1, §4 | timing |
//! | [`passes::ExecutionTiling`] | Pass 2, §6.2 | spatial |
//! | [`passes::MemoryLocalization`] | Pass 3 + Algorithm 2, §6.4 | timing+spatial |
//! | [`passes::ScratchpadBanking`] / [`passes::CacheBanking`] | Pass 4, §6.4 | timing+spatial |
//! | [`passes::OpFusion`] | Pass 5, §6.1 | timing |
//! | [`passes::LowerTensors`] | §6.3 (inverse direction) | higher-order ops |
//!
//! `LowerTensors` expands Tensor2D higher-order ops into scalar pipelines —
//! it produces the *baseline* of Figure 15, whose comparison against the
//! native tensor graph measures the benefit of the tensor function units.

pub mod config;
pub mod fusion;
pub mod lower_tensors;
pub mod passes;
pub mod simplify;

use muir_core::accel::Accelerator;
use muir_core::compiled::CompiledAccel;
use muir_core::verify::Verifier;
use std::fmt;

/// The graph elements a pass touched — Table 4's ΔNode/ΔEdge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassDelta {
    /// μIR nodes created, removed, or reparameterised.
    pub nodes: usize,
    /// μIR edges/connections created, removed, or rerouted.
    pub edges: usize,
}

impl PassDelta {
    /// Element-wise sum.
    pub(crate) fn merge(self, other: PassDelta) -> PassDelta {
        PassDelta {
            nodes: self.nodes + other.nodes,
            edges: self.edges + other.edges,
        }
    }
}

/// Pass failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassError {
    /// Pass that failed.
    pub pass: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass `{}` failed: {}", self.pass, self.message)
    }
}

impl std::error::Error for PassError {}

/// A μopt transformation.
pub trait Pass {
    /// Pass name (shown in reports and Table 4).
    fn name(&self) -> &'static str;

    /// Transform the accelerator graph, returning the touched-element
    /// delta.
    ///
    /// # Errors
    /// Pass-specific failures (the manager re-verifies the graph after
    /// every pass regardless).
    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError>;
}

/// Per-pass instrumentation: what the pass did and what it cost.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Pass name.
    pub name: &'static str,
    /// Elements touched (Table 4's ΔNode/ΔEdge).
    pub delta: PassDelta,
    /// Host wall time of the pass itself (excludes the manager's post-pass
    /// verification).
    pub wall: std::time::Duration,
    /// Graph node count after the pass (includes verification-visible
    /// growth, so `records[i].nodes_after - records[i-1].nodes_after` is
    /// the pass's net size effect).
    pub nodes_after: usize,
    /// Graph edge count after the pass.
    pub edges_after: usize,
}

/// Report of one manager invocation.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// `(pass name, delta)` in execution order.
    pub deltas: Vec<(&'static str, PassDelta)>,
    /// Full per-pass instrumentation (same order as `deltas`), including
    /// wall time and post-pass graph sizes.
    pub records: Vec<PassRecord>,
}

impl PassReport {
    /// Total delta across all passes.
    pub fn total(&self) -> PassDelta {
        self.deltas
            .iter()
            .fold(PassDelta::default(), |a, (_, d)| a.merge(*d))
    }

    /// Total host wall time across all passes.
    pub(crate) fn total_wall(&self) -> std::time::Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// Human-readable per-pass table (name, wall time, Δ, graph size).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write as _;
        let _ = writeln!(
            out,
            "pass pipeline: {} passes, {:.3} ms total",
            self.records.len(),
            self.total_wall().as_secs_f64() * 1e3
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "  {:<24} {:>9.3} ms  Δnodes {:>4}  Δedges {:>4}  -> {} nodes / {} edges",
                r.name,
                r.wall.as_secs_f64() * 1e3,
                r.delta.nodes,
                r.delta.edges,
                r.nodes_after,
                r.edges_after
            );
        }
        out
    }
}

/// Runs passes in order, verifying the μIR graph after each one.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// Empty manager.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Append a pass (builder style).
    pub fn with(mut self, pass: impl Pass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append a boxed pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Whether the pipeline has no pass: running it only verifies.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run all passes on `acc`.
    ///
    /// The graph is verified after every pass, and an empty pipeline
    /// verifies its input — so the graph a run returns has been verified
    /// exactly once in its final state, and downstream consumers (`seal`,
    /// the simulator, RTL emission) never see an unverified accelerator
    /// slip through a no-pass run.
    ///
    /// # Errors
    /// The first pass failure or verification failure.
    pub fn run(&self, acc: &mut Accelerator) -> Result<PassReport, PassError> {
        let mut report = PassReport {
            deltas: Vec::with_capacity(self.passes.len()),
            records: Vec::with_capacity(self.passes.len()),
        };
        // One set of verifier tables for every check of the run.
        let mut verifier = Verifier::default();
        for pass in &self.passes {
            let started = std::time::Instant::now();
            let delta = pass.run(acc)?;
            let wall = started.elapsed();
            verifier.verify(acc).map_err(|e| PassError {
                pass: pass.name().to_string(),
                message: format!("graph invalid after pass: {e}"),
            })?;
            let dataflows = || acc.tasks.iter().map(|t| &t.dataflow);
            report.deltas.push((pass.name(), delta));
            report.records.push(PassRecord {
                name: pass.name(),
                delta,
                wall,
                nodes_after: dataflows().map(|df| df.nodes.len()).sum(),
                edges_after: dataflows().map(|df| df.edges.len()).sum(),
            });
        }
        if self.is_empty() {
            // No per-pass check ran: the input is the output.
            verifier.verify(acc).map_err(|e| PassError {
                pass: "<final-verify>".to_string(),
                message: format!("graph invalid after pipeline: {e}"),
            })?;
        }
        Ok(report)
    }

    /// Run all passes, then **seal** the result: lower the transformed
    /// graph once into an immutable, content-addressed [`CompiledAccel`]
    /// shared by the simulator, RTL emission, and cost layers. This is the
    /// intended terminal stage of a μopt pipeline — everything downstream
    /// consumes the sealed artifact, never the mutable graph.
    ///
    /// The final graph is verified twice: by [`PassManager::run`]'s check
    /// after the last pass (or its exit check when there are no passes),
    /// and again by [`CompiledAccel::compile`], which verifies every graph
    /// it lowers.
    ///
    /// # Errors
    /// The first pass failure, or a verification failure (reported under
    /// the pseudo-pass name `<seal>` when the final lowering rejects the
    /// graph).
    pub fn seal(&self, acc: &mut Accelerator) -> Result<(CompiledAccel, PassReport), PassError> {
        let report = self.run(acc)?;
        let comp = CompiledAccel::compile(acc).map_err(|e| PassError {
            pass: "<seal>".to_string(),
            message: format!("graph rejected at seal: {e}"),
        })?;
        Ok((comp, report))
    }
}

impl fmt::Debug for PassManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_struct("PassManager")
            .field("passes", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::accel::{TaskBlock, TaskKind};
    use muir_core::node::{Node, NodeKind};
    use muir_core::Type;

    struct Nop;
    impl Pass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&self, _acc: &mut Accelerator) -> Result<PassDelta, PassError> {
            Ok(PassDelta { nodes: 1, edges: 2 })
        }
    }

    struct Breaker;
    impl Pass for Breaker {
        fn name(&self) -> &'static str {
            "breaker"
        }
        fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
            // Add a second Output node: invalid.
            acc.tasks[0]
                .dataflow
                .add_node(Node::new("bad", NodeKind::Output, Type::BOOL));
            Ok(PassDelta::default())
        }
    }

    fn tiny_acc() -> Accelerator {
        let mut acc = Accelerator::new("t");
        let mut task = TaskBlock::new("main", TaskKind::Region);
        task.dataflow
            .add_node(Node::new("out", NodeKind::Output, Type::BOOL));
        let tid = acc.add_task(task);
        acc.root = tid;
        acc
    }

    #[test]
    fn manager_runs_and_accumulates() {
        let mut acc = tiny_acc();
        let pm = PassManager::new().with(Nop).with(Nop);
        let report = pm.run(&mut acc).unwrap();
        assert_eq!(report.deltas.len(), 2);
        assert_eq!(report.total(), PassDelta { nodes: 2, edges: 4 });
        // Instrumentation rides along: per-pass wall time + graph sizes.
        assert_eq!(report.records.len(), 2);
        assert!(report.records.iter().all(|r| r.name == "nop"));
        assert_eq!(report.records[0].nodes_after, 1);
        assert_eq!(report.records[0].edges_after, 0);
        let table = report.render();
        assert!(table.contains("nop"), "{table}");
        assert!(table.contains("2 passes"), "{table}");
    }

    #[test]
    fn manager_catches_graph_corruption() {
        let mut acc = tiny_acc();
        let pm = PassManager::new().with(Breaker);
        let e = pm.run(&mut acc).unwrap_err();
        assert_eq!(e.pass, "breaker");
        assert!(e.message.contains("invalid"), "{e}");
    }

    #[test]
    fn empty_pipeline_still_verifies() {
        // An invalid graph must not slip through a no-pass run.
        let mut acc = tiny_acc();
        acc.tasks[0]
            .dataflow
            .add_node(Node::new("bad", NodeKind::Output, Type::BOOL));
        let e = PassManager::new().run(&mut acc).unwrap_err();
        assert_eq!(e.pass, "<final-verify>");
        assert!(e.message.contains("invalid"), "{e}");
        // And a valid graph passes with an empty report.
        let mut ok = tiny_acc();
        let report = PassManager::new().run(&mut ok).unwrap();
        assert!(report.deltas.is_empty());
    }

    #[test]
    fn a_pipeline_without_passes_is_empty() {
        assert!(PassManager::new().is_empty());
        assert!(!PassManager::new().with(Nop).is_empty());
    }

    #[test]
    fn seal_returns_content_addressed_artifact() {
        let mut acc = tiny_acc();
        let pm = PassManager::new().with(Nop);
        let (comp, report) = pm.seal(&mut acc).unwrap();
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(comp.content_hash(), muir_core::content_hash(&acc));
        assert_eq!(comp.accel(), &acc);
    }

    /// A DSE candidate starts as a clone of its base: the two share one
    /// graph until a pass first writes, which copies it once; later writes
    /// copy nothing and the base never changes.
    #[test]
    fn a_shared_base_is_copied_on_a_pass_first_write_only() {
        use crate::passes::{ExecutionTiling, TaskFilter, TaskQueueing};
        use muir_core::AccelGraph;
        let mut base = tiny_acc();
        let child = base.add_task(TaskBlock::new("child", TaskKind::Region));
        let root = base.root;
        base.connect_tasks(root, child, 2);
        let hash = muir_core::content_hash(&base);
        let mut cand = base.clone();
        let shared = |a: &Accelerator, b: &Accelerator| std::ptr::eq::<AccelGraph>(&**a, &**b);
        assert!(shared(&cand, &base));
        let tile = |tiles| ExecutionTiling {
            tiles,
            filter: TaskFilter::AllChildren,
        };
        // Nothing to change: each pass only reads.
        tile(1).run(&mut cand).unwrap();
        assert!(shared(&cand, &base), "a tiling that changes nothing copies");
        TaskQueueing::all(2).run(&mut cand).unwrap();
        assert!(
            shared(&cand, &base),
            "a queueing that changes nothing copies"
        );
        tile(4).run(&mut cand).unwrap();
        assert!(!shared(&cand, &base), "the first write copies");
        let graph: *const AccelGraph = &*cand;
        TaskQueueing::all(8).run(&mut cand).unwrap();
        assert!(std::ptr::eq(&*cand, graph), "a second write copies again");
        assert_eq!(cand.task_conns[0].queue_depth, 8);
        assert_eq!(muir_core::content_hash(&base), hash, "the base changed");
        assert_eq!(base.task(child).tiles, 1);
    }

    #[test]
    fn seal_rejects_invalid_graph() {
        let mut acc = tiny_acc();
        let pm = PassManager::new().with(Breaker);
        let e = pm.seal(&mut acc).unwrap_err();
        assert_eq!(e.pass, "breaker");
    }
}
