//! The paper's μopt passes (§4, §6), minus op-fusion (see
//! [`crate::fusion`]) and tensor lowering (see [`crate::lower_tensors`]).

use crate::{Pass, PassDelta, PassError};
use muir_core::accel::{AccelGraph, Accelerator, TaskConnection, TaskId};
use muir_core::dataflow::{JunctionId, NodeId};
use muir_core::node::NodeKind;
use muir_core::structure::{Structure, StructureId, StructureKind};
use muir_mir::instr::MemObjId;
use muir_mir::types::TensorShape;

pub use crate::fusion::OpFusion;
pub use crate::lower_tensors::LowerTensors;
pub use crate::simplify::{Cse, Simplify};

/// **Pass 1 — Task-block queueing** (§4): widen the `<||>` FIFO between
/// parents and selected children so task blocks proceed at different rates.
/// Deep children (long pipelines) benefit most; `min_child_depth = 0`
/// decouples every connection.
#[derive(Debug, Clone)]
pub struct TaskQueueing {
    /// New queue depth.
    pub depth: u32,
    /// Only decouple children whose pipeline depth is at least this.
    pub min_child_depth: u32,
}

impl TaskQueueing {
    /// Decouple all connections with the given depth.
    pub fn all(depth: u32) -> TaskQueueing {
        TaskQueueing {
            depth,
            min_child_depth: 0,
        }
    }
}

impl Pass for TaskQueueing {
    fn name(&self) -> &'static str {
        "task-queueing"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        // A child's pipeline depth is computed only for a connection the
        // pass would change, and never under a threshold of 0.
        let wants = |g: &AccelGraph, c: &TaskConnection| {
            c.queue_depth != self.depth
                && (self.min_child_depth == 0
                    || muir_core::stats::pipeline_depth(&g.tasks[c.child.0 as usize].dataflow)
                        >= self.min_child_depth)
        };
        // Read first: a write would copy a graph this handle shares.
        let Some(first) = acc.task_conns.iter().position(|c| wants(acc, c)) else {
            return Ok(delta);
        };
        let g = &mut **acc;
        for i in first..g.task_conns.len() {
            if i == first || wants(g, &g.task_conns[i]) {
                g.task_conns[i].queue_depth = self.depth;
                delta.edges += 1;
            }
        }
        Ok(delta)
    }
}

/// Which tasks a spatial pass applies to.
#[derive(Debug, Clone)]
pub enum TaskFilter {
    /// Tasks invoked through Cilk-style spawn calls, plus every task nested
    /// inside them — replicating a worker block replicates its whole
    /// subtree (Figure 8 Pass 2 replicates the entire tensor block).
    Spawned,
    /// Leaf loop tasks (innermost loops): replicating their execution
    /// units lets a pipelined parent keep several invocations in flight
    /// (§3.6: "a user can vary the number of execution tiles for each task
    /// region").
    LeafLoops,
    /// Every non-root task.
    AllChildren,
    /// Tasks whose name contains the string.
    Named(String),
}

impl TaskFilter {
    fn matches(&self, acc: &Accelerator, t: TaskId) -> bool {
        match self {
            TaskFilter::Spawned => {
                // t itself spawned, or any ancestor of t spawned.
                let spawned = |x: TaskId| {
                    acc.tasks.iter().any(|task| {
                        task.dataflow.nodes.iter().any(|n| {
                            matches!(n.kind,
                                NodeKind::TaskCall { callee, spawn: true, .. } if callee == x)
                        })
                    })
                };
                let mut cur = Some(t);
                while let Some(x) = cur {
                    if spawned(x) {
                        return true;
                    }
                    cur = acc.parent(x);
                }
                false
            }
            TaskFilter::LeafLoops => {
                acc.task(t).kind.is_loop() && !acc.task_conns.iter().any(|c| c.parent == t)
            }
            TaskFilter::AllChildren => t != acc.root,
            TaskFilter::Named(s) => acc.task(t).name.contains(s.as_str()),
        }
    }
}

/// **Pass 2 — Execution tiling** (§6.2): replicate a task block's execution
/// units N× ("multi-core effect"); the RTL generator takes care of the bus
/// and crossbar that route invocations to the tiles.
#[derive(Debug, Clone)]
pub struct ExecutionTiling {
    /// Number of execution units per selected task.
    pub tiles: u32,
    /// Which tasks to replicate.
    pub filter: TaskFilter,
}

impl ExecutionTiling {
    /// Tile the spawned (Cilk) task blocks.
    pub fn spawned(tiles: u32) -> ExecutionTiling {
        ExecutionTiling {
            tiles,
            filter: TaskFilter::Spawned,
        }
    }
}

impl Pass for ExecutionTiling {
    fn name(&self) -> &'static str {
        "execution-tiling"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        let targets: Vec<TaskId> = acc
            .task_ids()
            .filter(|&t| self.filter.matches(acc, t))
            .collect();
        for t in targets {
            // Read first: a write would copy a graph this handle shares.
            if acc.task(t).tiles == self.tiles {
                continue;
            }
            let task = acc.task_mut(t);
            task.tiles = self.tiles;
            // The issue queue must be able to feed the tiles.
            task.queue_depth = task.queue_depth.max(2 * self.tiles);
            if let Some(c) = acc.task_conns.iter_mut().find(|c| c.child == t) {
                c.queue_depth = c.queue_depth.max(self.tiles);
            }
            // Table 4's μIR accounting: one node (the task block) and the
            // crossbar/queue connections around it.
            delta.nodes += 1;
            delta.edges += 4;
        }
        Ok(delta)
    }
}

/// **Pass 3 + Algorithm 2 — Memory localization** (§4, §6.4): partition the
/// address space and direct unrelated accesses to dedicated, type-specific
/// scratchpads.
///
/// *Analysis*: group every memory node by the object (address space) it
/// accesses — `LLVMPointsto` is a field lookup because each `mir` object is
/// its own address space. *Transformation*: for each group homed on a
/// shared structure, create a per-object scratchpad (typed with the tile
/// shape when all accesses are tensor-shaped, §4 Pass 3) and reroute every
/// junction.
#[derive(Debug, Clone)]
pub struct MemoryLocalization {
    /// Objects larger than this stay on the cache (localizing a huge array
    /// into SRAM is not realisable).
    pub max_elems: u64,
}

impl Default for MemoryLocalization {
    fn default() -> Self {
        MemoryLocalization { max_elems: 8192 }
    }
}

impl Pass for MemoryLocalization {
    fn name(&self) -> &'static str {
        "memory-localization"
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        // Analysis: memory groups — every (object, task, node) access with
        // its tile shape, sorted by object; within an object the accesses
        // keep task-then-node order, so each task's run is contiguous.
        let mut groups: Vec<(MemObjId, TaskId, NodeId, Option<TensorShape>)> = Vec::new();
        for t in acc.task_ids() {
            let df = &acc.task(t).dataflow;
            for n in df.node_ids() {
                let node = df.node(n);
                let obj = match node.kind {
                    NodeKind::Load { obj, .. } | NodeKind::Store { obj, .. } => obj,
                    _ => continue,
                };
                let shape = match node.ty {
                    muir_core::Type::Tensor { shape, .. } => Some(shape),
                    _ => None,
                };
                groups.push((obj, t, n, shape));
            }
        }
        groups.sort_unstable_by_key(|g| (g.0, g.1, g.2));

        for accessors in groups.chunk_by(|a, b| a.0 == b.0) {
            let obj = accessors[0].0;
            let Some(home) = acc.structure_for(obj) else {
                continue;
            };
            let shared = acc.structure(home).objects.len() > 1
                || matches!(acc.structure(home).kind, StructureKind::Cache { .. });
            if !shared {
                continue;
            }
            let len = acc.object_len(obj);
            if len > self.max_elems {
                continue;
            }
            // The group's tile shape, if every access agrees on one.
            let group_shape = accessors
                .iter()
                .map(|a| a.3)
                .reduce(|s, shape| if s == shape { s } else { None })
                .flatten();
            // Transformation: new RAM with parameters from the group.
            let name = format!("spad_{}", obj.0);
            let mut spad = Structure::scratchpad(name, len);
            if let StructureKind::Scratchpad {
                shape,
                ports_per_bank,
                ..
            } = &mut spad.kind
            {
                *shape = group_shape;
                // A typed scratchpad supplies a whole tile per access.
                if shape.is_some() {
                    *ports_per_bank = shape.map(|s| s.elems()).unwrap_or(2);
                }
            }
            let sid = acc.add_structure(spad);
            delta.nodes += 1;
            // Re-home.
            acc.structure_mut(home).objects.retain(|o| *o != obj);
            acc.structure_mut(sid).serve(obj);
            // §6.3: for typed scratchpads the operand network is widened to
            // transfer all tile elements at once.
            let (jr, jw) = match group_shape {
                Some(sh) => (sh.elems(), sh.elems().div_ceil(2)),
                None => (2, 1),
            };
            // Reroute: per task, one junction to the new scratchpad.
            let mut task_junction: Option<(TaskId, JunctionId)> = None;
            for &(_, t, n, _) in accessors {
                let j = match task_junction {
                    Some((jt, j)) if jt == t => j,
                    _ => {
                        let df = &mut acc.task_mut(t).dataflow;
                        let j = df.add_junction(muir_core::dataflow::Junction::new(sid, jr, jw));
                        acc.connect_mem(t, j, sid);
                        task_junction = Some((t, j));
                        delta.edges += 1; // the <==> connection
                        j
                    }
                };
                let df = &mut acc.task_mut(t).dataflow;
                // Move the node's registration.
                let old_j = match &mut df.nodes[n.0 as usize].kind {
                    NodeKind::Load { junction, .. } | NodeKind::Store { junction, .. } => {
                        let old = *junction;
                        *junction = j;
                        old
                    }
                    _ => unreachable!("accessor list only holds memory nodes"),
                };
                let is_load = matches!(df.nodes[n.0 as usize].kind, NodeKind::Load { .. });
                df.junctions[old_j.0 as usize].readers.retain(|x| *x != n);
                df.junctions[old_j.0 as usize].writers.retain(|x| *x != n);
                if is_load {
                    df.register_reader(j, n);
                } else {
                    df.register_writer(j, n);
                }
                delta.edges += 1; // op.connect(Mem) of Algorithm 2
            }
        }
        Ok(delta)
    }
}

/// **Pass 4 — Scratchpad banking** (§4, §6.4): stripe each scratchpad over
/// N banks and widen its junctions so the tensor memory system can source
/// multiple tiles per cycle.
#[derive(Debug, Clone)]
pub struct ScratchpadBanking {
    /// Bank count.
    pub banks: u32,
}

impl Pass for ScratchpadBanking {
    fn name(&self) -> &'static str {
        "scratchpad-banking"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        bank_structures(acc, self.banks, |k| {
            matches!(k, StructureKind::Scratchpad { .. })
        })
    }
}

/// **Cache banking** (§6.4): bank the L1 cache to parallelize global
/// accesses.
#[derive(Debug, Clone)]
pub struct CacheBanking {
    /// Bank count.
    pub banks: u32,
}

impl Pass for CacheBanking {
    fn name(&self) -> &'static str {
        "cache-banking"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        bank_structures(acc, self.banks, |k| {
            matches!(k, StructureKind::Cache { .. })
        })
    }
}

fn bank_structures(
    acc: &mut Accelerator,
    banks: u32,
    select: impl Fn(&StructureKind) -> bool,
) -> Result<PassDelta, PassError> {
    let mut delta = PassDelta::default();
    let mut banked: Vec<StructureId> = Vec::new();
    for s in acc.structure_ids().collect::<Vec<_>>() {
        let st = acc.structure_mut(s);
        if !select(&st.kind) {
            continue;
        }
        let changed = match &mut st.kind {
            StructureKind::Scratchpad { banks: b, .. } | StructureKind::Cache { banks: b, .. } => {
                let was = *b;
                *b = banks;
                was != banks
            }
            StructureKind::Dram { .. } => false,
        };
        if changed {
            banked.push(s);
            delta.nodes += 1;
        }
    }
    // Widen the junctions reaching banked structures: the routing network
    // must be able to feed the banks (§6.4: "µIR auto-generates the RTL
    // logic for routing loads/stores to the different memory banks").
    for t in acc.task_ids().collect::<Vec<_>>() {
        for j in 0..acc.task(t).dataflow.junctions.len() {
            let target = acc.task(t).dataflow.junctions[j].structure;
            if banked.contains(&target) {
                let jn = &mut acc.task_mut(t).dataflow.junctions[j];
                jn.read_ports = jn.read_ports.max(banks);
                jn.write_ports = jn.write_ports.max(banks.div_ceil(2));
                delta.edges += 1;
            }
        }
    }
    Ok(delta)
}

/// Convenience: `Accelerator::object_len` is not part of core; passes need
/// object sizes for localization sizing.
trait ObjectLen {
    fn object_len(&self, obj: MemObjId) -> u64;
}

impl ObjectLen for Accelerator {
    fn object_len(&self, obj: MemObjId) -> u64 {
        self.object_info
            .get(obj.0 as usize)
            .map(|(len, _)| *len)
            .unwrap_or(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::module::Module;
    use muir_mir::types::ScalarType;

    fn cilk_module() -> Module {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let big = m.add_mem_object("big", ScalarType::F32, 4096);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.par_for(0, 16, 1, |b, i| {
            let v = b.load(big, i);
            let w = b.fmul(v, ValueRef::f32(2.0));
            b.store(big, i, w);
            let sq = b.mul(i, i);
            b.store(a, i, sq);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn queueing_widens_connections() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        let r = PassManager::new()
            .with(TaskQueueing::all(8))
            .run(&mut acc)
            .unwrap();
        assert!(r.total().edges >= 2);
        assert!(acc.task_conns.iter().all(|c| c.queue_depth == 8));
    }

    #[test]
    fn queueing_threshold_selects_deep_children() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        let depths: Vec<u32> = acc
            .task_conns
            .iter()
            .map(|c| muir_core::stats::pipeline_depth(&acc.task(c.child).dataflow))
            .collect();
        assert!(acc.task_conns.iter().all(|c| c.queue_depth != 8));
        let deepest = *depths.iter().max().unwrap();
        let r = PassManager::new()
            .with(TaskQueueing {
                depth: 8,
                min_child_depth: deepest,
            })
            .run(&mut acc)
            .unwrap();
        for (c, &d) in acc.task_conns.iter().zip(&depths) {
            assert_eq!(c.queue_depth == 8, d >= deepest, "{c:?}");
        }
        assert_eq!(
            r.total().edges,
            depths.iter().filter(|&&d| d >= deepest).count()
        );
    }

    #[test]
    fn tiling_targets_spawned_tasks() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        let r = PassManager::new()
            .with(ExecutionTiling::spawned(4))
            .run(&mut acc)
            .unwrap();
        // Exactly one spawned task in this program.
        assert_eq!(r.total(), PassDelta { nodes: 1, edges: 4 });
        let tiled: Vec<u32> = acc.tasks.iter().map(|t| t.tiles).collect();
        assert_eq!(tiled.iter().filter(|&&t| t == 4).count(), 1);
        assert_eq!(acc.task(acc.root).tiles, 1, "root not tiled");
    }

    #[test]
    fn localization_splits_scratchpads() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        let before = acc.structures.len();
        PassManager::new()
            .with(MemoryLocalization::default())
            .run(&mut acc)
            .unwrap();
        // `big` (cache-homed) gets its own scratchpad; `a` already owns the
        // shared scratchpad alone and stays put.
        assert_eq!(acc.structures.len(), before + 1);
        // All mem nodes now point at sole-owner scratchpads.
        for t in acc.task_ids() {
            for n in acc.task(t).dataflow.node_ids() {
                if let NodeKind::Load { obj, junction, .. }
                | NodeKind::Store { obj, junction, .. } = acc.task(t).dataflow.node(n).kind
                {
                    let sid = acc.task(t).dataflow.junctions[junction.0 as usize].structure;
                    assert_eq!(acc.structure(sid).objects, vec![obj]);
                }
            }
        }
    }

    #[test]
    fn banking_sets_banks_and_widens_junctions() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        PassManager::new()
            .with(ScratchpadBanking { banks: 4 })
            .run(&mut acc)
            .unwrap();
        let spad_banks: Vec<u32> = acc
            .structures
            .iter()
            .filter_map(|s| match s.kind {
                StructureKind::Scratchpad { banks, .. } => Some(banks),
                _ => None,
            })
            .collect();
        assert!(spad_banks.iter().all(|&b| b == 4));
        // Junctions to the scratchpad widened.
        let widened = acc
            .tasks
            .iter()
            .flat_map(|t| t.dataflow.junctions.iter())
            .any(|j| j.read_ports >= 4);
        assert!(widened);
    }

    #[test]
    fn cache_banking_only_touches_caches() {
        let m = cilk_module();
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        PassManager::new()
            .with(CacheBanking { banks: 2 })
            .run(&mut acc)
            .unwrap();
        for s in &acc.structures {
            match s.kind {
                StructureKind::Cache { banks, .. } => assert_eq!(banks, 2),
                StructureKind::Scratchpad { banks, .. } => assert_eq!(banks, 1),
                StructureKind::Dram { .. } => {}
            }
        }
    }
}
