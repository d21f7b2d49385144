//! The whole-accelerator circuit: task blocks, structures, and connections
//! (§3.2).

use crate::dataflow::{Dataflow, JunctionId};
use crate::structure::{Structure, StructureId};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Index of a task block within the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An argument-or-constant expression used in a loop bound specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgExpr {
    /// The task's `n`-th argument.
    Arg(u32),
    /// A compile-time constant.
    Const(i64),
}

/// Canonical loop bounds of a loop task: `for (i = lo; i < hi; i += step)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopSpec {
    /// Lower bound.
    pub lo: ArgExpr,
    /// Upper (exclusive) bound.
    pub hi: ArgExpr,
    /// Step (nonzero, positive).
    pub step: i64,
}

/// What a task block is.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum TaskKind {
    /// A straight dataflow region: one dataflow instance per invocation
    /// (Cilk spawned bodies, function bodies).
    Region,
    /// A loop encapsulated as a self-scheduling task (§3.5): the dataflow
    /// runs once per iteration, pipelined. `serial` loops admit iteration
    /// *i+1* only after iteration *i* commits (conservative loop-carried
    /// memory dependence).
    Loop {
        /// Canonical bounds.
        spec: LoopSpec,
        /// Whether carried memory dependences force serialization.
        serial: bool,
    },
}

impl TaskKind {
    /// Whether this is a loop task.
    pub fn is_loop(&self) -> bool {
        matches!(self, TaskKind::Loop { .. })
    }
}

/// An asynchronous task block (§3.2): a closure-like execution block with a
/// hardware issue queue and `tiles` replicated execution units (Pass 2).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct TaskBlock {
    /// Debug name.
    pub name: String,
    /// Region or loop.
    pub kind: TaskKind,
    /// The internal pipelined dataflow.
    pub dataflow: Dataflow,
    /// Number of replicated execution units (execution tiling, §6.2).
    pub tiles: u32,
    /// Depth of the hardware issue queue holding ready/pending invocations.
    pub queue_depth: u32,
    /// Number of arguments (live-ins) per invocation.
    pub num_args: u32,
    /// Number of results (live-outs) per invocation.
    pub num_results: u32,
    /// For loop tasks: per-result fallback used when the trip count is zero
    /// (a loop-carried accumulator's result is then its initial value).
    /// `None` when the result has no zero-trip definition.
    pub loop_result_inits: Vec<Option<ResultInit>>,
}

/// Zero-trip fallback source for a loop task's result.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum ResultInit {
    /// The task's `n`-th argument.
    Arg(u32),
    /// A constant.
    Const(muir_mir::instr::ConstVal),
}

impl TaskBlock {
    /// A new task block with baseline parameters (1 tile, depth-2 queue).
    pub fn new(name: impl Into<String>, kind: TaskKind) -> TaskBlock {
        TaskBlock {
            name: name.into(),
            kind,
            dataflow: Dataflow::new(),
            tiles: 1,
            queue_depth: 2,
            num_args: 0,
            num_results: 0,
            loop_result_inits: Vec::new(),
        }
    }
}

/// A `<||>` spawn/sync connection between a parent and child task (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskConnection {
    /// Parent (spawner).
    pub parent: TaskId,
    /// Child (spawned).
    pub child: TaskId,
    /// FIFO depth decoupling the two (Pass 1: task-block queueing). Depth 1
    /// means tightly coupled.
    pub queue_depth: u32,
}

/// A `<==>` request/response connection from a task's junction to a
/// hardware structure (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConnection {
    /// The task whose junction connects.
    pub task: TaskId,
    /// The junction within the task's dataflow.
    pub junction: JunctionId,
    /// The structure it reaches.
    pub structure: StructureId,
}

/// The whole accelerator: a structural, concurrent graph of task blocks,
/// hardware structures, and connections. Held through an [`Accelerator`]
/// handle.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct AccelGraph {
    /// Accelerator (workload) name.
    pub name: String,
    /// Task-block arena; [`TaskId`] indexes into this.
    pub tasks: Vec<TaskBlock>,
    /// Hardware structures; [`StructureId`] indexes into this.
    pub structures: Vec<Structure>,
    /// `<||>` connections.
    pub task_conns: Vec<TaskConnection>,
    /// `<==>` connections.
    pub mem_conns: Vec<MemConnection>,
    /// The root task (invoked once from the host).
    pub root: TaskId,
    /// Per memory object: element count and whether the accelerator only
    /// reads it (stream-in data). Indexed by `MemObjId`; filled by the
    /// front-end and consumed by localization sizing and the DMA model.
    pub object_info: Vec<(u64, bool)>,
}

/// A copy-on-write handle over one shared [`AccelGraph`]. Reads go
/// through `Deref`; the first write through `DerefMut` copies the graph
/// if another handle (a sealed [`crate::CompiledAccel`], a DSE base)
/// still shares it, so `clone` and sealing never copy a graph nobody
/// writes. `Hash`, `PartialEq` and `Debug` are the graph's own.
#[derive(Clone, PartialEq, Hash)]
pub struct Accelerator(Arc<AccelGraph>);

impl Accelerator {
    /// An empty accelerator (root is fixed up once tasks exist).
    pub fn new(name: impl Into<String>) -> Accelerator {
        Accelerator(Arc::new(AccelGraph {
            name: name.into(),
            tasks: Vec::new(),
            structures: Vec::new(),
            task_conns: Vec::new(),
            mem_conns: Vec::new(),
            root: TaskId(0),
            object_info: Vec::new(),
        }))
    }
}

impl Deref for Accelerator {
    type Target = AccelGraph;

    fn deref(&self) -> &AccelGraph {
        &self.0
    }
}

impl DerefMut for Accelerator {
    fn deref_mut(&mut self) -> &mut AccelGraph {
        Arc::make_mut(&mut self.0)
    }
}

impl fmt::Debug for Accelerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl AccelGraph {
    /// Add a task block, returning its id.
    pub fn add_task(&mut self, task: TaskBlock) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Add a hardware structure, returning its id.
    pub fn add_structure(&mut self, s: Structure) -> StructureId {
        let id = StructureId(self.structures.len() as u32);
        self.structures.push(s);
        id
    }

    /// Record a parent→child `<||>` connection.
    pub fn connect_tasks(&mut self, parent: TaskId, child: TaskId, queue_depth: u32) {
        self.task_conns.push(TaskConnection {
            parent,
            child,
            queue_depth,
        });
    }

    /// Record a junction→structure `<==>` connection.
    pub fn connect_mem(&mut self, task: TaskId, junction: JunctionId, structure: StructureId) {
        self.mem_conns.push(MemConnection {
            task,
            junction,
            structure,
        });
    }

    /// The task behind `id`.
    pub fn task(&self, id: TaskId) -> &TaskBlock {
        &self.tasks[id.0 as usize]
    }

    /// Mutable access to the task behind `id`.
    pub fn task_mut(&mut self, id: TaskId) -> &mut TaskBlock {
        &mut self.tasks[id.0 as usize]
    }

    /// The structure behind `id`.
    pub fn structure(&self, id: StructureId) -> &Structure {
        &self.structures[id.0 as usize]
    }

    /// Mutable access to the structure behind `id`.
    pub fn structure_mut(&mut self, id: StructureId) -> &mut Structure {
        &mut self.structures[id.0 as usize]
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// All structure ids.
    pub fn structure_ids(&self) -> impl Iterator<Item = StructureId> {
        (0..self.structures.len() as u32).map(StructureId)
    }

    /// Children of `t` per the `<||>` connections.
    pub fn children(&self, t: TaskId) -> Vec<TaskId> {
        self.task_conns
            .iter()
            .filter(|c| c.parent == t)
            .map(|c| c.child)
            .collect()
    }

    /// Parent of `t`, if any.
    pub fn parent(&self, t: TaskId) -> Option<TaskId> {
        self.task_conns
            .iter()
            .find(|c| c.child == t)
            .map(|c| c.parent)
    }

    /// The structure that homes `obj`, if any.
    pub fn structure_for(&self, obj: muir_mir::instr::MemObjId) -> Option<StructureId> {
        self.structure_ids()
            .find(|&s| self.structure(s).serves(obj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_mir::instr::MemObjId;

    #[test]
    fn accelerator_wiring() {
        let mut acc = Accelerator::new("demo");
        let root = acc.add_task(TaskBlock::new("main", TaskKind::Region));
        let child = acc.add_task(TaskBlock::new(
            "loop",
            TaskKind::Loop {
                spec: LoopSpec {
                    lo: ArgExpr::Const(0),
                    hi: ArgExpr::Arg(0),
                    step: 1,
                },
                serial: false,
            },
        ));
        acc.root = root;
        acc.connect_tasks(root, child, 1);
        assert_eq!(acc.children(root), vec![child]);
        assert_eq!(acc.parent(child), Some(root));
        assert_eq!(acc.parent(root), None);
        assert!(acc.task(child).kind.is_loop());
        assert!(!acc.task(root).kind.is_loop());
    }

    #[test]
    fn structure_lookup_by_object() {
        let mut acc = Accelerator::new("demo");
        let mut spad = Structure::scratchpad("spad", 256);
        spad.serve(MemObjId(1));
        let sid = acc.add_structure(spad);
        acc.add_structure(Structure::dram("axi"));
        assert_eq!(acc.structure_for(MemObjId(1)), Some(sid));
        assert_eq!(acc.structure_for(MemObjId(9)), None);
    }

    #[test]
    fn task_conn_queue_tuning() {
        let mut acc = Accelerator::new("demo");
        let a = acc.add_task(TaskBlock::new("a", TaskKind::Region));
        let b = acc.add_task(TaskBlock::new("b", TaskKind::Region));
        acc.connect_tasks(a, b, 1);
        let conn = acc.task_conns.iter_mut().find(|c| c.child == b).unwrap();
        conn.queue_depth = 8;
        assert_eq!(acc.task_conns[0].queue_depth, 8);
        assert_eq!(acc.parent(b), Some(a));
        assert_eq!(acc.parent(a), None);
    }

    #[test]
    fn default_task_parameters() {
        let t = TaskBlock::new("t", TaskKind::Region);
        assert_eq!(t.tiles, 1);
        assert_eq!(t.queue_depth, 2);
        assert_eq!(t.num_args, 0);
    }
}
