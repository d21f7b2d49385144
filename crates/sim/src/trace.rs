//! Cycle-accurate tracing, stall attribution, and bottleneck reporting.
//!
//! The paper's workflow (§5–§6) is *measure → pick the μopt transform →
//! re-measure*. Aggregate `SimStats` answer "how slow"; this module answers
//! "why": a zero-cost-when-off observer records per-cycle events (node
//! firings, token enqueues/dequeues, typed stalls, memory transactions)
//! into a bounded ring buffer, aggregates them into a [`SimProfile`]
//! (per-node utilization, per-channel occupancy histograms, per-structure
//! wait cycles), and ranks the critical resources in a
//! [`BottleneckReport`] that names the matching μopt transform.
//!
//! Two artifact exporters ride on the ring buffer:
//!
//! * [`Trace::to_chrome_json`] — a Chrome/Perfetto `trace.json` with one
//!   track per functional unit and per memory bank (1 cycle = 1 µs on the
//!   viewer's axis);
//! * [`Trace::to_vcd`] — a VCD waveform of channel occupancy/valid lines
//!   and per-node stall codes, loadable in GTKWave.
//!
//! Observation never perturbs timing: the observer only *reads* engine
//! state, so enabling tracing changes simulated cycle counts by exactly 0
//! (a property the test-suite pins down).

use crate::memory::StructStats;
use muir_core::accel::Accelerator;
use muir_core::json::Writer;
use muir_core::structure::StructureKind;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Why a node that has work could not fire this cycle.
///
/// The taxonomy mirrors the latency-insensitive protocol: a node fires when
/// every input channel presents a token, every output channel has space,
/// and its shared resources (databox entries, junction ports) grant it a
/// slot. Each failed condition is one stall class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// An input channel holds no visible token (starved by the producer).
    InputEmpty,
    /// An output channel (or downstream task queue) has no space
    /// (backpressured by the consumer).
    OutputFull,
    /// The node's databox is full: every outstanding-access entry is
    /// waiting on the memory system.
    MemoryWait,
    /// The junction arbitrated its read/write ports to other memory nodes
    /// this cycle.
    ArbitrationLoss,
    /// The output handshake is held by an injected fault: valid never
    /// asserts again.
    FaultHold,
}

impl StallReason {
    /// All reasons, in stable report order.
    pub(crate) const ALL: [StallReason; 5] = [
        StallReason::InputEmpty,
        StallReason::OutputFull,
        StallReason::MemoryWait,
        StallReason::ArbitrationLoss,
        StallReason::FaultHold,
    ];

    /// Stable short name (used in reports, traces, and waveforms).
    pub(crate) fn name(self) -> &'static str {
        match self {
            StallReason::InputEmpty => "input-empty",
            StallReason::OutputFull => "output-full",
            StallReason::MemoryWait => "memory-wait",
            StallReason::ArbitrationLoss => "arbitration-loss",
            StallReason::FaultHold => "fault-hold",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            StallReason::InputEmpty => 0,
            StallReason::OutputFull => 1,
            StallReason::MemoryWait => 2,
            StallReason::ArbitrationLoss => 3,
            StallReason::FaultHold => 4,
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tracing parameters (part of `SimConfig`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When off (the default), the engine carries a single
    /// `Option` check per blocked node and nothing else.
    pub enabled: bool,
    /// Ring-buffer bound in events. When the run produces more, the oldest
    /// events are dropped (and counted) — aggregation counters are exact
    /// regardless.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 16,
        }
    }
}

impl TraceConfig {
    /// An enabled config with default bounds.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// One recorded event. All indices are engine indices (task, node, edge,
/// structure); names live in [`TraceMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node fired (started one instance).
    Fire {
        cycle: u64,
        task: u32,
        tile: u32,
        node: u32,
        instance: u64,
    },
    /// A token was enqueued on an edge; `occ` is the occupancy after.
    Enq {
        cycle: u64,
        task: u32,
        edge: u32,
        occ: u32,
    },
    /// A token was dequeued from an edge; `occ` is the occupancy after.
    Deq {
        cycle: u64,
        task: u32,
        edge: u32,
        occ: u32,
    },
    /// A node with work could not fire.
    Stall {
        cycle: u64,
        task: u32,
        tile: u32,
        node: u32,
        reason: StallReason,
        /// The blocking edge, for channel-shaped reasons.
        edge: Option<u32>,
        /// The blocking structure, for memory-shaped reasons.
        structure: Option<u32>,
    },
    /// A memory request entered a structure.
    MemReq {
        cycle: u64,
        structure: u32,
        id: u64,
        bank: u32,
        elems: u32,
        is_write: bool,
    },
    /// A memory request's response was delivered.
    MemResp { cycle: u64, structure: u32, id: u64 },
}

impl TraceEvent {
    fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Fire { cycle, .. }
            | TraceEvent::Enq { cycle, .. }
            | TraceEvent::Deq { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::MemReq { cycle, .. }
            | TraceEvent::MemResp { cycle, .. } => cycle,
        }
    }
}

/// Name/topology tables captured at elaboration so traces are
/// self-describing (exporters never need the `Accelerator` back).
#[derive(Debug, Clone, Default)]
pub struct TraceMeta {
    /// Task names by index.
    pub task_names: Vec<String>,
    /// Node names per task.
    pub node_names: Vec<Vec<String>>,
    /// Node pipeline latencies per task (for track durations).
    pub node_latency: Vec<Vec<u32>>,
    /// Edge endpoints `(src, dst)` per task.
    pub edge_ends: Vec<Vec<(u32, u32)>>,
    /// Edge token capacities per task (elastic depth for handshake edges).
    pub edge_caps: Vec<Vec<u32>>,
    /// Structure names.
    pub struct_names: Vec<String>,
    /// Structure kind names (`scratchpad` / `cache` / `dram`).
    pub struct_kinds: Vec<String>,
}

impl TraceMeta {
    pub(crate) fn capture(acc: &Accelerator, cfg: &crate::SimConfig) -> TraceMeta {
        let mut m = TraceMeta::default();
        for t in &acc.tasks {
            m.task_names.push(t.name.clone());
            m.node_names.push(
                t.dataflow
                    .nodes
                    .iter()
                    .map(|n| n.name.to_string())
                    .collect(),
            );
            m.node_latency.push(
                t.dataflow
                    .nodes
                    .iter()
                    .map(|n| muir_core::hw::node_timing(&n.kind, n.ty).latency)
                    .collect(),
            );
            m.edge_ends.push(
                t.dataflow
                    .edges
                    .iter()
                    .map(|e| (e.src.0, e.dst.0))
                    .collect(),
            );
            m.edge_caps.push(
                t.dataflow
                    .edges
                    .iter()
                    .map(|e| match e.buffering {
                        muir_core::dataflow::Buffering::Handshake => cfg.elastic_depth,
                        muir_core::dataflow::Buffering::Fifo(d) => d,
                    })
                    .collect(),
            );
        }
        for s in &acc.structures {
            m.struct_names.push(s.name.clone());
            m.struct_kinds.push(
                match s.kind {
                    StructureKind::Scratchpad { .. } => "scratchpad",
                    StructureKind::Cache { .. } => "cache",
                    StructureKind::Dram { .. } => "dram",
                }
                .to_string(),
            );
        }
        m
    }

    /// `"task/node"` label.
    fn node_label(&self, task: u32, node: u32) -> String {
        format!(
            "{}/{}",
            self.task_names[task as usize], self.node_names[task as usize][node as usize]
        )
    }

    /// `"task.eN src->dst"` label.
    fn edge_label(&self, task: u32, edge: u32) -> String {
        let (s, d) = self.edge_ends[task as usize][edge as usize];
        format!(
            "{}.e{} {}->{}",
            self.task_names[task as usize],
            edge,
            self.node_names[task as usize][s as usize],
            self.node_names[task as usize][d as usize]
        )
    }
}

/// The recorded event stream plus its metadata — the exporters' input.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Name/topology tables.
    pub meta: TraceMeta,
    /// Events in cycle order (oldest first; the ring may have dropped the
    /// very beginning of long runs — see `dropped`).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring buffer (0 when `capacity` sufficed).
    pub dropped: u64,
}

/// Occupancy histogram buckets: 0, 1, …, 7, and 8+ tokens.
pub(crate) const OCC_BUCKETS: usize = 9;

/// Per-node profile entry.
#[derive(Debug, Clone, Default)]
pub struct NodeProfile {
    /// Task index.
    pub task: u32,
    /// Node index within the task.
    pub node: u32,
    /// `"task/node"` display name.
    pub name: String,
    /// Instances fired.
    pub fires: u64,
    /// Fraction of all cycles in which the node started an instance.
    pub utilization: f64,
    /// Stall cycles by [`StallReason`] (indexed via `StallReason::index`).
    pub stalls: [u64; 5],
}

impl NodeProfile {
    /// Total stall cycles across reasons.
    pub(crate) fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }
}

/// Per-channel (dataflow edge) profile entry.
#[derive(Debug, Clone, Default)]
pub struct ChannelProfile {
    /// Task index.
    pub task: u32,
    /// Edge index within the task.
    pub edge: u32,
    /// `"task.eN src->dst"` display name.
    pub name: String,
    /// Token capacity.
    pub capacity: u32,
    /// Time-weighted occupancy histogram: `occ_cycles[b]` cycles were spent
    /// at occupancy `b` (last bucket = 8 or more).
    pub occ_cycles: [u64; OCC_BUCKETS],
    /// Producer-side stall cycles attributed to this channel being full.
    pub full_stalls: u64,
    /// Consumer-side stall cycles attributed to this channel being empty.
    pub empty_stalls: u64,
}

/// Per-structure profile entry.
#[derive(Debug, Clone, Default)]
pub struct StructProfile {
    /// Structure index.
    pub structure: u32,
    /// Structure name.
    pub name: String,
    /// Kind name (`scratchpad` / `cache` / `dram`).
    pub kind: String,
    /// Node stall cycles attributed to this structure's databox backlog.
    pub mem_wait_stalls: u64,
    /// Node stall cycles lost to junction arbitration toward it.
    pub arb_stalls: u64,
    /// Bank/port contention cycles inside the structure (from `StructStats`).
    pub conflict_stalls: u64,
    /// Cache hits (caches only).
    pub hits: u64,
    /// Cache misses (caches only).
    pub misses: u64,
}

impl StructProfile {
    /// Total stall pressure this structure exerts.
    pub(crate) fn stall_cycles(&self) -> u64 {
        self.mem_wait_stalls + self.arb_stalls + self.conflict_stalls
    }

    /// Miss rate over `hits + misses`, 0 when the structure saw no
    /// cacheable traffic.
    pub(crate) fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Aggregated observability counters for one run. Exact: the ring may
/// drop events, the counters never.
#[derive(Debug, Clone, Default)]
pub struct SimProfile {
    /// Total cycles of the run (denominator for utilizations).
    pub cycles: u64,
    /// Per-node entries, engine order.
    pub nodes: Vec<NodeProfile>,
    /// Per-channel entries, engine order.
    pub channels: Vec<ChannelProfile>,
    /// Per-structure entries, engine order.
    pub structs: Vec<StructProfile>,
    /// Ring-buffer events kept / dropped.
    pub events_recorded: u64,
    /// Events evicted from the bounded ring.
    pub events_dropped: u64,
}

impl SimProfile {
    /// Stall cycles of one reason summed across nodes.
    pub(crate) fn stalls_by_reason(&self, reason: StallReason) -> u64 {
        self.nodes.iter().map(|n| n.stalls[reason.index()]).sum()
    }

    /// Rank the critical resources and suggest the matching μopt transform.
    pub fn bottlenecks(&self, k: usize) -> BottleneckReport {
        let mut entries: Vec<Bottleneck> = Vec::new();
        for s in &self.structs {
            let stall = s.stall_cycles();
            if stall == 0 {
                continue;
            }
            let suggestion = match s.kind.as_str() {
                "scratchpad" => {
                    "ScratchpadBanking (more banks/ports) or wider tile rows".to_string()
                }
                "cache" => format!(
                    "CacheBanking (miss rate {:.1}%{})",
                    100.0 * s.miss_rate(),
                    if s.miss_rate() > 0.2 {
                        "; high — also consider MemoryLocalization"
                    } else {
                        ""
                    }
                ),
                _ => "MemoryLocalization (home hot objects in scratchpads)".to_string(),
            };
            entries.push(Bottleneck {
                kind: BottleneckKind::Structure,
                name: format!("{} ({})", s.name, s.kind),
                stall_cycles: stall,
                share: 0.0,
                suggestion,
            });
        }
        for c in &self.channels {
            if c.full_stalls == 0 {
                continue;
            }
            entries.push(Bottleneck {
                kind: BottleneckKind::Channel,
                name: c.name.clone(),
                stall_cycles: c.full_stalls,
                share: 0.0,
                suggestion: format!(
                    "rebuffer the edge (Buffering::Fifo({})) or TaskQueueing downstream",
                    (c.capacity.max(1)) * 2
                ),
            });
        }
        entries.sort_by(|a, b| {
            b.stall_cycles
                .cmp(&a.stall_cycles)
                .then(a.name.cmp(&b.name))
        });
        let total: u64 = entries.iter().map(|e| e.stall_cycles).sum();
        for e in &mut entries {
            e.share = if total == 0 {
                0.0
            } else {
                e.stall_cycles as f64 / total as f64
            };
        }
        entries.truncate(k);
        BottleneckReport {
            cycles: self.cycles,
            total_stall_cycles: total,
            entries,
        }
    }

    /// Human-readable multi-section profile dump.
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "profile: {} cycles", self.cycles);
        let _ = writeln!(
            out,
            "  stalls by reason: {}",
            StallReason::ALL
                .iter()
                .map(|r| format!("{}={}", r.name(), self.stalls_by_reason(*r)))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "  -- busiest nodes (fires, util, stalls) --");
        let mut nodes: Vec<&NodeProfile> = self.nodes.iter().filter(|n| n.fires > 0).collect();
        nodes.sort_by(|a, b| b.fires.cmp(&a.fires).then(a.name.cmp(&b.name)));
        for n in nodes.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<32} fires {:>8}  util {:>5.1}%  stalled {:>8}",
                n.name,
                n.fires,
                100.0 * n.utilization,
                n.stall_cycles()
            );
        }
        let _ = writeln!(out, "  -- hottest channels (occupancy, stalls) --");
        let mut chans: Vec<&ChannelProfile> = self
            .channels
            .iter()
            .filter(|c| c.full_stalls + c.empty_stalls > 0)
            .collect();
        chans.sort_by(|a, b| {
            (b.full_stalls + b.empty_stalls)
                .cmp(&(a.full_stalls + a.empty_stalls))
                .then(a.name.cmp(&b.name))
        });
        for c in chans.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<32} cap {:>3}  full {:>8}  empty {:>8}  occ {}",
                c.name,
                c.capacity,
                c.full_stalls,
                c.empty_stalls,
                render_hist(&c.occ_cycles)
            );
        }
        let _ = writeln!(out, "  -- memory structures --");
        for s in &self.structs {
            let _ = writeln!(
                out,
                "  {:<32} wait {:>8}  arb {:>6}  conflicts {:>8}  miss {:>5.1}%",
                format!("{} ({})", s.name, s.kind),
                s.mem_wait_stalls,
                s.arb_stalls,
                s.conflict_stalls,
                100.0 * s.miss_rate()
            );
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "  (ring buffer kept {} events, dropped the oldest {})",
                self.events_recorded, self.events_dropped
            );
        }
        out
    }
}

fn render_hist(h: &[u64; OCC_BUCKETS]) -> String {
    let max = h.iter().copied().max().unwrap_or(0).max(1);
    const GLYPHS: [char; 5] = ['.', '_', 'o', 'O', '#'];
    h.iter()
        .map(|&v| {
            if v == 0 {
                ' '
            } else {
                GLYPHS[((v * 4).div_ceil(max) as usize).min(4)]
            }
        })
        .collect::<String>()
}

/// What a bottleneck entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckKind {
    /// A hardware structure (scratchpad, cache, DRAM channel).
    Structure,
    /// A ready/valid channel (dataflow edge).
    Channel,
}

impl fmt::Display for BottleneckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BottleneckKind::Structure => write!(f, "structure"),
            BottleneckKind::Channel => write!(f, "channel"),
        }
    }
}

/// One ranked critical resource.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Resource class.
    pub kind: BottleneckKind,
    /// Display name.
    pub name: String,
    /// Stall cycles attributed to the resource.
    pub stall_cycles: u64,
    /// Fraction of all attributed stall cycles.
    pub share: f64,
    /// The μopt transform that targets this resource.
    pub suggestion: String,
}

/// Top-k critical resources by stall pressure.
#[derive(Debug, Clone, Default)]
pub struct BottleneckReport {
    /// Run length (cycles).
    pub cycles: u64,
    /// All attributed stall cycles (the ranking's denominator).
    pub total_stall_cycles: u64,
    /// Ranked entries, worst first.
    pub entries: Vec<Bottleneck>,
}

impl fmt::Display for BottleneckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bottleneck report ({} cycles, {} attributed stall cycles):",
            self.cycles, self.total_stall_cycles
        )?;
        if self.entries.is_empty() {
            return writeln!(f, "  no stalls recorded — the graph runs unthrottled");
        }
        for (i, e) in self.entries.iter().enumerate() {
            writeln!(
                f,
                "  #{} {:<9} {:<36} {:>9} stall-cycles ({:>5.1}%)  => {}",
                i + 1,
                e.kind.to_string(),
                e.name,
                e.stall_cycles,
                100.0 * e.share,
                e.suggestion
            )?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Observer: the engine-side recorder
// ---------------------------------------------------------------------------

/// Per-run observer owned by the engine (boxed behind an `Option` so the
/// traced-off hot loop pays one pointer test). All methods only *read*
/// engine-provided facts; nothing feeds back into simulation state.
#[derive(Debug)]
pub(crate) struct Observer {
    capacity: usize,
    meta: TraceMeta,
    ring: VecDeque<TraceEvent>,
    dropped: u64,
    // Exact aggregation counters (kept when the ring drops events).
    node_fires: Vec<Vec<u64>>,
    node_stalls: Vec<Vec<[u64; 5]>>,
    edge_full: Vec<Vec<u64>>,
    edge_empty: Vec<Vec<u64>>,
    edge_occ_hist: Vec<Vec<[u64; OCC_BUCKETS]>>,
    /// Per-edge `(last change cycle, occupancy since)` for time-weighting.
    edge_occ_state: Vec<Vec<(u64, u32)>>,
    struct_wait: Vec<u64>,
    struct_arb: Vec<u64>,
}

impl Observer {
    pub(crate) fn new(acc: &Accelerator, cfg: &crate::SimConfig) -> Observer {
        let meta = TraceMeta::capture(acc, cfg);
        let node_fires: Vec<Vec<u64>> = meta.node_names.iter().map(|v| vec![0; v.len()]).collect();
        let node_stalls = meta
            .node_names
            .iter()
            .map(|v| vec![[0u64; 5]; v.len()])
            .collect();
        let edge_full: Vec<Vec<u64>> = meta.edge_ends.iter().map(|v| vec![0; v.len()]).collect();
        let edge_empty = edge_full.clone();
        let edge_occ_hist = meta
            .edge_ends
            .iter()
            .map(|v| vec![[0u64; OCC_BUCKETS]; v.len()])
            .collect();
        let edge_occ_state = meta
            .edge_ends
            .iter()
            .map(|v| vec![(0u64, 0u32); v.len()])
            .collect();
        let nstructs = meta.struct_names.len();
        Observer {
            capacity: cfg.trace.capacity.max(1),
            meta,
            ring: VecDeque::new(),
            dropped: 0,
            node_fires,
            node_stalls,
            edge_full,
            edge_empty,
            edge_occ_hist,
            edge_occ_state,
            struct_wait: vec![0; nstructs],
            struct_arb: vec![0; nstructs],
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// A node started one instance.
    pub(crate) fn fire(&mut self, cycle: u64, site: (usize, usize, usize), instance: u64) {
        let (ti, tk, node) = site;
        self.node_fires[ti][node] += 1;
        self.push(TraceEvent::Fire {
            cycle,
            task: ti as u32,
            tile: tk as u32,
            node: node as u32,
            instance,
        });
    }

    /// A node with work could not fire; attribute the cycle.
    pub(crate) fn stall(
        &mut self,
        cycle: u64,
        site: (usize, usize, usize),
        reason: StallReason,
        edge: Option<usize>,
        structure: Option<usize>,
    ) {
        let (ti, tk, node) = site;
        self.node_stalls[ti][node][reason.index()] += 1;
        if let Some(ei) = edge {
            match reason {
                StallReason::OutputFull => self.edge_full[ti][ei] += 1,
                StallReason::InputEmpty => self.edge_empty[ti][ei] += 1,
                _ => {}
            }
        }
        if let Some(si) = structure {
            match reason {
                StallReason::MemoryWait => self.struct_wait[si] += 1,
                StallReason::ArbitrationLoss => self.struct_arb[si] += 1,
                _ => {}
            }
        }
        self.push(TraceEvent::Stall {
            cycle,
            task: ti as u32,
            tile: tk as u32,
            node: node as u32,
            reason,
            edge: edge.map(|e| e as u32),
            structure: structure.map(|s| s as u32),
        });
    }

    /// A token count on `(task, edge)` changed to `occ`.
    pub(crate) fn edge_delta(&mut self, cycle: u64, ti: usize, ei: usize, occ: u32, enq: bool) {
        let (last, prev) = self.edge_occ_state[ti][ei];
        let bucket = (prev as usize).min(OCC_BUCKETS - 1);
        self.edge_occ_hist[ti][ei][bucket] += cycle.saturating_sub(last);
        self.edge_occ_state[ti][ei] = (cycle, occ);
        let ev = if enq {
            TraceEvent::Enq {
                cycle,
                task: ti as u32,
                edge: ei as u32,
                occ,
            }
        } else {
            TraceEvent::Deq {
                cycle,
                task: ti as u32,
                edge: ei as u32,
                occ,
            }
        };
        self.push(ev);
    }

    /// A memory request entered structure `si`.
    pub(crate) fn mem_req(
        &mut self,
        cycle: u64,
        si: usize,
        id: u64,
        bank: u32,
        elems: u32,
        is_write: bool,
    ) {
        self.push(TraceEvent::MemReq {
            cycle,
            structure: si as u32,
            id,
            bank,
            elems,
            is_write,
        });
    }

    /// A memory response was delivered for request `id`.
    pub(crate) fn mem_resp(&mut self, cycle: u64, si: usize, id: u64) {
        self.push(TraceEvent::MemResp {
            cycle,
            structure: si as u32,
            id,
        });
    }

    /// Close the books and build the profile + trace artifacts.
    pub(crate) fn finish(
        mut self,
        cycles: u64,
        struct_stats: &[StructStats],
    ) -> (SimProfile, Trace) {
        // Flush the occupancy intervals still open at the end of the run.
        for ti in 0..self.edge_occ_state.len() {
            for ei in 0..self.edge_occ_state[ti].len() {
                let (last, occ) = self.edge_occ_state[ti][ei];
                let bucket = (occ as usize).min(OCC_BUCKETS - 1);
                self.edge_occ_hist[ti][ei][bucket] += cycles.saturating_sub(last);
            }
        }
        let mut profile = SimProfile {
            cycles,
            events_recorded: self.ring.len() as u64,
            events_dropped: self.dropped,
            ..SimProfile::default()
        };
        for (ti, fires) in self.node_fires.iter().enumerate() {
            for (ni, &f) in fires.iter().enumerate() {
                let stalls = self.node_stalls[ti][ni];
                if f == 0 && stalls.iter().all(|&s| s == 0) {
                    continue;
                }
                profile.nodes.push(NodeProfile {
                    task: ti as u32,
                    node: ni as u32,
                    name: self.meta.node_label(ti as u32, ni as u32),
                    fires: f,
                    utilization: if cycles == 0 {
                        0.0
                    } else {
                        f as f64 / cycles as f64
                    },
                    stalls,
                });
            }
        }
        for (ti, ends) in self.meta.edge_ends.iter().enumerate() {
            for ei in 0..ends.len() {
                let hist = self.edge_occ_hist[ti][ei];
                let full = self.edge_full[ti][ei];
                let empty = self.edge_empty[ti][ei];
                // Skip channels that never carried or blocked anything.
                if full == 0 && empty == 0 && hist[1..].iter().all(|&v| v == 0) {
                    continue;
                }
                profile.channels.push(ChannelProfile {
                    task: ti as u32,
                    edge: ei as u32,
                    name: self.meta.edge_label(ti as u32, ei as u32),
                    capacity: self.meta.edge_caps[ti][ei],
                    occ_cycles: hist,
                    full_stalls: full,
                    empty_stalls: empty,
                });
            }
        }
        for (si, name) in self.meta.struct_names.iter().enumerate() {
            let ss = struct_stats.get(si).copied().unwrap_or_default();
            profile.structs.push(StructProfile {
                structure: si as u32,
                name: name.clone(),
                kind: self.meta.struct_kinds[si].clone(),
                mem_wait_stalls: self.struct_wait[si],
                arb_stalls: self.struct_arb[si],
                conflict_stalls: ss.conflict_stalls,
                hits: ss.hits,
                misses: ss.misses,
            });
        }
        let trace = Trace {
            meta: self.meta,
            events: self.ring.into_iter().collect(),
            dropped: self.dropped,
        };
        (profile, trace)
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Process id offset used for memory-structure tracks in the Chrome trace
/// (task tracks use the plain task index).
pub(crate) const MEM_PID_BASE: u32 = 1000;

impl Trace {
    /// Export as Chrome/Perfetto `trace.json` (JSON object format).
    ///
    /// Tracks: one process per task with one thread per functional unit
    /// (firings as complete events, stalls as 1-cycle events named by
    /// reason); one process per memory structure with one thread per bank
    /// (request lifetimes); channel occupancies as counter tracks.
    /// Timebase: 1 cycle = 1 µs on the viewer's axis.
    pub fn to_chrome_json(&self) -> String {
        let mut w = Writer::new();
        w.obj_lines().key("traceEvents").arr_lines();
        self.chrome_events(0, &mut w);
        w.end().key("displayTimeUnit").str("ms");
        w.key("otherData").obj().key("generator").str("muir-sim");
        w.key("timebase").str("1 cycle = 1us");
        w.key("droppedEvents").uint(self.dropped).end().end();
        w.finish()
    }

    /// Write the Chrome events of [`Trace::to_chrome_json`] as elements of
    /// the array open in `w`, with every timestamp shifted by `ts_offset`
    /// microseconds. Callers merging the sim trace with other event
    /// sources (the telemetry span log) write them all into one
    /// `traceEvents` array; `ts_offset` places the sim timeline under its
    /// enclosing wall-clock span.
    pub fn chrome_events(&self, ts_offset: u64, w: &mut Writer) {
        let off = ts_offset;
        // Metadata: humane process/thread names.
        for (ti, name) in self.meta.task_names.iter().enumerate() {
            name_event(w, "process_name", ti as u32, None, &format!("task:{name}"));
            for (ni, nname) in self.meta.node_names[ti].iter().enumerate() {
                name_event(w, "thread_name", ti as u32, Some(ni as u32), nname);
            }
        }
        for (si, name) in self.meta.struct_names.iter().enumerate() {
            let label = format!("mem:{name} ({})", self.meta.struct_kinds[si]);
            name_event(w, "process_name", MEM_PID_BASE + si as u32, None, &label);
        }
        // Pair memory request/response events into lifetimes.
        let mut open_reqs: HashMap<(u32, u64), (u64, u32, u32, bool)> = HashMap::new();
        let last_cycle = self.events.last().map(TraceEvent::cycle).unwrap_or(0);
        for ev in &self.events {
            match *ev {
                TraceEvent::Fire {
                    cycle,
                    task,
                    tile,
                    node,
                    instance,
                } => {
                    let dur = self.meta.node_latency[task as usize][node as usize].max(1);
                    let name = &self.meta.node_names[task as usize][node as usize];
                    begin_x_event(w, name, "fire", cycle + off, dur.into(), task, node);
                    w.key("instance").uint(instance).key("tile").uint(tile);
                    w.end().end();
                }
                TraceEvent::Stall {
                    cycle,
                    task,
                    node,
                    reason,
                    edge,
                    ..
                } => {
                    begin_x_event(w, reason.name(), "stall", cycle + off, 1, task, node);
                    w.key("reason").str(reason.name());
                    if let Some(e) = edge {
                        w.key("edge").uint(e);
                    }
                    w.end().end();
                }
                TraceEvent::Enq {
                    cycle,
                    task,
                    edge,
                    occ,
                }
                | TraceEvent::Deq {
                    cycle,
                    task,
                    edge,
                    occ,
                } => {
                    w.obj().key("name").str(&self.meta.edge_label(task, edge));
                    w.key("cat").str("chan").key("ph").str("C");
                    w.key("ts").uint(cycle + off).key("pid").uint(task);
                    w.key("args").obj().key("occ").uint(occ).end().end();
                }
                TraceEvent::MemReq {
                    cycle,
                    structure,
                    id,
                    bank,
                    elems,
                    is_write,
                } => {
                    open_reqs.insert((structure, id), (cycle, bank, elems, is_write));
                }
                TraceEvent::MemResp {
                    cycle,
                    structure,
                    id,
                } => {
                    // A request whose submit was evicted from the ring still
                    // gets a 1-cycle completion marker.
                    let (start, bank, elems, is_write) = open_reqs
                        .remove(&(structure, id))
                        .unwrap_or((cycle.saturating_sub(1), 0, 0, false));
                    mem_x_event(
                        w,
                        structure,
                        id,
                        start + off,
                        cycle + off,
                        bank,
                        elems,
                        is_write,
                    );
                }
            }
        }
        // Requests still in flight when the trace ended.
        #[allow(clippy::type_complexity)]
        let mut rest: Vec<((u32, u64), (u64, u32, u32, bool))> = open_reqs.into_iter().collect();
        rest.sort_unstable_by_key(|&(k, _)| k);
        for ((structure, id), (start, bank, elems, is_write)) in rest {
            mem_x_event(
                w,
                structure,
                id,
                start + off,
                last_cycle + 1 + off,
                bank,
                elems,
                is_write,
            );
        }
    }

    /// Export as a VCD waveform: per-channel occupancy (8-bit) and valid
    /// lines, per-node stall codes (3-bit: 0 = flowing, 1 + reason index
    /// otherwise) and fire pulses.
    pub fn to_vcd(&self) -> String {
        // Assign VCD identifiers to every signal that actually changes.
        let mut occ_ids: HashMap<(u32, u32), String> = HashMap::new(); // (task, edge)
        let mut stall_ids: HashMap<(u32, u32), String> = HashMap::new(); // (task, node)
        let mut fire_ids: HashMap<(u32, u32), String> = HashMap::new();
        let mut next_id = 0usize;
        let fresh = |n: &mut usize| -> String {
            let id = vcd_id(*n);
            *n += 1;
            id
        };
        for ev in &self.events {
            match *ev {
                TraceEvent::Enq { task, edge, .. } | TraceEvent::Deq { task, edge, .. } => {
                    occ_ids
                        .entry((task, edge))
                        .or_insert_with(|| fresh(&mut next_id));
                }
                TraceEvent::Stall { task, node, .. } => {
                    stall_ids
                        .entry((task, node))
                        .or_insert_with(|| fresh(&mut next_id));
                }
                TraceEvent::Fire { task, node, .. } => {
                    fire_ids
                        .entry((task, node))
                        .or_insert_with(|| fresh(&mut next_id));
                }
                _ => {}
            }
        }
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "$date muir-sim trace $end");
        let _ = writeln!(out, "$version muir-sim observability $end");
        let _ = writeln!(out, "$timescale 1 ns $end");
        let _ = writeln!(out, "$scope module muir $end");
        let mut occ_sorted: Vec<(&(u32, u32), &String)> = occ_ids.iter().collect();
        occ_sorted.sort();
        for (&(task, edge), id) in &occ_sorted {
            let name = sanitize(&self.meta.edge_label(task, edge));
            let _ = writeln!(out, "$var wire 8 {id} occ_{name} $end");
            let _ = writeln!(out, "$var wire 1 {id}v valid_{name} $end");
        }
        let mut stall_sorted: Vec<(&(u32, u32), &String)> = stall_ids.iter().collect();
        stall_sorted.sort();
        for (&(task, node), id) in &stall_sorted {
            let name = sanitize(&self.meta.node_label(task, node));
            let _ = writeln!(out, "$var wire 3 {id} stall_{name} $end");
        }
        let mut fire_sorted: Vec<(&(u32, u32), &String)> = fire_ids.iter().collect();
        fire_sorted.sort();
        for (&(task, node), id) in &fire_sorted {
            let name = sanitize(&self.meta.node_label(task, node));
            let _ = writeln!(out, "$var wire 1 {id} fire_{name} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Change sets per cycle: signal id -> rendered value line.
        let mut changes: std::collections::BTreeMap<u64, HashMap<String, String>> =
            std::collections::BTreeMap::new();
        let set = |changes: &mut std::collections::BTreeMap<u64, HashMap<String, String>>,
                   cycle: u64,
                   id: &str,
                   line: String| {
            changes
                .entry(cycle)
                .or_default()
                .insert(id.to_string(), line);
        };
        // Pulse resets (fire back to 0, stall back to 0) are provisional:
        // an explicit value at that cycle wins.
        let mut resets: std::collections::BTreeMap<u64, HashMap<String, String>> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            match *ev {
                TraceEvent::Enq {
                    cycle,
                    task,
                    edge,
                    occ,
                }
                | TraceEvent::Deq {
                    cycle,
                    task,
                    edge,
                    occ,
                } => {
                    let id = &occ_ids[&(task, edge)];
                    set(
                        &mut changes,
                        cycle,
                        id,
                        format!("b{:08b} {id}", occ.min(255)),
                    );
                    let vid = format!("{id}v");
                    set(
                        &mut changes,
                        cycle,
                        &vid,
                        format!("{}{vid}", u8::from(occ > 0)),
                    );
                }
                TraceEvent::Stall {
                    cycle,
                    task,
                    node,
                    reason,
                    ..
                } => {
                    let id = &stall_ids[&(task, node)];
                    set(
                        &mut changes,
                        cycle,
                        id,
                        format!("b{:03b} {id}", reason.index() + 1),
                    );
                    resets
                        .entry(cycle + 1)
                        .or_default()
                        .insert(id.clone(), format!("b000 {id}"));
                }
                TraceEvent::Fire {
                    cycle, task, node, ..
                } => {
                    let id = &fire_ids[&(task, node)];
                    set(&mut changes, cycle, id, format!("1{id}"));
                    resets
                        .entry(cycle + 1)
                        .or_default()
                        .insert(id.clone(), format!("0{id}"));
                }
                _ => {}
            }
        }
        for (cycle, vals) in resets {
            let slot = changes.entry(cycle).or_default();
            for (id, line) in vals {
                slot.entry(id).or_insert(line);
            }
        }
        // Initial values.
        let _ = writeln!(out, "$dumpvars");
        for (_, id) in &occ_sorted {
            let _ = writeln!(out, "b00000000 {id}");
            let _ = writeln!(out, "0{id}v");
        }
        for (_, id) in &stall_sorted {
            let _ = writeln!(out, "b000 {id}");
        }
        for (_, id) in &fire_sorted {
            let _ = writeln!(out, "0{id}");
        }
        let _ = writeln!(out, "$end");
        for (cycle, vals) in changes {
            let _ = writeln!(out, "#{cycle}");
            let mut lines: Vec<(&String, &String)> = vals.iter().collect();
            lines.sort();
            for (_, line) in lines {
                let _ = writeln!(out, "{line}");
            }
        }
        out
    }
}

/// One `ph:"M"` metadata event naming process `pid` (or its thread `tid`).
fn name_event(w: &mut Writer, what: &str, pid: u32, tid: Option<u32>, name: &str) {
    w.obj().key("name").str(what).key("ph").str("M");
    w.key("pid").uint(pid);
    if let Some(tid) = tid {
        w.key("tid").uint(tid);
    }
    w.key("args").obj().key("name").str(name).end().end();
}

/// Open a `ph:"X"` complete event and its `args` object; the caller
/// writes the args and closes both.
fn begin_x_event(w: &mut Writer, name: &str, cat: &str, ts: u64, dur: u64, pid: u32, tid: u32) {
    w.obj().key("name").str(name).key("cat").str(cat);
    w.key("ph").str("X").key("ts").uint(ts).key("dur").uint(dur);
    w.key("pid")
        .uint(pid)
        .key("tid")
        .uint(tid)
        .key("args")
        .obj();
}

#[allow(clippy::too_many_arguments)]
fn mem_x_event(
    w: &mut Writer,
    structure: u32,
    id: u64,
    start: u64,
    end: u64,
    bank: u32,
    elems: u32,
    is_write: bool,
) {
    let dur = end.saturating_sub(start).max(1);
    let name = if is_write { "store" } else { "load" };
    begin_x_event(w, name, "mem", start, dur, MEM_PID_BASE + structure, bank);
    w.key("req").uint(id).key("elems").uint(elems).end().end();
}

/// Short printable VCD identifier for signal `n`.
fn vcd_id(n: usize) -> String {
    // Printable ASCII 33..=126, avoiding none: base-94 little-endian.
    let mut n = n;
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

/// VCD identifiers must not contain whitespace; names become identifiers.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let meta = TraceMeta {
            task_names: vec!["main".into()],
            node_names: vec![vec!["a".into(), "b".into()]],
            node_latency: vec![vec![1, 4]],
            edge_ends: vec![vec![(0, 1)]],
            edge_caps: vec![vec![2]],
            struct_names: vec!["spad".into()],
            struct_kinds: vec!["scratchpad".into()],
        };
        Trace {
            meta,
            events: vec![
                TraceEvent::Fire {
                    cycle: 0,
                    task: 0,
                    tile: 0,
                    node: 0,
                    instance: 0,
                },
                TraceEvent::Enq {
                    cycle: 0,
                    task: 0,
                    edge: 0,
                    occ: 1,
                },
                TraceEvent::MemReq {
                    cycle: 1,
                    structure: 0,
                    id: 9,
                    bank: 0,
                    elems: 4,
                    is_write: false,
                },
                TraceEvent::Stall {
                    cycle: 1,
                    task: 0,
                    tile: 0,
                    node: 1,
                    reason: StallReason::MemoryWait,
                    edge: None,
                    structure: Some(0),
                },
                TraceEvent::MemResp {
                    cycle: 5,
                    structure: 0,
                    id: 9,
                },
                TraceEvent::Deq {
                    cycle: 6,
                    task: 0,
                    edge: 0,
                    occ: 0,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_export_has_tracks_and_lifetimes() {
        let json = tiny_trace().to_chrome_json();
        let doc = muir_core::json::parse(&json).expect("well-formed JSON");
        assert_eq!(doc.get("traceEvents").map(|e| e.type_name()), Some("array"));
        assert!(json.contains("\"ph\":\"M\""), "metadata names present");
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        assert!(json.contains("\"ph\":\"C\""), "counter events present");
        assert!(json.contains("\"dur\":4"), "mem lifetime paired: 1..5");
        assert!(json.contains("\"cat\":\"stall\""));
        assert!(json.contains("memory-wait"));
        // Balanced braces — a cheap well-formedness smoke check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn vcd_export_declares_and_changes() {
        let vcd = tiny_trace().to_vcd();
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$var wire 8"), "occupancy vector declared");
        assert!(vcd.contains("$var wire 3"), "stall code declared");
        assert!(vcd.contains("$dumpvars"));
        assert!(vcd.contains("#0"), "time marks emitted");
        assert!(vcd.contains("#6"));
        // The stall pulse resets the cycle after it was recorded.
        assert!(vcd.contains("b011"), "memory-wait code 3 present");
    }

    #[test]
    fn bottleneck_ranking_orders_by_stalls() {
        let profile = SimProfile {
            cycles: 100,
            structs: vec![StructProfile {
                structure: 0,
                name: "l1".into(),
                kind: "cache".into(),
                mem_wait_stalls: 50,
                arb_stalls: 0,
                conflict_stalls: 10,
                hits: 10,
                misses: 30,
            }],
            channels: vec![ChannelProfile {
                task: 0,
                edge: 0,
                name: "main.e0 a->b".into(),
                capacity: 1,
                full_stalls: 5,
                ..ChannelProfile::default()
            }],
            ..SimProfile::default()
        };
        let report = profile.bottlenecks(5);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.entries[0].kind, BottleneckKind::Structure);
        assert!(report.entries[0].suggestion.contains("CacheBanking"));
        assert!(report.entries[0].share > report.entries[1].share);
        assert_eq!(report.entries[1].kind, BottleneckKind::Channel);
        assert!(report.entries[1].suggestion.contains("Fifo(2)"));
        assert!(report.to_string().contains("#1"));
    }

    #[test]
    fn miss_rate_guards_zero() {
        let s = StructProfile::default();
        assert_eq!(s.miss_rate(), 0.0);
        let s = StructProfile {
            hits: 3,
            misses: 1,
            ..StructProfile::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn vcd_ids_are_unique_and_printable() {
        let ids: Vec<String> = (0..200).map(vcd_id).collect();
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
        assert!(ids
            .iter()
            .all(|i| i.bytes().all(|b| (33..127).contains(&b))));
    }
}
