//! `muir-sim` — cycle-level simulation of μIR accelerators.
//!
//! The authors evaluate μIR-generated Chisel on an Arria 10 FPGA; this
//! crate is the substitution: a cycle-level simulator of the μIR execution
//! model itself. The paper's own thesis (§1, novelty ii) is that μIR
//! "preserves the expected cycle-level performance tradeoffs when
//! translated to RTL", so measuring cycles at the μIR level — with faithful
//! ready/valid handshakes, junction arbitration, bank conflicts, cache
//! misses, task queues and execution tiles — reproduces the *shape* of
//! every performance experiment.
//!
//! Simulations are functional: the accelerator computes real values against
//! a real memory image, which the test-suite compares word-for-word with
//! the `mir` reference interpreter.
//!
//! # Example
//!
//! ```
//! use muir_frontend::{translate, FrontendConfig};
//! use muir_mir::{FunctionBuilder, Module};
//! use muir_mir::types::ScalarType;
//! use muir_mir::instr::ValueRef;
//! use muir_mir::interp::Memory;
//! use muir_core::CompiledAccel;
//! use muir_sim::{simulate_compiled, SimConfig};
//!
//! let mut m = Module::new("double");
//! let a = m.add_mem_object("a", ScalarType::I32, 16);
//! let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
//! b.for_loop(0, ValueRef::int(16), 1, |b, i| {
//!     let v = b.load(a, i);
//!     let w = b.add(v, v);
//!     b.store(a, i, w);
//! });
//! b.ret(None);
//! m.add_function(b.finish());
//!
//! let acc = translate(&m, &FrontendConfig::default()).unwrap();
//! // Seal once (verify + lower); the sealed artifact is what runs.
//! let comp = CompiledAccel::compile(&acc).unwrap();
//! let mut mem = Memory::from_module(&m);
//! mem.init_i64(a, &[1; 16]);
//! let r = simulate_compiled(&comp, &mut mem, &[], &SimConfig::default()).unwrap();
//! assert_eq!(mem.read_i64(a), vec![2; 16]);
//! assert!(r.cycles > 0);
//! ```

#![forbid(unsafe_code)]

mod engine;
pub mod error;
pub mod fault;
pub mod hashing;
pub mod memory;
pub mod reference;
pub mod trace;

pub use error::{
    BufferSuggestion, ChannelState, DeadlockReport, FaultKind, SimError, StuckTile, WaitEdge,
};
pub use fault::{Ecc, FaultClass, FaultCounts, FaultPlan, FaultSpec};
pub use hashing::{config_hash, end_state_hash, job_hash, result_hash};
pub use memory::StructStats;
pub use trace::{
    Bottleneck, BottleneckKind, BottleneckReport, ChannelProfile, NodeProfile, SimProfile,
    StallReason, StructProfile, Trace, TraceConfig, TraceEvent, TraceMeta,
};

use muir_core::compiled::CompiledAccel;
use muir_mir::interp::Memory;
use muir_mir::value::Value;

/// Which cycle-engine scheduler drives phase 4 (admission + node firing).
///
/// Both schedulers implement the *same* execution model and produce
/// bit-identical observable behaviour (cycles, results, stats, traces);
/// `Ready` is simply cheaper. `Dense` rescans every node of every active
/// tile each cycle; `Ready` tracks per-tile ready sets updated only by
/// token movement, admission, memory responses, and scheduled events, and
/// skips cycles in which provably nothing can happen (see DESIGN.md §9).
///
/// With tracing enabled the engine always uses the dense visitation order
/// (stall attribution is inherently a per-cycle scan), so `Ready` +
/// tracing still yields bit-identical trace streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Poll every node of every active tile each cycle (the original
    /// scanner; kept alive as the differential-testing oracle).
    Dense,
    /// Event-driven ready sets + idle-cycle skipping.
    #[default]
    Ready,
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Per-tile maximum in-flight instances (pipeline window).
    pub window: u64,
    /// Clock period (ns) used for fused-node re-timing.
    pub period_ns: f64,
    /// Cycles without progress before a deadlock is reported. Progress is
    /// an admission, a firing, a completion or a retirement; a fixed-latency
    /// unit's completion is booked when it fires, so the watchdog counts
    /// from the cycle the result is valid. The deadlock is reported at the
    /// same cycle, with the same report, as if that completion had been
    /// observed when it happened, whenever this is at least the longest
    /// node latency (17 cycles at the default `period_ns`; more only for a
    /// fused chain at a shorter period). Below that, a stall can be
    /// diagnosed while a result already counted is still on its way.
    pub deadlock_cycles: u64,
    /// Databox entries per memory node: outstanding typed accesses a
    /// load/store transit point may have in flight (§3.4, Figure 7).
    pub databox_entries: u32,
    /// Token capacity of a default handshake connection. Baseline μIR
    /// edges are *pipelined connections* (§3.6): short paths buffer tokens
    /// while long paths drain, so unbalanced forks do not collapse the
    /// initiation interval.
    pub elastic_depth: u32,
    /// Seeded fault-injection schedule (empty = fault-free run).
    pub faults: FaultPlan,
    /// Observability: per-cycle event tracing and stall attribution
    /// (disabled by default; never perturbs timing when enabled).
    pub trace: TraceConfig,
    /// Phase-4 scheduling strategy (identical observable behaviour; only
    /// simulator wall-time differs).
    pub scheduler: SchedulerKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 500_000_000,
            window: 64,
            period_ns: muir_core::hw::BASELINE_PERIOD_NS,
            deadlock_cycles: 100_000,
            databox_entries: 8,
            elastic_depth: 8,
            faults: FaultPlan::none(),
            trace: TraceConfig::default(),
            scheduler: SchedulerKind::default(),
        }
    }
}

impl SimConfig {
    /// The same configuration with a different phase-4 scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Aggregate statistics of one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total cycles to root completion.
    pub cycles: u64,
    /// Total node firings.
    pub fires: u64,
    /// Invocations per task.
    pub task_invocations: Vec<u64>,
    /// Busy (tile-occupied) cycles per task.
    pub task_busy_cycles: Vec<u64>,
    /// Per-structure memory statistics.
    pub struct_stats: Vec<StructStats>,
    /// DRAM line fills.
    pub dram_fills: u64,
    /// Injected-fault tallies. A run that completes with `faults.total() >
    /// 0` may have corrupted outputs — differential harnesses must treat
    /// the flag as "outputs suspect", never as a silent pass.
    pub faults: FaultCounts,
    /// Scheduler visits: `try_fire` attempts across the run. This is a
    /// *simulator effort* counter, not a hardware observable — it differs
    /// between [`SchedulerKind`]s by design (the whole point of `Ready` is
    /// fewer visits) and must be excluded from differential comparisons.
    pub sched_visits: u64,
}

impl SimStats {
    /// Total cache hits across structures.
    pub fn cache_hits(&self) -> u64 {
        self.struct_stats.iter().map(|s| s.hits).sum()
    }

    /// Total cache misses across structures.
    pub fn cache_misses(&self) -> u64 {
        self.struct_stats.iter().map(|s| s.misses).sum()
    }

    /// Total bank-conflict stall events.
    pub fn bank_conflicts(&self) -> u64 {
        self.struct_stats.iter().map(|s| s.conflict_stalls).sum()
    }

    /// Total injected faults (0 on a fault-free run).
    pub fn faults_injected(&self) -> u64 {
        self.faults.total()
    }

    /// ECC events corrected in flight across structures.
    pub fn ecc_corrected(&self) -> u64 {
        self.struct_stats.iter().map(|s| s.ecc_corrected).sum()
    }

    /// Per-structure miss rates, index-aligned with `struct_stats`. Each
    /// rate is guarded: a structure with no cacheable traffic reports 0.
    pub fn miss_rates(&self) -> Vec<f64> {
        self.struct_stats
            .iter()
            .map(StructStats::miss_rate)
            .collect()
    }

    /// Overall miss rate across every structure (guarded like the
    /// per-struct rates).
    pub fn overall_miss_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_misses() as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sim stats: {} cycles, {} fires, {} task invocations",
            self.cycles,
            self.fires,
            self.task_invocations.iter().sum::<u64>()
        )?;
        for (ti, (inv, busy)) in self
            .task_invocations
            .iter()
            .zip(&self.task_busy_cycles)
            .enumerate()
        {
            writeln!(f, "  task {ti}: {inv} invocations, {busy} busy cycles")?;
        }
        for (si, s) in self.struct_stats.iter().enumerate() {
            writeln!(
                f,
                "  struct {si}: {} reqs, {} elem txns, {} conflict stalls, \
                 {} hits / {} misses (miss rate {:.1}%), {} writebacks",
                s.requests,
                s.elem_txns,
                s.conflict_stalls,
                s.hits,
                s.misses,
                100.0 * s.miss_rate(),
                s.writebacks
            )?;
        }
        writeln!(f, "  dram fills: {}", self.dram_fills)?;
        if self.faults.total() > 0 {
            writeln!(
                f,
                "  faults injected: {} (outputs suspect), ecc corrected: {}",
                self.faults.total(),
                self.ecc_corrected()
            )?;
        }
        Ok(())
    }
}

/// Bridge one completed run's aggregate statistics into the global
/// telemetry registry (`muir_core::telemetry`). Observation only: call
/// sites feed counters after the run completes, so the bridge can never
/// perturb the determinism contract. `wall_s` is the run's measured
/// wall-clock seconds (pass 0.0 when unknown; the cycles/sec gauge is
/// skipped).
pub fn record_stats_telemetry(stats: &SimStats, wall_s: f64) {
    use muir_core::telemetry as tm;
    if !tm::enabled() {
        return;
    }
    tm::count("sim.runs", 1);
    tm::count("sim.cycles", stats.cycles);
    tm::count("sim.fires", stats.fires);
    tm::count("sim.cache_hits", stats.cache_hits());
    tm::count("sim.cache_misses", stats.cache_misses());
    tm::count("sim.bank_conflicts", stats.bank_conflicts());
    tm::count("sim.dram_fills", stats.dram_fills);
    tm::count("sim.faults_injected", stats.faults_injected());
    tm::count("sim.ecc_corrected", stats.ecc_corrected());
    if wall_s > 0.0 {
        tm::gauge_set("sim.cycles_per_sec", (stats.cycles as f64 / wall_s) as u64);
    }
}

/// Bridge a traced run's stall totals into the registry, one counter per
/// [`StallReason`], plus the trace ring's kept/dropped tallies.
pub fn record_profile_telemetry(profile: &SimProfile) {
    use muir_core::telemetry as tm;
    if !tm::enabled() {
        return;
    }
    for reason in StallReason::ALL {
        let cycles = profile.stalls_by_reason(reason);
        if cycles > 0 {
            tm::count(&format!("sim.stall.{}", reason.name()), cycles);
        }
    }
    tm::count("sim.trace_events_recorded", profile.events_recorded);
    tm::count("sim.trace_events_dropped", profile.events_dropped);
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Cycles from launch to root-task completion.
    pub cycles: u64,
    /// The root task's results.
    pub results: Vec<Value>,
    /// Statistics.
    pub stats: SimStats,
    /// Aggregated observability profile (`Some` iff tracing was enabled).
    pub profile: Option<SimProfile>,
    /// The recorded event stream (`Some` iff tracing was enabled).
    pub trace: Option<Trace>,
}

/// Simulate the root task of a sealed accelerator artifact once against
/// `mem`. The artifact ([`CompiledAccel::compile`]) is the only thing the
/// simulator accepts: sealing verifies and lowers the graph exactly once,
/// so no run re-checks or re-derives anything, and a malformed graph is
/// rejected there with a `GraphError` instead of surfacing as a confusing
/// mid-run fault or deadlock.
///
/// # Errors
/// Deadlock, cycle-limit exhaustion, or a functional fault (e.g. an
/// out-of-bounds access on a non-predicated path).
pub fn simulate_compiled(
    comp: &CompiledAccel,
    mem: &mut Memory,
    args: &[Value],
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let mut engine = engine::Engine::new(comp, mem, cfg);
    let (cycles, results, stats, observed) = engine.run(args)?;
    let (profile, trace) = match observed {
        Some((p, t)) => (Some(p), Some(t)),
        None => (None, None),
    };
    Ok(SimResult {
        cycles,
        results,
        stats,
        profile,
        trace,
    })
}

/// One independent simulation in a [`simulate_batch_compiled`] call: the root
/// arguments, the private memory image the run mutates, and the full
/// simulation configuration (schedulers/faults/tracing may differ per job).
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Root-task arguments.
    pub args: Vec<Value>,
    /// Initial memory image; mutated in place by the run and returned in
    /// [`BatchRun::mem`].
    pub mem: Memory,
    /// Per-job simulation parameters.
    pub cfg: SimConfig,
}

/// Outcome of one [`BatchJob`]: exactly what a standalone
/// [`simulate_compiled`] call with the same inputs produces, plus the final
/// memory image.
#[derive(Debug)]
pub struct BatchRun {
    /// The simulation outcome (identical to a standalone
    /// [`simulate_compiled`]).
    pub outcome: Result<SimResult, SimError>,
    /// The job's memory image after the run.
    pub mem: Memory,
}

/// Run many independent simulations of one sealed accelerator
/// concurrently.
///
/// The artifact is shared immutably across workers; each job gets its own
/// memory image and engine, so every run is bit-identical to a standalone
/// [`simulate_compiled`] call with the same inputs regardless of `threads`
/// or completion order. Results come back index-aligned with `jobs`. This
/// is the throughput path for campaign/fuzz/DSE workloads: multi-run
/// scaling comes from running whole simulations side by side, not from
/// threading inside one run.
pub fn simulate_batch_compiled(
    comp: &CompiledAccel,
    jobs: Vec<BatchJob>,
    threads: usize,
) -> Vec<BatchRun> {
    let n = jobs.len();
    let slots: Vec<std::sync::Mutex<Option<BatchJob>>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    let results: Vec<std::sync::Mutex<Option<BatchRun>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let run_one = |i: usize| {
        let BatchJob { args, mut mem, cfg } = slots[i]
            .lock()
            .expect("batch job slot")
            .take()
            .expect("each job index is claimed exactly once");
        let outcome = simulate_compiled(comp, &mut mem, &args, &cfg);
        *results[i].lock().expect("batch result slot") = Some(BatchRun { outcome, mem });
    };
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        for i in 0..n {
            run_one(i);
        }
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    run_one(i);
                });
            }
        });
    }
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("batch result mutex")
                .expect("every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests;
