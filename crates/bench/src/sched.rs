//! Scheduler differential harness: the oracle behind
//! `tests/scheduler_diff.rs` and the seeded fuzzers in `testgen`.
//!
//! The cycle engine has two phase-4 schedulers (`SchedulerKind`): the
//! original dense scanner, kept as the oracle, and the event-driven
//! ready-set scheduler (DESIGN.md §9), both executing the one firing body
//! over the sealed micro-op stream (DESIGN.md §14). Their contract is
//! *bit-identical observable behaviour* — cycles, results, `SimStats`
//! (minus the simulator-effort counter `sched_visits`), trace streams,
//! and even typed errors. This module checks that contract over real
//! workloads (including seeded fault plans and tracing), and holds each
//! artifact it simulates to the reference lowering first. What the ready
//! scheduler buys in host time is the benchmark's question (`benchmark/`,
//! `sim.<W>.ns_per_fire`), not this module's.

use crate::{baseline, best_stack, optimized, sealed};
use muir_core::compiled::CompiledAccel;
use muir_sim::reference::check_lowering;
use muir_sim::{
    simulate_compiled, FaultClass, FaultPlan, SchedulerKind, SimConfig, SimStats, TraceConfig,
};
use muir_workloads::Workload;

/// The observable outcome of one simulation, flattened to comparable
/// strings so differential checks are order- and representation-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Completed: (cycles, Debug-formatted results, stats fingerprint,
    /// Chrome-JSON trace when tracing was on).
    Ok {
        /// Cycles to completion.
        cycles: u64,
        /// `Debug` rendering of the root results (exact, bit-level).
        results: String,
        /// All `SimStats` fields except `sched_visits`.
        stats: String,
        /// Full Chrome-JSON event stream (`None` when tracing was off).
        trace: Option<String>,
    },
    /// Failed: the error's `Display` rendering (typed errors carry cycle
    /// numbers and sites, so equal strings mean equal failures).
    Err(String),
}

/// Every `SimStats` field except `sched_visits`, which measures simulator
/// effort, not hardware behaviour, and legitimately differs between
/// schedulers.
pub fn stats_fingerprint(s: &SimStats) -> String {
    format!(
        "cycles={} fires={} inv={:?} busy={:?} structs={:?} dram_fills={} faults={:?}",
        s.cycles,
        s.fires,
        s.task_invocations,
        s.task_busy_cycles,
        s.struct_stats,
        s.dram_fills,
        s.faults
    )
}

/// Run `w`'s sealed accelerator under one scheduler and flatten the
/// outcome. `faults`/`tracing` select the stress mode.
pub fn run_under(
    w: &Workload,
    comp: &CompiledAccel,
    scheduler: SchedulerKind,
    faults: &FaultPlan,
    tracing: bool,
) -> RunOutcome {
    let cfg = SimConfig {
        faults: faults.clone(),
        trace: if tracing {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        },
        scheduler,
        ..SimConfig::default()
    };
    let mut mem = w.fresh_memory();
    match simulate_compiled(comp, &mut mem, &[], &cfg) {
        Ok(r) => RunOutcome::Ok {
            cycles: r.cycles,
            results: format!("{:?}", r.results),
            stats: stats_fingerprint(&r.stats),
            trace: r.trace.map(|t| t.to_chrome_json()),
        },
        Err(e) => RunOutcome::Err(e.to_string()),
    }
}

/// Compare the ready run against the dense oracle; `Err` renders a
/// focused diff naming the first divergent field and the failing
/// configuration.
fn diff_outcomes(
    w: &Workload,
    dense: &RunOutcome,
    ready: &RunOutcome,
    faults: &FaultPlan,
    tracing: bool,
) -> Result<(), String> {
    if dense == ready {
        return Ok(());
    }
    // Render a focused diff rather than two page-long Debug dumps.
    let describe = |o: &RunOutcome| match o {
        RunOutcome::Ok { cycles, .. } => format!("Ok(cycles={cycles})"),
        RunOutcome::Err(e) => format!("Err({e})"),
    };
    let field = match (dense, ready) {
        (
            RunOutcome::Ok {
                cycles: c1,
                results: r1,
                stats: s1,
                trace: t1,
            },
            RunOutcome::Ok {
                cycles: c2,
                results: r2,
                stats: s2,
                trace: t2,
            },
        ) => {
            if c1 != c2 {
                format!("cycles: dense={c1} ready={c2}")
            } else if r1 != r2 {
                "results differ".to_string()
            } else if s1 != s2 {
                format!("stats: dense[{s1}] ready[{s2}]")
            } else if t1 != t2 {
                "trace streams differ".to_string()
            } else {
                "unknown field".to_string()
            }
        }
        _ => format!("dense={} ready={}", describe(dense), describe(ready)),
    };
    let fault_mode = if faults.specs.is_empty() { "off" } else { "on" };
    Err(format!(
        "{} (faults={fault_mode}, tracing={tracing}): {field}",
        w.name
    ))
}

/// The seeded fault plan a differential sweep pairs with workload `i`:
/// a single-event plan whose class cycles through [`FaultClass::ALL`]
/// and whose seed hashes the workload name, so every run of the suite
/// replays the same faults while the suite as a whole covers every class
/// (including the deadlock-shaped ones, which must deadlock at the same
/// cycle under both schedulers).
pub fn diff_fault_plan(w: &Workload, i: usize) -> FaultPlan {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in w.name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    FaultPlan::single(FaultClass::ALL[i % FaultClass::ALL.len()], h)
}

/// Differentially check one workload: its sealed baseline's tables
/// against the reference lowering, then Ready against the dense oracle in
/// all three stress modes (plain, tracing on, seeded single-event fault
/// plan) over that same artifact.
///
/// # Errors
/// The first divergence found, naming the failing configuration.
pub fn check_workload(w: &Workload, i: usize) -> Result<(), String> {
    let comp = sealed(w, &baseline(w));
    check_lowering(&comp).map_err(|e| format!("{}: lowering: {e}", w.name))?;
    let none = FaultPlan::none();
    let fault_plan = diff_fault_plan(w, i);
    for (faults, tracing) in [(&none, false), (&none, true), (&fault_plan, false)] {
        let dense = run_under(w, &comp, SchedulerKind::Dense, faults, tracing);
        let ready = run_under(w, &comp, SchedulerKind::Ready, faults, tracing);
        diff_outcomes(w, &dense, &ready, faults, tracing)?;
    }
    Ok(())
}

/// What every registry workload does, one line per workload × {baseline,
/// `best_stack`} × {`Dense`, `Ready`} × {plain, traced, seeded fault
/// plan}: cycles and the hashes of the results, the stats fingerprint and
/// the Chrome-trace bytes, or the error's full text. Two builds that print
/// the same lines simulate alike; `scripts/outcomes.golden` holds the
/// lines the parent of the last engine change printed.
pub fn outcome_lines() -> Vec<String> {
    let hash = |s: &str| {
        let mut h = muir_core::compiled::ContentHasher::new();
        h.push_str(s);
        h.finish()
    };
    let none = FaultPlan::none();
    let mut lines = Vec::new();
    for (i, w) in muir_workloads::all().iter().enumerate() {
        let fault_plan = diff_fault_plan(w, i);
        let (best, _) = optimized(w, &best_stack(w.class));
        for (config, acc) in [("baseline", baseline(w)), ("best_stack", best)] {
            let comp = sealed(w, &acc);
            for scheduler in [SchedulerKind::Dense, SchedulerKind::Ready] {
                let modes = [
                    ("plain", &none, false),
                    ("traced", &none, true),
                    ("faulted", &fault_plan, false),
                ];
                for (mode, faults, tracing) in modes {
                    let shown = match run_under(w, &comp, scheduler, faults, tracing) {
                        RunOutcome::Ok {
                            cycles,
                            results,
                            stats,
                            trace,
                        } => format!(
                            "ok cycles={cycles} res={:016x} stats={:016x} trace={:016x}",
                            hash(&results),
                            hash(&stats),
                            trace.map_or(0, |t| hash(&t))
                        ),
                        RunOutcome::Err(e) => format!("err {}", e.replace('\n', "\\n")),
                    };
                    lines.push(format!("{} {config} {scheduler:?} {mode}: {shown}", w.name));
                }
            }
        }
    }
    lines
}
