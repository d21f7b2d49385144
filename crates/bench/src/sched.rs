//! The scheduler differential: the one place a `Dense` run is compared
//! with a `Ready` run.
//!
//! The cycle engine has two phase-4 schedulers (`SchedulerKind`): the
//! original dense scanner, kept as the oracle, and the event-driven
//! ready-set scheduler (DESIGN.md §9), both executing the one firing body
//! over the sealed micro-op stream (DESIGN.md §14). Their contract is
//! *bit-identical observable behaviour*, and [`dense_vs_ready`] is its
//! one check: cycles, results, `SimStats` (minus the simulator-effort
//! counter `sched_visits`), trace bytes and end memory, or the error's
//! text, in the caller's configuration untraced and traced, plus a faulted
//! leg when the caller has a fault plan. The registry sweep
//! ([`check_workload`]), the fuzz targets in `testgen` and the root tests
//! all call it. What the ready scheduler buys in host time is the
//! benchmark's question (`benchmark/`, `sim.<W>.ns_per_fire`), not this
//! module's.

use crate::{baseline, best_stack, optimized, sealed};
use muir_core::compiled::CompiledAccel;
use muir_mir::interp::Memory;
use muir_mir::value::Value;
use muir_sim::reference::check_lowering;
use muir_sim::{
    simulate_compiled, FaultClass, FaultPlan, SchedulerKind, SimConfig, SimResult, SimStats,
    TraceConfig,
};
use muir_workloads::Workload;

/// What one simulation shows of itself.
#[derive(Debug)]
pub enum Outcome {
    /// Completed.
    Ok {
        /// Cycles, root results and stats (the trace moved to `trace`).
        run: Box<SimResult>,
        /// The Chrome-JSON event stream (`None` when tracing was off).
        trace: Option<String>,
        /// The memory the run left.
        mem: Memory,
    },
    /// Failed: the error's `Display` text (typed errors carry cycle
    /// numbers and sites, so equal texts mean equal failures).
    Err(String),
}

/// Every `SimStats` field except `sched_visits`, which measures simulator
/// effort, not hardware behaviour, and legitimately differs between
/// schedulers.
fn stats_fingerprint(s: &SimStats) -> String {
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

/// Run `comp` on `args` and the memory `fresh` makes, under `cfg` with
/// `scheduler`.
fn run_under(
    comp: &CompiledAccel,
    args: &[Value],
    fresh: &dyn Fn() -> Memory,
    cfg: &SimConfig,
    scheduler: SchedulerKind,
) -> Outcome {
    let mut mem = fresh();
    match simulate_compiled(comp, &mut mem, args, &cfg.clone().with_scheduler(scheduler)) {
        Ok(mut run) => Outcome::Ok {
            trace: run.trace.take().map(|t| t.to_chrome_json()),
            run: Box::new(run),
            mem,
        },
        Err(e) => Outcome::Err(e.to_string()),
    }
}

/// The legs a differential runs: `cfg` untraced, `cfg` traced, and `cfg`
/// untraced with `faults` in place of its own plan when there is one.
fn legs(cfg: &SimConfig, faults: Option<&FaultPlan>) -> Vec<(&'static str, SimConfig)> {
    let plain = SimConfig {
        trace: TraceConfig::default(),
        ..cfg.clone()
    };
    let traced = SimConfig {
        trace: TraceConfig::on(),
        ..cfg.clone()
    };
    let mut legs = vec![("plain", plain.clone()), ("traced", traced)];
    if let Some(faults) = faults {
        let faulted = SimConfig {
            faults: faults.clone(),
            ..plain
        };
        legs.push(("faulted", faulted));
    }
    legs
}

/// The first observable on which `ready` differs from `dense`, or `None`.
fn first_difference(dense: &Outcome, ready: &Outcome) -> Option<String> {
    let describe = |o: &Outcome| match o {
        Outcome::Ok { run, .. } => format!("Ok(cycles={})", run.cycles),
        Outcome::Err(e) => format!("Err({e})"),
    };
    match (dense, ready) {
        (
            Outcome::Ok {
                run: d,
                trace: dt,
                mem: dm,
            },
            Outcome::Ok {
                run: r,
                trace: rt,
                mem: rm,
            },
        ) => {
            let (ds, rs) = (stats_fingerprint(&d.stats), stats_fingerprint(&r.stats));
            if d.cycles != r.cycles {
                Some(format!("cycles: dense={} ready={}", d.cycles, r.cycles))
            } else if format!("{:?}", d.results) != format!("{:?}", r.results) {
                Some("results differ".to_string())
            } else if ds != rs {
                Some(format!("stats: dense[{ds}] ready[{rs}]"))
            } else if dt != rt {
                Some("trace streams differ".to_string())
            } else if dm != rm {
                Some("end memory differs".to_string())
            } else {
                None
            }
        }
        (Outcome::Err(d), Outcome::Err(r)) if d == r => None,
        _ => Some(format!(
            "error: dense={} ready={}",
            describe(dense),
            describe(ready)
        )),
    }
}

/// Hold `comp`'s tables to the reference lowering, then run it under
/// `Dense` and `Ready` in every leg — `cfg` untraced, `cfg` traced, and,
/// when `faults` is given, `cfg` untraced with that plan — and require
/// every observable to agree. Returns the `Dense` outcomes in leg order.
///
/// # Errors
/// A table the reference lowering disagrees with, or the first leg whose
/// runs differ and the first field they differ in: cycles, results,
/// stats, trace, end memory or error.
pub fn dense_vs_ready(
    comp: &CompiledAccel,
    args: &[Value],
    fresh: &dyn Fn() -> Memory,
    cfg: &SimConfig,
    faults: Option<&FaultPlan>,
) -> Result<Vec<Outcome>, String> {
    check_lowering(comp).map_err(|e| format!("lowering: {e}"))?;
    legs(cfg, faults)
        .into_iter()
        .map(|(leg, cfg)| {
            let dense = run_under(comp, args, fresh, &cfg, SchedulerKind::Dense);
            let ready = run_under(comp, args, fresh, &cfg, SchedulerKind::Ready);
            match first_difference(&dense, &ready) {
                None => Ok(dense),
                Some(field) => Err(format!("[{leg}] ready diverged from dense: {field}")),
            }
        })
        .collect()
}

/// The fault-free legs of a fault-free [`dense_vs_ready`] — plain and
/// traced — completed and left `want`, the interpreter's memory.
///
/// # Errors
/// The first leg that failed or left other memory.
pub fn completes_like(dense: &[Outcome], want: &Memory) -> Result<(), String> {
    for (leg, out) in ["plain", "traced"].into_iter().zip(dense) {
        match out {
            Outcome::Err(e) => return Err(format!("[{leg}] dense run failed: {e}")),
            Outcome::Ok { mem, .. } if mem != want => {
                return Err(format!(
                    "[{leg}] dense run diverged from the reference interpreter"
                ))
            }
            Outcome::Ok { .. } => {}
        }
    }
    Ok(())
}

/// The seeded fault plan a differential sweep pairs with workload `i`:
/// a single-event plan whose class cycles through [`FaultClass::ALL`]
/// and whose seed hashes the workload name, so every run of the suite
/// replays the same faults while the suite as a whole covers every class
/// (including the deadlock-shaped ones, which must deadlock at the same
/// cycle under both schedulers).
fn diff_fault_plan(w: &Workload, i: usize) -> FaultPlan {
    let seed = crate::fnv1a(w.name.bytes());
    FaultPlan::single(FaultClass::ALL[i % FaultClass::ALL.len()], seed)
}

/// Differentially check registry workload `i`: [`dense_vs_ready`] over its
/// sealed baseline, with [`diff_fault_plan`].
///
/// # Errors
/// The first divergence found, naming the workload and the leg.
pub fn check_workload(w: &Workload, i: usize) -> Result<(), String> {
    let comp = sealed(w, &baseline(w));
    let fresh = || w.fresh_memory();
    let faults = diff_fault_plan(w, i);
    dense_vs_ready(&comp, &[], &fresh, &SimConfig::default(), Some(&faults))
        .map(drop)
        .map_err(|e| format!("{}: {e}", w.name))
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
    let mut lines = Vec::new();
    for (i, w) in muir_workloads::all().iter().enumerate() {
        let fresh = || w.fresh_memory();
        let legs = legs(&SimConfig::default(), Some(&diff_fault_plan(w, i)));
        let (best, _) = optimized(w, &best_stack(w.class));
        for (config, acc) in [("baseline", baseline(w)), ("best_stack", best)] {
            let comp = sealed(w, &acc);
            for scheduler in [SchedulerKind::Dense, SchedulerKind::Ready] {
                for (leg, cfg) in &legs {
                    let shown = match run_under(&comp, &[], &fresh, cfg, scheduler) {
                        Outcome::Ok { run, trace, .. } => format!(
                            "ok cycles={} res={:016x} stats={:016x} trace={:016x}",
                            run.cycles,
                            hash(&format!("{:?}", run.results)),
                            hash(&stats_fingerprint(&run.stats)),
                            trace.map_or(0, |t| hash(&t))
                        ),
                        Outcome::Err(e) => format!("err {}", e.replace('\n', "\\n")),
                    };
                    lines.push(format!("{} {config} {scheduler:?} {leg}: {shown}", w.name));
                }
            }
        }
    }
    lines
}
