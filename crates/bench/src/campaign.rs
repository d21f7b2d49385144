//! Differential fault campaign: inject one fault class at a time into a
//! workload's simulation and cross-check the outcome against the `muir-mir`
//! reference interpreter.
//!
//! Every completed run is diffed word-for-word against the reference, so
//! each injected fault lands in exactly one bucket:
//!
//! * **detected** — the simulator raised a typed [`SimError`] (fault,
//!   eval error) naming the failure site;
//! * **hung** — the run tripped the deadlock watchdog or the cycle limit
//!   (the diagnosis reports the blocked channels / outstanding memory);
//! * **masked** — the run completed and the outputs still match the
//!   reference (e.g. a corrected ECC event, a flipped bit on a dead path);
//! * **silently corrupted** — the run completed with wrong outputs. The
//!   error taxonomy guarantees these are never *invisible*: the run's
//!   [`muir_sim::FaultCounts`] flag the injection, and the campaign
//!   asserts that flag survived.
//!
//! The campaign is deterministic: the per-case seed is a hash of the
//! workload name, fault class, and replica index, so the same invocation
//! always reproduces the same report — rerun any cell to replay its fault.

use std::fmt;

use crate::Lab;
use muir_sim::{simulate_batch_compiled, FaultClass, FaultPlan, FaultSpec, SimConfig, SimError};

/// How a single injected-fault run ended, relative to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Run completed, outputs match the reference.
    Masked,
    /// Simulator raised a typed error naming the fault.
    Detected,
    /// Deadlock watchdog or cycle limit fired.
    Hung,
    /// Run completed with outputs diverging from the reference.
    SilentCorruption,
}

impl Outcome {}

/// One (workload, class, replica) cell of the campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseResult {
    /// Workload name.
    pub workload: String,
    /// Injected class.
    pub class: FaultClass,
    /// The derived per-case seed (replayable).
    pub seed: u64,
    /// Outcome bucket.
    pub outcome: Outcome,
    /// Stable error code when the run errored.
    pub code: Option<&'static str>,
    /// Full human-readable error text when the run errored — the code is
    /// for counting, the detail is for debugging the cell.
    pub detail: Option<String>,
    /// Faults the simulator recorded injecting.
    pub injected: u64,
    /// Whether the run's stats flagged the injection (always true for a
    /// silently corrupted completion — checked by the campaign).
    pub flagged: bool,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Every cell, in deterministic (workload, class, replica) order.
    pub cases: Vec<CaseResult>,
}

impl CampaignReport {
    /// Count of cases with `outcome` for `class`.
    pub(crate) fn count(&self, class: FaultClass, outcome: Outcome) -> usize {
        self.cases
            .iter()
            .filter(|c| c.class == class && c.outcome == outcome)
            .count()
    }

    /// Cases where an injection happened at all (the denominator for
    /// coverage: a zero-injection run says nothing about detection).
    pub(crate) fn injected_cases(&self, class: FaultClass) -> usize {
        self.cases
            .iter()
            .filter(|c| c.class == class && c.injected > 0)
            .count()
    }

    /// Silently corrupted completions whose stats did NOT flag the fault —
    /// the one thing the taxonomy promises can never happen.
    pub fn unflagged_corruptions(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.outcome == Outcome::SilentCorruption && !c.flagged)
            .count()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>9} {:>9} {:>6} {:>7} {:>18}",
            "fault class", "injected", "detected", "hung", "masked", "silent-corruption"
        )?;
        for &class in &FaultClass::ALL {
            let total: usize = self.cases.iter().filter(|c| c.class == class).count();
            if total == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<16} {:>9} {:>9} {:>6} {:>7} {:>18}",
                class.name(),
                self.injected_cases(class),
                self.count(class, Outcome::Detected),
                self.count(class, Outcome::Hung),
                self.count(class, Outcome::Masked),
                self.count(class, Outcome::SilentCorruption),
            )?;
        }
        let unflagged = self.unflagged_corruptions();
        writeln!(
            f,
            "{} cases; unflagged silent corruptions: {} (must be 0)",
            self.cases.len(),
            unflagged
        )
    }
}

/// FNV-1a over the case coordinates: deterministic, platform-independent
/// per-case seeds without any global RNG.
fn case_seed(workload: &str, class: FaultClass, replica: u32) -> u64 {
    crate::fnv1a(
        workload
            .bytes()
            .chain(class.name().bytes())
            .chain(replica.to_le_bytes()),
    )
}

/// The per-case simulation configuration: one seeded single-event fault.
fn case_cfg(class: FaultClass, seed: u64) -> SimConfig {
    SimConfig {
        // Tight enough that a timed-out response hangs quickly, loose
        // enough that no fault-free workload trips it.
        max_cycles: 2_000_000,
        deadlock_cycles: 10_000,
        faults: FaultPlan {
            seed,
            specs: vec![FaultSpec {
                class,
                rate_ppm: 20_000,
                max_events: 1,
            }],
        },
        ..SimConfig::default()
    }
}

/// Bucket one finished run against the reference.
fn classify(
    workload: &str,
    class: FaultClass,
    seed: u64,
    w: &muir_workloads::Workload,
    ref_mem: &muir_mir::interp::Memory,
    result: Result<u64, SimError>,
    mem: &muir_mir::interp::Memory,
) -> CaseResult {
    let (outcome, code, detail, injected, flagged) = match result {
        Ok(injected) => {
            if w.outputs_match(ref_mem, mem) {
                (Outcome::Masked, None, None, injected, injected > 0)
            } else {
                (
                    Outcome::SilentCorruption,
                    None,
                    None,
                    injected,
                    injected > 0,
                )
            }
        }
        Err(e @ (SimError::Deadlock { .. } | SimError::CycleLimitExhausted { .. })) => {
            (Outcome::Hung, Some(e.code()), Some(e.to_string()), 1, true)
        }
        Err(e) => (
            Outcome::Detected,
            Some(e.code()),
            Some(e.to_string()),
            1,
            true,
        ),
    };
    CaseResult {
        workload: workload.to_string(),
        class,
        seed,
        outcome,
        code,
        detail,
        injected,
        flagged,
    }
}

/// Run the full campaign: `replicas` seeded runs of every fault class on
/// every named workload, each workload sealed once and checked against
/// its bench in `lab`, its cases run as one [`simulate_batch_compiled`]
/// batch on `threads` worker threads. Each case is an independent simulation with
/// its own seed, memory image, and configuration, so the same arguments
/// give a byte-identical report at any thread count — only wall time
/// changes.
///
/// # Panics
/// Panics if a workload name is unknown, its baseline fails to seal, or
/// the fault-free reference itself fails (campaign preconditions, not
/// fault outcomes).
pub fn run_campaign(
    lab: &mut Lab,
    workloads: &[&str],
    classes: &[FaultClass],
    replicas: u32,
    threads: usize,
) -> CampaignReport {
    let mut report = CampaignReport::default();
    for &name in workloads {
        let b = lab.named(name);
        let (w, comp) = (&b.w, crate::sealed(&b.w, &b.base));
        // Deterministic (class, replica) order.
        let coords: Vec<(FaultClass, u64)> = classes
            .iter()
            .flat_map(|&class| (0..replicas).map(move |r| (class, case_seed(name, class, r))))
            .collect();
        let jobs: Vec<muir_sim::BatchJob> = coords
            .iter()
            .map(|&(class, seed)| muir_sim::BatchJob {
                args: Vec::new(),
                mem: w.fresh_memory(),
                cfg: case_cfg(class, seed),
            })
            .collect();
        let runs = simulate_batch_compiled(&comp, jobs, threads);
        for (&(class, seed), run) in coords.iter().zip(runs) {
            let case = classify(
                name,
                class,
                seed,
                w,
                &b.reference,
                run.outcome.map(|r| r.stats.faults_injected()),
                &run.mem,
            );
            assert!(
                case.outcome != Outcome::SilentCorruption || case.flagged,
                "{name}/{}: corrupted completion without a fault flag",
                class.name()
            );
            report.cases.push(case);
        }
    }
    report
}

/// The default campaign of `experiments faults`: three workloads spanning
/// the scratchpad (SAXPY), cache (GEMM), and stencil-halo (STENCIL)
/// memory systems, all six fault classes, three replicas each — batched
/// across the host's cores.
pub fn default_campaign(lab: &mut Lab) -> CampaignReport {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    run_campaign(
        lab,
        &["SAXPY", "GEMM", "STENCIL"],
        &FaultClass::ALL,
        3,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic() {
        let wl = ["SAXPY"];
        let classes = [FaultClass::TokenDrop, FaultClass::MemEcc];
        let a = run_campaign(&mut Lab::default(), &wl, &classes, 2, 1);
        let b = run_campaign(&mut Lab::default(), &wl, &classes, 2, 1);
        assert_eq!(a, b, "same arguments must reproduce the same report");
        assert_eq!(a.cases.len(), 4);
    }

    #[test]
    fn case_seeds_differ_across_coordinates() {
        let s1 = case_seed("GEMM", FaultClass::TokenDrop, 0);
        let s2 = case_seed("GEMM", FaultClass::TokenDrop, 1);
        let s3 = case_seed("GEMM", FaultClass::TokenDup, 0);
        let s4 = case_seed("SAXPY", FaultClass::TokenDrop, 0);
        let all = [s1, s2, s3, s4];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn corrupted_completions_are_always_flagged() {
        let r = run_campaign(
            &mut Lab::default(),
            &["SAXPY"],
            &[FaultClass::TokenBitFlip],
            4,
            1,
        );
        assert_eq!(r.unflagged_corruptions(), 0);
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let wl = ["SAXPY", "GEMM"];
        let classes = [FaultClass::TokenDrop, FaultClass::MemEcc];
        let one = run_campaign(&mut Lab::default(), &wl, &classes, 2, 1);
        let four = run_campaign(&mut Lab::default(), &wl, &classes, 2, 4);
        assert_eq!(one, four, "cases, error texts included");
        assert_eq!(one.to_string(), four.to_string(), "report bytes");
    }
}
