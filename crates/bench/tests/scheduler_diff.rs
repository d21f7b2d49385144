//! Differential property tests: the ready scheduler must be observably
//! indistinguishable from the dense per-cycle scanner — same cycle count,
//! same results, same `SimStats` (minus the scheduler-private visit
//! counter), same trace stream, same typed errors — in plain, traced, and
//! fault-injected runs, over one sealed artifact whose micro-op tables are
//! first held to the reference lowering (`check_lowering`).
//!
//! Two corpora: the 24 registry workloads, and a seeded fuzz corpus of
//! ≥200 generated μIR graphs (`testgen`), each run under Dense and Ready
//! in all three modes with shrink-by-seed reporting.

use muir_bench::sched::check_workload;
use muir_bench::testgen;
use muir_workloads::all;

#[test]
fn every_scheduler_matches_dense_on_every_workload() {
    let mut failures = Vec::new();
    for (i, w) in all().iter().enumerate() {
        if let Err(e) = check_workload(w, i) {
            failures.push(format!("{}: {e}", w.name));
        }
    }
    assert!(
        failures.is_empty(),
        "scheduler divergence on {} workload(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn schedulers_match_on_200_fuzzed_graphs() {
    // Fixed corpus seed: the suite replays the same 200 graphs every run;
    // `experiments fuzz --seed <s>` explores fresh corpora.
    testgen::run_seeds(0xd1f_f00d, 200).unwrap_or_else(|e| panic!("{e}"));
}
