//! Differential property tests: the ready scheduler must be observably
//! indistinguishable from the dense per-cycle scanner — same cycle count,
//! same results, same `SimStats` (minus the scheduler-private visit
//! counter), same trace stream, same end memory, same typed errors — in
//! plain, traced, and fault-injected runs, over one sealed artifact whose
//! micro-op tables are first held to the reference lowering
//! (`sched::dense_vs_ready`).
//!
//! Two corpora: the registry workloads — the first of each `Class` here,
//! all 24 in the ignored full sweep `scripts/check.sh` runs in release —
//! and 200 seeded generated μIR graphs (the `testgen` target `graphs`).

use muir_bench::sched::check_workload;
use muir_bench::testgen::{fuzz, target};
use muir_workloads::REGISTRY;

/// `check_workload` on every registry workload `keep` selects by index.
fn sweep(keep: &dyn Fn(usize) -> bool) {
    let failures: Vec<String> = REGISTRY
        .iter()
        .enumerate()
        .filter(|&(i, _)| keep(i))
        .filter_map(|(i, e)| check_workload(&(e.build)(), i).err())
        .collect();
    assert!(
        failures.is_empty(),
        "scheduler divergence on {} workload(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn the_first_workload_of_each_class_matches_dense() {
    sweep(&|i| REGISTRY[..i].iter().all(|e| e.class != REGISTRY[i].class));
}

#[test]
#[ignore = "full sweep: scripts/check.sh, release"]
fn every_scheduler_matches_dense_on_every_workload() {
    sweep(&|_| true);
}

#[test]
fn schedulers_match_on_200_fuzzed_graphs() {
    // Fixed corpus seed: the suite replays the same 200 graphs every run;
    // `experiments fuzz graphs --seed <s>` explores fresh corpora.
    fuzz(target("graphs").unwrap(), 0xd1f_f00d, 200).unwrap_or_else(|e| panic!("{e}"));
}
