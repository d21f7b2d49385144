//! Differential storage-fault campaign.
//!
//! For every storage failure class ([`StoreFaultClass`]) crossed with a
//! plain and a sim-fault-injected simulation configuration, the campaign
//! runs the same job set three ways through an [`EvalService`]:
//!
//! * **cold truth** — no store at all: the fault-free in-memory answer;
//! * **faulted run 1** — a fresh store with one seeded injected storage
//!   fault (write-path classes corrupt here);
//! * **faulted run 2** — the same store re-queried (read-path classes
//!   corrupt here; write-path corruption planted in run 1 is detected
//!   here).
//!
//! The campaign passes only if **every** outcome of every run is
//! end-state-identical (`end_state_hash`) to the cold truth, every
//! injected corruption surfaced as a typed `E-STORE-*` warning of the
//! class's expected code, and a final fourth drain is served entirely
//! from the (repaired) store. That is the store's whole robustness
//! contract in one harness: storage faults may cost time, never answers.

use crate::service::{EvalJob, EvalOutcome, EvalService, ServiceConfig};
use crate::testgen::gen_case;
use muir_core::rng::SplitMix64;
use muir_core::CompiledAccel;
use muir_sim::FaultPlan;
use muir_store::{Store, StoreFaultClass, StoreFaultPlan};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// One (storage-fault class × sim mode) campaign cell.
#[derive(Debug)]
pub struct StoreCampaignRow {
    /// The injected storage failure class.
    pub class: StoreFaultClass,
    /// `"plain"` or `"sim-faulted"` (seeded hardware fault injection in
    /// the simulation itself).
    pub sim_mode: &'static str,
    /// Jobs evaluated per run.
    pub jobs: usize,
    /// Typed `E-STORE-*` codes observed across the faulted runs.
    pub codes: Vec<String>,
    /// Whether the class's expected code was among them.
    pub code_ok: bool,
    /// Whether every faulted-run outcome matched the cold truth.
    pub end_state_ok: bool,
    /// Store hits in the final (fully warm) drain.
    pub warm_hits: u64,
    /// Whether the final drain was served entirely from the store.
    pub warm_ok: bool,
}

impl StoreCampaignRow {
    /// Whether this cell met the full contract.
    pub(crate) fn pass(&self) -> bool {
        self.code_ok && self.end_state_ok && self.warm_ok
    }
}

/// The full campaign result.
#[derive(Debug, Default)]
pub struct StoreCampaignReport {
    /// One row per (class × sim mode).
    pub rows: Vec<StoreCampaignRow>,
}

impl StoreCampaignReport {
    /// Whether every cell passed.
    pub fn all_pass(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(StoreCampaignRow::pass)
    }
}

impl fmt::Display for StoreCampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "store fault campaign: {} cells, {}",
            self.rows.len(),
            if self.all_pass() {
                "all pass"
            } else {
                "FAILURES"
            }
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} x {:<11} jobs={} end_state={} codes={:?} warm_hits={} -> {}",
                r.class.name(),
                r.sim_mode,
                r.jobs,
                if r.end_state_ok {
                    "identical"
                } else {
                    "DIVERGED"
                },
                r.codes,
                r.warm_hits,
                if r.pass() { "pass" } else { "FAIL" },
            )?;
        }
        Ok(())
    }
}

/// The `E-STORE-*` codes an injected class is allowed to surface as.
/// A read-side bit flip may land in any header field, so it accepts the
/// whole validation family.
fn expected_codes(class: StoreFaultClass) -> &'static [&'static str] {
    match class {
        StoreFaultClass::TruncateWrite => &["E-STORE-TRUNC"],
        StoreFaultClass::BitFlipRead => &[
            "E-STORE-CHECKSUM",
            "E-STORE-MAGIC",
            "E-STORE-VERSION",
            "E-STORE-TRUNC",
        ],
        StoreFaultClass::RenameFail => &["E-STORE-IO"],
        StoreFaultClass::StaleVersion => &["E-STORE-VERSION"],
    }
}

/// Extract the `[E-STORE-*]` code prefix of a service warning.
fn warning_code(w: &str) -> Option<&str> {
    let rest = w.strip_prefix('[')?;
    let end = rest.find(']')?;
    Some(&rest[..end])
}

/// The campaign's job set for one cell: the same compiled case evaluated
/// at three pipeline-window design points (three distinct store keys).
fn cell_jobs(seed: u64, sim_faulted: bool) -> (Arc<CompiledAccel>, Vec<EvalJob>) {
    let case = gen_case(seed, 1);
    let acc = case.build();
    let comp = Arc::new(CompiledAccel::compile(&acc).expect("generated cases compile"));
    let jobs = [8u64, 16, 32]
        .iter()
        .map(|&window| {
            let mut cfg = case.cfg.clone();
            cfg.window = window;
            if sim_faulted {
                cfg.faults = FaultPlan::single(case.fault_class, case.fault_seed);
            }
            EvalJob {
                cfg,
                args: vec![],
                mem: case.fresh_memory(),
            }
        })
        .collect();
    (comp, jobs)
}

fn end_states(outcomes: &[EvalOutcome]) -> Vec<u64> {
    outcomes.iter().map(EvalOutcome::end_state).collect()
}

/// Run the full campaign under `root` (each cell gets its own store
/// directory; the caller owns cleanup of `root`).
pub fn run_store_campaign(root: &Path) -> StoreCampaignReport {
    let mut report = StoreCampaignReport::default();
    for (ci, &class) in StoreFaultClass::ALL.iter().enumerate() {
        for (mi, sim_mode) in ["plain", "sim-faulted"].iter().enumerate() {
            let combo = (ci * 2 + mi) as u64;
            let seed = SplitMix64::salted(0x570e_ca3f, combo).next_u64();
            let sim_faulted = mi == 1;

            // Cold truth: no store, same service pipeline.
            let (comp, jobs) = cell_jobs(seed, sim_faulted);
            let mut cold = EvalService::new(comp.clone(), None, ServiceConfig::default());
            for j in &jobs {
                cold.submit(j.clone());
            }
            let truth = end_states(&cold.drain());

            // Faulted store: one seeded injected fault of this class.
            let store_root = root.join(format!("cell-{}-{}", class.name(), sim_mode));
            let store =
                Store::open_with_faults(&store_root, StoreFaultPlan::single(class, seed ^ combo));
            let mut svc = EvalService::new(comp, Some(store), ServiceConfig::default());
            let mut codes: Vec<String> = Vec::new();
            let mut end_state_ok = true;
            // Run 1 populates (write-path faults fire), run 2 re-reads
            // (read-path faults fire and planted corruption is detected),
            // run 3 must be fully warm.
            let mut warm_hits = 0;
            let mut warm_ok = false;
            for run in 0..3 {
                for j in &jobs {
                    svc.submit(j.clone());
                }
                let outcomes = svc.drain();
                end_state_ok &= end_states(&outcomes) == truth;
                for o in &outcomes {
                    for w in &o.store_warnings {
                        if let Some(c) = warning_code(w) {
                            if !codes.iter().any(|k| k == c) {
                                codes.push(c.to_string());
                            }
                        }
                    }
                }
                if run == 2 {
                    // Errored evaluations are (correctly) never memoized;
                    // every successful one must now be a store hit.
                    warm_ok = outcomes.iter().all(|o| o.from_store || o.outcome.is_err());
                    warm_hits = outcomes.iter().filter(|o| o.from_store).count() as u64;
                }
            }
            let code_ok = codes
                .iter()
                .any(|c| expected_codes(class).contains(&c.as_str()));
            report.rows.push(StoreCampaignRow {
                class,
                sim_mode,
                jobs: jobs.len(),
                codes,
                code_ok,
                end_state_ok,
                warm_hits,
                warm_ok,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_sim::{result_hash, simulate_compiled};
    use muir_store::{ResultKey, StoredEval};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("muir-camp-test-{}-{tag}-{n}", std::process::id()))
    }

    /// Property: for 50 seeded random graphs, a store round trip is a
    /// perfect identity on the evaluation — `result_hash` and the final
    /// memory image survive encode → seal → disk → open → decode.
    #[test]
    fn store_round_trip_is_identity_for_fuzzed_graphs() {
        let root = test_root("prop");
        let mut store = Store::open(&root);
        for i in 0..50u64 {
            let seed = SplitMix64::salted(0x0b5e_55ed, i).next_u64();
            let case = gen_case(seed, 1);
            let comp = CompiledAccel::compile(&case.build()).unwrap();
            let mut mem = case.fresh_memory();
            let result = simulate_compiled(&comp, &mut mem, &[], &case.cfg)
                .unwrap_or_else(|e| panic!("{}: fault-free case must complete: {e}", case.desc));
            let key = ResultKey::new(&comp, &case.cfg, &[], &case.fresh_memory());
            let eval = StoredEval { result, mem };
            store.put_result(key, &eval).unwrap();
            let got = store.get_result(key).unwrap().expect("warm hit");
            assert_eq!(
                result_hash(&got.result),
                result_hash(&eval.result),
                "{}: result hash must survive the round trip",
                case.desc
            );
            assert_eq!(got.mem, eval.mem, "{}: memory image differs", case.desc);
            assert_eq!(got, eval, "{}: full evaluation differs", case.desc);
        }
        let s = store.stats();
        assert_eq!(
            (s.result_puts, s.result_hits, s.corrupt_entries),
            (50, 50, 0)
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The tentpole proof: after any injected storage fault, in plain and
    /// sim-faulted modes alike, every end state is bit-identical to the
    /// fault-free cold run, every corruption surfaced typed, and the
    /// repaired store serves the final drain warm.
    #[test]
    fn campaign_end_states_are_identical_across_all_fault_classes() {
        let root = test_root("campaign");
        let report = run_store_campaign(&root);
        assert_eq!(report.rows.len(), 8, "4 classes x 2 sim modes");
        assert!(report.all_pass(), "campaign failures:\n{report}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
