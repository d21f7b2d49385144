//! Differential and property-based gates for the DSE driver.
//!
//! Four claims, each load-bearing for ROADMAP item 3:
//!
//! 1. **Pareto semantics** — fuzzed point sets uphold the front
//!    invariants (nothing on the front is dominated, everything off the
//!    front is, the front is sorted and duplicate-free);
//! 2. **report determinism** — same seed ⇒ byte-identical report across
//!    worker-thread counts and store temperature, with a warm sweep
//!    served entirely from the store (the PR 6 gate, now for DSE);
//! 3. **candidate honesty** — what the report records via the eval
//!    service matches a cold `simulate_compiled` re-run of the same
//!    config, cycle for cycle and end-state hash for end-state hash;
//! 4. **the conv1d example's pinned sweep** recovers its known 10-point
//!    front exactly.

use muir_bench::dse::{
    conv1d_sweep, dominates, explore, pareto_front, report_json, validate_dse_json, Candidate,
    DseParams, WorkloadFront, CONV1D_BUDGET, CONV1D_WORKLOAD,
};
use muir_core::rng::SplitMix64;
use muir_sim::SimConfig;
use muir_uopt::config::PassSpace;
use muir_workloads::by_name;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// 1. Pareto-front invariants over fuzzed point sets
// ---------------------------------------------------------------------------

#[test]
fn pareto_invariants_hold_on_fuzzed_point_sets() {
    let mut rng = SplitMix64::salted(0x9a2e70, 0xf207);
    for case in 0..200 {
        let n = 1 + rng.below(40) as usize;
        // Small coordinate ranges force duplicates and ties — the edge
        // cases a naive strict-dominance front gets wrong.
        let lim = 1 + rng.below(30);
        let points: Vec<(u64, u64)> = (0..n).map(|_| (rng.below(lim), rng.below(lim))).collect();
        let front = pareto_front(&points);
        assert!(!front.is_empty(), "case {case}: front of {points:?} empty");
        // No front point is dominated by any evaluated candidate.
        for f in &front {
            for p in &points {
                assert!(
                    !dominates(*p, *f),
                    "case {case}: front point {f:?} dominated by {p:?}"
                );
            }
        }
        // Every off-front candidate is dominated by some front point.
        for p in &points {
            if !front.contains(p) {
                assert!(
                    front.iter().any(|f| dominates(*f, *p)),
                    "case {case}: off-front {p:?} dominated by no front point"
                );
            }
        }
        // Sorted, duplicate-free, mutually incomparable.
        for w in front.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 > w[1].1,
                "case {case}: front not strictly sorted: {front:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Report determinism: threads × store temperature
// ---------------------------------------------------------------------------

#[test]
fn report_is_byte_identical_across_threads_and_store_temperature() {
    let w = by_name("RELU[T]").expect("suite workload");
    let root = std::env::temp_dir().join(format!("muir-dse-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mk = |threads| DseParams {
        seed: 0x1de7e4,
        budget: 8,
        threads,
    };

    // Cold, 1 thread: populates the store.
    let (cold, cold_stats) = explore(&w, &mk(1), Some(&root));
    assert_eq!(cold_stats.store_hits, 0, "fresh store cannot hit");
    assert_eq!(cold_stats.recomputed, cold_stats.artifacts);
    let cold_report = report_json(&mk(1), std::slice::from_ref(&cold));

    // Warm, 2 threads: every artifact group must be served from disk —
    // zero simulation work, same bytes (the PR 6 warm gate for DSE).
    let (warm, warm_stats) = explore(&w, &mk(2), Some(&root));
    assert_eq!(
        warm_stats.store_hits, warm_stats.artifacts,
        "warm sweep must hit the store on every artifact group: {warm_stats:?}"
    );
    assert_eq!(warm_stats.recomputed, 0, "{warm_stats:?}");
    let warm_report = report_json(&mk(2), std::slice::from_ref(&warm));

    // Storeless, 4 threads: pure simulation, same bytes again.
    let (none, _) = explore(&w, &mk(4), None);
    let none_report = report_json(&mk(4), std::slice::from_ref(&none));

    assert_eq!(cold_report, warm_report, "cold vs warm report bytes");
    assert_eq!(
        cold_report, none_report,
        "1-thread vs 4-thread report bytes"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// 3. Candidate honesty: the report vs a cold standalone re-run
// ---------------------------------------------------------------------------

#[test]
fn candidates_are_honest_against_cold_simulation() {
    let w = by_name("SOFTM8").expect("suite workload");
    let params = DseParams {
        seed: 0x40e57,
        budget: 6,
        threads: 1,
    };
    let (front, _) = explore(&w, &params, None);
    let space = PassSpace::full();
    // A seeded sample of explored candidates, re-run cold outside the
    // service: the report's numbers must be what anyone re-deriving the
    // config from its index would measure.
    let mut rng = SplitMix64::salted(params.seed, 0x40e57e);
    for _ in 0..3 {
        let c: &Candidate = &front.candidates[rng.below(front.candidates.len() as u64) as usize];
        let cfg = space.nth(c.index);
        assert_eq!(cfg.config_hash(), c.config_hash, "index {} config", c.index);
        let (acc, _) = muir_bench::optimized(&w, &cfg.pipeline());
        let comp = muir_core::compiled::CompiledAccel::compile(&acc).expect("verifies");
        assert_eq!(
            comp.content_hash(),
            c.artifact,
            "index {} artifact",
            c.index
        );
        let mut mem = w.fresh_memory();
        let r = muir_sim::simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .expect("simulates");
        assert_eq!(r.cycles, c.cycles, "index {} cycles", c.index);
        assert_eq!(
            muir_sim::end_state_hash(&r, &mem),
            c.end_state,
            "index {} end state",
            c.index
        );
    }
}

// ---------------------------------------------------------------------------
// 4. The conv1d example's pinned sweep
// ---------------------------------------------------------------------------

#[test]
fn conv1d_sweep_recovers_known_ten_point_front() {
    let (front, stats) = conv1d_sweep(1);
    assert_eq!(front.name, CONV1D_WORKLOAD);
    assert_eq!(stats.candidates, CONV1D_BUDGET);
    assert_eq!(
        front.front,
        vec![
            (149, 18461),
            (150, 16627),
            (166, 9619),
            (175, 9253),
            (200, 8823),
            (251, 4935),
            (358, 3344),
            (370, 3227),
            (1846, 3109),
            (1894, 2895),
        ],
        "the example's pinned front moved — update the example docs and \
         EXPERIMENTS.md if this is intentional"
    );
    let base = front
        .candidates
        .iter()
        .find(|c| c.index == 0)
        .expect("baseline sampled");
    assert_eq!(
        (base.cycles, base.area_score),
        *front.front.last().expect("non-empty"),
        "the unoptimized design anchors the cheap end of this front"
    );
}

// ---------------------------------------------------------------------------
// Schema gate: the checked-in schema accepts real reports and the
// validator rejects semantic corruption.
// ---------------------------------------------------------------------------

fn schema() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/dse_schema.json");
    std::fs::read_to_string(path).expect("scripts/dse_schema.json is checked in")
}

fn synthetic_result() -> WorkloadFront {
    let mk = |index, cycles, area_score, dominated| Candidate {
        index,
        config: PassSpace::full().nth(index),
        config_hash: PassSpace::full().nth(index).config_hash(),
        artifact: 0x1000 + index,
        cycles,
        area_score,
        fmax_mhz: 400.0,
        power_mw: 500.0,
        end_state: 0x2000 + index,
        dominated,
    };
    WorkloadFront {
        name: "SYNTH".to_string(),
        candidates: vec![
            mk(0, 100, 10, false),
            mk(1, 50, 20, false),
            mk(2, 120, 30, true),
        ],
        front: vec![(50, 20), (100, 10)],
    }
}

#[test]
fn schema_accepts_wellformed_reports_and_rejects_corruption() {
    let params = DseParams::default();
    let good = report_json(&params, &[synthetic_result()]);
    let s = validate_dse_json(&good, &schema()).expect("well-formed report validates");
    assert_eq!((s.workloads, s.candidates, s.front_points), (1, 3, 2));
    assert_eq!(s.nontrivial_fronts, 0, "2-point front is trivial");

    // A dropped front point is a semantic violation, not just a shape one.
    let missing_front = good.replace("        {\"cycles\":50,\"area_score\":20},\n", "");
    let err = validate_dse_json(&missing_front, &schema()).unwrap_err();
    assert!(err.contains("not the Pareto front"), "{err}");

    // A flipped dominated flag contradicts the front.
    let mut lying = synthetic_result();
    lying.candidates[2].dominated = false;
    let err = validate_dse_json(&report_json(&params, &[lying]), &schema()).unwrap_err();
    assert!(err.contains("dominated=false"), "{err}");

    // A missing required candidate field is a shape violation.
    let shapeless = good.replace("\"end_state\":\"0x0000000000002000\",", "");
    let err = validate_dse_json(&shapeless, &schema()).unwrap_err();
    assert!(err.contains("missing `end_state`"), "{err}");
}
