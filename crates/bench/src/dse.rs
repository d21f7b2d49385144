//! Seeded, deterministic design-space exploration (ROADMAP item 3).
//!
//! PR 2's bottleneck reports close the optimization loop by hand: they
//! name the μopt pass that fixes each stall and a human applies it. This
//! module closes it automatically. [`explore`] samples the enumerable
//! μopt knob surface ([`muir_uopt::config::PassSpace`]) with a seeded
//! rng, lowers every candidate to a sealed artifact, evaluates all of
//! them through the fault-tolerant [`EvalService`] (so dedup, the
//! persistent store, and batching carry real traffic), scores each point
//! as *(simulated cycles, FPGA area score)* via [`muir_rtl::cost`], and
//! reports the cycles-vs-area Pareto front per workload.
//!
//! # Determinism contract
//!
//! Same `(seed, budget)` ⇒ byte-identical `DSE_report.json`, at any
//! worker-thread count and regardless of store temperature. Three design
//! rules carry the property:
//!
//! 1. **sampling is pure** — candidate indices come from
//!    [`PassSpace::sample_indices`] seeded by `(seed, hash(workload))`,
//!    independent of evaluation order or timing;
//! 2. **evaluation is bit-reproducible** — the simulator's scheduler
//!    contract (DESIGN.md §9–§10) makes every candidate's cycles and end
//!    state identical across thread counts, and the store returns exactly
//!    what a fresh simulation would compute (DESIGN.md §13);
//! 3. **the report carries no timing** — wall-clock, store temperature
//!    (`from_store`), and retry counts live in [`DseStats`] (printed to
//!    stdout, never serialized into the report).
//!
//! Candidates dedup at two levels: distinct configs that lower to the
//! same artifact share one [`EvalService`] (artifact-level dedup), and
//! their identical jobs coalesce inside the service (job-level dedup) —
//! a `budget`-point sweep typically simulates far fewer than `budget`
//! designs.

use crate::service::{EvalJob, EvalOutcome, EvalService, ServiceConfig};
use muir_core::compiled::CompiledAccel;
use muir_core::json::{self, check_fields, Json, Writer};
use muir_core::telemetry;
use muir_core::ContentHasher;
use muir_rtl::cost::{estimate, Tech};
use muir_sim::SimConfig;
use muir_store::Store;
use muir_uopt::config::{PassConfig, PassSpace};
use muir_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Search parameters — everything the report's bytes may depend on.
#[derive(Debug, Clone)]
pub struct DseParams {
    /// Sampling seed.
    pub seed: u64,
    /// Candidates per workload (clamped to the space size, ≥ 1; the
    /// all-baseline config is always candidate 0).
    pub budget: u64,
    /// Worker threads handed to each artifact group's `EvalService`.
    /// Inert today: `explore` drains one service per group, every member
    /// of a group submits the same job, and identical jobs coalesce into
    /// one simulation — so no two simulations ever run side by side
    /// (ROADMAP follow-ups has the measured cost of evaluating groups
    /// concurrently instead). Never affects report bytes (determinism
    /// contract rule 2).
    pub threads: usize,
}

impl Default for DseParams {
    fn default() -> Self {
        DseParams {
            seed: 0xd5e,
            budget: 24,
            threads: 1,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Mixed-radix index into the knob space.
    pub index: u64,
    /// The knob assignment.
    pub config: PassConfig,
    /// [`PassConfig::config_hash`] of the assignment.
    pub config_hash: u64,
    /// Content hash of the sealed artifact this config lowered to.
    pub artifact: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// [`muir_rtl::cost::CostEstimate::area_score`] of the artifact.
    pub area_score: u64,
    /// Estimated FPGA clock (MHz).
    pub fmax_mhz: f64,
    /// Estimated power (mW).
    pub power_mw: f64,
    /// End-state content hash (outcome + final memory) — what the
    /// candidate-honesty differential compares against a cold re-run.
    pub end_state: u64,
    /// Whether some evaluated candidate strictly dominates this point.
    pub dominated: bool,
}

/// The exploration result for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadFront {
    /// Workload name.
    pub name: String,
    /// Every evaluated candidate, ascending by `index`.
    pub candidates: Vec<Candidate>,
    /// The Pareto front over `(cycles, area_score)`, ascending by cycles
    /// (hence strictly descending by area), duplicate-free.
    pub front: Vec<(u64, u64)>,
}

/// Execution counters for one [`explore`] call. Deliberately outside the
/// report: these vary with store temperature; report bytes must not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Candidates evaluated (== sampled budget after clamping).
    pub candidates: u64,
    /// Distinct artifacts after config→artifact dedup.
    pub artifacts: u64,
    /// Evaluations served by the persistent store.
    pub store_hits: u64,
    /// Submissions coalesced onto an identical pending job.
    pub coalesced: u64,
    /// Evaluations actually simulated.
    pub recomputed: u64,
    /// Typed store errors degraded to warnings.
    pub store_warnings: u64,
}

/// Measured half of a [`Candidate`], filled in as artifact groups drain.
#[derive(Debug, Clone, Copy)]
struct Measured {
    cycles: u64,
    area_score: u64,
    end_state: u64,
    fmax_mhz: f64,
    power_mw: f64,
}

/// Weak Pareto dominance with at least one strict axis: `a` dominates
/// `b` iff `a` is no worse on both axes and better on one.
pub fn dominates(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1)
}

/// The Pareto front of a point set: the distinct points no other point
/// dominates, ascending by cycles. Distinctness first means duplicated
/// optima appear once; on the returned front cycles strictly increase
/// and area scores strictly decrease (two front points can never share
/// either coordinate — the shared-coordinate one would be dominated).
pub fn pareto_front(points: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let distinct: std::collections::BTreeSet<(u64, u64)> = points.iter().copied().collect();
    distinct
        .iter()
        .copied()
        .filter(|&p| !distinct.iter().any(|&q| dominates(q, p)))
        .collect()
}

/// Salt [`PassSpace::sample_indices`] per workload so every workload
/// explores its own region of the space under one user-facing seed.
fn workload_salt(name: &str) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("dse-workload-salt-v1");
    h.push_str(name);
    h.finish()
}

/// Explore one workload: sample, lower, evaluate, score, rank.
///
/// `store_root`, when given, backs every evaluation with the persistent
/// result store (opened per artifact group; a warm root serves the whole
/// sweep from disk). The report content is identical either way.
///
/// # Panics
/// Panics if a candidate fails to lower, fails to simulate, or computes
/// outputs that diverge from the workload's reference interpreter — a
/// DSE sweep must never trade correctness for cycles.
pub fn explore(
    w: &Workload,
    params: &DseParams,
    store_root: Option<&Path>,
) -> (WorkloadFront, DseStats) {
    let _span = telemetry::span_with("dse", "dse.workload", w.name.to_string());
    let space = PassSpace::full();
    let indices = {
        let _s = telemetry::span("dse", "dse.sample");
        space.sample_indices(params.seed ^ workload_salt(w.name), params.budget)
    };
    telemetry::count("dse.candidates", indices.len() as u64);

    // Run every sampled config's pipeline on a copy of the one baseline
    // translation and group the candidates by content hash (BTreeMap:
    // deterministic evaluation order), sealing a graph the first time its
    // hash is seen. Configs whose passes are no-ops on this workload
    // collapse onto the baseline artifact here.
    let mut groups: BTreeMap<u64, (Arc<CompiledAccel>, Vec<usize>)> = BTreeMap::new();
    let mut lowered: Vec<(u64, PassConfig, u64)> = Vec::with_capacity(indices.len());
    {
        let _s = telemetry::span("dse", "dse.lower");
        let base = crate::baseline(w);
        for (slot, &i) in indices.iter().enumerate() {
            let cfg = space.nth(i);
            let mut acc = base.clone();
            cfg.pipeline()
                .run(&mut acc)
                .unwrap_or_else(|e| panic!("{} candidate {i}: {e}", w.name));
            let art = muir_core::content_hash(&acc);
            groups
                .entry(art)
                .or_insert_with(|| {
                    let comp = CompiledAccel::compile(&acc)
                        .unwrap_or_else(|e| panic!("{} candidate {i}: {e}", w.name));
                    (Arc::new(comp), Vec::new())
                })
                .1
                .push(slot);
            lowered.push((i, cfg, art));
        }
    }

    // Evaluate one artifact group at a time through the service: one
    // identical job per member, so job-level coalescing and the store
    // probe both see real traffic.
    let ref_mem = w
        .run_reference()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let mut stats = DseStats {
        candidates: indices.len() as u64,
        artifacts: groups.len() as u64,
        ..DseStats::default()
    };
    let mut evaluated: Vec<Option<Measured>> = vec![None; indices.len()];
    {
        let _s = telemetry::span("dse", "dse.evaluate");
        for (art, (comp, members)) in &groups {
            let cost = estimate(comp, Tech::FpgaArria10);
            let store = store_root.map(Store::open);
            let mut svc = EvalService::new(
                comp.clone(),
                store,
                ServiceConfig {
                    threads: params.threads,
                    ..ServiceConfig::default()
                },
            );
            for _ in members {
                svc.submit(EvalJob {
                    cfg: SimConfig::default(),
                    args: Vec::new(),
                    mem: w.fresh_memory(),
                });
            }
            let outcomes = svc.drain();
            let s = svc.stats();
            stats.store_hits += s.store_hits;
            stats.coalesced += s.coalesced;
            stats.recomputed += s.recomputed;
            stats.store_warnings += s.store_warnings;
            for (&slot, out) in members.iter().zip(&outcomes) {
                let (cycles, end_state) = record(w, *art, out, &ref_mem);
                evaluated[slot] = Some(Measured {
                    cycles,
                    area_score: cost.area_score(),
                    end_state,
                    fmax_mhz: cost.fmax_mhz,
                    power_mw: cost.power_mw,
                });
            }
        }
    }
    telemetry::count("dse.store_hits", stats.store_hits);

    // Rank: the front over all (cycles, area_score) pairs.
    let points: Vec<(u64, u64)> = evaluated
        .iter()
        .map(|e| {
            let e = e.expect("every slot evaluated");
            (e.cycles, e.area_score)
        })
        .collect();
    let front = pareto_front(&points);
    let candidates = lowered
        .into_iter()
        .zip(evaluated)
        .map(|((index, config, artifact), ev)| {
            let m = ev.expect("evaluated");
            Candidate {
                index,
                config_hash: config.config_hash(),
                config,
                artifact,
                cycles: m.cycles,
                area_score: m.area_score,
                fmax_mhz: m.fmax_mhz,
                power_mw: m.power_mw,
                end_state: m.end_state,
                dominated: !front.contains(&(m.cycles, m.area_score)),
            }
        })
        .collect();
    (
        WorkloadFront {
            name: w.name.to_string(),
            candidates,
            front,
        },
        stats,
    )
}

/// The workload the `conv1d_design_space` example explores: the tensor
/// window-convolution (Figure 2's "Opt 4 — higher-order Conv unit"
/// behaviour, fixed; the driver varies everything else around it).
pub const CONV1D_WORKLOAD: &str = "CONV[T]";
/// The example's pinned sampling seed.
pub const CONV1D_SEED: u64 = 0xd5e;
/// The example's pinned candidate budget — chosen so the sweep recovers
/// a 10-point Pareto front, which the regression test asserts exactly.
pub const CONV1D_BUDGET: u64 = 48;

/// The pinned conv1d design-space sweep. The example prints it; the
/// regression test asserts its front byte-for-byte; both stay in sync by
/// construction. Deterministic at any `threads`.
pub fn conv1d_sweep(threads: usize) -> (WorkloadFront, DseStats) {
    let w = muir_workloads::by_name(CONV1D_WORKLOAD).expect("CONV[T] is a suite workload");
    explore(
        &w,
        &DseParams {
            seed: CONV1D_SEED,
            budget: CONV1D_BUDGET,
            threads,
        },
        None,
    )
}

/// Unpack one service outcome into `(cycles, end_state)`, enforcing the
/// sweep's correctness gate against the reference interpreter.
fn record(
    w: &Workload,
    art: u64,
    out: &EvalOutcome,
    ref_mem: &muir_mir::interp::Memory,
) -> (u64, u64) {
    let r = match &out.outcome {
        Ok(r) => r,
        Err(e) => panic!("{} artifact {art:#x}: {e}", w.name),
    };
    assert!(
        w.outputs_match(ref_mem, &out.mem),
        "{} artifact {art:#x}: candidate outputs diverge from reference",
        w.name
    );
    (r.cycles, out.end_state())
}

fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

/// Serialize exploration results as the `DSE_report.json` document
/// (schema `muir-dse-v1`, validated by [`validate_dse_json`]). Purely a
/// function of its arguments — the determinism gate byte-compares this.
pub fn report_json(params: &DseParams, results: &[WorkloadFront]) -> String {
    let mut out = Writer::new();
    out.obj_lines().key("schema").str("muir-dse-v1");
    out.key("seed").str(&hex(params.seed));
    out.key("budget").uint(params.budget);
    out.key("space_size").uint(PassSpace::full().size());
    out.key("workloads").arr_lines();
    for w in results {
        out.obj_lines().key("name").str(&w.name);
        out.key("candidates").arr_lines();
        for c in &w.candidates {
            out.obj().key("index").uint(c.index);
            out.key("config").str(&c.config.to_string());
            out.key("config_hash").str(&hex(c.config_hash));
            out.key("artifact").str(&hex(c.artifact));
            out.key("cycles").uint(c.cycles);
            out.key("area_score").uint(c.area_score);
            out.key("fmax_mhz").fixed(c.fmax_mhz, 1);
            out.key("power_mw").fixed(c.power_mw, 1);
            out.key("end_state").str(&hex(c.end_state));
            out.key("dominated").bool(c.dominated).end();
        }
        out.end().key("front").arr_lines();
        for f in &w.front {
            out.obj().key("cycles").uint(f.0);
            out.key("area_score").uint(f.1).end();
        }
        out.end().end();
    }
    out.end().end();
    out.finish()
}

/// What [`validate_dse_json`] checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseSummary {
    /// Workloads in the report.
    pub workloads: usize,
    /// Candidates across all workloads.
    pub candidates: usize,
    /// Front points across all workloads.
    pub front_points: usize,
    /// Workloads whose front has ≥ 3 points (the acceptance bar counts
    /// these).
    pub nontrivial_fronts: usize,
}

fn as_pair(p: &Json, what: &str) -> Result<(u64, u64), String> {
    let num = |key: &str| -> Result<u64, String> {
        match p.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{what} `{key}` must be a non-negative integer")),
        }
    };
    Ok((num("cycles")?, num("area_score")?))
}

/// Validate a DSE report against the checked-in schema
/// (`scripts/dse_schema.json`) *and* the Pareto-front semantics: every
/// front point must be an undominated evaluated candidate, every
/// off-front candidate must be dominated by a front point, and the front
/// must be sorted and duplicate-free. The semantic half makes the gate a
/// differential check, not just a shape check.
///
/// # Errors
/// The first violation, with enough context to locate it.
pub fn validate_dse_json(report: &str, schema: &str) -> Result<DseSummary, String> {
    let schema = json::parse(schema).map_err(|e| format!("schema is not valid JSON: {e}"))?;
    let report = json::parse(report).map_err(|e| format!("report is not valid JSON: {e}"))?;

    let top = schema
        .get("top_required")
        .ok_or("schema missing `top_required`")?;
    check_fields(&report, top, "report")?;
    match report.get("schema").and_then(Json::as_str) {
        Some("muir-dse-v1") => {}
        other => return Err(format!("report schema tag {other:?}, want `muir-dse-v1`")),
    }

    let w_req = schema
        .get("workload_required")
        .ok_or("schema missing `workload_required`")?;
    let c_req = schema
        .get("candidate_required")
        .ok_or("schema missing `candidate_required`")?;
    let f_req = schema
        .get("front_required")
        .ok_or("schema missing `front_required`")?;

    let Some(Json::Arr(workloads)) = report.get("workloads") else {
        return Err("report `workloads` is not an array".to_string());
    };
    let mut summary = DseSummary {
        workloads: workloads.len(),
        ..DseSummary::default()
    };
    for w in workloads {
        check_fields(w, w_req, "workload")?;
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(Json::Arr(cands)) = w.get("candidates") else {
            return Err(format!("{name}: `candidates` is not an array"));
        };
        let Some(Json::Arr(front)) = w.get("front") else {
            return Err(format!("{name}: `front` is not an array"));
        };
        let mut points = Vec::with_capacity(cands.len());
        let mut flagged = Vec::with_capacity(cands.len());
        for (i, c) in cands.iter().enumerate() {
            check_fields(c, c_req, format_args!("{name} candidate {i}"))?;
            points.push(as_pair(c, &format!("{name} candidate {i}"))?);
            flagged.push(matches!(c.get("dominated"), Some(Json::Bool(true))));
        }
        let mut fpts = Vec::with_capacity(front.len());
        for (i, f) in front.iter().enumerate() {
            check_fields(f, f_req, format_args!("{name} front point {i}"))?;
            fpts.push(as_pair(f, &format!("{name} front point {i}"))?);
        }
        // Semantic gate: the declared front must BE the Pareto front of
        // the declared candidates, and the dominated flags must agree.
        let expect = pareto_front(&points);
        if fpts != expect {
            return Err(format!(
                "{name}: declared front {fpts:?} is not the Pareto front {expect:?} \
                 of the candidates"
            ));
        }
        for (i, (&p, &flag)) in points.iter().zip(&flagged).enumerate() {
            let on_front = expect.contains(&p);
            if on_front == flag {
                return Err(format!(
                    "{name} candidate {i}: dominated={flag} but point {p:?} is \
                     {}on the front",
                    if on_front { "" } else { "not " }
                ));
            }
        }
        summary.candidates += points.len();
        summary.front_points += fpts.len();
        if fpts.len() >= 3 {
            summary.nontrivial_fronts += 1;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_weak_with_a_strict_axis() {
        assert!(dominates((1, 1), (2, 2)));
        assert!(dominates((1, 2), (1, 3)));
        assert!(dominates((1, 2), (2, 2)));
        assert!(!dominates((1, 2), (1, 2)), "no self-domination");
        assert!(!dominates((1, 3), (2, 2)), "incomparable");
    }

    #[test]
    fn front_of_duplicates_is_a_single_point() {
        assert_eq!(pareto_front(&[(5, 5), (5, 5), (5, 5)]), vec![(5, 5)]);
    }

    /// The tensor-graph families must explore to non-trivial fronts: the
    /// default seed/budget yields at least 3 Pareto points for ATTN, and
    /// the same seed reproduces a byte-identical report at any thread
    /// count (determinism contract rule 2).
    #[test]
    fn attn_front_is_nontrivial_and_thread_independent() {
        let w = muir_workloads::by_name("ATTN").expect("ATTN in registry");
        let params = DseParams::default();
        let (front, stats) = explore(&w, &params, None);
        assert!(
            front.front.len() >= 3,
            "ATTN front has only {} point(s)",
            front.front.len()
        );
        assert_eq!(stats.candidates, params.budget);
        let (front2, _) = explore(
            &w,
            &DseParams {
                threads: 2,
                ..params.clone()
            },
            None,
        );
        let a = report_json(&params, &[front]);
        let b = report_json(&params, &[front2]);
        assert_eq!(a, b, "same-seed DSE report must be byte-identical");
    }

    #[test]
    fn front_is_sorted_and_mutually_incomparable() {
        let pts = [(10, 1), (1, 10), (5, 5), (6, 6), (10, 10), (1, 10)];
        let front = pareto_front(&pts);
        assert_eq!(front, vec![(1, 10), (5, 5), (10, 1)]);
        for w in front.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 > w[1].1);
        }
    }
}
