//! Fault-tolerant batch evaluation service over the persistent store.
//!
//! [`EvalService`] is a long-lived front end for evaluating design points
//! of one sealed artifact: a job queue feeding
//! [`muir_sim::simulate_batch_compiled`] workers, with the robustness
//! ladder wrapped around every evaluation:
//!
//! 1. **dedup before dispatch** — identical pending design points (same
//!    artifact, config, arguments, and initial memory) coalesce to one
//!    execution; every submitter gets the shared outcome;
//! 2. **memoization** — results are looked up in the [`Store`] before any
//!    simulation work; a warm hit skips the engine entirely;
//! 3. **deadlines** — a per-job cycle budget is enforced cooperatively by
//!    the simulator's own cycle-limit watchdog (the engine checks its
//!    budget every cycle, so a runaway job stops at the deadline and
//!    surfaces as the *transient* `E-SIM-LIMIT`);
//! 4. **bounded retry** — transient failures
//!    ([`SimError::is_transient`]) are retried up to a bounded attempt
//!    count; each retry doubles the cycle budget up to the job's own
//!    `max_cycles`, so a deadline-clipped job gets a real second chance
//!    (the simulator is deterministic and in-process: there is nothing to
//!    back off from);
//! 5. **degradation** — any store failure is recorded as a typed warning
//!    (`E-STORE-*`) and the evaluation recomputes in memory; the store
//!    can never fail a job, only fail to accelerate it.

use muir_core::{telemetry, CompiledAccel};
use muir_mir::interp::Memory;
use muir_mir::value::Value;
use muir_sim::{
    end_state_hash, simulate_batch_compiled, simulate_compiled, BatchJob, SimConfig, SimError,
    SimResult,
};
use muir_store::{memoizable, ResultKey, Store, StoredEval};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Retry policy for transient failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads per batch dispatch.
    pub threads: usize,
    /// Per-job deadline as a cycle budget (0 = no deadline). Enforced
    /// cooperatively: the job's `max_cycles` is clamped to this budget,
    /// so the simulator's watchdog stops the run at the deadline.
    pub deadline_cycles: u64,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 1,
            deadline_cycles: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// One evaluation request: a design point to run on the service's sealed
/// artifact.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// Simulation parameters.
    pub cfg: SimConfig,
    /// Root-task arguments.
    pub args: Vec<Value>,
    /// Initial memory image.
    pub mem: Memory,
}

/// The outcome of one submitted job, plus its provenance.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The simulation outcome — identical to a standalone
    /// [`simulate_compiled`] call with the same inputs.
    pub outcome: Result<SimResult, SimError>,
    /// The memory image after the run (the submitted image, unchanged,
    /// when the run failed before completing).
    pub mem: Memory,
    /// Whether the result came from the persistent store (no simulation
    /// work was done for this submission).
    pub from_store: bool,
    /// Simulation attempts spent (0 for a store hit, 1 for a clean
    /// first-try run, more after retries).
    pub attempts: u32,
    /// Whether this submission was deduplicated onto another identical
    /// pending job's execution.
    pub coalesced: bool,
    /// Typed store warnings (`E-STORE-*` in each string) hit while
    /// serving this job. Non-empty means the store degraded and the
    /// result was recomputed in memory — never that the result is wrong.
    pub store_warnings: Vec<String>,
    /// End-to-end wall time of this submission through the service, in
    /// microseconds: from the start of the drain that served it until
    /// its outcome (queueing, store probe, simulation, and retries
    /// included). Members of a coalesced group share their group's time.
    pub wall_us: u64,
}

impl EvalOutcome {
    /// Content hash of the complete end state (outcome + final memory);
    /// errors hash their display text.
    pub fn end_state(&self) -> u64 {
        match &self.outcome {
            Ok(r) => end_state_hash(r, &self.mem),
            Err(e) => {
                let mut h = muir_core::ContentHasher::new();
                h.push(e.to_string().as_bytes());
                h.finish()
            }
        }
    }
}

/// Aggregate counters of one service instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Distinct executions after dedup (groups).
    pub executed_groups: u64,
    /// Submissions served by coalescing onto an identical pending job.
    pub coalesced: u64,
    /// Groups served from the persistent store.
    pub store_hits: u64,
    /// Groups that missed the store (or had no store) and simulated.
    pub recomputed: u64,
    /// Retry attempts spent on transient failures.
    pub retries: u64,
    /// Jobs whose cycle budget was clipped by the service deadline.
    pub deadline_clipped: u64,
    /// Typed store errors degraded into warnings.
    pub store_warnings: u64,
    /// Jobs with a recorded end-to-end wall time (drained submissions).
    pub jobs_timed: u64,
    /// Median per-job end-to-end wall time, microseconds.
    pub p50_wall_us: u64,
    /// 95th-percentile per-job end-to-end wall time, microseconds.
    pub p95_wall_us: u64,
    /// Maximum per-job end-to-end wall time, microseconds.
    pub max_wall_us: u64,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service: {} submitted, {} executed groups, {} coalesced",
            self.submitted, self.executed_groups, self.coalesced
        )?;
        writeln!(
            f,
            "  store hits {} / recomputed {} / warnings {}",
            self.store_hits, self.recomputed, self.store_warnings
        )?;
        write!(
            f,
            "  retries {}, deadline-clipped {}",
            self.retries, self.deadline_clipped
        )?;
        if self.jobs_timed > 0 {
            write!(
                f,
                "\n  job wall us: p50 {} / p95 {} / max {} ({} timed)",
                self.p50_wall_us, self.p95_wall_us, self.max_wall_us, self.jobs_timed
            )?;
        }
        Ok(())
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// How one pending group will be served.
struct Group {
    /// Index of the representative submission.
    rep: usize,
    /// All submissions in the group (including `rep`).
    members: Vec<usize>,
    /// The group's store key (`None` when not memoizable).
    key: Option<ResultKey>,
    /// Store warnings accumulated while serving the group.
    warnings: Vec<String>,
}

/// The batch evaluation service for one sealed artifact.
pub struct EvalService {
    comp: Arc<CompiledAccel>,
    store: Option<Store>,
    config: ServiceConfig,
    pending: Vec<EvalJob>,
    stats: ServiceStats,
    /// Per-job end-to-end wall times (µs) across every drain so far.
    wall_us: Vec<u64>,
    /// Whether the artifact record has been persisted (it is written at
    /// most once per service — with the first successful result
    /// writeback, so a store that is never useful is never written to).
    artifact_recorded: bool,
}

impl EvalService {
    /// A service evaluating design points of `comp`, memoizing through
    /// `store` (pass `None` to run purely in memory).
    pub fn new(comp: Arc<CompiledAccel>, store: Option<Store>, config: ServiceConfig) -> Self {
        EvalService {
            comp,
            store,
            config,
            pending: Vec::new(),
            stats: ServiceStats::default(),
            wall_us: Vec::new(),
            artifact_recorded: false,
        }
    }

    /// Queue a job. Returns its submission index; [`EvalService::drain`]
    /// returns outcomes at the same indices.
    pub fn submit(&mut self, job: EvalJob) -> usize {
        self.stats.submitted += 1;
        self.pending.push(job);
        telemetry::count("service.submitted", 1);
        telemetry::gauge_set("service.queue_depth", self.pending.len() as u64);
        self.pending.len() - 1
    }

    /// Counters so far, with the per-job wall-time percentiles computed
    /// over every drained submission.
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.stats;
        if !self.wall_us.is_empty() {
            let mut v = self.wall_us.clone();
            v.sort_unstable();
            s.jobs_timed = v.len() as u64;
            s.p50_wall_us = percentile(&v, 50);
            s.p95_wall_us = percentile(&v, 95);
            s.max_wall_us = *v.last().expect("non-empty");
        }
        s
    }

    /// Store counters (zeroed default when the service has no store).
    pub fn store_stats(&self) -> muir_store::StoreStats {
        self.store.as_ref().map(Store::stats).unwrap_or_default()
    }

    /// The artifact this service evaluates.
    pub fn artifact(&self) -> &CompiledAccel {
        &self.comp
    }

    /// Evaluate every pending job and return outcomes in submission
    /// order. Identical jobs coalesce; results come from the store when
    /// possible, from one batched simulation otherwise; completed
    /// simulations are written back to the store.
    pub fn drain(&mut self) -> Vec<EvalOutcome> {
        let drain_t0 = Instant::now();
        let mut jobs = std::mem::take(&mut self.pending);
        let _drain_span = telemetry::span_with(
            "service",
            "service.drain",
            if telemetry::enabled() {
                format!("{} jobs", jobs.len())
            } else {
                String::new()
            },
        );
        telemetry::gauge_set("service.queue_depth", 0);
        let mut groups = {
            let _s = telemetry::span("service", "service.group");
            self.group(&jobs)
        };
        self.stats.executed_groups += groups.len() as u64;
        self.stats.coalesced += (jobs.len() - groups.len()) as u64;
        telemetry::count("service.executed_groups", groups.len() as u64);
        telemetry::count("service.coalesced", (jobs.len() - groups.len()) as u64);
        // Only a group's representative is ever read again (dispatch and
        // retry): give the other members' input images back now rather
        // than holding every duplicate until the drain returns.
        for g in &groups {
            for &m in g.members.iter().filter(|&&m| m != g.rep) {
                release_input(&mut jobs[m]);
            }
        }

        // Phase 1: store lookups. Hits fill their whole group; misses
        // (and typed store failures, degraded to warnings) queue for
        // simulation.
        let mut outcomes: Vec<Option<EvalOutcome>> = (0..jobs.len()).map(|_| None).collect();
        let mut to_run: Vec<Group> = Vec::new();
        for mut g in groups.drain(..) {
            let probed = {
                let _s = telemetry::span("store", "service.store_probe");
                self.probe_store(g.key, &mut g.warnings)
            };
            if let Some(hit) = probed {
                self.stats.store_hits += 1;
                self.stats.store_warnings += g.warnings.len() as u64;
                telemetry::count("service.store_hits", 1);
                telemetry::count("service.store_warnings", g.warnings.len() as u64);
                let wall = drain_t0.elapsed().as_micros() as u64;
                self.record_job_wall(wall, g.members.len());
                // Served: the submitted image is dead, and the decoded
                // entry moves into the outcome.
                release_input(&mut jobs[g.rep]);
                let served = EvalOutcome {
                    outcome: Ok(hit.result),
                    mem: hit.mem,
                    from_store: true,
                    attempts: 0,
                    coalesced: false,
                    store_warnings: std::mem::take(&mut g.warnings),
                    wall_us: wall,
                };
                fill_group(&mut outcomes, &g, served);
            } else {
                self.stats.recomputed += 1;
                telemetry::count("service.recomputed", 1);
                to_run.push(g);
            }
        }

        // Phase 2: the groups that must simulate go to the workers as one
        // batch.
        if !to_run.is_empty() {
            telemetry::observe(
                "service.batch_size",
                &telemetry::COUNT_BUCKETS,
                to_run.len() as u64,
            );
            let batch: Vec<BatchJob> = to_run
                .iter()
                .map(|g| {
                    let job = &jobs[g.rep];
                    BatchJob {
                        args: job.args.clone(),
                        mem: job.mem.clone(),
                        cfg: self.clamp_deadline(&job.cfg, true),
                    }
                })
                .collect();
            let sim_t0 = Instant::now();
            let runs = {
                let _s = telemetry::span_with(
                    "service",
                    "service.simulate",
                    if telemetry::enabled() {
                        format!("{} groups", batch.len())
                    } else {
                        String::new()
                    },
                );
                simulate_batch_compiled(&self.comp, batch, self.config.threads)
            };
            let per_run_wall_s = sim_t0.elapsed().as_secs_f64() / to_run.len() as f64;
            for (mut g, run) in to_run.into_iter().zip(runs) {
                let (outcome, mem, attempts) =
                    self.retry_transient(&jobs[g.rep], run.outcome, run.mem);
                if let Ok(result) = &outcome {
                    if telemetry::enabled() {
                        muir_sim::record_stats_telemetry(&result.stats, per_run_wall_s);
                        if let Some(p) = &result.profile {
                            muir_sim::record_profile_telemetry(p);
                        }
                    }
                    self.writeback(g.key, result, &mem, &mut g.warnings);
                }
                self.stats.store_warnings += g.warnings.len() as u64;
                telemetry::count("service.store_warnings", g.warnings.len() as u64);
                let wall = drain_t0.elapsed().as_micros() as u64;
                self.record_job_wall(wall, g.members.len());
                let ran = EvalOutcome {
                    outcome,
                    mem,
                    from_store: false,
                    attempts,
                    coalesced: false,
                    store_warnings: std::mem::take(&mut g.warnings),
                    wall_us: wall,
                };
                fill_group(&mut outcomes, &g, ran);
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every submission received an outcome"))
            .collect()
    }

    /// Record one group's end-to-end wall time for each of its members
    /// (the per-job latency distribution behind `ServiceStats`'s
    /// p50/p95/max and the `service.job_wall_us` histogram).
    fn record_job_wall(&mut self, wall: u64, members: usize) {
        for _ in 0..members {
            self.wall_us.push(wall);
            telemetry::observe("service.job_wall_us", &telemetry::US_BUCKETS, wall);
        }
    }

    /// Group identical pending jobs. Keys are content hashes, so a
    /// collision is possible in principle; membership is confirmed by
    /// comparing the actual inputs against the representative, and a
    /// non-matching job opens its own group. Non-memoizable jobs (key
    /// `None`) never coalesce.
    fn group(&mut self, jobs: &[EvalJob]) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = memoizable(&job.cfg)
                .then(|| ResultKey::new(&self.comp, &job.cfg, &job.args, &job.mem));
            let existing = groups
                .iter_mut()
                .find(|g| key.is_some() && g.key == key && jobs_identical(&jobs[g.rep], job));
            match existing {
                Some(g) => g.members.push(i),
                None => groups.push(Group {
                    rep: i,
                    members: vec![i],
                    key,
                    warnings: Vec::new(),
                }),
            }
        }
        groups
    }

    /// The job's config with the service deadline applied. `count`
    /// tallies the clip (true only on the initial dispatch, not on
    /// retries).
    fn clamp_deadline(&mut self, cfg: &SimConfig, count: bool) -> SimConfig {
        let mut c = cfg.clone();
        if self.config.deadline_cycles > 0 && c.max_cycles > self.config.deadline_cycles {
            c.max_cycles = self.config.deadline_cycles;
            if count {
                self.stats.deadline_clipped += 1;
                telemetry::count("service.deadline_clipped", 1);
            }
        }
        c
    }

    /// Bounded retry for transient failures, with a doubling cycle budget
    /// (never past the job's own `max_cycles`).
    fn retry_transient(
        &mut self,
        job: &EvalJob,
        first: Result<SimResult, SimError>,
        first_mem: Memory,
    ) -> (Result<SimResult, SimError>, Memory, u32) {
        let mut outcome = first;
        let mut mem = first_mem;
        let mut attempts = 1u32;
        let mut budget = self.clamp_deadline(&job.cfg, false).max_cycles.max(1);
        while attempts < self.config.retry.max_attempts.max(1) {
            if !matches!(&outcome, Err(e) if e.is_transient()) {
                break;
            }
            budget = budget.saturating_mul(2).min(job.cfg.max_cycles.max(1));
            let mut cfg = job.cfg.clone();
            cfg.max_cycles = budget;
            let mut m = job.mem.clone();
            {
                let _s = telemetry::span_with(
                    "service",
                    "service.retry",
                    if telemetry::enabled() {
                        format!("attempt {} (budget {budget})", attempts + 1)
                    } else {
                        String::new()
                    },
                );
                outcome = simulate_compiled(&self.comp, &mut m, &job.args, &cfg);
            }
            mem = m;
            attempts += 1;
            self.stats.retries += 1;
            telemetry::count("service.retries", 1);
        }
        (outcome, mem, attempts)
    }

    /// Look up a group's memoized result; failures degrade to `None`
    /// with a typed warning.
    fn probe_store(
        &mut self,
        key: Option<ResultKey>,
        warnings: &mut Vec<String>,
    ) -> Option<StoredEval> {
        let key = key?;
        let store = self.store.as_mut()?;
        match store.get_result(key) {
            Ok(hit) => hit,
            Err(e) => {
                warnings.push(e.to_string());
                None
            }
        }
    }

    /// Write a completed evaluation back to the store; failures degrade
    /// to a typed warning.
    fn writeback(
        &mut self,
        key: Option<ResultKey>,
        result: &SimResult,
        mem: &Memory,
        warnings: &mut Vec<String>,
    ) {
        let (Some(key), Some(store)) = (key, self.store.as_mut()) else {
            return;
        };
        let eval = StoredEval {
            result: SimResult {
                cycles: result.cycles,
                results: result.results.clone(),
                stats: result.stats.clone(),
                profile: None,
                trace: None,
            },
            mem: mem.clone(),
        };
        let mut put = store.put_result(key, &eval);
        if let Err(e) = &put {
            // Record the degradation even if the retry below repairs it.
            warnings.push(e.to_string());
            if e.is_transient() {
                // One storage retry: rename/IO hiccups are the transient
                // class the split exists for.
                put = store.put_result(key, &eval);
                if let Err(e2) = &put {
                    warnings.push(e2.to_string());
                }
            }
        }
        if put.is_ok() && !self.artifact_recorded {
            // The artifact record is durability metadata; best-effort,
            // and written at most once per service.
            match store.put_artifact(&self.comp) {
                Ok(_) => self.artifact_recorded = true,
                Err(e) => warnings.push(e.to_string()),
            }
        }
    }
}

/// Exact input equality — the collision guard behind key-based dedup.
fn jobs_identical(a: &EvalJob, b: &EvalJob) -> bool {
    a.args == b.args && a.mem == b.mem && a.cfg == b.cfg
}

/// Drop a job's input memory image (the job stays in place so
/// submission indices hold).
fn release_input(job: &mut EvalJob) {
    job.mem = Memory::default();
}

/// Store `rep` at the representative's slot of `g` and a copy, marked
/// coalesced, at every other member's.
fn fill_group(outcomes: &mut [Option<EvalOutcome>], g: &Group, rep: EvalOutcome) {
    for &m in g.members.iter().filter(|&&m| m != g.rep) {
        outcomes[m] = Some(EvalOutcome {
            coalesced: true,
            ..rep.clone()
        });
    }
    outcomes[g.rep] = Some(rep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::gen_case;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("muir-svc-test-{}-{tag}-{n}", std::process::id()))
    }

    /// A deterministic small case compiled for service tests.
    fn sample(seed: u64) -> (Arc<CompiledAccel>, EvalJob) {
        let case = gen_case(seed, 1);
        let comp = Arc::new(CompiledAccel::compile(&case.build()).unwrap());
        let job = EvalJob {
            cfg: case.cfg.clone(),
            args: vec![],
            mem: case.fresh_memory(),
        };
        (comp, job)
    }

    #[test]
    fn identical_jobs_coalesce_to_one_execution() {
        let (comp, job) = sample(0x11);
        let mut distinct = job.clone();
        distinct.cfg.window = job.cfg.window + 1;
        let mut svc = EvalService::new(comp, None, ServiceConfig::default());
        for _ in 0..3 {
            svc.submit(job.clone());
        }
        svc.submit(distinct);
        let out = svc.drain();
        let s = svc.stats();
        assert_eq!((s.submitted, s.executed_groups, s.coalesced), (4, 2, 2));
        assert!(!out[0].coalesced && out[1].coalesced && out[2].coalesced);
        assert_eq!(out[0].end_state(), out[1].end_state());
        assert_eq!(out[0].end_state(), out[2].end_state());
        assert!(out.iter().all(|o| o.outcome.is_ok()), "all complete");
    }

    #[test]
    fn warm_drain_is_served_entirely_from_store() {
        let root = test_root("warm");
        let (comp, job) = sample(0x22);
        let store = Store::open(&root);
        let mut svc = EvalService::new(comp, Some(store), ServiceConfig::default());
        svc.submit(job.clone());
        let cold = svc.drain();
        assert!(!cold[0].from_store && cold[0].attempts == 1);
        svc.submit(job);
        let warm = svc.drain();
        assert!(warm[0].from_store, "second drain must hit the store");
        assert_eq!(warm[0].attempts, 0, "no simulation work on a hit");
        assert_eq!(cold[0].end_state(), warm[0].end_state(), "bit-identical");
        let ss = svc.store_stats();
        assert_eq!((ss.result_puts, ss.result_hits), (1, 1));
        assert_eq!(svc.stats().store_hits, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn deadline_clip_surfaces_transient_and_retry_recovers() {
        let (comp, job) = sample(0x33);
        // The unconstrained truth, for comparison.
        let mut probe = EvalService::new(comp.clone(), None, ServiceConfig::default());
        probe.submit(job.clone());
        let truth = probe.drain()[0].end_state();

        // An absurdly tight deadline: the first attempt must hit the
        // watchdog; the doubling retry budget recovers within the
        // attempt bound.
        let cfg = ServiceConfig {
            deadline_cycles: 4,
            retry: RetryPolicy { max_attempts: 16 },
            ..ServiceConfig::default()
        };
        let mut svc = EvalService::new(comp, None, cfg);
        svc.submit(job);
        let out = svc.drain();
        assert!(
            out[0].outcome.is_ok(),
            "retry must recover: {:?}",
            out[0].outcome
        );
        assert_eq!(out[0].end_state(), truth, "recovered run is the true run");
        assert!(out[0].attempts >= 2, "the clipped attempt must have failed");
        let s = svc.stats();
        assert_eq!(s.deadline_clipped, 1);
        assert_eq!(u64::from(out[0].attempts) - 1, s.retries);
    }

    #[test]
    fn disabled_store_degrades_to_recompute_with_typed_warning() {
        let root = test_root("disabled");
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("occupied");
        std::fs::write(&file, b"x").unwrap();
        let (comp, job) = sample(0x44);
        let store = Store::open(&file.join("sub"));
        assert!(store.is_disabled());
        let mut svc = EvalService::new(comp, Some(store), ServiceConfig::default());
        svc.submit(job);
        let out = svc.drain();
        assert!(out[0].outcome.is_ok(), "degradation never fails the job");
        assert!(!out[0].from_store);
        assert!(
            out[0]
                .store_warnings
                .iter()
                .any(|w| w.contains("E-STORE-DISABLED")),
            "typed warning expected, got {:?}",
            out[0].store_warnings
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The MT-INFER multi-tenant scenario: one sealed artifact, one
    /// service, eight tenants each submitting their own activation
    /// matrix against the shared weights. Every tenant's outcome must be
    /// bit-identical to a standalone run on the same memory, distinct
    /// tenants must not coalesce, a duplicate submission must, and the
    /// answer must not depend on the worker-thread count.
    #[test]
    fn multi_tenant_inference_shares_one_sealed_artifact() {
        use muir_workloads::{tensorgraph, Prng};

        let w = tensorgraph::mt_infer();
        let acc = crate::baseline(&w);
        let comp = Arc::new(CompiledAccel::compile(&acc).unwrap());
        let xobj = w.inits[0].0;

        // Eight tenants: per-tenant activations X, shared banked weights W.
        let mems: Vec<Memory> = (0..8u64)
            .map(|t| {
                let mut mem = w.fresh_memory();
                mem.init_f32(xobj, &Prng::new(0x3e7a + t).f32_vec(64));
                mem
            })
            .collect();
        let job = |mem: &Memory| EvalJob {
            cfg: SimConfig::default(),
            args: vec![],
            mem: mem.clone(),
        };

        let mut svc = EvalService::new(
            comp.clone(),
            None,
            ServiceConfig {
                threads: 4,
                ..ServiceConfig::default()
            },
        );
        for mem in &mems {
            svc.submit(job(mem));
        }
        let dup = svc.submit(job(&mems[0])); // tenant 0 resubmits
        let out = svc.drain();
        let s = svc.stats();
        assert_eq!((s.submitted, s.executed_groups, s.coalesced), (9, 8, 1));
        assert!(out[dup].coalesced);
        assert_eq!(out[dup].end_state(), out[0].end_state());
        assert_ne!(
            out[0].end_state(),
            out[1].end_state(),
            "tenants with distinct activations must produce distinct results"
        );

        // Each tenant against its own standalone run on the same artifact.
        for (t, mem) in mems.iter().enumerate() {
            let mut m = mem.clone();
            let r = muir_sim::simulate_compiled(&comp, &mut m, &[], &SimConfig::default()).unwrap();
            let got = out[t].outcome.as_ref().expect("tenant job completes");
            assert_eq!(got.cycles, r.cycles, "tenant {t} cycles");
            assert_eq!(
                out[t].end_state(),
                end_state_hash(&r, &m),
                "tenant {t} end state"
            );
        }

        // Thread-count independence: a single-threaded service over the
        // same submissions reaches the same end states in order.
        let mut svc1 = EvalService::new(comp, None, ServiceConfig::default());
        for mem in &mems {
            svc1.submit(job(mem));
        }
        let out1 = svc1.drain();
        for t in 0..mems.len() {
            assert_eq!(out[t].end_state(), out1[t].end_state(), "tenant {t}");
        }
    }

    /// Images compare by bits, so a job is identical to its resubmission
    /// even when its inputs hold a NaN (which `f32` equality never
    /// matches with itself), while a different NaN payload is a
    /// different job.
    #[test]
    fn identical_nan_bearing_jobs_coalesce() {
        let w = muir_workloads::tensorgraph::mt_infer();
        let comp = Arc::new(CompiledAccel::compile(&crate::baseline(&w)).unwrap());
        let job = |nan_bits: u32| {
            let mut mem = w.fresh_memory();
            let nan = Value::F32(f32::from_bits(nan_bits));
            mem.write(w.inits[0].0, 5, nan).unwrap();
            EvalJob {
                cfg: SimConfig::default(),
                args: vec![],
                mem,
            }
        };
        let mut svc = EvalService::new(comp, None, ServiceConfig::default());
        for bits in [0x7fc0_0001, 0x7fc0_0001, 0x7fc0_0002] {
            svc.submit(job(bits));
        }
        let out = svc.drain();
        let s = svc.stats();
        assert_eq!((s.submitted, s.executed_groups, s.coalesced), (3, 2, 1));
        assert!(out[1].coalesced && !out[2].coalesced);
        assert_eq!(out[0].end_state(), out[1].end_state());
    }

    #[test]
    fn traced_jobs_bypass_the_store() {
        let root = test_root("traced");
        let (comp, mut job) = sample(0x55);
        job.cfg.trace = muir_sim::TraceConfig::on();
        let store = Store::open(&root);
        let mut svc = EvalService::new(comp, Some(store), ServiceConfig::default());
        svc.submit(job.clone());
        svc.submit(job);
        let out = svc.drain();
        // Not memoizable: no coalescing, no store traffic, trace present.
        assert_eq!(svc.stats().coalesced, 0);
        assert_eq!(svc.store_stats().result_puts, 0);
        assert!(out
            .iter()
            .all(|o| o.outcome.as_ref().unwrap().trace.is_some()));
        let _ = std::fs::remove_dir_all(&root);
    }
}
