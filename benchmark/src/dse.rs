//! `dse-cold`: `dse::explore` on four programs with nothing memoised —
//! the product's mixed path (frontend + μopt + seal + cost + `EvalService`
//! + simulate). An item is one candidate.
//!
//! The timed exploration runs without a store. With one (an empty
//! directory per round) the store's ~100 fsync'd writes doubled the round
//! (135 against 73 ms) and, on this host's shared disk, spread its minimum
//! by 11–18 % from run to run against 2 % without, which would have buried
//! every other layer of this workload. The writes are measured in the
//! traced run's replay (`store.put_*`) and, end to end, in the cold fill
//! that is `service-warm`'s set-up.
//!
//! `explore` is opaque from outside, so the traced run replays its
//! candidates' configs through the layer calls directly; what the replay
//! does not account for is `explore`'s own time (`dse.self_ms`).

use crate::bench::{clear_dir, redraw_inputs, registry, Bench, Values, STRUCTURE_SEED, THREADS};
use crate::stats::Rng;
use crate::trace::Tracer;
use muir_bench::dse::{explore, DseParams, WorkloadFront};
use muir_core::CompiledAccel;
use muir_frontend::{translate, FrontendConfig};
use muir_rtl::cost::{estimate, Tech};
use muir_sim::{
    end_state_hash, job_hash, simulate_batch_compiled, simulate_compiled, BatchJob, SimConfig,
};
use muir_store::{ResultKey, Store, StoredEval};
use muir_workloads::Workload;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Three small programs whose exploration is overhead-dominated, and
/// SOFTM8, whose exploration is simulate-dominated.
const PROGRAMS: [&str; 4] = ["CONV[T]", "ATTN", "MT-INFER", "SOFTM8"];
const BUDGET: u64 = 12;
/// Jobs per `simulate_batch_compiled` call in the replay.
const BATCH_JOBS: usize = 4;

/// What set-up's exploration found per candidate: (artifact hash, cycles,
/// end-state hash). `explore` itself holds every candidate's outputs to
/// the interpreter and panics on a divergence.
type Found = Vec<(u64, u64, u64)>;

struct Target {
    w: Workload,
    found: Found,
    front: Vec<(u64, u64)>,
}

pub struct DseBench {
    targets: Vec<Target>,
    params: DseParams,
    order: Vec<usize>,
    fronts: Vec<Option<WorkloadFront>>,
    replay_dir: PathBuf,
    replay_counts: Values,
}

fn found(front: &WorkloadFront) -> Found {
    front
        .candidates
        .iter()
        .map(|c| (c.artifact, c.cycles, c.end_state))
        .collect()
}

/// Bytes of the regular files below `dir` (0 when missing).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl DseBench {
    pub fn new(seed: u64, scratch: &Path, tr: &mut Tracer) -> Result<DseBench, String> {
        // One sampling seed for every round and run: each round repeats
        // the same exploration, so counts repeat and rounds compare.
        let params = DseParams {
            seed: STRUCTURE_SEED,
            budget: BUDGET,
            threads: THREADS,
        };
        let mut rng = Rng(seed);
        let mut targets = Vec::new();
        for name in PROGRAMS {
            let w = redraw_inputs(&registry(name, tr)?, &mut rng);
            let (front, _) = explore(&w, &params, None);
            targets.push(Target {
                w,
                found: found(&front),
                front: front.front,
            });
        }
        Ok(DseBench {
            order: (0..targets.len()).collect(),
            fronts: targets.iter().map(|_| None).collect(),
            targets,
            params,
            replay_dir: scratch.join("dse-replay"),
            replay_counts: Values::new(),
        })
    }
}

impl Bench for DseBench {
    fn items(&self) -> usize {
        self.targets.iter().map(|t| t.found.len()).sum()
    }

    fn prepare(&mut self, rng: &mut Rng) {
        rng.shuffle(&mut self.order);
    }

    fn run(&mut self, tr: &mut Tracer) {
        for &t in &self.order {
            let target = &self.targets[t];
            let s = tr.enter("dse.explore");
            let (front, _) = explore(&target.w, &self.params, None);
            tr.exit(s);
            self.fronts[t] = Some(front);
        }
    }

    fn check(&mut self) -> usize {
        let mut failed = 0;
        for (t, front) in self.targets.iter().zip(&self.fronts) {
            let front = front.as_ref().expect("run explored every target");
            let got = found(front);
            failed += if got.len() != t.found.len() || front.front != t.front {
                t.found.len()
            } else {
                got.iter().zip(&t.found).filter(|(a, b)| a != b).count()
            };
        }
        failed
    }

    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let cfg = SimConfig::default();
        let mut failed = 0;
        let (mut cycles, mut fires, mut bytes) = (0u64, 0u64, 0u64);
        for (t, front) in self.targets.iter().zip(&self.fronts) {
            let front = front.as_ref().expect("run explored every target");

            let lower = tr.enter("dse.lower");
            let mut artifacts: BTreeMap<u64, CompiledAccel> = BTreeMap::new();
            for c in &front.candidates {
                let s = tr.enter("frontend.translate");
                let acc = translate(&t.w.module, &FrontendConfig::default());
                tr.exit(s);
                let Ok(mut acc) = acc else { continue };
                let s = tr.enter("uopt.pipeline");
                let ran = c.config.pipeline().run(&mut acc);
                tr.exit(s);
                let s = tr.enter("core.seal");
                let comp = CompiledAccel::compile(&acc);
                tr.exit(s);
                if let (Ok(_), Ok(comp)) = (ran, comp) {
                    artifacts.entry(comp.content_hash()).or_insert(comp);
                }
            }
            for comp in artifacts.values() {
                let s = tr.enter("rtl.cost");
                std::hint::black_box(estimate(comp, Tech::FpgaArria10));
                tr.exit(s);
            }
            tr.exit(lower);

            let sim = tr.enter("dse.sim");
            let mut evals = Vec::with_capacity(artifacts.len());
            for comp in artifacts.values() {
                let mut mem = t.w.fresh_memory();
                let s = tr.enter("sim.run");
                let r = simulate_compiled(comp, &mut mem, &[], &cfg);
                tr.exit(s);
                evals.push((r, mem));
            }
            tr.exit(sim);

            clear_dir(&self.replay_dir);
            let s = tr.enter("store.open");
            let mut store = Store::open(&self.replay_dir);
            tr.exit(s);
            let image = t.w.fresh_memory();
            for ((hash, comp), (r, mem)) in artifacts.iter().zip(evals) {
                let Ok(result) = r else {
                    failed += 1;
                    continue;
                };
                let s = tr.enter("core.content_hash");
                std::hint::black_box(muir_core::content_hash(comp.accel()));
                tr.exit(s);
                let s = tr.enter("sim.job_hash");
                std::hint::black_box(job_hash(&cfg, &[], &image));
                tr.exit(s);
                let s = tr.enter("store.key");
                let key = ResultKey::new(comp, &cfg, &[], &image);
                tr.exit(s);
                let s = tr.enter("sim.end_state_hash");
                let end = end_state_hash(&result, &mem);
                tr.exit(s);
                // The replayed artifact must be one `explore` evaluated,
                // with the same cycles and end state.
                let same = |c: &&(u64, u64, u64)| c.0 == *hash;
                if t.found.iter().find(same) != Some(&(*hash, result.cycles, end)) {
                    failed += 1;
                }
                cycles += result.cycles;
                fires += result.stats.fires;
                let s = tr.enter("store.put_artifact");
                let put_a = store.put_artifact(comp);
                tr.exit(s);
                let eval = StoredEval { result, mem };
                let s = tr.enter("store.put_result");
                let put_r = store.put_result(key, &eval);
                tr.exit(s);
                failed += usize::from(put_a.is_err() || put_r.is_err());
            }
            bytes += dir_bytes(&self.replay_dir.join("results"));
            clear_dir(&self.replay_dir);

            // Run-level parallelism: the baseline artifact (candidate 0
            // is always the all-knobs-off config), a few jobs, 1 vs 2
            // threads.
            if let Some(comp) = front
                .candidates
                .first()
                .and_then(|c| artifacts.get(&c.artifact))
            {
                for (span, threads) in [("sim.batch_t1", 1), ("sim.batch_t2", THREADS)] {
                    let jobs = (0..BATCH_JOBS)
                        .map(|_| BatchJob {
                            args: Vec::new(),
                            mem: t.w.fresh_memory(),
                            cfg: cfg.clone(),
                        })
                        .collect();
                    let s = tr.enter(span);
                    let runs = simulate_batch_compiled(comp, jobs, threads);
                    tr.exit(s);
                    failed += runs.iter().filter(|r| r.outcome.is_err()).count();
                }
            }
        }
        self.replay_counts = Values::from([
            ("sim.cycles".to_string(), cycles as f64),
            ("sim.fires".to_string(), fires as f64),
            ("store.result_bytes".to_string(), bytes as f64),
        ]);
        failed
    }

    fn counts(&self) -> Values {
        let fronts = || self.fronts.iter().flatten();
        let artifacts: usize = fronts()
            .map(|f| {
                let mut a: Vec<u64> = f.candidates.iter().map(|c| c.artifact).collect();
                a.sort_unstable();
                a.dedup();
                a.len()
            })
            .sum();
        let mut counts = self.replay_counts.clone();
        counts.extend([
            (
                "dse.candidates".to_string(),
                fronts().map(|f| f.candidates.len()).sum::<usize>() as f64,
            ),
            ("dse.artifacts".to_string(), artifacts as f64),
            (
                "dse.front_points".to_string(),
                fronts().map(|f| f.front.len()).sum::<usize>() as f64,
            ),
        ]);
        counts
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Values) {
        let replayed = tr.total_ns("dse.lower") + tr.total_ns("dse.sim");
        out.insert(
            "dse.self_ms".to_string(),
            (tr.total_ns("dse.explore") - replayed) / 1e6,
        );
        let sim_ns = tr.total_ns("sim.run");
        if let (Some(c), Some(f)) = (
            self.replay_counts.get("sim.cycles"),
            self.replay_counts.get("sim.fires"),
        ) {
            out.insert("sim.ns_per_fire".to_string(), sim_ns / f);
            out.insert("sim.cycles_per_s".to_string(), c / (sim_ns / 1e9));
        }
    }
}
