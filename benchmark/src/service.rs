//! `service-warm`: jobs through `EvalService` over a store that set-up
//! filled. Store reads, job/result hashing, dedup and coalescing do all
//! the work; `muir-sim` does none — every outcome must come from the store
//! with the end-state hash of the cold fill.

use crate::bench::{clear_dir, redraw_inputs, registry, Bench, Values, THREADS};
use crate::sim::seal_baseline;
use crate::stats::{percentile, Rng};
use crate::trace::Tracer;
use muir_bench::service::{EvalJob, EvalOutcome, EvalService, ServiceConfig};
use muir_core::CompiledAccel;
use muir_mir::interp::Memory;
use muir_sim::{end_state_hash, job_hash, SimConfig};
use muir_store::{ResultKey, Store};
use muir_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const PROGRAMS: [&str; 3] = ["MT-INFER", "ATTN", "CONV[T]"];
/// Tenant memory images per program.
const TENANTS: usize = 64;
/// Every fourth image is submitted twice, so 16 jobs per program coalesce.
const DUPLICATE_EVERY: usize = 4;

struct Tenancy {
    comp: Arc<CompiledAccel>,
    root: PathBuf,
    images: Vec<Memory>,
    /// End-state hash of each image's cold run, held to the interpreter.
    end_states: Vec<u64>,
}

pub struct ServiceBench {
    tenancies: Vec<Tenancy>,
    order: Vec<usize>,
    /// Per tenancy: the image index of each job, in submission order.
    submissions: Vec<Vec<usize>>,
    jobs: Vec<Vec<EvalJob>>,
    outcomes: Vec<Vec<EvalOutcome>>,
    /// `EvalOutcome.wall_us` of every job of every round.
    job_us: Vec<f64>,
    from_store: usize,
    coalesced: usize,
    served: usize,
}

fn service(t: &Tenancy, store: Store) -> EvalService {
    EvalService::new(
        t.comp.clone(),
        Some(store),
        ServiceConfig {
            threads: THREADS,
            ..ServiceConfig::default()
        },
    )
}

fn job(mem: &Memory) -> EvalJob {
    EvalJob {
        cfg: SimConfig::default(),
        args: Vec::new(),
        mem: mem.clone(),
    }
}

impl ServiceBench {
    pub fn new(seed: u64, scratch: &Path, tr: &mut Tracer) -> Result<ServiceBench, String> {
        let mut rng = Rng(seed);
        let mut tenancies = Vec::new();
        for (i, name) in PROGRAMS.iter().enumerate() {
            let w = registry(name, tr)?;
            let mut t = Tenancy {
                comp: Arc::new(seal_baseline(&w)?),
                root: scratch.join(format!("service-{i}")),
                images: Vec::new(),
                end_states: Vec::new(),
            };
            let tenants: Vec<Workload> =
                (0..TENANTS).map(|_| redraw_inputs(&w, &mut rng)).collect();
            t.images = tenants.iter().map(Workload::fresh_memory).collect();

            // The cold fill: every image simulated once and written back.
            clear_dir(&t.root);
            let mut svc = service(&t, Store::open(&t.root));
            for mem in &t.images {
                svc.submit(job(mem));
            }
            for (tw, out) in tenants.iter().zip(svc.drain()) {
                let want = crate::bench::reference(tw, tr)?;
                if out.from_store || out.outcome.is_err() || !tw.outputs_match(&want, &out.mem) {
                    return Err(format!("{name}: cold fill diverges from the interpreter"));
                }
                if !out.store_warnings.is_empty() {
                    return Err(format!(
                        "{name}: cold fill: {}",
                        out.store_warnings.join("; ")
                    ));
                }
                t.end_states.push(out.end_state());
            }
            tenancies.push(t);
        }
        Ok(ServiceBench {
            order: (0..tenancies.len()).collect(),
            submissions: Vec::new(),
            jobs: Vec::new(),
            outcomes: Vec::new(),
            job_us: Vec::new(),
            from_store: 0,
            coalesced: 0,
            served: 0,
            tenancies,
        })
    }
}

impl Bench for ServiceBench {
    fn items(&self) -> usize {
        self.tenancies.len() * (TENANTS + TENANTS / DUPLICATE_EVERY)
    }

    fn prepare(&mut self, rng: &mut Rng) {
        rng.shuffle(&mut self.order);
        self.submissions.clear();
        self.jobs.clear();
        self.outcomes.clear();
        for &t in &self.order {
            let mut images: Vec<usize> = (0..TENANTS)
                .chain((0..TENANTS).step_by(DUPLICATE_EVERY))
                .collect();
            rng.shuffle(&mut images);
            let mems = &self.tenancies[t].images;
            self.jobs
                .push(images.iter().map(|&i| job(&mems[i])).collect());
            self.submissions.push(images);
        }
    }

    fn run(&mut self, tr: &mut Tracer) {
        for (&t, jobs) in self.order.iter().zip(self.jobs.drain(..)) {
            let tenancy = &self.tenancies[t];
            let s = tr.enter("store.open");
            let store = Store::open(&tenancy.root);
            tr.exit(s);
            let mut svc = service(tenancy, store);
            let s = tr.enter("service.submit");
            for j in jobs {
                svc.submit(j);
            }
            tr.exit(s);
            let s = tr.enter("service.drain");
            let outcomes = svc.drain();
            tr.exit(s);
            self.outcomes.push(outcomes);
        }
    }

    fn check(&mut self) -> usize {
        let mut failed = 0;
        for ((&t, images), outcomes) in self.order.iter().zip(&self.submissions).zip(&self.outcomes)
        {
            let tenancy = &self.tenancies[t];
            failed += images.len().abs_diff(outcomes.len());
            for (&i, out) in images.iter().zip(outcomes) {
                let ok = out.from_store
                    && out.outcome.is_ok()
                    && out.end_state() == tenancy.end_states[i];
                failed += usize::from(!ok);
                self.job_us.push(out.wall_us as f64);
                self.from_store += usize::from(out.from_store);
                self.coalesced += usize::from(out.coalesced);
                self.served += 1;
            }
        }
        failed
    }

    /// What `drain` does per distinct job, one layer call at a time.
    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let cfg = SimConfig::default();
        let mut failed = 0;
        for t in &self.tenancies {
            let s = tr.enter("core.content_hash");
            std::hint::black_box(muir_core::content_hash(t.comp.accel()));
            tr.exit(s);
            let mut store = Store::open(&t.root);
            for (mem, want) in t.images.iter().zip(&t.end_states) {
                let s = tr.enter("sim.job_hash");
                std::hint::black_box(job_hash(&cfg, &[], mem));
                tr.exit(s);
                let s = tr.enter("store.key");
                let key = ResultKey::new(&t.comp, &cfg, &[], mem);
                tr.exit(s);
                let s = tr.enter("store.get_result");
                let hit = store.get_result(key);
                tr.exit(s);
                let Ok(Some(eval)) = hit else {
                    failed += 1;
                    continue;
                };
                let s = tr.enter("sim.end_state_hash");
                let end = end_state_hash(&eval.result, &eval.mem);
                tr.exit(s);
                failed += usize::from(end != *want);
            }
        }
        failed
    }

    fn counts(&self) -> Values {
        Values::new()
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Values) {
        let served = self.served.max(1) as f64;
        out.insert(
            "service.job_us_p50".to_string(),
            percentile(&self.job_us, 50.0),
        );
        out.insert(
            "service.job_us_p95".to_string(),
            percentile(&self.job_us, 95.0),
        );
        out.insert(
            "service.from_store_share".to_string(),
            self.from_store as f64 / served,
        );
        out.insert(
            "service.coalesced_share".to_string(),
            self.coalesced as f64 / served,
        );
        // No simulation to subtract here: drain minus the replayed reads.
        out.insert(
            "service.overhead_us_per_job".to_string(),
            (tr.total_ns("service.drain") - tr.total_ns("store.get_result"))
                / 1e3
                / self.items() as f64,
        );
    }
}
