//! `sim-scalar` and `sim-tensor`: one `simulate_compiled` per item over
//! sealed baseline artifacts. Everything but `muir-sim` happens in set-up.

use crate::bench::{generated, reference, registry, Bench, Values};
use crate::metrics::{SCALAR_PROGRAMS, TENSOR_PROGRAMS};
use crate::stats::{normalise, percentile, Rng};
use crate::trace::Tracer;
use muir_core::CompiledAccel;
use muir_frontend::{translate, FrontendConfig};
use muir_mir::interp::Memory;
use muir_sim::{simulate_compiled, SimConfig, SimError, SimResult};
use muir_workloads::Workload;

/// Generated tensor graphs that join the six tensor programs; `--seed`
/// draws their input data.
const GEN_GRAPHS: u64 = 10;

struct Program {
    w: Workload,
    comp: CompiledAccel,
    reference: Memory,
    cycles: u64,
    fires: u64,
    /// Traced durations of this program's item, one per traced round.
    traced_ns: Vec<f64>,
}

pub struct SimBench {
    programs: Vec<Program>,
    cfg: SimConfig,
    order: Vec<usize>,
    mems: Vec<Memory>,
    results: Vec<Result<SimResult, SimError>>,
}

/// Translate (no μopt) and seal `w`: the baseline artifact.
pub fn seal_baseline(w: &Workload) -> Result<CompiledAccel, String> {
    let acc =
        translate(&w.module, &FrontendConfig::default()).map_err(|e| format!("{}: {e}", w.name))?;
    CompiledAccel::compile(&acc).map_err(|e| format!("{}: {e}", w.name))
}

impl SimBench {
    pub fn scalar(tr: &mut Tracer) -> Result<SimBench, String> {
        let ws = SCALAR_PROGRAMS
            .iter()
            .map(|n| registry(n, tr))
            .collect::<Result<Vec<_>, _>>()?;
        SimBench::from_workloads(ws, tr)
    }

    pub fn tensor(seed: u64, tr: &mut Tracer) -> Result<SimBench, String> {
        let mut ws = TENSOR_PROGRAMS
            .iter()
            .map(|n| registry(n, tr))
            .collect::<Result<Vec<_>, _>>()?;
        for k in 0..GEN_GRAPHS {
            ws.push(generated(k, seed + k, tr)?.0);
        }
        SimBench::from_workloads(ws, tr)
    }

    fn from_workloads(ws: Vec<Workload>, tr: &mut Tracer) -> Result<SimBench, String> {
        let cfg = SimConfig::default();
        let mut programs = Vec::with_capacity(ws.len());
        for w in ws {
            let reference = reference(&w, tr)?;
            let comp = seal_baseline(&w)?;
            let mut mem = w.fresh_memory();
            let r = simulate_compiled(&comp, &mut mem, &[], &cfg)
                .map_err(|e| format!("{}: {e}", w.name))?;
            if !w.outputs_match(&reference, &mem) {
                return Err(format!(
                    "{}: set-up run diverges from the interpreter",
                    w.name
                ));
            }
            programs.push(Program {
                w,
                comp,
                reference,
                cycles: r.cycles,
                fires: r.stats.fires,
                traced_ns: Vec::new(),
            });
        }
        Ok(SimBench {
            order: (0..programs.len()).collect(),
            programs,
            cfg,
            mems: Vec::new(),
            results: Vec::new(),
        })
    }
}

impl Bench for SimBench {
    fn items(&self) -> usize {
        self.programs.len()
    }

    fn prepare(&mut self, rng: &mut Rng) {
        rng.shuffle(&mut self.order);
        self.mems = self
            .order
            .iter()
            .map(|&p| self.programs[p].w.fresh_memory())
            .collect();
        self.results.clear();
    }

    fn run(&mut self, tr: &mut Tracer) {
        for (slot, &p) in self.order.iter().enumerate() {
            let s = tr.enter("sim.run");
            let r = simulate_compiled(&self.programs[p].comp, &mut self.mems[slot], &[], &self.cfg);
            let ns = tr.exit(s);
            if tr.is_on() {
                self.programs[p].traced_ns.push(ns as f64);
            }
            self.results.push(r);
        }
    }

    fn check(&mut self) -> usize {
        let mut failed = 0;
        for (slot, &p) in self.order.iter().enumerate() {
            let prog = &self.programs[p];
            let ok = matches!(&self.results[slot], Ok(r)
                if r.cycles == prog.cycles && r.stats.cycles == prog.cycles && r.stats.fires == prog.fires)
                && prog.w.outputs_match(&prog.reference, &self.mems[slot]);
            failed += usize::from(!ok);
        }
        failed
    }

    fn counts(&self) -> Values {
        let ok = self.results.iter().flatten();
        Values::from([
            (
                "sim.cycles".to_string(),
                ok.clone().map(|r| r.cycles as f64).sum(),
            ),
            (
                "sim.fires".to_string(),
                ok.map(|r| r.stats.fires as f64).sum(),
            ),
        ])
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Values) {
        let (cycles, fires): (u64, u64) = self
            .programs
            .iter()
            .fold((0, 0), |(c, f), p| (c + p.cycles, f + p.fires));
        let sim_ns = tr.total_ns("sim.run");
        if sim_ns > 0.0 {
            out.insert("sim.ns_per_fire".to_string(), sim_ns / fires as f64);
            out.insert(
                "sim.cycles_per_s".to_string(),
                cycles as f64 / (sim_ns / 1e9),
            );
        }
        for p in self.programs.iter().filter(|p| p.w.name != "GEN") {
            if !p.traced_ns.is_empty() {
                out.insert(
                    format!("sim.{}.ns_per_fire", normalise(p.w.name)),
                    percentile(&p.traced_ns, 10.0) / p.fires as f64,
                );
            }
        }
    }
}
