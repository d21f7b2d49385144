//! `compile`: text → parse → (tensor lower) → translate → `best_stack` →
//! seal → cost → Chisel. The Table-2 / RTL-inspection loop; no simulation
//! inside the timed span. Set-up simulates each artifact once and holds it
//! to the interpreter, so the content hash every round must reproduce is
//! the hash of an artifact known to compute the right outputs.

use crate::bench::{generated, reference, Bench, Values, STRUCTURE_SEED};
use crate::metrics::PASS_SPANS;
use crate::stats::Rng;
use crate::trace::Tracer;
use muir_bench::best_stack;
use muir_core::CompiledAccel;
use muir_frontend::tensor::{TensorGraph, TensorLowerConfig};
use muir_frontend::{translate, FrontendConfig};
use muir_mir::module::Module;
use muir_mir::parser::parse_module;
use muir_mir::printer::print_module;
use muir_rtl::cost::{estimate, Tech};
use muir_rtl::emit_chisel;
use muir_sim::{simulate_compiled, SimConfig};
use muir_uopt::passes::{
    CacheBanking, ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskFilter,
    TaskQueueing,
};
use muir_uopt::PassManager;
use muir_workloads::{Class, Workload, REGISTRY};

/// Generated tensor-graph texts that join the 24 registry modules.
const GEN_GRAPHS: u64 = 40;

#[derive(Clone, Copy)]
enum Source {
    /// `print_module` text.
    Mir,
    /// `TensorGraph::print` text.
    Tensor,
}

/// What one item produces, compared field by field with set-up's.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Built {
    hash: u64,
    artifact_bytes: usize,
    uops: usize,
    chisel_bytes: usize,
    nodes_after: usize,
    edges_after: usize,
}

struct Unit {
    name: String,
    class: Class,
    source: Source,
    text: String,
    expect: Built,
}

pub struct CompileBench {
    units: Vec<Unit>,
    order: Vec<usize>,
    built: Vec<Result<Built, String>>,
    /// `best_stack` restated one pass per manager, `[cilk, others]`, so
    /// each pass gets a span in the replay.
    single_passes: [Vec<PassManager>; 2],
}

fn parse(source: Source, text: &str, tr: &mut Tracer) -> Result<Module, String> {
    match source {
        Source::Mir => {
            let s = tr.enter("mir.parse");
            let m = parse_module(text);
            tr.exit(s);
            m.map_err(|e| e.to_string())
        }
        Source::Tensor => {
            let s = tr.enter("frontend.tensor_parse");
            let g = TensorGraph::parse(text);
            tr.exit(s);
            let g = g.map_err(|e| e.to_string())?;
            let s = tr.enter("frontend.tensor_lower");
            let low = g.lower(&TensorLowerConfig::default());
            tr.exit(s);
            low.map(|l| l.module).map_err(|e| e.to_string())
        }
    }
}

/// The whole item. The sealed artifact is returned so set-up can
/// simulate it; the timed loop drops it.
fn build(
    source: Source,
    class: Class,
    text: &str,
    tr: &mut Tracer,
) -> Result<(Built, CompiledAccel), String> {
    let module = parse(source, text, tr)?;
    let s = tr.enter("frontend.translate");
    let acc = translate(&module, &FrontendConfig::default());
    tr.exit(s);
    let mut acc = acc.map_err(|e| e.to_string())?;
    let s = tr.enter("uopt.pipeline");
    let report = best_stack(class).run(&mut acc);
    tr.exit(s);
    let report = report.map_err(|e| e.to_string())?;
    let s = tr.enter("core.seal");
    let comp = CompiledAccel::compile(&acc);
    tr.exit(s);
    let comp = comp.map_err(|e| e.to_string())?;
    let s = tr.enter("rtl.cost");
    let cost = estimate(&comp, Tech::FpgaArria10);
    tr.exit(s);
    std::hint::black_box(cost);
    let s = tr.enter("rtl.chisel");
    let chisel = emit_chisel(&comp);
    tr.exit(s);
    let last = report.records.last();
    let built = Built {
        hash: comp.content_hash(),
        artifact_bytes: comp.size_bytes(),
        uops: comp.tasks().iter().map(|t| t.uop_count()).sum(),
        chisel_bytes: chisel.len(),
        nodes_after: last.map_or(0, |r| r.nodes_after),
        edges_after: last.map_or(0, |r| r.edges_after),
    };
    Ok((built, comp))
}

/// `muir_bench::best_stack(class)`, one pass per manager, same order.
fn single_passes(cilk: bool) -> Vec<PassManager> {
    let tiling = if cilk {
        ExecutionTiling::spawned(8)
    } else {
        ExecutionTiling {
            tiles: 4,
            filter: TaskFilter::LeafLoops,
        }
    };
    vec![
        PassManager::new().with(TaskQueueing::all(8)),
        PassManager::new().with(tiling),
        PassManager::new().with(MemoryLocalization::default()),
        PassManager::new().with(ScratchpadBanking { banks: 4 }),
        PassManager::new().with(CacheBanking { banks: 4 }),
        PassManager::new().with(OpFusion::default()),
    ]
}

impl CompileBench {
    pub fn new(tr: &mut Tracer) -> Result<CompileBench, String> {
        let mut inputs: Vec<(Workload, Source, String)> = Vec::new();
        for e in REGISTRY {
            let s = tr.enter("workloads.build");
            let w = (e.build)();
            let text = print_module(&w.module);
            tr.exit(s);
            inputs.push((w, Source::Mir, text));
        }
        for k in 0..GEN_GRAPHS {
            let (w, text) = generated(k, STRUCTURE_SEED + k, tr)?;
            inputs.push((w, Source::Tensor, text));
        }
        let mut off = Tracer::new();
        let mut units = Vec::with_capacity(inputs.len());
        for (i, (w, source, text)) in inputs.into_iter().enumerate() {
            let name = format!("{}#{i}", w.name);
            let want = reference(&w, tr)?;
            let (expect, comp) =
                build(source, w.class, &text, &mut off).map_err(|e| format!("{name}: {e}"))?;
            let mut mem = w.fresh_memory();
            simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
                .map_err(|e| format!("{name}: {e}"))?;
            if !w.outputs_match(&want, &mem) {
                return Err(format!(
                    "{name}: compiled artifact diverges from the interpreter"
                ));
            }
            units.push(Unit {
                name,
                class: w.class,
                source,
                text,
                expect,
            });
        }
        Ok(CompileBench {
            order: (0..units.len()).collect(),
            units,
            built: Vec::new(),
            single_passes: [single_passes(true), single_passes(false)],
        })
    }
}

impl Bench for CompileBench {
    fn items(&self) -> usize {
        self.units.len()
    }

    fn prepare(&mut self, rng: &mut Rng) {
        rng.shuffle(&mut self.order);
        self.built.clear();
    }

    fn run(&mut self, tr: &mut Tracer) {
        for &u in &self.order {
            let unit = &self.units[u];
            let built = build(unit.source, unit.class, &unit.text, tr).map(|(b, _)| b);
            self.built.push(built);
        }
    }

    fn check(&mut self) -> usize {
        let mut failed = 0;
        for (slot, &u) in self.order.iter().enumerate() {
            let unit = &self.units[u];
            if self.built[slot].as_ref() != Ok(&unit.expect) {
                eprintln!(
                    "compile: {} gave {:?}, set-up gave {:?}",
                    unit.name, self.built[slot], unit.expect
                );
                failed += 1;
            }
        }
        failed
    }

    /// Each pass on its own: one single-pass manager per pass in pipeline
    /// order. Parsing and translating again is unspanned here — the timed
    /// round already measured them. An item fails when its six single
    /// passes do not end at the pipeline's content hash.
    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let mut off = Tracer::new();
        let mut failed = 0;
        for unit in &self.units {
            let acc = parse(unit.source, &unit.text, &mut off)
                .and_then(|m| translate(&m, &FrontendConfig::default()).map_err(|e| e.to_string()));
            let Ok(mut acc) = acc else {
                failed += 1;
                continue;
            };
            let passes = &self.single_passes[usize::from(unit.class != Class::Cilk)];
            let mut ok = true;
            for (pm, span) in passes.iter().zip(PASS_SPANS) {
                let s = tr.enter(span);
                ok &= pm.run(&mut acc).is_ok();
                tr.exit(s);
            }
            if !ok || muir_core::content_hash(&acc) != unit.expect.hash {
                failed += 1;
            }
        }
        failed
    }

    fn counts(&self) -> Values {
        let sum = |f: fn(&Built) -> usize| -> f64 {
            self.built.iter().flatten().map(|b| f(b) as f64).sum()
        };
        Values::from([
            ("core.artifact_bytes".to_string(), sum(|b| b.artifact_bytes)),
            ("core.uops".to_string(), sum(|b| b.uops)),
            ("rtl.chisel_bytes".to_string(), sum(|b| b.chisel_bytes)),
            ("uopt.nodes_after".to_string(), sum(|b| b.nodes_after)),
            ("uopt.edges_after".to_string(), sum(|b| b.edges_after)),
        ])
    }
}
