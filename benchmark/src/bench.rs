//! What every workload gives the measuring loop.

use crate::stats::Rng;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;

/// Seed of everything that decides how much work a round is: the
/// generated tensor graphs and the sampled DSE configurations. `--seed`
/// draws the item order and the input data instead, so runs with different
/// seeds do the same work and their timings compare.
pub const STRUCTURE_SEED: u64 = 11;

/// `gen_graph`'s size argument (op count scale).
const GEN_SIZE: usize = 8;

/// Worker threads `dse-cold` and `service-warm` ask for: `nproc` on the
/// host the benchmark was sized on.
pub const THREADS: usize = 2;

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// One workload after set-up. A round is `prepare` (untimed), `run`
/// (timed), `check` (untimed) and, in traced rounds, `replay` (untimed).
pub trait Bench {
    /// Items one round completes.
    fn items(&self) -> usize;

    /// Build what the next round consumes — fresh memory images, job
    /// lists — in an order shuffled by `rng`.
    fn prepare(&mut self, rng: &mut Rng);

    /// The timed round: nothing but the calls into the toolchain.
    fn run(&mut self, tr: &mut Tracer);

    /// Check every item of the round just run against the reference
    /// outputs and exact counts fixed in set-up; returns how many failed.
    fn check(&mut self) -> usize;

    /// Push the round's work through the layers that `run` cannot see
    /// into (`explore` and `drain` are opaque from outside), so their
    /// inner layers get spans of their own. Returns how many of its own
    /// checks failed.
    fn replay(&mut self, _tr: &mut Tracer) -> usize {
        0
    }

    /// Exact counts of the round just run (and its replay, if any). They
    /// must be the same in every round.
    fn counts(&self) -> Values;

    /// Layer metrics the workload derives itself, beyond span totals.
    fn layer_metrics(&self, _tr: &Tracer, _out: &mut Values) {}
}

/// Set a workload up from `seed`. `scratch` is a directory of the
/// benchmark's own for store roots.
///
/// # Errors
/// An input that does not build, or a set-up output that differs from
/// the reference interpreter: the benchmark then has nothing to measure.
pub fn setup(
    workload: &str,
    seed: u64,
    scratch: &Path,
    tr: &mut Tracer,
) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "sim-scalar" => Box::new(crate::sim::SimBench::scalar(tr)?),
        "sim-tensor" => Box::new(crate::sim::SimBench::tensor(seed, tr)?),
        "compile" => Box::new(crate::compile::CompileBench::new(tr)?),
        "dse-cold" => Box::new(crate::dse::DseBench::new(seed, scratch, tr)?),
        "service-warm" => Box::new(crate::service::ServiceBench::new(seed, scratch, tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Build a registry workload by its paper name, under a span.
pub fn registry(name: &str, tr: &mut Tracer) -> Result<muir_workloads::Workload, String> {
    let s = tr.enter("workloads.build");
    let w = muir_workloads::by_name(name);
    tr.exit(s);
    w.ok_or_else(|| format!("{name}: not in the workload registry"))
}

/// The `k`-th generated tensor graph: its text, and the workload built
/// from that text with input data drawn from `data_seed`.
pub fn generated(
    k: u64,
    data_seed: u64,
    tr: &mut Tracer,
) -> Result<(muir_workloads::Workload, String), String> {
    let s = tr.enter("workloads.build");
    let text = muir_frontend::tensor::gen_graph(STRUCTURE_SEED + k, GEN_SIZE).print();
    let w = muir_workloads::tensorgraph::from_text("GEN", &text, data_seed);
    tr.exit(s);
    match w {
        Ok(w) => Ok((w, text)),
        Err(e) => Err(format!("generated graph {k}: {e}")),
    }
}

/// The interpreter's final memory for `w`, under a span.
pub fn reference(
    w: &muir_workloads::Workload,
    tr: &mut Tracer,
) -> Result<muir_mir::interp::Memory, String> {
    let s = tr.enter("mir.interp");
    let mem = w.run_reference();
    tr.exit(s);
    mem.map_err(|e| format!("{}: reference interpreter: {e}", w.name))
}

/// `w` with its float inputs redrawn from `rng`, uniform in [-1, 1).
/// Integer inputs stay: some programs index with them.
pub fn redraw_inputs(w: &muir_workloads::Workload, rng: &mut Rng) -> muir_workloads::Workload {
    use muir_workloads::InitData;
    let inits = w
        .inits
        .iter()
        .map(|(obj, data)| {
            let data = match data {
                InitData::F32(v) => InitData::F32(
                    v.iter()
                        .map(|_| (rng.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
                        .collect(),
                ),
                InitData::I64(v) => InitData::I64(v.clone()),
            };
            (*obj, data)
        })
        .collect();
    muir_workloads::Workload { inits, ..w.clone() }
}

/// Remove a store directory and what is in it; a missing one is fine.
pub fn clear_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        assert!(
            e.kind() == std::io::ErrorKind::NotFound,
            "cannot clear {}: {e}",
            dir.display()
        );
    }
}
