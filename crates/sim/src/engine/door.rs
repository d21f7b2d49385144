//! The door: root arguments in, results out, and a task's constants
//! decoded once per run. Inside the engine a value is flat — a [`Word`]
//! beside a lane buffer — and this is the one place it names a [`Value`]
//! (`scripts/check.sh`, "one token payload").

use super::arena::Vals;
use super::Engine;
use crate::trace::{SimProfile, Trace};
use crate::{SimError, SimStats};
use muir_core::node::NodeKind;
use muir_mir::flat::Word;
use muir_mir::types::Type;
use muir_mir::value::Value;

impl Engine<'_> {
    /// Run the root task once with `args`; returns (cycles, results, stats,
    /// observability artifacts when tracing was enabled).
    ///
    /// # Errors
    /// A root argument that does not fit its `Input`, deadlock (no
    /// progress), cycle-limit exhaustion, or a functional fault
    /// (out-of-bounds access on a live path).
    #[allow(clippy::type_complexity)]
    pub(crate) fn run(
        &mut self,
        args: &[Value],
    ) -> Result<(u64, Vec<Value>, SimStats, Option<(SimProfile, Trace)>), SimError> {
        let args = self.admit_root_args(self.acc.root.0 as usize, args)?;
        let cycles = self.run_flat(args)?;
        let results = self.root_result.take().map_or_else(Vec::new, |r| {
            r.words().iter().map(|w| w.to_value(r.lanes())).collect()
        });
        let stats = self.collect_stats(cycles);
        let observed = self
            .obs
            .take()
            .map(|o| o.finish(cycles, &stats.struct_stats));
        Ok((cycles, results, stats, observed))
    }

    /// The door check on the root invocation: every `Input` node of the
    /// root task must find an argument of its declared type, and every
    /// argument must have a flat form. Inside the graph a token's kind
    /// follows from the graph; here it is the caller's.
    fn admit_root_args(&self, root: usize, args: &[Value]) -> Result<Box<Vals>, SimError> {
        let task = &self.acc.tasks[root];
        let at_door = |detail: String, node: Option<u32>| {
            SimError::eval(detail).at_site(0, root as u32, &task.name, node, None)
        };
        for (n, nd) in task.dataflow.nodes.iter().enumerate() {
            let NodeKind::Input { index } = nd.kind else {
                continue;
            };
            let detail = match args.get(index as usize) {
                None => format!("missing argument {index}"),
                Some(v) if !value_fits(v, nd.ty) => {
                    format!("argument {index} is {v}, but {} takes {}", nd.name, nd.ty)
                }
                Some(_) => continue,
            };
            return Err(at_door(detail, Some(n as u32)));
        }
        let mut flat = Box::<Vals>::default();
        for (i, v) in args.iter().enumerate() {
            let w = Word::from_value(v, flat.lanes_mut()).ok_or_else(|| {
                let detail = format!("argument {i} is {v}: lanes must be scalars of one kind");
                at_door(detail, None)
            })?;
            flat.push_word(w);
        }
        Ok(flat)
    }
}

/// A task's sealed constant pool, flattened.
pub(super) fn flat_consts(consts: &[Value]) -> Vals {
    let mut flat = Vals::default();
    for c in consts {
        let w = Word::from_value(c, flat.lanes_mut());
        flat.push_word(w.expect("a sealed constant has a flat form"));
    }
    flat
}

/// Whether `v` is a value an edge of type `ty` can carry: poison always,
/// booleans and integers on any integer scalar (the evaluators read either
/// as the other), floats on `f32`, vectors and tiles of the declared extent
/// whose lanes fit the element type.
fn value_fits(v: &Value, ty: Type) -> bool {
    let lanes_fit = |lanes: &[Value], elem| lanes.iter().all(|l| value_fits(l, Type::Scalar(elem)));
    match (v, ty) {
        (Value::Poison, _) => true,
        (Value::Bool(_) | Value::Int(_), Type::Scalar(s)) => !s.is_float(),
        (Value::F32(_), Type::Scalar(s)) => s.is_float(),
        (Value::Vector(l), Type::Vector { elem, lanes }) => {
            l.len() == usize::from(lanes) && lanes_fit(l, elem)
        }
        (Value::Tensor { shape, data }, Type::Tensor { elem, shape: want }) => {
            *shape == want && data.len() == want.elems() as usize && lanes_fit(data, elem)
        }
        _ => false,
    }
}
