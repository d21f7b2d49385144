//! Cross-commit pins for the graph verifier: which violation
//! `verify_accelerator` reports first, and its exact text, over seeded
//! mutations of the `compile` benchmark's 64 units (see `common::units`),
//! each taken after `translate` and after `best_stack`. The pinned hash
//! covers the whole sequence of first-violation strings, so a verifier
//! change that reorders its checks, rewords a message or starts accepting
//! (or rejecting) a graph fails here.

mod common;

use common::units;
use muir::bench::best_stack;
use muir::core::accel::{Accelerator, TaskId};
use muir::core::rng::SplitMix64;
use muir::core::verify::verify_accelerator;
use muir::core::{ContentHasher, EdgeKind, JunctionId, Node, NodeId, NodeKind, StructureId, Type};
use muir::frontend::{translate, FrontendConfig};

/// Mutated cases per base graph: 128 graphs × 32 = 4 096 cases.
const CASES_PER_GRAPH: u64 = 32;

/// `(hash of the first-violation sequence, Ok count, Err count)`, printed
/// by the verifier that preceded the dense one, before any verifier edit.
const PIN: (u64, usize, usize) = (0xf9b8ffd3dc0f1e14, 815, 3281);

/// Every unit after `translate`, then after `best_stack`.
fn base_graphs() -> Vec<(String, Accelerator)> {
    let mut out = Vec::new();
    for (name, class, m) in units() {
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        out.push((format!("{name}/translate"), acc.clone()));
        best_stack(class).run(&mut acc).unwrap();
        out.push((format!("{name}/best_stack"), acc));
    }
    out
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One seeded structural edit. Structure indices stay in range (a
/// junction naming a missing structure has its own test below); every
/// other index may be one past the end. An edit with nothing to act on
/// leaves the graph as it is.
fn mutate(acc: &mut Accelerator, rng: &mut SplitMix64) {
    let nstructures = acc.structures.len();
    let ntasks = acc.tasks.len();
    let df = &mut acc.tasks[below(rng, ntasks)].dataflow;
    let (nnodes, nedges, njunctions) = (df.nodes.len(), df.edges.len(), df.junctions.len());
    match rng.below(14) {
        0 if nedges > 0 => {
            df.edges.remove(below(rng, nedges));
        }
        1 if nedges > 0 => {
            let e = df.edges[below(rng, nedges)];
            df.edges.push(e);
        }
        2 if nedges > 0 => {
            let e = below(rng, nedges);
            df.edges[e].dst = NodeId(below(rng, nnodes + 1) as u32);
        }
        3 if nedges > 0 => {
            let e = below(rng, nedges);
            df.edges[e].dst_port = below(rng, 4) as u16;
        }
        4 if nedges > 0 => {
            let e = below(rng, nedges);
            df.edges[e].kind = [EdgeKind::Data, EdgeKind::Feedback, EdgeKind::Order][below(rng, 3)];
        }
        5 => {
            df.add_node(Node::new("extra_out", NodeKind::Output, Type::BOOL));
        }
        6 if nnodes > 0 => df.nodes[below(rng, nnodes)].kind = NodeKind::IndVar,
        7 if nnodes > 0 => df.nodes[below(rng, nnodes)].kind = NodeKind::Merge,
        8 if njunctions > 0 => {
            df.junctions[below(rng, njunctions)].structure =
                StructureId(below(rng, nstructures) as u32);
        }
        9 if njunctions > 0 => {
            let j = &mut df.junctions[below(rng, njunctions)];
            let regs: Vec<NodeId> = j.readers.iter().chain(&j.writers).copied().collect();
            if !regs.is_empty() {
                j.readers.push(regs[below(rng, regs.len())]);
            }
        }
        10 if njunctions > 0 => df.junctions[below(rng, njunctions)].readers.clear(),
        11 if !acc.task_conns.is_empty() => {
            let c = below(rng, acc.task_conns.len());
            acc.task_conns[c].parent = TaskId(below(rng, ntasks) as u32);
        }
        12 => {
            let from = below(rng, nstructures);
            let objects = &acc.structures[from].objects;
            if !objects.is_empty() {
                let o = objects[below(rng, objects.len())];
                acc.structures[below(rng, nstructures)].objects.push(o);
            }
        }
        13 if !acc.mem_conns.is_empty() => {
            let c = below(rng, acc.mem_conns.len());
            let g = &mut **acc;
            let mc = &mut g.mem_conns[c];
            if rng.below(2) == 0 {
                let n = g.tasks[mc.task.0 as usize].dataflow.junctions.len();
                mc.junction = JunctionId(below(rng, n + 1) as u32);
            } else {
                mc.structure = StructureId(below(rng, nstructures) as u32);
            }
        }
        _ => {}
    }
}

#[test]
fn first_violations_of_mutated_compile_units_are_pinned() {
    let mut h = ContentHasher::new();
    let (mut ok, mut err) = (0, 0);
    for (gi, (name, base)) in base_graphs().iter().enumerate() {
        verify_accelerator(base).unwrap_or_else(|e| panic!("{name}: {e}"));
        for case in 0..CASES_PER_GRAPH {
            let mut rng = SplitMix64::salted(0x7e51_f1ed, gi as u64 * CASES_PER_GRAPH + case);
            let mut acc = base.clone();
            for _ in 0..1 + case % 2 {
                mutate(&mut acc, &mut rng);
            }
            match verify_accelerator(&acc) {
                Ok(()) => {
                    ok += 1;
                    h.push_str("ok");
                }
                Err(e) => {
                    err += 1;
                    h.push_str(&e.to_string());
                }
            }
        }
    }
    let got = (h.finish(), ok, err);
    assert_eq!(got, PIN, "got ({:#018x}, {}, {})", got.0, got.1, got.2);
}

/// A junction that names a missing structure, with no `<==>` connection
/// to catch it first, is reported at its memory node — not a panic.
#[test]
fn junction_targeting_a_missing_structure_is_an_error() {
    let (_, _, m) = units()
        .into_iter()
        .find(|(name, ..)| name == "SAXPY")
        .unwrap();
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mc = acc.mem_conns.remove(0);
    acc.tasks[mc.task.0 as usize].dataflow.junctions[mc.junction.0 as usize].structure =
        StructureId(999);
    let e = verify_accelerator(&acc).unwrap_err();
    assert_eq!(e.code(), "E-GRAPH");
    assert!(
        e.message.ends_with(&format!(
            ": junction {} targets missing structure s999",
            mc.junction
        )),
        "{e}"
    );
}
