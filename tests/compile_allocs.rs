//! Allocation budget of the `compile` path: the benchmark's 64 units (see
//! `common::texts`) from text through parse, tensor lowering, `translate`,
//! `best_stack`, seal, cost and Chisel, counted by a per-thread counting
//! allocator. A call should allocate what the sealed artifact, the cost
//! estimate and the Chisel text keep, plus a bounded set of reused scratch
//! tables; a change that brings back per-node or per-round temporaries
//! fails here with the per-layer table.

mod common;

use common::{texts, Text};
use muir::bench::best_stack;
use muir::core::CompiledAccel;
use muir::frontend::tensor::{TensorGraph, TensorLowerConfig};
use muir::frontend::{translate, FrontendConfig};
use muir::mir::parser::parse_module;
use muir::rtl::cost::{estimate, Tech};
use muir::rtl::emit_chisel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations plus reallocations per unit, averaged over the 64 units:
/// 702 counted when the budget was set (1 081 before the artifact shared
/// its graph, instructions held their operands inline and the artifact's
/// tables became one set), plus about 5 %.
const BUDGET_PER_UNIT: u64 = 740;

/// Seal's share: 52 counted (288 when it deep-copied the graph and
/// allocated every table per task).
const BUDGET_SEAL: u64 = 60;

/// Parse plus tensor lowering: 157 counted (301 when every instruction
/// held its operands, and every φ its blocks, in a heap list).
const BUDGET_PARSE_AND_LOWER: u64 = 170;

/// Counts allocations and reallocations made by the current thread, so
/// tests running in parallel do not mix their counts.
struct Counting;

thread_local! {
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn events() -> u64 {
    EVENTS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const LAYERS: [&str; 7] = [
    "parse",
    "tensor_lower",
    "translate",
    "pipeline",
    "seal",
    "cost",
    "chisel",
];

/// Runs `f` and adds the allocation events it made to `row[layer]`.
fn counted<T>(row: &mut [u64; 7], layer: usize, f: impl FnOnce() -> T) -> T {
    let before = events();
    let out = f();
    row[layer] += events() - before;
    out
}

#[test]
fn compile_path_allocations_stay_within_budget() {
    let units = texts();
    let mut total = [0u64; 7];
    for (name, class, text) in &units {
        let row = &mut total;
        let module = match text {
            Text::Mir(t) => counted(row, 0, || parse_module(t)).unwrap(),
            Text::Tensor(t) => {
                let g = counted(row, 0, || TensorGraph::parse(t)).unwrap();
                counted(row, 1, || g.lower(&TensorLowerConfig::default()))
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .module
            }
        };
        let mut acc = counted(row, 2, || translate(&module, &FrontendConfig::default()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        counted(row, 3, || best_stack(*class).run(&mut acc))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let comp = counted(row, 4, || CompiledAccel::compile(&acc))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        std::hint::black_box(counted(row, 5, || estimate(&comp, Tech::FpgaArria10)));
        std::hint::black_box(counted(row, 6, || emit_chisel(&comp)));
    }
    let n = units.len() as u64;
    let per_unit: u64 = total.iter().sum::<u64>() / n;
    let table: String = LAYERS
        .iter()
        .zip(total)
        .map(|(l, c)| format!("  {l:<13} {:>6}\n", c / n))
        .collect();
    println!(
        "allocations + reallocations per unit ({n} units):\n{table}  total         {per_unit:>6}"
    );
    let budgets = [
        ("total", per_unit, BUDGET_PER_UNIT),
        ("seal", total[4] / n, BUDGET_SEAL),
        (
            "parse + tensor_lower",
            (total[0] + total[1]) / n,
            BUDGET_PARSE_AND_LOWER,
        ),
    ];
    let over: Vec<String> = budgets
        .iter()
        .filter(|(_, count, budget)| count > budget)
        .map(|(what, count, budget)| format!("{what}: {count} per unit, budget {budget}"))
        .collect();
    assert!(over.is_empty(), "{}\n{table}", over.join("\n"));
}
