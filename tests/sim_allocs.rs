//! Allocation budget of one simulation: `simulate_compiled` on the sealed
//! baselines of GEMM, SPMV and RELU[T], counted by a per-thread counting
//! allocator. A run allocates its per-run tables — tasks, tiles,
//! invocation shells, rings, calendars, queues — and then reuses them, so
//! the count follows the graph and the run's concurrency, not its cycles
//! or firings; a change that brings back a per-cycle or per-firing
//! temporary fails here with the table. The reference interpreter's runs
//! of GEMM and 2MM[T] and the HLS model's run over GEMM get one budget
//! each.

use muir::baselines::HlsModel;
use muir::bench::baseline;
use muir::core::CompiledAccel;
use muir::sim::{simulate_compiled, SimConfig};
use muir::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// (program, firings, allocations plus reallocations per
/// `simulate_compiled`): the 426, 396 and 344 counted when the budget was
/// set, plus 10 %. A per-cycle temporary shows at once — a fresh cache
/// miss list on every cycle with a miss was 2 045 more on RELU[T].
const BUDGETS: [(&str, u64, u64); 3] = [
    ("GEMM", 333_922, 469),
    ("SPMV", 18_178, 436),
    ("RELU[T]", 1_538, 378),
];

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

#[test]
fn simulation_allocations_stay_within_budget() {
    let cfg = SimConfig::default();
    let mut table = String::new();
    let mut wrong = Vec::new();
    for (name, fires, budget) in BUDGETS {
        let w = workloads::by_name(name).expect("registry workload");
        let comp = CompiledAccel::compile(&baseline(&w)).expect("seal");
        let mut mem = w.fresh_memory();
        let before = events();
        let r = simulate_compiled(&comp, &mut mem, &[], &cfg);
        let count = events() - before;
        let r = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        table.push_str(&format!(
            "  {name:<8} {count:>6} for {:>7} firings (budget {budget} for {fires})\n",
            r.stats.fires
        ));
        if count > budget || r.stats.fires != fires {
            wrong.push(name);
        }
    }
    println!("allocations + reallocations per simulate_compiled:\n{table}");
    assert!(
        wrong.is_empty(),
        "over budget or other firings: {wrong:?}\n{table}"
    );
}

/// The reference interpreter reads blocks and instructions in place and
/// reuses one φ buffer: GEMM's reference run allocates its frame and its
/// memory image, not once per block entry or executed instruction.
#[test]
fn reference_run_of_gemm_allocates_under_a_thousand() {
    let w = workloads::by_name("GEMM").expect("registry workload");
    let before = events();
    let mem = w.run_reference().expect("reference run");
    let count = events() - before;
    std::hint::black_box(mem);
    println!("GEMM reference run: {count} allocations + reallocations");
    assert!(count < 1_000, "{count} allocations + reallocations");
}

/// A tile lives in words its instruction's region reuses, not in a
/// `Vec` per tile op: 2MM[T]'s reference run allocates its frame and
/// memory image whatever the number of tile ops it executes (a tile of
/// `Value`s made it 7 874).
#[test]
fn reference_run_of_2mm_t_allocates_under_sixty_four() {
    let w = workloads::by_name("2MM[T]").expect("registry workload");
    let before = events();
    let mem = w.run_reference().expect("reference run");
    let count = events() - before;
    std::hint::black_box(mem);
    println!("2MM[T] reference run: {count} allocations + reallocations");
    assert!(count < 64, "{count} allocations + reallocations");
}

/// The HLS model schedules each block and each pipelined loop once, then
/// looks a dynamic block up by the `&str` the interpreter passes: GEMM's
/// HLS run allocates its schedules and the interpreter's frame, not a key
/// per block entry.
#[test]
fn hls_run_of_gemm_allocates_under_a_thousand() {
    let w = workloads::by_name("GEMM").expect("registry workload");
    let mut mem = w.fresh_memory();
    let before = events();
    let r = HlsModel::default().run(&w.module, &mut mem);
    let count = events() - before;
    let r = r.expect("HLS run");
    println!(
        "GEMM HLS run: {count} allocations + reallocations over {} blocks",
        r.blocks
    );
    assert!(count < 1_000, "{count} allocations + reallocations");
}
