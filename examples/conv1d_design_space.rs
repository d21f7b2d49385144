//! The paper's Figure 2 walk, driven automatically: one convolution
//! behaviour, many microarchitectures.
//!
//! Earlier revisions of this example applied Figure 2's four
//! optimizations by hand (locality, concurrency, pipelining, higher-order
//! ops). The μopt design-space driver (`muir_bench::dse`, ROADMAP item 3)
//! now does the same walk mechanically: it samples the enumerable knob
//! surface — task-queue depths, execution tiles, localization, banking
//! factors, fusion periods — around the fixed higher-order-Conv behaviour
//! (the suite's `CONV[T]` workload), evaluates every candidate through
//! the eval service, and reports the cycles-vs-area Pareto front.
//!
//! The sweep is pinned (`CONV1D_SEED`/`CONV1D_BUDGET`): the regression
//! test in `crates/bench/tests/dse.rs` asserts this exact 10-point front,
//! so the printout below is reproducible to the cycle.
//!
//! Run with: `cargo run --release --example conv1d_design_space`

use muir::bench::dse::{conv1d_sweep, CONV1D_BUDGET, CONV1D_SEED, CONV1D_WORKLOAD};

fn main() {
    println!(
        "conv1d design space (Figure 2, automated): workload {CONV1D_WORKLOAD}, \
         seed {CONV1D_SEED:#x}, budget {CONV1D_BUDGET}\n"
    );
    let (front, stats) = conv1d_sweep(1);
    println!(
        "{:>5}  {:<34} {:>8} {:>10}  front",
        "idx", "config", "cycles", "area"
    );
    for c in &front.candidates {
        println!(
            "{:>5}  {:<34} {:>8} {:>10}  {}",
            c.index,
            c.config.to_string(),
            c.cycles,
            c.area_score,
            if c.dominated { "" } else { "*" }
        );
    }
    println!(
        "\n{} candidates -> {} distinct artifacts; Pareto front ({} points):",
        stats.candidates,
        stats.artifacts,
        front.front.len()
    );
    for (cycles, area) in &front.front {
        println!("  {cycles:>8} cycles @ area {area}");
    }
    let base = front
        .candidates
        .iter()
        .find(|c| c.index == 0)
        .expect("baseline is always sampled");
    let best = front.front.first().expect("non-empty front");
    println!(
        "\nbaseline {} cycles -> best {} cycles ({:.2}x)",
        base.cycles,
        best.0,
        base.cycles as f64 / best.0 as f64
    );
}
