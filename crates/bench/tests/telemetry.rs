//! The zero-perturbation guard for the telemetry layer: with the global
//! registry enabled, every workload must produce **bit-identical**
//! observables to the disabled run — cycle counts, end-state hashes
//! (results + final memory image) under both schedulers, and the
//! exact Chrome-trace bytes of a traced run. Telemetry may only observe.
//! Tier-1 checks the first workload of each `Class`; `scripts/check.sh`
//! runs the ignored full sweep in release.
//!
//! This lives in its own integration-test binary on purpose: it toggles
//! the process-global `muir_core::telemetry` flag, which would race with
//! unit tests sharing the registry if it ran inside the library harness.

use muir_bench::baseline;
use muir_core::compiled::CompiledAccel;
use muir_core::telemetry;
use muir_sim::{end_state_hash, simulate_compiled, SchedulerKind, SimConfig, TraceConfig};
use muir_workloads::REGISTRY;

/// The per-workload observable fingerprint a telemetry toggle must not
/// move: `(cycles, end-state hash)` per scheduler plus the traced run's
/// serialized Chrome JSON.
struct Fingerprint {
    plain: Vec<(u64, u64)>,
    trace_bytes: String,
}

fn fingerprint(comp: &CompiledAccel, w: &muir_workloads::Workload) -> Fingerprint {
    let mut plain = Vec::new();
    for kind in [SchedulerKind::Dense, SchedulerKind::Ready] {
        let cfg = SimConfig {
            scheduler: kind,
            ..SimConfig::default()
        };
        let mut mem = w.fresh_memory();
        let r = simulate_compiled(comp, &mut mem, &[], &cfg)
            .unwrap_or_else(|e| panic!("{}: {kind:?}: {e}", w.name));
        plain.push((r.cycles, end_state_hash(&r, &mem)));
    }

    let cfg = SimConfig {
        trace: TraceConfig::on(),
        ..SimConfig::default()
    };
    let mut mem = w.fresh_memory();
    let r = simulate_compiled(comp, &mut mem, &[], &cfg)
        .unwrap_or_else(|e| panic!("{}: traced: {e}", w.name));
    Fingerprint {
        plain,
        trace_bytes: r.trace.expect("tracing was on").to_chrome_json(),
    }
}

#[test]
fn metrics_on_and_off_are_bit_identical_on_the_first_workload_of_each_class() {
    sweep(&|i| REGISTRY[..i].iter().all(|e| e.class != REGISTRY[i].class));
}

#[test]
#[ignore = "full sweep: scripts/check.sh, release"]
fn metrics_on_and_off_are_bit_identical_on_every_workload() {
    sweep(&|_| true);
}

/// The telemetry toggle on every registry workload `keep` selects by
/// index.
fn sweep(keep: &dyn Fn(usize) -> bool) {
    let mut failures = Vec::new();
    for (_, e) in REGISTRY.iter().enumerate().filter(|&(i, _)| keep(i)) {
        let w = (e.build)();
        let acc = baseline(&w);
        let comp =
            CompiledAccel::compile(&acc).unwrap_or_else(|e| panic!("{}: compile: {e}", w.name));

        telemetry::set_enabled(false);
        let off = fingerprint(&comp, &w);
        telemetry::set_enabled(true);
        telemetry::reset();
        let on = fingerprint(&comp, &w);
        telemetry::set_enabled(false);

        if off.plain != on.plain {
            failures.push(format!(
                "{}: (cycles, end-state hash) moved with telemetry on: \
                 off {:?} vs on {:?}",
                w.name, off.plain, on.plain
            ));
        }
        if off.trace_bytes != on.trace_bytes {
            failures.push(format!(
                "{}: traced Chrome JSON bytes differ with telemetry on \
                 ({} vs {} bytes)",
                w.name,
                off.trace_bytes.len(),
                on.trace_bytes.len()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "telemetry perturbed {} workload(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
