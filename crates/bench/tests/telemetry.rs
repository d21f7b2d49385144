//! The zero-perturbation guard for the telemetry layer, and the coverage
//! check of its one stats bridge.
//!
//! The guard runs the recording path itself with the global registry on
//! and off: seal (`compile.lower`), drain a fresh store cold with a Dense,
//! a Ready and a traced job (`service.*` spans, the sim bridges, store IO
//! histograms), drain it warm (store hits), and bridge both services'
//! stats. Every observable must be **bit-identical** across the toggle —
//! cycles, end-state hashes, the traced runs' Chrome JSON and the bytes of
//! every stored result — and the "on" leg must have recorded, so the guard
//! fails if its path ever stops reaching a recording site. Telemetry may
//! only observe. Tier-1 checks the first workload of each `Class`;
//! `scripts/check.sh` runs the ignored full sweep in release.
//!
//! This lives in its own integration-test binary on purpose: it toggles
//! the process-global `muir_core::telemetry` flag, which would race with
//! unit tests sharing the registry if it ran inside the library harness.
//! Its own tests take [`serial`] for the same reason.

use muir_bench::baseline;
use muir_bench::service::{EvalJob, EvalService, ServiceConfig};
use muir_bench::telemetry_gate::record_stats;
use muir_core::compiled::CompiledAccel;
use muir_core::telemetry;
use muir_sim::{SchedulerKind, SimConfig, TraceConfig};
use muir_store::{Store, StoreFaultClass, StoreFaultPlan, StoreFaultSpec};
use muir_workloads::{Workload, REGISTRY};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes this binary's tests: each toggles or resets the registry.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("muir-telemetry-{}-{tag}", std::process::id()))
}

/// What a telemetry toggle must not move, for one workload.
struct Fingerprint {
    /// `(cycles, end-state hash)` of every cold, then every warm outcome,
    /// then the post-fault and re-warm ones.
    runs: Vec<(u64, u64)>,
    /// The traced runs' serialized Chrome JSON.
    traces: Vec<String>,
    /// Every result entry in the store afterwards, `(file name, bytes)`.
    entries: Vec<(String, Vec<u8>)>,
}

/// One leg of the guard: seal `w`'s baseline, drain a fresh store at
/// `root` cold with a Dense, a Ready and a traced job, then drain a second
/// service over the same store warm with the two memoizable ones (a
/// traced job never reads the store): each must be a store hit with no
/// simulation attempt. Then the Ready job goes through a store that flips
/// a bit on read, which must surface an `E-STORE-*` warning and recompute
/// the same end state, and through a plain store again, which must hit.
/// Each service's stats go through the bridge (a no-op while telemetry
/// is off).
fn leg(w: &Workload, root: &Path) -> Fingerprint {
    let _ = std::fs::remove_dir_all(root);
    let comp =
        CompiledAccel::compile(&baseline(w)).unwrap_or_else(|e| panic!("{}: compile: {e}", w.name));
    let comp = Arc::new(comp);
    let job = |scheduler, trace| EvalJob {
        cfg: SimConfig {
            scheduler,
            trace,
            ..SimConfig::default()
        },
        args: vec![],
        mem: w.fresh_memory(),
    };
    let jobs = [
        job(SchedulerKind::Dense, TraceConfig::default()),
        job(SchedulerKind::Ready, TraceConfig::default()),
        job(SchedulerKind::Ready, TraceConfig::on()),
    ];
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    for (temperature, jobs) in [("cold", &jobs[..]), ("warm", &jobs[..2])] {
        let store = Store::open(root);
        let mut svc = EvalService::new(comp.clone(), Some(store), ServiceConfig::default());
        for j in jobs {
            svc.submit(j.clone());
        }
        for out in svc.drain() {
            let r = out
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{} {temperature}: {e}", w.name));
            assert!(
                temperature == "cold" || (out.from_store && out.attempts == 0),
                "{}: a warm job simulated (from_store {}, attempts {})",
                w.name,
                out.from_store,
                out.attempts
            );
            runs.push((r.cycles, out.end_state()));
            if let Some(t) = &r.trace {
                traces.push(t.to_chrome_json());
            }
        }
        record_stats(Some(&svc.store_stats()), Some(&svc.stats()));
    }
    assert_eq!(runs[3..], runs[..2], "{}: warm differs from cold", w.name);
    let faulted = StoreFaultPlan::single(StoreFaultClass::BitFlipRead, 0x5e2e);
    for pass in ["post-fault", "re-warm"] {
        let store = match pass {
            "post-fault" => Store::open_with_faults(root, faulted.clone()),
            _ => Store::open(root),
        };
        let mut svc = EvalService::new(comp.clone(), Some(store), ServiceConfig::default());
        svc.submit(jobs[1].clone());
        let out = &svc.drain()[0];
        let r = out
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{} {pass}: {e}", w.name));
        let typed = out.store_warnings.iter().any(|m| m.contains("E-STORE-"));
        let (want_hit, want_warning) = (pass == "re-warm", pass == "post-fault");
        assert!(
            out.from_store == want_hit && typed == want_warning,
            "{} {pass}: from_store {}, warnings {:?}",
            w.name,
            out.from_store,
            out.store_warnings
        );
        assert_eq!(
            (r.cycles, out.end_state()),
            runs[1],
            "{} {pass}: end state differs from cold",
            w.name
        );
        runs.push((r.cycles, out.end_state()));
        record_stats(Some(&svc.store_stats()), Some(&svc.stats()));
    }
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(root.join("results"))
        .expect("results directory")
        .map(|e| {
            let path = e.expect("results entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("read entry"))
        })
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "{}: the cold drain stored nothing",
        w.name
    );
    let _ = std::fs::remove_dir_all(root);
    Fingerprint {
        runs,
        traces,
        entries,
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
    let _serial = serial();
    let mut failures = Vec::new();
    for (i, e) in REGISTRY.iter().enumerate().filter(|&(i, _)| keep(i)) {
        let w = (e.build)();
        let root = temp_root(&format!("guard-{i}"));

        telemetry::set_enabled(false);
        telemetry::reset();
        let off = leg(&w, &root);
        let quiet = telemetry::snapshot();
        assert!(
            quiet.counters.is_empty()
                && quiet.histograms.is_empty()
                && telemetry::spans().is_empty(),
            "{}: the registry recorded with telemetry off",
            w.name
        );
        telemetry::set_enabled(true);
        telemetry::reset();
        let on = leg(&w, &root);
        telemetry::set_enabled(false);

        // The "on" leg must have reached the recording sites, or the
        // comparison below proves nothing.
        let spans = telemetry::spans();
        for name in ["compile.lower", "service.drain"] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{}: no `{name}` span recorded with telemetry on",
                w.name
            );
        }
        let snap = telemetry::snapshot();
        for name in ["sim.runs", "service.submitted"] {
            assert!(
                snap.counter(name) > 0,
                "{}: `{name}` not recorded with telemetry on",
                w.name
            );
        }

        if off.runs != on.runs {
            failures.push(format!(
                "{}: (cycles, end-state hash) moved with telemetry on: \
                 off {:?} vs on {:?}",
                w.name, off.runs, on.runs
            ));
        }
        if off.traces != on.traces {
            failures.push(format!(
                "{}: traced Chrome JSON bytes differ with telemetry on",
                w.name
            ));
        }
        if off.entries != on.entries {
            failures.push(format!(
                "{}: stored result bytes differ with telemetry on ({:?} vs {:?})",
                w.name,
                off.entries.iter().map(|e| &e.0).collect::<Vec<_>>(),
                on.entries.iter().map(|e| &e.0).collect::<Vec<_>>()
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

/// Every counted `StoreStats`/`ServiceStats` field reaches the registry
/// through `record_stats`, under its plain name, with the struct's value —
/// and nothing else counts a `store.*` or `service.*` fact, even with
/// telemetry on for the whole run.
#[test]
fn record_stats_bridges_every_counted_field_once() {
    let _serial = serial();
    let w = muir_workloads::by_name("SAXPY").expect("SAXPY in the registry");
    let comp = Arc::new(CompiledAccel::compile(&baseline(&w)).expect("seal SAXPY"));
    let root = temp_root("bridge");
    let _ = std::fs::remove_dir_all(&root);
    // One injection of each storage fault: the cold writeback is torn,
    // skewed and fails its rename (the service's storage retry publishes
    // it), and the first warm read flips a bit (quarantined, recomputed).
    let faults = StoreFaultPlan {
        seed: 0xb1d6e,
        specs: StoreFaultClass::ALL
            .iter()
            .map(|&class| StoreFaultSpec {
                class,
                rate_ppm: 1_000_000,
                max_events: 1,
            })
            .collect(),
    };
    // A deadline tight enough to clip and retry every simulation.
    let config = ServiceConfig {
        deadline_cycles: 4,
        ..ServiceConfig::default()
    };
    let job = EvalJob {
        cfg: SimConfig::default(),
        args: vec![],
        mem: w.fresh_memory(),
    };

    telemetry::set_enabled(true);
    telemetry::reset();
    let store = Store::open_with_faults(&root, faults);
    let mut svc = EvalService::new(comp, Some(store), config);
    svc.submit(job.clone());
    svc.submit(job.clone()); // coalesces
    svc.drain(); // cold
    svc.submit(job.clone());
    svc.drain(); // warm, but the entry reads corrupt
    svc.submit(job);
    let warm = svc.drain(); // warm hit
    assert!(warm[0].from_store, "the repaired entry must serve");
    let (st, sv) = (svc.store_stats(), svc.stats());
    record_stats(Some(&st), Some(&sv));
    telemetry::set_enabled(false);
    let _ = std::fs::remove_dir_all(&root);

    let f = &st.faults;
    let mut want: Vec<(String, u64)> = [
        ("store.artifact_puts", st.artifact_puts),
        ("store.result_puts", st.result_puts),
        ("store.result_hits", st.result_hits),
        ("store.result_misses", st.result_misses),
        ("store.corrupt_entries", st.corrupt_entries),
        ("store.quarantined", st.quarantined),
        ("store.put_errors", st.put_errors),
        ("store.fault.truncate-write", f.truncate_write),
        ("store.fault.bit-flip-read", f.bit_flip_read),
        ("store.fault.rename-fail", f.rename_fail),
        ("store.fault.stale-version", f.stale_version),
        ("service.submitted", sv.submitted),
        ("service.executed_groups", sv.executed_groups),
        ("service.coalesced", sv.coalesced),
        ("service.store_hits", sv.store_hits),
        ("service.recomputed", sv.recomputed),
        ("service.retries", sv.retries),
        ("service.deadline_clipped", sv.deadline_clipped),
        ("service.store_warnings", sv.store_warnings),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    want.sort();
    let zero: Vec<&str> = want
        .iter()
        .filter(|(_, v)| *v == 0)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(zero.is_empty(), "the scenario left {zero:?} at 0");

    let got: Vec<(String, u64)> = telemetry::snapshot()
        .counters
        .into_iter()
        .filter(|(n, _)| n.starts_with("store.") || n.starts_with("service."))
        .collect();
    assert_eq!(got, want, "registry counters vs the stats structs");
    assert!(
        st.to_string().ends_with(
            "injected faults: 1 truncate-write, 1 bit-flip-read, 1 rename-fail, 1 stale-version"
        ),
        "{st}"
    );
}
