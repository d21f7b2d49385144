//! Crash-recovery and round-trip tests for the persistent store.

use super::*;
use muir_core::envelope::HEADER_LEN;
use muir_frontend::{translate, FrontendConfig};
use muir_mir::instr::ValueRef;
use muir_mir::types::ScalarType;
use muir_mir::{FunctionBuilder, Module};
use muir_sim::{result_hash, simulate_compiled, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of entries in the store's `quarantine/` directory.
fn quarantine_len(store: &Store) -> usize {
    fs::read_dir(store.root.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0)
}

/// A unique per-test store root under the system temp dir (no tempfile
/// dependency; the process id + a counter keep parallel tests apart).
fn test_root(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("muir-store-test-{}-{tag}-{n}", std::process::id()))
}

/// A small real accelerator (the doubling loop from the sim docs) plus a
/// fresh memory image and a completed evaluation to store.
fn sample_eval() -> (CompiledAccel, SimConfig, StoredEval) {
    let mut m = Module::new("double");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, v);
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let comp = CompiledAccel::compile(&acc).unwrap();
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &[1; 16]);
    let cfg = SimConfig::default();
    let result = simulate_compiled(&comp, &mut mem, &[], &cfg).unwrap();
    (comp, cfg, StoredEval { result, mem })
}

#[test]
fn result_round_trip_is_identity() {
    let root = test_root("roundtrip");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open(&root);
    assert!(!store.is_disabled());
    assert!(store.get_result(key).unwrap().is_none(), "cold miss");
    store.put_result(key, &eval).unwrap();
    let warm = store.get_result(key).unwrap().expect("warm hit");
    assert_eq!(warm, eval);
    assert_eq!(result_hash(&warm.result), result_hash(&eval.result));
    let s = store.stats();
    assert_eq!((s.result_puts, s.result_hits, s.result_misses), (1, 1, 1));
    assert_eq!(s.corrupt_entries, 0);
    let _ = fs::remove_dir_all(&root);
}

/// Two jobs whose memories differ only in a NaN payload are different
/// jobs: the codec preserves the bits, so the keys must too, or a warm
/// hit hands one job the other's end state.
#[test]
fn jobs_differing_only_in_nan_payload_get_their_own_results() {
    use muir_sim::end_state_hash;

    let root = test_root("nan");
    let mut m = Module::new("double-beside-floats");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let f = m.add_mem_object("f", ScalarType::F32, 2);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, v);
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let comp = CompiledAccel::compile(&acc).unwrap();
    let cfg = SimConfig::default();

    let mut store = Store::open(&root);
    let mut cold = Vec::new();
    for bits in [0x7fc0_0001u32, 0x7fc0_0002] {
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &[1; 16]);
        mem.write(f, 0, Value::F32(f32::from_bits(bits))).unwrap();
        let key = ResultKey::new(&comp, &cfg, &[], &mem);
        let result = simulate_compiled(&comp, &mut mem, &[], &cfg).unwrap();
        let end = end_state_hash(&result, &mem);
        store.put_result(key, &StoredEval { result, mem }).unwrap();
        cold.push((key, bits, end));
    }
    assert_ne!(cold[0].0, cold[1].0, "distinct keys");
    assert_ne!(
        store.result_path(cold[0].0),
        store.result_path(cold[1].0),
        "distinct result files"
    );
    assert_ne!(cold[0].2, cold[1].2, "distinct end states");
    for (key, bits, end) in cold {
        let warm = store.get_result(key).unwrap().expect("warm hit");
        assert_eq!(end_state_hash(&warm.result, &warm.mem), end, "{bits:#x}");
        let (_, got) = warm.mem.words(f, 0, 1).unwrap();
        assert_eq!(got, [u64::from(bits)], "payload survives the round trip");
    }
    assert_eq!(store.stats().result_puts, 2);
    let _ = fs::remove_dir_all(&root);
}

/// Cross-commit fixture: the entry the last build whose images were
/// `Vec<Value>` wrote for MT-INFER (registry inputs, baseline artifact,
/// `SimConfig::default()`, no arguments), under the key in its file name.
/// This build serves it, to the end state that build computed, and
/// writes the same bytes back: stores filled before images were flat
/// stay warm, and nothing tells the two builds' entries apart.
#[test]
fn parent_written_result_is_served_and_re_encoded_byte_identically() {
    const FIXTURE: &[u8] = include_bytes!("../fixtures/b0d12b6aa501f015-a365652d0b58056d.res");
    let key = ResultKey {
        artifact: 0xb0d1_2b6a_a501_f015,
        job: 0xa365_652d_0b58_056d,
    };
    let root = test_root("fixture");
    let mut store = Store::open(&root);
    fs::write(store.result_path(key), FIXTURE).unwrap();
    let eval = store.get_result(key).unwrap().expect("served from store");
    assert_eq!(
        muir_sim::end_state_hash(&eval.result, &eval.mem),
        0x698d_ed9a_ac4e_e284
    );
    assert_eq!(
        eval.mem
            .objects
            .iter()
            .map(|o| o.words().len())
            .sum::<usize>(),
        256
    );
    let (kind, payload) = envelope::open(FIXTURE).unwrap();
    assert_eq!(kind, PayloadKind::SimResult);
    assert_eq!(codec::encode_eval(&eval), payload);
    // ... and through the write path, envelope included.
    fs::remove_file(store.result_path(key)).unwrap();
    store.put_result(key, &eval).unwrap();
    assert_eq!(fs::read(store.result_path(key)).unwrap(), FIXTURE);
    let _ = fs::remove_dir_all(&root);
}

/// A record that passes the envelope but holds a memory object no typed
/// word buffer can (two kinds on one line, a poison slot, a composite
/// slot, a miscounted line) is a typed decode failure: quarantined, then
/// a clean miss.
#[test]
fn untyped_memory_objects_are_decode_errors_and_quarantined() {
    let root = test_root("untyped");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open(&root);
    let good = String::from_utf8(codec::encode_eval(&eval)).unwrap();
    assert!(good.contains("\nobj 16 i2 i2 "), "{good}");
    let bad_lines = [
        "\nobj 16 b1 i2 ",
        "\nobj 16 p i2 ",
        "\nobj 16 v(i2) i2 ",
        "\nobj 17 i2 i2 ",
    ];
    for (n, bad) in bad_lines.into_iter().enumerate() {
        let payload = good.replacen("\nobj 16 i2 i2 ", bad, 1);
        let sealed = envelope::seal(PayloadKind::SimResult, payload.as_bytes());
        fs::write(store.result_path(key), sealed).unwrap();
        let err = store.get_result(key).unwrap_err();
        assert_eq!(err.code(), "E-STORE-DECODE", "{bad:?}: {err}");
        assert_eq!(quarantine_len(&store), 1, "{bad:?}: evidence kept");
        assert_eq!(store.stats().corrupt_entries, n as u64 + 1);
        assert!(
            store.get_result(key).unwrap().is_none(),
            "{bad:?}: slot empty"
        );
    }
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.get_result(key).unwrap().unwrap(), eval);
    let _ = fs::remove_dir_all(&root);
}

/// A `structs` count the text cannot back — `Vec::with_capacity` of it
/// used to panic with a capacity overflow — is a decode failure like a
/// miscounted `obj` line.
#[test]
fn an_unbounded_struct_count_is_a_decode_error_and_quarantined() {
    let root = test_root("structs");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open(&root);
    let good = String::from_utf8(codec::encode_eval(&eval)).unwrap();
    let line = good.lines().find(|l| l.starts_with("structs ")).unwrap();
    let payload = good.replacen(line, &format!("structs {}", u64::MAX), 1);
    let sealed = envelope::seal(PayloadKind::SimResult, payload.as_bytes());
    fs::write(store.result_path(key), sealed).unwrap();
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-DECODE", "{err}");
    assert_eq!(quarantine_len(&store), 1, "evidence kept");
    assert!(store.get_result(key).unwrap().is_none(), "slot empty");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_write_is_quarantined_and_recoverable() {
    let root = test_root("torn");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open(&root);
    store.put_result(key, &eval).unwrap();
    // Crash mid-write: truncate the published entry below its declared
    // payload length (but past the magic, the torn-write signature).
    let path = store.result_path(key);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..HEADER_LEN + 4]).unwrap();
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-TRUNC", "{err}");
    assert!(!err.is_transient());
    assert_eq!(quarantine_len(&store), 1, "evidence kept");
    // The slot is now empty: clean miss, recompute, re-put, warm hit.
    assert!(store.get_result(key).unwrap().is_none());
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.get_result(key).unwrap().unwrap(), eval);
    let s = store.stats();
    assert_eq!(s.corrupt_entries, 1);
    assert_eq!(s.quarantined, 1);
    assert_eq!(s.result_hits, 1);
    assert_eq!(s.result_misses, 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checksum_mismatch_is_quarantined_and_recoverable() {
    let root = test_root("bitrot");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open(&root);
    store.put_result(key, &eval).unwrap();
    // Bit rot: flip one payload bit in place.
    let path = store.result_path(key);
    let mut bytes = fs::read(&path).unwrap();
    bytes[HEADER_LEN + 3] ^= 0x10;
    fs::write(&path, &bytes).unwrap();
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-CHECKSUM", "{err}");
    assert_eq!(quarantine_len(&store), 1);
    assert!(store.get_result(key).unwrap().is_none(), "clean miss after");
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.get_result(key).unwrap().unwrap(), eval);
    let s = store.stats();
    assert_eq!((s.corrupt_entries, s.quarantined), (1, 1));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_stale_version_surfaces_version_skew() {
    let root = test_root("skew");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open_with_faults(
        &root,
        StoreFaultPlan::single(StoreFaultClass::StaleVersion, 3),
    );
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.stats().faults.stale_version, 1);
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-VERSION", "{err}");
    assert_eq!(quarantine_len(&store), 1);
    assert!(store.get_result(key).unwrap().is_none());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_truncate_write_surfaces_torn_write() {
    let root = test_root("inj-torn");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open_with_faults(
        &root,
        StoreFaultPlan::single(StoreFaultClass::TruncateWrite, 11),
    );
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.stats().faults.truncate_write, 1);
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-TRUNC", "{err}");
    assert_eq!(quarantine_len(&store), 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_rename_failure_is_transient_and_publishes_nothing() {
    let root = test_root("rename");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open_with_faults(
        &root,
        StoreFaultPlan::single(StoreFaultClass::RenameFail, 5),
    );
    let err = store.put_result(key, &eval).unwrap_err();
    assert_eq!(err.code(), "E-STORE-IO", "{err}");
    assert!(err.is_transient(), "I/O failures are retryable");
    assert!(
        store.get_result(key).unwrap().is_none(),
        "nothing published"
    );
    assert_eq!(
        fs::read_dir(root.join("tmp")).unwrap().count(),
        0,
        "no debris"
    );
    assert_eq!(store.stats().put_errors, 1);
    // The budgeted fault is spent: the retry succeeds.
    store.put_result(key, &eval).unwrap();
    assert_eq!(store.get_result(key).unwrap().unwrap(), eval);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_bit_flip_on_read_is_detected_typed() {
    let root = test_root("inj-flip");
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let mut store = Store::open_with_faults(
        &root,
        StoreFaultPlan::single(StoreFaultClass::BitFlipRead, 21),
    );
    store.put_result(key, &eval).unwrap();
    // The flipped bit can land in the payload (checksum) or the header
    // (magic/version/length) — all must surface typed, never decode.
    let err = store.get_result(key).unwrap_err();
    assert!(
        matches!(
            err.code(),
            "E-STORE-CHECKSUM" | "E-STORE-MAGIC" | "E-STORE-VERSION" | "E-STORE-TRUNC"
        ),
        "{err}"
    );
    assert_eq!(store.stats().faults.bit_flip_read, 1);
    assert_eq!(quarantine_len(&store), 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn disabled_store_degrades_with_typed_error() {
    // Root the store under a *file* so the directory layout cannot exist.
    let blocker = test_root("blocker");
    fs::create_dir_all(&blocker).unwrap();
    let file = blocker.join("occupied");
    fs::write(&file, b"x").unwrap();
    let mut store = Store::open(&file.join("sub"));
    assert!(store.is_disabled());
    assert!(store.stats().disabled);
    let (comp, cfg, eval) = sample_eval();
    let key = ResultKey::new(&comp, &cfg, &[], &eval.mem);
    let err = store.get_result(key).unwrap_err();
    assert_eq!(err.code(), "E-STORE-DISABLED", "{err}");
    assert!(!err.is_transient());
    assert_eq!(
        store.put_result(key, &eval).unwrap_err().code(),
        "E-STORE-DISABLED"
    );
    assert_eq!(
        store.put_artifact(&comp).unwrap_err().code(),
        "E-STORE-DISABLED"
    );
    let _ = fs::remove_dir_all(&blocker);
}

#[test]
fn artifact_records_round_trip_and_dedup() {
    let root = test_root("artifact");
    let (comp, _cfg, _eval) = sample_eval();
    let mut store = Store::open(&root);
    assert!(store.get_artifact(comp.content_hash()).unwrap().is_none());
    assert!(store.put_artifact(&comp).unwrap(), "first put writes");
    assert!(!store.put_artifact(&comp).unwrap(), "second put dedups");
    let text = store
        .get_artifact(comp.content_hash())
        .unwrap()
        .expect("artifact present");
    assert_eq!(text, print_accelerator(comp.accel()));
    assert_eq!(store.stats().artifact_puts, 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn traced_configs_are_not_memoizable() {
    let mut cfg = SimConfig::default();
    assert!(memoizable(&cfg));
    cfg.trace.enabled = true;
    assert!(!memoizable(&cfg));
}

/// Two `Store`s opened on one root in one process write at the same time:
/// each temp file name is unique process-wide, so no write publishes
/// another's bytes under its own key, and every temp file is renamed
/// away.
#[test]
fn two_stores_on_one_root_write_concurrently_without_collisions() {
    const KEYS: u64 = 64;
    let root = test_root("two-writers");
    let (_, _, eval) = sample_eval();
    // Entry `k` of writer `w` carries its own cycle count, so a swapped
    // or torn entry reads back different from what was put.
    let entry = |w: u64, k: u64| {
        let mut e = eval.clone();
        e.result.cycles = w * KEYS + k;
        (
            ResultKey {
                artifact: w,
                job: k,
            },
            e,
        )
    };
    // Both stores are open before either writes, so the writes overlap.
    let start = std::sync::Barrier::new(2);
    let stats: Vec<StoreStats> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (root, entry, start) = (&root, &entry, &start);
                s.spawn(move || {
                    let mut store = Store::open(root);
                    start.wait();
                    for k in 0..KEYS {
                        let (key, e) = entry(w, k);
                        store.put_result(key, &e).unwrap();
                    }
                    store.stats()
                })
            })
            .collect();
        writers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut store = Store::open(&root);
    for w in 0..2 {
        for k in 0..KEYS {
            let (key, e) = entry(w, k);
            assert_eq!(store.get_result(key).unwrap().as_ref(), Some(&e), "{w}/{k}");
        }
    }
    for s in stats.iter().chain([&store.stats()]) {
        assert_eq!((s.put_errors, s.corrupt_entries, s.quarantined), (0, 0, 0));
    }
    assert_eq!(fs::read_dir(root.join("tmp")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(&root);
}
