//! Content hashes over simulation inputs and outcomes.
//!
//! The persistent result store keys memoized evaluations by
//! `(hash(artifact), hash(job))` and proves determinism by comparing
//! `hash(end state)` across cold, warm, and post-fault runs. Both sides
//! use the same splitmix64 fold ([`muir_core::ContentHasher`]) as the
//! artifact's content hash, so "same bytes" means the same thing at every
//! layer.
//!
//! Everything here is hashed **structurally, by bits**: integers as
//! little-endian words, and runtime data through the one structural walk
//! `muir-mir` gives [`Value`] and [`Memory`] (`impl Hash`: variant tag +
//! exact bits, length-prefixed vectors/tensors/objects, tensor shape
//! bound). Nothing is rendered to text, so two jobs whose memories differ
//! only in a NaN payload or in the sign of a zero get different keys —
//! the store codec preserves those bits, and a warm hit must too.
//!
//! Two normalization rules keep the keys honest:
//!
//! * **the scheduler is excluded** from [`config_hash`]: the determinism
//!   contract (DESIGN.md §9–§10) guarantees bit-identical observables
//!   across `Dense`/`Ready`, so a result computed under one is a valid
//!   warm hit for the other;
//! * **`sched_visits` is excluded** from [`result_hash`]: it counts
//!   simulator effort, not hardware behaviour, and legitimately differs
//!   between schedulers.
//!
//! The domain tags of the three data-carrying hashes are one 64-bit word
//! each and are at `-v2`: `-v1` hashed the `Debug` text of each value. Results a `-v1` build wrote to
//! a store sit under keys no `-v2` build computes — orphaned, never
//! mis-served.

use crate::{SimConfig, SimResult};
use muir_core::ContentHasher;
use muir_mir::interp::Memory;
use muir_mir::value::Value;
use std::hash::Hash as _;

/// Hash the parts of a [`SimConfig`] that can affect simulation
/// observables. Scheduler choice is deliberately excluded (see module
/// docs); tracing is excluded too
/// because traces are never stored — the store layer refuses tracing
/// configs instead.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    let mut h = ContentHasher::new();
    h.push_str("cfg-v1");
    h.push_u64(cfg.max_cycles);
    h.push_u64(cfg.window);
    h.push_f64_bits(cfg.period_ns);
    h.push_u64(cfg.deadlock_cycles);
    h.push_u64(u64::from(cfg.databox_entries));
    h.push_u64(u64::from(cfg.elastic_depth));
    h.push_u64(cfg.faults.seed);
    h.push_u64(cfg.faults.specs.len() as u64);
    for spec in &cfg.faults.specs {
        h.push_str(spec.class.name());
        h.push_u64(u64::from(spec.rate_ppm));
        h.push_u64(u64::from(spec.max_events));
    }
    h.finish()
}

/// Hash one evaluation job: configuration plus the run's actual inputs
/// (root arguments and the initial memory image). This is the `job` half
/// of the store's result key — strictly finer than hashing the config
/// alone, so two design points that share a config but differ in data can
/// never collide onto one memoized result.
pub fn job_hash(cfg: &SimConfig, args: &[Value], mem: &Memory) -> u64 {
    let mut h = ContentHasher::new();
    h.push(b"job-v2\0\0");
    h.push_u64(config_hash(cfg));
    args.hash(&mut h);
    mem.hash(&mut h);
    h.finish()
}

/// Hash a simulation outcome: cycles, root results, and every stat that is
/// a hardware observable. `sched_visits`, `profile`, and `trace` are
/// excluded (simulator-effort / observability artifacts, not behaviour).
pub fn result_hash(r: &SimResult) -> u64 {
    let mut h = ContentHasher::new();
    h.push(b"res-v2\0\0");
    h.push_u64(r.cycles);
    r.results.hash(&mut h);
    let s = &r.stats;
    h.push_u64(s.cycles);
    h.push_u64(s.fires);
    h.push_u64(s.task_invocations.len() as u64);
    for v in &s.task_invocations {
        h.push_u64(*v);
    }
    h.push_u64(s.task_busy_cycles.len() as u64);
    for v in &s.task_busy_cycles {
        h.push_u64(*v);
    }
    h.push_u64(s.struct_stats.len() as u64);
    for st in &s.struct_stats {
        h.push_u64(st.requests);
        h.push_u64(st.elem_txns);
        h.push_u64(st.conflict_stalls);
        h.push_u64(st.hits);
        h.push_u64(st.misses);
        h.push_u64(st.writebacks);
        h.push_u64(st.ecc_corrected);
    }
    h.push_u64(s.dram_fills);
    h.push_u64(s.faults.token_bit_flip);
    h.push_u64(s.faults.token_drop);
    h.push_u64(s.faults.token_dup);
    h.push_u64(s.faults.stuck_handshake);
    h.push_u64(s.faults.mem_ecc);
    h.push_u64(s.faults.dram_timeout);
    h.finish()
}

/// Hash the complete end state of an evaluation: the outcome plus the
/// final memory image. This is what the store's differential campaign
/// compares across cold / warm / post-fault runs.
pub fn end_state_hash(r: &SimResult, mem: &Memory) -> u64 {
    let mut h = ContentHasher::new();
    h.push(b"end-v2\0\0");
    h.push_u64(result_hash(r));
    mem.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerKind;
    use muir_mir::memory::{ElemKind, ObjectImage};

    #[test]
    fn config_hash_ignores_scheduler() {
        let base = SimConfig::default();
        let h = config_hash(&base);
        for sched in [SchedulerKind::Dense, SchedulerKind::Ready] {
            let cfg = base.clone().with_scheduler(sched);
            assert_eq!(config_hash(&cfg), h, "{sched:?}");
        }
    }

    #[test]
    fn config_hash_sees_every_observable_knob() {
        let base = SimConfig::default();
        let h = config_hash(&base);
        let mut c = base.clone();
        c.max_cycles += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.window += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.deadlock_cycles += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.databox_entries += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.elastic_depth += 1;
        assert_ne!(config_hash(&c), h);
        let mut c = base.clone();
        c.faults = crate::FaultPlan::single(crate::FaultClass::TokenDrop, 1);
        assert_ne!(config_hash(&c), h);
    }

    #[test]
    fn job_hash_sees_args_and_memory() {
        let cfg = SimConfig::default();
        let mem = Memory::default();
        let h = job_hash(&cfg, &[], &mem);
        assert_eq!(job_hash(&cfg, &[], &mem), h, "deterministic");
        assert_ne!(job_hash(&cfg, &[Value::Int(1)], &mem), h, "args");
        let mem2 = mem_of(vec![int_image(&[7])]);
        assert_ne!(job_hash(&cfg, &[], &mem2), h, "memory");
    }

    fn mem_of(objects: Vec<ObjectImage>) -> Memory {
        let bases = (0..objects.len() as u64).collect();
        Memory { objects, bases }
    }

    fn int_image(data: &[i64]) -> ObjectImage {
        let words = data.iter().map(|&i| i as u64).collect();
        ObjectImage::from_words(ElemKind::Int, words).unwrap()
    }

    fn f32_image(data: &[f32]) -> ObjectImage {
        let words = data.iter().map(|f| u64::from(f.to_bits())).collect();
        ObjectImage::from_words(ElemKind::F32, words).unwrap()
    }

    fn result_of(results: Vec<Value>) -> SimResult {
        SimResult {
            cycles: 10,
            results,
            stats: crate::SimStats::default(),
            profile: None,
            trace: None,
        }
    }

    /// Float bits are the identity, not their rendering: every NaN prints
    /// as `NaN`, so text hashing gave two such jobs one result key.
    #[test]
    fn hashes_tell_nan_payloads_and_zero_signs_apart() {
        let cfg = SimConfig::default();
        let pairs = [
            (f32::from_bits(0x7fc0_0001), f32::from_bits(0x7fc0_0002)),
            (0.0f32, -0.0f32),
        ];
        for (a, b) in pairs {
            let (ma, mb) = (mem_of(vec![f32_image(&[a])]), mem_of(vec![f32_image(&[b])]));
            let (a, b) = (Value::F32(a), Value::F32(b));
            let empty = mem_of(vec![]);
            assert_ne!(
                job_hash(&cfg, std::slice::from_ref(&a), &empty),
                job_hash(&cfg, std::slice::from_ref(&b), &empty),
                "args: {a:?} vs {b:?}"
            );
            assert_ne!(
                job_hash(&cfg, &[], &ma),
                job_hash(&cfg, &[], &mb),
                "memory: {a:?} vs {b:?}"
            );
            let r = result_of(vec![]);
            assert_ne!(
                end_state_hash(&r, &ma),
                end_state_hash(&r, &mb),
                "end memory: {a:?} vs {b:?}"
            );
            assert_ne!(
                end_state_hash(&result_of(vec![a.clone()]), &empty),
                end_state_hash(&result_of(vec![b.clone()]), &empty),
                "results: {a:?} vs {b:?}"
            );
        }
    }

    /// No two distinct inputs may flatten to the same byte stream.
    #[test]
    fn structural_walk_is_prefix_free() {
        use muir_mir::types::TensorShape;
        let cfg = SimConfig::default();
        let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        let distinct = |a: &Memory, b: &Memory, what: &str| {
            assert_ne!(job_hash(&cfg, &[], a), job_hash(&cfg, &[], b), "{what}");
            let r = result_of(vec![]);
            assert_ne!(end_state_hash(&r, a), end_state_hash(&r, b), "{what}");
        };
        // The same elements split differently across objects.
        let a = mem_of(vec![int_image(&[1]), int_image(&[2, 3])]);
        let mut b = mem_of(vec![int_image(&[1, 2]), int_image(&[3])]);
        distinct(&a, &b, "object boundaries");
        // ... and the same objects at different bases.
        b = a.clone();
        b.bases[1] += 1;
        distinct(&a, &b, "bases");
        // Composites travel as arguments and results: a vector and a
        // tensor over the same data; a tensor and its transpose shape;
        // two vectors against their concatenation.
        let empty = mem_of(vec![]);
        let distinct_args = |a: &[Value], b: &[Value], what: &str| {
            assert_ne!(
                job_hash(&cfg, a, &empty),
                job_hash(&cfg, b, &empty),
                "{what}"
            );
            assert_ne!(
                end_state_hash(&result_of(a.to_vec()), &empty),
                end_state_hash(&result_of(b.to_vec()), &empty),
                "{what}"
            );
        };
        let data = ints(&[1, 2, 3, 4, 5, 6]);
        let tensor = |rows, cols| Value::Tensor {
            shape: TensorShape::new(rows, cols),
            data: data.clone(),
        };
        distinct_args(
            &[Value::Vector(data.clone())],
            &[tensor(2, 3)],
            "vector vs tensor",
        );
        distinct_args(&[tensor(3, 2)], &[tensor(2, 3)], "2x3 vs 3x2");
        distinct_args(
            &[Value::Vector(ints(&[1])), Value::Vector(ints(&[2, 3]))],
            &[Value::Vector(ints(&[1, 2])), Value::Vector(ints(&[3]))],
            "vector boundaries",
        );
        // An argument against a memory element.
        assert_ne!(
            job_hash(&cfg, &ints(&[7]), &mem_of(vec![int_image(&[])])),
            job_hash(&cfg, &[], &mem_of(vec![int_image(&[7])])),
            "args vs memory"
        );
        // Scalars of different kinds with the same numeric payload.
        let kinds = [ElemKind::Bool, ElemKind::Int, ElemKind::F32];
        for (i, &x) in kinds.iter().enumerate() {
            for &y in &kinds[i + 1..] {
                let one = |kind| mem_of(vec![ObjectImage::from_words(kind, vec![1]).unwrap()]);
                distinct(&one(x), &one(y), "scalar kinds");
            }
        }
        distinct_args(&[Value::Bool(true)], &[Value::Poison], "bool vs poison");
        distinct_args(&[Value::Int(1)], &[Value::Poison], "int vs poison");
    }

    /// Pinned value: a change to the fold, to `impl Hash for Value` or
    /// `ObjectImage`, or to what the toolchain's `derive(Hash)`/`Vec::hash`
    /// feed the hasher orphans every result in every persistent store.
    /// That should show up here (and come with a tag bump), not as a
    /// silently cold store. The value was computed by the last build whose
    /// images were `Vec<Value>`, over the same elements.
    #[test]
    fn job_hash_of_a_fixed_job_is_pinned() {
        let mem = mem_of(vec![
            f32_image(&[1.5, -0.0]),
            int_image(&[-3, i64::MIN]),
            ObjectImage::from_words(ElemKind::Bool, vec![1, 0]).unwrap(),
        ]);
        let args = [
            Value::Int(42),
            Value::Vector(vec![Value::F32(2.0)]),
            Value::Bool(true),
            Value::Poison,
        ];
        assert_eq!(
            job_hash(&SimConfig::default(), &args, &mem),
            0x101e4b3712aa8edb
        );
    }

    #[test]
    fn result_hash_ignores_sched_visits_and_observability() {
        let mut r = SimResult {
            cycles: 10,
            results: vec![Value::Int(3)],
            stats: crate::SimStats {
                cycles: 10,
                fires: 5,
                sched_visits: 100,
                ..crate::SimStats::default()
            },
            profile: None,
            trace: None,
        };
        let h = result_hash(&r);
        r.stats.sched_visits = 999_999;
        assert_eq!(result_hash(&r), h, "sched_visits is simulator effort");
        r.cycles = 11;
        assert_ne!(result_hash(&r), h, "cycles are observable");
    }
}
