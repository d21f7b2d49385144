//! Program memory: one flat, typed word buffer per memory object.
//!
//! A [`MemObject`](crate::module::MemObject) declares its element type
//! once, so the image does not repeat it per element: an [`ObjectImage`]
//! is a kind tag plus one 64-bit word per element slot — booleans as
//! `0`/`1`, integers sign-extended, floats by bit pattern. Cloning,
//! comparing and dropping an image are `memcpy`/`memcmp`/one `free`;
//! [`Value`] is built only for a caller that holds one: in
//! [`Memory::read`], [`Memory::load`] and their `write`/`store`
//! counterparts. A caller whose values are flat already (the simulator)
//! reads [`Memory::words`] and writes with [`Memory::store_words`].
//!
//! The kind tag is exactly what [`Value`]'s hash tag byte and the store
//! codec's `b`/`i`/`f` tokens distinguish (the integer *width* lives in
//! the module, not in the data), so an image survives the text round
//! trip, and `impl Hash` feeds a hasher byte for byte what the
//! `Vec<Value>` of the same elements would — every job, end-state and
//! result key computed over an image is the one computed before images
//! were flat.

use crate::instr::MemObjId;
use crate::interp::{ierr, InterpError};
use crate::module::Module;
use crate::types::{ScalarType, Type};
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};

/// How the words of one memory object are read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// `i1`: the word is `0` or `1`.
    Bool,
    /// `i8`/`i32`/`i64`: the word is the sign-extended integer.
    Int,
    /// `f32`: the low 32 bits are the float's bit pattern, the rest zero.
    F32,
}

impl ElemKind {
    /// The kind that holds elements of type `elem`.
    pub fn of(elem: ScalarType) -> ElemKind {
        match elem {
            ScalarType::I1 => ElemKind::Bool,
            ScalarType::F32 => ElemKind::F32,
            ScalarType::I8 | ScalarType::I32 | ScalarType::I64 => ElemKind::Int,
        }
    }

    /// The word that stores scalar `v`; `None` if `v` is poison, a
    /// composite, or a scalar of another kind.
    pub fn word(self, v: &Value) -> Option<u64> {
        match (self, v) {
            (ElemKind::Bool, Value::Bool(b)) => Some(u64::from(*b)),
            (ElemKind::Int, Value::Int(i)) => Some(*i as u64),
            (ElemKind::F32, Value::F32(f)) => Some(u64::from(f.to_bits())),
            _ => None,
        }
    }

    /// The scalar stored as word `w`.
    pub fn value(self, w: u64) -> Value {
        match self {
            ElemKind::Bool => Value::Bool(w != 0),
            ElemKind::Int => Value::Int(w as i64),
            ElemKind::F32 => Value::F32(f32::from_bits(w as u32)),
        }
    }
}

impl fmt::Display for ElemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ElemKind::Bool => "bool",
            ElemKind::Int => "int",
            ElemKind::F32 => "f32",
        })
    }
}

/// The contents of one memory object: its kind and one word per element.
#[derive(Clone)]
pub struct ObjectImage {
    kind: ElemKind,
    words: Vec<u64>,
}

impl ObjectImage {
    /// `len` zero elements (`false`, `0` and `0.0` are all the zero word).
    pub fn zeroed(kind: ElemKind, len: usize) -> ObjectImage {
        ObjectImage {
            kind,
            words: vec![0; len],
        }
    }

    /// An object holding `words`, read as `kind`.
    ///
    /// # Errors
    /// A word no scalar of that kind is stored as: a boolean other than
    /// `0`/`1`, a float with bits set above the low 32.
    pub fn from_words(kind: ElemKind, words: Vec<u64>) -> Result<ObjectImage, InterpError> {
        let max = match kind {
            ElemKind::Bool => 1,
            ElemKind::Int => u64::MAX,
            ElemKind::F32 => u64::from(u32::MAX),
        };
        match words.iter().position(|&w| w > max) {
            Some(i) => Err(ierr(format!(
                "word {:#x} at element {i} is not a {kind}",
                words[i]
            ))),
            None => Ok(ObjectImage { kind, words }),
        }
    }

    /// How the words are read.
    pub fn kind(&self) -> ElemKind {
        self.kind
    }

    /// One word per element slot.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The elements as scalars, in order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = Value> + '_ {
        self.words.iter().map(|&w| self.kind.value(w))
    }
}

/// Equality by bits, so `-0.0 != 0.0` and a NaN equals itself — the same
/// distinctions the hash below and the store codec make. The kind of an
/// empty object is not observable (it hashes and encodes as a bare zero
/// length), so it does not take part.
impl PartialEq for ObjectImage {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words && (self.kind == other.kind || self.words.is_empty())
    }
}

/// What `Vec<Value>::hash` emits for the same elements: the length, then
/// per element [`Value`]'s tag byte and exact bits.
impl Hash for ObjectImage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.words.len());
        match self.kind {
            ElemKind::Bool => {
                for &w in &self.words {
                    state.write_u8(0);
                    state.write_u8(w as u8);
                }
            }
            ElemKind::Int => {
                for &w in &self.words {
                    state.write_u8(1);
                    state.write_i64(w as i64);
                }
            }
            ElemKind::F32 => {
                for &w in &self.words {
                    state.write_u8(2);
                    state.write_u32(w as u32);
                }
            }
        }
    }
}

impl fmt::Debug for ObjectImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.kind)?;
        f.debug_list().entries(self.values()).finish()
    }
}

/// Flat program memory: one [`ObjectImage`] per memory object, plus the
/// flat global base address of each object (used for trace addresses).
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct Memory {
    /// Contents per memory object, zero-initialised.
    pub objects: Vec<ObjectImage>,
    /// Flat global base element-address per object.
    pub bases: Vec<u64>,
}

impl Memory {
    /// Allocate zeroed memory for every object in the module.
    pub fn from_module(m: &Module) -> Memory {
        let mut bases = Vec::with_capacity(m.mem_objects.len());
        let mut next = 0u64;
        let mut objects = Vec::with_capacity(m.mem_objects.len());
        for obj in &m.mem_objects {
            bases.push(next);
            next += obj.len;
            objects.push(ObjectImage::zeroed(
                ElemKind::of(obj.elem),
                obj.len as usize,
            ));
        }
        Memory { objects, bases }
    }

    /// The `n` words at `obj[idx..idx + n]` and the kind to read them as:
    /// the one bounds check of a typed access.
    ///
    /// # Errors
    /// Out-of-bounds access.
    pub fn words(
        &self,
        obj: MemObjId,
        idx: u64,
        n: u64,
    ) -> Result<(ElemKind, &[u64]), InterpError> {
        let o = self.objects.get(obj.0 as usize);
        o.and_then(|o| Some((o.kind, o.words.get(span(idx, n)?)?)))
            .ok_or_else(|| out_of_bounds("load", obj, idx, o))
    }

    /// Read one element slot.
    ///
    /// # Errors
    /// Out-of-bounds access.
    pub fn read(&self, obj: MemObjId, idx: u64) -> Result<Value, InterpError> {
        self.words(obj, idx, 1).map(|(kind, w)| kind.value(w[0]))
    }

    /// Load a value of type `ty` from the `ty.elems()` slots at `obj[idx..]`.
    ///
    /// # Errors
    /// Out-of-bounds access.
    pub fn load(&self, obj: MemObjId, idx: u64, ty: Type) -> Result<Value, InterpError> {
        let (kind, words) = self.words(obj, idx, u64::from(ty.elems()))?;
        let mut lanes = words.iter().map(|&w| kind.value(w));
        Ok(match ty {
            Type::Scalar(_) => lanes.next().expect("a scalar is one slot"),
            Type::Vector { .. } => Value::Vector(lanes.collect()),
            Type::Tensor { shape, .. } => Value::Tensor {
                shape,
                data: lanes.collect(),
            },
        })
    }

    /// Write one element slot.
    ///
    /// # Errors
    /// Out-of-bounds access; a value the object cannot hold (poison, a
    /// composite, a scalar of another kind).
    pub fn write(&mut self, obj: MemObjId, idx: u64, v: Value) -> Result<(), InterpError> {
        self.put(obj, idx, std::slice::from_ref(&v))
    }

    /// Store `v` — a scalar, or every lane of a vector or tensor tile —
    /// into the slots at `obj[idx..]`; returns how many it occupies.
    ///
    /// # Errors
    /// Out-of-bounds access (nothing is written); a lane the object
    /// cannot hold (poison, a nested composite, a scalar of another kind).
    pub fn store(&mut self, obj: MemObjId, idx: u64, v: &Value) -> Result<u64, InterpError> {
        let lanes = match v {
            Value::Vector(lanes) | Value::Tensor { data: lanes, .. } => lanes.as_slice(),
            scalar => std::slice::from_ref(scalar),
        };
        self.put(obj, idx, lanes)?;
        Ok(lanes.len() as u64)
    }

    fn put(&mut self, obj: MemObjId, idx: u64, lanes: &[Value]) -> Result<(), InterpError> {
        let (kind, slots) = self.slots_mut(obj, idx, lanes.len() as u64)?;
        for (slot, lane) in slots.iter_mut().zip(lanes) {
            *slot = kind
                .word(lane)
                .ok_or_else(|| ierr(format!("store of {lane} to {obj}, which holds {kind}")))?;
        }
        Ok(())
    }

    /// [`Memory::store`] for a value that is already flat: `words`, each
    /// read as `kind`, go into the slots at `obj[idx..]`.
    ///
    /// # Errors
    /// Out-of-bounds access; an object of another kind. Nothing is written.
    pub fn store_words(
        &mut self,
        obj: MemObjId,
        idx: u64,
        kind: ElemKind,
        words: &[u64],
    ) -> Result<(), InterpError> {
        let (holds, slots) = self.slots_mut(obj, idx, words.len() as u64)?;
        match words.first() {
            Some(&w) if holds != kind => {
                let lane = kind.value(w);
                Err(ierr(format!(
                    "store of {lane} to {obj}, which holds {holds}"
                )))
            }
            _ => {
                slots.copy_from_slice(words);
                Ok(())
            }
        }
    }

    /// The `n` slots at `obj[idx..]` and the kind they hold: the one bounds
    /// check of a typed store.
    fn slots_mut(
        &mut self,
        obj: MemObjId,
        idx: u64,
        n: u64,
    ) -> Result<(ElemKind, &mut [u64]), InterpError> {
        let Some(o) = self.objects.get_mut(obj.0 as usize) else {
            return Err(out_of_bounds("store", obj, idx, None));
        };
        match span(idx, n).filter(|s| s.end <= o.words.len()) {
            Some(s) => Ok((o.kind, &mut o.words[s])),
            None => Err(out_of_bounds("store", obj, idx, Some(o))),
        }
    }

    fn init(
        &mut self,
        obj: MemObjId,
        kind: ElemKind,
        words: impl ExactSizeIterator<Item = u64>,
    ) -> Result<(), InterpError> {
        let o = self
            .objects
            .get_mut(obj.0 as usize)
            .ok_or_else(|| ierr(format!("init of {obj}: no such object")))?;
        if o.kind != kind || words.len() > o.words.len() {
            return Err(ierr(format!(
                "init of {obj} ({} x {}) from {} x {kind}",
                o.words.len(),
                o.kind,
                words.len()
            )));
        }
        for (slot, w) in o.words.iter_mut().zip(words) {
            *slot = w;
        }
        Ok(())
    }

    /// Bulk-initialise the head of an `f32` object.
    ///
    /// # Panics
    /// If `obj` is not an `f32` object of at least `data.len()` elements;
    /// the message names the object, both kinds and both lengths.
    pub fn init_f32(&mut self, obj: MemObjId, data: &[f32]) {
        let words = data.iter().map(|v| u64::from(v.to_bits()));
        self.init(obj, ElemKind::F32, words)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Bulk-initialise the head of an integer object.
    ///
    /// # Panics
    /// If `obj` is not an integer object of at least `data.len()`
    /// elements; the message names the object, both kinds and both lengths.
    pub fn init_i64(&mut self, obj: MemObjId, data: &[i64]) {
        let words = data.iter().map(|&v| v as u64);
        self.init(obj, ElemKind::Int, words)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Snapshot an object as f32s (integers and booleans converted).
    pub fn read_f32(&self, obj: MemObjId) -> Vec<f32> {
        let o = &self.objects[obj.0 as usize];
        let words = o.words.iter();
        match o.kind {
            ElemKind::F32 => words.map(|&w| f32::from_bits(w as u32)).collect(),
            ElemKind::Int | ElemKind::Bool => words.map(|&w| w as i64 as f32).collect(),
        }
    }

    /// Snapshot an object as i64s (floats truncated).
    pub fn read_i64(&self, obj: MemObjId) -> Vec<i64> {
        let o = &self.objects[obj.0 as usize];
        let words = o.words.iter();
        match o.kind {
            ElemKind::F32 => words.map(|&w| f32::from_bits(w as u32) as i64).collect(),
            ElemKind::Int | ElemKind::Bool => words.map(|&w| w as i64).collect(),
        }
    }

    /// Flat global element address of `obj[idx]`.
    pub fn flat_addr(&self, obj: MemObjId, idx: u64) -> u64 {
        self.bases[obj.0 as usize] + idx
    }
}

/// `idx..idx + n` as a slice range; `None` if it cannot be indexed.
fn span(idx: u64, n: u64) -> Option<std::ops::Range<usize>> {
    let start = usize::try_from(idx).ok()?;
    Some(start..start.checked_add(usize::try_from(n).ok()?)?)
}

/// The error for an access that leaves `o` (or names no object): it names
/// the first slot that does not exist.
fn out_of_bounds(what: &str, obj: MemObjId, idx: u64, o: Option<&ObjectImage>) -> InterpError {
    let first_bad = o.map_or(idx, |o| idx.max(o.words.len() as u64));
    ierr(format!("{what} out of bounds: {obj}[{first_bad}]"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TensorShape;

    /// splitmix64: seeded words for the images below.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded image of `elem`'s kind with the awkward values up front:
    /// NaN payloads, `-0.0`, infinities, `i64::MIN`, `-1`, both booleans.
    fn seeded(elem: ScalarType, seed: u64, len: usize) -> ObjectImage {
        let kind = ElemKind::of(elem);
        let edge: &[u64] = match kind {
            ElemKind::Bool => &[0, 1],
            ElemKind::Int => &[i64::MIN as u64, u64::MAX, 0, i64::MAX as u64],
            ElemKind::F32 => &[0x7fc0_0001, 0xffc1_2345, 0x8000_0000, 0x7f80_0000, 0],
        };
        let words = (0..len).map(|i| match (edge.get(i), kind) {
            (Some(&w), _) => w,
            (None, ElemKind::Bool) => mix(seed + i as u64) & 1,
            (None, ElemKind::Int) => mix(seed + i as u64),
            (None, ElemKind::F32) => mix(seed + i as u64) >> 32,
        });
        ObjectImage::from_words(kind, words.collect()).unwrap()
    }

    const ALL: [ScalarType; 5] = [
        ScalarType::I1,
        ScalarType::I8,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::F32,
    ];

    /// Records every `Hasher` call, so "byte for byte" below also means
    /// "call for call" — a hasher that frames its writes sees no change.
    #[derive(Default, PartialEq, Debug)]
    struct Tape(Vec<Vec<u8>>);

    impl Hasher for Tape {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(bytes.to_vec());
        }
    }

    #[test]
    fn an_image_hashes_as_the_vec_of_values_it_stands_for() {
        for (i, elem) in ALL.into_iter().enumerate() {
            for len in [0, 1, 7, 64] {
                let image = seeded(elem, 0x5eed + i as u64, len);
                let values: Vec<Value> = image.values().collect();
                let (mut a, mut b) = (Tape::default(), Tape::default());
                image.hash(&mut a);
                values.hash(&mut b);
                assert_eq!(a, b, "{elem} x {len}");
                // ... and so does a whole memory, bases included.
                let mem = Memory {
                    objects: vec![image.clone(), seeded(elem, 9, 3)],
                    bases: vec![0, len as u64],
                };
                let old_shape = (
                    vec![values, seeded(elem, 9, 3).values().collect()],
                    mem.bases.clone(),
                );
                let (mut a, mut b) = (Tape::default(), Tape::default());
                mem.hash(&mut a);
                old_shape.hash(&mut b);
                assert_eq!(a, b, "memory of {elem} x {len}");
            }
        }
    }

    #[test]
    fn words_and_values_round_trip() {
        for (i, elem) in ALL.into_iter().enumerate() {
            let image = seeded(elem, 0xabc + i as u64, 40);
            let kind = image.kind();
            for (&w, v) in image.words().iter().zip(image.values()) {
                assert_eq!(kind.word(&v), Some(w), "{kind} {v}");
                // No other kind accepts the scalar.
                for other in [ElemKind::Bool, ElemKind::Int, ElemKind::F32] {
                    assert_eq!(other.word(&v).is_some(), other == kind, "{other} {v}");
                }
            }
            // Through a memory: store each value, read it back.
            let mut m = Module::new("t");
            let obj = m.add_mem_object("o", elem, 40);
            let mut mem = Memory::from_module(&m);
            for (k, v) in image.values().enumerate() {
                mem.write(obj, k as u64, v).unwrap();
            }
            assert_eq!(mem.objects[0], image);
            assert_eq!(mem.objects[0].words(), image.words());
        }
    }

    #[test]
    fn from_words_rejects_words_the_kind_cannot_hold() {
        assert!(ObjectImage::from_words(ElemKind::Bool, vec![0, 1, 2]).is_err());
        assert!(ObjectImage::from_words(ElemKind::F32, vec![1 << 32]).is_err());
        assert!(ObjectImage::from_words(ElemKind::Int, vec![u64::MAX]).is_ok());
    }

    #[test]
    fn equality_is_by_bits() {
        let f = |w| ObjectImage::from_words(ElemKind::F32, vec![w]).unwrap();
        assert_eq!(f(0x7fc0_0001), f(0x7fc0_0001), "a NaN equals itself");
        assert_ne!(f(0x7fc0_0001), f(0x7fc0_0002));
        assert_ne!(f(0), f(0x8000_0000), "0.0 vs -0.0");
        // Same word, different kind.
        let one = |kind| ObjectImage::from_words(kind, vec![1]).unwrap();
        assert_ne!(one(ElemKind::Bool), one(ElemKind::Int));
        // An empty object has no observable kind.
        assert_eq!(
            ObjectImage::zeroed(ElemKind::F32, 0),
            ObjectImage::zeroed(ElemKind::Int, 0)
        );
    }

    fn mem_with(elem: ScalarType, len: u64) -> (Memory, MemObjId) {
        let mut m = Module::new("t");
        let obj = m.add_mem_object("o", elem, len);
        (Memory::from_module(&m), obj)
    }

    #[test]
    fn a_value_that_does_not_fit_is_a_typed_error() {
        let (mut mem, obj) = mem_with(ScalarType::I32, 4);
        let before = mem.clone();
        let lanes = vec![Value::Int(1), Value::Int(2)];
        for bad in [
            Value::Poison,
            Value::F32(1.0),
            Value::Bool(true),
            Value::Vector(lanes.clone()),
        ] {
            let e = mem.write(obj, 0, bad.clone()).unwrap_err();
            assert!(e.message.contains("which holds int"), "{bad}: {e}");
        }
        // A composite's lanes are checked the same way.
        let nested = Value::Vector(vec![Value::Vector(lanes.clone())]);
        assert!(mem.store(obj, 0, &nested).is_err());
        assert!(mem
            .store(obj, 0, &Value::Vector(vec![Value::Poison]))
            .is_err());
        assert_eq!(mem, before, "a rejected value stores nothing");
        // An access that leaves the object writes none of its lanes.
        let e = mem
            .store(obj, 3, &Value::Vector(lanes.clone()))
            .unwrap_err();
        assert_eq!(e.message, "store out of bounds: @mem0[4]");
        assert_eq!(mem, before);
        assert_eq!(mem.store(obj, 2, &Value::Vector(lanes)).unwrap(), 2);
        assert_eq!(mem.read_i64(obj), vec![0, 0, 1, 2]);
    }

    #[test]
    fn typed_loads_take_one_slice() {
        let (mut mem, obj) = mem_with(ScalarType::F32, 6);
        mem.init_f32(obj, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let shape = TensorShape::new(2, 2);
        let ty = Type::Tensor {
            elem: ScalarType::F32,
            shape,
        };
        let data = [3.0, 4.0, 5.0, 6.0].map(Value::F32).to_vec();
        assert_eq!(mem.load(obj, 2, ty).unwrap(), Value::Tensor { shape, data });
        assert_eq!(mem.load(obj, 5, Type::F32).unwrap(), Value::F32(6.0));
        let e = mem.load(obj, 3, ty).unwrap_err();
        assert_eq!(e.message, "load out of bounds: @mem0[6]");
        assert!(mem.load(obj, u64::MAX, ty).is_err(), "no overflow");
        assert!(mem.read(MemObjId(7), 0).is_err(), "unknown object");
    }

    #[test]
    fn init_names_object_kinds_and_lengths() {
        let msg = |f: fn(&mut Memory, MemObjId)| {
            let (mut mem, obj) = mem_with(ScalarType::I32, 4);
            let e = std::panic::catch_unwind(move || f(&mut mem, obj)).unwrap_err();
            *e.downcast::<String>().unwrap()
        };
        assert_eq!(
            msg(|mem, obj| mem.init_f32(obj, &[1.0])),
            "interpreter error: init of @mem0 (4 x int) from 1 x f32"
        );
        assert_eq!(
            msg(|mem, obj| mem.init_i64(obj, &[0; 5])),
            "interpreter error: init of @mem0 (4 x int) from 5 x int"
        );
    }

    #[test]
    fn snapshots_convert_across_kinds() {
        let (mut mem, obj) = mem_with(ScalarType::I64, 2);
        mem.init_i64(obj, &[-3, 7]);
        assert_eq!(mem.read_f32(obj), vec![-3.0, 7.0]);
        let (mut mem, obj) = mem_with(ScalarType::F32, 2);
        mem.init_f32(obj, &[-2.5, 9.75]);
        assert_eq!(mem.read_i64(obj), vec![-2, 9]);
        let (mut mem, obj) = mem_with(ScalarType::I1, 2);
        mem.write(obj, 1, Value::Bool(true)).unwrap();
        assert_eq!(mem.read_i64(obj), vec![0, 1]);
        assert_eq!(mem.read_f32(obj), vec![0.0, 1.0]);
    }
}
