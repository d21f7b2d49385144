//! Flat values: a [`Value`] without the tree.
//!
//! A [`Word`] is a one-byte *dynamic* kind and 64 bits. A scalar's bits are
//! the word a memory image holds for it (booleans `0`/`1`, integers
//! sign-extended, floats by bit pattern); a vector's or tensor tile's bits
//! are a packed [`Lanes`] descriptor — where its lanes start in a word
//! buffer that lives beside the value, how many there are and how each is
//! read — so copying a composite is a `memcpy` and dropping one is nothing.
//! The simulator's tokens are `Word`s; [`Value`] is what a caller hands in
//! and gets back.
//!
//! The kind is dynamic because behaviour depends on it: `and` of two
//! booleans is an *integer*, a comparison is a *boolean*, an integer resize
//! passes its operand's kind through, and a memory object refuses a scalar
//! of another kind. The scalar semantics live here once — [`bin`], [`un`],
//! [`cmp`] — and [`tensor`] applies them lane by lane; the interpreter's
//! `eval_*` functions are wrappers that convert at the edge.

use crate::instr::{BinOp, CmpPred, ConstVal, TensorOp, UnOp};
use crate::interp::{ierr, InterpError};
use crate::memory::ElemKind;
use crate::types::TensorShape;
use crate::value::Value;
use std::fmt;

/// What the bits of a [`Word`] are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// The poison value of predicated-off dataflow; the bits are zero.
    Poison,
    /// `0` or `1`.
    Bool,
    /// A sign-extended integer.
    Int,
    /// The low 32 bits are the float's bit pattern.
    F32,
    /// A packed [`Lanes`] descriptor of a vector or tensor tile.
    Lanes,
}

impl From<ElemKind> for Kind {
    #[inline]
    fn from(elem: ElemKind) -> Kind {
        match elem {
            ElemKind::Bool => Kind::Bool,
            ElemKind::Int => Kind::Int,
            ElemKind::F32 => Kind::F32,
        }
    }
}

/// One flat value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Word {
    /// How `bits` is read.
    pub kind: Kind,
    /// The scalar's word, or the packed lane descriptor.
    pub bits: u64,
}

impl From<ConstVal> for Word {
    fn from(c: ConstVal) -> Word {
        match c {
            ConstVal::Bool(b) => Word::bool(b),
            ConstVal::Int(i) => Word::int(i),
            ConstVal::F32(f) => Word::f32(f),
        }
    }
}

/// Whether a composite is a vector or a tile. Only a tile has a shape, and
/// only a tile is an operand of a tensor op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// A short vector of this many lanes.
    Vector(u16),
    /// A row-major tile of `shape.elems()` lanes.
    Tile(TensorShape),
}

/// What a [`Kind::Lanes`] word says: the lanes are `len()` consecutive
/// words from `off` in the buffer the value lives beside, each read as
/// `elem`. Every lane of a composite has the same kind and none is poison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes {
    /// Index of the first lane.
    pub off: u32,
    /// How each lane word is read.
    pub elem: ElemKind,
    /// Vector or tile, with its extent.
    pub form: Form,
}

const TILE_BIT: u64 = 1 << 50;

impl Lanes {
    /// Number of lanes.
    #[inline]
    pub fn len(self) -> usize {
        match self.form {
            Form::Vector(n) => usize::from(n),
            Form::Tile(shape) => shape.elems() as usize,
        }
    }

    /// Whether there are no lanes.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The lanes' index range in their buffer.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        let off = self.off as usize;
        off..off + self.len()
    }

    /// The composite of this kind and extent whose first lane is word `off`
    /// of its buffer.
    ///
    /// # Panics
    /// If `off` passes 2^32: no lane buffer grows that far.
    #[inline]
    pub fn at(self, off: usize) -> Word {
        let off = u32::try_from(off).expect("a lane buffer stays under 2^32 words");
        Word {
            kind: Kind::Lanes,
            bits: Lanes { off, ..self }.pack(),
        }
    }

    /// Offset in bits 0–31, extent in 32–47 (a vector's lane count, or a
    /// tile's rows then columns), element kind in 48–49, tile flag in 50.
    #[inline]
    fn pack(self) -> u64 {
        let (tile, extent) = match self.form {
            Form::Vector(n) => (0, u64::from(n)),
            Form::Tile(s) => (TILE_BIT, u64::from(s.rows) | u64::from(s.cols) << 8),
        };
        u64::from(self.off) | extent << 32 | (self.elem as u64) << 48 | tile
    }

    #[inline]
    fn unpack(bits: u64) -> Lanes {
        let extent = (bits >> 32) as u16;
        Lanes {
            off: bits as u32,
            elem: match (bits >> 48) & 3 {
                0 => ElemKind::Bool,
                1 => ElemKind::Int,
                _ => ElemKind::F32,
            },
            form: if bits & TILE_BIT != 0 {
                Form::Tile(TensorShape {
                    rows: extent as u8,
                    cols: (extent >> 8) as u8,
                })
            } else {
                Form::Vector(extent)
            },
        }
    }
}

impl Word {
    /// The poison value.
    pub const POISON: Word = Word {
        kind: Kind::Poison,
        bits: 0,
    };

    /// A boolean.
    #[inline]
    pub fn bool(b: bool) -> Word {
        Word {
            kind: Kind::Bool,
            bits: u64::from(b),
        }
    }

    /// An integer.
    #[inline]
    pub fn int(i: i64) -> Word {
        Word {
            kind: Kind::Int,
            bits: i as u64,
        }
    }

    /// A float.
    #[inline]
    pub fn f32(f: f32) -> Word {
        Word {
            kind: Kind::F32,
            bits: u64::from(f.to_bits()),
        }
    }

    /// The scalar a memory image of kind `elem` stores as `bits`.
    #[inline]
    pub fn scalar(elem: ElemKind, bits: u64) -> Word {
        Word {
            kind: elem.into(),
            bits,
        }
    }

    /// Whether this is the poison value.
    #[inline]
    pub fn is_poison(self) -> bool {
        self.kind == Kind::Poison
    }

    /// The descriptor of a composite; `None` for a scalar or poison.
    #[inline]
    pub fn as_lanes(self) -> Option<Lanes> {
        (self.kind == Kind::Lanes).then(|| Lanes::unpack(self.bits))
    }

    /// The element kind a memory object needs to hold this scalar; `None`
    /// for poison and composites.
    #[inline]
    pub fn as_elem(self) -> Option<ElemKind> {
        match self.kind {
            Kind::Bool => Some(ElemKind::Bool),
            Kind::Int => Some(ElemKind::Int),
            Kind::F32 => Some(ElemKind::F32),
            Kind::Poison | Kind::Lanes => None,
        }
    }

    /// An integer or boolean read as an integer; `None` for anything else.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        matches!(self.kind, Kind::Int | Kind::Bool).then_some(self.bits as i64)
    }

    /// [`Word::as_int`], or the evaluators' type error. Booleans and
    /// integers read as each other everywhere, so a truth test
    /// (`want_int()? != 0`) reports a misfit in the same words.
    ///
    /// # Errors
    /// The value is poison, a float or a composite.
    #[inline]
    pub(crate) fn want_int(self) -> Result<i64, InterpError> {
        self.as_int().ok_or_else(|| mistyped("integer", self))
    }

    /// A float; `None` for anything else.
    #[inline]
    pub fn as_f32(self) -> Option<f32> {
        (self.kind == Kind::F32).then(|| f32::from_bits(self.bits as u32))
    }

    /// [`Word::as_f32`], or the evaluators' type error.
    ///
    /// # Errors
    /// The value is anything but a float.
    #[inline]
    pub(crate) fn want_f32(self) -> Result<f32, InterpError> {
        self.as_f32().ok_or_else(|| mistyped("f32", self))
    }

    /// `v` as a flat value, its lanes (if any) appended to `buf`. `None`
    /// if `v` has no flat form: a lane that is poison or itself a
    /// composite, lanes of more than one kind, or more lanes than a
    /// descriptor counts.
    pub fn from_value(v: &Value, buf: &mut Vec<u64>) -> Option<Word> {
        let (lanes, form) = match v {
            Value::Poison => return Some(Word::POISON),
            Value::Bool(b) => return Some(Word::bool(*b)),
            Value::Int(i) => return Some(Word::int(*i)),
            Value::F32(f) => return Some(Word::f32(*f)),
            Value::Vector(l) => (l, Form::Vector(u16::try_from(l.len()).ok()?)),
            Value::Tensor { shape, data } => (data, Form::Tile(*shape)),
        };
        let elem = match lanes.first() {
            // An empty composite's kind is unobservable.
            None | Some(Value::Int(_)) => ElemKind::Int,
            Some(Value::Bool(_)) => ElemKind::Bool,
            Some(Value::F32(_)) => ElemKind::F32,
            Some(_) => return None,
        };
        let desc = Lanes { off: 0, elem, form };
        if desc.len() != lanes.len() {
            return None;
        }
        let off = buf.len();
        for lane in lanes {
            match elem.word(lane) {
                Some(w) => buf.push(w),
                None => {
                    buf.truncate(off);
                    return None;
                }
            }
        }
        Some(desc.at(off))
    }

    /// The [`Value`] this stands for, lanes read from `buf`.
    pub fn to_value(self, buf: &[u64]) -> Value {
        match (self.as_elem(), self.as_lanes()) {
            (Some(elem), _) => elem.value(self.bits),
            (None, Some(l)) => {
                let data = buf[l.range()].iter().map(|&w| l.elem.value(w)).collect();
                match l.form {
                    Form::Vector(_) => Value::Vector(data),
                    Form::Tile(shape) => Value::Tensor { shape, data },
                }
            }
            (None, None) => Value::Poison,
        }
    }

    /// A copy of this value beside `to`: a composite's lanes are read from
    /// `from` and appended to `to`, a scalar is itself.
    ///
    #[inline]
    pub fn copy_into(self, from: &[u64], to: &mut Vec<u64>) -> Word {
        let Some(l) = self.as_lanes() else {
            return self;
        };
        let off = to.len();
        to.extend_from_slice(&from[l.range()]);
        l.at(off)
    }
}

#[cold]
fn mistyped(want: &str, found: Word) -> InterpError {
    ierr(format!("expected {want} value, found {found}"))
}

/// Scalars print as the [`Value`] they stand for; a composite prints its
/// type, since its lanes live elsewhere.
impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_lanes() {
            None => write!(f, "{}", self.to_value(&[])),
            Some(l) => match l.form {
                Form::Vector(n) => write!(f, "<{n} x {}>", l.elem),
                Form::Tile(shape) => write!(f, "tensor<{shape} x {}>", l.elem),
            },
        }
    }
}

/// Evaluate a binary op on scalars. Integer ops read booleans as `0`/`1`
/// and always yield an integer.
///
/// # Errors
/// Division or remainder by zero; an operand of the wrong kind.
#[inline]
pub fn bin(op: BinOp, a: Word, b: Word) -> Result<Word, InterpError> {
    if a.is_poison() || b.is_poison() {
        return Ok(Word::POISON);
    }
    let int = |f: fn(i64, i64) -> i64| Ok(Word::int(f(a.want_int()?, b.want_int()?)));
    let float = |f: fn(f32, f32) -> f32| Ok(Word::f32(f(a.want_f32()?, b.want_f32()?)));
    match op {
        BinOp::Add => int(i64::wrapping_add),
        BinOp::Sub => int(i64::wrapping_sub),
        BinOp::Mul => int(i64::wrapping_mul),
        BinOp::Div | BinOp::Rem => {
            let d = b.want_int()?;
            if d == 0 {
                return Err(ierr(if op == BinOp::Div {
                    "integer division by zero"
                } else {
                    "integer remainder by zero"
                }));
            }
            let n = a.want_int()?;
            Ok(Word::int(if op == BinOp::Div {
                n.wrapping_div(d)
            } else {
                n.wrapping_rem(d)
            }))
        }
        BinOp::And => int(|x, y| x & y),
        BinOp::Or => int(|x, y| x | y),
        BinOp::Xor => int(|x, y| x ^ y),
        BinOp::Shl => int(|x, y| x.wrapping_shl(y as u32 & 63)),
        BinOp::LShr => int(|x, y| ((x as u64) >> (y as u32 & 63)) as i64),
        BinOp::AShr => int(|x, y| x >> (y as u32 & 63)),
        BinOp::FAdd => float(|x, y| x + y),
        BinOp::FSub => float(|x, y| x - y),
        BinOp::FMul => float(|x, y| x * y),
        BinOp::FDiv => float(|x, y| x / y),
    }
}

/// Evaluate a unary op on a scalar.
///
/// # Errors
/// An operand of the wrong kind.
#[inline]
pub fn un(op: UnOp, a: Word) -> Result<Word, InterpError> {
    if a.is_poison() {
        return Ok(Word::POISON);
    }
    Ok(match op {
        UnOp::FNeg => Word::f32(-a.want_f32()?),
        UnOp::Exp => Word::f32(a.want_f32()?.exp()),
        UnOp::Sqrt => Word::f32(a.want_f32()?.sqrt()),
        UnOp::Relu => match a.kind {
            Kind::F32 => Word::f32(a.want_f32()?.max(0.0)),
            Kind::Int => Word::int((a.bits as i64).max(0)),
            _ => return Err(ierr(format!("relu on {a}"))),
        },
    })
}

/// Evaluate a comparison on scalars: two floats compare as floats,
/// anything else as integers. Yields a boolean.
///
/// # Errors
/// An operand of the wrong kind.
#[inline]
pub fn cmp(pred: CmpPred, a: Word, b: Word) -> Result<Word, InterpError> {
    fn holds<T: PartialOrd>(pred: CmpPred, x: T, y: T) -> bool {
        match pred {
            CmpPred::Eq => x == y,
            CmpPred::Ne => x != y,
            CmpPred::Lt => x < y,
            CmpPred::Le => x <= y,
            CmpPred::Gt => x > y,
            CmpPred::Ge => x >= y,
        }
    }
    if a.is_poison() || b.is_poison() {
        return Ok(Word::POISON);
    }
    Ok(Word::bool(if a.kind == Kind::F32 && b.kind == Kind::F32 {
        holds(pred, a.want_f32()?, b.want_f32()?)
    } else {
        holds(pred, a.want_int()?, b.want_int()?)
    }))
}

/// Evaluate a tensor op on flat operands whose lanes live in `buf`; a tile
/// result's lanes are appended to `out`. `Conv` and `Reduce` reduce to a
/// scalar; `Softmax` keeps the shape but always yields `f32` lanes (it
/// routes through the `exp` unit); others keep shape and element type.
/// Every lane goes through [`bin`]/[`un`], so operands of the wrong kind
/// fail as they do there.
///
/// # Errors
/// A non-tile operand, shape mismatches, lanes of the wrong kind.
pub fn tensor(
    op: TensorOp,
    a: Word,
    b: Option<Word>,
    buf: &[u64],
    out: &mut Vec<u64>,
) -> Result<Word, InterpError> {
    let tile = |w: Word, what: &str| match w.as_lanes() {
        Some(
            l @ Lanes {
                form: Form::Tile(shape),
                ..
            },
        ) => Ok((shape, l)),
        _ => Err(ierr(format!(
            "tensor op on non-tensor {what}{:?}",
            w.to_value(buf)
        ))),
    };
    let (shape, la) = tile(a, "")?;
    let lb = match b {
        Some(b) => {
            let (sb, lb) = tile(b, "rhs ")?;
            if sb != shape {
                return Err(ierr(format!("tensor shape mismatch {sb} vs {shape}")));
            }
            Some(lb)
        }
        None => None,
    };
    let lane = |l: Lanes, i: usize| Word::scalar(l.elem, buf[l.off as usize + i]);
    let n = la.len();
    let is_float = la.elem == ElemKind::F32 && n > 0;
    let (mul, add, zero) = if is_float {
        (BinOp::FMul, BinOp::FAdd, Word::f32(0.0))
    } else {
        (BinOp::Mul, BinOp::Add, Word::int(0))
    };
    // A tile result: lanes computed in order, one kind throughout (the
    // operands' lanes are, and the scalar tables are functions of kind).
    let off = out.len();
    let mut elem = la.elem;
    let mut push = |out: &mut Vec<u64>, w: Word| {
        elem = w.as_elem().expect("a lane op on scalars yields a scalar");
        out.push(w.bits);
    };
    let missing = |what: &str| ierr(format!("{what} missing rhs"));
    match op {
        TensorOp::Add | TensorOp::Mul => {
            let lb = lb.ok_or_else(|| missing("binary tensor op"))?;
            let lane_op = if op == TensorOp::Add { add } else { mul };
            for i in 0..n {
                push(out, bin(lane_op, lane(la, i), lane(lb, i))?);
            }
        }
        TensorOp::Relu => {
            for i in 0..n {
                push(out, un(UnOp::Relu, lane(la, i))?);
            }
        }
        TensorOp::MatMul => {
            let lb = lb.ok_or_else(|| missing("matmul"))?;
            let (r, c) = (shape.rows as usize, shape.cols as usize);
            if r != c {
                return Err(ierr("matmul tiles must be square"));
            }
            for i in 0..r {
                for j in 0..c {
                    let mut acc = zero;
                    for k in 0..r {
                        let p = bin(mul, lane(la, i * c + k), lane(lb, k * c + j))?;
                        acc = bin(add, acc, p)?;
                    }
                    push(out, acc);
                }
            }
        }
        TensorOp::Conv | TensorOp::Reduce => {
            let lb = match op {
                TensorOp::Conv => Some(lb.ok_or_else(|| missing("conv"))?),
                _ => None,
            };
            let mut acc = zero;
            for i in 0..n {
                let x = match lb {
                    Some(lb) => bin(mul, lane(la, i), lane(lb, i))?,
                    None => lane(la, i),
                };
                acc = bin(add, acc, x)?;
            }
            return Ok(acc);
        }
        TensorOp::Softmax => {
            let mut sum = Word::f32(0.0);
            for i in 0..n {
                let e = un(UnOp::Exp, lane(la, i))?;
                sum = bin(BinOp::FAdd, sum, e)?;
                push(out, e);
            }
            for e in &mut out[off..] {
                *e = bin(BinOp::FDiv, Word::scalar(ElemKind::F32, *e), sum)?.bits;
            }
        }
    }
    let form = Form::Tile(shape);
    Ok(Lanes { off: 0, elem, form }.at(off))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(rows: u8, cols: u8, data: Vec<Value>) -> Value {
        Value::Tensor {
            shape: TensorShape::new(rows, cols),
            data,
        }
    }

    #[test]
    fn values_round_trip_through_words() {
        let nan = f32::from_bits(0x7fc0_0001);
        let values = [
            Value::Poison,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::F32(-0.0),
            Value::Vector(vec![]),
            Value::Vector(vec![Value::Bool(false), Value::Bool(true)]),
            tile(
                1,
                3,
                vec![Value::F32(nan), Value::F32(-0.0), Value::F32(1.5)],
            ),
            tile(2, 2, (0..4).map(Value::Int).collect()),
        ];
        // All in one buffer, so every composite has its own offset.
        let mut buf = Vec::new();
        let words: Vec<Word> = values
            .iter()
            .map(|v| Word::from_value(v, &mut buf).unwrap())
            .collect();
        assert_eq!(buf.len(), 2 + 3 + 4);
        for (v, w) in values.iter().zip(&words) {
            let back = w.to_value(&buf);
            // Bit for bit: `Value`'s `==` would call the NaN unequal to itself.
            assert_eq!(format!("{back:?}"), format!("{v:?}"));
            assert_eq!(w.as_lanes().is_some(), matches!(w.kind, Kind::Lanes));
        }
        assert_eq!(buf[2], 0x7fc0_0001, "the NaN payload is the lane word");
        // A copy lands behind what the target already holds.
        let mut to = vec![9, 9];
        let copy = words[6].copy_into(&buf, &mut to);
        assert_eq!(copy.as_lanes().unwrap().off, 2);
        assert_eq!(
            format!("{:?}", copy.to_value(&to)),
            format!("{:?}", values[6])
        );
        assert_eq!(words[2].copy_into(&buf, &mut to), words[2]);
    }

    #[test]
    fn a_composite_without_one_lane_kind_has_no_flat_form() {
        let mut buf = vec![7];
        for bad in [
            Value::Vector(vec![Value::Int(1), Value::Bool(true)]),
            Value::Vector(vec![Value::Int(1), Value::Poison]),
            Value::Vector(vec![Value::Vector(vec![])]),
            tile(1, 2, vec![Value::F32(1.0), Value::Int(1)]),
            tile(2, 2, vec![Value::Int(1)]),
            Value::Vector(vec![Value::Int(0); 1 << 16]),
        ] {
            assert_eq!(Word::from_value(&bad, &mut buf), None);
            assert_eq!(buf, [7], "nothing left behind");
        }
    }

    #[test]
    fn the_kind_of_a_result_follows_the_operands() {
        let (t, f) = (Word::bool(true), Word::bool(false));
        // Integer ops read booleans as 0/1 and yield an integer ...
        for (op, want) in [(BinOp::And, 0), (BinOp::Or, 1), (BinOp::Xor, 1)] {
            assert_eq!(bin(op, t, f), Ok(Word::int(want)), "{op:?}");
        }
        // ... a comparison yields a boolean, floats compare as floats ...
        assert_eq!(
            cmp(CmpPred::Lt, Word::int(1), Word::int(2)),
            Ok(Word::bool(true))
        );
        assert_eq!(cmp(CmpPred::Eq, t, Word::int(1)), Ok(Word::bool(true)));
        let nan = Word::f32(f32::NAN);
        assert_eq!(cmp(CmpPred::Eq, nan, nan), Ok(Word::bool(false)));
        // ... and relu keeps the kind it is given.
        assert_eq!(un(UnOp::Relu, Word::int(-3)), Ok(Word::int(0)));
        assert_eq!(un(UnOp::Relu, Word::f32(-3.0)), Ok(Word::f32(0.0)));
    }

    #[test]
    fn a_mistyped_operand_is_an_error_and_poison_comes_first() {
        let lanes = Lanes {
            off: 0,
            elem: ElemKind::F32,
            form: Form::Tile(TensorShape::new(2, 2)),
        }
        .at(0);
        let msg = |r: Result<Word, InterpError>| r.unwrap_err().message;
        assert_eq!(
            msg(bin(BinOp::Xor, Word::f32(1.5), Word::bool(true))),
            "expected integer value, found 1.5"
        );
        assert_eq!(
            msg(bin(BinOp::FAdd, Word::f32(1.5), Word::int(2))),
            "expected f32 value, found 2"
        );
        assert_eq!(
            msg(bin(BinOp::Add, lanes, Word::int(2))),
            "expected integer value, found tensor<2x2 x f32>"
        );
        assert_eq!(
            msg(cmp(CmpPred::Lt, Word::f32(1.0), Word::int(2))),
            "expected integer value, found 1"
        );
        assert_eq!(msg(un(UnOp::Relu, Word::bool(true))), "relu on true");
        assert_eq!(
            msg(un(UnOp::Exp, Word::int(1))),
            "expected f32 value, found 1"
        );
        // The divisor is read first, so a zero one wins over a bad dividend.
        assert_eq!(
            msg(bin(BinOp::Div, Word::f32(1.0), Word::int(0))),
            "integer division by zero"
        );
        // Poison propagates before any operand is read.
        assert_eq!(bin(BinOp::Add, Word::POISON, lanes), Ok(Word::POISON));
        assert_eq!(
            cmp(CmpPred::Eq, Word::f32(1.0), Word::POISON),
            Ok(Word::POISON)
        );
        assert_eq!(un(UnOp::Sqrt, Word::POISON), Ok(Word::POISON));
    }

    #[test]
    fn tile_ops_read_and_write_lanes_in_place() {
        let mut buf = vec![0xdead];
        let ints = tile(2, 2, (1..=4).map(Value::Int).collect());
        let a = Word::from_value(&ints, &mut buf).unwrap();
        let bools = tile(2, 2, vec![Value::Bool(true); 4]);
        let b = Word::from_value(&bools, &mut buf).unwrap();
        let mut out = vec![0xbeef];
        // int x bool lanes multiply as integers; the result is an int tile
        // behind what `out` already held.
        let r = tensor(TensorOp::Mul, a, Some(b), &buf, &mut out).unwrap();
        assert_eq!(r.as_lanes().unwrap().off, 1);
        assert_eq!(r.to_value(&out), ints);
        assert_eq!(
            tensor(TensorOp::Reduce, a, None, &buf, &mut out),
            Ok(Word::int(10))
        );
        assert_eq!(out.len(), 5, "a scalar result appends nothing");
        // A boolean tile has no relu; a float op refuses integer lanes.
        let msg = |r: Result<Word, InterpError>| r.unwrap_err().message;
        assert_eq!(
            msg(tensor(TensorOp::Relu, b, None, &buf, &mut out)),
            "relu on true"
        );
        assert_eq!(
            msg(tensor(TensorOp::Softmax, a, None, &buf, &mut out)),
            "expected f32 value, found 1"
        );
        assert_eq!(
            msg(tensor(TensorOp::Add, Word::int(3), None, &buf, &mut out)),
            "tensor op on non-tensor Int(3)"
        );
    }
}
