//! Runtime values used by the interpreter and the cycle-level simulator.

use crate::types::{ScalarType, TensorShape, Type};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamic runtime value: scalar, vector, or tensor tile.
///
/// Integers are stored sign-extended in `i64`; floats in `f32`. Composite
/// values store their elements row-major.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean predicate.
    Bool(bool),
    /// Any integer kind (width tracked by the producing instruction's type).
    Int(i64),
    /// A 32-bit float.
    F32(f32),
    /// A short vector, row of scalars.
    Vector(Vec<Value>),
    /// A 2-D tensor tile, row-major.
    Tensor {
        /// Tile shape.
        shape: TensorShape,
        /// Row-major elements (`shape.elems()` of them).
        data: Vec<Value>,
    },
    /// The poison value produced by predicated-off dataflow (§3.5: "bypass
    /// the actual logic and poison the output").
    Poison,
}

impl Value {
    /// Zero value of the given type.
    pub fn zero(ty: Type) -> Value {
        match ty {
            Type::Scalar(ScalarType::I1) => Value::Bool(false),
            Type::Scalar(ScalarType::F32) => Value::F32(0.0),
            Type::Scalar(_) => Value::Int(0),
            Type::Vector { elem, lanes } => {
                Value::Vector(vec![Value::zero(Type::Scalar(elem)); lanes as usize])
            }
            Type::Tensor { elem, shape } => Value::Tensor {
                shape,
                data: vec![Value::zero(Type::Scalar(elem)); shape.elems() as usize],
            },
        }
    }

    /// Interpret as an integer.
    ///
    /// # Panics
    /// Panics if the value is not an integer or boolean.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Bool(b) => *b as i64,
            other => panic!("expected integer value, found {other:?}"),
        }
    }

    /// Interpret as a float.
    ///
    /// # Panics
    /// Panics if the value is not a float.
    pub fn as_f32(&self) -> f32 {
        match self {
            Value::F32(v) => *v,
            other => panic!("expected f32 value, found {other:?}"),
        }
    }

    /// Interpret as a boolean.
    ///
    /// # Panics
    /// Panics if the value is not a boolean or integer.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            other => panic!("expected boolean value, found {other:?}"),
        }
    }

    /// Whether this is the poison value.
    pub fn is_poison(&self) -> bool {
        matches!(self, Value::Poison)
    }
}

/// The structural walk behind every content hash over runtime data (job,
/// result, and end-state hashes): a one-byte variant tag, then the
/// payload's exact bits. Floats hash by `to_bits`, so NaN payloads and
/// `0.0`/`-0.0` stay distinct; vectors and tensors are length-prefixed
/// and a tensor binds its shape, so no two distinct values — or sequences
/// of values — produce the same byte stream.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                state.write_u8(u8::from(*b));
            }
            Value::Int(v) => {
                state.write_u8(1);
                state.write_i64(*v);
            }
            Value::F32(v) => {
                state.write_u8(2);
                state.write_u32(v.to_bits());
            }
            Value::Vector(v) => {
                state.write_u8(3);
                v.hash(state);
            }
            Value::Tensor { shape, data } => {
                state.write_u8(4);
                shape.hash(state);
                data.hash(state);
            }
            Value::Poison => state.write_u8(5),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::Vector(v) => {
                write!(f, "<")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ">")
            }
            Value::Tensor { shape, data } => {
                write!(f, "tensor{shape}[")?;
                for (i, e) in data.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Value::Poison => write!(f, "poison"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_values() {
        assert_eq!(Value::zero(Type::I32), Value::Int(0));
        assert_eq!(Value::zero(Type::F32), Value::F32(0.0));
        assert_eq!(Value::zero(Type::BOOL), Value::Bool(false));
        let t = Value::zero(Type::Tensor {
            elem: ScalarType::F32,
            shape: TensorShape::new(2, 2),
        });
        assert!(matches!(t, Value::Tensor { data, .. } if data == vec![Value::F32(0.0); 4]));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Bool(true).as_int(), 1);
        assert!((Value::F32(1.5).as_f32() - 1.5).abs() < 1e-9);
        assert!(Value::Int(3).as_bool());
        assert!(!Value::Bool(false).as_bool());
        assert!(Value::Poison.is_poison());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::Vector(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "<1, 2>"
        );
        assert_eq!(Value::Poison.to_string(), "poison");
    }
}
