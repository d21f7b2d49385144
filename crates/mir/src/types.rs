//! Type system shared by the compiler IR and (via re-export) the μIR graph.
//!
//! The paper's polymorphic dataflow nodes carry a type from this lattice:
//! scalars, short vectors, and 2-D tensors (§3.3, §6.3). Memory is addressed
//! in *elements* (one scalar slot per address); composite types occupy
//! consecutive element slots, which is what gives the databox (§3.4) its job
//! of slicing a typed access into word transactions.

use std::fmt;

/// Scalar element kinds supported by the IR.
///
/// `I1` is the predicate type produced by comparisons; `F32` is the only
/// floating-point width, matching the paper's single-precision evaluation
/// ("Here we use single precision throughout", §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarType {
    /// 1-bit boolean / predicate.
    I1,
    /// 8-bit integer.
    I8,
    /// 32-bit integer.
    I32,
    /// 64-bit integer (loop counters, addresses).
    I64,
    /// 32-bit IEEE-754 float.
    F32,
}

impl ScalarType {
    /// Bit width of the scalar.
    pub(crate) fn bits(self) -> u32 {
        match self {
            ScalarType::I1 => 1,
            ScalarType::I8 => 8,
            ScalarType::I32 => 32,
            ScalarType::I64 => 64,
            ScalarType::F32 => 32,
        }
    }

    /// Whether this is a floating-point kind.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32)
    }

    /// The type's name in IR text (the [`fmt::Display`] text).
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::I1 => "i1",
            ScalarType::I8 => "i8",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shape of a 2-D tensor tile (the paper evaluates 2×2 tiles; the shape is a
/// designer-controlled parameter, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Number of rows in the tile.
    pub rows: u8,
    /// Number of columns in the tile.
    pub cols: u8,
}

impl TensorShape {
    /// A new `rows`×`cols` shape.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: u8, cols: u8) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "tensor shape dimensions must be nonzero"
        );
        TensorShape { rows, cols }
    }

    /// Total number of elements in the tile.
    pub fn elems(self) -> u32 {
        self.rows as u32 * self.cols as u32
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// An IR value type: scalar, short vector, or 2-D tensor tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// A single scalar element.
    Scalar(ScalarType),
    /// A short SIMD vector of `lanes` elements.
    Vector {
        /// Element kind.
        elem: ScalarType,
        /// Number of lanes.
        lanes: u8,
    },
    /// A 2-D tensor tile.
    Tensor {
        /// Element kind.
        elem: ScalarType,
        /// Tile shape.
        shape: TensorShape,
    },
}

impl Type {
    /// The 1-bit predicate type.
    pub const BOOL: Type = Type::Scalar(ScalarType::I1);
    /// The canonical 32-bit integer type.
    pub const I32: Type = Type::Scalar(ScalarType::I32);
    /// The canonical 64-bit integer type.
    pub const I64: Type = Type::Scalar(ScalarType::I64);
    /// The canonical 32-bit float type.
    pub const F32: Type = Type::Scalar(ScalarType::F32);

    /// Element kind of this type.
    pub fn elem(self) -> ScalarType {
        match self {
            Type::Scalar(s) => s,
            Type::Vector { elem, .. } => elem,
            Type::Tensor { elem, .. } => elem,
        }
    }

    /// Number of scalar elements this type occupies in memory.
    pub fn elems(self) -> u32 {
        match self {
            Type::Scalar(_) => 1,
            Type::Vector { lanes, .. } => lanes as u32,
            Type::Tensor { shape, .. } => shape.elems(),
        }
    }

    /// Total bit width (used by the RTL backend to size ports and flits).
    pub fn bits(self) -> u32 {
        self.elems() * self.elem().bits()
    }

    /// Whether the element kind is floating point.
    pub fn is_float(self) -> bool {
        self.elem().is_float()
    }

    /// Whether this is a (non-scalar) composite type.
    pub fn is_composite(self) -> bool {
        !matches!(self, Type::Scalar(_))
    }
}

impl From<ScalarType> for Type {
    fn from(s: ScalarType) -> Self {
        Type::Scalar(s)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Vector { elem, lanes } => write!(f, "<{lanes} x {elem}>"),
            Type::Tensor { elem, shape } => write!(f, "tensor<{shape} x {elem}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_bits() {
        assert_eq!(ScalarType::I1.bits(), 1);
        assert_eq!(ScalarType::I8.bits(), 8);
        assert_eq!(ScalarType::I32.bits(), 32);
        assert_eq!(ScalarType::I64.bits(), 64);
        assert_eq!(ScalarType::F32.bits(), 32);
        assert!(ScalarType::F32.is_float());
        assert!(!ScalarType::I32.is_float());
    }

    #[test]
    fn tensor_shape_elems() {
        let s = TensorShape::new(2, 2);
        assert_eq!(s.elems(), 4);
        assert_eq!(s.to_string(), "2x2");
        let s = TensorShape::new(4, 4);
        assert_eq!(s.elems(), 16);
    }

    #[test]
    #[should_panic]
    fn tensor_shape_zero_rejected() {
        TensorShape::new(0, 4);
    }

    #[test]
    fn type_layout() {
        let t = Type::Tensor {
            elem: ScalarType::F32,
            shape: TensorShape::new(2, 2),
        };
        assert_eq!(t.elems(), 4);
        assert_eq!(t.bits(), 128);
        assert!(t.is_composite());
        let v = Type::Vector {
            elem: ScalarType::I32,
            lanes: 8,
        };
        assert_eq!(v.elems(), 8);
        assert_eq!(v.bits(), 256);
        assert_eq!(Type::I32.elems(), 1);
        assert!(!Type::I32.is_composite());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::F32.to_string(), "f32");
        let v = Type::Vector {
            elem: ScalarType::I32,
            lanes: 4,
        };
        assert_eq!(v.to_string(), "<4 x i32>");
        let t = Type::Tensor {
            elem: ScalarType::F32,
            shape: TensorShape::new(2, 2),
        };
        assert_eq!(t.to_string(), "tensor<2x2 x f32>");
    }

    #[test]
    fn from_scalar() {
        let t: Type = ScalarType::I64.into();
        assert_eq!(t, Type::I64);
    }
}
