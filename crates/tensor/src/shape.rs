//! Tensor shapes and row-major index arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a dense row-major tensor.
///
/// A scalar is represented by the empty shape `[]` (one element).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Build a shape from dimension sizes.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (1 for a scalar).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// [`Shape::num_elements`], or `None` when the count does not fit a
    /// `usize` — a shape read from a file can claim any dimensions. A shape
    /// with a zero dimension has no elements, whatever the others are.
    pub fn checked_num_elements(&self) -> Option<usize> {
        if self.0.contains(&0) {
            return Some(0);
        }
        self.0.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flatten a multi-index to a linear offset.
    ///
    /// Panics (debug) on out-of-range indices; release builds rely on the
    /// caller and the following multiplication staying in range.
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0usize;
        for (d, (&i, &s)) in idx.iter().zip(self.0.iter()).enumerate() {
            debug_assert!(i < s, "index {i} out of range for dim {d} (size {s})");
            let _ = d;
            off = off * s + i;
        }
        off
    }

    /// Inverse of [`Shape::offset`]: linear offset to multi-index.
    pub fn unravel(&self, mut off: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.rank()];
        for i in (0..self.rank()).rev() {
            let s = self.0[i];
            idx[i] = off % s;
            off /= s;
        }
        idx
    }

    /// NumPy-style broadcast of two shapes, if compatible.
    ///
    /// Shapes are right-aligned; a dimension broadcasts when equal or when
    /// either side is 1.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![0usize; rank];
        for (i, slot) in out.iter_mut().enumerate() {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            *slot = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
        }
        Some(Shape(out))
    }

    /// Whether this shape can be reshaped into `other` (same element count).
    pub fn reshape_compatible(&self, other: &Shape) -> bool {
        self.num_elements() == other.num_elements()
    }
}

/// Walk the rows (runs along the last dimension) of a row-major `dims`
/// space in order, handing `f` the offset `Σ idx[d] · strides[k][d]` of each
/// row's first element under every stride set — the index math of
/// broadcasting, transposition, padding, slicing and reduction, with no
/// per-element division or allocation. The caller steps along the row with
/// `strides[k][last]`; a rank-0 space is one row of one element.
pub(crate) fn for_each_row<const K: usize>(
    dims: &[usize],
    strides: [&[usize]; K],
    f: &mut impl FnMut([usize; K]),
) {
    fn walk<const K: usize>(
        dims: &[usize],
        strides: [&[usize]; K],
        base: [usize; K],
        f: &mut impl FnMut([usize; K]),
    ) {
        let [extent, _, ..] = *dims else {
            return f(base);
        };
        for i in 0..extent {
            let mut row = base;
            for k in 0..K {
                row[k] += i * strides[k][0];
            }
            walk(&dims[1..], strides.map(|s| &s[1..]), row, f);
        }
    }
    if !dims.contains(&0) {
        walk(dims, strides, [0; K], f);
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.num_elements(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::scalar().num_elements(), 1);
    }

    #[test]
    fn checked_element_count() {
        let big = usize::MAX / 2 + 1;
        assert_eq!(Shape::from([2, 3, 4]).checked_num_elements(), Some(24));
        assert_eq!(Shape::scalar().checked_num_elements(), Some(1));
        assert_eq!(Shape::from([big, 2]).checked_num_elements(), None);
        assert_eq!(Shape::from([big, 2, 0]).checked_num_elements(), Some(0));
    }

    #[test]
    fn offset_unravel_roundtrip() {
        let s = Shape::from([2, 3, 4]);
        for off in 0..s.num_elements() {
            let idx = s.unravel(off);
            assert_eq!(s.offset(&idx), off);
        }
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::from([1, 3, 1]);
        let b = Shape::from([2, 1, 4]);
        assert_eq!(a.broadcast(&b), Some(Shape::from([2, 3, 4])));
        // Right alignment with differing ranks.
        let c = Shape::from([4]);
        assert_eq!(b.broadcast(&c), Some(Shape::from([2, 1, 4])));
        // Incompatible.
        let d = Shape::from([3]);
        assert_eq!(c.broadcast(&d), None);
        // Scalars broadcast with anything.
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
    }

    #[test]
    fn display() {
        assert_eq!(
            Shape::from([1, 3, 224, 224]).to_string(),
            "(1, 3, 224, 224)"
        );
    }
}
