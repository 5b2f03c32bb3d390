//! N-D mesh shapes: ordered lists of named axes with row-major indexing.

use std::fmt;

use crate::{AxisName, Coord, MeshError};

/// Maximum number of mesh axes the algebra supports.
///
/// Four axes cover every topology the repo models (2D tori, 3D pods, and a
/// fourth dimension for composed DP×TP×PP×EP parallelism) while keeping
/// shapes and coordinates inline and `Copy`.
pub const MAX_AXES: usize = 4;

/// One named axis of a mesh shape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Axis {
    name: AxisName,
    size: u32,
}

impl Axis {
    /// Creates an axis.
    ///
    /// # Errors
    ///
    /// [`MeshError::ZeroAxis`] when `size` is zero.
    pub fn new(name: AxisName, size: usize) -> Result<Axis, MeshError> {
        if size == 0 {
            return Err(MeshError::ZeroAxis {
                axis: name.as_str().into(),
            });
        }
        let size = u32::try_from(size).map_err(|_| MeshError::ZeroAxis {
            axis: name.as_str().into(),
        })?;
        Ok(Axis { name, size })
    }

    /// The axis name.
    pub fn name(&self) -> AxisName {
        self.name
    }

    /// The axis extent.
    pub fn size(&self) -> usize {
        self.size as usize
    }
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name, self.size)
    }
}

const EMPTY_AXIS: Axis = Axis {
    name: AxisName::X,
    size: 0,
};

/// The shape of a device mesh: an ordered list of named axes with row-major
/// strided indexing.
///
/// The 2D specialization — axes `x` (mesh rows, `Pr`) and `y` (mesh columns,
/// `Pc`) — is what the MeshSlice LLM autotuner optimizes (§3.2.2): it
/// determines the ring lengths of the two communication directions and
/// therefore the traffic cost of a 2D GeMM. Higher ranks describe 3D torus
/// pods and composed parallelism meshes; [`MeshView`](crate::MeshView)
/// carves 2D sub-meshes back out of them.
///
/// # Example
///
/// ```
/// use meshslice_mesh::MeshShape;
///
/// let shapes = MeshShape::factorizations(8);
/// assert_eq!(shapes.len(), 4); // 1x8, 2x4, 4x2, 8x1
/// assert!(MeshShape::new(4, 2).num_chips() == 8);
///
/// let pod = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap();
/// assert_eq!(pod.num_chips(), 32);
/// assert_eq!(pod.to_string(), "4x4x2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeshShape {
    // `axes` precedes `rank` so the derived `Ord` over equal-rank shapes is
    // (names, then sizes) in axis order — for default-named 2D shapes that
    // is exactly the historical `(rows, cols)` ordering. Unused slots hold
    // `EMPTY_AXIS` so derived `Eq`/`Hash` see a canonical padding.
    axes: [Axis; MAX_AXES],
    rank: u8,
}

impl MeshShape {
    /// Creates a 2D shape from `(rows, cols)`, axes named `x` and `y`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero. Use
    /// [`from_sizes`](Self::from_sizes) in fallible code.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::try_new(rows, cols).expect("mesh dimensions must be positive")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`MeshError::ZeroAxis`] when a dimension is zero.
    pub(crate) fn try_new(rows: usize, cols: usize) -> Result<Self, MeshError> {
        Self::from_axes(&[Axis::new(AxisName::X, rows)?, Axis::new(AxisName::Y, cols)?])
    }

    /// Creates a shape from named axes given as `(name, size)` string pairs.
    ///
    /// # Errors
    ///
    /// Any [`MeshError`] from name validation, zero sizes, duplicate names,
    /// or too many axes.
    pub fn nd(axes: &[(&str, usize)]) -> Result<Self, MeshError> {
        let mut built = Vec::with_capacity(axes.len());
        for (name, size) in axes {
            built.push(Axis::new(AxisName::new(name)?, *size)?);
        }
        Self::from_axes(&built)
    }

    /// Creates a shape from sizes alone, using the default axis names
    /// `x, y, z, w` in order.
    ///
    /// # Errors
    ///
    /// [`MeshError::NoAxes`], [`MeshError::TooManyAxes`], or
    /// [`MeshError::ZeroAxis`].
    pub fn from_sizes(sizes: &[usize]) -> Result<Self, MeshError> {
        if sizes.len() > MAX_AXES {
            return Err(MeshError::TooManyAxes { got: sizes.len() });
        }
        let axes: Vec<Axis> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| Axis::new(AxisName::DEFAULTS[i], s))
            .collect::<Result<_, _>>()?;
        Self::from_axes(&axes)
    }

    /// Creates a shape from validated axes.
    ///
    /// # Errors
    ///
    /// [`MeshError::NoAxes`], [`MeshError::TooManyAxes`], or
    /// [`MeshError::DuplicateAxis`].
    pub(crate) fn from_axes(axes: &[Axis]) -> Result<Self, MeshError> {
        if axes.is_empty() {
            return Err(MeshError::NoAxes);
        }
        if axes.len() > MAX_AXES {
            return Err(MeshError::TooManyAxes { got: axes.len() });
        }
        for (i, a) in axes.iter().enumerate() {
            if axes[..i].iter().any(|b| b.name == a.name) {
                return Err(MeshError::DuplicateAxis {
                    axis: a.name.as_str().into(),
                });
            }
        }
        let mut slots = [EMPTY_AXIS; MAX_AXES];
        slots[..axes.len()].copy_from_slice(axes);
        Ok(MeshShape {
            axes: slots,
            rank: axes.len() as u8,
        })
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The axes, in order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes[..self.rank as usize]
    }

    /// The axis at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn axis(&self, i: usize) -> Axis {
        self.axes()[i]
    }

    /// The position of the axis named `name`, if present.
    pub fn axis_index(&self, name: AxisName) -> Option<usize> {
        self.axes().iter().position(|a| a.name == name)
    }

    /// Number of mesh rows `Pr` of a 2D shape (the first axis).
    ///
    /// # Panics
    ///
    /// Panics on shapes that are not rank 2; N-D callers read
    /// [`axes`](Self::axes) instead.
    pub fn rows(&self) -> usize {
        assert_eq!(
            self.rank, 2,
            "rows() needs a 2D mesh, got rank {}",
            self.rank
        );
        self.axes[0].size()
    }

    /// Number of mesh columns `Pc` of a 2D shape (the second axis).
    ///
    /// # Panics
    ///
    /// Panics on shapes that are not rank 2; N-D callers read
    /// [`axes`](Self::axes) instead.
    pub fn cols(&self) -> usize {
        assert_eq!(
            self.rank, 2,
            "cols() needs a 2D mesh, got rank {}",
            self.rank
        );
        self.axes[1].size()
    }

    /// Total number of chips (the product of all axis sizes).
    pub fn num_chips(&self) -> usize {
        self.axes().iter().map(|a| a.size()).product()
    }

    /// Row-major strides, one per axis (the last axis has stride 1).
    pub fn strides(&self) -> [usize; MAX_AXES] {
        let mut strides = [0usize; MAX_AXES];
        let mut acc = 1usize;
        for i in (0..self.rank()).rev() {
            strides[i] = acc;
            acc *= self.axes[i].size();
        }
        strides
    }

    /// The row-major chip index of a coordinate.
    ///
    /// # Errors
    ///
    /// [`MeshError::RankMismatch`] or [`MeshError::CoordOutOfRange`].
    pub fn index_of(&self, coord: Coord) -> Result<usize, MeshError> {
        if coord.rank() != self.rank() {
            return Err(MeshError::RankMismatch {
                expected: self.rank(),
                got: coord.rank(),
            });
        }
        let strides = self.strides();
        let mut index = 0usize;
        for (i, axis) in self.axes().iter().enumerate() {
            let c = coord.get(i);
            if c >= axis.size() {
                return Err(MeshError::CoordOutOfRange {
                    coord: coord.to_string(),
                    shape: self.to_string(),
                });
            }
            index += c * strides[i];
        }
        Ok(index)
    }

    /// The coordinate of a row-major chip index.
    ///
    /// # Errors
    ///
    /// [`MeshError::ChipOutOfRange`] when the index is outside the mesh.
    pub fn coord_at(&self, index: usize) -> Result<Coord, MeshError> {
        if index >= self.num_chips() {
            return Err(MeshError::ChipOutOfRange {
                chip: index,
                num_chips: self.num_chips(),
            });
        }
        let strides = self.strides();
        let mut components = [0usize; MAX_AXES];
        let mut rest = index;
        for i in 0..self.rank() {
            components[i] = rest / strides[i];
            rest %= strides[i];
        }
        Coord::nd(&components[..self.rank()])
    }

    /// Whether a 2D mesh is square (`Pr == Pc`), as Cannon's algorithm
    /// requires. N-D shapes are square when all axes have equal size.
    pub fn is_square(&self) -> bool {
        let s0 = self.axes[0].size();
        self.axes().iter().all(|a| a.size() == s0)
    }

    /// The shape with axis order reversed (`Pc × Pr` for 2D meshes).
    pub fn transposed(&self) -> MeshShape {
        let mut axes: Vec<Axis> = self.axes().to_vec();
        axes.reverse();
        MeshShape::from_axes(&axes).expect("reversal preserves validity")
    }

    /// All `(rows, cols)` factorizations of `num_chips`, in increasing row
    /// order (e.g. `16 → 1x16, 2x8, 4x4, 8x2, 16x1`).
    pub fn factorizations(num_chips: usize) -> Vec<MeshShape> {
        (1..=num_chips)
            .filter(|r| num_chips.is_multiple_of(*r))
            .map(|r| MeshShape::new(r, num_chips / r))
            .collect()
    }

    /// The factorizations with both dimensions at least `min_dim`.
    ///
    /// Physical 2D tori need at least 2 chips per dimension for the wrap
    /// links to be distinct; pass `min_dim = 1` to include degenerate rings.
    pub fn factorizations_min(num_chips: usize, min_dim: usize) -> Vec<MeshShape> {
        MeshShape::factorizations(num_chips)
            .into_iter()
            .filter(|s| s.rows() >= min_dim && s.cols() >= min_dim)
            .collect()
    }

    /// All ordered factorizations of `num_chips` into exactly `rank` axes
    /// (default names `x, y, z, w`), in lexicographic order of the size
    /// vector. Complete and duplicate-free; for `rank = 2` this is exactly
    /// [`factorizations`](Self::factorizations).
    ///
    /// # Errors
    ///
    /// [`MeshError::NoAxes`] for `rank = 0`, [`MeshError::TooManyAxes`]
    /// past [`MAX_AXES`], or [`MeshError::ZeroAxis`] for zero chips.
    pub fn factorizations_nd(num_chips: usize, rank: usize) -> Result<Vec<MeshShape>, MeshError> {
        if rank == 0 {
            return Err(MeshError::NoAxes);
        }
        if rank > MAX_AXES {
            return Err(MeshError::TooManyAxes { got: rank });
        }
        if num_chips == 0 {
            return Err(MeshError::ZeroAxis { axis: "x".into() });
        }
        let mut out = Vec::new();
        let mut sizes = [1usize; MAX_AXES];
        fn rec(
            remaining: usize,
            axis: usize,
            rank: usize,
            sizes: &mut [usize; MAX_AXES],
            out: &mut Vec<MeshShape>,
        ) {
            if axis + 1 == rank {
                sizes[axis] = remaining;
                out.push(MeshShape::from_sizes(&sizes[..rank]).expect("factor sizes are positive"));
                return;
            }
            for d in 1..=remaining {
                if remaining.is_multiple_of(d) {
                    sizes[axis] = d;
                    rec(remaining / d, axis + 1, rank, sizes, out);
                }
            }
        }
        rec(num_chips, 0, rank, &mut sizes, &mut out);
        Ok(out)
    }

    /// The square shape for `num_chips` if one exists (Cannon's
    /// requirement), detected with exact integer square root — immune to
    /// the float rounding that `f64::sqrt` suffers on huge chip counts.
    pub fn square(num_chips: usize) -> Option<MeshShape> {
        if num_chips == 0 {
            return None;
        }
        let r = num_chips.isqrt();
        (r * r == num_chips).then(|| MeshShape::new(r, r))
    }
}

impl fmt::Debug for MeshShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeshShape({self})")
    }
}

impl fmt::Display for MeshShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.axes().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{}", a.size())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorizations_cover_all_divisors() {
        let shapes = MeshShape::factorizations(16);
        assert_eq!(
            shapes,
            vec![
                MeshShape::new(1, 16),
                MeshShape::new(2, 8),
                MeshShape::new(4, 4),
                MeshShape::new(8, 2),
                MeshShape::new(16, 1),
            ]
        );
        assert!(shapes.iter().all(|s| s.num_chips() == 16));
    }

    #[test]
    fn factorizations_min_filters_degenerate_shapes() {
        let shapes = MeshShape::factorizations_min(16, 2);
        assert_eq!(shapes.len(), 3);
        assert!(shapes.iter().all(|s| s.rows() >= 2 && s.cols() >= 2));
    }

    #[test]
    fn square_detection() {
        assert_eq!(MeshShape::square(256), Some(MeshShape::new(16, 16)));
        assert_eq!(MeshShape::square(32), None);
        assert!(MeshShape::new(4, 4).is_square());
        assert!(!MeshShape::new(4, 2).is_square());
    }

    #[test]
    fn square_boundaries_are_exact_at_huge_counts() {
        // Perfect squares just around 2^52, where f64 loses integer
        // precision: (2^26 + 1)^2 and its neighbors.
        let r = (1usize << 26) + 1;
        let n = r * r;
        assert_eq!(MeshShape::square(n), Some(MeshShape::new(r, r)));
        assert_eq!(MeshShape::square(n - 1), None);
        assert_eq!(MeshShape::square(n + 1), None);
        // The float path rounds (2^31 + 1)^2 - 1 to 2^31 + 1 and would
        // misclassify it as square on targets with 64-bit usize.
        let big = (1usize << 31) + 1;
        assert_eq!(MeshShape::square(big * big), Some(MeshShape::new(big, big)));
        assert_eq!(MeshShape::square(big * big - 1), None);
        assert_eq!(MeshShape::square(usize::MAX), None);
        assert_eq!(MeshShape::square(0), None);
        assert_eq!(MeshShape::square(1), Some(MeshShape::new(1, 1)));
    }

    #[test]
    fn transpose_swaps_dimensions() {
        assert_eq!(MeshShape::new(8, 2).transposed().rows(), 2);
        assert_eq!(MeshShape::new(8, 2).transposed().cols(), 8);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(MeshShape::new(32, 8).to_string(), "32x8");
        assert_eq!(
            MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)])
                .unwrap()
                .to_string(),
            "4x4x2"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        MeshShape::new(0, 4);
    }

    #[test]
    fn typed_errors_replace_panics() {
        assert!(matches!(
            MeshShape::try_new(0, 4),
            Err(MeshError::ZeroAxis { .. })
        ));
        assert_eq!(MeshShape::nd(&[]), Err(MeshError::NoAxes));
        assert!(matches!(
            MeshShape::nd(&[("x", 2), ("x", 2)]),
            Err(MeshError::DuplicateAxis { .. })
        ));
        assert!(matches!(
            MeshShape::from_sizes(&[2, 2, 2, 2, 2]),
            Err(MeshError::TooManyAxes { got: 5 })
        ));
        assert!(matches!(
            MeshShape::nd(&[("not a name!", 2)]),
            Err(MeshError::BadAxisName { .. })
        ));
    }

    #[test]
    fn strided_indexing_round_trips() {
        let pod = MeshShape::nd(&[("x", 3), ("y", 4), ("z", 2)]).unwrap();
        assert_eq!(pod.strides()[..3], [8, 2, 1]);
        for i in 0..pod.num_chips() {
            let c = pod.coord_at(i).unwrap();
            assert_eq!(pod.index_of(c).unwrap(), i);
        }
        assert!(matches!(
            pod.index_of(Coord::new(0, 0)),
            Err(MeshError::RankMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            pod.index_of(Coord::nd(&[3, 0, 0]).unwrap()),
            Err(MeshError::CoordOutOfRange { .. })
        ));
        assert!(matches!(
            pod.coord_at(24),
            Err(MeshError::ChipOutOfRange {
                chip: 24,
                num_chips: 24
            })
        ));
    }

    #[test]
    fn nd_factorizations_degenerate_to_2d() {
        let nd = MeshShape::factorizations_nd(16, 2).unwrap();
        assert_eq!(nd, MeshShape::factorizations(16));
        let one = MeshShape::factorizations_nd(6, 1).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].num_chips(), 6);
    }

    #[test]
    fn nd_factorizations_complete_for_3_axes() {
        let shapes = MeshShape::factorizations_nd(8, 3).unwrap();
        // Ordered triples (a,b,c) with a*b*c = 8: 1,1,8 / 1,2,4 / 1,4,2 /
        // 1,8,1 / 2,1,4 / 2,2,2 / 2,4,1 / 4,1,2 / 4,2,1 / 8,1,1 = 10.
        assert_eq!(shapes.len(), 10);
        let mut seen = shapes.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), shapes.len(), "no duplicates");
        assert!(shapes.iter().all(|s| s.num_chips() == 8 && s.rank() == 3));
    }

    #[test]
    fn axis_lookup_by_name() {
        let pod = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap();
        assert_eq!(pod.axis_index(AxisName::Z), Some(2));
        assert_eq!(pod.axes()[pod.axis_index(AxisName::Y).unwrap()].size(), 4);
        assert_eq!(pod.axis_index(AxisName::W), None);
    }
}
