//! Views over N-D meshes: sub-meshes, permutations, folds, and factorings.
//!
//! A [`MeshView`] is a logical N-D index space laid over a physical
//! [`MeshShape`]. Every view operation — [`select`](MeshView::select),
//! [`slice`](MeshView::slice), [`permute`](MeshView::permute),
//! [`transpose`](MeshView::transpose), [`flatten`](MeshView::flatten), and
//! [`split`](MeshView::split) — produces another view that still resolves
//! to physical [`ChipId`]s, and [`ring_hops`](MeshView::ring_hops) resolves
//! each ring hop of a view axis to the physical link(s) it crosses.
//!
//! Internally each view axis tabulates the physical-index contribution of
//! every coordinate along it (`physical = offset + Σ contrib[axis][i]`).
//! Tabulation makes every operation closed under composition: flattening a
//! pod's `z` axis into its `x` rings, then splitting the fold back apart,
//! is exact index arithmetic rather than a stride special-case.
//!
//! # Example: carving a 2D plane out of a 3D pod
//!
//! ```
//! use meshslice_mesh::{AxisName, MeshShape, MeshView};
//!
//! let pod = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap();
//! let plane = MeshView::full(pod).select(AxisName::Z, 1).unwrap();
//! assert_eq!(plane.rank(), 2);
//! assert_eq!(plane.num_chips(), 16);
//! // Chips resolve to the physical z = 1 half of the pod.
//! assert!(plane.chips().iter().all(|c| c.index() % 2 == 1));
//! ```

use std::fmt;

use crate::{AxisName, ChipId, Coord, MeshError, MeshShape, Ring, MAX_AXES};

/// One logical axis of a view: a name plus the physical-index contribution
/// of each coordinate along it.
#[derive(Clone, PartialEq, Eq)]
struct ViewAxis {
    name: AxisName,
    /// `contrib[i]` is added to the physical index when this axis is at
    /// coordinate `i`. Invariant: `contrib[0] == 0` (rebased into `offset`).
    contrib: Vec<i64>,
}

impl ViewAxis {
    fn len(&self) -> usize {
        self.contrib.len()
    }
}

/// A logical N-D window onto a physical mesh.
///
/// See the crate-level docs for the operation set and an example.
#[derive(Clone, PartialEq, Eq)]
pub struct MeshView {
    base: MeshShape,
    offset: i64,
    axes: Vec<ViewAxis>,
}

/// How one ring hop of a view axis maps onto the physical fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HopLink {
    /// A single physical link: the hop moves ±1 (with wrap) along one base
    /// axis, like every hop of a native torus ring.
    Direct {
        /// The physical axis the link belongs to.
        axis: AxisName,
        /// `true` for the `+` direction of that axis.
        forward: bool,
        /// Whether the hop uses the wrap-around link.
        wraps: bool,
    },
    /// A multi-link route (e.g. the turn hop where a flattened ring jumps
    /// to the next physical row): the minimum number of physical links the
    /// payload must cross.
    Route {
        /// Torus Manhattan distance in links.
        hops: usize,
    },
}

/// One hop of a ring over a view axis, resolved to physical chips and links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingHop {
    /// The sending chip.
    pub from: ChipId,
    /// The receiving chip.
    pub to: ChipId,
    /// The physical link assignment.
    pub link: HopLink,
}

/// A 2D plane carved out of an N-D mesh: two spanning axes plus fixed
/// coordinates for every remaining axis.
///
/// Produced by [`MeshView::planes`]; the embedded rank-2
/// [`view`](MeshPlane::view) resolves the plane's chips, and
/// [`as_torus2d`](MeshView::as_torus2d) relabels them as a dense logical
/// torus for the 2D engine and algorithms.
#[derive(Clone, PartialEq, Eq)]
pub struct MeshPlane {
    /// The axis that becomes the plane's mesh rows.
    pub row_axis: AxisName,
    /// The axis that becomes the plane's mesh columns.
    pub col_axis: AxisName,
    /// `(axis, index)` for every non-spanning axis, in base axis order.
    pub fixed: Vec<(AxisName, usize)>,
    /// The rank-2 view of the plane's chips.
    pub view: MeshView,
}

impl fmt::Debug for MeshPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plane({}×{}", self.row_axis, self.col_axis)?;
        for (name, i) in &self.fixed {
            write!(f, ", {name}={i}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for MeshPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\u{d7}{}", self.row_axis, self.col_axis)?;
        for (name, i) in &self.fixed {
            write!(f, "@{name}={i}")?;
        }
        Ok(())
    }
}

impl MeshView {
    /// The identity view of a whole physical mesh.
    pub fn full(shape: MeshShape) -> MeshView {
        let strides = shape.strides();
        let axes = shape
            .axes()
            .iter()
            .enumerate()
            .map(|(i, a)| ViewAxis {
                name: a.name(),
                contrib: (0..a.size()).map(|c| (c * strides[i]) as i64).collect(),
            })
            .collect();
        MeshView {
            base: shape,
            offset: 0,
            axes,
        }
    }

    /// The physical mesh this view indexes into.
    pub fn base(&self) -> MeshShape {
        self.base
    }

    /// Number of view axes.
    pub fn rank(&self) -> usize {
        self.axes.len()
    }

    /// The view's logical shape (named axes and their extents).
    pub fn shape(&self) -> MeshShape {
        let axes: Vec<crate::Axis> = self
            .axes
            .iter()
            .map(|a| crate::Axis::new(a.name, a.len()).expect("view axes are non-empty"))
            .collect();
        MeshShape::from_axes(&axes).expect("view invariants imply a valid shape")
    }

    /// The names of the view axes, in order.
    pub fn axis_names(&self) -> Vec<AxisName> {
        self.axes.iter().map(|a| a.name).collect()
    }

    /// The extent of the view axis named `name`.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`].
    pub fn axis_len(&self, name: AxisName) -> Result<usize, MeshError> {
        Ok(self.axes[self.axis_pos(name)?].len())
    }

    /// Number of chips the view covers.
    pub fn num_chips(&self) -> usize {
        self.axes.iter().map(|a| a.len()).product()
    }

    fn axis_pos(&self, name: AxisName) -> Result<usize, MeshError> {
        self.axes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| MeshError::UnknownAxis {
                axis: name.as_str().into(),
            })
    }

    fn resolve(&self, components: &[usize]) -> i64 {
        let mut index = self.offset;
        for (axis, &c) in self.axes.iter().zip(components) {
            index += axis.contrib[c];
        }
        index
    }

    /// The physical chip at a view coordinate.
    ///
    /// # Errors
    ///
    /// [`MeshError::RankMismatch`] or [`MeshError::CoordOutOfRange`].
    pub fn chip_at(&self, coord: Coord) -> Result<ChipId, MeshError> {
        if coord.rank() != self.rank() {
            return Err(MeshError::RankMismatch {
                expected: self.rank(),
                got: coord.rank(),
            });
        }
        for (axis, &c) in self.axes.iter().zip(coord.components()) {
            if c as usize >= axis.len() {
                return Err(MeshError::CoordOutOfRange {
                    coord: coord.to_string(),
                    shape: self.shape().to_string(),
                });
            }
        }
        let components: Vec<usize> = coord.components().iter().map(|&c| c as usize).collect();
        let index = self.resolve(&components);
        debug_assert!(index >= 0 && (index as usize) < self.base.num_chips());
        Ok(ChipId(index as usize))
    }

    /// All physical chips of the view, in row-major view order.
    pub fn chips(&self) -> Vec<ChipId> {
        let mut out = Vec::with_capacity(self.num_chips());
        let mut components = vec![0usize; self.rank()];
        loop {
            out.push(ChipId(self.resolve(&components) as usize));
            // Row-major odometer increment.
            let mut axis = self.rank();
            loop {
                if axis == 0 {
                    return out;
                }
                axis -= 1;
                components[axis] += 1;
                if components[axis] < self.axes[axis].len() {
                    break;
                }
                components[axis] = 0;
            }
        }
    }

    /// The view coordinate of a physical chip, if the view covers it.
    pub fn coord_of(&self, chip: ChipId) -> Option<Coord> {
        let chips = self.chips();
        let flat = chips.iter().position(|&c| c == chip)?;
        // Un-flatten the row-major position.
        let mut components = vec![0usize; self.rank()];
        let mut rest = flat;
        for i in (0..self.rank()).rev() {
            components[i] = rest % self.axes[i].len();
            rest /= self.axes[i].len();
        }
        Some(Coord::nd(&components).expect("view rank is bounded"))
    }

    /// Fixes `axis` at `index`, dropping it from the view (a sub-mesh of
    /// one rank lower).
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`] or [`MeshError::CoordOutOfRange`].
    pub fn select(&self, axis: AxisName, index: usize) -> Result<MeshView, MeshError> {
        let pos = self.axis_pos(axis)?;
        if index >= self.axes[pos].len() {
            return Err(MeshError::CoordOutOfRange {
                coord: format!("{axis}={index}"),
                shape: self.shape().to_string(),
            });
        }
        let mut next = self.clone();
        next.offset += next.axes[pos].contrib[index];
        next.axes.remove(pos);
        Ok(next)
    }

    /// Restricts `axis` to `start..end` (rebased to start at zero).
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`] or [`MeshError::BadRange`].
    pub fn slice(&self, axis: AxisName, start: usize, end: usize) -> Result<MeshView, MeshError> {
        let pos = self.axis_pos(axis)?;
        let size = self.axes[pos].len();
        if start >= end || end > size {
            return Err(MeshError::BadRange {
                axis: axis.as_str().into(),
                start,
                end,
                size,
            });
        }
        let mut next = self.clone();
        let base_contrib = next.axes[pos].contrib[start];
        next.offset += base_contrib;
        next.axes[pos].contrib = next.axes[pos].contrib[start..end]
            .iter()
            .map(|c| c - base_contrib)
            .collect();
        Ok(next)
    }

    /// Reorders the view axes to the given name order (each current axis
    /// named exactly once).
    ///
    /// # Errors
    ///
    /// [`MeshError::BadPermutation`].
    pub fn permute(&self, order: &[AxisName]) -> Result<MeshView, MeshError> {
        if order.len() != self.rank() {
            return Err(MeshError::BadPermutation {
                reason: format!("{} names for {} axes", order.len(), self.rank()),
            });
        }
        let mut axes = Vec::with_capacity(order.len());
        for name in order {
            match self.axes.iter().find(|a| a.name == *name) {
                Some(a) => {
                    if axes.iter().any(|b: &ViewAxis| b.name == *name) {
                        return Err(MeshError::BadPermutation {
                            reason: format!("axis '{name}' named twice"),
                        });
                    }
                    axes.push(a.clone());
                }
                None => {
                    return Err(MeshError::BadPermutation {
                        reason: format!("axis '{name}' not in view"),
                    })
                }
            }
        }
        Ok(MeshView {
            base: self.base,
            offset: self.offset,
            axes,
        })
    }

    /// Reverses the axis order (the matrix transpose for rank-2 views).
    pub fn transpose(&self) -> MeshView {
        let mut next = self.clone();
        next.axes.reverse();
        next
    }

    /// Folds the named axes (row-major, in the given order) into one
    /// logical axis named `new_name`, placed where the first named axis
    /// was. The classic use: fold a 3D torus's `z` axis into its `x` rings
    /// so a 2D algorithm sees one long ring.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`], [`MeshError::BadPermutation`] (an axis
    /// named twice or no axes named), or [`MeshError::DuplicateAxis`] when
    /// `new_name` collides with a remaining axis.
    pub fn flatten(&self, axes: &[AxisName], new_name: AxisName) -> Result<MeshView, MeshError> {
        if axes.is_empty() {
            return Err(MeshError::BadPermutation {
                reason: "flatten of zero axes".into(),
            });
        }
        let mut positions = Vec::with_capacity(axes.len());
        for name in axes {
            let pos = self.axis_pos(*name)?;
            if positions.contains(&pos) {
                return Err(MeshError::BadPermutation {
                    reason: format!("axis '{name}' named twice"),
                });
            }
            positions.push(pos);
        }
        if self
            .axes
            .iter()
            .enumerate()
            .any(|(i, a)| !positions.contains(&i) && a.name == new_name)
        {
            return Err(MeshError::DuplicateAxis {
                axis: new_name.as_str().into(),
            });
        }
        // Row-major tabulation over the folded axes, in the given order.
        let mut contrib = vec![0i64];
        for &pos in &positions {
            let axis = &self.axes[pos];
            let mut next = Vec::with_capacity(contrib.len() * axis.len());
            for &outer in &contrib {
                for &inner in &axis.contrib {
                    next.push(outer + inner);
                }
            }
            contrib = next;
        }
        let insert_at = positions[0];
        let mut next_axes = Vec::with_capacity(self.rank() - axes.len() + 1);
        for (i, a) in self.axes.iter().enumerate() {
            if i == insert_at {
                next_axes.push(ViewAxis {
                    name: new_name,
                    contrib: contrib.clone(),
                });
            }
            if !positions.contains(&i) {
                next_axes.push(a.clone());
            }
        }
        Ok(MeshView {
            base: self.base,
            offset: self.offset,
            axes: next_axes,
        })
    }

    /// Factors `axis` into the given `(name, size)` axes (row-major), the
    /// inverse of [`flatten`](Self::flatten) with the same sizes.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`], [`MeshError::SplitSizeMismatch`] when
    /// the factor sizes do not multiply back to the axis size,
    /// [`MeshError::TooManyAxes`] past [`MAX_AXES`],
    /// [`MeshError::DuplicateAxis`] on a name collision, and
    /// [`MeshError::NotSeparable`] when the axis's physical layout cannot
    /// be factored that way (e.g. splitting against the grain of a fold).
    pub fn split(
        &self,
        axis: AxisName,
        factors: &[(AxisName, usize)],
    ) -> Result<MeshView, MeshError> {
        let pos = self.axis_pos(axis)?;
        let size = self.axes[pos].len();
        let product: usize = factors.iter().map(|(_, s)| s).product();
        if factors.is_empty() || product != size {
            return Err(MeshError::SplitSizeMismatch {
                axis: axis.as_str().into(),
                size,
                product,
            });
        }
        if self.rank() - 1 + factors.len() > MAX_AXES {
            return Err(MeshError::TooManyAxes {
                got: self.rank() - 1 + factors.len(),
            });
        }
        for (i, (name, _)) in factors.iter().enumerate() {
            let dup_in_factors = factors[..i].iter().any(|(n, _)| n == name);
            let dup_in_rest = self
                .axes
                .iter()
                .enumerate()
                .any(|(j, a)| j != pos && a.name == *name);
            if dup_in_factors || dup_in_rest {
                return Err(MeshError::DuplicateAxis {
                    axis: name.as_str().into(),
                });
            }
        }
        let contrib = &self.axes[pos].contrib;
        // Factor contributions row-major: axis t (trailing stride = product
        // of later factor sizes) takes contrib[i * stride_t].
        let mut strides = vec![1usize; factors.len()];
        for t in (0..factors.len().saturating_sub(1)).rev() {
            strides[t] = strides[t + 1] * factors[t + 1].1;
        }
        let split_axes: Vec<ViewAxis> = factors
            .iter()
            .zip(&strides)
            .map(|((name, s), stride)| ViewAxis {
                name: *name,
                contrib: (0..*s).map(|i| contrib[i * stride]).collect(),
            })
            .collect();
        // Separability: the tabulated sum must reproduce every entry.
        for (flat, &expect) in contrib.iter().enumerate() {
            let mut sum = 0i64;
            let mut rest = flat;
            for (t, (_, s)) in factors.iter().enumerate().rev() {
                sum += split_axes[t].contrib[rest % s];
                rest /= s;
            }
            if sum != expect {
                return Err(MeshError::NotSeparable {
                    axis: axis.as_str().into(),
                });
            }
        }
        let mut next_axes = Vec::with_capacity(self.rank() - 1 + factors.len());
        for (i, a) in self.axes.iter().enumerate() {
            if i == pos {
                next_axes.extend(split_axes.iter().cloned());
            } else {
                next_axes.push(a.clone());
            }
        }
        Ok(MeshView {
            base: self.base,
            offset: self.offset,
            axes: next_axes,
        })
    }

    /// All rings along the view axis named `name`: one ring per combination
    /// of the other axes (row-major), members in coordinate order.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`].
    pub(crate) fn ring_along(&self, name: AxisName) -> Result<Vec<Ring>, MeshError> {
        let pos = self.axis_pos(name)?;
        // Enumerate the other axes row-major by selecting the ring axis
        // last: permute it to the back, then chunk the chip list.
        let mut order: Vec<AxisName> = self
            .axes
            .iter()
            .filter(|a| a.name != name)
            .map(|a| a.name)
            .collect();
        order.push(self.axes[pos].name);
        let ring_len = self.axes[pos].len();
        let chips = self.permute(&order)?.chips();
        Ok(chips
            .chunks(ring_len)
            .map(|members| Ring::along(name, members.to_vec()))
            .collect())
    }

    /// The per-hop physical link assignment of every ring along `name`:
    /// `result[ring][hop]` describes the link(s) carrying hop `hop` of ring
    /// `ring`; rings enumerate the other axes row-major.
    ///
    /// # Errors
    ///
    /// [`MeshError::UnknownAxis`].
    pub fn ring_hops(&self, name: AxisName) -> Result<Vec<Vec<RingHop>>, MeshError> {
        let rings = self.ring_along(name)?;
        Ok(rings
            .iter()
            .map(|ring| {
                let members = ring.members();
                (0..members.len())
                    .map(|i| {
                        let from = members[i];
                        let to = members[(i + 1) % members.len()];
                        RingHop {
                            from,
                            to,
                            link: self.classify_hop(from, to),
                        }
                    })
                    .collect()
            })
            .collect())
    }

    fn classify_hop(&self, from: ChipId, to: ChipId) -> HopLink {
        let a = self
            .base
            .coord_at(from.index())
            .expect("view chips are in range");
        let b = self
            .base
            .coord_at(to.index())
            .expect("view chips are in range");
        let mut moved: Vec<(AxisName, usize, usize, usize)> = Vec::new(); // (axis, from, to, size)
        for (i, axis) in self.base.axes().iter().enumerate() {
            if a.get(i) != b.get(i) {
                moved.push((axis.name(), a.get(i), b.get(i), axis.size()));
            }
        }
        if let [(axis, f, t, size)] = moved[..] {
            let fwd = (f + 1) % size == t;
            let bwd = (t + 1) % size == f;
            if fwd || bwd {
                return HopLink::Direct {
                    axis,
                    forward: fwd,
                    // A self-hop on a size-1 or size-2 axis never wraps
                    // "around" distinct links; flag only true wraps.
                    wraps: if fwd { f + 1 == size } else { t + 1 == size },
                };
            }
        }
        let hops = moved
            .iter()
            .map(|&(_, f, t, size)| {
                let d = f.abs_diff(t);
                d.min(size - d)
            })
            .sum();
        HopLink::Route { hops }
    }

    /// All 2D planes of the view: every ordered pair of spanning axes ×
    /// every combination of fixed coordinates on the remaining axes. A
    /// rank-2 view yields its two orientations; a 4×4×4 pod yields
    /// `3·2·4 = 24` planes.
    pub fn planes(&self) -> Vec<MeshPlane> {
        let names = self.axis_names();
        let mut out = Vec::new();
        for &row_axis in &names {
            for &col_axis in &names {
                if row_axis == col_axis {
                    continue;
                }
                let others: Vec<AxisName> = names
                    .iter()
                    .copied()
                    .filter(|n| *n != row_axis && *n != col_axis)
                    .collect();
                let sizes: Vec<usize> = others
                    .iter()
                    .map(|n| self.axis_len(*n).expect("axis exists"))
                    .collect();
                // Row-major cartesian product of the fixed coordinates
                // (one empty combination when no axes remain).
                let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
                for &size in &sizes {
                    combos = combos
                        .into_iter()
                        .flat_map(|prefix| {
                            (0..size).map(move |i| {
                                let mut c = prefix.clone();
                                c.push(i);
                                c
                            })
                        })
                        .collect();
                }
                for fixed in combos {
                    let mut view = self.clone();
                    for (n, &i) in others.iter().zip(&fixed) {
                        view = view.select(*n, i).expect("fixed coordinate in range");
                    }
                    let view = view
                        .permute(&[row_axis, col_axis])
                        .expect("two spanning axes remain");
                    out.push(MeshPlane {
                        row_axis,
                        col_axis,
                        fixed: others.iter().copied().zip(fixed.iter().copied()).collect(),
                        view,
                    });
                }
            }
        }
        out
    }

    /// Relabels a rank-2 view as a dense logical torus plus the mapping
    /// from logical chip id to physical chip — how 2D algorithms and the
    /// 2D engine run on a plane of a bigger mesh.
    ///
    /// # Errors
    ///
    /// [`MeshError::NotRank2`].
    pub fn as_torus2d(&self) -> Result<(crate::Torus2d, Vec<ChipId>), MeshError> {
        if self.rank() != 2 {
            return Err(MeshError::NotRank2 { got: self.rank() });
        }
        let torus = crate::Torus2d::try_new(self.axes[0].len(), self.axes[1].len())
            .expect("view axes are non-empty");
        Ok((torus, self.chips()))
    }
}

impl fmt::Debug for MeshView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeshView(")?;
        for (i, a) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", a.name, a.len())?;
        }
        write!(f, " over {})", self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> MeshShape {
        MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap()
    }

    #[test]
    fn full_view_matches_shape_indexing() {
        let shape = pod();
        let view = MeshView::full(shape);
        assert_eq!(view.num_chips(), 32);
        for i in 0..shape.num_chips() {
            let c = shape.coord_at(i).unwrap();
            assert_eq!(view.chip_at(c).unwrap(), ChipId(i));
            assert_eq!(view.coord_of(ChipId(i)), Some(c));
        }
        assert_eq!(view.chips(), (0..32).map(ChipId).collect::<Vec<_>>());
    }

    #[test]
    fn select_fixes_an_axis() {
        let view = MeshView::full(pod()).select(AxisName::Z, 1).unwrap();
        assert_eq!(view.rank(), 2);
        assert_eq!(view.num_chips(), 16);
        // z has stride 1 in a 4x4x2 pod, so z = 1 chips are the odd ids.
        assert!(view.chips().iter().all(|c| c.index() % 2 == 1));
        assert!(matches!(
            MeshView::full(pod()).select(AxisName::Z, 2),
            Err(MeshError::CoordOutOfRange { .. })
        ));
    }

    #[test]
    fn slice_takes_a_window() {
        let view = MeshView::full(pod()).slice(AxisName::X, 1, 3).unwrap();
        assert_eq!(view.axis_len(AxisName::X).unwrap(), 2);
        assert_eq!(view.num_chips(), 16);
        // x strides by 8; the window starts at physical x = 1.
        assert_eq!(
            view.chip_at(Coord::nd(&[0, 0, 0]).unwrap()).unwrap(),
            ChipId(8)
        );
        assert!(view.slice(AxisName::X, 1, 1).is_err());
        assert!(view.slice(AxisName::X, 0, 3).is_err());
    }

    #[test]
    fn permute_and_transpose_preserve_chip_sets() {
        let view = MeshView::full(pod());
        let permuted = view
            .permute(&[AxisName::Z, AxisName::X, AxisName::Y])
            .unwrap();
        let mut a = view.chips();
        let mut b = permuted.chips();
        assert_ne!(a, b, "order changes");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "chip set is invariant");
        let t = view.transpose();
        assert_eq!(t.axis_names(), vec![AxisName::Z, AxisName::Y, AxisName::X]);
        assert!(view
            .permute(&[AxisName::X, AxisName::X, AxisName::Y])
            .is_err());
    }

    #[test]
    fn flatten_folds_row_major_and_split_inverts() {
        let view = MeshView::full(pod());
        let folded = view
            .flatten(&[AxisName::X, AxisName::Z], AxisName::W)
            .unwrap();
        assert_eq!(folded.rank(), 2);
        assert_eq!(folded.axis_len(AxisName::W).unwrap(), 8);
        // Fold order is row-major over (x, z): w = x * 2 + z.
        for x in 0..4 {
            for z in 0..2 {
                for y in 0..4 {
                    let via_fold = folded.chip_at(Coord::nd(&[x * 2 + z, y]).unwrap()).unwrap();
                    let direct = view.chip_at(Coord::nd(&[x, y, z]).unwrap()).unwrap();
                    assert_eq!(via_fold, direct);
                }
            }
        }
        let back = folded
            .split(AxisName::W, &[(AxisName::X, 4), (AxisName::Z, 2)])
            .unwrap();
        let reordered = view
            .permute(&[AxisName::X, AxisName::Z, AxisName::Y])
            .unwrap();
        assert_eq!(back.chips(), reordered.chips(), "flatten ∘ split == id");
    }

    #[test]
    fn split_rejects_bad_factorings() {
        let view = MeshView::full(MeshShape::new(4, 4));
        assert!(matches!(
            view.split(AxisName::X, &[(AxisName::Z, 3), (AxisName::W, 2)]),
            Err(MeshError::SplitSizeMismatch { .. })
        ));
        assert!(matches!(
            view.split(AxisName::X, &[(AxisName::Y, 2), (AxisName::Z, 2)]),
            Err(MeshError::DuplicateAxis { .. })
        ));
        // Splitting against the grain of a fold is not separable: fold
        // (x, z) of the pod, then carve a window that straddles the fold
        // boundary — the surviving index pattern no longer factors.
        let folded = MeshView::full(pod())
            .flatten(&[AxisName::X, AxisName::Z], AxisName::W)
            .unwrap();
        let window = folded.slice(AxisName::W, 1, 7).unwrap();
        assert!(matches!(
            window.split(AxisName::W, &[(AxisName::Z, 2), (AxisName::X, 3)]),
            Err(MeshError::NotSeparable { .. })
        ));
        // A with-the-grain regrouping of the same fold stays exact.
        assert!(folded
            .split(AxisName::W, &[(AxisName::Z, 2), (AxisName::X, 4)])
            .is_ok());
    }

    #[test]
    fn rings_along_each_axis_partition_the_view() {
        let view = MeshView::full(pod());
        for name in [AxisName::X, AxisName::Y, AxisName::Z] {
            let rings = view.ring_along(name).unwrap();
            let expect_len = view.axis_len(name).unwrap();
            assert_eq!(rings.len(), 32 / expect_len);
            let mut all: Vec<ChipId> = rings
                .iter()
                .flat_map(|r| r.members().iter().copied())
                .collect();
            assert!(rings.iter().all(|r| r.len() == expect_len));
            all.sort_unstable();
            assert_eq!(all, (0..32).map(ChipId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn native_ring_hops_are_direct_links() {
        let view = MeshView::full(pod());
        let hops = view.ring_hops(AxisName::X).unwrap();
        for ring in &hops {
            assert_eq!(ring.len(), 4);
            for (i, hop) in ring.iter().enumerate() {
                match &hop.link {
                    HopLink::Direct {
                        axis,
                        forward,
                        wraps,
                    } => {
                        assert_eq!(*axis, AxisName::X);
                        assert!(*forward);
                        assert_eq!(*wraps, i == ring.len() - 1);
                    }
                    other => panic!("native hop should be direct, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn flattened_ring_hops_mix_direct_and_turns() {
        // Fold z into x: the long ring advances along z, then turns to the
        // next x row.
        let folded = MeshView::full(pod())
            .flatten(&[AxisName::X, AxisName::Z], AxisName::W)
            .unwrap();
        let hops = folded.ring_hops(AxisName::W).unwrap();
        for ring in &hops {
            assert_eq!(ring.len(), 8);
            let direct = ring
                .iter()
                .filter(|h| matches!(h.link, HopLink::Direct { .. }))
                .count();
            let turns = ring
                .iter()
                .filter(|h| matches!(h.link, HopLink::Route { .. }))
                .count();
            assert!(direct > 0 && turns > 0, "a fold has both hop kinds");
            assert!(ring
                .iter()
                .all(|h| !matches!(h.link, HopLink::Route { hops: 0 })));
        }
    }

    #[test]
    fn planes_enumerate_orientations_and_offsets() {
        let planes = MeshView::full(pod()).planes();
        // 3 ordered axis pairs * 2 orientations = 6; fixed coords: z has 2,
        // y has 4, x has 4 → 2+2+4+4+4+4 ... per pair: (x,y): z in 0..2 → 2
        // each orientation; (x,z): y in 0..4; (y,z): x in 0..4.
        assert_eq!(planes.len(), 2 * (2 + 4 + 4));
        // Every plane resolves to distinct physical chips.
        for p in &planes {
            let mut chips = p.view.chips();
            chips.sort_unstable();
            chips.dedup();
            assert_eq!(chips.len(), p.view.num_chips());
        }
        // A rank-2 mesh yields its two orientations.
        let flat = MeshView::full(MeshShape::new(4, 2)).planes();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].view.num_chips(), 8);
    }

    #[test]
    fn plane_as_torus_relabels_densely() {
        let plane = MeshView::full(pod()).select(AxisName::Z, 1).unwrap();
        let (torus, mapping) = plane.as_torus2d().unwrap();
        assert_eq!((torus.rows(), torus.cols()), (4, 4));
        assert_eq!(mapping.len(), 16);
        for logical in torus.chips() {
            let coord = torus.coord_of(logical);
            let physical = plane.chip_at(Coord::new(coord.row(), coord.col())).unwrap();
            assert_eq!(mapping[logical.index()], physical);
        }
        assert!(matches!(
            MeshView::full(pod()).as_torus2d(),
            Err(MeshError::NotRank2 { got: 3 })
        ));
    }
}
