//! The 2D torus cluster topology — a thin rank-2 specialization of the
//! N-D shape/view algebra.

use std::fmt;

use crate::{AxisName, ChipId, CommAxis, Coord, LinkDir, MeshError, MeshShape, MeshView, Ring};

/// A cluster of chips connected as a `rows × cols` 2D torus.
///
/// Chips are numbered row-major: chip `(i, j)` has id `i · cols + j`. Every
/// chip has four ICI links ([`LinkDir`]); each mesh row and each mesh column
/// forms a physical ring, which is what makes the efficient ring AllGather /
/// ReduceScatter collectives of the paper possible.
///
/// `Torus2d` is the rank-2 specialization of the N-D algebra: it wraps a
/// rank-2 [`MeshShape`] (axes `x`, `y`), its indexing is the shape's
/// row-major strided indexing, and its rings are the view's rings along
/// the corresponding axis.
/// [`view`](Torus2d::view) exposes the full algebra — select, flatten,
/// planes — on the same chips.
///
/// A 1D ring of `n` chips (used by the paper's 1D TP and FSDP baselines) is
/// the degenerate torus `Torus2d::new(n, 1)`.
///
/// # Example
///
/// ```
/// use meshslice_mesh::{Coord, LinkDir, Torus2d};
///
/// let mesh = Torus2d::new(2, 3);
/// let c = Coord::new(1, 2);
/// assert_eq!(mesh.neighbor(c, LinkDir::ColPlus), Coord::new(1, 0)); // wraps
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Torus2d {
    shape: MeshShape,
}

impl Torus2d {
    /// Creates a torus with the given number of mesh rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self::try_new(rows, cols).expect("mesh dimensions must be positive")
    }

    /// Fallible [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// [`MeshError::ZeroAxis`] when a dimension is zero.
    pub(crate) fn try_new(rows: usize, cols: usize) -> Result<Self, MeshError> {
        Ok(Torus2d {
            shape: MeshShape::try_new(rows, cols)?,
        })
    }

    /// Creates a torus from a rank-2 [`MeshShape`].
    ///
    /// # Panics
    ///
    /// Panics if the shape is not rank 2.
    pub fn from_shape(shape: MeshShape) -> Self {
        Self::try_from_shape(shape).expect("Torus2d needs a rank-2 shape")
    }

    /// Fallible [`from_shape`](Self::from_shape).
    ///
    /// # Errors
    ///
    /// [`MeshError::NotRank2`] for shapes of any other rank.
    pub(crate) fn try_from_shape(shape: MeshShape) -> Result<Self, MeshError> {
        if shape.rank() != 2 {
            return Err(MeshError::NotRank2 { got: shape.rank() });
        }
        Ok(Torus2d { shape })
    }

    /// The mesh shape.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// The identity [`MeshView`] of this torus — the door into the N-D
    /// algebra (select, slice, flatten, planes, …).
    pub fn view(&self) -> MeshView {
        MeshView::full(self.shape)
    }

    /// Number of mesh rows `Pr`.
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Number of mesh columns `Pc`.
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Total number of chips.
    pub fn num_chips(&self) -> usize {
        self.shape.num_chips()
    }

    /// The chip id at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn chip_at(&self, coord: Coord) -> ChipId {
        match self.try_chip_at(coord) {
            Ok(chip) => chip,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`chip_at`](Self::chip_at).
    ///
    /// # Errors
    ///
    /// [`MeshError::CoordOutOfRange`] or [`MeshError::RankMismatch`].
    pub(crate) fn try_chip_at(&self, coord: Coord) -> Result<ChipId, MeshError> {
        self.shape.index_of(coord).map(ChipId)
    }

    /// The coordinate of a chip id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn coord_of(&self, chip: ChipId) -> Coord {
        match self.try_coord_of(chip) {
            Ok(coord) => coord,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`coord_of`](Self::coord_of).
    ///
    /// # Errors
    ///
    /// [`MeshError::ChipOutOfRange`].
    pub(crate) fn try_coord_of(&self, chip: ChipId) -> Result<Coord, MeshError> {
        self.shape.coord_at(chip.index())
    }

    /// All chips, in row-major order.
    pub fn chips(&self) -> impl Iterator<Item = ChipId> {
        (0..self.num_chips()).map(ChipId)
    }

    /// The neighbor of `coord` across the given link (with torus wrap).
    pub fn neighbor(&self, coord: Coord, dir: LinkDir) -> Coord {
        let (r, c) = (coord.row(), coord.col());
        match dir {
            LinkDir::RowPlus => Coord::new((r + 1) % self.rows(), c),
            LinkDir::RowMinus => Coord::new((r + self.rows() - 1) % self.rows(), c),
            LinkDir::ColPlus => Coord::new(r, (c + 1) % self.cols()),
            LinkDir::ColMinus => Coord::new(r, (c + self.cols() - 1) % self.cols()),
        }
    }

    /// The neighbor chip id across the given link.
    pub fn neighbor_chip(&self, chip: ChipId, dir: LinkDir) -> ChipId {
        self.chip_at(self.neighbor(self.coord_of(chip), dir))
    }

    /// The ring a collective on `axis` would use from the point of view of
    /// `coord`:
    ///
    /// - [`CommAxis::InterRow`]: the chips of `coord`'s mesh **column**, in
    ///   increasing row order (a vertical ring of length `Pr`).
    /// - [`CommAxis::InterCol`]: the chips of `coord`'s mesh **row**, in
    ///   increasing column order (a horizontal ring of length `Pc`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn ring_through(&self, coord: Coord, axis: CommAxis) -> Ring {
        // Fix the *other* axis at this coordinate's position and walk the
        // ring axis — `select` + `ring_along` on the identity view.
        let (ring_axis, fixed_axis, fixed_at) = match axis {
            CommAxis::InterRow => (AxisName::X, AxisName::Y, coord.col()),
            CommAxis::InterCol => (AxisName::Y, AxisName::X, coord.row()),
        };
        // Validate the full coordinate (not just the fixed component) to
        // keep the historical out-of-mesh panic.
        self.chip_at(coord);
        let line = self
            .view()
            .select(fixed_axis, fixed_at)
            .expect("coordinate validated above");
        let mut rings = line.ring_along(ring_axis).expect("ring axis remains");
        debug_assert_eq!(rings.len(), 1);
        rings.remove(0)
    }

    /// All distinct rings on `axis`: one per mesh column for
    /// [`CommAxis::InterRow`], one per mesh row for [`CommAxis::InterCol`].
    pub fn rings(&self, axis: CommAxis) -> Vec<Ring> {
        self.view()
            .ring_along(axis.axis_name())
            .expect("2D axes always exist")
    }

    /// The ring length of a collective on `axis` (`Pr` for inter-row, `Pc`
    /// for inter-col).
    pub fn ring_len(&self, axis: CommAxis) -> usize {
        match axis {
            CommAxis::InterRow => self.rows(),
            CommAxis::InterCol => self.cols(),
        }
    }
}

impl fmt::Debug for Torus2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Torus2d({})", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_coord_round_trip() {
        let mesh = Torus2d::new(3, 4);
        for chip in mesh.chips() {
            assert_eq!(mesh.chip_at(mesh.coord_of(chip)), chip);
        }
        assert_eq!(mesh.chip_at(Coord::new(2, 3)), ChipId(11));
    }

    #[test]
    fn neighbors_wrap_around() {
        let mesh = Torus2d::new(2, 3);
        assert_eq!(
            mesh.neighbor(Coord::new(1, 0), LinkDir::RowPlus),
            Coord::new(0, 0)
        );
        assert_eq!(
            mesh.neighbor(Coord::new(0, 0), LinkDir::RowMinus),
            Coord::new(1, 0)
        );
        assert_eq!(
            mesh.neighbor(Coord::new(0, 2), LinkDir::ColPlus),
            Coord::new(0, 0)
        );
        assert_eq!(
            mesh.neighbor(Coord::new(0, 0), LinkDir::ColMinus),
            Coord::new(0, 2)
        );
    }

    #[test]
    fn opposite_links_invert() {
        let mesh = Torus2d::new(4, 4);
        for chip in mesh.chips() {
            let c = mesh.coord_of(chip);
            for d in LinkDir::ALL {
                assert_eq!(mesh.neighbor(mesh.neighbor(c, d), d.opposite()), c);
            }
        }
    }

    #[test]
    fn vertical_ring_is_the_column() {
        let mesh = Torus2d::new(4, 2);
        let ring = mesh.ring_through(Coord::new(2, 1), CommAxis::InterRow);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.axis(), CommAxis::InterRow);
        let coords: Vec<_> = ring.members().iter().map(|&c| mesh.coord_of(c)).collect();
        assert!(coords.iter().all(|c| c.col() == 1));
        assert_eq!(coords[0].row(), 0);
        assert_eq!(coords[3].row(), 3);
    }

    #[test]
    fn horizontal_ring_is_the_row() {
        let mesh = Torus2d::new(4, 3);
        let ring = mesh.ring_through(Coord::new(2, 1), CommAxis::InterCol);
        assert_eq!(ring.len(), 3);
        assert!(ring.members().iter().all(|&c| mesh.coord_of(c).row() == 2));
    }

    #[test]
    fn ring_neighbors_are_torus_neighbors() {
        // Member order of a ring must follow physical links: the forward
        // neighbor on an inter-row ring is the RowPlus neighbor.
        let mesh = Torus2d::new(4, 4);
        for axis in [CommAxis::InterRow, CommAxis::InterCol] {
            let ring = mesh.ring_through(Coord::new(0, 0), axis);
            for &chip in ring.members() {
                assert_eq!(
                    ring.next(chip),
                    mesh.neighbor_chip(chip, axis.forward_link())
                );
            }
        }
    }

    #[test]
    fn rings_partition_the_mesh() {
        let mesh = Torus2d::new(3, 5);
        for axis in [CommAxis::InterRow, CommAxis::InterCol] {
            let rings = mesh.rings(axis);
            let mut all: Vec<_> = rings
                .iter()
                .flat_map(|r| r.members().iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, mesh.chips().collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_d_ring_as_degenerate_torus() {
        let ring = Torus2d::new(8, 1);
        assert_eq!(ring.ring_len(CommAxis::InterRow), 8);
        assert_eq!(ring.ring_len(CommAxis::InterCol), 1);
        let r = ring.ring_through(Coord::new(0, 0), CommAxis::InterRow);
        assert_eq!(r.len(), 8);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_mesh_coordinate_panics() {
        Torus2d::new(2, 2).chip_at(Coord::new(2, 0));
    }

    #[test]
    fn typed_errors_replace_panics() {
        assert!(matches!(
            Torus2d::try_new(0, 2),
            Err(MeshError::ZeroAxis { .. })
        ));
        let mesh = Torus2d::new(2, 2);
        assert!(matches!(
            mesh.try_chip_at(Coord::new(2, 0)),
            Err(MeshError::CoordOutOfRange { .. })
        ));
        assert!(matches!(
            mesh.try_coord_of(ChipId(4)),
            Err(MeshError::ChipOutOfRange { .. })
        ));
        let pod = MeshShape::nd(&[("x", 2), ("y", 2), ("z", 2)]).unwrap();
        assert!(matches!(
            Torus2d::try_from_shape(pod),
            Err(MeshError::NotRank2 { got: 3 })
        ));
    }

    #[test]
    fn torus_rings_match_view_algebra() {
        let mesh = Torus2d::new(3, 4);
        for axis in [CommAxis::InterRow, CommAxis::InterCol] {
            let via_view = mesh.view().ring_along(axis.axis_name()).unwrap();
            assert_eq!(mesh.rings(axis), via_view);
        }
    }
}
