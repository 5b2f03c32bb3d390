//! Rings, communication axes, and ICI link directions.

use std::fmt;

use crate::{AxisName, ChipId};

/// The two directions a 2D GeMM communicates in, named with the paper's
/// subscript convention (§2.3, Figure 2):
///
/// - [`CommAxis::InterRow`] — "row"-subscripted operations (`AG_row`,
///   `RdS_row`, `bcast_row`): the shard moves *vertically* between the chips
///   of one mesh **column**.
/// - [`CommAxis::InterCol`] — "col"-subscripted operations (`AG_col`,
///   `RdS_col`, `bcast_col`): the shard moves *horizontally* between the
///   chips of one mesh **row**.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommAxis {
    /// Vertical communication within a mesh column (ring length = mesh rows).
    InterRow,
    /// Horizontal communication within a mesh row (ring length = mesh cols).
    InterCol,
}

impl CommAxis {
    /// The other axis.
    pub fn opposite(self) -> CommAxis {
        match self {
            CommAxis::InterRow => CommAxis::InterCol,
            CommAxis::InterCol => CommAxis::InterRow,
        }
    }

    /// The named mesh axis a ring on this communication axis runs along:
    /// inter-row rings advance along axis `x` (mesh rows), inter-col rings
    /// along axis `y` (mesh columns).
    pub(crate) fn axis_name(self) -> AxisName {
        match self {
            CommAxis::InterRow => AxisName::X,
            CommAxis::InterCol => AxisName::Y,
        }
    }

    /// The communication axis for a named 2D mesh axis (`x` or `y`).
    pub(crate) fn from_axis_name(name: AxisName) -> Option<CommAxis> {
        if name == AxisName::X {
            Some(CommAxis::InterRow)
        } else if name == AxisName::Y {
            Some(CommAxis::InterCol)
        } else {
            None
        }
    }

    /// The forward link direction a unidirectional ring on this axis uses.
    pub fn forward_link(self) -> LinkDir {
        match self {
            CommAxis::InterRow => LinkDir::RowPlus,
            CommAxis::InterCol => LinkDir::ColPlus,
        }
    }

    /// The backward link direction of a ring on this axis.
    pub fn backward_link(self) -> LinkDir {
        match self {
            CommAxis::InterRow => LinkDir::RowMinus,
            CommAxis::InterCol => LinkDir::ColMinus,
        }
    }
}

impl fmt::Display for CommAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommAxis::InterRow => write!(f, "inter-row"),
            CommAxis::InterCol => write!(f, "inter-col"),
        }
    }
}

/// One of the four ICI links of a chip in a 2D torus.
///
/// `RowPlus` points to the chip at `(row + 1, col)` (wrapping), `ColPlus`
/// to `(row, col + 1)`, and the `Minus` variants to the opposite neighbors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkDir {
    /// Towards `(row + 1, col)`.
    RowPlus,
    /// Towards `(row − 1, col)`.
    RowMinus,
    /// Towards `(row, col + 1)`.
    ColPlus,
    /// Towards `(row, col − 1)`.
    ColMinus,
}

impl LinkDir {
    /// All four directions.
    pub const ALL: [LinkDir; 4] = [
        LinkDir::RowPlus,
        LinkDir::RowMinus,
        LinkDir::ColPlus,
        LinkDir::ColMinus,
    ];

    /// A dense index in `0..4`, for per-link resource tables.
    pub fn index(self) -> usize {
        match self {
            LinkDir::RowPlus => 0,
            LinkDir::RowMinus => 1,
            LinkDir::ColPlus => 2,
            LinkDir::ColMinus => 3,
        }
    }

    /// The direction pointing back at the sender.
    pub fn opposite(self) -> LinkDir {
        match self {
            LinkDir::RowPlus => LinkDir::RowMinus,
            LinkDir::RowMinus => LinkDir::RowPlus,
            LinkDir::ColPlus => LinkDir::ColMinus,
            LinkDir::ColMinus => LinkDir::ColPlus,
        }
    }

    /// The communication axis this link belongs to.
    pub fn axis(self) -> CommAxis {
        match self {
            LinkDir::RowPlus | LinkDir::RowMinus => CommAxis::InterRow,
            LinkDir::ColPlus | LinkDir::ColMinus => CommAxis::InterCol,
        }
    }
}

/// Which axis a ring runs along: one of the two 2D communication axes, or
/// an arbitrary named axis of an N-D [`MeshView`](crate::MeshView).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum RingAxis {
    /// A 2D torus communication direction.
    Comm(CommAxis),
    /// A named axis of an N-D view.
    Named(AxisName),
}

/// An ordered ring of chips used by one collective operation.
///
/// `members[p]` sends to `members[(p + 1) % len]` when the ring runs in the
/// forward direction. Rings are produced by
/// [`Torus2d::ring_through`](crate::Torus2d::ring_through) (2D, member order
/// follows physically adjacent torus links) and by
/// the N-D rings along a [`MeshView`](crate::MeshView) axis (member order
/// follows the view axis).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ring {
    axis: RingAxis,
    members: Vec<ChipId>,
}

impl Ring {
    /// Creates a 2D ring from its ordered members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn new(axis: CommAxis, members: Vec<ChipId>) -> Self {
        Self::with_axis(RingAxis::Comm(axis), members)
    }

    /// Creates a ring along a named view axis.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn along(axis: AxisName, members: Vec<ChipId>) -> Self {
        // The two canonical 2D names keep their CommAxis identity so rings
        // built through the view algebra compare equal to torus rings.
        match CommAxis::from_axis_name(axis) {
            Some(comm) => Self::with_axis(RingAxis::Comm(comm), members),
            None => Self::with_axis(RingAxis::Named(axis), members),
        }
    }

    fn with_axis(axis: RingAxis, members: Vec<ChipId>) -> Self {
        assert!(!members.is_empty(), "a ring needs at least one member");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "ring members must be distinct");
        Ring { axis, members }
    }

    /// The communication axis of a 2D ring.
    ///
    /// # Panics
    ///
    /// Panics on rings along a non-2D named axis.
    pub fn axis(&self) -> CommAxis {
        match self.axis {
            RingAxis::Comm(axis) => axis,
            RingAxis::Named(name) => panic!("ring along '{name}' has no 2D comm axis"),
        }
    }

    /// Number of chips on the ring.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ring has no members. A built ring is never
    /// empty: the constructor asserts at least one member.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The ordered members.
    pub fn members(&self) -> &[ChipId] {
        &self.members
    }

    /// The ring position of `chip`, if it is a member.
    pub(crate) fn position_of(&self, chip: ChipId) -> Option<usize> {
        self.members.iter().position(|&c| c == chip)
    }

    /// The chip `steps` positions after `chip` in the forward direction.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is not on the ring.
    pub fn step_from(&self, chip: ChipId, steps: usize) -> ChipId {
        let pos = self
            .position_of(chip)
            .expect("chip is not a member of this ring");
        self.members[(pos + steps) % self.members.len()]
    }

    /// The forward neighbor (the chip this one sends to).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is not on the ring.
    pub fn next(&self, chip: ChipId) -> ChipId {
        self.step_from(chip, 1)
    }

    /// The backward neighbor (the chip this one receives from in a forward
    /// ring).
    ///
    /// # Panics
    ///
    /// Panics if `chip` is not on the ring.
    pub fn prev(&self, chip: ChipId) -> ChipId {
        self.step_from(chip, self.members.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Ring {
        Ring::new(CommAxis::InterRow, vec![ChipId(4), ChipId(7), ChipId(1)])
    }

    #[test]
    fn ring_navigation() {
        let r = ring3();
        assert_eq!(r.len(), 3);
        assert_eq!(r.next(ChipId(4)), ChipId(7));
        assert_eq!(r.next(ChipId(1)), ChipId(4));
        assert_eq!(r.prev(ChipId(4)), ChipId(1));
        assert_eq!(r.step_from(ChipId(7), 2), ChipId(4));
        assert_eq!(r.position_of(ChipId(7)), Some(1));
        assert_eq!(r.position_of(ChipId(0)), None);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn duplicate_members_panic() {
        Ring::new(CommAxis::InterCol, vec![ChipId(0), ChipId(0)]);
    }

    #[test]
    fn axis_link_mapping() {
        assert_eq!(CommAxis::InterRow.forward_link(), LinkDir::RowPlus);
        assert_eq!(CommAxis::InterCol.backward_link(), LinkDir::ColMinus);
        assert_eq!(CommAxis::InterRow.opposite(), CommAxis::InterCol);
        for d in LinkDir::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.axis(), d.opposite().axis());
        }
    }

    #[test]
    fn link_indices_are_dense_and_distinct() {
        let mut idx: Vec<_> = LinkDir::ALL.iter().map(|d| d.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn singleton_ring_is_detected() {
        let r = Ring::new(CommAxis::InterRow, vec![ChipId(0)]);
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
        assert_eq!(r.next(ChipId(0)), ChipId(0));
    }
}
