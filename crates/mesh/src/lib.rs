//! N-D mesh/layout algebra for the MeshSlice reproduction.
//!
//! Device meshes are N-D shapes with *named* axes ([`MeshShape`], e.g.
//! `[("x", 4), ("y", 4), ("z", 2)]`), indexed row-major. [`MeshView`] lays
//! a logical window over a shape and supports the view algebra — `select`/
//! `slice` (sub-mesh), `permute`/`transpose`, `flatten` (fold axes into one
//! logical ring), and `split` (factor an axis) — with every view still
//! resolving to physical [`ChipId`]s and per-hop link assignments
//! ([`MeshView::ring_hops`]).
//!
//! 2D tensor parallelism runs on the rank-2 specialization: a [`Torus2d`]
//! over axes `x` (mesh rows) and `y` (mesh columns). Every chip is
//! identified by a [`ChipId`] or equivalently a [`Coord`], and owns four
//! inter-chip interconnect (ICI) links, one per [`LinkDir`].
//!
//! Collective communication happens on *rings*: the chips of one mesh row
//! (a horizontal ring, used by the paper's `AG_col`/`RdS_col` inter-column
//! operations) or one mesh column (a vertical ring, used by `AG_row`/
//! `RdS_row` inter-row operations). [`CommAxis`] names the two options with
//! the paper's subscript convention; N-D rings run along any named axis
//! of a [`MeshView`] (see [`MeshView::ring_hops`]).
//!
//! # Example
//!
//! ```
//! use meshslice_mesh::{AxisName, CommAxis, Coord, MeshShape, MeshView, Torus2d};
//!
//! let mesh = Torus2d::new(4, 2);
//! assert_eq!(mesh.num_chips(), 8);
//! let ring = mesh.ring_through(Coord::new(1, 0), CommAxis::InterRow);
//! assert_eq!(ring.len(), 4); // the whole column of chip (1, 0)
//!
//! // The same chips through the N-D algebra: a 3D pod's z = 0 plane.
//! let pod = MeshShape::nd(&[("x", 4), ("y", 2), ("z", 2)]).unwrap();
//! let plane = MeshView::full(pod).select(AxisName::Z, 0).unwrap();
//! assert_eq!(plane.num_chips(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod axis;
mod coord;
mod error;
mod ring;
mod shape;
mod torus;
mod view;

pub use axis::AxisName;
pub use coord::{ChipId, Coord};
pub use error::MeshError;
pub use ring::{CommAxis, LinkDir, Ring};
pub use shape::{Axis, MeshShape, MAX_AXES};
pub use torus::Torus2d;
pub use view::{HopLink, MeshPlane, MeshView, RingHop};
