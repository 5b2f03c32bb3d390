//! Functional ring collectives over a simulated 2D mesh.
//!
//! These operations really move matrix data between per-chip buffers, so
//! [`Plan::interpret`](crate::Plan::interpret) can check every algorithm
//! numerically against dense GeMM. Timing is modeled elsewhere
//! (`meshslice-sim`); this module is purely about *what* each collective
//! computes:
//!
//! - [`all_gather`]: ring AllGather (`AG_row` / `AG_col` of the paper).
//! - [`reduce_scatter`]: ring ReduceScatter (`RdS_row` / `RdS_col`).
//! - [`degraded_all_gather`] / [`degraded_reduce_scatter`]: the same
//!   collectives on rings re-formed around one permanently failed rank.
//!
//! All operations take the full cluster state (one [`Matrix`] per chip, in
//! [`ChipId`] order) and return the new cluster state, which keeps the
//! executor deterministic and single-threaded.
//!
//! # Example
//!
//! ```
//! use meshslice_gemm::all_gather;
//! use meshslice_mesh::{CommAxis, Torus2d};
//! use meshslice_tensor::Matrix;
//!
//! let mesh = Torus2d::new(2, 1);
//! let shards = vec![Matrix::identity(1), Matrix::zeros(1, 1)];
//! // InterRow all-gather stacks the column's shards vertically on each chip.
//! let gathered = all_gather(&mesh, CommAxis::InterRow, &shards);
//! assert_eq!(gathered[0].dims(), (2, 1));
//! assert_eq!(gathered[0], gathered[1]);
//! ```

use meshslice_mesh::{ChipId, CommAxis, Torus2d};
use meshslice_tensor::Matrix;

/// Concatenates per-ring shards on every chip (ring AllGather).
///
/// For [`CommAxis::InterRow`] the result on every chip of a mesh column is
/// the vertical stack of that column's shards (in mesh-row order); for
/// [`CommAxis::InterCol`] it is the horizontal concatenation of the row's
/// shards (in mesh-column order). This matches the shard layout convention
/// of §2.3.1: shard `(i, j)` holds the `(i, j)` block of the global matrix.
///
/// # Panics
///
/// Panics if `shards.len() != mesh.num_chips()` or shard dimensions are
/// incompatible within a ring.
pub fn all_gather(mesh: &Torus2d, axis: CommAxis, shards: &[Matrix]) -> Vec<Matrix> {
    ring_walk(mesh, axis, None, shards, |parts| gather(axis, parts))
}

/// Sums per-ring partials and scatters the result (ring ReduceScatter).
///
/// Every chip contributes a full-size partial; the element-wise sum over the
/// ring is split evenly (by rows for [`CommAxis::InterRow`], by columns for
/// [`CommAxis::InterCol`]) and the chip at ring position `p` receives part
/// `p`.
///
/// # Panics
///
/// Panics if the state size is wrong, partials within a ring have different
/// dimensions, or the scatter dimension is not divisible by the ring length.
pub fn reduce_scatter(mesh: &Torus2d, axis: CommAxis, partials: &[Matrix]) -> Vec<Matrix> {
    ring_walk(mesh, axis, None, partials, |parts| scatter(axis, parts))
}

/// Ring AllGather with one permanently failed rank: the ring through
/// `dead` is re-formed from its survivors (in original ring order), and
/// the gather concatenates only *their* shards — after a failure the
/// global matrix has been redistributed over the surviving ranks (the
/// dead rank's shard was restored from checkpoint onto its successor), so
/// the survivors' shards alone partition it.
///
/// Rings that do not contain `dead` behave exactly like [`all_gather`].
/// The dead chip's slot in the returned state is its input, passed
/// through unchanged — it must be ignored by the caller.
///
/// # Panics
///
/// Panics if the state size is wrong, `dead` is outside the mesh, or
/// shard dimensions are incompatible within a re-formed ring.
pub fn degraded_all_gather(
    mesh: &Torus2d,
    axis: CommAxis,
    dead: ChipId,
    shards: &[Matrix],
) -> Vec<Matrix> {
    ring_walk(mesh, axis, Some(dead), shards, |parts| gather(axis, parts))
}

/// Ring ReduceScatter with one permanently failed rank: the ring through
/// `dead` is re-formed from its survivors, their partials (which, after
/// redistribution, sum to the full result on their own) are summed, and
/// the sum is split evenly over the *surviving* ring positions — the chip
/// at re-formed position `p` receives part `p`.
///
/// Rings that do not contain `dead` behave exactly like
/// [`reduce_scatter`]. The dead chip's slot in the returned state is its
/// input, passed through unchanged — it must be ignored by the caller.
///
/// # Panics
///
/// Panics if the state size is wrong, `dead` is outside the mesh,
/// partials within a re-formed ring have different dimensions, or the
/// scatter dimension is not divisible by the survivor count.
pub fn degraded_reduce_scatter(
    mesh: &Torus2d,
    axis: CommAxis,
    dead: ChipId,
    partials: &[Matrix],
) -> Vec<Matrix> {
    ring_walk(mesh, axis, Some(dead), partials, |parts| {
        scatter(axis, parts)
    })
}

/// The one ring walk behind every collective: for each ring of `axis`, the
/// inputs of its live members (all of them, unless `dead` is one) go to
/// `collective`, whose outputs land on those members in ring order. A ring
/// with no dead member is the healthy collective. The dead chip's slot
/// passes its input through.
fn ring_walk(
    mesh: &Torus2d,
    axis: CommAxis,
    dead: Option<ChipId>,
    state: &[Matrix],
    collective: impl Fn(Vec<Matrix>) -> Vec<Matrix>,
) -> Vec<Matrix> {
    assert_eq!(
        state.len(),
        mesh.num_chips(),
        "cluster state has {} entries for a {}-chip mesh",
        state.len(),
        mesh.num_chips()
    );
    if let Some(dead) = dead {
        assert!(
            dead.index() < mesh.num_chips(),
            "dead rank {} outside {}-chip mesh",
            dead.index(),
            mesh.num_chips()
        );
    }
    let mut out: Vec<Option<Matrix>> = vec![None; mesh.num_chips()];
    for ring in mesh.rings(axis) {
        let live: Vec<ChipId> = ring
            .members()
            .iter()
            .copied()
            .filter(|&c| Some(c) != dead)
            .collect();
        if live.is_empty() {
            // A singleton ring of just the dead chip: nothing to move.
            continue;
        }
        let parts = live.iter().map(|c| state[c.index()].clone()).collect();
        for (chip, m) in live.iter().zip(collective(parts)) {
            out[chip.index()] = Some(m);
        }
    }
    if let Some(dead) = dead {
        out[dead.index()] = Some(state[dead.index()].clone());
    }
    out.into_iter()
        .map(|m| m.expect("ring covered chip"))
        .collect()
}

/// AllGather on one ring: every member gets the concatenation of `parts`.
fn gather(axis: CommAxis, parts: Vec<Matrix>) -> Vec<Matrix> {
    let gathered = match axis {
        CommAxis::InterRow => Matrix::vcat(&parts),
        CommAxis::InterCol => Matrix::hcat(&parts),
    };
    vec![gathered; parts.len()]
}

/// ReduceScatter on one ring: the sum of `parts`, split evenly over the
/// members in ring order.
fn scatter(axis: CommAxis, parts: Vec<Matrix>) -> Vec<Matrix> {
    let n = parts.len();
    let mut parts = parts.into_iter();
    let mut sum = parts.next().expect("a ring has a member");
    for p in parts {
        sum += &p;
    }
    match axis {
        CommAxis::InterRow => sum.vsplit(n),
        CommAxis::InterCol => sum.hsplit(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshslice_tensor::shard::ShardGrid;

    fn state_from_grid(grid: &ShardGrid) -> Vec<Matrix> {
        grid.iter().map(|(_, s)| s.clone()).collect()
    }

    #[test]
    fn all_gather_inter_col_reassembles_rows() {
        // AG_col on a row gathers the row's shards side by side: the result
        // on chip (i, j) is the full i-th block row of the global matrix.
        let global = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let mesh = Torus2d::new(2, 3);
        let grid = ShardGrid::partition(&global, 2, 3);
        let gathered = all_gather(&mesh, CommAxis::InterCol, &state_from_grid(&grid));
        for chip in mesh.chips() {
            let coord = mesh.coord_of(chip);
            let expect = global.block(coord.row() * 2, 0, 2, 6);
            assert_eq!(gathered[chip.index()], expect, "chip {coord}");
        }
    }

    #[test]
    fn all_gather_inter_row_reassembles_cols() {
        let global = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f32);
        let mesh = Torus2d::new(3, 2);
        let grid = ShardGrid::partition(&global, 3, 2);
        let gathered = all_gather(&mesh, CommAxis::InterRow, &state_from_grid(&grid));
        for chip in mesh.chips() {
            let coord = mesh.coord_of(chip);
            let expect = global.block(0, coord.col() * 2, 6, 2);
            assert_eq!(gathered[chip.index()], expect, "chip {coord}");
        }
    }

    #[test]
    fn reduce_scatter_sums_and_splits() {
        let mesh = Torus2d::new(1, 3);
        // Each chip contributes a 1x6 partial of all ones.
        let partials = vec![Matrix::from_fn(1, 6, |_, _| 1.0); 3];
        let scattered = reduce_scatter(&mesh, CommAxis::InterCol, &partials);
        for (j, part) in scattered.iter().enumerate() {
            assert_eq!(part.dims(), (1, 2), "chip {j}");
            assert!(part.as_slice().iter().all(|&v| v == 3.0));
        }
    }

    #[test]
    fn reduce_scatter_positions_match_shard_layout() {
        // Chip at ring position p must receive the p-th split, so that
        // the scattered output lands where shard (p, j) lives.
        let mesh = Torus2d::new(2, 1);
        let a = Matrix::from_fn(4, 1, |i, _| i as f32);
        let partials = vec![a.clone(), Matrix::zeros(4, 1)];
        let scattered = reduce_scatter(&mesh, CommAxis::InterRow, &partials);
        assert_eq!(scattered[0].as_slice(), &[0.0, 1.0]);
        assert_eq!(scattered[1].as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn all_gather_then_reduce_scatter_round_trips() {
        // RdS of P identical copies divided by P returns the AG inputs.
        let mesh = Torus2d::new(4, 1);
        let shards: Vec<Matrix> = (0..4).map(|i| Matrix::random(2, 3, i as u64)).collect();
        let gathered = all_gather(&mesh, CommAxis::InterRow, &shards);
        let mut scattered = reduce_scatter(&mesh, CommAxis::InterRow, &gathered);
        for (back, orig) in scattered.iter_mut().zip(&shards) {
            back.scale(1.0 / 4.0);
            assert!(back.approx_eq(orig, 1e-6));
        }
    }

    #[test]
    #[should_panic(expected = "cluster state has")]
    fn wrong_state_size_panics() {
        let mesh = Torus2d::new(2, 2);
        all_gather(&mesh, CommAxis::InterRow, &[Matrix::zeros(1, 1)]);
    }

    #[test]
    fn degraded_all_gather_reassembles_from_survivors() {
        // A 4x1 column ring loses chip 2; the global matrix is
        // redistributed over the 3 survivors, who gather it back whole.
        let mesh = Torus2d::new(4, 1);
        let dead = ChipId(2);
        let global = Matrix::from_fn(6, 2, |i, j| (i * 2 + j) as f32);
        let grid = ShardGrid::partition(&global, 3, 1);
        let live_shards = state_from_grid(&grid);
        let mut state = vec![Matrix::zeros(1, 1); 4];
        let mut next = live_shards.into_iter();
        for chip in mesh.chips() {
            if chip != dead {
                state[chip.index()] = next.next().unwrap();
            }
        }
        let gathered = degraded_all_gather(&mesh, CommAxis::InterRow, dead, &state);
        for chip in mesh.chips() {
            if chip == dead {
                assert_eq!(gathered[chip.index()], state[chip.index()]); // passthrough
            } else {
                assert_eq!(gathered[chip.index()], global, "chip {chip:?}");
            }
        }
    }

    #[test]
    fn degraded_all_gather_leaves_other_rings_healthy() {
        // On a 2x2 mesh the InterRow rings are the two columns; killing a
        // chip in column 1 must not disturb column 0's gather.
        let mesh = Torus2d::new(2, 2);
        let shards: Vec<Matrix> = (0..4).map(|i| Matrix::random(1, 2, i as u64)).collect();
        let healthy = all_gather(&mesh, CommAxis::InterRow, &shards);
        let degraded = degraded_all_gather(&mesh, CommAxis::InterRow, ChipId(3), &shards);
        assert_eq!(degraded[0], healthy[0]);
        assert_eq!(degraded[2], healthy[2]);
    }

    #[test]
    fn degraded_reduce_scatter_sums_survivor_partials() {
        // Row ring of 4 loses chip 1: the 3 survivors' partials carry the
        // full sum, scattered 3 ways in surviving ring order.
        let mesh = Torus2d::new(1, 4);
        let dead = ChipId(1);
        let mut partials: Vec<Matrix> = (0..4).map(|i| Matrix::random(2, 6, i as u64)).collect();
        // Dense single-chip reference: the survivors' sum.
        let mut reference = Matrix::zeros(2, 6);
        for (i, p) in partials.iter().enumerate() {
            if i != dead.index() {
                reference += p;
            }
        }
        // Poison the dead chip's partial: it must never be read.
        partials[dead.index()] = Matrix::from_fn(2, 6, |_, _| f32::NAN);
        let scattered = degraded_reduce_scatter(&mesh, CommAxis::InterCol, dead, &partials);
        let expect = reference.hsplit(3);
        for (p, chip) in [ChipId(0), ChipId(2), ChipId(3)].into_iter().enumerate() {
            assert!(
                scattered[chip.index()].approx_eq(&expect[p], 1e-6),
                "chip {chip:?}"
            );
        }
    }

    #[test]
    fn degraded_gather_scatter_round_trips() {
        // AG over survivors then RdS of the identical copies divided by
        // the survivor count returns the survivors' inputs.
        let mesh = Torus2d::new(4, 1);
        let dead = ChipId(0);
        let mut state: Vec<Matrix> = (0..4).map(|i| Matrix::random(2, 3, i as u64)).collect();
        state[dead.index()] = Matrix::from_fn(2, 3, |_, _| f32::NAN);
        let gathered = degraded_all_gather(&mesh, CommAxis::InterRow, dead, &state);
        let mut scattered = degraded_reduce_scatter(&mesh, CommAxis::InterRow, dead, &gathered);
        for chip in mesh.chips().filter(|&c| c != dead) {
            let back = &mut scattered[chip.index()];
            back.scale(1.0 / 3.0);
            assert!(back.approx_eq(&state[chip.index()], 1e-6), "chip {chip:?}");
        }
    }

    #[test]
    fn singleton_ring_of_the_dead_chip_passes_through() {
        let mesh = Torus2d::new(1, 1);
        let state = vec![Matrix::random(2, 2, 7)];
        let out = degraded_all_gather(&mesh, CommAxis::InterRow, ChipId(0), &state);
        assert_eq!(out[0], state[0]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn degraded_collective_rejects_missing_rank() {
        let mesh = Torus2d::new(2, 2);
        let state = vec![Matrix::zeros(1, 1); 4];
        degraded_reduce_scatter(&mesh, CommAxis::InterRow, ChipId(9), &state);
    }
}
