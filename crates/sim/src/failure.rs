//! Permanent-failure support types: mid-run chip death, abort/detection
//! outcomes, and the degraded-torus continuation profile.
//!
//! A [`ChipFailure`] delivered to [`Engine::run_observed`] freezes the
//! failed chip at its failure instant: every in-flight operation on the
//! chip stalls forever, and no new operation starts there. Live chips keep
//! running until one of them *stalls on the dead chip* — all of a blocked
//! node's remaining dependencies live on the failed chip — at which point
//! the per-ring-step neighbor-sync machinery notices: the sync that would
//! have released the node never arrives, and a watchdog declares the
//! failure detected one `sync_timeout` after the stall began. The engine
//! then aborts the run and reports an [`AbortInfo`]; checkpoint restore
//! and lost-work replay are modeled on top by `meshslice-recovery`.
//!
//! After a failure the cluster can continue on the surviving chips with
//! rings routed *around* the dead coordinate; [`degraded_torus_profile`]
//! prices that continuation as a [`ClusterProfile`] whose links touching
//! the dead chip run at the extra-hop bandwidth cost.
//!
//! [`Engine::run_observed`]: crate::Engine::run_observed

use meshslice_mesh::{ChipId, LinkDir, Torus2d};

use crate::perturb::ClusterProfile;
use crate::report::SimReport;
use crate::time::Duration;

/// A permanent chip failure to deliver mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChipFailure {
    /// The chip that dies.
    pub chip: usize,
    /// Simulation time of the failure, seconds (finite, non-negative).
    pub at: f64,
}

/// Why and when a failed run stopped, from
/// [`Engine::run_observed`](crate::Engine::run_observed).
#[derive(Clone, Debug, PartialEq)]
pub struct AbortInfo {
    /// When the chip failed.
    pub failure_time: Duration,
    /// When a surviving chip's neighbor-sync watchdog declared the
    /// failure (always at least `failure_time`; the gap is the detection
    /// latency the recovery model charges).
    pub detected_at: Duration,
    /// Lowered nodes that completed before the abort.
    pub completed_nodes: usize,
    /// Total lowered nodes of the program.
    pub total_nodes: usize,
}

/// The result of a run that may be interrupted by a permanent failure.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum FailureOutcome {
    /// The program finished before the failure mattered; the report is
    /// bit-for-bit what a failure-free run produces.
    Completed(SimReport),
    /// The failure interrupted the program.
    Aborted(AbortInfo),
}

impl FailureOutcome {
    /// The abort record, if the run was interrupted.
    pub fn aborted(&self) -> Option<&AbortInfo> {
        match self {
            FailureOutcome::Aborted(info) => Some(info),
            FailureOutcome::Completed(_) => None,
        }
    }

    /// The completed report, if the failure never bit.
    pub fn completed(&self) -> Option<&SimReport> {
        match self {
            FailureOutcome::Completed(report) => Some(report),
            FailureOutcome::Aborted(_) => None,
        }
    }

    /// The completed report by value, if the failure never bit.
    pub fn into_completed(self) -> Option<SimReport> {
        match self {
            FailureOutcome::Completed(report) => Some(report),
            FailureOutcome::Aborted(_) => None,
        }
    }
}

/// Bandwidth multiplier applied to links that must route around the dead
/// chip: traffic that used the direct link now takes two hops through a
/// neighboring ring, halving the effective bandwidth of the detour path.
pub(crate) const DETOUR_LINK_MULTIPLIER: f64 = 0.5;

/// The continuation profile of a torus that lost one chip: every link of
/// the dead coordinate, and each surviving neighbor's link pointing back
/// at it, runs at half bandwidth — the extra-hop cost of rings re-formed
/// around the hole.
///
/// The profile prices *degraded-mesh* execution; the redistribution of
/// the dead chip's shards is modeled functionally by
/// `meshslice-gemm`'s degraded collectives.
///
/// # Panics
///
/// Panics if `dead_chip` is outside the mesh.
pub fn degraded_torus_profile(mesh: &Torus2d, dead_chip: usize) -> ClusterProfile {
    assert!(
        dead_chip < mesh.num_chips(),
        "dead chip {dead_chip} outside {}-chip mesh",
        mesh.num_chips()
    );
    let mut profile = ClusterProfile::ideal(mesh.num_chips());
    let coord = mesh.coord_of(ChipId(dead_chip));
    for dir in LinkDir::ALL {
        profile.set_link_multiplier(dead_chip, dir, DETOUR_LINK_MULTIPLIER);
        let neighbor = mesh.chip_at(mesh.neighbor(coord, dir));
        if neighbor.index() != dead_chip {
            profile.set_link_multiplier(neighbor.index(), dir.opposite(), DETOUR_LINK_MULTIPLIER);
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_profile_slows_links_around_the_dead_chip() {
        let mesh = Torus2d::new(2, 2);
        let p = degraded_torus_profile(&mesh, 1);
        assert!(!p.is_ideal());
        for dir in LinkDir::ALL {
            assert_eq!(p.base_link_multiplier(1, dir), DETOUR_LINK_MULTIPLIER);
        }
        // Chip 0 is chip 1's ColMinus neighbor: its ColPlus link points at
        // the dead chip.
        assert_eq!(
            p.base_link_multiplier(0, LinkDir::ColPlus),
            DETOUR_LINK_MULTIPLIER
        );
        // Chip 2 shares no link with chip 1's row/col detour on this 2x2
        // torus beyond the wrap duplicates, so its RowPlus (towards chip 0)
        // stays nominal.
        assert_eq!(p.base_link_multiplier(2, LinkDir::RowPlus), 1.0);
    }

    #[test]
    fn degenerate_ring_sizes_do_not_panic() {
        for (r, c) in [(1, 1), (1, 2), (2, 1), (1, 4)] {
            let mesh = Torus2d::new(r, c);
            let p = degraded_torus_profile(&mesh, 0);
            assert_eq!(p.num_chips(), r * c);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_mesh_dead_chip_panics() {
        degraded_torus_profile(&Torus2d::new(2, 2), 4);
    }
}
