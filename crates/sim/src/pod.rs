//! Pod-scale (N-D) cluster condition and its projection onto 2D planes.
//!
//! A [`PodProfile`] describes the static health of an N-D torus pod —
//! per-chip compute slowdowns and per-(chip, axis, direction) link
//! degradations — in *physical* pod terms. The 2D engine never sees the
//! pod directly: [`PodProfile::project`] restricts the pod condition to a
//! rank-2 [`MeshView`] (typically one plane from [`MeshView::planes`]),
//! relabels the plane's chips as a dense logical [`Torus2d`], and emits
//! the corresponding [`ClusterProfile`] keyed by logical chip and
//! [`LinkDir`]. MeshSlice then runs unchanged on the plane, priced under
//! the plane's actual faults.
//!
//! The pod condition is static (multipliers only); transient
//! [`LinkOutage`](crate::LinkOutage) windows stay a 2D-profile concern and
//! can be layered onto the projected profile afterwards.

use meshslice_mesh::{
    AxisName, ChipId, HopLink, LinkDir, MeshError, MeshShape, MeshView, Torus2d, MAX_AXES,
};

use crate::perturb::ClusterProfile;

/// The static condition of an N-D torus pod.
///
/// # Example
///
/// ```
/// use meshslice_mesh::{AxisName, MeshShape, MeshView};
/// use meshslice_sim::PodProfile;
///
/// let pod_shape = MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap();
/// let pod = PodProfile::ideal(pod_shape)
///     .with_compute_slowdown(meshslice_mesh::ChipId(0), 2.0);
/// let plane = &MeshView::full(pod_shape).planes()[0]; // x×y @ z=0
/// let proj = pod.project(&plane.view).unwrap();
/// assert_eq!(proj.torus.num_chips(), 16);
/// assert_eq!(proj.profile.compute_slowdown(0), 2.0); // chip 0 is on z=0
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PodProfile {
    shape: MeshShape,
    /// Per-chip compute-time multipliers (`>= 1` slows the chip down).
    compute_slowdown: Vec<f64>,
    /// Per-(chip, axis, direction) static bandwidth multipliers in
    /// `(0, 1]`; `[axis][0]` is the `+` direction, `[axis][1]` the `−`.
    link_multiplier: Vec<[[f64; 2]; MAX_AXES]>,
}

/// A pod plane bound to the 2D machinery: the dense logical torus, the
/// physical chip each logical chip stands for, and the plane-local fault
/// profile.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaneAssignment {
    /// The dense logical torus the 2D engine and algorithms run on.
    pub torus: Torus2d,
    /// `physical[i]` is the pod chip playing logical [`ChipId`]`(i)`.
    pub physical: Vec<ChipId>,
    /// The pod condition restricted to the plane, in logical chip ids.
    pub profile: ClusterProfile,
}

impl PodProfile {
    /// The fault-free condition of a pod: all multipliers `1.0`.
    pub fn ideal(shape: MeshShape) -> Self {
        let n = shape.num_chips();
        PodProfile {
            shape,
            compute_slowdown: vec![1.0; n],
            link_multiplier: vec![[[1.0; 2]; MAX_AXES]; n],
        }
    }

    /// The pod's physical shape.
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Number of chips in the pod.
    pub fn num_chips(&self) -> usize {
        self.compute_slowdown.len()
    }

    /// Whether every multiplier is exactly `1.0`.
    pub fn is_ideal(&self) -> bool {
        self.compute_slowdown.iter().all(|&f| f == 1.0)
            && self
                .link_multiplier
                .iter()
                .all(|axes| axes.iter().all(|dirs| dirs.iter().all(|&m| m == 1.0)))
    }

    /// Sets a chip's compute-time multiplier.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not finite and positive, or the chip is out
    /// of range.
    pub fn set_compute_slowdown(&mut self, chip: ChipId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compute slowdown {factor} must be finite and positive"
        );
        self.compute_slowdown[chip.0] = factor;
    }

    /// Builder-style [`set_compute_slowdown`](Self::set_compute_slowdown).
    pub fn with_compute_slowdown(mut self, chip: ChipId, factor: f64) -> Self {
        self.set_compute_slowdown(chip, factor);
        self
    }

    /// Sets the static bandwidth multiplier of one pod link: chip `chip`'s
    /// link along `axis`, `+` direction when `forward`.
    ///
    /// # Panics
    ///
    /// Panics unless the multiplier is in `(0, 1]`, the chip is in range,
    /// and `axis` names an axis of the pod shape.
    pub fn set_link_multiplier(
        &mut self,
        chip: ChipId,
        axis: AxisName,
        forward: bool,
        multiplier: f64,
    ) {
        assert!(
            multiplier > 0.0 && multiplier <= 1.0,
            "link multiplier {multiplier} must be in (0, 1]"
        );
        let a = self
            .shape
            .axis_index(axis)
            .unwrap_or_else(|| panic!("pod {} has no axis '{axis}'", self.shape));
        self.link_multiplier[chip.0][a][usize::from(!forward)] = multiplier;
    }

    /// Builder-style [`set_link_multiplier`](Self::set_link_multiplier).
    pub fn with_link_multiplier(
        mut self,
        chip: ChipId,
        axis: AxisName,
        forward: bool,
        multiplier: f64,
    ) -> Self {
        self.set_link_multiplier(chip, axis, forward, multiplier);
        self
    }

    /// A chip's compute-time multiplier.
    pub fn compute_slowdown(&self, chip: ChipId) -> f64 {
        self.compute_slowdown[chip.0]
    }

    /// The static bandwidth multiplier of one pod link.
    ///
    /// # Panics
    ///
    /// Panics if `axis` does not name an axis of the pod shape.
    pub(crate) fn link_multiplier(&self, chip: ChipId, axis: AxisName, forward: bool) -> f64 {
        let a = self
            .shape
            .axis_index(axis)
            .unwrap_or_else(|| panic!("pod {} has no axis '{axis}'", self.shape));
        self.link_multiplier[chip.0][a][usize::from(!forward)]
    }

    /// The smallest link multiplier anywhere in the pod — the conservative
    /// rate assumed for multi-link routed hops, whose exact path the view
    /// algebra does not pin down.
    fn worst_link_multiplier(&self) -> f64 {
        let rank = self.shape.rank();
        self.link_multiplier
            .iter()
            .flat_map(|axes| axes[..rank].iter().flatten())
            .fold(1.0f64, |acc, &m| acc.min(m))
    }

    /// The effective multiplier of one resolved ring hop, taken in the
    /// hop's own direction.
    fn hop_multiplier(&self, from: ChipId, link: &HopLink) -> f64 {
        match link {
            HopLink::Direct { axis, forward, .. } => self.link_multiplier(from, *axis, *forward),
            // A routed hop crosses several links; without the concrete
            // path, bound its bandwidth by the pod's worst link.
            HopLink::Route { .. } => self.worst_link_multiplier(),
        }
    }

    /// Restricts the pod condition to a rank-2 view over this pod's shape,
    /// producing the logical torus, its physical chip assignment, and the
    /// plane-local [`ClusterProfile`].
    ///
    /// Logical link directions map through the view's ring hops: the hop
    /// from logical `(r, c)` to `(r+1, c)` prices that chip's
    /// [`LinkDir::RowPlus`] link, its reverse the neighbor's
    /// [`LinkDir::RowMinus`], and likewise for columns. Plane views
    /// (from [`MeshView::planes`]) resolve every hop to a single physical
    /// link; hops of flattened views that route across several links are
    /// conservatively priced at the pod's worst link multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::NotRank2`] for views of any other rank, and
    /// [`MeshError::RankMismatch`] if the view is not a view of this pod's
    /// shape.
    pub fn project(&self, view: &MeshView) -> Result<PlaneAssignment, MeshError> {
        if view.base() != self.shape {
            return Err(MeshError::RankMismatch {
                expected: self.shape.rank(),
                got: view.base().rank(),
            });
        }
        let (torus, physical) = view.as_torus2d()?;
        let logical_of = |chip: ChipId| -> usize {
            physical
                .iter()
                .position(|&p| p == chip)
                .expect("ring hops stay within the view's chips")
        };
        let mut profile = ClusterProfile::ideal(physical.len());
        for (l, &p) in physical.iter().enumerate() {
            let slowdown = self.compute_slowdown(p);
            if slowdown != 1.0 {
                profile.set_compute_slowdown(l, slowdown);
            }
        }
        let names = view.axis_names();
        for (name, plus, minus) in [
            (names[0], LinkDir::RowPlus, LinkDir::RowMinus),
            (names[1], LinkDir::ColPlus, LinkDir::ColMinus),
        ] {
            for ring in view.ring_hops(name)? {
                for hop in ring {
                    let fwd = self.hop_multiplier(hop.from, &hop.link);
                    if fwd != 1.0 {
                        profile.set_link_multiplier(logical_of(hop.from), plus, fwd);
                    }
                    // The reverse of the hop runs the opposite direction
                    // of the same physical link(s), from the receiver.
                    let back = match &hop.link {
                        HopLink::Direct { axis, forward, .. } => {
                            self.link_multiplier(hop.to, *axis, !forward)
                        }
                        HopLink::Route { .. } => self.worst_link_multiplier(),
                    };
                    if back != 1.0 {
                        profile.set_link_multiplier(logical_of(hop.to), minus, back);
                    }
                }
            }
        }
        Ok(PlaneAssignment {
            torus,
            physical,
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod3() -> MeshShape {
        MeshShape::nd(&[("x", 4), ("y", 4), ("z", 2)]).unwrap()
    }

    #[test]
    fn ideal_pod_projects_to_ideal_profiles_on_every_plane() {
        let pod = PodProfile::ideal(pod3());
        for plane in MeshView::full(pod3()).planes() {
            let proj = pod.project(&plane.view).unwrap();
            assert!(proj.profile.is_ideal(), "plane {plane}");
            assert_eq!(proj.torus.num_chips(), proj.physical.len());
        }
    }

    #[test]
    fn compute_slowdown_lands_on_the_right_logical_chip() {
        let shape = pod3();
        // Physical chip at (x=1, y=2, z=1): index 1*8 + 2*2 + 1 = 13.
        let victim = ChipId(13);
        let pod = PodProfile::ideal(shape).with_compute_slowdown(victim, 3.0);
        for plane in MeshView::full(shape).planes() {
            let proj = pod.project(&plane.view).unwrap();
            let hit = proj.physical.iter().position(|&p| p == victim);
            match hit {
                Some(l) => {
                    assert_eq!(proj.profile.compute_slowdown(l), 3.0, "plane {plane}");
                    // Nobody else slowed.
                    for other in 0..proj.physical.len() {
                        if other != l {
                            assert_eq!(proj.profile.compute_slowdown(other), 1.0);
                        }
                    }
                }
                None => assert!(proj.profile.is_ideal(), "plane {plane} avoids the victim"),
            }
        }
    }

    #[test]
    fn link_degradation_maps_to_logical_directions() {
        let shape = pod3();
        // Weaken chip (0,0,0)'s +x link.
        let pod = PodProfile::ideal(shape).with_link_multiplier(ChipId(0), AxisName::X, true, 0.5);
        // On the x×y @ z=0 plane, x is the row axis: logical chip 0's
        // RowPlus link is the degraded one.
        let plane = MeshView::full(shape).select(AxisName::Z, 0).unwrap();
        let proj = pod.project(&plane).unwrap();
        assert_eq!(proj.physical[0], ChipId(0));
        assert_eq!(proj.profile.base_link_multiplier(0, LinkDir::RowPlus), 0.5);
        assert_eq!(proj.profile.base_link_multiplier(0, LinkDir::RowMinus), 1.0);
        // On the y×x orientation the same physical link is a ColPlus.
        let flipped = plane.transpose();
        let proj = pod.project(&flipped).unwrap();
        let l = proj.physical.iter().position(|&p| p == ChipId(0)).unwrap();
        assert_eq!(proj.profile.base_link_multiplier(l, LinkDir::ColPlus), 0.5);
        // A z=1 plane never touches the degraded link.
        let clean = MeshView::full(shape).select(AxisName::Z, 1).unwrap();
        assert!(pod.project(&clean).unwrap().profile.is_ideal());
    }

    #[test]
    fn project_rejects_foreign_and_non_2d_views() {
        let pod = PodProfile::ideal(pod3());
        let other = MeshView::full(MeshShape::new(4, 4));
        assert!(pod.project(&other).is_err());
        let full3 = MeshView::full(pod3());
        assert!(matches!(
            pod.project(&full3),
            Err(MeshError::NotRank2 { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "has no axis")]
    fn unknown_axis_panics() {
        PodProfile::ideal(pod3()).with_link_multiplier(ChipId(0), AxisName::W, true, 0.5);
    }
}
