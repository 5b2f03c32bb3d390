//! Cluster-variability profiles: per-chip and per-link perturbations.
//!
//! A [`ClusterProfile`] describes one concrete *draw* of cluster
//! non-ideality — which chips are slow and by how much, which links run
//! degraded, and when links suffer transient outages. The profile itself
//! is plain data: generating profiles from stochastic fault models lives
//! in the `meshslice-faults` crate, so the simulator stays free of any
//! randomness and a run is reproducible from the profile alone.
//!
//! The engine consumes a profile (threaded through
//! [`SimConfig::faults`](crate::SimConfig)) at exactly two points:
//!
//! - a node occupying the chip's **compute unit** has its busy timer
//!   multiplied by [`compute_slowdown`](ClusterProfile::compute_slowdown),
//! - a node occupying a **link direction** has its flow-rate cap
//!   multiplied by
//!   [`link_multiplier_at`](ClusterProfile::link_multiplier_at), which
//!   combines the link's static degradation with any outage window active
//!   at that instant.
//!
//! Outage boundaries are pre-scheduled as simulation events, so in-flight
//! transfers are re-rated exactly at each edge. All multipliers default
//! to `1.0`, and multiplying an `f64` by exactly `1.0` is an identity in
//! IEEE-754 arithmetic — an ideal profile therefore reproduces the
//! unperturbed simulation bit-for-bit (and the engine skips the fault
//! path entirely for ideal profiles).

use meshslice_mesh::LinkDir;

/// A transient window during which one link direction runs at a reduced
/// bandwidth floor.
///
/// The window is half-open: the floor applies for `start <= t < end`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkOutage {
    /// Start of the outage, seconds of simulation time.
    pub start: f64,
    /// End of the outage, seconds of simulation time.
    pub end: f64,
    /// Bandwidth multiplier during the window, in `(0, 1]`.
    pub floor: f64,
}

impl LinkOutage {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= start < end` and `floor` is in `(0, 1]`.
    pub fn new(start: f64, end: f64, floor: f64) -> Self {
        assert!(
            start.is_finite() && end.is_finite() && start >= 0.0 && start < end,
            "invalid outage window [{start}, {end})"
        );
        assert!(
            floor > 0.0 && floor <= 1.0,
            "outage floor {floor} must be in (0, 1]"
        );
        LinkOutage { start, end, floor }
    }

    /// Whether the window covers time `t`.
    pub fn contains(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }
}

/// One concrete draw of cluster non-ideality.
///
/// # Example
///
/// ```
/// use meshslice_mesh::LinkDir;
/// use meshslice_sim::{ClusterProfile, LinkOutage};
///
/// let mut p = ClusterProfile::ideal(4);
/// p.set_compute_slowdown(2, 1.5); // chip 2 is a 1.5x straggler
/// p.set_link_multiplier(0, LinkDir::RowPlus, 0.8);
/// p.add_outage(1, LinkDir::ColPlus, LinkOutage::new(1e-3, 2e-3, 0.1));
/// assert!(!p.is_ideal());
/// assert_eq!(p.compute_slowdown(2), 1.5);
/// assert_eq!(p.link_multiplier_at(1, LinkDir::ColPlus, 1.5e-3), 0.1);
/// assert_eq!(p.link_multiplier_at(1, LinkDir::ColPlus, 3e-3), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterProfile {
    /// Per-chip compute-time multipliers (`>= 1` slows the chip down).
    compute_slowdown: Vec<f64>,
    /// Per-(chip, direction) static bandwidth multipliers in `(0, 1]`.
    link_multiplier: Vec<[f64; 4]>,
    /// Per-(chip, direction) outage windows, kept sorted by start and
    /// non-overlapping.
    outages: Vec<[Vec<LinkOutage>; 4]>,
}

impl ClusterProfile {
    /// The fault-free profile of a cluster: all multipliers `1.0`, no
    /// outages.
    pub fn ideal(num_chips: usize) -> Self {
        ClusterProfile {
            compute_slowdown: vec![1.0; num_chips],
            link_multiplier: vec![[1.0; 4]; num_chips],
            outages: (0..num_chips).map(|_| Default::default()).collect(),
        }
    }

    /// Number of chips this profile describes.
    pub fn num_chips(&self) -> usize {
        self.compute_slowdown.len()
    }

    /// Whether every multiplier is exactly `1.0` and no outage exists —
    /// i.e. simulation under this profile is identical to no profile.
    pub fn is_ideal(&self) -> bool {
        self.compute_slowdown.iter().all(|&f| f == 1.0)
            && self
                .link_multiplier
                .iter()
                .all(|dirs| dirs.iter().all(|&m| m == 1.0))
            && self
                .outages
                .iter()
                .all(|dirs| dirs.iter().all(|w| w.is_empty()))
    }

    /// Sets chip `chip`'s compute-time multiplier.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not finite and positive, or the chip is out
    /// of range.
    pub fn set_compute_slowdown(&mut self, chip: usize, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compute slowdown {factor} must be finite and positive"
        );
        self.compute_slowdown[chip] = factor;
    }

    /// Builder-style [`set_compute_slowdown`](Self::set_compute_slowdown).
    pub fn with_compute_slowdown(mut self, chip: usize, factor: f64) -> Self {
        self.set_compute_slowdown(chip, factor);
        self
    }

    /// Sets the static bandwidth multiplier of one link direction.
    ///
    /// # Panics
    ///
    /// Panics unless the multiplier is in `(0, 1]`.
    pub fn set_link_multiplier(&mut self, chip: usize, dir: LinkDir, multiplier: f64) {
        assert!(
            multiplier > 0.0 && multiplier <= 1.0,
            "link multiplier {multiplier} must be in (0, 1]"
        );
        self.link_multiplier[chip][dir.index()] = multiplier;
    }

    /// Builder-style [`set_link_multiplier`](Self::set_link_multiplier).
    pub fn with_link_multiplier(mut self, chip: usize, dir: LinkDir, multiplier: f64) -> Self {
        self.set_link_multiplier(chip, dir, multiplier);
        self
    }

    /// Adds an outage window to one link direction, keeping the window
    /// list sorted.
    ///
    /// # Panics
    ///
    /// Panics if the window overlaps an existing one on the same link.
    pub fn add_outage(&mut self, chip: usize, dir: LinkDir, outage: LinkOutage) {
        let windows = &mut self.outages[chip][dir.index()];
        assert!(
            windows
                .iter()
                .all(|w| outage.end <= w.start || w.end <= outage.start),
            "outage [{}, {}) overlaps an existing window",
            outage.start,
            outage.end
        );
        windows.push(outage);
        windows.sort_by(|a, b| a.start.total_cmp(&b.start));
    }

    /// Chip `chip`'s compute-time multiplier.
    pub fn compute_slowdown(&self, chip: usize) -> f64 {
        self.compute_slowdown[chip]
    }

    /// The static (outage-free) bandwidth multiplier of one link.
    pub fn base_link_multiplier(&self, chip: usize, dir: LinkDir) -> f64 {
        self.link_multiplier[chip][dir.index()]
    }

    /// The effective bandwidth multiplier of one link at time `t`: the
    /// static degradation, further reduced to the outage floor inside an
    /// outage window.
    pub fn link_multiplier_at(&self, chip: usize, dir: LinkDir, t: f64) -> f64 {
        let base = self.link_multiplier[chip][dir.index()];
        match self.outages[chip][dir.index()]
            .iter()
            .find(|w| w.contains(t))
        {
            Some(w) => base * w.floor,
            None => base,
        }
    }

    /// All outage boundaries (starts and ends) of one chip's four links,
    /// sorted and deduplicated. The engine schedules a re-rating event at
    /// each.
    pub(crate) fn edge_times(&self, chip: usize) -> Vec<f64> {
        let mut edges: Vec<f64> = self.outages[chip]
            .iter()
            .flatten()
            .flat_map(|w| [w.start, w.end])
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        edges
    }

    /// The outage windows of one link direction, sorted by start.
    pub fn outages(&self, chip: usize, dir: LinkDir) -> &[LinkOutage] {
        &self.outages[chip][dir.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_profile_is_ideal() {
        let p = ClusterProfile::ideal(8);
        assert!(p.is_ideal());
        assert_eq!(p.num_chips(), 8);
        for chip in 0..8 {
            assert_eq!(p.compute_slowdown(chip), 1.0);
            for dir in LinkDir::ALL {
                assert_eq!(p.link_multiplier_at(chip, dir, 0.5), 1.0);
            }
            assert!(p.edge_times(chip).is_empty());
        }
    }

    #[test]
    fn any_perturbation_breaks_ideality() {
        let slow = ClusterProfile::ideal(2).with_compute_slowdown(0, 2.0);
        assert!(!slow.is_ideal());
        let weak = ClusterProfile::ideal(2).with_link_multiplier(1, LinkDir::RowMinus, 0.5);
        assert!(!weak.is_ideal());
        let mut out = ClusterProfile::ideal(2);
        out.add_outage(0, LinkDir::ColPlus, LinkOutage::new(0.0, 1.0, 0.5));
        assert!(!out.is_ideal());
    }

    #[test]
    fn outage_floor_applies_inside_the_window_only() {
        let mut p = ClusterProfile::ideal(1).with_link_multiplier(0, LinkDir::RowPlus, 0.8);
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(1.0, 2.0, 0.25));
        let d = LinkDir::RowPlus;
        assert_eq!(p.link_multiplier_at(0, d, 0.5), 0.8);
        assert_eq!(p.link_multiplier_at(0, d, 1.0), 0.8 * 0.25); // inclusive start
        assert_eq!(p.link_multiplier_at(0, d, 1.999), 0.8 * 0.25);
        assert_eq!(p.link_multiplier_at(0, d, 2.0), 0.8); // exclusive end
    }

    #[test]
    fn edge_times_merge_all_directions() {
        let mut p = ClusterProfile::ideal(1);
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(1.0, 3.0, 0.5));
        p.add_outage(0, LinkDir::ColMinus, LinkOutage::new(2.0, 3.0, 0.5));
        assert_eq!(p.edge_times(0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_outages_panic() {
        let mut p = ClusterProfile::ideal(1);
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(1.0, 3.0, 0.5));
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(2.0, 4.0, 0.5));
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1]")]
    fn out_of_range_multiplier_panics() {
        ClusterProfile::ideal(1).with_link_multiplier(0, LinkDir::RowPlus, 1.5);
    }

    #[test]
    fn abutting_outages_are_allowed() {
        let mut p = ClusterProfile::ideal(1);
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(2.0, 3.0, 0.5));
        p.add_outage(0, LinkDir::RowPlus, LinkOutage::new(1.0, 2.0, 0.25));
        // Sorted by start despite reversed insertion.
        let windows = p.outages(0, LinkDir::RowPlus);
        assert_eq!(windows[0].start, 1.0);
        assert_eq!(windows[1].start, 2.0);
        assert_eq!(p.link_multiplier_at(0, LinkDir::RowPlus, 2.0), 0.5);
    }
}
