//! Fluid-flow (processor-sharing) model of a chip's HBM bandwidth.
//!
//! The compute cores and the NIC of a chip share HBM (§4.1, Figure 8).
//! Every active transfer is a *flow* with a byte count and an individual
//! rate cap (e.g. a NIC flow cannot exceed its link bandwidth even when HBM
//! is idle). At any instant the HBM capacity is divided among active flows
//! by progressive filling ("water-filling"): flows are capped at the lesser
//! of their own cap and a fair share of the remaining capacity.
//!
//! The engine advances a channel lazily: whenever a flow is added or the
//! scheduled wake-up fires, [`HbmChannel::advance`] applies the piecewise-
//! constant rates since the previous update.

/// Bytes of slack within which a flow counts as finished (absorbs f64
/// rounding in rate × time products).
const COMPLETION_EPS: f64 = 1e-3;

#[derive(Clone, Debug)]
struct Flow {
    /// The engine-side identifier (an exec-graph node index).
    node: usize,
    remaining: f64,
    cap: f64,
    rate: f64,
}

/// The water-filling order: by rate cap, ties by node id.
fn fill_order(a: &Flow, b: &Flow) -> std::cmp::Ordering {
    a.cap.total_cmp(&b.cap).then(a.node.cmp(&b.node))
}

/// One chip's shared HBM channel.
#[derive(Clone, Debug)]
pub(crate) struct HbmChannel {
    capacity: f64,
    /// The active flows, kept in [`fill_order`] so that
    /// [`recompute`](Self::recompute) is one pass with no sort.
    flows: Vec<Flow>,
    last_update: f64,
    /// The instant the channel was last settled at: by
    /// [`take_completed_into`], or by an [`advance`](Self::advance) after
    /// which no flow had finished. Settling again at this instant
    /// changes nothing. NaN, which equals no instant, when unknown.
    ///
    /// [`take_completed_into`]: Self::take_completed_into
    settled_at: f64,
    version: u64,
}

impl HbmChannel {
    /// Creates a channel with the given capacity in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    pub(crate) fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "HBM capacity must be positive");
        HbmChannel {
            capacity,
            flows: Vec::new(),
            last_update: 0.0,
            settled_at: f64::NAN,
            version: 0,
        }
    }

    /// Whether any flow is active.
    #[cfg(test)]
    pub(crate) fn is_idle(&self) -> bool {
        self.flows.is_empty()
    }

    /// Returns the channel to its just-constructed state (no flows, time
    /// and version zero) with the given capacity, keeping the flow buffer's
    /// allocation. A reset channel behaves bit-for-bit like
    /// [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    pub(crate) fn reset(&mut self, capacity: f64) {
        assert!(capacity > 0.0, "HBM capacity must be positive");
        self.capacity = capacity;
        self.flows.clear();
        self.last_update = 0.0;
        self.settled_at = f64::NAN;
        self.version = 0;
    }

    /// The wake-up version, bumped on every reconfiguration. Events carry
    /// the version they were scheduled with; stale events are ignored.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Whether the channel is already settled at `now`: an
    /// [`advance`](Self::advance) to `now` followed by
    /// [`take_completed_into`](Self::take_completed_into) would change
    /// nothing — no time passes, and no flow is already complete.
    pub(crate) fn is_settled_at(&self, now: f64) -> bool {
        self.settled_at == now
    }

    /// Applies the current rates over `now − last_update`, and returns
    /// whether some flow has finished: if none has, the channel is now
    /// settled at `now` and [`take_completed_into`] would find nothing.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards by more than rounding error.
    ///
    /// [`take_completed_into`]: Self::take_completed_into
    pub(crate) fn advance(&mut self, now: f64) -> bool {
        let dt = now - self.last_update;
        assert!(dt > -1e-12, "HBM channel time went backwards by {dt}");
        let dt = dt.max(0.0);
        let mut finished = false;
        for f in &mut self.flows {
            // The engine settles a channel no later than its earliest flow
            // completion, so a flow may overshoot its bytes only by the
            // rounding of the wake-up instant.
            debug_assert!(
                f.rate * dt <= f.remaining + COMPLETION_EPS + f.rate * now * 4.0 * f64::EPSILON,
                "flow of node {} over-delivered: {} bytes left, {} delivered",
                f.node,
                f.remaining,
                f.rate * dt
            );
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
            finished |= f.remaining <= COMPLETION_EPS;
        }
        self.last_update = now;
        if !finished {
            self.settled_at = now;
        }
        finished
    }

    /// Adds a flow of `bytes` with individual rate cap `cap`, starting now.
    ///
    /// Callers must [`advance`](Self::advance) to `now` first (the engine
    /// helper does). Returns the new version.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` or `cap` is not positive.
    pub(crate) fn add_flow(&mut self, node: usize, bytes: f64, cap: f64) -> u64 {
        assert!(bytes > 0.0, "flow must carry bytes");
        assert!(cap > 0.0, "flow cap must be positive");
        if bytes <= COMPLETION_EPS {
            // The next settle completes this flow at once.
            self.settled_at = f64::NAN;
        }
        let flow = Flow {
            node,
            remaining: bytes,
            cap,
            rate: 0.0,
        };
        let at = self.flows.partition_point(|f| fill_order(f, &flow).is_lt());
        self.flows.insert(at, flow);
        self.recompute();
        self.version += 1;
        self.version
    }

    /// Removes finished flows (remaining ≤ epsilon) and appends their node
    /// ids to `done` (which the caller should pass in empty); recomputes
    /// rates if any were removed. Returns the new version.
    pub(crate) fn take_completed_into(&mut self, done: &mut Vec<usize>) -> u64 {
        let before = done.len();
        self.flows.retain(|f| {
            let finished = f.remaining <= COMPLETION_EPS;
            if finished {
                debug_assert!((0.0..=COMPLETION_EPS).contains(&f.remaining));
                done.push(f.node);
            }
            !finished
        });
        if done.len() > before {
            self.recompute();
            self.version += 1;
        }
        // Completions in node order, whatever the fill order.
        if done.len() > before + 1 {
            done[before..].sort_unstable();
        }
        // Every flow left has more than `COMPLETION_EPS` bytes to go.
        self.settled_at = self.last_update;
        self.version
    }

    /// [`take_completed_into`](Self::take_completed_into) returning a fresh
    /// `Vec` (test convenience).
    #[cfg(test)]
    pub(crate) fn take_completed(&mut self) -> (Vec<usize>, u64) {
        let mut done = Vec::new();
        let version = self.take_completed_into(&mut done);
        (done, version)
    }

    /// Re-rates in-flight flows: `new_cap` maps a node id to its new
    /// individual cap (or `None` to leave the flow untouched). Recomputes
    /// rates and bumps the version only if some cap actually changed, so
    /// calling this with identity caps is a no-op.
    ///
    /// Callers must [`advance`](Self::advance) to `now` first, exactly as
    /// for [`add_flow`](Self::add_flow).
    pub(crate) fn retune_caps(&mut self, mut new_cap: impl FnMut(usize) -> Option<f64>) -> u64 {
        let mut changed = false;
        for f in &mut self.flows {
            if let Some(cap) = new_cap(f.node) {
                assert!(cap > 0.0, "flow cap must be positive");
                if cap != f.cap {
                    f.cap = cap;
                    changed = true;
                }
            }
        }
        if changed {
            self.flows.sort_unstable_by(fill_order);
            self.recompute();
            self.version += 1;
        }
        self.version
    }

    /// Seconds until the next flow completes at current rates, if any flow
    /// is active.
    pub(crate) fn next_completion_in(&self) -> Option<f64> {
        self.flows
            .iter()
            .map(|f| {
                debug_assert!(f.rate > 0.0, "active flow with zero rate");
                (f.remaining / f.rate).max(0.0)
            })
            .min_by(f64::total_cmp)
    }

    /// Water-filling rate allocation: each flow, in [`fill_order`], gets
    /// `min(cap, fair share of remaining capacity)`, with the slack of
    /// cap-limited flows redistributed to the others. A lone flow thus
    /// runs at `min(cap, capacity)`.
    ///
    /// The fair share is a division, and the divisions form one serial
    /// chain; two cases skip it with the same result. The last flow's
    /// share is the remaining capacity itself (`x / 1.0` is `x`), and a
    /// cap below the share by far more than rounding error (checked
    /// without dividing) is the minimum.
    fn recompute(&mut self) {
        let mut remaining_capacity = self.capacity;
        let mut left = self.flows.len();
        for f in &mut self.flows {
            let n = left as f64;
            f.rate = if left == 1 {
                f.cap.min(remaining_capacity)
            } else if f.cap * n < remaining_capacity * (1.0 - 1e-9) {
                f.cap
            } else {
                f.cap.min(remaining_capacity / n)
            };
            remaining_capacity -= f.rate;
            left -= 1;
        }
        debug_assert!(
            self.flows.iter().all(|f| f.rate <= f.cap),
            "a flow runs above its cap"
        );
        debug_assert!(
            self.flows.iter().map(|f| f.rate).sum::<f64>() <= self.capacity * (1.0 + 1e-12),
            "flows exceed the channel capacity {}",
            self.capacity
        );
    }

    #[cfg(test)]
    fn rate_of(&self, node: usize) -> f64 {
        self.flows
            .iter()
            .find(|f| f.node == node)
            .map(|f| f.rate)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_runs_at_its_cap() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 50.0, 10.0);
        assert_eq!(ch.rate_of(0), 10.0);
        assert_eq!(ch.next_completion_in(), Some(5.0));
    }

    #[test]
    fn uncapped_flows_share_fairly() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 100.0, 1000.0);
        ch.add_flow(1, 100.0, 1000.0);
        assert_eq!(ch.rate_of(0), 50.0);
        assert_eq!(ch.rate_of(1), 50.0);
    }

    #[test]
    fn capped_flow_slack_goes_to_others() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 100.0, 20.0); // NIC-like, capped low
        ch.add_flow(1, 100.0, 1000.0); // compute-like
        assert_eq!(ch.rate_of(0), 20.0);
        assert_eq!(ch.rate_of(1), 80.0);
    }

    #[test]
    fn advance_reduces_remaining_and_completes() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(7, 100.0, 50.0);
        let dt = ch.next_completion_in().unwrap();
        assert_eq!(dt, 2.0);
        ch.advance(2.0);
        let (done, _) = ch.take_completed();
        assert_eq!(done, vec![7]);
        assert!(ch.is_idle());
    }

    #[test]
    fn contention_stretches_completion() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 100.0, 100.0);
        // Alone: 1s. Add a competitor at t=0: both at 50 B/s -> 2s.
        ch.add_flow(1, 100.0, 100.0);
        assert_eq!(ch.next_completion_in(), Some(2.0));
        ch.advance(2.0);
        let (done, _) = ch.take_completed();
        assert_eq!(done, vec![0, 1]);
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 50.0, 100.0);
        ch.add_flow(1, 200.0, 100.0);
        // Both run at 50 B/s. Flow 0 finishes at t=1.
        ch.advance(1.0);
        let (done, _) = ch.take_completed();
        assert_eq!(done, vec![0]);
        // Flow 1 has 150 left and now runs at its cap of 100.
        assert_eq!(ch.rate_of(1), 100.0);
        assert_eq!(ch.next_completion_in(), Some(1.5));
    }

    #[test]
    fn version_changes_on_reconfiguration() {
        let mut ch = HbmChannel::new(10.0);
        let v1 = ch.add_flow(0, 10.0, 10.0);
        let v2 = ch.add_flow(1, 10.0, 10.0);
        assert_ne!(v1, v2);
        assert_eq!(ch.version(), v2);
    }

    #[test]
    fn overlapping_demand_beyond_capacity_saturates() {
        let mut ch = HbmChannel::new(90.0);
        ch.add_flow(0, 10.0, 50.0);
        ch.add_flow(1, 10.0, 50.0);
        ch.add_flow(2, 10.0, 50.0);
        let total: f64 = [0, 1, 2].iter().map(|&n| ch.rate_of(n)).sum();
        assert!((total - 90.0).abs() < 1e-9);
        assert_eq!(ch.rate_of(0), 30.0);
    }

    #[test]
    #[should_panic(expected = "must carry bytes")]
    fn zero_byte_flow_panics() {
        HbmChannel::new(10.0).add_flow(0, 0.0, 1.0);
    }

    #[test]
    fn retune_caps_rerates_in_flight_flows() {
        let mut ch = HbmChannel::new(100.0);
        let v0 = ch.add_flow(0, 100.0, 50.0);
        assert_eq!(ch.next_completion_in(), Some(2.0));
        // Halfway through, the link degrades to a tenth of its rate.
        ch.advance(1.0);
        let v1 = ch.retune_caps(|node| (node == 0).then_some(5.0));
        assert_ne!(v0, v1, "cap change must bump the version");
        assert_eq!(ch.rate_of(0), 5.0);
        assert_eq!(ch.next_completion_in(), Some(10.0));
        // Identity retune: no version bump.
        let v2 = ch.retune_caps(|node| (node == 0).then_some(5.0));
        assert_eq!(v1, v2);
    }

    #[test]
    fn lone_flow_runs_at_the_lesser_of_cap_and_capacity() {
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(0, 50.0, 400.0);
        assert_eq!(ch.rate_of(0), 100.0);
        ch.retune_caps(|_| Some(30.0));
        assert_eq!(ch.rate_of(0), 30.0);
    }

    #[test]
    fn simultaneous_completions_come_back_in_node_order() {
        // Fill order (by cap) puts node 5 before node 2; both finish at 1 s.
        let mut ch = HbmChannel::new(100.0);
        ch.add_flow(5, 10.0, 10.0);
        ch.add_flow(2, 20.0, 20.0);
        ch.advance(1.0);
        assert_eq!(ch.take_completed().0, vec![2, 5]);
    }

    #[test]
    fn a_channel_is_settled_only_where_it_was_last_settled() {
        let mut ch = HbmChannel::new(100.0);
        assert!(!ch.is_settled_at(0.0), "a fresh channel was never settled");
        ch.add_flow(0, 100.0, 50.0);
        ch.advance(1.0);
        ch.take_completed();
        assert!(ch.is_settled_at(1.0));
        assert!(!ch.is_settled_at(1.5));
        // A new flow with bytes to go leaves nothing to complete at 1 s…
        ch.add_flow(1, 100.0, 50.0);
        assert!(ch.is_settled_at(1.0));
        // …but one already within the completion slack does.
        ch.add_flow(2, COMPLETION_EPS / 2.0, 50.0);
        assert!(!ch.is_settled_at(1.0));
        assert_eq!(ch.take_completed().0, vec![2]);
        assert!(ch.is_settled_at(1.0));
        ch.reset(100.0);
        assert!(!ch.is_settled_at(0.0) && !ch.is_settled_at(1.0));
    }
}
