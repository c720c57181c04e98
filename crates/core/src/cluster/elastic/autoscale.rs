//! Autoscaling policies: when to cold-start a spare slot and when to
//! drain one.
//!
//! An [`AutoscalePolicy`] is consulted with a read-only
//! [`FleetSnapshot`] on every global serving step the engine visits
//! while arrivals remain, and answers with a [`ScaleDecision`]. The
//! [`ElasticClusterEngine`](super::ElasticClusterEngine) executes the
//! decision: a scale-up re-provisions the lowest-indexed Retired slot
//! (paying its cold start), a scale-down begins draining the
//! least-loaded Active slot. Two methods tell the engine which steps it
//! may leave out:
//!
//! * [`AutoscalePolicy::next_wake`] bounds a busy fleet's skips. After a
//!   [`ScaleDecision::Hold`], it names the first later step at which
//!   `decide` could act or change the policy's state if the fleet stays
//!   as it is; the engine never jumps past it, so skipping is exact.
//! * [`AutoscalePolicy::prewarm_at`] is an idle fleet's alarm. A fleet
//!   with no work anywhere jumps to the next arrival without consulting
//!   the policy at all; a policy names a *pre-warm step* so the jump
//!   stops early enough to hide a cold start behind a predicted burst.
//!
//! Three policies ship:
//!
//! * [`PinnedFleet`] — never scales: the elasticity-off control, and
//!   what a fixed cluster
//!   ([`ElasticClusterEngine::pinned`](super::ElasticClusterEngine::pinned))
//!   runs under.
//! * [`TargetPressureScaler`] — reactive: scale up when fleet pressure
//!   (load per unit of admission capacity) crosses a high-water mark,
//!   down when it falls below a low-water mark. Pays full cold-start
//!   latency on every burst by construction.
//! * [`HybridHistogramKeepAlive`] — predictive: a log2-bucketed
//!   histogram of observed inter-burst gaps (the hybrid-histogram
//!   keep-alive of the serverless literature) releases capacity as soon
//!   as a burst is confirmed over and re-provisions a cold-start lead
//!   time *before* the predicted next burst, composing the reactive
//!   scaler as its fallback for unpredicted load.

use super::lifecycle::LifecycleState;
use crate::cluster::policy::DeploymentView;
use std::fmt;

/// Read-only fleet state handed to [`AutoscalePolicy::decide`] on every
/// global serving step the engine visits.
#[derive(Debug)]
pub struct FleetSnapshot<'a> {
    /// The global serving step (the arrival cursor).
    pub step: u64,
    /// Requests that arrived (were dispatched) at this step.
    pub arrivals_this_step: usize,
    /// Full cold-start latency of a scale-up in steps (provision +
    /// weight load) — what a predictive policy must hide.
    pub cold_start_steps: u64,
    /// The floor below which the engine refuses to scale down.
    pub min_active: usize,
    /// Every deployment slot, in cluster index order, lifecycle state
    /// included.
    pub deployments: &'a [DeploymentView],
    /// The fleet-wide counts, summed over `deployments` once when the
    /// snapshot is built.
    totals: FleetTotals,
}

/// [`FleetSnapshot`]'s aggregates over its views.
#[derive(Debug, Default)]
struct FleetTotals {
    active: usize,
    provisioning_or_warming: usize,
    retired: usize,
    queued: usize,
    in_flight: usize,
    active_batch_capacity: usize,
}

impl<'a> FleetSnapshot<'a> {
    /// The snapshot of `deployments` at `step`, its aggregates summed in
    /// one pass.
    pub(crate) fn new(
        step: u64,
        arrivals_this_step: usize,
        cold_start_steps: u64,
        min_active: usize,
        deployments: &'a [DeploymentView],
    ) -> Self {
        let mut totals = FleetTotals::default();
        for d in deployments {
            totals.queued += d.queued;
            totals.in_flight += d.in_flight();
            match d.lifecycle {
                LifecycleState::Active => {
                    totals.active += 1;
                    totals.active_batch_capacity += d.max_batch as usize;
                }
                LifecycleState::Provisioning | LifecycleState::Warming => {
                    totals.provisioning_or_warming += 1;
                }
                LifecycleState::Retired => totals.retired += 1,
                LifecycleState::Draining => {}
            }
        }
        FleetSnapshot {
            step,
            arrivals_this_step,
            cold_start_steps,
            min_active,
            deployments,
            totals,
        }
    }

    /// Slots currently Active.
    pub fn active_count(&self) -> usize {
        self.totals.active
    }

    /// Slots mid cold start (Provisioning or Warming) — capacity already
    /// paid for but not yet serving.
    pub fn provisioning_or_warming(&self) -> usize {
        self.totals.provisioning_or_warming
    }

    /// Retired slots available for a scale-up.
    pub fn retired_available(&self) -> usize {
        self.totals.retired
    }

    /// Requests queued across the fleet.
    pub fn queued(&self) -> usize {
        self.totals.queued
    }

    /// Requests in flight (prefilling + decoding) across the fleet.
    pub fn in_flight(&self) -> usize {
        self.totals.in_flight
    }

    /// Aggregate admission capacity of the Active slots (sum of their
    /// batch caps).
    pub fn active_batch_capacity(&self) -> usize {
        self.totals.active_batch_capacity
    }

    /// Fleet pressure: total load per unit of Active admission capacity.
    /// `1.0` means every admission slot is spoken for; above it, work is
    /// queueing.
    pub fn pressure(&self) -> f64 {
        let load = (self.queued() + self.in_flight()) as f64;
        load / self.active_batch_capacity().max(1) as f64
    }
}

/// What the autoscaler wants done this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change.
    Hold,
    /// Cold-start up to `count` Retired slots (lowest index first).
    ScaleUp {
        /// Slots to provision.
        count: usize,
    },
    /// Begin draining up to `count` Active slots (least-loaded first,
    /// never below the engine's `min_active` floor).
    ScaleDown {
        /// Slots to drain.
        count: usize,
    },
}

/// A fleet-sizing policy, consulted on every global serving step the
/// engine visits; [`next_wake`](AutoscalePolicy::next_wake) bounds how
/// far the engine may skip between visits.
pub trait AutoscalePolicy: fmt::Debug {
    /// Stable policy name, recorded in
    /// [`ElasticReport::autoscale`](super::ElasticReport::autoscale).
    fn name(&self) -> &'static str;

    /// The sizing decision for this step. The engine clamps: scale-ups
    /// are limited by Retired availability, scale-downs by `min_active`.
    fn decide(&mut self, snapshot: &FleetSnapshot<'_>) -> ScaleDecision;

    /// The first step after `snapshot.step` at which [`decide`] could
    /// answer anything but [`ScaleDecision::Hold`], or change the
    /// policy's own state, if the fleet stays as `snapshot` shows it and
    /// nothing arrives. The engine asks on the snapshot `decide` just
    /// answered `Hold` to, and skips no consult before the answer, so
    /// a skip is exact: every step left out would have held. The
    /// default, `snapshot.step + 1`, is exact for any policy; a later
    /// answer lets a busy fleet jump over stretches where every slot
    /// sits in a quiet window.
    ///
    /// Unlike [`prewarm_at`](AutoscalePolicy::prewarm_at), this is a
    /// bound, not a request: it never makes the engine visit a step it
    /// would otherwise have jumped over.
    ///
    /// [`decide`]: AutoscalePolicy::decide
    fn next_wake(&self, snapshot: &FleetSnapshot<'_>) -> u64 {
        snapshot.step + 1
    }

    /// A future step the engine should wake at even if no work is
    /// pending — a predictive policy's pre-warm point. A fleet with no
    /// work anywhere jumps to its next arrival or lifecycle transition
    /// without consulting [`decide`](AutoscalePolicy::decide) (the jump
    /// is not bounded by [`next_wake`](AutoscalePolicy::next_wake)), so
    /// this is how a policy asks to be woken inside the jump. `None`
    /// (the default) schedules no wake-up.
    fn prewarm_at(&self, _snapshot: &FleetSnapshot<'_>) -> Option<u64> {
        None
    }

    /// Whether the policy ever answers anything but
    /// [`ScaleDecision::Hold`] or names a pre-warm point. Defaults to
    /// `true`; a policy that returns `false` is never consulted, for a
    /// decision or a pre-warm point, so the engine wakes for it on no
    /// step at all.
    fn may_scale(&self) -> bool {
        true
    }
}

/// The elasticity-off control: never scales
/// ([`AutoscalePolicy::may_scale`] is false, so it is never consulted).
/// [`ElasticClusterEngine::pinned`](super::ElasticClusterEngine::pinned)
/// builds the elastic engine under this policy with every slot Active, and
/// [`ServeEngine::run_trace`](crate::ServeEngine::run_trace) is a 1-slot
/// fleet under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinnedFleet;

impl AutoscalePolicy for PinnedFleet {
    fn name(&self) -> &'static str {
        "pinned-fleet"
    }

    fn decide(&mut self, _snapshot: &FleetSnapshot<'_>) -> ScaleDecision {
        ScaleDecision::Hold
    }

    /// Never: the policy holds on every step.
    fn next_wake(&self, _snapshot: &FleetSnapshot<'_>) -> u64 {
        u64::MAX
    }

    fn may_scale(&self) -> bool {
        false
    }
}

/// Reactive target-pressure scaling: one slot up when fleet pressure
/// crosses `high`, one slot down when it falls below `low`, with a
/// cooldown between actions so a single burst edge cannot thrash the
/// fleet. The classic threshold autoscaler — and the baseline the
/// keep-alive predictor must beat, because it only reacts *after*
/// pressure builds and therefore eats the full cold start on every
/// burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetPressureScaler {
    /// Scale up above this pressure.
    pub high: f64,
    /// Scale down below this pressure.
    pub low: f64,
    /// Minimum steps between scaling actions.
    pub cooldown_steps: u64,
    last_action: Option<u64>,
}

impl TargetPressureScaler {
    /// A scaler with the given water marks and cooldown.
    pub fn new(high: f64, low: f64, cooldown_steps: u64) -> Self {
        TargetPressureScaler { high, low, cooldown_steps, last_action: None }
    }

    /// The action `snap` calls for once the cooldown is over.
    fn wanted(&self, snap: &FleetSnapshot<'_>) -> ScaleDecision {
        let pressure = snap.pressure();
        if pressure > self.high
            && snap.retired_available() > 0
            && snap.provisioning_or_warming() == 0
        {
            return ScaleDecision::ScaleUp { count: 1 };
        }
        if pressure < self.low && snap.active_count() > snap.min_active {
            return ScaleDecision::ScaleDown { count: 1 };
        }
        ScaleDecision::Hold
    }

    /// The first step no cooldown holds (`0` before any action).
    fn cooled_at(&self) -> u64 {
        self.last_action.map_or(0, |last| last.saturating_add(self.cooldown_steps))
    }
}

impl Default for TargetPressureScaler {
    /// Scale up when load exceeds admission capacity (pressure > 1.0),
    /// down when the fleet is under a tenth full, at most once per 64
    /// steps.
    fn default() -> Self {
        TargetPressureScaler::new(1.0, 0.1, 64)
    }
}

impl AutoscalePolicy for TargetPressureScaler {
    fn name(&self) -> &'static str {
        "target-pressure"
    }

    fn decide(&mut self, snap: &FleetSnapshot<'_>) -> ScaleDecision {
        if snap.step < self.cooled_at() {
            return ScaleDecision::Hold;
        }
        let decision = self.wanted(snap);
        if decision != ScaleDecision::Hold {
            self.last_action = Some(snap.step);
        }
        decision
    }

    /// The step the cooldown ends if a water mark calls for an action,
    /// and never otherwise: the marks read only the fleet, which stays
    /// put.
    fn next_wake(&self, snap: &FleetSnapshot<'_>) -> u64 {
        match self.wanted(snap) {
            ScaleDecision::Hold => u64::MAX,
            _ => self.cooled_at().max(snap.step + 1),
        }
    }
}

const HIST_BUCKETS: usize = 64;

/// Hybrid-histogram keep-alive: predictive pre-warming from the observed
/// inter-burst gap distribution.
///
/// The policy watches arrivals. A gap longer than `burst_threshold_steps`
/// between consecutive arrivals marks a burst boundary; each observed
/// inter-burst gap lands in a log2-bucketed histogram (count + sum per
/// bucket, so each bucket knows its mean). From then on:
///
/// * **Release early** — once the fleet has been idle past the burst
///   threshold (the burst is confirmed over, everything drained), scale
///   down to the floor instead of waiting for a pressure signal.
/// * **Pre-warm** — predict the next burst at `last arrival + margin ×
///   quantile-bucket mean gap` and ask the engine (via
///   [`prewarm_at`](AutoscalePolicy::prewarm_at)) to wake a cold-start
///   lead time earlier, re-provisioning to the burst-time fleet size so
///   the slots turn Active right as the burst lands.
/// * **Fall back** — an unpredicted burst is caught by the composed
///   reactive [`TargetPressureScaler`], exactly as if the histogram
///   didn't exist.
///
/// This is the "hybrid histogram" policy of Shahrad et al.'s serverless
/// keep-alive work, transplanted from function keep-alive to deployment
/// keep-alive: the cold start being hidden is a model-weight load priced
/// by [`ColdStartModel`](super::ColdStartModel), not a container fork.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridHistogramKeepAlive {
    /// An idle gap longer than this marks a burst boundary.
    pub burst_threshold_steps: u64,
    /// Head quantile of the gap histogram used for prediction.
    pub quantile: f64,
    /// Fraction of the predicted gap to wait before pre-warming (pre-warm
    /// lead = `margin × predicted gap − cold start`).
    pub margin: f64,
    reactive: TargetPressureScaler,
    counts: [u64; HIST_BUCKETS],
    sums: [u64; HIST_BUCKETS],
    last_arrival: Option<u64>,
    burst_target: usize,
}

impl HybridHistogramKeepAlive {
    /// A keep-alive predictor with the given burst threshold, composing
    /// the default reactive scaler as fallback.
    pub fn new(burst_threshold_steps: u64) -> Self {
        HybridHistogramKeepAlive {
            burst_threshold_steps: burst_threshold_steps.max(1),
            quantile: 0.5,
            margin: 0.9,
            reactive: TargetPressureScaler::default(),
            counts: [0; HIST_BUCKETS],
            sums: [0; HIST_BUCKETS],
            last_arrival: None,
            burst_target: 0,
        }
    }

    /// Observed inter-burst gaps so far.
    pub fn observed_gaps(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn bucket(gap: u64) -> usize {
        (64 - gap.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1)
    }

    /// Mean gap of the histogram bucket at the configured head quantile,
    /// or `None` before any gap has been observed.
    pub fn predicted_gap(&self) -> Option<u64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return None;
        }
        let want = ((total as f64) * self.quantile).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for b in 0..HIST_BUCKETS {
            seen += self.counts[b];
            if seen >= want {
                return Some(self.sums[b] / self.counts[b].max(1));
            }
        }
        None
    }

    /// The step the next burst is predicted to land at (`None` without
    /// history).
    fn predicted_next_burst(&self) -> Option<u64> {
        let last = self.last_arrival?;
        let gap = self.predicted_gap()?;
        Some(last + (gap as f64 * self.margin).max(1.0) as u64)
    }

    /// The pre-warm window, `[predicted burst − cold start, predicted
    /// burst]` (`None` without history).
    fn prewarm_window(&self, cold_start_steps: u64) -> Option<(u64, u64)> {
        self.predicted_next_burst()
            .map(|predicted| (predicted.saturating_sub(cold_start_steps), predicted))
    }
}

impl AutoscalePolicy for HybridHistogramKeepAlive {
    fn name(&self) -> &'static str {
        "hybrid-histogram-keep-alive"
    }

    fn decide(&mut self, snap: &FleetSnapshot<'_>) -> ScaleDecision {
        // Observe: arrivals update the gap histogram at burst boundaries
        // and the burst-time fleet-size target.
        if snap.arrivals_this_step > 0 {
            if let Some(last) = self.last_arrival {
                let gap = snap.step.saturating_sub(last);
                if gap > self.burst_threshold_steps {
                    let b = Self::bucket(gap);
                    self.counts[b] += 1;
                    self.sums[b] += gap;
                }
            }
            self.last_arrival = Some(snap.step);
        }
        // The fleet size a burst needs is whatever peak the fleet reached
        // while working it off — sampled over the whole busy period, not
        // just at arrival instants, because reactive scale-ups land
        // *after* a burst's last arrival.
        if snap.queued() + snap.in_flight() > 0 {
            self.burst_target =
                self.burst_target.max(snap.active_count() + snap.provisioning_or_warming());
        }

        // Pre-warm: inside the predicted window, bring the fleet back to
        // its burst-time size a cold start ahead of the predicted burst.
        let mut in_window = false;
        if let Some((warm_by, predicted)) = self.prewarm_window(snap.cold_start_steps) {
            in_window = snap.step >= warm_by && snap.step <= predicted;
            let below_target =
                snap.active_count() + snap.provisioning_or_warming() < self.burst_target;
            if in_window && below_target && snap.retired_available() > 0 {
                let want = self
                    .burst_target
                    .saturating_sub(snap.active_count() + snap.provisioning_or_warming());
                return ScaleDecision::ScaleUp { count: want.min(snap.retired_available()) };
            }
        }

        // Release early: burst confirmed over and the fleet fully
        // drained — give back everything above the floor now, instead of
        // paying for idle capacity until a pressure signal notices. But
        // never inside the pre-warm window: releasing there would retire
        // the very slots just cold-started for the predicted burst.
        if let Some(last) = self.last_arrival {
            let idle = snap.step.saturating_sub(last);
            let quiescent = snap.queued() + snap.in_flight() == 0;
            if idle > self.burst_threshold_steps
                && quiescent
                && !in_window
                && snap.active_count() > snap.min_active
            {
                return ScaleDecision::ScaleDown { count: snap.active_count() - snap.min_active };
            }
        }

        // Fall back to the reactive scaler for unpredicted load —
        // scale-ups only: releases are this policy's own burst-over arm
        // above, so a brief intra-burst lull can never thrash a drain.
        match self.reactive.decide(snap) {
            up @ ScaleDecision::ScaleUp { .. } => up,
            _ => ScaleDecision::Hold,
        }
    }

    /// The earliest of three steps, with the fleet held as `snap` shows
    /// it: the start of the pre-warm window while the fleet is below its
    /// burst-time size, the first release step outside that window, and
    /// the reactive scaler's own wake — a reactive scale-down this policy
    /// squashes still restarts the reactive cooldown, a state change.
    fn next_wake(&self, snap: &FleetSnapshot<'_>) -> u64 {
        let next = snap.step + 1;
        let load = snap.queued() + snap.in_flight();
        let sized = snap.active_count() + snap.provisioning_or_warming();
        if load > 0 && sized > self.burst_target {
            // The burst-time target would grow on the very next look.
            return next;
        }
        let window = self.prewarm_window(snap.cold_start_steps);
        let mut wake = self.reactive.next_wake(snap);
        if let Some((warm_by, predicted)) = window {
            let at = warm_by.max(next);
            if at <= predicted && sized < self.burst_target && snap.retired_available() > 0 {
                wake = wake.min(at);
            }
        }
        if let Some(last) = self.last_arrival {
            if load == 0 && snap.active_count() > snap.min_active {
                let mut at = last.saturating_add(self.burst_threshold_steps).saturating_add(1);
                at = at.max(next);
                if let Some((warm_by, predicted)) = window {
                    if (warm_by..=predicted).contains(&at) {
                        at = predicted.saturating_add(1);
                    }
                }
                wake = wake.min(at);
            }
        }
        wake
    }

    /// Two wake points, whichever comes first. The *release* point
    /// (`last arrival + burst threshold + 1`): simulated clocks only
    /// advance under work, so without this wake an idle fleet would
    /// sleep straight past the burst-over confirmation and still be
    /// holding peak capacity at the next wake. The *pre-warm* point
    /// (`predicted next burst − cold start`): wake early enough to hide
    /// the cold start behind the predicted burst.
    fn prewarm_at(&self, snap: &FleetSnapshot<'_>) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let mut propose = |at: u64| {
            if at > snap.step {
                wake = Some(wake.map_or(at, |w| w.min(at)));
            }
        };
        if let Some(last) = self.last_arrival {
            let quiescent = snap.queued() + snap.in_flight() == 0;
            if quiescent && snap.active_count() > snap.min_active {
                propose(last + self.burst_threshold_steps + 1);
            }
        }
        if snap.retired_available() > 0
            && snap.active_count() + snap.provisioning_or_warming() < self.burst_target
        {
            if let Some(predicted) = self.predicted_next_burst() {
                propose(predicted.saturating_sub(snap.cold_start_steps));
            }
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(id: u32, queued: usize, decoding: usize, lifecycle: LifecycleState) -> DeploymentView {
        DeploymentView {
            id,
            queued,
            prefilling: 0,
            decoding,
            max_batch: 8,
            placeable_free_bytes: 1 << 30,
            bandwidth_weight: 1.0,
            prefix_hit_rate: 0.0,
            lifecycle,
            hourly_cost_usd: 1.0,
        }
    }

    fn snap<'a>(step: u64, arrivals: usize, views: &'a [DeploymentView]) -> FleetSnapshot<'a> {
        FleetSnapshot::new(step, arrivals, 50, 1, views)
    }

    #[test]
    fn fleet_snapshot_arithmetic() {
        let views = [
            slot(0, 3, 5, LifecycleState::Active),
            slot(1, 0, 0, LifecycleState::Warming),
            slot(2, 0, 0, LifecycleState::Retired),
        ];
        let s = snap(10, 0, &views);
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.provisioning_or_warming(), 1);
        assert_eq!(s.retired_available(), 1);
        assert_eq!(s.queued(), 3);
        assert_eq!(s.in_flight(), 5);
        assert_eq!(s.active_batch_capacity(), 8);
        assert_eq!(s.pressure(), 1.0);
    }

    #[test]
    fn pinned_fleet_always_holds() {
        let views =
            [slot(0, 100, 8, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        let s = snap(0, 50, &views);
        let mut p = PinnedFleet;
        assert_eq!(p.decide(&s), ScaleDecision::Hold);
        assert_eq!(p.prewarm_at(&s), None);
        assert_eq!(p.name(), "pinned-fleet");
    }

    #[test]
    fn target_pressure_scales_up_under_load_and_down_when_idle() {
        let mut p = TargetPressureScaler::new(1.0, 0.1, 10);
        let hot = [slot(0, 20, 8, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        assert_eq!(p.decide(&snap(0, 5, &hot)), ScaleDecision::ScaleUp { count: 1 });
        // Cooldown: the very next step holds even though pressure is
        // unchanged.
        assert_eq!(p.decide(&snap(1, 5, &hot)), ScaleDecision::Hold);
        // After cooldown, an idle two-slot fleet sheds one.
        let idle = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Active)];
        assert_eq!(p.decide(&snap(20, 0, &idle)), ScaleDecision::ScaleDown { count: 1 });
        assert_eq!(p.name(), "target-pressure");
    }

    #[test]
    fn target_pressure_respects_floor_and_warming_guard() {
        let mut p = TargetPressureScaler::new(1.0, 0.1, 0);
        // Idle single Active slot at the floor: hold, not down.
        let at_floor = [slot(0, 0, 0, LifecycleState::Active)];
        assert_eq!(p.decide(&snap(0, 0, &at_floor)), ScaleDecision::Hold);
        // Hot fleet but a slot already warming: don't double-provision.
        let warming =
            [slot(0, 20, 8, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Warming)];
        assert_eq!(p.decide(&snap(1, 5, &warming)), ScaleDecision::Hold);
    }

    #[test]
    fn keep_alive_learns_gaps_and_prewarms_a_cold_start_early() {
        let mut p = HybridHistogramKeepAlive::new(32);
        // During bursts the fleet runs two Active slots — that is the
        // burst-time size the predictor must restore.
        let two = [slot(0, 0, 2, LifecycleState::Active), slot(1, 0, 1, LifecycleState::Active)];
        // Bursts at steps 0, 1000, 2000 (arrivals on 3 consecutive
        // steps each): two observed inter-burst gaps of 998.
        for burst_start in [0u64, 1000, 2000] {
            for s in burst_start..burst_start + 3 {
                p.decide(&snap(s, 4, &two));
            }
        }
        assert_eq!(p.observed_gaps(), 2);
        assert_eq!(p.predicted_gap(), Some(998));
        // Quiescent scaled-down fleet mid-gap: prewarm_at points a cold
        // start ahead of the predicted next burst.
        let idle = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        let s = snap(2100, 0, &idle);
        let predicted = 2002 + (998.0f64 * 0.9) as u64; // last arrival + margin × gap
        assert_eq!(p.prewarm_at(&s), Some(predicted - 50));
        // At the prewarm step it scales back up to the burst-time size.
        let at_warm = snap(predicted - 50, 0, &idle);
        assert_eq!(p.decide(&at_warm), ScaleDecision::ScaleUp { count: 1 });
        assert_eq!(p.name(), "hybrid-histogram-keep-alive");
    }

    #[test]
    fn keep_alive_releases_capacity_once_a_burst_is_over() {
        let mut p = HybridHistogramKeepAlive::new(32);
        let two = [slot(0, 0, 2, LifecycleState::Active), slot(1, 0, 1, LifecycleState::Active)];
        p.decide(&snap(100, 3, &two)); // arrival: burst_target = 2
                                       // 33 idle steps later, fully drained: release down to the floor.
        let idle = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Active)];
        // The engine idle-jumps between bursts, so the policy must *ask*
        // to be woken at the release point — otherwise it would still be
        // holding burst capacity at the next wake.
        assert_eq!(p.prewarm_at(&snap(110, 0, &idle)), Some(133));
        assert_eq!(p.decide(&snap(134, 0, &idle)), ScaleDecision::ScaleDown { count: 1 });
        // But not while requests are still in flight — and the squashed
        // reactive fallback cannot sneak a scale-down in either.
        let busy = [slot(0, 0, 1, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Active)];
        let mut q = HybridHistogramKeepAlive::new(32);
        q.decide(&snap(100, 3, &busy));
        assert_eq!(q.decide(&snap(134, 0, &busy)), ScaleDecision::Hold);
    }

    #[test]
    fn keep_alive_without_history_falls_back_to_reactive() {
        let mut p = HybridHistogramKeepAlive::new(32);
        assert_eq!(p.predicted_gap(), None);
        let hot = [slot(0, 20, 8, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        // First decide observes the arrivals AND reacts to the pressure.
        assert_eq!(p.decide(&snap(0, 5, &hot)), ScaleDecision::ScaleUp { count: 1 });
        let idle = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        assert_eq!(p.prewarm_at(&snap(10, 0, &idle)), None, "no history, no prediction");
    }

    /// Assorted fleets: hot with a spare, hot with a slot warming, idle
    /// at two slots and at the floor, lightly loaded and busy.
    fn assorted_fleets() -> Vec<Vec<DeploymentView>> {
        use LifecycleState::{Active, Retired, Warming};
        vec![
            vec![slot(0, 20, 8, Active), slot(1, 0, 0, Retired)],
            vec![slot(0, 20, 8, Active), slot(1, 0, 0, Warming)],
            vec![slot(0, 0, 0, Active), slot(1, 0, 0, Active)],
            vec![slot(0, 0, 0, Active), slot(1, 0, 0, Retired)],
            vec![slot(0, 0, 1, Active), slot(1, 0, 0, Active), slot(2, 0, 0, Retired)],
            vec![slot(0, 0, 2, Active), slot(1, 0, 1, Active)],
            vec![slot(0, 0, 0, Retired), slot(1, 0, 0, Retired)],
        ]
    }

    /// The [`AutoscalePolicy::next_wake`] contract, from `policy` at step
    /// `t` over `views` with nothing arriving: every step before the wake
    /// holds with the state unchanged, and at a finite wake the policy
    /// acts or its state changes. Returns the wake.
    fn check_next_wake<P>(policy: &P, views: &[DeploymentView], t: u64) -> u64
    where
        P: AutoscalePolicy + Clone + PartialEq,
    {
        let wake = policy.next_wake(&snap(t, 0, views));
        assert!(wake > t, "{policy:?}: wake {wake} not after step {t}");
        let mut p = policy.clone();
        for s in t + 1..wake.min(t + 4000) {
            assert_eq!(p.decide(&snap(s, 0, views)), ScaleDecision::Hold, "{policy:?} at {s}");
            assert!(p == *policy, "{policy:?}: state changed at {s}, before wake {wake}");
        }
        if wake < t + 4000 {
            let acted = p.decide(&snap(wake, 0, views)) != ScaleDecision::Hold;
            assert!(acted || p != *policy, "{policy:?}: nothing happens at wake {wake}");
        }
        wake
    }

    /// Checks the contract from every policy state and fleet at several
    /// steps after `now`, and counts the wakes that skip a step.
    fn check_states<P>(states: &[(P, u64)]) -> usize
    where
        P: AutoscalePolicy + Clone + PartialEq,
    {
        let mut skips = 0;
        for (policy, now) in states {
            for views in assorted_fleets() {
                for dt in [0, 1, 9, 33, 500, 880] {
                    let t = now + dt;
                    skips += usize::from(check_next_wake(policy, &views, t) > t + 1);
                }
            }
        }
        skips
    }

    #[test]
    fn pinned_fleet_never_wakes() {
        for views in assorted_fleets() {
            assert_eq!(check_next_wake(&PinnedFleet, &views, 7), u64::MAX);
        }
    }

    #[test]
    fn target_pressure_next_wake_is_exact() {
        let hot = [slot(0, 20, 8, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        let idle = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Active)];
        let mut states = Vec::new();
        for cooldown in [0, 10, 64] {
            let fresh = TargetPressureScaler::new(1.0, 0.1, cooldown);
            let (mut up, mut down) = (fresh, fresh);
            assert_eq!(up.decide(&snap(3, 4, &hot)), ScaleDecision::ScaleUp { count: 1 });
            assert_eq!(down.decide(&snap(3, 0, &idle)), ScaleDecision::ScaleDown { count: 1 });
            states.extend([(fresh, 0), (up, 3), (down, 3)]);
        }
        assert!(check_states(&states) > 0, "no wake ever skipped a step");
    }

    #[test]
    fn keep_alive_next_wake_is_exact() {
        let two = [slot(0, 0, 2, LifecycleState::Active), slot(1, 0, 1, LifecycleState::Active)];
        let fresh = HybridHistogramKeepAlive::new(32);
        // One arrival at step 100 into a busy two-slot fleet.
        let mut seen = fresh.clone();
        seen.decide(&snap(100, 3, &two));
        // Bursts at steps 0, 1000 and 2000: a learned gap of 998, so a
        // pre-warm window opens near step 2850.
        let mut learned = fresh.clone();
        for burst_start in [0u64, 1000, 2000] {
            for s in burst_start..burst_start + 3 {
                learned.decide(&snap(s, 4, &two));
            }
        }
        // The same history, then a reactive scale-down squashed at 2100,
        // which leaves the reactive cooldown running.
        let mut squashed = learned.clone();
        squashed.reactive.cooldown_steps = 640;
        let light = [slot(0, 0, 1, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Active)];
        assert_eq!(squashed.decide(&snap(2100, 0, &light)), ScaleDecision::Hold);
        assert_ne!(squashed, learned, "the squashed scale-down restarts the cooldown");
        let states = [(fresh, 0), (seen, 100), (learned.clone(), 2002), (squashed, 2100)];
        assert!(check_states(&states) > 0, "no wake ever skipped a step");
        // The pre-warm window bounds a quiet fleet's wake from below the
        // burst-time size.
        let spare = [slot(0, 0, 0, LifecycleState::Active), slot(1, 0, 0, LifecycleState::Retired)];
        let predicted = 2002 + (998.0f64 * 0.9) as u64;
        assert_eq!(learned.next_wake(&snap(2100, 0, &spare)), predicted - 50);
    }

    #[test]
    fn log2_buckets_group_by_magnitude() {
        assert_eq!(HybridHistogramKeepAlive::bucket(1), 0);
        assert_eq!(HybridHistogramKeepAlive::bucket(2), 1);
        assert_eq!(HybridHistogramKeepAlive::bucket(3), 1);
        assert_eq!(HybridHistogramKeepAlive::bucket(1000), 9);
        assert_eq!(HybridHistogramKeepAlive::bucket(1024), 10);
        assert_eq!(HybridHistogramKeepAlive::bucket(u64::MAX), 63);
    }
}
