//! Timing wrappers around the three policy traits the engines call back
//! into. Each wrapper delegates every trait method to the wrapped policy
//! unchanged — so the simulation takes exactly the same decisions — and
//! accumulates call counts and host nanoseconds of the decision methods.

use hilos_core::{
    AutoscalePolicy, ClusterSnapshot, FleetSnapshot, RouteRequest, RoutingPolicy, ScaleDecision,
    SchedDecision, SchedSnapshot, SchedulingPolicy,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and host time spent in one policy layer. The counters publish
/// no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStats {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Decision calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Host seconds inside the decision calls.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// The counters of one traced run, shared by every wrapper instance (a
/// fleet wraps one scheduling policy per slot).
#[derive(Debug, Default)]
pub struct Probes {
    /// `SchedulingPolicy::schedule`.
    pub schedule: Arc<CallStats>,
    /// `RoutingPolicy::route`.
    pub route: Arc<CallStats>,
    /// `AutoscalePolicy::decide` and `AutoscalePolicy::prewarm_at`.
    pub autoscale: Arc<CallStats>,
}

impl Probes {
    /// Host seconds spent in any policy.
    pub fn policy_seconds(&self) -> f64 {
        self.schedule.seconds() + self.route.seconds() + self.autoscale.seconds()
    }

    /// Wraps a scheduling policy.
    pub fn scheduling(&self, inner: Box<dyn SchedulingPolicy>) -> Box<dyn SchedulingPolicy> {
        Box::new(TimedScheduling { inner, stats: Arc::clone(&self.schedule) })
    }

    /// Wraps a routing policy.
    pub fn routing(&self, inner: Box<dyn RoutingPolicy>) -> Box<dyn RoutingPolicy> {
        Box::new(TimedRouting { inner, stats: Arc::clone(&self.route) })
    }

    /// Wraps an autoscale policy.
    pub fn autoscale(&self, inner: Box<dyn AutoscalePolicy>) -> Box<dyn AutoscalePolicy> {
        Box::new(TimedAutoscale { inner, stats: Arc::clone(&self.autoscale) })
    }
}

#[derive(Debug)]
struct TimedScheduling {
    inner: Box<dyn SchedulingPolicy>,
    stats: Arc<CallStats>,
}

impl SchedulingPolicy for TimedScheduling {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn may_preempt(&self) -> bool {
        self.inner.may_preempt()
    }

    fn may_shed(&self) -> bool {
        self.inner.may_shed()
    }

    fn queue_horizon(&self, free_slots: usize) -> Option<usize> {
        self.inner.queue_horizon(free_slots)
    }

    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        let inner = &mut self.inner;
        self.stats.timed(|| inner.schedule(snapshot))
    }
}

#[derive(Debug)]
struct TimedRouting {
    inner: Box<dyn RoutingPolicy>,
    stats: Arc<CallStats>,
}

impl RoutingPolicy for TimedRouting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        let inner = &mut self.inner;
        self.stats.timed(|| inner.route(request, snapshot))
    }
}

#[derive(Debug)]
struct TimedAutoscale {
    inner: Box<dyn AutoscalePolicy>,
    stats: Arc<CallStats>,
}

impl AutoscalePolicy for TimedAutoscale {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &FleetSnapshot<'_>) -> ScaleDecision {
        let inner = &mut self.inner;
        self.stats.timed(|| inner.decide(snapshot))
    }

    fn prewarm_at(&self, snapshot: &FleetSnapshot<'_>) -> Option<u64> {
        self.stats.timed(|| self.inner.prewarm_at(snapshot))
    }
}
