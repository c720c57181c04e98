//! Fleet elasticity: deployment lifecycle, autoscaling, live drain, and
//! utilization billing.
//!
//! Routing answers "how should N deployments share a trace"; this module
//! answers "how many deployments should exist at each moment of it", and
//! holds the crate's one serving loop. A fixed cluster is that loop
//! built by [`ElasticClusterEngine::pinned`], every slot Active under
//! [`PinnedFleet`], and
//! [`ServeEngine::run_trace`](crate::ServeEngine::run_trace) is it over
//! one slot. Three pieces:
//!
//! * [`lifecycle`](self) — [`DeploymentLifecycle`], the per-slot state
//!   machine (`Provisioning → Warming → Active → Draining → Retired`,
//!   with `Retired → Provisioning` closing the keep-alive loop), and
//!   [`ColdStartModel`], which prices the Provisioning→Active transit
//!   from the slot's own model size and device bandwidth.
//! * [`AutoscalePolicy`] — fleet sizing, consulted with a read-only
//!   [`FleetSnapshot`] on every global step the loop visits;
//!   [`AutoscalePolicy::next_wake`] bounds how far it may skip. Ships [`PinnedFleet`] (never
//!   scales — the elasticity-off control), [`TargetPressureScaler`]
//!   (reactive water marks) and [`HybridHistogramKeepAlive`]
//!   (inter-burst gap histogram → early release + predictive pre-warm).
//! * [`ElasticClusterEngine`] — the lockstep serving loop: routes,
//!   re-dispatches preempted work, executes the lifecycle and autoscale
//!   decisions, drains slots live through the cross-deployment migration
//!   path, and bills by utilization into an [`ElasticReport`].

mod autoscale;
mod engine;
mod lifecycle;

pub use autoscale::{
    AutoscalePolicy, FleetSnapshot, HybridHistogramKeepAlive, PinnedFleet, ScaleDecision,
    TargetPressureScaler,
};
pub(crate) use engine::Fleet;
pub use engine::{ElasticClusterEngine, ElasticConfig, ElasticReport};
pub use lifecycle::{ColdStartModel, DeploymentLifecycle, LifecycleEvent, LifecycleState};
