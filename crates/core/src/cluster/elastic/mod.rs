//! Fleet elasticity: deployment lifecycle, autoscaling, live drain, and
//! utilization billing.
//!
//! Routing answers "how should N deployments share a trace"; this module
//! answers "how many deployments should exist at each moment of it", and
//! holds the cluster's one lockstep loop. The fixed
//! [`ClusterEngine`](crate::cluster::ClusterEngine) is that loop with
//! every slot Active under [`PinnedFleet`]. Three pieces:
//!
//! * [`lifecycle`](self) — [`DeploymentLifecycle`], the per-slot state
//!   machine (`Provisioning → Warming → Active → Draining → Retired`,
//!   with `Retired → Provisioning` closing the keep-alive loop), and
//!   [`ColdStartModel`], which prices the Provisioning→Active transit
//!   from the slot's own model size and device bandwidth.
//! * [`AutoscalePolicy`] — fleet sizing, consulted once per global step
//!   with a read-only [`FleetSnapshot`]. Ships [`PinnedFleet`] (never
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
pub use engine::{ElasticClusterEngine, ElasticConfig, ElasticReport};
pub use lifecycle::{ColdStartModel, DeploymentLifecycle, LifecycleEvent, LifecycleState};
