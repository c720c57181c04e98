//! The fixed cluster: N independent deployments sharing one trace under
//! a [`RoutingPolicy`], as a thin facade over the elastic engine's
//! lockstep loop with every slot pinned Active.

use super::elastic::{ElasticClusterEngine, ElasticConfig, PinnedFleet};
use super::policy::RoutingPolicy;
use super::report::ClusterReport;
use crate::runner::CoreError;
use crate::serve::ServeEngine;
use hilos_llm::Request;

/// A multi-deployment cluster: one trace balanced across heterogeneous
/// HILOS deployments.
///
/// Each deployment is a complete [`ServeEngine`] — its own
/// [`HilosSystem`](crate::HilosSystem) (device count, degradations), its
/// own [`SchedulingPolicy`](crate::SchedulingPolicy) and its own
/// per-device KV shard ledgers. The cluster owns the *global* concerns:
/// the arrival cursor every deployment shares, dispatch of each arriving
/// request through the [`RoutingPolicy`], cross-deployment re-dispatch of
/// preempted requests, and stall detection across the whole cluster.
///
/// The loop that does all of this is [`ElasticClusterEngine`]'s: a fixed
/// cluster is that engine with every slot Active from the start and the
/// never-scaling [`PinnedFleet`] autoscaler, so no lifecycle transition,
/// drain or cold start ever happens. This type only hides the
/// autoscaler, lifecycles and bill from callers that size the fleet
/// themselves.
///
/// # Time
///
/// Deployments advance in lockstep — one serving iteration each per
/// global step — but keep their own simulated clocks, which only move
/// under work (idle time is skipped, not simulated).
/// [`ServeEngine::run_trace`] runs the same loop over one engine, so a
/// cluster of one deployment is *bit-identical* to it on the same
/// system, whatever the routing policy — pinned by a golden test. A request
/// migrated between deployments has its timestamps re-based by the clock
/// delta, so its latencies sum the busy time it spent on each deployment.
///
/// # Determinism
///
/// The shared loop's two-phase step (every busy slot advances in place,
/// or catches up through a quiet window before anything touches it, then
/// a merge in deployment-index order makes every routing and migration
/// decision) makes a run a deterministic function of its
/// trace and configuration: reports, golden FNV pins and traced event
/// streams reproduce bit for bit.
///
/// # Examples
///
/// ```
/// use hilos_core::cluster::{ClusterEngine, LedgerPressure};
/// use hilos_core::{HilosConfig, HilosSystem, ServeConfig, ServeEngine};
/// use hilos_llm::{presets, TraceConfig};
/// use hilos_platform::SystemSpec;
///
/// # fn main() -> Result<(), hilos_core::CoreError> {
/// let deployment = |n: usize| -> Result<ServeEngine, hilos_core::CoreError> {
///     let sys = HilosSystem::new(
///         &SystemSpec::a100_smartssd(n),
///         &presets::opt_30b(),
///         &HilosConfig::new(n),
///     )?
///     .with_sim_layers(1);
///     ServeEngine::new(sys, ServeConfig::new(8))
/// };
/// let mut cluster = ClusterEngine::new(
///     vec![deployment(8)?, deployment(4)?],
///     Box::new(LedgerPressure::new()),
/// );
/// let trace = TraceConfig::azure_mix(32, 7).generate().unwrap();
/// let report = cluster.run_trace(&trace)?;
/// assert_eq!(report.completed() + report.rejected_len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterEngine {
    fleet: ElasticClusterEngine,
}

impl ClusterEngine {
    /// Assembles a cluster from fully-built deployments (each keeps the
    /// scheduling policy it was built with) and a routing policy.
    /// Deployments are assigned [`DeploymentId`](hilos_llm::DeploymentId)s
    /// in vector order.
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty.
    pub fn new(deployments: Vec<ServeEngine>, routing: Box<dyn RoutingPolicy>) -> Self {
        let elastic = ElasticConfig::new(deployments.len());
        let fleet = ElasticClusterEngine::new(deployments, routing, Box::new(PinnedFleet), elastic);
        ClusterEngine { fleet }
    }

    /// Number of deployments.
    pub fn deployment_count(&self) -> usize {
        self.fleet.deployment_count()
    }

    /// The active routing policy's name.
    pub fn routing_name(&self) -> &'static str {
        self.fleet.routing_name()
    }

    /// The deployments, in [`DeploymentId`](hilos_llm::DeploymentId) order.
    pub fn deployments(&self) -> &[ServeEngine] {
        self.fleet.deployments()
    }

    /// Serves a trace of requests (sorted by `arrival_step`) across the
    /// cluster to completion — one [`ElasticClusterEngine::run_trace`]
    /// on the pinned fleet, reporting its [`ClusterReport`].
    ///
    /// Each global step: (1) arrivals whose step has come are dispatched
    /// through the routing policy to a deployment's admission queue, at
    /// that deployment's clock; (2) every deployment with work runs one
    /// serving iteration ([scheduling → join → decode →
    /// eviction](crate::serve)); (3) requests a scheduling policy
    /// preempted this iteration are offered back to the *router*, which
    /// may re-dispatch them — progress retained — onto a less-pressured
    /// deployment.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsortedTrace`] if the trace is not sorted by
    /// arrival step; simulation errors; or
    /// [`CoreError::SchedulerStalled`] if every deployment with queued
    /// work holds it forever with nothing in flight.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ClusterReport, CoreError> {
        self.fleet.run_trace(trace).map(|report| report.cluster)
    }
}
