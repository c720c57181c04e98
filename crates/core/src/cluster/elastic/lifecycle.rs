//! The deployment lifecycle state machine and the seeded cold-start
//! model that prices its Provisioning → Warming transit.

use super::ElasticConfig;
use crate::serve::ServeEngine;
use std::fmt;

/// Where a deployment slot is in its life. The only legal transitions
/// are the forward arc
///
/// ```text
/// Provisioning → Warming → Active → Draining → Retired
/// ```
///
/// plus `Retired → Provisioning` (a scale-up re-provisions a retired
/// slot — the serverless keep-alive loop). [`DeploymentLifecycle`]
/// enforces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifecycleState {
    /// Container/VM provisioning: the slot is being stood up and cannot
    /// serve.
    Provisioning,
    /// Weights are streaming from storage into the serving tiers; the
    /// slot cannot serve yet.
    Warming,
    /// Serving traffic.
    Active,
    /// Being evacuated: in-flight and queued requests migrate off; no
    /// new traffic routes here.
    Draining,
    /// Not provisioned (the initial state of spare slots, and the final
    /// state after a drain completes). Bills nothing.
    Retired,
}

impl fmt::Display for LifecycleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LifecycleState::Provisioning => "provisioning",
            LifecycleState::Warming => "warming",
            LifecycleState::Active => "active",
            LifecycleState::Draining => "draining",
            LifecycleState::Retired => "retired",
        };
        write!(f, "{s}")
    }
}

/// The cold-start price of bringing a deployment slot to Active:
/// container provisioning plus streaming the model's weights onto the
/// array, priced off the deployment's own device bandwidth and model
/// size — a bigger model on a smaller array warms slower, exactly the
/// asymmetry a keep-alive predictor has to beat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColdStartModel {
    /// Seconds to provision the container/VM before weights can load.
    pub provision_s: f64,
    /// Seconds to stream the model's weights onto the array:
    /// `weight_bytes / aggregate sequential device bandwidth`.
    pub weight_load_s: f64,
}

impl ColdStartModel {
    /// Prices the cold start of `engine`'s deployment:
    /// [`ElasticConfig::PROVISION_S`] of container setup, then the model's
    /// full weight footprint pushed at the array's aggregate sequential
    /// bandwidth.
    pub fn for_deployment(engine: &ServeEngine) -> Self {
        let sys = engine.system();
        let spec = sys.spec();
        let per_device_bw = spec.storage.ssd_spec().seq_read_bw();
        let devices = spec.storage.device_count().max(1) as f64;
        let weight_load_s = sys.model().weight_bytes() as f64 / (per_device_bw * devices);
        ColdStartModel { provision_s: ElasticConfig::PROVISION_S, weight_load_s }
    }

    /// Total cold-start seconds (provision + weight load).
    pub fn total_s(&self) -> f64 {
        self.provision_s + self.weight_load_s
    }

    /// Provisioning seconds converted to global serving steps at
    /// `step_seconds_hint` seconds per step (at least 1 step).
    pub fn provision_steps(&self, step_seconds_hint: f64) -> u64 {
        to_steps(self.provision_s, step_seconds_hint)
    }

    /// Weight-load (warming) seconds converted to global serving steps
    /// (at least 1 step).
    pub fn warm_steps(&self, step_seconds_hint: f64) -> u64 {
        to_steps(self.weight_load_s, step_seconds_hint)
    }

    /// Whole cold start in steps: provisioning plus warming.
    pub fn total_steps(&self, step_seconds_hint: f64) -> u64 {
        self.provision_steps(step_seconds_hint) + self.warm_steps(step_seconds_hint)
    }
}

fn to_steps(seconds: f64, step_seconds_hint: f64) -> u64 {
    (seconds / step_seconds_hint.max(1e-9)).ceil().max(1.0) as u64
}

/// One lifecycle transition, stamped with the global step it happened
/// at — the elastic report's audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Global serving step of the transition.
    pub step: u64,
    /// The deployment slot that transitioned.
    pub deployment: u32,
    /// The state entered.
    pub to: LifecycleState,
}

/// The lifecycle state machine of one deployment slot: current state,
/// the cold-start model pricing its Provisioning → Warming → Active
/// transit, and the step thresholds of any transit in progress.
#[derive(Debug, Clone)]
pub struct DeploymentLifecycle {
    state: LifecycleState,
    cold_start: ColdStartModel,
    /// Step at which Provisioning flips to Warming (while provisioning).
    warm_at: u64,
    /// Step at which Warming flips to Active (while provisioning or
    /// warming).
    active_at: u64,
}

impl DeploymentLifecycle {
    /// A slot that starts the run already Active (the initially
    /// provisioned fleet).
    pub fn active(cold_start: ColdStartModel) -> Self {
        DeploymentLifecycle { state: LifecycleState::Active, cold_start, warm_at: 0, active_at: 0 }
    }

    /// A spare slot that starts the run unprovisioned.
    pub fn retired(cold_start: ColdStartModel) -> Self {
        DeploymentLifecycle { state: LifecycleState::Retired, cold_start, warm_at: 0, active_at: 0 }
    }

    /// Current state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// The slot's cold-start price.
    pub fn cold_start(&self) -> &ColdStartModel {
        &self.cold_start
    }

    /// Begins provisioning a Retired slot at `step`: it will reach
    /// Warming after the provision steps and Active after the warm
    /// steps. Returns the transition event, or `None` if the slot is not
    /// Retired (the engine never asks, but the machine still refuses).
    pub fn begin_provision(
        &mut self,
        step: u64,
        step_seconds_hint: f64,
        deployment: u32,
    ) -> Option<LifecycleEvent> {
        if self.state != LifecycleState::Retired {
            return None;
        }
        self.state = LifecycleState::Provisioning;
        self.warm_at = step + self.cold_start.provision_steps(step_seconds_hint);
        self.active_at = self.warm_at + self.cold_start.warm_steps(step_seconds_hint);
        Some(LifecycleEvent { step, deployment, to: LifecycleState::Provisioning })
    }

    /// Advances any transit in progress to `step`: Provisioning flips to
    /// Warming at its threshold, Warming to Active at its. Returns the
    /// transitions that fired (both, if a long idle jump crossed both
    /// thresholds at once).
    pub fn tick(&mut self, step: u64, deployment: u32) -> Vec<LifecycleEvent> {
        let mut events = Vec::new();
        if self.state == LifecycleState::Provisioning && step >= self.warm_at {
            self.state = LifecycleState::Warming;
            events.push(LifecycleEvent { step, deployment, to: LifecycleState::Warming });
        }
        if self.state == LifecycleState::Warming && step >= self.active_at {
            self.state = LifecycleState::Active;
            events.push(LifecycleEvent { step, deployment, to: LifecycleState::Active });
        }
        events
    }

    /// Begins draining an Active slot at `step`. Returns the event, or
    /// `None` if the slot is not Active.
    pub fn begin_drain(&mut self, step: u64, deployment: u32) -> Option<LifecycleEvent> {
        if self.state != LifecycleState::Active {
            return None;
        }
        self.state = LifecycleState::Draining;
        Some(LifecycleEvent { step, deployment, to: LifecycleState::Draining })
    }

    /// Retires a slot at `step` — legal from Draining (the planned
    /// path, once evacuation is complete) and from
    /// Provisioning/Warming (a cancelled cold start after the trace
    /// ends). Returns the event, or `None` from Active/Retired.
    pub fn retire(&mut self, step: u64, deployment: u32) -> Option<LifecycleEvent> {
        match self.state {
            LifecycleState::Draining | LifecycleState::Provisioning | LifecycleState::Warming => {
                self.state = LifecycleState::Retired;
                Some(LifecycleEvent { step, deployment, to: LifecycleState::Retired })
            }
            LifecycleState::Active | LifecycleState::Retired => None,
        }
    }

    /// The next step at which a transit in progress changes state
    /// (`None` when no transit is pending) — a wake-up no jump of the
    /// global step may pass, so a sleeping cluster still finishes its
    /// cold starts on time.
    pub fn next_transition_step(&self) -> Option<u64> {
        match self.state {
            LifecycleState::Provisioning => Some(self.warm_at),
            LifecycleState::Warming => Some(self.active_at),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ColdStartModel {
        ColdStartModel { provision_s: 10.0, weight_load_s: 30.0 }
    }

    #[test]
    fn cold_start_arithmetic() {
        let m = model();
        assert_eq!(m.total_s(), 40.0);
        assert_eq!(m.provision_steps(1.0), 10);
        assert_eq!(m.warm_steps(1.0), 30);
        assert_eq!(m.total_steps(1.0), 40);
        // Sub-step costs round up to a full step.
        assert_eq!(m.provision_steps(100.0), 1);
        assert_eq!(m.total_steps(0.5), 80);
    }

    #[test]
    fn forward_arc_provision_warm_active_drain_retire() {
        let mut lc = DeploymentLifecycle::retired(model());
        assert_eq!(lc.state(), LifecycleState::Retired);
        let ev = lc.begin_provision(100, 1.0, 3).expect("retired slots provision");
        assert_eq!(ev.to, LifecycleState::Provisioning);
        assert_eq!(lc.next_transition_step(), Some(110));
        assert!(lc.tick(105, 3).is_empty(), "not warm yet");
        let evs = lc.tick(110, 3);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].to, LifecycleState::Warming);
        assert_eq!(lc.next_transition_step(), Some(140));
        let evs = lc.tick(140, 3);
        assert_eq!(evs[0].to, LifecycleState::Active);
        assert_eq!(lc.next_transition_step(), None);
        let ev = lc.begin_drain(200, 3).expect("active slots drain");
        assert_eq!(ev.to, LifecycleState::Draining);
        let ev = lc.retire(210, 3).expect("draining slots retire");
        assert_eq!(ev.to, LifecycleState::Retired);
        // And the keep-alive loop closes: it can provision again.
        assert!(lc.begin_provision(300, 1.0, 3).is_some());
    }

    #[test]
    fn one_tick_crosses_both_thresholds_after_a_long_idle_jump() {
        let mut lc = DeploymentLifecycle::retired(model());
        lc.begin_provision(0, 1.0, 0);
        let evs = lc.tick(10_000, 0);
        assert_eq!(
            evs.iter().map(|e| e.to).collect::<Vec<_>>(),
            vec![LifecycleState::Warming, LifecycleState::Active]
        );
    }

    #[test]
    fn illegal_transitions_refuse() {
        let mut lc = DeploymentLifecycle::active(model());
        assert!(lc.begin_provision(0, 1.0, 0).is_none(), "active slots don't re-provision");
        assert!(lc.retire(0, 0).is_none(), "active slots retire through a drain");
        lc.begin_drain(5, 0).unwrap();
        assert!(lc.begin_drain(6, 0).is_none(), "draining is idempotent-refusing");
        lc.retire(7, 0).unwrap();
        assert!(lc.retire(8, 0).is_none(), "retired is terminal until re-provisioned");
    }

    #[test]
    fn cancelled_cold_start_retires_from_warming() {
        let mut lc = DeploymentLifecycle::retired(model());
        lc.begin_provision(0, 1.0, 1);
        lc.tick(10, 1);
        assert_eq!(lc.state(), LifecycleState::Warming);
        let ev = lc.retire(12, 1).expect("a cancelled cold start retires");
        assert_eq!(ev.to, LifecycleState::Retired);
    }
}
