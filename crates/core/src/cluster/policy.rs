//! Pluggable routing policies: which deployment gets each request.
//!
//! Routing mirrors the scheduling-policy API one layer up: a
//! [`RoutingPolicy`] is consulted once per dispatch with a read-only
//! [`ClusterSnapshot`] (per-deployment queue depth, in-flight batch
//! composition, KV shard-ledger pressure, degradation-discounted
//! bandwidth) and answers with a deployment index. The cluster loop
//! ([`ElasticClusterEngine`](super::ElasticClusterEngine), which the
//! fixed [`ClusterEngine`](super::ClusterEngine) wraps) executes the
//! choice — an out-of-range index is a policy bug, `debug_assert!`ed in
//! debug builds and counted in
//! [`ClusterReport::misrouted`](super::ClusterReport::misrouted) (then
//! clamped to the last deployment) in release builds.
//!
//! Four policies ship:
//!
//! * [`RoundRobin`] — the capacity-blind baseline: deployments take
//!   turns regardless of size or health.
//! * [`JoinShortestQueue`] — classic load balancing on queue depth plus
//!   in-flight work; blind to *how fast* each deployment drains.
//! * [`LedgerPressure`] — power-of-two-choices scored by free KV bytes ×
//!   aggregate device bandwidth per unit of load: the near-storage
//!   insight that per-deployment storage bandwidth (not queue length) is
//!   the binding resource, turned into a router.
//! * [`CostNormalizedPressure`] — the ledger-pressure score divided by
//!   the deployment's hourly provisioning cost
//!   ([`DeploymentView::hourly_cost_usd`]): placement by goodput per
//!   dollar, the fleet-cost story at dispatch granularity.
//!
//! Every shipped policy routes only to
//! [routable](DeploymentView::routable) deployments — under the elastic
//! engine ([`ElasticClusterEngine`](super::ElasticClusterEngine)) a
//! Provisioning, Warming, Draining or Retired deployment never receives
//! traffic. A fixed fleet is always entirely Active, where the filter is
//! the identity and dispatch stays bit-identical to the golden pins.
//!
//! # Implementing your own policy
//!
//! ```
//! use hilos_core::cluster::{ClusterSnapshot, RouteRequest, RoutingPolicy};
//!
//! /// Send long prompts to the biggest deployment, the rest anywhere.
//! #[derive(Debug, Default)]
//! struct LongToBig;
//!
//! impl RoutingPolicy for LongToBig {
//!     fn name(&self) -> &'static str {
//!         "long-to-big"
//!     }
//!
//!     fn route(&mut self, req: &RouteRequest, snap: &ClusterSnapshot<'_>) -> usize {
//!         let biggest = snap
//!             .deployments
//!             .iter()
//!             .max_by(|a, b| {
//!                 a.placeable_free_bytes
//!                     .cmp(&b.placeable_free_bytes)
//!                     .then(b.id.cmp(&a.id)) // ties to the lower index
//!             })
//!             .expect("a cluster has at least one deployment")
//!             .id as usize;
//!         if req.prompt_len > 4096 {
//!             biggest
//!         } else {
//!             (req.id as usize) % snap.deployments.len()
//!         }
//!     }
//! }
//! # let _ = LongToBig;
//! ```
//!
//! Policies may keep state across dispatches (`route` takes `&mut
//! self`); determinism of a cluster run requires the policy itself to be
//! deterministic — [`LedgerPressure`]'s two "random" probes come from a
//! seeded LCG for exactly this reason.

use super::elastic::LifecycleState;
use hilos_llm::{Priority, Request, RequestClass};
use std::fmt;

/// The request being dispatched, as the routing policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteRequest {
    /// Request id.
    pub id: u64,
    /// Workload class.
    pub class: RequestClass,
    /// Scheduling priority from the request's SLO.
    pub priority: Priority,
    /// Prompt length in tokens.
    pub prompt_len: u64,
    /// Output budget in tokens.
    pub output_budget: u64,
    /// Tokens already generated (non-zero only when a preempted request
    /// is re-dispatched with retained progress).
    pub emitted: u64,
    /// `true` when this is a cross-deployment re-dispatch of a preempted
    /// request rather than a fresh arrival.
    pub redispatch: bool,
}

impl RouteRequest {
    /// The routing view of `req` — the single construction point for the
    /// fresh-arrival (`emitted == 0`, `redispatch == false`) and
    /// preemption re-dispatch paths, so a field added here reaches both.
    pub fn of(req: &Request, emitted: u64, redispatch: bool) -> Self {
        RouteRequest {
            id: req.id,
            class: req.class,
            priority: req.slo.priority,
            prompt_len: req.prompt_len,
            output_budget: req.output_budget,
            emitted,
            redispatch,
        }
    }
}

/// One deployment's serving state, as the routing policy sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentView {
    /// The deployment's cluster index.
    pub id: u32,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// In-flight requests whose prefill is still running.
    pub prefilling: usize,
    /// In-flight requests currently decoding.
    pub decoding: usize,
    /// The deployment's admission cap.
    pub max_batch: u32,
    /// Aggregate KV shard-ledger pressure, `[0, 1]`
    /// ([`KvShardLedger::pressure`](hilos_storage::KvShardLedger::pressure)).
    pub pressure: f64,
    /// Free bytes across placement-eligible devices.
    pub placeable_free_bytes: u64,
    /// Sum of the ledger's placement weights: aggregate storage bandwidth
    /// with degraded/offline devices discounted.
    pub bandwidth_weight: f64,
    /// Requests dispatched to this deployment so far.
    pub dispatched: u64,
    /// Lifetime prefix KV-cache hit rate of the deployment's engine,
    /// `[0, 1]` — `0.0` with the cache off (or before any probe), so
    /// cache-off routing scores are untouched. A warm cache makes a
    /// deployment *more* attractive for prefix-sharing traffic: hits
    /// skip prefill work entirely.
    pub prefix_hit_rate: f64,
    /// Where the deployment is in its lifecycle. A fixed
    /// [`ClusterEngine`](super::ClusterEngine) fleet is always
    /// [`Active`](LifecycleState::Active); under the elastic engine only
    /// Active deployments may take traffic — the shipped policies skip
    /// everything else (see [`DeploymentView::routable`]).
    pub lifecycle: LifecycleState,
    /// What keeping this deployment provisioned costs per hour: 3-year
    /// amortized capex plus full-utilization energy
    /// ([`hilos_metrics::hourly_cost_usd`]). The denominator of
    /// cost-normalized routing.
    pub hourly_cost_usd: f64,
}

impl DeploymentView {
    /// In-flight requests (prefilling + decoding).
    pub fn in_flight(&self) -> usize {
        self.prefilling + self.decoding
    }

    /// Total load: queued plus in-flight requests.
    pub fn load(&self) -> usize {
        self.queued + self.in_flight()
    }

    /// Whether the deployment may take new traffic: only
    /// [`Active`](LifecycleState::Active) deployments are routable —
    /// Provisioning/Warming ones cannot serve yet, Draining ones are
    /// being evacuated, Retired ones are gone.
    pub fn routable(&self) -> bool {
        self.lifecycle == LifecycleState::Active
    }
}

/// Read-only snapshot of the whole cluster, handed to
/// [`RoutingPolicy::route`] once per dispatch.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot<'a> {
    /// The global arrival cursor (serving step).
    pub step: u64,
    /// Every deployment, in cluster index order (never empty).
    pub deployments: &'a [DeploymentView],
}

/// A request-to-deployment dispatch policy consulted once per arrival
/// (and once per cross-deployment re-dispatch of a preempted request).
pub trait RoutingPolicy: fmt::Debug {
    /// Stable policy name, recorded in
    /// [`ClusterReport::routing`](super::ClusterReport::routing).
    fn name(&self) -> &'static str;

    /// Picks the deployment index for `request`. An index past the last
    /// deployment is a policy bug: the engine `debug_assert!`s it,
    /// counts it in
    /// [`ClusterReport::misrouted`](super::ClusterReport::misrouted),
    /// and clamps to the last deployment in release builds.
    fn route(&mut self, request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize;
}

/// Capacity-blind rotation: deployment `k`, then `k+1`, … — the baseline
/// every balancing policy must beat on a heterogeneous cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A round-robin router starting at deployment 0.
    pub fn new() -> Self {
        RoundRobin { next: 0 }
    }
}

impl RoutingPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        // Rotate over the *routable* deployments only; with the whole
        // fleet Active (every fixed cluster) this is the historical
        // rotation bit for bit.
        let routable: Vec<&DeploymentView> =
            snapshot.deployments.iter().filter(|d| d.routable()).collect();
        if routable.is_empty() {
            return 0;
        }
        let d = routable[self.next % routable.len()].id as usize;
        self.next = (self.next + 1) % routable.len();
        d
    }
}

/// Join-the-shortest-queue: the deployment with the least total load
/// (queued + in-flight), ties to the lower index. Better than rotation
/// under skewed load, but blind to how fast each deployment drains — a
/// half-degraded 4-device deployment looks as attractive as a healthy
/// 8-device one whenever their queues match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinShortestQueue;

impl RoutingPolicy for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "join-shortest-queue"
    }

    fn route(&mut self, _request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        snapshot
            .deployments
            .iter()
            .filter(|d| d.routable())
            .min_by(|a, b| a.load().cmp(&b.load()).then(a.id.cmp(&b.id)))
            .map(|d| d.id as usize)
            .unwrap_or(0)
    }
}

/// Power-of-two-choices weighted by KV headroom and storage bandwidth.
///
/// Two deployments are probed per dispatch (deterministic seeded LCG);
/// the request goes to the one with the higher score
///
/// ```text
/// score(d) = free KV bytes(d) × bandwidth weight(d) / (1 + load(d))
/// ```
///
/// — free bytes measure how much more KV the deployment can hold,
/// the bandwidth weight (degradation-discounted aggregate device read
/// bandwidth) measures how fast it sweeps what it holds, and the load
/// divisor shares both among the requests already there. Probing two and
/// taking the better is the classic exponential improvement over random
/// placement, and keeps the policy O(1) per dispatch instead of scanning
/// the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerPressure {
    lcg: u64,
}

impl LedgerPressure {
    /// The default deterministic probe sequence.
    pub fn new() -> Self {
        LedgerPressure::seeded(0x9e3779b97f4a7c15)
    }

    /// A probe sequence from an explicit seed (runs are deterministic in
    /// the seed).
    pub fn seeded(seed: u64) -> Self {
        LedgerPressure { lcg: seed }
    }

    fn probe(&mut self, n: usize) -> usize {
        // Knuth's MMIX LCG; the high bits are the usable ones.
        self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.lcg >> 33) % n as u64) as usize
    }

    fn score(d: &DeploymentView) -> f64 {
        let mut s = d.placeable_free_bytes as f64 * d.bandwidth_weight / (1.0 + d.load() as f64);
        // Cache affinity: a warm prefix cache turns prompt tokens into
        // free admissions, worth up to 2× in the score. Inert (branch
        // untaken) with the cache off — hit rate is exactly 0.0.
        if d.prefix_hit_rate > 0.0 {
            s *= 1.0 + d.prefix_hit_rate;
        }
        s
    }
}

impl Default for LedgerPressure {
    fn default() -> Self {
        LedgerPressure::new()
    }
}

impl RoutingPolicy for LedgerPressure {
    fn name(&self) -> &'static str {
        "ledger-pressure"
    }

    fn route(&mut self, _request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        // Probe among the routable deployments only — with the whole
        // fleet Active the probe sequence (and thus the golden-pinned
        // dispatch) is the historical one bit for bit.
        let routable: Vec<&DeploymentView> =
            snapshot.deployments.iter().filter(|d| d.routable()).collect();
        if routable.is_empty() {
            return 0;
        }
        let n = routable.len();
        let (i, j) = (self.probe(n), self.probe(n));
        let (a, b) = (routable[i], routable[j]);
        let (sa, sb) = (LedgerPressure::score(a), LedgerPressure::score(b));
        // Ties (including i == j) go to the lower index.
        if sb > sa || (sb == sa && b.id < a.id) {
            b.id as usize
        } else {
            a.id as usize
        }
    }
}

/// Cost-normalized placement: the deployment where a request buys the
/// most serving capacity per dollar.
///
/// Every dispatch scans the routable fleet and places on the deployment
/// maximizing
///
/// ```text
/// score(d) = free KV bytes(d) × bandwidth weight(d)
///            / (1 + load(d)) / hourly cost(d)
/// ```
///
/// — the [`LedgerPressure`] capacity-per-load score divided by what
/// keeping the deployment provisioned costs per hour
/// ([`DeploymentView::hourly_cost_usd`]: 3-year amortized capex plus
/// full-utilization energy). Where ledger-pressure maximizes goodput,
/// this maximizes *goodput per dollar*: a small cheap array wins over a
/// big expensive one until its load catches up, which is exactly the
/// packing an elastic fleet wants — expensive capacity is the first to
/// go idle and be drained. Deterministic (no probe RNG) and O(n) per
/// dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostNormalizedPressure;

impl CostNormalizedPressure {
    fn score(d: &DeploymentView) -> f64 {
        let mut s = d.placeable_free_bytes as f64 * d.bandwidth_weight / (1.0 + d.load() as f64);
        if d.prefix_hit_rate > 0.0 {
            s *= 1.0 + d.prefix_hit_rate;
        }
        // A zero-cost view (tests, synthetic snapshots) falls back to
        // the raw capacity score rather than dividing by zero.
        if d.hourly_cost_usd > 0.0 {
            s /= d.hourly_cost_usd;
        }
        s
    }
}

impl RoutingPolicy for CostNormalizedPressure {
    fn name(&self) -> &'static str {
        "cost-normalized-pressure"
    }

    fn route(&mut self, _request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        snapshot
            .deployments
            .iter()
            .filter(|d| d.routable())
            .max_by(|a, b| {
                CostNormalizedPressure::score(a)
                    .total_cmp(&CostNormalizedPressure::score(b))
                    // Exact score ties (e.g. freshly woken slots with
                    // identical free capacity) go to a deployment whose
                    // prefix cache is already warm — elastic scale-up
                    // lands traffic where prior requests left reusable
                    // KV prefixes.
                    .then((a.prefix_hit_rate > 0.0).cmp(&(b.prefix_hit_rate > 0.0)))
                    .then(b.id.cmp(&a.id)) // remaining ties to the lower index
            })
            .map(|d| d.id as usize)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, queued: usize, decoding: usize, free: u64, bw: f64) -> DeploymentView {
        DeploymentView {
            id,
            queued,
            prefilling: 0,
            decoding,
            max_batch: 8,
            pressure: 0.0,
            placeable_free_bytes: free,
            bandwidth_weight: bw,
            dispatched: 0,
            prefix_hit_rate: 0.0,
            lifecycle: LifecycleState::Active,
            hourly_cost_usd: 0.0,
        }
    }

    fn req(id: u64) -> RouteRequest {
        RouteRequest {
            id,
            class: RequestClass::Medium,
            priority: Priority::Normal,
            prompt_len: 1024,
            output_budget: 350,
            emitted: 0,
            redispatch: false,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let views = [view(0, 0, 0, 1, 1.0), view(1, 0, 0, 1, 1.0), view(2, 0, 0, 1, 1.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..7).map(|i| rr.route(&req(i), &snap)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(rr.name(), "round-robin");
    }

    #[test]
    fn jsq_picks_least_loaded_with_index_ties() {
        let views = [view(0, 3, 2, 1, 1.0), view(1, 1, 1, 1, 1.0), view(2, 0, 2, 1, 1.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let mut jsq = JoinShortestQueue;
        // Deployments 1 and 2 both have load 2 (vs 5): the lower index
        // wins the tie.
        assert_eq!(views[1].load(), 2);
        assert_eq!(views[2].load(), 2);
        assert_eq!(jsq.route(&req(0), &snap), 1);
        assert_eq!(jsq.name(), "join-shortest-queue");
    }

    #[test]
    fn ledger_pressure_prefers_headroom_times_bandwidth() {
        // Deployment 1 has twice the free bytes *and* bandwidth of 0;
        // whatever pair the probes draw, 1 must win every dispatch in a
        // 2-deployment cluster (every pair contains it or is {0,0}).
        let views = [view(0, 0, 0, 1 << 30, 10.0), view(1, 0, 0, 2 << 30, 20.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let mut lp = LedgerPressure::new();
        let picks: Vec<usize> = (0..32).map(|i| lp.route(&req(i), &snap)).collect();
        assert!(picks.contains(&1), "the better deployment is never probed?");
        // Whenever 1 is among the two probes it wins; 0 only appears when
        // both probes landed on 0.
        for (i, &p) in picks.iter().enumerate() {
            if p == 0 {
                // Re-derive the probe pair deterministically.
                let mut replay = LedgerPressure::new();
                let mut pair = (0, 0);
                for _ in 0..=i {
                    pair = (replay.probe(2), replay.probe(2));
                }
                assert_eq!(pair, (0, 0), "dispatch {i} picked 0 despite probing 1");
            }
        }
        assert_eq!(lp.name(), "ledger-pressure");
    }

    #[test]
    fn ledger_pressure_load_divisor_sheds_busy_deployments() {
        // Same capacity, but deployment 0 is buried in queued work: the
        // score divisor must route to 1 whenever both are probed.
        let views = [view(0, 50, 8, 1 << 30, 10.0), view(1, 0, 0, 1 << 30, 10.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert!(LedgerPressure::score(&views[1]) > LedgerPressure::score(&views[0]));
        let mut lp = LedgerPressure::new();
        let picks: Vec<usize> = (0..32).map(|i| lp.route(&req(i), &snap)).collect();
        let to_idle = picks.iter().filter(|&&p| p == 1).count();
        assert!(to_idle > 16, "most dispatches should shed to the idle deployment: {picks:?}");
    }

    #[test]
    fn ledger_pressure_prefers_warm_prefix_caches() {
        // Identical capacity and load; the warm cache breaks the tie.
        let cold = view(0, 0, 0, 1 << 30, 10.0);
        let warm = DeploymentView { prefix_hit_rate: 0.5, ..view(1, 0, 0, 1 << 30, 10.0) };
        assert!(LedgerPressure::score(&warm) > LedgerPressure::score(&cold));
        assert!(
            (LedgerPressure::score(&warm) - 1.5 * LedgerPressure::score(&cold)).abs() < 1e-6,
            "a 0.5 hit rate is worth exactly 1.5x"
        );
        // Zero hit rate (cache off) takes no branch: score unchanged.
        assert_eq!(
            LedgerPressure::score(&cold),
            LedgerPressure::score(&view(2, 0, 0, 1 << 30, 10.0))
        );
    }

    #[test]
    fn ledger_pressure_is_deterministic_in_its_seed() {
        let views = [view(0, 1, 0, 1 << 30, 1.0), view(1, 0, 1, 1 << 29, 2.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let run = |seed| {
            let mut lp = LedgerPressure::seeded(seed);
            (0..64).map(|i| lp.route(&req(i), &snap)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same probe sequence");
    }

    #[test]
    fn views_expose_load_arithmetic() {
        let v = DeploymentView { prefilling: 2, ..view(0, 3, 4, 1, 1.0) };
        assert_eq!(v.in_flight(), 6);
        assert_eq!(v.load(), 9);
    }

    #[test]
    fn every_shipped_policy_skips_non_routable_deployments() {
        // Deployment 0 is the obvious winner on every score — but it is
        // Draining, and 2 is still Provisioning; only 1 may be picked.
        let views = [
            DeploymentView { lifecycle: LifecycleState::Draining, ..view(0, 0, 0, 8 << 30, 50.0) },
            view(1, 4, 2, 1 << 20, 1.0),
            DeploymentView {
                lifecycle: LifecycleState::Provisioning,
                ..view(2, 0, 0, 8 << 30, 50.0)
            },
        ];
        assert!(!views[0].routable() && views[1].routable() && !views[2].routable());
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let mut policies: Vec<Box<dyn RoutingPolicy>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(JoinShortestQueue),
            Box::new(LedgerPressure::new()),
            Box::new(CostNormalizedPressure),
        ];
        for p in policies.iter_mut() {
            for i in 0..16 {
                assert_eq!(p.route(&req(i), &snap), 1, "{} routed to a dead deployment", p.name());
            }
        }
    }

    #[test]
    fn all_active_filter_is_the_identity_rotation_and_probe() {
        // With the whole fleet Active the routable filter must not
        // perturb round-robin order or the seeded probe sequence.
        let views = [view(0, 0, 0, 1, 1.0), view(1, 0, 0, 1, 1.0), view(2, 0, 0, 1, 1.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|i| rr.route(&req(i), &snap)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // LedgerPressure over equal deployments: replaying the raw probe
        // pairs must reproduce the routed picks exactly.
        let mut lp = LedgerPressure::new();
        let mut replay = LedgerPressure::new();
        for i in 0..32 {
            let routed = lp.route(&req(i), &snap);
            let (a, b) = (replay.probe(3), replay.probe(3));
            // Equal scores: ties to the lower index.
            assert_eq!(routed, a.min(b), "dispatch {i}");
        }
    }

    #[test]
    fn cost_normalized_pressure_prefers_capacity_per_dollar() {
        // Deployment 1 has twice the capacity but four times the cost:
        // normalized, 0 wins.
        let cheap = DeploymentView { hourly_cost_usd: 1.0, ..view(0, 0, 0, 1 << 30, 10.0) };
        let pricey = DeploymentView { hourly_cost_usd: 4.0, ..view(1, 0, 0, 2 << 30, 10.0) };
        assert!(
            CostNormalizedPressure::score(&cheap) > CostNormalizedPressure::score(&pricey),
            "2x capacity at 4x cost must lose"
        );
        let views = [cheap.clone(), pricey.clone()];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert_eq!(CostNormalizedPressure.route(&req(0), &snap), 0);
        // Load the cheap one up and the expensive capacity earns its
        // keep: 9 queued requests divide its score by 10.
        let views = [DeploymentView { queued: 9, ..cheap }, pricey];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert_eq!(CostNormalizedPressure.route(&req(1), &snap), 1);
        assert_eq!(CostNormalizedPressure.name(), "cost-normalized-pressure");
    }

    #[test]
    fn cost_normalized_pressure_breaks_score_ties_toward_warm_caches() {
        // Two freshly woken slots with zero free capacity score exactly
        // 0.0 each — the warmth tie-break places on the one whose prefix
        // cache already holds reusable KV, even at the higher index.
        let cold = view(0, 0, 0, 0, 10.0);
        let warm = DeploymentView { prefix_hit_rate: 0.25, ..view(1, 0, 0, 0, 10.0) };
        assert_eq!(CostNormalizedPressure::score(&cold), CostNormalizedPressure::score(&warm));
        let views = [cold.clone(), warm.clone()];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert_eq!(CostNormalizedPressure.route(&req(0), &snap), 1);
        // Both cold (or both warm): the tie still goes to the lower index.
        let views = [cold.clone(), view(1, 0, 0, 0, 10.0)];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert_eq!(CostNormalizedPressure.route(&req(1), &snap), 0);
        let views = [DeploymentView { prefix_hit_rate: 0.5, ..cold }, warm];
        let snap = ClusterSnapshot { step: 0, deployments: &views };
        assert_eq!(CostNormalizedPressure.route(&req(2), &snap), 0);
    }

    #[test]
    fn zero_cost_views_fall_back_to_raw_capacity_score() {
        // Synthetic snapshots without cost wiring must not divide by 0.
        let v = view(0, 0, 0, 1 << 30, 10.0);
        assert!(CostNormalizedPressure::score(&v).is_finite());
        assert_eq!(CostNormalizedPressure::score(&v), LedgerPressure::score(&v));
    }
}
