//! Aggregated cluster-level reporting: per-deployment [`TraceReport`]s
//! plus global latency/goodput views built on the same
//! [`hilos_metrics`] primitives the single-deployment layer uses.

use crate::serve::{class_breakdown_of, RequestOutcome, TraceReport};
use hilos_metrics::{
    goodput, ClassReport, LatencyHistogram, LatencyStats, PrefillBreakdown, PrefixCacheStats,
};

/// Everything one cluster trace run reports.
///
/// Per-deployment detail lives in [`ClusterReport::deployments`] (one
/// full [`TraceReport`] each, in [`DeploymentId`](hilos_llm::DeploymentId)
/// order); the methods aggregate across them. Global goodput divides by
/// [`ClusterReport::elapsed_s`] — the *slowest* deployment's busy time —
/// so a router that dumps everything on one deployment is charged for
/// the idle capacity it stranded elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The routing policy that produced the run.
    pub routing: String,
    /// Per-deployment trace reports, in deployment order.
    pub deployments: Vec<TraceReport>,
    /// Fresh arrivals dispatched to each deployment, in deployment order
    /// (cross-deployment re-dispatches are not re-counted here).
    pub dispatched: Vec<u64>,
    /// Preempted requests the router moved to a *different* deployment
    /// than the one that preempted them.
    pub redispatches: u64,
    /// Out-of-range deployment indices the routing policy answered with
    /// (each one a policy bug — `debug_assert!`ed in debug builds,
    /// counted here and clamped to the last deployment in release).
    pub misrouted: u64,
}

impl ClusterReport {
    pub(crate) fn new(
        routing: String,
        deployments: Vec<TraceReport>,
        dispatched: Vec<u64>,
        redispatches: u64,
        misrouted: u64,
    ) -> Self {
        ClusterReport { routing, deployments, dispatched, redispatches, misrouted }
    }

    /// Number of deployments.
    pub fn deployment_count(&self) -> usize {
        self.deployments.len()
    }

    /// Every completed outcome across the cluster, in deployment order
    /// then completion order (each outcome records the deployment that
    /// finished it).
    pub fn outcomes(&self) -> impl Iterator<Item = &RequestOutcome> {
        self.deployments.iter().flat_map(|d| d.outcomes.iter())
    }

    /// Completed requests across the cluster.
    pub fn completed(&self) -> usize {
        self.deployments.iter().map(|d| d.outcomes.len()).sum()
    }

    /// Requests rejected as unplaceable across the cluster.
    pub fn rejected_len(&self) -> usize {
        self.deployments.iter().map(|d| d.rejected.len()).sum()
    }

    /// Tokens generated across the cluster.
    pub fn generated_tokens(&self) -> u64 {
        self.deployments.iter().map(|d| d.generated_tokens).sum()
    }

    /// Preemptions executed across the cluster (local re-queues and
    /// cross-deployment re-dispatches both count — they were preempted
    /// either way).
    pub fn preemptions(&self) -> u64 {
        self.deployments.iter().map(|d| d.preemptions).sum()
    }

    /// Requests shed by overload-shedding policies across the cluster.
    pub fn shed_len(&self) -> usize {
        self.deployments.iter().map(|d| d.shed.len()).sum()
    }

    /// Decode steps executed across the cluster.
    pub fn steps(&self) -> u64 {
        self.deployments.iter().map(|d| d.steps).sum()
    }

    /// Of [`ClusterReport::steps`], those run inside quiet windows (see
    /// [`TraceReport::windowed_steps`]).
    pub fn windowed_steps(&self) -> u64 {
        self.deployments.iter().map(|d| d.windowed_steps).sum()
    }

    /// Prefill re-materialization debt left by preemptions across the
    /// cluster, in tokens.
    pub fn wasted_prefill_tokens(&self) -> u64 {
        self.deployments.iter().map(|d| d.wasted_prefill_tokens).sum()
    }

    /// Merged prefill-stall / chunk-interference breakdown across the
    /// deployments — where the cluster's step-charged time went under
    /// the token-budgeted serving step.
    pub fn prefill_breakdown(&self) -> PrefillBreakdown {
        self.deployments.iter().fold(PrefillBreakdown::default(), |acc, d| acc.merged(&d.prefill))
    }

    /// Merged prefix KV-cache accounting across the deployments: cluster
    /// hit rate, saved prefill tokens, and the residency ladders'
    /// demote/recall traffic. All-zero with the cache off everywhere.
    pub fn prefix_cache(&self) -> PrefixCacheStats {
        self.deployments.iter().fold(PrefixCacheStats::default(), |acc, d| acc.merged(&d.prefix))
    }

    /// Simulated busy seconds of the slowest deployment — the cluster's
    /// makespan, and the denominator of every global rate below.
    pub fn elapsed_s(&self) -> f64 {
        self.deployments.iter().map(|d| d.elapsed_s).fold(0.0, f64::max)
    }

    /// Global generated-token throughput.
    pub fn tokens_per_second(&self) -> f64 {
        crate::serve::throughput_of(self.generated_tokens(), self.elapsed_s())
    }

    /// Global token goodput under each request's *own* SLO deadline —
    /// the routing-comparison metric (zero for an empty run).
    pub fn slo_token_goodput(&self) -> f64 {
        goodput(self.outcomes().map(|o| (o.met_slo(), o.output_len as f64)), self.elapsed_s())
    }

    /// SLO-met tokens across the cluster — the numerator of the
    /// fleet-cost metric (USD per 1k goodput tokens).
    pub fn goodput_tokens(&self) -> u64 {
        self.outcomes().filter(|o| o.met_slo()).map(|o| o.output_len).sum()
    }

    /// Fraction of completed requests that met their own SLO deadline.
    pub fn slo_hit_rate(&self) -> f64 {
        let total = self.completed();
        if total == 0 {
            return 0.0;
        }
        self.outcomes().filter(|o| o.met_slo()).count() as f64 / total as f64
    }

    /// Global TTFT order statistics, pooled across deployments.
    pub fn ttft_stats(&self) -> LatencyStats {
        self.outcomes().map(RequestOutcome::ttft).collect()
    }

    /// Global inter-token latency order statistics (per-request means).
    pub fn itl_stats(&self) -> LatencyStats {
        self.outcomes().map(RequestOutcome::itl).collect()
    }

    /// Per-emission decode-gap order statistics pooled across every
    /// deployment's executed steps (see
    /// [`TraceReport::step_itl_stats`](crate::TraceReport::step_itl_stats)).
    pub fn step_itl_stats(&self) -> LatencyStats {
        LatencyHistogram::pooled(self.deployments.iter().map(|d| &d.step_latency_s)).stats()
    }

    /// Global end-to-end latency order statistics.
    pub fn e2e_stats(&self) -> LatencyStats {
        self.outcomes().map(RequestOutcome::e2e).collect()
    }

    /// Global per-class breakdown (SLO-based), via the same
    /// [`class_breakdown_of`] the single-deployment report uses.
    pub fn class_breakdown(&self) -> Vec<ClassReport> {
        class_breakdown_of(self.outcomes())
    }

    /// How unevenly fresh arrivals were spread: the largest deployment
    /// share of dispatches, `[1/n, 1]` (1.0 means one deployment took
    /// everything; `1/n` is a perfectly even spread).
    pub fn dispatch_imbalance(&self) -> f64 {
        let total: u64 = self.dispatched.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.dispatched.iter().copied().max().unwrap_or(0);
        max as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::{DeploymentId, RequestClass};

    fn report(dep: u32, finishes: &[(f64, u64, bool)]) -> TraceReport {
        // (finished_s, tokens, met_slo) triples become outcomes.
        let outcomes: Vec<RequestOutcome> = finishes
            .iter()
            .enumerate()
            .map(|(i, &(fin, tokens, met))| RequestOutcome {
                id: i as u64,
                class: RequestClass::Medium,
                deployment: DeploymentId(dep),
                prompt_len: 64,
                output_len: tokens,
                arrival_s: 0.0,
                admitted_s: 0.1,
                first_token_s: 0.5,
                finished_s: fin,
                slo_deadline_s: if met { 1e9 } else { 0.6 },
                preemptions: 0,
                prefill_tokens: 64,
            })
            .collect();
        TraceReport {
            policy: "fifo".into(),
            generated_tokens: outcomes.iter().map(|o| o.output_len).sum(),
            elapsed_s: outcomes.iter().map(|o| o.finished_s).fold(0.0, f64::max),
            outcomes,
            rejected: vec![],
            shed: vec![],
            steps: 4,
            windowed_steps: 0,
            peak_batch: 2,
            joins: 2,
            evictions: 2,
            preemptions: 1,
            alpha_recomputes: 1,
            mean_alpha: 0.5,
            step_cache_entries: 1,
            host_pcie_bytes: 0.0,
            internal_read_bytes: 0.0,
            prefill_payload_bytes: 0.0,
            kv_placed_bytes: vec![],
            deadline_s: 120.0,
            prefill: PrefillBreakdown {
                decode_seconds: 1.0,
                interference_seconds: 0.5,
                stall_seconds: 0.25,
                chunks: 2,
                chunk_tokens: 128,
            },
            step_latency_s: LatencyHistogram::default(),
            wasted_prefill_tokens: 3,
            prefix: PrefixCacheStats {
                lookups: 4,
                hits: 2,
                saved_prefill_tokens: 128,
                ..PrefixCacheStats::default()
            },
            events: vec![],
            events_dropped: 0,
        }
    }

    #[test]
    fn aggregates_across_deployments() {
        let r = ClusterReport::new(
            "round-robin".into(),
            vec![report(0, &[(10.0, 100, true), (20.0, 50, false)]), report(1, &[(5.0, 30, true)])],
            vec![2, 1],
            1,
            0,
        );
        assert_eq!(r.deployment_count(), 2);
        assert_eq!(r.completed(), 3);
        assert_eq!(r.rejected_len(), 0);
        assert_eq!(r.generated_tokens(), 180);
        assert_eq!(r.preemptions(), 2);
        assert_eq!(r.shed_len(), 0);
        assert_eq!(r.wasted_prefill_tokens(), 6);
        // Prefix-cache accounting merges across deployments.
        let pc = r.prefix_cache();
        assert_eq!(pc.lookups, 8);
        assert_eq!(pc.hits, 4);
        assert_eq!(pc.saved_prefill_tokens, 256);
        assert!((pc.hit_rate() - 0.5).abs() < 1e-12);
        // Prefill breakdowns merge element-wise across deployments.
        let pf = r.prefill_breakdown();
        assert_eq!(pf.chunks, 4);
        assert_eq!(pf.chunk_tokens, 256);
        assert_eq!(pf.decode_seconds, 2.0);
        assert_eq!(pf.prefill_seconds(), 1.5);
        // Makespan is the slowest deployment.
        assert_eq!(r.elapsed_s(), 20.0);
        assert!((r.tokens_per_second() - 180.0 / 20.0).abs() < 1e-12);
        // Goodput counts SLO-met tokens only, over the makespan.
        assert_eq!(r.goodput_tokens(), 130);
        assert!((r.slo_token_goodput() - 130.0 / 20.0).abs() < 1e-12);
        assert!((r.slo_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.ttft_stats().count, 3);
        assert_eq!(r.class_breakdown().len(), 1);
        assert_eq!(r.class_breakdown()[0].count, 3);
        // Dispatch imbalance: 2 of 3 went to deployment 0.
        assert!((r.dispatch_imbalance() - 2.0 / 3.0).abs() < 1e-12);
        // Outcomes carry their serving deployment.
        assert_eq!(r.outcomes().filter(|o| o.deployment == DeploymentId(1)).count(), 1);
    }

    #[test]
    fn empty_cluster_run_reports_zeros_not_nans() {
        let r = ClusterReport::new("ledger-pressure".into(), vec![report(0, &[])], vec![0], 0, 0);
        assert_eq!(r.completed(), 0);
        assert_eq!(r.elapsed_s(), 0.0);
        assert_eq!(r.tokens_per_second(), 0.0);
        assert_eq!(r.slo_token_goodput(), 0.0);
        assert!(!r.slo_token_goodput().is_nan());
        assert_eq!(r.slo_hit_rate(), 0.0);
        assert_eq!(r.dispatch_imbalance(), 0.0);
        assert!(r.class_breakdown().is_empty());
    }
}
