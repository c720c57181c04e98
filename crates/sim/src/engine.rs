//! The flow engine: max-min fair sharing of resources among concurrent jobs.
//!
//! Every active job demands a fixed amount of work (bytes, FLOPs) across a
//! *route* of resources it occupies simultaneously. At any instant each job
//! receives a rate determined by **max-min fairness with rate caps**
//! (progressive filling): rates grow uniformly until a resource saturates or
//! a job hits its cap, those jobs freeze, and filling continues among the
//! rest. This is the classical *flow-level* network simulation — exact for
//! bandwidth-shared links and a good first-order model for memory ports,
//! storage channels and compute engines.
//!
//! Rates are recomputed from scratch after every composition change
//! (submit, completion or cancel), exact and bit-reproducible. A
//! recompute visits only the jobs in flight and the resources they cross,
//! each filling round costing O(unfrozen jobs × route length + loaded
//! resources); idle resources are never scanned, and the working vectors
//! are kept between calls, so neither a recompute nor an advance
//! allocates once the engine has seen its peak job count. Pure time
//! advances keep rates, so each job's absolute completion prediction is
//! indexed once per rate change in a lazily-invalidated min-heap;
//! `next_completion_time_scan` keeps the slow, obviously-correct linear
//! scan as its reference.

use crate::error::SimError;
use crate::resource::{ResourceId, ResourceSpec, ResourceStats};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of an in-flight job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId {
    pub(crate) slot: u32,
    pub(crate) seq: u64,
}

impl JobId {
    /// Monotonic sequence number (unique across the engine's lifetime).
    pub fn sequence(self) -> u64 {
        self.seq
    }
}

/// A job that finished during [`FlowEngine::advance_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The job that completed.
    pub job: JobId,
    /// The instant at which it completed (the time advanced to).
    pub at: SimTime,
}

/// A job is considered complete once its remaining demand drops below this
/// epsilon (absolute floor plus a term relative to the original demand).
fn completion_eps(demand: f64) -> f64 {
    1e-9 + 1e-12 * demand.abs()
}

/// One job slot. Slots are recycled (LIFO) once their job completes or is
/// cancelled. A retired job's route is freed at once: route buffers kept
/// for the next occupant are small long-lived blocks amid each step's
/// short-lived allocations, and they fragmented the heap enough to raise
/// a 32-engine fleet's peak RSS by ~2%.
#[derive(Debug, Clone)]
struct JobState {
    live: bool,
    seq: u64,
    /// [`completion_eps`] of the job's demand, fixed at submission.
    eps: f64,
    remaining: f64,
    route: Vec<ResourceId>,
    rate_cap: Option<f64>,
    rate: f64,
    /// Predicted absolute completion instant under the current rate, or
    /// `None` if the job cannot progress (rate zero). Valid as long as the
    /// rate is unchanged: progress is linear, so an absolute prediction
    /// survives pure time advances without recomputation.
    pred: Option<SimTime>,
}

/// Working memory of the rate computation, sized on first use and kept
/// between calls, so that neither a recompute nor an advance allocates
/// once the engine has seen its peak job count, and an engine that never
/// runs a job holds none.
#[derive(Debug, Default)]
struct Scratch {
    /// Per resource: capacity left to share (meaningful while loaded).
    residual: Vec<f64>,
    /// Per resource: unfrozen jobs crossing it. All zero between calls.
    load: Vec<u32>,
    /// Per resource: crosses the current bottleneck (meaningful while
    /// loaded; rewritten every round it is read).
    bottleneck: Vec<bool>,
    /// Per resource: rate allocated during an advance.
    allocated: Vec<f64>,
    /// Resources carrying at least one active job, as of the last
    /// recompute (first-touch order).
    in_use: Vec<u32>,
    /// Resources still carrying unfrozen jobs during filling, and each
    /// one's fair share this round (index-aligned).
    filling: Vec<u32>,
    fill_share: Vec<f64>,
    /// Per slot: the rate before this recompute.
    old_rates: Vec<f64>,
    /// Unfrozen slots in slot order, and the survivors of a round.
    unfrozen: Vec<u32>,
    next: Vec<u32>,
    /// Jobs completing in one advance: `(seq, slot)`.
    done: Vec<(u64, u32)>,
}

/// Deterministic flow-level simulation engine.
///
/// # Examples
///
/// Two equal transfers sharing one link take twice as long as one:
///
/// ```
/// use hilos_sim::{FlowEngine, ResourceKind, ResourceSpec, SimTime};
///
/// let mut eng = FlowEngine::new();
/// let link = eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, 1e9));
/// eng.submit(&[link], 1e9, None).unwrap();
/// eng.submit(&[link], 1e9, None).unwrap();
/// let end = eng.run_to_idle().unwrap();
/// assert_eq!(end, SimTime::from_secs(2));
/// ```
#[derive(Debug, Default)]
pub struct FlowEngine {
    specs: Vec<ResourceSpec>,
    stats: Vec<ResourceStats>,
    jobs: Vec<JobState>,
    free_slots: Vec<u32>,
    /// Slots of the jobs in flight, ascending: the slot order every
    /// per-job pass follows.
    active: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    rates_dirty: bool,
    /// Min-heap of `(predicted completion, seq, slot)` — the completion
    /// index behind `next_completion_time`. Entries are lazily
    /// invalidated: a rate change re-pushes a fresh entry and the stale
    /// one is discarded when it surfaces (its time no longer matches the
    /// job's stored prediction, or the job is gone).
    pred_heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    scratch: Scratch,
}

impl FlowEngine {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        FlowEngine::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of jobs currently in flight.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        let id = ResourceId(self.specs.len() as u32);
        self.specs.push(spec);
        self.stats.push(ResourceStats::default());
        id
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.specs.len()
    }

    /// The static description of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn resource(&self, id: ResourceId) -> &ResourceSpec {
        &self.specs[id.index()]
    }

    /// Cumulative statistics of a resource since engine creation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn stats(&self, id: ResourceId) -> ResourceStats {
        self.stats[id.index()]
    }

    /// Snapshot of all resource statistics, indexed by resource index.
    pub fn stats_snapshot(&self) -> Vec<ResourceStats> {
        self.stats.clone()
    }

    /// Total entries (live + stale) in the lazily-invalidated completion
    /// index. Diagnostic: the engine compacts once stale entries outnumber
    /// live jobs 2:1, so this stays within a small factor of
    /// [`FlowEngine::active_jobs`] no matter how churn-heavy the workload.
    pub fn completion_index_len(&self) -> usize {
        self.pred_heap.len()
    }

    /// The live job in `id`'s slot, if `id` still names it.
    fn job(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(id.slot as usize).filter(|j| j.live && j.seq == id.seq)
    }

    /// Submits a job demanding `amount` units across `route`.
    ///
    /// The job occupies every resource in `route` simultaneously; its rate
    /// is bounded by the max-min fair share on each and by `rate_cap` if
    /// given. Zero-amount jobs are accepted and complete at the next
    /// [`FlowEngine::advance_to`] boundary.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyRoute`] if `route` is empty.
    /// * [`SimError::UnknownResource`] if any id is out of range.
    /// * [`SimError::InvalidAmount`] if `amount` is negative or non-finite,
    ///   or `rate_cap` is non-positive or non-finite.
    pub fn submit(
        &mut self,
        route: &[ResourceId],
        amount: f64,
        rate_cap: Option<f64>,
    ) -> Result<JobId, SimError> {
        if route.is_empty() {
            return Err(SimError::EmptyRoute);
        }
        for r in route {
            if r.index() >= self.specs.len() {
                return Err(SimError::UnknownResource(r.index()));
            }
        }
        if !amount.is_finite() || amount < 0.0 {
            return Err(SimError::InvalidAmount(amount));
        }
        if let Some(cap) = rate_cap {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(SimError::InvalidAmount(cap));
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.jobs.push(JobState {
                    live: false,
                    seq,
                    eps: 0.0,
                    remaining: 0.0,
                    route: Vec::new(),
                    rate_cap: None,
                    rate: 0.0,
                    pred: None,
                });
                (self.jobs.len() - 1) as u32
            }
        };
        let job = &mut self.jobs[slot as usize];
        job.live = true;
        job.seq = seq;
        job.eps = completion_eps(amount);
        job.remaining = amount;
        job.route = route.to_vec();
        job.rate_cap = rate_cap;
        job.rate = 0.0;
        job.pred = None;
        let at = self.active.partition_point(|&s| s < slot);
        self.active.insert(at, slot);
        self.rates_dirty = true;
        Ok(JobId { slot, seq })
    }

    /// Takes a completed or cancelled job out of flight.
    fn retire(&mut self, slot: u32) {
        let job = &mut self.jobs[slot as usize];
        job.live = false;
        job.route = Vec::new();
        self.free_slots.push(slot);
        let at = self.active.partition_point(|&s| s < slot);
        self.active.remove(at);
        self.rates_dirty = true;
    }

    /// Removes a job before it completes, returning its remaining demand,
    /// or `None` if the job already completed or was cancelled. The freed
    /// capacity redistributes among the remaining jobs — this is how
    /// `core::serve` preempts requests and `core::cluster` migrates them
    /// mid-flight.
    pub fn cancel(&mut self, id: JobId) -> Option<f64> {
        let remaining = self.job(id)?.remaining.max(0.0);
        self.retire(id.slot);
        Some(remaining)
    }

    /// Recomputes max-min fair rates (progressive filling with caps), then
    /// refreshes the completion index for every job whose rate changed.
    ///
    /// Only resources that carry a job are visited. The arithmetic is the
    /// textbook loop's, in its order: jobs freeze in slot order, each
    /// resource's residual is reduced in freeze order, and the bottleneck
    /// share is a minimum over non-negative shares, which does not depend
    /// on the order resources are visited in.
    fn recompute_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        let n_res = self.specs.len();
        if self.scratch.load.len() < n_res {
            let s = &mut self.scratch;
            s.residual.resize(n_res, 0.0);
            s.load.resize(n_res, 0);
            s.bottleneck.resize(n_res, false);
            s.allocated.resize(n_res, 0.0);
        }
        self.scratch.old_rates.resize(self.jobs.len(), 0.0);
        let Scratch {
            residual,
            load,
            bottleneck,
            in_use,
            filling,
            fill_share,
            old_rates,
            unfrozen,
            next,
            ..
        } = &mut self.scratch;
        let jobs = &mut self.jobs;

        // Load every resource an active job crosses; note each job's old
        // rate (to detect which predictions survive) and the lowest cap.
        in_use.clear();
        unfrozen.clone_from(&self.active);
        let mut min_cap = f64::INFINITY;
        for &i in &self.active {
            let job = &jobs[i as usize];
            old_rates[i as usize] = job.rate;
            if let Some(c) = job.rate_cap {
                min_cap = min_cap.min(c);
            }
            for r in &job.route {
                let r = r.index();
                if load[r] == 0 {
                    in_use.push(r as u32);
                    residual[r] = self.specs[r].capacity();
                }
                load[r] += 1;
            }
        }
        filling.clone_from(in_use);

        // Progressive filling.
        while !unfrozen.is_empty() {
            // Bottleneck share among resources used by unfrozen jobs.
            fill_share.clear();
            let mut share = f64::INFINITY;
            for &r in filling.iter() {
                let r = r as usize;
                let s = (residual[r] / load[r] as f64).max(0.0);
                fill_share.push(s);
                if s < share {
                    share = s;
                }
            }
            debug_assert!(share.is_finite(), "unfrozen jobs must load some resource");

            let eps = 1e-12 * (1.0 + share.abs());
            next.clear();
            let mut next_min_cap = f64::INFINITY;
            if min_cap < share - eps {
                // Jobs whose cap is (close to) the minimum freeze at it.
                for &i in unfrozen.iter() {
                    let job = &mut jobs[i as usize];
                    match job.rate_cap {
                        Some(c) if c <= min_cap + eps => {
                            job.rate = c;
                            for r in &job.route {
                                let r = r.index();
                                residual[r] = (residual[r] - c).max(0.0);
                                load[r] -= 1;
                            }
                        }
                        cap => {
                            if let Some(c) = cap {
                                next_min_cap = next_min_cap.min(c);
                            }
                            next.push(i);
                        }
                    }
                }
            } else {
                // Jobs crossing a resource at the bottleneck share freeze
                // at it. A resource's share is never negative (residuals
                // are clamped at zero), so the clamped value is the ratio.
                for (&r, &s) in filling.iter().zip(fill_share.iter()) {
                    bottleneck[r as usize] = s <= share + eps;
                }
                let mut froze_any = false;
                for &i in unfrozen.iter() {
                    let job = &mut jobs[i as usize];
                    if job.route.iter().any(|r| bottleneck[r.index()]) {
                        froze_any = true;
                        let rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                        job.rate = rate;
                        for r in &job.route {
                            let r = r.index();
                            residual[r] = (residual[r] - rate).max(0.0);
                            load[r] -= 1;
                        }
                    } else {
                        if let Some(c) = job.rate_cap {
                            next_min_cap = next_min_cap.min(c);
                        }
                        next.push(i);
                    }
                }
                // Safety net against numerical stalls: freeze everything at
                // the current share if no bottleneck was detected.
                if !froze_any {
                    for &i in next.iter() {
                        let job = &mut jobs[i as usize];
                        job.rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                    }
                    next.clear();
                }
            }
            std::mem::swap(unfrozen, next);
            min_cap = next_min_cap;
            filling.retain(|&r| load[r as usize] > 0);
        }
        // The safety net can leave loads behind; clear them for next time.
        for &r in filling.iter() {
            load[r as usize] = 0;
        }

        // Re-index completions for jobs whose rate changed (or that never
        // had a prediction). Unchanged-rate jobs progress linearly, so
        // their absolute predictions stay exact across time advances.
        let now = self.now;
        for &slot in &self.active {
            let j = &mut jobs[slot as usize];
            if j.rate.to_bits() == old_rates[slot as usize].to_bits() && j.pred.is_some() {
                continue;
            }
            let pred = if j.remaining <= j.eps {
                Some(now)
            } else if j.rate > 0.0 {
                Some(now + SimTime::from_secs_f64_ceil(j.remaining / j.rate))
            } else {
                None
            };
            j.pred = pred;
            if let Some(t) = pred {
                self.pred_heap.push(Reverse((t, j.seq, slot)));
            }
        }
        // Bound stale-entry accumulation: compact when the heap holds far
        // more entries than live jobs.
        if self.pred_heap.len() > 2 * self.active.len() + 64 {
            self.pred_heap.clear();
            for &slot in &self.active {
                let j = &jobs[slot as usize];
                if let Some(t) = j.pred {
                    self.pred_heap.push(Reverse((t, j.seq, slot)));
                }
            }
        }
    }

    /// The next instant at which some job completes, if any job is active.
    ///
    /// Answered from a lazily-invalidated completion index: amortized
    /// `O(log n)` against the reference scan's `O(n)`, which is what keeps
    /// request-level serving loops (hundreds of concurrent flows polled
    /// every step) off the engine's critical path.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        self.recompute_rates();
        while let Some(&Reverse((t, seq, slot))) = self.pred_heap.peek() {
            match self.jobs.get(slot as usize) {
                Some(j) if j.live && j.seq == seq && j.pred == Some(t) => return Some(t),
                _ => {
                    self.pred_heap.pop();
                }
            }
        }
        None
    }

    /// Reference implementation of [`FlowEngine::next_completion_time`]:
    /// a linear scan over every active job. Kept for equivalence tests and
    /// the `bench_serving` heap-vs-scan comparison.
    pub fn next_completion_time_scan(&mut self) -> Option<SimTime> {
        if self.active.is_empty() {
            return None;
        }
        self.recompute_rates();
        let mut best: Option<SimTime> = None;
        for j in self.active.iter().map(|&slot| &self.jobs[slot as usize]) {
            let t = if j.remaining <= j.eps {
                self.now
            } else if j.rate > 0.0 {
                self.now + SimTime::from_secs_f64_ceil(j.remaining / j.rate)
            } else {
                continue;
            };
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best
    }

    /// Advances simulated time to `t`, progressing every active job at its
    /// current fair rate, and returns the jobs that completed (in
    /// submission order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeReversal`] if `t` is earlier than
    /// [`FlowEngine::now`].
    pub fn advance_to(&mut self, t: SimTime) -> Result<Vec<Completion>, SimError> {
        let mut completions = Vec::new();
        self.advance_into(t, &mut completions)?;
        Ok(completions)
    }

    /// [`FlowEngine::advance_to`], appending the completions to `out`
    /// instead of allocating a vector for them.
    pub(crate) fn advance_into(
        &mut self,
        t: SimTime,
        out: &mut Vec<Completion>,
    ) -> Result<(), SimError> {
        if t < self.now {
            return Err(SimError::TimeReversal { now: self.now, requested: t });
        }
        self.recompute_rates();
        let dt = (t - self.now).as_secs_f64();

        // Accumulate resource statistics for the elapsed window. An idle
        // resource serves nothing, so only its observed time moves.
        if dt > 0.0 {
            let Scratch { allocated, in_use, .. } = &mut self.scratch;
            for &r in in_use.iter() {
                allocated[r as usize] = 0.0;
            }
            for j in self.active.iter().map(|&slot| &self.jobs[slot as usize]) {
                for r in &j.route {
                    allocated[r.index()] += j.rate;
                }
            }
            for &r in in_use.iter() {
                let r = r as usize;
                let cap = self.specs[r].capacity();
                let rate = allocated[r].min(cap);
                let stats = &mut self.stats[r];
                stats.units_served += rate * dt;
                stats.busy_seconds += (rate / cap) * dt;
            }
            for stats in &mut self.stats {
                stats.observed_seconds += dt;
            }
        }

        // Progress jobs and collect completions.
        let done = &mut self.scratch.done;
        done.clear();
        for &slot in &self.active {
            let j = &mut self.jobs[slot as usize];
            if dt > 0.0 {
                j.remaining -= j.rate * dt;
            }
            if j.remaining <= j.eps {
                done.push((j.seq, slot));
            }
        }
        done.sort_unstable_by_key(|&(seq, _)| seq);
        for i in 0..self.scratch.done.len() {
            let (seq, slot) = self.scratch.done[i];
            self.retire(slot);
            out.push(Completion { job: JobId { slot, seq }, at: t });
        }
        self.now = t;
        Ok(())
    }

    /// Runs until no jobs remain, returning the final time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if active jobs exist but none can make
    /// progress (all rates zero), which indicates an engine bug or a
    /// zero-capacity configuration.
    pub fn run_to_idle(&mut self) -> Result<SimTime, SimError> {
        let mut completions = Vec::new();
        while !self.active.is_empty() {
            let t = self.next_completion_time().ok_or(SimError::Stalled)?;
            completions.clear();
            self.advance_into(t, &mut completions)?;
        }
        Ok(self.now)
    }

    /// The current fair rate of a job, or `None` if it is not active.
    pub fn job_rate(&mut self, id: JobId) -> Option<f64> {
        self.recompute_rates();
        self.job(id).map(|j| j.rate)
    }

    /// Remaining demand of a job, or `None` if it is not active.
    pub fn job_remaining(&self, id: JobId) -> Option<f64> {
        self.job(id).map(|j| j.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceKind;

    fn link(eng: &mut FlowEngine, bw: f64) -> ResourceId {
        eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, bw))
    }

    #[test]
    fn single_flow_exact_time() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_millis(500));
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1e9, None).unwrap();
        eng.submit(&[l], 1e9, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn unequal_flows_short_finishes_first_then_speedup() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.5e9, None).unwrap();
        let b = eng.submit(&[l], 1.5e9, None).unwrap();
        // Short flow completes at t=1s (both at 0.5 GB/s). Long flow then has
        // 1.0e9 left at full rate -> finishes at 2s.
        let t1 = eng.next_completion_time().unwrap();
        assert_eq!(t1, SimTime::from_secs(1));
        let done = eng.advance_to(t1).unwrap();
        assert_eq!(done.len(), 1);
        assert!((eng.job_remaining(b).unwrap() - 1.0e9).abs() < 1.0);
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn route_bottleneck_is_min_link() {
        let mut eng = FlowEngine::new();
        let fast = link(&mut eng, 10e9);
        let slow = link(&mut eng, 1e9);
        eng.submit(&[fast, slow], 2e9, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(2));
    }

    #[test]
    fn max_min_asymmetric_three_flows() {
        // Classic example: flows A (l1), B (l1+l2), C (l2).
        // l1 = 1 GB/s, l2 = 2 GB/s.
        // Fair shares: A = B = 0.5 on l1; C gets 2 - 0.5 = 1.5 on l2.
        let mut eng = FlowEngine::new();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        let a = eng.submit(&[l1], 1e18, None).unwrap();
        let b = eng.submit(&[l1, l2], 1e18, None).unwrap();
        let c = eng.submit(&[l2], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(b).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(c).unwrap() - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn rate_cap_respected_and_redistributed() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 3e9);
        let a = eng.submit(&[l], 1e18, Some(0.5e9)).unwrap();
        let b = eng.submit(&[l], 1e18, None).unwrap();
        assert!((eng.job_rate(a).unwrap() - 0.5e9).abs() < 1.0);
        // B picks up the slack: 3 - 0.5 = 2.5 GB/s.
        assert!((eng.job_rate(b).unwrap() - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn zero_amount_job_completes_immediately() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 0.0, None).unwrap();
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    fn submit_validation() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        assert!(matches!(eng.submit(&[], 1.0, None), Err(SimError::EmptyRoute)));
        assert!(matches!(
            eng.submit(&[ResourceId(9)], 1.0, None),
            Err(SimError::UnknownResource(9))
        ));
        assert!(matches!(eng.submit(&[l], -1.0, None), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], 1.0, Some(0.0)), Err(SimError::InvalidAmount(_))));
        assert!(matches!(eng.submit(&[l], f64::NAN, None), Err(SimError::InvalidAmount(_))));
    }

    #[test]
    fn time_reversal_rejected() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        eng.submit(&[l], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        assert!(matches!(eng.advance_to(SimTime::ZERO), Err(SimError::TimeReversal { .. })));
    }

    #[test]
    fn stats_accumulate_served_units_and_busy_time() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 2e9);
        eng.submit(&[l], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        // Idle second afterwards.
        let idle_until = eng.now() + SimTime::from_millis(500);
        eng.advance_to(idle_until).unwrap();
        let s = eng.stats(l);
        assert!((s.units_served - 1e9).abs() < 1e3);
        assert!((s.busy_seconds - 0.5).abs() < 1e-9);
        assert!((s.observed_seconds - 1.0).abs() < 1e-9);
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn slots_are_reused_but_ids_stay_unique() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1.0, None).unwrap();
        eng.run_to_idle().unwrap();
        let b = eng.submit(&[l], 1.0, None).unwrap();
        assert_ne!(a, b);
        assert_eq!(eng.job_remaining(a), None);
        assert!(eng.job_remaining(b).is_some());
    }

    #[test]
    fn simultaneous_completions_ordered_by_sequence() {
        // Pin for the heap refactor: when several jobs finish at exactly
        // the same SimTime, `advance_to` reports them in submission
        // (sequence) order regardless of heap pop order.
        let mut eng = FlowEngine::new();
        // Four equal jobs on four independent links: all complete at 1 s.
        let ids: Vec<JobId> = (0..4)
            .map(|_| {
                let l = link(&mut eng, 1e9);
                eng.submit(&[l], 1e9, None).unwrap()
            })
            .collect();
        let t = eng.next_completion_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let done = eng.advance_to(t).unwrap();
        assert_eq!(done.len(), 4);
        let seqs: Vec<u64> = done.iter().map(|c| c.job.sequence()).collect();
        let expect: Vec<u64> = ids.iter().map(|id| id.sequence()).collect();
        assert_eq!(seqs, expect, "ties must resolve in submission order");
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn heap_matches_reference_scan() {
        // The heap-indexed next_completion_time must agree with the
        // retained linear scan through a full churn of submissions,
        // completions and rate redistributions.
        let mut eng = FlowEngine::new();
        let shared = link(&mut eng, 4e9);
        let private: Vec<ResourceId> = (0..8).map(|_| link(&mut eng, 1e9)).collect();
        for i in 0..32u64 {
            let amount = 1e8 * (1 + (i * 7) % 13) as f64;
            if i % 3 == 0 {
                eng.submit(&[shared, private[(i % 8) as usize]], amount, None).unwrap();
            } else {
                eng.submit(&[private[(i % 8) as usize]], amount, None).unwrap();
            }
        }
        let mut guard = 0;
        while eng.active_jobs() > 0 {
            let scan = eng.next_completion_time_scan();
            let heap = eng.next_completion_time();
            // The heap's absolute prediction rounds `remaining/rate` once;
            // the scan re-divides a drifted `remaining` and can land one
            // picosecond away. Anything beyond that is a real divergence.
            let (h, s) = (heap.unwrap().as_picos(), scan.unwrap().as_picos());
            assert!(h.abs_diff(s) <= 1, "heap {h} ps diverged from reference scan {s} ps");
            eng.advance_to(heap.unwrap()).unwrap();
            guard += 1;
            assert!(guard < 1000, "engine failed to drain");
        }
        assert_eq!(eng.next_completion_time(), None);
        assert_eq!(eng.next_completion_time_scan(), None);
    }

    #[test]
    fn heap_survives_partial_advances() {
        // Advance to instants strictly before any completion (as the task
        // executor does when a delay wakeup fires first): predictions must
        // remain valid without a rate recompute.
        let mut eng = FlowEngine::new();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 2e9);
        eng.submit(&[l1], 3e9, None).unwrap(); // completes at 3 s
        eng.submit(&[l2], 2e9, None).unwrap(); // completes at 1 s
        let first = eng.next_completion_time().unwrap();
        assert_eq!(first, SimTime::from_secs(1));
        // Partial advance: no completions, rates unchanged.
        eng.advance_to(SimTime::from_millis(250)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        eng.advance_to(SimTime::from_millis(999)).unwrap();
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(1));
        let done = eng.advance_to(SimTime::from_secs(1)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(eng.next_completion_time().unwrap(), SimTime::from_secs(3));
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(3));
    }

    #[test]
    fn many_flows_work_conservation() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let total: f64 = (1..=10).map(|i| i as f64 * 1e8).sum();
        for i in 1..=10 {
            eng.submit(&[l], i as f64 * 1e8, None).unwrap();
        }
        let end = eng.run_to_idle().unwrap();
        // Work conservation: single busy link serves total units at capacity.
        assert!((end.as_secs_f64() - total / 1e9).abs() < 1e-6);
        assert!((eng.stats(l).units_served - total).abs() < 1e3);
    }

    // ---- cancellation ----

    #[test]
    fn cancel_frees_capacity_for_both_impls() {
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let a = eng.submit(&[l], 1e9, None).unwrap();
        let b = eng.submit(&[l], 1e9, None).unwrap();
        // Both at 0.5 GB/s; advance half a second, then cancel A.
        eng.advance_to(SimTime::from_millis(500)).unwrap();
        let rem = eng.cancel(a).unwrap();
        assert!((rem - 0.75e9).abs() < 1e3, "cancelled remaining {rem}");
        // B has 0.75e9 left at full rate: finishes 0.75 s later.
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_millis(1250));
        assert_eq!(eng.cancel(b), None, "completed job cannot be cancelled");
        assert_eq!(eng.cancel(a), None, "double cancel returns None");
    }

    #[test]
    fn cancel_custom_job_reanchors_survivors() {
        // A multi-resource job and a capped job share a link with a simple
        // job; cancelling them must hand their share back.
        let mut eng = FlowEngine::new();
        let l1 = link(&mut eng, 1e9);
        let l2 = link(&mut eng, 1e9);
        let multi = eng.submit(&[l1, l2], 1e9, None).unwrap();
        let capped = eng.submit(&[l1], 1e9, Some(0.1e9)).unwrap();
        let simple = eng.submit(&[l1], 1e9, None).unwrap();
        eng.advance_to(SimTime::from_millis(100)).unwrap();
        assert!(eng.cancel(multi).is_some());
        assert!(eng.cancel(capped).is_some());
        // The simple job is now alone on l1: full capacity.
        assert!((eng.job_rate(simple).unwrap() - 1e9).abs() < 1.0);
        eng.run_to_idle().unwrap();
        assert_eq!(eng.active_jobs(), 0);
    }

    // ---- completion-index compaction (stale-entry growth bound) ----

    #[test]
    fn churn_heavy_cancel_trace_keeps_completion_index_compact() {
        // Regression pin: a submit/cancel churn loop must not grow the
        // lazily-invalidated completion index without bound. With
        // compaction at stale > 2x live + 64, peak length stays within
        // 2*live + 64 entries (+1 for the probe ordering).
        let mut eng = FlowEngine::new();
        let l = link(&mut eng, 1e9);
        let live = 8usize;
        let mut ids: Vec<JobId> = (0..live).map(|_| eng.submit(&[l], 1e9, None).unwrap()).collect();
        let mut peak = 0usize;
        for round in 0..200 {
            // Cancel the oldest job, replace it, poll the index (as the
            // serving loop does every step).
            let victim = ids.remove(0);
            assert!(eng.cancel(victim).is_some());
            ids.push(eng.submit(&[l], 1e9 + round as f64, None).unwrap());
            let _ = eng.next_completion_time();
            peak = peak.max(eng.completion_index_len());
        }
        let bound = 2 * live + 64 + 1;
        assert!(peak <= bound, "completion index peaked at {peak} entries (bound {bound})");
        assert_eq!(eng.active_jobs(), live);
    }
}
