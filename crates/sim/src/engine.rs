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
//! (submit or completion), exact and bit-reproducible. A
//! recompute visits only the jobs in flight and the resources they cross,
//! each filling round costing O(unfrozen jobs × route length + loaded
//! resources); idle resources are never scanned, and the working vectors
//! are kept between calls, so neither a recompute nor an advance
//! allocates once the engine has seen its peak job count. Routes live in
//! one engine-owned buffer, so a submit allocates only at a new peak too.
//! Observed time is one engine-wide sum, not a per-resource one. Pure time
//! advances keep rates, so each job stores its absolute completion
//! prediction, refreshed only when its rate changes, and the next
//! completion is the minimum over the stored predictions;
//! `next_completion_time_scan`, which re-predicts every job from its
//! remaining demand, is the reference.
//!
//! # Weighted hops
//!
//! A route entry is a [`Hop`]: a resource and the number of identical
//! flows the job stands for on it. A job adds its copies to each
//! resource's load, so the fair share `residual / load` counts it that
//! many times, and when it freezes it takes its rate from the residual,
//! and adds it to the resource's allocated rate, once per copy in a row.
//! That is exactly the float sequence `copies` identical one-copy jobs
//! frozen in the same round perform: identical jobs see identical shares
//! on identical routes, so they freeze in the same round, and a round
//! takes its jobs in ascending rate order, so equal rates are taken
//! together and their order among themselves cannot change a bit. A job
//! of weight k is therefore bit-identical to k copies — rates,
//! completion instants and every resource's statistics — with one
//! completion event and k times fewer job visits per recompute. The step
//! builders use this to run one chain per device class instead of one per
//! device.

use crate::error::SimError;
use crate::resource::{Hop, ResourceId, ResourceSpec, ResourceStats};
use crate::time::SimTime;

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

/// One job slot. Slots are recycled (LIFO) once their job completes. The
/// job's route is not stored here but in the engine's [`Routes`] buffer,
/// at the slot's row, so neither a submit nor a retire allocates or frees
/// a block of its own (route blocks kept per slot for the next occupant
/// fragmented the heap amid each step's short-lived allocations, raising
/// a 32-engine fleet's peak RSS by ~2%).
#[derive(Debug, Clone)]
struct JobState {
    live: bool,
    seq: u64,
    /// [`completion_eps`] of the job's demand, fixed at submission.
    eps: f64,
    remaining: f64,
    /// Length of the job's route in [`Routes`].
    hops: u32,
    rate_cap: Option<f64>,
    rate: f64,
    /// Predicted absolute completion instant under the current rate, or
    /// `None` if the job cannot progress (rate zero). Valid as long as the
    /// rate is unchanged: progress is linear, so an absolute prediction
    /// survives pure time advances without recomputation.
    pred: Option<SimTime>,
}

/// Every job's route, in one buffer: slot `s` owns the row
/// `hops[s * stride..(s + 1) * stride]` and its job's route is the row's
/// first [`JobState::hops`] entries. A route longer than any before widens
/// every row once; otherwise the buffer grows only with the slot count.
#[derive(Debug, Default)]
struct Routes {
    hops: Vec<Hop>,
    stride: usize,
}

/// The filler of an unused route entry.
const NO_HOP: Hop = Hop::new(ResourceId(0), 0);

impl Routes {
    /// The route of the job in `slot`, `len` hops long.
    fn of(&self, slot: u32, len: u32) -> &[Hop] {
        let start = slot as usize * self.stride;
        &self.hops[start..start + len as usize]
    }

    /// Stores `route` in `slot`'s row, first giving every row room for it
    /// (keeping the live jobs' routes) and the buffer a row per slot.
    fn store<H: Copy + Into<Hop>>(&mut self, jobs: &[JobState], slot: u32, route: &[H]) {
        if route.len() > self.stride {
            let stride = route.len();
            let mut hops = vec![NO_HOP; jobs.len() * stride];
            for (s, job) in jobs.iter().enumerate().filter(|(_, j)| j.live) {
                let len = job.hops as usize;
                hops[s * stride..s * stride + len].copy_from_slice(self.of(s as u32, job.hops));
            }
            self.hops = hops;
            self.stride = stride;
        }
        self.hops.resize(jobs.len() * self.stride, NO_HOP);
        let start = slot as usize * self.stride;
        for (to, &hop) in self.hops[start..start + route.len()].iter_mut().zip(route) {
            *to = hop.into();
        }
    }
}

/// What the engine accumulates for one resource. Its observed time is the
/// engine-wide sum minus the sum when the resource was registered.
#[derive(Debug, Clone, Copy)]
struct Served {
    units: f64,
    busy_seconds: f64,
    observed_at_registration: f64,
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
    /// Per resource: the rate allocated to the active jobs, summed as the
    /// last recompute froze them (meaningful while loaded).
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
    /// The jobs a round freezes: `(rate, slot)`.
    frozen: Vec<(f64, u32)>,
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
    served: Vec<Served>,
    /// Simulated seconds advanced through since the engine was created.
    observed: f64,
    jobs: Vec<JobState>,
    routes: Routes,
    free_slots: Vec<u32>,
    /// Slots of the jobs in flight, ascending: the slot order every
    /// per-job pass follows.
    active: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    rates_dirty: bool,
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
        self.served.push(Served {
            units: 0.0,
            busy_seconds: 0.0,
            observed_at_registration: self.observed,
        });
        id
    }

    /// The static description of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn resource(&self, id: ResourceId) -> &ResourceSpec {
        &self.specs[id.index()]
    }

    /// Cumulative statistics of a resource since its registration.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this engine.
    pub fn stats(&self, id: ResourceId) -> ResourceStats {
        let served = &self.served[id.index()];
        ResourceStats {
            units_served: served.units,
            busy_seconds: served.busy_seconds,
            observed_seconds: self.observed - served.observed_at_registration,
        }
    }

    /// Snapshot of all resource statistics, indexed by resource index.
    pub fn stats_snapshot(&self) -> Vec<ResourceStats> {
        (0..self.specs.len() as u32).map(|r| self.stats(ResourceId(r))).collect()
    }

    /// The live job in `id`'s slot, if `id` still names it.
    fn job(&self, id: JobId) -> Option<&JobState> {
        self.jobs.get(id.slot as usize).filter(|j| j.live && j.seq == id.seq)
    }

    /// Submits a job demanding `amount` units across `route`: resource
    /// ids, or [`Hop`]s for a job that stands for several identical flows.
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
    /// * [`SimError::ZeroCopies`] if a hop stands for no flow.
    /// * [`SimError::InvalidAmount`] if `amount` is negative or non-finite,
    ///   or `rate_cap` is non-positive or non-finite.
    pub fn submit<H: Copy + Into<Hop>>(
        &mut self,
        route: &[H],
        amount: f64,
        rate_cap: Option<f64>,
    ) -> Result<JobId, SimError> {
        if route.is_empty() {
            return Err(SimError::EmptyRoute);
        }
        for &hop in route {
            let Hop { resource, copies } = hop.into();
            if resource.index() >= self.specs.len() {
                return Err(SimError::UnknownResource(resource.index()));
            }
            if copies == 0 {
                return Err(SimError::ZeroCopies(resource.index()));
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
                    hops: 0,
                    rate_cap: None,
                    rate: 0.0,
                    pred: None,
                });
                (self.jobs.len() - 1) as u32
            }
        };
        self.routes.store(&self.jobs, slot, route);
        let job = &mut self.jobs[slot as usize];
        job.live = true;
        job.seq = seq;
        job.eps = completion_eps(amount);
        job.remaining = amount;
        job.hops = route.len() as u32;
        job.rate_cap = rate_cap;
        job.rate = 0.0;
        job.pred = None;
        let at = self.active.partition_point(|&s| s < slot);
        self.active.insert(at, slot);
        self.rates_dirty = true;
        Ok(JobId { slot, seq })
    }

    /// Takes a completed job out of flight.
    fn retire(&mut self, slot: u32) {
        self.jobs[slot as usize].live = false;
        self.free_slots.push(slot);
        let at = self.active.partition_point(|&s| s < slot);
        self.active.remove(at);
        self.rates_dirty = true;
    }

    /// Recomputes max-min fair rates (progressive filling with caps), then
    /// refreshes the completion prediction of every job whose rate changed.
    ///
    /// Only resources that carry a job are visited. The arithmetic is the
    /// textbook loop's: the bottleneck share is a minimum over
    /// non-negative shares, which does not depend on the order resources
    /// are visited in, and every round takes its frozen jobs' rates from
    /// the residuals in ascending rate order (ties in slot order), each
    /// hop as many times in a row as it has copies. Every job frozen in a
    /// round takes the same rate but for a capped job whose cap lies
    /// within the round's ε below the share, so the order rarely matters;
    /// where it does, rate order makes a job of k copies take exactly
    /// what k one-copy jobs would.
    fn recompute_rates(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        let n_res = self.specs.len();
        if self.scratch.load.len() < n_res {
            // Every per-resource vector and list at its full size at once.
            let s = &mut self.scratch;
            s.residual.resize(n_res, 0.0);
            s.load.resize(n_res, 0);
            s.bottleneck.resize(n_res, false);
            s.allocated.resize(n_res, 0.0);
            s.in_use.reserve(n_res);
            s.filling.reserve(n_res);
            s.fill_share.reserve(n_res);
        }
        self.scratch.old_rates.resize(self.jobs.len(), 0.0);
        let Scratch {
            residual,
            load,
            bottleneck,
            allocated,
            in_use,
            filling,
            fill_share,
            old_rates,
            unfrozen,
            next,
            frozen,
            ..
        } = &mut self.scratch;
        let jobs = &mut self.jobs;
        let routes = &self.routes;

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
            for hop in routes.of(i, job.hops) {
                let r = hop.resource.index();
                if load[r] == 0 {
                    in_use.push(r as u32);
                    residual[r] = self.specs[r].capacity();
                    allocated[r] = 0.0;
                }
                load[r] += hop.copies;
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
            frozen.clear();
            let mut next_min_cap = f64::INFINITY;
            if min_cap < share - eps {
                // Jobs whose cap is (close to) the minimum freeze at it.
                for &i in unfrozen.iter() {
                    let job = &mut jobs[i as usize];
                    match job.rate_cap {
                        Some(c) if c <= min_cap + eps => {
                            job.rate = c;
                            frozen.push((c, i));
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
                for &i in unfrozen.iter() {
                    let job = &mut jobs[i as usize];
                    if routes.of(i, job.hops).iter().any(|h| bottleneck[h.resource.index()]) {
                        let rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                        job.rate = rate;
                        frozen.push((rate, i));
                    } else {
                        if let Some(c) = job.rate_cap {
                            next_min_cap = next_min_cap.min(c);
                        }
                        next.push(i);
                    }
                }
                // Safety net against numerical stalls: freeze everything at
                // the current share if no bottleneck was detected.
                if frozen.is_empty() {
                    for &i in next.iter() {
                        let job = &mut jobs[i as usize];
                        job.rate = match job.rate_cap {
                            Some(c) => c.min(share),
                            None => share,
                        };
                        frozen.push((job.rate, i));
                    }
                    next.clear();
                }
            }
            // Take the frozen rates from the residuals and add them to the
            // resources' allocated rates, in rate order.
            if frozen.windows(2).any(|w| w[0].0.to_bits() != w[1].0.to_bits()) {
                frozen.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            for &(rate, i) in frozen.iter() {
                for hop in routes.of(i, jobs[i as usize].hops) {
                    let r = hop.resource.index();
                    for _ in 0..hop.copies {
                        residual[r] = (residual[r] - rate).max(0.0);
                        allocated[r] += rate;
                    }
                    load[r] -= hop.copies;
                }
            }
            std::mem::swap(unfrozen, next);
            min_cap = next_min_cap;
            filling.retain(|&r| load[r as usize] > 0);
        }

        // Re-predict completions for jobs whose rate changed (or that
        // never had a prediction). Unchanged-rate jobs progress linearly,
        // so their absolute predictions stay exact across time advances.
        let now = self.now;
        for &slot in &self.active {
            let j = &mut jobs[slot as usize];
            if j.rate.to_bits() == old_rates[slot as usize].to_bits() && j.pred.is_some() {
                continue;
            }
            j.pred = if j.remaining <= j.eps {
                Some(now)
            } else if j.rate > 0.0 {
                Some(now + SimTime::from_secs_f64_ceil(j.remaining / j.rate))
            } else {
                None
            };
        }
    }

    /// The next instant at which some job completes, if any job is active:
    /// the earliest stored prediction.
    pub fn next_completion_time(&mut self) -> Option<SimTime> {
        self.recompute_rates();
        self.active.iter().filter_map(|&slot| self.jobs[slot as usize].pred).min()
    }

    /// Reference implementation of [`FlowEngine::next_completion_time`]:
    /// a linear scan that predicts every active job afresh from its
    /// remaining demand. Kept for equivalence tests.
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
            let Scratch { allocated, in_use, .. } = &self.scratch;
            for &r in in_use.iter() {
                let r = r as usize;
                let cap = self.specs[r].capacity();
                let rate = allocated[r].min(cap);
                let served = &mut self.served[r];
                served.units += rate * dt;
                served.busy_seconds += (rate / cap) * dt;
            }
            self.observed += dt;
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
        assert!(matches!(eng.submit::<ResourceId>(&[], 1.0, None), Err(SimError::EmptyRoute)));
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
    fn a_resource_registered_late_observes_time_since_registration() {
        let mut eng = FlowEngine::new();
        let early = link(&mut eng, 1e9);
        eng.submit(&[early], 1e9, None).unwrap();
        eng.run_to_idle().unwrap();
        let late = link(&mut eng, 1e9);
        assert_eq!(eng.stats(late).observed_seconds, 0.0);
        eng.submit(&[late], 0.5e9, None).unwrap();
        eng.run_to_idle().unwrap();
        let (e, l) = (eng.stats(early), eng.stats(late));
        assert!((e.observed_seconds - 1.5).abs() < 1e-12, "{e:?}");
        assert!((l.observed_seconds - 0.5).abs() < 1e-12, "{l:?}");
        assert!((l.utilization() - 1.0).abs() < 1e-9);
        let snapshot = eng.stats_snapshot();
        assert_eq!(snapshot, vec![e, l]);
    }

    #[test]
    fn a_longer_route_keeps_the_routes_in_flight() {
        // The second job's route is longer than any before, so every
        // slot's room widens while the first job is in flight.
        let mut eng = FlowEngine::new();
        let links: Vec<ResourceId> = (0..4).map(|_| link(&mut eng, 1e9)).collect();
        let short = eng.submit(&links[..1], 1e9, None).unwrap();
        let long = eng.submit(&links, 1e9, None).unwrap();
        assert!((eng.job_rate(short).unwrap() - 0.5e9).abs() < 1.0);
        assert!((eng.job_rate(long).unwrap() - 0.5e9).abs() < 1.0);
        assert_eq!(eng.run_to_idle().unwrap(), SimTime::from_secs(2));
        assert!((eng.stats(links[0]).units_served - 2e9).abs() < 1e3);
        for &l in &links[1..] {
            assert!((eng.stats(l).units_served - 1e9).abs() < 1e3);
        }
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
        // When several jobs finish at exactly the same SimTime,
        // `advance_to` reports them in submission (sequence) order.
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
    fn stored_predictions_match_reference_scan() {
        // The stored-prediction next_completion_time must agree with the
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
            let stored = eng.next_completion_time();
            // A stored absolute prediction rounds `remaining/rate` once;
            // the scan re-divides a drifted `remaining` and can land one
            // picosecond away. Anything beyond that is a real divergence.
            let (h, s) = (stored.unwrap().as_picos(), scan.unwrap().as_picos());
            assert!(h.abs_diff(s) <= 1, "stored {h} ps diverged from reference scan {s} ps");
            eng.advance_to(stored.unwrap()).unwrap();
            guard += 1;
            assert!(guard < 1000, "engine failed to drain");
        }
        assert_eq!(eng.next_completion_time(), None);
        assert_eq!(eng.next_completion_time_scan(), None);
    }

    #[test]
    fn stored_predictions_survive_partial_advances() {
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

    /// One world of the weighted-hop equivalence test: an uplink shared by
    /// every flow and, below it, ports with device links, all fast enough
    /// that the uplink is the bottleneck.
    struct Chassis {
        eng: FlowEngine,
        uplink: ResourceId,
        ports: Vec<ResourceId>,
        devices: Vec<ResourceId>,
    }

    impl Chassis {
        fn new(ports: usize, devices: usize) -> Self {
            let mut eng = FlowEngine::new();
            let uplink = link(&mut eng, 10e9);
            let ports = (0..ports).map(|_| link(&mut eng, 40e9)).collect();
            let devices = (0..devices).map(|_| link(&mut eng, 60e9)).collect();
            Chassis { eng, uplink, ports, devices }
        }

        /// Drives the engine to idle and records, at every event, each
        /// tracked job's rate and the completions, then every resource's
        /// statistics, all as bits.
        fn run(mut self, tracked: &[JobId]) -> Vec<u64> {
            let mut trace = Vec::new();
            while let Some(t) = self.eng.next_completion_time() {
                for &id in tracked {
                    trace.push(self.eng.job_rate(id).map_or(u64::MAX, f64::to_bits));
                }
                trace.push(t.as_picos());
                let done = self.eng.advance_to(t).unwrap();
                trace.extend(tracked.iter().map(|id| done.iter().any(|c| c.job == *id) as u64));
            }
            let mut resources = vec![self.uplink, self.ports[0], self.devices[0]];
            resources.extend(self.devices.get(1).copied());
            for r in resources {
                let s = self.eng.stats(r);
                trace
                    .extend([s.units_served, s.busy_seconds, s.observed_seconds].map(f64::to_bits));
            }
            trace
        }
    }

    #[test]
    fn a_job_of_k_copies_is_bit_identical_to_k_jobs() {
        // Two flows of a class per device — a read (`a`) and a capped
        // write (`b`) — on the device's link, its port and the uplink,
        // beside a capped job on the uplink alone. Paired, two devices
        // share each port (the chassis layout); unpaired, each device has
        // a port of its own. The caps sit far below, within ε below, at
        // and above the uplink's fair share, where a capped job freezes in
        // the same round as the uncapped ones at a rate of its own.
        for k in [2u32, 3, 6, 16] {
            for paired in [false, true] {
                if paired && k % 2 == 1 {
                    continue;
                }
                let share = 10e9 / (2 * k + 1) as f64;
                for offset in [-0.5, -3e-13, 0.0, 0.25] {
                    let cap = Some(share * (1.0 + offset));
                    let port_of = |d: usize| if paired { d / 2 } else { d };
                    let ports = port_of(k as usize - 1) + 1;

                    // k devices, one job per flow.
                    let mut each = Chassis::new(ports, k as usize);
                    let mut tracked = Vec::new();
                    for d in 0..k as usize {
                        let route = [each.devices[d], each.ports[port_of(d)], each.uplink];
                        let a = each.eng.submit(&route, 3e9, None).unwrap();
                        let b = each.eng.submit(&route, 1e9, cap).unwrap();
                        if d == 0 {
                            tracked.extend([a, b]);
                        }
                    }
                    tracked.push(each.eng.submit(&[each.uplink], 2e9, cap).unwrap());
                    let want = each.run(&tracked);

                    // One job per flow of the class, standing for k.
                    let mut class = Chassis::new(ports, k as usize);
                    let port_copies = if paired { 2 } else { 1 };
                    let route = [
                        Hop::new(class.devices[0], 1),
                        Hop::new(class.ports[0], port_copies),
                        Hop::new(class.uplink, k),
                    ];
                    let a = class.eng.submit(&route, 3e9, None).unwrap();
                    let b = class.eng.submit(&route, 1e9, cap).unwrap();
                    let c = class.eng.submit(&[class.uplink], 2e9, cap).unwrap();
                    let mut got = class.run(&[a, b, c]);
                    // The other devices' links carry nothing here; in the
                    // per-device world the second one carries device 0's
                    // load.
                    let second = got.len() - 3;
                    got.splice(second.., want[second..].iter().copied());
                    assert_eq!(got, want, "k = {k}, paired = {paired}, cap offset {offset}");
                }
            }
        }
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
}
