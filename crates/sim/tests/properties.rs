//! Property-based tests for the flow engine's fairness and conservation
//! invariants.

use hilos_sim::{
    execute, FlowEngine, JobId, ResourceId, ResourceKind, ResourceSpec, SimTime, TaskGraph,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn engine_with_links(bws: &[f64]) -> (FlowEngine, Vec<ResourceId>) {
    let mut eng = FlowEngine::new();
    let ids = bws
        .iter()
        .enumerate()
        .map(|(i, &b)| eng.add_resource(ResourceSpec::new(format!("l{i}"), ResourceKind::Link, b)))
        .collect();
    (eng, ids)
}

/// Drives one random interleaving of submits, completion-boundary
/// advances, partial advances and cancellations over multi-link routes,
/// rate caps and zero-amount jobs. At every step the completion heap must
/// agree with the reference scan; at the end the engine must drain.
fn drive_mixed(seed: u64, n_ops: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_links = rng.random_range(1..5usize);
    let bws: Vec<f64> = (0..n_links).map(|_| rng.random_range(1.0e8..1.0e10)).collect();
    let (mut eng, links) = engine_with_links(&bws);
    let mut live = Vec::new();

    // The heap's absolute prediction rounds `remaining/rate` once; the scan
    // re-divides a drifted `remaining` and can land one picosecond away.
    let heap_matches_scan = |eng: &mut FlowEngine| -> Result<Option<SimTime>, TestCaseError> {
        let scan = eng.next_completion_time_scan();
        let heap = eng.next_completion_time();
        let agree = match (heap, scan) {
            (Some(h), Some(s)) => h.as_picos().abs_diff(s.as_picos()) <= 1,
            (h, s) => h == s,
        };
        prop_assert!(agree, "completion heap {heap:?} diverged from the reference scan {scan:?}");
        Ok(heap)
    };

    for _ in 0..n_ops {
        match rng.random_range(0..10u32) {
            0..=4 => {
                let amount = if rng.random_range(0..10u32) == 0 {
                    0.0
                } else {
                    rng.random_range(1.0e6..1.0e9)
                };
                let route = if n_links >= 2 && rng.random_range(0..4u32) == 0 {
                    let a = rng.random_range(0..n_links);
                    let b = (a + 1 + rng.random_range(0..n_links - 1)) % n_links;
                    vec![links[a], links[b]]
                } else {
                    vec![links[rng.random_range(0..n_links)]]
                };
                let cap = if rng.random_range(0..4u32) == 0 {
                    Some(rng.random_range(1.0e6..1.0e9))
                } else {
                    None
                };
                live.push(eng.submit(&route, amount, cap).unwrap());
            }
            5..=6 => {
                if let Some(t) = heap_matches_scan(&mut eng)? {
                    eng.advance_to(t).unwrap();
                }
            }
            7..=8 => {
                let dt = SimTime::from_secs_f64_ceil(rng.random_range(1.0e-6..1.0e-2));
                eng.advance_to(eng.now() + dt).unwrap();
            }
            _ => {
                live.retain(|&id| eng.job_remaining(id).is_some());
                if !live.is_empty() {
                    let id = live.swap_remove(rng.random_range(0..live.len()));
                    prop_assert!(eng.cancel(id).is_some(), "cancel of a live job failed");
                    prop_assert_eq!(eng.cancel(id), None, "double cancel must return None");
                }
            }
        }
        heap_matches_scan(&mut eng)?;
    }
    eng.run_to_idle().unwrap();
    prop_assert_eq!(eng.active_jobs(), 0, "run_to_idle left jobs behind");
    prop_assert_eq!(heap_matches_scan(&mut eng)?, None);
    Ok(())
}

/// Reference copy of the flow engine's rate and progress arithmetic as
/// first written: every recompute rebuilds its per-slot and per-resource
/// vectors and rescans every resource, `advance_to` walks every resource.
/// The engine may organize its work differently, but every rate,
/// prediction, completion and statistic must stay bit-equal to this.
mod reference {
    use super::*;

    fn completion_eps(demand: f64) -> f64 {
        1e-9 + 1e-12 * demand.abs()
    }

    struct Job {
        seq: u64,
        demand: f64,
        remaining: f64,
        route: Vec<usize>,
        rate_cap: Option<f64>,
        rate: f64,
        pred: Option<SimTime>,
    }

    #[derive(Default)]
    pub struct RefEngine {
        capacity: Vec<f64>,
        /// `(units_served, busy_seconds, observed_seconds)` per resource.
        pub stats: Vec<(f64, f64, f64)>,
        jobs: Vec<Option<Job>>,
        free_slots: Vec<usize>,
        next_seq: u64,
        pub now: SimTime,
        rates_dirty: bool,
        active: usize,
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    }

    impl RefEngine {
        pub fn new(capacity: &[f64]) -> Self {
            RefEngine {
                capacity: capacity.to_vec(),
                stats: vec![(0.0, 0.0, 0.0); capacity.len()],
                ..RefEngine::default()
            }
        }

        /// Returns the job's sequence number.
        pub fn submit(&mut self, route: &[usize], amount: f64, rate_cap: Option<f64>) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            let job = Job {
                seq,
                demand: amount,
                remaining: amount,
                route: route.to_vec(),
                rate_cap,
                rate: 0.0,
                pred: None,
            };
            match self.free_slots.pop() {
                Some(s) => self.jobs[s] = Some(job),
                None => self.jobs.push(Some(job)),
            }
            self.active += 1;
            self.rates_dirty = true;
            seq
        }

        fn slot_of(&self, seq: u64) -> Option<usize> {
            self.jobs.iter().position(|j| j.as_ref().is_some_and(|j| j.seq == seq))
        }

        pub fn cancel(&mut self, seq: u64) -> Option<f64> {
            let slot = self.slot_of(seq)?;
            let remaining = self.jobs[slot].as_ref().unwrap().remaining.max(0.0);
            self.jobs[slot] = None;
            self.free_slots.push(slot);
            self.active -= 1;
            self.rates_dirty = true;
            Some(remaining)
        }

        pub fn job_rate(&mut self, seq: u64) -> Option<f64> {
            self.recompute_rates();
            Some(self.jobs[self.slot_of(seq)?].as_ref().unwrap().rate)
        }

        pub fn job_remaining(&self, seq: u64) -> Option<f64> {
            Some(self.jobs[self.slot_of(seq)?].as_ref().unwrap().remaining)
        }

        /// Sequence numbers of the active jobs.
        pub fn live(&self) -> Vec<u64> {
            self.jobs.iter().flatten().map(|j| j.seq).collect()
        }

        fn recompute_rates(&mut self) {
            if !self.rates_dirty {
                return;
            }
            self.rates_dirty = false;
            let old_rates: Vec<f64> =
                self.jobs.iter().map(|j| j.as_ref().map_or(0.0, |job| job.rate)).collect();
            let n_res = self.capacity.len();
            let mut residual = self.capacity.clone();
            let mut load: Vec<u32> = vec![0; n_res];
            let mut unfrozen: Vec<usize> = Vec::new();
            for (i, j) in self.jobs.iter().enumerate() {
                if let Some(job) = j {
                    for &r in &job.route {
                        load[r] += 1;
                    }
                    unfrozen.push(i);
                }
            }
            while !unfrozen.is_empty() {
                let mut share = f64::INFINITY;
                for r in 0..n_res {
                    if load[r] > 0 {
                        let s = (residual[r] / load[r] as f64).max(0.0);
                        if s < share {
                            share = s;
                        }
                    }
                }
                let min_cap = unfrozen
                    .iter()
                    .filter_map(|&i| self.jobs[i].as_ref().unwrap().rate_cap)
                    .fold(f64::INFINITY, f64::min);
                let eps = 1e-12 * (1.0 + share.abs());
                let mut next = Vec::new();
                if min_cap < share - eps {
                    for &i in &unfrozen {
                        let job = self.jobs[i].as_mut().unwrap();
                        match job.rate_cap {
                            Some(c) if c <= min_cap + eps => {
                                job.rate = c;
                                for &r in &job.route {
                                    residual[r] = (residual[r] - c).max(0.0);
                                    load[r] -= 1;
                                }
                            }
                            _ => next.push(i),
                        }
                    }
                } else {
                    let mut bottleneck = vec![false; n_res];
                    for r in 0..n_res {
                        if load[r] > 0 && residual[r] / load[r] as f64 <= share + eps {
                            bottleneck[r] = true;
                        }
                    }
                    let mut froze_any = false;
                    for &i in &unfrozen {
                        let job = self.jobs[i].as_mut().unwrap();
                        if job.route.iter().any(|&r| bottleneck[r]) {
                            froze_any = true;
                            let rate = match job.rate_cap {
                                Some(c) => c.min(share),
                                None => share,
                            };
                            job.rate = rate;
                            for &r in &job.route {
                                residual[r] = (residual[r] - rate).max(0.0);
                                load[r] -= 1;
                            }
                        } else {
                            next.push(i);
                        }
                    }
                    if !froze_any {
                        for &i in &next {
                            let job = self.jobs[i].as_mut().unwrap();
                            job.rate = match job.rate_cap {
                                Some(c) => c.min(share),
                                None => share,
                            };
                        }
                        next.clear();
                    }
                }
                unfrozen = next;
            }
            let now = self.now;
            for (slot, (j, old)) in self.jobs.iter_mut().zip(&old_rates).enumerate() {
                let Some(j) = j else { continue };
                if j.rate.to_bits() == old.to_bits() && j.pred.is_some() {
                    continue;
                }
                j.pred = if j.remaining <= completion_eps(j.demand) {
                    Some(now)
                } else if j.rate > 0.0 {
                    Some(now + SimTime::from_secs_f64_ceil(j.remaining / j.rate))
                } else {
                    None
                };
                if let Some(t) = j.pred {
                    self.heap.push(Reverse((t, j.seq, slot)));
                }
            }
        }

        pub fn next_completion_time(&mut self) -> Option<SimTime> {
            if self.active == 0 {
                return None;
            }
            self.recompute_rates();
            while let Some(&Reverse((t, seq, slot))) = self.heap.peek() {
                match self.jobs.get(slot).and_then(Option::as_ref) {
                    Some(j) if j.seq == seq && j.pred == Some(t) => return Some(t),
                    _ => {
                        self.heap.pop();
                    }
                }
            }
            None
        }

        /// Returns the completed jobs' sequence numbers, in order.
        pub fn advance_to(&mut self, t: SimTime) -> Vec<u64> {
            assert!(t >= self.now);
            self.recompute_rates();
            let dt = (t - self.now).as_secs_f64();
            if dt > 0.0 {
                let mut allocated = vec![0.0; self.capacity.len()];
                for j in self.jobs.iter().flatten() {
                    for &r in &j.route {
                        allocated[r] += j.rate;
                    }
                }
                for (r, s) in self.stats.iter_mut().enumerate() {
                    let rate = allocated[r].min(self.capacity[r]);
                    s.0 += rate * dt;
                    s.1 += (rate / self.capacity[r]) * dt;
                    s.2 += dt;
                }
            }
            let mut done: Vec<(u64, usize)> = Vec::new();
            for (i, slot) in self.jobs.iter_mut().enumerate() {
                if let Some(j) = slot {
                    if dt > 0.0 {
                        j.remaining -= j.rate * dt;
                    }
                    if j.remaining <= completion_eps(j.demand) {
                        done.push((j.seq, i));
                    }
                }
            }
            done.sort_by_key(|(seq, _)| *seq);
            for &(_, slot) in &done {
                self.jobs[slot] = None;
                self.free_slots.push(slot);
                self.active -= 1;
                self.rates_dirty = true;
            }
            self.now = t;
            done.into_iter().map(|(seq, _)| seq).collect()
        }
    }
}

/// Drives the engine and the reference copy through one random sequence
/// of submits, cancels, completion-boundary and partial advances over
/// capped, multi-link and zero-amount jobs, requiring bit-equal rates,
/// remaining demands, completion predictions, completions and resource
/// statistics after every operation.
fn drive_differential(seed: u64, n_ops: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_links = rng.random_range(1..7usize);
    let bws: Vec<f64> = (0..n_links).map(|_| rng.random_range(1.0e8..1.0e10)).collect();
    let (mut eng, links) = engine_with_links(&bws);
    let mut reference = reference::RefEngine::new(&bws);
    let mut ids: Vec<JobId> = Vec::new();

    let check = |eng: &mut FlowEngine,
                 reference: &mut reference::RefEngine,
                 ids: &[JobId]|
     -> Result<(), TestCaseError> {
        let live = reference.live();
        prop_assert_eq!(eng.active_jobs(), live.len());
        for &seq in &live {
            let id = ids[seq as usize];
            let (got, want) = (eng.job_rate(id), reference.job_rate(seq));
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "rate of job {}", seq);
            let (got, want) = (eng.job_remaining(id), reference.job_remaining(seq));
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "remaining of {}", seq);
        }
        prop_assert_eq!(eng.next_completion_time(), reference.next_completion_time());
        for (i, &l) in links.iter().enumerate() {
            let s = eng.stats(l);
            let want = reference.stats[i];
            prop_assert_eq!(
                (s.units_served.to_bits(), s.busy_seconds.to_bits(), s.observed_seconds.to_bits()),
                (want.0.to_bits(), want.1.to_bits(), want.2.to_bits()),
                "stats of resource {}",
                i
            );
        }
        Ok(())
    };

    for _ in 0..n_ops {
        match rng.random_range(0..12u32) {
            0..=4 => {
                let amount = if rng.random_range(0..8u32) == 0 {
                    0.0
                } else {
                    rng.random_range(1.0e6..1.0e9)
                };
                let hops = rng.random_range(1..=n_links.min(3));
                let first = rng.random_range(0..n_links);
                let route: Vec<usize> = (0..hops).map(|h| (first + h) % n_links).collect();
                let cap = if rng.random_range(0..3u32) == 0 {
                    Some(rng.random_range(1.0e6..1.0e9))
                } else {
                    None
                };
                let res: Vec<ResourceId> = route.iter().map(|&r| links[r]).collect();
                let id = eng.submit(&res, amount, cap).unwrap();
                let seq = reference.submit(&route, amount, cap);
                prop_assert_eq!(id.sequence(), seq);
                ids.push(id);
            }
            5..=6 => {
                let t = eng.next_completion_time();
                prop_assert_eq!(t, reference.next_completion_time());
                if let Some(t) = t {
                    let got: Vec<u64> =
                        eng.advance_to(t).unwrap().iter().map(|c| c.job.sequence()).collect();
                    prop_assert_eq!(got, reference.advance_to(t));
                }
            }
            7..=8 => {
                let dt = SimTime::from_secs_f64_ceil(rng.random_range(1.0e-6..1.0e-2));
                let t = eng.now() + dt;
                let got: Vec<u64> =
                    eng.advance_to(t).unwrap().iter().map(|c| c.job.sequence()).collect();
                prop_assert_eq!(got, reference.advance_to(t));
            }
            9 => {
                // Rate query straight after a composition change: the
                // recompute happens here, not at the next advance.
                if let Some(&seq) = reference.live().last() {
                    let (got, want) = (eng.job_rate(ids[seq as usize]), reference.job_rate(seq));
                    prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
            _ => {
                let live = reference.live();
                if !live.is_empty() {
                    let seq = live[rng.random_range(0..live.len())];
                    let (got, want) = (eng.cancel(ids[seq as usize]), reference.cancel(seq));
                    prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                }
            }
        }
        if rng.random_range(0..3u32) == 0 {
            check(&mut eng, &mut reference, &ids)?;
        }
    }
    check(&mut eng, &mut reference, &ids)?;
    while let Some(t) = reference.next_completion_time() {
        prop_assert_eq!(eng.next_completion_time(), Some(t));
        let got: Vec<u64> = eng.advance_to(t).unwrap().iter().map(|c| c.job.sequence()).collect();
        prop_assert_eq!(got, reference.advance_to(t));
        check(&mut eng, &mut reference, &ids)?;
    }
    prop_assert_eq!(eng.active_jobs(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's rates, predictions, completions and statistics are
    /// bit-equal to the reference copy over random churn.
    #[test]
    fn rates_and_stats_match_the_reference_bit_for_bit(
        seed in any::<u64>(),
        n_ops in 10usize..120,
    ) {
        drive_differential(seed, n_ops)?;
    }

    /// Random submit / partial-advance / cancel interleavings with capped,
    /// multi-link and zero-amount jobs keep the completion heap within a
    /// picosecond of its reference scan and drain to idle.
    #[test]
    fn mixed_churn_heap_matches_scan_and_drains(seed in any::<u64>(), n_ops in 10usize..60) {
        drive_mixed(seed, n_ops)?;
    }

    /// A single shared link is work-conserving: N parallel flows finish in
    /// exactly (total bytes / bandwidth), regardless of flow sizes.
    #[test]
    fn work_conservation_single_link(
        sizes in prop::collection::vec(1.0e6..1.0e9f64, 1..12),
        bw in 1.0e8..1.0e11f64,
    ) {
        let (mut eng, r) = engine_with_links(&[bw]);
        let total: f64 = sizes.iter().sum();
        for s in &sizes {
            eng.submit(&[r[0]], *s, None).unwrap();
        }
        let end = eng.run_to_idle().unwrap();
        let expect = total / bw;
        prop_assert!((end.as_secs_f64() - expect).abs() / expect < 1e-6,
            "end={} expect={}", end.as_secs_f64(), expect);
    }

    /// Max-min allocation never oversubscribes any resource and gives every
    /// job a strictly positive rate.
    #[test]
    fn rates_feasible_and_positive(
        n_links in 1usize..5,
        n_jobs in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bws: Vec<f64> = (0..n_links).map(|_| rng.random_range(1.0e8..1.0e10)).collect();
        let (mut eng, r) = engine_with_links(&bws);
        let mut jobs = Vec::new();
        for _ in 0..n_jobs {
            let len = rng.random_range(1..=n_links);
            let mut route: Vec<_> = r.clone();
            // Deterministic subset: rotate and truncate.
            let rot = rng.random_range(0..n_links);
            route.rotate_left(rot);
            route.truncate(len);
            jobs.push((route.clone(), eng.submit(&route, 1e9, None).unwrap()));
        }
        // Query rates and check feasibility.
        let mut per_resource = vec![0.0f64; n_links];
        for (route, id) in &jobs {
            let rate = eng.job_rate(*id).unwrap();
            prop_assert!(rate > 0.0, "job got zero rate");
            for res in route {
                per_resource[res.index()] += rate;
            }
        }
        for (i, used) in per_resource.iter().enumerate() {
            prop_assert!(*used <= bws[i] * (1.0 + 1e-9),
                "resource {i} oversubscribed: {used} > {}", bws[i]);
        }
    }

    /// Increasing a link's bandwidth never increases the makespan of a
    /// fixed workload.
    #[test]
    fn bandwidth_monotonicity(
        sizes in prop::collection::vec(1.0e6..1.0e9f64, 1..8),
        bw in 1.0e8..1.0e10f64,
        factor in 1.0..8.0f64,
    ) {
        let run = |b: f64| {
            let (mut eng, r) = engine_with_links(&[b]);
            let mut g = TaskGraph::new();
            let mut prev = None;
            for (i, s) in sizes.iter().enumerate() {
                let deps: Vec<_> = prev.into_iter().collect();
                prev = Some(g.transfer(format!("t{i}"), *s, vec![r[0]], &deps));
            }
            execute(&mut eng, &g).unwrap().makespan()
        };
        let slow = run(bw);
        let fast = run(bw * factor);
        prop_assert!(fast <= slow + SimTime::from_picos(sizes.len() as u64),
            "fast={fast} slow={slow}");
    }

    /// The engine is deterministic: the same workload produces the same
    /// timeline twice.
    #[test]
    fn determinism(
        sizes in prop::collection::vec(1.0e6..1.0e9f64, 1..10),
        bws in prop::collection::vec(1.0e8..1.0e10f64, 1..4),
    ) {
        let run = || {
            let (mut eng, r) = engine_with_links(&bws);
            let mut g = TaskGraph::new();
            for (i, s) in sizes.iter().enumerate() {
                let route = vec![r[i % r.len()]];
                g.transfer(format!("t{i}"), *s, route, &[]);
            }
            let tl = execute(&mut eng, &g).unwrap();
            (tl.makespan(), tl.finished_at())
        };
        prop_assert_eq!(run(), run());
    }

    /// A job's completion time is never better than its bottleneck bound
    /// (amount / min-capacity along the route) nor worse than the serial
    /// bound (all jobs through its route one at a time).
    #[test]
    fn completion_bounds(
        n_jobs in 1usize..10,
        bw in 1.0e8..1.0e10f64,
        size in 1.0e6..1.0e9f64,
    ) {
        let (mut eng, r) = engine_with_links(&[bw]);
        for _ in 0..n_jobs {
            eng.submit(&[r[0]], size, None).unwrap();
        }
        let end = eng.run_to_idle().unwrap().as_secs_f64();
        let lower = size / bw;
        let upper = size * n_jobs as f64 / bw;
        prop_assert!(end >= lower * (1.0 - 1e-9));
        prop_assert!(end <= upper * (1.0 + 1e-9) + 1e-12);
    }
}
