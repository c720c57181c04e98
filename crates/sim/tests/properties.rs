//! Property-based tests for the flow engine's fairness and conservation
//! invariants.

use hilos_sim::{execute, FlowEngine, ResourceId, ResourceKind, ResourceSpec, SimTime, TaskGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
