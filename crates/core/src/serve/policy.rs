//! Pluggable scheduling policies: who gets the scarce KV capacity.
//!
//! Related near-storage and KV-offloading systems show that *which*
//! request holds KV capacity — not just how fast kernels run — dominates
//! end-to-end cost, so scheduling is a first-class, swappable API here.
//! A [`SchedulingPolicy`] is consulted once per serving step with a
//! read-only [`SchedSnapshot`] and answers with an ordered list of
//! [`SchedDecision`]s. The engine executes them under its own invariants
//! (batch cap, per-device shard-ledger gating, head-of-line wait), so a
//! policy cannot corrupt serving state — at worst its decisions are
//! ignored.
//!
//! # Decision semantics
//!
//! The engine walks the decision list in order:
//!
//! * [`SchedDecision::Preempt`] — if the victim is currently *decoding*,
//!   it is removed from the batch, its shard allocation is released, and
//!   it is re-queued with its generated-token progress retained (its KV is
//!   re-materialized by a prefill over `prompt + progress` on
//!   re-admission). Under the inline chunk modes
//!   ([`ChunkMode`](super::ChunkMode)) a *prefilling* victim may be named
//!   too — a cheap preemption that discards only its executed chunks.
//!   Naming a queued or unknown id (or a prefilling one under the legacy
//!   side-prefill mode) is ignored.
//! * [`SchedDecision::Shed`] — if the named *queued* request's deadline
//!   has provably passed on the deployment clock and it carries no
//!   generated progress, it is dropped with a typed
//!   [`ShedOutcome`](super::ShedOutcome) instead of rotting in (and
//!   clogging) the queue. Anything else is ignored — a policy cannot
//!   shed viable work or erase retained progress.
//! * [`SchedDecision::Admit`] — if the batch is at `max_batch` the rest
//!   of the list is abandoned (the step is full). Otherwise the engine
//!   computes the request's footprint at the admission α and asks the
//!   ledger to place it: an unplaceable-ever request is rejected outright;
//!   a capacity miss while other requests are live abandons the rest of
//!   the list (head-of-line wait — evictions will free space). Ids not in
//!   the queue are ignored.
//!
//! Returning an empty list holds every queued request for the step.
//!
//! # Implementing your own policy
//!
//! A policy is a plain struct. Here is a complete shortest-job-first
//! scheduler — admit the request with the fewest total tokens first:
//!
//! ```
//! use hilos_core::serve::policy::{SchedDecision, SchedulingPolicy};
//! use hilos_core::serve::{QueuedView, SchedSnapshot};
//!
//! #[derive(Debug, Default)]
//! struct ShortestJobFirst;
//!
//! impl SchedulingPolicy for ShortestJobFirst {
//!     fn name(&self) -> &'static str {
//!         "shortest-job-first"
//!     }
//!
//!     fn schedule(&mut self, snap: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
//!         let mut order: Vec<&QueuedView> = snap.queue.iter().collect();
//!         // Total work, ties broken by id for determinism.
//!         order.sort_by_key(|q| (q.prompt_len + q.output_budget, q.id));
//!         // Emit every candidate: the engine stops at the batch cap and
//!         // on capacity misses, so over-asking is safe.
//!         order.into_iter().map(|q| SchedDecision::Admit { request: q.id }).collect()
//!     }
//! }
//!
//! // Drive it exactly like the built-in policies:
//! // ServeEngine::with_policy(system, config, Box::new(ShortestJobFirst))
//! # let _ = ShortestJobFirst;
//! ```
//!
//! Policies may keep state across steps (`schedule` takes `&mut self`) —
//! e.g. an admission-rate limiter or a learned model — but determinism of
//! a serving run requires the policy itself to be deterministic.

use super::snapshot::{InFlightView, QueuedView, SchedSnapshot};
use std::fmt;

/// One typed scheduling decision, executed (and validated) by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedDecision {
    /// Try to admit the queued request with this id.
    Admit {
        /// The queued request's id.
        request: u64,
    },
    /// Preempt the in-flight request with this id: release its KV shard
    /// allocation and re-queue it with retained progress.
    Preempt {
        /// The victim's id.
        victim: u64,
    },
    /// Drop the queued request with this id as provably hopeless (its
    /// deadline already passed while it queued) — overload shedding.
    Shed {
        /// The hopeless queued request's id.
        request: u64,
    },
}

/// An admission/preemption policy consulted once per serving step.
///
/// `Send` is a supertrait so a deployment (engine + policy) can move to
/// another thread, for instance to run independent engines side by
/// side; every shipped policy is plain owned data.
pub trait SchedulingPolicy: fmt::Debug + Send {
    /// Stable policy name, recorded in
    /// [`TraceReport::policy`](super::TraceReport::policy).
    fn name(&self) -> &'static str;

    /// Whether the policy ever emits [`SchedDecision::Preempt`].
    ///
    /// Policies that may preempt are consulted on *every* serving step
    /// (even with an empty queue — e.g. to shed a deadline-hopeless
    /// decoding request). An admission-only policy has nothing useful to
    /// say when the queue is empty or the batch is at `max_batch`, so on
    /// those steps the engine skips building the snapshot and consulting
    /// it entirely — on a backlogged trace that is most steps, and the
    /// O(queue) view construction is the serving loop's dominant cost.
    /// Defaults to `true` (always consulted); override to `false` for
    /// admission-only policies.
    fn may_preempt(&self) -> bool {
        true
    }

    /// Whether the policy ever emits [`SchedDecision::Shed`].
    ///
    /// Admission-only policies are normally skipped on full-batch steps
    /// (nothing to admit), but a *shedding* policy must still see those
    /// steps — a saturated batch over a deep queue is exactly when
    /// deadlines expire. Defaults to `false`.
    fn may_shed(&self) -> bool {
        false
    }

    /// How many queued requests — from the head, in arrival order — the
    /// policy needs in its snapshot this step, given `free_slots` open
    /// batch slots. `None` (the default) means the whole queue.
    ///
    /// The snapshot's queue views are the serving loop's dominant cost on
    /// a backlogged trace: O(queue) per step. A policy that admits
    /// strictly from the head of the queue only ever acts on one
    /// candidate per free slot, so it can bound the horizon and turn the
    /// build into O(batch) — the difference between a 2k-request and a
    /// 1M-request trace. Order-sensitive policies (deadline, priority)
    /// must keep the default: they need the whole backlog to sort it.
    fn queue_horizon(&self, free_slots: usize) -> Option<usize> {
        let _ = free_slots;
        None
    }

    /// Reads the snapshot and returns the step's decisions, in execution
    /// order (preemptions intended to make room must precede the
    /// admission that needs it).
    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision>;
}

/// First-in-first-out admission, no preemption — bit-identical to the
/// engine behavior before the policy API existed (pinned by a golden
/// test on the seeded Azure-mix trace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn may_preempt(&self) -> bool {
        false
    }

    fn queue_horizon(&self, free_slots: usize) -> Option<usize> {
        // FIFO admits strictly head-first and the engine stops at the
        // batch cap (or the first capacity miss, which is head-of-line
        // blocking either way), so candidates beyond the free slots can
        // never be acted on this step.
        Some(free_slots)
    }

    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        // Emit the whole visible queue in arrival order; the engine
        // enforces the batch cap and the head-of-line wait, reproducing
        // the original hard-wired loop exactly.
        snapshot.queue.iter().map(|q| SchedDecision::Admit { request: q.id }).collect()
    }
}

/// Earliest-deadline-first admission over per-request SLOs
/// ([`hilos_llm::Slo`]), no preemption — with opt-in overload shedding.
///
/// Under contention, FIFO lets tight-deadline requests rot behind
/// loose-deadline long jobs that arrived earlier; EDF admits by absolute
/// deadline (`arrival + allowance`), which is optimal for deadline
/// feasibility on a single resource and measurably lifts SLO goodput on
/// mixed traces.
///
/// Under *overload*, plain EDF suffers the classic domino effect: it
/// keeps admitting the earliest deadline even once that deadline is
/// already dead, burning capacity on requests that can no longer count
/// toward goodput and dragging every later deadline down with them.
/// [`DeadlineEdf::with_shedding`] drops provably-hopeless queued
/// requests (deadline already expired on the deployment clock) as typed
/// [`ShedOutcome`](super::ShedOutcome)s instead, so the remaining
/// capacity goes to requests that can still meet their SLOs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineEdf {
    /// Whether provably-hopeless queued requests are shed (off by
    /// default — plain EDF, bit-identical to the pre-shedding policy).
    pub shed_hopeless: bool,
}

impl DeadlineEdf {
    /// Plain EDF: admit by absolute deadline, never drop anything.
    pub fn new() -> Self {
        DeadlineEdf { shed_hopeless: false }
    }

    /// EDF with overload shedding: queued requests whose deadline has
    /// already passed are dropped instead of admitted.
    pub fn with_shedding() -> Self {
        DeadlineEdf { shed_hopeless: true }
    }
}

impl SchedulingPolicy for DeadlineEdf {
    fn name(&self) -> &'static str {
        if self.shed_hopeless {
            "deadline-edf-shed"
        } else {
            "deadline-edf"
        }
    }

    fn may_preempt(&self) -> bool {
        false
    }

    fn may_shed(&self) -> bool {
        self.shed_hopeless
    }

    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        let mut order: Vec<&QueuedView> = snapshot.queue.iter().collect();
        order.sort_by(|a, b| {
            a.deadline_s
                .total_cmp(&b.deadline_s)
                .then(a.arrival_s.total_cmp(&b.arrival_s))
                .then(a.id.cmp(&b.id))
        });
        order
            .into_iter()
            .map(|q| {
                // A request whose deadline has already passed can never
                // meet its SLO however it is scheduled; a preemption
                // victim with progress still completes (the engine would
                // refuse to shed it anyway).
                if self.shed_hopeless && q.emitted == 0 && q.deadline_s <= snapshot.clock_s {
                    SchedDecision::Shed { request: q.id }
                } else {
                    SchedDecision::Admit { request: q.id }
                }
            })
            .collect()
    }
}

/// Strict priority classes with preemption: queued high-priority
/// requests may evict decoding lower-priority victims.
///
/// Admission is ordered by (priority, arrival). When the single best
/// queued candidate cannot start — no free batch slot, or the shard
/// ledger lacks headroom for its footprint — the policy preempts
/// strictly-lower-priority *decoding* victims, preferring the ones with
/// the most output still to generate (they hold capacity longest), until
/// the candidate fits or the per-step preemption budget is exhausted. If
/// preemption cannot make enough room, nobody is preempted (no thrash
/// for nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityPreempt {
    /// Most victims preempted per scheduling step (thrash guard).
    pub max_preemptions_per_step: usize,
}

impl PriorityPreempt {
    /// The default configuration: at most 2 victims per step.
    pub fn new() -> Self {
        PriorityPreempt { max_preemptions_per_step: 2 }
    }
}

impl Default for PriorityPreempt {
    fn default() -> Self {
        PriorityPreempt::new()
    }
}

impl SchedulingPolicy for PriorityPreempt {
    fn name(&self) -> &'static str {
        "priority-preempt"
    }

    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        let mut order: Vec<&QueuedView> = snapshot.queue.iter().collect();
        order.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then(a.arrival_s.total_cmp(&b.arrival_s))
                .then(a.id.cmp(&b.id))
        });
        let mut decisions = Vec::with_capacity(order.len());
        if let Some(head) = order.first() {
            let mut slots = snapshot.free_slots() as usize;
            let mut free = snapshot.placeable_free;
            if slots == 0 || free < head.footprint_bytes {
                let mut victims: Vec<&InFlightView> = snapshot
                    .in_flight
                    .iter()
                    .filter(|v| v.decoding && v.priority < head.priority)
                    .collect();
                // Lowest class first; within a class, the longest
                // remaining output (ties to the younger id, which under
                // FIFO-ish arrival got capacity last).
                victims.sort_by(|a, b| {
                    a.priority
                        .cmp(&b.priority)
                        .then(b.remaining_output().cmp(&a.remaining_output()))
                        .then(b.id.cmp(&a.id))
                });
                let mut chosen = Vec::new();
                for v in victims {
                    if chosen.len() >= self.max_preemptions_per_step
                        || (slots >= 1 && free >= head.footprint_bytes)
                    {
                        break;
                    }
                    chosen.push(v.id);
                    slots += 1;
                    free += v.held_bytes;
                }
                if slots >= 1 && free >= head.footprint_bytes {
                    decisions
                        .extend(chosen.into_iter().map(|victim| SchedDecision::Preempt { victim }));
                }
            }
        }
        decisions.extend(order.into_iter().map(|q| SchedDecision::Admit { request: q.id }));
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::{Priority, RequestClass};

    fn queued(id: u64, arrival_s: f64, deadline_s: f64, priority: Priority) -> QueuedView {
        QueuedView {
            id,
            class: RequestClass::Medium,
            priority,
            arrival_s,
            deadline_s,
            prompt_len: 1024,
            output_budget: 350,
            emitted: 0,
            preemptions: 0,
            footprint_bytes: 1000,
            demoted_tokens: 0,
            recall_cost_s: 0.0,
        }
    }

    fn flying(id: u64, priority: Priority, remaining: u64, decoding: bool) -> InFlightView {
        InFlightView {
            id,
            class: RequestClass::Long,
            priority,
            arrival_s: 0.0,
            deadline_s: 1e9,
            emitted: 0,
            output_budget: remaining,
            decoding,
            held_bytes: 600,
            preemptions: 0,
            prefill_done: if decoding { 1024 } else { 0 },
            prefill_total: 1024,
        }
    }

    fn snap<'a>(
        queue: &'a [QueuedView],
        in_flight: &'a [InFlightView],
        max_batch: u32,
        placeable_free: u64,
    ) -> SchedSnapshot<'a> {
        SchedSnapshot {
            clock_s: 0.0,
            step: 0,
            max_batch,
            queue,
            in_flight,
            device_free_bytes: &[],
            placeable_free,
            prefill_backlog_tokens: 0,
        }
    }

    #[test]
    fn fifo_emits_queue_order() {
        let q = [
            queued(5, 0.0, 10.0, Priority::Low),
            queued(2, 1.0, 2.0, Priority::High),
            queued(9, 2.0, 5.0, Priority::Normal),
        ];
        let d = Fifo.schedule(&snap(&q, &[], 4, 1 << 30));
        assert_eq!(
            d,
            vec![
                SchedDecision::Admit { request: 5 },
                SchedDecision::Admit { request: 2 },
                SchedDecision::Admit { request: 9 },
            ]
        );
    }

    #[test]
    fn edf_sorts_by_absolute_deadline() {
        let q = [
            queued(5, 0.0, 10.0, Priority::Low),
            queued(2, 1.0, 2.0, Priority::High),
            queued(9, 2.0, 5.0, Priority::Normal),
            queued(1, 3.0, 5.0, Priority::Normal),
        ];
        let d = DeadlineEdf::new().schedule(&snap(&q, &[], 4, 1 << 30));
        let ids: Vec<u64> = d
            .iter()
            .map(|d| match d {
                SchedDecision::Admit { request } => *request,
                _ => unreachable!("EDF never preempts"),
            })
            .collect();
        // Deadline 2 < 5 (arrival 2.0 before 3.0) < 10.
        assert_eq!(ids, vec![2, 9, 1, 5]);
    }

    #[test]
    fn edf_shedding_drops_only_expired_deadlines() {
        let q = [
            queued(5, 0.0, 10.0, Priority::Low),
            queued(2, 1.0, 2.0, Priority::High),
            queued(9, 2.0, 5.0, Priority::Normal),
        ];
        // Clock at 4.0: request 2's deadline (2.0) has passed, 9's (5.0)
        // and 5's (10.0) have not.
        let snapshot = SchedSnapshot { clock_s: 4.0, ..snap(&q, &[], 4, 1 << 30) };
        let d = DeadlineEdf::with_shedding().schedule(&snapshot);
        assert_eq!(
            d,
            vec![
                SchedDecision::Shed { request: 2 },
                SchedDecision::Admit { request: 9 },
                SchedDecision::Admit { request: 5 },
            ]
        );
        // Plain EDF admits the dead request anyway (the domino effect).
        let plain = DeadlineEdf::new().schedule(&snapshot);
        assert_eq!(plain[0], SchedDecision::Admit { request: 2 });
        // A preemption victim with retained progress is never shed.
        let victims = [QueuedView { emitted: 17, ..queued(2, 1.0, 2.0, Priority::High) }];
        let snapshot = SchedSnapshot { clock_s: 4.0, ..snap(&victims, &[], 4, 1 << 30) };
        assert_eq!(
            DeadlineEdf::with_shedding().schedule(&snapshot),
            vec![SchedDecision::Admit { request: 2 }]
        );
        assert!(DeadlineEdf::with_shedding().may_shed());
        assert!(!DeadlineEdf::new().may_shed());
        assert_eq!(DeadlineEdf::with_shedding().name(), "deadline-edf-shed");
    }

    #[test]
    fn priority_orders_admissions_by_class_then_arrival() {
        let q = [
            queued(5, 0.0, 10.0, Priority::Low),
            queued(2, 1.0, 2.0, Priority::High),
            queued(9, 0.5, 5.0, Priority::High),
        ];
        let d = PriorityPreempt::new().schedule(&snap(&q, &[], 8, 1 << 30));
        assert_eq!(
            d,
            vec![
                SchedDecision::Admit { request: 9 },
                SchedDecision::Admit { request: 2 },
                SchedDecision::Admit { request: 5 },
            ]
        );
    }

    #[test]
    fn priority_preempts_longest_remaining_low_victim_when_full() {
        let q = [queued(7, 0.0, 2.0, Priority::High)];
        let fly = [
            flying(1, Priority::Low, 50, true),
            flying(2, Priority::Low, 300, true),
            flying(3, Priority::Normal, 500, true),
            flying(4, Priority::Low, 400, false), // prefilling: untouchable
        ];
        // Batch full (4 of 4): one preemption makes a slot and frees
        // enough bytes.
        let d = PriorityPreempt::new().schedule(&snap(&q, &fly, 4, 1 << 30));
        assert_eq!(d[0], SchedDecision::Preempt { victim: 2 }, "longest-remaining Low decoding");
        assert_eq!(d[1], SchedDecision::Admit { request: 7 });
    }

    #[test]
    fn priority_does_not_preempt_without_enough_gain() {
        // Head needs 1000 free bytes; the only victim frees 600 and the
        // array has 0: preemption cannot make room, so nobody is evicted.
        let q = [queued(7, 0.0, 2.0, Priority::High)];
        let fly = [flying(1, Priority::Low, 300, true)];
        let d = PriorityPreempt { max_preemptions_per_step: 1 }.schedule(&snap(&q, &fly, 1, 0));
        assert!(
            d.iter().all(|d| !matches!(d, SchedDecision::Preempt { .. })),
            "useless preemption emitted: {d:?}"
        );
    }

    #[test]
    fn priority_never_preempts_equal_or_higher_classes() {
        let q = [queued(7, 0.0, 2.0, Priority::Normal)];
        let fly = [flying(1, Priority::Normal, 300, true), flying(2, Priority::High, 300, true)];
        let d = PriorityPreempt::new().schedule(&snap(&q, &fly, 2, 0));
        assert!(d.iter().all(|d| !matches!(d, SchedDecision::Preempt { .. })), "{d:?}");
    }

    #[test]
    fn empty_queue_schedules_nothing() {
        assert!(Fifo.schedule(&snap(&[], &[], 4, 0)).is_empty());
        assert!(DeadlineEdf::new().schedule(&snap(&[], &[], 4, 0)).is_empty());
        assert!(PriorityPreempt::new().schedule(&snap(&[], &[], 4, 0)).is_empty());
        assert_eq!(Fifo.name(), "fifo");
        assert_eq!(DeadlineEdf::new().name(), "deadline-edf");
        assert_eq!(DeadlineEdf::default(), DeadlineEdf::new());
        assert_eq!(PriorityPreempt::default().name(), "priority-preempt");
    }
}
