//! The read-only scheduling state the engine publishes to policies.
//!
//! A [`SchedSnapshot`] is built by [`ServeEngine`](super::ServeEngine)
//! once per step, after arrivals and before the decode. It is the *whole*
//! interface a [`SchedulingPolicy`](super::SchedulingPolicy) sees: plain
//! `Copy` views of the queue and the in-flight batch plus the placeable
//! free bytes — no handle back into the engine, so a policy cannot
//! bypass the ledger gating or mutate serving state behind the engine's
//! back.

use hilos_llm::Priority;

/// A queued request (never admitted, or preempted and re-queued) as the
/// policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedView {
    /// Request id (the handle decisions refer to).
    pub id: u64,
    /// Scheduling priority from the request's SLO.
    pub priority: Priority,
    /// When the request became visible to admission (seconds).
    pub arrival_s: f64,
    /// Absolute SLO deadline: arrival plus the per-request allowance.
    pub deadline_s: f64,
    /// Prompt length in tokens.
    pub prompt_len: u64,
    /// Output budget in tokens.
    pub output_budget: u64,
    /// Tokens already generated before a preemption (zero on first
    /// admission). Admission re-materializes their KV via a prefill over
    /// `prompt_len + emitted`.
    pub emitted: u64,
    /// Estimated KV/X footprint bytes if admitted now (at the α the
    /// admission would select). The engine re-derives the exact value at
    /// execution time; policies use this to judge headroom.
    pub footprint_bytes: u64,
}

/// An in-flight (prefilling or decoding) request as the policy sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightView {
    /// Request id (the handle decisions refer to).
    pub id: u64,
    /// Scheduling priority from the request's SLO.
    pub priority: Priority,
    /// Tokens generated so far.
    pub emitted: u64,
    /// Output budget in tokens.
    pub output_budget: u64,
    /// Whether decoding has started. `false` while the prefill is still
    /// running. Under the legacy side-prefill
    /// ([`ChunkMode::Off`](super::ChunkMode::Off)) prefilling requests
    /// are not preemptable (a preemption decision naming one is ignored
    /// by the engine); under the inline chunk modes they are — and
    /// cheaply, since only their executed chunks are discarded.
    pub decoding: bool,
    /// Bytes of KV/X the request holds across the shard ledger — what a
    /// preemption would free.
    pub held_bytes: u64,
}

impl InFlightView {
    /// Tokens still to generate.
    pub fn remaining_output(&self) -> u64 {
        self.output_budget.saturating_sub(self.emitted)
    }
}

/// Read-only snapshot of the serving state, handed to
/// [`SchedulingPolicy::schedule`](super::SchedulingPolicy::schedule) once
/// per step.
#[derive(Debug, Clone, Copy)]
pub struct SchedSnapshot<'a> {
    /// Simulated wall-clock seconds.
    pub clock_s: f64,
    /// The admission cap (prefilling + decoding requests).
    pub max_batch: u32,
    /// The admission queue in FIFO order.
    pub queue: &'a [QueuedView],
    /// In-flight requests: decoding first, then prefilling.
    pub in_flight: &'a [InFlightView],
    /// Free bytes across placement-eligible devices.
    pub placeable_free: u64,
}

impl SchedSnapshot<'_> {
    /// Batch slots currently free (`max_batch` minus in-flight).
    pub fn free_slots(&self) -> u32 {
        self.max_batch.saturating_sub(self.in_flight.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::Priority;

    #[test]
    fn views_expose_derived_quantities() {
        let v = InFlightView {
            id: 1,
            priority: Priority::Low,
            emitted: 40,
            output_budget: 350,
            decoding: true,
            held_bytes: 1 << 20,
        };
        assert_eq!(v.remaining_output(), 310);
        let snap = SchedSnapshot {
            clock_s: 1.0,
            max_batch: 4,
            queue: &[],
            in_flight: &[v, v, v],
            placeable_free: 30,
        };
        assert_eq!(snap.free_slots(), 1);
        let full = SchedSnapshot { in_flight: &[v, v, v, v, v], ..snap };
        assert_eq!(full.free_slots(), 0, "over-full batch saturates at zero");
    }
}
