//! The sink abstraction: where emitted events go.

use std::collections::VecDeque;

use crate::event::{Event, FNV_OFFSET};

/// Destination for emitted lifecycle events.
///
/// Engines cache [`TraceSink::enabled`] and skip event construction
/// entirely when it is `false`, so the disabled path costs one branch —
/// the [`NullSink`] makes instrumented builds bit-identical (and
/// wall-clock-identical, guarded in `bench_serving`) to uninstrumented
/// ones.
/// `Send` is a supertrait so a traced run state may move to another
/// thread with its engine; both shipped sinks are plain owned buffers.
pub trait TraceSink: std::fmt::Debug + Send {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool;
    /// Record one event. Must be observational: no engine state changes.
    fn record(&mut self, ev: Event);
    /// Copy out the retained events, oldest first.
    fn snapshot(&self) -> Vec<Event>;
    /// How many events were evicted beyond the sink's capacity.
    fn dropped(&self) -> u64 {
        0
    }
}

/// The tracing-off sink: reports disabled, retains nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _ev: Event) {}
    fn snapshot(&self) -> Vec<Event> {
        Vec::new()
    }
}

/// Bounded ring buffer of events with a streaming FNV-1a hash.
///
/// The ring retains the most recent `capacity` events (oldest evicted
/// first, counted in [`EventRing::dropped`]); the hash is folded at record
/// time so [`EventRing::stream_fnv`] covers the *entire* stream even after
/// eviction.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    fnv: u64,
}

impl EventRing {
    /// A ring retaining up to `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            fnv: FNV_OFFSET,
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// FNV-1a hash over every event ever recorded, eviction included.
    pub fn stream_fnv(&self) -> u64 {
        self.fnv
    }
}

impl TraceSink for EventRing {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: Event) {
        self.fnv = ev.fold_fnv(self.fnv);
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().copied().collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{events_fnv, EventKind};

    fn ev(i: u64) -> Event {
        Event { t_s: i as f64, deployment: 0, request: i, kind: EventKind::Routed }
    }

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.record(ev(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let snap = ring.snapshot();
        assert_eq!(snap.iter().map(|e| e.request).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn stream_fnv_covers_evicted_events() {
        let all: Vec<Event> = (0..5).map(ev).collect();
        let mut ring = EventRing::new(2);
        for e in &all {
            ring.record(*e);
        }
        assert_eq!(ring.stream_fnv(), events_fnv(&all));
        assert_ne!(ring.stream_fnv(), events_fnv(&ring.snapshot()));
    }

    #[test]
    fn snapshot_fnv_matches_stream_when_nothing_dropped() {
        let mut ring = EventRing::new(16);
        for i in 0..5 {
            ring.record(ev(i));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.stream_fnv(), events_fnv(&ring.snapshot()));
    }

    #[test]
    fn null_sink_is_disabled_and_empty() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        sink.record(ev(1));
        assert!(sink.snapshot().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
    }
}
