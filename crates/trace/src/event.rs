//! Typed lifecycle events and the deterministic stream hash.

/// Request-id sentinel for deployment-scoped events (elastic lifecycle
/// transitions) that are not tied to any single request.
pub const NO_REQUEST: u64 = u64::MAX;

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
pub(crate) const FNV_PRIME: u64 = 0x100000001b3;

/// One structured lifecycle event.
///
/// `t_s` is the **deployment-local** clock: each deployment advances its
/// own busy-time axis, so timestamps are comparable only within one
/// deployment's ring. Cross-deployment moves carry rebased timestamps in
/// the [`EventKind::Migrated`] payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Deployment-local timestamp in seconds.
    pub t_s: f64,
    /// Index of the deployment the event happened on.
    pub deployment: u32,
    /// Request id, or [`NO_REQUEST`] for deployment-scoped events.
    pub request: u64,
    /// What happened, with its attribution payload.
    pub kind: EventKind,
}

/// The event taxonomy. Payload fields carry the byte/token quantities the
/// attribution layer needs; see the crate docs for the phase table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A request entered a deployment's arrival queue.
    Arrived {
        /// Prompt length of the arriving request.
        prompt_tokens: u64,
    },
    /// The cluster router dispatched the request to this deployment (a
    /// fleet of one deployment routes nothing and records none).
    Routed,
    /// Admission: the request left the queue and claimed KV shards.
    Admitted {
        /// Prefix-cache tokens whose prefill was skipped at admission.
        reused_tokens: u64,
    },
    /// The prefix-cache probe matched a cached prefix.
    PrefixHit {
        /// Tokens of prefill skipped thanks to the hit.
        reused_tokens: u64,
    },
    /// Residency-ladder recall I/O charged to this request.
    Recall {
        /// Bytes moved back up the ladder.
        bytes: u64,
        /// Seconds of recall I/O charged on the deployment clock.
        seconds: f64,
    },
    /// One token-budgeted prefill chunk was executed.
    PrefillChunk {
        /// First prompt token position of the chunk.
        start: u64,
        /// Tokens ingested by the chunk.
        tokens: u64,
        /// Seconds the chunk occupied the step.
        seconds: f64,
        /// Whether the chunk overlapped a running decode batch.
        interference: bool,
    },
    /// Prefill finished; the request joined the decode batch.
    Joined,
    /// One output token was emitted.
    Emit {
        /// Zero-based index of the emitted token.
        index: u64,
        /// Prefill-chunk seconds that stretched this decode step.
        interference_s: f64,
    },
    /// The scheduler preempted the request; its progress re-queues.
    Preempted {
        /// Output tokens already emitted when preempted.
        emitted: u64,
    },
    /// Victim KV was demoted down the residency ladder instead of dropped.
    Demoted {
        /// KV tokens demoted.
        tokens: u64,
        /// KV bytes demoted.
        bytes: u64,
        /// Destination tier index (0 = HBM, 1 = DRAM, 2 = SSD).
        tier: u8,
    },
    /// The request was re-dispatched onto **this** deployment from another.
    Migrated {
        /// Source deployment index.
        from: u32,
        /// Arrival timestamp rebased onto this deployment's clock.
        arrival_s: f64,
        /// First-token timestamp rebased onto this deployment's clock
        /// (meaningful only when `emitted > 0`).
        first_token_s: f64,
        /// Output tokens already emitted on the source deployment.
        emitted: u64,
    },
    /// Terminal: the request finished its full output budget.
    Completed {
        /// Output tokens served.
        output_tokens: u64,
    },
    /// Terminal: the request could never be placed and was rejected.
    Rejected,
    /// Terminal: overload control dropped the request past its deadline.
    Shed,
    /// Elastic: a deployment slot began provisioning.
    ScaleUp,
    /// Elastic: provisioned slot started loading weights.
    Warming,
    /// Elastic: slot became active and joined the serving fleet.
    Activated,
    /// Elastic: slot began draining ahead of retirement.
    Drain,
    /// Elastic: slot retired and stopped billing.
    Retired,
}

impl EventKind {
    /// Stable one-byte discriminant fed to the stream hash. Codes are
    /// append-only: changing an existing code breaks the CI event-stream
    /// pin by design.
    pub fn code(&self) -> u8 {
        match self {
            EventKind::Arrived { .. } => 0,
            EventKind::Routed => 1,
            EventKind::Admitted { .. } => 2,
            EventKind::PrefixHit { .. } => 3,
            EventKind::Recall { .. } => 4,
            EventKind::PrefillChunk { .. } => 5,
            EventKind::Joined => 6,
            EventKind::Emit { .. } => 7,
            EventKind::Preempted { .. } => 8,
            EventKind::Demoted { .. } => 9,
            EventKind::Migrated { .. } => 10,
            EventKind::Completed { .. } => 11,
            EventKind::Rejected => 12,
            EventKind::Shed => 13,
            EventKind::ScaleUp => 14,
            EventKind::Warming => 15,
            EventKind::Activated => 16,
            EventKind::Drain => 17,
            EventKind::Retired => 18,
        }
    }

    /// Human-readable label, used as the Perfetto instant-event name.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Arrived { .. } => "arrived",
            EventKind::Routed => "routed",
            EventKind::Admitted { .. } => "admitted",
            EventKind::PrefixHit { .. } => "prefix_hit",
            EventKind::Recall { .. } => "recall",
            EventKind::PrefillChunk { .. } => "prefill_chunk",
            EventKind::Joined => "joined",
            EventKind::Emit { .. } => "emit",
            EventKind::Preempted { .. } => "preempted",
            EventKind::Demoted { .. } => "demoted",
            EventKind::Migrated { .. } => "migrated",
            EventKind::Completed { .. } => "completed",
            EventKind::Rejected => "rejected",
            EventKind::Shed => "shed",
            EventKind::ScaleUp => "scale_up",
            EventKind::Warming => "warming",
            EventKind::Activated => "activated",
            EventKind::Drain => "drain",
            EventKind::Retired => "retired",
        }
    }
}

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Event {
    /// Fold this event into a running FNV-1a hash: kind code, then
    /// `t_s.to_bits()`, deployment, request, then payload fields in
    /// declaration order (all little-endian; bools as one byte).
    pub fn fold_fnv(&self, h: u64) -> u64 {
        let mut h = fold_bytes(h, &[self.kind.code()]);
        h = fold_bytes(h, &self.t_s.to_bits().to_le_bytes());
        h = fold_bytes(h, &self.deployment.to_le_bytes());
        h = fold_bytes(h, &self.request.to_le_bytes());
        match self.kind {
            EventKind::Arrived { prompt_tokens } => fold_bytes(h, &prompt_tokens.to_le_bytes()),
            EventKind::Admitted { reused_tokens } | EventKind::PrefixHit { reused_tokens } => {
                fold_bytes(h, &reused_tokens.to_le_bytes())
            }
            EventKind::Recall { bytes, seconds } => {
                let h = fold_bytes(h, &bytes.to_le_bytes());
                fold_bytes(h, &seconds.to_bits().to_le_bytes())
            }
            EventKind::PrefillChunk { start, tokens, seconds, interference } => {
                let h = fold_bytes(h, &start.to_le_bytes());
                let h = fold_bytes(h, &tokens.to_le_bytes());
                let h = fold_bytes(h, &seconds.to_bits().to_le_bytes());
                fold_bytes(h, &[interference as u8])
            }
            EventKind::Emit { index, interference_s } => {
                let h = fold_bytes(h, &index.to_le_bytes());
                fold_bytes(h, &interference_s.to_bits().to_le_bytes())
            }
            EventKind::Preempted { emitted } => fold_bytes(h, &emitted.to_le_bytes()),
            EventKind::Demoted { tokens, bytes, tier } => {
                let h = fold_bytes(h, &tokens.to_le_bytes());
                let h = fold_bytes(h, &bytes.to_le_bytes());
                fold_bytes(h, &[tier])
            }
            EventKind::Migrated { from, arrival_s, first_token_s, emitted } => {
                let h = fold_bytes(h, &from.to_le_bytes());
                let h = fold_bytes(h, &arrival_s.to_bits().to_le_bytes());
                let h = fold_bytes(h, &first_token_s.to_bits().to_le_bytes());
                fold_bytes(h, &emitted.to_le_bytes())
            }
            EventKind::Completed { output_tokens } => fold_bytes(h, &output_tokens.to_le_bytes()),
            EventKind::Routed
            | EventKind::Joined
            | EventKind::Rejected
            | EventKind::Shed
            | EventKind::ScaleUp
            | EventKind::Warming
            | EventKind::Activated
            | EventKind::Drain
            | EventKind::Retired => h,
        }
    }
}

/// FNV-1a hash of an event stream — the CI-pinned determinism surface.
/// Equals [`crate::EventRing::stream_fnv`] when nothing was dropped.
pub fn events_fnv(events: &[Event]) -> u64 {
    events.iter().fold(FNV_OFFSET, |h, e| e.fold_fnv(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, kind: EventKind) -> Event {
        Event { t_s, deployment: 0, request: 7, kind }
    }

    #[test]
    fn fnv_is_order_and_payload_sensitive() {
        let a = ev(1.0, EventKind::Arrived { prompt_tokens: 100 });
        let b = ev(2.0, EventKind::Completed { output_tokens: 8 });
        assert_ne!(events_fnv(&[a, b]), events_fnv(&[b, a]));
        let a2 = ev(1.0, EventKind::Arrived { prompt_tokens: 101 });
        assert_ne!(events_fnv(&[a, b]), events_fnv(&[a2, b]));
        assert_eq!(events_fnv(&[a, b]), events_fnv(&[a, b]));
    }

    #[test]
    fn empty_stream_hashes_to_the_fnv_offset() {
        assert_eq!(events_fnv(&[]), FNV_OFFSET);
    }

    #[test]
    fn codes_are_distinct() {
        let kinds = [
            EventKind::Arrived { prompt_tokens: 0 },
            EventKind::Routed,
            EventKind::Admitted { reused_tokens: 0 },
            EventKind::PrefixHit { reused_tokens: 0 },
            EventKind::Recall { bytes: 0, seconds: 0.0 },
            EventKind::PrefillChunk { start: 0, tokens: 0, seconds: 0.0, interference: false },
            EventKind::Joined,
            EventKind::Emit { index: 0, interference_s: 0.0 },
            EventKind::Preempted { emitted: 0 },
            EventKind::Demoted { tokens: 0, bytes: 0, tier: 0 },
            EventKind::Migrated { from: 0, arrival_s: 0.0, first_token_s: 0.0, emitted: 0 },
            EventKind::Completed { output_tokens: 0 },
            EventKind::Rejected,
            EventKind::Shed,
            EventKind::ScaleUp,
            EventKind::Warming,
            EventKind::Activated,
            EventKind::Drain,
            EventKind::Retired,
        ];
        let mut codes: Vec<u8> = kinds.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
        for k in &kinds {
            assert!(!k.label().is_empty());
        }
    }
}
