//! Prefill-stall and chunk-interference accounting for the serving layer.
//!
//! When prompt ingestion shares the device bandwidth with token
//! generation (the serving engine's token-budgeted step), every second a
//! prefill chunk executes is paid by someone: either a *running decode
//! batch* whose inter-token latency inflates (interference), or an
//! *empty* decode pipeline waiting for its first join (stall). This
//! breakdown separates the two so schedulers and routers can be judged on
//! where they put the prompt-ingestion cost — the near-storage systems
//! this reproduction follows show the interleaving of the two phases,
//! not their isolated speeds, determines end-to-end cost.

/// Where the serving step's time went once prefill runs *inside* the
/// step instead of on the side.
///
/// All fields are zero under the legacy side-prefill mode (prefill fully
/// overlapped, never charged to the step) except `decode_seconds`, which
/// is always the sum of executed decode-step times.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrefillBreakdown {
    /// Seconds of executed decode steps.
    pub decode_seconds: f64,
    /// Prefill-chunk seconds charged to steps that *also* decoded — the
    /// time that inflated the running batch's inter-token latency.
    pub interference_seconds: f64,
    /// Prefill-chunk seconds charged to steps with nothing decoding —
    /// the pipeline stalled on prompt ingestion (cold start, or the
    /// batch drained before the next join).
    pub stall_seconds: f64,
    /// Prefill chunks executed.
    pub chunks: u64,
    /// Prompt tokens ingested across all executed chunks (re-admissions
    /// after preemption re-ingest and are counted again).
    pub chunk_tokens: u64,
}

impl PrefillBreakdown {
    /// Total inline prefill seconds (interference plus stall).
    pub fn prefill_seconds(&self) -> f64 {
        self.interference_seconds + self.stall_seconds
    }

    /// Prefill seconds charged to decoding steps per decode second — how
    /// much of the batch's inter-token latency is prompt ingestion (zero
    /// when nothing decoded).
    pub fn interference_ratio(&self) -> f64 {
        if self.decode_seconds > 0.0 {
            self.interference_seconds / self.decode_seconds
        } else {
            0.0
        }
    }

    /// Element-wise sum — cluster reports merge per-deployment
    /// breakdowns with this.
    pub fn merged(&self, other: &PrefillBreakdown) -> PrefillBreakdown {
        PrefillBreakdown {
            decode_seconds: self.decode_seconds + other.decode_seconds,
            interference_seconds: self.interference_seconds + other.interference_seconds,
            stall_seconds: self.stall_seconds + other.stall_seconds,
            chunks: self.chunks + other.chunks,
            chunk_tokens: self.chunk_tokens + other.chunk_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_empty_runs() {
        let empty = PrefillBreakdown::default();
        assert_eq!(empty.prefill_seconds(), 0.0);
        assert_eq!(empty.interference_ratio(), 0.0);
        assert!(!empty.interference_ratio().is_nan());
    }

    #[test]
    fn breakdown_arithmetic() {
        let b = PrefillBreakdown {
            decode_seconds: 10.0,
            interference_seconds: 2.0,
            stall_seconds: 3.0,
            chunks: 4,
            chunk_tokens: 1024,
        };
        assert_eq!(b.prefill_seconds(), 5.0);
        assert!((b.interference_ratio() - 0.2).abs() < 1e-12);
        let m = b.merged(&b);
        assert_eq!(m.chunks, 8);
        assert_eq!(m.chunk_tokens, 2048);
        assert_eq!(m.decode_seconds, 20.0);
        assert_eq!(m.prefill_seconds(), 10.0);
    }
}
