//! The three workloads. Each one generates seeded inputs, builds the
//! systems and engines that serve them, and runs its timed phase through
//! the library's public calls, checking the outputs as it goes.

mod offline;
mod serving;

pub use offline::OfflineLongctx;
pub use serving::{FleetElastic, ServePrefix};

use crate::probes::Probes;
use crate::spans::Spans;
use hilos_trace::Event;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["offline-longctx", "serve-prefix", "fleet-elastic"];

/// The modeled (simulated-clock) end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modeled {
    /// Generated tokens per simulated second.
    pub tok_s: f64,
    /// Median time to first token, simulated seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile time to first token, simulated seconds.
    pub ttft_p99_s: f64,
    /// 99th percentile over sequences of the mean gap between a
    /// sequence's tokens, simulated seconds.
    pub itl_p99_s: f64,
    /// USD per million generated tokens.
    pub usd_per_mtok: f64,
}

/// What one execution of a workload's timed phase produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: offline jobs, or trace requests.
    pub attempted: u64,
    /// Operations that failed: rejected, shed or lost requests.
    pub failed: u64,
    /// The modeled end-to-end metrics.
    pub modeled: Modeled,
    /// Bit-exact fingerprint of every simulated result, for the
    /// run-to-run and traced-vs-untraced equality checks.
    pub fingerprint: u64,
    /// Simulated per-layer values and input properties, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Per-deployment lifecycle event streams (empty unless traced).
    pub rings: Vec<Vec<Event>>,
    /// Events lost past the rings' capacity.
    pub events_dropped: u64,
    /// Host seconds the engine spent inside `run_trace` (zero offline).
    pub run_trace_s: f64,
    /// Serving steps executed (zero offline).
    pub steps: u64,
}

/// One workload: seeded input generation, set-up, and the timed phase.
pub trait Workload {
    /// The generated inputs.
    type Inputs;
    /// The systems and engines built for one run.
    type Built;

    /// Draws the inputs for `seed`, under an `llm.trace_gen` span.
    fn generate(&self, seed: u64, spans: &mut Spans) -> Result<Self::Inputs, String>;

    /// Builds every system and engine, under a `core.build` span. With
    /// `probes`, the engines trace lifecycle events and their policies
    /// are wrapped in timing probes.
    fn build(
        &self,
        inputs: &Self::Inputs,
        probes: Option<&Probes>,
        spans: &mut Spans,
    ) -> Result<Self::Built, String>;

    /// Runs the timed phase and checks its outputs.
    fn run(
        &self,
        inputs: &Self::Inputs,
        built: Self::Built,
        spans: &mut Spans,
    ) -> Result<Outcome, String>;

    /// Fingerprint of the generated inputs (for the seed tests).
    fn input_fingerprint(&self, inputs: &Self::Inputs) -> u64;
}
