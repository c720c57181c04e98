//! Request-level workloads: individual inference requests and seeded
//! heterogeneous trace generation.
//!
//! [`BatchSpec`](crate::BatchSpec) describes the paper's uniform offline
//! batches; a [`Request`] is one sequence with its own prompt length,
//! output budget and [`Slo`], drawn from the Azure-derived
//! [`RequestClass`] mix. A [`TraceConfig`] generates deterministic
//! request streams — the input of the continuous-batching serving layer
//! (`hilos-core::serve`). Malformed inputs surface as typed
//! [`TraceError`]s rather than panics, so trace ingestion from untrusted
//! sources stays recoverable.

use crate::workload::RequestClass;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::error::Error;
use std::fmt;

/// Why a request or trace configuration is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A request's prompt length was zero.
    ZeroPromptLen {
        /// The offending request id.
        id: u64,
    },
    /// A request's output budget was zero.
    ZeroOutputBudget {
        /// The offending request id.
        id: u64,
    },
    /// A request's SLO deadline was zero.
    ZeroDeadline {
        /// The offending request id.
        id: u64,
    },
    /// Every class weight in a [`TraceConfig`] was zero.
    NoClassWeight,
    /// `length_jitter` fell outside `[0, 1)`; the payload is the raw
    /// `f64` bit pattern ([`f64::to_bits`]), so the error stays `Eq` and
    /// NaN/infinite inputs survive into the message unmangled.
    InvalidJitter(u64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ZeroPromptLen { id } => {
                write!(f, "request {id}: prompt length must be positive")
            }
            TraceError::ZeroOutputBudget { id } => {
                write!(f, "request {id}: output budget must be positive")
            }
            TraceError::ZeroDeadline { id } => {
                write!(f, "request {id}: SLO deadline must be positive")
            }
            TraceError::NoClassWeight => write!(f, "trace needs a non-zero class weight"),
            TraceError::InvalidJitter(bits) => {
                write!(f, "length jitter must be in [0, 1), got {}", f64::from_bits(*bits))
            }
        }
    }
}

impl Error for TraceError {}

/// Identity of one deployment in a multi-deployment cluster.
///
/// A single-deployment run is deployment `0` (the [`Default`]); a
/// cluster router stamps the deployment that actually served a request
/// onto its outcome, so per-deployment attribution (who paid which tail,
/// which array wore how much) survives aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DeploymentId(pub u32);

impl DeploymentId {
    /// The deployment's index in cluster order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dep{}", self.0)
    }
}

/// Scheduling priority class, ordered `Low < Normal < High`.
///
/// Priority-aware policies (`hilos-core::serve::policy::PriorityPreempt`)
/// admit strictly by class and may preempt lower classes for higher ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort background work (long analytical jobs).
    Low,
    /// Regular offline traffic.
    Normal,
    /// Latency-sensitive traffic that may preempt lower classes.
    High,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// A request's service-level objective: an end-to-end deadline (relative
/// to arrival) and a scheduling priority.
///
/// The deadline is stored in integral milliseconds so [`Request`] stays
/// `Eq`/`Hash` (traces are used as map keys in memoization layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slo {
    /// End-to-end deadline in milliseconds from arrival.
    pub deadline_ms: u64,
    /// Scheduling class.
    pub priority: Priority,
}

impl Slo {
    /// An SLO with the given deadline (seconds) and priority. The
    /// deadline is rounded to whole milliseconds; any *positive* input
    /// is clamped to at least 1 ms so it cannot silently collapse into
    /// the invalid zero-deadline state [`TraceError::ZeroDeadline`]
    /// exists to reject.
    pub fn new(deadline_s: f64, priority: Priority) -> Self {
        let ms = (deadline_s.max(0.0) * 1e3).round() as u64;
        Slo { deadline_ms: if ms == 0 && deadline_s > 0.0 { 1 } else { ms }, priority }
    }

    /// The deadline in seconds.
    pub fn deadline_s(&self) -> f64 {
        self.deadline_ms as f64 / 1e3
    }

    /// The default per-class SLO: Short requests are the most urgent
    /// (tight deadline, high priority), Medium is regular traffic, Long
    /// is best-effort batch work with a relaxed deadline.
    ///
    /// The absolute scales (15 min / 1 h / 6 h) are calibrated to the
    /// near-storage serving regime, where one decode step of a large
    /// batch costs seconds — an offline-inference deadline is minutes to
    /// hours, not the sub-second TTFTs of GPU-resident chat serving.
    pub fn for_class(class: RequestClass) -> Self {
        match class {
            RequestClass::Short => Slo { deadline_ms: 900_000, priority: Priority::High },
            RequestClass::Medium => Slo { deadline_ms: 3_600_000, priority: Priority::Normal },
            RequestClass::Long => Slo { deadline_ms: 21_600_000, priority: Priority::Low },
        }
    }
}

/// One inference request in a serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Unique id (position in the trace).
    pub id: u64,
    /// Serving step at which the request becomes visible to admission.
    pub arrival_step: u64,
    /// Prompt (context) length in tokens.
    pub prompt_len: u64,
    /// Number of tokens to generate.
    pub output_budget: u64,
    /// The class the request was drawn from.
    pub class: RequestClass,
    /// The request's service-level objective (deadline + priority),
    /// consumed by deadline/priority-aware scheduling policies.
    pub slo: Slo,
    /// Content key of the shared prefix this prompt opens with (`0` =
    /// nothing shared): a hashed identity for a per-class system prompt
    /// or the running conversation of a multi-turn session. A prefix
    /// cache probes this key to skip prefill work.
    pub prefix_key: u64,
    /// How many leading prompt tokens `prefix_key` covers.
    pub prefix_tokens: u64,
    /// Key under which this request's *full* context (prompt + output)
    /// becomes reusable once served (`0` = never reused): the session
    /// identity its follow-up turns probe.
    pub publish_key: u64,
}

impl Request {
    /// Creates a request with the class-default [`Slo`].
    ///
    /// # Errors
    ///
    /// [`TraceError::ZeroPromptLen`] / [`TraceError::ZeroOutputBudget`]
    /// if a length is zero.
    pub fn new(
        id: u64,
        arrival_step: u64,
        prompt_len: u64,
        output_budget: u64,
        class: RequestClass,
    ) -> Result<Self, TraceError> {
        if prompt_len == 0 {
            return Err(TraceError::ZeroPromptLen { id });
        }
        if output_budget == 0 {
            return Err(TraceError::ZeroOutputBudget { id });
        }
        Ok(Request {
            id,
            arrival_step,
            prompt_len,
            output_budget,
            class,
            slo: Slo::for_class(class),
            prefix_key: 0,
            prefix_tokens: 0,
            publish_key: 0,
        })
    }

    /// Replaces the SLO.
    ///
    /// # Errors
    ///
    /// [`TraceError::ZeroDeadline`] if the deadline is zero.
    pub fn with_slo(mut self, slo: Slo) -> Result<Self, TraceError> {
        if slo.deadline_ms == 0 {
            return Err(TraceError::ZeroDeadline { id: self.id });
        }
        self.slo = slo;
        Ok(self)
    }

    /// Context length after `emitted` generated tokens.
    pub fn context_at(&self, emitted: u64) -> u64 {
        self.prompt_len + emitted
    }

    /// Total tokens whose KV entries the request materializes at
    /// completion (prompt plus full output budget).
    pub fn total_tokens(&self) -> u64 {
        self.prompt_len + self.output_budget
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "req#{} @{} in={} out={} ({})",
            self.id, self.arrival_step, self.prompt_len, self.output_budget, self.class
        )
    }
}

/// Seeded shared-prefix structure layered onto a trace: per-class system
/// prompts and multi-turn conversation sessions.
///
/// Applied as a post-pass over the base trace with an *independent* RNG
/// stream, so configs without shared prefixes generate bit-identical
/// traces to older versions. Every request either **opens a session**
/// (its prompt begins with its class's system prompt, keyed per class)
/// or, with probability [`follow_up_fraction`](Self::follow_up_fraction),
/// **continues an open session** of its class: its prompt becomes the
/// conversation so far plus fresh user tokens, and its shared prefix is
/// the predecessor's full served context. Follow-ups arrive later in the
/// trace but not necessarily after the predecessor *finishes* — whether
/// the reused prefix is actually cached by then is the serving layer's
/// problem, exactly as in production.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedPrefixConfig {
    /// Tokens of the per-class system prompt every prompt opens with.
    pub system_prompt_tokens: u64,
    /// Probability, in `[0, 1]`, that an arrival continues an open
    /// session of its class instead of opening a new one.
    pub follow_up_fraction: f64,
    /// Mean fresh user tokens appended per follow-up turn (jittered
    /// uniformly in `1..=2·mean`).
    pub follow_up_tokens: u64,
    /// Maximum turns per session before it closes.
    pub max_turns: u32,
}

impl SharedPrefixConfig {
    /// A chat-shaped default: 512-token system prompts, 60% of arrivals
    /// continue a conversation, ~96 fresh tokens per turn, sessions up
    /// to 8 turns.
    pub fn chat() -> Self {
        SharedPrefixConfig {
            system_prompt_tokens: 512,
            follow_up_fraction: 0.6,
            follow_up_tokens: 96,
            max_turns: 8,
        }
    }
}

/// How a generated trace lays out its arrival steps — the temporal
/// shape autoscaling has to chase.
///
/// The default [`Uniform`](ArrivalProcess::Uniform) process keeps the
/// historical behavior (one uniform draw per arrival off
/// [`TraceConfig::mean_interarrival_steps`]) and leaves every existing
/// trace bit-identical. The non-uniform processes rewrite the arrival
/// steps in a deterministic post-pass driven by an RNG stream
/// independent of the base generation (the seed salted by a fixed
/// constant), so prompt lengths, classes and jitters are untouched —
/// only *when* requests arrive changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// One uniform inter-arrival draw per request in
    /// `0..=2·mean_interarrival_steps` — the default, bit-identical to
    /// pre-elastic versions of this crate.
    #[default]
    Uniform,
    /// Deterministic flash crowds: the trace splits into `bursts`
    /// equal contiguous groups; inside a group arrivals are packed
    /// tightly (uniform gaps in `0..=2·burst_interarrival_steps`), and
    /// consecutive groups are separated by a fixed calm gap of
    /// `calm_gap_steps`. The sharpest scale-up/scale-down stimulus: load
    /// slams from zero to a whole burst and back.
    FlashCrowd {
        /// Number of flash crowds the trace splits into (min 1).
        bursts: u32,
        /// Mean inter-arrival gap *inside* a burst, in steps.
        burst_interarrival_steps: u64,
        /// Idle steps between consecutive bursts.
        calm_gap_steps: u64,
    },
    /// Sinusoidal (diurnal) rate: the instantaneous mean inter-arrival
    /// gap swings between `peak_interarrival_steps` (fastest, at the
    /// start of each period) and `trough_interarrival_steps` (slowest,
    /// half a period later) following a cosine of period `period_steps`.
    /// The smooth day/night load curve keep-alive predictors are built
    /// for.
    Diurnal {
        /// Steps per full rate cycle (min 1).
        period_steps: u64,
        /// Mean inter-arrival gap at the peak (fastest) point.
        peak_interarrival_steps: u64,
        /// Mean inter-arrival gap at the trough (slowest) point.
        trough_interarrival_steps: u64,
    },
}

/// Configuration of a seeded heterogeneous request trace.
///
/// # Examples
///
/// ```
/// use hilos_llm::TraceConfig;
///
/// let trace = TraceConfig::azure_mix(100, 7).generate().unwrap();
/// assert_eq!(trace.len(), 100);
/// // Same seed, same trace — bit for bit.
/// assert_eq!(trace, TraceConfig::azure_mix(100, 7).generate().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of requests to generate.
    pub requests: usize,
    /// RNG seed.
    pub seed: u64,
    /// Relative class weights in [`RequestClass::all`] order
    /// (Short, Medium, Long). Zero-weight classes never occur.
    pub class_weights: [u32; 3],
    /// Mean inter-arrival gap in serving steps (arrivals are uniform in
    /// `0..=2·mean`, so bursts of simultaneous arrivals occur). `0` makes
    /// every request arrive at step zero (a closed-loop backlog).
    pub mean_interarrival_steps: u64,
    /// Multiplies every class's prompt length — the knob that stretches
    /// the Azure mix into the paper's long-context regime.
    pub prompt_scale: u64,
    /// Relative jitter applied to prompt and output lengths, `[0, 1)`:
    /// lengths are scaled by a uniform factor in `[1-j, 1+j]`.
    pub length_jitter: f64,
    /// Per-class SLOs stamped onto generated requests, in
    /// [`RequestClass::all`] order. Defaults to [`Slo::for_class`].
    pub class_slos: [Slo; 3],
    /// Shared-prefix structure (system prompts + multi-turn sessions).
    /// `None` (the default) leaves the trace prefix-free and
    /// bit-identical to pre-prefix versions of this crate.
    pub shared_prefix: Option<SharedPrefixConfig>,
    /// Temporal shape of the arrivals. [`ArrivalProcess::Uniform`] (the
    /// default) keeps the historical uniform draws bit-identical; the
    /// bursty/diurnal processes rewrite arrival steps in a seeded
    /// post-pass.
    pub arrival: ArrivalProcess,
}

impl TraceConfig {
    /// The Azure-derived mix of the paper's Fig. 16b endurance study:
    /// weights 6:3:1 over Short/Medium/Long, unscaled prompts, 25% length
    /// jitter, one arrival every other step on average.
    pub fn azure_mix(requests: usize, seed: u64) -> Self {
        TraceConfig {
            requests,
            seed,
            class_weights: [6, 3, 1],
            mean_interarrival_steps: 2,
            prompt_scale: 1,
            length_jitter: 0.25,
            class_slos: [
                Slo::for_class(RequestClass::Short),
                Slo::for_class(RequestClass::Medium),
                Slo::for_class(RequestClass::Long),
            ],
            shared_prefix: None,
            arrival: ArrivalProcess::Uniform,
        }
    }

    /// Same mix with prompts stretched by `scale` — the long-context
    /// serving scenario the ANS path is built for.
    pub fn long_context(requests: usize, seed: u64, scale: u64) -> Self {
        let mut c = TraceConfig::azure_mix(requests, seed);
        c.prompt_scale = scale;
        c
    }

    /// Replaces the per-class SLOs (in [`RequestClass::all`] order).
    pub fn with_class_slos(mut self, slos: [Slo; 3]) -> Self {
        self.class_slos = slos;
        self
    }

    /// Replaces the mean inter-arrival gap — the contention knob: a
    /// larger gap than the deployment's service rate sustains builds a
    /// queue, so admission order (and prefill scheduling) decides who
    /// meets their SLO. `0` makes the whole trace arrive at step zero.
    pub fn with_mean_interarrival(mut self, steps: u64) -> Self {
        self.mean_interarrival_steps = steps;
        self
    }

    /// Layers seeded shared-prefix structure (per-class system prompts +
    /// multi-turn sessions) onto the trace. See [`SharedPrefixConfig`].
    pub fn with_shared_prefix(mut self, shared: SharedPrefixConfig) -> Self {
        self.shared_prefix = Some(shared);
        self
    }

    /// The Azure mix with chat-shaped shared prefixes
    /// ([`SharedPrefixConfig::chat`]) — the canonical trace for measuring
    /// prefix-cache reuse.
    pub fn shared_prefix_mix(requests: usize, seed: u64) -> Self {
        TraceConfig::azure_mix(requests, seed).with_shared_prefix(SharedPrefixConfig::chat())
    }

    /// Replaces the arrival process (see [`ArrivalProcess`]).
    pub fn with_arrival_process(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// The Azure mix arriving as deterministic flash crowds: `bursts`
    /// tight clumps (mean gap 1 step inside a burst) separated by
    /// `calm_gap_steps` of silence — the canonical autoscaling stimulus.
    pub fn flash_crowd_mix(requests: usize, seed: u64, bursts: u32, calm_gap_steps: u64) -> Self {
        TraceConfig::azure_mix(requests, seed).with_arrival_process(ArrivalProcess::FlashCrowd {
            bursts,
            burst_interarrival_steps: 1,
            calm_gap_steps,
        })
    }

    /// Generates the trace: `requests` requests in arrival order,
    /// deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoClassWeight`] if all class weights are zero,
    /// [`TraceError::InvalidJitter`] if `length_jitter` is outside
    /// `[0, 1)`, [`TraceError::ZeroDeadline`] if a class SLO has a zero
    /// deadline.
    pub fn generate(&self) -> Result<Vec<Request>, TraceError> {
        if !self.class_weights.iter().any(|&w| w > 0) {
            return Err(TraceError::NoClassWeight);
        }
        if !(0.0..1.0).contains(&self.length_jitter) {
            return Err(TraceError::InvalidJitter(self.length_jitter.to_bits()));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_weight: u32 = self.class_weights.iter().sum();
        let mut step = 0u64;
        let mut out = Vec::with_capacity(self.requests);
        for id in 0..self.requests as u64 {
            if self.mean_interarrival_steps > 0 {
                step += rng.random_range(0..=2 * self.mean_interarrival_steps);
            }
            let mut pick = rng.random_range(0..total_weight);
            let mut class = RequestClass::Short;
            let mut class_idx = 0usize;
            for (i, (c, &w)) in RequestClass::all().iter().zip(&self.class_weights).enumerate() {
                if pick < w {
                    class = *c;
                    class_idx = i;
                    break;
                }
                pick -= w;
            }
            let jitter = |rng: &mut StdRng, base: u64| -> u64 {
                let f = 1.0 + self.length_jitter * (2.0 * rng.random::<f64>() - 1.0);
                ((base as f64 * f) as u64).max(1)
            };
            let prompt = jitter(&mut rng, class.input_tokens() * self.prompt_scale.max(1));
            let output = jitter(&mut rng, class.output_tokens());
            out.push(
                Request::new(id, step, prompt, output, class)?
                    .with_slo(self.class_slos[class_idx])?,
            );
        }
        if self.arrival != ArrivalProcess::Uniform {
            self.apply_arrival_process(&mut out);
        }
        if let Some(shared) = self.shared_prefix {
            self.apply_shared_prefix(&mut out, shared);
        }
        Ok(out)
    }

    /// Rewrites the trace's arrival steps to the configured
    /// non-[`Uniform`](ArrivalProcess::Uniform) process. Uses an RNG
    /// stream independent of [`TraceConfig::generate`]'s (the seed
    /// salted by a fixed constant), so classes, lengths and jitters are
    /// untouched and [`Uniform`](ArrivalProcess::Uniform) traces stay
    /// bit-identical. Steps remain non-decreasing in id order.
    fn apply_arrival_process(&self, out: &mut [Request]) {
        const ARRIVAL_SALT: u64 = 0xa221_7a1f_00d5_ca1e;
        let mut rng = StdRng::seed_from_u64(self.seed ^ ARRIVAL_SALT);
        match self.arrival {
            ArrivalProcess::Uniform => {}
            ArrivalProcess::FlashCrowd { bursts, burst_interarrival_steps, calm_gap_steps } => {
                let per = out.len().div_ceil((bursts.max(1)) as usize).max(1);
                let mut step = 0u64;
                for (i, r) in out.iter_mut().enumerate() {
                    if i > 0 {
                        if i % per == 0 {
                            // A new flash crowd after the calm.
                            step += calm_gap_steps.max(1);
                        } else {
                            step += rng.random_range(0..=2 * burst_interarrival_steps);
                        }
                    }
                    r.arrival_step = step;
                }
            }
            ArrivalProcess::Diurnal {
                period_steps,
                peak_interarrival_steps,
                trough_interarrival_steps,
            } => {
                let period = period_steps.max(1) as f64;
                let peak = peak_interarrival_steps as f64;
                let trough = trough_interarrival_steps as f64;
                let mut step = 0u64;
                for r in out.iter_mut() {
                    r.arrival_step = step;
                    // Cosine rate curve: fastest (peak) at the start of
                    // each period, slowest (trough) half a period in.
                    let phase = (step as f64 % period) / period;
                    let swing = 0.5 - 0.5 * (std::f64::consts::TAU * phase).cos();
                    let mean = peak + (trough - peak) * swing;
                    step += rng.random_range(0..=(2.0 * mean) as u64);
                }
            }
        }
    }

    /// Stamps shared-prefix identities onto a generated trace. Uses an
    /// RNG stream independent of [`TraceConfig::generate`]'s (the seed
    /// salted by a fixed constant), so the base trace — arrivals, classes,
    /// jitters — is untouched and prefix-free configs stay bit-identical.
    fn apply_shared_prefix(&self, out: &mut [Request], shared: SharedPrefixConfig) {
        const PREFIX_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
        const CLASS_KEY_BASE: u64 = 0xc1a5_5000_0000_0000;
        const SESSION_KEY_BASE: u64 = 0x5e55_0000_0000_0000;
        let mut rng = StdRng::seed_from_u64(self.seed ^ PREFIX_SALT);
        // Open sessions per class: (session key, served context so far,
        // turns taken).
        let mut sessions: [Vec<(u64, u64, u32)>; 3] = Default::default();
        for r in out.iter_mut() {
            let ci = RequestClass::all().iter().position(|c| *c == r.class).unwrap_or(0);
            let roll = rng.random::<f64>();
            let follow_up = !sessions[ci].is_empty() && roll < shared.follow_up_fraction;
            if follow_up {
                let si = rng.random_range(0..sessions[ci].len() as u64) as usize;
                let (key, context, turns) = sessions[ci][si];
                let fresh = 1 + rng.random_range(0..2 * shared.follow_up_tokens.max(1));
                // The prompt is the conversation so far plus fresh user
                // tokens; the whole served context is the shared prefix.
                r.prompt_len = context + fresh;
                r.prefix_key = key;
                r.prefix_tokens = context;
                r.publish_key = key;
                if turns + 1 >= shared.max_turns.max(1) {
                    sessions[ci].swap_remove(si);
                } else {
                    sessions[ci][si] = (key, r.prompt_len + r.output_budget, turns + 1);
                }
            } else {
                // A fresh conversation: the prompt opens with the class
                // system prompt (shared with every other session of the
                // class) and the session's own context becomes reusable
                // under its session key.
                let session_key = SESSION_KEY_BASE | r.id;
                r.prompt_len = r.prompt_len.max(shared.system_prompt_tokens + 1);
                r.prefix_key = CLASS_KEY_BASE | ci as u64;
                r.prefix_tokens = shared.system_prompt_tokens.min(r.prompt_len);
                r.publish_key = session_key;
                if shared.max_turns > 1 {
                    sessions[ci].push((session_key, r.prompt_len + r.output_budget, 1));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let r = Request::new(3, 10, 1024, 350, RequestClass::Medium).unwrap();
        assert_eq!(r.context_at(0), 1024);
        assert_eq!(r.context_at(100), 1124);
        assert_eq!(r.total_tokens(), 1374);
        assert!(r.to_string().contains("req#3"));
        assert_eq!(r.slo, Slo::for_class(RequestClass::Medium));
    }

    #[test]
    fn zero_lengths_surface_as_errors() {
        assert_eq!(
            Request::new(0, 0, 16, 0, RequestClass::Short),
            Err(TraceError::ZeroOutputBudget { id: 0 })
        );
        assert_eq!(
            Request::new(7, 0, 0, 16, RequestClass::Short),
            Err(TraceError::ZeroPromptLen { id: 7 })
        );
        let r = Request::new(1, 0, 16, 16, RequestClass::Short).unwrap();
        assert_eq!(
            r.with_slo(Slo { deadline_ms: 0, priority: Priority::High }),
            Err(TraceError::ZeroDeadline { id: 1 })
        );
        assert!(TraceError::NoClassWeight.to_string().contains("class weight"));
    }

    #[test]
    fn malformed_configs_surface_as_errors() {
        let mut c = TraceConfig::azure_mix(10, 1);
        c.class_weights = [0, 0, 0];
        assert_eq!(c.generate(), Err(TraceError::NoClassWeight));
        let mut c = TraceConfig::azure_mix(10, 1);
        c.length_jitter = 1.5;
        assert_eq!(c.generate(), Err(TraceError::InvalidJitter(1.5f64.to_bits())));
        assert!(TraceError::InvalidJitter(1.5f64.to_bits()).to_string().contains("1.5"));
        // NaN and infinite inputs report themselves, not a mangled 0.
        assert!(TraceError::InvalidJitter(f64::NAN.to_bits()).to_string().contains("NaN"));
        let mut c = TraceConfig::azure_mix(10, 1);
        c.length_jitter = f64::INFINITY;
        assert_eq!(c.generate(), Err(TraceError::InvalidJitter(f64::INFINITY.to_bits())));
        let c = TraceConfig::azure_mix(10, 1)
            .with_class_slos([Slo { deadline_ms: 0, priority: Priority::High }; 3]);
        assert_eq!(c.generate(), Err(TraceError::ZeroDeadline { id: 0 }));
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let a = TraceConfig::azure_mix(500, 42).generate().unwrap();
        let b = TraceConfig::azure_mix(500, 42).generate().unwrap();
        assert_eq!(a, b);
        let c = TraceConfig::azure_mix(500, 43).generate().unwrap();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrival_steps_are_monotone_and_spread() {
        let trace = TraceConfig::azure_mix(1000, 7).generate().unwrap();
        assert!(trace.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step));
        let last = trace.last().unwrap().arrival_step;
        // Mean gap 2 over 1000 requests: expect roughly 2000 steps.
        assert!((1000..4000).contains(&last), "spread {last}");
    }

    #[test]
    fn class_mix_roughly_matches_weights() {
        let trace = TraceConfig::azure_mix(3000, 11).generate().unwrap();
        let short = trace.iter().filter(|r| r.class == RequestClass::Short).count();
        let long = trace.iter().filter(|r| r.class == RequestClass::Long).count();
        assert!(short > 1500, "short {short}");
        assert!((100..700).contains(&long), "long {long}");
    }

    #[test]
    fn jitter_stays_within_band() {
        let trace = TraceConfig::azure_mix(2000, 5).generate().unwrap();
        for r in &trace {
            let base = r.class.input_tokens() as f64;
            assert!((r.prompt_len as f64) >= base * 0.74, "{r}");
            assert!((r.prompt_len as f64) <= base * 1.26, "{r}");
        }
    }

    #[test]
    fn long_context_scales_prompts() {
        let trace = TraceConfig::long_context(200, 9, 16).generate().unwrap();
        let mean = trace.iter().map(|r| r.prompt_len).sum::<u64>() as f64 / trace.len() as f64;
        // Base mix mean ≈ 6/10·256 + 3/10·1024 + 1/10·8192 ≈ 1280 ⇒ ×16.
        assert!(mean > 8.0 * 1280.0, "mean {mean}");
        let zero_gap = TraceConfig { mean_interarrival_steps: 0, ..TraceConfig::azure_mix(50, 1) }
            .generate()
            .unwrap();
        assert!(zero_gap.iter().all(|r| r.arrival_step == 0));
    }

    #[test]
    fn shared_prefix_traces_are_seed_deterministic_and_structured() {
        let a = TraceConfig::shared_prefix_mix(400, 21).generate().unwrap();
        let b = TraceConfig::shared_prefix_mix(400, 21).generate().unwrap();
        assert_eq!(a, b, "same seed, same shared-prefix trace");
        assert_ne!(a, TraceConfig::shared_prefix_mix(400, 22).generate().unwrap());
        let shared = SharedPrefixConfig::chat();
        let follow_ups: Vec<&Request> =
            a.iter().filter(|r| r.publish_key == r.prefix_key).collect();
        assert!(
            follow_ups.len() > 100 && follow_ups.len() < 350,
            "~60% of 400 arrivals should continue sessions, got {}",
            follow_ups.len()
        );
        for r in &a {
            // Every request opens with a shared prefix strictly inside
            // its prompt, and publishes its session context.
            assert!(r.prefix_key != 0 && r.publish_key != 0, "{r}");
            assert!(r.prefix_tokens > 0 && r.prefix_tokens < r.prompt_len, "{r}");
            if r.publish_key != r.prefix_key {
                // A session opener shares exactly the class system prompt.
                assert_eq!(r.prefix_tokens, shared.system_prompt_tokens, "{r}");
            }
        }
        for f in &follow_ups {
            // A follow-up's shared prefix is its predecessor's served
            // context: the predecessor publishes under the same key and
            // its prompt+output covers the follow-up's prefix.
            let pred = a
                .iter()
                .filter(|p| p.publish_key == f.prefix_key && p.id < f.id)
                .max_by_key(|p| p.id)
                .expect("follow-up has a predecessor");
            assert!(pred.arrival_step <= f.arrival_step);
            assert_eq!(pred.prompt_len + pred.output_budget, f.prefix_tokens, "{f}");
            assert_eq!(pred.class, f.class, "sessions stay within a class");
        }
    }

    #[test]
    fn shared_prefix_post_pass_preserves_the_base_stream() {
        // The prefix-free fields of a shared-prefix trace that the
        // post-pass does not touch (arrivals, classes, output budgets, and
        // the prompts of never-rewritten requests) match the plain trace
        // bit for bit: the prefix structure draws from an independent RNG.
        let plain = TraceConfig::azure_mix(300, 42).generate().unwrap();
        let shared = TraceConfig::shared_prefix_mix(300, 42).generate().unwrap();
        for (p, s) in plain.iter().zip(shared.iter()) {
            assert_eq!((p.id, p.arrival_step, p.class), (s.id, s.arrival_step, s.class));
            assert_eq!(p.output_budget, s.output_budget);
        }
        // And a config with `shared_prefix: None` is the plain trace.
        let none = TraceConfig { shared_prefix: None, ..TraceConfig::shared_prefix_mix(300, 42) }
            .generate()
            .unwrap();
        assert_eq!(plain, none);
        assert!(plain.iter().all(|r| r.prefix_key == 0 && r.publish_key == 0));
    }

    #[test]
    fn slos_follow_class_and_are_overridable() {
        let trace = TraceConfig::azure_mix(200, 3).generate().unwrap();
        for r in &trace {
            assert_eq!(r.slo, Slo::for_class(r.class), "{r}");
        }
        assert!(Slo::for_class(RequestClass::Short).priority > Priority::Normal);
        assert!(
            Slo::for_class(RequestClass::Short).deadline_s()
                < Slo::for_class(RequestClass::Long).deadline_s()
        );
        let tight = Slo::new(5.0, Priority::High);
        assert_eq!(tight.deadline_ms, 5_000);
        // Rounded, and positive inputs never collapse to the invalid
        // zero-deadline state.
        assert_eq!(Slo::new(0.0015, Priority::High).deadline_ms, 2);
        assert_eq!(Slo::new(0.0004, Priority::High).deadline_ms, 1);
        assert_eq!(Slo::new(0.0, Priority::High).deadline_ms, 0);
        assert_eq!(Slo::new(-3.0, Priority::High).deadline_ms, 0);
        let custom = TraceConfig::azure_mix(50, 3).with_class_slos([tight; 3]).generate().unwrap();
        assert!(custom.iter().all(|r| r.slo == tight));
        // SLO stamping must not perturb the RNG stream: lengths match the
        // default-SLO trace bit for bit.
        for (a, b) in trace.iter().zip(
            TraceConfig::azure_mix(200, 3).with_class_slos([tight; 3]).generate().unwrap().iter(),
        ) {
            assert_eq!(
                (a.prompt_len, a.output_budget, a.arrival_step),
                (b.prompt_len, b.output_budget, b.arrival_step)
            );
        }
    }

    #[test]
    fn uniform_arrival_process_is_bit_identical_to_default() {
        // Explicitly setting Uniform must not touch the RNG stream or
        // the steps — the golden-pinned traces depend on it.
        let base = TraceConfig::azure_mix(128, 42).generate().unwrap();
        let explicit = TraceConfig::azure_mix(128, 42)
            .with_arrival_process(ArrivalProcess::Uniform)
            .generate()
            .unwrap();
        assert_eq!(base, explicit);
    }

    #[test]
    fn flash_crowd_rewrites_only_arrival_steps() {
        let base = TraceConfig::azure_mix(96, 7).generate().unwrap();
        let bursty = TraceConfig::flash_crowd_mix(96, 7, 4, 1000).generate().unwrap();
        assert_eq!(bursty.len(), base.len());
        for (a, b) in base.iter().zip(&bursty) {
            // Classes, lengths and SLOs come from the unsalted stream.
            assert_eq!(
                (a.class, a.prompt_len, a.output_budget),
                (b.class, b.prompt_len, b.output_budget)
            );
        }
        // Deterministic in the seed.
        assert_eq!(bursty, TraceConfig::flash_crowd_mix(96, 7, 4, 1000).generate().unwrap());
        // Sorted, and shaped: exactly 3 inter-burst gaps >= the calm gap,
        // everything else tightly packed.
        assert!(bursty.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step));
        let gaps: Vec<u64> =
            bursty.windows(2).map(|w| w[1].arrival_step - w[0].arrival_step).collect();
        assert_eq!(gaps.iter().filter(|&&g| g >= 1000).count(), 3);
        assert!(gaps.iter().filter(|&&g| g < 1000).all(|&g| g <= 2));
    }

    #[test]
    fn diurnal_rate_swings_between_peak_and_trough() {
        let cfg = TraceConfig::azure_mix(400, 11).with_arrival_process(ArrivalProcess::Diurnal {
            period_steps: 4000,
            peak_interarrival_steps: 1,
            trough_interarrival_steps: 40,
        });
        let trace = cfg.generate().unwrap();
        assert_eq!(trace, cfg.generate().unwrap(), "deterministic in the seed");
        assert!(trace.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step));
        // Arrivals inside the first tenth of a period (peak rate) must be
        // denser than arrivals near the trough half a period in.
        let density = |lo: u64, hi: u64| {
            trace
                .iter()
                .filter(|r| {
                    let ph = r.arrival_step % 4000;
                    ph >= lo && ph < hi
                })
                .count()
        };
        let peak = density(0, 400);
        let trough = density(1800, 2200);
        assert!(
            peak > 3 * trough.max(1),
            "peak window should be much denser: peak={peak} trough={trough}"
        );
    }
}
