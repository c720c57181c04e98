//! Offline-inference workloads: batch specifications and the Azure-derived
//! request classes of the endurance analysis (Fig. 16b).

use std::fmt;

/// A batched offline-inference job: `batch` requests, each with a
/// `context_len`-token prompt, generating `output_len` tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchSpec {
    /// Number of sequences decoded together.
    pub batch: u32,
    /// Prompt (context) length in tokens.
    pub context_len: u64,
    /// Generated output length in tokens.
    pub output_len: u64,
}

impl BatchSpec {
    /// Creates a batch spec.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn new(batch: u32, context_len: u64, output_len: u64) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(context_len > 0, "context length must be positive");
        assert!(output_len > 0, "output length must be positive");
        BatchSpec { batch, context_len, output_len }
    }

    /// Context length at decoding step `step` (0-based): prompt plus the
    /// tokens generated so far.
    pub fn context_at_step(&self, step: u64) -> u64 {
        self.context_len + step
    }

    /// Total tokens generated by the whole batch.
    pub fn total_generated_tokens(&self) -> u64 {
        self.batch as u64 * self.output_len
    }
}

impl fmt::Display for BatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bs={} s={} out={}", self.batch, self.context_len, self.output_len)
    }
}

/// Request classes from the Azure LLM inference statistics the paper uses
/// for the endurance study (Fig. 16b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Short: 256 input / 100 output.
    Short,
    /// Medium: 1K input / 350 output.
    Medium,
    /// Long: 8K input / 350 output.
    Long,
}

impl RequestClass {
    /// Input (prompt) tokens.
    pub fn input_tokens(self) -> u64 {
        match self {
            RequestClass::Short => 256,
            RequestClass::Medium => 1024,
            RequestClass::Long => 8192,
        }
    }

    /// Output (generated) tokens.
    pub fn output_tokens(self) -> u64 {
        match self {
            RequestClass::Short => 100,
            RequestClass::Medium | RequestClass::Long => 350,
        }
    }

    /// All classes in paper order.
    pub fn all() -> [RequestClass; 3] {
        [RequestClass::Short, RequestClass::Medium, RequestClass::Long]
    }

    /// Short human label (`"Short"` / `"Medium"` / `"Long"`), used by the
    /// per-class serving breakdowns.
    pub fn label(self) -> &'static str {
        match self {
            RequestClass::Short => "Short",
            RequestClass::Medium => "Medium",
            RequestClass::Long => "Long",
        }
    }

    /// Total tokens whose KV entries a request materializes.
    pub fn total_tokens(self) -> u64 {
        self.input_tokens() + self.output_tokens()
    }
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestClass::Short => write!(f, "Short(I:256/O:100)"),
            RequestClass::Medium => write!(f, "Medium(I:1K/O:350)"),
            RequestClass::Long => write!(f, "Long(I:8K/O:350)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_spec_accessors() {
        let b = BatchSpec::new(16, 32 * 1024, 64);
        assert_eq!(b.batch, 16);
        assert_eq!(b.output_len, 64);
        assert_eq!(b.context_at_step(0), 32 * 1024);
        assert_eq!(b.context_at_step(63), 32 * 1024 + 63);
        assert_eq!(b.total_generated_tokens(), 1024);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let _ = BatchSpec::new(0, 1024, 64);
    }

    #[test]
    fn request_classes_match_fig16b() {
        assert_eq!(RequestClass::Short.input_tokens(), 256);
        assert_eq!(RequestClass::Short.output_tokens(), 100);
        assert_eq!(RequestClass::Medium.input_tokens(), 1024);
        assert_eq!(RequestClass::Long.input_tokens(), 8192);
        assert_eq!(RequestClass::Long.output_tokens(), 350);
        assert_eq!(RequestClass::all().len(), 3);
        assert_eq!(RequestClass::Long.total_tokens(), 8542);
    }

    #[test]
    fn display_strings() {
        assert_eq!(RequestClass::Short.to_string(), "Short(I:256/O:100)");
        assert_eq!(BatchSpec::new(4, 100, 10).to_string(), "bs=4 s=100 out=10");
    }
}
