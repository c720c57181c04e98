//! Baseline error types.

use hilos_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors from baseline systems.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BaselineError {
    /// The spec has no storage devices but the configuration needs them.
    NoStorage,
    /// Host DRAM cannot hold the working set (the paper's "CPU OOM").
    HostOom {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// The SSD array cannot hold the KV cache.
    StorageCapacity {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// GPU memory cannot hold even a single sequence (multi-node vLLM).
    GpuOom {
        /// Bytes needed per GPU.
        needed: u64,
        /// Bytes available per GPU.
        available: u64,
    },
    /// A job parameter is out of range (e.g. zero simulated layers).
    InvalidJob {
        /// The offending parameter.
        field: &'static str,
    },
    /// A platform build failure.
    Platform(String),
    /// A wrapped simulation error.
    Sim(SimError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::NoStorage => write!(f, "configuration requires storage devices"),
            BaselineError::HostOom { needed, available } => {
                write!(f, "CPU OOM: need {needed} bytes of host DRAM, have {available}")
            }
            BaselineError::StorageCapacity { needed, available } => {
                write!(f, "SSD array too small: need {needed} bytes, have {available}")
            }
            BaselineError::GpuOom { needed, available } => {
                write!(f, "GPU OOM: need {needed} bytes per GPU, have {available}")
            }
            BaselineError::InvalidJob { field } => write!(f, "job size `{field}` must be positive"),
            BaselineError::Platform(e) => write!(f, "platform error: {e}"),
            BaselineError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for BaselineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = BaselineError::HostOom { needed: 10, available: 5 };
        assert!(e.to_string().contains("CPU OOM"));
        assert!(BaselineError::NoStorage.to_string().contains("storage"));
    }
}
