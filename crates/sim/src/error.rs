//! Error types for the simulation engine.

use crate::time::SimTime;
use std::error::Error;
use std::fmt;

/// Errors returned by the flow engine and task-graph executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A job was submitted with an empty route.
    EmptyRoute,
    /// A route referenced a resource id not registered with the engine.
    UnknownResource(usize),
    /// A job amount or rate cap was negative, zero (for caps) or non-finite.
    InvalidAmount(f64),
    /// A route hop stands for zero flows on the resource it names.
    ZeroCopies(usize),
    /// `advance_to` was called with a time earlier than the current time.
    TimeReversal {
        /// Current engine time.
        now: SimTime,
        /// The (earlier) requested time.
        requested: SimTime,
    },
    /// Active jobs exist but none can make progress.
    Stalled,
    /// The task graph contains a dependency cycle (tasks listed by index).
    DependencyCycle(Vec<usize>),
    /// A task referenced a dependency index that does not exist.
    UnknownTask(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EmptyRoute => write!(f, "job route is empty"),
            SimError::UnknownResource(i) => write!(f, "unknown resource index {i}"),
            SimError::InvalidAmount(a) => write!(f, "invalid job amount or rate cap {a}"),
            SimError::ZeroCopies(i) => write!(f, "route hop over resource {i} has zero copies"),
            SimError::TimeReversal { now, requested } => {
                write!(f, "cannot advance to {requested} before current time {now}")
            }
            SimError::Stalled => write!(f, "active jobs exist but none can make progress"),
            SimError::DependencyCycle(ids) => {
                write!(f, "task graph has a dependency cycle involving tasks {ids:?}")
            }
            SimError::UnknownTask(i) => write!(f, "unknown task index {i}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(SimError::EmptyRoute.to_string(), "job route is empty");
        assert_eq!(SimError::UnknownResource(4).to_string(), "unknown resource index 4");
        let e =
            SimError::TimeReversal { now: SimTime::from_secs(2), requested: SimTime::from_secs(1) };
        assert!(e.to_string().contains("before current time"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(SimError::Stalled);
    }
}
