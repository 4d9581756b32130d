//! Typed service errors.
//!
//! Everything that can go wrong at runtime inside the service — socket I/O,
//! JSON parsing, segment read/write, queue admission, worker panics — is
//! funnelled into [`ServiceError`] so it can surface through the line
//! protocol as a structured error response instead of killing a connection
//! thread (or worse, the daemon). Variants that clients are expected to act
//! on (`Overloaded`, `ShuttingDown`) carry machine-readable flags on the
//! wire; see [`crate::protocol::error_response`].

use comet_sim::RunnerError;

/// A typed, protocol-surfaceable service failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A simulation/harness error from the runner (includes
    /// [`RunnerError::WorkerPanic`] after bounded retries are exhausted).
    Runner(RunnerError),
    /// A request, segment line or job payload failed to parse as JSON or
    /// to decode into the type it carries.
    Json(serde_json::Error),
    /// The request parsed as JSON but violated the protocol (missing or
    /// mistyped fields, unknown op/target/scope).
    Protocol(String),
    /// An I/O failure, with the operation it interrupted.
    Io {
        /// What the service was doing (e.g. `"segment append"`).
        context: String,
        /// The underlying error rendered to text (kept as a string so the
        /// variant stays `Clone`/`PartialEq` for tests).
        message: String,
    },
    /// The admission bound rejected the request: `bound` runs already wait
    /// at the daemon's gate. Clients should retry with jittered exponential
    /// backoff.
    Overloaded {
        /// Runs waiting when the request was shed.
        queued: usize,
        /// The configured admission bound.
        bound: usize,
    },
    /// The daemon is shutting down; waiting work is rejected cleanly.
    ShuttingDown,
}

impl ServiceError {
    /// Wraps an `std::io::Error` with the operation it interrupted.
    pub fn io(context: impl Into<String>, error: &std::io::Error) -> Self {
        ServiceError::Io { context: context.into(), message: error.to_string() }
    }

    /// Wraps a runner error for the wire, lifting fleet-drain sentinels to
    /// the typed shutdown rejection: a cell drained because the coordinator
    /// is stopping must reach clients as `"shutting_down":true` (reconnect
    /// elsewhere), not as a simulation failure.
    pub fn from_runner(error: RunnerError) -> Self {
        match error {
            RunnerError::Draining { .. } => ServiceError::ShuttingDown,
            other => ServiceError::Runner(other),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Runner(error) => write!(f, "{error}"),
            ServiceError::Json(error) => write!(f, "{error}"),
            ServiceError::Protocol(message) => write!(f, "{message}"),
            ServiceError::Io { context, message } => write!(f, "{context}: {message}"),
            ServiceError::Overloaded { queued, bound } => {
                write!(f, "overloaded: job queue is full ({queued}/{bound}); retry with backoff")
            }
            ServiceError::ShuttingDown => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<RunnerError> for ServiceError {
    fn from(error: RunnerError) -> Self {
        ServiceError::Runner(error)
    }
}

impl From<serde_json::Error> for ServiceError {
    fn from(error: serde_json::Error) -> Self {
        ServiceError::Json(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let overloaded = ServiceError::Overloaded { queued: 8, bound: 8 };
        assert!(overloaded.to_string().contains("8/8"));
        let panic = ServiceError::Runner(RunnerError::WorkerPanic { label: "cell".to_string(), attempts: 3 });
        assert!(panic.to_string().contains("3 attempts"));
    }
}
