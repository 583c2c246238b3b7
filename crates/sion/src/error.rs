//! Error handling for the `sion` crate.

use std::fmt;
use std::io;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SionError>;

/// Errors produced by multifile operations.
#[derive(Debug)]
pub enum SionError {
    /// Underlying storage error.
    Io(io::Error),
    /// The file is not a multifile or its metadata is malformed.
    Format(String),
    /// Invalid arguments (zero chunk size, rank out of range, ...).
    InvalidArg(String),
    /// A single piece larger than the chunk capacity was requested via
    /// `ensure_free_space`; use the splitting `write` instead.
    PieceTooLarge {
        /// Requested contiguous piece size.
        requested: u64,
        /// Usable capacity of one chunk.
        capacity: u64,
    },
    /// Inconsistent collective call: tasks disagreed on parameters.
    CollectiveMismatch(String),
    /// Compressed-stream decode failure.
    Compression(szip::SzipError),
    /// Rescue reconstruction failed.
    Rescue(String),
}

impl fmt::Display for SionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SionError::Io(e) => write!(f, "I/O error: {e}"),
            SionError::Format(why) => write!(f, "not a valid multifile: {why}"),
            SionError::InvalidArg(why) => write!(f, "invalid argument: {why}"),
            SionError::PieceTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "piece of {requested} bytes exceeds chunk capacity of {capacity} bytes; \
                 use the chunk-splitting write instead"
            ),
            SionError::CollectiveMismatch(why) => {
                write!(f, "collective parameter mismatch: {why}")
            }
            SionError::Compression(e) => write!(f, "compressed stream error: {e}"),
            SionError::Rescue(why) => write!(f, "rescue reconstruction failed: {why}"),
        }
    }
}

impl std::error::Error for SionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SionError::Io(e) => Some(e),
            SionError::Compression(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SionError {
    fn from(e: io::Error) -> Self {
        SionError::Io(e)
    }
}

impl From<szip::SzipError> for SionError {
    fn from(e: szip::SzipError) -> Self {
        SionError::Compression(e)
    }
}
