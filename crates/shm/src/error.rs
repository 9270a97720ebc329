//! Error types for segment allocation and message-queue operations.

use std::fmt;

/// Failure of a shared-memory segment operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShmError {
    /// Requested allocation exceeds the segment's total capacity and can
    /// never succeed.
    RequestTooLarge {
        /// Bytes requested.
        requested: usize,
        /// Total capacity of the segment.
        capacity: usize,
    },
    /// No contiguous free range is currently available (transient; retry
    /// after blocks are released, or apply the skip policy).
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes currently free (possibly fragmented).
        free: usize,
    },
    /// A blocking allocation timed out.
    Timeout,
    /// Zero-byte allocations are not representable.
    ZeroSize,
    /// Creating/opening/mapping a file-backed segment failed.
    MapFailed(
        /// Underlying I/O error text.
        String,
    ),
    /// A reader-side view ([`crate::SharedSegment::view`]) was asked for a
    /// range that cannot be viewed.
    InvalidView(
        /// The range and what is wrong with it.
        String,
    ),
}

impl fmt::Display for ShmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmError::RequestTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "allocation of {requested} bytes exceeds segment capacity of {capacity} bytes"
            ),
            ShmError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "segment exhausted: {requested} bytes requested, {free} bytes free"
                )
            }
            ShmError::Timeout => write!(f, "blocking allocation timed out"),
            ShmError::ZeroSize => write!(f, "zero-byte allocation"),
            ShmError::MapFailed(e) => write!(f, "shared-memory mapping failed: {e}"),
            ShmError::InvalidView(e) => write!(f, "invalid shared-memory view: {e}"),
        }
    }
}

impl std::error::Error for ShmError {}

/// Error returned by blocking [`crate::EventProducer::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(
    /// The message that could not be delivered (queue closed).
    pub T,
);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "message queue is closed")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`crate::EventProducer::try_send`] and
/// [`crate::EventProducer::send_timeout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// Queue is at capacity; the message is handed back.
    Full(T),
    /// Queue was closed; the message is handed back.
    Closed(T),
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "message queue is full"),
            TrySendError::Closed(_) => write!(f, "message queue is closed"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

/// Error returned by blocking [`crate::EventConsumer::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "message queue is closed and drained")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`crate::EventConsumer::try_recv`] and
/// [`crate::EventConsumer::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue is currently empty.
    Empty,
    /// Queue is closed and fully drained.
    Closed,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "message queue is empty"),
            TryRecvError::Closed => write!(f, "message queue is closed and drained"),
        }
    }
}

impl std::error::Error for TryRecvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shm_error_messages() {
        let e = ShmError::OutOfMemory {
            requested: 100,
            free: 10,
        };
        assert!(e.to_string().contains("100 bytes requested"));
        let e = ShmError::RequestTooLarge {
            requested: 10,
            capacity: 4,
        };
        assert!(e.to_string().contains("exceeds"));
    }

    #[test]
    fn queue_error_messages() {
        assert_eq!(
            TrySendError::Full(7u32).to_string(),
            "message queue is full"
        );
        assert_eq!(
            TryRecvError::Closed.to_string(),
            "message queue is closed and drained"
        );
        assert_eq!(SendError(1u8).to_string(), "message queue is closed");
    }
}
