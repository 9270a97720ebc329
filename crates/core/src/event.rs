//! Events flowing through the shared message queue.
//!
//! Paper §III.B: "A shared message queue is used for the simulation
//! processes to send events to the dedicated cores. These events activate
//! the user-provided plugins. The message queue is also used for sending
//! events that inform dedicated cores of the state of the simulation."
//!
//! Events carry interned [`VarId`]/[`EventId`] handles instead of strings:
//! posting one is a plain move of `Copy` metadata plus a [`BlockRef`]
//! handle — no heap allocation, nothing for the dedicated core to
//! re-compare byte by byte.

use damaris_shm::BlockRef;
use damaris_xml::{EventId, VarId};

/// A message from a simulation core to the dedicated core.
#[derive(Debug, Clone)]
pub enum Event {
    /// A variable block was published into shared memory.
    ///
    /// Carries the block's metadata — "blocks are identified by metadata
    /// including a block identifier, the writer's process identifier
    /// (usually its MPI rank), and the associated time step" (§III.B) —
    /// plus the zero-copy handle to the data itself.
    Write {
        /// Interned variable id (resolved from the configuration at the
        /// client edge).
        variable: VarId,
        /// Simulation time step the block belongs to.
        iteration: u64,
        /// Writer's client id (rank within the node).
        source: usize,
        /// The frozen shared-memory block.
        block: BlockRef,
    },
    /// A client finished iteration `iteration`, having successfully
    /// published `writes` blocks for it (0 if the iteration was skipped
    /// under memory pressure).
    EndIteration {
        /// Writer's client id.
        source: usize,
        /// The completed time step.
        iteration: u64,
        /// Blocks this client published for the step.
        writes: u64,
        /// Whether the skip policy dropped this client's data for the step.
        skipped: bool,
    },
    /// A user-defined event (fires [`damaris_xml::schema::Trigger::Event`]
    /// actions).
    Signal {
        /// Interned id of the event name referenced by
        /// `<action event="…">`. Names no action declares are filtered at
        /// the client edge (they could fire nothing).
        event: EventId,
        /// Emitting client id.
        source: usize,
        /// Iteration during which the signal was raised.
        iteration: u64,
    },
    /// The client will send nothing further.
    ClientFinalize {
        /// Finalizing client id.
        source: usize,
    },
    /// The client crashed (posted on its behalf by whoever detected the
    /// death — the process world's heartbeat mesh): it counts as having
    /// ended every staged and every future iteration, so the survivors'
    /// iterations keep completing.
    ClientDied {
        /// Dead client id.
        source: usize,
    },
}

impl Event {
    /// The client that emitted this event.
    pub fn source(&self) -> usize {
        match self {
            Event::Write { source, .. }
            | Event::EndIteration { source, .. }
            | Event::Signal { source, .. }
            | Event::ClientFinalize { source }
            | Event::ClientDied { source } => *source,
        }
    }

    /// Short kind tag for logging/metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Write { .. } => "write",
            Event::EndIteration { .. } => "end-iteration",
            Event::Signal { .. } => "signal",
            Event::ClientFinalize { .. } => "finalize",
            Event::ClientDied { .. } => "died",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_shm::SharedSegment;

    #[test]
    fn accessors() {
        let seg = SharedSegment::new(1024).unwrap();
        let mut b = seg.allocate(8).unwrap();
        b.write_pod(&[1.0f64]);
        let ev = Event::Write {
            variable: VarId::from_raw(0),
            iteration: 3,
            source: 2,
            block: b.freeze(),
        };
        assert_eq!(ev.source(), 2);
        assert_eq!(ev.kind(), "write");
        assert_eq!(Event::ClientFinalize { source: 7 }.source(), 7);
        assert_eq!(
            Event::Signal {
                event: EventId::from_raw(0),
                source: 1,
                iteration: 0
            }
            .kind(),
            "signal"
        );
    }
}
