//! # damaris-shm
//!
//! The node-local **shared-memory substrate** of the Damaris approach
//! (Dorier, IPDPS 2013 PhD Forum, §III.A):
//!
//! > "Central to the Damaris approach is the use of shared memory to
//! > communicate data from the cores running the simulation to the cores
//! > running the data management service. […] We attempt with Damaris to
//! > have a finer control on the memory usage and to avoid unnecessary
//! > copies."
//!
//! Two pieces implement that design:
//!
//! * [`SharedSegment`] — a fixed-capacity memory region with one
//!   allocator: an exact size-class pop (one CAS on a lock-free queue
//!   seeded from the declared variable layouts, see
//!   [`SharedSegment::with_classes`]) and, on a miss or an undeclared
//!   size, a mutex-guarded first-fit, coalescing list. Compute cores
//!   [`SharedSegment::allocate`] a [`Block`], write their variable into
//!   it (one copy, streamed past the cache for blocks ≥ [`STREAM_MIN`] —
//!   *the only copy in the whole pipeline*), then
//!   [`Block::freeze`] it into an immutable,
//!   reference-counted [`BlockRef`] that the dedicated core (and any number
//!   of analysis plugins) can read in place. Dropping the last `BlockRef`
//!   returns the space to the allocator. Freeze, clone and drop keep the
//!   reference count in a per-slot table inside the segment, so the whole
//!   steady-state write path performs zero heap allocations.
//! * [`ShardedChannel`] — the shared event queue through which
//!   simulation cores notify the dedicated core ("a shared message queue
//!   is used for the simulation processes to send events to the dedicated
//!   cores"): one lock-free ring per client, drained by one consumer that
//!   sleeps until a post wakes it (see [`transport`]).
//!
//! In the original middleware the segment is a POSIX shared-memory object
//! shared by the processes of one SMP node. Here a *node* is one OS process
//! and its cores are threads, so the segment is process memory shared
//! between threads — the semantics the paper relies on (single copy, no
//! serialization, allocator-level backpressure) are identical.
//!
//! ## Example
//!
//! ```
//! use damaris_shm::{EventChannel, EventConsumer, EventProducer, ShardedChannel, SharedSegment};
//!
//! let seg = SharedSegment::new(1 << 20).unwrap();
//! // One client, 16 queued events.
//! let channel = ShardedChannel::<(String, damaris_shm::BlockRef)>::new(1, 16);
//! let client = channel.producer(0);
//! let mut dedicated = channel.consumer(0, 1);
//!
//! // Simulation core: allocate, fill, freeze, notify.
//! let mut block = seg.allocate(8 * 4).unwrap();
//! block.write_pod(&[1.0f64, 2.0, 3.0, 4.0]);
//! client.send(("temperature".to_string(), block.freeze())).unwrap();
//!
//! // Dedicated core: receive and read in place, zero copies.
//! let (name, data) = dedicated.recv().unwrap();
//! assert_eq!(name, "temperature");
//! assert_eq!(data.as_pod::<f64>()[1], 2.0);
//! drop(data); // space returns to the allocator
//! assert_eq!(seg.used_bytes(), 0);
//! ```

// Every operation inside an `unsafe fn` must state its own `unsafe {}`
// block (with its SAFETY comment — enforced by scripts/unsafe_audit.py).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
mod copy;
pub mod error;
pub mod mapping;
pub mod segment;
pub mod spsc;
pub mod transport;

pub use copy::STREAM_MIN;
pub use error::{RecvError, SendError, ShmError, TryRecvError, TrySendError};
pub use mapping::ShmFile;
pub use segment::{Block, BlockRef, Pod, SegmentStats, SharedSegment};
pub use spsc::SpscRing;
pub use transport::{
    EventChannel, EventConsumer, EventProducer, ShardConsumer, ShardProducer, ShardedChannel,
};
