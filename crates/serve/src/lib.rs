//! Subscriber streaming tier: serve live iterations to many concurrent
//! consumers.
//!
//! The paper's dedicated core stops at files; this crate makes the same
//! core a *publisher*. Every completed iteration's blocks are streamed as
//! length-prefixed frames over TCP to any number of subscribers —
//! dashboards, steering tools, downstream pipelines — with
//! per-subscriber bounded queues (a slow consumer lags and is told so; it
//! never slows the simulation) and snapshot catch-up for late joiners.
//!
//! Three pieces:
//!
//! * [`protocol`] — the frame protocol (HELLO / SUBSCRIBE / DATA /
//!   DATA-REF / ITER-END / LAG / RELEASE / BYE) with hostile-length
//!   validation.
//! * [`StreamServer`] — the fan-out server: one poll thread owns the
//!   nonblocking sockets and blocks in `poll(2)` until one is ready or it
//!   is woken; [`StreamServer::publish`] runs on the dedicated core's
//!   event path, only bumps refcounts into bounded queues, and wakes the
//!   poll thread with one eventfd write.
//! * [`Subscriber`] — the client library.
//!
//! The server is transport-only: it takes [`ServeOptions`] and
//! [`PublishBlock`]s and knows nothing about XML configuration or the
//! `VariableStore` — `damaris_core` wires it in as a `ServePlugin`, which
//! publishes zero-copy [`Payload::Shm`] views in both worlds: out of the
//! thread world's shared segment, or out of the process world's segment
//! file mapping. In the process world the server is bound over that file
//! ([`StreamServer::bind_over`]): a subscriber on the same host, of the
//! same user, reads the blocks from the file (segment mode, see
//! [`protocol`]) and only descriptors and releases cross its socket.
//!
//! ```no_run
//! use damaris_serve::{Subscriber, SubscriberEvent};
//!
//! let mut sub = Subscriber::connect("127.0.0.1:7070")?;
//! sub.subscribe(&["pressure"])?;
//! loop {
//!     match sub.next_event()? {
//!         SubscriberEvent::Data { variable, iteration, bytes, .. } => {
//!             println!("{variable}@{iteration}: {} bytes", bytes.len());
//!         }
//!         SubscriberEvent::Bye => break,
//!         _ => {}
//!     }
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod protocol;

mod client;
mod server;
mod sys;

pub use client::{Subscriber, SubscriberEvent};
pub use protocol::{Message, Payload, PROTOCOL_VERSION};
pub use server::{PublishBlock, ServeOptions, ServeStats, StreamServer};
