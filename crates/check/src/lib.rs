//! `damaris_sync` — the workspace's synchronization facade, plus an
//! in-tree loom-style concurrency model checker.
//!
//! Every crate that owns a lock-free protocol imports its atomics,
//! `Mutex`/`Condvar`, fences, and thread handles from here instead of
//! `std::sync::atomic` / `parking_lot` directly:
//!
//! ```ignore
//! use damaris_sync::{AtomicUsize, Ordering, Mutex, Condvar, fence};
//! ```
//!
//! In a normal build the facade is zero-cost: every name re-exports the
//! `std` / `parking_lot` original. Under `--cfg damaris_check` (set by the
//! `cargo check-models` alias or `RUSTFLAGS="--cfg damaris_check"`), the
//! same names resolve to [`model`] runtime types that route every atomic
//! load/store/RMW, lock, and wait through a deterministic scheduler so
//! bounded models of the protocols can be exhaustively explored.
//!
//! The checker itself ([`model`]) is *always* compiled, so the model suite
//! in `tests/models.rs` runs under a plain `cargo test -p damaris-check`
//! with no special flags; `cfg(damaris_check)` only controls which types
//! the facade re-exports at the crate root.
//!
//! See the "Concurrency correctness" section of the top-level README for
//! the workflow and the policy on adding new atomics.

pub mod model;

#[cfg(not(damaris_check))]
mod facade {
    pub use core::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
    pub use parking_lot::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    pub use std::hint;
    pub use std::thread;
}

#[cfg(damaris_check)]
mod facade {
    pub use crate::model::hint;
    pub use crate::model::sync::{
        fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering,
        WaitTimeoutResult,
    };
    pub use crate::model::thread;
}

pub use facade::*;
