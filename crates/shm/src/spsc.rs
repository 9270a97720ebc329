//! A bounded, lock-free single-producer/single-consumer ring buffer — one
//! per client in the sharded event transport.
//!
//! Paper §IV.B claims a client "write" costs one memcpy plus one event
//! post, *independent of scale*. A shared mutex queue breaks that claim:
//! every post serializes all clients on one lock. This ring restores it —
//! a post is one slot write plus one release store, never contending with
//! other clients.
//!
//! The ring itself only guarantees safety under one pusher and one popper
//! *at a time*; [`crate::transport::ShardedChannel`] serializes cloned
//! client handles with a tiny per-ring push guard, and admits one live
//! consumer per channel.

use damaris_sync::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;

/// Pads/aligns a value to a cache line so head and tail counters (and the
/// hot counters of neighbouring shards) never share a line — the classic
/// false-sharing fix.
#[repr(align(128))]
#[derive(Default)]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Bounded SPSC ring. Capacity is rounded up to a power of two.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will pop. Only the consumer advances it.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will fill. Only the producer advances it.
    tail: CachePadded<AtomicUsize>,
}

// Safety: T moves across the ring exactly once (written by the producer,
// read by the consumer); the Release/Acquire pair on `tail`/`head`
// publishes the slot contents.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Create a ring holding at least `capacity` items (rounded up to a
    /// power of two; minimum 2). Panics on zero capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            buf,
            mask: cap - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Usable capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Number of occupied slots (racy snapshot; exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Whether the ring currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push `value`, failing (and handing it back) when the ring is full.
    ///
    /// # Safety contract
    /// Must not be called concurrently with another `try_push` on the same
    /// ring (single producer). The caller enforces this.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        // Orderings model-checked by `spsc_no_loss_no_duplication`
        // (crates/check/tests/models.rs): tail is ours (Relaxed); the
        // Acquire on head pairs with the consumer's Release so a reused
        // slot is observed empty before we overwrite it.
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.buf.len() {
            return Err(value);
        }
        // SAFETY: the not-full check above plus the single-producer
        // contract give exclusive access to this slot, and the consumer's
        // head Release (acquired above) ordered its last read of the slot
        // before this write.
        unsafe {
            (*self.buf[tail & self.mask].get()).write(value);
        }
        // Release publishes the slot write; downgrading it to Relaxed is
        // caught by `spsc_relaxed_tail_publication_is_caught`.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Pop the oldest item, if any.
    ///
    /// # Safety contract
    /// Must not be called concurrently with another `try_pop` on the same
    /// ring (single consumer *at a time*; the sharded channel admits one
    /// live consumer, and its Acquire/Release hand-off between successive
    /// consumers orders one's pops before the next one's).
    pub fn try_pop(&self) -> Option<T> {
        // Mirror image of `try_push`, same model test: the Acquire on
        // tail pairs with the producer's Release to make the slot write
        // visible; the Release on head re-publishes the emptied slot.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: head != tail means the producer initialized this slot,
        // and its tail Release (acquired above) published the write; the
        // single-consumer contract makes this the only read of it.
        let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drop any items still in flight.
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn capacity_rounds_up() {
        let r = SpscRing::<u8>::with_capacity(5);
        assert_eq!(r.capacity(), 8);
        assert_eq!(SpscRing::<u8>::with_capacity(1).capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SpscRing::<u8>::with_capacity(0);
    }

    #[test]
    fn push_pop_fifo() {
        let r = SpscRing::with_capacity(4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(9), Err(9), "full ring rejects");
        assert_eq!(r.len(), 4);
        for i in 0..4 {
            assert_eq!(r.try_pop(), Some(i));
        }
        assert_eq!(r.try_pop(), None);
    }

    #[test]
    fn wraparound_many_times() {
        let r = SpscRing::with_capacity(2);
        for i in 0..1000 {
            r.try_push(i).unwrap();
            assert_eq!(r.try_pop(), Some(i));
        }
        assert!(r.is_empty());
    }

    #[test]
    // 100k spins of real threading: minutes of interpreter time under
    // Miri; the model checker covers the interleavings instead.
    #[cfg_attr(miri, ignore)]
    fn concurrent_producer_consumer_no_loss() {
        const N: usize = 100_000;
        let r = Arc::new(SpscRing::with_capacity(64));
        let p = {
            let r = r.clone();
            thread::spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                damaris_sync::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let mut seen = Vec::with_capacity(N);
        while seen.len() < N {
            if let Some(v) = r.try_pop() {
                seen.push(v);
            } else {
                damaris_sync::hint::spin_loop();
            }
        }
        p.join().unwrap();
        let expected: Vec<usize> = (0..N).collect();
        assert_eq!(seen, expected, "strict FIFO, no loss, no duplication");
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let r = SpscRing::with_capacity(8);
        let tracker = Arc::new(());
        for _ in 0..5 {
            r.try_push(tracker.clone()).unwrap();
        }
        drop(r);
        assert_eq!(Arc::strong_count(&tracker), 1, "queued clones dropped");
    }
}
