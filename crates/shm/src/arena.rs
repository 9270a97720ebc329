//! Size-class queues: the lock-free fast path of the segment allocator.
//!
//! The paper's §IV.B claim is that a simulation-side write is *one memcpy
//! into shared memory*. The structure of HPC output keeps the allocation
//! in front of that memcpy cheap: variables have fixed layouts, so every
//! iteration reallocates the *same* handful of block sizes. Those sizes
//! become **size classes**:
//!
//! * each class owns a bounded lock-free MPMC queue of free offsets
//!   (`OffsetQueue`); a steady-state allocation is one CAS pop, a
//!   steady-state free (from the dedicated core's garbage collection) is
//!   one CAS push — no lock on either side;
//! * any size that is not an exact class match — and any class miss —
//!   goes to the segment's first-fit, coalescing free list, which remains
//!   the ground truth: under memory pressure the class queues are drained
//!   back into it so holes can coalesce before the allocator reports
//!   out-of-memory.

use damaris_sync::{AtomicUsize, Ordering};
use std::cell::UnsafeCell;

use crate::spsc::CachePadded;

/// A bounded lock-free MPMC queue of segment offsets (Vyukov-style array
/// queue: each slot carries a sequence number that encodes whether it is
/// ready to be pushed into or popped from).
///
/// Both ends are multi-access: any client may pop (allocate) while any
/// dedicated core or plugin thread pushes (frees a dropped `BlockRef`).
pub(crate) struct OffsetQueue {
    slots: Box<[QueueSlot]>,
    mask: usize,
    /// Next pop position.
    head: CachePadded<AtomicUsize>,
    /// Next push position.
    tail: CachePadded<AtomicUsize>,
}

struct QueueSlot {
    seq: AtomicUsize,
    value: UnsafeCell<usize>,
}

// SAFETY: a value is written by exactly one pusher (the slot's sequence
// number admits one writer per lap) and read by exactly one popper; the
// Release store on `seq` publishes the value to the Acquire load.
unsafe impl Send for OffsetQueue {}
unsafe impl Sync for OffsetQueue {}

impl OffsetQueue {
    /// Queue holding at least `capacity` offsets (rounded up to a power of
    /// two, minimum 2).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| QueueSlot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        OffsetQueue {
            slots,
            mask: cap - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Push an offset; hands it back if the queue is full.
    ///
    /// Orderings model-checked by `vyukov_pop_vs_pop_claim_arbitration`
    /// and `vyukov_relaxed_seq_publication_is_caught`
    /// (crates/check/tests/models.rs): the per-slot `seq`
    /// Acquire/Release pair carries the value publication, so the
    /// head/tail claim CASes can stay fully Relaxed.
    pub(crate) fn push(&self, value: usize) -> Result<(), usize> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the CAS grants exclusive
                            // write access to this slot for this lap.
                            unsafe { *slot.value.get() = value };
                            slot.seq.store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return Err(value), // full lap behind
                _ => pos = self.tail.load(Ordering::Relaxed),
            }
        }
    }

    /// Pop an offset, if any.
    pub(crate) fn pop(&self) -> Option<usize> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            match seq as isize - (pos + 1) as isize {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the CAS grants exclusive
                            // read access to this slot for this lap.
                            let value = unsafe { *slot.value.get() };
                            slot.seq.store(pos + self.mask + 1, Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // empty
                _ => pos = self.head.load(Ordering::Relaxed),
            }
        }
    }
}

/// Hard cap on cached offsets per class, so parked free blocks cannot
/// strand a meaningful fraction of a large segment.
const MAX_CLASS_QUEUE: usize = 1024;

/// The segment's segregated free lists: one [`OffsetQueue`] per declared
/// block size.
pub(crate) struct SizeClasses {
    /// Class sizes in bytes (alloc-rounded), sorted ascending, unique.
    sizes: Box<[usize]>,
    queues: Box<[OffsetQueue]>,
}

impl SizeClasses {
    /// Build classes for the given byte sizes (already rounded to the
    /// allocation granularity). Zero, oversized and duplicate entries are
    /// dropped; no sizes means a plain first-fit segment.
    pub(crate) fn new(capacity: usize, sizes: &[usize]) -> Self {
        let mut sizes: Vec<usize> = sizes
            .iter()
            .copied()
            .filter(|&s| s > 0 && s <= capacity)
            .collect();
        sizes.sort_unstable();
        sizes.dedup();
        let queues = sizes
            .iter()
            .map(|&s| OffsetQueue::with_capacity((capacity / s).clamp(2, MAX_CLASS_QUEUE)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SizeClasses {
            sizes: sizes.into_boxed_slice(),
            queues,
        }
    }

    /// Number of configured classes.
    pub(crate) fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Index of the class serving exactly `alloc_len`, if any.
    pub(crate) fn index_of(&self, alloc_len: usize) -> Option<usize> {
        self.sizes.binary_search(&alloc_len).ok()
    }

    /// Pop a free offset from class `ci`.
    pub(crate) fn pop(&self, ci: usize) -> Option<usize> {
        self.queues[ci].pop()
    }

    /// Push a free offset into class `ci`; false when the queue is full
    /// (caller must return the range to the coalescing list).
    pub(crate) fn push(&self, ci: usize, offset: usize) -> bool {
        self.queues[ci].push(offset).is_ok()
    }

    /// Drain every parked offset: `(offset, len)` pairs destined for the
    /// coalescing free list. Called under the free-list lock when a
    /// first-fit attempt fails, so fragmented-but-adjacent holes can merge
    /// before the allocator gives up.
    pub(crate) fn drain(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ci, q) in self.queues.iter().enumerate() {
            while let Some(off) = q.pop() {
                out.push((off, self.sizes[ci]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_queue_fifo_and_capacity() {
        let q = OffsetQueue::with_capacity(4);
        for i in 0..4 {
            q.push(i * 64).unwrap();
        }
        assert_eq!(q.push(999), Err(999), "full queue hands the value back");
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i * 64));
        }
        assert_eq!(q.pop(), None);
        // Wrap around a few laps.
        for lap in 0..10 {
            q.push(lap).unwrap();
            assert_eq!(q.pop(), Some(lap));
        }
    }

    #[test]
    // 4 threads × 5k ops: minutes of interpreter time under Miri, and the
    // interleaving coverage comes from the model checker + TSan instead.
    #[cfg_attr(miri, ignore)]
    fn offset_queue_concurrent_no_loss() {
        let q = std::sync::Arc::new(OffsetQueue::with_capacity(64));
        let n = 4;
        let per = 5_000usize;
        let mut handles = Vec::new();
        for t in 0..n {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let mut v = t * per + i + 1;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        let stop = std::sync::Arc::new(damaris_sync::AtomicBool::new(false));
        let mut sums = Vec::new();
        for _ in 0..2 {
            let q = q.clone();
            let stop = stop.clone();
            sums.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                loop {
                    match q.pop() {
                        Some(v) => sum += v as u64,
                        None => {
                            if stop.load(Ordering::Acquire) && q.pop().is_none() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                sum
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let got: u64 = sums.into_iter().map(|h| h.join().unwrap()).sum();
        let total = n * per;
        assert_eq!(got, (total * (total + 1) / 2) as u64);
    }

    #[test]
    fn size_classes_exact_match_only() {
        let classes = SizeClasses::new(1 << 16, &[512, 64, 512, 0, 1 << 20]);
        assert_eq!(classes.len(), 2, "dedup + drop zero/oversized");
        assert_eq!(classes.index_of(64), Some(0));
        assert_eq!(classes.index_of(512), Some(1));
        assert_eq!(classes.index_of(128), None, "no rounding between classes");
        assert!(classes.push(0, 0));
        assert_eq!(classes.pop(0), Some(0));
        assert_eq!(classes.pop(0), None);
    }

    #[test]
    fn size_classes_drain_empties_queues() {
        let classes = SizeClasses::new(1 << 16, &[64, 128]);
        assert!(classes.push(0, 0));
        assert!(classes.push(0, 64));
        assert!(classes.push(1, 1024));
        let mut drained = classes.drain();
        drained.sort_unstable();
        assert_eq!(drained, vec![(0, 64), (64, 64), (1024, 128)]);
        assert!(classes.drain().is_empty());
    }
}
