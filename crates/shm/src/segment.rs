//! Fixed-capacity shared segment with one allocator: lock-free
//! size-class free queues over a first-fit, coalescing list.
//!
//! The allocator is the mechanism behind two numbers in the paper:
//!
//! * the simulation-side cost of a "write" is one copy into this segment,
//!   streamed past the cache for blocks ≥ [`STREAM_MIN`](crate::STREAM_MIN)
//!   (§IV.B: "the time to write from the point of view of the simulation is
//!   cut down to the time required to write in shared-memory, which is in
//!   the order of 0.1 seconds"), and
//! * when analysis plugins cannot keep up, the segment fills and the
//!   iteration-skip policy engages (§V.C.1) — driven by
//!   [`SharedSegment::occupancy`].
//!
//! ## The allocator
//!
//! HPC output is highly regular: every variable has a fixed layout, so
//! every iteration reallocates the same block sizes. A segment built with
//! [`SharedSegment::with_classes`] owns one lock-free queue of free
//! offsets per declared size (see [`crate::arena`]); steady-state
//! allocate and free are each a single CAS. Undeclared sizes (per-write
//! dynamic layouts) and class misses go to the mutex-guarded first-fit
//! free list, which the class queues drain back into under pressure so
//! adjacent holes can coalesce before the allocator reports
//! out-of-memory.
//!
//! ## Safety model
//!
//! The backing store is a heap allocation accessed through raw pointers.
//! Soundness rests on two invariants, both enforced by construction:
//!
//! 1. **Disjointness** — the allocator never hands out overlapping ranges
//!    (each range is owned by exactly one of: the free list, one class
//!    queue slot, or one live [`Block`]/frozen ref), so each live
//!    [`Block`] has exclusive access to its byte range.
//! 2. **Write-xor-read** — a [`Block`] (unique, `&mut`-only access) must be
//!    [`Block::freeze`]-d into an immutable [`BlockRef`] before it can be
//!    shared; `BlockRef` only ever yields `&[u8]`. The happens-before edge
//!    between the writing thread and readers is provided by whatever channel
//!    transfers the `BlockRef` (the event transport in the middleware),
//!    exactly as with any `Send` value.

use std::mem::ManuallyDrop;
use std::sync::Arc;
use std::time::Duration;

use damaris_sync::{fence, AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

use crate::arena::SizeClasses;
use crate::error::ShmError;

/// Allocation granularity and guaranteed block alignment, in bytes.
///
/// One cache line: avoids false sharing between adjacent blocks written by
/// different cores, lets the one copy into a block, streamed past the
/// cache for blocks ≥ [`STREAM_MIN`](crate::STREAM_MIN), write whole lines
/// from the block's first byte, and is large enough for any primitive
/// element type. Both kinds of storage start on a `BLOCK_ALIGN` boundary.
pub const BLOCK_ALIGN: usize = 64;

/// Failsafe re-check interval for blocked allocations. Wakeups are driven
/// by an eventcount handshake (`release_gen` + `waiters`, see
/// [`SegmentInner::signal_release`]): every release bumps a generation
/// counter and notifies the condvar whenever waiters are registered, so a
/// blocked allocation wakes within microseconds of a cross-thread free.
/// This long-interval poll only guards against bugs in that handshake —
/// it should never be what wakes a waiter.
const BLOCKED_ALLOC_FAILSAFE: Duration = Duration::from_millis(250);

/// Marker for plain-old-data element types that can be memcpy'd in and out
/// of a segment.
///
/// # Safety
///
/// Implementors must be `Copy` types with no padding bytes and no invalid
/// bit patterns (all primitive numeric types qualify).
pub unsafe trait Pod: Copy + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => { $(
        // SAFETY: primitive numeric types are Copy, have no padding
        // bytes, and every bit pattern is a valid value.
        unsafe impl Pod for $t {}
    )* };
}
impl_pod!(i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

/// Counters describing a segment's lifetime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentStats {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes currently allocated (including alignment padding).
    pub used: usize,
    /// High-watermark of `used` over the segment's lifetime.
    pub peak: usize,
    /// Number of successful allocations.
    pub allocations: u64,
    /// Number of allocation failures (out of memory at request time).
    pub failures: u64,
    /// Number of blocks returned to the allocator.
    pub frees: u64,
    /// Allocations served without touching the free-list mutex (size-class
    /// queue hits).
    pub class_hits: u64,
}

pub(crate) struct FreeList {
    /// Free ranges `(offset, len)`, sorted by offset, non-adjacent
    /// (adjacent ranges are coalesced on insert).
    holes: Vec<(usize, usize)>,
}

impl FreeList {
    fn new(capacity: usize) -> Self {
        FreeList {
            holes: vec![(0, capacity)],
        }
    }

    /// First-fit allocation. `len` must already be align-rounded.
    fn allocate(&mut self, len: usize) -> Option<usize> {
        let idx = self.holes.iter().position(|&(_, hlen)| hlen >= len)?;
        let (off, hlen) = self.holes[idx];
        if hlen == len {
            self.holes.remove(idx);
        } else {
            self.holes[idx] = (off + len, hlen - len);
        }
        Some(off)
    }

    /// Return a range, merging with adjacent holes.
    fn free(&mut self, offset: usize, len: usize) {
        let idx = self.holes.partition_point(|&(o, _)| o < offset);
        // Coalesce with predecessor?
        let merged_prev = idx > 0 && {
            let (po, pl) = self.holes[idx - 1];
            debug_assert!(po + pl <= offset, "double free or overlap at {offset}");
            po + pl == offset
        };
        // Coalesce with successor?
        let merged_next = idx < self.holes.len() && {
            let (no, _) = self.holes[idx];
            debug_assert!(offset + len <= no, "double free or overlap at {offset}");
            offset + len == no
        };
        match (merged_prev, merged_next) {
            (true, true) => {
                let (no, nl) = self.holes.remove(idx);
                let _ = no;
                self.holes[idx - 1].1 += len + nl;
            }
            (true, false) => self.holes[idx - 1].1 += len,
            (false, true) => {
                self.holes[idx].0 = offset;
                self.holes[idx].1 += len;
            }
            (false, false) => self.holes.insert(idx, (offset, len)),
        }
    }

    fn total_free(&self) -> usize {
        self.holes.iter().map(|&(_, l)| l).sum()
    }

    fn largest_hole(&self) -> usize {
        self.holes.iter().map(|&(_, l)| l).max().unwrap_or(0)
    }
}

/// Backing storage whose base is `BLOCK_ALIGN`-aligned, so every block
/// starts on its own cache line, suitably aligned for any [`Pod`] type.
enum Storage {
    /// Process-private heap allocation (thread worlds): the first
    /// `BLOCK_ALIGN` boundary is `lead` bytes into `words`.
    Heap { words: Box<[u128]>, lead: usize },
    /// A slice of a shared file mapping (process worlds): the same bytes
    /// are visible in every process that maps the file. `base_offset` is
    /// `BLOCK_ALIGN`-aligned, and `mmap` returns page-aligned pointers,
    /// so the alignment guarantee carries over.
    Mapped {
        shm: Arc<crate::ShmFile>,
        base_offset: usize,
    },
}

impl Storage {
    fn heap(capacity_bytes: usize) -> Self {
        // `vec![0; n]` is `calloc`, which leaves a large segment's pages
        // untouched until a block is written. The system allocator zeroes
        // a 64-byte aligned request by hand, page by page, so instead
        // over-allocate by the 48 bytes that can lie between the 16-byte
        // aligned base and the next line.
        let spare = (BLOCK_ALIGN - 16) / 16;
        let words = vec![0u128; capacity_bytes.div_ceil(16) + spare].into_boxed_slice();
        let lead = words.as_ptr().addr().wrapping_neg() % BLOCK_ALIGN;
        Storage::Heap { words, lead }
    }

    fn base(&self) -> *mut u8 {
        match self {
            // SAFETY: the base is 16-byte aligned, so `lead` is at most the
            // 48 spare bytes allocated past the capacity.
            Storage::Heap { words, lead } => unsafe {
                words.as_ptr().cast::<u8>().add(*lead) as *mut u8
            },
            // SAFETY: `base_offset` was bounds-checked at construction.
            Storage::Mapped { shm, base_offset } => unsafe { shm.base().add(*base_offset) },
        }
    }
}

struct SegmentInner {
    storage: Storage,
    capacity: usize,
    state: Mutex<FreeList>,
    classes: SizeClasses,
    /// One reference count per `BLOCK_ALIGN` slot; the slot at a frozen
    /// block's starting offset counts its live [`BlockRef`] clones, so
    /// freezing and cloning never touch the heap.
    refcounts: Box<[AtomicU32]>,
    space_freed: Condvar,
    /// Blocked allocations currently waiting; releases notify the condvar
    /// only while any are present (see [`SegmentInner::signal_release`]).
    waiters: AtomicUsize,
    /// Eventcount generation: bumped by every release. A blocked
    /// allocation reads it before re-checking the free lists and sleeps only
    /// if it is unchanged after registering as a waiter, so a lock-free
    /// class-queue release between check and sleep can never be missed.
    release_gen: AtomicU64,
    used: AtomicUsize,
    peak: AtomicUsize,
    allocations: AtomicU64,
    failures: AtomicU64,
    frees: AtomicU64,
    class_hits: AtomicU64,
    /// Set on a reader-side segment ([`SharedSegment::reader`]): the
    /// ranges belong to allocators in other processes, so releasing one
    /// reports its offset here instead of touching this process's (empty)
    /// free lists.
    on_release: Option<ReleaseHook>,
}

/// Called with a view's offset when its last [`BlockRef`] clone drops, on
/// whichever thread dropped it.
type ReleaseHook = Box<dyn Fn(usize) + Send + Sync>;

// SAFETY: all mutation of `storage` goes through `Block`s whose ranges the
// allocator guarantees to be disjoint; `BlockRef` reads are only possible
// after the unique `Block` has been consumed by `freeze` (or, on a reader
// segment, after the writing process froze it and sent its descriptor —
// the contract of `SharedSegment::view`). The release hook is `Send + Sync`
// by its bound.
unsafe impl Send for SegmentInner {}
unsafe impl Sync for SegmentInner {}

impl SegmentInner {
    /// Return a range to the allocator: class queue when possible (no
    /// lock), else the coalescing free list. Either way the eventcount is
    /// bumped so blocked allocations wake immediately — a waiter needing
    /// a larger contiguous range re-runs `alloc_locked`, which drains the
    /// class queues back into the coalescing list.
    fn release(&self, offset: usize, len: usize) {
        self.used.fetch_sub(len, Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &self.on_release {
            hook(offset);
            return;
        }
        let queued = self
            .classes
            .index_of(len)
            .is_some_and(|ci| self.classes.push(ci, offset));
        if !queued {
            self.state.lock().free(offset, len);
        }
        self.signal_release();
    }

    /// Eventcount publish side: bump the generation, then wake any
    /// registered waiters. Acquiring (and immediately dropping) the
    /// free-list mutex before notifying serializes with a waiter that has
    /// registered but not yet slept — it holds the lock from its
    /// generation read until `Condvar::wait` releases it, so the notify
    /// cannot fire in that window and be lost.
    ///
    /// Both SeqCst sites are load-bearing: the gen bump / waiters load
    /// here and the waiter's gen re-read form a Dekker-style store/load
    /// pattern over two locations, which Release/Acquire cannot order.
    /// Model-checked by `eventcount_no_lost_wakeup`; downgrading the
    /// waiter's re-read is caught as a deadlock by
    /// `seeded_relaxed_gen_bug_is_caught` (crates/check/tests/models.rs).
    fn signal_release(&self) {
        self.release_gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.state.lock());
            self.space_freed.notify_all();
        }
    }

    /// Under the lock: first-fit from the free list. On a miss, drain the
    /// class queues back into the list (coalescing adjacent holes) and
    /// retry; only then is the request genuinely unsatisfiable.
    fn alloc_locked(&self, fl: &mut FreeList, alloc_len: usize) -> Option<usize> {
        if let Some(offset) = fl.allocate(alloc_len) {
            return Some(offset);
        }
        let parked = self.classes.drain();
        if parked.is_empty() {
            return None;
        }
        for (off, len) in parked {
            fl.free(off, len);
        }
        fl.allocate(alloc_len)
    }
}

/// A fixed-capacity shared-memory segment.
///
/// Cloning the handle is cheap (`Arc`); all clones refer to the same
/// underlying region, as all cores of an SMP node map the same POSIX
/// segment in the original middleware.
#[derive(Clone)]
pub struct SharedSegment {
    inner: Arc<SegmentInner>,
}

impl std::fmt::Debug for SharedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSegment")
            .field("capacity", &self.capacity())
            .field("used", &self.used_bytes())
            .field("classes", &self.inner.classes.len())
            .finish()
    }
}

impl SharedSegment {
    /// Create a segment with the given capacity in bytes (rounded up to
    /// [`BLOCK_ALIGN`]) and no size classes: every allocation uses the
    /// first-fit list.
    pub fn new(capacity: usize) -> Result<Self, ShmError> {
        Self::build(capacity, &[], None, None)
    }

    /// Create a segment with lock-free size classes for the given block
    /// sizes (each rounded up to [`BLOCK_ALIGN`]; zero, oversized and
    /// duplicate sizes are ignored).
    ///
    /// The middleware seeds the classes from the configuration's variable
    /// layouts, so every steady-state `write` allocation is an exact class
    /// hit.
    pub fn with_classes(capacity: usize, class_sizes: &[usize]) -> Result<Self, ShmError> {
        Self::build(capacity, class_sizes, None, None)
    }

    /// Lay a segment over `capacity` bytes of a shared file mapping,
    /// starting at `base_offset` (both `BLOCK_ALIGN`-aligned multiples).
    ///
    /// The allocator state (free lists, class queues, refcounts) is
    /// process-local: this is the *writer's* view, carving blocks out of
    /// its own region of the file. Readers in other processes locate
    /// blocks by file offset (`base_offset + Block::offset()`) through
    /// their own [`crate::ShmFile`] mapping — the cross-process protocol
    /// (who may read when, and when a range is recycled) lives one layer
    /// up, in the event transport.
    pub fn over_mapping(
        shm: &Arc<crate::ShmFile>,
        base_offset: usize,
        capacity: usize,
        class_sizes: &[usize],
    ) -> Result<Self, ShmError> {
        let storage = Self::mapped_storage(shm, base_offset, capacity)?;
        Self::build(capacity, class_sizes, Some(storage), None)
    }

    /// The *reader's* side of a mapping other processes allocate from: a
    /// segment over the whole of `shm` that owns no range and allocates
    /// nothing. [`SharedSegment::view`] mints a [`BlockRef`] over a range a
    /// writer announced; when the last clone of that view drops —
    /// wherever, on whichever thread — `on_release` is called with the
    /// view's offset, so the layer above can tell the writing process its
    /// range is free again. [`SharedSegment::used_bytes`] counts the bytes
    /// currently viewed.
    pub fn reader(
        shm: &Arc<crate::ShmFile>,
        on_release: impl Fn(usize) + Send + Sync + 'static,
    ) -> Result<Self, ShmError> {
        let capacity = shm.len() / BLOCK_ALIGN * BLOCK_ALIGN;
        let storage = Self::mapped_storage(shm, 0, capacity)?;
        Self::build(capacity, &[], Some(storage), Some(Box::new(on_release)))
    }

    /// A read-only, reference-counted view of `len` bytes at file offset
    /// `offset` of a [`SharedSegment::reader`] segment — the same
    /// [`BlockRef`] a frozen block of this process's own segment is.
    ///
    /// Fails with [`ShmError::InvalidView`] when the segment is not a
    /// reader, the range is empty, not [`BLOCK_ALIGN`]-aligned or outside
    /// the mapping, or a view starting at `offset` is still alive.
    ///
    /// # Safety
    ///
    /// The bytes belong to another process. The caller guarantees that no
    /// process writes the range from this call until the release hook has
    /// run for `offset`: the writer froze the block before it announced
    /// the range, and recycles it only once told of the release.
    pub unsafe fn view(&self, offset: usize, len: usize) -> Result<BlockRef, ShmError> {
        let invalid = |why: &str| {
            Err(ShmError::InvalidView(format!(
                "{len} bytes at offset {offset}: {why}"
            )))
        };
        if self.inner.on_release.is_none() {
            return invalid("not a reader segment");
        }
        if len == 0 || !offset.is_multiple_of(BLOCK_ALIGN) {
            return invalid("empty or unaligned range");
        }
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.inner.capacity)
        {
            return invalid("range outside the mapping");
        }
        // Acquire pairs with the Release decrement of the previous view of
        // this slot, as a fresh allocation would through the free lists.
        if self.inner.refcounts[offset / BLOCK_ALIGN]
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return invalid("a view of this range is still alive");
        }
        let alloc_len = len.div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN;
        self.note_alloc(alloc_len);
        Ok(BlockRef {
            seg: self.inner.clone(),
            offset,
            len,
            alloc_len,
        })
    }

    fn mapped_storage(
        shm: &Arc<crate::ShmFile>,
        base_offset: usize,
        capacity: usize,
    ) -> Result<Storage, ShmError> {
        if !base_offset.is_multiple_of(BLOCK_ALIGN) || !capacity.is_multiple_of(BLOCK_ALIGN) {
            return Err(ShmError::MapFailed(format!(
                "segment region ({base_offset}, {capacity}) not {BLOCK_ALIGN}-byte aligned"
            )));
        }
        if base_offset
            .checked_add(capacity)
            .is_none_or(|end| end > shm.len())
        {
            return Err(ShmError::MapFailed(format!(
                "segment region ({base_offset}, {capacity}) outside the {}-byte mapping",
                shm.len()
            )));
        }
        Ok(Storage::Mapped {
            shm: shm.clone(),
            base_offset,
        })
    }

    fn build(
        capacity: usize,
        class_sizes: &[usize],
        storage: Option<Storage>,
        on_release: Option<ReleaseHook>,
    ) -> Result<Self, ShmError> {
        if capacity == 0 {
            return Err(ShmError::ZeroSize);
        }
        let capacity = round_up(capacity, BLOCK_ALIGN).ok_or(ShmError::RequestTooLarge {
            requested: capacity,
            capacity: usize::MAX - (BLOCK_ALIGN - 1),
        })?;
        // Sizes that round to zero or past the capacity are dropped by
        // `SizeClasses::new`.
        let rounded: Vec<usize> = class_sizes
            .iter()
            .filter_map(|&s| round_up(s, BLOCK_ALIGN))
            .collect();
        let classes = SizeClasses::new(capacity, &rounded);
        let refcounts = (0..capacity / BLOCK_ALIGN)
            .map(|_| AtomicU32::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ok(SharedSegment {
            inner: Arc::new(SegmentInner {
                storage: storage.unwrap_or_else(|| Storage::heap(capacity)),
                capacity,
                // A reader owns none of the mapping: nothing to allocate.
                state: Mutex::new(FreeList::new(if on_release.is_some() {
                    0
                } else {
                    capacity
                })),
                classes,
                refcounts,
                space_freed: Condvar::new(),
                waiters: AtomicUsize::new(0),
                release_gen: AtomicU64::new(0),
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                allocations: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                class_hits: AtomicU64::new(0),
                on_release,
            }),
        })
    }

    fn check_len(&self, len: usize) -> Result<usize, ShmError> {
        if len == 0 {
            return Err(ShmError::ZeroSize);
        }
        let alloc_len = round_up(len, BLOCK_ALIGN).ok_or(ShmError::RequestTooLarge {
            requested: len,
            capacity: self.inner.capacity,
        })?;
        if alloc_len > self.inner.capacity {
            return Err(ShmError::RequestTooLarge {
                requested: len,
                capacity: self.inner.capacity,
            });
        }
        Ok(alloc_len)
    }

    /// The lock-free fast path: pop a free offset from the size class
    /// serving exactly `alloc_len`, if there is one and it holds any.
    fn pop_class(&self, len: usize, alloc_len: usize) -> Option<Block> {
        let ci = self.inner.classes.index_of(alloc_len)?;
        let offset = self.inner.classes.pop(ci)?;
        self.note_alloc(alloc_len);
        self.inner.class_hits.fetch_add(1, Ordering::Relaxed);
        Some(self.block(offset, len, alloc_len))
    }

    /// Allocate `len` bytes without blocking.
    ///
    /// Fails with [`ShmError::OutOfMemory`] when no free range fits the
    /// (align-rounded) request even after coalescing; this is the signal
    /// the iteration-skip policy listens for.
    pub fn allocate(&self, len: usize) -> Result<Block, ShmError> {
        let alloc_len = self.check_len(len)?;
        if let Some(block) = self.pop_class(len, alloc_len) {
            return Ok(block);
        }
        let mut fl = self.inner.state.lock();
        match self.inner.alloc_locked(&mut fl, alloc_len) {
            Some(offset) => {
                drop(fl);
                self.note_alloc(alloc_len);
                Ok(self.block(offset, len, alloc_len))
            }
            None => {
                let free = fl.total_free();
                drop(fl);
                self.inner.failures.fetch_add(1, Ordering::Relaxed);
                Err(ShmError::OutOfMemory {
                    requested: len,
                    free,
                })
            }
        }
    }

    /// Allocate, blocking until space frees up or `timeout` expires
    /// (`None` = wait forever).
    pub fn allocate_blocking(
        &self,
        len: usize,
        timeout: Option<Duration>,
    ) -> Result<Block, ShmError> {
        let alloc_len = self.check_len(len)?;
        // Blocking mode must not serialize class hits on the free-list
        // mutex either.
        if let Some(block) = self.pop_class(len, alloc_len) {
            return Ok(block);
        }
        // A timeout so large it overflows the clock means: wait forever.
        let deadline = timeout.and_then(|t| std::time::Instant::now().checked_add(t));
        let mut fl = self.inner.state.lock();
        loop {
            // Eventcount wait side: read the generation *before*
            // re-checking the free lists. If a release lands after the
            // checks, the generation no longer matches below and the sleep
            // is skipped entirely.
            let gen = self.inner.release_gen.load(Ordering::SeqCst);
            if let Some(block) = self.pop_class(len, alloc_len) {
                return Ok(block);
            }
            if let Some(offset) = self.inner.alloc_locked(&mut fl, alloc_len) {
                drop(fl);
                self.note_alloc(alloc_len);
                return Ok(self.block(offset, len, alloc_len));
            }
            let wait_until = std::time::Instant::now() + BLOCKED_ALLOC_FAILSAFE;
            let wake_at = match deadline {
                Some(d) if d < wait_until => d,
                _ => wait_until,
            };
            self.inner.waiters.fetch_add(1, Ordering::SeqCst);
            // Releases since the generation read are handled by retrying
            // immediately; otherwise the registered waiter count makes
            // the next `signal_release` take the lock and notify, which
            // cannot race ahead of the `wait` below (we still hold `fl`).
            // SeqCst on the register and re-read is required (Dekker with
            // `signal_release`): `eventcount_no_lost_wakeup` proves the
            // protocol, and `seeded_relaxed_gen_bug_is_caught` shows this
            // exact load at Relaxed sleeping through a lost wakeup
            // (crates/check/tests/models.rs).
            let timed_out = if self.inner.release_gen.load(Ordering::SeqCst) == gen {
                self.inner
                    .space_freed
                    .wait_until(&mut fl, wake_at)
                    .timed_out()
            } else {
                false
            };
            self.inner.waiters.fetch_sub(1, Ordering::SeqCst);
            if timed_out {
                if let Some(d) = deadline {
                    if std::time::Instant::now() >= d {
                        return Err(ShmError::Timeout);
                    }
                }
            }
        }
    }

    fn block(&self, offset: usize, len: usize, alloc_len: usize) -> Block {
        Block {
            seg: self.inner.clone(),
            offset,
            len,
            alloc_len,
        }
    }

    fn note_alloc(&self, alloc_len: usize) {
        let used = self.inner.used.fetch_add(alloc_len, Ordering::Relaxed) + alloc_len;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        self.inner.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently allocated (alignment-rounded).
    pub fn used_bytes(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Fraction of the segment currently allocated, in `[0, 1]` — one
    /// atomic load.
    pub fn occupancy(&self) -> f64 {
        self.used_bytes() as f64 / self.inner.capacity as f64
    }

    /// Largest single allocation currently possible (contiguity-aware).
    ///
    /// Drains the size-class queues into the coalescing list first, so the
    /// answer reflects every free byte; intended for diagnostics and
    /// tests, not hot paths.
    pub fn largest_free_block(&self) -> usize {
        let mut fl = self.inner.state.lock();
        for (off, len) in self.inner.classes.drain() {
            fl.free(off, len);
        }
        fl.largest_hole()
    }

    /// Snapshot of lifetime counters.
    pub fn stats(&self) -> SegmentStats {
        SegmentStats {
            capacity: self.inner.capacity,
            used: self.inner.used.load(Ordering::Relaxed),
            peak: self.inner.peak.load(Ordering::Relaxed),
            allocations: self.inner.allocations.load(Ordering::Relaxed),
            failures: self.inner.failures.load(Ordering::Relaxed),
            frees: self.inner.frees.load(Ordering::Relaxed),
            class_hits: self.inner.class_hits.load(Ordering::Relaxed),
        }
    }
}

/// A uniquely-owned, writable allocation inside a [`SharedSegment`].
///
/// Dropping a `Block` without freezing it returns the space immediately
/// (used when a client aborts mid-write).
pub struct Block {
    seg: Arc<SegmentInner>,
    offset: usize,
    len: usize,
    alloc_len: usize,
}

impl Block {
    /// Requested length in bytes (what `freeze` exposes to readers).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block has zero requested length (never true in practice;
    /// zero-size allocations are rejected).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset of this block inside the segment (useful for debugging
    /// and for the allocator property tests).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Exclusive access to the block's bytes.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: the allocator guarantees [offset, offset+alloc_len) is not
        // shared with any other live Block/BlockRef, and `&mut self` makes
        // this the only access path right now.
        unsafe {
            std::slice::from_raw_parts_mut(self.seg.storage.base().add(self.offset), self.len)
        }
    }

    /// Copy `src` into the beginning of the block. A copy of at least
    /// [`STREAM_MIN`](crate::STREAM_MIN) bytes bypasses the cache and ends
    /// with a store fence, so [`Block::freeze`] publishes it like any
    /// other write.
    ///
    /// Panics if `src` is longer than the block — that is a logic error in
    /// the caller (layout mismatch), not a runtime condition.
    pub fn write_bytes(&mut self, src: &[u8]) {
        assert!(
            src.len() <= self.len,
            "write of {} bytes into a {}-byte block",
            src.len(),
            self.len
        );
        crate::copy::copy_into(&mut self.as_mut_slice()[..src.len()], src);
    }

    /// Copy a typed slice into the block (the one copy of the Damaris
    /// write path, streamed past the cache for blocks ≥
    /// [`STREAM_MIN`](crate::STREAM_MIN)).
    pub fn write_pod<T: Pod>(&mut self, src: &[T]) {
        // SAFETY: Pod types have no padding and no invalid bit patterns.
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr() as *const u8, std::mem::size_of_val(src))
        };
        self.write_bytes(bytes);
    }

    /// Consume the writable block, producing a shareable read-only handle.
    ///
    /// Allocation-free: the reference count lives in the segment's slot
    /// table, not in a fresh heap cell, so the steady-state write path
    /// never touches the global allocator.
    pub fn freeze(self) -> BlockRef {
        let this = ManuallyDrop::new(self);
        this.seg.refcounts[this.offset / BLOCK_ALIGN].store(1, Ordering::Release);
        BlockRef {
            // SAFETY: `this` is ManuallyDrop, so the Arc is moved out
            // exactly once and the Block's Drop (which would release the
            // range) never runs.
            seg: unsafe { std::ptr::read(&this.seg) },
            offset: this.offset,
            len: this.len,
            alloc_len: this.alloc_len,
        }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        self.seg.release(self.offset, self.alloc_len);
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Block")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// An immutable, reference-counted view of a frozen block.
///
/// Clones share the same bytes; the space returns to the allocator when the
/// last clone is dropped. This is what flows through the event transport to
/// the dedicated core and on to plugins — no copies anywhere. The count
/// lives in the segment's per-slot table, so cloning and dropping are plain
/// atomic ops with no heap traffic.
pub struct BlockRef {
    seg: Arc<SegmentInner>,
    offset: usize,
    len: usize,
    alloc_len: usize,
}

impl Clone for BlockRef {
    fn clone(&self) -> Self {
        let old = self.seg.refcounts[self.offset / BLOCK_ALIGN].fetch_add(1, Ordering::Relaxed);
        debug_assert!(old > 0, "cloning a dead BlockRef");
        BlockRef {
            seg: self.seg.clone(),
            offset: self.offset,
            len: self.len,
            alloc_len: self.alloc_len,
        }
    }
}

impl Drop for BlockRef {
    fn drop(&mut self) {
        if self.seg.refcounts[self.offset / BLOCK_ALIGN].fetch_sub(1, Ordering::Release) == 1 {
            // Pair with the Release decrements of other clones before the
            // range is handed back for reuse.
            fence(Ordering::Acquire);
            self.seg.release(self.offset, self.alloc_len);
        }
    }
}

impl BlockRef {
    /// The block's bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: frozen blocks are never written again; the range stays
        // allocated while any BlockRef clone is alive (for a reader-side
        // view, by the contract of `SharedSegment::view`).
        unsafe { std::slice::from_raw_parts(self.seg.storage.base().add(self.offset), self.len) }
    }

    /// Reinterpret the bytes as a typed slice.
    ///
    /// Panics if the length is not a multiple of `size_of::<T>()` —
    /// a layout/type mismatch between writer and reader.
    pub fn as_pod<T: Pod>(&self) -> &[T] {
        let size = std::mem::size_of::<T>();
        assert_eq!(
            self.len % size,
            0,
            "block of {} bytes is not a whole number of {}-byte elements",
            self.len,
            size
        );
        debug_assert_eq!(self.offset % BLOCK_ALIGN, 0);
        // SAFETY: base is BLOCK_ALIGN-aligned, offsets are BLOCK_ALIGN-multiples,
        // so the pointer is aligned for any Pod; Pod types accept any bits.
        unsafe {
            std::slice::from_raw_parts(
                self.seg.storage.base().add(self.offset) as *const T,
                self.len / size,
            )
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte offset inside the segment.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The shared file the bytes lie in and their offset in that file, for
    /// a segment laid over a [`crate::ShmFile`]; `None` for a heap segment,
    /// whose offsets mean nothing to another process.
    pub fn backing_file(&self) -> Option<(&Arc<crate::ShmFile>, usize)> {
        match &self.seg.storage {
            Storage::Heap { .. } => None,
            Storage::Mapped { shm, base_offset } => Some((shm, base_offset + self.offset)),
        }
    }
}

impl std::fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRef")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// Round `n` up to a multiple of `align`; `None` on overflow (satellite
/// fix: a near-`usize::MAX` request must surface as `RequestTooLarge`,
/// not overflow the arithmetic).
fn round_up(n: usize, align: usize) -> Option<usize> {
    n.checked_add(align - 1).map(|v| v / align * align)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_freeze_read() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut b = seg.allocate(32).unwrap();
        b.write_pod(&[1.5f64, 2.5, 3.5, 4.5]);
        let r = b.freeze();
        assert_eq!(r.as_pod::<f64>(), &[1.5, 2.5, 3.5, 4.5]);
        assert_eq!(r.len(), 32);
    }

    #[test]
    fn drop_returns_space() {
        let seg = SharedSegment::new(4096).unwrap();
        let b = seg.allocate(100).unwrap();
        assert_eq!(seg.used_bytes(), 128); // rounded to BLOCK_ALIGN
        drop(b);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), 4096);
    }

    #[test]
    fn frozen_clones_share_until_last_drop() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut b = seg.allocate(64).unwrap();
        b.write_bytes(&[7u8; 64]);
        let r1 = b.freeze();
        let r2 = r1.clone();
        drop(r1);
        assert_eq!(seg.used_bytes(), 64, "still referenced by r2");
        assert_eq!(r2.as_slice()[63], 7);
        drop(r2);
        assert_eq!(seg.used_bytes(), 0);
    }

    #[test]
    fn zero_and_oversize_rejected() {
        let seg = SharedSegment::new(1024).unwrap();
        match seg.allocate(0) {
            Err(ShmError::ZeroSize) => {}
            other => panic!("unexpected: {other:?}"),
        }
        match seg.allocate(4096) {
            Err(ShmError::RequestTooLarge {
                requested,
                capacity,
            }) => {
                assert_eq!(requested, 4096);
                assert_eq!(capacity, 1024);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn near_max_request_is_rejected_not_overflowed() {
        // Satellite fix: `round_up(usize::MAX - k)` used to overflow in
        // debug builds; it must report RequestTooLarge instead.
        let seg = SharedSegment::new(1024).unwrap();
        for req in [usize::MAX, usize::MAX - 1, usize::MAX - BLOCK_ALIGN + 1] {
            match seg.allocate(req) {
                Err(ShmError::RequestTooLarge { requested, .. }) => assert_eq!(requested, req),
                other => panic!("unexpected: {other:?}"),
            }
            match seg.allocate_blocking(req, Some(Duration::from_millis(1))) {
                Err(ShmError::RequestTooLarge { .. }) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
        // A capacity that cannot be rounded is equally rejected.
        assert!(SharedSegment::new(usize::MAX - 2).is_err());
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let seg = SharedSegment::new(256).unwrap();
        let _a = seg.allocate(128).unwrap();
        let _b = seg.allocate(128).unwrap();
        match seg.allocate(64) {
            Err(ShmError::OutOfMemory { free, .. }) => assert_eq!(free, 0),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(seg.stats().failures, 1);
    }

    #[test]
    fn fragmentation_and_coalescing() {
        let seg = SharedSegment::new(64 * 4).unwrap();
        let a = seg.allocate(64).unwrap();
        let b = seg.allocate(64).unwrap();
        let c = seg.allocate(64).unwrap();
        let d = seg.allocate(64).unwrap();
        // Free b and d: two separate 64-byte holes.
        drop(b);
        drop(d);
        assert_eq!(seg.largest_free_block(), 64);
        assert!(seg.allocate(128).is_err(), "fragmented: no contiguous 128");
        // Free c: holes b+c+d coalesce into 192.
        drop(c);
        assert_eq!(seg.largest_free_block(), 192);
        let big = seg.allocate(128).unwrap();
        drop(big);
        drop(a);
        assert_eq!(seg.largest_free_block(), 256);
    }

    #[test]
    fn class_hit_reuses_offset_without_lock_contention() {
        let seg = SharedSegment::with_classes(4096, &[512]).unwrap();
        let b = seg.allocate(512).unwrap();
        let first_offset = b.offset();
        drop(b); // returns to the class queue, not the free list
        let b2 = seg.allocate(512).unwrap();
        assert_eq!(b2.offset(), first_offset, "class queue recycled the slot");
        assert_eq!(seg.stats().class_hits, 1, "second allocation was a hit");
        drop(b2);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), 4096, "drain coalesces fully");
    }

    #[test]
    fn class_miss_falls_back_and_flushes_under_pressure() {
        // Two 512-byte blocks fill the segment; both return to the class
        // queue. A 1024-byte request has no class and the free list is
        // empty — the allocator must drain the class queues, coalesce,
        // and satisfy it.
        let seg = SharedSegment::with_classes(1024, &[512]).unwrap();
        let a = seg.allocate(512).unwrap();
        let b = seg.allocate(512).unwrap();
        drop(a);
        drop(b);
        let big = seg.allocate(1024).expect("coalesced after class drain");
        drop(big);
    }

    #[test]
    fn classed_segment_odd_sizes_use_free_list() {
        let seg = SharedSegment::with_classes(4096, &[512]).unwrap();
        let odd = seg.allocate(100).unwrap(); // no 128-byte class
        assert_eq!(seg.stats().class_hits, 0);
        drop(odd);
        assert_eq!(seg.used_bytes(), 0);
    }

    #[test]
    fn blocking_allocation_wakes_on_free() {
        let seg = SharedSegment::new(256).unwrap();
        let hog = seg.allocate(256).unwrap();
        let seg2 = seg.clone();
        let waiter = std::thread::spawn(move || {
            seg2.allocate_blocking(64, Some(Duration::from_secs(5)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(hog);
        let block = waiter.join().unwrap();
        assert_eq!(block.len(), 64);
    }

    #[test]
    fn blocking_allocation_wakes_on_class_release() {
        // The hog's release goes to the lock-free class queue; the blocked
        // waiter (of the same class size) must still obtain it.
        let seg = SharedSegment::with_classes(256, &[256]).unwrap();
        let hog = seg.allocate(256).unwrap();
        let seg2 = seg.clone();
        let waiter = std::thread::spawn(move || {
            seg2.allocate_blocking(256, Some(Duration::from_secs(5)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(hog);
        let block = waiter.join().unwrap();
        assert_eq!(block.len(), 256);
    }

    #[test]
    fn blocked_allocation_wakes_sub_millisecond() {
        // The eventcount handshake must wake a blocked allocation on the
        // release itself, not on the failsafe poll (the old 20 ms
        // BLOCKED_ALLOC_POLL tail). The release under test is the
        // lock-free class-queue push — the path that used to rely on the
        // poll. Scheduling noise on a loaded CI box can stretch any one
        // wakeup, so the bound is on the best of several trials.
        let mut best = Duration::from_secs(1);
        for _ in 0..5 {
            let seg = SharedSegment::with_classes(256, &[256]).unwrap();
            let hog = seg.allocate(256).unwrap();
            let seg2 = seg.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            let waiter = std::thread::spawn(move || {
                tx.send(()).unwrap();
                seg2.allocate_blocking(256, Some(Duration::from_secs(5)))
                    .map(|b| (b.len(), std::time::Instant::now()))
            });
            rx.recv().unwrap();
            // Give the waiter time to actually park on the condvar.
            std::thread::sleep(Duration::from_millis(20));
            let released_at = std::time::Instant::now();
            drop(hog);
            let (len, woke_at) = waiter.join().unwrap().expect("waiter must get the block");
            assert_eq!(len, 256);
            best = best.min(woke_at.duration_since(released_at));
        }
        assert!(
            best < Duration::from_millis(1),
            "best-of-5 wakeup latency {best:?} is not sub-millisecond"
        );
    }

    #[test]
    fn blocking_allocation_times_out() {
        let seg = SharedSegment::new(256).unwrap();
        let _hog = seg.allocate(256).unwrap();
        let err = seg
            .allocate_blocking(64, Some(Duration::from_millis(20)))
            .unwrap_err();
        assert_eq!(err, ShmError::Timeout);
    }

    #[test]
    fn occupancy_and_peak_track() {
        let seg = SharedSegment::new(1000).unwrap(); // rounds to 1024
        assert_eq!(seg.capacity(), 1024);
        let a = seg.allocate(512).unwrap();
        assert!((seg.occupancy() - 0.5).abs() < 1e-9);
        drop(a);
        assert_eq!(seg.occupancy(), 0.0);
        assert_eq!(seg.stats().peak, 512);
        assert_eq!(seg.stats().allocations, 1);
        assert_eq!(seg.stats().frees, 1);
    }

    #[test]
    fn write_bytes_shorter_than_block_ok() {
        let seg = SharedSegment::new(256).unwrap();
        let mut b = seg.allocate(64).unwrap();
        b.write_bytes(&[1, 2, 3]);
        let r = b.freeze();
        assert_eq!(&r.as_slice()[..3], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "write of 128 bytes into a 64-byte block")]
    fn write_overflow_panics() {
        let seg = SharedSegment::new(256).unwrap();
        let mut b = seg.allocate(64).unwrap();
        b.write_bytes(&[0u8; 128]);
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn as_pod_misaligned_length_panics() {
        let seg = SharedSegment::new(256).unwrap();
        let b = seg.allocate(12).unwrap();
        let r = b.freeze();
        let _ = r.as_pod::<f64>(); // 12 % 8 != 0
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let seg = SharedSegment::new(1 << 16).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let size = 64 + (i % 7) * 64;
                    let mut b = match seg.allocate_blocking(size, Some(Duration::from_secs(10))) {
                        Ok(b) => b,
                        Err(e) => panic!("thread {t}: {e}"),
                    };
                    b.as_mut_slice().fill(t);
                    let r = b.freeze();
                    assert!(r.as_slice().iter().all(|&x| x == t), "corruption detected");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn concurrent_classed_alloc_free_stress() {
        // Same stress, but with every other size a class (the AMR shape:
        // declared layouts beside per-write sizes): alloc/free races go
        // through the lock-free queues and the list at once.
        let sizes: Vec<usize> = (1..8).step_by(2).map(|k| k * 64).collect();
        let seg = SharedSegment::with_classes(1 << 16, &sizes).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let size = 64 + (i % 7) * 64;
                    let mut b = seg
                        .allocate_blocking(size, Some(Duration::from_secs(10)))
                        .unwrap();
                    b.as_mut_slice().fill(t);
                    let r = b.freeze();
                    assert!(r.as_slice().iter().all(|&x| x == t), "corruption detected");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
        assert!(seg.stats().class_hits > 0, "classes actually served hits");
    }

    #[test]
    fn segment_over_mapping_shares_bytes() {
        // A classed segment laid over a slice of a shared file mapping:
        // blocks written through the segment must be readable — at
        // base_offset + block offset — through an independent mapping of
        // the same file, exactly as a second process would see them.
        let path = crate::ShmFile::default_dir()
            .join(format!("damaris-seg-map-test-{}", std::process::id()));
        let shm = Arc::new(crate::ShmFile::create(&path, 8192).unwrap());
        let base = 4096;
        let seg = SharedSegment::over_mapping(&shm, base, 4096, &[512]).unwrap();
        let mut b = seg.allocate(512).unwrap();
        b.write_pod(&[7.5f64; 64]);
        let file_offset = base + b.offset();
        let r = b.freeze();
        let other = crate::ShmFile::open(&path).unwrap();
        assert_eq!(other.read_at(file_offset, 512), r.as_slice());
        other.with_bytes(file_offset, 512, |bytes| {
            assert!(bytes.chunks_exact(8).all(|c| c == 7.5f64.to_le_bytes()));
        });
        drop(r);
        assert_eq!(seg.used_bytes(), 0);
        // Misaligned or out-of-range regions are rejected.
        assert!(SharedSegment::over_mapping(&shm, 8, 4096, &[]).is_err());
        assert!(SharedSegment::over_mapping(&shm, 4096, 8192, &[]).is_err());
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn reader_views_report_their_release_and_reject_bad_ranges() {
        // A writer's segment over the second half of the file, a reader
        // over all of it (here through its own mapping, as the dedicated
        // core's process has): the view reads the writer's bytes in
        // place, and the hook runs once, when the last clone drops, on
        // the thread that dropped it.
        let path = crate::ShmFile::default_dir()
            .join(format!("damaris-seg-reader-test-{}", std::process::id()));
        let shm = Arc::new(crate::ShmFile::create(&path, 8192).unwrap());
        let base = 4096;
        let writer = SharedSegment::over_mapping(&shm, base, 4096, &[512]).unwrap();
        let mut b = writer.allocate(512).unwrap();
        b.write_pod(&[2.5f64; 64]);
        let file_offset = base + b.offset();
        let _frozen = b.freeze();

        let released = Arc::new(Mutex::new(Vec::new()));
        let r2 = released.clone();
        let other = Arc::new(crate::ShmFile::open(&path).unwrap());
        let reader = SharedSegment::reader(&other, move |off| r2.lock().push(off)).unwrap();
        // SAFETY: `_frozen` keeps the range allocated and unwritten for
        // the whole life of the view.
        let view = unsafe { reader.view(file_offset, 512) }.unwrap();
        assert_eq!(view.as_pod::<f64>(), &[2.5f64; 64]);
        assert_eq!(reader.used_bytes(), 512);
        // SAFETY: as above; the call fails before any view is made.
        let twice = unsafe { reader.view(file_offset, 512) };
        assert!(
            matches!(twice, Err(ShmError::InvalidView(_))),
            "a live view's range cannot be viewed again"
        );
        let clone = view.clone();
        drop(view);
        assert!(released.lock().is_empty(), "a clone is still alive");
        std::thread::spawn(move || drop(clone)).join().unwrap();
        assert_eq!(*released.lock(), vec![file_offset]);
        assert_eq!(reader.used_bytes(), 0);
        // Released, so the same range can be viewed again.
        // SAFETY: as above.
        drop(unsafe { reader.view(file_offset, 512) }.unwrap());
        assert_eq!(released.lock().len(), 2);

        for (offset, len) in [(8, 64), (0, 0), (8192, 64), (8128, 65), (64, usize::MAX)] {
            // SAFETY: every range is rejected, no view is made.
            let bad = unsafe { reader.view(offset, len) };
            assert!(
                matches!(bad, Err(ShmError::InvalidView(_))),
                "({offset}, {len}) must be rejected"
            );
        }
        // SAFETY: rejected as well — a writer's segment mints no views.
        assert!(unsafe { writer.view(0, 64) }.is_err());
        assert!(
            matches!(reader.allocate(64), Err(ShmError::OutOfMemory { .. })),
            "a reader owns no range to allocate from"
        );
    }

    #[test]
    // Real mmap/libc syscalls: outside Miri's interpreter.
    #[cfg_attr(miri, ignore)]
    fn every_block_starts_on_a_cache_line() {
        let path = crate::ShmFile::default_dir()
            .join(format!("damaris-seg-align-test-{}", std::process::id()));
        let shm = Arc::new(crate::ShmFile::create(&path, 1 << 20).unwrap());
        let mut segments = vec![SharedSegment::over_mapping(&shm, 4096, 1 << 19, &[]).unwrap()];
        // Small heap segments come from the heap arena, large ones from
        // their own mapping: both must start on a line.
        for capacity in [8192, 1 << 20, 32 << 20, 96 << 20] {
            segments.push(SharedSegment::with_classes(capacity, &[100]).unwrap());
        }
        for seg in &segments {
            let mut blocks: Vec<Block> = [100, 1, 64, 100, 4096, 65]
                .into_iter()
                .map(|len| seg.allocate(len).unwrap())
                .collect();
            for b in &mut blocks {
                let at = b.as_mut_slice().as_ptr().addr();
                assert_eq!(at % BLOCK_ALIGN, 0, "block at {at:#x} of {seg:?}");
            }
            let frozen = blocks.pop().unwrap().freeze();
            assert_eq!(frozen.as_slice().as_ptr().addr() % BLOCK_ALIGN, 0);
        }
    }

    #[test]
    fn streamed_blocks_reach_another_thread_intact() {
        use crate::transport::{EventChannel, EventConsumer, EventProducer, ShardedChannel};
        // Above the stream threshold, with an 8-byte tail past the last
        // 64-byte step; four ranges, so every range is recycled ~250 times.
        const BLOCKS: u64 = 1000;
        let len = crate::STREAM_MIN + 72;
        let words = (len / 8) as u64;
        let seg = SharedSegment::with_classes(4 * len, &[len]).unwrap();
        let ch: ShardedChannel<(u64, BlockRef)> = ShardedChannel::new(1, 2);
        let mut consumer = ch.consumer(0, 1);
        let reader = std::thread::spawn(move || {
            let mut seen = 0;
            while let Ok((n, block)) = consumer.recv() {
                let bad = block
                    .as_pod::<u64>()
                    .iter()
                    .zip(n * words..)
                    .position(|(&got, want)| got != want);
                assert_eq!(bad, None, "block {n}: first wrong word");
                seen += 1;
            }
            seen
        });
        let producer = ch.producer(0);
        let mut src = vec![0u64; words as usize];
        for n in 0..BLOCKS {
            for (w, v) in src.iter_mut().zip(n * words..) {
                *w = v;
            }
            let mut b = seg
                .allocate_blocking(len, Some(Duration::from_secs(10)))
                .unwrap();
            b.write_pod(&src);
            producer.send((n, b.freeze())).unwrap();
        }
        ch.close();
        assert_eq!(reader.join().unwrap(), BLOCKS);
        assert_eq!(seg.used_bytes(), 0);
        assert!(seg.stats().class_hits >= BLOCKS - 4, "ranges were recycled");
    }

    #[test]
    fn typed_roundtrip_various_types() {
        let seg = SharedSegment::new(4096).unwrap();
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[1u32, 2, 3, 4]);
        let r = b.freeze();
        assert_eq!(r.as_pod::<u32>(), &[1, 2, 3, 4]);

        let mut b = seg.allocate(8).unwrap();
        b.write_pod(&[-5i16, 6, -7, 8]);
        let r = b.freeze();
        assert_eq!(r.as_pod::<i16>(), &[-5, 6, -7, 8]);
    }
}
