//! Fixed-capacity shared segment with a two-tier allocator: lock-free
//! size-class free lists over a first-fit, coalescing fallback list.
//!
//! The allocator is the mechanism behind two numbers in the paper:
//!
//! * the simulation-side cost of a "write" is one memcpy into this segment
//!   (§IV.B: "the time to write from the point of view of the simulation is
//!   cut down to the time required to write in shared-memory, which is in
//!   the order of 0.1 seconds"), and
//! * when analysis plugins cannot keep up, the segment fills and the
//!   iteration-skip policy engages (§V.C.1) — driven by
//!   [`SharedSegment::occupancy`].
//!
//! ## Allocator tiers
//!
//! HPC output is highly regular: every variable has a fixed layout, so
//! every iteration reallocates the same block sizes. A segment built with
//! [`SharedSegment::with_classes`] owns one lock-free queue of free
//! offsets per declared size (see [`crate::arena`]); steady-state
//! allocate and free are each a single CAS, and a per-client
//! [`crate::SlabCache`] removes even that shared CAS from the repeat
//! path. Odd sizes — and class misses — fall back to the mutex-guarded
//! first-fit free list, which the class queues drain back into under
//! pressure so adjacent holes can coalesce before the allocator reports
//! out-of-memory.
//!
//! ## Safety model
//!
//! The backing store is a heap allocation accessed through raw pointers.
//! Soundness rests on two invariants, both enforced by construction:
//!
//! 1. **Disjointness** — the allocator never hands out overlapping ranges
//!    (each range is owned by exactly one tier at any time: the free list,
//!    one class queue slot, one slab-cache slot, or one live [`Block`]/
//!    frozen ref), so each live [`Block`] has exclusive access to its
//!    byte range.
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

use crate::arena::{BuddyTier, CacheSlots, SizeClasses};
use crate::error::ShmError;

/// Allocation granularity and guaranteed block alignment, in bytes.
///
/// One cache line: avoids false sharing between adjacent blocks written by
/// different cores, and is large enough for any primitive element type.
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
    /// Bytes currently allocated (including alignment padding and offsets
    /// reserved in slab caches).
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
    /// queue or slab-cache hits).
    pub class_hits: u64,
    /// Variable-size allocations served by the buddy tier without the
    /// free-list mutex (order-queue or per-order magazine hits).
    pub buddy_hits: u64,
    /// Variable-size allocations served as a three-quarter fit: the
    /// parent order's top quarter trimmed straight back to the free
    /// pool, capping internal fragmentation near 33 %.
    pub buddy_tq_hits: u64,
    /// Buddy blocks split out of a larger free block (one count per
    /// halving step).
    pub buddy_splits: u64,
    /// Buddy pairs merged back into their parent block on free.
    pub buddy_merges: u64,
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

    /// First-fit allocation of `len` bytes starting at a multiple of
    /// `align` (a power of two) — how the buddy tier carves fresh chunks:
    /// buddy math (`offset ^ size`) is only sound for size-aligned
    /// blocks. Splits the chosen hole into up to three pieces (pre-pad,
    /// block, post-pad).
    fn allocate_aligned(&mut self, len: usize, align: usize) -> Option<usize> {
        let fits = |&(off, hlen): &(usize, usize)| {
            let aligned = (off + align - 1) & !(align - 1);
            aligned
                .checked_add(len)
                .is_some_and(|end| end <= off + hlen)
        };
        let idx = self.holes.iter().position(fits)?;
        let (off, hlen) = self.holes[idx];
        let aligned = (off + align - 1) & !(align - 1);
        let pre = aligned - off;
        let post = off + hlen - (aligned + len);
        match (pre > 0, post > 0) {
            (false, false) => {
                self.holes.remove(idx);
            }
            (true, false) => self.holes[idx] = (off, pre),
            (false, true) => self.holes[idx] = (aligned + len, post),
            (true, true) => {
                self.holes[idx] = (off, pre);
                self.holes.insert(idx + 1, (aligned + len, post));
            }
        }
        Some(aligned)
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

/// Backing storage, aligned to at least 16 bytes so every
/// `BLOCK_ALIGN`-multiple offset is suitably aligned for any [`Pod`] type.
enum Storage {
    /// Process-private heap allocation (thread worlds).
    Heap(Box<[u128]>),
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
        let words = capacity_bytes.div_ceil(16);
        Storage::Heap(vec![0u128; words].into_boxed_slice())
    }

    fn base(&self) -> *mut u8 {
        match self {
            Storage::Heap(words) => words.as_ptr() as *mut u8,
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
    /// Variable-size tier under the exact classes: odd requests round up
    /// to a power-of-two buddy order instead of falling through to the
    /// first-fit mutex (disabled unless built with
    /// [`SharedSegment::with_buddy`] / `over_mapping_with_buddy`).
    buddy: BuddyTier,
    /// Registered slab caches, raided (their parked reservations pulled
    /// back into the free list) when a first-fit attempt fails even after
    /// draining the class queues. Lock ordering: always `state` before
    /// `caches`; no path locks them in the other order.
    caches: Mutex<Vec<std::sync::Weak<CacheSlots>>>,
    /// One reference count per `BLOCK_ALIGN` slot; the slot at a frozen
    /// block's starting offset counts its live [`BlockRef`] clones, so
    /// freezing and cloning never touch the heap.
    refcounts: Box<[AtomicU32]>,
    space_freed: Condvar,
    /// Blocked allocations currently waiting; releases notify the condvar
    /// only while any are present (see [`SegmentInner::signal_release`]).
    waiters: AtomicUsize,
    /// Eventcount generation: bumped by every release. A blocked
    /// allocation reads it before re-checking the tiers and sleeps only
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
    /// lock), else the buddy tier (merge + order-queue push, no lock),
    /// else the coalescing free list. Either way the eventcount is
    /// bumped so blocked allocations wake immediately — a waiter needing
    /// a larger contiguous range re-runs `alloc_locked`, which drains the
    /// class and order queues back into the coalescing list.
    fn release(&self, offset: usize, len: usize) {
        self.used.fetch_sub(len, Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
        if let Some(hook) = &self.on_release {
            hook(offset);
            return;
        }
        if let Some(ci) = self.classes.index_of(len) {
            if self.classes.push(ci, offset) {
                self.signal_release();
                return;
            }
        } else if self.buddy.owns(offset, len) {
            let oi = (len.ilog2() - crate::arena::MIN_BUDDY_ORDER) as usize;
            let mut spill = Vec::new();
            self.buddy.free_into(offset, oi, &mut spill);
            self.dispose_spill(spill);
            self.signal_release();
            return;
        } else if self.buddy.owns_tq(offset, len) {
            // A three-quarter block decomposes into its half + quarter;
            // the quarter re-merges through the parent when the sibling
            // trimmed at allocation time is still free.
            let mut spill = Vec::new();
            self.buddy.free_tq_into(offset, len, &mut spill);
            self.dispose_spill(spill);
            self.signal_release();
            return;
        }
        let mut fl = self.state.lock();
        fl.free(offset, len);
        drop(fl);
        self.signal_release();
    }

    /// Hand spilled buddy ranges (full order queues) to the coalescing
    /// free list. No-op without taking the lock when nothing spilled —
    /// the overwhelmingly common case.
    fn dispose_spill(&self, spill: Vec<(usize, usize)>) {
        if spill.is_empty() {
            return;
        }
        let mut fl = self.state.lock();
        for (off, len) in spill {
            fl.free(off, len);
        }
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

    /// Carve a fresh, size-aligned buddy chunk for order-index `oi` out
    /// of the first-fit list. Prefers one order up (splitting in half and
    /// publishing the sibling as free) so the next same-order request is
    /// a lock-free queue hit, halving mutex trips under churn.
    fn carve_buddy(&self, fl: &mut FreeList, oi: usize) -> Option<usize> {
        let size = self.buddy.size_of(oi);
        if oi + 1 < self.buddy.order_count() {
            if let Some(off) = fl.allocate_aligned(size * 2, size * 2) {
                let mut spill = Vec::new();
                self.buddy.free_into(off + size, oi, &mut spill);
                for (sib, sib_len) in spill {
                    // Order queue full (rare): sibling goes back whole.
                    fl.free(sib, sib_len);
                }
                self.buddy.splits.fetch_add(1, Ordering::Relaxed);
                return Some(off);
            }
        }
        fl.allocate_aligned(size, size)
    }

    /// Under the lock: satisfy the request from the free list — for
    /// buddy-eligible requests by carving an aligned power-of-two chunk,
    /// otherwise plain first-fit. On a miss, drain the class and order
    /// queues back into the list (coalescing adjacent holes) and retry,
    /// then raid the registered slab caches' parked reservations and
    /// retry once more. Only after all tiers miss is the request
    /// genuinely unsatisfiable. Returns `(offset, alloc_len)` — the
    /// buddy path rounds the allocation up to its power-of-two order.
    fn alloc_locked(
        &self,
        fl: &mut FreeList,
        alloc_len: usize,
        buddy_oi: Option<usize>,
    ) -> Option<(usize, usize)> {
        let try_fit = |this: &Self, fl: &mut FreeList| -> Option<(usize, usize)> {
            if let Some(oi) = buddy_oi {
                if let Some(off) = this.carve_buddy(fl, oi) {
                    if let Some(tq) = this.buddy.tq_len(oi, alloc_len) {
                        let mut spill = Vec::new();
                        this.buddy.trim_tq(off, oi, &mut spill);
                        for (s, s_len) in spill {
                            fl.free(s, s_len);
                        }
                        return Some((off, tq));
                    }
                    return Some((off, this.buddy.size_of(oi)));
                }
            }
            fl.allocate(alloc_len).map(|off| (off, alloc_len))
        };
        if let Some(hit) = try_fit(self, fl) {
            return Some(hit);
        }
        if self.classes.len() == 0 && !self.buddy.enabled() {
            return None;
        }
        let mut progressed = false;
        for (off, len) in self.classes.drain() {
            fl.free(off, len);
            progressed = true;
        }
        for (off, len) in self.buddy.drain() {
            fl.free(off, len);
            progressed = true;
        }
        if progressed {
            if let Some(hit) = try_fit(self, fl) {
                return Some(hit);
            }
        }
        // Last resort: reclaim reservations parked in (possibly idle)
        // clients' slab caches — they are counted as used, so raiding
        // must give those bytes back.
        let mut raided = Vec::new();
        {
            let mut caches = self.caches.lock();
            caches.retain(|w| match w.upgrade() {
                Some(slots) => {
                    slots.drain(&mut raided);
                    true
                }
                None => false,
            });
        }
        if raided.is_empty() {
            return None;
        }
        for &(ti, off) in &raided {
            // Tier indices are classes-first, then buddy orders (the
            // CacheSlots layout).
            let size = if ti < self.classes.len() {
                self.classes.size(ti)
            } else {
                self.buddy.size_of(ti - self.classes.len())
            };
            self.used.fetch_sub(size, Ordering::Relaxed);
            fl.free(off, size);
        }
        try_fit(self, fl)
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

/// The alloc-rounded length `len` bytes occupy, or `None` when the
/// request is zero or overflows the rounding.
pub(crate) fn class_len(len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    round_up(len, BLOCK_ALIGN)
}

impl SharedSegment {
    /// Create a segment with the given capacity in bytes (rounded up to
    /// [`BLOCK_ALIGN`]) and no size classes: every allocation uses the
    /// first-fit list.
    pub fn new(capacity: usize) -> Result<Self, ShmError> {
        Self::build(capacity, &[], false, None, None)
    }

    /// Create a segment with lock-free size classes for the given block
    /// sizes (each rounded up to [`BLOCK_ALIGN`]; zero, oversized and
    /// duplicate sizes are ignored).
    ///
    /// The middleware seeds the classes from the configuration's variable
    /// layouts, so every steady-state `write` allocation is an exact class
    /// hit.
    pub fn with_classes(capacity: usize, class_sizes: &[usize]) -> Result<Self, ShmError> {
        Self::build(capacity, class_sizes, false, None, None)
    }

    /// [`SharedSegment::with_classes`] plus the **buddy tier** for
    /// variable-size workloads: any request that matches no class rounds
    /// up to the nearest power-of-two order and allocates from a
    /// lock-free per-order free queue (split/merge on miss/free), so
    /// AMR-style varying block sizes stay off the first-fit mutex.
    pub fn with_buddy(capacity: usize, class_sizes: &[usize]) -> Result<Self, ShmError> {
        Self::build(capacity, class_sizes, true, None, None)
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
        Self::build(capacity, class_sizes, false, Some(storage), None)
    }

    /// [`SharedSegment::over_mapping`] with the buddy tier enabled (the
    /// process-mode analogue of [`SharedSegment::with_buddy`]).
    pub fn over_mapping_with_buddy(
        shm: &Arc<crate::ShmFile>,
        base_offset: usize,
        capacity: usize,
        class_sizes: &[usize],
    ) -> Result<Self, ShmError> {
        let storage = Self::mapped_storage(shm, base_offset, capacity)?;
        Self::build(capacity, class_sizes, true, Some(storage), None)
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
        Self::build(
            capacity,
            &[],
            false,
            Some(storage),
            Some(Box::new(on_release)),
        )
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
        buddy: bool,
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
        let rounded: Vec<usize> = class_sizes
            .iter()
            .filter_map(|&s| {
                if s == 0 {
                    None
                } else {
                    round_up(s, BLOCK_ALIGN)
                }
            })
            .collect();
        let classes = if rounded.is_empty() {
            SizeClasses::none()
        } else {
            SizeClasses::new(capacity, &rounded)
        };
        let buddy = if buddy {
            BuddyTier::new(capacity)
        } else {
            BuddyTier::none()
        };
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
                buddy,
                caches: Mutex::new(Vec::new()),
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

    /// Allocate `len` bytes without blocking.
    ///
    /// Fails with [`ShmError::OutOfMemory`] when no free range fits the
    /// (align-rounded) request even after coalescing; this is the signal
    /// the iteration-skip policy listens for.
    pub fn allocate(&self, len: usize) -> Result<Block, ShmError> {
        let alloc_len = self.check_len(len)?;
        // Lock-free fast paths: exact size-class hit, then the buddy
        // tier's order queues (split included) for everything else.
        if let Some(ci) = self.inner.classes.index_of(alloc_len) {
            if let Some(offset) = self.inner.classes.pop(ci) {
                self.note_alloc(alloc_len);
                self.inner.class_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(self.block(offset, len, alloc_len));
            }
        }
        let buddy_oi = self.inner.buddy.order_index(alloc_len);
        if let Some(oi) = buddy_oi {
            let mut spill = Vec::new();
            let popped = self.inner.buddy.alloc(oi, &mut spill);
            let mut size = self.inner.buddy.size_of(oi);
            if let (Some(offset), Some(tq)) = (popped, self.inner.buddy.tq_len(oi, alloc_len)) {
                // Three-quarter fit: hand the parent's top quarter
                // straight back, capping internal fragmentation at ~33 %.
                self.inner.buddy.trim_tq(offset, oi, &mut spill);
                size = tq;
            }
            self.inner.dispose_spill(spill);
            if let Some(offset) = popped {
                self.note_alloc(size);
                self.inner.buddy.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(self.block(offset, len, size));
            }
        }
        let mut fl = self.inner.state.lock();
        match self.inner.alloc_locked(&mut fl, alloc_len, buddy_oi) {
            Some((offset, alloc_len)) => {
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
        // Lock-free fast paths first, exactly as in `allocate` — blocking
        // mode must not serialize class or buddy hits on the free-list
        // mutex.
        if let Some(ci) = self.inner.classes.index_of(alloc_len) {
            if let Some(offset) = self.inner.classes.pop(ci) {
                self.note_alloc(alloc_len);
                self.inner.class_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(self.block(offset, len, alloc_len));
            }
        }
        let buddy_oi = self.inner.buddy.order_index(alloc_len);
        if let Some(oi) = buddy_oi {
            let mut spill = Vec::new();
            let popped = self.inner.buddy.alloc(oi, &mut spill);
            let mut size = self.inner.buddy.size_of(oi);
            if let (Some(offset), Some(tq)) = (popped, self.inner.buddy.tq_len(oi, alloc_len)) {
                self.inner.buddy.trim_tq(offset, oi, &mut spill);
                size = tq;
            }
            self.inner.dispose_spill(spill);
            if let Some(offset) = popped {
                self.note_alloc(size);
                self.inner.buddy.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(self.block(offset, len, size));
            }
        }
        // A timeout so large it overflows the clock means: wait forever.
        let deadline = timeout.and_then(|t| std::time::Instant::now().checked_add(t));
        let mut fl = self.inner.state.lock();
        loop {
            // Eventcount wait side: read the generation *before*
            // re-checking the tiers. If a release lands after the checks,
            // the generation no longer matches below and the sleep is
            // skipped entirely.
            let gen = self.inner.release_gen.load(Ordering::SeqCst);
            if let Some(ci) = self.inner.classes.index_of(alloc_len) {
                if let Some(offset) = self.inner.classes.pop(ci) {
                    drop(fl);
                    self.note_alloc(alloc_len);
                    self.inner.class_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.block(offset, len, alloc_len));
                }
            }
            if let Some(oi) = buddy_oi {
                // Holding `fl` already, so spills coalesce in place.
                let mut spill = Vec::new();
                let popped = self.inner.buddy.alloc(oi, &mut spill);
                let mut size = self.inner.buddy.size_of(oi);
                if let (Some(offset), Some(tq)) = (popped, self.inner.buddy.tq_len(oi, alloc_len)) {
                    self.inner.buddy.trim_tq(offset, oi, &mut spill);
                    size = tq;
                }
                for (off, spilled_len) in spill {
                    fl.free(off, spilled_len);
                }
                if let Some(offset) = popped {
                    drop(fl);
                    self.note_alloc(size);
                    self.inner.buddy.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(self.block(offset, len, size));
                }
            }
            if let Some((offset, alloc_len)) = self.inner.alloc_locked(&mut fl, alloc_len, buddy_oi)
            {
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

    // ----- slab-cache hooks (crate-internal) -------------------------------

    /// Register a slab cache's slot array so the pressure path can raid
    /// its reservations.
    pub(crate) fn register_cache(&self, slots: std::sync::Weak<CacheSlots>) {
        self.inner.caches.lock().push(slots);
    }

    /// Number of configured size classes.
    pub(crate) fn class_count(&self) -> usize {
        self.inner.classes.len()
    }

    /// Index of the class serving exactly `alloc_len` bytes.
    pub(crate) fn class_index(&self, alloc_len: usize) -> Option<usize> {
        self.inner.classes.index_of(alloc_len)
    }

    /// Byte size served by class `ci`.
    pub(crate) fn class_size(&self, ci: usize) -> usize {
        self.inner.classes.size(ci)
    }

    /// Pop an offset from class `ci` and account its bytes as used
    /// (reserved for a cache; not yet an allocation).
    pub(crate) fn class_pop_reserved(&self, ci: usize) -> Option<usize> {
        let offset = self.inner.classes.pop(ci)?;
        let size = self.inner.classes.size(ci);
        let used = self.inner.used.fetch_add(size, Ordering::Relaxed) + size;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        Some(offset)
    }

    /// Carve a fresh range for class `ci` straight from the first-fit
    /// list and account it as used (reserved for a cache; not yet an
    /// allocation). Used by [`crate::SlabCache::prewarm`] to seed caches
    /// at node-build time, before any block has been freed into the class
    /// queues. Best-effort: `None` when the segment cannot spare the
    /// bytes (more than half the capacity already committed).
    pub(crate) fn carve_reserved(&self, ci: usize) -> Option<usize> {
        let size = self.inner.classes.size(ci);
        if self.inner.used.load(Ordering::Relaxed).saturating_add(size) > self.inner.capacity / 2 {
            return None;
        }
        let mut fl = self.inner.state.lock();
        let offset = fl.allocate(size)?;
        drop(fl);
        let used = self.inner.used.fetch_add(size, Ordering::Relaxed) + size;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        Some(offset)
    }

    /// Turn a reserved offset into a live [`Block`] (bytes already counted
    /// as used by [`SharedSegment::class_pop_reserved`]).
    pub(crate) fn adopt_reserved(&self, ci: usize, offset: usize, len: usize) -> Block {
        let alloc_len = self.inner.classes.size(ci);
        debug_assert!(len <= alloc_len);
        self.inner.allocations.fetch_add(1, Ordering::Relaxed);
        self.inner.class_hits.fetch_add(1, Ordering::Relaxed);
        self.block(offset, len, alloc_len)
    }

    /// Give a reserved offset back to the shared pool (cache drop/overflow).
    pub(crate) fn return_reserved(&self, ci: usize, offset: usize) {
        let size = self.inner.classes.size(ci);
        self.inner.used.fetch_sub(size, Ordering::Relaxed);
        if self.inner.classes.push(ci, offset) {
            self.inner.signal_release();
            return;
        }
        let mut fl = self.inner.state.lock();
        fl.free(offset, size);
        drop(fl);
        self.inner.signal_release();
    }

    // ----- buddy-tier hooks (crate-internal) -------------------------------

    /// Number of configured buddy orders (0 = tier disabled).
    pub(crate) fn buddy_order_count(&self) -> usize {
        self.inner.buddy.order_count()
    }

    /// Order-index serving `alloc_len` bytes, if the buddy tier can.
    pub(crate) fn buddy_order_index(&self, alloc_len: usize) -> Option<usize> {
        self.inner.buddy.order_index(alloc_len)
    }

    /// Allocate one order-`oi` block from the order queues (splitting a
    /// larger free block if needed) and account its bytes as used
    /// (reserved for a magazine; not yet an allocation).
    pub(crate) fn buddy_alloc_reserved(&self, oi: usize) -> Option<usize> {
        let mut spill = Vec::new();
        let popped = self.inner.buddy.alloc(oi, &mut spill);
        self.inner.dispose_spill(spill);
        let offset = popped?;
        let size = self.inner.buddy.size_of(oi);
        let used = self.inner.used.fetch_add(size, Ordering::Relaxed) + size;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        Some(offset)
    }

    /// Pop one free block of exactly order `oi` (no splitting) and
    /// account it as used — the magazine warm path.
    pub(crate) fn buddy_pop_exact_reserved(&self, oi: usize) -> Option<usize> {
        let offset = self.inner.buddy.pop_exact(oi)?;
        let size = self.inner.buddy.size_of(oi);
        let used = self.inner.used.fetch_add(size, Ordering::Relaxed) + size;
        self.inner.peak.fetch_max(used, Ordering::Relaxed);
        Some(offset)
    }

    /// Turn a reserved buddy offset into a live [`Block`] (bytes already
    /// counted as used). When the request fits in three quarters of the
    /// reserved order, the top quarter is trimmed back to the free pool
    /// and the used accounting is adjusted down.
    pub(crate) fn adopt_buddy_reserved(
        &self,
        oi: usize,
        offset: usize,
        len: usize,
        request_len: usize,
    ) -> Block {
        let full = self.inner.buddy.size_of(oi);
        debug_assert!(len <= full);
        let alloc_len = match self.inner.buddy.tq_len(oi, request_len) {
            Some(tq) => {
                let mut spill = Vec::new();
                self.inner.buddy.trim_tq(offset, oi, &mut spill);
                self.inner.dispose_spill(spill);
                self.inner.used.fetch_sub(full - tq, Ordering::Relaxed);
                self.inner.signal_release();
                tq
            }
            None => full,
        };
        self.inner.allocations.fetch_add(1, Ordering::Relaxed);
        self.inner.buddy.hits.fetch_add(1, Ordering::Relaxed);
        self.block(offset, len, alloc_len)
    }

    /// Give a reserved buddy offset back to the shared pool (magazine
    /// drop/overflow).
    pub(crate) fn return_buddy_reserved(&self, oi: usize, offset: usize) {
        let size = self.inner.buddy.size_of(oi);
        self.inner.used.fetch_sub(size, Ordering::Relaxed);
        let mut spill = Vec::new();
        self.inner.buddy.free_into(offset, oi, &mut spill);
        self.inner.dispose_spill(spill);
        self.inner.signal_release();
    }

    // -----------------------------------------------------------------------

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently allocated (alignment-rounded, including slab-cache
    /// reservations).
    pub fn used_bytes(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Fraction of the segment currently allocated, in `[0, 1]` — one
    /// atomic load, O(1) regardless of allocator tier.
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
        for (off, len) in self.inner.buddy.drain() {
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
            buddy_hits: self.inner.buddy.hits.load(Ordering::Relaxed),
            buddy_tq_hits: self.inner.buddy.tq_hits.load(Ordering::Relaxed),
            buddy_splits: self.inner.buddy.splits.load(Ordering::Relaxed),
            buddy_merges: self.inner.buddy.merges.load(Ordering::Relaxed),
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

    /// Copy `src` into the beginning of the block.
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
        self.as_mut_slice()[..src.len()].copy_from_slice(src);
    }

    /// Copy a typed slice into the block (the single memcpy of the Damaris
    /// write path).
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
        // SAFETY: base is 16-byte aligned, offsets are BLOCK_ALIGN-multiples,
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
        // Same stress, but with every size a class: alloc/free races go
        // through the lock-free queues.
        let sizes: Vec<usize> = (1..8).map(|k| k * 64).collect();
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

    #[test]
    fn slab_cache_round_trips_blocks() {
        let seg = SharedSegment::with_classes(1 << 14, &[512]).unwrap();
        let cache = crate::SlabCache::new(&seg);
        let b = cache.allocate(512).unwrap();
        let off = b.offset();
        drop(b);
        // The freed offset sits in the shared class queue; the cache pulls
        // it (and accounts it as used while held).
        let b2 = cache.allocate(512).unwrap();
        assert_eq!(b2.offset(), off);
        drop(b2);
        drop(cache);
        assert_eq!(seg.used_bytes(), 0, "cache drop returns reservations");
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn pressure_raids_idle_slab_caches() {
        // A reservation parked in a (now idle) client's cache must not
        // strand memory: an allocation that would otherwise fail reclaims
        // it through the raid tier.
        let seg = SharedSegment::with_classes(512, &[256]).unwrap();
        let cache = crate::SlabCache::new(&seg);
        let a = cache.allocate(256).unwrap();
        let b = cache.allocate(256).unwrap();
        drop(a);
        drop(b); // both offsets now in the shared class queue
        let block = cache.allocate(256).unwrap(); // pops one, warm-stashes the other
        drop(block); // queue holds one, cache holds one (counted as used)
        assert_eq!(seg.used_bytes(), 256, "one reservation parked");
        // 512 bytes need the queued block AND the cached one, coalesced.
        let big = seg.allocate(512).expect("raid reclaims cached reservation");
        assert_eq!(big.len(), 512);
        drop(big);
        drop(cache);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), 512);
    }

    #[test]
    fn buddy_odd_sizes_recycle_lock_free() {
        // An odd size (no class) rounds to its power-of-two order; after
        // the first carve, free → allocate of the same size is a pure
        // order-queue round trip (a buddy hit), reusing the offset.
        let seg = SharedSegment::with_buddy(1 << 14, &[512]).unwrap();
        let b = seg.allocate(100).unwrap(); // order 7 (128 bytes)
        assert_eq!(seg.used_bytes(), 128, "rounded to the buddy order");
        assert!(b.offset().is_multiple_of(128), "buddy blocks size-aligned");
        let first = b.offset();
        drop(b);
        let b2 = seg.allocate(100).unwrap();
        assert_eq!(b2.offset(), first, "order queue recycled the block");
        let s = seg.stats();
        assert_eq!(s.buddy_hits, 1, "second allocation was a buddy hit");
        assert_eq!(s.class_hits, 0, "classes untouched by odd sizes");
        drop(b2);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_class_sizes_still_use_classes() {
        // Exact class matches keep their dedicated queues even with the
        // buddy tier enabled.
        let seg = SharedSegment::with_buddy(1 << 14, &[512]).unwrap();
        let a = seg.allocate(512).unwrap();
        drop(a);
        let b = seg.allocate(512).unwrap();
        assert_eq!(seg.stats().class_hits, 1);
        assert_eq!(seg.stats().buddy_hits, 0);
        drop(b);
    }

    #[test]
    fn buddy_splits_and_merges_siblings() {
        let seg = SharedSegment::with_buddy(1 << 14, &[]).unwrap();
        // First odd allocation carves one order up and splits, parking
        // the sibling in the order queue.
        let b = seg.allocate(100).unwrap();
        assert_eq!(seg.stats().buddy_splits, 1, "carve split the double");
        // Freeing rejoins the sibling: the pair merges back into the
        // parent, which then serves a double-size request lock-free.
        drop(b);
        assert_eq!(seg.stats().buddy_merges, 1, "free merged the pair");
        let big = seg.allocate(200).unwrap(); // order 8 (256 bytes)
        assert_eq!(seg.stats().buddy_hits, 1, "merged parent served it");
        drop(big);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_three_quarter_fit_trims_and_remerges() {
        // 1244 rounds to 1280, one order below 2048: the three-quarter
        // family serves it as 1536 (1024 + 512), handing the top quarter
        // straight back instead of wasting it.
        let seg = SharedSegment::with_buddy(1 << 14, &[]).unwrap();
        let b = seg.allocate(1244).unwrap();
        assert_eq!(seg.used_bytes(), 1536, "3/4 of the 2048 order");
        assert_eq!(seg.stats().buddy_tq_hits, 1, "trim counted");
        // The trimmed quarter is immediately allocatable.
        let q = seg.allocate(500).unwrap();
        assert_eq!(seg.used_bytes(), 1536 + 512);
        drop(q);
        // Releasing decomposes half + quarter and merges all the way
        // back to the root hole.
        drop(b);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_three_quarter_fit_round_trips_through_slab_cache() {
        // The per-order magazine reserves the full parent; adoption must
        // trim the quarter and adjust the used accounting back down.
        let seg = SharedSegment::with_buddy(1 << 14, &[]).unwrap();
        let cache = crate::SlabCache::new(&seg);
        let b = cache.allocate(1244).unwrap();
        assert_eq!(b.len(), 1244);
        assert_eq!(seg.stats().buddy_tq_hits, 1);
        drop(b);
        drop(cache);
        assert_eq!(seg.used_bytes(), 0, "cache drop returns reservations");
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_zero_and_near_max_rejected() {
        // Satellite fix: the buddy order computation must not overflow —
        // zero-length and near-usize::MAX requests surface as the same
        // typed errors the classed path reports.
        let seg = SharedSegment::with_buddy(4096, &[]).unwrap();
        match seg.allocate(0) {
            Err(ShmError::ZeroSize) => {}
            other => panic!("unexpected: {other:?}"),
        }
        for req in [usize::MAX, usize::MAX - 1, (usize::MAX >> 1) + 2] {
            match seg.allocate(req) {
                Err(ShmError::RequestTooLarge { requested, .. }) => assert_eq!(requested, req),
                other => panic!("unexpected: {other:?}"),
            }
            match seg.allocate_blocking(req, Some(Duration::from_millis(1))) {
                Err(ShmError::RequestTooLarge { .. }) => {}
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    fn buddy_request_beyond_largest_order_uses_free_list() {
        // Capacity 6144 is not a power of two: the largest order is 4096,
        // so a 5000-byte request cannot round into any order and must be
        // served (64-byte-rounded, unaligned) by first-fit.
        let seg = SharedSegment::with_buddy(6144, &[]).unwrap();
        let b = seg.allocate(5000).unwrap();
        assert_eq!(seg.used_bytes(), 5056, "64-rounded, not power-of-two");
        assert_eq!(seg.stats().buddy_hits, 0);
        drop(b);
        assert_eq!(seg.used_bytes(), 0);
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_pressure_drains_order_queues() {
        // Odd blocks fill the segment through the buddy tier; a request
        // needing the whole capacity must drain the order queues back
        // into the coalescing list and succeed.
        let seg = SharedSegment::with_buddy(4096, &[]).unwrap();
        let blocks: Vec<_> = (0..4).map(|_| seg.allocate(1000).unwrap()).collect();
        assert!(seg.allocate(1000).is_err(), "segment genuinely full");
        drop(blocks);
        let whole = seg.allocate(4096).expect("drain + coalesce serves it");
        drop(whole);
        assert_eq!(seg.used_bytes(), 0);
    }

    #[test]
    fn slab_cache_buddy_magazine_round_trips() {
        let seg = SharedSegment::with_buddy(1 << 14, &[]).unwrap();
        let cache = crate::SlabCache::new(&seg);
        let b = cache.allocate(100).unwrap();
        let off = b.offset();
        drop(b);
        // The freed block sits in the shared order queue; the magazine
        // pulls it (accounted used while parked) and serves repeats from
        // the local slot.
        let b2 = cache.allocate(100).unwrap();
        assert_eq!(b2.offset(), off);
        assert!(seg.stats().buddy_hits >= 1);
        drop(b2);
        drop(cache);
        assert_eq!(seg.used_bytes(), 0, "cache drop returns reservations");
        assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    #[test]
    fn buddy_concurrent_mixed_size_stress() {
        // AMR-shaped churn: every thread allocates a different odd size
        // per step. Disjointness is asserted by data integrity; the
        // segment must come back empty and fully merged.
        let seg = SharedSegment::with_buddy(1 << 16, &[]).unwrap();
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let size = 48 + ((i * 37 + t as usize * 211) % 900);
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
        let s = seg.stats();
        assert!(s.buddy_hits > 0, "order queues actually served hits");
        assert!(s.buddy_merges > 0, "frees merged buddies");
    }

    #[test]
    fn slab_cache_falls_back_for_odd_sizes() {
        let seg = SharedSegment::with_classes(1 << 14, &[512]).unwrap();
        let cache = crate::SlabCache::new(&seg);
        let b = cache.allocate(100).unwrap();
        drop(b);
        drop(cache);
        assert_eq!(seg.used_bytes(), 0);
    }
}
