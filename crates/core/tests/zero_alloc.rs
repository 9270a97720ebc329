//! Proof of the tentpole claim: steady-state `write()` performs **zero
//! heap allocations** on the calling thread.
//!
//! A counting global allocator tracks allocations per thread; after a
//! warm-up phase (which populates the interning registry lookups, the
//! size-class queues and the transport rings), a burst of writes and
//! end-of-iteration posts must not touch the heap at all: the variable
//! resolves through the prebuilt index, the block comes from the
//! size-class queues, the copy into it (streamed past the cache for the
//! large variable) needs no scratch, freeze uses the segment's slot
//! refcounts, the event moves into a pre-allocated ring and the stats land
//! in atomic buckets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: defers every allocation verbatim to `System` (only counting
// calls on the side), so all `GlobalAlloc` contracts are `System`'s own.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards its arguments unchanged to `System`; the caller's
    // layout/pointer obligations pass straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: forwarded verbatim to `System`, as above.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: forwarded verbatim to `System`, as above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: forwarded verbatim to `System`, as above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread while `f` runs.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.with(|c| c.get())
}

const XML: &str = r#"
  <simulation name="zero-alloc">
    <architecture>
      <dedicated cores="1"/>
      <buffer size="83886080"/>
      <queue capacity="4096" kind="sharded"/>
    </architecture>
    <data>
      <layout name="row" type="f64" dimensions="128"/>
      <variable name="u" layout="row"/>
      <variable name="v" layout="row"/>
      <layout name="slab" type="f64" dimensions="131100"/>
      <variable name="w" layout="slab"/>
    </data>
  </simulation>"#;

/// Iterations in the measured burst.
const MEASURED: u64 = 64;

#[test]
fn steady_state_write_makes_zero_heap_allocations() {
    use damaris_core::prelude::*;

    let node = DamarisNode::builder()
        .config_str(XML)
        .unwrap()
        .clients(1)
        .build()
        .unwrap();
    let client = node.client(0).unwrap();
    let data = vec![1.25f64; 128];
    let slab = vec![2.5f64; 131100];
    assert!(
        std::mem::size_of_val(&slab[..]) >= damaris_shm::STREAM_MIN,
        "w takes the streamed copy"
    );

    // Warm up: seed the size-class queues. A block stays live until its
    // iteration is ended, so one long iteration carves a fresh range per
    // block from the first-fit list: one per measured write, plus two
    // spare (the dedicated core may still be pushing its last release
    // when the wait below sees the segment empty).
    for _ in 0..=MEASURED {
        client.write("u", 0, &data).unwrap();
        client.write("v", 0, &data).unwrap();
        client.write("w", 0, &slab).unwrap();
    }
    client.end_iteration(0).unwrap();
    // Let the dedicated core finish recycling the warm-up iteration, so
    // measured allocations hit the class queues rather than first-fit.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while node.segment_occupancy() > 0.0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Steady state: a full iteration (three writes + end-of-iteration)
    // must not allocate on this thread.
    let hits_before = node.segment_stats().class_hits;
    let allocs = count_allocs(|| {
        for it in 1..=MEASURED {
            assert_eq!(client.write("u", it, &data).unwrap(), WriteStatus::Written);
            assert_eq!(client.write("v", it, &data).unwrap(), WriteStatus::Written);
            assert_eq!(client.write("w", it, &slab).unwrap(), WriteStatus::Written);
            client.end_iteration(it).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state write path allocated {allocs} times on the heap"
    );
    assert_eq!(
        node.segment_stats().class_hits - hits_before,
        3 * MEASURED,
        "every steady-state write pops its size class"
    );

    client.finalize().unwrap();
    let report = node.shutdown().unwrap();
    assert_eq!(report.iterations_completed, 1 + MEASURED);

    // Sanity: the counter itself works.
    let observed = count_allocs(|| {
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
    });
    assert!(observed >= 1, "counting allocator must see explicit allocs");
}
