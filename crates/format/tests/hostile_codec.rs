//! A hostile `.dh5` cannot make the reader allocate without bound. The
//! codec chain comes from the file's footer, and a pair of `[0x81, 0x81]`
//! bytes decodes to 128 bytes of `0x81` under `rle`: ×64 per stage, so
//! 16 bytes under five `rle` stages name 16 GiB. The footer's own counts
//! name sizes too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use h5lite::{Dtype, FileMeta, FileReader, FileWriter};

/// The largest single allocation a thread inside [`capped`] may make. A
/// larger request is refused, which aborts the test binary, rather than
/// attempted: the machine is never asked for what the file names.
const CAP: usize = 1 << 20;

/// The system allocator, recording the largest request a thread makes
/// inside [`capped`] and refusing any above [`CAP`] there.
struct CappedAlloc;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Note a request of `size` bytes; whether it may be served.
fn admit(size: usize) -> bool {
    // `try_with`: a thread being torn down still allocates.
    PEAK.try_with(|peak| match peak.get() {
        Some(p) => {
            peak.set(Some(p.max(size)));
            size <= CAP
        }
        None => true,
    })
    .unwrap_or(true)
}

// SAFETY: every allocation it serves is `System`'s, with the caller's
// arguments unchanged; a refused one returns null, which `GlobalAlloc`
// allows for a request that cannot be met.
unsafe impl GlobalAlloc for CappedAlloc {
    // SAFETY: forwards its arguments unchanged to `System`, or returns null.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: forwarded verbatim to `System`, or null, as above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
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
static ALLOC: CappedAlloc = CappedAlloc;

/// Run `f` under [`CAP`] and return its result with the largest single
/// allocation it made.
fn capped<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    (out, PEAK.with(|peak| peak.take()).unwrap_or(0))
}

#[test]
fn five_rle_stages_over_sixteen_bytes_fail_without_a_large_allocation() {
    let mut file = Cursor::new(Vec::new());
    let mut w = FileWriter::new(&mut file).unwrap();
    w.dataset("bomb", Dtype::U8, &[16])
        .unwrap()
        .with_codec("rle,rle,rle,rle,rle")
        .unwrap()
        .chunked(16)
        .unwrap()
        .write_encoded_chunks(16, [&[0x81u8; 16][..]])
        .unwrap();
    w.finish().unwrap();
    let mut r = FileReader::new(Cursor::new(file.into_inner())).unwrap();

    let (read, peak) = capped(|| r.read_bytes("bomb"));
    assert!(read.is_err(), "a 16-byte dataset decoded: {read:?}");
    let (rows, rows_peak) = capped(|| r.read_rows_pod::<u8>("bomb", 0, 1));
    assert!(rows.is_err(), "a row of the bomb decoded: {rows:?}");
    assert!(peak.max(rows_peak) <= CAP);
}

#[test]
fn a_footer_naming_four_billion_chunks_fails_without_a_large_allocation() {
    let mut footer = Vec::new();
    footer.extend(0u32.to_le_bytes()); // groups
    footer.extend(1u32.to_le_bytes()); // datasets
    footer.extend(1u32.to_le_bytes());
    footer.push(b'd'); // path "d"
    footer.push(4); // u8
    footer.extend(1u32.to_le_bytes());
    footer.extend(16u64.to_le_bytes()); // shape [16]
    footer.extend(0u32.to_le_bytes()); // no codec
    footer.push(1); // chunked
    footer.extend(16u64.to_le_bytes()); // rows per chunk
    footer.extend(u32::MAX.to_le_bytes()); // chunk count, no entries follow

    let (meta, peak) = capped(|| FileMeta::decode(&footer));
    assert!(meta.is_err(), "a truncated chunk table parsed: {meta:?}");
    assert!(peak <= CAP);
}
