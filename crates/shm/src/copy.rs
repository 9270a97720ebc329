//! The client's one copy into the segment.
//!
//! A block is written once by a compute core and next read by another
//! core, usually after the writer has moved on to other data. A plain
//! `memcpy` of a block too large to stay cached (glibc copies through the
//! cache below its non-temporal threshold of tens of MiB) first reads every
//! destination line for ownership, so a cold destination costs a memory
//! read per line before the write. [`copy_into`] streams blocks of at
//! least [`STREAM_MIN`] bytes past the cache with SSE2 non-temporal
//! stores instead, which write whole lines without reading them.

/// Smallest copy into a block that [`Block::write_bytes`](crate::Block::write_bytes)
/// (so every client write) streams past the cache on x86_64; shorter
/// copies use `copy_from_slice`.
///
/// Chosen from a size sweep on a 2-vCPU Xeon (Sapphire Rapids, 2 MiB L2
/// per core, glibc 2.36), one block copied per step from a freshly
/// rewritten source, a second thread reading each block after it is
/// written (`memcpy` → stream, µs per copy):
///
/// | block | 32 MiB of recycled ranges | 8 recycled ranges |
/// |---|---|---|
/// | 128 KiB | 10.4–11.2 → 7.6–8.7 | 8.2–8.8 → 14.5 |
/// | 256 KiB | 18.9–22.6 → 15.0–15.9 | 14.8–15.6 → 24.1–26.7 |
/// | 512 KiB | 38.6–41.8 → 32.0–33.6 | |
/// | 1 MiB | 76–82 → 62–70 | 48–53 → 65–67 |
/// | 2 MiB | 196–256 → 130–139 | 171–176 → 135 |
/// | 4 MiB | 357–380 → 278–279 | 473 → 280–308 |
///
/// Ranges recycled across the segment (the left column, a client cycling
/// through its 32 MiB buffer) are cold when reused, and streaming wins at
/// every size. A destination that is still cached (the right column) is
/// faster to copy through the cache up to 1 MiB. Whether a real range is
/// still cached when it comes back depends on the buffer size and on how
/// fast ranges are recycled, so the sweep alone does not settle the band
/// below 1 MiB. The threshold is the smallest block the end-to-end
/// benchmark writes (CM1's 1 MiB; Nek writes 2 MiB), where the write phase
/// measured faster; lowering it needs a workload with smaller blocks.
pub const STREAM_MIN: usize = 1 << 20;

/// Copy `src` into `dst`, which must have the same length (panics
/// otherwise, as `copy_from_slice` does).
///
/// On x86_64, a copy of at least [`STREAM_MIN`] bytes uses non-temporal
/// stores and ends with an `sfence`. Non-temporal stores are not ordered
/// by release semantics; the fence orders them before every later store
/// of this thread, so a following release store (the reference count
/// [`crate::Block::freeze`] sets, the event post) publishes the bytes to
/// whichever thread or process acquires it.
pub(crate) fn copy_into(dst: &mut [u8], src: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if src.len() >= STREAM_MIN {
        return stream(dst, src);
    }
    dst.copy_from_slice(src);
}

/// The streamed copy at any length: a plain head copy up to 16-byte
/// destination alignment, a body of 64-byte steps of four unaligned loads
/// and four non-temporal stores, a plain tail copy, then `sfence`. Under
/// Miri the body's stores are plain 16-byte copies, so the split the
/// `unsafe` block relies on still runs in the interpreter.
#[cfg(target_arch = "x86_64")]
fn stream(dst: &mut [u8], src: &[u8]) {
    #[cfg(not(miri))]
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_sfence, _mm_stream_si128};

    assert_eq!(
        dst.len(),
        src.len(),
        "copy between slices of unequal length"
    );
    let head = (dst.as_ptr().addr().wrapping_neg() % 16).min(dst.len());
    let (dst_head, dst_rest) = dst.split_at_mut(head);
    let (src_head, src_rest) = src.split_at(head);
    dst_head.copy_from_slice(src_head);
    let (dst_body, dst_tail) = dst_rest.as_chunks_mut::<64>();
    let (src_body, src_tail) = src_rest.as_chunks::<64>();
    for (d, s) in dst_body.iter_mut().zip(src_body) {
        // SAFETY: `d` and `s` are 64-byte arrays, so the four 16-byte
        // loads and stores stay inside them (`_mm_loadu_si128` takes any
        // alignment). `dst_rest` starts `head` bytes into `dst`, which is
        // where `dst` reaches 16-byte alignment, and every step is 64
        // bytes, so each `d` is 16-byte aligned, as `_mm_stream_si128`
        // requires. SSE2 is part of the x86_64 baseline. The stores are
        // weakly ordered: the `_mm_sfence` below orders them before any
        // later store, so a release that follows publishes them.
        #[cfg(not(miri))]
        unsafe {
            let s = s.as_ptr().cast::<__m128i>();
            let d = d.as_mut_ptr().cast::<__m128i>();
            let a = _mm_loadu_si128(s);
            let b = _mm_loadu_si128(s.add(1));
            let c = _mm_loadu_si128(s.add(2));
            let e = _mm_loadu_si128(s.add(3));
            _mm_stream_si128(d, a);
            _mm_stream_si128(d.add(1), b);
            _mm_stream_si128(d.add(2), c);
            _mm_stream_si128(d.add(3), e);
        }
        #[cfg(miri)]
        for (d, s) in d.chunks_exact_mut(16).zip(s.chunks_exact(16)) {
            d.copy_from_slice(s);
        }
    }
    dst_tail.copy_from_slice(src_tail);
    // SAFETY: SSE is part of the x86_64 baseline. The fence makes every
    // non-temporal store above visible before any later store of this
    // thread, which is what lets a release store publish the copy.
    #[cfg(not(miri))]
    unsafe {
        _mm_sfence()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Copy `len` bytes from `src_mis` bytes into a patterned source to
    /// `dst_mis` bytes into a guard-filled destination, with `copy`, and
    /// check the copy equals the source and no byte outside it changed.
    fn check(copy: fn(&mut [u8], &[u8]), src: &[u8], len: usize, dst_mis: usize, src_mis: usize) {
        // A 64-byte aligned backing, so `dst_mis` is the real misalignment.
        let mut backing = vec![[0xA5u8; 64]; (len + 128).div_ceil(64)];
        let dst = backing.as_flattened_mut();
        copy(
            &mut dst[dst_mis..dst_mis + len],
            &src[src_mis..src_mis + len],
        );
        assert!(
            dst[dst_mis..dst_mis + len] == src[src_mis..src_mis + len],
            "len {len}, dst +{dst_mis}, src +{src_mis}: bytes differ"
        );
        assert!(
            dst[..dst_mis]
                .iter()
                .chain(&dst[dst_mis + len..])
                .all(|&b| b == 0xA5),
            "len {len}, dst +{dst_mis}, src +{src_mis}: wrote outside the copy"
        );
    }

    #[test]
    fn equals_copy_from_slice_at_every_misalignment() {
        let mut lengths = vec![0, 1, 63, 64, 65];
        // Too slow to interpret. The short lengths already run `stream`'s
        // head, body and tail at every misalignment pair.
        if !cfg!(miri) {
            lengths.extend([
                STREAM_MIN - 1,
                STREAM_MIN,
                STREAM_MIN + 1,
                STREAM_MIN + 63,
                (2 << 20) + 17,
            ]);
        }
        let longest = lengths.iter().max().unwrap();
        let src: Vec<u8> = (0..longest + 128)
            .map(|i| (i * 7 + i / 251) as u8)
            .collect();
        for len in lengths {
            for dst_mis in 0..64 {
                // Every pair for short copies; for long ones each source
                // misalignment once (37 is odd, so this walks all 64).
                let src_mis: Vec<usize> = if len <= 65 {
                    (0..64).collect()
                } else {
                    vec![dst_mis * 37 % 64]
                };
                for src_mis in src_mis {
                    check(copy_into, &src, len, dst_mis, src_mis);
                    #[cfg(target_arch = "x86_64")]
                    check(stream, &src, len, dst_mis, src_mis);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn unequal_lengths_panic() {
        copy_into(&mut vec![0u8; STREAM_MIN], &vec![0u8; STREAM_MIN + 1]);
    }
}
