//! Property tests: collectives agree with sequential reference
//! computations for arbitrary inputs and world sizes, and the mesh's
//! frame parser survives any bytes a peer can send.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mini_mpi::testutil::decode_mesh_stream;
use mini_mpi::World;
use proptest::prelude::*;

/// The system allocator, recording the largest single request a thread
/// makes while it is inside [`peak_alloc`].
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = PEAK.try_with(|peak| peak.set(peak.get().map(|p| p.max(size))));
}

// SAFETY: defers every allocation verbatim to `System` (only noting
// sizes on the side), so all `GlobalAlloc` contracts are `System`'s own.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: forwards its arguments unchanged to `System`; the caller's
    // layout/pointer obligations pass straight through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as ours, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: forwarded verbatim to `System`, as above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
static ALLOC: PeakAlloc = PeakAlloc;

/// Run `f` and return its result with the largest single allocation it
/// made.
fn peak_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PEAK.with(|peak| peak.set(Some(0)));
    let out = f();
    (out, PEAK.with(|peak| peak.take()).unwrap_or(0))
}

/// One mesh frame: `[u32 body length][u8 kind]` and the body.
fn frame(kind: u8, body: &[&[u8]]) -> Vec<u8> {
    let body = body.concat();
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.push(kind);
    bytes.extend(body);
    bytes
}

/// One frame of every kind the socket world sends, encoded by hand.
fn mesh_frame_samples() -> Vec<Vec<u8>> {
    let (u32s, u64s) = (|v: u32| v.to_le_bytes(), |v: u64| v.to_le_bytes());
    let string = |s: &str| [&u32s(s.len() as u32)[..], s.as_bytes()].concat();
    let payload = b"hello";
    vec![
        // Data: seq, ctx, src, tag, payload length, payload.
        frame(
            0,
            &[
                &u64s(11),
                &u64s(7),
                &u32s(3),
                &u64s(1 << 63 | 42),
                &u32s(5),
                payload,
            ],
        ),
        frame(1, &[&u64s(99)]),                           // Goodbye: seq
        frame(2, &[&u32s(9)]),                            // Hello: rank
        frame(3, &[&u32s(2), &u32s(3), &[1, 2, 3]]),      // Result: rank, data
        frame(4, &[&u64s(17)]),                           // Ping: acked
        frame(5, &[&u64s(18)]),                           // Pong: acked
        frame(6, &[&u64s(5), &u32s(3)]),                  // Death: seq, rank
        frame(7, &[&u32s(4), &u64s(1234)]),               // Reconnect: rank, next
        frame(8, &[&u64s(4321)]),                         // ReconnectAck: next
        frame(9, &[&u32s(1), &string("127.0.0.1:9999")]), // Register: rank, addr
        // Welcome: heartbeat timeout, peer table, launch input.
        frame(
            10,
            &[
                &u64s(10_000),
                &u32s(2),
                &string("a:1"),
                &string("unix:/tmp/r1.sock"),
                &u32s(3),
                &[7, 8, 9],
            ],
        ),
    ]
}

/// Decode `bytes` with the mesh parser and check what any input must
/// satisfy: no panic; the frames decoded are exactly the bytes they took
/// (each encodes back to them); and no allocation beyond a small multiple
/// of the input, so no length or count field can make the parser reserve
/// memory the bytes do not back (a stronger bound than the frame limit).
/// Returns how many bytes decoded into whole frames.
fn decode_checked(bytes: &[u8]) -> usize {
    let (decoded, peak) = peak_alloc(|| decode_mesh_stream([bytes]));
    prop_assert!(
        peak <= 16 * bytes.len() + 256,
        "{peak}-byte allocation decoding {} bytes",
        bytes.len()
    );
    let frames = decoded.map(|frames| frames.concat()).unwrap_or_default();
    prop_assert_eq!(&frames[..], &bytes[..frames.len()]);
    frames.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// allreduce(+) equals the element-wise sum of all contributions.
    #[test]
    fn allreduce_sum_matches_reference(
        size in 1usize..9,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        // Deterministic per-rank contributions derived from the seed.
        let contrib = move |rank: usize| -> Vec<i64> {
            (0..len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add((rank * 131 + i) as u64);
                    (x >> 17) as i64 % 1000 - 500
                })
                .collect()
        };
        let expected: Vec<i64> = (0..size).map(contrib).fold(vec![0i64; len], |mut acc, v| {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
            acc
        });
        let results = World::run(size, move |comm| {
            comm.allreduce(&contrib(comm.rank()), |a, b| *a += b)
        });
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    /// alltoall is a transpose: out[i][..] on rank j == in[j][..] on rank i.
    #[test]
    fn alltoall_is_transpose(size in 1usize..7, seed in any::<u32>()) {
        let cell = move |from: usize, to: usize| -> Vec<u32> {
            vec![seed ^ (from * 100 + to) as u32; (from + to) % 3 + 1]
        };
        let results = World::run(size, move |comm| {
            let chunks: Vec<Vec<u32>> = (0..size).map(|to| cell(comm.rank(), to)).collect();
            comm.alltoall(chunks)
        });
        for (to, received) in results.iter().enumerate() {
            for (from, payload) in received.iter().enumerate() {
                prop_assert_eq!(payload, &cell(from, to), "cell {}→{}", from, to);
            }
        }
    }

    /// bcast delivers the root's payload bit-exactly to every rank.
    #[test]
    fn bcast_delivers_everywhere(
        size in 1usize..9,
        root_pick in any::<usize>(),
        payload in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let root = root_pick % size;
        let expected = payload.clone();
        let results = World::run(size, move |comm| {
            let data = if comm.rank() == root { payload.clone() } else { Vec::new() };
            comm.bcast(root, &data)
        });
        for r in results {
            prop_assert_eq!(&r, &expected);
        }
    }

    /// gather at an arbitrary root reassembles every contribution in order.
    #[test]
    fn gather_reassembles(size in 1usize..8, root_pick in any::<usize>()) {
        let root = root_pick % size;
        let results = World::run(size, move |comm| {
            let contrib: Vec<u16> = vec![comm.rank() as u16; comm.rank() + 1];
            comm.gather(root, &contrib)
        });
        for (rank, res) in results.iter().enumerate() {
            if rank == root {
                let parts = res.as_ref().expect("root gets the data");
                for (r, part) in parts.iter().enumerate() {
                    prop_assert_eq!(part, &vec![r as u16; r + 1]);
                }
            } else {
                prop_assert!(res.is_none());
            }
        }
    }

    /// split partitions ranks: each subgroup sums exactly its members.
    #[test]
    fn split_partitions(size in 2usize..9, colors in any::<u64>()) {
        let color_of = move |rank: usize| (colors >> (rank % 16)) & 1;
        let results = World::run(size, move |comm| {
            let sub = comm.split(Some(color_of(comm.rank())), 0).expect("member");
            sub.allreduce(&[comm.rank() as u64], |a, b| *a += b)[0]
        });
        for (rank, &sum) in results.iter().enumerate() {
            let expected: u64 = (0..size)
                .filter(|&r| color_of(r) == color_of(rank))
                .map(|r| r as u64)
                .sum();
            prop_assert_eq!(sum, expected, "rank {}", rank);
        }
    }

    /// Arbitrary bytes never panic the mesh parser.
    #[test]
    fn mesh_parser_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        kind in 0u8..12,
        len in any::<u32>(),
    ) {
        decode_checked(&bytes);
        // The same bytes behind a plausible head: a known kind, and a
        // length that is either huge or what the bytes hold.
        for len in [len, bytes.len() as u32] {
            let mut framed = len.to_le_bytes().to_vec();
            framed.push(kind);
            framed.extend_from_slice(&bytes);
            decode_checked(&framed);
        }
    }

    /// Every proper prefix of a valid frame of each kind is incomplete,
    /// and the frame with one byte flipped anywhere decodes sanely.
    #[test]
    fn mesh_parser_survives_truncated_and_flipped_frames(
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        for frame in mesh_frame_samples() {
            for cut in 0..frame.len() {
                prop_assert_eq!(decode_checked(&frame[..cut]), 0, "cut {}", cut);
            }
            prop_assert_eq!(decode_checked(&frame), frame.len());
            let mut flipped = frame.clone();
            flipped[at % frame.len()] ^= flip;
            decode_checked(&flipped);
        }
    }

    /// Frames fed in arbitrary splits, as partial reads deliver them,
    /// decode to the same frames as the whole stream.
    #[test]
    fn mesh_frames_decode_the_same_in_any_split(
        picks in proptest::collection::vec(any::<usize>(), 1..12),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let samples = mesh_frame_samples();
        let frames: Vec<Vec<u8>> =
            picks.iter().map(|p| samples[p % samples.len()].clone()).collect();
        let stream = frames.concat();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.extend([0, stream.len()]);
        cuts.sort_unstable();
        let chunks = cuts.windows(2).map(|w| &stream[w[0]..w[1]]);
        let split = decode_mesh_stream(chunks).expect("valid frames");
        let whole = decode_mesh_stream([&stream[..]]).expect("valid frames");
        prop_assert_eq!(&split, &whole);
        prop_assert_eq!(&split, &frames);
    }
}
