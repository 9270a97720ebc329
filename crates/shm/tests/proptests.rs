//! Property tests for the segment allocator and the message queue.

use damaris_shm::{Block, SharedSegment};
use proptest::prelude::*;

/// A scripted allocator operation.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a block of the given size (bytes).
    Alloc(usize),
    /// Free the i-th oldest live block (modulo live count).
    Free(usize),
}

/// Request sizes span the AMR range the middleware's dynamic layouts see
/// (1..=512 `f64` elements per block), so no two requests need share a
/// size.
fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..=512 * 8).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::Free),
        ],
        1..200,
    )
}

proptest! {
    /// The allocator never hands out overlapping ranges, and after freeing
    /// everything the free list coalesces back to full capacity.
    #[test]
    fn allocator_disjoint_and_coalescing(ops in ops_strategy()) {
        let capacity = 1 << 16;
        let seg = SharedSegment::new(capacity).unwrap();
        let mut live: Vec<Block> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = seg.allocate(size) {
                        // Check disjointness against every live block.
                        let (s, e) = (b.offset(), b.offset() + b.len());
                        for other in &live {
                            let (os, oe) = (other.offset(), other.offset() + other.len());
                            prop_assert!(e <= os || oe <= s,
                                "overlap: [{s},{e}) vs [{os},{oe})");
                        }
                        live.push(b);
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        live.swap_remove(idx);
                    }
                }
            }
        }
        drop(live);
        prop_assert_eq!(seg.used_bytes(), 0);
        prop_assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    /// Data written into a block reads back identically after freeze.
    #[test]
    fn block_roundtrip(data in proptest::collection::vec(any::<u8>(), 1..4096)) {
        let seg = SharedSegment::new(1 << 14).unwrap();
        let mut b = seg.allocate(data.len()).unwrap();
        b.write_bytes(&data);
        let r = b.freeze();
        prop_assert_eq!(r.as_slice(), &data[..]);
    }

    /// f64 payloads survive the pod round-trip bit-exactly (including NaN
    /// payloads and signed zeros).
    #[test]
    fn pod_roundtrip_f64(data in proptest::collection::vec(any::<u64>(), 1..512)) {
        let floats: Vec<f64> = data.iter().map(|&bits| f64::from_bits(bits)).collect();
        let seg = SharedSegment::new(1 << 14).unwrap();
        let mut b = seg.allocate(floats.len() * 8).unwrap();
        b.write_pod(&floats);
        let r = b.freeze();
        let back: Vec<u64> = r.as_pod::<f64>().iter().map(|f| f.to_bits()).collect();
        prop_assert_eq!(back, data);
    }
}

/// A scripted operation against the sharded transport.
#[derive(Debug, Clone)]
enum ChanOp {
    /// Producer `p % producers` sends one event.
    Send(usize),
    /// The consumer tries to receive one event.
    Recv,
    /// Close the channel.
    Close,
}

fn chan_ops() -> impl Strategy<Value = Vec<ChanOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..8).prop_map(ChanOp::Send),
            Just(ChanOp::Recv),
            Just(ChanOp::Close),
        ],
        1..300,
    )
}

proptest! {
    /// Interleaved sends, receives and close against the sharded
    /// transport and its one consumer: every accepted event is delivered
    /// exactly once, in per-producer FIFO order, and after close the
    /// consumer drains what remains and then sees `Closed` — never a lost
    /// or duplicated event.
    #[test]
    fn sharded_transport_interleaved_close_drain(
        ops in chan_ops(),
        producers in 1usize..5,
        shard_capacity in 1usize..9,
    ) {
        use damaris_shm::transport::{
            EventChannel, EventConsumer, EventProducer, ShardedChannel,
        };
        use damaris_shm::{TryRecvError, TrySendError};

        let ch: ShardedChannel<(usize, u64)> = ShardedChannel::new(producers, shard_capacity);
        let prods: Vec<_> = (0..producers).map(|p| ch.producer(p)).collect();
        let mut cons = ch.consumer(0, 1);

        let mut seq = vec![0u64; producers];   // per-producer send counter
        let mut accepted: Vec<Vec<u64>> = vec![Vec::new(); producers];
        let mut received: Vec<Vec<u64>> = vec![Vec::new(); producers];
        let mut closed = false;

        for op in ops {
            match op {
                ChanOp::Send(p) => {
                    let p = p % producers;
                    let tag = seq[p];
                    seq[p] += 1;
                    match prods[p].try_send((p, tag)) {
                        Ok(()) => accepted[p].push(tag),
                        Err(TrySendError::Full(_)) => prop_assert!(!closed, "Full after close"),
                        Err(TrySendError::Closed(_)) => {
                            prop_assert!(closed, "Closed error before close()")
                        }
                    }
                }
                ChanOp::Recv => match cons.try_recv() {
                    Ok((p, tag)) => received[p].push(tag),
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Closed) => prop_assert!(closed, "Closed before close()"),
                },
                ChanOp::Close => {
                    EventChannel::close(&ch);
                    closed = true;
                }
            }
        }

        // Final drain: everything accepted must still be deliverable.
        EventChannel::close(&ch);
        loop {
            match cons.try_recv() {
                Ok((p, tag)) => received[p].push(tag),
                Err(TryRecvError::Closed) => break,
                // No producer is mid-push here, so Empty cannot occur once
                // the channel is closed.
                Err(TryRecvError::Empty) => prop_assert!(false, "Empty after close"),
            }
        }

        // Exactly once and in order: each producer's stream is its
        // accepted sends, verbatim.
        for p in 0..producers {
            prop_assert_eq!(
                &received[p], &accepted[p],
                "producer {} events lost, duplicated or reordered", p
            );
        }
    }
}

/// Size classes used by the classed-allocator property tests. Chosen so
/// `ops_strategy`'s requests produce a mix of class hits (requests
/// rounding to exactly 64, 192 or 640) and first-fit allocations
/// (everything else).
const CLASS_SIZES: [usize; 3] = [64, 192, 640];

proptest! {
    /// The allocator never hands out overlapping ranges whether a
    /// request is a class hit or a first-fit allocation, bytes are
    /// conserved exactly (`used_bytes` is the sum of the live blocks'
    /// 64-rounded sizes at every step), and after freeing everything the
    /// class queues drain back into the free list and coalesce to one
    /// hole of full capacity.
    #[test]
    fn classed_allocator_disjoint_and_coalesces_on_drain(ops in ops_strategy()) {
        let capacity = 1 << 16;
        let seg = SharedSegment::with_classes(capacity, &CLASS_SIZES).unwrap();
        let mut live: Vec<Block> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = seg.allocate(size) {
                        let (s, e) = (b.offset(), b.offset() + b.len());
                        for other in &live {
                            let (os, oe) = (other.offset(), other.offset() + other.len());
                            prop_assert!(e <= os || oe <= s,
                                "overlap: [{s},{e}) vs [{os},{oe})");
                        }
                        live.push(b);
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        live.swap_remove(idx);
                    }
                }
            }
            let expected: usize = live.iter().map(|b| b.len().div_ceil(64) * 64).sum();
            prop_assert_eq!(seg.used_bytes(), expected,
                "conservation broken with {} live blocks", live.len());
        }
        drop(live);
        prop_assert_eq!(seg.used_bytes(), 0);
        prop_assert_eq!(seg.largest_free_block(), seg.capacity());
    }

    /// Frozen-block data written through the classed fast path reads back
    /// intact while unrelated alloc/free churn reuses neighbouring slots.
    #[test]
    fn classed_blocks_keep_data_under_churn(vals in proptest::collection::vec(any::<u64>(), 1..24)) {
        let seg = SharedSegment::with_classes(1 << 14, &[192]).unwrap();
        let mut kept = Vec::new();
        for (i, &v) in vals.iter().enumerate() {
            let mut b = seg.allocate(192).unwrap();
            b.write_pod(&[v; 24]);
            let r = b.freeze();
            if i % 2 == 0 {
                kept.push((v, r));
            } // odd ones drop immediately → class queue → reused
        }
        for (v, r) in &kept {
            prop_assert_eq!(r.as_pod::<u64>(), &[*v; 24][..]);
        }
        drop(kept);
        prop_assert_eq!(seg.used_bytes(), 0);
    }
}
