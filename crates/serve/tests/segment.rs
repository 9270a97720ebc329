//! Segment mode: a server bound over a shared segment file sends blocks
//! that lie in it as DATA_REF descriptors to subscribers that opened the
//! same file, and pins each block until the subscriber's RELEASE; every
//! other block, and every other subscriber, still gets the bytes inline.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use damaris_serve::protocol::{decode, encode_release, encode_subscribe};
use damaris_serve::{
    Message, Payload, PublishBlock, ServeOptions, StreamServer, Subscriber, SubscriberEvent,
};
use damaris_shm::{SharedSegment, ShmFile};

const BLOCK: usize = 256 << 10;

fn opts(queue_frames: usize) -> ServeOptions {
    ServeOptions {
        queue_frames,
        simulation: "segment-test".to_string(),
        ..ServeOptions::default()
    }
}

/// A segment file and a writer's allocator over all of it.
fn segment_file(tag: &str) -> (Arc<ShmFile>, SharedSegment) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("damaris-serve-{tag}-{}.shm", std::process::id()));
    let shm = Arc::new(ShmFile::create(&path, 8 << 20).unwrap());
    let seg = SharedSegment::over_mapping(&shm, 0, 8 << 20, &[]).unwrap();
    (shm, seg)
}

fn shm_block(seg: &SharedSegment, var: &str, fill: u8) -> PublishBlock {
    let mut b = seg.allocate(BLOCK).unwrap();
    b.as_mut_slice().fill(fill);
    PublishBlock {
        variable: var.to_string(),
        source: 0,
        payload: Payload::Shm(b.freeze()),
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A raw connection that decodes frames with the protocol module.
struct Raw {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl Raw {
    fn connect(server: &StreamServer) -> (Raw, Message) {
        let mut raw = Raw {
            conn: TcpStream::connect(server.local_addr()).unwrap(),
            buf: Vec::new(),
        };
        let hello = raw.next();
        (raw, hello)
    }

    fn next(&mut self) -> Message {
        loop {
            if let Some((msg, used)) = decode(&self.buf).unwrap() {
                self.buf.drain(..used);
                return msg;
            }
            let mut chunk = [0u8; 4096];
            let n = self.conn.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed the stream");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn send(&mut self, frame: &[u8]) {
        self.conn.write_all(frame).unwrap();
    }
}

#[test]
fn same_host_subscriber_reads_blocks_from_the_segment_file() {
    let (shm, seg) = segment_file("read");
    let heap = SharedSegment::new(1 << 20).unwrap();
    let server = StreamServer::bind_over(opts(64), Some(Arc::clone(&shm))).unwrap();
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    assert!(sub.reads_segment(), "same host, same user: segment mode");
    sub.subscribe(&[]).unwrap();

    const SMALL: usize = 1 << 10;
    for it in 0..5u64 {
        let fill = it as u8 + 1;
        // Only the first block lies in the advertised file; the heap view
        // and the owned bytes must go inline whatever their offsets.
        let mut h = heap.allocate(SMALL).unwrap();
        h.as_mut_slice().fill(fill + 100);
        server.publish(
            it,
            vec![
                shm_block(&seg, "file", fill),
                PublishBlock {
                    variable: "heap".into(),
                    source: 0,
                    payload: Payload::Shm(h.freeze()),
                },
                PublishBlock {
                    variable: "owned".into(),
                    source: 0,
                    payload: Payload::Owned(Arc::new(vec![fill + 200; SMALL])),
                },
            ],
        );
        let mut seen = Vec::new();
        loop {
            match sub.next_event().unwrap() {
                SubscriberEvent::Data {
                    variable, bytes, ..
                } => seen.push((variable, bytes)),
                SubscriberEvent::IterationEnd { iteration, blocks } => {
                    assert_eq!((iteration, blocks), (it, 3));
                    break;
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            seen,
            vec![
                ("file".to_string(), vec![fill; BLOCK]),
                ("heap".to_string(), vec![fill + 100; SMALL]),
                ("owned".to_string(), vec![fill + 200; SMALL]),
            ]
        );
    }
    // The file blocks never crossed the socket.
    let sent = server.stats().bytes_sent as usize;
    assert!(sent < BLOCK, "{sent} bytes on the socket");
    // Released at each ITER_END: only the retained iteration holds a block.
    wait_until("released blocks return to the writer", || {
        seg.used_bytes() == BLOCK
    });
    server.shutdown(Duration::from_secs(5));
    assert_eq!(seg.used_bytes(), 0);
    match sub.next_event().unwrap() {
        SubscriberEvent::Bye => {}
        other => panic!("{other:?}"),
    }
}

/// A written DATA_REF pins its block until a RELEASE covers its
/// iteration; queued plus unreleased frames count against `queue_frames`,
/// so a subscriber that stops releasing is dropped whole iterations with
/// a LAG, and its disconnect releases what it held.
#[test]
fn unreleased_frames_pin_blocks_and_count_against_the_queue() {
    let (shm, seg) = segment_file("credit");
    let server = StreamServer::bind_over(opts(4), Some(Arc::clone(&shm))).unwrap();
    let (mut raw, hello) = Raw::connect(&server);
    match hello {
        Message::Hello {
            segment: Some(info),
            ..
        } => assert_eq!(info.len, shm.len() as u64),
        other => panic!("expected a segment in HELLO: {other:?}"),
    }
    raw.send(&encode_subscribe(&[], true).unwrap());

    let read_iteration = |raw: &mut Raw, it: u64| {
        match raw.next() {
            Message::DataRef {
                iteration,
                offset,
                len,
                ..
            } => {
                assert_eq!((iteration, len), (it, BLOCK as u64));
                let bytes = shm.read_at(offset as usize, len as usize);
                assert!(bytes.iter().all(|&b| b == it as u8));
            }
            other => panic!("expected DATA_REF of it{it}: {other:?}"),
        }
        assert!(matches!(raw.next(), Message::IterEnd { iteration, .. } if iteration == it));
    };
    // Iterations 0..=2 leave three unreleased frames: one slot of four.
    for it in 0..=2u64 {
        server.publish(it, vec![shm_block(&seg, "u", it as u8)]);
        read_iteration(&mut raw, it);
    }
    wait_until("written refs move to the unreleased list", || {
        server.stats().frames_sent == 7
    });
    // Iteration 3 needs two slots (DATA_REF + ITER_END): dropped whole.
    server.publish(3, vec![shm_block(&seg, "u", 3)]);
    assert_eq!(server.stats().frames_dropped, 1);
    assert_eq!(seg.used_bytes(), 4 * BLOCK, "0..=2 pinned, 3 retained");

    // A cumulative release frees 0 and 1, and room for iteration 4.
    raw.send(&encode_release(1));
    wait_until("RELEASE(1) unpins iterations 0 and 1", || {
        seg.used_bytes() == 2 * BLOCK
    });
    server.publish(4, vec![shm_block(&seg, "u", 4)]);
    assert!(matches!(
        raw.next(),
        Message::Lag {
            dropped_frames: 1,
            resume_iteration: 4
        }
    ));
    read_iteration(&mut raw, 4);

    // Disconnecting releases everything still held; only the retained
    // iteration is left.
    drop(raw);
    wait_until("a closed subscriber releases its frames", || {
        seg.used_bytes() == BLOCK
    });
    server.shutdown(Duration::from_secs(5));
    assert_eq!(seg.used_bytes(), 0);
}

/// Segment mode is granted only by a server that advertised a segment:
/// without one, a subscriber asking for it still gets every byte inline.
#[test]
fn segment_mode_needs_an_advertised_segment() {
    let (_shm, seg) = segment_file("plain");
    let server = StreamServer::bind(opts(16)).unwrap();
    let (mut raw, hello) = Raw::connect(&server);
    assert!(matches!(hello, Message::Hello { segment: None, .. }));
    raw.send(&encode_subscribe(&[], true).unwrap());
    // Iteration 0 arrives live or as the catch-up snapshot, either way
    // inline.
    server.publish(0, vec![shm_block(&seg, "u", 9)]);
    match raw.next() {
        Message::Data { bytes, .. } => assert_eq!(bytes, vec![9; BLOCK]),
        other => panic!("expected inline DATA: {other:?}"),
    }
    assert!(matches!(raw.next(), Message::IterEnd { iteration: 0, .. }));
    let sub = Subscriber::connect(server.local_addr()).unwrap();
    assert!(!sub.reads_segment());
    server.shutdown(Duration::from_secs(5));
}
