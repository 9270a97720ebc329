//! End-to-end tests of the streaming server against the client library:
//! live fan-out, snapshot catch-up, variable filtering, the lag policy
//! under a stalled consumer, the poll thread's readiness wait, and the
//! refusal of hostile subscriber frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use damaris_serve::{
    Payload, PublishBlock, ServeOptions, StreamServer, Subscriber, SubscriberEvent,
};

fn opts(queue_frames: usize) -> ServeOptions {
    ServeOptions {
        listen: "127.0.0.1:0".to_string(),
        queue_frames,
        simulation: "stream-test".to_string(),
        addr_file: None,
    }
}

fn owned(bytes: Vec<u8>) -> Payload {
    Payload::Owned(Arc::new(bytes))
}

fn block(var: &str, source: u64, bytes: Vec<u8>) -> PublishBlock {
    PublishBlock {
        variable: var.to_string(),
        source,
        payload: owned(bytes),
    }
}

/// A server with one subscriber whose subscription is registered: it has
/// received iteration 0.
fn subscribed_pair() -> (StreamServer, Subscriber) {
    let server = StreamServer::bind(opts(64)).unwrap();
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    sub.subscribe(&[]).unwrap();
    server.publish(0, vec![block("u", 0, vec![0; 16])]);
    let _ = read_iteration(&mut sub, 0);
    (server, sub)
}

/// Read events until (and including) the given iteration's boundary.
fn read_iteration(sub: &mut Subscriber, iteration: u64) -> Vec<SubscriberEvent> {
    let mut out = Vec::new();
    loop {
        let ev = sub.next_event().expect("stream alive");
        let done = matches!(
            &ev,
            SubscriberEvent::IterationEnd { iteration: it, .. } if *it == iteration
        );
        out.push(ev);
        if done {
            return out;
        }
    }
}

#[test]
fn live_stream_reaches_subscriber_and_ends_with_bye() {
    let server = StreamServer::bind(opts(64)).unwrap();
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    assert_eq!(sub.simulation(), "stream-test");
    sub.subscribe(&[]).unwrap();

    // Iteration 0 may arrive live or as catch-up, depending on when the
    // poll thread registers the subscription — either way, exactly once.
    server.publish(
        0,
        vec![block("u", 0, vec![1; 16]), block("u", 1, vec![2; 16])],
    );
    let it0 = read_iteration(&mut sub, 0);
    assert_eq!(it0.len(), 3, "two DATA + one ITER_END: {it0:?}");
    assert!(matches!(
        &it0[0],
        SubscriberEvent::Data { variable, iteration: 0, source: 0, bytes }
            if variable == "u" && bytes == &vec![1; 16]
    ));
    assert!(matches!(
        &it0[2],
        SubscriberEvent::IterationEnd {
            iteration: 0,
            blocks: 2
        }
    ));

    // Once iteration 0 arrived the subscription is registered, so later
    // iterations stream live and in order.
    server.publish(1, vec![block("u", 0, vec![3; 8])]);
    server.publish(2, vec![block("u", 0, vec![4; 8])]);
    let it1 = read_iteration(&mut sub, 1);
    assert_eq!(it1.len(), 2);
    let it2 = read_iteration(&mut sub, 2);
    assert!(matches!(
        &it2[0],
        SubscriberEvent::Data { iteration: 2, bytes, .. } if bytes == &vec![4; 8]
    ));

    let stats = server.stats();
    assert_eq!(stats.iterations_published, 3);
    assert_eq!(stats.subscribers_peak, 1);
    assert_eq!(stats.frames_dropped, 0);

    server.shutdown(Duration::from_secs(5));
    assert_eq!(sub.next_event().unwrap(), SubscriberEvent::Bye);
}

#[test]
fn late_joiner_catches_up_from_latest_snapshot_only() {
    let server = StreamServer::bind(opts(64)).unwrap();
    // Two iterations pass before anyone is listening.
    server.publish(0, vec![block("u", 0, vec![0xaa; 32])]);
    server.publish(1, vec![block("u", 0, vec![0xbb; 32])]);

    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    sub.subscribe(&[]).unwrap();
    // Catch-up is the most recent completed iteration — 1, not 0.
    let caught = read_iteration(&mut sub, 1);
    assert_eq!(caught.len(), 2);
    assert!(matches!(
        &caught[0],
        SubscriberEvent::Data { iteration: 1, bytes, .. } if bytes == &vec![0xbb; 32]
    ));

    // Then the live stream continues.
    server.publish(2, vec![block("u", 0, vec![0xcc; 32])]);
    let live = read_iteration(&mut sub, 2);
    assert!(matches!(
        &live[0],
        SubscriberEvent::Data { iteration: 2, bytes, .. } if bytes == &vec![0xcc; 32]
    ));
    assert_eq!(server.stats().snapshots_served, 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn subscription_filters_variables_but_boundaries_keep_full_counts() {
    let server = StreamServer::bind(opts(64)).unwrap();
    server.publish(
        0,
        vec![
            block("u", 0, vec![1; 8]),
            block("v", 0, vec![2; 8]),
            block("v", 1, vec![3; 8]),
        ],
    );
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    sub.subscribe(&["v"]).unwrap();
    let events = read_iteration(&mut sub, 0);
    let datas: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            SubscriberEvent::Data {
                variable, source, ..
            } => Some((variable.clone(), *source)),
            _ => None,
        })
        .collect();
    assert_eq!(datas, vec![("v".to_string(), 0), ("v".to_string(), 1)]);
    // The boundary advertises the published count, not the filtered one.
    assert!(matches!(
        events.last().unwrap(),
        SubscriberEvent::IterationEnd { blocks: 3, .. }
    ));
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn stalled_consumer_lags_and_resumes_without_blocking_publisher() {
    const BLOCK: usize = 256 << 10;
    let server = StreamServer::bind(opts(4)).unwrap();
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    sub.subscribe(&[]).unwrap();
    server.publish(0, vec![block("u", 0, vec![0; 64])]);
    let _ = read_iteration(&mut sub, 0); // subscription confirmed

    // Stop reading and bury the subscriber: far more bytes than the
    // socket buffers + 4-frame queue can hold.
    for it in 1..=80u64 {
        server.publish(it, vec![block("u", 0, vec![it as u8; BLOCK])]);
    }
    let stats = server.stats();
    assert!(
        stats.frames_dropped > 0,
        "a stalled consumer must shed load: {stats:?}"
    );
    // The lag policy promise: publish never blocks on a dead socket. A
    // blocked publisher would show seconds here, not microseconds (50 ms
    // leaves room for a noisy CI scheduler).
    assert!(
        stats.publish_ns_max < 50_000_000,
        "publish path not bounded: max {} ns",
        stats.publish_ns_max
    );

    // Resume reading while fresh iterations arrive: the stream comes
    // back with an explicit LAG, then whole iterations only.
    let mut events = Vec::new();
    for it in 81..=120u64 {
        server.publish(it, vec![block("u", 0, vec![it as u8; 1024])]);
        while let Some(ev) = sub.try_next().expect("stream alive") {
            events.push(ev);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown(Duration::from_secs(5));
    loop {
        match sub.try_next() {
            Ok(Some(SubscriberEvent::Bye)) => break,
            Ok(Some(ev)) => events.push(ev),
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => break,
        }
    }

    let lag = events
        .iter()
        .find_map(|e| match e {
            SubscriberEvent::Lag {
                dropped_frames,
                resume_iteration,
            } => Some((*dropped_frames, *resume_iteration)),
            _ => None,
        })
        .expect("an explicit LAG frame must precede the resumed stream");
    assert!(lag.0 > 0, "LAG reports what was missed");
    assert!(lag.1 > 1, "stream resumed past the dropped prefix");

    // Drop-to-latest delivers whole iterations or nothing: every DATA
    // run is terminated by its own iteration's boundary.
    let mut current: Option<u64> = None;
    for ev in &events {
        match ev {
            SubscriberEvent::Data { iteration, .. } => {
                assert!(
                    current.is_none() || current == Some(*iteration),
                    "interleaved iterations: {events:?}"
                );
                current = Some(*iteration);
            }
            SubscriberEvent::IterationEnd { iteration, .. } => {
                if let Some(cur) = current {
                    assert_eq!(cur, *iteration, "boundary closes its own iteration");
                }
                current = None;
            }
            SubscriberEvent::Lag { .. } | SubscriberEvent::Bye => {}
        }
    }
    assert!(server.stats().lag_events >= 1);
}

/// A consumer that never reads again cannot hold shutdown hostage, and
/// does not keep what it never took: once `shutdown` returns, every
/// shared-memory block its queued frames referenced is free again (in a
/// process world that is what lets the client ranks finish).
#[test]
fn wedged_consumer_at_shutdown_releases_its_frames() {
    const BLOCK: usize = 256 << 10;
    let seg = damaris_shm::SharedSegment::new(64 << 20).unwrap();
    let shm = |fill: u8| {
        let mut b = seg.allocate(BLOCK).unwrap();
        b.as_mut_slice().fill(fill);
        PublishBlock {
            variable: "u".to_string(),
            source: 0,
            payload: Payload::Shm(b.freeze()),
        }
    };
    let server = StreamServer::bind(opts(4)).unwrap();
    let mut sub = Subscriber::connect(server.local_addr()).unwrap();
    sub.subscribe(&[]).unwrap();
    server.publish(0, vec![shm(0)]);
    let _ = read_iteration(&mut sub, 0); // subscription confirmed
    for it in 1..=80u64 {
        server.publish(it, vec![shm(it as u8)]);
    }
    assert!(seg.used_bytes() > 0, "queued frames pin their blocks");
    server.shutdown(Duration::from_millis(50));
    assert_eq!(seg.used_bytes(), 0, "shutdown lets go of every block");
    drop(sub);
}

#[test]
fn data_frame_written_in_pieces_arrives_intact_through_next_event() {
    use damaris_serve::protocol::Frame;
    use std::io::Write;

    // A stand-in server: HELLO, then the same large DATA frame once per
    // list of cuts, written as pieces that end at the cuts: one cut at
    // every byte of the fixed part, then the fixed part one byte at a time.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let payload: Vec<u8> = (0..(1u32 << 20) + 17).map(|i| (i % 253) as u8).collect();
    let frame = Frame::data("u", 3, 1, owned(payload.clone()));
    let fixed_len = frame.header_bytes().len();
    let mut wire = frame.header_bytes().to_vec();
    wire.extend_from_slice(frame.payload_bytes());
    let cuts: Vec<Vec<usize>> = (1..=fixed_len)
        .map(|cut| vec![cut])
        .chain([(1..=fixed_len).collect()])
        .collect();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            conn.write_all(Frame::hello("pieces", None).header_bytes())
                .unwrap();
            for frame_cuts in &cuts {
                let mut from = 0;
                for &cut in frame_cuts {
                    conn.write_all(&wire[from..cut]).unwrap();
                    conn.flush().unwrap();
                    from = cut;
                }
                conn.write_all(&wire[from..]).unwrap();
            }
        });
        let mut sub = Subscriber::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(sub.simulation(), "pieces");
        for frame_cuts in &cuts {
            match sub.next_event().unwrap() {
                SubscriberEvent::Data {
                    variable,
                    iteration: 3,
                    source: 1,
                    bytes,
                } => assert!(variable == "u" && bytes == payload, "cuts {frame_cuts:?}"),
                other => panic!("cuts {frame_cuts:?}: {other:?}"),
            }
        }
        server.join().unwrap();
        let eof = sub.next_event().unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    });
}

#[test]
fn malformed_data_frames_are_refused_through_next_event() {
    use damaris_serve::protocol::{Frame, MAX_FRAME};
    use std::io::Write;

    let frame = Frame::data("u", 0, 0, owned(vec![5; 100]));
    let mut short = frame.header_bytes().to_vec();
    short.extend_from_slice(frame.payload_bytes());
    // Payload length field (the fixed part's last eight bytes) one short.
    let n_at = frame.header_bytes().len() - 8;
    short[n_at..n_at + 8].copy_from_slice(&99u64.to_le_bytes());
    // A length prefix beyond MAX_FRAME, with no body behind it.
    let mut huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    huge.push(3);
    for bad in [short, huge] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        std::thread::scope(|s| {
            let server = s.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                conn.write_all(Frame::hello("bad", None).header_bytes())
                    .unwrap();
                conn.write_all(&bad).unwrap();
                // Hold the connection open: the refusal must not wait for
                // more bytes or for end of stream.
                conn
            });
            let mut sub = Subscriber::connect(listener.local_addr().unwrap()).unwrap();
            let err = sub.next_event().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            drop(server.join().unwrap());
        });
    }
}

/// The poll thread blocks in `poll(2)` while nothing happens: an idle
/// server with a registered subscriber makes no passes (a sleep-poll at
/// 500 µs would make about 400 in this window).
#[test]
fn idle_server_does_not_wake() {
    let (server, _sub) = subscribed_pair();
    let before = server.stats().poll_waits;
    std::thread::sleep(Duration::from_millis(200));
    let waits = server.stats().poll_waits - before;
    assert!(waits <= 2, "{waits} poll waits while idle");
    server.shutdown(Duration::from_secs(5));
}

/// Every publish reaches a subscriber that is waiting for it: each of
/// 5 000 publishes lands while the poll thread is blocked or about to
/// block, and a lost wake-up leaves its frames queued forever.
#[test]
fn paced_publishes_never_lose_a_wakeup() {
    const ROUNDS: u64 = 5000;
    let (server, mut sub) = subscribed_pair();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || loop {
        match sub.next_event() {
            Ok(SubscriberEvent::IterationEnd { iteration, .. }) => {
                if tx.send(iteration).is_err() {
                    return;
                }
            }
            Ok(SubscriberEvent::Bye) | Err(_) => return,
            Ok(_) => {}
        }
    });
    // The watchdog: fail instead of hanging the suite.
    let deadline = Instant::now() + Duration::from_secs(30);
    for k in 1..=ROUNDS {
        server.publish(k, vec![block("u", 0, vec![k as u8; 64])]);
        let got = rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .unwrap_or_else(|_| {
                panic!(
                    "iteration {k} never arrived (lost wake-up?): {:?}",
                    server.stats()
                )
            });
        assert_eq!(got, k);
    }
    server.shutdown(Duration::from_secs(5));
    reader.join().unwrap();
}

#[test]
fn shutdown_with_an_idle_subscriber_returns_before_its_drain_timeout() {
    let drain = Duration::from_secs(4);
    let (server, mut sub) = subscribed_pair();
    let start = Instant::now();
    server.shutdown(drain);
    let took = start.elapsed();
    assert!(took < drain / 2, "shutdown took {took:?}");
    assert_eq!(sub.next_event().unwrap(), SubscriberEvent::Bye);
}

/// Connect a raw socket, send `bytes`, and read until the server closes
/// the connection; panics if it is still open after 10 s.
fn expect_disconnect(server: &StreamServer, bytes: &[u8]) {
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server may close (and reset) before all of it is sent.
    let _ = raw.write_all(bytes);
    let mut sink = [0u8; 4096];
    loop {
        match raw.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "connection still open 10 s after {} bytes",
                    bytes.len()
                );
                break;
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().subscribers_current != 0 {
        assert!(Instant::now() < deadline, "refused connection not reaped");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A SUBSCRIBE prefix claiming 200 MiB is refused on its prefix, not
/// buffered: the server closes the connection at once.
#[test]
fn oversized_subscribe_prefix_is_disconnected() {
    let server = StreamServer::bind(opts(64)).unwrap();
    let mut hostile = (200u32 << 20).to_le_bytes().to_vec();
    hostile.push(2); // SUBSCRIBE
    hostile.extend_from_slice(&[0xa5; 64 << 10]);
    expect_disconnect(&server, &hostile);
    assert_eq!(server.stats().subscribers_connected, 1);
    server.shutdown(Duration::from_secs(5));
}

/// A DATA frame from a subscriber is refused as soon as its kind byte
/// arrives, with the rest of the claimed frame never sent.
#[test]
fn data_frame_from_a_subscriber_is_refused_on_its_kind_byte() {
    let server = StreamServer::bind(opts(64)).unwrap();
    let mut prefix = 100u32.to_le_bytes().to_vec();
    prefix.push(3); // DATA
    expect_disconnect(&server, &prefix);
    server.shutdown(Duration::from_secs(5));
}
