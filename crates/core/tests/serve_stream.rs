//! End-to-end tests of the subscriber streaming tier through a live
//! `DamarisNode`: a `<serve>` element in the XML must stand up a TCP
//! endpoint beside the dedicated core, publish every completed iteration
//! to connected subscribers, and — per the lag policy — never let a slow
//! consumer stall `end_iteration` on the compute side.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use damaris_core::prelude::*;
use damaris_serve::{Subscriber, SubscriberEvent};

/// A one-client thread node serving `u` and `v`, each `width` f64s.
fn serve_config(queue_frames: u32, width: usize) -> Configuration {
    let xml = format!(
        r#"<simulation name="streamsim">
             <architecture>
               <dedicated cores="1"/>
               <clients count="1"/>
               <buffer size="4194304"/>
               <queue capacity="256"/>
               <world kind="threads"/>
               <serve listen="127.0.0.1:0" queue_frames="{queue_frames}"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="{width}"/>
               <variable name="u" layout="row"/>
               <variable name="v" layout="row"/>
             </data>
           </simulation>"#
    );
    Configuration::from_str(&xml).expect("serve config is valid")
}

fn field(var: &str, iteration: u64) -> Vec<f64> {
    let base = if var == "u" { 100.0 } else { 200.0 };
    (0..256)
        .map(|i| base + iteration as f64 * 0.5 + i as f64 * 0.125)
        .collect()
}

/// 64 KiB per block, for the stall runs: few iterations outgrow the
/// kernel's socket buffers on the silent subscriber's behalf.
const WIDE: usize = 8192;

fn wide_field(var: &str, iteration: u64) -> Vec<f64> {
    let base = if var == "u" { 100.0 } else { 200.0 };
    (0..WIDE)
        .map(|i| base + iteration as f64 * 0.5 + i as f64 * 0.125)
        .collect()
}

/// The ceiling (third field) of the kernel's `net.ipv4.{name}` triple:
/// the most a TCP socket's send (`tcp_wmem`) or receive (`tcp_rmem`)
/// buffer may grow to.
fn tcp_buffer_max(name: &str) -> usize {
    let path = format!("/proc/sys/net/ipv4/{name}");
    let triple = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    triple
        .split_whitespace()
        .nth(2)
        .and_then(|max| max.parse().ok())
        .unwrap_or_else(|| panic!("{path}: no ceiling in {triple:?}"))
}

/// Twice what the kernel's socket buffers could hold on a silent
/// subscriber's behalf: once this many bytes are published to it, its
/// 4-frame queue has certainly overflowed.
fn stall_budget() -> usize {
    2 * (tcp_buffer_max("tcp_wmem") + tcp_buffer_max("tcp_rmem"))
}

fn as_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Drain blocking events until the given iteration's ITER-END arrives,
/// collecting every DATA payload seen on the way.
fn read_until_iter_end(
    sub: &mut Subscriber,
    target: u64,
    data: &mut BTreeMap<(u64, String, u64), Vec<u8>>,
) -> u64 {
    loop {
        match sub.next_event().expect("subscriber stream stays healthy") {
            SubscriberEvent::Data {
                variable,
                iteration,
                source,
                bytes,
            } => {
                let prev = data.insert((iteration, variable, source), bytes);
                assert!(prev.is_none(), "no frame is delivered twice");
            }
            SubscriberEvent::IterationEnd { iteration, blocks } if iteration == target => {
                return blocks;
            }
            SubscriberEvent::IterationEnd { .. } => {}
            other => panic!("unexpected event before it{target} end: {other:?}"),
        }
    }
}

/// A live node with `<serve>`: the subscriber receives every iteration's
/// blocks byte-identical to what the compute core wrote, framed by
/// ITER-END boundaries, and the node reports streaming stats.
#[test]
fn live_node_streams_every_iteration_to_a_subscriber() {
    let node = DamarisNode::builder()
        .config(serve_config(64, 256))
        .clients(1)
        .build()
        .expect("node with <serve> builds");
    let addr = node.serve_addr().expect("streaming tier bound an endpoint");
    let mut sub = Subscriber::connect(addr).expect("subscriber connects");
    assert_eq!(sub.simulation(), "streamsim");
    sub.subscribe(&[]).expect("subscribe to all variables");

    let client = node.client(0).unwrap();
    let mut frames = BTreeMap::new();
    for it in 0..3u64 {
        client.write("u", it, &field("u", it)).unwrap();
        client.write("v", it, &field("v", it)).unwrap();
        client.end_iteration(it).unwrap();
        let blocks = read_until_iter_end(&mut sub, it, &mut frames);
        assert_eq!(blocks, 2, "2 variables × 1 client per iteration");
    }
    client.finalize().unwrap();

    assert_eq!(frames.len(), 3 * 2, "every block of every iteration");
    for it in 0..3u64 {
        for var in ["u", "v"] {
            let bytes = &frames[&(it, var.to_string(), 0)];
            assert_eq!(as_f64(bytes), field(var, it), "{var} it{it}");
        }
    }

    let stats = node.serve_stats().expect("serve stats exposed");
    assert_eq!(stats.iterations_published, 3);
    assert_eq!(stats.data_frames_published, 6);
    assert_eq!(stats.subscribers_connected, 1);
    assert_eq!(stats.frames_dropped, 0, "fast consumer never lags");

    // Graceful shutdown drains the connection with a BYE.
    let report = node.shutdown().expect("node shuts down");
    assert!(
        report.plugin_errors.is_empty(),
        "{:?}",
        report.plugin_errors
    );
    loop {
        match sub.next_event().expect("drain until BYE") {
            SubscriberEvent::Bye => break,
            _ => continue,
        }
    }
}

/// Satellite: slow-consumer injection. A subscriber that stops reading
/// must never stall the compute side — `end_iteration` stays fast while
/// the server drops whole iterations from the stalled queue — and once
/// the consumer resumes it gets an explicit LAG frame, then clean
/// whole-iteration delivery again.
#[test]
fn stalled_subscriber_never_stalls_end_iteration() {
    let node = DamarisNode::builder()
        .config(serve_config(4, WIDE))
        .clients(1)
        .build()
        .expect("node with <serve> builds");
    let addr = node.serve_addr().unwrap();
    let mut sub = Subscriber::connect(addr).expect("subscriber connects");
    sub.subscribe(&[]).expect("subscribe");

    // Confirm the link once, then go silent.
    let client = node.client(0).unwrap();
    client.write("u", 0, &wide_field("u", 0)).unwrap();
    client.write("v", 0, &wide_field("v", 0)).unwrap();
    client.end_iteration(0).unwrap();
    let mut warmup = BTreeMap::new();
    read_until_iter_end(&mut sub, 0, &mut warmup);

    // Wait until the dedicated core has published everything it will
    // (`publishes` is bumped after the fan-out, so the drop counters of
    // every counted publish are final).
    let published = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while node.serve_stats().unwrap().publishes < n {
            assert!(Instant::now() < deadline, "publishes did not complete");
            std::thread::sleep(Duration::from_millis(1));
        }
        node.serve_stats().unwrap()
    };

    // Stall phase: publish into a queue of 4 frames that is never read
    // until it overflows. The kernel's socket buffers absorb frames on the
    // silent subscriber's behalf first, so overflow is certain only past
    // their ceilings: publishing twice what both could hold without a
    // single drop is a failure. The publisher must stay wait-free
    // throughout: each end_iteration is bounded and the overflow turns
    // into dropped frames, not backpressure.
    let budget = stall_budget();
    let mut stalled_bytes = 0;
    let mut worst = Duration::ZERO;
    let mut it = 0u64;
    let stats = loop {
        it += 1;
        client.write("u", it, &wide_field("u", it)).unwrap();
        client.write("v", it, &wide_field("v", it)).unwrap();
        let t0 = Instant::now();
        client.end_iteration(it).unwrap();
        worst = worst.max(t0.elapsed());
        stalled_bytes += 2 * WIDE * std::mem::size_of::<f64>();
        let stats = published(it + 1);
        if stats.frames_dropped > 0 {
            break stats;
        }
        assert!(
            stalled_bytes < budget,
            "overflow must drop: {stalled_bytes} B published to a silent subscriber, got {stats:?}"
        );
    };
    assert!(
        worst < Duration::from_secs(1),
        "end_iteration stalled behind a dead subscriber: {worst:?}"
    );
    assert!(
        stats.publish_ns_max < 50_000_000,
        "publish must stay wait-free: {stats:?}"
    );

    // Resume: read while fresh iterations keep arriving. The stall left a
    // drop gap behind (closed already, or closed by the first iteration
    // that fits the queue again), so a LAG notice precedes the resumed
    // stream, and after it only whole iterations are delivered. Every
    // wait is on a protocol event: an iteration the server queued whole
    // (the drop counter did not move) is read up to its ITER-END, which
    // the stream delivers after everything queued before it; one it
    // dropped has nothing to wait for. The tiny queue may overflow again
    // while draining, so further LAG/resume cycles are legitimate.
    let mut lags: Vec<(u64, u64)> = Vec::new();
    let mut resumed: BTreeMap<(u64, String, u64), Vec<u8>> = BTreeMap::new();
    let mut ends = Vec::new();
    let mut record = |event: SubscriberEvent| match event {
        SubscriberEvent::Lag {
            dropped_frames,
            resume_iteration,
        } => lags.push((dropped_frames, resume_iteration)),
        SubscriberEvent::Data {
            variable,
            iteration,
            source,
            bytes,
        } => {
            resumed.insert((iteration, variable, source), bytes);
        }
        SubscriberEvent::IterationEnd { iteration, .. } => ends.push(iteration),
        other => panic!("unexpected event: {other:?}"),
    };
    let hang_guard = Instant::now() + Duration::from_secs(60);
    let mut delivered = 0;
    while delivered < 3 {
        assert!(Instant::now() < hang_guard, "queue never drained");
        it += 1;
        let dropped_before = node.serve_stats().unwrap().frames_dropped;
        client.write("u", it, &wide_field("u", it)).unwrap();
        client.write("v", it, &wide_field("v", it)).unwrap();
        client.end_iteration(it).unwrap();
        if published(it + 1).frames_dropped == dropped_before {
            loop {
                let event = sub.next_event().expect("stream healthy");
                let done = matches!(event, SubscriberEvent::IterationEnd { iteration, .. } if iteration == it);
                record(event);
                if done {
                    break;
                }
            }
            delivered += 1;
        } else {
            // Keep the socket drained so the server's queue can empty.
            while let Some(event) = sub.try_next().expect("stream healthy") {
                record(event);
            }
        }
    }
    client.finalize().unwrap();

    assert!(!lags.is_empty(), "LAG frame delivered on resume");
    for &(dropped, resume_at) in &lags {
        assert!(dropped > 0, "LAG carries the dropped-frame count");
        assert!(resume_at > 0, "LAG names the resumption iteration");
    }
    // Whole-iteration delivery: every iteration bounded by an ITER-END
    // has both of its variables present, byte-exact.
    for &it in &ends {
        for var in ["u", "v"] {
            let bytes = resumed
                .get(&(it, var.to_string(), 0))
                .unwrap_or_else(|| panic!("{var} missing from delivered it{it}"));
            assert_eq!(as_f64(bytes), wide_field(var, it), "{var} it{it}");
        }
    }

    let stats = node.serve_stats().unwrap();
    assert!(stats.lag_events >= 1, "{stats:?}");
    node.shutdown().expect("node shuts down");
}

// ---------------------------------------------------------------------------
// The same guarantee with the dedicated core in a process of its own
// ---------------------------------------------------------------------------

fn wait_for(path: &std::path::Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !path.exists() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The client of the process-world stall run. Files in the coordination
/// directory (named by `input`, which survives the re-exec) pace it against
/// the subscriber: `go` once the subscription is live, `resume` when the
/// stall phase is over, `done` once the subscriber has seen a LAG notice
/// and a whole iteration after it.
fn stall_sim(h: &mut Damaris<'_>, input: &[u8]) -> Vec<u8> {
    let dir = std::path::Path::new(std::str::from_utf8(input).expect("utf-8 dir"));
    let mut worst = Duration::ZERO;
    let mut dump = |h: &mut Damaris<'_>, it: u64| {
        h.write("u", it, &wide_field("u", it)).expect("write u");
        h.write("v", it, &wide_field("v", it)).expect("write v");
        let t0 = Instant::now();
        h.end_iteration(it).expect("end iteration");
        worst = worst.max(t0.elapsed());
    };
    dump(h, 0);
    wait_for(&dir.join("go"), "subscriber never confirmed the link");
    // Stall phase: nobody reads, for a whole byte budget, so the queue of
    // 4 frames overflows whatever the timing; the rest must turn into
    // dropped frames, never into a client that waits.
    let stall = stall_budget().div_ceil(2 * WIDE * std::mem::size_of::<f64>()) as u64;
    for it in 1..=stall {
        dump(h, it);
    }
    std::fs::write(dir.join("resume"), b"resume").expect("resume file");
    // Fresh iterations keep arriving while the subscriber drains: the LAG
    // notice goes out with the first one that fits the queue again.
    let mut it = stall;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("done").exists() {
        assert!(Instant::now() < deadline, "subscriber never caught up");
        it += 1;
        dump(h, it);
        std::thread::sleep(Duration::from_millis(2));
    }
    h.finalize().expect("finalize");
    let mut out = (worst.as_micros() as u64).to_le_bytes().to_vec();
    out.extend((it + 1).to_le_bytes());
    out
}

/// What the subscriber of the stall run saw after it resumed.
struct Resumed {
    lags: Vec<(u64, u64)>,
    data: BTreeMap<(u64, String, u64), Vec<u8>>,
    ends: Vec<u64>,
}

fn stalled_subscriber(dir: &std::path::Path) -> Resumed {
    let addr_file = dir.join("addr");
    wait_for(&addr_file, "server never published its address");
    // Written via tmp + rename, so a readable file is a complete one.
    let addr: std::net::SocketAddr = std::fs::read_to_string(&addr_file)
        .expect("addr file")
        .trim()
        .parse()
        .expect("addr parses");
    let mut sub = Subscriber::connect(addr).expect("subscriber connects");
    sub.subscribe(&[]).expect("subscribe");
    // Confirm the link once, then go silent.
    read_until_iter_end(&mut sub, 0, &mut BTreeMap::new());
    std::fs::write(dir.join("go"), b"go").expect("go file");
    wait_for(
        &dir.join("resume"),
        "the client never finished its stall phase",
    );

    let mut seen = Resumed {
        lags: Vec::new(),
        data: BTreeMap::new(),
        ends: Vec::new(),
    };
    let mut whole_after_lag = 0;
    loop {
        match sub.next_event().expect("stream healthy") {
            SubscriberEvent::Lag {
                dropped_frames,
                resume_iteration,
            } => {
                seen.lags.push((dropped_frames, resume_iteration));
                whole_after_lag = 0;
            }
            SubscriberEvent::Data {
                variable,
                iteration,
                source,
                bytes,
            } => {
                seen.data.insert((iteration, variable, source), bytes);
            }
            SubscriberEvent::IterationEnd { iteration, .. } => {
                seen.ends.push(iteration);
                whole_after_lag += 1;
                if !seen.lags.is_empty() && whole_after_lag == 2 {
                    std::fs::write(dir.join("done"), b"done").expect("done file");
                }
            }
            SubscriberEvent::Bye => return seen,
        }
    }
}

/// `stalled_subscriber_never_stalls_end_iteration` with the dedicated core
/// on a rank of its own: the stalled subscriber's queued frames and the
/// retained iteration pin blocks in the *client's* slice there, and the
/// client still never waits in `end_iteration` — frames are dropped with a
/// LAG notice, every iteration completes, delivery resumes whole.
#[test]
fn stalled_subscriber_never_stalls_end_iteration_in_the_process_world() {
    let dir = std::env::temp_dir().join("damaris-serve-stall");
    // Process-mode children re-execute this function from the top; only
    // the parent touches the coordination directory or subscribes.
    let is_parent = mini_mpi::World::spawn_dir().is_none();
    if is_parent {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("coordination dir");
    }
    let xml = format!(
        r#"<simulation name="streamsim">
             <architecture>
               <dedicated cores="1"/>
               <clients count="1"/>
               <buffer size="4194304"/>
               <world kind="processes"/>
               <serve listen="127.0.0.1:0" queue_frames="4" addr_file="{}/addr"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="{WIDE}"/>
               <variable name="u" layout="row"/>
               <variable name="v" layout="row"/>
             </data>
           </simulation>"#,
        dir.display()
    );
    let cfg = Configuration::from_str(&xml).expect("serve config is valid");
    let watcher = is_parent.then(|| {
        let d = dir.clone();
        std::thread::spawn(move || stalled_subscriber(&d))
    });
    let input = dir.to_str().expect("utf-8 tmpdir").as_bytes().to_vec();
    let report = Damaris::launch_test(
        cfg,
        "stalled_subscriber_never_stalls_end_iteration_in_the_process_world",
        &input,
        stall_sim,
    )
    .expect("process world succeeds");
    let seen = watcher
        .expect("parent past launch")
        .join()
        .expect("subscriber");

    let out = &report.outputs[0];
    let worst = Duration::from_micros(u64::from_le_bytes(out[..8].try_into().unwrap()));
    let iterations = u64::from_le_bytes(out[8..16].try_into().unwrap());
    assert!(
        worst < Duration::from_secs(1),
        "end_iteration stalled behind a silent subscriber: {worst:?}"
    );
    assert_eq!(
        report.iterations_completed, iterations,
        "every iteration completed, delivered or not"
    );
    assert_eq!(
        report.skipped_client_iterations, 0,
        "block mode, never full"
    );
    assert!(
        report.plugin_errors.is_empty(),
        "{:?}",
        report.plugin_errors
    );
    assert!(!seen.lags.is_empty(), "LAG frame delivered on resume");
    for &(dropped, resume_at) in &seen.lags {
        assert!(dropped > 0, "LAG carries the dropped-frame count");
        assert!(resume_at > 0, "LAG names the resumption iteration");
    }
    // Whole-iteration delivery: every iteration bounded by an ITER-END
    // has both of its variables present, byte-exact.
    for &it in &seen.ends {
        for var in ["u", "v"] {
            let bytes = seen
                .data
                .get(&(it, var.to_string(), 0))
                .unwrap_or_else(|| panic!("{var} missing from delivered it{it}"));
            assert_eq!(as_f64(bytes), wide_field(var, it), "{var} it{it}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Segment mode: every DATA_REF range is released exactly once
// ---------------------------------------------------------------------------

/// The server address a process world wrote to `<dir>/addr`.
fn serve_addr(dir: &std::path::Path) -> std::net::SocketAddr {
    let addr_file = dir.join("addr");
    wait_for(&addr_file, "server never published its address");
    // Written via tmp + rename, so a readable file is a complete one.
    std::fs::read_to_string(&addr_file)
        .expect("addr file")
        .trim()
        .parse()
        .expect("addr parses")
}

/// The client of the credit run: iteration 0, then — once both
/// subscribers confirmed it — one dump every 2 ms until the dropping
/// subscriber is gone, then three more.
fn credit_sim(h: &mut Damaris<'_>, input: &[u8]) -> Vec<u8> {
    let dir = std::path::Path::new(std::str::from_utf8(input).expect("utf-8 dir"));
    let mut worst = Duration::ZERO;
    let mut dump = |h: &mut Damaris<'_>, it: u64| {
        h.write("u", it, &wide_field("u", it)).expect("write u");
        h.write("v", it, &wide_field("v", it)).expect("write v");
        let t0 = Instant::now();
        h.end_iteration(it).expect("end iteration");
        worst = worst.max(t0.elapsed());
    };
    dump(h, 0);
    wait_for(
        &dir.join("go-dropper"),
        "dropping subscriber never confirmed",
    );
    wait_for(
        &dir.join("go-hoarder"),
        "hoarding subscriber never confirmed",
    );
    let mut it = 0;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("dropped").exists() {
        assert!(Instant::now() < deadline, "subscriber never dropped");
        it += 1;
        dump(h, it);
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..3 {
        it += 1;
        dump(h, it);
    }
    h.finalize().expect("finalize");
    let mut out = (worst.as_micros() as u64).to_le_bytes().to_vec();
    out.extend((it + 1).to_le_bytes());
    out
}

/// A segment-mode `Subscriber` that leaves mid-iteration: it confirms
/// iteration 0, then drops its socket right after the first block of a
/// later iteration, holding that block's DATA_REF unreleased.
fn dropping_subscriber(dir: &std::path::Path) {
    let mut sub = Subscriber::connect(serve_addr(dir)).expect("subscriber connects");
    assert!(sub.reads_segment(), "same host, same user: segment mode");
    sub.subscribe(&[]).expect("subscribe");
    read_until_iter_end(&mut sub, 0, &mut BTreeMap::new());
    std::fs::write(dir.join("go-dropper"), b"go").expect("go file");
    loop {
        match sub.next_event().expect("stream healthy") {
            SubscriberEvent::Data { iteration, .. } if iteration > 0 => break,
            _ => {}
        }
    }
    drop(sub);
    std::fs::write(dir.join("dropped"), b"dropped").expect("dropped file");
}

/// What the hoarding subscriber saw: LAG notices, blocks read from the
/// segment file, and the iterations it was given whole.
type Hoard = (
    Vec<(u64, u64)>,
    BTreeMap<(u64, String, u64), Vec<u8>>,
    Vec<u64>,
);

/// A raw segment-mode client that reads every frame, and every block from
/// the segment file, but never sends RELEASE.
fn hoarding_subscriber(dir: &std::path::Path) -> Hoard {
    use damaris_serve::protocol::{decode, encode_subscribe};
    use damaris_serve::Message;
    use std::io::{Read, Write};
    use std::os::unix::fs::FileExt;

    let mut conn = std::net::TcpStream::connect(serve_addr(dir)).expect("connects");
    let mut buf = Vec::new();
    let mut next = |conn: &mut std::net::TcpStream| loop {
        if let Some((msg, used)) = decode(&buf).expect("well-formed frame") {
            buf.drain(..used);
            return msg;
        }
        let mut chunk = [0u8; 4096];
        let n = conn.read(&mut chunk).expect("stream healthy");
        assert!(n > 0, "server closed without BYE");
        buf.extend_from_slice(&chunk[..n]);
    };
    let segment = match next(&mut conn) {
        Message::Hello {
            segment: Some(info),
            ..
        } => std::fs::File::open(&info.path).expect("segment file opens"),
        other => panic!("expected a segment in HELLO: {other:?}"),
    };
    conn.write_all(&encode_subscribe(&[], true).unwrap())
        .expect("subscribe");
    let (mut lags, mut data, mut ends) = (Vec::new(), BTreeMap::new(), Vec::new());
    loop {
        match next(&mut conn) {
            Message::DataRef {
                variable,
                iteration,
                source,
                offset,
                len,
            } => {
                let mut bytes = vec![0; len as usize];
                segment.read_exact_at(&mut bytes, offset).expect("pread");
                data.insert((iteration, variable, source), bytes);
            }
            Message::IterEnd { iteration, .. } => {
                if iteration == 0 {
                    std::fs::write(dir.join("go-hoarder"), b"go").expect("go file");
                }
                ends.push(iteration);
            }
            Message::Lag {
                dropped_frames,
                resume_iteration,
            } => lags.push((dropped_frames, resume_iteration)),
            Message::Bye => return (lags, data, ends),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Segment mode on the credit path, with the dedicated core in a process
/// of its own: a subscriber that drops its socket while holding an
/// unreleased DATA_REF, and one that reads on but never releases, pin at
/// most their queues' worth of blocks. The client never waits, every
/// iteration completes, every range is released exactly once (no view is
/// left alive), and the hoarder is told of its drop gap with a LAG after
/// the whole iterations it did get.
#[test]
fn unreleased_segment_frames_never_stall_the_process_world() {
    let dir = std::env::temp_dir().join("damaris-serve-credit");
    // Process-mode children re-execute this function from the top; only
    // the parent touches the coordination directory or subscribes.
    let is_parent = mini_mpi::World::spawn_dir().is_none();
    if is_parent {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("coordination dir");
    }
    let xml = format!(
        r#"<simulation name="streamsim">
             <architecture>
               <dedicated cores="1"/>
               <clients count="1"/>
               <buffer size="4194304"/>
               <world kind="processes"/>
               <skip mode="block"/>
               <serve listen="127.0.0.1:0" queue_frames="8" addr_file="{}/addr"/>
             </architecture>
             <data>
               <layout name="row" type="f64" dimensions="{WIDE}"/>
               <variable name="u" layout="row"/>
               <variable name="v" layout="row"/>
             </data>
           </simulation>"#,
        dir.display()
    );
    let cfg = Configuration::from_str(&xml).expect("serve config is valid");
    let watchers = is_parent.then(|| {
        let (d1, d2) = (dir.clone(), dir.clone());
        (
            std::thread::spawn(move || dropping_subscriber(&d1)),
            std::thread::spawn(move || hoarding_subscriber(&d2)),
        )
    });
    let input = dir.to_str().expect("utf-8 tmpdir").as_bytes().to_vec();
    let report = Damaris::launch_test(
        cfg,
        "unreleased_segment_frames_never_stall_the_process_world",
        &input,
        credit_sim,
    )
    .expect("process world succeeds");
    let (dropper, hoarder) = watchers.expect("parent past launch");
    dropper.join().expect("dropping subscriber");
    let (lags, data, ends) = hoarder.join().expect("hoarding subscriber");

    let out = &report.outputs[0];
    let worst = Duration::from_micros(u64::from_le_bytes(out[..8].try_into().unwrap()));
    let iterations = u64::from_le_bytes(out[8..16].try_into().unwrap());
    assert!(
        worst < Duration::from_secs(1),
        "end_iteration stalled behind an unreleased subscriber: {worst:?}"
    );
    assert_eq!(report.iterations_completed, iterations);
    assert_eq!(
        report.skipped_client_iterations, 0,
        "block mode, never full"
    );
    assert!(
        report.plugin_errors.is_empty(),
        "{:?}",
        report.plugin_errors
    );
    // Eight frames hold three iterations of two DATA_REFs; the fourth
    // does not fit, and none ever will again.
    assert_eq!(ends, [0, 1, 2], "whole iterations until the credit ran out");
    assert!(iterations > 4, "{iterations}");
    assert_eq!(lags.len(), 1, "one drop gap, closed before BYE: {lags:?}");
    assert!(lags[0].0 > 0 && lags[0].1 >= iterations, "{lags:?}");
    for &it in &ends {
        for var in ["u", "v"] {
            let bytes = data
                .get(&(it, var.to_string(), 0))
                .unwrap_or_else(|| panic!("{var} missing from delivered it{it}"));
            assert_eq!(as_f64(bytes), wide_field(var, it), "{var} it{it}");
        }
    }
    assert_eq!(
        data.len(),
        2 * ends.len(),
        "no block outside a whole iteration"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `<serve>` the tier stays dark: no listener, no stats.
#[test]
fn node_without_serve_exposes_no_streaming_endpoint() {
    let xml = r#"<simulation name="dark">
         <architecture>
           <dedicated cores="1"/>
           <buffer size="1048576"/>
           <queue capacity="64"/>
         </architecture>
         <data>
           <layout name="row" type="f64" dimensions="16"/>
           <variable name="u" layout="row"/>
         </data>
       </simulation>"#;
    let node = DamarisNode::builder()
        .config_str(xml)
        .unwrap()
        .clients(1)
        .build()
        .unwrap();
    assert!(node.serve_addr().is_none());
    assert!(node.serve_stats().is_none());
    node.client(0).unwrap().finalize().unwrap();
    node.shutdown().unwrap();
}
