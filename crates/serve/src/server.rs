//! The streaming server: a nonblocking TCP fan-out beside the dedicated
//! core.
//!
//! One poll thread owns every socket (no external async runtime — sockets
//! are `set_nonblocking(true)` and the loop makes a pass over accept /
//! read / write, then blocks in `poll(2)` until the listener, a
//! subscriber socket or the wake eventfd is ready; it never sleeps and
//! never times out). The publisher — the dedicated core's plugin, at
//! iteration completion — never touches a socket: it
//! encodes each block once into an `Arc<Frame>` and appends the arcs to
//! per-subscriber bounded queues, so the publish path is a handful of
//! refcount bumps and queue pushes regardless of subscriber count, plus
//! one eventfd write to wake the poll thread.
//!
//! **Lag policy.** The publisher never blocks. A subscriber whose queue
//! cannot take a whole iteration gets none of it: the iteration is
//! dropped for that subscriber, and once space frees up a LAG frame
//! (dropped frame count + resume iteration) precedes the next delivered
//! iteration. Iterations are therefore delivered whole or not at all —
//! `drop-to-latest`, never `block-publisher`.
//!
//! **Catch-up.** The most recent published iteration is retained (the
//! frames hold [`Payload::Shm`] clones, i.e. the bytes stay in the shared
//! segment); a subscriber that joins late receives it as a snapshot
//! before the live stream.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::{decode_control, Frame, Message, Payload};
use crate::sys::{self, EventFd, PollFd, POLLIN, POLLOUT};

/// Server configuration (the `<serve>` XML element, decoupled from the
/// configuration crate).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, `addr:port` (port 0 = ephemeral).
    pub listen: String,
    /// Per-subscriber bounded send queue, in frames (≥ 1).
    pub queue_frames: usize,
    /// Simulation name sent in HELLO.
    pub simulation: String,
    /// When set, the bound address is written here (write + rename, so
    /// readers never observe a partial file) — ephemeral-port discovery
    /// for dashboards and tests.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".to_string(),
            queue_frames: 256,
            simulation: String::new(),
            addr_file: None,
        }
    }
}

/// One block handed to [`StreamServer::publish`].
#[derive(Debug)]
pub struct PublishBlock {
    /// Variable name (what subscribers filter on).
    pub variable: String,
    /// Writing client rank, 0-based.
    pub source: u64,
    /// Block bytes (zero-copy shm view or owned copy).
    pub payload: Payload,
}

/// Counter snapshot; see [`StreamServer::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub subscribers_connected: u64,
    /// Currently connected subscribers.
    pub subscribers_current: u64,
    /// High-water mark of concurrent subscribers.
    pub subscribers_peak: u64,
    /// Iterations published.
    pub iterations_published: u64,
    /// DATA frames built by the publisher (per iteration, not per
    /// subscriber).
    pub data_frames_published: u64,
    /// Frames fully written to sockets (all kinds, summed over
    /// subscribers).
    pub frames_sent: u64,
    /// Bytes written to sockets.
    pub bytes_sent: u64,
    /// LAG frames delivered (one per drop gap per subscriber).
    pub lag_events: u64,
    /// DATA frames dropped by the lag policy (summed over subscribers).
    pub frames_dropped: u64,
    /// Snapshot catch-ups served to late joiners.
    pub snapshots_served: u64,
    /// Publish calls.
    pub publishes: u64,
    /// Total nanoseconds spent inside `publish` — the dedicated core's
    /// event path pays exactly this, sockets pay the rest.
    pub publish_ns_total: u64,
    /// Worst single `publish` call in nanoseconds (the bound the
    /// slow-consumer test asserts on).
    pub publish_ns_max: u64,
    /// Times the poll thread blocked in `poll(2)`, once at the end of
    /// every pass over the sockets; an idle server adds none.
    pub poll_waits: u64,
}

#[derive(Default)]
struct StatsInner {
    subscribers_connected: AtomicU64,
    subscribers_current: AtomicU64,
    subscribers_peak: AtomicU64,
    iterations_published: AtomicU64,
    data_frames_published: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    lag_events: AtomicU64,
    frames_dropped: AtomicU64,
    snapshots_served: AtomicU64,
    publishes: AtomicU64,
    publish_ns_total: AtomicU64,
    publish_ns_max: AtomicU64,
    poll_waits: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServeStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServeStats {
            subscribers_connected: ld(&self.subscribers_connected),
            subscribers_current: ld(&self.subscribers_current),
            subscribers_peak: ld(&self.subscribers_peak),
            iterations_published: ld(&self.iterations_published),
            data_frames_published: ld(&self.data_frames_published),
            frames_sent: ld(&self.frames_sent),
            bytes_sent: ld(&self.bytes_sent),
            lag_events: ld(&self.lag_events),
            frames_dropped: ld(&self.frames_dropped),
            snapshots_served: ld(&self.snapshots_served),
            publishes: ld(&self.publishes),
            publish_ns_total: ld(&self.publish_ns_total),
            publish_ns_max: ld(&self.publish_ns_max),
            poll_waits: ld(&self.poll_waits),
        }
    }
}

/// A published DATA frame plus the variable name subscribers filter on.
struct DataFrame {
    variable: String,
    frame: Arc<Frame>,
}

/// One published iteration, kept for snapshot catch-up.
struct Publication {
    iteration: u64,
    data: Vec<DataFrame>,
    end: Arc<Frame>,
}

/// Per-subscriber state, shared between the poll thread (drains the
/// queue into the socket) and the publisher (fills it).
#[derive(Default)]
struct SubState {
    /// Encoded frames awaiting transmission, oldest first.
    queue: VecDeque<Arc<Frame>>,
    /// Bytes of `queue.front()` already written (partial writes).
    write_pos: usize,
    /// `None` until SUBSCRIBE arrives; `Some(empty)` = every variable.
    vars: Option<Vec<String>>,
    /// Highest iteration already offered to this subscriber (enqueued
    /// *or* dropped). Closes the catch-up/live race: the SUBSCRIBE
    /// handler and the publisher may both see the same publication, and
    /// exactly one of them wins.
    last_iter: Option<u64>,
    /// DATA frames dropped since the last LAG frame was queued.
    dropped: u64,
    /// In a drop gap: the next delivered iteration is preceded by LAG.
    lagging: bool,
    /// Socket gone (error / BYE / EOF); the poll thread reaps it.
    closed: bool,
}

impl SubState {
    fn wants(&self, variable: &str) -> bool {
        match &self.vars {
            None => false,
            Some(v) if v.is_empty() => true,
            Some(v) => v.iter().any(|w| w == variable),
        }
    }
}

struct Inner {
    stats: StatsInner,
    /// Live subscriber states; the poll thread owns the sockets.
    subs: Mutex<Vec<Arc<Mutex<SubState>>>>,
    /// Most recent published iteration, for catch-up.
    latest: Mutex<Option<Arc<Publication>>>,
    queue_frames: usize,
    simulation: String,
    closing: AtomicBool,
    /// Readable while a `publish` or `shutdown` waits for the poll thread.
    /// A counter, so a write is never lost: the poll thread drains it at
    /// the top of every pass, before it looks at the queues.
    wake: EventFd,
}

impl Inner {
    /// Queue one whole iteration onto a subscriber, or none of it.
    fn enqueue(&self, s: &mut SubState, publication: &Publication) -> bool {
        if s.last_iter
            .is_some_and(|last| publication.iteration <= last)
        {
            return false;
        }
        s.last_iter = Some(publication.iteration);
        let wanted: Vec<&Arc<Frame>> = publication
            .data
            .iter()
            .filter(|d| s.wants(&d.variable))
            .map(|d| &d.frame)
            .collect();
        let need = wanted.len() + 1 + usize::from(s.lagging);
        if self.queue_frames.saturating_sub(s.queue.len()) < need {
            // Whole-iteration drop: the subscriber either sees an
            // iteration completely or not at all.
            s.lagging = true;
            s.dropped += wanted.len() as u64;
            self.stats
                .frames_dropped
                .fetch_add(wanted.len() as u64, Ordering::Relaxed);
            return false;
        }
        if s.lagging {
            s.queue
                .push_back(Arc::new(Frame::lag(s.dropped, publication.iteration)));
            s.lagging = false;
            s.dropped = 0;
            self.stats.lag_events.fetch_add(1, Ordering::Relaxed);
        }
        for f in wanted {
            s.queue.push_back(Arc::clone(f));
        }
        s.queue.push_back(Arc::clone(&publication.end));
        true
    }
}

/// The subscriber-facing streaming server. See the module docs for the
/// threading model and lag policy.
pub struct StreamServer {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    /// The poll thread and a channel whose sender it drops on exit.
    poll: Mutex<Option<(JoinHandle<()>, mpsc::Receiver<()>)>>,
}

impl StreamServer {
    /// Bind, write the `addr_file` if configured, and start the poll
    /// thread.
    pub fn bind(opts: ServeOptions) -> io::Result<StreamServer> {
        let listener = TcpListener::bind(&opts.listen)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        if let Some(path) = &opts.addr_file {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{local_addr}\n"))?;
            std::fs::rename(&tmp, path)?;
        }
        let inner = Arc::new(Inner {
            stats: StatsInner::default(),
            subs: Mutex::new(Vec::new()),
            latest: Mutex::new(None),
            queue_frames: opts.queue_frames.max(1),
            simulation: opts.simulation.clone(),
            closing: AtomicBool::new(false),
            wake: EventFd::new()?,
        });
        let poll_inner = Arc::clone(&inner);
        let (exited, exit_rx) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("damaris-serve".to_string())
            .spawn(move || poll_loop(poll_inner, listener, exited))?;
        Ok(StreamServer {
            inner,
            local_addr,
            poll: Mutex::new(Some((handle, exit_rx))),
        })
    }

    /// The bound address (resolves `listen="…:0"` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.stats.snapshot()
    }

    /// Publish one completed iteration to every subscriber.
    ///
    /// Runs on the dedicated core's event path: it encodes each block
    /// header once, retains the iteration for catch-up, and appends arcs
    /// to subscriber queues — no socket I/O, no blocking, bounded work —
    /// then wakes the poll thread with one eventfd write.
    pub fn publish(&self, iteration: u64, blocks: Vec<PublishBlock>) {
        let start = Instant::now();
        let data: Vec<DataFrame> = blocks
            .into_iter()
            .map(|b| DataFrame {
                frame: Arc::new(Frame::data(&b.variable, iteration, b.source, b.payload)),
                variable: b.variable,
            })
            .collect();
        let publication = Arc::new(Publication {
            iteration,
            end: Arc::new(Frame::iter_end(iteration, data.len() as u64)),
            data,
        });
        let st = &self.inner.stats;
        st.iterations_published.fetch_add(1, Ordering::Relaxed);
        st.data_frames_published
            .fetch_add(publication.data.len() as u64, Ordering::Relaxed);
        // Retain for late joiners, then fan out. Subscribers are locked
        // one at a time; each enqueue is refcount bumps + queue pushes.
        *self.inner.latest.lock() = Some(Arc::clone(&publication));
        let subs: Vec<_> = self.inner.subs.lock().clone();
        let mut queued = false;
        for sub in subs {
            let mut s = sub.lock();
            if !s.closed && s.vars.is_some() {
                queued |= self.inner.enqueue(&mut s, &publication);
            }
        }
        if queued {
            self.inner.wake.signal();
        }
        let ns = start.elapsed().as_nanos() as u64;
        st.publishes.fetch_add(1, Ordering::Relaxed);
        st.publish_ns_total.fetch_add(ns, Ordering::Relaxed);
        st.publish_ns_max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Stop serving: queue BYE to every subscriber, give the poll thread
    /// until `drain` to flush, then close everything and join. Idempotent.
    pub fn shutdown(&self, drain: Duration) {
        let Some((handle, exited)) = self.poll.lock().take() else {
            return;
        };
        // Queue a BYE for every live subscriber; the poll thread keeps
        // draining until queues are empty or the deadline passes.
        {
            let subs = self.inner.subs.lock();
            for sub in subs.iter() {
                let mut s = sub.lock();
                if !s.closed {
                    s.queue.push_back(Arc::new(Frame::bye()));
                }
            }
        }
        self.inner.closing.store(true, Ordering::Release);
        self.inner.wake.signal();
        // The poll thread exits once drained, dropping its sender; enforce
        // the deadline here so a wedged consumer cannot hold shutdown
        // hostage.
        let _ = exited.recv_timeout(drain);
        for sub in self.inner.subs.lock().iter() {
            sub.lock().closed = true;
        }
        // Wake it again, unconditionally: blocked on a wedged subscriber's
        // POLLOUT, it would otherwise never see the force-close.
        self.inner.wake.signal();
        let _ = handle.join();
        // Release the retained iteration and whatever a wedged consumer
        // never took (and with them their shm references).
        for sub in self.inner.subs.lock().iter() {
            sub.lock().queue.clear();
        }
        *self.inner.latest.lock() = None;
    }
}

impl Drop for StreamServer {
    fn drop(&mut self) {
        self.shutdown(Duration::from_millis(200));
    }
}

/// How long the poll thread waits before retrying an `accept` that failed
/// for want of descriptors. Nothing else would wake it when no subscriber
/// is connected, and the peer waiting in the backlog blocks on its HELLO.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// One connection as seen by the poll thread.
struct Conn {
    stream: TcpStream,
    state: Arc<Mutex<SubState>>,
    read_buf: Vec<u8>,
    /// Frames were left queued because the socket was full: wait for
    /// POLLOUT as well as POLLIN.
    backlogged: bool,
}

/// The poll thread. `_exited` is dropped when it returns, which is what
/// `shutdown` waits for.
fn poll_loop(inner: Arc<Inner>, listener: TcpListener, _exited: mpsc::Sender<()>) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        // Drain before looking at the queues: a publish after this point
        // leaves the eventfd readable, so the wait below returns at once.
        inner.wake.drain();
        let closing = inner.closing.load(Ordering::Acquire);
        // A hard accept error (out of descriptors) leaves the listener
        // readable, so this pass waits without it, for at most
        // ACCEPT_RETRY, and the next pass retries the accept.
        let mut accept_failed = false;

        // Accept every pending connection (unless shutting down).
        if !closing {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let state = Arc::new(Mutex::new(SubState::default()));
                        state
                            .lock()
                            .queue
                            .push_back(Arc::new(Frame::hello(&inner.simulation)));
                        inner.subs.lock().push(Arc::clone(&state));
                        let st = &inner.stats;
                        st.subscribers_connected.fetch_add(1, Ordering::Relaxed);
                        let now = st.subscribers_current.fetch_add(1, Ordering::Relaxed) + 1;
                        st.subscribers_peak.fetch_max(now, Ordering::Relaxed);
                        conns.push(Conn {
                            stream,
                            state,
                            read_buf: Vec::new(),
                            backlogged: false,
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => {
                        accept_failed = true;
                        break;
                    }
                }
            }
        }

        for conn in &mut conns {
            if conn.state.lock().closed {
                continue;
            }
            match service_conn(&inner, conn, closing) {
                Ok(backlogged) => conn.backlogged = backlogged,
                Err(_) => conn.state.lock().closed = true,
            }
        }

        // Reap closed connections.
        let before = conns.len();
        conns.retain(|c| !c.state.lock().closed);
        if conns.len() != before {
            let gone = (before - conns.len()) as u64;
            inner
                .stats
                .subscribers_current
                .fetch_sub(gone, Ordering::Relaxed);
            inner.subs.lock().retain(|s| !s.lock().closed);
        }

        if closing && !conns.iter().any(|c| c.backlogged) {
            break; // drained, or force-closed by shutdown's deadline
        }

        // Block until there is work: a connection to accept, bytes from a
        // subscriber, room in a backlogged socket, or a wake-up.
        fds.clear();
        fds.push(PollFd::new(&inner.wake, POLLIN));
        if !closing && !accept_failed {
            fds.push(PollFd::new(&listener, POLLIN));
        }
        for c in &conns {
            let events = if c.backlogged {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            fds.push(PollFd::new(&c.stream, events));
        }
        inner.stats.poll_waits.fetch_add(1, Ordering::Relaxed);
        let timeout = accept_failed.then_some(ACCEPT_RETRY);
        if sys::wait(&mut fds, timeout).is_err() {
            // poll(2) fails only on a bad argument or exhausted kernel
            // memory; nothing this thread can repair, so stop serving.
            break;
        }
    }
    for c in &conns {
        c.state.lock().closed = true;
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
    }
    inner.stats.subscribers_current.store(0, Ordering::Relaxed);
}

/// Read what the peer sent, then write what we owe it. Returns whether
/// frames are still queued because the socket is full; `Err` closes the
/// connection.
fn service_conn(inner: &Inner, conn: &mut Conn, closing: bool) -> io::Result<bool> {
    // Inbound: SUBSCRIBE / BYE, decoded after every chunk so `read_buf`
    // never holds more than one control frame and one chunk.
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // Peer closed its end. Anything still queued is moot.
                conn.state.lock().closed = true;
                return Ok(false);
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                if !handle_inbound(inner, conn, closing)? {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }

    // Outbound: drain the frame queue as far as the socket allows.
    let mut s = conn.state.lock();
    'frames: while let Some(frame) = s.queue.front().cloned() {
        let header = frame.header_bytes();
        let payload = frame.payload_bytes();
        let total = header.len() + payload.len();
        while s.write_pos < total {
            let (src, off) = if s.write_pos < header.len() {
                (header, s.write_pos)
            } else {
                (payload, s.write_pos - header.len())
            };
            match conn.stream.write(&src[off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    s.write_pos += n;
                    inner
                        .stats
                        .bytes_sent
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break 'frames,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        s.queue.pop_front();
        s.write_pos = 0;
        inner.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    }
    Ok(!s.queue.is_empty())
}

/// Act on every whole control frame in `read_buf`. Returns `false` once
/// the peer said BYE. A frame of another kind, or one claiming more than
/// `MAX_CONTROL_FRAME` bytes, is refused as soon as its first five bytes
/// are in.
fn handle_inbound(inner: &Inner, conn: &mut Conn, closing: bool) -> io::Result<bool> {
    let mut consumed = 0;
    while let Some((msg, used)) = decode_control(&conn.read_buf[consumed..])? {
        consumed += used;
        match msg {
            Message::Subscribe { vars } => {
                let mut s = conn.state.lock();
                s.vars = Some(vars);
                // Snapshot catch-up: the latest completed iteration,
                // queued ahead of any live publication (unless we are
                // already shutting down).
                if !closing {
                    let latest = inner.latest.lock().clone();
                    if let Some(publication) = latest {
                        if inner.enqueue(&mut s, &publication) {
                            inner.stats.snapshots_served.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Message::Bye => {
                conn.state.lock().closed = true;
                return Ok(false);
            }
            // `decode_control` refuses every other kind first.
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected frame from subscriber",
                ))
            }
        }
    }
    conn.read_buf.drain(..consumed);
    Ok(true)
}
