//! Multi-process transport: rendezvous (shared-dir or seed-list
//! registry), framing, the reliable heartbeat mesh, and the `run_spawned`
//! process orchestration.
//!
//! ## Rendezvous
//!
//! Two bootstrap paths build the same full mesh:
//!
//! * **Shared-dir** (the default): the parent creates a temporary
//!   directory and re-executes the current binary once per rank with
//!   `MINI_MPI_{DIR,RANK,SIZE,PROGRAM,INPUT}` in the environment. Every
//!   rank binds a listener in the directory (`r<k>.sock` for UDS,
//!   `r<k>.port` holding a TCP loopback port when UDS is unavailable or
//!   forced off), connects to every lower rank, and accepts one
//!   connection from every higher rank. Peers identify themselves with a
//!   `Hello` frame immediately after connecting, so accept order does
//!   not matter.
//! * **Seed-list** (`MINI_MPI_SEEDS`, [`crate::SpawnOptions::seeds`]): no
//!   shared filesystem is needed for rendezvous. Every rank binds a TCP
//!   data listener on an ephemeral port, dials the first seed address,
//!   and sends a `Register` frame carrying its rank and data address.
//!   With a loopback seed everything stays on `127.0.0.1`; with any
//!   other seed host the data listener binds `0.0.0.0` and the rank
//!   advertises the local IP of its registration connection (the
//!   interface routed toward the seed) so peers on other hosts dial a
//!   routable address — `MINI_MPI_ADVERTISE_IP` overrides the detected
//!   IP for multi-homed or NATed hosts.
//!   Rank 0 runs a tiny in-process registry on
//!   `MINI_MPI_REGISTRY_BIND` (default: the first seed): it collects all
//!   `size` registrations and answers each with a `Table` frame holding
//!   the complete peer table; the mesh is then dialed directly over TCP.
//!   Rank 0 registers through the seed address like everyone else, so a
//!   fault-injection proxy fronting the seed observes (and can reroute)
//!   every link.
//!
//! ## Framing
//!
//! Every message is one length-prefixed frame: `[u32 body_len][u8 kind]`
//! followed by the body. Data frames carry `(seq, ctx, src, tag,
//! payload)` — the in-process `Envelope` plus a per-link sequence number
//! — and are demuxed by a per-peer reader thread into the local rank's
//! mailbox. Sends go through a per-peer writer thread (a queue in
//! between), so `send` keeps its eager, never-blocking semantics even
//! when a socket back-pressures.
//!
//! ## Failure semantics
//!
//! Every link is reliable; no option selects a weaker mode:
//!
//! * every link exchanges periodic `Ping`/`Pong` frames (one interval is
//!   a tenth of the heartbeat timeout, clamped to 5–200 ms); a peer
//!   silent for longer than the timeout is declared dead;
//! * sequenced frames (`Data`, `Goodbye`, `Death`) are buffered until
//!   acknowledged (acks piggyback on `Ping`/`Pong`), so a transient
//!   socket failure is survived by a bounded redial-with-backoff plus a
//!   `Reconnect`/`ReconnectAck` handshake that retransmits exactly the
//!   unacknowledged suffix — no envelope is lost or duplicated;
//! * a rank that detects a death relays a sequenced `Death` frame to
//!   every other live peer (an eager reliable broadcast): with
//!   crash-stop failures and per-link retransmission every survivor
//!   converges on the identical membership view;
//! * a death marks the rank dead in the mailbox: receives that can never
//!   complete fail loudly with "rank N died", but traffic among survivors
//!   keeps flowing (degraded mode — see
//!   [`crate::Comm::recv_any_or_death`]);
//! * only a broken stream — a sequence gap, an unexpected frame — poisons
//!   the mailbox, failing every pending and future receive.
//!
//! Per rank the mesh runs a reader and a writer thread per peer plus one
//! monitor thread, which pings, checks timeouts and accepts reconnects.
//!
//! ## Teardown
//!
//! When a rank's program finishes it reports its result to the parent
//! over an out-of-band control connection, flushes a `Goodbye` frame to
//! every peer, and only closes its sockets after receiving every live
//! peer's `Goodbye` — a teardown barrier that guarantees no rank
//! observes an end-of-stream while envelopes are still in flight.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::world::{Envelope, Mailbox, SpawnOutcome, Transport, WorldInner};
use crate::{SpawnError, SpawnOptions};

pub(crate) const ENV_DIR: &str = "MINI_MPI_DIR";
const ENV_RANK: &str = "MINI_MPI_RANK";
const ENV_SIZE: &str = "MINI_MPI_SIZE";
const ENV_PROGRAM: &str = "MINI_MPI_PROGRAM";
const ENV_INPUT: &str = "MINI_MPI_INPUT";
const ENV_TCP: &str = "MINI_MPI_TCP";
const ENV_SEEDS: &str = "MINI_MPI_SEEDS";
const ENV_REGISTRY_BIND: &str = "MINI_MPI_REGISTRY_BIND";
const ENV_ADVERTISE_IP: &str = "MINI_MPI_ADVERTISE_IP";
const ENV_HB_TIMEOUT_MS: &str = "MINI_MPI_HB_TIMEOUT_MS";

/// How long a rank retries connecting to a peer's endpoint before giving
/// up (covers slow process startup under load).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a finished rank waits for peers' goodbyes before closing its
/// sockets anyway (a dead peer must not wedge survivors in teardown).
const GOODBYE_TIMEOUT: Duration = Duration::from_secs(30);
/// Redial schedule after a transient socket failure (dialer side of a
/// reliable link): one attempt after each backoff, then the peer is
/// declared dead.
const RECONNECT_BACKOFF_MS: [u64; 4] = [25, 50, 100, 200];
/// Upper bound on how long an acceptor-side link waits after an EOF
/// without goodbye for the dialer to reconnect before declaring the peer
/// dead (the effective window is `min(heartbeat timeout, this)`).
const EOF_DEATH_WINDOW_CAP: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------------
// Stream / listener abstraction (UDS with TCP loopback fallback)
// ---------------------------------------------------------------------------

pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nb),
            Stream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
        })
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

fn sock_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.sock"))
}

fn port_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.port"))
}

/// Bind an endpoint named `name` inside `dir`: a Unix socket unless TCP
/// is forced (or the UDS bind fails, e.g. a rendezvous path too long for
/// `sockaddr_un`), in which case a loopback TCP listener is announced by
/// atomically publishing its port number to `<name>.port`.
fn bind_endpoint(dir: &Path, name: &str, force_tcp: bool) -> io::Result<Listener> {
    if !force_tcp {
        match UnixListener::bind(sock_path(dir, name)) {
            Ok(l) => return Ok(Listener::Unix(l)),
            Err(_) => { /* fall through to TCP */ }
        }
    }
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let port = listener.local_addr()?.port();
    let tmp = dir.join(format!("{name}.port.tmp"));
    std::fs::write(&tmp, port.to_string())?;
    std::fs::rename(&tmp, port_path(dir, name))?;
    Ok(Listener::Tcp(listener))
}

/// Connect to the endpoint `name` inside `dir`, retrying until `deadline`
/// (the peer may not have bound yet). Tries the Unix socket first, then
/// the published TCP port.
fn connect_endpoint(dir: &Path, name: &str, deadline: Instant) -> io::Result<Stream> {
    let sock = sock_path(dir, name);
    let port = port_path(dir, name);
    loop {
        if sock.exists() {
            match UnixStream::connect(&sock) {
                Ok(s) => return Ok(Stream::Unix(s)),
                Err(_) => { /* listener may still be setting up */ }
            }
        }
        if let Ok(text) = std::fs::read_to_string(&port) {
            if let Ok(p) = text.trim().parse::<u16>() {
                if let Ok(s) = TcpStream::connect(("127.0.0.1", p)) {
                    return Ok(Stream::Tcp(s));
                }
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no endpoint '{name}' appeared in {dir:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Dial a `host:port` address, retrying until `deadline` (the peer may
/// not have bound yet).
pub(crate) fn tcp_connect_retry(addr: &str, deadline: Instant) -> io::Result<Stream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(Stream::Tcp(s)),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("cannot reach {addr}: {e}"),
                    ));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Resolve a trailing `:0` in a `host:port` address to a concrete free
/// port by briefly binding a listener there. Used by the parent so every
/// child is handed the same concrete seed address.
pub(crate) fn resolve_port_zero(addr: &str) -> io::Result<String> {
    let Some((host, port)) = addr.rsplit_once(':') else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("seed address '{addr}' is not host:port"),
        ));
    };
    if port != "0" {
        return Ok(addr.to_string());
    }
    let l = TcpListener::bind((host, 0))?;
    let port = l.local_addr()?.port();
    Ok(format!("{host}:{port}"))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

pub(crate) const KIND_DATA: u8 = 0;
const KIND_GOODBYE: u8 = 1;
const KIND_HELLO: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_PING: u8 = 4;
const KIND_PONG: u8 = 5;
const KIND_DEATH: u8 = 6;
const KIND_RECONNECT: u8 = 7;
const KIND_RECONNECT_ACK: u8 = 8;
const KIND_REGISTER: u8 = 9;
const KIND_TABLE: u8 = 10;

/// Upper bound on a frame body. The length prefix is untrusted input
/// (a corrupted byte or a desynced stream after a partial write must
/// not make the reader allocate gigabytes before noticing); anything
/// larger fails as a malformed frame and poisons the mailbox cleanly.
/// Generous for this workspace's messages — a send above this limit is
/// rejected at the writer, not silently truncated.
pub(crate) const MAX_FRAME_BODY: usize = 256 << 20;

#[derive(Clone)]
pub(crate) enum Frame {
    /// Sequenced envelope (the payload of every `Comm` send).
    Data { seq: u64, env: Envelope },
    /// Sequenced teardown marker.
    Goodbye { seq: u64 },
    /// Link identification, first frame on a fresh mesh connection.
    Hello { rank: u32 },
    /// Rank result, reported on the parent control connection.
    Result { rank: u32, data: Vec<u8> },
    /// Heartbeat probe; `acked` piggybacks the sender's receive cursor.
    Ping { acked: u64 },
    /// Heartbeat reply; `acked` piggybacks the sender's receive cursor.
    Pong { acked: u64 },
    /// Sequenced membership broadcast: `rank` has been declared dead.
    Death { seq: u64, rank: u32 },
    /// First frame on a redialed connection: identifies the dialer and
    /// the next sequence number it expects to receive.
    Reconnect { rank: u32, next_expected: u64 },
    /// Acceptor's answer carrying its own receive cursor; both sides then
    /// retransmit exactly their unacknowledged suffix.
    ReconnectAck { next_expected: u64 },
    /// Seed-list bootstrap: a rank announces its data address.
    Register { rank: u32, addr: String },
    /// Seed-list bootstrap: the registry's complete peer table.
    Table { addrs: Vec<String> },
}

pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    if let Frame::Data { seq, env } = frame {
        // Hot path: fixed-size header on the stack, payload written
        // directly from its shared buffer — no per-frame allocation, no
        // full-payload copy.
        let body_len = 32 + env.payload.len();
        if body_len > MAX_FRAME_BODY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "message of {} bytes exceeds the frame limit",
                    env.payload.len()
                ),
            ));
        }
        let mut head = [0u8; 5 + 32];
        head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        head[4] = KIND_DATA;
        head[5..13].copy_from_slice(&seq.to_le_bytes());
        head[13..21].copy_from_slice(&env.ctx.to_le_bytes());
        head[21..25].copy_from_slice(&(env.src as u32).to_le_bytes());
        head[25..33].copy_from_slice(&env.tag.to_le_bytes());
        head[33..37].copy_from_slice(&(env.payload.len() as u32).to_le_bytes());
        w.write_all(&head)?;
        w.write_all(&env.payload)?;
        return w.flush();
    }
    let mut body = Vec::new();
    let kind = match frame {
        Frame::Data { .. } => unreachable!("handled above"),
        Frame::Goodbye { seq } => {
            body.extend_from_slice(&seq.to_le_bytes());
            KIND_GOODBYE
        }
        Frame::Hello { rank } => {
            body.extend_from_slice(&rank.to_le_bytes());
            KIND_HELLO
        }
        Frame::Result { rank, data } => {
            body.extend_from_slice(&rank.to_le_bytes());
            body.extend_from_slice(&(data.len() as u32).to_le_bytes());
            body.extend_from_slice(data);
            KIND_RESULT
        }
        Frame::Ping { acked } => {
            body.extend_from_slice(&acked.to_le_bytes());
            KIND_PING
        }
        Frame::Pong { acked } => {
            body.extend_from_slice(&acked.to_le_bytes());
            KIND_PONG
        }
        Frame::Death { seq, rank } => {
            body.extend_from_slice(&seq.to_le_bytes());
            body.extend_from_slice(&rank.to_le_bytes());
            KIND_DEATH
        }
        Frame::Reconnect {
            rank,
            next_expected,
        } => {
            body.extend_from_slice(&rank.to_le_bytes());
            body.extend_from_slice(&next_expected.to_le_bytes());
            KIND_RECONNECT
        }
        Frame::ReconnectAck { next_expected } => {
            body.extend_from_slice(&next_expected.to_le_bytes());
            KIND_RECONNECT_ACK
        }
        Frame::Register { rank, addr } => {
            body.extend_from_slice(&rank.to_le_bytes());
            body.extend_from_slice(&(addr.len() as u32).to_le_bytes());
            body.extend_from_slice(addr.as_bytes());
            KIND_REGISTER
        }
        Frame::Table { addrs } => {
            body.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
            for addr in addrs {
                body.extend_from_slice(&(addr.len() as u32).to_le_bytes());
                body.extend_from_slice(addr.as_bytes());
            }
            KIND_TABLE
        }
    };
    if body.len() > MAX_FRAME_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame body exceeds the frame limit",
        ));
    }
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[4] = kind;
    w.write_all(&head)?;
    w.write_all(&body)?;
    w.flush()
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn read_string(buf: &[u8], at: usize) -> Option<(String, usize)> {
    if buf.len() < at + 4 {
        return None;
    }
    let len = read_u32(buf, at) as usize;
    if buf.len() < at + 4 + len {
        return None;
    }
    let s = String::from_utf8(buf[at + 4..at + 4 + len].to_vec()).ok()?;
    Some((s, at + 4 + len))
}

pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let body_len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
    let kind = head[4];
    // The length prefix is untrusted: validate before allocating, so a
    // corrupted byte yields a clean "malformed frame" poison instead of
    // a multi-gigabyte allocation.
    if body_len > MAX_FRAME_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body_len} bytes exceeds the frame limit"),
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    match kind {
        KIND_DATA => {
            if body.len() < 32 {
                return Err(bad("short data frame"));
            }
            let seq = read_u64(&body, 0);
            let ctx = read_u64(&body, 8);
            let src = read_u32(&body, 16) as usize;
            let tag = read_u64(&body, 20);
            let len = read_u32(&body, 28) as usize;
            if body.len() != 32 + len {
                return Err(bad("data frame length mismatch"));
            }
            Ok(Frame::Data {
                seq,
                env: Envelope {
                    ctx,
                    src,
                    tag,
                    payload: Bytes::copy_from_slice(&body[32..]),
                },
            })
        }
        KIND_GOODBYE => {
            if body.len() != 8 {
                return Err(bad("bad goodbye frame"));
            }
            Ok(Frame::Goodbye {
                seq: read_u64(&body, 0),
            })
        }
        KIND_HELLO => {
            if body.len() != 4 {
                return Err(bad("bad hello frame"));
            }
            Ok(Frame::Hello {
                rank: read_u32(&body, 0),
            })
        }
        KIND_RESULT => {
            if body.len() < 8 {
                return Err(bad("short result frame"));
            }
            let rank = read_u32(&body, 0);
            let len = read_u32(&body, 4) as usize;
            if body.len() != 8 + len {
                return Err(bad("result frame length mismatch"));
            }
            Ok(Frame::Result {
                rank,
                data: body[8..].to_vec(),
            })
        }
        KIND_PING => {
            if body.len() != 8 {
                return Err(bad("bad ping frame"));
            }
            Ok(Frame::Ping {
                acked: read_u64(&body, 0),
            })
        }
        KIND_PONG => {
            if body.len() != 8 {
                return Err(bad("bad pong frame"));
            }
            Ok(Frame::Pong {
                acked: read_u64(&body, 0),
            })
        }
        KIND_DEATH => {
            if body.len() != 12 {
                return Err(bad("bad death frame"));
            }
            Ok(Frame::Death {
                seq: read_u64(&body, 0),
                rank: read_u32(&body, 8),
            })
        }
        KIND_RECONNECT => {
            if body.len() != 12 {
                return Err(bad("bad reconnect frame"));
            }
            Ok(Frame::Reconnect {
                rank: read_u32(&body, 0),
                next_expected: read_u64(&body, 4),
            })
        }
        KIND_RECONNECT_ACK => {
            if body.len() != 8 {
                return Err(bad("bad reconnect-ack frame"));
            }
            Ok(Frame::ReconnectAck {
                next_expected: read_u64(&body, 0),
            })
        }
        KIND_REGISTER => {
            if body.len() < 8 {
                return Err(bad("short register frame"));
            }
            let rank = read_u32(&body, 0);
            let Some((addr, end)) = read_string(&body, 4) else {
                return Err(bad("bad register frame"));
            };
            if end != body.len() {
                return Err(bad("register frame length mismatch"));
            }
            Ok(Frame::Register { rank, addr })
        }
        KIND_TABLE => {
            if body.len() < 4 {
                return Err(bad("short table frame"));
            }
            let n = read_u32(&body, 0) as usize;
            let mut addrs = Vec::with_capacity(n.min(4096));
            let mut at = 4;
            for _ in 0..n {
                let Some((addr, next)) = read_string(&body, at) else {
                    return Err(bad("bad table frame"));
                };
                addrs.push(addr);
                at = next;
            }
            if at != body.len() {
                return Err(bad("table frame length mismatch"));
            }
            Ok(Frame::Table { addrs })
        }
        other => Err(bad(&format!("unknown frame kind {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Peer links
// ---------------------------------------------------------------------------

/// Per-link send-side state, guarded by `Link::q`.
struct LinkQ {
    /// Unsequenced control frames (pings, pongs, reconnect acks); always
    /// written before sequenced traffic.
    ctrl: VecDeque<Frame>,
    /// Sequenced frames not yet acknowledged by the peer. The first
    /// `sent` entries are on the current stream; the rest await
    /// transmission (or retransmission after a reconnect).
    unacked: VecDeque<(u64, Frame)>,
    /// How many of `unacked` have been written to the current stream.
    sent: usize,
    /// Next outgoing sequence number.
    next_seq_out: u64,
    /// The live connection's write half; `None` while the link is down.
    stream: Option<Stream>,
    /// Bumped on every (re)connection, so a stale reader or writer error
    /// cannot tear down a fresh stream.
    generation: u64,
    /// Local teardown: the writer exits once the queues are drained.
    closed: bool,
}

/// One peer link: queue, receive cursor, liveness bookkeeping.
struct Link {
    peer: usize,
    q: Mutex<LinkQ>,
    cv: Condvar,
    /// Receive cursor: sequence number expected next from this peer.
    /// Frames below it are duplicates (dropped after a retransmit).
    next_expected_in: AtomicU64,
    /// Milliseconds (mesh epoch) of the last inbound frame.
    last_heard: AtomicU64,
    /// Milliseconds+1 of an EOF-without-goodbye awaiting reconnect;
    /// 0 = none pending.
    eof_at: AtomicU64,
    dead: AtomicBool,
    goodbye_seen: AtomicBool,
}

impl Link {
    fn new(peer: usize) -> Link {
        Link {
            peer,
            q: Mutex::new(LinkQ {
                ctrl: VecDeque::new(),
                unacked: VecDeque::new(),
                sent: 0,
                next_seq_out: 0,
                stream: None,
                generation: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            next_expected_in: AtomicU64::new(0),
            last_heard: AtomicU64::new(0),
            eof_at: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            goodbye_seen: AtomicBool::new(false),
        }
    }
}

/// Mesh-wide shared state: every reader/writer/monitor thread holds an
/// `Arc<Mesh>`.
struct Mesh {
    rank: usize,
    mailbox: Arc<Mailbox>,
    links: Vec<Option<Arc<Link>>>,
    hb_interval: Duration,
    hb_timeout: Duration,
    epoch: Instant,
    /// Teardown-barrier wakeups (goodbye arrivals, deaths, poisons).
    goodbye_mu: Mutex<()>,
    goodbye_cv: Condvar,
    /// Set at teardown; `stop_cv` wakes the monitor out of its tick.
    stopped: Mutex<bool>,
    stop_cv: Condvar,
    /// Seed-mode peer table for redials; `None` entries in dir mode.
    peer_addrs: Vec<Option<String>>,
    /// Shared-dir rendezvous root (redial target in dir mode; also the
    /// parent control endpoint).
    dir: PathBuf,
}

impl Mesh {
    /// The ping interval is a tenth of the timeout, clamped to 5–200 ms.
    fn new(
        rank: usize,
        heartbeat_timeout_ms: u64,
        peer_addrs: Vec<Option<String>>,
        dir: &Path,
    ) -> Mesh {
        let hb_timeout = Duration::from_millis(heartbeat_timeout_ms.max(1));
        Mesh {
            rank,
            mailbox: Arc::new(Mailbox::new()),
            links: (0..peer_addrs.len())
                .map(|p| (p != rank).then(|| Arc::new(Link::new(p))))
                .collect(),
            hb_interval: (hb_timeout / 10)
                .clamp(Duration::from_millis(5), Duration::from_millis(200)),
            hb_timeout,
            epoch: Instant::now(),
            goodbye_mu: Mutex::new(()),
            goodbye_cv: Condvar::new(),
            stopped: Mutex::new(false),
            stop_cv: Condvar::new(),
            peer_addrs,
            dir: dir.to_path_buf(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Is this rank the dialing side of the link to `peer`? Mesh setup
    /// dials every lower rank, so redials follow the same orientation.
    fn dialer_of(&self, peer: usize) -> bool {
        peer < self.rank
    }

    /// Enqueue a sequenced frame (Data/Goodbye/Death). Silently dropped
    /// when the peer is already dead.
    fn send_seq(&self, link: &Link, build: impl FnOnce(u64) -> Frame) {
        if link.dead.load(Ordering::Acquire) {
            return;
        }
        let mut q = link.q.lock();
        let seq = q.next_seq_out;
        q.next_seq_out += 1;
        q.unacked.push_back((seq, build(seq)));
        drop(q);
        link.cv.notify_all();
    }

    /// Enqueue an unsequenced control frame (ping or pong).
    fn send_ctrl(&self, link: &Link, frame: Frame) {
        if link.dead.load(Ordering::Acquire) {
            return;
        }
        link.q.lock().ctrl.push_back(frame);
        link.cv.notify_all();
    }

    /// Drop retransmit-buffered frames the peer has acknowledged
    /// (its receive cursor is `acked`: everything below is delivered).
    fn apply_ack(&self, link: &Link, acked: u64) {
        let mut q = link.q.lock();
        while let Some(&(seq, _)) = q.unacked.front() {
            if seq >= acked {
                break;
            }
            q.unacked.pop_front();
            q.sent = q.sent.saturating_sub(1);
        }
    }

    /// Receive-side sequencing: accept exactly the expected frame, drop
    /// retransmitted duplicates, treat a gap as stream corruption. The
    /// cursor advances via compare-exchange so that when a stale reader
    /// (replaced stream, not yet torn down) races the live one over a
    /// retransmitted frame, exactly one of them delivers it — the loser
    /// re-reads the cursor and sees a duplicate.
    fn accept_seq(&self, link: &Link, seq: u64) -> bool {
        loop {
            let expected = link.next_expected_in.load(Ordering::Acquire);
            if seq < expected {
                return false; // duplicate of an already-delivered frame
            }
            if seq > expected {
                self.mailbox.poison(format!(
                    "rank {} stream desynchronized (got seq {seq}, expected {expected})",
                    link.peer
                ));
                self.goodbye_cv.notify_all();
                return false;
            }
            if link
                .next_expected_in
                .compare_exchange(expected, expected + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Idempotently declare `link`'s peer dead: mark the mailbox, wake
    /// everything blocked on the link, and eagerly relay a sequenced
    /// `Death` frame to every other live peer so all survivors converge
    /// on the same membership view.
    fn declare_dead(&self, link: &Link, reason: &str) {
        if link.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        eprintln!(
            "mini-mpi rank {}: declared rank {} dead ({reason})",
            self.rank, link.peer
        );
        {
            let mut q = link.q.lock();
            if let Some(s) = &q.stream {
                s.shutdown();
            }
            q.stream = None;
        }
        self.mailbox.mark_dead(link.peer);
        link.cv.notify_all();
        self.goodbye_cv.notify_all();
        let dead_rank = link.peer as u32;
        for other in self.links.iter().flatten() {
            if other.peer != link.peer {
                self.send_seq(other, |seq| Frame::Death {
                    seq,
                    rank: dead_rank,
                });
            }
        }
    }

    /// A peer relayed a death report. Reports about ourselves are
    /// ignored (we are demonstrably alive; the reporter may sit on the
    /// other side of a partition).
    fn death_reported(&self, rank: usize, from: usize) {
        if rank == self.rank || rank >= self.links.len() {
            return;
        }
        if let Some(link) = &self.links[rank] {
            self.declare_dead(link, &format!("reported dead by rank {from}"));
        }
    }

    /// Wait up to `tick` for teardown; `true` once it has begun.
    fn stop_within(&self, tick: Duration) -> bool {
        let mut stopped = self.stopped.lock();
        if !*stopped {
            self.stop_cv.wait_for(&mut stopped, tick);
        }
        *stopped
    }

    /// Reader-side EOF/error handling.
    fn reader_lost(&self, link: &Link, my_gen: u64) {
        if link.goodbye_seen.load(Ordering::Acquire) || link.dead.load(Ordering::Acquire) {
            return; // clean teardown or already-handled death
        }
        // Arm the reconnect window and wake the writer (the dialer side
        // redials; the acceptor side waits for a Reconnect, bounded by
        // the monitor's EOF window). A stale reader — its stream was
        // already replaced by a reconnect — must not touch anything:
        // clearing the fresh stream or arming the EOF window here would
        // sabotage the link that just recovered.
        {
            let mut q = link.q.lock();
            if q.generation != my_gen {
                return;
            }
            q.stream = None;
            q.sent = 0;
        }
        link.eof_at
            .compare_exchange(0, self.now_ms() + 1, Ordering::AcqRel, Ordering::Relaxed)
            .ok();
        link.cv.notify_all();
    }

    /// Install a fresh stream on `link` (reconnect handshake, either
    /// side): prune frames the peer acknowledged, rewind the send cursor
    /// so the unacknowledged suffix is retransmitted, bump the
    /// generation, and hand back the new generation id. The acceptor
    /// passes `ack`: the stream's first frame is then a `ReconnectAck`
    /// carrying our receive cursor, queued under the same lock as the
    /// rewind so no retransmission can precede it.
    fn install_stream(
        &self,
        link: &Link,
        stream: Stream,
        peer_next_expected: u64,
        ack: bool,
    ) -> io::Result<u64> {
        let write_half = stream.try_clone()?;
        let mut q = link.q.lock();
        // Force any reader still blocked on the replaced stream (a
        // delayed or black-holed-but-open socket never EOFs on its own)
        // off the wire: were it left running, a late frame on the stale
        // socket would race the fresh reader for the receive cursor.
        if let Some(old) = q.stream.take() {
            old.shutdown();
        }
        while let Some(&(seq, _)) = q.unacked.front() {
            if seq >= peer_next_expected {
                break;
            }
            q.unacked.pop_front();
        }
        // Control frames belong to the stream they were queued for: an
        // unsent `ReconnectAck` of a handshake the dialer gave up on would
        // reach the dialer's reader as an unexpected frame.
        q.ctrl.clear();
        if ack {
            let next_expected = link.next_expected_in.load(Ordering::Acquire);
            q.ctrl.push_back(Frame::ReconnectAck { next_expected });
        }
        q.sent = 0;
        q.generation += 1;
        let gen = q.generation;
        q.stream = Some(write_half);
        drop(q);
        link.eof_at.store(0, Ordering::Release);
        link.last_heard.store(self.now_ms(), Ordering::Release);
        link.cv.notify_all();
        Ok(gen)
    }

    /// Dialer-side redial with bounded backoff. Returns `false` when the
    /// retries are exhausted (caller declares the peer dead).
    fn redial(self: &Arc<Self>, link: &Arc<Link>) -> bool {
        for backoff in RECONNECT_BACKOFF_MS {
            std::thread::sleep(Duration::from_millis(backoff));
            if link.dead.load(Ordering::Acquire) || link.q.lock().closed {
                return true; // resolved elsewhere; nothing left to do
            }
            let deadline = Instant::now() + Duration::from_millis(250);
            let dial = match &self.peer_addrs[link.peer] {
                Some(addr) => tcp_connect_retry(addr, deadline),
                None => connect_endpoint(&self.dir, &format!("r{}", link.peer), deadline),
            };
            let Ok(mut s) = dial else { continue };
            if write_frame(
                &mut s,
                &Frame::Reconnect {
                    rank: self.rank as u32,
                    next_expected: link.next_expected_in.load(Ordering::Acquire),
                },
            )
            .is_err()
            {
                continue;
            }
            let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
            // The acceptor queues its ack ahead of every other frame.
            let Ok(Frame::ReconnectAck {
                next_expected: peer_next,
            }) = read_frame(&mut s)
            else {
                continue;
            };
            let _ = s.set_read_timeout(None);
            let Ok(read_half) = s.try_clone() else {
                continue;
            };
            let Ok(gen) = self.install_stream(link, s, peer_next, false) else {
                continue;
            };
            spawn_reader(self.clone(), link.clone(), read_half, gen);
            return true;
        }
        false
    }
}

/// Per-link reader thread body: demux inbound frames until goodbye,
/// EOF, or death.
fn spawn_reader(mesh: Arc<Mesh>, link: Arc<Link>, mut stream: Stream, my_gen: u64) {
    let name = format!("mini-mpi-r{}-from-{}", mesh.rank, link.peer);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || loop {
            match read_frame(&mut stream) {
                Ok(frame) => {
                    link.last_heard.store(mesh.now_ms(), Ordering::Release);
                    match frame {
                        Frame::Data { seq, env } => {
                            if mesh.accept_seq(&link, seq) {
                                mesh.mailbox.push(env);
                            }
                        }
                        Frame::Goodbye { seq } => {
                            // Do NOT exit here: the peer that sent this
                            // goodbye is parked in its teardown barrier
                            // and keeps heartbeat-monitoring us until
                            // *our* goodbye arrives. If this reader died
                            // now, its pings would go unanswered and a
                            // perfectly live rank would be declared dead
                            // whenever ranks finish further apart than
                            // the heartbeat timeout. Keep serving
                            // Ping→Pong (and acks) until EOF/teardown.
                            if mesh.accept_seq(&link, seq) {
                                link.goodbye_seen.store(true, Ordering::Release);
                                mesh.goodbye_cv.notify_all();
                            }
                        }
                        Frame::Death { seq, rank } => {
                            if mesh.accept_seq(&link, seq) {
                                mesh.death_reported(rank as usize, link.peer);
                            }
                        }
                        Frame::Ping { acked } => {
                            mesh.apply_ack(&link, acked);
                            let pong = Frame::Pong {
                                acked: link.next_expected_in.load(Ordering::Acquire),
                            };
                            mesh.send_ctrl(&link, pong);
                        }
                        Frame::Pong { acked } => mesh.apply_ack(&link, acked),
                        Frame::Hello { .. }
                        | Frame::Result { .. }
                        | Frame::Reconnect { .. }
                        | Frame::ReconnectAck { .. }
                        | Frame::Register { .. }
                        | Frame::Table { .. } => {
                            mesh.mailbox.poison(format!(
                                "rank {} sent an unexpected control frame",
                                link.peer
                            ));
                            mesh.goodbye_cv.notify_all();
                            return;
                        }
                    }
                }
                Err(_) => {
                    mesh.reader_lost(&link, my_gen);
                    return;
                }
            }
        })
        .expect("failed to spawn reader thread");
}

/// Per-link writer thread body: drains the control queue and the
/// unacknowledged suffix onto the live stream; redials (dialer side) or
/// parks (acceptor side) while the link is down.
fn writer_loop(mesh: &Arc<Mesh>, link: &Arc<Link>) {
    let mut cur_gen: u64 = u64::MAX;
    let mut cur: Option<Stream> = None;
    'outer: loop {
        let mut batch: Vec<Frame> = Vec::new();
        let mut want_redial = false;
        {
            let mut q = link.q.lock();
            loop {
                if link.dead.load(Ordering::Acquire) {
                    return;
                }
                if q.stream.is_none() {
                    if q.closed {
                        return; // teardown with a down link: give up
                    }
                    if mesh.dialer_of(link.peer) {
                        want_redial = true;
                        break;
                    }
                    // Acceptor side: a Reconnect install (or death) wakes us.
                    link.cv.wait(&mut q);
                    continue;
                }
                if !q.ctrl.is_empty() || q.sent < q.unacked.len() {
                    break;
                }
                if q.closed {
                    return; // drained: every queued frame is on the wire
                }
                link.cv.wait(&mut q);
            }
            if !want_redial {
                if q.generation != cur_gen || cur.is_none() {
                    cur_gen = q.generation;
                    cur = q.stream.as_ref().and_then(|s| s.try_clone().ok());
                    if cur.is_none() {
                        q.stream = None;
                        q.sent = 0;
                        continue 'outer;
                    }
                }
                batch.extend(q.ctrl.drain(..));
                let upto = q.unacked.len();
                for i in q.sent..upto {
                    batch.push(q.unacked[i].1.clone());
                }
                q.sent = upto;
            }
        }
        if want_redial {
            if !mesh.redial(link) {
                mesh.declare_dead(link, "reconnect retries exhausted");
                return;
            }
            cur = None;
            continue;
        }
        let Some(stream) = cur.as_mut() else { continue };
        if batch.iter().all(|frame| write_frame(stream, frame).is_ok()) {
            continue;
        }
        // A failed write downs the link; the unacked suffix is resent
        // after the reconnect.
        let mut q = link.q.lock();
        if q.generation == cur_gen {
            // Shut the socket down (not just drop our clone): the reader
            // may be blocked on the same fd without having seen an error
            // yet, and must not survive into the next generation.
            if let Some(s) = q.stream.take() {
                s.shutdown();
            }
            q.sent = 0;
        }
        drop(q);
        cur = None;
    }
}

/// The mesh's one service thread. Once per heartbeat interval it accepts
/// every reconnect queued on the non-blocking listener, pings every live
/// link, and declares a peer dead on silence beyond the timeout or an
/// expired EOF-without-goodbye reconnect window. Teardown wakes it out of
/// its wait, so `shutdown` never waits out a tick.
fn monitor_loop(mesh: &Arc<Mesh>, listener: Listener) {
    let eof_window = mesh.hb_timeout.min(EOF_DEATH_WINDOW_CAP).as_millis() as u64;
    let timeout_ms = mesh.hb_timeout.as_millis() as u64;
    // A blocking accept would stall the tick; such a listener is dropped.
    let listener = listener.set_nonblocking(true).is_ok().then_some(listener);
    while !mesh.stop_within(mesh.hb_interval) {
        // Drain the backlog; `WouldBlock` (or a transient error) ends it
        // until the next tick.
        while let Some(stream) = listener.as_ref().and_then(|l| l.accept().ok()) {
            accept_reconnect(mesh, stream);
        }
        let now = mesh.now_ms();
        for link in mesh.links.iter().flatten() {
            if link.dead.load(Ordering::Acquire) || link.goodbye_seen.load(Ordering::Acquire) {
                continue;
            }
            let up = link.q.lock().stream.is_some();
            if up {
                let ping = Frame::Ping {
                    acked: link.next_expected_in.load(Ordering::Acquire),
                };
                mesh.send_ctrl(link, ping);
            }
            if now.saturating_sub(link.last_heard.load(Ordering::Acquire)) > timeout_ms {
                mesh.declare_dead(link, &format!("heartbeat timeout ({timeout_ms} ms silent)"));
                continue;
            }
            let eof = link.eof_at.load(Ordering::Acquire);
            if eof != 0 && !up && now.saturating_sub(eof - 1) > eof_window {
                mesh.declare_dead(link, "connection closed before goodbye");
            }
        }
    }
}

/// Run the `Reconnect` handshake of one accepted connection on a
/// short-lived thread: the frame identifies the dialer, and the link's
/// unacknowledged suffix is retransmitted on the fresh stream.
fn accept_reconnect(mesh: &Arc<Mesh>, mut stream: Stream) {
    let _ = stream.set_nonblocking(false);
    let mesh = mesh.clone();
    let _ = std::thread::Builder::new()
        .name(format!("mini-mpi-reconnect-{}", mesh.rank))
        .spawn(move || {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
            let Ok(Frame::Reconnect {
                rank,
                next_expected,
            }) = read_frame(&mut stream)
            else {
                return;
            };
            let _ = stream.set_read_timeout(None);
            let Some(link) = mesh.links.get(rank as usize).cloned().flatten() else {
                return;
            };
            if link.dead.load(Ordering::Acquire) {
                stream.shutdown();
                return;
            }
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let Ok(gen) = mesh.install_stream(&link, stream, next_expected, true) else {
                return;
            };
            spawn_reader(mesh.clone(), link, read_half, gen);
        });
}

// ---------------------------------------------------------------------------
// Peer mesh
// ---------------------------------------------------------------------------

/// One rank's view of a socket world: the shared mesh plus the worker
/// threads joined at teardown. Lives inside [`WorldInner`].
pub(crate) struct SocketPeers {
    mesh: Arc<Mesh>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Mesh configuration decoded from the child environment.
struct MeshOpts {
    force_tcp: bool,
    seeds: Option<String>,
    registry_bind: Option<String>,
    /// Seed-list mode: the IP to advertise in the `Register` frame when
    /// the interface auto-detection (the registration connection's local
    /// address) picks the wrong one — multi-homed hosts, NAT.
    advertise_ip: Option<String>,
    heartbeat_timeout_ms: u64,
}

/// Rank 0's in-process registry: collect `size` `Register` frames, then
/// answer every registrant with the complete `Table`.
fn run_registry(bind: &str, size: usize) -> io::Result<()> {
    let listener = TcpListener::bind(bind)?;
    let mut conns: Vec<(usize, Stream)> = Vec::with_capacity(size);
    let mut addrs: Vec<Option<String>> = vec![None; size];
    let mut registered = 0usize;
    while registered < size {
        let (s, _) = listener.accept()?;
        let mut s = Stream::Tcp(s);
        let _ = s.set_read_timeout(Some(CONNECT_TIMEOUT));
        match read_frame(&mut s) {
            Ok(Frame::Register { rank, addr }) => {
                let rank = rank as usize;
                if rank >= size || addrs[rank].is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("registry: duplicate or out-of-range rank {rank}"),
                    ));
                }
                addrs[rank] = Some(addr);
                registered += 1;
                conns.push((rank, s));
            }
            _ => s.shutdown(), // stray connection: close it, don't hold it open
        }
    }
    let table: Vec<String> = addrs.into_iter().map(|a| a.unwrap()).collect();
    for (rank, mut s) in conns {
        // A registrant that died after registering must not stall every
        // *other* rank's bootstrap at the connect timeout: log, skip the
        // broken connection, keep handing the table to the rest. (The
        // death itself is the heartbeat layer's business, not ours.)
        if let Err(e) = write_frame(
            &mut s,
            &Frame::Table {
                addrs: table.clone(),
            },
        ) {
            eprintln!("mini-mpi registry: table write to rank {rank} failed ({e}); continuing");
        }
    }
    Ok(())
}

impl SocketPeers {
    pub(crate) fn rank(&self) -> usize {
        self.mesh.rank
    }

    pub(crate) fn mailbox(&self) -> &Mailbox {
        &self.mesh.mailbox
    }

    /// Enqueue an envelope for `dest` (own rank: direct mailbox push).
    /// Panics if the world is already poisoned — a send to (or via) a
    /// broken mesh must fail loudly, exactly like a receive. A send to a
    /// rank declared dead by the membership layer is silently dropped
    /// (degraded mode: survivors keep working).
    pub(crate) fn post(&self, dest: usize, env: Envelope) {
        if let Some(reason) = self.mesh.mailbox.is_poisoned() {
            panic!("mini-mpi: send failed: {reason}");
        }
        if dest == self.mesh.rank {
            self.mesh.mailbox.push(env);
            return;
        }
        let link = self.mesh.links[dest]
            .as_ref()
            .expect("non-self peer must have a link");
        if link.dead.load(Ordering::Acquire) {
            return;
        }
        self.mesh.send_seq(link, |seq| Frame::Data { seq, env });
    }

    /// Establish the full mesh for `rank` of `size`: shared-dir
    /// rendezvous by default, seed-list registry bootstrap when
    /// `opts.seeds` is set.
    fn connect(dir: &Path, rank: usize, size: usize, opts: &MeshOpts) -> io::Result<SocketPeers> {
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut registry_thread = None;
        let mut peer_addrs: Vec<Option<String>> = vec![None; size];
        let mut streams: Vec<Option<Stream>> = (0..size).map(|_| None).collect();

        let listener = if let Some(seeds) = &opts.seeds {
            // --- Seed-list bootstrap -----------------------------------
            let seed = seeds
                .split(',')
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty seed list"))?
                .to_string();
            // A loopback seed is a single-host world and stays entirely
            // on 127.0.0.1. Any other seed host means peers may live on
            // other hosts: bind the data listener on every interface and
            // advertise a routable address — by default the local IP of
            // the registration connection (the interface actually routed
            // toward the seed), overridable with `MINI_MPI_ADVERTISE_IP`
            // for multi-homed or NATed hosts.
            let seed_host = seed.rsplit_once(':').map(|(h, _)| h).unwrap_or("");
            let single_host = matches!(seed_host, "127.0.0.1" | "localhost" | "::1" | "[::1]");
            let bind_ip = if single_host { "127.0.0.1" } else { "0.0.0.0" };
            let data_listener = TcpListener::bind((bind_ip, 0))?;
            let data_port = data_listener.local_addr()?.port();
            if rank == 0 {
                let bind = opts.registry_bind.clone().unwrap_or_else(|| seed.clone());
                let sz = size;
                registry_thread = Some(
                    std::thread::Builder::new()
                        .name("mini-mpi-registry".into())
                        .spawn(move || {
                            if let Err(e) = run_registry(&bind, sz) {
                                eprintln!("mini-mpi registry: {e}");
                            }
                        })
                        .expect("failed to spawn registry thread"),
                );
            }
            // Every rank — rank 0 included — registers through the seed
            // address, so a proxy fronting it observes every link.
            let mut reg = tcp_connect_retry(&seed, deadline)?;
            let advertise_ip = match &opts.advertise_ip {
                Some(ip) => ip.clone(),
                None if single_host => "127.0.0.1".to_string(),
                None => match &reg {
                    Stream::Tcp(s) => s.local_addr()?.ip().to_string(),
                    Stream::Unix(_) => "127.0.0.1".to_string(),
                },
            };
            let my_addr = format!("{advertise_ip}:{data_port}");
            write_frame(
                &mut reg,
                &Frame::Register {
                    rank: rank as u32,
                    addr: my_addr,
                },
            )?;
            reg.set_read_timeout(Some(CONNECT_TIMEOUT))?;
            let table = match read_frame(&mut reg)? {
                Frame::Table { addrs } if addrs.len() == size => addrs,
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "registry handed back a malformed peer table",
                    ))
                }
            };
            drop(reg);
            for (peer, addr) in table.into_iter().enumerate() {
                if peer != rank {
                    peer_addrs[peer] = Some(addr);
                }
            }
            // Mesh over the table: dial every lower rank, accept from
            // every higher rank.
            for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
                let addr = peer_addrs[peer].as_deref().unwrap();
                let mut s = tcp_connect_retry(addr, deadline)?;
                write_frame(&mut s, &Frame::Hello { rank: rank as u32 })?;
                *slot = Some(s);
            }
            let listener = Listener::Tcp(data_listener);
            accept_higher(&listener, rank, size, &mut streams)?;
            listener
        } else {
            // --- Shared-dir rendezvous ---------------------------------
            let listener = bind_endpoint(dir, &format!("r{rank}"), opts.force_tcp)?;
            for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
                let mut s = connect_endpoint(dir, &format!("r{peer}"), deadline)?;
                write_frame(&mut s, &Frame::Hello { rank: rank as u32 })?;
                *slot = Some(s);
            }
            accept_higher(&listener, rank, size, &mut streams)?;
            listener
        };

        let mesh = Arc::new(Mesh::new(rank, opts.heartbeat_timeout_ms, peer_addrs, dir));

        let mut threads = Vec::new();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            let link = mesh.links[peer].as_ref().unwrap().clone();
            let gen = mesh
                .install_stream(&link, stream.try_clone()?, 0, false)
                .unwrap_or(1);
            spawn_reader(mesh.clone(), link.clone(), stream, gen);
            let mesh2 = mesh.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mini-mpi-w{rank}-to-{peer}"))
                    .spawn(move || writer_loop(&mesh2, &link))
                    .expect("failed to spawn writer thread"),
            );
        }
        let mesh2 = mesh.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("mini-mpi-monitor-{rank}"))
                .spawn(move || monitor_loop(&mesh2, listener))
                .expect("failed to spawn monitor thread"),
        );
        if let Some(h) = registry_thread {
            threads.push(h);
        }
        Ok(SocketPeers {
            mesh,
            threads: Mutex::new(threads),
        })
    }

    /// Teardown barrier: flush a goodbye to every live peer, wait until
    /// every live peer's goodbye arrived (dead peers are excused, a
    /// poisoned mesh gives up, the timeout bounds everything), then
    /// drain the writers, stop the monitor and close the sockets.
    fn shutdown(&self) {
        let mesh = &self.mesh;
        for link in mesh.links.iter().flatten() {
            mesh.send_seq(link, |seq| Frame::Goodbye { seq });
        }
        let deadline = Instant::now() + GOODBYE_TIMEOUT;
        {
            let mut g = mesh.goodbye_mu.lock();
            loop {
                let all = mesh.links.iter().flatten().all(|l| {
                    l.goodbye_seen.load(Ordering::Acquire) || l.dead.load(Ordering::Acquire)
                });
                if all || mesh.mailbox.is_poisoned().is_some() {
                    break;
                }
                if mesh.goodbye_cv.wait_until(&mut g, deadline).timed_out() {
                    break;
                }
            }
        }
        for link in mesh.links.iter().flatten() {
            link.q.lock().closed = true;
            link.cv.notify_all();
        }
        *mesh.stopped.lock() = true;
        mesh.stop_cv.notify_all();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        for link in mesh.links.iter().flatten() {
            let q = link.q.lock();
            if let Some(s) = &q.stream {
                s.shutdown();
            }
        }
    }
}

/// Accept one mesh connection from every rank above `rank`, validating
/// the identifying `Hello`.
fn accept_higher(
    listener: &Listener,
    rank: usize,
    size: usize,
    streams: &mut [Option<Stream>],
) -> io::Result<()> {
    for _ in rank + 1..size {
        let mut s = listener.accept()?;
        match read_frame(&mut s)? {
            Frame::Hello { rank: peer } => {
                let peer = peer as usize;
                if peer <= rank || peer >= size || streams[peer].is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected hello from rank {peer}"),
                    ));
                }
                streams[peer] = Some(s);
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected hello frame",
                ))
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Child / parent orchestration
// ---------------------------------------------------------------------------

/// Environment of a spawned rank.
pub(crate) struct ChildEnv {
    pub dir: PathBuf,
    pub rank: usize,
    pub size: usize,
    pub program: String,
    pub input: Vec<u8>,
    pub tcp: bool,
    pub seeds: Option<String>,
    pub registry_bind: Option<String>,
    pub advertise_ip: Option<String>,
    pub heartbeat_timeout_ms: u64,
}

/// Decode the child-side environment, if present.
pub(crate) fn child_env() -> Option<ChildEnv> {
    let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let size = std::env::var(ENV_SIZE).ok()?.parse().ok()?;
    let dir = PathBuf::from(std::env::var(ENV_DIR).ok()?);
    let program = std::env::var(ENV_PROGRAM).ok()?;
    let input = hex_decode(&std::env::var(ENV_INPUT).unwrap_or_default())?;
    let tcp = std::env::var(ENV_TCP).is_ok_and(|v| v == "1");
    let seeds = std::env::var(ENV_SEEDS).ok().filter(|s| !s.is_empty());
    let registry_bind = std::env::var(ENV_REGISTRY_BIND)
        .ok()
        .filter(|s| !s.is_empty());
    let advertise_ip = std::env::var(ENV_ADVERTISE_IP)
        .ok()
        .filter(|s| !s.is_empty());
    let heartbeat_timeout_ms = std::env::var(ENV_HB_TIMEOUT_MS)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(SpawnOptions::default().heartbeat_timeout_ms);
    Some(ChildEnv {
        dir,
        rank,
        size,
        program,
        input,
        tcp,
        seeds,
        registry_bind,
        advertise_ip,
        heartbeat_timeout_ms,
    })
}

fn hex_encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// Entry point shared by the all-or-nothing `run_spawned*` flavours:
/// dispatches to the child path when the rank environment is present,
/// otherwise spawns and supervises the children. Any failed rank turns
/// the whole world into [`SpawnError::RanksFailed`].
pub(crate) fn run_spawned_impl<F>(
    size: usize,
    program: &str,
    input: &[u8],
    opts: SpawnOptions,
    f: F,
) -> Result<Vec<Vec<u8>>, SpawnError>
where
    F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
{
    let outcome = run_spawned_outcome_impl(size, program, input, opts, f)?;
    if !outcome.failures.is_empty() {
        return Err(SpawnError::RanksFailed(outcome.failures));
    }
    Ok(outcome
        .results
        .into_iter()
        .map(|r| r.expect("no failures recorded, so every slot is filled"))
        .collect())
}

/// Failure-tolerant entry point: per-rank result slots plus failure
/// descriptions (see [`crate::World::run_spawned_outcome`]).
pub(crate) fn run_spawned_outcome_impl<F>(
    size: usize,
    program: &str,
    input: &[u8],
    opts: SpawnOptions,
    f: F,
) -> Result<SpawnOutcome, SpawnError>
where
    F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
{
    assert!(size > 0, "world size must be positive");
    if let Some(env) = child_env() {
        if env.program != program {
            // A different call site in the re-executed binary: not ours.
            return Err(SpawnError::ProgramMismatch {
                expected: env.program,
                found: program.to_string(),
            });
        }
        child_main(env, f) // never returns
    }
    parent_main(size, program, input, opts)
}

/// Run this process as one rank: connect the mesh, run the rank program,
/// report the result, tear down, exit.
fn child_main<F>(env: ChildEnv, f: F) -> !
where
    F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
{
    let fail = |msg: String| -> ! {
        eprintln!("mini-mpi rank {}: {msg}", env.rank);
        std::process::exit(102);
    };
    let mut control = match connect_endpoint(&env.dir, "control", Instant::now() + CONNECT_TIMEOUT)
    {
        Ok(s) => s,
        Err(e) => fail(format!("cannot reach parent control endpoint: {e}")),
    };
    if let Err(e) = write_frame(
        &mut control,
        &Frame::Hello {
            rank: env.rank as u32,
        },
    ) {
        fail(format!("control hello failed: {e}"));
    }
    let mesh_opts = MeshOpts {
        force_tcp: env.tcp,
        seeds: env.seeds.clone(),
        registry_bind: env.registry_bind.clone(),
        advertise_ip: env.advertise_ip.clone(),
        heartbeat_timeout_ms: env.heartbeat_timeout_ms,
    };
    let peers = match SocketPeers::connect(&env.dir, env.rank, env.size, &mesh_opts) {
        Ok(p) => p,
        Err(e) => fail(format!("rendezvous failed: {e}")),
    };
    let inner = Arc::new(WorldInner {
        transport: Transport::Socket(peers),
        bytes_sent: AtomicU64::new(0),
        messages_sent: AtomicU64::new(0),
    });
    let members: Arc<Vec<usize>> = Arc::new((0..env.size).collect());
    let mut comm = Comm::new_world(inner.clone(), env.rank, members);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm, &env.input)));
    drop(comm);
    match result {
        Ok(data) => {
            if let Err(e) = write_frame(
                &mut control,
                &Frame::Result {
                    rank: env.rank as u32,
                    data,
                },
            ) {
                fail(format!("result report failed: {e}"));
            }
            if let Transport::Socket(peers) = &inner.transport {
                peers.shutdown();
            }
            std::process::exit(0);
        }
        Err(_) => {
            // The panic hook already printed the message; the missing
            // result plus the exit code tell the parent this rank failed.
            std::process::exit(101);
        }
    }
}

/// Spawn and supervise `size` rank processes; collect their results.
fn parent_main(
    size: usize,
    program: &str,
    input: &[u8],
    opts: SpawnOptions,
) -> Result<SpawnOutcome, SpawnError> {
    static SPAWN_SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mini-mpi-{}-{}",
        std::process::id(),
        SPAWN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(SpawnError::Io)?;
    let cleanup = DirCleanup(dir.clone());

    // Resolve a `:0` seed to a concrete free port up front, so every
    // child dials the same address.
    let seeds = match &opts.seeds {
        Some(list) => {
            let mut resolved = Vec::new();
            for seed in list.split(',').filter(|s| !s.is_empty()) {
                resolved.push(resolve_port_zero(seed).map_err(SpawnError::Io)?);
            }
            if resolved.is_empty() {
                return Err(SpawnError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "empty seed list",
                )));
            }
            Some(resolved.join(","))
        }
        None => None,
    };
    let registry_bind = match &opts.registry_bind {
        Some(addr) => Some(resolve_port_zero(addr).map_err(SpawnError::Io)?),
        None => None,
    };

    let listener = Arc::new(bind_endpoint(&dir, "control", opts.tcp).map_err(SpawnError::Io)?);
    let results: Results = Arc::new(Mutex::new(vec![None; size]));
    let stop = Arc::new(AtomicBool::new(false));
    let accept_handle = spawn_control(listener.clone(), stop.clone(), results.clone());

    let exe = std::env::current_exe().map_err(SpawnError::Io)?;
    let input_hex = hex_encode(input);
    let mut children = Vec::with_capacity(size);
    for rank in 0..size {
        let mut cmd = std::process::Command::new(&exe);
        cmd.env(ENV_DIR, &dir)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_PROGRAM, program)
            .env(ENV_INPUT, &input_hex);
        if opts.tcp {
            cmd.env(ENV_TCP, "1");
        }
        if let Some(seeds) = &seeds {
            cmd.env(ENV_SEEDS, seeds);
        }
        if let Some(bind) = &registry_bind {
            cmd.env(ENV_REGISTRY_BIND, bind);
        }
        cmd.env(ENV_HB_TIMEOUT_MS, opts.heartbeat_timeout_ms.to_string());
        if opts.harness_args {
            cmd.args(["--exact", program, "--nocapture", "--test-threads", "1"]);
        }
        match cmd.spawn() {
            Ok(child) => {
                if let Some(hook) = &opts.on_spawn {
                    hook(rank, child.id());
                }
                children.push(Some(child));
            }
            Err(e) => {
                // Kill whatever already started, then report.
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
                if let Err(se) = stop_control(&stop, &dir, accept_handle) {
                    eprintln!("mini-mpi: {se}");
                }
                drop(cleanup);
                return Err(SpawnError::Io(e));
            }
        }
    }

    // Supervise: poll exit statuses until all children are gone or the
    // deadline passes (then kill the stragglers).
    let deadline = Instant::now() + opts.timeout;
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; size];
    let mut timed_out = false;
    loop {
        let mut all_done = true;
        for (rank, slot) in children.iter_mut().enumerate() {
            let Some(child) = slot else { continue };
            match child.try_wait() {
                Ok(Some(status)) => {
                    statuses[rank] = Some(status);
                    *slot = None;
                }
                Ok(None) => all_done = false,
                Err(_) => all_done = false,
            }
        }
        if all_done {
            break;
        }
        if Instant::now() >= deadline {
            timed_out = true;
            for slot in children.iter_mut() {
                if let Some(child) = slot {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                *slot = None;
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    if let Err(e) = stop_control(&stop, &dir, accept_handle) {
        eprintln!("mini-mpi: {e}");
    }

    let results = Arc::try_unwrap(results)
        .map(|m| m.into_inner())
        .unwrap_or_default();
    let mut failed = Vec::new();
    let mut slots: Vec<Option<Vec<u8>>> = Vec::with_capacity(size);
    for (rank, status) in statuses.iter().enumerate() {
        let status_ok = status.map(|s| s.success()).unwrap_or(false);
        let result = results.get(rank).cloned().flatten();
        match (result, status_ok) {
            (Some(data), true) => slots.push(Some(data)),
            (result, _) => {
                let status = match status {
                    Some(s) => format!("exit {}", s.code().map_or(-1, |c| c)),
                    None => "killed (timeout)".to_string(),
                };
                let what = if result.is_none() {
                    "no result"
                } else {
                    "result but bad exit"
                };
                failed.push(format!("rank {rank}: {status}, {what}"));
                slots.push(None);
            }
        }
    }
    drop(cleanup);
    if timed_out {
        return Err(SpawnError::Timeout {
            waited: opts.timeout,
            failed,
        });
    }
    Ok(SpawnOutcome {
        results: slots,
        failures: failed,
    })
}

/// Per-rank result slots, filled by the control connections.
type Results = Arc<Mutex<Vec<Option<Vec<u8>>>>>;

/// Start the parent's control loop. One handler thread per accepted
/// connection reads a rank's `Hello`, then its `Result` or EOF. Every
/// accepted connection is handled: once `stop` is set, the loop drains the
/// backlog (every rank that exited before has connected) and returns. The
/// caller keeps `listener` open until [`stop_control`] returns, so the
/// unblock dial always lands.
fn spawn_control(
    listener: Arc<Listener>,
    stop: Arc<AtomicBool>,
    results: Results,
) -> std::thread::JoinHandle<()> {
    let control_loop = move || {
        let mut handlers = Vec::new();
        loop {
            if stop.load(Ordering::Acquire) && listener.set_nonblocking(true).is_err() {
                break;
            }
            let Ok(mut stream) = listener.accept() else {
                break; // `WouldBlock`: the backlog is drained
            };
            let _ = stream.set_nonblocking(false);
            let results = results.clone();
            handlers.push(std::thread::spawn(move || {
                let Ok(Frame::Hello { rank }) = read_frame(&mut stream) else {
                    return;
                };
                if let Ok(Frame::Result { rank: r, data }) = read_frame(&mut stream) {
                    if let Some(slot) = results.lock().get_mut(r as usize).filter(|_| r == rank) {
                        *slot = Some(data);
                    }
                }
            }));
        }
        for h in handlers {
            let _ = h.join();
        }
    };
    std::thread::Builder::new()
        .name("mini-mpi-control".into())
        .spawn(control_loop)
        .expect("failed to spawn control thread")
}

/// Set `stop`, wake the control loop's blocking accept with a throwaway
/// connection, and join the loop. The dial retries for up to 2 s
/// (transient ECONNREFUSED under backlog pressure); if it fails and the
/// thread has not finished shortly after, a named error reports it wedged.
fn stop_control(
    stop: &AtomicBool,
    dir: &Path,
    handle: std::thread::JoinHandle<()>,
) -> io::Result<()> {
    stop.store(true, Ordering::Release);
    let unblock = connect_endpoint(dir, "control", Instant::now() + Duration::from_secs(2));
    match unblock {
        Ok(conn) => {
            drop(conn); // the loop handles it too: its handler waits for EOF
            let _ = handle.join();
            Ok(())
        }
        Err(e) => {
            // The thread may have exited on its own (accept error path);
            // poll briefly before declaring it wedged.
            let poll_deadline = Instant::now() + Duration::from_millis(500);
            while Instant::now() < poll_deadline {
                if handle.is_finished() {
                    let _ = handle.join();
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            drop(handle);
            Err(io::Error::new(
                e.kind(),
                format!(
                    "control accept thread wedged: unblock connection failed \
                     within its 2s deadline ({e}); thread leaked"
                ),
            ))
        }
    }
}

/// Best-effort removal of the rendezvous directory.
struct DirCleanup(PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [vec![], vec![0u8], vec![0xde, 0xad, 0xbe, 0xef], vec![7; 33]] {
            assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        }
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }

    #[test]
    fn frame_roundtrip() {
        let frames = [
            Frame::Data {
                seq: 11,
                env: Envelope {
                    ctx: 7,
                    src: 3,
                    tag: (1 << 63) | 42,
                    payload: Bytes::copy_from_slice(b"hello"),
                },
            },
            Frame::Goodbye { seq: 99 },
            Frame::Hello { rank: 9 },
            Frame::Result {
                rank: 2,
                data: vec![1, 2, 3],
            },
            Frame::Ping { acked: 17 },
            Frame::Pong { acked: 18 },
            Frame::Death { seq: 5, rank: 3 },
            Frame::Reconnect {
                rank: 4,
                next_expected: 1234,
            },
            Frame::ReconnectAck {
                next_expected: 4321,
            },
            Frame::Register {
                rank: 1,
                addr: "127.0.0.1:9999".into(),
            },
            Frame::Table {
                addrs: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
            },
        ];
        for frame in &frames {
            let mut buf = Vec::new();
            write_frame(&mut buf, frame).unwrap();
            let mut cursor = &buf[..];
            match (frame, read_frame(&mut cursor).unwrap()) {
                (Frame::Data { seq: s1, env: a }, Frame::Data { seq: s2, env: b }) => {
                    assert_eq!((s1, a.ctx, a.src, a.tag), (&s2, b.ctx, b.src, b.tag));
                    assert_eq!(&a.payload[..], &b.payload[..]);
                }
                (Frame::Goodbye { seq: a }, Frame::Goodbye { seq: b }) => assert_eq!(a, &b),
                (Frame::Hello { rank: a }, Frame::Hello { rank: b }) => assert_eq!(a, &b),
                (Frame::Result { rank, data }, Frame::Result { rank: r, data: d }) => {
                    assert_eq!((rank, data), (&r, &d));
                }
                (Frame::Ping { acked: a }, Frame::Ping { acked: b }) => assert_eq!(a, &b),
                (Frame::Pong { acked: a }, Frame::Pong { acked: b }) => assert_eq!(a, &b),
                (Frame::Death { seq: s1, rank: r1 }, Frame::Death { seq: s2, rank: r2 }) => {
                    assert_eq!((s1, r1), (&s2, &r2))
                }
                (
                    Frame::Reconnect {
                        rank: r1,
                        next_expected: n1,
                    },
                    Frame::Reconnect {
                        rank: r2,
                        next_expected: n2,
                    },
                ) => assert_eq!((r1, n1), (&r2, &n2)),
                (
                    Frame::ReconnectAck { next_expected: a },
                    Frame::ReconnectAck { next_expected: b },
                ) => assert_eq!(a, &b),
                (
                    Frame::Register { rank: r1, addr: a1 },
                    Frame::Register { rank: r2, addr: a2 },
                ) => assert_eq!((r1, a1), (&r2, &a2)),
                (Frame::Table { addrs: a }, Frame::Table { addrs: b }) => assert_eq!(a, &b),
                _ => panic!("frame kind changed across the wire"),
            }
            assert!(cursor.is_empty(), "frame must consume exactly its bytes");
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Data {
                seq: 0,
                env: Envelope {
                    ctx: 0,
                    src: 0,
                    tag: 0,
                    payload: Bytes::copy_from_slice(&[1, 2, 3, 4]),
                },
            },
        )
        .unwrap();
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut} must fail");
        }
        // Control frames too: a truncated register/table must not parse.
        for frame in [
            Frame::Register {
                rank: 0,
                addr: "127.0.0.1:80".into(),
            },
            Frame::Table {
                addrs: vec!["127.0.0.1:80".into()],
            },
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            for cut in 1..buf.len() {
                let mut cursor = &buf[..cut];
                assert!(read_frame(&mut cursor).is_err(), "cut at {cut} must fail");
            }
        }
    }

    #[test]
    fn resolve_port_zero_resolves_only_zero() {
        assert_eq!(
            resolve_port_zero("127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        let resolved = resolve_port_zero("127.0.0.1:0").unwrap();
        assert!(resolved.starts_with("127.0.0.1:"));
        assert_ne!(resolved, "127.0.0.1:0");
        assert!(resolve_port_zero("no-port-here").is_err());
    }

    #[test]
    fn stop_control_joins_finished_thread_even_without_unblock() {
        // The accept thread already exited (listener error path): even
        // though no control endpoint exists to dial, stop_control must
        // notice the finished thread and join it cleanly.
        let dir = std::env::temp_dir().join(format!("mini-mpi-sc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _cleanup = DirCleanup(dir.clone());
        let stop = AtomicBool::new(false);
        let handle = std::thread::spawn(|| {});
        // No endpoint bound in `dir`: connect_endpoint fails at its 2 s
        // deadline, then the finished-thread poll must succeed.
        assert!(stop_control(&stop, &dir, handle).is_ok());
        assert!(stop.load(Ordering::Acquire));
    }

    #[test]
    fn reconnect_ack_is_the_only_frame_ahead_of_retransmits() {
        // A dialer that gives up on a handshake (its read timeout, under
        // load) can leave that handshake's ack queued but unsent. The
        // next handshake's stream must open with exactly one ack and then
        // the retransmits: a second ack reaches the dialer's reader and
        // poisons its world.
        let mesh = Arc::new(Mesh::new(0, 10_000, vec![None, None], Path::new(".")));
        let link = mesh.links[1].clone().unwrap();
        mesh.send_seq(&link, |seq| Frame::Death { seq, rank: 7 });
        mesh.send_seq(&link, |seq| Frame::Death { seq, rank: 8 });
        let stale = Frame::ReconnectAck { next_expected: 0 };
        link.q.lock().ctrl.push_back(stale);
        let (ours, theirs) = UnixStream::pair().unwrap();
        let stream = Stream::Unix(ours);
        mesh.install_stream(&link, stream, 0, true).unwrap();
        let writer = {
            let (mesh, link) = (mesh.clone(), link.clone());
            std::thread::spawn(move || writer_loop(&mesh, &link))
        };
        let mut theirs = Stream::Unix(theirs);
        let kinds: Vec<String> = (0..3)
            .map(|_| match read_frame(&mut theirs).unwrap() {
                Frame::ReconnectAck { .. } => "ack".into(),
                Frame::Death { seq, .. } => format!("seq {seq}"),
                _ => "other".into(),
            })
            .collect();
        assert_eq!(kinds, ["ack", "seq 0", "seq 1"]);
        link.q.lock().closed = true;
        link.cv.notify_all();
        writer.join().unwrap();
    }

    #[test]
    fn stop_control_keeps_a_result_queued_before_stop() {
        // A one-rank world can finish before the control thread first
        // runs: the rank connects, reports and exits, the supervisor sees
        // the exit and sets `stop`, and only then does the loop start.
        // The queued connection must still be handled.
        let dir = std::env::temp_dir().join(format!("mini-mpi-scq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _cleanup = DirCleanup(dir.clone());
        let listener = Arc::new(bind_endpoint(&dir, "control", false).unwrap());
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut child = connect_endpoint(&dir, "control", deadline).unwrap();
        write_frame(&mut child, &Frame::Hello { rank: 0 }).unwrap();
        let data = vec![4, 2];
        write_frame(&mut child, &Frame::Result { rank: 0, data }).unwrap();
        drop(child);
        let stop = Arc::new(AtomicBool::new(true));
        let results: Results = Arc::new(Mutex::new(vec![None]));
        let handle = spawn_control(listener.clone(), stop.clone(), results.clone());
        stop_control(&stop, &dir, handle).unwrap();
        assert_eq!(results.lock()[0], Some(vec![4, 2]), "result lost");
    }

    #[test]
    fn stop_control_reports_wedged_thread_with_named_error() {
        // Regression test for the PR 3 bug: a wedged accept thread used
        // to be dropped silently. Now the failure is named and bounded
        // by a deadline (2 s dial + 0.5 s poll).
        let dir = std::env::temp_dir().join(format!("mini-mpi-scw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let _cleanup = DirCleanup(dir.clone());
        let stop = AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // Wedged forever (until the test process exits).
            let _ = rx.recv();
        });
        let started = Instant::now();
        let err = stop_control(&stop, &dir, handle).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "must be bounded"
        );
        assert!(
            err.to_string().contains("control accept thread wedged"),
            "error must name the leak: {err}"
        );
        drop(tx); // release the thread so the test process can exit cleanly
    }
}
