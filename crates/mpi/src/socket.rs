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
//! payload)` — the in-process `Envelope` plus a per-link sequence number.
//! One parser, `decode_frame`, reads every frame, blocking or not.
//!
//! ## The mesh thread
//!
//! Each rank runs one thread, `mini-mpi-mesh-<rank>`. It owns the
//! listener, every peer connection (nonblocking) and all link state, and
//! blocks only in `poll(2)` until a socket is ready or the next ping or
//! deadline. Application threads reach it through one command queue plus
//! an eventfd waker, so `send` never blocks, even when a socket
//! back-pressures. Link state is plain data advanced by explicit events
//! (a frame, a tick, a lost or fresh connection). Only a redial's
//! `connect`, which a remote host can make block, runs on a short-lived
//! thread.
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
//! ## Teardown
//!
//! When a rank's program finishes it reports its result to the parent
//! over an out-of-band control connection; its mesh thread then sends a
//! `Goodbye` to every peer and only closes its sockets after receiving
//! every live peer's `Goodbye` — a teardown barrier that guarantees no
//! rank observes an end-of-stream while envelopes are still in flight.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::comm::Comm;
use crate::sys::{self, EventFd, PollFd, POLLIN, POLLOUT};
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

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
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

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Listener::Unix(l) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
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

/// Dial rank `peer`'s mesh endpoint until `deadline`: its seed-mode
/// address when there is one, else its endpoint in the rendezvous `dir`.
fn dial(addr: &Option<String>, dir: &Path, peer: usize, deadline: Instant) -> io::Result<Stream> {
    match addr {
        Some(addr) => tcp_connect_retry(addr, deadline),
        None => connect_endpoint(dir, &format!("r{peer}"), deadline),
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

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A frame body being parsed, one field at a time off the front.
struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(malformed("frame body shorter than its fields"));
        }
        let (field, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(field)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    /// A `u32` length, then that many bytes.
    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| malformed("string is not UTF-8"))
    }
}

/// Read one whole frame from a blocking stream.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut buf = vec![0u8; 5];
    r.read_exact(&mut buf)?;
    // Decoding the bare head validates the length before the body is
    // allocated.
    if decode_frame(&buf)?.is_none() {
        buf.resize(5 + Fields(&buf).u32()? as usize, 0);
        r.read_exact(&mut buf[5..])?;
    }
    let frame = decode_frame(&buf)?.map(|(frame, _)| frame);
    frame.ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
}

/// Decode the frame at the front of `buf`: `Ok(None)` while it is still
/// incomplete, otherwise the frame and the bytes it took. Every byte is
/// untrusted: the length prefix is checked against [`MAX_FRAME_BODY`]
/// before anything waits for (or allocates) the body, and every length
/// inside it against the bytes that are there.
pub(crate) fn decode_frame(buf: &[u8]) -> io::Result<Option<(Frame, usize)>> {
    let Some(head) = buf.get(..5) else {
        return Ok(None);
    };
    let body_len = Fields(head).u32()? as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(malformed("frame body exceeds the frame limit"));
    }
    let Some(body) = buf.get(5..5 + body_len) else {
        return Ok(None);
    };
    // Struct fields evaluate in the order written, which is wire order.
    let mut f = Fields(body);
    let frame = match head[4] {
        KIND_DATA => Frame::Data {
            seq: f.u64()?,
            env: Envelope {
                ctx: f.u64()?,
                src: f.u32()? as usize,
                tag: f.u64()?,
                payload: Bytes::copy_from_slice(f.bytes()?),
            },
        },
        KIND_GOODBYE => Frame::Goodbye { seq: f.u64()? },
        KIND_HELLO => Frame::Hello { rank: f.u32()? },
        KIND_RESULT => Frame::Result {
            rank: f.u32()?,
            data: f.bytes()?.to_vec(),
        },
        KIND_PING => Frame::Ping { acked: f.u64()? },
        KIND_PONG => Frame::Pong { acked: f.u64()? },
        KIND_DEATH => Frame::Death {
            seq: f.u64()?,
            rank: f.u32()?,
        },
        KIND_RECONNECT => Frame::Reconnect {
            rank: f.u32()?,
            next_expected: f.u64()?,
        },
        KIND_RECONNECT_ACK => Frame::ReconnectAck {
            next_expected: f.u64()?,
        },
        KIND_REGISTER => Frame::Register {
            rank: f.u32()?,
            addr: f.string()?,
        },
        KIND_TABLE => {
            let count = f.u32()?;
            let addrs = (0..count).map(|_| f.string()).collect::<io::Result<_>>()?;
            Frame::Table { addrs }
        }
        other => return Err(malformed(&format!("unknown frame kind {other}"))),
    };
    if !f.0.is_empty() {
        return Err(malformed("frame body longer than its fields"));
    }
    Ok(Some((frame, 5 + body_len)))
}

// ---------------------------------------------------------------------------
// Peer links
// ---------------------------------------------------------------------------

/// One peer link's protocol state, owned by the mesh thread. Its
/// transitions take no socket: each consumes a frame, a tick or a
/// connection event, and frames to answer with go to `out`.
struct Link {
    peer: usize,
    next_seq_out: u64,
    /// Sequenced frames (`Data`, `Goodbye`, `Death`) the peer has not
    /// acknowledged; the first `sent` are on the current connection.
    unacked: VecDeque<(u64, Frame)>,
    sent: usize,
    /// Receive cursor: frames below it are duplicates of delivered ones.
    next_expected_in: u64,
    last_heard: Instant,
    /// When the connection closed without a goodbye; a reconnect clears it.
    eof_at: Option<Instant>,
    /// A connection is installed and past its handshake.
    up: bool,
    dead: bool,
    goodbye_seen: bool,
}

/// The sequenced frame an inbound frame delivers, if any, or why the
/// stream is broken.
type Delivery = Result<Option<Frame>, String>;

impl Link {
    /// A link whose connection the rendezvous has just made.
    fn new(peer: usize, now: Instant) -> Link {
        Link {
            peer,
            next_seq_out: 0,
            unacked: VecDeque::new(),
            sent: 0,
            next_expected_in: 0,
            last_heard: now,
            eof_at: None,
            up: true,
            dead: false,
            goodbye_seen: false,
        }
    }

    /// Queue a sequenced frame; dropped when the peer is dead.
    fn send(&mut self, build: impl FnOnce(u64) -> Frame) {
        if !self.dead {
            let seq = self.next_seq_out;
            self.unacked.push_back((seq, build(seq)));
            self.next_seq_out += 1;
        }
    }

    /// The sequenced frames not yet on the current connection, now counted
    /// as sent; none while the link is down.
    fn unsent(&mut self) -> impl Iterator<Item = &Frame> {
        let from = self.sent;
        if self.up {
            self.sent = self.unacked.len();
        }
        self.unacked.range(from..self.sent).map(|(_, frame)| frame)
    }

    /// Forget the frames below `acked`, the peer's receive cursor.
    fn apply_ack(&mut self, acked: u64) {
        while self.unacked.front().is_some_and(|&(seq, _)| seq < acked) {
            self.unacked.pop_front();
            self.sent = self.sent.saturating_sub(1);
        }
    }

    /// Take an inbound frame: the sequenced frame it delivers, if any, or
    /// why the stream is broken (a sequence gap, an unexpected frame).
    fn on_frame(&mut self, frame: Frame, now: Instant, out: &mut Vec<Frame>) -> Delivery {
        self.last_heard = now;
        let (peer, expected) = (self.peer, self.next_expected_in);
        let seq = match frame {
            Frame::Ping { acked } | Frame::Pong { acked } => {
                self.apply_ack(acked);
                if let Frame::Ping { .. } = frame {
                    out.push(Frame::Pong { acked: expected });
                }
                return Ok(None);
            }
            // The link stays open after a goodbye: its sender waits in its
            // teardown barrier for ours and pings until then, so going
            // quiet here would get this live rank declared dead.
            Frame::Data { seq, .. } | Frame::Death { seq, .. } | Frame::Goodbye { seq } => seq,
            _ => return Err(format!("rank {peer} sent an unexpected control frame")),
        };
        if seq > expected {
            let why = format!("stream desynchronized (got seq {seq}, expected {expected})");
            return Err(format!("rank {peer} {why}"));
        }
        if seq < expected {
            return Ok(None); // a retransmitted duplicate
        }
        self.next_expected_in += 1;
        self.goodbye_seen |= matches!(frame, Frame::Goodbye { .. });
        Ok(Some(frame))
    }

    /// The connection ended. `true` when the link should recover (the
    /// peer neither said goodbye nor died): its EOF window starts, the
    /// dialer redials and the acceptor waits for a `Reconnect`.
    fn lost(&mut self, now: Instant) -> bool {
        self.up = false;
        self.sent = 0;
        if self.dead || self.goodbye_seen {
            return false;
        }
        self.eof_at.get_or_insert(now);
        true
    }

    /// A reconnect handshake finished: forget what the peer already has
    /// and rewind, so exactly the unacknowledged suffix is resent.
    fn reconnected(&mut self, peer_next_expected: u64, now: Instant) {
        self.apply_ack(peer_next_expected);
        self.sent = 0;
        self.up = true;
        self.eof_at = None;
        self.last_heard = now;
    }

    /// One heartbeat tick: ping an up link; say why the peer is dead if it
    /// was silent past `timeout` or no reconnect came within `eof_window`.
    fn tick(
        &mut self,
        now: Instant,
        timeout: Duration,
        eof_window: Duration,
        out: &mut Vec<Frame>,
    ) -> Option<String> {
        if self.dead || self.goodbye_seen {
            return None;
        }
        if self.up {
            out.push(Frame::Ping {
                acked: self.next_expected_in,
            });
        }
        let since = |at: Instant| now.saturating_duration_since(at);
        if since(self.last_heard) > timeout {
            let ms = timeout.as_millis();
            return Some(format!("heartbeat timeout ({ms} ms silent)"));
        }
        let eof_expired = self.eof_at.is_some_and(|at| since(at) > eof_window);
        (!self.up && eof_expired).then(|| "connection closed before goodbye".into())
    }
}

/// A connection's inbound bytes: whole frames are decoded off the front,
/// a partial one waits for the rest.
#[derive(Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let Some((frame, used)) = decode_frame(&self.buf[self.start..])? else {
            return Ok(None);
        };
        self.start += used;
        Ok(Some(frame))
    }
}

/// One nonblocking connection and the bytes on their way through it.
/// Dropping it closes the stream along with every frame still queued for
/// it: control frames belong to their connection, so a stale one cannot
/// reach the next.
struct Conn {
    stream: Stream,
    /// `poll` reported the stream readable (or closed) since the last read.
    readable: bool,
    inbox: FrameBuf,
    /// Encoded outbound frames; `out[written..]` is not on the wire yet.
    out: Vec<u8>,
    written: usize,
}

impl Conn {
    fn new(stream: Stream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let (inbox, out) = (FrameBuf::default(), Vec::new());
        Ok(Conn {
            stream,
            readable: true,
            inbox,
            out,
            written: 0,
        })
    }

    fn queue(&mut self, frame: &Frame) {
        // `post` rejects envelopes above the frame limit.
        write_frame(&mut self.out, frame).expect("frame within the limit");
    }

    fn pending(&self) -> bool {
        self.written < self.out.len()
    }

    /// One read into the inbox (`poll` is level-triggered, so whatever is
    /// left wakes the next pass). `false` once the stream ended or failed.
    fn fill(&mut self, scratch: &mut [u8]) -> bool {
        if !std::mem::take(&mut self.readable) {
            return true;
        }
        match self.stream.read(scratch) {
            Ok(0) => false,
            Ok(n) => {
                self.inbox.extend(&scratch[..n]);
                true
            }
            Err(e) => {
                e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::Interrupted
            }
        }
    }

    /// Write what the socket takes; `false` when the write failed.
    fn flush(&mut self) -> bool {
        while self.pending() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return false,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return e.kind() == io::ErrorKind::WouldBlock,
            }
        }
        self.out.clear();
        self.written = 0;
        true
    }
}

// ---------------------------------------------------------------------------
// Peer mesh
// ---------------------------------------------------------------------------

/// What other threads hand the mesh thread.
enum Cmd {
    Send(usize, Envelope),
    /// A redial's `connect` to a peer finished; `None` when it failed.
    Dialed(usize, Option<Stream>),
    /// Start the teardown barrier.
    Shutdown,
}

/// What a rank's mesh shares with its other threads.
struct Shared {
    rank: usize,
    mailbox: Mailbox,
    cmds: Mutex<VecDeque<Cmd>>,
    /// Signalled when `cmds` turns non-empty.
    waker: EventFd,
}

impl Shared {
    fn new(rank: usize) -> io::Result<Arc<Shared>> {
        let (mailbox, cmds, waker) = (Mailbox::new(), Mutex::default(), EventFd::new()?);
        Ok(Arc::new(Shared {
            rank,
            mailbox,
            cmds,
            waker,
        }))
    }

    fn command(&self, cmd: Cmd) {
        let mut cmds = self.cmds.lock();
        let was_empty = cmds.is_empty();
        cmds.push_back(cmd);
        drop(cmds);
        // The mesh thread drains the eventfd before it takes the queue,
        // so one signal per non-empty spell cannot be lost.
        if was_empty {
            self.waker.signal();
        }
    }
}

/// The dialer side's way back to a connection. Each variant but `Idle`
/// carries its attempt's index into `RECONNECT_BACKOFF_MS`.
enum Redial {
    Idle,
    /// The attempt starts at the instant.
    Wait(usize, Instant),
    /// Its `connect` runs on a short-lived thread.
    Connecting(usize),
    /// `Reconnect` is sent; its ack is due by the instant.
    Handshake(usize, Instant),
}

struct Peer {
    link: Link,
    conn: Option<Conn>,
    redial: Redial,
}

/// The mesh thread's state: the listener, every peer connection and every
/// link, owned by one thread that blocks only in `poll(2)`.
struct MeshLoop {
    shared: Arc<Shared>,
    /// Indexed by rank; `None` at our own.
    peers: Vec<Option<Peer>>,
    /// Drained once a tick, and not polled: reconnects are rare, and an
    /// `accept` that finds none costs more than the rest of a pass.
    listener: Option<Listener>,
    /// Accepted connections awaiting their `Reconnect`, with deadlines.
    accepted: Vec<(Conn, Instant)>,
    /// The ping interval: a tenth of the timeout, clamped to 5–200 ms.
    hb_interval: Duration,
    hb_timeout: Duration,
    /// How long a reconnect may take: `min(timeout, 2 s)`.
    eof_window: Duration,
    next_tick: Instant,
    /// Redial targets: seed-mode addresses, else `r<peer>` in `dir`.
    peer_addrs: Vec<Option<String>>,
    dir: PathBuf,
    /// Set by `Shutdown`: when teardown stops waiting.
    closing: Option<Instant>,
    scratch: Vec<u8>,
    /// `poll` reported the waker signalled.
    woken: bool,
}

impl MeshLoop {
    fn new(
        shared: Arc<Shared>,
        streams: Vec<Option<Stream>>,
        listener: Option<Listener>,
        heartbeat_timeout_ms: u64,
        peer_addrs: Vec<Option<String>>,
        dir: &Path,
    ) -> io::Result<MeshLoop> {
        let now = Instant::now();
        let mut peers = Vec::with_capacity(streams.len());
        for (peer, stream) in streams.into_iter().enumerate() {
            let conn = stream.map(Conn::new).transpose()?;
            peers.push(conn.map(|conn| Peer {
                link: Link::new(peer, now),
                conn: Some(conn),
                redial: Redial::Idle,
            }));
        }
        let hb_timeout = Duration::from_millis(heartbeat_timeout_ms.max(1));
        let hb_interval =
            (hb_timeout / 10).clamp(Duration::from_millis(5), Duration::from_millis(200));
        Ok(MeshLoop {
            shared,
            peers,
            // A blocking listener would stall the loop in `accept`.
            listener: listener.filter(|l| l.set_nonblocking(true).is_ok()),
            accepted: Vec::new(),
            hb_interval,
            hb_timeout,
            eof_window: hb_timeout.min(EOF_DEATH_WINDOW_CAP),
            next_tick: now + hb_interval,
            peer_addrs,
            dir: dir.to_path_buf(),
            closing: None,
            scratch: vec![0; 64 << 10],
            woken: true,
        })
    }

    fn run(mut self) {
        let mut cmds = VecDeque::new();
        loop {
            let now = Instant::now();
            if std::mem::take(&mut self.woken) {
                self.shared.waker.drain();
            }
            cmds.append(&mut self.shared.cmds.lock());
            for cmd in cmds.drain(..) {
                self.command(cmd, now);
            }
            self.on_timers(now);
            for p in 0..self.peers.len() {
                self.read_peer(p, now);
            }
            self.read_accepted(now);
            self.write_all();
            if let Some(deadline) = self.closing {
                let mut conns = self.peers.iter().flatten().filter_map(|p| p.conn.as_ref());
                let flushed = conns.all(|c| !c.pending());
                if (self.barrier_done() && flushed) || now >= deadline {
                    return;
                }
            }
            self.wait();
        }
    }

    /// Block in `poll` until the waker or a socket is ready or the next
    /// deadline (ping, redial, handshake, teardown) is due.
    fn wait(&mut self) {
        let redials = self.peers.iter().flatten().filter_map(|p| match p.redial {
            Redial::Wait(_, at) | Redial::Handshake(_, at) => Some(at),
            Redial::Idle | Redial::Connecting(_) => None,
        });
        let due = redials
            .chain(self.accepted.iter().map(|&(_, at)| at))
            .chain(self.closing)
            .fold(self.next_tick, Instant::min);
        let peers = self
            .peers
            .iter_mut()
            .flatten()
            .filter_map(|p| p.conn.as_mut());
        let mut conns: Vec<_> = peers
            .chain(self.accepted.iter_mut().map(|(c, _)| c))
            .collect();
        let mut fds = vec![PollFd::new(&self.shared.waker, POLLIN)];
        for conn in &conns {
            let out = if conn.pending() { POLLOUT } else { 0 };
            fds.push(PollFd::new(&conn.stream, POLLIN | out));
        }
        // `poll` counts whole milliseconds: round up rather than spin.
        let timeout = due.saturating_duration_since(Instant::now()) + Duration::from_millis(1);
        let _ = sys::wait(&mut fds, Some(timeout)); // EINVAL, ENOMEM: wait again
        self.woken = fds[0].ready();
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            conn.readable = fd.ready();
        }
    }

    fn command(&mut self, cmd: Cmd, now: Instant) {
        match cmd {
            Cmd::Send(dest, env) => {
                if let Some(peer) = &mut self.peers[dest] {
                    peer.link.send(|seq| Frame::Data { seq, env });
                }
            }
            Cmd::Dialed(p, stream) => {
                let Some(peer) = &mut self.peers[p] else {
                    return;
                };
                let Redial::Connecting(attempt) = peer.redial else {
                    return; // the peer died meanwhile
                };
                let Some(Ok(mut conn)) = stream.map(Conn::new) else {
                    return self.conn_lost(p, now);
                };
                conn.queue(&Frame::Reconnect {
                    rank: self.shared.rank as u32,
                    next_expected: peer.link.next_expected_in,
                });
                peer.conn = Some(conn);
                peer.redial = Redial::Handshake(attempt, now + self.eof_window);
            }
            Cmd::Shutdown => {
                for peer in self.peers.iter_mut().flatten() {
                    peer.link.send(|seq| Frame::Goodbye { seq });
                }
                self.closing = Some(now + GOODBYE_TIMEOUT);
            }
        }
    }

    /// Teardown may close once every live peer's goodbye has arrived
    /// (dead peers are excused) or the mailbox is poisoned.
    fn barrier_done(&self) -> bool {
        let mut links = self.peers.iter().flatten().map(|p| &p.link);
        self.shared.mailbox.is_poisoned().is_some() || links.all(|l| l.goodbye_seen || l.dead)
    }

    /// Redial attempts, expired handshakes and heartbeat ticks.
    fn on_timers(&mut self, now: Instant) {
        let tick = now >= self.next_tick;
        if tick {
            self.next_tick = now + self.hb_interval;
            let deadline = now + self.eof_window;
            while let Some(Ok(stream)) = self.listener.as_ref().map(Listener::accept) {
                self.accepted
                    .extend(Conn::new(stream).map(|c| (c, deadline)));
            }
        }
        self.accepted.retain(|&(_, at)| at > now);
        let mut out = Vec::new();
        for p in 0..self.peers.len() {
            let Some(peer) = &mut self.peers[p] else {
                continue;
            };
            match peer.redial {
                Redial::Wait(attempt, at) if at <= now => {
                    peer.redial = Redial::Connecting(attempt);
                    self.redial(p);
                    continue;
                }
                Redial::Handshake(_, at) if at <= now => {
                    self.conn_lost(p, now);
                    continue;
                }
                _ => {}
            }
            if !tick {
                continue;
            }
            let (timeout, window) = (self.hb_timeout, self.eof_window);
            let died = peer.link.tick(now, timeout, window, &mut out);
            if let Some(conn) = &mut peer.conn {
                out.iter().for_each(|frame| conn.queue(frame));
            }
            out.clear();
            if let Some(reason) = died {
                self.declare_dead(p, &reason);
            }
        }
    }

    /// Start a redial of `peer`. Only `connect` may block (a remote host
    /// decides how long), so it runs on a short-lived thread that hands the
    /// stream back through the command queue, and nothing waits to join it;
    /// the handshake runs in the loop.
    fn redial(&self, peer: usize) {
        let shared = self.shared.clone();
        let (addr, dir) = (self.peer_addrs[peer].clone(), self.dir.clone());
        let connect = move || {
            let deadline = Instant::now() + Duration::from_millis(250);
            let stream = dial(&addr, &dir, peer, deadline).ok();
            shared.command(Cmd::Dialed(peer, stream));
        };
        let thread =
            std::thread::Builder::new().name(format!("mini-mpi-dial-{}", self.shared.rank));
        if thread.spawn(connect).is_err() {
            self.shared.command(Cmd::Dialed(peer, None));
        }
    }

    /// Read peer `p`'s connection and handle every whole frame.
    fn read_peer(&mut self, p: usize, now: Instant) {
        let Some(peer) = &mut self.peers[p] else {
            return;
        };
        let Some(conn) = &mut peer.conn else {
            return;
        };
        let mut open = conn.fill(&mut self.scratch);
        let (mut out, mut deaths) = (Vec::new(), Vec::new());
        while open {
            // A malformed frame downs the connection.
            let next = conn.inbox.next_frame();
            open = next.is_ok();
            let Ok(Some(frame)) = next else {
                break;
            };
            if let Redial::Handshake(..) = peer.redial {
                // The acceptor queues its ack ahead of every other frame.
                let Frame::ReconnectAck { next_expected } = frame else {
                    open = false;
                    break;
                };
                peer.link.reconnected(next_expected, now);
                peer.redial = Redial::Idle;
                continue;
            }
            match peer.link.on_frame(frame, now, &mut out) {
                Ok(Some(Frame::Data { env, .. })) => self.shared.mailbox.push(env),
                Ok(Some(Frame::Death { rank, .. })) => deaths.push(rank as usize),
                Ok(_) => {}
                Err(why) => self.shared.mailbox.poison(why),
            }
        }
        out.iter().for_each(|frame| conn.queue(frame));
        if !open {
            self.conn_lost(p, now);
        }
        for rank in deaths {
            // Reports about ourselves are ignored: we are demonstrably
            // alive, and the reporter may sit across a partition.
            if rank != self.shared.rank && rank < self.peers.len() {
                self.declare_dead(rank, &format!("reported dead by rank {p}"));
            }
        }
    }

    /// Peer `p`'s connection ended or failed, or a redial attempt did. The
    /// dialer side (mesh setup dials every lower rank) tries the next
    /// attempt after its backoff; once none is left, the peer is dead.
    fn conn_lost(&mut self, p: usize, now: Instant) {
        let Some(peer) = &mut self.peers[p] else {
            return;
        };
        peer.conn = None;
        let attempt = match peer.redial {
            Redial::Connecting(attempt) | Redial::Handshake(attempt, _) => attempt + 1,
            _ if peer.link.lost(now) && p < self.shared.rank => 0,
            _ => return,
        };
        match RECONNECT_BACKOFF_MS.get(attempt) {
            Some(&ms) => peer.redial = Redial::Wait(attempt, now + Duration::from_millis(ms)),
            None => self.declare_dead(p, "reconnect retries exhausted"),
        }
    }

    /// Read the `Reconnect` of each accepted connection.
    fn read_accepted(&mut self, now: Instant) {
        for (mut conn, at) in std::mem::take(&mut self.accepted) {
            let open = conn.fill(&mut self.scratch);
            match conn.inbox.next_frame() {
                Ok(Some(Frame::Reconnect {
                    rank,
                    next_expected,
                })) => self.reconnect_accepted(rank as usize, next_expected, conn, now),
                Ok(None) if open => self.accepted.push((conn, at)),
                _ => {} // anything else closes it
            }
        }
    }

    /// A `Reconnect` arrived: the connection replaces the link's old one
    /// (closing it with whatever was still queued there) and opens with a
    /// `ReconnectAck` carrying our receive cursor; the unacknowledged
    /// suffix follows.
    fn reconnect_accepted(&mut self, rank: usize, next: u64, mut conn: Conn, now: Instant) {
        let Some(peer) = self.peers.get_mut(rank).and_then(Option::as_mut) else {
            return;
        };
        if peer.link.dead {
            return;
        }
        peer.link.reconnected(next, now);
        conn.queue(&Frame::ReconnectAck {
            next_expected: peer.link.next_expected_in,
        });
        peer.conn = Some(conn);
        peer.redial = Redial::Idle;
    }

    /// Queue every link's unsent frames and write what each socket takes.
    fn write_all(&mut self) {
        for p in 0..self.peers.len() {
            let Some(Peer {
                link,
                conn: Some(conn),
                ..
            }) = &mut self.peers[p]
            else {
                continue;
            };
            link.unsent().for_each(|frame| conn.queue(frame));
            if !conn.flush() {
                self.conn_lost(p, Instant::now());
            }
        }
    }

    /// Declare peer `p` dead, once: close its connection, mark the
    /// mailbox, and relay a sequenced `Death` to every other live peer so
    /// all survivors converge on the same membership view.
    fn declare_dead(&mut self, p: usize, reason: &str) {
        let Some(peer) = self.peers[p].as_mut().filter(|peer| !peer.link.dead) else {
            return;
        };
        peer.link.dead = true;
        peer.conn = None;
        peer.redial = Redial::Idle;
        let rank = self.shared.rank;
        eprintln!("mini-mpi rank {rank}: declared rank {p} dead ({reason})");
        self.shared.mailbox.mark_dead(p);
        for other in self.peers.iter_mut().flatten() {
            let rank = p as u32;
            other.link.send(|seq| Frame::Death { seq, rank });
        }
    }
}

/// One rank's view of a socket world: what it shares with its mesh
/// thread, and that thread. Lives inside [`WorldInner`].
pub(crate) struct SocketPeers {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
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
        // A stray connection closes as it drops.
        let Ok(Frame::Register { rank, addr }) = read_frame(&mut s) else {
            continue;
        };
        let rank = rank as usize;
        if rank >= size || addrs[rank].is_some() {
            let why = format!("registry: duplicate or out-of-range rank {rank}");
            return Err(malformed(&why));
        }
        addrs[rank] = Some(addr);
        registered += 1;
        conns.push((rank, s));
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
        self.shared.rank
    }

    pub(crate) fn mailbox(&self) -> &Mailbox {
        &self.shared.mailbox
    }

    /// Hand an envelope for `dest` to the mesh thread (own rank: direct
    /// mailbox push); never blocks. Panics if the world is already
    /// poisoned — a send to (or via) a broken mesh must fail loudly,
    /// exactly like a receive — or if the envelope exceeds the frame
    /// limit. A send to a rank declared dead by the membership layer is
    /// silently dropped (degraded mode: survivors keep working).
    pub(crate) fn post(&self, dest: usize, env: Envelope) {
        let shared = &self.shared;
        if let Some(reason) = shared.mailbox.is_poisoned() {
            panic!("mini-mpi: send failed: {reason}");
        }
        if dest == shared.rank {
            shared.mailbox.push(env);
            return;
        }
        assert!(
            32 + env.payload.len() <= MAX_FRAME_BODY,
            "mini-mpi: send failed: message of {} bytes exceeds the frame limit",
            env.payload.len()
        );
        shared.command(Cmd::Send(dest, env));
    }

    /// Establish the full mesh for this rank: shared-dir rendezvous by
    /// default, seed-list registry bootstrap when `env.seeds` is set.
    fn connect(env: &ChildEnv) -> io::Result<SocketPeers> {
        let (dir, rank, size) = (&env.dir, env.rank, env.size);
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut registry_thread = None;
        let mut peer_addrs: Vec<Option<String>> = vec![None; size];
        let mut streams: Vec<Option<Stream>> = (0..size).map(|_| None).collect();

        let listener = if let Some(seeds) = &env.seeds {
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
                let bind = env.registry_bind.clone().unwrap_or_else(|| seed.clone());
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
            let advertise_ip = match &env.advertise_ip {
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
                _ => return Err(malformed("registry handed back a malformed peer table")),
            };
            drop(reg);
            for (peer, addr) in table.into_iter().enumerate() {
                if peer != rank {
                    peer_addrs[peer] = Some(addr);
                }
            }
            Listener::Tcp(data_listener)
        } else {
            // --- Shared-dir rendezvous ---------------------------------
            bind_endpoint(dir, &format!("r{rank}"), env.tcp)?
        };
        // The mesh: dial every lower rank, accept from every higher rank.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut s = dial(&peer_addrs[peer], dir, peer, deadline)?;
            write_frame(&mut s, &Frame::Hello { rank: rank as u32 })?;
            *slot = Some(s);
        }
        accept_higher(&listener, rank, size, &mut streams)?;

        if let Some(registry) = registry_thread {
            // Every rank has its table once the mesh is up.
            let _ = registry.join();
        }
        let hb_ms = env.heartbeat_timeout_ms;
        SocketPeers::start(rank, streams, Some(listener), hb_ms, peer_addrs, dir)
    }

    /// Start the mesh thread over the rendezvous' streams (one per peer,
    /// `None` at our own rank).
    fn start(
        rank: usize,
        streams: Vec<Option<Stream>>,
        listener: Option<Listener>,
        heartbeat_timeout_ms: u64,
        peer_addrs: Vec<Option<String>>,
        dir: &Path,
    ) -> io::Result<SocketPeers> {
        let shared = Shared::new(rank)?;
        let hb_ms = heartbeat_timeout_ms;
        let mesh = MeshLoop::new(shared.clone(), streams, listener, hb_ms, peer_addrs, dir)?;
        let thread = std::thread::Builder::new()
            .name(format!("mini-mpi-mesh-{rank}"))
            .spawn(move || {
                let shared = mesh.shared.clone();
                // A mesh bug must fail the rank's receives, not hang them.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mesh.run())).is_err() {
                    shared.mailbox.poison("the mesh thread panicked".into());
                }
            })?;
        Ok(SocketPeers {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Teardown barrier: the mesh thread sends a goodbye to every live
    /// peer and keeps serving until every live peer's goodbye arrived
    /// (dead peers are excused, a poisoned mailbox gives up,
    /// `GOODBYE_TIMEOUT` bounds everything), then flushes and closes.
    fn shutdown(&self) {
        self.shared.command(Cmd::Shutdown);
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
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
        let Frame::Hello { rank: peer } = read_frame(&mut s)? else {
            return Err(malformed("expected hello frame"));
        };
        let peer = peer as usize;
        if peer <= rank || peer >= size || streams[peer].is_some() {
            return Err(malformed(&format!("unexpected hello from rank {peer}")));
        }
        streams[peer] = Some(s);
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
    /// Seed-list mode: the IP to advertise when the registration
    /// connection's local address is the wrong one (multi-homed, NAT).
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
    let peers = match SocketPeers::connect(&env) {
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

    fn env(src: usize, tag: u64, payload: &[u8]) -> Envelope {
        let payload = Bytes::copy_from_slice(payload);
        let ctx = 0;
        Envelope {
            ctx,
            src,
            tag,
            payload,
        }
    }

    fn data(seq: u64, tag: u64) -> Frame {
        let env = env(0, tag, &[]);
        Frame::Data { seq, env }
    }

    /// Feed `frames` to `link`: the tags it delivers, and its replies.
    fn deliver(link: &mut Link, frames: impl IntoIterator<Item = Frame>) -> (Vec<u64>, Vec<Frame>) {
        let (now, mut out, mut tags) = (Instant::now(), Vec::new(), Vec::new());
        for frame in frames {
            if let Ok(Some(Frame::Data { env, .. })) = link.on_frame(frame, now, &mut out) {
                tags.push(env.tag);
            }
        }
        (tags, out)
    }

    #[test]
    fn two_mesh_threads_exchange_envelopes_and_tear_down() {
        // Two ranks in one process over a socket pair: each rank's program
        // sends through the command queue while its mesh thread carries
        // the frames, and the teardown barrier releases both.
        let (a, b) = UnixStream::pair().unwrap();
        let (a, b) = (Some(Stream::Unix(a)), Some(Stream::Unix(b)));
        std::thread::scope(|scope| {
            for (rank, streams) in [vec![None, a], vec![b, None]].into_iter().enumerate() {
                scope.spawn(move || {
                    let no_addrs = vec![None; 2];
                    let peers =
                        SocketPeers::start(rank, streams, None, 10_000, no_addrs, Path::new("."));
                    let inner = Arc::new(WorldInner {
                        transport: Transport::Socket(peers.unwrap()),
                        bytes_sent: AtomicU64::new(0),
                        messages_sent: AtomicU64::new(0),
                    });
                    let comm = Comm::new_world(inner.clone(), rank, Arc::new(vec![0, 1]));
                    (0..200u64).for_each(|i| comm.send(1 - rank, 1, &[i]));
                    for i in 0..200u64 {
                        assert_eq!(comm.recv::<u64>(crate::Source::Rank(1 - rank), 1), [i]);
                    }
                    let Transport::Socket(peers) = &inner.transport else {
                        unreachable!()
                    };
                    peers.shutdown();
                    assert!(peers.mailbox().is_poisoned().is_none());
                });
            }
        });
    }

    #[test]
    fn reconnect_ack_is_the_only_frame_ahead_of_retransmits() {
        // A dialer that gives up on a handshake (its deadline, under load)
        // can leave that handshake's ack queued but unsent. The next
        // handshake's stream must open with exactly one ack and then the
        // retransmits: a second ack reaches the dialer's reader and
        // poisons its world.
        let shared = Shared::new(0).unwrap();
        let (old_ours, old_theirs) = UnixStream::pair().unwrap();
        let streams = vec![None, Some(Stream::Unix(old_ours))];
        let mut mesh =
            MeshLoop::new(shared, streams, None, 10_000, vec![None; 2], Path::new(".")).unwrap();
        let peer = mesh.peers[1].as_mut().unwrap();
        peer.link.send(|seq| Frame::Death { seq, rank: 7 });
        peer.link.send(|seq| Frame::Death { seq, rank: 8 });
        let stale = Frame::ReconnectAck { next_expected: 0 };
        peer.conn.as_mut().unwrap().queue(&stale);
        let (ours, theirs) = UnixStream::pair().unwrap();
        let conn = Conn::new(Stream::Unix(ours)).unwrap();
        mesh.reconnect_accepted(1, 0, conn, Instant::now());
        mesh.write_all();
        let mut theirs = Stream::Unix(theirs);
        let kinds: Vec<String> = (0..3)
            .map(|_| match read_frame(&mut theirs).unwrap() {
                Frame::ReconnectAck { .. } => "ack".into(),
                Frame::Death { seq, .. } => format!("seq {seq}"),
                _ => "other".into(),
            })
            .collect();
        assert_eq!(kinds, ["ack", "seq 0", "seq 1"]);
        // The stale ack went down with its connection, unsent.
        assert!(read_frame(&mut Stream::Unix(old_theirs)).is_err());
    }

    #[test]
    fn transient_drop_retransmits_exactly_the_unacked_suffix() {
        // The schedule of `failure_injection`'s transient-drop test: the
        // connection drops with frames in flight both ways, the dialer's
        // `Reconnect` and the acceptor's ack carry each side's receive
        // cursor, and each side resends exactly what the other lacks.
        let now = Instant::now();
        let (mut dialer, mut acceptor) = (Link::new(0, now), Link::new(1, now));
        (0..6).for_each(|tag| dialer.send(|seq| data(seq, tag)));
        (100..102).for_each(|tag| acceptor.send(|seq| data(seq, tag)));
        let on_wire: Vec<Frame> = dialer.unsent().take(3).cloned().collect();
        assert_eq!(deliver(&mut acceptor, on_wire).0, [0, 1, 2]);
        let on_wire: Vec<Frame> = acceptor.unsent().take(1).cloned().collect();
        assert_eq!(deliver(&mut dialer, on_wire).0, [100]);
        assert!(dialer.lost(now) && acceptor.lost(now));
        dialer.send(|seq| data(seq, 6)); // waits for the reconnect
        assert_eq!(dialer.unsent().count(), 0);
        acceptor.reconnected(dialer.next_expected_in, now);
        dialer.reconnected(acceptor.next_expected_in, now);
        let resent: Vec<Frame> = dialer.unsent().cloned().collect();
        let late_duplicate = data(2, 2);
        let to_acceptor = std::iter::once(late_duplicate).chain(resent);
        assert_eq!(deliver(&mut acceptor, to_acceptor).0, [3, 4, 5, 6]);
        let resent: Vec<Frame> = acceptor.unsent().cloned().collect();
        assert_eq!(deliver(&mut dialer, resent).0, [101]);
        // Pings carry the cursors back and empty both retransmit buffers.
        deliver(&mut acceptor, [Frame::Ping { acked: 2 }]);
        deliver(&mut dialer, [Frame::Ping { acked: 7 }]);
        assert!(dialer.unacked.is_empty() && acceptor.unacked.is_empty());
    }

    #[test]
    fn link_answers_pings_after_goodbye_and_breaks_on_gaps() {
        let now = Instant::now();
        let mut link = Link::new(1, now);
        let (_, out) = deliver(
            &mut link,
            [Frame::Goodbye { seq: 0 }, Frame::Ping { acked: 0 }],
        );
        assert!(matches!(out[..], [Frame::Pong { acked: 1 }]));
        // The peer's EOF after its goodbye is the end, not a failure.
        assert!(!link.lost(now) && link.eof_at.is_none());
        for stray in [data(5, 0), Frame::Hello { rank: 1 }] {
            assert!(link.on_frame(stray, now, &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn link_tick_pings_then_times_out() {
        let now = Instant::now();
        let (timeout, window) = (Duration::from_millis(100), Duration::from_millis(50));
        let mut out = Vec::new();
        let mut link = Link::new(1, now);
        assert!(link.tick(now, timeout, window, &mut out).is_none());
        assert!(matches!(out[..], [Frame::Ping { acked: 0 }]));
        let why = link.tick(now + timeout * 2, timeout, window, &mut out);
        assert!(why.unwrap().contains("heartbeat timeout"));
        // A down link dies when its EOF window passes without a reconnect,
        // and is not pinged meanwhile.
        let mut link = Link::new(1, now);
        assert!(link.lost(now));
        out.clear();
        assert!(link.tick(now, timeout, window, &mut out).is_none() && out.is_empty());
        let why = link.tick(now + window * 2, timeout, window, &mut out);
        assert_eq!(why.as_deref(), Some("connection closed before goodbye"));
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
