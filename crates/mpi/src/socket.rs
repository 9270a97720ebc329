//! Multi-process transport: the rendezvous, framing, the reliable
//! heartbeat mesh, and the `run_spawned` process orchestration.
//!
//! ## Rendezvous
//!
//! The launching parent is the one registry. Before it spawns a rank it
//! binds one listener: a Unix socket in the spawn directory (a TCP
//! loopback one when the path does not fit `sockaddr_un`), or, with
//! [`crate::SpawnOptions::seeds`], a TCP listener at
//! [`crate::SpawnOptions::registry_bind`] or else the first seed (a `:0`
//! port is the one the parent got). It then re-executes the current
//! binary once per rank with `MINI_MPI_{DIR,RANK,SIZE,PROGRAM,REGISTRY}`
//! in the environment.
//!
//! Each rank binds its own mesh listener (beside a Unix-socket registry,
//! `r<k>.sock` in the directory, with the same TCP fallback; beside a TCP
//! registry, a TCP listener), dials the registry and sends
//! `Register{rank, addr}`. Once every rank has registered, the parent
//! answers each with one `Welcome` frame: the peer table, the launch
//! input and the heartbeat timeout. Every listener was bound before the
//! table went out, so a rank dials each lower rank exactly once, with a
//! `Hello` frame naming itself, and accepts one connection from each
//! higher rank. It later reports its result on the registry connection.
//!
//! A TCP mesh listener binds loopback beside a loopback registry. Beside
//! any other registry host it binds every interface and advertises the
//! local IP of its registry connection (the interface routed toward the
//! parent), so peers on other hosts dial a routable address;
//! `MINI_MPI_ADVERTISE_IP` overrides it for multi-homed or NATed hosts.
//!
//! The parent supervises from one `poll(2)` loop on the calling thread:
//! the listener, every rank connection and one pidfd per child. A child
//! that exits before the table went out fails the launch at once, and the
//! parent kills the rest.
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
//! over its registry connection; its mesh thread then sends a `Goodbye`
//! to every peer and only closes its sockets after receiving every live
//! peer's `Goodbye` — a teardown barrier that guarantees no rank observes
//! an end-of-stream while envelopes are still in flight.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
const ENV_REGISTRY: &str = "MINI_MPI_REGISTRY";
const ENV_ADVERTISE_IP: &str = "MINI_MPI_ADVERTISE_IP";

/// How long a finished rank waits for peers' goodbyes before closing its
/// sockets anyway (a dead peer must not wedge survivors in teardown).
const GOODBYE_TIMEOUT: Duration = Duration::from_secs(30);
/// Redial schedule after a transient socket failure (dialer side of a
/// reliable link): one `connect` after each backoff, then the peer is
/// declared dead.
const RECONNECT_BACKOFF_MS: [u64; 4] = [25, 50, 100, 200];
/// Upper bound on how long an acceptor-side link waits after an EOF
/// without goodbye for the dialer to reconnect before declaring the peer
/// dead (the effective window is `min(heartbeat timeout, this)`).
const EOF_DEATH_WINDOW_CAP: Duration = Duration::from_secs(2);
/// How an advertised address names a Unix socket; any other address is
/// TCP `host:port`.
const UNIX_PREFIX: &str = "unix:";

// ---------------------------------------------------------------------------
// Stream / listener abstraction (UDS with TCP loopback fallback)
// ---------------------------------------------------------------------------

pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
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

/// Bind the listener `<name>.sock` in `dir`, or a TCP loopback one when
/// that path does not fit `sockaddr_un` (or is not UTF-8); returns it with
/// the address to dial it at.
fn bind_listener(dir: &Path, name: &str) -> io::Result<(Listener, String)> {
    let path = dir.join(format!("{name}.sock"));
    if let Some(addr) = path.to_str().map(|p| format!("{UNIX_PREFIX}{p}")) {
        if let Ok(l) = UnixListener::bind(&path) {
            return Ok((Listener::Unix(l), addr));
        }
    }
    let l = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = l.local_addr()?.to_string();
    Ok((Listener::Tcp(l), addr))
}

/// One `connect` to an advertised address: `unix:<path>` or `host:port`.
fn dial(addr: &str) -> io::Result<Stream> {
    let stream = match addr.strip_prefix(UNIX_PREFIX) {
        Some(path) => UnixStream::connect(path).map(Stream::Unix),
        None => TcpStream::connect(addr).map(Stream::Tcp),
    };
    stream.map_err(|e| io::Error::new(e.kind(), format!("cannot reach {addr}: {e}")))
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
const KIND_WELCOME: u8 = 10;

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
    /// Rank result, reported on the registry connection.
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
    /// Rendezvous: a rank announces its mesh listener's address.
    Register { rank: u32, addr: String },
    /// Rendezvous: the parent's one reply, once every rank registered.
    Welcome {
        heartbeat_timeout_ms: u64,
        addrs: Vec<String>,
        input: Vec<u8>,
    },
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
        Frame::Welcome {
            heartbeat_timeout_ms,
            addrs,
            input,
        } => {
            body.extend_from_slice(&heartbeat_timeout_ms.to_le_bytes());
            body.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
            for addr in addrs {
                body.extend_from_slice(&(addr.len() as u32).to_le_bytes());
                body.extend_from_slice(addr.as_bytes());
            }
            body.extend_from_slice(&(input.len() as u32).to_le_bytes());
            body.extend_from_slice(input);
            KIND_WELCOME
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
        KIND_WELCOME => Frame::Welcome {
            heartbeat_timeout_ms: f.u64()?,
            addrs: {
                let count = f.u32()?;
                (0..count).map(|_| f.string()).collect::<io::Result<_>>()?
            },
            input: f.bytes()?.to_vec(),
        },
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
    /// Every rank's advertised mesh address: redial targets.
    peer_addrs: Vec<String>,
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
        peer_addrs: Vec<String>,
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
        let (shared, addr) = (self.shared.clone(), self.peer_addrs[peer].clone());
        let connect = move || shared.command(Cmd::Dialed(peer, dial(&addr).ok()));
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

    /// Start the mesh thread over the rendezvous' streams (one per peer,
    /// `None` at our own rank).
    fn start(
        rank: usize,
        streams: Vec<Option<Stream>>,
        listener: Option<Listener>,
        heartbeat_timeout_ms: u64,
        peer_addrs: Vec<String>,
    ) -> io::Result<SocketPeers> {
        let shared = Shared::new(rank)?;
        let hb_ms = heartbeat_timeout_ms;
        let mesh = MeshLoop::new(shared.clone(), streams, listener, hb_ms, peer_addrs)?;
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

/// Join the world as `env.rank`: bind the mesh listener, register it with
/// the parent's registry, take the welcome, then dial every lower rank and
/// accept every higher one. Returns the mesh, the launch input and the
/// registry connection the result goes back on.
fn rendezvous(env: &ChildEnv) -> io::Result<(SocketPeers, Vec<u8>, Stream)> {
    let (rank, size) = (env.rank, env.size);
    let (listener, addr, mut registry) = if env.registry.starts_with(UNIX_PREFIX) {
        let (listener, addr) = bind_listener(&env.dir, &format!("r{rank}"))?;
        (listener, addr, dial(&env.registry)?)
    } else {
        // A loopback registry is a single-host world and stays on
        // 127.0.0.1. Any other host means peers may live on other hosts:
        // listen on every interface and advertise a routable address, by
        // default the local IP of the registry connection.
        let host = env.registry.rsplit_once(':').map_or("", |(host, _)| host);
        let loopback = matches!(host, "127.0.0.1" | "localhost" | "::1" | "[::1]");
        let listener = TcpListener::bind((if loopback { "127.0.0.1" } else { "0.0.0.0" }, 0))?;
        let port = listener.local_addr()?.port();
        let registry = dial(&env.registry)?;
        let ip = match (&env.advertise_ip, &registry) {
            (Some(ip), _) => ip.clone(),
            (None, Stream::Tcp(s)) if !loopback => s.local_addr()?.ip().to_string(),
            _ => "127.0.0.1".to_string(),
        };
        (Listener::Tcp(listener), format!("{ip}:{port}"), registry)
    };
    let rank_u32 = rank as u32;
    write_frame(
        &mut registry,
        &Frame::Register {
            rank: rank_u32,
            addr,
        },
    )?;
    let (heartbeat_timeout_ms, addrs, input) = match read_frame(&mut registry)? {
        Frame::Welcome {
            heartbeat_timeout_ms,
            addrs,
            input,
        } if addrs.len() == size => (heartbeat_timeout_ms, addrs, input),
        _ => return Err(malformed("the registry's welcome is malformed")),
    };
    // Every listener was bound before the table went out, so one
    // `connect` reaches each lower rank.
    let mut streams: Vec<Option<Stream>> = (0..size).map(|_| None).collect();
    for (slot, addr) in streams.iter_mut().zip(&addrs).take(rank) {
        let mut s = dial(addr)?;
        write_frame(&mut s, &Frame::Hello { rank: rank_u32 })?;
        *slot = Some(s);
    }
    accept_higher(&listener, rank, &mut streams)?;
    let listener = Some(listener);
    let peers = SocketPeers::start(rank, streams, listener, heartbeat_timeout_ms, addrs)?;
    Ok((peers, input, registry))
}

/// Accept one mesh connection from every rank above `rank`, validating
/// the identifying `Hello`.
fn accept_higher(
    listener: &Listener,
    rank: usize,
    streams: &mut [Option<Stream>],
) -> io::Result<()> {
    let size = streams.len();
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

/// Environment of a spawned rank: what re-executing it needs, and nothing
/// the registry's welcome can carry instead.
pub(crate) struct ChildEnv {
    pub dir: PathBuf,
    pub rank: usize,
    /// Also the length of the welcome's table; here too because a rank
    /// may place itself by rank and size before it starts any thread.
    pub size: usize,
    pub program: String,
    /// The parent's registry address (`unix:<path>` or `host:port`).
    pub registry: String,
    /// The IP a TCP mesh listener advertises when its registry
    /// connection's local address is the wrong one (multi-homed, NAT).
    pub advertise_ip: Option<String>,
}

/// Decode the child-side environment, if present.
pub(crate) fn child_env() -> Option<ChildEnv> {
    let var = |key| std::env::var(key).ok();
    Some(ChildEnv {
        dir: PathBuf::from(var(ENV_DIR)?),
        rank: var(ENV_RANK)?.parse().ok()?,
        size: var(ENV_SIZE)?.parse().ok()?,
        program: var(ENV_PROGRAM)?,
        registry: var(ENV_REGISTRY)?,
        advertise_ip: var(ENV_ADVERTISE_IP).filter(|ip| !ip.is_empty()),
    })
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

/// Run this process as one rank: join the mesh, run the rank program,
/// report the result, tear down, exit.
fn child_main<F>(env: ChildEnv, f: F) -> !
where
    F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
{
    let fail = |msg: String| -> ! {
        eprintln!("mini-mpi rank {}: {msg}", env.rank);
        std::process::exit(102);
    };
    let (peers, input, mut registry) = match rendezvous(&env) {
        Ok(joined) => joined,
        Err(e) => fail(format!("rendezvous failed: {e}")),
    };
    let inner = Arc::new(WorldInner {
        transport: Transport::Socket(peers),
        bytes_sent: AtomicU64::new(0),
        messages_sent: AtomicU64::new(0),
    });
    let members: Arc<Vec<usize>> = Arc::new((0..env.size).collect());
    let mut comm = Comm::new_world(inner.clone(), env.rank, members);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm, &input)));
    drop(comm);
    match result {
        Ok(data) => {
            let rank = env.rank as u32;
            if let Err(e) = write_frame(&mut registry, &Frame::Result { rank, data }) {
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

/// Spawn `size` rank processes, act as their registry, and supervise them
/// until every one has exited and closed its connection; collect their
/// results.
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
    let _cleanup = DirCleanup(dir.clone());
    let (listener, registry) = bind_registry(&dir, &opts).map_err(SpawnError::Io)?;
    listener.set_nonblocking(true).map_err(SpawnError::Io)?;
    let exe = std::env::current_exe().map_err(SpawnError::Io)?;
    let mut sup = Supervisor {
        ranks: Vec::with_capacity(size),
        listener: Some(listener),
        unregistered: Vec::new(),
        addrs: vec![None; size],
        scratch: vec![0; 64 << 10],
    };
    for rank in 0..size {
        let mut cmd = Command::new(&exe);
        cmd.env(ENV_DIR, &dir)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_PROGRAM, program)
            .env(ENV_REGISTRY, &registry);
        if opts.harness_args {
            cmd.args(["--exact", program, "--nocapture", "--test-threads", "1"]);
        }
        match cmd.spawn().and_then(RankProc::new) {
            Ok(proc) => {
                if let Some(hook) = &opts.on_spawn {
                    hook(rank, proc.child.id());
                }
                sup.ranks.push(proc);
            }
            Err(e) => {
                sup.kill_all("killed (spawn failed)");
                return Err(SpawnError::Io(e));
            }
        }
    }

    let ending = sup.run(
        Instant::now() + opts.timeout,
        opts.heartbeat_timeout_ms,
        input,
    );
    match &ending {
        Ok(Ending::Done) => {}
        Ok(Ending::TimedOut) => sup.kill_all("killed (timeout)"),
        Ok(Ending::ExitedEarly(r)) => {
            sup.kill_all(&format!("killed (rank {r} exited before the rendezvous)"))
        }
        Err(e) => sup.kill_all(&format!("killed ({e})")),
    }
    let ending = ending.map_err(SpawnError::Io)?;
    let mut failures = Vec::new();
    let mut results = Vec::with_capacity(size);
    for (rank, proc) in sup.ranks.into_iter().enumerate() {
        let exited_ok = proc.status.is_some_and(|s| s.success());
        match (proc.result, exited_ok) {
            (Some(data), true) => results.push(Some(data)),
            (result, _) => {
                let code = proc.status.and_then(|s| s.code()).unwrap_or(-1);
                let status = proc.killed.unwrap_or_else(|| format!("exit {code}"));
                let what = match result {
                    None => "no result",
                    Some(_) => "result but bad exit",
                };
                failures.push(format!("rank {rank}: {status}, {what}"));
                results.push(None);
            }
        }
    }
    if let Ending::TimedOut = ending {
        return Err(SpawnError::Timeout {
            waited: opts.timeout,
            failed: failures,
        });
    }
    Ok(SpawnOutcome { results, failures })
}

/// The parent's registry listener and the address ranks dial it at: a
/// Unix socket in `dir` by default; with seeds, a TCP listener at
/// `registry_bind` or else the first seed, whose `:0` port becomes the one
/// the parent got.
fn bind_registry(dir: &Path, opts: &SpawnOptions) -> io::Result<(Listener, String)> {
    let Some(seeds) = &opts.seeds else {
        return bind_listener(dir, "registry");
    };
    let seed = seeds.split(',').find(|s| !s.is_empty());
    let seed =
        seed.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty seed list"))?;
    let listener = TcpListener::bind(opts.registry_bind.as_deref().unwrap_or(seed))?;
    let addr = match (&opts.registry_bind, seed.rsplit_once(':')) {
        (None, Some((host, "0"))) => format!("{host}:{}", listener.local_addr()?.port()),
        _ => seed.to_string(),
    };
    Ok((Listener::Tcp(listener), addr))
}

/// One spawned rank as its parent supervises it.
struct RankProc {
    child: Child,
    /// Readable once the child has exited; dropped once it is reaped.
    pidfd: Option<OwnedFd>,
    status: Option<ExitStatus>,
    /// Why the parent killed it, if it did.
    killed: Option<String>,
    /// Its registry connection: `Register` in, the welcome out, then its
    /// `Result` and EOF in.
    conn: Option<Conn>,
    result: Option<Vec<u8>>,
}

impl RankProc {
    fn new(mut child: Child) -> io::Result<RankProc> {
        let pidfd = sys::pidfd_open(child.id()).map_err(|e| {
            let _ = child.kill();
            let _ = child.wait();
            io::Error::new(
                e.kind(),
                format!("pidfd_open of a spawned rank failed: {e}"),
            )
        })?;
        Ok(RankProc {
            child,
            pidfd: Some(pidfd),
            status: None,
            killed: None,
            conn: None,
            result: None,
        })
    }

    /// Reap the child if it has exited; whether it has.
    fn reap(&mut self) -> bool {
        if self.status.is_none() {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.status = Some(status);
                self.pidfd = None;
            }
        }
        self.status.is_some()
    }

    /// Write what is left of the welcome, then read the result, or the
    /// end of the connection (anything else ends it too).
    fn serve(&mut self, rank: usize, scratch: &mut [u8]) {
        let Some(conn) = &mut self.conn else {
            return;
        };
        conn.readable = true;
        let mut open = conn.flush() && conn.fill(scratch);
        while open {
            match conn.inbox.next_frame() {
                Ok(Some(Frame::Result { rank: r, data })) if r as usize == rank => {
                    self.result = Some(data);
                }
                Ok(None) => break,
                _ => open = false,
            }
        }
        if !open {
            self.conn = None;
        }
    }
}

/// How supervision ended.
enum Ending {
    /// Every rank exited and closed its connection.
    Done,
    TimedOut,
    /// This rank exited before the welcome went out.
    ExitedEarly(usize),
}

/// The parent's one loop: registry, rank connections and child exits.
struct Supervisor {
    ranks: Vec<RankProc>,
    /// The registry listener, until the welcome goes out.
    listener: Option<Listener>,
    /// Accepted connections whose `Register` has not arrived.
    unregistered: Vec<Conn>,
    addrs: Vec<Option<String>>,
    scratch: Vec<u8>,
}

impl Supervisor {
    fn run(
        &mut self,
        deadline: Instant,
        heartbeat_timeout_ms: u64,
        input: &[u8],
    ) -> io::Result<Ending> {
        loop {
            while let Some(Ok(stream)) = self.listener.as_ref().map(Listener::accept) {
                self.unregistered.extend(Conn::new(stream));
            }
            self.register();
            if self.listener.is_some() && self.addrs.iter().all(Option::is_some) {
                self.welcome(heartbeat_timeout_ms, input)?;
            }
            for (rank, proc) in self.ranks.iter_mut().enumerate() {
                proc.serve(rank, &mut self.scratch);
                if proc.reap() && self.listener.is_some() {
                    return Ok(Ending::ExitedEarly(rank));
                }
            }
            if self
                .ranks
                .iter()
                .all(|p| p.status.is_some() && p.conn.is_none())
            {
                return Ok(Ending::Done);
            }
            if Instant::now() >= deadline {
                return Ok(Ending::TimedOut);
            }
            self.wait(deadline);
        }
    }

    /// Read each accepted connection's `Register`. A stray connection, a
    /// malformed frame or a rank that already registered closes as it
    /// drops.
    fn register(&mut self) {
        for mut conn in std::mem::take(&mut self.unregistered) {
            conn.readable = true;
            let open = conn.fill(&mut self.scratch);
            match conn.inbox.next_frame() {
                Ok(Some(Frame::Register { rank, addr })) => {
                    let rank = rank as usize;
                    if self.addrs.get(rank).is_some_and(Option::is_none) {
                        self.addrs[rank] = Some(addr);
                        self.ranks[rank].conn = Some(conn);
                    }
                }
                Ok(None) if open => self.unregistered.push(conn),
                _ => {}
            }
        }
    }

    /// Every rank has registered: queue the one welcome for each, and stop
    /// accepting.
    fn welcome(&mut self, heartbeat_timeout_ms: u64, input: &[u8]) -> io::Result<()> {
        let addrs = self.addrs.iter().flatten().cloned().collect();
        let input = input.to_vec();
        let mut bytes = Vec::new();
        let welcome = Frame::Welcome {
            heartbeat_timeout_ms,
            addrs,
            input,
        };
        write_frame(&mut bytes, &welcome)?;
        for conn in self.ranks.iter_mut().filter_map(|p| p.conn.as_mut()) {
            conn.out.extend_from_slice(&bytes);
        }
        self.listener = None;
        self.unregistered.clear();
        Ok(())
    }

    /// Block in `poll` until the listener, a connection or a pidfd is
    /// ready, or the deadline.
    fn wait(&self, deadline: Instant) {
        let mut fds: Vec<PollFd> = self
            .listener
            .iter()
            .map(|l| PollFd::new(l, POLLIN))
            .collect();
        fds.extend(
            self.unregistered
                .iter()
                .map(|c| PollFd::new(&c.stream, POLLIN)),
        );
        for proc in &self.ranks {
            fds.extend(proc.pidfd.iter().map(|fd| PollFd::new(fd, POLLIN)));
            if let Some(conn) = &proc.conn {
                let out = if conn.pending() { POLLOUT } else { 0 };
                fds.push(PollFd::new(&conn.stream, POLLIN | out));
            }
        }
        // `poll` counts whole milliseconds: round up rather than spin.
        let timeout = deadline.saturating_duration_since(Instant::now()) + Duration::from_millis(1);
        let _ = sys::wait(&mut fds, Some(timeout)); // EINVAL, ENOMEM: wait again
    }

    /// Kill every rank still running, recording `why`, and reap it.
    fn kill_all(&mut self, why: &str) {
        for proc in &mut self.ranks {
            if !proc.reap() {
                let _ = proc.child.kill();
                proc.status = proc.child.wait().ok();
                proc.killed = Some(why.to_string());
            }
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
    fn rank_listener_falls_back_to_tcp_when_the_path_is_too_long() {
        // `sockaddr_un` holds 108 bytes: a longer spawn dir cannot bind a
        // Unix socket, so the rank listens on TCP loopback instead, and
        // its advertised address reaches it.
        let dir = std::env::temp_dir().join("d".repeat(120));
        let (listener, addr) = bind_listener(&dir, "r0").unwrap();
        assert!(matches!(listener, Listener::Tcp(_)), "{addr}");
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        let mut dialed = dial(&addr).unwrap();
        write_frame(&mut dialed, &Frame::Hello { rank: 3 }).unwrap();
        let mut accepted = listener.accept().unwrap();
        assert!(matches!(
            read_frame(&mut accepted),
            Ok(Frame::Hello { rank: 3 })
        ));
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
                    let no_addrs = vec![String::new(); 2];
                    let peers = SocketPeers::start(rank, streams, None, 10_000, no_addrs);
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
            MeshLoop::new(shared, streams, None, 10_000, vec![String::new(); 2]).unwrap();
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
}
