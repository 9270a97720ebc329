//! The subscriber client library (`serve::Subscriber`).
//!
//! A thin, dependency-free consumer of the frame protocol: connect, read
//! HELLO, send SUBSCRIBE, then pull [`SubscriberEvent`]s — blocking
//! ([`Subscriber::next_event`]) or polled ([`Subscriber::try_next`], for
//! callers multiplexing many subscriptions on a few threads).

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{data_head, decode, encode_bye, encode_subscribe, Message, PROTOCOL_VERSION};

/// What a subscriber receives from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriberEvent {
    /// One block of one subscribed variable.
    Data {
        /// Variable name.
        variable: String,
        /// Simulation time step.
        iteration: u64,
        /// Writing client rank, 0-based (identical across worlds).
        source: u64,
        /// Block payload bytes.
        bytes: Vec<u8>,
    },
    /// All of an iteration's frames have been delivered.
    IterationEnd {
        /// The completed iteration.
        iteration: u64,
        /// DATA frames the server published for it (before any
        /// per-subscriber filtering).
        blocks: u64,
    },
    /// This subscriber fell behind; iterations were dropped
    /// (drop-to-latest — the publisher never blocks).
    Lag {
        /// DATA frames missed.
        dropped_frames: u64,
        /// First iteration delivered after the gap.
        resume_iteration: u64,
    },
    /// The server is closing the stream.
    Bye,
}

/// A connected subscriber. See the crate docs for a usage example.
pub struct Subscriber {
    stream: TcpStream,
    buf: Vec<u8>,
    simulation: String,
    nonblocking: bool,
}

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Subscriber {
    /// Connect and read the server's HELLO (blocking).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Subscriber> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut sub = Subscriber {
            stream,
            buf: Vec::new(),
            simulation: String::new(),
            nonblocking: false,
        };
        match read_message(&mut sub.stream, &mut sub.buf)? {
            Message::Hello {
                version,
                simulation,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(proto_err("protocol version mismatch"));
                }
                sub.simulation = simulation;
            }
            _ => return Err(proto_err("expected HELLO")),
        }
        Ok(sub)
    }

    /// Simulation name announced by the server.
    pub fn simulation(&self) -> &str {
        &self.simulation
    }

    /// Subscribe to the named variables (empty = every variable). A late
    /// subscriber first receives a snapshot of the most recent completed
    /// iteration, then the live stream.
    ///
    /// `InvalidInput`, with nothing sent, when the list does not fit one
    /// SUBSCRIBE frame ([`crate::protocol::MAX_CONTROL_FRAME`] bytes, about
    /// 1 000 names of 60 bytes).
    pub fn subscribe(&mut self, vars: &[&str]) -> io::Result<()> {
        self.write_control(&encode_subscribe(vars)?)
    }

    /// Tell the server we are leaving, without waiting for its BYE.
    pub fn bye(&mut self) -> io::Result<()> {
        self.write_control(&encode_bye())
    }

    /// Next event, blocking until one arrives. `Err(UnexpectedEof)` when
    /// the server goes away without a BYE.
    pub fn next_event(&mut self) -> io::Result<SubscriberEvent> {
        if self.nonblocking {
            self.stream.set_nonblocking(false)?;
            self.nonblocking = false;
        }
        let msg = read_message(&mut self.stream, &mut self.buf)?;
        Self::to_event(msg)
    }

    /// Poll for an event without blocking; `Ok(None)` when nothing is
    /// ready yet.
    pub fn try_next(&mut self) -> io::Result<Option<SubscriberEvent>> {
        if !self.nonblocking {
            self.stream.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        loop {
            if let Some((msg, used)) = decode(&self.buf)? {
                self.buf.drain(..used);
                return Self::to_event(msg).map(Some);
            }
            let mut chunk = [0u8; 16 << 10];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn to_event(msg: Message) -> io::Result<SubscriberEvent> {
        Ok(match msg {
            Message::Data {
                variable,
                iteration,
                source,
                bytes,
            } => SubscriberEvent::Data {
                variable,
                iteration,
                source,
                bytes,
            },
            Message::IterEnd { iteration, blocks } => {
                SubscriberEvent::IterationEnd { iteration, blocks }
            }
            Message::Lag {
                dropped_frames,
                resume_iteration,
            } => SubscriberEvent::Lag {
                dropped_frames,
                resume_iteration,
            },
            Message::Bye => SubscriberEvent::Bye,
            Message::Hello { .. } | Message::Subscribe { .. } => {
                return Err(proto_err("unexpected frame mid-stream"))
            }
        })
    }

    /// Write a small control frame whole. A stream that [`Self::try_next`]
    /// left nonblocking is switched to blocking for the write (control
    /// frames are tens of bytes, far below any socket buffer) and back.
    fn write_control(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.nonblocking {
            self.stream.set_nonblocking(false)?;
        }
        let wrote = self.stream.write_all(bytes);
        if self.nonblocking {
            self.stream.set_nonblocking(true)?;
        }
        wrote
    }
}

/// Read the next message from a blocking `stream`, carrying partial
/// frames over in `buf`. Once a DATA frame's fixed part is buffered, its
/// payload is read straight into the message's own `Vec` (one copy out of
/// the socket, no zeroing, few reads) instead of through `buf`.
fn read_message(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Message> {
    loop {
        // `data_head` bounds the payload by `MAX_FRAME` before the
        // allocation below.
        if let Some(head) = data_head(buf)? {
            let buffered = (buf.len() - head.fixed_len).min(head.payload_len);
            let mut bytes = Vec::with_capacity(head.payload_len);
            bytes.extend_from_slice(&buf[head.fixed_len..head.fixed_len + buffered]);
            buf.drain(..head.fixed_len + buffered);
            let missing = head.payload_len - buffered;
            stream
                .by_ref()
                .take(missing as u64)
                .read_to_end(&mut bytes)?;
            if bytes.len() < head.payload_len {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            return Ok(head.into_message(bytes));
        }
        if let Some((msg, used)) = decode(buf)? {
            buf.drain(..used);
            return Ok(msg);
        }
        let mut chunk = [0u8; 16 << 10];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}
