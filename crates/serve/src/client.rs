//! The subscriber client library (`serve::Subscriber`).
//!
//! A thin, dependency-free consumer of the frame protocol: connect, read
//! HELLO, send SUBSCRIBE, then pull [`SubscriberEvent`]s — blocking
//! ([`Subscriber::next_event`]) or polled ([`Subscriber::try_next`], for
//! callers multiplexing many subscriptions on a few threads).
//!
//! When HELLO advertises a segment file this process can open as the same
//! file (same host, same user, same mount namespace), the subscriber asks
//! for segment mode: it reads DATA_REF blocks from the file and releases
//! each iteration at its ITER_END. Callers see the same events either way.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::fs::MetadataExt;

use crate::protocol::{
    data_head, decode, encode_bye, encode_release, encode_subscribe, ref_len, Message, SegmentInfo,
    PROTOCOL_VERSION,
};

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
    /// The server's segment file, when blocks are read from it.
    segment: Option<Segment>,
}

/// The segment file HELLO advertised, opened read-only and found to be
/// that very file.
struct Segment {
    file: File,
    len: u64,
}

impl Segment {
    /// Open `info.path`; `None` unless it has the advertised device, inode
    /// and length (another host, user or mount namespace stays on TCP).
    fn open(info: &SegmentInfo) -> Option<Segment> {
        let file = File::open(&info.path).ok()?;
        let meta = file.metadata().ok()?;
        (meta.dev() == info.dev && meta.ino() == info.ino && meta.len() == info.len).then_some(
            Segment {
                file,
                len: info.len,
            },
        )
    }

    /// A DATA_REF's bytes: the range is checked against the advertised
    /// length before anything is allocated, then read at its offset into a
    /// vector of exactly that capacity. A seek and `read_to_end` fill the
    /// spare capacity as it is, with no zeroing pass, which `read_at` would
    /// need first. A short read is an error.
    fn read(&self, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let len = ref_len(offset, len, self.len)?;
        let mut bytes = Vec::with_capacity(len);
        let mut file = &self.file;
        file.seek(SeekFrom::Start(offset))?;
        file.take(len as u64).read_to_end(&mut bytes)?;
        if bytes.len() < len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "segment file shorter than a DATA_REF range",
            ));
        }
        Ok(bytes)
    }
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
            segment: None,
        };
        match read_message(&mut sub.stream, &mut sub.buf)? {
            Message::Hello {
                version,
                simulation,
                segment,
            } => {
                if version != PROTOCOL_VERSION {
                    return Err(proto_err("protocol version mismatch"));
                }
                sub.simulation = simulation;
                sub.segment = segment.as_ref().and_then(Segment::open);
            }
            _ => return Err(proto_err("expected HELLO")),
        }
        Ok(sub)
    }

    /// Simulation name announced by the server.
    pub fn simulation(&self) -> &str {
        &self.simulation
    }

    /// Whether blocks are read from the server's segment file (segment
    /// mode: the server advertised one and it opened as the same file)
    /// rather than from the socket.
    pub fn reads_segment(&self) -> bool {
        self.segment.is_some()
    }

    /// Subscribe to the named variables (empty = every variable). A late
    /// subscriber first receives a snapshot of the most recent completed
    /// iteration, then the live stream.
    ///
    /// `InvalidInput`, with nothing sent, when the list does not fit one
    /// SUBSCRIBE frame ([`crate::protocol::MAX_CONTROL_FRAME`] bytes, about
    /// 1 000 names of 60 bytes).
    pub fn subscribe(&mut self, vars: &[&str]) -> io::Result<()> {
        self.write_control(&encode_subscribe(vars, self.segment.is_some())?)
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
        self.event(msg)
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
                return self.event(msg).map(Some);
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

    fn event(&mut self, msg: Message) -> io::Result<SubscriberEvent> {
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
            Message::DataRef {
                variable,
                iteration,
                source,
                offset,
                len,
            } => {
                let Some(segment) = &self.segment else {
                    return Err(proto_err("DATA_REF to a subscriber without the segment"));
                };
                SubscriberEvent::Data {
                    variable,
                    iteration,
                    source,
                    bytes: segment.read(offset, len)?,
                }
            }
            Message::IterEnd { iteration, blocks } => {
                if self.segment.is_some() {
                    // Every block of the iteration is copied out: unpin
                    // them. A server that is gone needs no release, and
                    // the next read reports it.
                    let _ = self.write_control(&encode_release(iteration));
                }
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
            Message::Hello { .. } | Message::Subscribe { .. } | Message::Release { .. } => {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch file of `len` bytes, `i as u8` at offset `i`.
    fn scratch_segment(tag: &str, len: usize) -> (std::path::PathBuf, SegmentInfo) {
        let path = std::env::temp_dir().join(format!(
            "damaris-serve-segment-{tag}-{}",
            std::process::id()
        ));
        let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
        std::fs::write(&path, bytes).unwrap();
        let meta = std::fs::metadata(&path).unwrap();
        let info = SegmentInfo {
            path: path.clone(),
            len: meta.len(),
            dev: meta.dev(),
            ino: meta.ino(),
        };
        (path, info)
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real files
    fn segment_opens_only_as_the_advertised_file() {
        let (path, info) = scratch_segment("identity", 4096);
        assert!(Segment::open(&info).is_some());
        for other in [
            SegmentInfo {
                ino: info.ino + 1,
                ..info.clone()
            },
            SegmentInfo {
                dev: info.dev + 1,
                ..info.clone()
            },
            SegmentInfo {
                len: info.len + 1,
                ..info.clone()
            },
            SegmentInfo {
                path: path.with_extension("missing"),
                ..info.clone()
            },
        ] {
            assert!(Segment::open(&other).is_none(), "{other:?}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real files
    fn segment_reads_exact_ranges_and_refuses_the_rest_unread() {
        let (path, info) = scratch_segment("read", 8192);
        let segment = Segment::open(&info).unwrap();
        let bytes = segment.read(4000, 300).unwrap();
        assert_eq!(bytes.len(), 300);
        assert_eq!(bytes.capacity(), 300);
        assert!(bytes
            .iter()
            .enumerate()
            .all(|(i, &b)| b == (4000 + i) as u8));
        // Past the advertised length (the file itself is longer, so only
        // the check against HELLO's length can refuse it) or overflowing.
        let short = Segment {
            len: 4096,
            ..segment
        };
        assert!(short.read(4000, 300).is_err());
        assert!(short.read(u64::MAX, 2).is_err());
        // A file that shrank under the advertised length: a short read.
        let shrunk = Segment {
            len: 1 << 20,
            ..short
        };
        let err = shrunk.read(8000, 400).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(path).unwrap();
    }
}
