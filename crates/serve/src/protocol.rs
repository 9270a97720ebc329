//! Wire protocol for the subscriber streaming tier.
//!
//! Every message is one length-prefixed frame, little-endian throughout:
//!
//! ```text
//! [u32 len] [u8 kind] [body …]          len counts kind + body
//! ```
//!
//! | kind | name      | direction | body |
//! |------|-----------|-----------|------|
//! | 1    | HELLO     | S → C     | `u32 version`, `u16 n`, simulation name |
//! | 2    | SUBSCRIBE | C → S     | `u16 count`, count × (`u16 n`, var name); 0 = all |
//! | 3    | DATA      | S → C     | `u16 n`, var name, `u64 iteration`, `u64 source`, `u64 len`, bytes |
//! | 4    | ITER_END  | S → C     | `u64 iteration`, `u64 blocks` |
//! | 5    | LAG       | S → C     | `u64 dropped_frames`, `u64 resume_iteration` |
//! | 6    | BYE       | both      | empty |
//!
//! Frames are decoded from a byte buffer without copying the payload until
//! a complete frame is present (the subscriber reads a DATA payload
//! straight into its own buffer once the frame's fixed part is checked);
//! the length fields are validated against [`MAX_FRAME`] and each other
//! *before* any allocation (the mini-mpi rule: never trust a
//! peer-supplied length).

use std::io;
use std::sync::Arc;

use damaris_shm::BlockRef;

/// Protocol version carried in HELLO.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on one frame's `len` field (kind + body). A frame claiming
/// more than this is a protocol error, not an allocation request.
pub const MAX_FRAME: usize = 256 << 20;

/// Upper bound on the `len` field of a frame a subscriber sends
/// (SUBSCRIBE or BYE): about 1 000 variable names of 60 bytes. The server
/// refuses a longer claim, or any other kind, once the first five bytes
/// are in, so a peer cannot make it buffer more than this.
pub const MAX_CONTROL_FRAME: usize = 64 << 10;

pub(crate) const KIND_HELLO: u8 = 1;
pub(crate) const KIND_SUBSCRIBE: u8 = 2;
pub(crate) const KIND_DATA: u8 = 3;
pub(crate) const KIND_ITER_END: u8 = 4;
pub(crate) const KIND_LAG: u8 = 5;
pub(crate) const KIND_BYE: u8 = 6;

/// A DATA frame's payload: either a zero-copy view into shared memory
/// (what `damaris_core` publishes in both worlds — the bytes stay in shm
/// until the last subscriber frame referencing them is sent) or owned
/// bytes (publishers with no segment: tools, benchmarks, tests).
#[derive(Debug, Clone)]
pub enum Payload {
    /// Refcounted view into the shared segment.
    Shm(BlockRef),
    /// Owned bytes, shared between subscriber queues.
    Owned(Arc<Vec<u8>>),
}

impl Payload {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Shm(b) => b.as_slice(),
            Payload::Owned(v) => v,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One encoded outbound frame: pre-built header bytes plus an optional
/// out-of-line payload. Shared as `Arc<Frame>` across subscriber queues so
/// a 1000-way fan-out clones one refcount, not one buffer.
#[derive(Debug)]
pub struct Frame {
    header: Vec<u8>,
    payload: Option<Payload>,
}

fn header(kind: u8, body_capacity: usize) -> Vec<u8> {
    let mut h = Vec::with_capacity(5 + body_capacity);
    h.extend_from_slice(&[0, 0, 0, 0, kind]);
    h
}

/// Patch the length prefix once the full frame size is known.
fn seal(mut h: Vec<u8>, payload_len: usize) -> Vec<u8> {
    let len = (h.len() - 4 + payload_len) as u32;
    h[..4].copy_from_slice(&len.to_le_bytes());
    h
}

fn push_str(h: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "name too long for the wire");
    h.extend_from_slice(&(s.len() as u16).to_le_bytes());
    h.extend_from_slice(s.as_bytes());
}

impl Frame {
    /// Server greeting.
    pub fn hello(simulation: &str) -> Frame {
        let mut h = header(KIND_HELLO, 6 + simulation.len());
        h.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        push_str(&mut h, simulation);
        Frame {
            header: seal(h, 0),
            payload: None,
        }
    }

    /// One block of one variable at one iteration.
    pub fn data(variable: &str, iteration: u64, source: u64, payload: Payload) -> Frame {
        let mut h = header(KIND_DATA, 26 + variable.len());
        push_str(&mut h, variable);
        h.extend_from_slice(&iteration.to_le_bytes());
        h.extend_from_slice(&source.to_le_bytes());
        h.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        Frame {
            header: seal(h, payload.len()),
            payload: Some(payload),
        }
    }

    /// Iteration boundary; `blocks` is the published DATA frame count.
    pub fn iter_end(iteration: u64, blocks: u64) -> Frame {
        let mut h = header(KIND_ITER_END, 16);
        h.extend_from_slice(&iteration.to_le_bytes());
        h.extend_from_slice(&blocks.to_le_bytes());
        Frame {
            header: seal(h, 0),
            payload: None,
        }
    }

    /// Slow-consumer notice: `dropped_frames` DATA frames were skipped;
    /// the live stream resumes at `resume_iteration`.
    pub fn lag(dropped_frames: u64, resume_iteration: u64) -> Frame {
        let mut h = header(KIND_LAG, 16);
        h.extend_from_slice(&dropped_frames.to_le_bytes());
        h.extend_from_slice(&resume_iteration.to_le_bytes());
        Frame {
            header: seal(h, 0),
            payload: None,
        }
    }

    /// Clean close (either direction).
    pub fn bye() -> Frame {
        Frame {
            header: seal(header(KIND_BYE, 0), 0),
            payload: None,
        }
    }

    /// Header bytes (length prefix, kind, fixed fields).
    pub fn header_bytes(&self) -> &[u8] {
        &self.header
    }

    /// Out-of-line payload bytes (empty slice for header-only frames).
    pub fn payload_bytes(&self) -> &[u8] {
        self.payload.as_ref().map(Payload::as_slice).unwrap_or(&[])
    }

    /// Total wire size of the frame.
    pub fn wire_len(&self) -> usize {
        self.header.len() + self.payload.as_ref().map(Payload::len).unwrap_or(0)
    }

    /// True for DATA frames (the only kind the lag policy may drop).
    pub fn is_data(&self) -> bool {
        self.header[4] == KIND_DATA
    }
}

/// Encode a client SUBSCRIBE frame. An empty list subscribes to every
/// variable.
///
/// `InvalidInput` when the frame would exceed [`MAX_CONTROL_FRAME`]; a
/// list within it has fewer than `u16::MAX` names of at most `u16::MAX`
/// bytes each, so nothing is truncated.
pub fn encode_subscribe(vars: &[&str]) -> io::Result<Vec<u8>> {
    let body = 2 + vars.iter().map(|v| 2 + v.len()).sum::<usize>();
    if 1 + body > MAX_CONTROL_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "subscription list takes {} bytes; a SUBSCRIBE frame holds at most {MAX_CONTROL_FRAME}",
                1 + body
            ),
        ));
    }
    let mut h = header(KIND_SUBSCRIBE, body);
    h.extend_from_slice(&(vars.len() as u16).to_le_bytes());
    for v in vars {
        push_str(&mut h, v);
    }
    Ok(seal(h, 0))
}

/// Encode a BYE frame as raw bytes (client side).
pub fn encode_bye() -> Vec<u8> {
    seal(header(KIND_BYE, 0), 0)
}

/// A decoded inbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Server greeting.
    Hello {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u32,
        /// Simulation name from the configuration.
        simulation: String,
    },
    /// Client subscription request; empty = all variables.
    Subscribe {
        /// Requested variable names.
        vars: Vec<String>,
    },
    /// One block of one variable.
    Data {
        /// Variable name.
        variable: String,
        /// Simulation time step.
        iteration: u64,
        /// Writing client rank (0-based, identical across worlds).
        source: u64,
        /// Block payload.
        bytes: Vec<u8>,
    },
    /// Iteration boundary.
    IterEnd {
        /// Completed iteration.
        iteration: u64,
        /// DATA frames published for it.
        blocks: u64,
    },
    /// The subscriber fell behind and iterations were dropped.
    Lag {
        /// DATA frames this subscriber missed.
        dropped_frames: u64,
        /// First iteration delivered after the gap.
        resume_iteration: u64,
    },
    /// Clean close.
    Bye,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> io::Result<String> {
        let n = self.u16()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| bad("name is not utf-8"))
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(bad("trailing bytes in body"));
        }
        Ok(())
    }
}

/// The length field of the frame at the front of `buf` (kind + body),
/// checked against [`MAX_FRAME`]; `Ok(None)` until four bytes are buffered.
fn frame_len(buf: &[u8]) -> io::Result<Option<usize>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(bad("length out of range"));
    }
    Ok(Some(len))
}

/// The fixed part of a DATA frame: everything before its payload.
pub(crate) struct DataHead {
    pub(crate) variable: String,
    pub(crate) iteration: u64,
    pub(crate) source: u64,
    /// Bytes from the start of the frame (length prefix included) to the
    /// payload.
    pub(crate) fixed_len: usize,
    /// Payload bytes; always the rest of the frame.
    pub(crate) payload_len: usize,
}

impl DataHead {
    pub(crate) fn into_message(self, bytes: Vec<u8>) -> Message {
        Message::Data {
            variable: self.variable,
            iteration: self.iteration,
            source: self.source,
            bytes,
        }
    }
}

/// Parse the fixed part of the DATA frame at the front of `buf`, once it
/// is buffered; the payload may still be missing. `Ok(None)` when `buf`
/// starts with another kind of frame or does not hold the fixed part yet.
///
/// Errors (before anything is allocated) when the frame length exceeds
/// [`MAX_FRAME`], the fixed part runs past the frame, or the payload
/// length field disagrees with what the frame length leaves for it. So
/// the payload length is bounded by [`MAX_FRAME`] once this returns.
pub(crate) fn data_head(buf: &[u8]) -> io::Result<Option<DataHead>> {
    let Some(len) = frame_len(buf)? else {
        return Ok(None);
    };
    if buf.get(4) != Some(&KIND_DATA) {
        return Ok(None);
    }
    let end = 4 + len;
    // Prefix, kind and the name's length, then the name and three u64s.
    if end < 7 {
        return Err(bad("truncated body"));
    }
    let Some(name_len) = buf.get(5..7) else {
        return Ok(None);
    };
    let fixed_len = 7 + usize::from(u16::from_le_bytes([name_len[0], name_len[1]])) + 24;
    if fixed_len > end {
        return Err(bad("truncated body"));
    }
    let Some(fixed) = buf.get(5..fixed_len) else {
        return Ok(None);
    };
    let mut r = Reader { buf: fixed, pos: 0 };
    let variable = r.string()?;
    let iteration = r.u64()?;
    let source = r.u64()?;
    let payload_len = end - fixed_len;
    if r.u64()? != payload_len as u64 {
        return Err(bad("payload length disagrees with frame length"));
    }
    Ok(Some(DataHead {
        variable,
        iteration,
        source,
        fixed_len,
        payload_len,
    }))
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame,
/// `Ok(Some((message, consumed)))` on success, and an error for malformed
/// or oversized frames (the connection should be dropped).
pub fn decode(buf: &[u8]) -> io::Result<Option<(Message, usize)>> {
    let Some(len) = frame_len(buf)? else {
        return Ok(None);
    };
    if buf.len() < 4 + len {
        return Ok(None);
    }
    // A whole DATA frame holds its fixed part, so this is never `None`
    // for one.
    if let Some(head) = data_head(buf)? {
        let bytes = buf[head.fixed_len..4 + len].to_vec();
        return Ok(Some((head.into_message(bytes), 4 + len)));
    }
    let kind = buf[4];
    let mut r = Reader {
        buf: &buf[5..4 + len],
        pos: 0,
    };
    let msg = match kind {
        KIND_HELLO => {
            let version = r.u32()?;
            let simulation = r.string()?;
            Message::Hello {
                version,
                simulation,
            }
        }
        KIND_SUBSCRIBE => {
            let count = r.u16()? as usize;
            let mut vars = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                vars.push(r.string()?);
            }
            Message::Subscribe { vars }
        }
        KIND_ITER_END => Message::IterEnd {
            iteration: r.u64()?,
            blocks: r.u64()?,
        },
        KIND_LAG => Message::Lag {
            dropped_frames: r.u64()?,
            resume_iteration: r.u64()?,
        },
        KIND_BYE => Message::Bye,
        other => return Err(bad(&format!("unknown kind {other}"))),
    };
    r.done()?;
    Ok(Some((msg, 4 + len)))
}

/// [`decode`] for the server's side of a connection: the frame at the
/// front of `buf` must be a SUBSCRIBE or BYE of at most
/// [`MAX_CONTROL_FRAME`] bytes, and is refused as soon as its length and
/// kind are buffered otherwise — not once the whole claimed length is in.
pub(crate) fn decode_control(buf: &[u8]) -> io::Result<Option<(Message, usize)>> {
    if let Some(len) = frame_len(buf)? {
        if len > MAX_CONTROL_FRAME {
            return Err(bad("control frame over MAX_CONTROL_FRAME"));
        }
        if let Some(&kind) = buf.get(4) {
            if kind != KIND_SUBSCRIBE && kind != KIND_BYE {
                return Err(bad(&format!("kind {kind} from a subscriber")));
            }
        }
    }
    decode(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(f: &Frame) -> Vec<u8> {
        let mut v = f.header_bytes().to_vec();
        v.extend_from_slice(f.payload_bytes());
        v
    }

    #[test]
    fn frames_round_trip() {
        let cases: Vec<(Frame, Message)> = vec![
            (
                Frame::hello("sim"),
                Message::Hello {
                    version: PROTOCOL_VERSION,
                    simulation: "sim".into(),
                },
            ),
            (
                Frame::data("u", 7, 3, Payload::Owned(Arc::new(vec![1, 2, 3]))),
                Message::Data {
                    variable: "u".into(),
                    iteration: 7,
                    source: 3,
                    bytes: vec![1, 2, 3],
                },
            ),
            (
                Frame::iter_end(7, 16),
                Message::IterEnd {
                    iteration: 7,
                    blocks: 16,
                },
            ),
            (
                Frame::lag(40, 9),
                Message::Lag {
                    dropped_frames: 40,
                    resume_iteration: 9,
                },
            ),
            (Frame::bye(), Message::Bye),
        ];
        for (frame, want) in cases {
            let bytes = wire(&frame);
            assert_eq!(frame.wire_len(), bytes.len());
            let (got, used) = decode(&bytes).unwrap().expect("complete");
            assert_eq!(used, bytes.len());
            assert_eq!(got, want);
        }
    }

    #[test]
    fn subscribe_encodes_and_decodes() {
        let bytes = encode_subscribe(&["u", "pressure"]).unwrap();
        let (msg, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(
            msg,
            Message::Subscribe {
                vars: vec!["u".into(), "pressure".into()]
            }
        );
        let (msg, _) = decode(&encode_subscribe(&[]).unwrap()).unwrap().unwrap();
        assert_eq!(msg, Message::Subscribe { vars: vec![] });
    }

    #[test]
    fn subscribe_lists_over_the_control_cap_are_refused_not_truncated() {
        let name = "n".repeat(60);
        let thousand = vec![name.as_str(); 1000];
        let bytes = encode_subscribe(&thousand).unwrap();
        assert!(bytes.len() - 4 <= MAX_CONTROL_FRAME);
        let (msg, _) = decode_control(&bytes).unwrap().unwrap();
        assert!(matches!(msg, Message::Subscribe { vars } if vars.len() == 1000));

        let two_thousand = vec![name.as_str(); 2000];
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        for vars in [two_thousand, vec![long.as_str()]] {
            let err = encode_subscribe(&vars).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn control_frames_are_refused_on_their_prefix() {
        // A claim over the cap, with none of its body behind it.
        let mut b = ((MAX_CONTROL_FRAME + 1) as u32).to_le_bytes().to_vec();
        assert!(decode_control(&b).is_err());
        b.push(KIND_SUBSCRIBE);
        assert!(decode_control(&b).is_err());
        // A server-to-client kind, refused on its kind byte.
        let mut b = 100u32.to_le_bytes().to_vec();
        assert!(decode_control(&b).unwrap().is_none());
        b.push(KIND_DATA);
        assert!(decode_control(&b).is_err());
        // A partial SUBSCRIBE within the cap waits for more bytes.
        let bytes = encode_subscribe(&["u"]).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_control(&bytes[..cut]).unwrap().is_none(),
                "cut at {cut}"
            );
        }
        assert!(decode_control(&encode_bye()).unwrap().is_some());
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let bytes = wire(&Frame::data(
            "v",
            1,
            0,
            Payload::Owned(Arc::new(vec![9; 64])),
        ));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).unwrap().is_none(), "cut at {cut}");
        }
        // Two frames back to back: the first decode consumes exactly one.
        let mut two = bytes.clone();
        two.extend_from_slice(&wire(&Frame::bye()));
        let (_, used) = decode(&two).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        let (msg, _) = decode(&two[used..]).unwrap().unwrap();
        assert_eq!(msg, Message::Bye);
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // Oversized length claim.
        let mut b = Vec::new();
        b.extend_from_slice(&(u32::MAX).to_le_bytes());
        b.push(KIND_BYE);
        assert!(decode(&b).is_err());
        // Zero-length frame (no kind byte).
        assert!(decode(&0u32.to_le_bytes()).is_err());
        // Unknown kind.
        let mut b = Vec::new();
        b.extend_from_slice(&1u32.to_le_bytes());
        b.push(99);
        assert!(decode(&b).is_err());
        // Truncated body: DATA claiming more payload than the frame holds.
        let mut b = Vec::new();
        b.extend_from_slice(&12u32.to_le_bytes());
        b.push(KIND_DATA);
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'u');
        b.extend_from_slice(&[0; 8]);
        assert!(decode(&b).is_err());
    }
}
