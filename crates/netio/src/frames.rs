//! Tear-free length-prefixed frame buffers for non-blocking streams.
//!
//! The wire format is dsnet-server's: a 4-byte big-endian payload
//! length followed by the payload, with a hard cap ([`MAX_FRAME`]) on
//! payload size.
//! [`FrameReader`] accumulates whatever bytes the socket yields and
//! only ever surfaces *complete* payloads; [`FrameWriter`] queues
//! whole frames and flushes as far as the socket allows, tracking the
//! partial-write offset so a frame is never interleaved or torn.

use std::collections::VecDeque;
use std::io::{self, Write};

/// Length prefix size in bytes (big-endian u32).
pub const LEN_PREFIX: usize = 4;

/// Hard ceiling on frame payload size (1 MiB), enforced by the reactor's
/// readers and by dsnet-server's blocking frame codec.
pub const MAX_FRAME: u32 = 1 << 20;

/// Frame-level fault: the connection is unrecoverable after this
/// (the reader can no longer find the next frame boundary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Declared payload length exceeds the reader's cap.
    Oversized { len: usize, max: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds {max} byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over a byte stream.
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    max_frame: usize,
}

impl FrameReader {
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates.
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Pop the next complete payload, `Ok(None)` if more bytes are
    /// needed, or an unrecoverable [`FrameError`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let pending = self.pending();
        if pending.len() < LEN_PREFIX {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > self.max_frame {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if pending.len() < LEN_PREFIX + len {
            return Ok(None);
        }
        let frame = pending[LEN_PREFIX..LEN_PREFIX + len].to_vec();
        self.start += LEN_PREFIX + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }

    /// True while buffered bytes form only part of a frame (partial
    /// header or partial payload). Used for per-connection read
    /// deadlines: a peer that parks mid-frame is a stall, a peer with
    /// an empty buffer is merely idle.
    pub fn mid_frame(&self) -> bool {
        !self.pending().is_empty()
    }

    /// Bytes buffered but not yet surfaced as frames.
    pub fn buffered(&self) -> usize {
        self.pending().len()
    }
}

/// Outbound frame queue with partial-flush tracking.
#[derive(Default)]
pub struct FrameWriter {
    queue: VecDeque<Vec<u8>>,
    /// Offset into `queue[0]` already written to the socket.
    pos: usize,
}

impl FrameWriter {
    pub fn new() -> FrameWriter {
        FrameWriter::default()
    }

    /// Queue a payload; the length prefix is prepended here so each
    /// queued buffer is one wire frame.
    pub fn push_payload(&mut self, payload: &[u8]) {
        let mut frame = Vec::with_capacity(LEN_PREFIX + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        self.queue.push_back(frame);
    }

    /// Flush as much as the socket accepts. Returns `Ok(true)` when
    /// the queue is drained, `Ok(false)` on WouldBlock (caller should
    /// arm write interest), and errors for real socket failures.
    pub fn flush_into<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while let Some(front) = self.queue.front() {
            match w.write(&front[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "socket wrote 0"));
                }
                Ok(n) => {
                    self.pos += n;
                    if self.pos == front.len() {
                        self.queue.pop_front();
                        self.pos = 0;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when no frame is partially written — the hard-stop close
    /// point that never tears a frame on the wire.
    pub fn at_frame_boundary(&self) -> bool {
        self.pos == 0
    }

    pub fn pending_bytes(&self) -> usize {
        self.queue.iter().map(Vec::len).sum::<usize>() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(payload: &[u8]) -> Vec<u8> {
        let mut v = (payload.len() as u32).to_be_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn reassembles_frames_from_single_byte_drips() {
        let mut r = FrameReader::new(64);
        let bytes = [wire(b"hello"), wire(b""), wire(b"world!")].concat();
        let mut out = Vec::new();
        for b in bytes {
            r.extend(&[b]);
            while let Some(f) = r.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(
            out,
            vec![b"hello".to_vec(), b"".to_vec(), b"world!".to_vec()]
        );
        assert!(!r.mid_frame());
    }

    #[test]
    fn coalesced_frames_pop_individually() {
        let mut r = FrameReader::new(64);
        let bytes = [wire(b"a"), wire(b"bb"), wire(b"ccc")].concat();
        r.extend(&bytes);
        assert_eq!(r.next_frame().unwrap().unwrap(), b"a");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"bb");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"ccc");
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn mid_frame_tracks_partial_header_and_payload() {
        let mut r = FrameReader::new(64);
        assert!(!r.mid_frame());
        r.extend(&[0, 0]); // half a header
        assert_eq!(r.next_frame().unwrap(), None);
        assert!(r.mid_frame());
        r.extend(&[0, 5, b'x']); // header complete, 1/5 payload bytes
        assert_eq!(r.next_frame().unwrap(), None);
        assert!(r.mid_frame());
        r.extend(b"yzzy");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"xyzzy");
        assert!(!r.mid_frame());
    }

    #[test]
    fn oversized_header_is_unrecoverable() {
        let mut r = FrameReader::new(16);
        r.extend(&wire(&[0u8; 17]));
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Oversized { len: 17, max: 16 })
        );
        // Still stuck: the error repeats rather than resyncing.
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn compaction_preserves_stream_position() {
        let mut r = FrameReader::new(1024);
        let mut expect = Vec::new();
        let mut stream = Vec::new();
        for i in 0..200u32 {
            let payload = vec![i as u8; (i % 57) as usize];
            stream.extend_from_slice(&wire(&payload));
            expect.push(payload);
        }
        let mut got = Vec::new();
        for chunk in stream.chunks(13) {
            r.extend(chunk);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, expect);
    }

    /// Writer that accepts only `cap` bytes per call, then WouldBlock.
    struct Throttle {
        out: Vec<u8>,
        cap: usize,
        budget: usize,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_flush_never_tears_or_reorders_frames() {
        let mut w = FrameWriter::new();
        w.push_payload(b"first frame");
        w.push_payload(b"second");
        w.push_payload(&[7u8; 300]);
        let mut sink = Throttle {
            out: Vec::new(),
            cap: 5,
            budget: 0,
        };
        let mut boundary_breaks = 0;
        while !w.is_empty() {
            sink.budget = 7;
            let drained = w.flush_into(&mut sink).unwrap();
            if !drained {
                assert!(w.pending_bytes() > 0);
            }
            if !w.at_frame_boundary() {
                boundary_breaks += 1;
            }
        }
        assert!(w.at_frame_boundary());
        assert!(boundary_breaks > 0, "test must exercise mid-frame pauses");
        let expect = [wire(b"first frame"), wire(b"second"), wire(&[7u8; 300])].concat();
        assert_eq!(sink.out, expect);
    }

    #[test]
    fn roundtrip_writer_to_reader() {
        let mut w = FrameWriter::new();
        for i in 0..50 {
            w.push_payload(format!("payload-{i}").as_bytes());
        }
        let mut sink = Throttle {
            out: Vec::new(),
            cap: 9,
            budget: usize::MAX,
        };
        assert!(w.flush_into(&mut sink).unwrap());
        let mut r = FrameReader::new(1 << 20);
        r.extend(&sink.out);
        for i in 0..50 {
            let f = r.next_frame().unwrap().unwrap();
            assert_eq!(f, format!("payload-{i}").as_bytes());
        }
        assert_eq!(r.next_frame().unwrap(), None);
    }
}
