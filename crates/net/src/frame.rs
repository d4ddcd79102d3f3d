//! Length-prefixed message framing for the byte-stream transport.
//!
//! `[len: u32 LE][body]`. Two readers, one per IO style: [`read_frame`]
//! for a blocking stream (the clients), and [`StreamingDecoder`], which
//! accepts bytes in arbitrary chunks (as a readiness-driven reactor gets
//! them) and yields complete frames.

use crate::pool::{BufPool, PooledBuf};
use std::io::{self, Read};

/// Maximum frame body size (64 MiB) — matches the wire codec's field limit.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Encode one frame.
///
/// # Panics
/// Panics if `body` exceeds [`MAX_FRAME_LEN`].
#[must_use]
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&frame_header(body.len()));
    out.extend_from_slice(body);
    out
}

/// The 4-byte length prefix for a body of `len` bytes — the first segment
/// of a scatter-gather encode, where the header and the (borrowed) body
/// travel as separate iovecs instead of being copied into one buffer.
///
/// # Panics
/// Panics if `len` exceeds [`MAX_FRAME_LEN`].
#[must_use]
pub fn frame_header(len: usize) -> [u8; 4] {
    assert!(len <= MAX_FRAME_LEN as usize, "frame body too large: {len}");
    (len as u32).to_le_bytes()
}

/// A peer declared an oversized frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The declared body length.
    pub declared: u32,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame body of {} bytes exceeds limit", self.declared)
    }
}

impl std::error::Error for FrameTooLarge {}

/// Read one frame from a blocking stream: the 4-byte prefix, then exactly
/// the body it declares, read straight into the returned buffer.
///
/// `max_len` (capped at [`MAX_FRAME_LEN`]) bounds what a peer can make
/// this allocate: the prefix is checked before the body buffer exists.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] carrying [`FrameTooLarge`] when the
/// prefix declares more than `max_len`; [`io::ErrorKind::UnexpectedEof`]
/// when the stream ends before the frame does; any other read error as
/// the stream reports it.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let declared = u32::from_le_bytes(prefix);
    if declared > max_len.min(MAX_FRAME_LEN) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameTooLarge { declared },
        ));
    }
    let mut body = vec![0u8; declared as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Resumable streaming decoder for readiness-driven IO.
///
/// `StreamingDecoder` consumes each chunk in place and buffers **only
/// the partial frame** straddling a chunk boundary — a connection between frames holds zero bytes, which
/// is what keeps per-idle-connection memory flat with tens of thousands
/// of sockets parked on a reactor.
///
/// It is also hardened differently: the body allocation grows with the
/// bytes that actually arrive, so a forged length prefix costs the
/// attacker bandwidth, not server memory (the prefix is still bounded by
/// `max_len` and rejected up front when it exceeds it).
pub struct StreamingDecoder {
    max_len: u32,
    /// Partial length prefix (`header_filled` of 4 bytes present).
    header: [u8; 4],
    header_filled: usize,
    /// Partial body, once the prefix is complete.
    body: Vec<u8>,
    body_needed: usize,
    in_body: bool,
    poisoned: Option<FrameTooLarge>,
}

impl Default for StreamingDecoder {
    fn default() -> Self {
        Self::with_max_len(MAX_FRAME_LEN)
    }
}

impl StreamingDecoder {
    /// New empty decoder accepting bodies up to [`MAX_FRAME_LEN`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty decoder accepting bodies up to `max_len` bytes (capped
    /// at [`MAX_FRAME_LEN`]). Servers facing untrusted sockets should set
    /// this to the largest message the protocol can legitimately produce:
    /// the length prefix is attacker-controlled, and the limit is what
    /// rejects a forged prefix before any body bytes are buffered.
    #[must_use]
    pub fn with_max_len(max_len: u32) -> Self {
        StreamingDecoder {
            max_len: max_len.min(MAX_FRAME_LEN),
            header: [0; 4],
            header_filled: 0,
            body: Vec::new(),
            body_needed: 0,
            in_body: false,
            poisoned: None,
        }
    }

    /// [`StreamingDecoder::with_max_len`]`(max_len)`; the pool handle is
    /// ignored. A facade for `bench/src/layers.rs`; ROADMAP 2A-0 retires it.
    #[must_use]
    pub fn with_pool(max_len: u32, _pool: BufPool) -> Self {
        Self::with_max_len(max_len)
    }

    /// The configured per-frame body limit.
    #[must_use]
    pub fn max_len(&self) -> u32 {
        self.max_len
    }

    /// Consume one received chunk, appending every frame it completes to
    /// `out`. Bytes left over (a frame still in flight) stay buffered for
    /// the next call — feeding a byte at a time and feeding coalesced
    /// frames produce identical output.
    ///
    /// Completed frames come out as [`PooledBuf`] views of the body's own
    /// `Vec`, which the receiver can advance past an envelope.
    ///
    /// # Errors
    /// [`FrameTooLarge`] when a length prefix exceeds the configured
    /// limit; the decoder is then poisoned (every later call re-errors)
    /// and the connection should be dropped.
    pub fn feed_pooled(
        &mut self,
        mut chunk: &[u8],
        out: &mut Vec<PooledBuf>,
    ) -> Result<(), FrameTooLarge> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        while !chunk.is_empty() {
            if !self.in_body {
                let take = (4 - self.header_filled).min(chunk.len());
                self.header[self.header_filled..self.header_filled + take]
                    .copy_from_slice(&chunk[..take]);
                self.header_filled += take;
                chunk = &chunk[take..];
                if self.header_filled < 4 {
                    break;
                }
                let declared = u32::from_le_bytes(self.header);
                if declared > self.max_len {
                    let err = FrameTooLarge { declared };
                    self.poisoned = Some(err);
                    return Err(err);
                }
                self.body_needed = declared as usize;
                self.in_body = true;
            }
            // Body phase (an empty body completes immediately below).
            let take = (self.body_needed - self.body.len()).min(chunk.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() == self.body_needed {
                out.push(PooledBuf::from_vec(std::mem::take(&mut self.body)));
                self.in_body = false;
                self.header_filled = 0;
            }
        }
        Ok(())
    }

    /// Bytes of the in-flight partial frame currently buffered. Zero
    /// whenever the stream sits on a frame boundary.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.header_filled + self.body.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_frame_rejects_a_forged_prefix_before_reading_a_body() {
        // Only the prefix is on hand: the error comes from it alone.
        let forged = 2048u32.to_le_bytes();
        let err = read_frame(&mut &forged[..], 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>());
        assert_eq!(inner, Some(&FrameTooLarge { declared: 2048 }));
        // The limit is capped at the protocol maximum.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = read_frame(&mut &huge[..], u32::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn stream_all(decoder: &mut StreamingDecoder, chunks: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for chunk in chunks {
            decoder.feed_pooled(chunk, &mut out).unwrap();
        }
        owned(&out)
    }

    fn owned(frames: &[PooledBuf]) -> Vec<Vec<u8>> {
        frames.iter().map(|f| f.to_vec()).collect()
    }

    #[test]
    fn streaming_byte_at_a_time_matches_coalesced() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"one"));
        stream.extend_from_slice(&encode_frame(b""));
        stream.extend_from_slice(&encode_frame(b"three-is-longer"));

        let mut coalesced = StreamingDecoder::new();
        let whole = stream_all(&mut coalesced, &[&stream]);

        let mut trickled = StreamingDecoder::new();
        let mut out = Vec::new();
        for byte in &stream {
            trickled
                .feed_pooled(std::slice::from_ref(byte), &mut out)
                .unwrap();
        }
        assert_eq!(owned(&out), whole);
        assert_eq!(
            whole,
            vec![b"one".to_vec(), Vec::new(), b"three-is-longer".to_vec()]
        );
        assert_eq!(trickled.buffered(), 0, "boundary holds zero bytes");
    }

    #[test]
    fn streaming_buffers_only_the_partial_frame() {
        let frame = encode_frame(&[7u8; 100]);
        let mut d = StreamingDecoder::new();
        let mut out = Vec::new();
        d.feed_pooled(&frame[..30], &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(d.buffered(), 30, "prefix + partial body held");
        d.feed_pooled(&frame[30..], &mut out).unwrap();
        assert_eq!(owned(&out), vec![vec![7u8; 100]]);
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn streaming_rejects_forged_prefix_and_stays_poisoned() {
        let mut d = StreamingDecoder::with_max_len(1024);
        assert_eq!(d.max_len(), 1024);
        let mut out = Vec::new();
        // The forged prefix arrives split across feeds and errors with
        // only 4 bytes on hand — nothing was allocated for the body.
        d.feed_pooled(&2048u32.to_le_bytes()[..2], &mut out)
            .unwrap();
        let err = d
            .feed_pooled(&2048u32.to_le_bytes()[2..], &mut out)
            .unwrap_err();
        assert_eq!(err, FrameTooLarge { declared: 2048 });
        assert_eq!(
            d.feed_pooled(b"more", &mut out).unwrap_err(),
            FrameTooLarge { declared: 2048 },
            "poisoned decoder keeps erroring"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn streaming_limit_is_capped_at_protocol_maximum() {
        let d = StreamingDecoder::with_max_len(u32::MAX);
        assert_eq!(d.max_len(), MAX_FRAME_LEN);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn encode_rejects_oversized_body() {
        // Use a fake huge slice length via a zero-filled vec just over limit.
        let body = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let _ = encode_frame(&body);
    }

    #[test]
    fn scatter_gather_header_matches_contiguous_encode() {
        let body = b"split encode";
        let mut sg = frame_header(body.len()).to_vec();
        sg.extend_from_slice(body);
        assert_eq!(sg, encode_frame(body));
    }

    #[test]
    fn with_pool_decoder_grows_the_body_only_with_arriving_bytes() {
        // A forged prefix declaring 32 MiB, under the limit, and no body:
        // the decoder must not size the body to the declared length.
        let mut d = StreamingDecoder::with_pool(MAX_FRAME_LEN, BufPool::new());
        let mut out = Vec::new();
        d.feed_pooled(&(32u32 << 20).to_le_bytes(), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(d.buffered(), 4);
        assert!(d.body.capacity() < 64 << 10, "{}", d.body.capacity());
    }

    #[test]
    fn feed_pooled_without_a_pool_yields_owned_views() {
        let mut d = StreamingDecoder::new();
        let mut out = Vec::new();
        d.feed_pooled(&encode_frame(b"owned"), &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(&out[0][..], b"owned");
    }
}
