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
    /// When set, bodies are acquired from (and recycled into) this pool —
    /// see [`StreamingDecoder::feed_pooled`].
    pool: Option<BufPool>,
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
            pool: None,
        }
    }

    /// Like [`StreamingDecoder::with_max_len`], but frame bodies assembled
    /// by [`StreamingDecoder::feed_pooled`] are acquired from `pool` and
    /// recycled when their [`PooledBuf`] drops. Dropping the decoder
    /// mid-frame returns the partial body too — a half-received request on
    /// a dying connection must not leak its buffer.
    #[must_use]
    pub fn with_pool(max_len: u32, pool: BufPool) -> Self {
        let mut d = Self::with_max_len(max_len);
        d.pool = Some(pool);
        d
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
    /// Completed frames come out as [`PooledBuf`] views. On a decoder
    /// built with [`StreamingDecoder::with_pool`] the body buffer is
    /// acquired from the pool when the length prefix completes and
    /// recycled when the last view of the sealed frame drops — a pool hit
    /// makes the whole read→decode→dispatch path allocation-free. Without
    /// a pool the frames are plain owned buffers behind the same view
    /// type.
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
                if let Some(pool) = &self.pool {
                    // `body` is empty on a frame boundary (taken at the
                    // previous completion); swap in a recycled buffer.
                    debug_assert!(self.body.is_empty());
                    if self.body.capacity() < self.body_needed {
                        self.body = pool.acquire(self.body_needed);
                    }
                }
            }
            // Body phase (an empty body completes immediately below).
            let take = (self.body_needed - self.body.len()).min(chunk.len());
            self.body.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.body.len() == self.body_needed {
                let body = std::mem::take(&mut self.body);
                out.push(match &self.pool {
                    Some(pool) => pool.seal(body),
                    None => PooledBuf::from_vec(body),
                });
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

impl Drop for StreamingDecoder {
    fn drop(&mut self) {
        // A connection torn down mid-frame must hand its partial body back
        // to the pool; completed frames recycle through their own views.
        if let Some(pool) = &self.pool {
            let body = std::mem::take(&mut self.body);
            if body.capacity() > 0 {
                pool.release(body);
            }
        }
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
    fn pooled_feed_matches_plain_feed_and_recycles() {
        // "Plain": a decoder with no pool, whose frames are owned buffers.
        let pool = BufPool::with_config(&[64, 1024], 4);
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(b"one"));
        stream.extend_from_slice(&encode_frame(b""));
        stream.extend_from_slice(&encode_frame(&[9u8; 300]));

        let mut plain = StreamingDecoder::new();
        let want = stream_all(&mut plain, &[&stream]);

        let mut pooled = StreamingDecoder::with_pool(MAX_FRAME_LEN, pool.clone());
        let mut got = Vec::new();
        for chunk in stream.chunks(5) {
            pooled.feed_pooled(chunk, &mut got).unwrap();
        }
        assert_eq!(
            got.iter()
                .map(|f| f.as_slice().to_vec())
                .collect::<Vec<_>>(),
            want
        );
        drop(got);
        // Both non-empty bodies came from and went back to the pool; the
        // empty frame never touched it (zero capacity after mem::take).
        assert_eq!(pool.counters().recycles, 2);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn pooled_decoder_drop_mid_frame_releases_the_partial_body() {
        let pool = BufPool::with_config(&[64], 4);
        let frame = encode_frame(&[3u8; 40]);
        let mut d = StreamingDecoder::with_pool(MAX_FRAME_LEN, pool.clone());
        let mut out = Vec::new();
        d.feed_pooled(&frame[..20], &mut out).unwrap();
        assert!(out.is_empty());
        drop(d); // connection died mid-frame
        assert_eq!(pool.counters().recycles, 1, "partial body must recycle");
        assert_eq!(pool.free_buffers(), 1);
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
