//! Frame buffers: a plain `Vec<u8>` viewed from a start offset.
//!
//! The daemon reads each request into one `Vec`, [`PooledBuf::advance`]s
//! the view past the envelope, and frees the buffer when the job drops.
//! Nothing is recycled (EXPERIMENTS.md E26): [`BufPool`] is a facade.

/// Zero-sized facade: [`BufPool::acquire`] allocates, [`BufPool::seal`]
/// wraps, and nothing is kept. ROADMAP 2A-0 retires it.
#[derive(Clone, Debug, Default)]
pub struct BufPool(());

impl BufPool {
    /// The handle.
    #[must_use]
    pub fn new() -> BufPool {
        BufPool(())
    }

    /// `Vec::with_capacity(capacity)`.
    #[must_use]
    pub fn acquire(&self, capacity: usize) -> Vec<u8> {
        Vec::with_capacity(capacity)
    }

    /// [`PooledBuf::from_vec`]`(buf)`.
    #[must_use]
    pub fn seal(&self, buf: Vec<u8>) -> PooledBuf {
        PooledBuf::from_vec(buf)
    }
}

/// An owned byte buffer viewed from a start offset. Dereferences to the
/// viewed bytes; dropping it frees the buffer.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    start: usize,
}

impl PooledBuf {
    /// View all of `buf`.
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { buf, start: 0 }
    }

    /// Bytes visible through this view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Drop the first `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of view");
        self.start += n;
    }

    /// A new buffer holding a copy of `range` (relative to this view);
    /// this view is left as it was. It takes `&mut self` because that is
    /// the signature `bench/src/layers.rs` calls.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&mut self, range: std::ops::Range<usize>) -> PooledBuf {
        PooledBuf::from_vec(self.as_slice()[range].to_vec())
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_advance_and_slice_and_seal_is_from_vec() {
        let pool = BufPool::new();
        let mut buf = pool.acquire(16);
        assert!(buf.capacity() >= 16 && buf.is_empty());
        buf.extend_from_slice(b"plain old vec");
        let mut sealed = pool.seal(buf.clone());
        assert_eq!(&sealed[..], &PooledBuf::from_vec(buf)[..]);

        sealed.advance(6);
        assert_eq!(&sealed[..], b"old vec");
        assert_eq!(sealed.len(), 7);
        assert_eq!(sealed.as_ref(), b"old vec");
        let tail = sealed.slice(4..7);
        assert_eq!(&tail[..], b"vec");
        assert_eq!(&sealed[..], b"old vec", "slicing must not move the base");
        sealed.advance(7);
        assert!(sealed.is_empty());
    }
}
