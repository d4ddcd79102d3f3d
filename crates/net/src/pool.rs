//! Size-classed frame-buffer pool for the zero-copy serving path.
//!
//! Every inbound frame used to cost one fresh heap `Vec` (and every hop
//! after it another copy). [`BufPool`] recycles those buffers instead:
//! the streaming decoder acquires a cleared buffer of the right size
//! class, fills it from the socket, and seals it into a [`PooledBuf`] —
//! a handle that gives out `&[u8]` views, slices cheaply from the front,
//! and returns the backing buffer to the pool when the last holder drops
//! it. The hot path (acquire hit → seal → drop → recycle) performs **no
//! heap allocation at all**: sealing stores the buffer inline, and
//! sharing only upgrades to a reference count when a second holder
//! actually appears.
//!
//! Safety valves, because a pool that can't say no is a leak:
//!
//! * **Poisoning.** A holder that finds the bytes suspect (protocol
//!   violation, torn decode) calls [`PooledBuf::poison`]; a poisoned
//!   buffer is dropped on release, never recycled, and counted.
//! * **High-water trimming.** Each size class keeps at most
//!   `max_free_per_class` free buffers; surplus returns are dropped
//!   (counted as trims), so a burst does not become permanent RSS.
//! * **Bounded slack.** A returned buffer is recycled only while its
//!   capacity is within 4x of the class it would serve; anything larger
//!   (e.g. a 64 MiB oversize frame) is freed rather than parked.
//!
//! Counters ([`BufPool::counters`]) make the recycling rate a measured
//! number: hits/misses on acquire, recycles/trims/poisons on release.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Default size-class ladder (bytes). 4x steps: any recycled capacity in
/// `[256, 1 MiB]` lands in a class with at most 4x slack.
pub const DEFAULT_CLASSES: [usize; 6] = [256, 1024, 4096, 16384, 65536, 262144];

/// Default per-class free-list bound.
pub const DEFAULT_MAX_FREE_PER_CLASS: usize = 64;

/// Recycle a returned buffer only while `capacity <= SLACK * class_size`
/// — beyond that the buffer is freed instead of parked (a 64 MiB frame
/// must not squat in the 256 KiB class forever).
const SLACK: usize = 4;

#[derive(Debug, Default)]
struct PoolCountersAtomic {
    hits: AtomicU64,
    misses: AtomicU64,
    recycles: AtomicU64,
    trimmed: AtomicU64,
    poisoned: AtomicU64,
    oversize: AtomicU64,
}

/// Point-in-time pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Acquires served from a free list.
    pub hits: u64,
    /// Acquires that had to allocate fresh.
    pub misses: u64,
    /// Buffers returned to a free list.
    pub recycles: u64,
    /// Returned buffers dropped by the high-water bound or the slack rule.
    pub trimmed: u64,
    /// Buffers dropped because a holder poisoned them.
    pub poisoned: u64,
    /// Acquires larger than the largest size class (allocated exact,
    /// never parked back beyond the slack rule).
    pub oversize: u64,
}

#[derive(Debug)]
struct PoolShared {
    /// Ascending class sizes, each with its bounded free list.
    classes: Vec<(usize, Mutex<Vec<Vec<u8>>>)>,
    max_free_per_class: usize,
    counters: PoolCountersAtomic,
}

impl PoolShared {
    /// Return `buf` to the free list of the largest class it can serve.
    fn put_back(&self, mut buf: Vec<u8>) {
        let cap = buf.capacity();
        let class = self
            .classes
            .iter()
            .rev()
            .find(|(size, _)| *size <= cap)
            .filter(|(size, _)| cap <= SLACK * *size);
        let Some((_, free)) = class else {
            // Smaller than the smallest class or too much slack: freeing
            // beats parking either way.
            self.counters.trimmed.fetch_add(1, Ordering::Relaxed);
            return;
        };
        buf.clear();
        let mut free = free.lock().expect("pool free list poisoned");
        if free.len() >= self.max_free_per_class {
            drop(free);
            self.counters.trimmed.fetch_add(1, Ordering::Relaxed);
        } else {
            free.push(buf);
            drop(free);
            self.counters.recycles.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A shared, size-classed pool of reusable byte buffers. Cloning shares
/// the pool (cheap `Arc` clone).
#[derive(Clone, Debug)]
pub struct BufPool {
    inner: Arc<PoolShared>,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new()
    }
}

impl BufPool {
    /// Pool with the default class ladder and high-water bound.
    #[must_use]
    pub fn new() -> BufPool {
        BufPool::with_config(&DEFAULT_CLASSES, DEFAULT_MAX_FREE_PER_CLASS)
    }

    /// Pool with an explicit ascending class ladder and per-class bound.
    ///
    /// # Panics
    /// Panics if `classes` is empty or not strictly ascending.
    #[must_use]
    pub fn with_config(classes: &[usize], max_free_per_class: usize) -> BufPool {
        assert!(!classes.is_empty(), "pool needs at least one size class");
        assert!(
            classes.windows(2).all(|w| w[0] < w[1]),
            "size classes must be strictly ascending"
        );
        BufPool {
            inner: Arc::new(PoolShared {
                classes: classes
                    .iter()
                    .map(|&size| (size, Mutex::new(Vec::new())))
                    .collect(),
                max_free_per_class,
                counters: PoolCountersAtomic::default(),
            }),
        }
    }

    /// An empty buffer with capacity for at least `capacity` bytes: a
    /// recycled one when the class has a free buffer (hit), fresh
    /// otherwise (miss). Requests beyond the largest class allocate
    /// exactly `capacity` and are counted as oversize.
    #[must_use]
    pub fn acquire(&self, capacity: usize) -> Vec<u8> {
        let c = &self.inner.counters;
        let Some((size, free)) = self
            .inner
            .classes
            .iter()
            .find(|(size, _)| *size >= capacity)
        else {
            c.oversize.fetch_add(1, Ordering::Relaxed);
            c.misses.fetch_add(1, Ordering::Relaxed);
            return Vec::with_capacity(capacity);
        };
        let recycled = free.lock().expect("pool free list poisoned").pop();
        match recycled {
            Some(buf) => {
                c.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                c.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(*size)
            }
        }
    }

    /// Return a plain buffer to the pool without sealing it — the escape
    /// hatch for write-phase buffers that never became a frame (a decoder
    /// dropped mid-body, a response buffer already flushed to the socket).
    pub fn release(&self, buf: Vec<u8>) {
        self.inner.put_back(buf);
    }

    /// Wrap a filled buffer into a [`PooledBuf`] whose final drop recycles
    /// the backing storage here. Allocation-free.
    #[must_use]
    pub fn seal(&self, buf: Vec<u8>) -> PooledBuf {
        let end = buf.len();
        PooledBuf {
            inner: Inner::Exclusive(RawBuf {
                buf,
                pool: Arc::downgrade(&self.inner),
                poisoned: AtomicBool::new(false),
            }),
            start: 0,
            end,
        }
    }

    /// Current counter values.
    #[must_use]
    pub fn counters(&self) -> PoolCounters {
        let c = &self.inner.counters;
        PoolCounters {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            recycles: c.recycles.load(Ordering::Relaxed),
            trimmed: c.trimmed.load(Ordering::Relaxed),
            poisoned: c.poisoned.load(Ordering::Relaxed),
            oversize: c.oversize.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently parked across all free lists (test/diagnostic).
    #[must_use]
    pub fn free_buffers(&self) -> usize {
        self.inner
            .classes
            .iter()
            .map(|(_, free)| free.lock().expect("pool free list poisoned").len())
            .sum()
    }
}

/// The backing storage of a [`PooledBuf`]: the bytes, a weak handle back
/// to the pool (dangling for unpooled buffers), and the poison flag.
/// Dropping it returns the bytes to the pool — or frees them if poisoned,
/// unpooled, or the pool itself is gone.
#[derive(Debug)]
struct RawBuf {
    buf: Vec<u8>,
    pool: Weak<PoolShared>,
    poisoned: AtomicBool,
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        let Some(pool) = self.pool.upgrade() else {
            return; // unpooled, or the pool outlived its last handle
        };
        if self.poisoned.load(Ordering::Relaxed) {
            pool.counters.poisoned.fetch_add(1, Ordering::Relaxed);
        } else {
            pool.put_back(std::mem::take(&mut self.buf));
        }
    }
}

/// Exclusive until shared: a freshly sealed buffer has one holder and
/// stores its bytes inline (no allocation); the first [`PooledBuf::share`]
/// upgrades to an `Arc` so multiple views can hold the same backing
/// buffer, which returns to the pool when the last view drops.
#[derive(Debug)]
enum Inner {
    Exclusive(RawBuf),
    Shared(Arc<RawBuf>),
}

impl Inner {
    fn raw(&self) -> &RawBuf {
        match self {
            Inner::Exclusive(raw) => raw,
            Inner::Shared(raw) => raw,
        }
    }
}

/// A view into a pool-backed (or plain) byte buffer. Dereferences to
/// `&[u8]`; [`PooledBuf::advance`]/[`PooledBuf::truncate`] narrow the view
/// without copying; [`PooledBuf::share`] hands out additional views. The
/// backing buffer returns to its pool when the last view drops — unless
/// someone called [`PooledBuf::poison`] first.
#[derive(Debug)]
pub struct PooledBuf {
    inner: Inner,
    start: usize,
    end: usize,
}

impl PooledBuf {
    /// Wrap a plain `Vec` with no pool attached: same API, ordinary
    /// drop-frees-it semantics. What a decoder built without a pool
    /// yields.
    #[must_use]
    pub fn from_vec(buf: Vec<u8>) -> PooledBuf {
        let end = buf.len();
        PooledBuf {
            inner: Inner::Exclusive(RawBuf {
                buf,
                pool: Weak::new(),
                poisoned: AtomicBool::new(false),
            }),
            start: 0,
            end,
        }
    }

    /// Bytes visible through this view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.inner.raw().buf[self.start..self.end]
    }

    /// Drop the first `n` bytes from the view (no copy).
    ///
    /// # Panics
    /// Panics if `n > self.len()`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of view");
        self.start += n;
    }

    /// Shorten the view to its first `len` bytes (no copy; no-op when
    /// already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.end = self.end.min(self.start + len);
    }

    /// Another view of the same backing buffer and range. The first share
    /// upgrades the buffer to reference counting (its only allocation);
    /// later shares are refcount bumps.
    pub fn share(&mut self) -> PooledBuf {
        if let Inner::Exclusive(raw) = &mut self.inner {
            let raw = std::mem::replace(
                raw,
                RawBuf {
                    buf: Vec::new(),
                    pool: Weak::new(),
                    poisoned: AtomicBool::new(false),
                },
            );
            self.inner = Inner::Shared(Arc::new(raw));
        }
        let Inner::Shared(raw) = &self.inner else {
            unreachable!("just upgraded to shared")
        };
        PooledBuf {
            inner: Inner::Shared(Arc::clone(raw)),
            start: self.start,
            end: self.end,
        }
    }

    /// A shared sub-view of `range` (relative to this view).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&mut self, range: std::ops::Range<usize>) -> PooledBuf {
        assert!(range.start <= range.end && range.end <= self.len());
        let mut view = self.share();
        view.end = view.start + range.end;
        view.start += range.start;
        view
    }

    /// Mark the backing buffer corrupt: when the last view drops, the
    /// buffer is freed (and counted) instead of recycled.
    pub fn poison(&self) {
        self.inner.raw().poisoned.store(true, Ordering::Relaxed);
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

impl PartialEq<[u8]> for PooledBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pool() -> BufPool {
        BufPool::with_config(&[16, 64, 256], 2)
    }

    #[test]
    fn acquire_miss_then_recycle_then_hit() {
        let pool = tiny_pool();
        let buf = pool.acquire(10);
        assert!(buf.capacity() >= 10);
        assert_eq!(pool.counters().misses, 1);

        let mut sealed = {
            let mut b = buf;
            b.extend_from_slice(b"0123456789");
            pool.seal(b)
        };
        assert_eq!(&sealed[..], b"0123456789");
        sealed.advance(3);
        assert_eq!(&sealed[..], b"3456789");
        sealed.truncate(4);
        assert_eq!(&sealed[..], b"3456");
        drop(sealed);
        assert_eq!(pool.counters().recycles, 1);
        assert_eq!(pool.free_buffers(), 1);

        let again = pool.acquire(12);
        assert!(again.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(pool.counters().hits, 1);
    }

    #[test]
    fn shared_views_recycle_exactly_once_at_last_drop() {
        let pool = tiny_pool();
        let mut buf = pool.acquire(8);
        buf.extend_from_slice(b"abcdefgh");
        let mut whole = pool.seal(buf);
        let tail = whole.slice(4..8);
        assert_eq!(&tail[..], b"efgh");
        assert_eq!(&whole[..], b"abcdefgh", "slicing must not move the base");
        drop(whole);
        assert_eq!(
            pool.counters().recycles,
            0,
            "buffer still held by the slice"
        );
        drop(tail);
        assert_eq!(pool.counters().recycles, 1);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn poisoned_buffers_are_never_recycled() {
        let pool = tiny_pool();
        let mut buf = pool.acquire(8);
        buf.extend_from_slice(b"badbytes");
        let mut sealed = pool.seal(buf);
        let view = sealed.share();
        view.poison(); // poison through any view
        drop(view);
        drop(sealed);
        let c = pool.counters();
        assert_eq!(c.poisoned, 1);
        assert_eq!(c.recycles, 0);
        assert_eq!(pool.free_buffers(), 0, "poisoned buffer must not park");

        // The pool still serves — the next acquire is just a miss.
        let _ = pool.acquire(8);
        assert_eq!(pool.counters().misses, 2);
    }

    #[test]
    fn release_returns_unsealed_buffers_including_partial_bodies() {
        let pool = tiny_pool();
        let mut partial = pool.acquire(32);
        partial.extend_from_slice(b"half a frame");
        pool.release(partial); // decoder dropped mid-body
        assert_eq!(pool.counters().recycles, 1);
        let back = pool.acquire(32);
        assert!(back.is_empty());
        assert_eq!(pool.counters().hits, 1);
    }

    #[test]
    fn high_water_bound_holds_under_churn() {
        let pool = BufPool::with_config(&[64, 1024], 3);
        // 10k-connection churn in bursts: each round holds 8 live buffers
        // (sizes alternating between classes) and then drops them all, the
        // way a burst of connections tears down together. The free lists
        // must stay at their bound, not grow with the churn.
        for round in 0..1_250 {
            let mut held = Vec::new();
            for i in 0..8 {
                let want = if i % 2 == 0 { 48 } else { 700 };
                let mut buf = pool.acquire(want);
                buf.extend_from_slice(&[0u8; 48]);
                held.push(pool.seal(buf));
            }
            drop(held);
            assert!(
                pool.free_buffers() <= 2 * 3,
                "free list grew past the bound in round {round}"
            );
        }
        let c = pool.counters();
        assert_eq!(c.hits + c.misses, 10_000);
        assert!(c.trimmed > 0, "churn past the bound must trim");
        assert_eq!(c.recycles + c.trimmed, 10_000, "every buffer accounted");
        assert_eq!(c.poisoned, 0);
    }

    #[test]
    fn oversize_acquires_are_exact_and_never_parked() {
        let pool = tiny_pool();
        let buf = pool.acquire(10_000); // largest class is 256
        assert!(buf.capacity() >= 10_000);
        assert_eq!(pool.counters().oversize, 1);
        drop(pool.seal(buf));
        assert_eq!(pool.free_buffers(), 0, "oversize must not park");
        assert_eq!(pool.counters().trimmed, 1);
    }

    #[test]
    fn slack_rule_rejects_overgrown_buffers() {
        let pool = BufPool::with_config(&[16], 8);
        let mut buf = pool.acquire(8);
        buf.reserve(1024); // user grew it far past the class
        pool.release(buf);
        assert_eq!(pool.counters().trimmed, 1);
        assert_eq!(pool.free_buffers(), 0);
    }

    #[test]
    fn unpooled_from_vec_has_the_same_view_api() {
        let mut buf = PooledBuf::from_vec(b"plain old vec".to_vec());
        buf.advance(6);
        assert_eq!(&buf[..], b"old vec");
        let shared = buf.share();
        assert_eq!(&shared[..], b"old vec");
        drop(buf);
        drop(shared); // no pool to return to; must simply free
    }
}
