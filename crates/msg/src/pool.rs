//! Recycling buffer pool for frame payloads.
//!
//! Every payload that crosses a link is built in a pool buffer: the
//! master's C rows and LU's panel tasks in its endpoint's pool, its A and
//! B images in the endpoint's second, operand pool, a worker's result
//! frames (C rows, LU panel replies) in its own, and every frame a socket
//! reads in that stream's. Without
//! pooling each one is a heap allocation that dies as soon as the receiver
//! finishes with it — and a multi-megabyte image freed at the end of a run
//! goes back to the OS, to be faulted in again by the next one.
//! [`BufferPool::bytes_with`] hands out recycled buffers wrapped in
//! [`Bytes::from_owner`], whose owner returns the buffer to the pool when
//! the **last** view of the payload is dropped — typically on the far side
//! of the link, after the receiver consumed it. Steady-state traffic
//! therefore allocates nothing: the same few buffers shuttle between the
//! pool and the link forever.
//!
//! A request takes the smallest idle buffer that fits it, so payloads of
//! mixed sizes on one pool (tiny control frames beside C rows, a serving
//! master's small and large operands) each keep to a buffer of their own
//! size instead of regrowing whichever buffer came back last. The master
//! keeps its operand images in a pool of their own for the same reason:
//! they are serialized in groups of steps through the run (1, 1, 2, 4, …
//! steps), so a pool shared with the C rows would see images and rows
//! taken and returned in a different interleaving every run, and hand
//! one's buffer to the other, grown.

use bytes::Bytes;
use std::sync::{Arc, Mutex, Weak};

/// Buffers retained per pool; beyond this, returned buffers are freed.
/// Runtime links have at most a handful of frames in flight, so a small
/// cap bounds memory without ever forcing a steady-state allocation.
const MAX_POOLED: usize = 32;

/// A shared pool of byte buffers for payload construction.
///
/// Cloning shares the same pool. The pool is fully thread-safe: buffers
/// may be taken on one thread and returned from another (the usual case —
/// the receiver's side drops the last payload view).
#[derive(Clone, Default)]
pub struct BufferPool {
    free: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a payload in a recycled buffer: `fill` appends the payload
    /// bytes to a cleared buffer of at least `capacity_hint` capacity, and
    /// the result is wrapped zero-copy in a [`Bytes`] that returns the
    /// buffer here once every view of it is gone.
    ///
    /// The buffer is the smallest idle one whose capacity fits the hint;
    /// when none does, the largest idle one is grown, and only an empty
    /// pool allocates.
    pub fn bytes_with(&self, capacity_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut buf = {
            // The free list is valid at every step, so a poisoned lock (a
            // holder panicked) is recovered, here and below.
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            // (capacity, index) of the idle buffers that fit, or that do not.
            let idle = |fits: bool| {
                let sized = free.iter().map(Vec::capacity).enumerate();
                sized.filter(move |&(_, cap)| (cap >= capacity_hint) == fits).map(|(at, cap)| (cap, at))
            };
            let best = idle(true).min().or_else(|| idle(false).max());
            best.map(|(_, at)| free.swap_remove(at)).unwrap_or_default()
        };
        buf.clear();
        buf.reserve(capacity_hint);
        fill(&mut buf);
        Bytes::from_owner(PooledBuf { buf, pool: Arc::downgrade(&self.free) })
    }
}

/// Owns one buffer on loan from a [`BufferPool`]; gives it back on drop.
struct PooledBuf {
    buf: Vec<u8>,
    pool: Weak<Mutex<Vec<Vec<u8>>>>,
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            let mut free = pool.lock().unwrap_or_else(|e| e.into_inner());
            if free.len() < MAX_POOLED {
                free.push(std::mem::take(&mut self.buf));
            }
        }
    }
}

#[cfg(test)]
impl BufferPool {
    /// Buffers currently parked in the pool.
    pub(crate) fn idle_buffers(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_returns_to_pool_after_last_view() {
        let pool = BufferPool::new();
        let payload = pool.bytes_with(16, |b| b.extend_from_slice(&[1, 2, 3]));
        assert_eq!(&*payload, &[1, 2, 3]);
        let view = payload.slice(1..);
        drop(payload);
        assert_eq!(pool.idle_buffers(), 0, "a view is still alive");
        drop(view);
        assert_eq!(pool.idle_buffers(), 1, "buffer must return on last drop");
    }

    #[test]
    fn steady_state_reuses_storage() {
        let pool = BufferPool::new();
        let first = pool.bytes_with(64, |b| b.extend_from_slice(&[7u8; 64]));
        let first_ptr = first.as_ptr();
        drop(first);
        // Same storage comes back out.
        let second = pool.bytes_with(64, |b| b.extend_from_slice(&[8u8; 64]));
        assert_eq!(second.as_ptr(), first_ptr);
        assert_eq!(&*second, &[8u8; 64]);
    }

    /// A payload of `n` bytes built in `pool`.
    fn filled(pool: &BufferPool, n: usize) -> Bytes {
        pool.bytes_with(n, |b| b.resize(n, 1))
    }

    /// Park one buffer of each size in `pool`, all allocated while the
    /// others are held, so each has its own storage; returns their
    /// addresses.
    fn park<const N: usize>(pool: &BufferPool, sizes: [usize; N]) -> [*const u8; N] {
        let held = sizes.map(|n| filled(pool, n));
        held.each_ref().map(|b| b.as_ptr())
    }

    #[test]
    fn a_request_takes_the_smallest_idle_buffer_that_fits() {
        let pool = BufferPool::new();
        let [big, small, middle] = park(&pool, [4096, 64, 512]);
        assert_eq!(pool.idle_buffers(), 3);
        assert_eq!(filled(&pool, 64).as_ptr(), small, "an exact fit");
        assert_eq!(filled(&pool, 65).as_ptr(), middle, "the 512 B buffer, not the 4 KiB one");
        assert_eq!(filled(&pool, 512).as_ptr(), middle);
        assert_eq!(filled(&pool, 1).as_ptr(), small, "a tiny request leaves the large buffers");
        assert_eq!(filled(&pool, 4000).as_ptr(), big);
        assert_eq!(pool.idle_buffers(), 3, "nothing allocated, nothing lost");
    }

    #[test]
    fn with_none_fitting_the_largest_is_grown_and_the_small_ones_stay() {
        let pool = BufferPool::new();
        let [small, _] = park(&pool, [64, 1024]);
        let grown = filled(&pool, 1 << 20);
        // The 1 KiB buffer was taken and grown (its storage may have
        // moved); the 64 B one is still parked for a small request.
        assert_eq!(pool.idle_buffers(), 1, "one buffer taken, none allocated beside it");
        assert_eq!(filled(&pool, 64).as_ptr(), small);
        let grown_at = grown.as_ptr();
        drop(grown);
        assert_eq!(pool.idle_buffers(), 2);
        assert_eq!(filled(&pool, 1 << 20).as_ptr(), grown_at, "the grown buffer now fits outright");
        assert_eq!(filled(&pool, 64).as_ptr(), small);
    }

    #[test]
    fn alternating_sizes_on_a_warm_pool_reuse_the_same_two_buffers() {
        let pool = BufferPool::new();
        let [tiny, wide] = park(&pool, [64, 64 << 10]);
        for round in 0..100 {
            assert_eq!(filled(&pool, 64).as_ptr(), tiny, "round {round}: 64 B");
            assert_eq!(filled(&pool, 64 << 10).as_ptr(), wide, "round {round}: 64 KiB");
        }
        assert_eq!(pool.idle_buffers(), 2);
    }

    #[test]
    fn returns_cross_thread() {
        let pool = BufferPool::new();
        let payload = pool.bytes_with(8, |b| b.extend_from_slice(&[9, 9]));
        let h = std::thread::spawn(move || drop(payload));
        h.join().unwrap();
        assert_eq!(pool.idle_buffers(), 1);
    }

    #[test]
    fn pool_drop_frees_outstanding_buffers() {
        let pool = BufferPool::new();
        let payload = pool.bytes_with(8, |b| b.push(1));
        drop(pool);
        drop(payload); // no panic: weak pool reference is simply gone
    }
}
