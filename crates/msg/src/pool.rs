//! Recycling buffer pool for frame payloads.
//!
//! Result frames (worker → master C blocks, LU panels) are built fresh per
//! message; without pooling every one is a heap allocation that dies as
//! soon as the receiver finishes with it. [`BufferPool::bytes_with`] hands
//! out recycled buffers wrapped in [`Bytes::from_owner`], whose owner
//! returns the buffer to the pool when the **last** view of the payload is
//! dropped — typically on the far side of the link, after the receiver
//! consumed it. Steady-state traffic therefore allocates nothing: the same
//! few buffers shuttle between the pool and the link forever.

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
    pub fn bytes_with(&self, capacity_hint: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        // The free list is valid at every step, so a poisoned lock (a
        // holder panicked) is recovered, here and below.
        let mut buf =
            self.free.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default();
        buf.clear();
        buf.reserve(capacity_hint);
        fill(&mut buf);
        Bytes::from_owner(PooledBuf { buf, pool: Arc::downgrade(&self.free) })
    }

    /// Buffers currently parked in the pool (for tests/metrics).
    pub fn idle_buffers(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
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
