//! The one-port arbiter.
//!
//! The paper's master "can only send data to, and receive data from, a
//! single worker at a given time-step". [`OnePort`] is a FIFO ticket lock:
//! transfers acquire it for their whole duration, and waiters are served in
//! arrival order (matching the deterministic simulator, where port requests
//! queue FIFO).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct PortState {
    /// Ticket currently being served.
    now_serving: u64,
}

/// FIFO mutual-exclusion over the master's network port.
///
/// Cloning shares the same port (it is an `Arc` internally).
#[derive(Clone)]
pub struct OnePort {
    next_ticket: Arc<AtomicU64>,
    state: Arc<(Mutex<PortState>, Condvar)>,
}

impl Default for OnePort {
    fn default() -> Self {
        Self::new()
    }
}

impl OnePort {
    /// A fresh, free port.
    pub fn new() -> Self {
        OnePort {
            next_ticket: Arc::new(AtomicU64::new(0)),
            state: Arc::new((Mutex::new(PortState { now_serving: 0 }), Condvar::new())),
        }
    }

    /// Block until the port is ours; the returned guard frees it on drop.
    pub fn acquire(&self) -> PortGuard {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let (lock, cv) = &*self.state;
        // The state is one counter, valid at every step: a poisoned lock
        // (a holder panicked) is recovered, here and in `release`.
        let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
        while st.now_serving != ticket {
            st = cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        PortGuard { port: self.clone() }
    }

    fn release(&self) {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().unwrap_or_else(|e| e.into_inner());
        st.now_serving += 1;
        cv.notify_all();
    }
}

/// Exclusive hold of the port; released on drop.
pub struct PortGuard {
    port: OnePort,
}

impl Drop for PortGuard {
    fn drop(&mut self) {
        self.port.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutual_exclusion_holds() {
        let port = OnePort::new();
        let inside = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let port = port.clone();
            let inside = inside.clone();
            let max_seen = max_seen.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _g = port.acquire();
                    let n = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(n, Ordering::SeqCst);
                    // Hold briefly so overlap would be observable — a spin
                    // hold, not a sleep, so the window does not depend on
                    // the scheduler's sleep granularity.
                    let hold = std::time::Instant::now();
                    while hold.elapsed() < Duration::from_micros(20) {
                        std::hint::spin_loop();
                    }
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "two transfers overlapped");
    }

    #[test]
    fn fifo_order_served() {
        // One holder, then N queued threads; they must be served in ticket
        // (arrival) order. Each spawn is gated on the previous thread
        // having *taken its ticket* — the FIFO position is fixed at that
        // instant — so the ordering is deterministic without any sleeps.
        let port = OnePort::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = port.acquire(); // ticket 0: everyone below queues
        let mut handles = vec![];
        for id in 0..4u64 {
            let port2 = port.clone();
            let order = order.clone();
            handles.push(thread::spawn(move || {
                let _g = port2.acquire();
                order.lock().unwrap().push(id);
            }));
            // Tickets issued so far count the acquires *started*.
            while port.next_ticket.load(Ordering::SeqCst) < id + 2 {
                thread::yield_now();
            }
        }
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reacquire_after_release() {
        let port = OnePort::new();
        drop(port.acquire());
        drop(port.acquire());
        let _g = port.acquire(); // must not deadlock
    }
}
