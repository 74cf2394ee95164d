//! The one-port simulation engine.
//!
//! Virtual time advances along the master's port operations. A
//! [`MasterPolicy`] is consulted whenever the port becomes free and decides
//! the next operation; workers are passive FIFO compute servers whose
//! timelines are fixed at enqueue time. This mirrors the paper's model
//! exactly: the master's port is the only contended resource.

use crate::report::SimReport;
use mwp_platform::{Platform, Seconds, WorkerId};
use mwp_trace::{Activity, ActivityKind, Resource, SimTime, Trace};
use std::borrow::Cow;

/// A trace label. Every policy in the workspace names its frames with
/// fixed strings (`"C row"`, `"A column"`, `"pivot"`), so a million-frame
/// simulation allocates nothing per frame; the owned form is for ad-hoc
/// policies in tests and tools.
pub type Label = Cow<'static, str>;

/// Read-only view of one worker's state offered to the policy.
#[derive(Debug, Clone, Copy)]
pub struct WorkerView {
    /// The worker's id.
    pub id: WorkerId,
    /// When the worker's compute queue drains (`ready_i` in Algorithm 3);
    /// equals the current time when the worker is idle.
    pub ready: SimTime,
    /// Blocks currently resident in the worker's memory.
    pub blocks_held: u64,
    /// Memory capacity `m_i` in blocks.
    pub capacity: u64,
    /// Total block updates executed (including queued ones).
    pub updates_assigned: u64,
}

impl WorkerView {
    /// Free buffers right now.
    pub fn free_buffers(&self) -> u64 {
        self.capacity - self.blocks_held
    }
}

/// One decision of the master policy.
#[derive(Debug, Clone)]
pub enum Decision {
    /// Occupy the port sending `blocks` blocks to `to`, then (at message
    /// completion) enqueue `spawn_updates` block updates on that worker.
    ///
    /// `mem_delta` is the net change of resident blocks at completion:
    /// positive when the message fills previously-free buffers, zero when
    /// it overwrites buffers in place (steady-state of the maximum re-use
    /// pattern), negative never for sends.
    Send {
        /// Destination worker.
        to: WorkerId,
        /// Message size in blocks.
        blocks: u64,
        /// Block updates enabled by this message (enqueued at completion).
        spawn_updates: u64,
        /// Net memory change in blocks at completion.
        mem_delta: i64,
        /// Label recorded in the trace.
        label: Label,
    },
    /// Occupy the port receiving `blocks` result blocks from `from`.
    ///
    /// The transfer cannot start before the worker's compute queue drains
    /// (a worker "cannot start sending the results back … before finishing
    /// the computation"); the master port idles until then.
    Recv {
        /// Source worker.
        from: WorkerId,
        /// Message size in blocks.
        blocks: u64,
        /// Net memory change in blocks at completion (usually `-blocks`).
        mem_delta: i64,
        /// Label recorded in the trace.
        label: Label,
    },
    /// Keep the port idle until the given time (e.g. a demand-driven policy
    /// waiting for some worker to become free). Must be strictly later than
    /// the current time, or the engine panics to prevent livelock.
    WaitUntil(SimTime),
    /// The policy has issued every operation; the simulation ends once all
    /// workers drain.
    Finished,
}

/// Errors surfaced by the engine (policy bugs are panics; these are model
/// violations worth reporting).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A worker exceeded its memory capacity.
    MemoryOverflow {
        /// Offending worker.
        worker: WorkerId,
        /// Blocks resident after the faulty operation.
        held: u64,
        /// Capacity `m_i`.
        capacity: u64,
        /// Time of the violation.
        at: SimTime,
    },
    /// Memory accounting went negative (mem_delta bug in a policy).
    MemoryUnderflow {
        /// Offending worker.
        worker: WorkerId,
        /// Time of the violation.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MemoryOverflow { worker, held, capacity, at } => write!(
                f,
                "worker {worker} holds {held} blocks > capacity {capacity} at {at}"
            ),
            SimError::MemoryUnderflow { worker, at } => {
                write!(f, "worker {worker} memory accounting went negative at {at}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The master-side scheduling policy driving a simulation.
///
/// `next` is called every time the port becomes free, with the current time
/// and a view of every worker. Returning [`Decision::Finished`] ends the
/// run (workers drain, results already requested are complete).
pub trait MasterPolicy {
    /// Decide the next port operation.
    fn next(&mut self, now: SimTime, workers: &[WorkerView]) -> Decision;
}

/// A static schedule as a policy: the decisions in order, whatever the
/// workers are doing, then [`Decision::Finished`]. The engine re-derives
/// every wait from the one-port model.
impl MasterPolicy for std::vec::IntoIter<Decision> {
    fn next(&mut self, _now: SimTime, _workers: &[WorkerView]) -> Decision {
        Iterator::next(self).unwrap_or(Decision::Finished)
    }
}

struct WorkerState {
    ready: SimTime,
    blocks_held: u64,
    capacity: u64,
    updates_assigned: u64,
    busy: f64,
}

/// The simulation engine. Construct with a platform, then [`Simulator::run`]
/// a policy to completion.
pub struct Simulator {
    platform: Platform,
    record_trace: bool,
    two_port: bool,
}

impl Simulator {
    /// New engine over `platform`, recording a full trace, under the
    /// paper's **true one-port** model (the master cannot send and receive
    /// simultaneously).
    pub fn new(platform: Platform) -> Self {
        Simulator { platform, record_trace: true, two_port: false }
    }

    /// Disable trace recording (large runs: keeps memory flat).
    pub fn without_trace(mut self) -> Self {
        self.record_trace = false;
        self
    }

    /// Switch to the **two-port** flavor of the model (Section 2.2: "if
    /// we do allow for simultaneous sends and receives, we have the
    /// two-port model"): sends and receives occupy independent ports.
    /// Useful as an ablation of how much the one-port restriction costs.
    pub fn two_port(mut self) -> Self {
        self.two_port = true;
        self
    }

    /// Run `policy` to completion and return the report.
    pub fn run(&self, policy: &mut dyn MasterPolicy) -> Result<SimReport, SimError> {
        let p = self.platform.len();
        let mut workers: Vec<WorkerState> = self
            .platform
            .workers()
            .iter()
            .map(|w| WorkerState {
                ready: SimTime::ZERO,
                blocks_held: 0,
                capacity: w.m as u64,
                updates_assigned: 0,
                busy: 0.0,
            })
            .collect();
        // Under one-port these two clocks are kept identical; under
        // two-port they advance independently.
        let mut send_free = SimTime::ZERO;
        let mut recv_free = SimTime::ZERO;
        let mut trace = Trace::default();
        let mut views: Vec<WorkerView> = Vec::with_capacity(p);
        let mut blocks_sent: u64 = 0;
        let mut blocks_received: u64 = 0;
        let mut port_busy = 0.0;
        let mut wait_for_worker = 0.0;
        let mut wait_for_buffers = 0.0;

        loop {
            let now = send_free.min(recv_free);
            views.clear();
            views.extend(workers.iter().enumerate().map(|(i, w)| WorkerView {
                id: WorkerId(i),
                ready: w.ready.max(now),
                blocks_held: w.blocks_held,
                capacity: w.capacity,
                updates_assigned: w.updates_assigned,
            }));

            match policy.next(now, &views) {
                Decision::Send { to, blocks, spawn_updates, mem_delta, label } => {
                    let wp = *self.platform.worker(to);
                    let start = send_free;
                    let end = start + Seconds(blocks as f64 * wp.c);
                    port_busy += (end - start).value();
                    if self.record_trace {
                        trace.push(Activity::new(
                            Resource::MasterPort,
                            ActivityKind::Send,
                            to,
                            start,
                            end,
                            label.clone(),
                        ));
                    }
                    blocks_sent += blocks;
                    let st = &mut workers[to.index()];
                    apply_mem(st, to, mem_delta, end)?;
                    if spawn_updates > 0 {
                        // Computation can only start once the message has
                        // fully arrived and earlier queued work finished.
                        let cstart = st.ready.max(end);
                        let cend = cstart + Seconds(spawn_updates as f64 * wp.w);
                        st.busy += (cend - cstart).value();
                        st.updates_assigned += spawn_updates;
                        st.ready = cend;
                        if self.record_trace {
                            trace.push(Activity::new(
                                Resource::Worker(to),
                                ActivityKind::Compute,
                                to,
                                cstart,
                                cend,
                                label,
                            ));
                        }
                    }
                    send_free = end;
                    if !self.two_port {
                        recv_free = recv_free.max(end);
                    }
                }
                Decision::Recv { from, blocks, mem_delta, label } => {
                    let wp = *self.platform.worker(from);
                    // The worker must have finished computing before it can
                    // start returning results; the port idles if needed.
                    let start = recv_free.max(workers[from.index()].ready);
                    wait_for_worker += (start - recv_free).value().max(0.0);
                    let end = start + Seconds(blocks as f64 * wp.c);
                    port_busy += blocks as f64 * wp.c;
                    if self.record_trace {
                        trace.push(Activity::new(
                            Resource::MasterPort,
                            ActivityKind::Recv,
                            from,
                            start,
                            end,
                            label,
                        ));
                    }
                    blocks_received += blocks;
                    apply_mem(&mut workers[from.index()], from, mem_delta, end)?;
                    recv_free = end;
                    if !self.two_port {
                        send_free = send_free.max(end);
                    }
                }
                Decision::WaitUntil(t) => {
                    let now = send_free.min(recv_free);
                    assert!(
                        t > now,
                        "WaitUntil({t}) does not advance time past {now}: livelock"
                    );
                    wait_for_buffers += (t - now).value();
                    send_free = send_free.max(t);
                    recv_free = recv_free.max(t);
                }
                Decision::Finished => break,
            }
        }

        // Makespan: everything the master touched plus any trailing
        // computation (relevant when results are not returned, Section 3).
        let mut makespan = send_free.max(recv_free);
        for w in &workers {
            makespan = makespan.max(w.ready);
        }

        Ok(SimReport {
            makespan,
            port_busy_time: port_busy,
            worker_busy_time: workers.iter().map(|w| w.busy).collect(),
            updates_per_worker: workers.iter().map(|w| w.updates_assigned).collect(),
            blocks_sent,
            blocks_received,
            port_wait_for_worker: wait_for_worker,
            port_wait_for_buffers: wait_for_buffers,
            trace,
        })
    }
}

fn apply_mem(
    st: &mut WorkerState,
    id: WorkerId,
    delta: i64,
    at: SimTime,
) -> Result<(), SimError> {
    if delta >= 0 {
        st.blocks_held += delta as u64;
    } else {
        let d = (-delta) as u64;
        if st.blocks_held < d {
            return Err(SimError::MemoryUnderflow { worker: id, at });
        }
        st.blocks_held -= d;
    }
    if st.blocks_held > st.capacity {
        return Err(SimError::MemoryOverflow {
            worker: id,
            held: st.blocks_held,
            capacity: st.capacity,
            at,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerParams;

    /// Sends one block carrying one update to each worker round-robin,
    /// `rounds` times, then receives one result block from each.
    struct RoundRobin {
        rounds: usize,
        issued: usize,
        recvs_done: usize,
        p: usize,
    }

    impl MasterPolicy for RoundRobin {
        fn next(&mut self, _now: SimTime, _workers: &[WorkerView]) -> Decision {
            if self.issued < self.rounds * self.p {
                let to = WorkerId(self.issued % self.p);
                self.issued += 1;
                Decision::Send {
                    to,
                    blocks: 1,
                    spawn_updates: 1,
                    mem_delta: if self.issued <= self.p { 1 } else { 0 },
                    label: format!("blk{}", self.issued).into(),
                }
            } else if self.recvs_done < self.p {
                let from = WorkerId(self.recvs_done);
                self.recvs_done += 1;
                Decision::Recv {
                    from,
                    blocks: 1,
                    mem_delta: -1,
                    label: format!("res{}", self.recvs_done).into(),
                }
            } else {
                Decision::Finished
            }
        }
    }

    #[test]
    fn single_worker_send_compute_recv_chain() {
        // c = 2, w = 3: send [0,2], compute [2,5], recv [5,7].
        let platform = Platform::homogeneous(1, 2.0, 3.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 1, issued: 0, recvs_done: 0, p: 1 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        assert_eq!(report.makespan, SimTime(7.0));
        assert_eq!(report.port_busy_time, 4.0);
        assert_eq!(report.worker_busy_time, vec![3.0]);
        assert_eq!(report.blocks_sent, 1);
        assert_eq!(report.blocks_received, 1);
        report.trace.check_no_overlap().unwrap();
    }

    #[test]
    fn one_port_serializes_sends() {
        // Two workers, c = 2: second send starts at t = 2, not 0.
        let platform = Platform::homogeneous(2, 2.0, 100.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 1, issued: 0, recvs_done: 0, p: 2 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        let port_ops: Vec<_> = report.trace.on(Resource::MasterPort).collect();
        assert_eq!(port_ops[0].start, SimTime(0.0));
        assert_eq!(port_ops[0].end, SimTime(2.0));
        assert_eq!(port_ops[1].start, SimTime(2.0));
        assert_eq!(port_ops[1].end, SimTime(4.0));
        // Worker 2's compute starts only after its message arrived.
        let w2: Vec<_> = report.trace.on(Resource::Worker(WorkerId(1))).collect();
        assert_eq!(w2[0].start, SimTime(4.0));
        report.trace.check_no_overlap().unwrap();
    }

    #[test]
    fn recv_waits_for_computation() {
        // w = 10 dominates: recv must start at worker-ready (12), end 14.
        let platform = Platform::homogeneous(1, 2.0, 10.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 1, issued: 0, recvs_done: 0, p: 1 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        let ops: Vec<_> = report.trace.on(Resource::MasterPort).collect();
        assert_eq!(ops[1].start, SimTime(12.0));
        assert_eq!(ops[1].end, SimTime(14.0));
        assert_eq!(report.makespan, SimTime(14.0));
    }

    #[test]
    fn fifo_compute_queueing_accumulates() {
        // 3 sends of 1 update each to one worker: updates pipeline back to
        // back while the port is faster than the CPU.
        let platform = Platform::homogeneous(1, 1.0, 5.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 3, issued: 0, recvs_done: 0, p: 1 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        // Computes: [1,6], [6,11], [11,16]; recv [16,17].
        assert_eq!(report.makespan, SimTime(17.0));
        assert_eq!(report.worker_busy_time, vec![15.0]);
        assert_eq!(report.updates_per_worker, vec![3]);
    }

    #[test]
    fn memory_overflow_detected() {
        struct Overflower;
        impl MasterPolicy for Overflower {
            fn next(&mut self, _now: SimTime, _w: &[WorkerView]) -> Decision {
                Decision::Send {
                    to: WorkerId(0),
                    blocks: 11,
                    spawn_updates: 0,
                    mem_delta: 11,
                    label: "too big".into(),
                }
            }
        }
        let platform = Platform::homogeneous(1, 1.0, 1.0, 10).unwrap();
        let err = Simulator::new(platform).run(&mut Overflower).unwrap_err();
        assert!(matches!(err, SimError::MemoryOverflow { held: 11, capacity: 10, .. }));
    }

    #[test]
    fn memory_underflow_detected() {
        struct Underflower;
        impl MasterPolicy for Underflower {
            fn next(&mut self, _now: SimTime, _w: &[WorkerView]) -> Decision {
                Decision::Recv { from: WorkerId(0), blocks: 1, mem_delta: -1, label: "x".into() }
            }
        }
        let platform = Platform::homogeneous(1, 1.0, 1.0, 10).unwrap();
        let err = Simulator::new(platform).run(&mut Underflower).unwrap_err();
        assert!(matches!(err, SimError::MemoryUnderflow { .. }));
    }

    #[test]
    fn heterogeneous_costs_respected() {
        let platform = Platform::new(vec![
            WorkerParams::new(1.0, 1.0, 10),
            WorkerParams::new(4.0, 2.0, 10),
        ])
        .unwrap();
        let mut policy = RoundRobin { rounds: 1, issued: 0, recvs_done: 0, p: 2 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        let ops: Vec<_> = report.trace.on(Resource::MasterPort).collect();
        // send P1 [0,1], send P2 [1,5] (c=4).
        assert_eq!(ops[1].end, SimTime(5.0));
        // P2 computes [5,7] (w=2); recv order P1 first [2... wait port free at 5]
        // recv P1 starts max(5, ready P1 = 2) = 5, ends 6; recv P2 starts max(6,7)=7 ends 11.
        assert_eq!(ops[2].start, SimTime(5.0));
        assert_eq!(ops[2].end, SimTime(6.0));
        assert_eq!(ops[3].start, SimTime(7.0));
        assert_eq!(ops[3].end, SimTime(11.0));
    }

    #[test]
    fn without_trace_still_reports_metrics() {
        let platform = Platform::homogeneous(2, 2.0, 3.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 2, issued: 0, recvs_done: 0, p: 2 };
        let report = Simulator::new(platform).without_trace().run(&mut policy).unwrap();
        assert!(report.trace.activities.is_empty());
        assert!(report.makespan > SimTime::ZERO);
        assert_eq!(report.blocks_sent, 4);
    }

    /// A protocol-respecting random policy: sends random block counts to
    /// random workers, occasionally receives back what it pushed, always
    /// keeps memory accounting exact. Used to fuzz the engine.
    struct FuzzPolicy {
        rng_state: u64,
        ops_left: usize,
        held: Vec<u64>,
    }

    impl FuzzPolicy {
        fn new(seed: u64, ops: usize, p: usize) -> Self {
            FuzzPolicy { rng_state: seed.max(1), ops_left: ops, held: vec![0; p] }
        }

        /// xorshift64 — deterministic, dependency-free.
        fn next_u64(&mut self) -> u64 {
            let mut x = self.rng_state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng_state = x;
            x
        }
    }

    impl MasterPolicy for FuzzPolicy {
        fn next(&mut self, now: SimTime, views: &[WorkerView]) -> Decision {
            if self.ops_left == 0 {
                return Decision::Finished;
            }
            self.ops_left -= 1;
            let p = views.len();
            let w = (self.next_u64() % p as u64) as usize;
            let choice = self.next_u64() % 3;
            if choice == 2 && self.held[w] > 0 {
                let blocks = 1 + self.next_u64() % self.held[w];
                self.held[w] -= blocks;
                Decision::Recv {
                    from: WorkerId(w),
                    blocks,
                    mem_delta: -(blocks as i64),
                    label: "fuzz-recv".into(),
                }
            } else {
                let free = views[w].free_buffers();
                if free == 0 {
                    // Engine requires strictly-advancing waits.
                    return Decision::WaitUntil(SimTime(
                        views[w].ready.value().max(now.value()) + 1.0,
                    ));
                }
                let blocks = 1 + self.next_u64() % free.min(4);
                self.held[w] += blocks;
                Decision::Send {
                    to: WorkerId(w),
                    blocks,
                    spawn_updates: self.next_u64() % 3,
                    mem_delta: blocks as i64,
                    label: "fuzz-send".into(),
                }
            }
        }
    }

    #[test]
    fn fuzz_engine_invariants_hold() {
        for seed in 1..40u64 {
            let platform = Platform::homogeneous(3, 1.5, 2.5, 9).unwrap();
            let report = Simulator::new(platform)
                .run(&mut FuzzPolicy::new(seed, 200, 3))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Resource exclusivity and time monotonicity.
            report
                .trace
                .check_no_overlap()
                .unwrap_or_else(|v| panic!("seed {seed}: overlap {v:?}"));
            // Conservation: busy time never exceeds makespan per resource.
            assert!(report.port_busy_time <= report.makespan.value() + 1e-9);
            for &b in &report.worker_busy_time {
                assert!(b <= report.makespan.value() + 1e-9, "seed {seed}");
            }
            // Idle accounting stays within the idle fraction.
            let (w, b, o) = report.idle_breakdown();
            assert!(w >= 0.0 && b >= 0.0 && o >= 0.0, "seed {seed}");
            assert!(w + b + o <= 1.0 + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn two_port_overlaps_send_and_recv() {
        // One worker computes while the master receives a previous result;
        // under two-port the next send proceeds concurrently with the
        // receive, under one-port it queues behind it.
        struct Script {
            step: usize,
        }
        impl MasterPolicy for Script {
            fn next(&mut self, _now: SimTime, _w: &[WorkerView]) -> Decision {
                self.step += 1;
                match self.step {
                    // Load worker 0 with work: send [0,2], compute [2,12].
                    1 => Decision::Send {
                        to: WorkerId(0),
                        blocks: 1,
                        spawn_updates: 1,
                        mem_delta: 0,
                        label: "load".into(),
                    },
                    // Receive its result: waits for ready = 12, ends 14.
                    2 => Decision::Recv {
                        from: WorkerId(0),
                        blocks: 1,
                        mem_delta: 0,
                        label: "result".into(),
                    },
                    // Another send: one-port starts at 14; two-port at 2.
                    3 => Decision::Send {
                        to: WorkerId(1),
                        blocks: 1,
                        spawn_updates: 0,
                        mem_delta: 0,
                        label: "next".into(),
                    },
                    _ => Decision::Finished,
                }
            }
        }
        let platform = Platform::homogeneous(2, 2.0, 10.0, 10).unwrap();
        let one = Simulator::new(platform.clone()).run(&mut Script { step: 0 }).unwrap();
        let two = Simulator::new(platform).two_port().run(&mut Script { step: 0 }).unwrap();
        let one_last = one.trace.on(Resource::MasterPort).last().unwrap().clone();
        let two_last = two.trace.on(Resource::MasterPort).last().unwrap().clone();
        assert_eq!(one_last.start, SimTime(14.0));
        assert_eq!(two_last.start, SimTime(2.0));
        assert!(two.makespan <= one.makespan);
    }

    #[test]
    fn one_port_mode_unchanged_by_refactor() {
        // The dual-clock refactor must keep one-port semantics identical:
        // replay the original chain test.
        let platform = Platform::homogeneous(1, 2.0, 3.0, 10).unwrap();
        let mut policy = RoundRobin { rounds: 1, issued: 0, recvs_done: 0, p: 1 };
        let report = Simulator::new(platform).run(&mut policy).unwrap();
        assert_eq!(report.makespan, SimTime(7.0));
        report.trace.check_no_overlap().unwrap();
    }

    #[test]
    fn wait_until_advances_port_time() {
        struct Waiter {
            step: usize,
        }
        impl MasterPolicy for Waiter {
            fn next(&mut self, now: SimTime, _w: &[WorkerView]) -> Decision {
                self.step += 1;
                match self.step {
                    1 => Decision::WaitUntil(SimTime(5.0)),
                    2 => {
                        assert_eq!(now, SimTime(5.0));
                        Decision::Send {
                            to: WorkerId(0),
                            blocks: 1,
                            spawn_updates: 0,
                            mem_delta: 0,
                            label: "late".into(),
                        }
                    }
                    _ => Decision::Finished,
                }
            }
        }
        let platform = Platform::homogeneous(1, 1.0, 1.0, 10).unwrap();
        let report = Simulator::new(platform).run(&mut Waiter { step: 0 }).unwrap();
        assert_eq!(report.makespan, SimTime(6.0));
        // The wait is idle time, not port busy time.
        assert_eq!(report.port_busy_time, 1.0);
    }

    #[test]
    fn worker_view_exposes_ready_and_memory() {
        struct Inspect {
            step: usize,
        }
        impl MasterPolicy for Inspect {
            fn next(&mut self, now: SimTime, w: &[WorkerView]) -> Decision {
                match self.step {
                    0 => {
                        assert_eq!(now, SimTime::ZERO);
                        assert_eq!(w[0].blocks_held, 0);
                        assert_eq!(w[0].free_buffers(), 10);
                        self.step = 1;
                        Decision::Send {
                            to: WorkerId(0),
                            blocks: 2,
                            spawn_updates: 3,
                            mem_delta: 2,
                            label: "warmup".into(),
                        }
                    }
                    1 => {
                        // After send: port free at 2·1=2; worker computes 3·2=6
                        // finishing at 8.
                        assert_eq!(now, SimTime(2.0));
                        assert_eq!(w[0].ready, SimTime(8.0));
                        assert_eq!(w[0].blocks_held, 2);
                        assert_eq!(w[0].updates_assigned, 3);
                        self.step = 2;
                        Decision::Finished
                    }
                    _ => Decision::Finished,
                }
            }
        }
        let platform = Platform::homogeneous(1, 1.0, 2.0, 10).unwrap();
        let report = Simulator::new(platform).run(&mut Inspect { step: 0 }).unwrap();
        // Makespan includes trailing computation even without a recv.
        assert_eq!(report.makespan, SimTime(8.0));
    }
}
