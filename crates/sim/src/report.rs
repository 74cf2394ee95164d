//! Simulation results: makespan, utilization, communication statistics.

use mwp_trace::{SimTime, Trace};

/// The outcome of one simulated execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of the whole schedule (last port operation or last
    /// worker computation, whichever is later).
    pub makespan: SimTime,
    /// Total time the master port was transferring data.
    pub port_busy_time: f64,
    /// Per-worker total compute time, indexed by worker.
    pub worker_busy_time: Vec<f64>,
    /// Per-worker number of block updates executed.
    pub updates_per_worker: Vec<u64>,
    /// Total blocks sent by the master.
    pub blocks_sent: u64,
    /// Total blocks received by the master.
    pub blocks_received: u64,
    /// Port idle time spent waiting for a worker to finish computing
    /// before a receive could start (the `max(completion, ready)` term of
    /// Algorithm 3's timeline).
    pub port_wait_for_worker: f64,
    /// Port idle time explicitly requested by the policy (eligibility
    /// blocking: full buffers or idle-only dispatch).
    pub port_wait_for_buffers: f64,
    /// Full activity trace (empty if recording was disabled).
    pub trace: Trace,
}

impl SimReport {
    /// Port utilization in `[0, 1]`: fraction of the makespan the master
    /// port was busy. The homogeneous algorithm aims at keeping this at 1
    /// (saturated port) once steady state is reached.
    pub fn port_utilization(&self) -> f64 {
        if self.makespan.value() == 0.0 {
            0.0
        } else {
            self.port_busy_time / self.makespan.value()
        }
    }

    /// Total block updates across all workers.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_worker.iter().sum()
    }

    /// Measured communication-to-computation ratio in block terms:
    /// `(blocks sent + received) / block updates` (Section 4's CCR).
    pub fn measured_ccr(&self) -> f64 {
        let updates = self.total_updates();
        if updates == 0 {
            f64::INFINITY
        } else {
            (self.blocks_sent + self.blocks_received) as f64 / updates as f64
        }
    }

    /// Throughput in block updates per time unit.
    pub fn throughput(&self) -> f64 {
        if self.makespan.value() == 0.0 {
            0.0
        } else {
            self.total_updates() as f64 / self.makespan.value()
        }
    }

    /// Number of workers that executed at least one update — the paper
    /// reports "number of processors used" alongside execution times.
    pub fn workers_used(&self) -> usize {
        self.updates_per_worker.iter().filter(|&&u| u > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: SimTime(10.0),
            port_busy_time: 5.0,
            worker_busy_time: vec![10.0, 2.0, 0.0],
            updates_per_worker: vec![8, 2, 0],
            blocks_sent: 16,
            blocks_received: 4,
            port_wait_for_worker: 2.0,
            port_wait_for_buffers: 1.0,
            trace: Trace::default(),
        }
    }

    #[test]
    fn utilizations() {
        let r = report();
        assert_eq!(r.port_utilization(), 0.5);
    }

    #[test]
    fn ccr_and_throughput() {
        let r = report();
        assert_eq!(r.total_updates(), 10);
        assert_eq!(r.measured_ccr(), 2.0);
        assert_eq!(r.throughput(), 1.0);
        assert_eq!(r.workers_used(), 2);
    }

    #[test]
    fn empty_run_degenerates_gracefully() {
        let r = SimReport {
            makespan: SimTime::ZERO,
            port_busy_time: 0.0,
            worker_busy_time: vec![],
            updates_per_worker: vec![],
            blocks_sent: 0,
            blocks_received: 0,
            port_wait_for_worker: 0.0,
            port_wait_for_buffers: 0.0,
            trace: Trace::default(),
        };
        assert_eq!(r.port_utilization(), 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert!(r.measured_ccr().is_infinite());
    }
}
