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

    /// Per-worker utilization in `[0, 1]`.
    pub fn worker_utilization(&self) -> Vec<f64> {
        let t = self.makespan.value();
        self.worker_busy_time
            .iter()
            .map(|&b| if t == 0.0 { 0.0 } else { b / t })
            .collect()
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

    /// Where the port's idle time went, as fractions of the makespan:
    /// `(waiting for workers to drain, eligibility blocking, other)`.
    /// "Other" covers start-up/tail effects not attributed to either
    /// cause. Diagnostic companion to [`SimReport::port_utilization`].
    pub fn idle_breakdown(&self) -> (f64, f64, f64) {
        let t = self.makespan.value();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let idle = (t - self.port_busy_time).max(0.0);
        let w = self.port_wait_for_worker / t;
        let b = self.port_wait_for_buffers / t;
        ((w).min(idle / t), b.min(idle / t), (idle / t - w - b).max(0.0))
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
        assert_eq!(r.worker_utilization(), vec![1.0, 0.2, 0.0]);
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
    fn idle_breakdown_sums_to_idle_fraction() {
        let r = report();
        let (worker, buffers, other) = r.idle_breakdown();
        assert!((worker - 0.2).abs() < 1e-12);
        assert!((buffers - 0.1).abs() < 1e-12);
        // idle = 0.5 of makespan; 0.2 + 0.1 accounted, 0.2 other.
        assert!((other - 0.2).abs() < 1e-12);
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
