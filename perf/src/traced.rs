//! The traced pass: run a few ops under `mwp_trace::record::Capture` and
//! sum the spans the program already records into per-op layer times.
//! Nothing here adds a span; it only captures and aggregates.

use crate::metrics::Values;
use crate::stats::{median, ratio};
use crate::workloads::Pass;
use mwp_trace::{ActivityKind, Resource, Trace};

/// Seconds of spans per `(resource class, kind)`, over a whole capture.
#[derive(Debug, Default, PartialEq)]
pub struct SpanSums {
    pub port_send: f64,
    pub port_recv: f64,
    pub port_wait: f64,
    pub worker_compute: f64,
    pub kernel: f64,
    pub pack: f64,
    pub spans: usize,
}

pub fn sum_spans(trace: &Trace) -> SpanSums {
    let mut sums = SpanSums {
        spans: trace.activities.len(),
        ..SpanSums::default()
    };
    for a in &trace.activities {
        let slot = match (a.resource, a.kind) {
            (Resource::MasterPort, ActivityKind::Send) => &mut sums.port_send,
            (Resource::MasterPort, ActivityKind::Recv) => &mut sums.port_recv,
            (Resource::MasterPort, ActivityKind::Wait) => &mut sums.port_wait,
            (Resource::Worker(_), ActivityKind::Compute) => &mut sums.worker_compute,
            (Resource::WorkerDetail(_), ActivityKind::Kernel) => &mut sums.kernel,
            (Resource::WorkerDetail(_), ActivityKind::Pack) => &mut sums.pack,
            // Run-lifecycle markers and anything a later PR adds: counted
            // in `spans`, attributed to no layer here.
            _ => continue,
        };
        *slot += a.duration();
    }
    sums
}

/// Emit the `trace.*` metrics of a traced pass. `untraced` is the pass
/// the same workload ran just before with the recorder off: the
/// difference in median op wall is what tracing costs. A traced pass
/// whose ops all failed names no workers: its shares read 0 (`ratio`).
pub fn emit(values: &mut Values, sums: &SpanSums, traced: &Pass, untraced: &Pass) {
    let ops = traced.attempted as f64;
    let wall = traced.wall();
    let port = sums.port_send + sums.port_recv;
    values.put("trace.port_send_s", sums.port_send / ops);
    values.put("trace.port_recv_s", sums.port_recv / ops);
    values.put("trace.port_wait_s", sums.port_wait / ops);
    values.put("trace.worker_compute_s", sums.worker_compute / ops);
    values.put("trace.kernel_s", sums.kernel / ops);
    values.put("trace.pack_s", sums.pack / ops);
    values.put(
        "trace.worker_busy_frac",
        ratio(sums.worker_compute, traced.workers_used as f64 * wall),
    );
    values.put("trace.port_busy_frac", ratio(port, wall));
    // Serialization, planning and commit on the master: everything the
    // port spans do not cover. With several dispatchers waiting on the
    // port at once (serving) the waits overlap and this goes negative.
    values.put(
        "trace.master_other_frac",
        1.0 - ratio(port + sums.port_wait, wall),
    );
    values.put("trace.spans_per_op", sums.spans as f64 / ops);
    values.put(
        "trace.overhead_frac",
        median(&traced.op_s) / median(&untraced.op_s) - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_platform::WorkerId;
    use mwp_trace::{Activity, SimTime};

    fn span(resource: Resource, kind: ActivityKind, start: f64, end: f64) -> Activity {
        Activity::new(
            resource,
            kind,
            WorkerId(0),
            SimTime(start),
            SimTime(end),
            "x".into(),
        )
    }

    #[test]
    fn spans_land_in_their_layer_and_the_rest_only_count() {
        let mut trace = Trace::default();
        trace.push(span(Resource::MasterPort, ActivityKind::Send, 0.0, 1.0));
        trace.push(span(Resource::MasterPort, ActivityKind::Send, 1.0, 1.5));
        trace.push(span(Resource::MasterPort, ActivityKind::Recv, 2.0, 2.25));
        trace.push(span(Resource::MasterPort, ActivityKind::Wait, 1.5, 2.0));
        trace.push(span(
            Resource::Worker(WorkerId(1)),
            ActivityKind::Compute,
            0.0,
            4.0,
        ));
        trace.push(span(
            Resource::WorkerDetail(WorkerId(1)),
            ActivityKind::Kernel,
            0.0,
            3.0,
        ));
        trace.push(span(
            Resource::WorkerDetail(WorkerId(1)),
            ActivityKind::Pack,
            3.0,
            3.5,
        ));
        trace.push(span(Resource::Master, ActivityKind::Run, 0.0, 4.0));
        let sums = sum_spans(&trace);
        assert_eq!(
            sums,
            SpanSums {
                port_send: 1.5,
                port_recv: 0.25,
                port_wait: 0.5,
                worker_compute: 4.0,
                kernel: 3.0,
                pack: 0.5,
                spans: 8,
            }
        );

        let pass = |op: f64| Pass {
            attempted: 2,
            op_s: vec![op, op],
            done: vec![op, 2.0 * op],
            workers_used: 2,
            ..Pass::default()
        };
        let mut values = Values::default();
        emit(&mut values, &sums, &pass(2.0), &pass(1.6));
        assert_eq!(values.get("trace.port_send_s"), Some(0.75));
        assert_eq!(values.get("trace.worker_busy_frac"), Some(0.5));
        assert_eq!(values.get("trace.port_busy_frac"), Some(1.75 / 4.0));
        assert_eq!(
            values.get("trace.master_other_frac"),
            Some(1.0 - 2.25 / 4.0)
        );
        assert_eq!(values.get("trace.spans_per_op"), Some(4.0));
        assert!((values.get("trace.overhead_frac").unwrap() - 0.25).abs() < 1e-12);

        // Every traced op failed before a plan existed: no worker is
        // named, and the ledger still fills without a NaN.
        let failed = Pass {
            failed: 2,
            workers_used: 0,
            ..pass(2.0)
        };
        let mut values = Values::default();
        emit(&mut values, &sums, &failed, &pass(1.6));
        assert_eq!(values.get("trace.worker_busy_frac"), Some(0.0));
        assert_eq!(values.len(), 11);
    }
}
