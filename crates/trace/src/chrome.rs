//! The Chrome-trace event format of the streamed `MWP_TRACE=json:` sink.
//!
//! [`event_json`] renders one [`Activity`] as a Chrome `"X"` (complete)
//! event, and [`crate::record`]'s writer thread appends each one, then a
//! comma and a newline, to a file that starts with `[` and is never
//! closed. Perfetto and `chrome://tracing` load that unterminated array
//! as it stands, so a file whose writer died mid-run still opens. Each
//! event carries the exact `f64` start/end seconds in its `args`
//! (printed with Rust's shortest-round-trip formatting) beside the
//! viewer's rounded `ts`/`dur` microseconds.
//!
//! Track mapping: pid is always 1; tid 0 is the master lifecycle track,
//! tid 1 the master port, tid `100 + i` worker `i`'s compute track, tid
//! `100000 + i` worker `i`'s pack/kernel detail track.

use crate::schema::{Activity, Resource};
use std::fmt::Write as _;

/// The single process id every span is filed under.
pub const PID: u64 = 1;

const TID_MASTER: u64 = 0;
const TID_PORT: u64 = 1;
const TID_WORKER_BASE: u64 = 100;
const TID_DETAIL_BASE: u64 = 100_000;

/// Stable thread id for a resource: one viewer track per resource.
pub fn tid_of_resource(r: Resource) -> u64 {
    match r {
        Resource::Master => TID_MASTER,
        Resource::MasterPort => TID_PORT,
        Resource::Worker(w) => TID_WORKER_BASE + w.0 as u64,
        Resource::WorkerDetail(w) => TID_DETAIL_BASE + w.0 as u64,
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render one activity as a single-line Chrome `"X"` (complete) event.
/// `ts`/`dur` are microseconds for the viewer; the exact `f64` seconds
/// ride in `args`.
pub fn event_json(a: &Activity) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"name\":\"");
    escape_into(&mut out, &a.label);
    let _ = write!(
        out,
        "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{PID},\"tid\":{}",
        a.kind.name(),
        a.start.value() * 1e6,
        a.duration() * 1e6,
        tid_of_resource(a.resource),
    );
    let _ = write!(
        out,
        ",\"args\":{{\"start_s\":{},\"end_s\":{},\"bytes\":{},\"run\":{},\"peer\":{}}}}}",
        a.start.value(),
        a.end.value(),
        a.bytes,
        a.run,
        a.peer.0,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ActivityKind;
    use crate::time::SimTime;
    use mwp_platform::WorkerId;

    #[test]
    fn tid_mapping_round_trips() {
        // Distinct resources land on distinct tracks, so every tid in a
        // file names one resource.
        let resources = [Resource::Master, Resource::MasterPort]
            .into_iter()
            .chain((0..64).flat_map(|i| [Resource::Worker(WorkerId(i)), Resource::WorkerDetail(WorkerId(i))]));
        let mut tids: Vec<u64> = resources.map(tid_of_resource).collect();
        let n = tids.len();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), n);
    }

    /// The exact bytes the sink writes per span, one span per resource:
    /// every escape `escape_into` performs, non-zero `bytes`, `run` and
    /// `peer`, and `args` seconds that read back to the same `f64`.
    #[test]
    fn event_json_golden() {
        let worker = WorkerId(12);
        let (master, port) = (Resource::Master, Resource::MasterPort);
        let (on, detail) = (Resource::Worker(worker), Resource::WorkerDetail(worker));
        let label = "B\"q\\u\no\rt\te\u{1}\u{1f}";
        let spans = [
            Activity::new(master, ActivityKind::Run, WorkerId(0), SimTime(0.0), SimTime(1.0 / 3.0), "RUN_END".into()),
            Activity::new(port, ActivityKind::Send, worker, SimTime(0.000123456789), SimTime(0.25), label.into())
                .with_bytes(51_200),
            Activity::new(on, ActivityKind::Compute, worker, SimTime(0.25), SimTime(2.0 / 3.0), "upd".into()),
            Activity::new(detail, ActivityKind::Kernel, worker, SimTime(0.26), SimTime(0.26 + 1e-7), "gemm".into()),
        ];
        let golden = [
            r#"{"name":"RUN_END","cat":"run","ph":"X","ts":0.000,"dur":333333.333,"pid":1,"tid":0,"args":{"start_s":0,"end_s":0.3333333333333333,"bytes":0,"run":7,"peer":0}}"#,
            r#"{"name":"B\"q\\u\no\rt\te\u0001\u001f","cat":"send","ph":"X","ts":123.457,"dur":249876.543,"pid":1,"tid":1,"args":{"start_s":0.000123456789,"end_s":0.25,"bytes":51200,"run":7,"peer":12}}"#,
            r#"{"name":"upd","cat":"compute","ph":"X","ts":250000.000,"dur":416666.667,"pid":1,"tid":112,"args":{"start_s":0.25,"end_s":0.6666666666666666,"bytes":0,"run":7,"peer":12}}"#,
            r#"{"name":"gemm","cat":"kernel","ph":"X","ts":260000.000,"dur":0.100,"pid":1,"tid":100012,"args":{"start_s":0.26,"end_s":0.2600001,"bytes":0,"run":7,"peer":12}}"#,
        ];
        for (span, want) in spans.into_iter().zip(golden) {
            let span = span.with_run(7);
            let got = event_json(&span);
            assert_eq!(got, want);
            let seconds = |key: &str| -> f64 {
                let tail = &got[got.find(key).expect(key) + key.len()..];
                tail[..tail.find(',').unwrap()].parse().expect(key)
            };
            assert_eq!(seconds("\"start_s\":").to_bits(), span.start.value().to_bits());
            assert_eq!(seconds("\"end_s\":").to_bits(), span.end.value().to_bits());
        }
    }
}
