//! Execution traces: every port and worker activity with timestamps.
//!
//! The same schema describes both timelines. The simulator emits
//! `Send`/`Recv`/`Compute` occupancy spans; the live runtime additionally
//! emits `Wait` (time blocked on the one-port arbiter or on frame
//! availability), `Pack`/`Kernel` detail spans inside worker compute, and
//! `Run` lifecycle markers (`RUN_BEGIN` → `RUN_END`/`RUN_ABORT`). Transfer
//! spans carry the payload byte count and the run generation tag, so a
//! trace can be audited against [`RunEpoch`]-style aggregate counters.
//!
//! [`RunEpoch`]: https://docs.rs/mwp-msg

use crate::time::SimTime;
use mwp_platform::WorkerId;
use std::borrow::Cow;

/// The resource an [`Activity`] occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The master's single network port.
    MasterPort,
    /// A worker's CPU.
    Worker(WorkerId),
    /// The master itself (run-lifecycle track, not the port).
    Master,
    /// A worker's detail track: `Pack`/`Kernel` sub-spans that subdivide
    /// the enclosing [`Resource::Worker`] `Compute` span. A separate
    /// resource so per-resource occupancy checking stays honest.
    WorkerDetail(WorkerId),
}

/// What kind of activity occupied the resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityKind {
    /// Master sending to a worker (port activity).
    Send,
    /// Master receiving from a worker (port activity).
    Recv,
    /// A worker computing (worker activity).
    Compute,
    /// Time spent blocked — on the one-port arbiter or waiting for a frame
    /// to arrive. Not occupancy: concurrent waiters legitimately overlap.
    Wait,
    /// Packing a B block into kernel-friendly layout (worker detail).
    Pack,
    /// One GEMM kernel invocation (worker detail).
    Kernel,
    /// Run lifecycle span (`RUN_BEGIN` marker, `RUN_END`/`RUN_ABORT`
    /// full-run span). Not occupancy: interleaved job runs overlap.
    Run,
}

impl ActivityKind {
    /// Lowercase wire name, stable across CSV and Chrome-JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            ActivityKind::Send => "send",
            ActivityKind::Recv => "recv",
            ActivityKind::Compute => "compute",
            ActivityKind::Wait => "wait",
            ActivityKind::Pack => "pack",
            ActivityKind::Kernel => "kernel",
            ActivityKind::Run => "run",
        }
    }

    /// Parse a wire name written by [`ActivityKind::name`].
    pub fn from_name(s: &str) -> Option<ActivityKind> {
        Some(match s {
            "send" => ActivityKind::Send,
            "recv" => ActivityKind::Recv,
            "compute" => ActivityKind::Compute,
            "wait" => ActivityKind::Wait,
            "pack" => ActivityKind::Pack,
            "kernel" => ActivityKind::Kernel,
            "run" => ActivityKind::Run,
            _ => return None,
        })
    }

    /// Whether spans of this kind claim exclusive use of their resource.
    /// `Wait` and `Run` are annotations, not occupancy, and are exempt
    /// from [`Trace::check_no_overlap`].
    pub fn occupies(self) -> bool {
        !matches!(self, ActivityKind::Wait | ActivityKind::Run)
    }
}

/// One contiguous span of activity on a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Which resource was busy.
    pub resource: Resource,
    /// Send / Recv / Compute / Wait / Pack / Kernel / Run.
    pub kind: ActivityKind,
    /// The worker at the other end (for port ops) or the computing worker.
    pub peer: WorkerId,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Free-form label for Gantt rendering (e.g. `"B1,3"`, `"C chunk 2"`).
    /// Borrowed for fixed strings; owned only for formatted detail.
    pub label: Cow<'static, str>,
    /// Payload bytes moved (transfer spans over block frames; 0 elsewhere).
    pub bytes: u64,
    /// Run generation tag the span belongs to (0 when untagged).
    pub run: u32,
}

impl Activity {
    /// A span with no byte count and no generation tag — the common case,
    /// and everything the simulator emits.
    pub fn new(
        resource: Resource,
        kind: ActivityKind,
        peer: WorkerId,
        start: SimTime,
        end: SimTime,
        label: Cow<'static, str>,
    ) -> Activity {
        Activity {
            resource,
            kind,
            peer,
            start,
            end,
            label,
            bytes: 0,
            run: 0,
        }
    }

    /// Attach a payload byte count (builder style).
    pub fn with_bytes(mut self, bytes: u64) -> Activity {
        self.bytes = bytes;
        self
    }

    /// Attach a run generation tag (builder style).
    pub fn with_run(mut self, run: u32) -> Activity {
        self.run = run;
        self
    }

    /// Duration of this span.
    pub fn duration(&self) -> f64 {
        self.end.value() - self.start.value()
    }
}

/// A complete execution trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All activities in the order they were recorded (port ops are in
    /// start-time order; compute ops in enqueue order).
    pub activities: Vec<Activity>,
}

impl Trace {
    /// Record an activity.
    pub fn push(&mut self, a: Activity) {
        debug_assert!(a.end >= a.start, "activity ends before it starts");
        self.activities.push(a);
    }

    /// All activities on a given resource, in recorded order.
    pub fn on(&self, r: Resource) -> impl Iterator<Item = &Activity> {
        self.activities.iter().filter(move |a| a.resource == r)
    }

    /// Total busy time of a resource (occupancy spans only — `Wait` and
    /// `Run` annotations never count as busy).
    pub fn busy_time(&self, r: Resource) -> f64 {
        self.on(r)
            .filter(|a| a.kind.occupies())
            .map(Activity::duration)
            .sum()
    }

    /// End of the last activity (0 for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.activities
            .iter()
            .map(|a| a.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Validate that no two occupancy activities overlap on the same
    /// resource — the one-port property for the master, and sequential
    /// execution for each worker. `Wait` and `Run` annotation spans are
    /// exempt (see [`ActivityKind::occupies`]). Returns the first
    /// violating pair if any.
    pub fn check_no_overlap(&self) -> Result<(), Box<(Activity, Activity)>> {
        use std::collections::HashMap;
        let mut by_resource: HashMap<Resource, Vec<&Activity>> = HashMap::new();
        for a in &self.activities {
            if a.kind.occupies() {
                by_resource.entry(a.resource).or_default().push(a);
            }
        }
        for acts in by_resource.values_mut() {
            acts.sort_by_key(|a| a.start);
            for pair in acts.windows(2) {
                // Zero-length gaps are fine; strict overlap is not.
                if pair[1].start < pair[0].end {
                    return Err(Box::new(((*pair[0]).clone(), (*pair[1]).clone())));
                }
            }
        }
        Ok(())
    }

    /// Export as CSV rows `resource,kind,peer,start,end,bytes,run,label`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("resource,kind,peer,start,end,bytes,run,label\n");
        for a in &self.activities {
            let res = match a.resource {
                Resource::MasterPort => "port".to_string(),
                Resource::Worker(w) => format!("{w}"),
                Resource::Master => "master".to_string(),
                Resource::WorkerDetail(w) => format!("{w}.detail"),
            };
            out.push_str(&format!(
                "{res},{},{},{:.6},{:.6},{},{},{}\n",
                a.kind.name(),
                a.peer,
                a.start.value(),
                a.end.value(),
                a.bytes,
                a.run,
                a.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(res: Resource, start: f64, end: f64) -> Activity {
        Activity::new(
            res,
            ActivityKind::Send,
            WorkerId(0),
            SimTime(start),
            SimTime(end),
            "x".into(),
        )
    }

    #[test]
    fn busy_time_sums_durations() {
        let mut t = Trace::default();
        t.push(act(Resource::MasterPort, 0.0, 2.0));
        t.push(act(Resource::MasterPort, 3.0, 4.0));
        t.push(act(Resource::Worker(WorkerId(0)), 0.0, 10.0));
        assert_eq!(t.busy_time(Resource::MasterPort), 3.0);
        assert_eq!(t.busy_time(Resource::Worker(WorkerId(0))), 10.0);
        assert_eq!(t.end_time(), SimTime(10.0));
    }

    #[test]
    fn overlap_detected_per_resource() {
        let mut t = Trace::default();
        t.push(act(Resource::MasterPort, 0.0, 2.0));
        t.push(act(Resource::Worker(WorkerId(1)), 1.0, 3.0)); // different resource: fine
        assert!(t.check_no_overlap().is_ok());
        t.push(act(Resource::MasterPort, 1.5, 2.5)); // overlaps first port op
        assert!(t.check_no_overlap().is_err());
    }

    #[test]
    fn adjacent_activities_allowed() {
        let mut t = Trace::default();
        t.push(act(Resource::MasterPort, 0.0, 2.0));
        t.push(act(Resource::MasterPort, 2.0, 3.0));
        assert!(t.check_no_overlap().is_ok());
    }

    #[test]
    fn wait_and_run_spans_are_not_occupancy() {
        let mut t = Trace::default();
        t.push(act(Resource::MasterPort, 0.0, 2.0));
        // A wait that overlaps the busy port is the normal case: the span
        // records *blocking*, not occupancy.
        let mut w = act(Resource::MasterPort, 0.5, 1.5);
        w.kind = ActivityKind::Wait;
        t.push(w);
        // Overlapping run-lifecycle spans on the master are interleaved
        // job runs, also fine.
        for s in [0.0, 0.5] {
            let mut r = act(Resource::Master, s, 3.0);
            r.kind = ActivityKind::Run;
            t.push(r);
        }
        assert!(t.check_no_overlap().is_ok());
        // And neither contributes to busy time.
        assert_eq!(t.busy_time(Resource::MasterPort), 2.0);
        assert_eq!(t.busy_time(Resource::Master), 0.0);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            ActivityKind::Send,
            ActivityKind::Recv,
            ActivityKind::Compute,
            ActivityKind::Wait,
            ActivityKind::Pack,
            ActivityKind::Kernel,
            ActivityKind::Run,
        ] {
            assert_eq!(ActivityKind::from_name(k.name()), Some(k));
        }
        assert_eq!(ActivityKind::from_name("bogus"), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Trace::default();
        t.push(act(Resource::MasterPort, 0.0, 1.0).with_bytes(512).with_run(3));
        let csv = t.to_csv();
        assert!(csv.starts_with("resource,kind,peer,start,end,bytes,run,label\n"));
        assert!(csv.contains("port,send,P1,0.000000,1.000000,512,3,x"));
    }
}
