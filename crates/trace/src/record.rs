//! The process-global runtime span recorder behind `MWP_TRACE`.
//!
//! Off by default and free when off: every instrumentation site guards on
//! [`enabled`] — a couple of relaxed atomic loads — before it builds an
//! [`Activity`], so the disabled path performs no allocation, no clock
//! read, and no locking.
//!
//! Two kinds of sink can be live at once:
//!
//! * the **env sink** (`MWP_TRACE=json:<path>`): spans accumulate in
//!   memory and [`flush`] hands them to a background writer thread that
//!   appends them to `<path>` as streamed Chrome-trace events (an array
//!   that is opened but never closed — exactly what Perfetto and
//!   `chrome://tracing` accept for streamed files). The session layer
//!   flushes at every run boundary, so memory stays bounded across a
//!   long test suite without paying JSON formatting or file I/O on the
//!   run's critical path; [`sync`] blocks until the writer has drained,
//!   for process-exit durability (worker shutdown);
//! * **captures** ([`Capture::begin`]): in-process collectors used by
//!   tests and the `replay_diff` harness to get a [`Trace`] value back
//!   without touching the filesystem.
//!
//! Timestamps come from [`now`]: wall-clock seconds since the process
//! trace epoch (first use), typed as [`SimTime`] so measured traces share
//! the simulator's timeline type.
//!
//! `MWP_TRACE` parses strictly, like every other `MWP_*` switch: empty or
//! `off` disable tracing, `json:<path>` streams to a file, and anything
//! else panics naming the valid values.

use crate::chrome;
use crate::schema::{Activity, ActivityKind, Resource, Trace};
use crate::time::SimTime;
use mwp_platform::WorkerId;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parsed value of the `MWP_TRACE` switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing (the default).
    Off,
    /// Stream Chrome-trace events to the given file, appending at every
    /// run boundary.
    Json(PathBuf),
}

/// Parse an `MWP_TRACE` value. Empty means [`TraceMode::Off`]; unknown
/// values are errors naming the valid forms, so typos fail loudly
/// instead of silently disabling tracing.
pub fn parse_trace_mode(value: &str) -> Result<TraceMode, String> {
    match value {
        "" | "off" => Ok(TraceMode::Off),
        v => match v.strip_prefix("json:") {
            Some("") => Err("json sink needs a path, e.g. json:/tmp/trace.json".to_string()),
            Some(path) => Ok(TraceMode::Json(PathBuf::from(path))),
            None => Err(format!(
                "unknown trace mode '{v}' (valid: off, json:<path>)"
            )),
        },
    }
}

/// The process-wide `MWP_TRACE` setting, parsed once. Panics with a
/// `MWP_TRACE:`-prefixed message on an invalid value.
pub fn trace_mode() -> &'static TraceMode {
    static MODE: OnceLock<TraceMode> = OnceLock::new();
    MODE.get_or_init(|| {
        let v = std::env::var("MWP_TRACE").unwrap_or_default();
        match parse_trace_mode(&v) {
            Ok(m) => m,
            Err(e) => panic!("MWP_TRACE: {e}"),
        }
    })
}

fn env_sink() -> Option<&'static PathBuf> {
    static PATH: OnceLock<Option<PathBuf>> = OnceLock::new();
    PATH.get_or_init(|| match trace_mode() {
        TraceMode::Off => None,
        TraceMode::Json(p) => Some(p.clone()),
    })
    .as_ref()
}

/// Number of live [`Capture`]s (cheap gate for [`enabled`]).
static CAPTURES: AtomicUsize = AtomicUsize::new(0);

struct Sinks {
    /// Live in-process captures.
    captures: Vec<(u64, Trace)>,
    next_capture: u64,
}

static SINKS: Mutex<Sinks> = Mutex::new(Sinks {
    captures: Vec::new(),
    next_capture: 0,
});

/// Every thread's pending-span buffer for the env sink. Threads record
/// into their own buffer (an uncontended lock — no cache-line bouncing
/// between the master and the workers on the hot path); [`flush`] drains
/// them all. Entries whose thread has exited (strong count 1: only the
/// registry holds them) are dropped after draining.
static PENDING: Mutex<Vec<std::sync::Arc<Mutex<Vec<Activity>>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL_PENDING: std::sync::Arc<Mutex<Vec<Activity>>> = {
        let buf = std::sync::Arc::new(Mutex::new(Vec::new()));
        PENDING.lock().unwrap_or_else(|e| e.into_inner()).push(buf.clone());
        buf
    };
}

/// Whether any sink wants spans right now. Instrumentation sites check
/// this *before* reading the clock or building an [`Activity`], which is
/// what makes `MWP_TRACE=off` free.
#[inline]
pub fn enabled() -> bool {
    CAPTURES.load(Ordering::Relaxed) > 0 || env_sink().is_some()
}

/// Wall-clock seconds since the process trace epoch (established on
/// first use), as a [`SimTime`] so measured spans share the simulator's
/// timeline type.
pub fn now() -> SimTime {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    SimTime(EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64())
}

/// A span's start time, taken only when a sink is live: `None` means
/// tracing is off, and costs the [`enabled`] check and nothing else.
#[inline]
pub fn begin() -> Option<SimTime> {
    enabled().then(now)
}

/// Close a worker-side span opened by [`begin`] (a `None` start records
/// nothing): `Compute` spans land on the worker's occupancy track,
/// `Pack`/`Kernel` detail spans on its detail track — they subdivide the
/// enclosing compute span, so they must not compete with it for
/// per-resource exclusivity.
pub fn worker_span(
    w: WorkerId,
    kind: ActivityKind,
    t0: Option<SimTime>,
    run: u32,
    label: &'static str,
) {
    let Some(t0) = t0 else { return };
    let resource = match kind {
        ActivityKind::Compute => Resource::Worker(w),
        _ => Resource::WorkerDetail(w),
    };
    record(Activity::new(resource, kind, w, t0, now(), label.into()).with_run(run));
}

/// Record one span into every live sink. Call only after [`enabled`]
/// returned true (calling it anyway is correct, just wasted work).
pub fn record(a: Activity) {
    if CAPTURES.load(Ordering::Relaxed) > 0 {
        let mut sinks = SINKS.lock().unwrap_or_else(|e| e.into_inner());
        for (_, trace) in &mut sinks.captures {
            trace.push(a.clone());
        }
    }
    if env_sink().is_some() {
        LOCAL_PENDING.with(|buf| {
            buf.lock().unwrap_or_else(|e| e.into_inner()).push(a);
        });
    }
}

enum WriterMsg {
    /// Format and append one batch of spans.
    Batch(Vec<Activity>),
    /// Acknowledge once every previously queued batch is on disk.
    Sync(std::sync::mpsc::Sender<()>),
}

/// The lazily spawned writer thread's inbox. `None` when there is no env
/// sink, or if the thread could not be spawned.
fn writer() -> Option<&'static std::sync::mpsc::Sender<WriterMsg>> {
    static WRITER: OnceLock<Option<std::sync::mpsc::Sender<WriterMsg>>> = OnceLock::new();
    WRITER
        .get_or_init(|| {
            let path = env_sink()?.clone();
            let (tx, rx) = std::sync::mpsc::channel::<WriterMsg>();
            std::thread::Builder::new()
                .name("mwp-trace-writer".into())
                .spawn(move || writer_loop(&path, &rx))
                .ok()?;
            Some(tx)
        })
        .as_ref()
}

fn warn_once(path: &std::path::Path, e: &std::io::Error) {
    static WARNED: OnceLock<()> = OnceLock::new();
    WARNED.get_or_init(|| {
        eprintln!("mwp-trace: cannot write {}: {e}", path.display());
    });
}

/// The writer thread: keeps the sink file open across batches, formats
/// off the runtime's critical path, and flushes the file after every
/// batch so the streamed array is loadable after each completed run.
/// Best-effort — I/O errors are reported once to stderr and subsequent
/// batches dropped.
fn writer_loop(path: &std::path::Path, rx: &std::sync::mpsc::Receiver<WriterMsg>) {
    let mut out = match std::fs::OpenOptions::new().create(true).append(true).open(path) {
        Ok(f) => match f.metadata() {
            Ok(m) => {
                let mut w = std::io::BufWriter::new(f);
                if m.len() == 0 {
                    let _ = w.write_all(b"[\n");
                }
                Some(w)
            }
            Err(e) => {
                warn_once(path, &e);
                None
            }
        },
        Err(e) => {
            warn_once(path, &e);
            None
        }
    };
    let mut buf = String::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Batch(batch) => {
                let Some(w) = out.as_mut() else { continue };
                buf.clear();
                for a in &batch {
                    buf.push_str(&chrome::event_json(a));
                    buf.push_str(",\n");
                }
                if let Err(e) = w.write_all(buf.as_bytes()).and_then(|()| w.flush()) {
                    warn_once(path, &e);
                    out = None;
                }
            }
            WriterMsg::Sync(ack) => {
                let _ = ack.send(());
            }
        }
    }
}

/// Hand pending spans to the env sink's writer thread as one batch.
/// No-op without an env sink. The session layer calls this at every run
/// boundary; the handoff is one channel send — formatting and file I/O
/// happen on the writer thread, off the run's critical path.
pub fn flush() {
    let Some(tx) = writer() else { return };
    let mut batch = Vec::new();
    {
        let mut registry = PENDING.lock().unwrap_or_else(|e| e.into_inner());
        registry.retain(|buf| {
            batch.append(&mut buf.lock().unwrap_or_else(|e| e.into_inner()));
            std::sync::Arc::strong_count(buf) > 1
        });
    }
    if batch.is_empty() {
        return;
    }
    let _ = tx.send(WriterMsg::Batch(batch));
}

/// [`flush`], then block until the writer thread has everything on disk.
/// Called where the process may exit next (worker shutdown): channel
/// order guarantees every earlier batch is written before the ack.
pub fn sync() {
    flush();
    let Some(tx) = writer() else { return };
    let (ack_tx, ack_rx) = std::sync::mpsc::channel();
    if tx.send(WriterMsg::Sync(ack_tx)).is_ok() {
        let _ = ack_rx.recv();
    }
}

/// An in-process trace collector. Every span recorded between
/// [`Capture::begin`] and [`Capture::end`] (from any thread) lands in
/// the returned [`Trace`]. Captures are process-global — tests that use
/// them serialize on a shared lock so traces don't interleave.
#[derive(Debug)]
pub struct Capture {
    id: u64,
    taken: bool,
}

impl Capture {
    /// Start collecting.
    pub fn begin() -> Capture {
        let mut sinks = SINKS.lock().unwrap_or_else(|e| e.into_inner());
        let id = sinks.next_capture;
        sinks.next_capture += 1;
        sinks.captures.push((id, Trace::default()));
        CAPTURES.fetch_add(1, Ordering::Relaxed);
        Capture { id, taken: false }
    }

    /// Stop collecting and return everything recorded since
    /// [`Capture::begin`].
    pub fn end(mut self) -> Trace {
        self.taken = true;
        self.detach().unwrap_or_default()
    }

    fn detach(&self) -> Option<Trace> {
        let mut sinks = SINKS.lock().unwrap_or_else(|e| e.into_inner());
        let pos = sinks.captures.iter().position(|(id, _)| *id == self.id)?;
        let (_, trace) = sinks.captures.swap_remove(pos);
        CAPTURES.fetch_sub(1, Ordering::Relaxed);
        Some(trace)
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.taken {
            self.detach();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ActivityKind, Resource};
    use mwp_platform::WorkerId;

    fn span(start: f64) -> Activity {
        Activity::new(
            Resource::MasterPort,
            ActivityKind::Send,
            WorkerId(0),
            SimTime(start),
            SimTime(start + 1.0),
            "t".into(),
        )
    }

    #[test]
    fn parser_is_strict() {
        assert_eq!(parse_trace_mode(""), Ok(TraceMode::Off));
        assert_eq!(parse_trace_mode("off"), Ok(TraceMode::Off));
        assert_eq!(
            parse_trace_mode("json:/tmp/t.json"),
            Ok(TraceMode::Json(PathBuf::from("/tmp/t.json")))
        );
        let err = parse_trace_mode("on").unwrap_err();
        assert!(err.contains("valid: off, json:<path>"), "{err}");
        assert!(parse_trace_mode("json:").unwrap_err().contains("path"));
        // Case-sensitive, like every other MWP_* switch.
        assert!(parse_trace_mode("OFF").is_err());
        assert!(parse_trace_mode("Json:/tmp/x").is_err());
    }

    #[test]
    fn capture_collects_and_detaches() {
        // This test binary never sets MWP_TRACE, so only captures gate
        // the recorder.
        let before = enabled();
        let cap = Capture::begin();
        assert!(enabled());
        record(span(0.0));
        record(span(1.0));
        let trace = cap.end();
        assert_eq!(trace.activities.len(), 2);
        assert_eq!(enabled(), before);
        // After the capture ends, recording is a no-op again.
        record(span(2.0));
        let cap2 = Capture::begin();
        let empty = cap2.end();
        assert!(empty.activities.is_empty());
    }

    #[test]
    fn dropped_capture_unregisters() {
        let cap = Capture::begin();
        drop(cap);
        assert!(!enabled() || env_sink().is_some());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now();
        let b = now();
        assert!(b >= a);
    }
}
