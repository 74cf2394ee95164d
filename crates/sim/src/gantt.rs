//! ASCII Gantt rendering of traces — the textual analogue of the paper's
//! Figures 7 and 8 (master row `M` on top, one row per worker below).

use mwp_platform::WorkerId;
use mwp_trace::{ActivityKind, Resource, Trace};

/// Render `trace` as an ASCII Gantt chart with `width` columns covering
/// `[0, horizon]` (horizon defaults to the trace end).
///
/// Master-port sends show as `s`, receives as `r`; worker compute spans as
/// `#`. Idle time is `.`.
pub fn render(trace: &Trace, workers: usize, width: usize) -> String {
    render_until(trace, workers, width, trace.end_time().value())
}

/// Like [`render`] but with an explicit time horizon (useful to zoom into
/// the periodic pattern of the incremental selection algorithms).
pub fn render_until(trace: &Trace, workers: usize, width: usize, horizon: f64) -> String {
    assert!(width > 0, "width must be positive");
    let horizon = if horizon <= 0.0 { 1.0 } else { horizon };
    let scale = width as f64 / horizon;
    let mut out = String::new();

    let mut rows: Vec<(String, Vec<char>)> = Vec::with_capacity(workers + 1);
    rows.push(("M ".to_string(), vec!['.'; width]));
    for i in 0..workers {
        rows.push((format!("{} ", WorkerId(i)), vec!['.'; width]));
    }

    for a in &trace.activities {
        let (row, ch) = match (a.resource, a.kind) {
            (Resource::MasterPort, ActivityKind::Send) => (0, 's'),
            (Resource::MasterPort, ActivityKind::Recv) => (0, 'r'),
            (Resource::MasterPort, _) => (0, '?'),
            (Resource::Worker(w), _) => (w.index() + 1, '#'),
            // Runtime-only annotation tracks (lifecycle markers, waits,
            // pack/kernel detail) don't render as occupancy rows.
            (Resource::Master | Resource::WorkerDetail(_), _) => continue,
        };
        if row >= rows.len() {
            continue;
        }
        let from = (a.start.value() * scale).floor() as usize;
        let to = ((a.end.value() * scale).ceil() as usize).min(width);
        for cell in rows[row].1.iter_mut().take(to).skip(from.min(width)) {
            *cell = ch;
        }
    }

    // Longest label defines the gutter.
    let gutter = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(2);
    for (label, cells) in rows {
        out.push_str(&format!("{label:<gutter$}|"));
        out.extend(cells);
        out.push_str("|\n");
    }
    out.push_str(&format!("{:<gutter$}0{:>width$.2}\n", "", horizon, width = width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwp_trace::{Activity, SimTime};

    #[test]
    fn renders_rows_for_master_and_workers() {
        let mut t = Trace::default();
        t.push(Activity::new(
            Resource::MasterPort,
            ActivityKind::Send,
            WorkerId(0),
            SimTime(0.0),
            SimTime(5.0),
            "a".into(),
        ));
        t.push(Activity::new(
            Resource::Worker(WorkerId(0)),
            ActivityKind::Compute,
            WorkerId(0),
            SimTime(5.0),
            SimTime(10.0),
            "a".into(),
        ));
        let g = render(&t, 2, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4); // M, P1, P2, axis
        assert!(lines[0].starts_with("M"));
        assert!(lines[0].contains("ssssssssss")); // first half
        assert!(lines[1].contains("##########")); // second half
        assert!(lines[2].contains("....................")); // idle P2
    }

    #[test]
    fn recv_renders_differently_from_send() {
        let mut t = Trace::default();
        t.push(Activity::new(
            Resource::MasterPort,
            ActivityKind::Recv,
            WorkerId(0),
            SimTime(0.0),
            SimTime(1.0),
            "c".into(),
        ));
        let g = render(&t, 1, 10);
        assert!(g.lines().next().unwrap().contains('r'));
    }

    #[test]
    fn empty_trace_renders_axis() {
        let g = render(&Trace::default(), 1, 10);
        assert!(g.contains('|'));
    }
}
