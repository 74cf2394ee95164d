//! Order statistics and process counters the benchmark reports.

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample, and a
/// silent 0 would read as a measurement.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`% of
/// the samples at or below it.
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    let sorted = sorted(samples);
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// The highest of the percentiles the benchmark reports (50, 90, 99)
/// that `n` samples support: a percentile is quoted only with at least
/// ten samples beyond it, so a handful of outliers cannot be the number.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    [99, 90, 50]
        .into_iter()
        .find(|&pct| n >= 1 && n - rank(n, pct) >= 10)
}

/// `num ÷ den`, and 0 when `den` is 0: a pass whose every op failed has
/// no workers, updates or wall to divide by, and must still be reported
/// (as failed) rather than die on a NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Throughput that shrugs off a noisy-neighbour burst: split the
/// completion timeline `done` (seconds since the pass started, one entry
/// per completed op, ascending) into `segments` equal-count runs and
/// return the median of (ops in run ÷ wall of run). Fewer ops than
/// segments degrade to one op per segment; a run of no width (completions
/// on one clock reading) is left out, and with none left the rate is 0.
pub fn segment_median_rate(done: &[f64], segments: usize) -> f64 {
    assert!(!done.is_empty(), "throughput of no completions");
    let segments = segments.clamp(1, done.len());
    let mut rates = Vec::with_capacity(segments);
    let (mut from, mut t_from) = (0, 0.0);
    for k in 1..=segments {
        let to = done.len() * k / segments;
        let t_to = done[to - 1];
        if t_to > t_from {
            rates.push((to - from) as f64 / (t_to - t_from));
        }
        (from, t_from) = (to, t_to);
    }
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` image,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[7.0, 9.0], 90), 9.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(99), Some(50));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(999), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn segment_median_ignores_one_slow_segment() {
        // 40 ops at 10 ops/s, except ops 10..20 which take 10x longer.
        let mut t = 0.0;
        let done: Vec<f64> = (0..40)
            .map(|i| {
                t += if (10..20).contains(&i) { 1.0 } else { 0.1 };
                t
            })
            .collect();
        let rate = segment_median_rate(&done, 4);
        assert!((rate - 10.0).abs() < 1e-9, "median segment rate {rate}");
        // The plain mean would have read 40 / 13 s ≈ 3.1 ops/s.
        assert!((segment_median_rate(&done, 1) - 40.0 / 13.0).abs() < 1e-9);
    }

    #[test]
    fn segment_rate_with_fewer_ops_than_segments_or_no_width() {
        assert!((segment_median_rate(&[0.5, 1.0, 1.5], 20) - 2.0).abs() < 1e-12);
        assert_eq!(segment_median_rate(&[0.5, 0.5, 1.0], 3), 2.0);
        assert_eq!(segment_median_rate(&[0.0, 0.0], 2), 0.0);
        assert_eq!((ratio(1.0, 4.0), ratio(1.0, 0.0)), (0.25, 0.0));
    }

    #[test]
    fn vm_hwm_parses_the_proc_status_line() {
        let status = "Name:\tperf\nVmPeak:\t  200000 kB\nVmHWM:\t  107520 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(107_520));
        assert_eq!(parse_vm_hwm_kib("Name:\tperf\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
