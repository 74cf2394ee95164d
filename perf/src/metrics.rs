//! The metric vocabulary: every name the benchmark emits, with its unit
//! and (for end-to-end metrics) regression bound. The root
//! `BENCHMARK.json` lists the same names, plus which direction is better;
//! a test keeps the two equal.

/// One metric the benchmark can emit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
    /// A count made by the program that repeats exactly between two runs
    /// of the same code and seed (`--aa` asserts equality).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str) -> Def {
    Def {
        name,
        unit: "count",
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees. `failed_frac` is the seventh
/// end-to-end quantity: it travels as the `attempted` / `failed` fields
/// of the result line (and is printed by name) because a metric that is
/// always 0 cannot carry a relative bound.
///
/// Every bound is the most the driver's contract allows, and measurement
/// says it has to be. Within one sitting the quartile distance over ten
/// seeds is at most 7.7% of the median, and three times that already
/// asks for 17–23% on everything but `het_paced_chan`. Between sittings
/// the 2-core container itself moves further: the same binary read
/// `holm_q320_chan` `op_s_p50` as 0.101 s and, an hour later, 0.073 s.
/// The README's *Steadiness* section has both tables.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", 0.25),
    e2e("gflops", "GFLOP/s", 0.25),
    e2e("jobs_per_s", "jobs/s", 0.25),
    e2e("op_s_p50", "s", 0.25),
    e2e("op_s_p90", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
];

/// `--aa` holds `het_paced_chan`'s `op_s_p50` to this instead of the
/// metric's general bound: its wall is paced sleeps, not CPU, so it holds
/// still while the machine's speed wanders, and only a change to what is
/// sent, or in which order, moves it. (`BENCHMARK.json` has one bound per
/// metric, not per workload, so the driver cannot hold it this tight.)
pub const HET_OP_S_P50_BOUND: f64 = 0.01;

/// Single layers, module path first.
pub const PER_LAYER: &[Def] = &[
    layer("blockmat.kernel_gflops_q20", "GFLOP/s"),
    layer("blockmat.kernel_gflops_q40", "GFLOP/s"),
    layer("blockmat.kernel_gflops_q80", "GFLOP/s"),
    layer("blockmat.kernel_gflops_q320", "GFLOP/s"),
    layer("blockmat.pack_ns_q80", "ns"),
    layer("blockmat.pack_ns_q320", "ns"),
    layer("blockmat.serialize_gbps", "GB/s"),
    count("blockmat.pack_count_per_op"),
    layer("blockmat.lu_factor_gflops_q80", "GFLOP/s"),
    layer("blockmat.trsm_gflops_q80", "GFLOP/s"),
    layer("msg.frame.encode_ns_q20", "ns"),
    layer("msg.frame.decode_ns_q20", "ns"),
    layer("msg.frame.encode_ns_q80", "ns"),
    layer("msg.checksum.crc32c_gbps", "GB/s"),
    layer("msg.transport.tcp_rtt_us_q20", "us"),
    layer("msg.transport.tcp_stream_gbps_q80", "GB/s"),
    layer("msg.transport.uds_rtt_us_q20", "us"),
    layer("msg.port.acquire_ns", "ns"),
    layer("msg.endpoint.chan_echo_us", "us"),
    layer("msg.session.spawn_ms_chan", "ms"),
    layer("msg.session.spawn_ms_tcp", "ms"),
    layer("msg.session.empty_run_us_chan", "us"),
    layer("msg.session.empty_run_us_tcp", "us"),
    layer("msg.sched.noop_job_us", "us"),
    layer("msg.sched.noop_jobs_per_s", "jobs/s"),
    layer("core.serving.queue_wait_s_p50", "s"),
    layer("core.serving.queue_wait_s_p90", "s"),
    layer("core.serving.service_s_p50", "s"),
    layer("core.serving.service_s_p90", "s"),
    layer("core.serving.batch_size_mean", "jobs"),
    layer("core.serving.job_s_p99", "s"),
    count("core.plan.workers_used"),
    count("core.plan.chunk_side"),
    count("core.blocks_moved_per_op"),
    layer("core.ccr", "ratio"),
    layer("core.ccr_over_lw_bound", "ratio"),
    layer("core.selection.homogeneous_ns", "ns"),
    layer("core.selection.incremental_us", "us"),
    count("lu.messages_per_op"),
    count("lu.workers_used"),
    layer("sim.port_ops_per_s", "1/s"),
    layer("trace.port_send_s", "s"),
    layer("trace.port_recv_s", "s"),
    layer("trace.port_wait_s", "s"),
    layer("trace.worker_compute_s", "s"),
    layer("trace.kernel_s", "s"),
    layer("trace.pack_s", "s"),
    layer("trace.worker_busy_frac", "ratio"),
    layer("trace.port_busy_frac", "ratio"),
    layer("trace.master_other_frac", "ratio"),
    layer("trace.spans_per_op", "count"),
    layer("trace.overhead_frac", "ratio"),
    layer("eff.frac_of_kernel_peak", "ratio"),
    layer("eff.tcp_over_chan_q20", "ratio"),
];

/// What the result line carries for a metric that does not apply to the
/// workload being run (`lu.*` on a product, `core.serving.*` on an
/// exclusive run). The driver's contract wants every listed name from
/// every process, as a JSON number; this is the only place a
/// not-applicable metric becomes one. The `metric` lines say `n/a`.
pub const NOT_APPLICABLE: f64 = 0.0;

/// One workload's ledger, keyed by metric name, in emission order:
/// `Some(measured)`, or `None` for a metric that does not apply.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, Option<f64>)>);

impl Values {
    /// Record `name = value`. Panics on a name outside the vocabulary, a
    /// duplicate, or a non-finite value — each is a bug in the benchmark,
    /// and a wrong ledger is worse than none.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.enter(name, Some(value));
    }

    /// Record that `name` does not apply to this workload.
    pub fn not_applicable(&mut self, name: &'static str) {
        self.enter(name, None);
    }

    fn enter(&mut self, name: &'static str, value: Option<f64>) {
        assert!(
            def(name).is_some(),
            "metric '{name}' is not in the vocabulary"
        );
        assert!(self.entry(name).is_none(), "metric '{name}' emitted twice");
        self.0.push((name, value));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `None`: not recorded. `Some(None)`: recorded as not applicable.
    pub fn entry(&self, name: &str) -> Option<Option<f64>> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The measured value of `name`, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entry(name).flatten()
    }
}

/// Look a metric up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"key": value` pairs of every `{...}` object in the JSON array
    /// `"<array>": [...]` of `doc`. Enough JSON for `BENCHMARK.json`,
    /// whose objects are flat and whose strings hold no braces or quotes.
    fn objects(doc: &str, array: &str) -> Vec<Vec<(String, String)>> {
        let start = doc.find(&format!("\"{array}\": [")).expect("array present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array closed")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let obj = &obj[..obj.find('}').expect("object closed")];
                obj.split(", \"")
                    .map(|pair| {
                        let (k, v) = pair.split_once(':').expect("key: value");
                        (
                            k.trim().trim_matches('"').to_string(),
                            v.trim().trim_matches('"').to_string(),
                        )
                    })
                    .collect()
            })
            .collect()
    }

    fn field<'a>(obj: &'a [(String, String)], key: &str) -> &'a str {
        &obj.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no '{key}' in {obj:?}"))
            .1
    }

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        assert!(PER_LAYER.len() <= 128);
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name '{}'",
                d.name
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit '{}'",
                d.unit
            );
            assert!(
                all[..i].iter().all(|e| e.name != d.name),
                "duplicate '{}'",
                d.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_this_vocabulary() {
        for (array, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = objects(BENCHMARK_JSON, array);
            assert_eq!(listed.len(), defs.len(), "{array}: count differs");
            for (obj, d) in listed.iter().zip(defs) {
                assert_eq!(field(obj, "name"), d.name);
                assert_eq!(field(obj, "unit"), d.unit, "{}", d.name);
                assert!(
                    ["lower", "higher"].contains(&field(obj, "better")),
                    "{}",
                    d.name
                );
                match d.bound {
                    Some(b) => {
                        assert_eq!(field(obj, "bound").parse::<f64>().unwrap(), b, "{}", d.name)
                    }
                    None => {
                        assert_eq!(obj.len(), 3, "{}: per-layer metrics carry no bound", d.name)
                    }
                }
            }
        }
        assert_eq!(def("setup_s").unwrap().bound, Some(0.25));
    }

    #[test]
    fn benchmark_json_names_the_six_workloads() {
        let listed = objects(BENCHMARK_JSON, "workloads");
        let names: Vec<&str> = listed.iter().map(|o| field(o, "name")).collect();
        assert_eq!(names, crate::workloads::Spec::names());
        for o in &listed {
            let why = field(o, "why");
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn values_reject_unknown_duplicate_and_non_finite() {
        let mut v = Values::default();
        v.put("setup_s", 1.5);
        assert_eq!(v.get("setup_s"), Some(1.5));
        assert!(std::panic::catch_unwind(|| Values::default().put("no_such_metric", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| Values::default().put("gflops", f64::NAN)).is_err());
        assert!(std::panic::catch_unwind(move || v.put("setup_s", 2.0)).is_err());

        let mut v = Values::default();
        v.not_applicable("lu.workers_used");
        assert_eq!(v.entry("lu.workers_used"), Some(None));
        assert_eq!((v.get("lu.workers_used"), v.len()), (None, 1));
        assert_eq!(v.entry("lu.messages_per_op"), None);
        assert!(std::panic::catch_unwind(move || v.put("lu.workers_used", 2.0)).is_err());
    }
}
