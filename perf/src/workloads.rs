//! The six workloads: what each builds, one op of each, and the output
//! check every op goes through.
//!
//! Every session is built with explicit `with_transport` / `with_options`
//! arguments (never the `MWP_*`-reading constructors), inputs come from
//! the seed alone, and load is generated by the calling thread plus at
//! most one more.

use mwp_blockmat::fill::{random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::gemm_serial;
use mwp_blockmat::kernel::pack_count;
use mwp_blockmat::lu::{reconstruct, Dense};
use mwp_blockmat::norms::relative_error;
use mwp_blockmat::BlockMatrix;
use mwp_core::selection::incremental::SelectionRule;
use mwp_core::serving::{JobSpec, MatrixServer};
use mwp_core::session::RuntimeSession;
use mwp_lu::runtime::LuSession;
use mwp_msg::sched::JobReport;
use mwp_msg::TransportMode;
use mwp_platform::{Platform, WorkerParams};
use std::time::Instant;

/// Relative Frobenius error a product may have against `gemm_serial`.
const PRODUCT_TOL: f64 = 1e-12;
/// `‖L·U − A‖ / ‖A‖` (Frobenius) an LU factorization may have.
const LU_TOL: f64 = 1e-10;

/// Which program a workload runs; decides which per-layer metrics apply.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// `C ← C + A·B` on an exclusive session.
    Product,
    /// Blocked LU on an exclusive session.
    Lu,
    /// Product jobs against a `MatrixServer`, several in flight at once:
    /// throughput is then a property of the pass, not the inverse of one
    /// op's wall.
    Serving,
}

/// What is fixed about a workload before any input exists.
pub struct Spec {
    pub name: &'static str,
    /// Ops (jobs, for serving) that fill one second of measuring on the
    /// 2-core container the benchmark was sized on. Op counts are this
    /// times `--seconds`, never a time box: the same flags always run
    /// the same ops, so counts repeat exactly.
    pub ops_per_s: f64,
    /// Block side whose single-thread kernel rate is this workload's
    /// peak (`eff.frac_of_kernel_peak`).
    pub kernel_q: usize,
    /// Worker memory (blocks) the Loomis–Whitney bound is taken at: the
    /// largest of the platform.
    pub memory_m: usize,
    pub kind: Kind,
}

/// The six workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "holm_q80_chan",
        ops_per_s: 18.0,
        kernel_q: 80,
        memory_m: 60,
        kind: Kind::Product,
    },
    Spec {
        name: "holm_q320_chan",
        ops_per_s: 10.0,
        kernel_q: 320,
        memory_m: 12,
        kind: Kind::Product,
    },
    Spec {
        name: "holm_q20_tcp",
        ops_per_s: 58.0,
        kernel_q: 20,
        memory_m: 60,
        kind: Kind::Product,
    },
    Spec {
        name: "lu_q80_tcp",
        ops_per_s: 10.0,
        kernel_q: 80,
        memory_m: 100_000,
        kind: Kind::Lu,
    },
    Spec {
        name: "serve_mix_tcp",
        ops_per_s: 2700.0,
        kernel_q: 40,
        memory_m: 60,
        kind: Kind::Serving,
    },
    Spec {
        name: "het_paced_chan",
        ops_per_s: 4.0,
        kernel_q: 20,
        memory_m: 396,
        kind: Kind::Product,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    pub fn names() -> Vec<&'static str> {
        SPECS.iter().map(|s| s.name).collect()
    }

    /// Ops in a pass that measures for `seconds`: at least two, and at
    /// least one full window per serving client.
    pub fn ops_for(&self, seconds: f64) -> usize {
        let fewest = if self.kind == Kind::Serving {
            CLIENTS * WINDOW
        } else {
            2
        };
        ((self.ops_per_s * seconds).round() as usize).max(fewest)
    }
}

/// What one pass (a run of consecutive ops) measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: usize,
    /// Ops that returned `Err`, aborted, or failed the output check.
    pub failed: usize,
    /// Wall of each op, seconds (serving: submit → `wait` returning).
    pub op_s: Vec<f64>,
    /// When each op completed, seconds since the pass began, ascending.
    /// Exclusive runs advance this clock only while an op is being timed.
    pub done: Vec<f64>,
    /// Useful FLOPs and block updates of the ops attempted.
    pub flops: f64,
    pub updates: f64,
    pub blocks_moved: u64,
    pub packs: u64,
    pub lu_messages: u64,
    pub workers_used: usize,
    pub chunk_side: usize,
    /// Serving only: the scheduler's metering of every job.
    pub reports: Vec<JobReport>,
}

impl Pass {
    /// Seconds the pass spent measuring.
    pub fn wall(&self) -> f64 {
        *self.done.last().expect("a pass has at least one op")
    }

    /// Continue this pass with the ops of `next`, run right after it.
    pub fn append(&mut self, next: Pass) {
        let clock = self.done.last().copied().unwrap_or(0.0);
        self.absorb(next, clock);
    }

    /// Add the ops of `next`, whose clock started `offset` seconds after
    /// this pass's.
    fn absorb(&mut self, next: Pass, offset: f64) {
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.op_s.extend(next.op_s);
        self.done.extend(next.done.iter().map(|t| offset + t));
        self.flops += next.flops;
        self.updates += next.updates;
        self.blocks_moved += next.blocks_moved;
        self.packs += next.packs;
        self.lu_messages += next.lu_messages;
        self.workers_used = next.workers_used;
        self.chunk_side = next.chunk_side;
        self.reports.extend(next.reports);
    }

    fn push_exclusive_op(&mut self, wall: f64) {
        let clock = self.done.last().copied().unwrap_or(0.0);
        self.attempted += 1;
        self.op_s.push(wall);
        self.done.push(clock + wall);
    }
}

/// A workload that has been set up: sessions live, inputs generated,
/// warm-up ops done.
pub trait Workload {
    /// Run `ops` checked ops and report what they measured.
    fn run(&mut self, ops: usize) -> Pass;
}

/// How to set a workload up.
#[derive(Clone, Copy)]
pub struct Prep {
    /// Drives every matrix fill and the job-mix order.
    pub seed: u64,
    /// Ops run (unchecked, untimed) before `setup` returns.
    pub warmups: usize,
}

/// Everything before the first timed op: generate the inputs from the
/// seed, build the session or server, run the warm-up ops.
pub fn setup(spec: &Spec, prep: Prep) -> Box<dyn Workload> {
    let homogeneous = |w, m| Platform::homogeneous(2, 1.0, w, m).expect("valid platform");
    let product = |platform, time_scale, mode, shape, q, rule| {
        Box::new(Product::new(
            platform, time_scale, mode, shape, q, rule, prep,
        ))
    };
    match spec.name {
        "holm_q80_chan" => product(
            &homogeneous(1.0, 60),
            0.0,
            TransportMode::Channel,
            (12, 12, 12),
            80,
            None,
        ),
        "holm_q320_chan" => product(
            &homogeneous(2.0, 12),
            0.0,
            TransportMode::Channel,
            (4, 4, 4),
            320,
            None,
        ),
        "holm_q20_tcp" => holm_q20(TransportMode::Tcp, prep),
        "het_paced_chan" => product(
            &het_platform(),
            HET_TIME_SCALE,
            TransportMode::Channel,
            HET_SHAPE,
            20,
            Some(SelectionRule::Global),
        ),
        "lu_q80_tcp" => {
            let platform = homogeneous(1.0, 100_000);
            let w = Lu {
                session: LuSession::with_transport(&platform, 0.0, TransportMode::Tcp),
                matrix: random_diagonally_dominant(12, 80, SplitMix64(prep.seed).next()),
                reference: None,
            };
            for _ in 0..prep.warmups {
                let _ = w.session.run(&w.matrix, LU_MU);
            }
            Box::new(w)
        }
        "serve_mix_tcp" => Box::new(Serve::new(prep)),
        other => panic!("no workload named '{other}'"),
    }
}

/// `holm_q20_tcp`'s problem on a transport of the caller's choice (the
/// layer pass runs it on both to price the wire).
pub fn holm_q20(mode: TransportMode, prep: Prep) -> Box<dyn Workload> {
    let platform = Platform::homogeneous(2, 1.0, 1.0, 60).expect("valid platform");
    Box::new(Product::new(
        &platform,
        0.0,
        mode,
        (24, 24, 24),
        20,
        None,
        prep,
    ))
}

/// The Table 2 platform of the paper, `(c, w, m)` per worker.
pub fn het_platform() -> Platform {
    let workers = [(2.0, 2.0, 60), (3.0, 3.0, 396), (5.0, 1.0, 140)];
    Platform::new(
        workers
            .iter()
            .map(|&(c, w, m)| WorkerParams::new(c, w, m))
            .collect(),
    )
    .expect("valid platform")
}

/// `het_paced_chan`'s block grid: `A` is 8 × 10, `B` is 10 × 12.
pub const HET_SHAPE: (usize, usize, usize) = (8, 10, 12);
/// Wall seconds per model time unit on `het_paced_chan`'s paced links.
const HET_TIME_SCALE: f64 = 2e-4;
/// LU panel width in blocks.
const LU_MU: usize = 2;

/// `C ← C + A·B` on an exclusive session: HoLM, or the heterogeneous
/// two-phase scheme when `rule` is set.
struct Product {
    session: RuntimeSession,
    a: BlockMatrix,
    b: BlockMatrix,
    c0: BlockMatrix,
    rule: Option<SelectionRule>,
    /// The first op's `C`, once it passed the oracle: the path is
    /// deterministic, so every later op must reproduce it exactly (`==`
    /// on every coefficient).
    reference: Option<BlockMatrix>,
}

impl Product {
    /// `shape` is `(r, t, s)`: `A` is `r × t` blocks, `B` is `t × s`.
    fn new(
        platform: &Platform,
        time_scale: f64,
        mode: TransportMode,
        shape: (usize, usize, usize),
        q: usize,
        rule: Option<SelectionRule>,
        prep: Prep,
    ) -> Self {
        let (r, t, s) = shape;
        let mut seeds = SplitMix64(prep.seed);
        let w = Product {
            session: RuntimeSession::with_transport(platform, time_scale, mode),
            a: random_matrix(r, t, q, seeds.next()),
            b: random_matrix(t, s, q, seeds.next()),
            c0: random_matrix(r, s, q, seeds.next()),
            rule,
            reference: None,
        };
        for _ in 0..prep.warmups {
            let _ = w.op();
        }
        w
    }

    fn op(&self) -> Result<mwp_core::runtime::RunOutcome, mwp_core::runtime::RuntimeError> {
        let c = self.c0.clone();
        match self.rule {
            Some(rule) => self.session.run_heterogeneous(&self.a, &self.b, c, rule),
            None => self.session.run_holm(&self.a, &self.b, c),
        }
    }

    fn check(&mut self, c: BlockMatrix) -> bool {
        if let Some(reference) = &self.reference {
            return *reference == c;
        }
        let mut expected = self.c0.clone();
        gemm_serial(&mut expected, &self.a, &self.b);
        let err = relative_error(&c, &expected);
        if err <= PRODUCT_TOL {
            self.reference = Some(c);
            true
        } else {
            eprintln!("product off by {err:e} (relative) against gemm_serial");
            false
        }
    }
}

impl Workload for Product {
    fn run(&mut self, ops: usize) -> Pass {
        let mut pass = Pass::default();
        let (r, t, s, q) = (self.a.rows(), self.a.cols(), self.b.cols(), self.a.q());
        for _ in 0..ops {
            let packs = pack_count();
            // The clone of C0 inside `op` is the caller handing over its
            // accumulator: part of the op.
            let t0 = Instant::now();
            let out = self.op();
            pass.push_exclusive_op(t0.elapsed().as_secs_f64());
            pass.packs += pack_count() - packs;
            pass.updates += (r * s * t) as f64;
            pass.flops += 2.0 * (r * s * t) as f64 * (q as f64).powi(3);
            match out {
                Ok(out) => {
                    pass.blocks_moved += out.blocks_moved;
                    pass.workers_used = out.workers_used;
                    pass.chunk_side = out.chunk_side;
                    pass.failed += usize::from(!self.check(out.c));
                }
                Err(e) => {
                    eprintln!("op failed: {e}");
                    pass.failed += 1;
                }
            }
        }
        pass
    }
}

/// Blocked LU of a diagonally dominant matrix on an exclusive session.
struct Lu {
    session: LuSession,
    matrix: BlockMatrix,
    reference: Option<Dense>,
}

impl Lu {
    fn check(&mut self, packed: Dense) -> bool {
        if let Some(reference) = &self.reference {
            return *reference == packed;
        }
        let lu = reconstruct(&packed).to_blocks(self.matrix.q());
        let err = relative_error(&lu, &self.matrix);
        if err <= LU_TOL {
            self.reference = Some(packed);
            true
        } else {
            eprintln!("‖L·U − A‖ / ‖A‖ = {err:e}");
            false
        }
    }
}

impl Workload for Lu {
    fn run(&mut self, ops: usize) -> Pass {
        let mut pass = Pass::default();
        let n = (self.matrix.rows() * self.matrix.q()) as f64;
        for _ in 0..ops {
            let packs = pack_count();
            let t0 = Instant::now();
            let out = self.session.run(&self.matrix, LU_MU);
            pass.push_exclusive_op(t0.elapsed().as_secs_f64());
            pass.packs += pack_count() - packs;
            pass.flops += 2.0 / 3.0 * n.powi(3);
            pass.lu_messages += out.messages;
            pass.workers_used = out.workers_used;
            if out.aborted {
                eprintln!("LU run aborted");
            }
            pass.failed += usize::from(out.aborted || !self.check(out.packed));
        }
        pass
    }
}

/// Load-generating threads of `serve_mix_tcp` (the caller is one).
const CLIENTS: usize = 2;
/// Jobs each client keeps outstanding: deep enough a queue for the
/// batching tier to find jobs to fuse (a depth-2 closed loop never does).
const WINDOW: usize = 8;
/// Pre-generated job specs the mix draws from, three small per large.
const POOL: usize = 64;

/// A closed loop of small product jobs against a `MatrixServer`.
struct Serve {
    server: MatrixServer,
    pool: Vec<JobSpec>,
    /// What the server returned for each pool entry the first time
    /// (checked against `gemm_serial`); later results must equal it
    /// bit for bit, fused into a batch or not.
    expected: Vec<BlockMatrix>,
    /// Each client's stream of pool indices.
    mix: [SplitMix64; CLIENTS],
}

impl Serve {
    /// Serving warms up on one pass over the job pool, whatever
    /// `prep.warmups` says: that pass is also where the reference result
    /// of every pool entry comes from.
    fn new(prep: Prep) -> Self {
        let mut seeds = SplitMix64(prep.seed);
        let platform = Platform::homogeneous(2, 1.0, 1.0, 60).expect("valid platform");
        let session = RuntimeSession::with_transport(&platform, 0.0, TransportMode::Tcp);
        let server = MatrixServer::with_options(session, 4, true);
        let pool: Vec<JobSpec> = (0..POOL)
            .map(|i| {
                let (n, q) = if i % 4 == 3 { (4, 40) } else { (1, 20) };
                JobSpec {
                    a: random_matrix(n, n, q, seeds.next()),
                    b: random_matrix(n, n, q, seeds.next()),
                    c: random_matrix(n, n, q, seeds.next()),
                    select: true,
                }
            })
            .collect();
        // The warm-up: every pool entry once, which also establishes the
        // reference results.
        let expected = pool
            .iter()
            .map(|job| {
                let out = server.run(job.clone()).result.expect("warm-up job");
                let mut oracle = job.c.clone();
                gemm_serial(&mut oracle, &job.a, &job.b);
                let err = relative_error(&out.c, &oracle);
                assert!(
                    err <= PRODUCT_TOL,
                    "warm-up job off by {err:e} against gemm_serial"
                );
                out.c
            })
            .collect();
        let mix = [SplitMix64(seeds.next()), SplitMix64(seeds.next())];
        Serve {
            server,
            pool,
            expected,
            mix,
        }
    }

    /// One client: `rounds` times, submit a window of jobs, then wait
    /// for each and check it.
    fn client(&self, mix: &mut SplitMix64, rounds: usize, began: Instant) -> Pass {
        let mut pass = Pass::default();
        for _ in 0..rounds {
            let window: Vec<_> = (0..WINDOW)
                .map(|_| {
                    let idx = (mix.next() % POOL as u64) as usize;
                    let job = self.pool[idx].clone();
                    let submitted = Instant::now();
                    (idx, submitted, self.server.submit(job))
                })
                .collect();
            for (idx, submitted, handle) in window {
                let completed = handle.wait();
                pass.op_s.push(submitted.elapsed().as_secs_f64());
                pass.done.push(began.elapsed().as_secs_f64());
                pass.attempted += 1;
                pass.reports.push(completed.report);
                pass.blocks_moved += completed.report.blocks_moved;
                let job = &self.pool[idx];
                let updates = (job.a.rows() * job.a.cols() * job.b.cols()) as f64;
                pass.updates += updates;
                pass.flops += 2.0 * updates * (job.a.q() as f64).powi(3);
                let ok = match completed.result {
                    Ok(out) => self.expected[idx] == out.c,
                    Err(e) => {
                        eprintln!("job failed: {e}");
                        false
                    }
                };
                pass.failed += usize::from(!ok);
            }
        }
        pass
    }
}

impl Workload for Serve {
    fn run(&mut self, ops: usize) -> Pass {
        let rounds = (ops / (CLIENTS * WINDOW)).max(1);
        let [mut mix0, mut mix1] = self.mix.clone();
        let packs = pack_count();
        let began = Instant::now();
        let (mut pass, other) = std::thread::scope(|scope| {
            let other = scope.spawn(|| self.client(&mut mix1, rounds, began));
            let mine = self.client(&mut mix0, rounds, began);
            (mine, other.join().expect("client thread"))
        });
        self.mix = [mix0, mix1];
        // Both clients ran on the same clock.
        pass.absorb(other, 0.0);
        pass.done.sort_by(f64::total_cmp);
        pass.packs = pack_count() - packs;
        pass.workers_used = 2;
        pass
    }
}

/// SplitMix64: the benchmark's own seed stream (matrix seeds, job mix),
/// so its inputs depend on `--seed` and nothing else.
#[derive(Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_scale_with_seconds_and_never_reach_zero() {
        let spec = Spec::by_name("holm_q80_chan").unwrap();
        assert_eq!(spec.ops_for(10.0), 180);
        assert_eq!(spec.ops_for(0.5), 9);
        assert_eq!(spec.ops_for(0.0), 2);
        assert_eq!(
            Spec::by_name("serve_mix_tcp").unwrap().ops_for(0.001),
            CLIENTS * WINDOW
        );
        assert!(Spec::by_name("nope").is_none());
    }

    #[test]
    fn the_seed_stream_is_deterministic_and_seed_dependent() {
        let draw = |seed| {
            let mut s = SplitMix64(seed);
            [s.next(), s.next(), s.next()]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(draw(7)[0], draw(7)[1]);
    }
}
