//! The paper's motivating scenario (Section 1): a MATLAB/SCILAB-style
//! compute server. A client session holds matrices on the server (the
//! master); multiplications are farmed out to whatever workers the server
//! enrolled, and the results come back to the session — the data never
//! "lives" on the workers.
//!
//! ```text
//! cargo run --release --example matlab_server
//! ```

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::random_matrix;
use mwp_blockmat::gemm::verify_product;
use mwp_blockmat::norms::frobenius;

/// A toy "session": named matrices living on the master, and the fleet
/// the server enrolled — spawned once, reused by every statement.
struct Session {
    fleet: RuntimeSession,
    vars: std::collections::HashMap<String, BlockMatrix>,
}

impl Session {
    fn new(platform: &Platform) -> Self {
        Session {
            fleet: RuntimeSession::new(platform, 0.0),
            vars: std::collections::HashMap::new(),
        }
    }

    /// `name = random(rows, cols)` — create data on the server.
    fn assign_random(&mut self, name: &str, rows: usize, cols: usize, q: usize, seed: u64) {
        self.vars.insert(name.to_string(), random_matrix(rows, cols, q, seed));
    }

    /// `target = target + a * b` — offloaded to the workers via the
    /// paper's algorithm; the session only sees the result.
    fn gemm(&mut self, target: &str, a: &str, b: &str) -> u64 {
        let a = self.vars[a].clone();
        let b = self.vars[b].clone();
        let c = self.vars[target].clone();
        let out = self.fleet.run_holm(&a, &b, c).expect("offload succeeds");
        let blocks = out.blocks_moved;
        self.vars.insert(target.to_string(), out.c);
        blocks
    }

    fn get(&self, name: &str) -> &BlockMatrix {
        &self.vars[name]
    }
}

fn main() {
    // The server enrolled four workstations of mixed generations — but
    // the session API does not care; enrollment is the server's problem.
    let platform = Platform::homogeneous(4, 2e-3, 4e-4, 60).expect("valid platform");
    let mut session = Session::new(&platform);

    let q = 20;
    session.assign_random("A", 8, 6, q, 11);
    session.assign_random("B", 6, 10, q, 12);
    session.assign_random("C", 8, 10, q, 13);
    let c_before = session.get("C").clone();

    println!("session: C = C + A*B on the server's workers…");
    let blocks = session.gemm("C", "A", "B");

    let a = session.get("A").clone();
    let b = session.get("B").clone();
    let c_after = session.get("C");
    let err = verify_product(c_after, &c_before, &a, &b, 1e-9)
        .expect("server returned a correct product");
    println!(
        "done: ‖C‖_F = {:.3}, {} blocks crossed the server port, max abs error {err:.2e}",
        frobenius(c_after),
        blocks
    );

    // Chain another product to show the data stays server-side.
    session.assign_random("D", 10, 4, q, 14);
    session.assign_random("E", 8, 4, q, 15);
    let e_before = session.get("E").clone();
    let blocks = session.gemm("E", "C", "D");
    let c_now = session.get("C").clone();
    let d = session.get("D").clone();
    verify_product(session.get("E"), &e_before, &c_now, &d, 1e-8)
        .expect("second product verified");
    println!("chained: E = E + C*D verified, {blocks} more blocks moved");
    session.fleet.shutdown();
}
