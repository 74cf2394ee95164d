//! Prepacked-panel reuse cross-validation: every layer that packs a B
//! operand once and reuses it (kernel `PackedB`, `gemm_serial`,
//! the runtime workers' resident-B packs, the LU
//! worker's per-step horizontal-panel pack) must be **bit-identical** to
//! the per-call-pack path it replaced — same microkernel, same
//! per-element k-accumulation order, the pack being pure data movement.
//!
//! The CI matrix runs this file under `MWP_KERNEL=scalar` (the verbatim
//! row-major pack) as well as the default AVX2 leg. `Block::gemm_acc_with`
//! (pack inside every call) is the reference these comparisons run
//! against; no whole-matrix or worker layer packs per call any more.

use master_worker_matrix::prelude::*;
use mwp_blockmat::fill::{random_block, random_diagonally_dominant, random_matrix};
use mwp_blockmat::gemm::gemm_serial;
use mwp_blockmat::kernel::{available, PackedB};
use mwp_blockmat::lu::{lu_blocked_in_place, Dense};
use mwp_blockmat::Block;
use mwp_lu::runtime::run_lu;

/// Block-level contract at tail sizes: one pack serving a stream of A
/// blocks produces exactly the bytes per-call packing produces, under
/// every kernel this CPU can run.
#[test]
fn prepacked_block_update_is_bit_identical_at_tail_sizes() {
    for kernel in available() {
        for q in [1usize, 3, 5, 7, 33, 80] {
            let b = random_block(q, 900 + q as u64);
            let mut packed = PackedB::new();
            b.pack_b_for(kernel, &mut packed);
            for round in 0..3 {
                let a = random_block(q, 910 + q as u64 + round);
                let mut c1 = random_block(q, 920 + q as u64 + round);
                let mut c2 = c1.clone();
                c1.gemm_acc_prepacked(kernel, &a, &packed);
                c2.gemm_acc_with(kernel, &a, &b);
                assert_eq!(
                    c1.as_slice(),
                    c2.as_slice(),
                    "kernel {}: prepacked diverges from per-call at q = {q}, round {round}",
                    kernel.name()
                );
            }
        }
    }
}

/// A recycled pack buffer crossing shapes (large → small with a tail
/// panel) behaves exactly like a fresh one at the whole-product level.
#[test]
fn pack_buffer_reuse_across_shapes_is_bit_identical() {
    for kernel in available() {
        let mut packed = PackedB::new();
        // Shrinking q sequence: every pack after the first reuses a
        // buffer whose tail held the previous, larger pack.
        for q in [80usize, 33, 7, 5, 3, 1] {
            let a = random_block(q, 930 + q as u64);
            let b = random_block(q, 940 + q as u64);
            let mut c_recycled = Block::zeros(q);
            let mut c_fresh = Block::zeros(q);
            b.pack_b_for(kernel, &mut packed);
            c_recycled.gemm_acc_prepacked(kernel, &a, &packed);
            let mut fresh = PackedB::new();
            b.pack_b_for(kernel, &mut fresh);
            c_fresh.gemm_acc_prepacked(kernel, &a, &fresh);
            assert_eq!(
                c_recycled.as_slice(),
                c_fresh.as_slice(),
                "kernel {}: recycled pack buffer diverges at q = {q}",
                kernel.name()
            );
        }
    }
}

/// The whole-matrix products (which pack each B block once per `(k, j)`)
/// against a hand-rolled per-call-pack triple loop in the historical
/// i → j → k order: bit-identical, tail block side.
#[test]
fn gemm_serial_and_parallel_match_per_call_triple_loop_bitwise() {
    let q = 33;
    let (r, t, s) = (4usize, 5usize, 3usize);
    let a = random_matrix(r, t, q, 951);
    let b = random_matrix(t, s, q, 952);
    let c0 = random_matrix(r, s, q, 953);

    // The PR 2 path: per-call packing inside every gemm_acc, i-outer.
    let kernel = mwp_blockmat::kernel::active();
    let mut per_call = c0.clone();
    for i in 0..r {
        for j in 0..s {
            let cij = per_call.block_mut(i, j);
            for k in 0..t {
                cij.gemm_acc_with(kernel, a.block(i, k), b.block(k, j));
            }
        }
    }

    let mut serial = c0.clone();
    gemm_serial(&mut serial, &a, &b);
    assert_eq!(serial.max_abs_diff(&per_call), 0.0, "gemm_serial must be bit-identical");
}

/// The threaded runtimes inherit the equivalence end to end: the worker's
/// resident-B prepack must leave `run_holm` bit-identical to the serial
/// product (which itself prepacks), at an aligned and a tail block side.
#[test]
fn run_holm_stays_bit_identical_to_serial_with_worker_prepacks() {
    let platform = Platform::homogeneous(4, 4.0, 1.0, 60).unwrap();
    for q in [8usize, 33] {
        let a = random_matrix(5, 7, q, 961);
        let b = random_matrix(7, 9, q, 962);
        let c0 = random_matrix(5, 9, q, 963);
        let mut serial = c0.clone();
        gemm_serial(&mut serial, &a, &b);
        let out = run_holm(&platform, &a, &b, c0, 0.0).unwrap();
        assert_eq!(
            out.c.max_abs_diff(&serial),
            0.0,
            "q = {q}: runtime with worker prepacks diverges from the serial product"
        );
    }
}

/// The LU worker's once-per-step horizontal-panel pack must leave the
/// parallel factorization bit-identical to the serial blocked one (same
/// kernel, same row-partitioned rank-µ arithmetic).
#[test]
fn run_lu_stays_bit_identical_to_serial_with_panel_prepacks() {
    let platform = Platform::homogeneous(3, 1.0, 1.0, 1000).unwrap();
    for (n_blocks, q, mu) in [(4usize, 6usize, 2usize), (2, 33, 1)] {
        let matrix = random_diagonally_dominant(n_blocks, q, 971);
        let out = run_lu(&platform, &matrix, mu, 0.0);
        let mut serial = Dense::from_blocks(&matrix);
        lu_blocked_in_place(&mut serial, mu * q);
        assert_eq!(
            out.packed.max_abs_diff(&serial),
            0.0,
            "{n_blocks}x{q} µ={mu}: prepacked parallel LU diverges from serial blocked LU"
        );
    }
}
