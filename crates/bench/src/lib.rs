//! # mwp-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Proposition 1 (§3) | [`experiments::e1_alternating`] |
//! | E2 | Figure 4(a) | [`experiments::e2_fig4a`] |
//! | E3 | Figure 4(b) | [`experiments::e3_fig4b`] |
//! | E4 | §4 bounds | [`experiments::e4_bounds`] |
//! | E5 | Table 1 | [`experiments::e5_table1`] |
//! | E6 | Table 2 + Figure 7 | [`experiments::e6_global_selection`] |
//! | E6b | Table 2 platform, two-phase execution (announced runs) | [`experiments::e6b_heterogeneous_execution`] |
//! | E7 | Figure 8 + lookahead | [`experiments::e7_selection_variants`] |
//! | E8 | Figure 10 | [`experiments::e8_fig10`] |
//! | E9 | Figure 11 | [`experiments::e9_fig11`] |
//! | E10 | Figure 12 | [`experiments::e10_fig12`] |
//! | E11 | Figure 13 | [`experiments::e11_fig13`] |
//! | E12 | §7 LU model | [`experiments::e12_lu`] |
//! | E13 | heterogeneity-degree sweep (announced runs) | [`experiments::e13_heterogeneity_sweep`] |
//! | E14 | two-port ablation (§2.2) | [`experiments::e14_two_port_ablation`] |
//!
//! [`experiments::ALL`] is the one list of them; the `experiments` binary
//! runs it and prints markdown tables
//! (`cargo run --release -p mwp-bench --bin experiments`). Timing is the
//! `perf/` package's job, not this crate's.

pub mod calibrate;
pub mod experiments;
pub mod table;

pub use table::Table;
