//! The benchmark harness: one module per figure of the paper's evaluation.
//!
//! Each `run()` boots fresh systems, performs the measurements in simulated
//! cycles, and returns a printable table whose rows correspond to the
//! paper's bars/series. Absolute cycle counts are calibrated against the
//! paper's published component costs; the *shape* of every figure (who
//! wins, by what factor, where curves flatten) is asserted by the tests in
//! each module and recorded in `EXPERIMENTS.md`.
//!
//! [`EXPERIMENTS`] lists every runnable experiment once; the `m3-bench`
//! driver (`m3-bench <name>…|all`) and the `perf` harness iterate it.

pub mod ablation;
pub mod arch;
pub mod exec;
pub mod experiment;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod pdes_bench;
pub mod report;

pub use experiment::{Experiment, Output, EXPERIMENTS};
pub use report::{Bar, Figure, Group, Series};
