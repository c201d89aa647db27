//! The repository's benchmark: four seeded workloads that each measure the
//! simulator's host speed and the simulated M3 result, end to end and layer
//! by layer.
//!
//! Every workload is a function from [`Options`] to one [`Outcome`]: it
//! boots the system from generated inputs, times its set-up and its timed
//! section on the host, checks every output against a reference computed
//! here, and reads the per-layer counters the crates already expose
//! (`Sim::stats`, `Sim::metrics`, `m3_sim::gauges`, `PdesReport`,
//! `AddrSpace::tlb_misses`, trace events per `Component`). Nothing inside
//! the simulator is instrumented for the benchmark; all measurement happens
//! around the public calls made from this package.
//!
//! `run.py` next to this package runs one workload per fresh process and
//! aggregates the repetitions into the benchmark's result line.

pub mod fs_apps;
pub mod kv_open;
mod measure;
pub mod overcommit_paging;
pub mod shard_pdes;

pub use measure::{nearest_rank, Counters, Outcome};

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 4] = ["kv_open", "fs_apps", "overcommit_paging", "shard_pdes"];

/// The seed a change is developed and tuned against.
pub const DEFAULT_SEED: u64 = 1;

/// The seed kept back for confirming a claim on inputs nobody tuned for.
pub const HELD_OUT_SEED: u64 = 1009;

/// How one repetition runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Options {
    /// Seed of every generated input of the workload.
    pub seed: u64,
    /// Record trace events (`Sim::enable_trace`) and count them per
    /// component. Tracing is zero-cycle: simulated results must not change.
    pub traced: bool,
    /// PDES worker threads (only `shard_pdes` runs on more than one
    /// island); simulated results must not depend on it.
    pub workers: usize,
}

impl Options {
    /// An untraced, single-worker repetition with `seed`.
    pub fn new(seed: u64) -> Options {
        Options {
            seed,
            traced: false,
            workers: 1,
        }
    }
}

/// Runs one repetition of `workload`; `None` for an unknown name.
pub fn run(workload: &str, opts: &Options) -> Option<Outcome> {
    Some(match workload {
        "kv_open" => kv_open::run(opts),
        "fs_apps" => fs_apps::run(opts),
        "overcommit_paging" => overcommit_paging::run(opts),
        "shard_pdes" => shard_pdes::run(opts),
        _ => return None,
    })
}
