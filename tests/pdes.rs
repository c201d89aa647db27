//! PDES determinism: the parallel engine must be invisible in the results.
//!
//! Two layers are exercised. The scenario harness (`m3_bench::exec`) runs
//! independent Sims on worker threads; every experiment render must be
//! byte-identical under any `M3_SIM_WORKERS` setting. The PDES engine
//! (`m3_sim::pdes`) splits ONE simulation into islands; its digests must
//! be identical for every worker count, and one cross-island-heavy
//! scenario is pinned to golden values so silent drift in the window
//! protocol (lookahead, merge order, termination) fails loudly.

use m3_bench::{exec, pdes_bench, Experiment, EXPERIMENTS};

/// Experiments with a named identity test of their own below; every other
/// entry of [`EXPERIMENTS`] is covered by
/// `remaining_experiments_are_invariant_under_sim_workers`.
const NAMED: &[&str] = &["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"];

/// Renders one experiment's smoke variant where it has one, else its full
/// run, at 1 worker (the serial reference), then at 2 and 4, and requires
/// every render to be byte-identical.
fn assert_experiment_invariant(e: &Experiment) {
    let run = e.variant(true);
    exec::set_sim_workers(Some(1));
    let serial = run();
    for workers in [2usize, 4] {
        exec::set_sim_workers(Some(workers));
        let out = run();
        assert_eq!(
            out, serial,
            "{} render diverged under {workers} sim workers",
            e.name
        );
    }
    exec::set_sim_workers(None);
}

fn assert_named_invariant(name: &str) {
    let e = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"));
    assert_experiment_invariant(e);
}

#[test]
fn fig3_is_invariant_under_sim_workers() {
    assert_named_invariant("fig3");
}

#[test]
fn fig4_is_invariant_under_sim_workers() {
    assert_named_invariant("fig4");
}

#[test]
fn fig5_is_invariant_under_sim_workers() {
    assert_named_invariant("fig5");
}

#[test]
fn fig6_is_invariant_under_sim_workers() {
    assert_named_invariant("fig6");
}

#[test]
fn fig7_is_invariant_under_sim_workers() {
    assert_named_invariant("fig7");
}

#[test]
fn fig8_is_invariant_under_sim_workers() {
    assert_named_invariant("fig8");
}

#[test]
fn fig9_is_invariant_under_sim_workers() {
    assert_named_invariant("fig9");
}

#[test]
fn remaining_experiments_are_invariant_under_sim_workers() {
    // Every entry without a named test above, so an experiment added to
    // the table is checked without touching this file.
    for e in EXPERIMENTS.iter().filter(|e| !NAMED.contains(&e.name)) {
        assert_experiment_invariant(e);
    }
}

#[test]
fn pdes_ring_digest_is_identical_for_every_worker_count() {
    let serial = pdes_bench::run(4, 1);
    for workers in [2usize, 4, 8] {
        let run = pdes_bench::run(4, workers);
        assert_eq!(
            run.digest, serial.digest,
            "PDES digest diverged at {workers} workers"
        );
        assert_eq!(run.report.windows, serial.report.windows);
        assert_eq!(run.report.events, serial.report.events);
        assert_eq!(run.report.end_time, serial.report.end_time);
    }
}

#[test]
fn pdes_ring_golden_pin() {
    // Cross-island-heavy scenario pinned to golden values: 4 islands, 4
    // concurrent file-I/O programs each, 24 ring messages per island.
    // Any change to the window protocol, the lookahead derivation, the
    // merge order, or the island workload moves these numbers.
    let run = pdes_bench::run(4, 2);
    assert_eq!(run.report.windows, 3675, "window count drifted");
    assert_eq!(run.report.events, 96, "delivered event count drifted");
    assert_eq!(run.report.abandoned, 0, "events were abandoned");
    assert_eq!(run.report.end_time.as_u64(), 841_403, "end time drifted");
    assert_eq!(
        run.digest,
        "i0:jobs=6291456:rx=24:rxsum=72276:end=841403;\
         i1:jobs=6291456:rx=24:rxsum=276:end=841403;\
         i2:jobs=6291456:rx=24:rxsum=24276:end=841403;\
         i3:jobs=6291456:rx=24:rxsum=48276:end=841403\
         |windows=3675|events=96|end=841403",
        "PDES golden digest drifted"
    );
}

#[test]
fn fig10_digest_is_identical_for_every_worker_count() {
    // The sharded-multikernel sweep point: 4 kernel shards on 4 islands,
    // ktk traffic crossing every island boundary. `run_point` pins its own
    // worker count, so the invariance is asserted directly.
    let serial = m3_bench::fig10::run_point(64, 4, 1);
    for workers in [2usize, 4] {
        let run = m3_bench::fig10::run_point(64, 4, workers);
        assert_eq!(
            run.digest, serial.digest,
            "fig10 digest diverged at {workers} workers"
        );
    }
    assert!(serial.xplace > 0, "expected cross-shard placements");
}
