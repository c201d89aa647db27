//! Self-tests of the benchmark: the properties its numbers rely on.
//!
//! Run them on the optimized build, as the benchmark itself runs:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;

use m3_perfbench::{
    nearest_rank, run, Counters, Options, Outcome, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS,
};

/// Everything simulated about a repetition: the simulated end-to-end and
/// per-layer metrics, the cycles the timed section advanced, and every
/// operation's latency.
fn simulated(o: &Outcome) -> (BTreeMap<String, f64>, BTreeMap<String, f64>, u64, Vec<u64>) {
    (
        o.end_to_end(),
        o.sim.clone(),
        o.cycles_advanced,
        o.latencies.clone(),
    )
}

fn repetition(workload: &str, opts: Options) -> Outcome {
    run(workload, &opts).expect("a known workload")
}

#[test]
fn traced_runs_end_at_the_same_cycle_with_identical_results() {
    for workload in WORKLOADS {
        let plain = repetition(workload, Options::new(DEFAULT_SEED));
        let traced = repetition(
            workload,
            Options {
                traced: true,
                ..Options::new(DEFAULT_SEED)
            },
        );
        assert_eq!(
            simulated(&plain),
            simulated(&traced),
            "{workload}: tracing moved a simulated result"
        );
        assert!(
            plain.trace.is_empty(),
            "{workload}: untraced run counted trace events"
        );
        assert!(
            traced
                .trace
                .get("trace.events.sched")
                .copied()
                .unwrap_or(0.0)
                > 0.0,
            "{workload}: traced run recorded no executor events"
        );
        assert_eq!(
            traced.trace.get("trace.dropped"),
            Some(&0.0),
            "{workload}: trace events dropped"
        );
    }
}

#[test]
fn untraced_runs_repeat_exactly() {
    for workload in WORKLOADS {
        let a = repetition(workload, Options::new(DEFAULT_SEED));
        let b = repetition(workload, Options::new(DEFAULT_SEED));
        assert_eq!(
            simulated(&a),
            simulated(&b),
            "{workload}: two runs of one seed differ"
        );
    }
}

#[test]
fn shard_pdes_is_identical_at_one_and_two_workers() {
    let one = repetition("shard_pdes", Options::new(DEFAULT_SEED));
    let two = repetition(
        "shard_pdes",
        Options {
            workers: 2,
            ..Options::new(DEFAULT_SEED)
        },
    );
    assert_eq!(simulated(&one), simulated(&two));
    assert!(
        one.sim["pdes.events"] > 0.0,
        "the shards exchanged no ktk events"
    );
}

#[test]
fn every_operation_succeeds_at_the_default_and_held_out_seeds() {
    for workload in WORKLOADS {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let o = repetition(workload, Options::new(seed));
            assert!(
                o.attempted >= 1000,
                "{workload}/{seed}: only {} ops",
                o.attempted
            );
            assert_eq!(o.failed, 0, "{workload}/{seed}: {:?}", o.mismatches);
        }
    }
}

#[test]
fn seeds_change_the_inputs() {
    for workload in WORKLOADS {
        let a = repetition(workload, Options::new(DEFAULT_SEED));
        let b = repetition(workload, Options::new(HELD_OUT_SEED));
        assert_ne!(
            a.latencies, b.latencies,
            "{workload}: the seed changed nothing"
        );
    }
}

#[test]
fn nearest_rank_picks_the_ceil_rank() {
    let v: Vec<u64> = (1..=200).collect();
    assert_eq!(nearest_rank(&v, 0.5), 100);
    assert_eq!(nearest_rank(&v, 0.99), 198);
    assert_eq!(nearest_rank(&v, 1.0), 200);
    assert_eq!(nearest_rank(&[7], 0.01), 7);
    assert_eq!(nearest_rank(&[], 0.5), 0);
}

#[test]
fn counters_survive_the_island_encoding() {
    let c = Counters::decode("dtu.msgs_sent=5;noc.bytes=1024");
    assert_eq!(Counters::decode(&c.encode()), c);
    let mut sum = c.clone();
    sum.add(&c);
    assert_eq!(sum.get("noc.bytes"), 2048);
    assert_eq!(sum.since(&c), c);
}
