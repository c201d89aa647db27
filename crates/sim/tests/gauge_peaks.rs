//! `gauges::reset_peaks` scopes the process-wide peaks to the simulations
//! that follow it. This is a test binary of its own because the peaks are
//! process-wide: unit tests running in parallel in one process would merge
//! their own peaks in.

use m3_base::Cycles;
use m3_sim::{gauges, Sim};

/// Runs a `Sim` whose `tasks` tasks all sleep at once, to distinct
/// deadlines: its peaks are `tasks` live tasks and `tasks` pending timers.
fn run_sim(tasks: u64) {
    let sim = Sim::new();
    for i in 0..tasks {
        let sim2 = sim.clone();
        sim.spawn(format!("t{i}"), async move {
            sim2.sleep(Cycles::new(1 + i)).await;
        });
    }
    sim.run();
}

#[test]
fn reset_between_two_sims_reports_the_second_ones_peak() {
    run_sim(40);
    assert_eq!(gauges::snapshot().peak_live_tasks, 40);
    gauges::reset_peaks();
    run_sim(3);
    let g = gauges::snapshot();
    assert_eq!(g.peak_live_tasks, 3);
    assert_eq!(g.peak_pending_timers, 3);
}
