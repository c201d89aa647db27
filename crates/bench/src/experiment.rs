//! The one list of experiments: every figure, cross-check and benchmark
//! the harness can regenerate.
//!
//! The `m3-bench` driver, the `perf` harness and the worker-count identity
//! tests in `tests/pdes.rs` all draw on [`EXPERIMENTS`], so an entry added
//! here is printed, timed and checked everywhere at once. Every run returns
//! its rendered table plus the aggregate simulated cycles behind it; no
//! render contains host time, so a render is byte-identical for every
//! worker count and on every host.

use m3_sim::Event;

use crate::fig9::Fig9;
use crate::report::{Figure, Series};
use crate::{ablation, arch, fig10, fig11, fig3, fig4, fig5, fig6, fig7, fig8, fig9, pdes_bench};

/// One rendered experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// The rendered table.
    pub table: String,
    /// The simulated cycles the table accounts for (summed over its bars,
    /// rows or runs).
    pub cycles: u64,
}

impl From<Figure> for Output {
    fn from(fig: Figure) -> Output {
        Output {
            cycles: fig
                .groups
                .iter()
                .flat_map(|g| g.bars.iter())
                .map(|b| b.total)
                .sum(),
            table: fig.render(),
        }
    }
}

impl From<Series> for Output {
    fn from(series: Series) -> Output {
        Output {
            cycles: series
                .rows
                .iter()
                .flat_map(|(_, vals)| vals.iter())
                .map(|v| *v as u64)
                .sum(),
            table: series.render(),
        }
    }
}

impl From<Fig9> for Output {
    fn from(fig: Fig9) -> Output {
        Output {
            table: fig.render(),
            cycles: Output::from(fig.series).cycles,
        }
    }
}

/// Files a traced run produces: `(suffix, content)`, written by the driver
/// as `<dir>/<name>-<suffix>`.
pub type Artifacts = Vec<(&'static str, String)>;

/// One experiment of the table.
#[derive(Debug)]
pub struct Experiment {
    /// The name the driver selects it by.
    pub name: &'static str,
    /// The full run.
    pub run: fn() -> Output,
    /// A smaller variant for smoke jobs and the identity test.
    pub smoke: Option<fn() -> Output>,
    /// Re-runs one scenario under tracing and returns its artifacts.
    pub traced: Option<fn() -> Artifacts>,
}

impl Experiment {
    /// The smoke variant when `smoke` is set and one exists, else the full
    /// run.
    pub fn variant(&self, smoke: bool) -> fn() -> Output {
        match self.smoke {
            Some(run) if smoke => run,
            _ => self.run,
        }
    }
}

/// The client count fig9 re-runs under tracing.
const FIG9_TRACED_CLIENTS: u64 = 256;

/// The Chrome JSON, native TSV and metrics of one traced scenario.
fn trace_artifacts(events: &[Event], metrics: String) -> Artifacts {
    vec![
        ("trace.json", m3_trace::chrome::export(events)),
        ("trace.tsv", m3_trace::fmt::write_events(events)),
        ("metrics.txt", metrics),
    ]
}

/// Every experiment, in the order `m3-bench all` prints them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        run: || fig3::run().into(),
        smoke: None,
        traced: Some(|| {
            let (events, metrics) = fig3::traced_file_read();
            trace_artifacts(&events, metrics)
        }),
    },
    Experiment {
        name: "fig4",
        run: || fig4::run().into(),
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "fig5",
        run: || fig5::run().into(),
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "fig6",
        run: || fig6::run().into(),
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "fig7",
        run: || fig7::run().into(),
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "fig8",
        run: || fig8::run().into(),
        smoke: None,
        traced: Some(|| {
            let (_, events, metrics) = fig8::traced_overcommit_run(2);
            trace_artifacts(&events, metrics)
        }),
    },
    Experiment {
        name: "fig9",
        run: || fig9::run().into(),
        smoke: Some(|| fig9::run_sweep(&fig9::CLIENTS[..2]).into()),
        traced: Some(|| {
            let out = fig9::traced_serve_run(FIG9_TRACED_CLIENTS);
            vec![
                ("trace.tsv", out.trace),
                ("metrics.txt", out.metrics),
                ("latency.tsv", out.latency_tsv),
            ]
        }),
    },
    Experiment {
        name: "fig10",
        run: || fig10::render(&fig10::PE_COUNTS),
        smoke: Some(|| fig10::render(&fig10::PE_COUNTS[..1])),
        traced: None,
    },
    Experiment {
        name: "fig11",
        run: || fig11::run().into(),
        smoke: Some(|| fig11::run_sweep(&[1, 8]).into()),
        traced: None,
    },
    Experiment {
        name: "arch",
        run: || arch::run().into(),
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "ablations",
        run: || {
            let outputs: Vec<Output> = ablation::run_all().into_iter().map(Output::from).collect();
            Output {
                table: outputs
                    .iter()
                    .map(|o| o.table.as_str())
                    .collect::<Vec<_>>()
                    .join("\n"),
                cycles: outputs.iter().map(|o| o.cycles).sum(),
            }
        },
        smoke: None,
        traced: None,
    },
    Experiment {
        name: "pdes_ring",
        run: || pdes_bench::render(4),
        smoke: Some(|| pdes_bench::render(2)),
        traced: None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{} listed twice",
                e.name
            );
        }
    }
}
