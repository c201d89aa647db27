//! `m3-bench`: runs experiments from [`m3_bench::EXPERIMENTS`] by name.
//!
//! ```text
//! m3-bench <name>…|all [--smoke] [--sim-workers N] [--compare-serial] [--artifacts DIR]
//! ```
//!
//! Each experiment prints its table, then a line
//! `[<name>: N aggregate simulated cycles]`. Host wall time goes to stderr,
//! so stdout is byte-identical across hosts, runs and worker counts.
//!
//! - `--smoke`: the smaller variant where an experiment has one (fig9: the
//!   two smallest client counts, fig10: 64 PEs, fig11: residencies 1/8 and
//!   8/8, the PDES ring: 2 islands instead of 4).
//! - `--sim-workers N`: pins the worker count, both the scenario threads and
//!   the PDES island workers (overrides `M3_SIM_WORKERS`).
//! - `--compare-serial`: renders each experiment at 1 worker and at N,
//!   fails unless the two renders are byte-identical, and reports both wall
//!   times.
//! - `--artifacts DIR`: re-runs each experiment's traced scenario and
//!   writes whichever of `DIR/<name>-{trace.json,trace.tsv,metrics.txt,
//!   latency.tsv}` it produces. Rejected for experiments without one.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
#[expect(
    clippy::disallowed_types,
    reason = "host wall clock, reported on stderr only"
)]
use std::time::Instant;

use m3_bench::exec;
use m3_bench::experiment::{Artifacts, Experiment, Output, EXPERIMENTS};

const USAGE: &str = "usage: m3-bench <name>...|all [--smoke] [--sim-workers N] \
                     [--compare-serial] [--artifacts DIR]";

/// The parsed command line.
#[derive(Debug)]
struct Options {
    experiments: Vec<&'static Experiment>,
    smoke: bool,
    sim_workers: Option<usize>,
    compare_serial: bool,
    artifacts: Option<PathBuf>,
}

/// Parses the arguments after the program name.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        experiments: Vec::new(),
        smoke: false,
        sim_workers: None,
        compare_serial: false,
        artifacts: None,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--compare-serial" => opts.compare_serial = true,
            "--sim-workers" => match args.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0) {
                Some(n) => opts.sim_workers = Some(n),
                None => return Err("--sim-workers needs a positive count".into()),
            },
            "--artifacts" => match args.next().filter(|dir| !dir.starts_with('-')) {
                Some(dir) => opts.artifacts = Some(PathBuf::from(dir)),
                None => return Err("--artifacts needs a directory".into()),
            },
            "all" => opts.experiments.extend(EXPERIMENTS),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => opts.experiments.push(e),
                None => return Err(format!("unknown experiment {name}")),
            },
        }
    }
    if opts.experiments.is_empty() {
        return Err("name at least one experiment, or all".into());
    }
    if opts.artifacts.is_some() {
        if let Some(e) = opts.experiments.iter().find(|e| e.traced.is_none()) {
            return Err(format!(
                "{} has no traced run to write artifacts from",
                e.name
            ));
        }
    }
    Ok(opts)
}

/// Runs `run` and returns its output with the host milliseconds it took.
fn timed(run: fn() -> Output) -> (Output, f64) {
    #[expect(
        clippy::disallowed_types,
        reason = "host wall clock, reported on stderr only"
    )]
    let start = Instant::now();
    let out = run();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Renders at 1 worker and at the configured count; `None` when the two
/// renders differ.
fn compare_serial(name: &str, run: fn() -> Output, workers: Option<usize>) -> Option<Output> {
    exec::set_sim_workers(Some(1));
    let (serial, serial_ms) = timed(run);
    exec::set_sim_workers(workers);
    let n = exec::workers_for(usize::MAX);
    let (parallel, ms) = timed(run);
    if serial != parallel {
        eprintln!("{name}: renders at 1 and {n} workers differ");
        return None;
    }
    eprintln!(
        "{name}: serial {serial_ms:.1} ms, {n} workers {ms:.1} ms -> speedup {:.2}x (renders identical)",
        serial_ms / ms
    );
    Some(parallel)
}

/// Runs `traced` and writes its artifacts into `dir` as `<name>-<suffix>`.
fn write_artifacts(dir: &Path, name: &str, traced: fn() -> Artifacts) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (suffix, content) in traced() {
        let path = dir.join(format!("{name}-{suffix}"));
        std::fs::write(&path, content)?;
        eprintln!("{name}: wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("m3-bench: {msg}\n{USAGE}\nexperiments: {}", names.join(" "));
            return ExitCode::FAILURE;
        }
    };
    exec::set_sim_workers(opts.sim_workers);
    for e in &opts.experiments {
        let run = e.variant(opts.smoke);
        let out = if opts.compare_serial {
            match compare_serial(e.name, run, opts.sim_workers) {
                Some(out) => out,
                None => return ExitCode::FAILURE,
            }
        } else {
            let (out, ms) = timed(run);
            eprintln!(
                "{}: {ms:.1} ms on {} workers",
                e.name,
                exec::workers_for(usize::MAX)
            );
            out
        };
        println!("{}", out.table);
        println!("[{}: {} aggregate simulated cycles]\n", e.name, out.cycles);
        if let (Some(dir), Some(traced)) = (&opts.artifacts, e.traced) {
            if let Err(err) = write_artifacts(dir, e.name, traced) {
                eprintln!("m3-bench: cannot write {} artifacts: {err}", e.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn accepts_every_flag() {
        let opts = parse_str("fig9 fig3 --smoke --sim-workers 3 --compare-serial --artifacts out")
            .expect("valid command line");
        let names: Vec<&str> = opts.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig9", "fig3"]);
        assert!(opts.smoke && opts.compare_serial);
        assert_eq!(opts.sim_workers, Some(3));
        assert_eq!(opts.artifacts, Some(PathBuf::from("out")));
    }

    #[test]
    fn all_selects_the_whole_table() {
        let opts = parse_str("all").expect("valid command line");
        assert_eq!(opts.experiments.len(), EXPERIMENTS.len());
    }

    #[test]
    fn rejects_an_unknown_experiment() {
        assert!(parse_str("fig12")
            .unwrap_err()
            .contains("unknown experiment fig12"));
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert!(parse_str("fig3 --serial")
            .unwrap_err()
            .contains("unknown flag --serial"));
    }

    #[test]
    fn rejects_zero_or_missing_sim_workers() {
        for line in [
            "fig3 --sim-workers 0",
            "fig3 --sim-workers",
            "fig3 --sim-workers x",
        ] {
            assert!(
                parse_str(line).unwrap_err().contains("--sim-workers"),
                "{line}"
            );
        }
    }

    #[test]
    fn rejects_artifacts_without_a_directory() {
        for line in ["fig3 --artifacts", "fig3 --artifacts --smoke"] {
            assert!(
                parse_str(line).unwrap_err().contains("--artifacts needs"),
                "{line}"
            );
        }
    }

    #[test]
    fn rejects_artifacts_for_an_experiment_without_a_traced_run() {
        assert!(parse_str("fig4 --artifacts out")
            .unwrap_err()
            .contains("fig4 has no traced run"));
        assert!(parse_str("all --artifacts out").is_err());
    }

    #[test]
    fn rejects_an_empty_selection() {
        assert!(parse_str("--smoke").is_err());
    }
}
