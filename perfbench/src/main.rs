//! Runs one repetition of one workload and prints its measurements as one
//! line of JSON.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--trace 0|1] [--workers <n>]
//! ```

use std::process::ExitCode;

use m3_perfbench::{Options, DEFAULT_SEED, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options::new(DEFAULT_SEED);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("perfbench: {flag} needs a value");
            return ExitCode::from(2);
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|s| opts.seed = s).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.traced = value == "1";
                    true
                }
                _ => false,
            },
            "--workers" => value
                .parse()
                .ok()
                .filter(|&w: &usize| w >= 1)
                .map(|w| opts.workers = w)
                .is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("perfbench: bad argument {flag} {value}");
            return ExitCode::from(2);
        }
    }
    let Some(workload) = workload else {
        eprintln!("perfbench: --workload is one of {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    match m3_perfbench::run(&workload, &opts) {
        Some(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "perfbench: unknown workload {workload:?}; one of {}",
                WORKLOADS.join(", ")
            );
            ExitCode::from(2)
        }
    }
}
