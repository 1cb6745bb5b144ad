//! Command line of the two binaries. `askbench` makes end-to-end runs and
//! comparisons; `askbench_traced`, which installs the counting allocator,
//! makes the traced pass.

use crate::compare::compare;
use crate::run::{run, RunArgs};
use std::process::ExitCode;

const USAGE: &str = "usage:
  askbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
  askbench compare A.json B.json";

fn parse_run(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut args = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: None,
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be between 0 and 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Entry point of both binaries; `counting` says whether this one installed
/// the counting allocator.
pub fn main(counting: bool) -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("run") => parse_run(argv).and_then(|args| {
            if args.trace != counting {
                return Err(if args.trace {
                    "--trace 1 needs askbench_traced (the counting allocator)".to_string()
                } else {
                    "--trace 0 needs askbench (the system allocator)".to_string()
                });
            }
            let record = run(&args)?;
            print!("{}", record.table());
            println!(
                "{:<14} sim_digest {:016x}  iterations {}  ops_attempted {}  ops_failed {}",
                record.workload,
                record.sim_digest,
                record.iterations,
                record.ops_attempted,
                record.ops_failed
            );
            println!("{}", record.contract_line());
            Ok(record.ops_failed == 0)
        }),
        Some("compare") => match (argv.next(), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => {
                let read = |path: &str| {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
                };
                read(&a)
                    .and_then(|a| compare(&a, &read(&b)?))
                    .map(|(table, ok)| {
                        print!("{table}");
                        ok
                    })
            }
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("askbench: {message}");
            ExitCode::from(2)
        }
    }
}
