//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints the run's metrics as one JSON object on the last line of
//! standard output.  Exits 1 without printing it when an output check
//! fails, and 2 on a usage error.  `--workload all` runs every workload,
//! each in a process of its own, and prints one `<workload> <json>` line
//! per workload; it exits 1 if any of them failed.

use std::process::{Command, ExitCode};

use perfbench::{run, Sizes, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}, not '{}'",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Run every workload in a child process of this executable, so that each
/// one's `peak_rss_mb` is its own.
fn run_all(args: &Args) -> ExitCode {
    let mut status = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
        let trace = if args.trace { "1" } else { "0" };
        let output = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .output()
        });
        match output {
            Ok(output) if output.status.success() => {
                let stdout = String::from_utf8_lossy(&output.stdout);
                println!("{workload} {}", stdout.lines().last().unwrap_or_default());
            }
            Ok(output) => {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                eprintln!("perfbench: {workload} failed ({})", output.status);
                status = ExitCode::from(1);
            }
            Err(err) => {
                eprintln!("perfbench: cannot run {workload}: {err}");
                status = ExitCode::from(1);
            }
        }
    }
    status
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run(
        &args.workload,
        args.seed,
        &Sizes::for_seconds(args.seconds),
        args.trace,
    ) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for err in errors {
                eprintln!("perfbench: output check failed: {err}");
            }
            ExitCode::from(1)
        }
    }
}
