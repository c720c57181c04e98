//! Command-line entry point: runs one workload and prints the result as
//! one JSON object on the last line of standard output. Diagnostics go to
//! standard error; a run that fails any check exits 1 and prints nothing
//! on standard output.

use hilos_e2ebench::run::{run, Options, Report};
use hilos_e2ebench::workloads::NAMES;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--items N]",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        items: None,
        out_dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--items" => {
                let n: usize = value.parse().map_err(|e| bad(&e))?;
                if n == 0 {
                    return Err(bad(&"must be positive"));
                }
                opts.items = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !NAMES.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    // Span files go next to the executable, inside the build directory.
    opts.out_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("e2ebench-traces")));
    Ok(opts)
}

fn render(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(metrics, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted, report.failed
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            println!("{}", render(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {}: check failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
