//! End-to-end and per-layer benchmark of the ulm workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (`--workload`):
//!
//! * `dse-fig8` — the whole Fig. 8 architecture sweep (regimes a, b, c;
//!   3 × 1,350 designs) through `ulm_dse`, serially.
//! * `serve-hot` — a repeating request mix on a loopback reactor whose
//!   working set fits the result cache (the read path).
//! * `serve-cold` — the same request kinds, every request distinct, on a
//!   service with a durable result log (the write path).
//! * `all` — the three in turn, one result line each.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same seeded streams with spans around calls into each crate's public
//! functions and prints the per-layer metrics. Every output is checked;
//! the last stdout line is one JSON object
//! `{"correct","attempted","failed","metrics"}`.

mod dse;
mod metrics;
mod rng;
mod serve;
mod trace;
mod validate;

use metrics::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the workload generators.
    pub seed: u64,
    /// Target length of the measured phase; fixes the operation count.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["dse-fig8", "serve-hot", "serve-cold"];

const USAGE: &str = "usage: perfbench --workload <dse-fig8|serve-hot|serve-cold|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` must be a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.ok_or("missing `--trace`")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "dse-fig8" => dse::run(args),
        "serve-hot" => serve::run(serve::Mix::Hot, args),
        "serve-cold" => serve::run(serve::Mix::Cold, args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in workloads {
        let one = Args {
            workload: name.to_string(),
            ..args.clone()
        };
        match run(&one) {
            Ok(report) => report.print(&one),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "serve-cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve-cold");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "dse-fig8", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "dse-fig8",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "dse-fig8",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
