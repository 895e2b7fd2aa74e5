//! `ulm` — the command-line interface to the uniform latency model.
//!
//! ```sh
//! ulm evaluate  --arch case16 --layer 64x96x640
//! ulm whatif    --set mem.GB.bw=2x --verify
//! ulm calibrate --arch case16 --out case16.cal.json
//! ulm surrogate --b-list 16,32,64,128 --verify
//! ulm search   --objective energy --all
//! ulm validate --json
//! ulm dse      --gb-bw 1024 --sides 16,64
//! ulm network  --net attention-decode --arch fusion --fuse logit+attend@LB
//! ulm batch    < requests.ndjson
//! ulm serve    --port 7878
//! ```

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            commands::help();
            return ExitCode::FAILURE;
        }
    };
    if args.flag("help") || args.command == "help" {
        commands::help();
        return ExitCode::SUCCESS;
    }
    if let Some(accepted) = commands::accepted_options(&args.command) {
        if let Err(e) = args.check_known(&accepted) {
            eprintln!("error: {e}; try `ulm help`");
            return ExitCode::FAILURE;
        }
    }
    let result = match args.command.as_str() {
        "evaluate" => commands::evaluate(&args),
        "whatif" => commands::whatif(&args),
        "calibrate" => commands::calibrate(&args),
        "surrogate" => commands::surrogate(&args),
        "search" => commands::search(&args),
        "validate" => commands::validate(&args),
        "dse" => commands::dse(&args),
        "network" => commands::network(&args),
        "batch" => commands::batch(&args),
        "serve" => commands::serve(&args),
        "cache" => commands::cache(&args),
        other => {
            eprintln!("error: unknown command `{other}`");
            commands::help();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error[{}]: {e}", e.code());
            ExitCode::FAILURE
        }
    }
}
