//! `campaignbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! — see the library docs. Scratch, state and span files go to `out/`
//! beside this package's manifest.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match campaignbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaignbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match campaignbench::run(&args, &out) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaignbench: {e}");
            ExitCode::FAILURE
        }
    }
}
