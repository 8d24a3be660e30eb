//! `coconut` — command-line interface to the Coconut data series indexes.
//!
//! ```text
//! coconut gen   --kind randomwalk --count 100000 --len 256 --seed 1 data.ds
//! coconut info  data.ds
//! coconut build --index ctree --leaf 2000 --out-dir ./idx data.ds
//! coconut query --index idx/ctree-0-ptr.idx --data data.ds --seed 42
//! coconut query --index idx/ctree-0-ptr.idx --data data.ds --pos 17 --k 5
//! coconut query --index idx/ctree-0-ptr.idx --data data.ds --seed 7 --dtw 10
//! coconut query --index idx/ctree-0-ptr.idx --data data.ds --seed 7 --range 4.5
//! ```

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Install the deterministic fault plan of COCONUT_FAULTS /
    // COCONUT_FAULT_SEED before any command touches disk or the network.
    if let Err(e) = coconut_storage::fault::install_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
