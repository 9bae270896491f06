//! `paper <id> [--rounds N] [--seed S] [--json PATH]` — print one of the
//! paper's figures or tables (see `tifl_bench`).

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the paper driver owns its process's stdio"
)]

use std::io::ErrorKind;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match tifl_bench::run(&argv, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::InvalidInput => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("[paper] {e}");
            ExitCode::FAILURE
        }
    }
}
