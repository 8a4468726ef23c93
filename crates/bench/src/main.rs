//! `bench [NAME...] [--check]`: runs the layer benches; see
//! [`bench::harness`].

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(bench::harness::cli(&args, &bench::BENCHES, Path::new(".")))
}
