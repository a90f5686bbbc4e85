//! Runs every entry of the driver registry as one campaign into one
//! results directory. Kill it at any point and re-run: completed trials are
//! served from the manifests and the tables come out byte-identical.

fn main() -> std::process::ExitCode {
    sefi_experiments::driver::main_all()
}
