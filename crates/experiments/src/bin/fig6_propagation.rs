fn main() -> std::process::ExitCode {
    sefi_experiments::driver::main(&sefi_experiments::exp_propagation::FIG6)
}
