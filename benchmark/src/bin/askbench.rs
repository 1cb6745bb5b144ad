//! End-to-end runs and `compare`, on the system allocator.

fn main() -> std::process::ExitCode {
    askbench::cli::main(false)
}
