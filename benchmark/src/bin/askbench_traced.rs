//! The traced pass: the same program with a counting global allocator.

#[global_allocator]
static ALLOC: askbench::alloc::CountingAlloc = askbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    askbench::cli::main(true)
}
