//! Regenerates every table and figure of the paper's evaluation, in report
//! order.

fn main() {
    print!("{}", ask_bench::run_all(ask_bench::Scale::from_env()));
}
