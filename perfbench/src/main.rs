//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints information lines, then one JSON result line last.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::alloc::CountingAlloc;
use perfbench::cli::{parse, run, USAGE};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(args) => {
            println!("{}", run(&args, process_start));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
