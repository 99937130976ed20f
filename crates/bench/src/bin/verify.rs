//! Exhaustive protocol model checking (see `verify::model`).
//!
//! ```text
//! cargo run --release -p bench --bin verify
//! ```
//!
//! Two phases, mirroring the crate's acceptance criteria:
//!
//! 1. Check the unmutated protocol at 2 and 3 cores — every reachable
//!    state must satisfy the invariants (single Registered owner,
//!    registry/owner agreement, data-value freshness, no lost
//!    writebacks).
//! 2. Re-check under each protocol mutation — every mutation must
//!    produce a counterexample, proving the checker catches that class
//!    of bug. The shortest trace is printed for each.
//!
//! Exits 1 if the clean protocol has a violation or a mutation escapes
//! detection.

use verify::{check, Mutation};

fn main() {
    bench::cli::finish(std::env::args().collect(), false);
    let mut failed = false;

    println!("=== exhaustive check, unmutated protocol ===");
    for cores in [2, 3] {
        match check(cores, None) {
            Ok(stats) => println!("{stats}"),
            Err(cx) => {
                println!("UNEXPECTED VIOLATION at {cores} cores:\n{cx}");
                failed = true;
            }
        }
    }

    println!("\n=== mutation coverage (each must yield a counterexample) ===");
    for mutation in Mutation::ALL {
        match check(2, Some(mutation)) {
            Err(cx) => {
                println!("{}: caught, shortest trace:", mutation.name());
                for line in cx.to_string().lines() {
                    println!("  {line}");
                }
            }
            Ok(stats) => {
                println!("{}: ESCAPED DETECTION ({stats})", mutation.name());
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("\nmodel checking FAILED");
        std::process::exit(1);
    }
    println!("\nmodel checking passed");
}
