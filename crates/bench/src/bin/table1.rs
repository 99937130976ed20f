//! Table 1: the qualitative cache / scratchpad / stash feature matrix.
//!
//! Each row is also an executable test in `tests/feature_matrix.rs`.

fn main() {
    bench::cli::finish(std::env::args().collect(), false);
    let rows: [(&str, &str, bool, bool, bool); 10] = [
        (
            "Directly addressed",
            "No address translation hardware access",
            false,
            true,
            true, // stash: on hits
        ),
        ("Directly addressed", "No tag access", false, true, true),
        (
            "Directly addressed",
            "No conflict misses",
            false,
            true,
            true,
        ),
        (
            "Compact storage",
            "Efficient use of SRAM storage",
            false,
            true,
            true,
        ),
        (
            "Global addressing",
            "Implicit data movement from/to structure",
            true,
            false,
            true,
        ),
        (
            "Global addressing",
            "No pollution of other memories",
            true,
            false,
            true,
        ),
        (
            "Global addressing",
            "On-demand loads into structures",
            true,
            false,
            true,
        ),
        (
            "Global visibility",
            "Lazy writebacks to global AS",
            true,
            false,
            true,
        ),
        (
            "Global visibility",
            "Reuse across kernels / phases",
            true,
            false,
            true,
        ),
        (
            "Global visibility",
            "Globally coherent and visible",
            true,
            false,
            true,
        ),
    ];
    let mark = |b: bool| if b { "yes" } else { "no" };
    println!("Table 1 — comparison of cache, scratchpad, and stash\n");
    println!(
        "{:<22}{:<44}{:>7}{:>12}{:>7}",
        "Feature", "Benefit", "Cache", "Scratchpad", "Stash"
    );
    for (feature, benefit, cache, scratch, stash) in rows {
        println!(
            "{:<22}{:<44}{:>7}{:>12}{:>7}",
            feature,
            benefit,
            mark(cache),
            mark(scratch),
            mark(stash)
        );
    }
    println!("\n(Stash 'no address translation' and 'no tag access' hold on hits —");
    println!(" the common case; every row is asserted by tests/feature_matrix.rs.)");
}
