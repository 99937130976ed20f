//! Static analysis gate: the `verify::dataflow` bounds and race passes
//! over workload programs.
//!
//! ```text
//! cargo run --release -p bench --bin lint                    # built-in suite
//! cargo run --release -p bench --bin lint -- my.trace        # plus a trace file
//! cargo run --release -p bench --bin lint -- --json          # SARIF-style JSON
//! cargo run --release -p bench --bin lint -- --extras        # + diagnostic workloads
//! cargo run --release -p bench --bin lint -- --deny-unknown  # warnings are fatal
//! cargo run --release -p bench --bin lint -- --json --baseline ci/lint-baseline.json
//! ```
//!
//! Every program is walked by two passes reporting through the unified
//! `verify::Diagnostic` type with stable `SR0xx` rule codes: the
//! three-valued bounds pass (`verify::dataflow::oob`), and the race pass
//! over footprints (`verify::dataflow::drf`), which also applies the
//! CPU stale-read rule.
//!
//! **Exit policy** (severity-driven): any *error*-level finding —
//! proven races, proven out-of-bounds, CPU stale reads — exits 1.
//! *Warning*-level findings (data-dependent unknowns: neither provable
//! nor refutable) exit 0 unless `--deny-unknown`.
//! Argument errors and trace files that do not parse exit 2.
//!
//! With `--json` the findings print as a SARIF-style document
//! (`version`/`runs`/`tool.driver.rules`/`results`), one result per
//! line, deterministically ordered. `--baseline PATH` suppresses (for
//! gating, not printing) any result whose line already appears in the
//! given SARIF file — CI commits a baseline of the suite's accepted
//! data-dependent warnings and fails on anything new.
//! `--update-baseline` regenerates that file in place (at `--baseline`'s
//! path, `ci/lint-baseline.json` by default) from the current findings,
//! so accepting an intentional analysis change is one command instead
//! of a hand-edit.

use bench::cli;
use gpu::config::MemConfigKind;
use verify::dataflow::{self, BoundsSummary};
use verify::{symbols_for_trace, Diagnostic, Rule, Severity, Symbols};
use workloads::suite;

struct Finding {
    source: String,
    config: MemConfigKind,
    diagnostic: Diagnostic,
}

impl Finding {
    /// The SARIF result line; also the unit of baseline comparison.
    fn sarif_line(&self) -> String {
        format!(
            "    {{\"ruleId\": \"{}\", \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"logicalLocations\": [{{\"name\": \"{}/{}\"}}]}}]}}",
            self.diagnostic.rule.code(),
            self.diagnostic.severity().name(),
            cli::json_escape(&self.diagnostic.message),
            cli::json_escape(&self.source),
            self.config.name(),
        )
    }
}

fn analyze_program(
    program: &gpu::program::Program,
    symbols: &Symbols,
    source: &str,
    kind: MemConfigKind,
    findings: &mut Vec<Finding>,
    bounds: &mut BoundsSummary,
) {
    let (diags, summary) = dataflow::dataflow_diagnostics(program, symbols);
    bounds.proven_safe += summary.proven_safe;
    bounds.proven_oob += summary.proven_oob;
    bounds.unknown += summary.unknown;
    findings.extend(diags.into_iter().map(|diagnostic| Finding {
        source: source.to_string(),
        config: kind,
        diagnostic,
    }));
}

/// The full SARIF-style document: what `--json` prints and what
/// `--update-baseline` writes.
fn sarif_document(findings: &[Finding]) -> String {
    use std::fmt::Write;
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str("\"version\": \"2.1.0\",\n");
    doc.push_str("\"runs\": [ {\n");
    doc.push_str("  \"tool\": {\"driver\": {\"name\": \"stash-lint\", \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let comma = if i + 1 < Rule::ALL.len() { "," } else { "" };
        writeln!(
            doc,
            "    {{\"id\": \"{}\", \"name\": \"{}\", \"defaultConfiguration\": \
             {{\"level\": \"{}\"}}}}{comma}",
            rule.code(),
            rule.name(),
            rule.severity().name(),
        )
        .expect("write to String");
    }
    doc.push_str("  ]}},\n");
    doc.push_str("  \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 < findings.len() { "," } else { "" };
        writeln!(doc, "{}{comma}", f.sarif_line()).expect("write to String");
    }
    doc.push_str("  ]\n");
    doc.push_str("} ]\n");
    doc.push_str("}\n");
    doc
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let json = cli::take_flag(&mut args, "--json");
    let extras = cli::take_flag(&mut args, "--extras");
    let deny_unknown = cli::take_flag(&mut args, "--deny-unknown");
    let update_baseline = cli::take_flag(&mut args, "--update-baseline");
    let baseline_path = cli::take_value(&mut args, "--baseline");
    let traces = cli::finish(args, true);

    let baseline: std::collections::HashSet<String> = baseline_path
        .as_deref()
        .filter(|_| !update_baseline)
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
            text.lines()
                .filter(|l| l.trim_start().starts_with("{\"ruleId\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        })
        .unwrap_or_default();

    let mut findings: Vec<Finding> = Vec::new();
    let mut bounds = BoundsSummary::default();

    let mut workloads = suite::all();
    if extras {
        workloads.extend(suite::extras());
    }
    if !json {
        println!(
            "=== linting built-in suite ({} workloads) ===",
            workloads.len()
        );
    }
    let empty = Symbols::new();
    for workload in &workloads {
        for kind in MemConfigKind::ALL {
            let program = (workload.build)(kind);
            analyze_program(
                &program,
                &empty,
                workload.name,
                kind,
                &mut findings,
                &mut bounds,
            );
        }
    }

    for path in &traces {
        let trace = cli::load_trace(path);
        let symbols = symbols_for_trace(&trace);
        for kind in MemConfigKind::ALL {
            let program = trace.build(kind);
            analyze_program(&program, &symbols, path, kind, &mut findings, &mut bounds);
        }
    }

    // Gate on findings not excused by the baseline.
    let fresh: Vec<&Finding> = findings
        .iter()
        .filter(|f| !baseline.contains(f.sarif_line().trim_start()))
        .collect();
    let errors = fresh
        .iter()
        .filter(|f| f.diagnostic.severity() == Severity::Error)
        .count();
    let warnings = fresh
        .iter()
        .filter(|f| f.diagnostic.severity() == Severity::Warning)
        .count();

    if update_baseline {
        let path = baseline_path.as_deref().unwrap_or("ci/lint-baseline.json");
        std::fs::write(path, sarif_document(&findings)).unwrap_or_else(|e| {
            eprintln!("cannot write baseline {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "baseline {path} updated: {} finding{}",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        );
        return;
    }

    if json {
        print!("{}", sarif_document(&findings));
    } else {
        for f in &findings {
            let excused = baseline.contains(f.sarif_line().trim_start());
            println!(
                "{}/{}: {} {}{}: {f}",
                f.source,
                f.config.name(),
                f.diagnostic.rule.code(),
                f.diagnostic.severity().name(),
                if excused { " (baseline)" } else { "" },
                f = f.diagnostic,
            );
        }
        println!(
            "bounds checks: {} proven safe, {} proven OOB, {} data-dependent",
            bounds.proven_safe, bounds.proven_oob, bounds.unknown
        );
        if findings.is_empty() {
            println!("all programs are clean");
        }
    }

    if errors > 0 || (deny_unknown && warnings > 0) {
        eprintln!(
            "\n{errors} error{} and {warnings} warning{} above baseline — lint FAILED{}",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if deny_unknown && errors == 0 {
                " (--deny-unknown)"
            } else {
                ""
            },
        );
        std::process::exit(1);
    }
}
