//! Static analysis driver: lints any Table-I design (or a structural-Verilog
//! file) and prints its diagnostics.
//!
//! Usage: `cargo run --release -p pe-bench --bin lint --
//!         [profile:style ...] [--all] [--verilog FILE]`
//!
//! * `profile:style` — a Table-I grid key (`cardio:seq`, `redwine:mlp`, …):
//!   the model is trained, elaborated and linted.
//! * `--all` — the whole 5 × 4 Table-I grid.
//! * `--verilog FILE` — parse a structural-Verilog file back into the IR
//!   (`pe_netlist::verilog_parse`) and lint that instead.
//!
//! Exit status is nonzero iff any design produced an Error-severity
//! diagnostic — the CI gate that keeps generator regressions out.

use pe_core::pipeline::{build_netlist, prepare_model, RunOptions};
use pe_lint::{lint_netlist, Severity};
use pe_netlist::Netlist;
use pe_serve::registry::ModelKey;

/// Lints one netlist, prints its report, and returns whether it carried an
/// Error.
fn lint_one(label: &str, nl: &Netlist) -> bool {
    let report = lint_netlist(nl);
    println!(
        "[{label}] {} cells, {} nets: {} diagnostics ({} error, {} warn, {} info)",
        nl.num_cells(),
        nl.num_nets(),
        report.len(),
        report.count(Severity::Error),
        report.count(Severity::Warn),
        report.count(Severity::Info),
    );
    if !report.is_empty() {
        print!("{report}");
    }
    report.has_errors()
}

fn main() {
    let mut keys: Vec<ModelKey> = Vec::new();
    let mut verilog: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--all" {
            keys = ModelKey::table1_grid();
        } else if arg == "--verilog" {
            match it.next() {
                Some(path) => verilog.push(path),
                None => {
                    eprintln!("lint: --verilog needs a file path");
                    std::process::exit(2);
                }
            }
        } else {
            match ModelKey::parse(&arg) {
                Ok(k) => keys.push(k),
                Err(e) => {
                    eprintln!("lint: {e}");
                    eprintln!("usage: lint [profile:style ...] [--all] [--verilog FILE]");
                    std::process::exit(2);
                }
            }
        }
    }
    if keys.is_empty() && verilog.is_empty() {
        eprintln!("usage: lint [profile:style ...] [--all] [--verilog FILE]");
        std::process::exit(2);
    }

    let opts = RunOptions::default();
    let mut failed = false;
    for key in keys {
        let prepared = prepare_model(key.profile, key.style, &opts);
        let nl = build_netlist(key.style, &prepared);
        failed |= lint_one(&key.token(), &nl);
    }
    for path in verilog {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lint: cannot read {path}: {e}");
                std::process::exit(2);
            }
        };
        match pe_netlist::verilog_parse::from_verilog(&src) {
            Ok(nl) => failed |= lint_one(&path, &nl),
            Err(e) => {
                eprintln!("lint: {path}: parse error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("lint: error-severity diagnostics present");
        std::process::exit(1);
    }
}
