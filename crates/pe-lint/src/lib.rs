//! Static netlist analysis for printed bespoke classifiers: structural
//! lints and constant propagation.
//!
//! This crate is the design-rule checker of the workspace. It consumes a
//! [`pe_netlist::Netlist`] — whether built by the generators, parsed back
//! from Verilog, or assembled raw by a test — and produces a [`LintReport`]
//! of coded, severity-ranked [`Diagnostic`]s:
//!
//! * **structural** (`PL00xx`, error): combinational cycles, multi-driven and
//!   undriven nets, arity mismatches, dangling port/pin references — anything
//!   that makes the design unschedulable. Unlike
//!   [`pe_netlist::Netlist::validate`] (which stops at the first violation),
//!   the lint pass reports them all, with cell/net loci, and never panics on
//!   malformed input.
//! * **reachability** (`PL01xx`, warn): dead cells, unused inputs,
//!   unobservable registers — logic that simulates fine but cannot matter.
//! * **constant propagation** (`PL02xx`, warn/info): ternary X-propagation
//!   with init-seeded register widening proves nets stuck at constants —
//!   constant gate outputs, stuck output ports, registers that never leave
//!   their power-on value, foldable constant-fed gates.
//!
//! # Example
//!
//! ```
//! use pe_netlist::Builder;
//!
//! let mut b = Builder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let s = b.xor2(a, c);
//! b.output("sum", s);
//! let nl = b.finish();
//! let report = pe_lint::lint_netlist(&nl);
//! assert!(!report.has_errors());
//! ```

pub mod constprop;
pub mod diag;
pub mod passes;

pub use diag::{Diagnostic, Lint, LintReport, Severity};

use pe_netlist::Netlist;

/// Runs the full lint pipeline over a netlist.
///
/// The structural pass always runs and is safe on arbitrary garbage. The
/// reachability and constant-propagation passes assume a well-formed design,
/// so they are skipped whenever a structural Error fired — the report then
/// carries the structural findings alone.
#[must_use]
pub fn lint_netlist(nl: &Netlist) -> LintReport {
    let mut report = LintReport::new();
    report.extend(passes::structural(nl));
    if !report.has_errors() {
        report.extend(passes::reachability(nl));
        report.extend(constprop::constprop(nl));
    }
    report
}
