//! Admission gate over the paper's evaluation grid: every Table-I design
//! the generators elaborate must lint free of Error-severity diagnostics,
//! so the serving registry admits all of them. Warn/Info findings (dead
//! cells from the argmax tree, constant-fed gates) are expected and
//! legitimate — the gate is *structural soundness*, not warning-free-ness.
//!
//! Kept to one profile's styles plus spot checks so the debug-mode test
//! stays fast; the `lint --all` binary covers the full 5 × 4 grid in CI.

use pe_core::pipeline::{build_netlist, prepare_model, RunOptions};
use pe_core::styles::DesignStyle;
use pe_data::UciProfile;
use pe_lint::lint_netlist;
use pe_serve::registry::admit_netlist;

#[test]
fn generated_designs_admit_with_zero_errors() {
    let opts = RunOptions::default();
    let cases: Vec<(UciProfile, DesignStyle)> = DesignStyle::all()
        .into_iter()
        .map(|s| (UciProfile::Cardio, s))
        .chain([
            (UciProfile::RedWine, DesignStyle::SequentialSvm),
            (UciProfile::Dermatology, DesignStyle::ParallelSvm),
        ])
        .collect();
    for (profile, style) in cases {
        let prepared = prepare_model(profile, style, &opts);
        let nl = build_netlist(style, &prepared);
        let report = lint_netlist(&nl);
        assert!(
            !report.has_errors(),
            "{}:{} must lint error-free, got:\n{report}",
            profile.name(),
            style.label()
        );
        admit_netlist(&nl).unwrap_or_else(|r| {
            panic!("{}:{} refused admission:\n{r}", profile.name(), style.label())
        });
    }
}
