//! Admission gate over the paper's evaluation grid: every Table-I design
//! the generators elaborate must lint free of Error-severity diagnostics,
//! so the serving registry admits all of them. Warn/Info findings (dead
//! cells from the argmax tree, constant-fed gates) are expected and
//! legitimate — the gate is *structural soundness*, not warning-free-ness.
//!
//! Kept to one profile's styles plus spot checks so the debug-mode test
//! stays fast; the `lint --all` binary covers the full 5 × 4 grid in CI.
//!
//! The site enumeration of `pe-lint`'s fault collapser is additionally
//! pinned against `pe_sim::faults::enumerate_fault_sites`.

use pe_core::designs::{parallel, sequential};
use pe_core::pipeline::{build_netlist, prepare_model, RunOptions};
use pe_core::styles::DesignStyle;
use pe_data::{train_test_split, Normalizer, UciProfile};
use pe_lint::{collapse_fault_sites, lint_netlist};
use pe_ml::linear::SvmTrainParams;
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::QuantizedSvm;
use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
use pe_netlist::Netlist;
use pe_serve::registry::admit_netlist;
use pe_sim::faults::enumerate_fault_sites;

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
        // The collapser must stay sound on every real design: simulated +
        // retired classes partition the site list.
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.simulate.len() + c.static_benign.len(), c.num_representatives());
        assert!(c.num_simulated() <= c.num_sites());
    }
}

/// A small quantized Cardio SVM (300 training rows, 25 epochs).
fn svm_model(scheme: MulticlassScheme, seed: u64) -> QuantizedSvm {
    let d = UciProfile::Cardio.generate(seed);
    let (train, _) = train_test_split(&d, 0.2, seed);
    let train = Normalizer::fit(&train).apply(&train);
    let sub: Vec<usize> = (0..train.len().min(300)).collect();
    let p = SvmTrainParams { max_epochs: 25, ..SvmTrainParams::default() };
    let m = SvmModel::train(&train.subset(&sub, "-s").quantize_inputs(4), scheme, &p);
    QuantizedSvm::quantize(&m, 4, 5)
}

/// `pe-lint`'s collapser and `pe-sim`'s campaigns must agree on what "the
/// fault list of a netlist" means, element for element.
#[test]
fn lint_site_enumeration_matches_sim_enumeration() {
    let q = svm_model(MulticlassScheme::OneVsRest, 11);
    let spec =
        RandomNetlistSpec { inputs: 5, gates: 60, registers: 4, outputs: 3, input_prefix: "x" };
    let designs: Vec<Netlist> = vec![
        sequential::build_sequential_ovr(&q),
        parallel::build_parallel_svm(&q),
        random_netlist(&spec, 17),
    ];
    for nl in &designs {
        let sim_sites = enumerate_fault_sites(nl);
        let lint_sites = pe_lint::collapse::enumerate_sites(nl);
        assert_eq!(sim_sites.len(), lint_sites.len(), "site counts differ on {}", nl.name());
        for (a, b) in sim_sites.iter().zip(&lint_sites) {
            assert_eq!((a.net, a.stuck_at), (b.net, b.stuck_at));
        }
    }
}
