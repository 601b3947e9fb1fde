//! Yield/robustness study: single-stuck-at fault campaigns on the Table-I
//! classifier circuits. Printed fabrication defects are frequent; this
//! measures how many faults actually flip classifications on a real
//! workload (faults masked by quantization/argmax margins are benign) — on
//! both a fully-parallel baseline datapath **and** the paper's headline
//! sequential SVM, whose clocked campaign judges faults per classification
//! under the per-classification reset protocol.
//!
//! Campaigns run through `pe_sim::Campaign`, PPSFP-style: up to `64 * W`
//! fault sites per bit-sliced slab (the lane width `W` auto-picked per
//! shard, or forced with `--width`), one faulty machine per lane, every
//! workload pattern driven broadcast — and the site list is additionally
//! sharded across `parallel_map` workers in slab-aligned chunks, so the
//! campaign parallelizes across threads *and* lanes. Each worker schedules
//! one simulator and reuses it for its whole shard via per-lane
//! force/release. Every campaign additionally reports its cone-scheduling
//! stats: chunks evaluated through their fanout cone vs full-sweep
//! fallbacks, and the cell evaluations saved vs cone-off.
//!
//! Usage: `cargo run --release -p pe-bench --bin faults
//!         [max_sites] [--compare] [--width 1|2|4|8] [--events]`
//!
//! `--compare` adds three checks and fails on any mismatch:
//!
//! * the rebuild-per-site oracle (`pe_sim::faults::oracle`) on a subsample
//!   of the sites must reproduce the campaign's report (the measured
//!   speedup is printed). Verdicts are width-invariant, so `--compare` at a
//!   widened occupancy checks the wide engine against the oracle;
//! * the live `SimProfile` recorder must reconcile exactly with the
//!   campaign's exit `ConeStats`;
//! * classifications *and* toggle/activity counters must be bit-identical
//!   between the scalar and bit-sliced engines on the same workload batch;
//!   `--events` adds the event-driven (dirty-cell worklist) engine.

use pe_core::engine::{self, ExperimentEngine, Job};
use pe_core::pipeline::{build_netlist, cycles_per_inference, fault_workload, RunOptions};
use pe_core::styles::DesignStyle;
use pe_data::UciProfile;
use pe_netlist::Netlist;
use pe_obs::{ProfileRecorder, ProfileSnapshot};
use pe_sim::faults::{
    enumerate_fault_sites, oracle, Campaign, ConeMode, ConeStats, FaultReport, FaultSite,
};
use pe_sim::{BatchMode, LaneWidth, Simulator};
use std::time::Instant;

/// Workload size: real test samples driven per fault site.
const WORKLOAD: usize = 40;

/// Site cap for the rebuild-per-site oracle timing (it is slow by design).
const ORACLE_CAP: usize = 192;

/// Splits the site list into per-worker shards whose sizes are multiples of
/// the sweep's lane capacity (except the last) — `64 * W` when a width is
/// forced, 64 otherwise — so no worker simulates half-empty PPSFP sweeps.
fn sweep_aligned_shards(
    sites: &[FaultSite],
    threads: usize,
    width: Option<LaneWidth>,
) -> Vec<Vec<FaultSite>> {
    let lanes = width.map_or(64, LaneWidth::lanes);
    let per_worker = sites.len().div_ceil(threads.max(1)).next_multiple_of(lanes);
    sites.chunks(per_worker.max(lanes)).map(<[_]>::to_vec).collect()
}

fn merge(partials: Vec<FaultReport>) -> FaultReport {
    partials.into_iter().fold(FaultReport { critical: 0, benign: 0, total: 0 }, |acc, r| {
        FaultReport {
            critical: acc.critical + r.critical,
            benign: acc.benign + r.benign,
            total: acc.total + r.total,
        }
    })
}

/// Runs one campaign over site shards on the worker pool and returns the
/// merged report with its wall-clock seconds.
fn run_sharded(
    shards: &[Vec<FaultSite>],
    threads: usize,
    path: impl Fn(&[FaultSite]) -> FaultReport + Sync,
) -> (FaultReport, f64) {
    let t0 = Instant::now();
    let partials = engine::parallel_map(shards, threads, |shard| path(shard));
    (merge(partials), t0.elapsed().as_secs_f64())
}

/// The sharded campaign path: [`Campaign::run`] at the `--width` override
/// (auto-picked per shard when absent).
fn ppsfp_path<'a>(
    nl: &'a Netlist,
    workload: &'a [Vec<(String, i64)>],
    cycles: u64,
    width: Option<LaneWidth>,
) -> impl Fn(&[FaultSite]) -> FaultReport + Sync + 'a {
    move |sites| {
        let campaign = Campaign { width, ..Campaign::default() };
        campaign.run(nl, sites, workload, "class", cycles).expect("acyclic").0
    }
}

/// The rebuild-per-site reference path.
fn oracle_path<'a>(
    nl: &'a Netlist,
    workload: &'a [Vec<(String, i64)>],
    cycles: u64,
) -> impl Fn(&[FaultSite]) -> FaultReport + Sync + 'a {
    move |sites| {
        if cycles == 0 {
            oracle::fault_campaign_comb(nl, sites, workload, "class")
        } else {
            oracle::fault_campaign_seq(nl, sites, workload, "class", cycles)
        }
        .expect("acyclic")
    }
}

/// Runs the whole (unsharded) campaign at one explicit [`ConeMode`] with a
/// live [`ProfileRecorder`] installed, returning the report, the campaign's
/// exit work accounting, and the recorder's view of the same run (the
/// reconciliation pair).
fn cone_run(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    cycles: u64,
    width: LaneWidth,
    cone: ConeMode,
) -> (FaultReport, ConeStats, ProfileSnapshot) {
    let recorder = ProfileRecorder::new();
    let campaign = Campaign { width: Some(width), cone, profile: Some(&recorder) };
    let (report, stats) = campaign.run(nl, sites, workload, "class", cycles).expect("acyclic");
    (report, stats, recorder.snapshot())
}

/// The `--compare` gate for the observability layer: the [`SimProfile`]
/// recorder fed chunk-by-chunk during the campaign must reconcile exactly
/// with the campaign's exit-summary [`ConeStats`] — same chunk counts, same
/// cone/fallback split, same total cell evaluations (golden run included).
fn assert_profile_reconciles(label: &str, prof: &ProfileSnapshot, stats: &ConeStats, sites: usize) {
    assert_eq!(prof.chunks, stats.chunks as u64, "{label}: recorder chunk count");
    assert_eq!(prof.cone_chunks, stats.cone_chunks as u64, "{label}: recorder cone chunks");
    assert_eq!(
        prof.fallback_chunks, stats.fallback_chunks as u64,
        "{label}: recorder fallback chunks"
    );
    assert_eq!(prof.campaign_cell_evals, stats.cell_evals, "{label}: recorder cell evals");
    assert_eq!(prof.campaign_sites, sites as u64, "{label}: recorder site count");
}

/// The activity gate of `--compare`: classifications *and*
/// toggle/activity counters must be bit-identical between the scalar
/// reference and the bit-sliced full-sweep engine at the same width — and,
/// with `--events`, the event-driven worklist engine too.
fn activity_crosscheck(
    nl: &Netlist,
    workload: &[Vec<(String, i64)>],
    cycles: u64,
    width: LaneWidth,
    events: bool,
) {
    let vectors: Vec<Vec<i64>> =
        workload.iter().map(|e| e.iter().map(|(_, v)| *v).collect()).collect();
    let run = |mode: BatchMode, ev: bool| {
        let mut sim = Simulator::new(nl).expect("acyclic");
        sim.set_batch_mode(mode);
        sim.set_lane_width(width);
        sim.set_event_driven(ev);
        sim.enable_activity();
        let batch = sim.run_batch(&vectors, cycles, "class");
        (batch, sim.activity())
    };
    let (want_batch, want_act) = run(BatchMode::Scalar, false);
    let (full_batch, full_act) = run(BatchMode::BitSliced, false);
    assert_eq!(full_batch, want_batch, "bit-sliced batch diverged from scalar");
    assert_eq!(full_act, want_act, "bit-sliced toggle counters diverged from scalar");
    if events {
        let (ev_batch, ev_act) = run(BatchMode::BitSliced, true);
        assert_eq!(ev_batch, want_batch, "event-driven batch diverged from scalar");
        assert_eq!(ev_act, want_act, "event-driven toggle counters diverged from scalar");
    }
    println!(
        "activity check   : scalar == bit-sliced{} ({} toggles over {} vectors)",
        if events { " == event-driven" } else { "" },
        want_act.total_toggles(),
        vectors.len()
    );
}

/// The CLI knobs, shared verbatim by both campaign styles.
struct CampaignOpts {
    max_sites: usize,
    compare: bool,
    events: bool,
    width: Option<LaneWidth>,
    threads: usize,
}

fn campaign(
    engine: &ExperimentEngine,
    profile: UciProfile,
    style: DesignStyle,
    opts: &CampaignOpts,
) {
    let CampaignOpts { max_sites, compare, events, width, threads } = *opts;
    let prepared = engine.prepared(profile, style);
    let nl = build_netlist(style, &prepared);
    // Clock ticks per classification; 0 runs the combinational campaign.
    let cycles = match style {
        DesignStyle::SequentialSvm => cycles_per_inference(style, &prepared),
        _ => 0,
    };
    let workload = fault_workload(&prepared, WORKLOAD);
    let mut sites = enumerate_fault_sites(&nl);
    let all = sites.len();
    let step = pe_bench::sample_step(all, max_sites);
    sites = sites.into_iter().step_by(step).collect();
    let shards = sweep_aligned_shards(&sites, threads, width);
    eprintln!(
        "[{} {}] {} sites (of {} candidates), {} workload vectors, {} threads, {} shards, \
         width {}...",
        profile.name(),
        style.label(),
        sites.len(),
        all,
        workload.len(),
        threads,
        shards.len(),
        width.map_or("auto".to_owned(), |w| format!("{w} ({} lanes/sweep)", w.lanes())),
    );
    let (report, secs) = run_sharded(&shards, threads, ppsfp_path(&nl, &workload, cycles, width));

    let kind = if cycles == 0 {
        "combinational".to_owned()
    } else {
        format!("sequential, {cycles} cycles/classification")
    };
    println!(
        "# Single-stuck-at fault campaign ({}, {}; {})\n",
        profile.name(),
        style.label(),
        kind
    );
    println!("faults simulated : {} ({:.2} s PPSFP)", report.total, secs);
    println!("critical         : {} ({:.1} %)", report.critical, 100.0 * report.criticality());
    println!("benign (masked)  : {}", report.benign);

    // Cone-scheduling accounting: one unsharded pass with cones on and one
    // with cones off, both asserted bit-identical to the sharded campaign.
    let eff_width = width.unwrap_or_else(|| LaneWidth::for_sites(sites.len()));
    let (auto_report, auto_stats, auto_prof) =
        cone_run(&nl, &sites, &workload, cycles, eff_width, ConeMode::Auto);
    assert_eq!(auto_report, report, "cone-scheduled report must match the sharded campaign");
    let (never_report, never_stats, never_prof) =
        cone_run(&nl, &sites, &workload, cycles, eff_width, ConeMode::Never);
    assert_eq!(never_report, report, "cone-off report must match the sharded campaign");
    let avoided =
        100.0 * (1.0 - auto_stats.cell_evals as f64 / never_stats.cell_evals.max(1) as f64);
    println!(
        "cone scheduling  : {}/{} chunks through fanout cones ({} full-sweep fallback)",
        auto_stats.cone_chunks, auto_stats.chunks, auto_stats.fallback_chunks
    );
    println!(
        "cell evaluations : {} cone-scheduled vs {} full-sweep ({:.1} % avoided)",
        auto_stats.cell_evals, never_stats.cell_evals, avoided
    );
    // The same numbers as seen *during* the run by the SimProfile hook —
    // what a live dashboard would read mid-campaign.
    println!(
        "live profile     : {} chunks over {} sites, {} cell evals (SimProfile recorder)",
        auto_prof.chunks, auto_prof.campaign_sites, auto_prof.campaign_cell_evals
    );
    if compare {
        assert_profile_reconciles("cone auto", &auto_prof, &auto_stats, sites.len());
        assert_profile_reconciles("cone never", &never_prof, &never_stats, sites.len());
        println!("profile check    : SimProfile recorder == exit ConeStats (auto and never)");

        let oracle_sites: Vec<FaultSite> =
            sites.iter().copied().step_by(pe_bench::sample_step(sites.len(), ORACLE_CAP)).collect();
        let oracle_shards = sweep_aligned_shards(&oracle_sites, threads, width);
        let (ora, ora_secs) =
            run_sharded(&oracle_shards, threads, oracle_path(&nl, &workload, cycles));
        let (ppsfp_sub, ppsfp_sub_secs) =
            run_sharded(&oracle_shards, threads, ppsfp_path(&nl, &workload, cycles, width));
        assert_eq!(ora, ppsfp_sub, "oracle report must match PPSFP on the subsample");
        let per_site = |s: f64, n: usize| 1e6 * s / n.max(1) as f64;
        println!(
            "\nper-site cost    : {:.1} µs PPSFP | {:.1} µs rebuild oracle",
            per_site(secs, report.total),
            per_site(ora_secs, ora.total)
        );
        println!(
            "speedup          : {:.0}x vs serial-site rebuild oracle",
            per_site(ora_secs, ora.total) / per_site(ppsfp_sub_secs, ppsfp_sub.total).max(1e-9)
        );
        activity_crosscheck(
            &nl,
            &workload,
            cycles,
            width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)),
            events,
        );
    }
    println!();
}

fn main() {
    let mut max_sites: usize = 0; // 0 = the full site list
    let mut compare = false;
    let mut events = false;
    let mut width: Option<LaneWidth> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--compare" {
            compare = true;
        } else if arg == "--events" {
            events = true;
        } else if arg == "--width" {
            width = match it.next().as_deref().and_then(LaneWidth::parse) {
                Some(w) => Some(w),
                None => {
                    eprintln!("faults: --width needs 1|2|4|8 (words) or 64|128|256|512 (lanes)");
                    std::process::exit(2);
                }
            };
        } else if let Ok(n) = arg.parse() {
            max_sites = n;
        } else {
            eprintln!("usage: faults [max_sites] [--compare] [--width 1|2|4|8] [--events]");
            std::process::exit(2);
        }
    }
    let profile = UciProfile::Cardio;
    let engine = ExperimentEngine::new(
        vec![
            Job::new(profile, DesignStyle::ParallelSvm),
            Job::new(profile, DesignStyle::SequentialSvm),
        ],
        RunOptions::default(),
    );
    let opts =
        CampaignOpts { max_sites, compare, events, width, threads: pe_bench::grid_threads() };
    // The fully-parallel baseline (combinational campaign) and the paper's
    // sequential SVM (clocked campaign) — the headline design's robustness
    // was previously never measured here.
    campaign(&engine, profile, DesignStyle::ParallelSvm, &opts);
    campaign(&engine, profile, DesignStyle::SequentialSvm, &opts);
    println!("Reading: a substantial fraction of printed defects never flips a");
    println!("prediction — classification margins absorb them — which is why bespoke");
    println!("printed classifiers tolerate printing yields that would kill a CPU.");
}
