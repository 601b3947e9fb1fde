//! `table1`: the cold 20-cell Table-I grid, the paper's own workload.
//!
//! Each iteration builds a fresh `ExperimentEngine` (so no memoized model
//! carries over) and runs the whole grid at [`THREADS`] workers. Every row
//! must verify with zero gate-level mismatches, every grid must equal the
//! first bit for bit, and the models must equal the ones admitted in setup.
//!
//! The traced run replays every cell stage by stage through the crates'
//! public functions, single-threaded, timing each stage, and requires each
//! replayed `DesignReport` to equal the engine's row bit for bit.

use crate::{stats, Outcome, THREADS};
use pe_core::engine::{default_threads, ExperimentEngine};
use pe_core::pipeline::{build_netlist, cycles_per_inference, Prepared, PreparedModel, RunOptions};
use pe_core::styles::{default_params, DesignStyle, WeightPrecision};
use pe_core::{DesignReport, Table1};
use pe_data::{train_test_split, Normalizer, UciProfile};
use pe_fixed::search::{search_lowest_width, SearchSpec};
use pe_ml::linear::SvmTrainParams;
use pe_ml::mlp::{Mlp, MlpTrainParams};
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::{QuantizedMlp, QuantizedSvm};
use pe_serve::{ModelKey, ModelRegistry};
use pe_sim::{LaneWidth, Simulator};
use std::time::{Duration, Instant};

/// Runs the workload.
pub fn run(opts: &RunOptions, registry: &ModelRegistry, seconds: Duration, trace: bool) -> Outcome {
    let mut out = Outcome { latency_of: "one cold 20-cell grid", ..Outcome::default() };
    let mut reference: Option<Table1> = None;
    let mut grid_s = Vec::new();
    let mut cells = 0usize;
    let mut replays = Vec::new();
    let start = Instant::now();
    loop {
        let engine = ExperimentEngine::table1_grid(opts.clone()).with_threads(THREADS);
        let t0 = Instant::now();
        let table = engine.run();
        grid_s.push(t0.elapsed().as_secs_f64());
        cells += table.rows.len();
        out.attempted += table.rows.len() as u64;
        let reference = reference.get_or_insert_with(|| {
            check_against_registry(&table, registry, &mut out);
            table.clone()
        });
        for (i, row) in table.rows.iter().enumerate() {
            if row.mismatches != 0 || *row != reference.rows[i] {
                out.failed += 1;
                out.note(format!(
                    "row {i} ({} {}) failed: {} mismatches, equal to first grid: {}",
                    row.dataset,
                    row.style.label(),
                    row.mismatches,
                    *row == reference.rows[i]
                ));
            }
        }
        if trace {
            let replay = Replay::run(engine.jobs().iter().map(|j| (j.profile, j.style)), opts);
            for (i, row) in replay.rows.iter().enumerate() {
                out.attempted += 1;
                if *row != table.rows[i] {
                    out.failed += 1;
                    out.note(format!(
                        "replayed row {i} ({} {}) differs from the engine's",
                        row.dataset,
                        row.style.label()
                    ));
                }
            }
            replays.push(replay);
        }
        if start.elapsed() >= seconds {
            break;
        }
    }
    out.ops_per_s = cells as f64 / grid_s.iter().sum::<f64>();
    out.latencies_s = grid_s;
    let reference = reference.expect("at least one grid ran");
    let markdown = reference.to_markdown();
    out.note(format!(
        "table1_s {:.4} s (median of {} cold grids at {THREADS} threads)",
        stats::median(&out.latencies_s),
        out.latencies_s.len()
    ));
    out.note(format!(
        "table1_digest fnv1a64:{:016x} over {} bytes of Table-I markdown (seed {})",
        stats::fnv1a64(markdown.as_bytes()),
        markdown.len(),
        opts.seed
    ));
    if !replays.is_empty() {
        report_stages(&replays, &mut out);
    }
    out
}

/// The engine and the serving registry prepare models through the same
/// pipeline; their accuracies and widths must agree.
fn check_against_registry(table: &Table1, registry: &ModelRegistry, out: &mut Outcome) {
    for (row, key) in table.rows.iter().zip(ModelKey::table1_grid()) {
        let entry = registry.get(key);
        out.attempted += 1;
        let same = row.style == key.style
            && row.dataset == key.profile.name()
            && row.accuracy_pct == entry.prepared.quant_accuracy * 100.0
            && row.weight_bits == entry.prepared.weight_bits
            && row.num_cells == entry.netlist.num_cells();
        if !same {
            out.failed += 1;
            out.note(format!("engine row for {} disagrees with the admitted model", key.token()));
        }
    }
}

/// Seconds spent in each stage of one grid replay, plus work counts.
#[derive(Debug, Default, Clone)]
struct Stages {
    generate: f64,
    split_normalize: f64,
    train: f64,
    train_calls: u64,
    search: f64,
    search_candidates: u64,
    build_netlist: f64,
    verify: f64,
    sta: f64,
    area: f64,
    power: f64,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.generate
            + self.split_normalize
            + self.train
            + self.search
            + self.build_netlist
            + self.verify
            + self.sta
            + self.area
            + self.power
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// One single-threaded, stage-by-stage replay of the grid.
struct Replay {
    rows: Vec<DesignReport>,
    stages: Stages,
    wall_s: f64,
    slowest_cell_s: f64,
}

impl Replay {
    fn run(cells: impl Iterator<Item = (UciProfile, DesignStyle)>, opts: &RunOptions) -> Self {
        let mut stages = Stages::default();
        let mut rows = Vec::new();
        let mut slowest_cell_s: f64 = 0.0;
        let t0 = Instant::now();
        for (profile, style) in cells {
            let c0 = Instant::now();
            let prepared = replay_prepare(profile, style, opts, &mut stages);
            rows.push(replay_run(profile, style, &prepared, opts, &mut stages));
            slowest_cell_s = slowest_cell_s.max(c0.elapsed().as_secs_f64());
        }
        Replay { rows, stages, wall_s: t0.elapsed().as_secs_f64(), slowest_cell_s }
    }
}

/// `pe_core::pipeline::prepare_model`, stage by stage. The precision search
/// scores every candidate eagerly and serially, as `prepare_model` does on
/// an engine worker whenever more than one thread is available.
fn replay_prepare(
    profile: UciProfile,
    style: DesignStyle,
    opts: &RunOptions,
    st: &mut Stages,
) -> Prepared {
    let params = default_params(style, profile);
    let data = timed(&mut st.generate, || profile.generate(opts.seed));
    let (train_q, test) = timed(&mut st.split_normalize, || {
        let (train, test) = train_test_split(&data, opts.test_fraction, opts.seed);
        let norm = Normalizer::fit(&train);
        let (train, test) = (norm.apply(&train), norm.apply(&test));
        (train.quantize_inputs(params.input_bits), test)
    });
    if style == DesignStyle::ParallelMlp {
        let arch = params.mlp.expect("MLP style has an architecture");
        st.train_calls += 1;
        let (mlp, float_accuracy) = timed(&mut st.train, || {
            let mlp = Mlp::train(
                &train_q,
                &MlpTrainParams {
                    hidden: arch.hidden,
                    epochs: arch.epochs,
                    seed: opts.seed ^ 0x4d4c50,
                    ..MlpTrainParams::default()
                },
            );
            let acc = mlp.accuracy(&test);
            (mlp, acc)
        });
        let weight_bits = match params.weight_precision {
            WeightPrecision::Fixed(w) => w,
            WeightPrecision::Search { max, .. } => max,
        };
        let (q, quant_accuracy) = timed(&mut st.search, || {
            let q = QuantizedMlp::quantize(
                &mlp,
                &train_q,
                params.input_bits,
                weight_bits,
                arch.hidden_bits,
            );
            let acc = q.accuracy(&test);
            (q, acc)
        });
        return Prepared {
            model: PreparedModel::Mlp(q),
            float_accuracy,
            quant_accuracy,
            weight_bits,
            input_bits: params.input_bits,
            test,
        };
    }
    let scheme = if style == DesignStyle::SequentialSvm {
        MulticlassScheme::OneVsRest
    } else {
        MulticlassScheme::OneVsOne
    };
    let train_svm = |balance_classes: bool| {
        SvmModel::train(
            &train_q,
            scheme,
            &SvmTrainParams {
                seed: opts.seed ^ 0x53564d,
                balance_classes,
                ..SvmTrainParams::default()
            },
        )
    };
    st.train_calls += if scheme == MulticlassScheme::OneVsRest { 2 } else { 1 };
    let (model, float_accuracy) = timed(&mut st.train, || {
        let model = if scheme == MulticlassScheme::OneVsRest {
            let balanced = train_svm(true);
            let unweighted = train_svm(false);
            if balanced.accuracy(&train_q) >= unweighted.accuracy(&train_q) {
                balanced
            } else {
                unweighted
            }
        } else {
            train_svm(false)
        };
        let acc = model.accuracy(&test);
        (model, acc)
    });
    let mut candidates = 0u64;
    let (weight_bits, q, quant_accuracy) = timed(&mut st.search, || {
        let (weight_bits, q) = match params.weight_precision {
            WeightPrecision::Fixed(w) => (w, QuantizedSvm::quantize(&model, params.input_bits, w)),
            WeightPrecision::Search { min, max, tolerance } => {
                let reference = model.accuracy(&train_q);
                let spec = SearchSpec::new(min, max, tolerance, reference);
                let mut score = |w| {
                    candidates += 1;
                    QuantizedSvm::quantize(&model, params.input_bits, w).accuracy(&train_q)
                };
                let widths: Vec<u32> = (min..=max).collect();
                let outcome = if default_threads(widths.len()) <= 1 {
                    search_lowest_width(spec, score)
                } else {
                    let accuracies: Vec<f64> = widths.iter().map(|&w| score(w)).collect();
                    search_lowest_width(spec, |w| accuracies[(w - min) as usize])
                };
                (outcome.width, QuantizedSvm::quantize(&model, params.input_bits, outcome.width))
            }
        };
        let q = match params.csd_terms {
            Some(terms) => q.approximate_csd(terms),
            None => q,
        };
        let acc = q.accuracy(&test);
        (weight_bits, q, acc)
    });
    st.search_candidates += candidates;
    Prepared {
        model: PreparedModel::Svm(q),
        float_accuracy,
        quant_accuracy,
        weight_bits,
        input_bits: params.input_bits,
        test,
    }
}

/// `pe_core::pipeline::run_prepared`, stage by stage.
fn replay_run(
    profile: UciProfile,
    style: DesignStyle,
    prepared: &Prepared,
    opts: &RunOptions,
    st: &mut Stages,
) -> DesignReport {
    let nl = timed(&mut st.build_netlist, || build_netlist(style, prepared));
    let cycles = cycles_per_inference(style, prepared);
    let (verified, mismatches, activity) = timed(&mut st.verify, || {
        let n_sim = prepared.test.len().min(opts.max_sim_samples);
        let (vectors, goldens): (Vec<Vec<i64>>, Vec<usize>) = (0..n_sim)
            .map(|i| {
                let (x, _) = prepared.test.sample(i);
                match &prepared.model {
                    PreparedModel::Svm(q) => {
                        let xq = q.quantize_input(x);
                        let g = q.predict_int(&xq);
                        (xq, g)
                    }
                    PreparedModel::Mlp(q) => {
                        let xq = q.quantize_input(x);
                        let g = q.predict_int(&xq);
                        (xq, g)
                    }
                }
            })
            .unzip();
        let mut sim = Simulator::new(&nl).expect("generated designs are acyclic");
        sim.set_batch_mode(opts.batch_mode);
        sim.set_lane_width(opts.lane_width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)));
        sim.set_event_driven(opts.event_driven);
        sim.enable_activity();
        let cycles_per_vector = if style == DesignStyle::SequentialSvm { cycles } else { 0 };
        let batch = sim.run_batch(&vectors, cycles_per_vector, "class");
        let mismatches =
            batch.outputs.iter().zip(&goldens).filter(|(&got, &want)| got as usize != want).count();
        (batch.outputs.len(), mismatches, sim.activity())
    });
    let timing = timed(&mut st.sta, || {
        pe_synth::analyze_timing(&nl, &opts.lib, &opts.tech).expect("generated designs are acyclic")
    });
    let area = timed(&mut st.area, || pe_synth::analyze_area(&nl, &opts.lib));
    let power = timed(&mut st.power, || {
        pe_synth::analyze_power(&nl, &opts.lib, &opts.tech, &activity, timing.freq_hz)
            .expect("generated designs are acyclic")
    });
    let latency_ms = cycles as f64 * timing.clock_period_ms;
    DesignReport {
        dataset: profile.name().to_owned(),
        style,
        accuracy_pct: prepared.quant_accuracy * 100.0,
        float_accuracy_pct: prepared.float_accuracy * 100.0,
        area_cm2: area.total_cm2,
        power_mw: power.total_mw,
        static_mw: power.static_mw,
        dynamic_mw: power.dynamic_mw,
        freq_hz: timing.freq_hz,
        cycles,
        latency_ms,
        energy_mj: power.total_mw * latency_ms / 1000.0,
        num_cells: nl.num_cells(),
        num_ffs: nl.num_seq_cells(),
        input_bits: prepared.input_bits,
        weight_bits: prepared.weight_bits,
        verified_samples: verified,
        mismatches,
        group_area_cm2: area.by_group.clone(),
        group_power_mw: power.by_group.clone(),
    }
}

/// Per-layer metrics: stage seconds per replayed grid (averaged over the
/// run's replays), work counts per grid, coverage and the straggler cell.
fn report_stages(replays: &[Replay], out: &mut Outcome) {
    let n = replays.len() as f64;
    let mean = |f: fn(&Stages) -> f64| replays.iter().map(|r| f(&r.stages)).sum::<f64>() / n;
    out.layer("pe-data.generate_s", mean(|s| s.generate));
    out.layer("pe-data.split_normalize_s", mean(|s| s.split_normalize));
    out.layer("pe-ml.train_s", mean(|s| s.train));
    out.layer("pe-ml.train_calls", mean(|s| s.train_calls as f64));
    out.layer("pe-fixed.precision_search_s", mean(|s| s.search));
    out.layer("pe-fixed.search_candidates", mean(|s| s.search_candidates as f64));
    out.layer("pe-core.build_netlist_s", mean(|s| s.build_netlist));
    out.layer("pe-sim.verify_batch_s", mean(|s| s.verify));
    out.layer("pe-synth.sta_s", mean(|s| s.sta));
    out.layer("pe-synth.area_s", mean(|s| s.area));
    out.layer("pe-synth.power_s", mean(|s| s.power));
    let stage_sum: f64 = replays.iter().map(|r| r.stages.sum()).sum();
    let wall: f64 = replays.iter().map(|r| r.wall_s).sum();
    out.layer("table1.stage_sum_frac", stage_sum / wall);
    let stragglers: Vec<f64> = replays.iter().map(|r| r.slowest_cell_s).collect();
    out.layer("table1.straggler_s", stats::median(&stragglers));
    out.note(format!(
        "replay: {} single-thread grid replay(s), {:.4} s each, stages cover {:.4} of it",
        replays.len(),
        wall / n,
        stage_sum / wall
    ));
}
