//! The repository benchmark: one command per workload, with correctness
//! checks, end-to-end metrics and (with `--trace 1`) per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|campaign|serve|serve_tcp --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run first admits the 20 Table-I models (train, precision search,
//! netlist, lint, schedule) into a fresh `ModelRegistry` several times; the
//! median admission is `setup_s`. It then measures the workload for
//! `--seconds`, checks its outputs, prints a human-readable report and, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics. The exit code is 0 only when every output was
//! correct. See `perfbench/README.md` for the metric catalogue.

mod campaign;
mod serve;
mod stats;
mod table1;

use pe_core::engine::NullSink;
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads for grids, campaigns and model admission.
pub const THREADS: usize = 2;

/// Model admissions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A run that is still going after this long is abandoned as stalled.
const WATCHDOG: Duration = Duration::from_secs(170);

/// End-to-end metrics, printed by every untraced run: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A layer a
/// workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pe-data.generate_s", "s"),
    ("pe-data.split_normalize_s", "s"),
    ("pe-ml.train_s", "s"),
    ("pe-ml.train_calls", "count"),
    ("pe-fixed.precision_search_s", "s"),
    ("pe-fixed.search_candidates", "count"),
    ("pe-core.build_netlist_s", "s"),
    ("pe-sim.verify_batch_s", "s"),
    ("pe-synth.sta_s", "s"),
    ("pe-synth.area_s", "s"),
    ("pe-synth.power_s", "s"),
    ("table1.stage_sum_frac", "ratio"),
    ("table1.straggler_s", "s"),
    ("pe-sim.campaign_comb_s", "s"),
    ("pe-sim.campaign_seq_s", "s"),
    ("campaign.straggler_s", "s"),
    ("campaign.sites", "count"),
    ("campaign.critical", "count"),
    ("pe-lint.lint_s", "s"),
    ("pe-serve.submit_us", "us"),
    ("pe-serve.batch_fill", "ratio"),
    ("pe-serve.lane_fill", "ratio"),
    ("pe-serve.batches", "count"),
    ("pe-sim.warm_batch_us", "us"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1,
    Campaign,
    Serve,
    ServeTcp,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "table1" => Workload::Table1,
            "campaign" => Workload::Campaign,
            "serve" => Workload::Serve,
            "serve_tcp" => Workload::ServeTcp,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    model_seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload table1|campaign|serve|serve_tcp \
                     [--seed N] [--seconds S] [--trace 0|1] [--model-seed N]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut model_seed, mut seconds, mut trace) = (7u64, 7u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value.parse().map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--model-seed" => {
                model_seed =
                    value.parse().map_err(|e: std::num::ParseIntError| bad(e.to_string()))?;
            }
            "--seconds" => {
                seconds =
                    value.parse().map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad(String::new()));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, model_seed, seconds, trace })
}

/// What one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (grid cells, design campaigns and oracle-checked
    /// sites, or requests).
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// Work items completed per second.
    pub ops_per_s: f64,
    /// Per-operation latency samples, seconds.
    pub latencies_s: Vec<f64>,
    /// What one latency sample is, for the report.
    pub latency_of: &'static str,
    /// Per-layer metrics measured by a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        eprintln!("  {line}");
        self.lines.push(line);
    }
}

/// Admits all 20 Table-I models into a fresh registry `reps` times at
/// [`THREADS`] workers and returns the last registry with each admission's
/// seconds.
fn admit_models(opts: &RunOptions, reps: usize) -> (Arc<ModelRegistry>, Vec<f64>) {
    let keys = ModelKey::table1_grid();
    let mut times = Vec::with_capacity(reps);
    let mut registry = None;
    for _ in 0..reps {
        drop(registry.take());
        let t0 = Instant::now();
        let reg = ModelRegistry::new(opts.clone());
        reg.warm(&keys, THREADS, &mut NullSink);
        times.push(t0.elapsed().as_secs_f64());
        registry = Some(reg);
    }
    (Arc::new(registry.expect("at least one admission")), times)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run still going after {WATCHDOG:?}; abandoning it as stalled");
        std::process::exit(3);
    });
    let seconds = Duration::from_secs_f64(args.seconds);
    // Every workload trains its models under `--model-seed` (7 reproduces
    // the paper's grid). `--seed` draws the sampled inputs: the serving
    // request mix and arrival schedule, and the campaign's oracle sample.
    // Training data stays fixed across `--seed` values because the grid's
    // cost depends on it: one run per seed would otherwise measure a
    // different grid.
    let opts = RunOptions { seed: args.model_seed, ..RunOptions::default() };
    eprintln!(
        "perfbench: workload {:?} seed {} model seed {} seconds {} trace {} threads {THREADS} \
         (available_parallelism {})",
        args.workload,
        args.seed,
        args.model_seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let (registry, setup_times) = admit_models(&opts, SETUP_REPS);
    let setup_s = stats::median(&setup_times);
    eprintln!("  setup: {SETUP_REPS} admissions of 20 models {setup_times:.3?} s");

    let mut out = match args.workload {
        Workload::Table1 => table1::run(&opts, &registry, seconds, args.trace),
        Workload::Campaign => campaign::run(&registry, args.seed, seconds, args.trace),
        Workload::Serve => serve::run_inproc(&registry, args.seed, seconds, args.trace),
        Workload::ServeTcp => serve::run_tcp(&registry, args.seed, seconds, args.trace),
    };
    assert!(out.attempted > 0, "every workload attempts at least one operation");
    let rss = stats::peak_rss_mb().unwrap_or_else(|| {
        out.note("peak RSS unavailable (no /proc/self/status VmHWM)".to_owned());
        out.failed += 1;
        f64::MIN_POSITIVE
    });
    let n = out.latencies_s.len();
    let (p50, tail_label, tail) = if n == 0 {
        out.note("no operation completed, so no latency was measured".to_owned());
        out.failed += 1;
        (0.0, "none", 0.0)
    } else {
        // Sorted in place: a request workload holds millions of samples,
        // and a copy would show in `peak_rss_mb`.
        out.latencies_s.sort_by(f64::total_cmp);
        let (label, tail) = stats::tail(&out.latencies_s);
        (stats::median_of_sorted(&out.latencies_s), label, tail)
    };
    let of = out.latency_of;
    out.note(format!("setup_s {setup_s:.4} s (median of {SETUP_REPS} model admissions)"));
    out.note(format!(
        "latency of {of}: p50 {:.4} ms, {tail_label} {:.4} ms, n={n}",
        p50 * 1e3,
        tail * 1e3
    ));
    out.note(format!("peak_rss_mb {rss:.1} MiB"));

    let mut values: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u)| (n, u, out.layers.get(n).copied().unwrap_or(0.0))).collect()
    } else {
        // Every end-to-end metric but the last, `ok_frac`, which waits until
        // every failure has been counted.
        let e2e = [setup_s, out.ops_per_s, p50 * 1e3, tail * 1e3, rss];
        END_TO_END.iter().zip(e2e).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    for (name, _, v) in &mut values {
        if !v.is_finite() {
            out.note(format!("metric {name} is not finite"));
            out.failed += 1;
            *v = 0.0;
        }
    }
    let ok_frac = (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted as f64;
    if !args.trace {
        values.push(("ok_frac", "ratio", ok_frac));
    }
    out.note(format!(
        "fail_frac {} ({} failed / {} attempted)",
        1.0 - ok_frac,
        out.failed,
        out.attempted
    ));
    for line in &out.lines {
        println!("{line}");
    }
    let mut metrics = Vec::with_capacity(values.len());
    for (name, unit, v) in values {
        println!("{name} {v} {unit}");
        metrics.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    std::process::exit(i32::from(!correct));
}
