//! `campaign`: single-stuck-at fault campaigns over every site of all 20
//! Table-I netlists, 40-vector workloads, fanned out over designs at
//! [`THREADS`] workers through the default campaign entry points.
//!
//! Every pass must reproduce the first pass's reports exactly and cover
//! every site. Outside the timed region, a seeded sample of sites per design
//! is checked against the rebuild-per-site oracle.

use crate::{stats, Outcome, THREADS};
use pe_core::engine::parallel_map;
use pe_core::pipeline::fault_workload;
use pe_netlist::Netlist;
use pe_serve::{ModelEntry, ModelKey, ModelRegistry};
use pe_sim::faults::{enumerate_fault_sites, fault_campaign_comb, fault_campaign_seq, oracle};
use pe_sim::{FaultReport, FaultSite, LaneWidth};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload patterns driven per fault site.
const PATTERNS: usize = 40;

/// Sites per design checked against the oracle.
const ORACLE_SAMPLE: usize = 2;

/// One design's campaign inputs.
struct Design {
    entry: Arc<ModelEntry>,
    sites: Vec<FaultSite>,
    workload: Vec<Vec<(String, i64)>>,
}

impl Design {
    fn netlist(&self) -> &Netlist {
        &self.entry.netlist
    }

    /// Sequential designs run `cycles_per_vector` ticks per pattern.
    fn is_seq(&self) -> bool {
        self.entry.cycles_per_vector > 0
    }

    /// The default campaign entry point for this design.
    fn campaign(&self, sites: &[FaultSite]) -> FaultReport {
        let (nl, wl) = (self.netlist(), &self.workload);
        if self.is_seq() {
            fault_campaign_seq(nl, sites, wl, "class", self.entry.cycles_per_vector)
        } else {
            fault_campaign_comb(nl, sites, wl, "class")
        }
        .expect("admitted designs are acyclic")
    }

    /// The rebuild-per-site reference.
    fn oracle(&self, sites: &[FaultSite]) -> FaultReport {
        let (nl, wl) = (self.netlist(), &self.workload);
        if self.is_seq() {
            oracle::fault_campaign_seq(nl, sites, wl, "class", self.entry.cycles_per_vector)
        } else {
            oracle::fault_campaign_comb(nl, sites, wl, "class")
        }
        .expect("admitted designs are acyclic")
    }
}

/// Runs the workload.
pub fn run(registry: &ModelRegistry, seed: u64, seconds: Duration, trace: bool) -> Outcome {
    let mut out = Outcome { latency_of: "one full-grid campaign pass", ..Outcome::default() };
    let designs: Vec<Design> = ModelKey::table1_grid()
        .into_iter()
        .map(|key| {
            let entry = registry.get(key);
            let sites = enumerate_fault_sites(&entry.netlist);
            let workload = fault_workload(&entry.prepared, PATTERNS);
            Design { entry, sites, workload }
        })
        .collect();
    let total_sites: usize = designs.iter().map(|d| d.sites.len()).sum();

    let mut reference: Option<Vec<FaultReport>> = None;
    let mut pass_s = Vec::new();
    let (mut comb_s, mut seq_s, mut stragglers) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let results = parallel_map(&designs, THREADS, |d| {
            let t = Instant::now();
            let report = d.campaign(&d.sites);
            (report, t.elapsed().as_secs_f64())
        });
        pass_s.push(t0.elapsed().as_secs_f64());
        let reports: Vec<FaultReport> = results.iter().map(|(r, _)| r.clone()).collect();
        let reference = reference.get_or_insert_with(|| reports.clone());
        for ((d, r), want) in designs.iter().zip(&reports).zip(reference.iter()) {
            out.attempted += 1;
            if r != want || r.total != d.sites.len() {
                out.failed += 1;
                out.note(format!(
                    "campaign on {} gave {r:?}, expected {want:?}",
                    d.entry.key.token()
                ));
            }
        }
        let busy = |seq: bool| -> f64 {
            designs.iter().zip(&results).filter(|(d, _)| d.is_seq() == seq).map(|(_, r)| r.1).sum()
        };
        comb_s.push(busy(false));
        seq_s.push(busy(true));
        stragglers.push(results.iter().map(|r| r.1).fold(0.0, f64::max));
        if start.elapsed() >= seconds {
            break;
        }
    }
    let reference = reference.expect("at least one pass ran");
    check_oracle_sample(&designs, seed, &mut out);

    let critical: usize = reference.iter().map(|r| r.critical).sum();
    out.ops_per_s = (total_sites * pass_s.len()) as f64 / pass_s.iter().sum::<f64>();
    out.note(format!(
        "campaign_sites_per_s {:.1} ({total_sites} sites x {} passes, median pass {:.4} s)",
        out.ops_per_s,
        pass_s.len(),
        stats::median(&pass_s)
    ));
    out.note(format!("campaign critical {critical} of {total_sites} sites"));
    out.latencies_s = pass_s;
    if trace {
        out.layer("pe-sim.campaign_comb_s", stats::median(&comb_s));
        out.layer("pe-sim.campaign_seq_s", stats::median(&seq_s));
        out.layer("campaign.straggler_s", stats::median(&stragglers));
        out.layer("campaign.sites", total_sites as f64);
        out.layer("campaign.critical", critical as f64);
    }
    out
}

/// Checks a seeded sample of sites per design against the rebuild-per-site
/// oracle, site by site, inside the site's own chunk of the full site list
/// (packed into lanes and cone-scheduled as the timed passes run it): the
/// chunk's critical count minus that of the same chunk without the site must
/// be the oracle's verdict on the site.
fn check_oracle_sample(designs: &[Design], seed: u64, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut rng = stats::Rng::new(seed, 0xfa17);
    for d in designs {
        let lanes = LaneWidth::for_sites(d.sites.len()).lanes();
        for _ in 0..ORACLE_SAMPLE {
            let i = rng.below(d.sites.len());
            let first = i / lanes * lanes;
            let chunk = &d.sites[first..(first + lanes).min(d.sites.len())];
            let mut without = chunk.to_vec();
            without.remove(i - first);
            let got = d.campaign(chunk).critical - d.campaign(&without).critical;
            let want = d.oracle(std::slice::from_ref(&d.sites[i])).critical;
            out.attempted += 1;
            if got != want {
                out.failed += 1;
                out.note(format!(
                    "{}: site {i} {:?} critical {got} in its chunk, oracle {want}",
                    d.entry.key.token(),
                    d.sites[i]
                ));
            }
        }
    }
    out.note(format!(
        "oracle check: {ORACLE_SAMPLE} sampled sites in their chunks on each of {} designs in \
         {:.3} s",
        designs.len(),
        t0.elapsed().as_secs_f64()
    ));
}
