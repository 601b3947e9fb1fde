//! Static stuck-at fault collapsing: equivalence classes, observability
//! pruning, and dominance relations over the stuck-at fault sites of a
//! netlist.
//!
//! Three verdict-preserving reductions shrink a fault-simulation campaign:
//!
//! 1. **Equivalence.** Two faults are equivalent when no test can
//!    distinguish them — e.g. on an AND gate whose input `a` fans out
//!    nowhere else, `a` stuck-at-0 and the output stuck-at-0 produce
//!    identical circuits. A campaign needs one representative per class:
//!    every member's verdict is its representative's.
//! 2. **Observability pruning.** A fault on a net whose structural fanout
//!    cone (closed over register feedback) contains no output-port bit can
//!    never diverge an observed value: the class is *statically benign* and
//!    is not simulated at all. Bespoke classifiers carry real dead logic
//!    (dropped carry MSBs, folded compare chains — the `PL0101`/`PL0103`
//!    lints), so this prunes a substantial slice of the site list.
//! 3. **Dominance** (reported, never pruned). Fault `F` dominates `G` when
//!    every test for `G` also detects `F`, so a detection-oriented test set
//!    may drop `F`. Dominance is one-directional — *not* verdict-preserving
//!    for criticality campaigns — so it is surfaced as a statistic only.
//!
//! Equivalence rules are local-gate classics, applied only when the gate is
//! the sole reader of the input net (pin fanout 1, not exposed on a port —
//! otherwise the fault is observable around the gate):
//!
//! | gate | equivalent | dominated → dominator |
//! |---|---|---|
//! | `Buf`  | `(a,v) ≡ (y,v)` | — |
//! | `Inv`  | `(a,v) ≡ (y,!v)` | — |
//! | `And*` | `(a,0) ≡ (y,0)` | `(a,1) → (y,1)` |
//! | `Or*`  | `(a,1) ≡ (y,1)` | `(a,0) → (y,0)` |
//! | `Nand2`| `(a,0) ≡ (y,1)` | `(a,1) → (y,0)` |
//! | `Nor2` | `(a,1) ≡ (y,0)` | `(a,0) → (y,1)` |
//! | `Dff`/`DffE` | `(d,init) ≡ (q,init)` | — |
//!
//! The register rule holds because forcing `d` to the power-on value pins
//! `q` there from reset onward — exactly what `q` stuck at `init` does
//! (enable gating can only hold `q` at a value it already has).
//! `Xor`/`Xnor`/`Mux2`/`Maj3` admit no local structural collapse, and the
//! opposite-polarity register faults never merge: a `q` fault is visible at
//! cycle 0 (the power-on value), a `d` fault only one clock later.

use pe_netlist::graph::fanout_counts;
use pe_netlist::{CellKind, Driver, NetId, Netlist};

/// One stuck-at fault site: `net` permanently forced to `stuck_at`.
///
/// Field-compatible with `pe-sim`'s `FaultSite`; kept separate so the lint
/// crate stays dependency-light.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAt {
    /// The faulted net.
    pub net: NetId,
    /// The value the net is stuck at.
    pub stuck_at: bool,
}

/// The canonical stuck-at site list of a netlist: every cell-driven net in
/// ascending id order, stuck-at-0 then stuck-at-1 adjacent.
///
/// Matches `pe_sim::faults::enumerate_fault_sites` element-for-element
/// (pinned by `lint_site_enumeration_matches_sim_enumeration` in
/// `pe-bench`'s `lint_grid` tests).
#[must_use]
pub fn enumerate_sites(nl: &Netlist) -> Vec<StuckAt> {
    let mut sites = Vec::new();
    for (id, net) in nl.nets() {
        if matches!(net.driver(), Driver::Cell(_)) {
            sites.push(StuckAt { net: id, stuck_at: false });
            sites.push(StuckAt { net: id, stuck_at: true });
        }
    }
    sites
}

/// Per-net structural observability: `true` iff the net's fanout cone
/// (closed over register feedback) contains an output-port bit. A fault on
/// an unobservable net can never change any observed value.
#[must_use]
pub fn observable_nets(nl: &Netlist) -> Vec<bool> {
    let mut obs = vec![false; nl.num_nets()];
    for p in nl.output_ports() {
        for &b in p.bits() {
            obs[b.index()] = true;
        }
    }
    // Backward closure: a net is observable when some cell reading it has an
    // observable output. Cells are stored roughly topologically, so sweeping
    // them in reverse converges in one pass plus one per register stage.
    loop {
        let mut changed = false;
        for (_, cell) in nl.cells().collect::<Vec<_>>().into_iter().rev() {
            if obs[cell.output().index()] {
                for &i in cell.inputs() {
                    if !obs[i.index()] {
                        obs[i.index()] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return obs;
        }
    }
}

/// A site list partitioned into equivalence classes, split into simulated
/// and statically-benign classes, plus the dominance relation between class
/// representatives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollapsedSites {
    /// The full site list, in the order it was given.
    pub sites: Vec<StuckAt>,
    /// For every index into `sites`, the index of its class representative
    /// (the first site of the class; representatives map to themselves).
    pub rep_of: Vec<usize>,
    /// Every class representative, ascending.
    pub representatives: Vec<usize>,
    /// The representatives a campaign actually simulates: classes with at
    /// least one observable member. Subset of `representatives`, ascending.
    pub simulate: Vec<usize>,
    /// Representatives of statically-benign classes (no member can reach an
    /// output port): their whole class is benign without simulation.
    pub static_benign: Vec<usize>,
    /// `(dominated, dominator)` pairs as representative indices. Reporting
    /// only — see the module docs for why campaigns must not prune by these.
    pub dominance: Vec<(usize, usize)>,
}

impl CollapsedSites {
    /// Number of sites in the full list.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of equivalence-class representatives.
    #[must_use]
    pub fn num_representatives(&self) -> usize {
        self.representatives.len()
    }

    /// Number of sites a campaign simulates (one per observable class).
    #[must_use]
    pub fn num_simulated(&self) -> usize {
        self.simulate.len()
    }

    /// Fraction of sites a campaign no longer simulates — equivalence
    /// collapsing and observability pruning combined (0.0 for an empty
    /// list).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.sites.is_empty() {
            0.0
        } else {
            1.0 - self.simulate.len() as f64 / self.sites.len() as f64
        }
    }

    /// Distinct representatives a detection-oriented test set could
    /// additionally drop as dominators. An upper bound, for reporting.
    #[must_use]
    pub fn dominance_prunable(&self) -> usize {
        let mut doms: Vec<usize> = self.dominance.iter().map(|&(_, f)| f).collect();
        doms.sort_unstable();
        doms.dedup();
        doms.len()
    }
}

/// Union-find over fault nodes with path halving; roots are the smallest
/// member so class representatives are deterministic.
struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            let parent = self.0[x as usize];
            self.0[x as usize] = self.0[parent as usize];
            x = self.0[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

/// Collapses the canonical site list of `nl` ([`enumerate_sites`]).
#[must_use]
pub fn collapse_fault_sites(nl: &Netlist) -> CollapsedSites {
    let sites = enumerate_sites(nl);
    collapse_sites(nl, &sites)
}

/// Collapses an arbitrary site list (e.g. a sampled subset) against the
/// structure of `nl`. Classes are computed on the whole netlist; each class's
/// representative is its first member *within the given list*, so a subset
/// campaign never simulates a site outside the subset.
#[must_use]
pub fn collapse_sites(nl: &Netlist, sites: &[StuckAt]) -> CollapsedSites {
    let num_nets = nl.num_nets();
    let node = |s: StuckAt| (2 * s.net.index() + usize::from(s.stuck_at)) as u32;
    let fanout = fanout_counts(nl);
    let mut port_bit = vec![false; num_nets];
    for p in nl.ports() {
        for &b in p.bits() {
            port_bit[b.index()] = true;
        }
    }

    let mut uf = UnionFind::new(2 * num_nets);
    // Raw dominance pairs as (dominated node, dominator node).
    let mut dom_nodes: Vec<(u32, u32)> = Vec::new();
    for (_, cell) in nl.cells() {
        let y = cell.output();
        let sole_reader = |a: NetId| {
            matches!(nl.net(a).driver(), Driver::Cell(_))
                && fanout[a.index()] == 1
                && !port_bit[a.index()]
        };
        let n = |net: NetId, v: bool| node(StuckAt { net, stuck_at: v });
        match cell.kind() {
            CellKind::Buf | CellKind::Inv => {
                let a = cell.inputs()[0];
                if sole_reader(a) {
                    let flip = cell.kind() == CellKind::Inv;
                    uf.union(n(a, false), n(y, flip));
                    uf.union(n(a, true), n(y, !flip));
                }
            }
            CellKind::And2 | CellKind::And3 => {
                for &a in cell.inputs() {
                    if sole_reader(a) {
                        uf.union(n(a, false), n(y, false));
                        dom_nodes.push((n(a, true), n(y, true)));
                    }
                }
            }
            CellKind::Or2 | CellKind::Or3 => {
                for &a in cell.inputs() {
                    if sole_reader(a) {
                        uf.union(n(a, true), n(y, true));
                        dom_nodes.push((n(a, false), n(y, false)));
                    }
                }
            }
            CellKind::Nand2 => {
                for &a in cell.inputs() {
                    if sole_reader(a) {
                        uf.union(n(a, false), n(y, true));
                        dom_nodes.push((n(a, true), n(y, false)));
                    }
                }
            }
            CellKind::Nor2 => {
                for &a in cell.inputs() {
                    if sole_reader(a) {
                        uf.union(n(a, true), n(y, false));
                        dom_nodes.push((n(a, false), n(y, true)));
                    }
                }
            }
            CellKind::Dff | CellKind::DffE => {
                // Forcing d to the power-on value pins q there from reset
                // onward — indistinguishable from q stuck at init.
                let d = cell.inputs()[0];
                if sole_reader(d) {
                    uf.union(n(d, cell.init()), n(y, cell.init()));
                }
            }
            CellKind::Xor2 | CellKind::Xnor2 | CellKind::Mux2 | CellKind::Maj3 => {}
        }
    }

    // First site of each class (in list order) becomes its representative.
    let mut first_of_root = vec![usize::MAX; 2 * num_nets];
    let mut rep_of = vec![0usize; sites.len()];
    let mut representatives = Vec::new();
    for (i, &s) in sites.iter().enumerate() {
        let root = uf.find(node(s)) as usize;
        if first_of_root[root] == usize::MAX {
            first_of_root[root] = i;
            representatives.push(i);
        }
        rep_of[i] = first_of_root[root];
    }

    // A class is simulated iff any member sits on an observable net;
    // otherwise no member can diverge an output and the class is benign by
    // construction. (Sole-reader chains give all members identical cones,
    // but "any member" keeps the split conservative for exotic lists.)
    let obs = observable_nets(nl);
    let mut class_observable = vec![false; sites.len()];
    for (i, &s) in sites.iter().enumerate() {
        if obs[s.net.index()] {
            class_observable[rep_of[i]] = true;
        }
    }
    let (simulate, static_benign): (Vec<usize>, Vec<usize>) =
        representatives.iter().partition(|&&r| class_observable[r]);

    // Lift dominance onto representatives present in the list.
    let mut dominance: Vec<(usize, usize)> = dom_nodes
        .into_iter()
        .filter_map(|(g, f)| {
            let g = first_of_root[uf.find(g) as usize];
            let f = first_of_root[uf.find(f) as usize];
            (g != usize::MAX && f != usize::MAX && g != f).then_some((g, f))
        })
        .collect();
    dominance.sort_unstable();
    dominance.dedup();

    CollapsedSites {
        sites: sites.to_vec(),
        rep_of,
        representatives,
        simulate,
        static_benign,
        dominance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_netlist::testing::RawNetlistBuilder;
    use pe_netlist::{Builder, Driver};

    /// `x -> inv^n -> y` without the Builder's double-inversion folding.
    fn inv_chain(len: usize) -> (Netlist, Vec<NetId>) {
        let mut rb = RawNetlistBuilder::new("chain");
        let mut cur = rb.input("x");
        let mut nets = Vec::new();
        for _ in 0..len {
            let next = rb.net(Driver::Input);
            rb.cell(CellKind::Inv, &[cur], next);
            nets.push(next);
            cur = next;
        }
        rb.output("y", &[cur]);
        let nl = rb.finish();
        nl.validate().unwrap();
        (nl, nets)
    }

    #[test]
    fn inverter_chain_collapses_to_one_class_per_polarity() {
        // x -> inv -> inv -> inv -> y: all 6 sites fold into 2 classes.
        let (nl, _) = inv_chain(3);
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_sites(), 6);
        assert_eq!(c.num_representatives(), 2);
        assert_eq!(c.num_simulated(), 2, "everything reaches the output");
        assert!((c.reduction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn and_gate_merges_sa0_and_reports_dominance() {
        let mut b = Builder::new("and");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and2(x, y);
        b.output("z", z);
        let nl = b.finish();
        // Only z is cell-driven: inputs are primary, so 2 sites, no merge...
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_sites(), 2);
        assert_eq!(c.num_representatives(), 2);
        // ...but behind an inverter the AND's input becomes a site.
        let mut b = Builder::new("and2");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.inv(x);
        let z = b.and2(nx, y);
        b.output("z", z);
        let nl = b.finish();
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_sites(), 4);
        // (nx,0) ≡ (z,0) merges; (nx,1) and (z,1) stay separate but dominate.
        assert_eq!(c.num_representatives(), 3);
        assert_eq!(c.dominance.len(), 1);
        assert_eq!(c.dominance_prunable(), 1);
    }

    #[test]
    fn fanout_blocks_collapsing() {
        // The inverter output feeds two gates: its faults are observable on
        // two paths, so nothing may merge through either gate.
        let mut b = Builder::new("fan");
        let x = b.input("x");
        let y = b.input("y");
        let nx = b.inv(x);
        let a = b.and2(nx, y);
        let o = b.or2(nx, y);
        b.output("a", a);
        b.output("o", o);
        let nl = b.finish();
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_representatives(), c.num_sites());
        assert_eq!(c.num_simulated(), c.num_sites());
    }

    #[test]
    fn unobservable_cone_is_statically_benign() {
        // A dead xor cone hanging off the inputs: its sites never simulate.
        let mut rb = RawNetlistBuilder::new("deadcone");
        let x = rb.input("x");
        let y = rb.input("y");
        let live = rb.net(Driver::Input);
        rb.cell(CellKind::And2, &[x, y], live);
        let dead1 = rb.net(Driver::Input);
        rb.cell(CellKind::Xor2, &[x, y], dead1);
        let dead2 = rb.net(Driver::Input);
        rb.cell(CellKind::Xor2, &[dead1, y], dead2);
        rb.output("z", &[live]);
        let nl = rb.finish();
        nl.validate().unwrap();
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_sites(), 6);
        assert_eq!(c.num_simulated(), 2, "only the live AND's sites simulate");
        assert_eq!(c.static_benign.len() + c.num_simulated(), c.num_representatives());
    }

    #[test]
    fn register_init_fault_merges_with_data_pin() {
        // inv -> dff(init=0) -> output: (d,0) ≡ (q,0), polarity 1 stays.
        let mut b = Builder::new("reg");
        let x = b.input("x");
        let (q, h) = b.dff_deferred(false);
        let nx = b.inv(x);
        b.connect_dff(h, nx);
        b.output("q", q);
        let nl = b.finish();
        let c = collapse_fault_sites(&nl);
        assert_eq!(c.num_sites(), 4);
        // (nx,0)~(q,0) merge; (nx,1), (q,1) separate.
        assert_eq!(c.num_representatives(), 3);
    }

    #[test]
    fn subset_collapsing_picks_subset_representatives() {
        let (nl, nets) = inv_chain(2);
        let (n1, n2) = (nets[0], nets[1]);
        let all = enumerate_sites(&nl);
        // Drop the first net's sites: representatives must come from what
        // remains, never from outside the list.
        let subset: Vec<StuckAt> = all.iter().copied().filter(|s| s.net != n1).collect();
        let c = collapse_sites(&nl, &subset);
        assert_eq!(c.num_sites(), 2);
        assert_eq!(c.num_representatives(), 2);
        for &r in &c.representatives {
            assert_eq!(c.sites[r].net, n2);
        }
    }
}
