//! Always-on router telemetry counters.
//!
//! Every [`crate::Router`] keeps per-port/per-VC counters that cost a
//! handful of integer adds on paths the router already executes: flits
//! forwarded per traffic class, crossbar-mux conflicts, credit-stall
//! cycles and sampled VC-buffer occupancy. They exist so scheduler-bias or
//! flow-control bugs show up as counter asymmetries instead of anecdotes,
//! and their network-wide totals serialize to the machine-readable bench
//! output via [`NetCounters::to_json`].

use metrics::Json;

/// How often (in cycles) the crossbar samples input-buffer occupancy.
///
/// Sampling happens on active cycles only: a router that is idle (and
/// skipped by the driver's quiescence-horizon jump) records no samples,
/// which is the interesting regime anyway — an idle router's buffers are
/// empty. The crossbar stage asserts this invariant (`debug_assert` on
/// `Router::has_work`), and a skipped span therefore contributes neither
/// samples nor occupancy sums; mean occupancy is a *busy-cycle* mean, not
/// a wall-clock mean, regardless of how many cycles the driver jumps.
pub const OCCUPANCY_SAMPLE_PERIOD: u64 = 1024;

/// Quiescence-skip effectiveness counters, kept by the network driver.
///
/// Always on (two integer adds per stepped cycle or jump) but *not* part
/// of [`NetCounters`]: skip behaviour is a property of the driver, not of
/// the simulated machine — an audited run steps extra due-cycles and so
/// skips less, while producing bit-identical simulation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Cycles actually executed through the step pipeline.
    pub cycles_stepped: u64,
    /// Cycles jumped over because the network was quiescent.
    pub cycles_skipped: u64,
    /// Number of horizon jumps taken (each skips ≥ 1 cycle).
    pub horizon_jumps: u64,
}

impl SkipStats {
    /// Total simulated cycles this driver advanced (stepped + skipped).
    pub fn simulated_cycles(&self) -> u64 {
        self.cycles_stepped + self.cycles_skipped
    }

    /// Fraction of simulated cycles that were skipped (0.0 when nothing
    /// was simulated).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.simulated_cycles();
        if total == 0 {
            0.0
        } else {
            self.cycles_skipped as f64 / total as f64
        }
    }

    /// The skip counters as a flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles_stepped", Json::Uint(self.cycles_stepped)),
            ("cycles_skipped", Json::Uint(self.cycles_skipped)),
            ("horizon_jumps", Json::Uint(self.horizon_jumps)),
            ("skip_ratio", Json::num(self.skip_ratio())),
        ])
    }
}

/// Counters for one physical channel (its input and output side).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Real-time (VBR/CBR) flits this output port transmitted.
    pub rt_flits: u64,
    /// Best-effort flits this output port transmitted.
    pub be_flits: u64,
    /// Crossbar input-mux conflicts at this input port: one count per
    /// eligible VC that lost its arbitration cycle (point A).
    pub mux_conflicts: u64,
    /// Per output VC: cycles its staged head flit was ready to transmit
    /// but the downstream buffer had no credit.
    pub credit_stalls: Vec<u64>,
    /// Sum over samples of this input port's buffered flits (all VCs).
    pub occupancy_flits: u64,
}

impl PortCounters {
    fn new(n_vcs: usize) -> PortCounters {
        PortCounters {
            credit_stalls: vec![0; n_vcs],
            ..PortCounters::default()
        }
    }

    /// Total credit-stall cycles across this port's output VCs.
    pub fn credit_stall_cycles(&self) -> u64 {
        self.credit_stalls.iter().sum()
    }
}

/// All counters of one router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterCounters {
    /// Per-physical-channel counters.
    pub ports: Vec<PortCounters>,
    /// Number of occupancy sampling events taken so far.
    pub occupancy_samples: u64,
}

impl RouterCounters {
    /// Zeroed counters for a router with `n_ports` channels of `n_vcs`
    /// VCs each.
    pub fn new(n_ports: usize, n_vcs: usize) -> RouterCounters {
        RouterCounters {
            ports: (0..n_ports).map(|_| PortCounters::new(n_vcs)).collect(),
            occupancy_samples: 0,
        }
    }

    /// Sums this router's counters into one [`NetCounters`] record.
    pub fn totals(&self) -> NetCounters {
        let mut t = NetCounters::default();
        for p in &self.ports {
            t.rt_flits += p.rt_flits;
            t.be_flits += p.be_flits;
            t.mux_conflicts += p.mux_conflicts;
            t.credit_stall_cycles += p.credit_stall_cycles();
            t.occupancy_flits += p.occupancy_flits;
        }
        t.occupancy_samples = self.occupancy_samples;
        t
    }
}

/// Network-wide counter totals, embedded in every simulation outcome.
///
/// `Copy` and cheaply mergeable so parallel sweeps can aggregate it the
/// same deterministic way they merge latency statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Real-time flits transmitted by router output ports.
    pub rt_flits: u64,
    /// Best-effort flits transmitted by router output ports.
    pub be_flits: u64,
    /// Crossbar input-mux conflict count (losing eligible VCs).
    pub mux_conflicts: u64,
    /// Cycles an output VC's head flit waited on credits.
    pub credit_stall_cycles: u64,
    /// Occupancy sampling events.
    pub occupancy_samples: u64,
    /// Summed sampled input-buffer occupancy (flits).
    pub occupancy_flits: u64,
}

impl NetCounters {
    /// Adds `other` into `self` (for merging routers or sweep replicas).
    pub fn absorb(&mut self, other: &NetCounters) {
        self.rt_flits += other.rt_flits;
        self.be_flits += other.be_flits;
        self.mux_conflicts += other.mux_conflicts;
        self.credit_stall_cycles += other.credit_stall_cycles;
        self.occupancy_samples += other.occupancy_samples;
        self.occupancy_flits += other.occupancy_flits;
    }

    /// Mean sampled buffer occupancy in flits, `None` without samples.
    pub fn mean_occupancy(&self) -> Option<f64> {
        (self.occupancy_samples > 0)
            .then(|| self.occupancy_flits as f64 / self.occupancy_samples as f64)
    }

    /// The totals as a flat JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rt_flits", Json::Uint(self.rt_flits)),
            ("be_flits", Json::Uint(self.be_flits)),
            ("mux_conflicts", Json::Uint(self.mux_conflicts)),
            ("credit_stall_cycles", Json::Uint(self.credit_stall_cycles)),
            ("occupancy_samples", Json::Uint(self.occupancy_samples)),
            ("mean_occupancy_flits", Json::opt_num(self.mean_occupancy())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_ports() {
        let mut c = RouterCounters::new(2, 2);
        c.ports[0].rt_flits = 3;
        c.ports[1].rt_flits = 4;
        c.ports[1].be_flits = 5;
        c.ports[0].mux_conflicts = 1;
        c.ports[0].credit_stalls[1] = 7;
        c.ports[1].credit_stalls[0] = 2;
        c.occupancy_samples = 2;
        c.ports[0].occupancy_flits = 10;
        let t = c.totals();
        assert_eq!(t.rt_flits, 7);
        assert_eq!(t.be_flits, 5);
        assert_eq!(t.mux_conflicts, 1);
        assert_eq!(t.credit_stall_cycles, 9);
        assert_eq!(t.mean_occupancy(), Some(5.0));
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = NetCounters {
            rt_flits: 1,
            be_flits: 2,
            mux_conflicts: 3,
            credit_stall_cycles: 4,
            occupancy_samples: 1,
            occupancy_flits: 8,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.rt_flits, 2);
        assert_eq!(a.occupancy_flits, 16);
    }

    #[test]
    fn empty_counters_serialize_without_nan() {
        let text = NetCounters::default().to_json().to_string();
        assert!(text.contains("\"mean_occupancy_flits\":null"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn skip_stats_ratio_and_json() {
        let s = SkipStats::default();
        assert_eq!(s.skip_ratio(), 0.0);
        let s = SkipStats {
            cycles_stepped: 25,
            cycles_skipped: 75,
            horizon_jumps: 3,
        };
        assert_eq!(s.simulated_cycles(), 100);
        assert!((s.skip_ratio() - 0.75).abs() < 1e-12);
        let text = s.to_json().to_string();
        assert!(text.contains("\"cycles_skipped\":75"));
        assert!(text.contains("\"horizon_jumps\":3"));
        assert!(!text.contains("NaN"));
    }
}
