//! The delay-bound oracle: analytic worst-case latency per real-time
//! stream, checked against what the simulator actually observed.
//!
//! [`BoundsOracle::new`] maps a concrete experiment — topology, workload,
//! router configuration — onto the [`calculus`] crate's abstract model:
//! each real-time stream becomes a (σ, ρ) arrival curve (CBR exactly from
//! its periodic message schedule; VBR from its negotiated mean rate with
//! one mean frame of burst — the same envelope the NI policer enforces),
//! and the configured scheduler becomes a per-VC rate-latency service
//! curve at every scheduling point of the stream's deterministic route.
//!
//! After the run, [`BoundsOracle::report`] compares each stream's
//! analytic bound with two observations from the [`Network`]:
//!
//! * the **maximum measured latency** of its delivered messages, and
//! * the **age of its oldest undelivered message** — a message stuck in
//!   the fabric has already incurred that much latency, which is what
//!   lets the oracle flag a deadlocked network that delivers nothing
//!   (a plain max-latency check would vacuously pass).
//!
//! Any observation above the bound becomes a [`BoundViolation`]. The
//! oracle *reports*; callers decide what to assert. A violation on a
//! `guaranteed` stream (CBR without policing — the only case where the
//! envelope is provable rather than a model) is a simulator bug or a
//! broken fabric: the bench `--bounds` mode and the CI smoke test treat
//! it as fatal, and the credit-starvation mutation test proves the
//! mechanism fires when flow control is sabotaged.

use calculus::{ArrivalCurve, BoundError, FabricModel, FlowBound, FlowSpec, SchedKind};
use flitnet::TrafficClass;
use metrics::Json;
use netsim::Cycles;
use topo::Topology;
use traffic::{PolicingMode, Workload};

use crate::config::{RouterConfig, SchedulerKind};
use crate::net::Network;
use crate::scheduler::DRR_QUANTUM;

/// Pipeline stages a flit crosses per router (the PROUD five-stage
/// model). Together with the link latency this is the fixed,
/// load-independent delay per scheduling point.
const PIPELINE_STAGES: u32 = 5;

/// One stream's analytic bound plus its observed behaviour.
#[derive(Debug, Clone, Copy)]
pub struct StreamBound {
    /// Stream id.
    pub stream: u32,
    /// CBR or VBR.
    pub class: TrafficClass,
    /// Routers the stream's messages traverse.
    pub hops: u32,
    /// Whether the arrival envelope is provably enforced (CBR with
    /// policing off) rather than a mean-rate model of a variable source.
    pub guaranteed: bool,
    /// Arrival-curve burst σ in flits.
    pub sigma_flits: f64,
    /// Arrival-curve rate ρ in flits per cycle.
    pub rho_flits_per_cycle: f64,
    /// Worst-case end-to-end delay in cycles; `None` when no finite
    /// bound exists (a saturated point, or FIFO sharing with unregulated
    /// best-effort traffic).
    pub bound_cycles: Option<f64>,
    /// Largest measured message latency in cycles (messages created
    /// after warm-up), if any message was measured.
    pub observed_max_cycles: Option<f64>,
    /// Mean measured message latency in cycles.
    pub observed_mean_cycles: Option<f64>,
    /// Messages measured.
    pub observed_msgs: u64,
    /// Age in cycles of the oldest message still undelivered at the end
    /// of the run, if any.
    pub stuck_age_cycles: Option<u64>,
}

impl StreamBound {
    /// `observed_max / bound` — how much of the analytic worst case the
    /// run actually used. `None` without both a bound and a measurement.
    pub fn tightness(&self) -> Option<f64> {
        Some(self.observed_max_cycles? / self.bound_cycles?)
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("stream", Json::Uint(u64::from(self.stream))),
            ("class", Json::str(format!("{:?}", self.class))),
            ("hops", Json::Uint(u64::from(self.hops))),
            ("guaranteed", Json::Bool(self.guaranteed)),
            ("sigma_flits", Json::num(self.sigma_flits)),
            ("rho_flits_per_cycle", Json::num(self.rho_flits_per_cycle)),
            ("bound_cycles", Json::opt_num(self.bound_cycles)),
            (
                "observed_max_cycles",
                Json::opt_num(self.observed_max_cycles),
            ),
            (
                "observed_mean_cycles",
                Json::opt_num(self.observed_mean_cycles),
            ),
            ("observed_msgs", Json::Uint(self.observed_msgs)),
            (
                "stuck_age_cycles",
                self.stuck_age_cycles.map_or(Json::Null, Json::Uint),
            ),
            ("tightness", Json::opt_num(self.tightness())),
        ])
    }
}

/// How a stream exceeded its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundViolationKind {
    /// A delivered message measured more latency than the bound allows.
    DeliveredLate,
    /// An undelivered message is already older than the bound.
    Stuck,
}

/// A stream observed beyond its analytic worst case — either the model's
/// envelope assumption does not hold for this stream (`guaranteed:
/// false`), or the simulator/fabric is broken (`guaranteed: true`).
#[derive(Debug, Clone, Copy)]
pub struct BoundViolation {
    /// The violating stream.
    pub stream: u32,
    /// Late delivery vs. stuck message.
    pub kind: BoundViolationKind,
    /// The offending observation in cycles.
    pub observed_cycles: f64,
    /// The bound it exceeded, in cycles.
    pub bound_cycles: f64,
    /// Copied from the stream's [`StreamBound::guaranteed`].
    pub guaranteed: bool,
}

impl BoundViolation {
    fn to_json(self) -> Json {
        Json::obj([
            ("stream", Json::Uint(u64::from(self.stream))),
            (
                "kind",
                Json::str(match self.kind {
                    BoundViolationKind::DeliveredLate => "delivered_late",
                    BoundViolationKind::Stuck => "stuck",
                }),
            ),
            ("observed_cycles", Json::num(self.observed_cycles)),
            ("bound_cycles", Json::num(self.bound_cycles)),
            ("guaranteed", Json::Bool(self.guaranteed)),
        ])
    }
}

/// The end-of-run audit: every stream's bound vs. observation, with the
/// violations pulled out.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    /// Per-stream records, in stream-id order.
    pub streams: Vec<StreamBound>,
    /// Streams observed beyond their bound.
    pub violations: Vec<BoundViolation>,
}

impl BoundsReport {
    /// Violations on streams whose envelope is provably enforced — these
    /// falsify the simulator or the fabric, not the traffic model.
    pub fn guaranteed_violations(&self) -> impl Iterator<Item = &BoundViolation> {
        self.violations.iter().filter(|v| v.guaranteed)
    }

    /// Structured JSON (the `BENCH_bounds.json` / `--bounds` payload).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "streams",
                Json::arr(self.streams.iter().map(|s| s.to_json())),
            ),
            (
                "violations",
                Json::arr(self.violations.iter().map(|v| v.to_json())),
            ),
        ])
    }
}

/// The analytic half of the audit, computed **before** the run (the
/// [`Workload`] is borrowed; `Network::new` consumes it afterwards).
#[derive(Debug, Clone)]
pub struct BoundsOracle {
    bounds: Vec<FlowBound>,
    classes: Vec<TrafficClass>,
}

impl BoundsOracle {
    /// Maps the experiment onto the network-calculus model and computes
    /// every real-time stream's delay bound.
    ///
    /// # Errors
    ///
    /// Propagates [`calculus::BoundError`] for non-feedforward route sets
    /// (tori, cyclic ring traffic), which have no SFA bound.
    pub fn new(
        topology: &Topology,
        workload: &Workload,
        cfg: &RouterConfig,
    ) -> Result<BoundsOracle, BoundError> {
        let spec = workload.spec();
        let (_, be_load) = workload.realized_load();
        let policing = workload.policing();

        // CBR emits whole messages of `msg_flits` every
        // `frame_interval / msgs` cycles (the generator's exact integer
        // schedule — see `traffic::stream`), so σ = one message and
        // ρ = msg_flits / gap over *every* sliding window.
        let frame_flits = spec.frame_flits(spec.frame_mean_bytes);
        let msgs = spec.msgs_for_flits(frame_flits);
        let frame_interval = spec.timebase().cycles_from_ms(spec.frame_interval_ms).get();
        let msg_gap = (frame_interval / u64::from(msgs)).max(1);
        let cbr = ArrivalCurve::new(
            f64::from(spec.msg_flits),
            f64::from(spec.msg_flits) / msg_gap as f64,
        );
        // VBR is modelled by its negotiated envelope — mean rate with one
        // mean frame of burst, exactly the NI policer's token bucket.
        let (burst, rate) = spec.vbr_envelope();
        let vbr = ArrivalCurve::new(burst, rate);

        let flows: Vec<FlowSpec> = workload
            .stream_infos()
            .iter()
            .map(|info| FlowSpec {
                id: info.id.get(),
                src: info.src,
                dest: info.dest,
                vc_in: info.vc_in.get(),
                vc_out: info.vc_out.get(),
                arrival: if info.class == TrafficClass::Cbr {
                    cbr
                } else {
                    vbr
                },
                // Only the periodic CBR generator *provably* conforms to
                // its envelope. Shaping re-times releases the latency
                // measurement still charges, demotion lets bursts through
                // at best-effort priority, and VBR is a mean-rate model.
                guaranteed: info.class == TrafficClass::Cbr && policing == PolicingMode::Off,
            })
            .collect();

        let partition = workload.partition();
        let model = FabricModel {
            sched: match cfg.scheduler_kind() {
                SchedulerKind::VirtualClock => SchedKind::VirtualClock,
                SchedulerKind::Fifo => SchedKind::Fifo,
                SchedulerKind::RoundRobin => SchedKind::RoundRobin,
                SchedulerKind::Wfq => SchedKind::Wfq,
                SchedulerKind::Drr => SchedKind::Drr {
                    quantum: DRR_QUANTUM,
                },
                SchedulerKind::Scfq => SchedKind::Scfq,
            },
            link_rate: 1.0,
            max_msg_flits: f64::from(spec.msg_flits),
            point_fixed_cycles: f64::from(PIPELINE_STAGES + cfg.link_latency_value()),
            rt_weight: 1.0 / spec.stream_vtick_cycles(),
            be_weight: 1.0 / flitnet::BEST_EFFORT_VTICK,
            // Idle best-effort VCs exert no backpressure on the
            // schedulers, so they only count when the mix carries
            // best-effort load.
            be_vcs: if be_load > 0.0 {
                partition.best_effort_count()
            } else {
                0
            },
            be_per_node: (be_load > 0.0).then(|| {
                // One message of burst at the realized per-node rate
                // (fraction of a 1-flit/cycle link *is* flits per cycle).
                // A model, not a contract: best-effort is unregulated.
                ArrivalCurve::new(f64::from(spec.msg_flits), be_load)
            }),
            node_count: topology.node_count() as u32,
        };

        let bounds = calculus::flow_bounds(topology, &flows, &model)?;
        let classes = workload.stream_infos().iter().map(|i| i.class).collect();
        Ok(BoundsOracle { bounds, classes })
    }

    /// The raw analytic bounds, in stream-id order.
    pub fn bounds(&self) -> &[FlowBound] {
        &self.bounds
    }

    /// Audits the finished run: bound vs. observed maximum latency and
    /// vs. the age of the oldest still-undelivered message, at `end`.
    pub fn report(&self, net: &Network, end: Cycles) -> BoundsReport {
        let stats = net.rt_latency_stats();
        let oldest = net.rt_oldest_outstanding();
        let mut streams = Vec::with_capacity(self.bounds.len());
        let mut violations = Vec::new();
        for (fb, &class) in self.bounds.iter().zip(&self.classes) {
            let s = fb.id as usize;
            let st = stats.get(s).filter(|st| !st.is_empty());
            let observed_max = st.map(netsim::RunningStats::max);
            let stuck_age = oldest
                .get(s)
                .copied()
                .flatten()
                .map(|created| end.get().saturating_sub(created));
            let sb = StreamBound {
                stream: fb.id,
                class,
                hops: fb.hops,
                guaranteed: fb.guaranteed,
                sigma_flits: fb.arrival.sigma,
                rho_flits_per_cycle: fb.arrival.rho,
                bound_cycles: fb.bound_cycles,
                observed_max_cycles: observed_max,
                observed_mean_cycles: st.map(netsim::RunningStats::mean),
                observed_msgs: st.map_or(0, netsim::RunningStats::count),
                stuck_age_cycles: stuck_age,
            };
            if let Some(bound) = fb.bound_cycles {
                if let Some(max) = observed_max {
                    if max > bound {
                        violations.push(BoundViolation {
                            stream: fb.id,
                            kind: BoundViolationKind::DeliveredLate,
                            observed_cycles: max,
                            bound_cycles: bound,
                            guaranteed: fb.guaranteed,
                        });
                    }
                }
                if let Some(age) = stuck_age {
                    if age as f64 > bound {
                        violations.push(BoundViolation {
                            stream: fb.id,
                            kind: BoundViolationKind::Stuck,
                            observed_cycles: age as f64,
                            bound_cycles: bound,
                            guaranteed: fb.guaranteed,
                        });
                    }
                }
            }
            streams.push(sb);
        }
        BoundsReport {
            streams,
            violations,
        }
    }
}
