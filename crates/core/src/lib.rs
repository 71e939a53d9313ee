//! # MediaWorm: a QoS-capable wormhole router
//!
//! This crate is the heart of the reproduction of *"Investigating QoS
//! Support for Traffic Mixes with the MediaWorm Router"* (Yum, Vaidya, Das,
//! Sivasubramaniam — HPCA 2000).
//!
//! MediaWorm is a five-stage pipelined wormhole router (the PROUD model)
//! whose **only major modification** over a conventional router is the
//! resource scheduler: instead of FIFO, the multiplexer that shares
//! crossbar/link bandwidth among virtual channels runs the **Virtual
//! Clock** rate-based algorithm (Zhang 1991). Each message carries its
//! bandwidth requirement as a `Vtick` in its head flit; the scheduler
//! timestamps arriving flits with
//!
//! ```text
//! auxVC ← max(Clock, auxVC); auxVC ← auxVC + Vtick
//! ```
//!
//! and services flits in increasing timestamp order, giving soft bandwidth
//! guarantees to VBR/CBR streams while best-effort traffic (Vtick = ∞)
//! fills the remaining capacity.
//!
//! ## What's here
//!
//! * [`config`] — router configuration: VCs per physical channel, buffer
//!   depth, crossbar style ([`CrossbarKind::Multiplexed`] or
//!   [`CrossbarKind::Full`]), scheduler ([`SchedulerKind`]) and the
//!   scheduling point ablation ([`SchedPoint`]).
//! * [`scheduler`] — the Virtual Clock / FIFO / round-robin multiplexer
//!   schedulers.
//! * [`router`] — the pipelined router model: per-VC input buffering,
//!   routing (stage 2), message-granularity crossbar-output arbitration
//!   (stage 3), flit-level crossbar multiplexing (stage 4) and the output
//!   VC multiplexer (stage 5).
//! * [`net`] — a cycle-accurate network simulator that instantiates one
//!   router per switch of a [`topo::Topology`], wires links and credit
//!   paths, injects a [`traffic::Workload`] and collects
//!   [`metrics::JitterSummary`] / best-effort latency.
//! * [`sim`] — the experiment driver used by the `mediaworm-bench`
//!   binaries: [`sim::run`] for a plain run, [`sim::run_with`] for
//!   explicit [`SimOpts`] (safety layers, driver, flit-event trace) and a
//!   checkpoint.
//! * [`counters`] — always-on per-router/per-port telemetry counters
//!   (flits per class, mux conflicts, credit stalls, sampled occupancy).
//! * [`admission`] — a bandwidth-accounting admission controller (the
//!   paper's §6 admission-control direction).
//! * [`audit`] — opt-in flow-control invariant audits (credit/flit
//!   conservation, worm well-formedness) and the progress watchdog that
//!   classifies stalls as deadlock vs. starvation with a structured
//!   [`StallReport`].
//! * [`bounds`] — the network-calculus delay-bound oracle
//!   ([`BoundsOracle`]): maps an experiment onto the `calculus` crate's
//!   arrival/service-curve model and audits the run's observed latencies
//!   against each real-time stream's analytic worst case
//!   (`SimOpts::bounds()` / the bench `--bounds` flag).
//!
//! ## Quick start
//!
//! ```
//! use mediaworm::{RouterConfig, SchedulerKind, sim};
//! use flitnet::VcPartition;
//! use topo::Topology;
//! use traffic::{StreamClass, WorkloadBuilder};
//!
//! // An 8-port MediaWorm switch, 16 VCs, Virtual Clock scheduling.
//! let topology = Topology::single_switch(8);
//! let partition = VcPartition::from_mix(16, 80.0, 20.0);
//! let workload = WorkloadBuilder::new(8, partition)
//!     .load(0.5)
//!     .mix(80.0, 20.0)
//!     .real_time_class(StreamClass::Vbr)
//!     .seed(42)
//!     .build();
//! let cfg = RouterConfig::new(16).scheduler(SchedulerKind::VirtualClock);
//!
//! // Short run: 20 ms warm-up + 100 ms measured (simulated time).
//! let outcome = sim::run(&topology, workload, &cfg, 0.020, 0.100);
//! assert!(outcome.jitter.is_jitter_free(33.0, 1.0));
//! ```

#![warn(missing_docs)]

mod active;
pub mod admission;
pub mod audit;
pub mod bounds;
pub mod config;
pub mod counters;
pub mod net;
pub mod router;
pub mod scheduler;
pub mod sim;

pub use admission::{AdmissionController, AdmissionError, ReleaseError};
pub use audit::{AuditConfig, StallKind, StallReport, VcHold, WatchdogConfig};
pub use bounds::{BoundViolation, BoundViolationKind, BoundsOracle, BoundsReport, StreamBound};
pub use config::{CrossbarKind, RouterConfig, SchedPoint, SchedulerKind};
pub use counters::{NetCounters, PortCounters, RouterCounters, SkipStats};
pub use net::Network;
pub use router::Router;
pub use scheduler::{MuxScheduler, DRR_QUANTUM, STAMP_SATURATION};
pub use sim::{run, run_with, CheckpointOpts, SimError, SimOpts, SimOutcome};
