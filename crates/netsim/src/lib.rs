//! Deterministic cycle-level simulation substrate for the MediaWorm study.
//!
//! This crate provides the building blocks that every simulator in the
//! workspace shares:
//!
//! * [`Cycles`] and [`TimeBase`] — an integer cycle clock plus the mapping
//!   between router cycles and wall-clock time (one cycle is the time one
//!   flit needs on the physical link, e.g. 80 ns for a 32-bit flit on a
//!   400 Mbps link).
//! * [`Calendar`] — a monotonic future-event list used for traffic
//!   injection and any other timed callback.
//! * [`SimRng`] — the seedable generator (xoshiro256++) behind every
//!   random draw, so each experiment is reproducible from a single `u64`
//!   seed, with the normal frame sizes and exponential gaps the paper's
//!   workload needs.
//! * [`stats`] — online mean/variance (Welford), histograms and percentile
//!   helpers used to compute the paper's d̄ / σ_d metrics.
//! * [`telemetry`] — the [`FlitEvent`] line schema and the [`JsonlSink`]
//!   that traced simulators record flit lifecycle events into.
//! * [`audit`] — the [`AuditLog`] of flow-control invariant violations
//!   that the simulators' audit mode files findings into.
//! * [`snap`] — the versioned, checksummed binary codec that deterministic
//!   checkpoint/restore serialises simulation state through.
//!
//! # Example
//!
//! ```
//! use netsim::{Calendar, Cycles, SimRng, TimeBase};
//!
//! let tb = TimeBase::from_link(400_000_000.0, 32); // 400 Mbps, 32-bit flits
//! assert_eq!(tb.ns_per_cycle(), 80.0);
//!
//! let mut cal: Calendar<&str> = Calendar::new();
//! cal.schedule(Cycles(10), "second");
//! cal.schedule(Cycles(5), "first");
//! assert_eq!(cal.pop_due(Cycles(7)), Some((Cycles(5), "first")));
//! assert_eq!(cal.pop_due(Cycles(7)), None);
//!
//! let mut rng = SimRng::seed_from(42);
//! let x = rng.range_f64(0.0, 1.0);
//! assert!((0.0..1.0).contains(&x));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod calendar;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use audit::{AuditLog, Violation, ViolationKind};
pub use calendar::Calendar;
pub use rng::SimRng;
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use stats::{Histogram, RunningStats};
pub use telemetry::{FlitEvent, FlitEventKind, JsonlSink};
pub use time::{Cycles, TimeBase};
