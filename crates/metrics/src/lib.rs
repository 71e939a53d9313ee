//! Output metrics for the MediaWorm experiments.
//!
//! The paper evaluates every configuration with three numbers (§4.1):
//!
//! * **mean frame delivery interval** d̄ — the average time between the
//!   deliveries of two successive frames of a stream at its destination
//!   (33 ms ≙ jitter-free 30 frames/s MPEG-2);
//! * **standard deviation of the delivery interval** σ_d — σ_d ≈ 0 together
//!   with d̄ ≈ 33 ms means jitter-free delivery;
//! * **average latency of best-effort traffic** in microseconds.
//!
//! [`DeliveryTracker`] accumulates the first two, [`LatencyTracker`] the
//! third, and [`report`] renders the paper-style text tables the experiment
//! binaries print.

#![warn(missing_docs)]

pub mod delivery;
pub mod json;
pub mod latency;
pub mod report;

pub use delivery::{DeliveryTracker, FrameTails, JitterSummary};
pub use json::Json;
pub use latency::LatencyTracker;
pub use report::Table;
