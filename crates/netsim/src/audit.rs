//! Audit sink: structured flow-control invariant violations.
//!
//! The audit layer (enabled per run, mirroring [`telemetry`]'s
//! free-when-off design) verifies wormhole flow-control invariants —
//! credit conservation, flit conservation, worm ordering — and files every
//! violation into an [`AuditLog`]. Like telemetry, this crate sits below
//! the typed network crates, so violations carry raw integer identifiers.
//!
//! The log stores at most [`AuditLog::MAX_STORED`] violations verbatim (a
//! broken invariant typically re-fires on every audit pass; keeping the
//! first few is what a human needs) but counts all of them in
//! [`AuditLog::total`].
//!
//! [`telemetry`]: crate::telemetry
//!
//! # Example
//!
//! ```
//! use netsim::audit::{AuditLog, Violation, ViolationKind};
//!
//! let mut log = AuditLog::new();
//! assert!(log.is_clean());
//! log.record(Violation {
//!     cycle: 512,
//!     router: Some(1),
//!     port: 2,
//!     vc: 0,
//!     kind: ViolationKind::CreditConservation,
//!     detail: "5 credits + 16 buffered > 20 capacity".into(),
//! });
//! assert_eq!(log.total(), 1);
//! assert!(log.violations()[0].to_string().contains("credit-conservation"));
//! ```

use std::fmt;

use crate::snap::{SnapError, SnapReader, SnapWriter};

/// The invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Per-VC credits + in-flight flits/credits + downstream occupancy no
    /// longer sum to the downstream buffer capacity: a credit was minted or
    /// lost rather than matched to a freed slot.
    CreditConservation,
    /// A sender holds more credits for a VC than the downstream buffer has
    /// slots.
    CreditOverflow,
    /// Flits in flight no longer match the sum of queue, link and buffer
    /// occupancy: a flit was duplicated or dropped inside the network.
    FlitConservation,
    /// A VC buffer's flit sequence is not a well-formed run of worms
    /// (head→body→tail, no interleaving).
    WormOrder,
    /// An output staging queue grew beyond its configured capacity. The
    /// MediaWorm router no longer raises it — its staging buffers are
    /// bounded FIFOs whose `push` panics on overflow — but the kind keeps
    /// its snapshot tag so saved audit logs decode unchanged.
    StagingOverflow,
    /// An input VC holds a grant on an output VC that has no recorded
    /// owner, or one owned by a different message.
    GrantWithoutOwner,
    /// An incrementally maintained active set (pending heads, granted
    /// connections, staged output VCs, resident-flit counter) disagrees
    /// with the buffer state it summarizes.
    ActiveSetDesync,
}

impl ViolationKind {
    /// The stable lowercase label for this kind (used in JSON output).
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::CreditConservation => "credit-conservation",
            ViolationKind::CreditOverflow => "credit-overflow",
            ViolationKind::FlitConservation => "flit-conservation",
            ViolationKind::WormOrder => "worm-order",
            ViolationKind::StagingOverflow => "staging-overflow",
            ViolationKind::GrantWithoutOwner => "grant-without-owner",
            ViolationKind::ActiveSetDesync => "active-set-desync",
        }
    }

    fn to_tag(self) -> u8 {
        match self {
            ViolationKind::CreditConservation => 0,
            ViolationKind::CreditOverflow => 1,
            ViolationKind::FlitConservation => 2,
            ViolationKind::WormOrder => 3,
            ViolationKind::StagingOverflow => 4,
            ViolationKind::GrantWithoutOwner => 5,
            ViolationKind::ActiveSetDesync => 6,
        }
    }

    fn from_tag(tag: u8) -> Result<ViolationKind, SnapError> {
        Ok(match tag {
            0 => ViolationKind::CreditConservation,
            1 => ViolationKind::CreditOverflow,
            2 => ViolationKind::FlitConservation,
            3 => ViolationKind::WormOrder,
            4 => ViolationKind::StagingOverflow,
            5 => ViolationKind::GrantWithoutOwner,
            6 => ViolationKind::ActiveSetDesync,
            _ => return Err(SnapError::BadValue("violation kind tag")),
        })
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation cycle the audit pass observed the violation on.
    pub cycle: u64,
    /// Router id, or `None` for endpoint/injection-side violations.
    pub router: Option<u32>,
    /// Port (router) or node id (endpoint).
    pub port: u32,
    /// Virtual channel involved (0 when the violation is not per-VC).
    pub vc: u32,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics (observed vs. expected values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.router {
            Some(r) => write!(
                f,
                "[cycle {}] {} at router {} port {} vc {}: {}",
                self.cycle,
                self.kind.label(),
                r,
                self.port,
                self.vc,
                self.detail
            ),
            None => write!(
                f,
                "[cycle {}] {} at node {} vc {}: {}",
                self.cycle,
                self.kind.label(),
                self.port,
                self.vc,
                self.detail
            ),
        }
    }
}

/// Accumulates [`Violation`]s across a run.
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    violations: Vec<Violation>,
    total: u64,
}

impl AuditLog {
    /// Violations stored verbatim; beyond this only [`AuditLog::total`]
    /// keeps counting.
    pub const MAX_STORED: usize = 64;

    /// Creates an empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Files one violation.
    pub fn record(&mut self, v: Violation) {
        self.total += 1;
        if self.violations.len() < AuditLog::MAX_STORED {
            self.violations.push(v);
        }
    }

    /// Total violations observed, including ones beyond the storage cap.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether no violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// The stored violations (first [`AuditLog::MAX_STORED`] observed).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Serialises the log into a snapshot.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u64(self.total);
        w.usize(self.violations.len());
        for v in &self.violations {
            w.u64(v.cycle);
            w.option(v.router, |w, r| w.u32(r));
            w.u32(v.port);
            w.u32(v.vc);
            w.u8(v.kind.to_tag());
            w.str(&v.detail);
        }
    }

    /// Restores a log saved by [`AuditLog::save`].
    ///
    /// # Errors
    ///
    /// Propagates snapshot decoding errors.
    pub fn load(r: &mut SnapReader<'_>) -> Result<AuditLog, SnapError> {
        let total = r.u64()?;
        let n = r.usize()?;
        if n > AuditLog::MAX_STORED {
            return Err(SnapError::BadValue("stored violation count"));
        }
        let mut violations = Vec::with_capacity(n);
        for _ in 0..n {
            violations.push(Violation {
                cycle: r.u64()?,
                router: r.option(|r| r.u32())?,
                port: r.u32()?,
                vc: r.u32()?,
                kind: ViolationKind::from_tag(r.u8()?)?,
                detail: r.str()?,
            });
        }
        Ok(AuditLog { violations, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(cycle: u64) -> Violation {
        Violation {
            cycle,
            router: Some(3),
            port: 1,
            vc: 2,
            kind: ViolationKind::CreditOverflow,
            detail: "21 credits for a 20-slot buffer".into(),
        }
    }

    #[test]
    fn empty_log_is_clean() {
        let log = AuditLog::new();
        assert!(log.is_clean());
        assert_eq!(log.total(), 0);
        assert!(log.violations().is_empty());
    }

    #[test]
    fn records_and_counts() {
        let mut log = AuditLog::new();
        log.record(violation(10));
        log.record(violation(11));
        assert!(!log.is_clean());
        assert_eq!(log.total(), 2);
        assert_eq!(log.violations().len(), 2);
        assert_eq!(log.violations()[0].cycle, 10);
    }

    #[test]
    fn storage_caps_but_total_keeps_counting() {
        let mut log = AuditLog::new();
        for c in 0..200 {
            log.record(violation(c));
        }
        assert_eq!(log.total(), 200);
        assert_eq!(log.violations().len(), AuditLog::MAX_STORED);
        assert_eq!(log.violations().last().unwrap().cycle, 63);
    }

    #[test]
    fn display_includes_site_and_kind() {
        let text = violation(99).to_string();
        assert!(text.contains("cycle 99"));
        assert!(text.contains("credit-overflow"));
        assert!(text.contains("router 3"));
        let endpoint = Violation {
            router: None,
            ..violation(7)
        };
        assert!(endpoint.to_string().contains("node 1"));
    }

    #[test]
    fn snapshot_round_trip_preserves_log() {
        use crate::snap::{SnapReader, SnapWriter};
        let mut log = AuditLog::new();
        for c in 0..70 {
            log.record(violation(c));
        }
        log.record(Violation {
            router: None,
            kind: ViolationKind::ActiveSetDesync,
            ..violation(71)
        });
        let mut w = SnapWriter::new();
        log.save(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf).unwrap();
        let back = AuditLog::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.total(), log.total());
        assert_eq!(back.violations(), log.violations());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            ViolationKind::CreditConservation.label(),
            "credit-conservation"
        );
        assert_eq!(ViolationKind::FlitConservation.label(), "flit-conservation");
        assert_eq!(ViolationKind::WormOrder.label(), "worm-order");
        assert_eq!(
            ViolationKind::GrantWithoutOwner.label(),
            "grant-without-owner"
        );
        assert_eq!(ViolationKind::ActiveSetDesync.label(), "active-set-desync");
    }
}
