//! Per-stream token-bucket policing/shaping at the network interface.
//!
//! The [`mediaworm::admission`] controller decides *whether* a stream's
//! negotiated envelope fits the path; nothing in the seed enforced that a
//! source actually *stays inside* the envelope it negotiated. A
//! [`Policer`] closes that gap in front of admission control: every
//! real-time stream gets a token bucket refilled at its negotiated mean
//! rate with one mean frame of burst depth, and each message is checked
//! against it at injection time.
//!
//! Two enforcement actions (plus [`PolicingMode::Off`]):
//!
//! * **Shape** — a non-conforming message is *delayed* until the bucket
//!   covers it. Release times are monotone per source (the bucket's
//!   `updated` watermark never rewinds), so shaped sources still emit
//!   messages in time order. The added delay is charged to the message's
//!   latency: `created_at` is left at the nominal injection time.
//! * **Demote** — a non-conforming message is injected on time but with
//!   its flits' `Vtick` set to [`flitnet::BEST_EFFORT_VTICK`], so
//!   rate-based schedulers (Virtual Clock, WFQ, SCFQ) serve it at
//!   best-effort priority. The *traffic class* (and therefore the VC
//!   partition the message rides on) is deliberately unchanged: demotion
//!   must work in 100:0 mixes where no best-effort VCs exist, and moving
//!   flits across the partition would violate the class routing
//!   invariants. Under the rate-agnostic disciplines (FIFO, round-robin,
//!   DRR) demotion is a no-op by construction — those schedulers never
//!   look at `Vtick`.

use flitnet::{Flit, Worm, BEST_EFFORT_VTICK};
use netsim::snap::{SnapError, SnapReader, SnapWriter};
use netsim::Cycles;

use crate::spec::WorkloadSpec;
use crate::workload::ScheduledMessage;

/// What the network interface does with traffic that exceeds a stream's
/// negotiated rate envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicingMode {
    /// No enforcement (the seed's behaviour).
    #[default]
    Off,
    /// Delay non-conforming messages until they conform.
    Shape,
    /// Inject non-conforming messages on time, but at best-effort
    /// scheduling priority.
    Demote,
}

impl PolicingMode {
    /// All modes, in ablation-matrix order.
    pub const ALL: [PolicingMode; 3] =
        [PolicingMode::Off, PolicingMode::Shape, PolicingMode::Demote];
}

impl std::fmt::Display for PolicingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicingMode::Off => "off",
            PolicingMode::Shape => "shape",
            PolicingMode::Demote => "demote",
        })
    }
}

impl std::str::FromStr for PolicingMode {
    type Err = String;

    fn from_str(s: &str) -> Result<PolicingMode, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Ok(PolicingMode::Off),
            "shape" => Ok(PolicingMode::Shape),
            "demote" => Ok(PolicingMode::Demote),
            other => Err(format!(
                "unknown policing mode {other:?} (off|shape|demote)"
            )),
        }
    }
}

/// A classic token bucket in flit units.
///
/// Tokens accrue at `rate` flits per cycle up to `depth`; a message of
/// `n` flits conforms when `n` tokens are available.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    depth: f64,
    tokens: f64,
    /// The cycle `tokens` is valid for; never rewinds.
    updated: Cycles,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and `depth` is at least one flit.
    pub fn new(rate: f64, depth: f64) -> TokenBucket {
        assert!(rate > 0.0, "token rate must be positive");
        assert!(depth >= 1.0, "bucket must hold at least one flit");
        TokenBucket {
            rate,
            depth,
            tokens: depth,
            updated: Cycles::ZERO,
        }
    }

    fn refill(&mut self, now: Cycles) {
        if now > self.updated {
            let dt = (now.0 - self.updated.0) as f64;
            self.tokens = (self.tokens + dt * self.rate).min(self.depth);
            self.updated = now;
        }
    }

    /// Checks `need` flits at time `at`, consuming tokens only when the
    /// message conforms. Returns `true` on conformance.
    pub fn conforms(&mut self, at: Cycles, need: f64) -> bool {
        self.refill(at);
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }

    /// Returns the earliest cycle `>= at` at which `need` flits conform,
    /// consuming the tokens there. Successive calls return non-decreasing
    /// times (the watermark never rewinds), so a shaped source keeps
    /// emitting in time order.
    ///
    /// # Panics
    ///
    /// Panics if `need` exceeds the bucket depth (such a message could
    /// never conform).
    pub fn shape(&mut self, at: Cycles, need: f64) -> Cycles {
        assert!(need <= self.depth, "message larger than bucket depth");
        self.refill(at);
        if self.tokens < need {
            let wait = ((need - self.tokens) / self.rate).ceil();
            // Clamp to the bucket depth, exactly like `refill`: `wait` is
            // rounded up to a whole cycle, and banking the fractional
            // remainder of `wait * rate` as bonus tokens let a shaped
            // source's long-run output creep past the σ + ρt envelope
            // (the same envelope the calculus delay bounds assume).
            self.tokens = (self.tokens + wait * self.rate).min(self.depth);
            self.updated += Cycles(wait as u64);
        }
        self.tokens -= need;
        self.updated
    }

    fn save(&self, w: &mut SnapWriter) {
        w.f64(self.tokens);
        w.u64(self.updated.0);
    }

    fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tokens = r.f64()?;
        self.updated = Cycles(r.u64()?);
        Ok(())
    }
}

/// Per-stream policing state for a workload's real-time streams.
#[derive(Debug, Clone)]
pub struct Policer {
    mode: PolicingMode,
    buckets: Vec<TokenBucket>,
}

impl Policer {
    /// Creates a policer for `streams` real-time streams, each a token
    /// bucket of the spec's [`WorkloadSpec::vbr_envelope`].
    pub fn new(mode: PolicingMode, streams: usize, spec: &WorkloadSpec) -> Policer {
        let buckets = if mode == PolicingMode::Off {
            Vec::new()
        } else {
            let (depth, rate) = spec.vbr_envelope();
            (0..streams)
                .map(|_| TokenBucket::new(rate, depth))
                .collect()
        };
        Policer { mode, buckets }
    }

    /// The enforcement action.
    pub fn mode(&self) -> PolicingMode {
        self.mode
    }

    /// Polices stream `stream`'s next message in place.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range while policing is on.
    pub fn apply(&mut self, stream: usize, msg: &mut ScheduledMessage) {
        match self.mode {
            PolicingMode::Off => {}
            PolicingMode::Shape => {
                let need = msg.flits.len() as f64;
                msg.at = self.buckets[stream].shape(msg.at, need);
            }
            PolicingMode::Demote => {
                let need = msg.flits.len() as f64;
                if !self.buckets[stream].conforms(msg.at, need) {
                    msg.flits = Worm::new(Flit {
                        vtick: BEST_EFFORT_VTICK,
                        ..msg.flits.head()
                    });
                }
            }
        }
    }

    /// Serialises the mutable bucket state. The mode and bucket roster
    /// are configuration and are written only as a consistency check.
    pub fn save(&self, w: &mut SnapWriter) {
        w.u8(match self.mode {
            PolicingMode::Off => 0,
            PolicingMode::Shape => 1,
            PolicingMode::Demote => 2,
        });
        w.usize(self.buckets.len());
        for b in &self.buckets {
            b.save(w);
        }
    }

    /// Restores state saved by [`Policer::save`].
    ///
    /// # Errors
    ///
    /// Propagates decoding errors; rejects a snapshot whose mode or
    /// bucket count disagrees with this policer's configuration.
    pub fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        let expect = match self.mode {
            PolicingMode::Off => 0,
            PolicingMode::Shape => 1,
            PolicingMode::Demote => 2,
        };
        if tag != expect {
            return Err(SnapError::BadValue("policing mode mismatch"));
        }
        if r.usize()? != self.buckets.len() {
            return Err(SnapError::BadValue("policer bucket count mismatch"));
        }
        for b in &mut self.buckets {
            b.load_into(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ScheduledMessage;
    use flitnet::{FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId};

    fn msg(at: u64, flits: u32) -> ScheduledMessage {
        let template = Flit {
            stream: StreamId(0),
            msg: MsgId(0),
            frame: FrameId(0),
            seq_in_msg: 0,
            msg_len: flits,
            msgs_in_frame: 1,
            dest: NodeId(1),
            vc: VcId(0),
            out_vc: VcId(0),
            vtick: 100.0,
            class: TrafficClass::Vbr,
            created_at: Cycles(at),
        };
        ScheduledMessage {
            at: Cycles(at),
            src: NodeId(0),
            flits: Worm::new(template),
        }
    }

    fn policer(mode: PolicingMode) -> Policer {
        // Paper defaults: 0.01 flits/cycle per stream, ~4167-flit burst.
        Policer::new(mode, 1, &WorkloadSpec::paper_default())
    }

    #[test]
    fn conforming_traffic_passes_untouched() {
        let mut p = policer(PolicingMode::Shape);
        // One 20-flit message every 2000 cycles = exactly the 0.01
        // flits/cycle envelope.
        for k in 0..50u64 {
            let mut m = msg(k * 2_000, 20);
            p.apply(0, &mut m);
            assert_eq!(m.at, Cycles(k * 2_000), "conforming message delayed");
            assert!(m.flits.into_iter().all(|f| f.vtick == 100.0));
        }
    }

    #[test]
    fn shaping_spaces_a_burst_at_the_token_rate() {
        let mut p = policer(PolicingMode::Shape);
        // Enough back-to-back messages at t=0 to exhaust the 4167-flit
        // burst allowance (208 messages of 20 flits).
        let mut releases = Vec::new();
        for _ in 0..212 {
            let mut m = msg(0, 20);
            p.apply(0, &mut m);
            releases.push(m.at);
        }
        assert_eq!(releases[207], Cycles(0), "burst depth must pass");
        assert!(releases[208] > Cycles(0), "past-burst message must wait");
        // Steady state: one 20-flit message per 20/0.01 = 2000 cycles.
        let spacing = releases[211].0 - releases[210].0;
        assert_eq!(spacing, 2_000, "shaped spacing {spacing}");
        // Monotone release order.
        assert!(releases.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn demote_downgrades_only_nonconforming_messages() {
        let mut p = policer(PolicingMode::Demote);
        let mut demoted = 0;
        for _ in 0..212 {
            let mut m = msg(0, 20);
            p.apply(0, &mut m);
            assert_eq!(m.at, Cycles(0), "demote never delays");
            if m.flits.head().vtick == BEST_EFFORT_VTICK {
                demoted += 1;
                // Class (and therefore VC partition) is untouched.
                assert!(m.flits.into_iter().all(|f| f.class == TrafficClass::Vbr));
                assert!(m.flits.into_iter().all(|f| f.vtick == BEST_EFFORT_VTICK));
            }
        }
        assert_eq!(demoted, 4, "208 in-burst messages conform, 4 do not");
    }

    #[test]
    fn off_mode_is_a_no_op() {
        let mut p = policer(PolicingMode::Off);
        let mut m = msg(0, 20);
        let before = m.flits;
        for _ in 0..500 {
            p.apply(0, &mut m);
        }
        assert_eq!(m.at, Cycles(0));
        assert_eq!(m.flits, before);
    }

    #[test]
    fn bucket_state_round_trips_through_snapshot() {
        let mut a = policer(PolicingMode::Shape);
        for k in 0..100u64 {
            let mut m = msg(k * 7, 20);
            a.apply(0, &mut m);
        }
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut b = policer(PolicingMode::Shape);
        b.load_into(&mut SnapReader::new(&buf).unwrap()).unwrap();
        for k in 100..120u64 {
            let mut ma = msg(k * 7, 20);
            let mut mb = msg(k * 7, 20);
            a.apply(0, &mut ma);
            b.apply(0, &mut mb);
            assert_eq!(ma.at, mb.at, "restored policer diverged");
        }
    }

    #[test]
    fn mode_mismatch_is_rejected() {
        let a = policer(PolicingMode::Shape);
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut b = policer(PolicingMode::Demote);
        assert!(matches!(
            b.load_into(&mut SnapReader::new(&buf).unwrap()),
            Err(SnapError::BadValue(_))
        ));
    }

    #[test]
    fn parse_and_display_round_trip() {
        for mode in PolicingMode::ALL {
            assert_eq!(mode.to_string().parse::<PolicingMode>(), Ok(mode));
        }
        assert!("bogus".parse::<PolicingMode>().is_err());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn shaped_output_never_exceeds_sigma_rho_envelope(
            rate in 0.3f64..0.95,
            depth_flits in 4u32..24,
            gaps in proptest::collection::vec(0u64..2, 150..250),
        ) {
            // Regression: `shape` used to bank the fractional remainder of
            // `wait.ceil() * rate` as bonus tokens, letting `tokens` creep
            // past `depth` under a saturated backlog of depth-sized
            // messages (banking needs `need > depth − rate`, so full-depth
            // worms are the worst case). The banked surplus eventually
            // funds an extra early release that breaks the stationary
            // (σ, ρ) envelope — the exact envelope the calculus delay
            // bounds assume `PolicingMode::Shape` enforces.
            let depth = f64::from(depth_flits);
            let mut bucket = TokenBucket::new(rate, depth);
            let mut releases: Vec<(u64, f64)> = Vec::new();
            let mut at = Cycles::ZERO;
            for &gap in &gaps {
                at += Cycles(gap);
                let release = bucket.shape(at, depth);
                releases.push((release.0, depth));
            }
            // σ + ρt must hold over EVERY window, not just from t = 0:
            // the initially-full bucket's slack masks from-zero checks.
            for i in 0..releases.len() {
                let mut out = 0.0;
                for j in i..releases.len() {
                    out += releases[j].1;
                    let window = (releases[j].0 - releases[i].0) as f64;
                    prop_assert!(
                        out <= depth + rate * window + 1e-6,
                        "window [{}, {}]: released {} > {} + {} * {}",
                        releases[i].0, releases[j].0, out, depth, rate, window
                    );
                }
            }
        }
    }
}
