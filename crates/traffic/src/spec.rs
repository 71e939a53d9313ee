//! Workload parameterisation.

use flitnet::TrafficClass;
use netsim::TimeBase;

/// Which real-time model a stream follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Variable bit rate: normally-distributed frame sizes.
    Vbr,
    /// Constant bit rate: fixed frame sizes.
    Cbr,
}

impl StreamClass {
    /// The corresponding [`TrafficClass`].
    pub fn traffic_class(self) -> TrafficClass {
        match self {
            StreamClass::Vbr => TrafficClass::Vbr,
            StreamClass::Cbr => TrafficClass::Cbr,
        }
    }
}

/// Frame-size model for VBR streams.
///
/// The paper draws every frame from one normal distribution. Real MPEG-2
/// is *group-of-pictures* structured: large I frames followed by medium P
/// and small B frames in a repeating pattern, which stresses a router's
/// short-term burst tolerance even at the same mean rate. [`FrameModel::Gop`]
/// implements the classic 12-frame `IBBPBBPBBPBB` pattern with a 5:3:1
/// I:P:B size ratio, scaled so the pattern's mean equals
/// [`WorkloadSpec::frame_mean_bytes`] — a sensitivity extension beyond the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameModel {
    /// Independent normal frame sizes (the paper's model).
    #[default]
    Normal,
    /// GOP-structured sizes (`IBBPBBPBBPBB`, 5:3:1) with normal noise.
    Gop,
}

/// Inter-arrival process for best-effort messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalProcess {
    /// Constant spacing (the paper's "constant injection rate"), with a
    /// random initial phase per node to avoid lock-step artifacts.
    #[default]
    Constant,
    /// Poisson arrivals with the same mean rate, for sensitivity studies.
    Poisson,
}

/// Physical workload parameters (paper Table 1 defaults).
///
/// # Example
///
/// ```
/// use traffic::WorkloadSpec;
///
/// let spec = WorkloadSpec::paper_default();
/// assert_eq!(spec.flit_bytes, 4);
/// assert_eq!(spec.msg_flits, 20);
/// assert_eq!(spec.link_bps, 400e6);
/// // A 4 Mbps stream deserves one flit every 100 cycles on this link.
/// assert!((spec.stream_vtick_cycles() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Physical channel bandwidth in bits/second (400 Mbps default; the
    /// PCS comparison uses 100 Mbps).
    pub link_bps: f64,
    /// Flit width in bytes (32 bits default).
    pub flit_bytes: u32,
    /// Message size in flits (20 default; Fig. 7 sweeps it).
    pub msg_flits: u32,
    /// Mean bandwidth per real-time stream in bits/second (4 Mbps).
    pub stream_bps: f64,
    /// Frame interval in milliseconds (33 ms ≙ 30 frames/s).
    pub frame_interval_ms: f64,
    /// Mean frame size in bytes (16 666).
    pub frame_mean_bytes: f64,
    /// Frame-size standard deviation in bytes for VBR (3 333).
    pub frame_std_bytes: f64,
    /// Best-effort arrival process.
    pub arrival: ArrivalProcess,
    /// VBR frame-size model.
    pub frame_model: FrameModel,
}

impl WorkloadSpec {
    /// The paper's Table 1 configuration.
    pub fn paper_default() -> WorkloadSpec {
        WorkloadSpec {
            link_bps: 400e6,
            flit_bytes: 4,
            msg_flits: 20,
            stream_bps: 4e6,
            frame_interval_ms: 33.0,
            frame_mean_bytes: 16_666.0,
            frame_std_bytes: 3_333.0,
            arrival: ArrivalProcess::Constant,
            frame_model: FrameModel::Normal,
        }
    }

    /// The 100 Mbps variant used for the PCS comparison (Fig. 8 / Table 3).
    pub fn paper_100mbps() -> WorkloadSpec {
        WorkloadSpec {
            link_bps: 100e6,
            ..WorkloadSpec::paper_default()
        }
    }

    /// The time base implied by the link and flit parameters.
    pub fn timebase(&self) -> TimeBase {
        TimeBase::from_link(self.link_bps, self.flit_bytes * 8)
    }

    /// Flits per second a real-time stream emits on average.
    pub fn stream_flit_rate(&self) -> f64 {
        self.stream_bps / f64::from(self.flit_bytes * 8)
    }

    /// The Virtual Clock `Vtick`, in cycles per flit, that a real-time
    /// stream requests (paper §3.3: "if a message requires a bandwidth of
    /// 120 K flits/sec, then its Vtick is set to 1/120 K").
    pub fn stream_vtick_cycles(&self) -> f64 {
        self.timebase().vtick_cycles(self.stream_flit_rate())
    }

    /// A real-time stream's negotiated token-bucket envelope `(σ, ρ)`:
    /// a burst of one mean frame in flits (at least one message), refilled
    /// at the stream's mean rate in flits per cycle (`stream_bps` as a
    /// fraction of the link). The NI policer enforces it, and the bounds
    /// oracle models VBR arrivals with it.
    pub fn vbr_envelope(&self) -> (f64, f64) {
        let burst = (self.frame_mean_bytes / f64::from(self.flit_bytes))
            .ceil()
            .max(f64::from(self.msg_flits));
        (burst, self.stream_bps / self.link_bps)
    }

    /// How many flits a frame of `bytes` bytes occupies.
    pub fn frame_flits(&self, bytes: f64) -> u32 {
        (bytes / f64::from(self.flit_bytes)).ceil().max(1.0) as u32
    }

    /// How many messages a frame of `flits` flits needs.
    pub fn msgs_for_flits(&self, flits: u32) -> u32 {
        flits.div_ceil(self.msg_flits)
    }

    /// Maximum simultaneous real-time streams a link can carry
    /// (`⌊link / stream⌋`, e.g. 100 on the 400 Mbps link).
    pub fn streams_per_link(&self) -> u32 {
        (self.link_bps / self.stream_bps).floor() as u32
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.link_bps > 0.0, "link bandwidth must be positive");
        assert!(self.flit_bytes > 0, "flit size must be positive");
        assert!(self.msg_flits > 0, "message size must be positive");
        assert!(self.stream_bps > 0.0, "stream bandwidth must be positive");
        assert!(
            self.stream_bps <= self.link_bps,
            "a single stream cannot exceed the link bandwidth"
        );
        assert!(
            self.frame_interval_ms > 0.0,
            "frame interval must be positive"
        );
        assert!(self.frame_mean_bytes > 0.0, "frame size must be positive");
        assert!(
            self.frame_std_bytes >= 0.0,
            "frame-size deviation must be non-negative"
        );
    }
}

impl Default for WorkloadSpec {
    fn default() -> WorkloadSpec {
        WorkloadSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_frame_model_is_the_papers() {
        assert_eq!(
            WorkloadSpec::paper_default().frame_model,
            FrameModel::Normal
        );
    }

    #[test]
    fn paper_default_matches_table1() {
        let s = WorkloadSpec::paper_default();
        s.validate();
        assert_eq!(s.streams_per_link(), 100);
        assert_eq!(s.frame_flits(16_666.0), 4167);
        assert_eq!(s.msgs_for_flits(4167), 209);
    }

    #[test]
    fn frame_of_paper_mean_injects_every_158us() {
        // 209 messages across 33 ms ≈ 158 µs apart — the paper quotes
        // "about 165 µs" for its rounded 200-message example.
        let s = WorkloadSpec::paper_default();
        let msgs = s.msgs_for_flits(s.frame_flits(s.frame_mean_bytes));
        let gap_us = s.frame_interval_ms * 1e3 / f64::from(msgs);
        assert!((150.0..170.0).contains(&gap_us), "gap {gap_us}");
    }

    #[test]
    fn vtick_100mbps() {
        let s = WorkloadSpec::paper_100mbps();
        // 100 Mbps link moves 3.125 M flits/s; a 4 Mbps stream needs
        // 125 K flits/s → one flit every 25 cycles.
        assert!((s.stream_vtick_cycles() - 25.0).abs() < 1e-9);
        assert_eq!(s.streams_per_link(), 25);
    }

    #[test]
    fn stream_class_maps_to_traffic_class() {
        assert_eq!(StreamClass::Vbr.traffic_class(), TrafficClass::Vbr);
        assert_eq!(StreamClass::Cbr.traffic_class(), TrafficClass::Cbr);
    }

    #[test]
    fn tiny_frames_round_up() {
        let s = WorkloadSpec::paper_default();
        assert_eq!(s.frame_flits(1.0), 1);
        assert_eq!(s.msgs_for_flits(1), 1);
        assert_eq!(s.msgs_for_flits(21), 2);
    }

    #[test]
    #[should_panic(expected = "cannot exceed the link bandwidth")]
    fn oversized_stream_rejected() {
        let mut s = WorkloadSpec::paper_default();
        s.stream_bps = 500e6;
        s.validate();
    }
}
