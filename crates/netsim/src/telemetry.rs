//! Flit-event tracing: the JSONL line schema and its in-memory writer.
//!
//! A [`JsonlSink`] records [`FlitEvent`]s — one per flit lifecycle step
//! (inject / route / arbitrate / deliver) — as one JSON object per line
//! (JSONL), suitable for offline analysis of arbitration decisions. A
//! simulator that traces owns its sink as opt-in state (an
//! `Option<JsonlSink>`), so an untraced run pays one predicted branch per
//! emission site and nothing else.
//!
//! This crate sits below the network-type crates, so events carry raw
//! integer identifiers rather than typed ids.
//!
//! # Example
//!
//! ```
//! use netsim::telemetry::{FlitEvent, FlitEventKind, JsonlSink};
//!
//! let mut sink = JsonlSink::new();
//! sink.record(&FlitEvent {
//!     cycle: 7,
//!     kind: FlitEventKind::Inject,
//!     router: None,
//!     port: 3,
//!     vc: 1,
//!     stream: 12,
//!     msg: 99,
//!     real_time: true,
//! });
//! let text = String::from_utf8(sink.into_bytes()).unwrap();
//! assert!(text.starts_with("{\"cycle\":7,\"event\":\"inject\""));
//! ```

/// The lifecycle step a [`FlitEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitEventKind {
    /// A flit entered a network-interface injection queue.
    Inject,
    /// A head flit was routed: an output port and VC were granted.
    Route,
    /// A flit won its multiplexer arbitration and moved (e.g. crossed the
    /// crossbar).
    Arbitrate,
    /// A flit reached its destination endpoint.
    Deliver,
}

impl FlitEventKind {
    /// The lowercase JSON label for this kind.
    pub fn label(self) -> &'static str {
        match self {
            FlitEventKind::Inject => "inject",
            FlitEventKind::Route => "route",
            FlitEventKind::Arbitrate => "arbitrate",
            FlitEventKind::Deliver => "deliver",
        }
    }
}

/// One flit lifecycle event.
///
/// Identifiers are raw integers (this crate sits below the typed network
/// crates): `router` is `None` for endpoint-side events (inject/deliver),
/// where `port` holds the node id instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitEvent {
    /// Simulation cycle the event happened on.
    pub cycle: u64,
    /// Lifecycle step.
    pub kind: FlitEventKind,
    /// Router id, or `None` for endpoint events.
    pub router: Option<u32>,
    /// Port (router events) or node id (endpoint events).
    pub port: u32,
    /// Virtual channel involved.
    pub vc: u32,
    /// Stream the flit belongs to.
    pub stream: u32,
    /// Message the flit belongs to.
    pub msg: u64,
    /// Whether the flit is real-time (VBR/CBR) rather than best-effort.
    pub real_time: bool,
}

/// Buffers events as JSON Lines (one compact JSON object per line).
///
/// All fields are integers, strings or booleans, so the output is always
/// valid JSON. The buffer is in memory; callers write it out themselves,
/// which keeps parallel sweeps deterministic (each task traces into its
/// own buffer and the harness concatenates them in task order).
#[derive(Debug, Clone, Default)]
pub struct JsonlSink {
    buf: Vec<u8>,
    events: u64,
}

impl JsonlSink {
    /// Creates an empty sink.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// Number of events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The buffered JSONL bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends `ev` as one JSONL line.
    pub fn record(&mut self, ev: &FlitEvent) {
        use std::io::Write as _;
        self.events += 1;
        let _ = write!(
            self.buf,
            "{{\"cycle\":{},\"event\":\"{}\",",
            ev.cycle,
            ev.kind.label()
        );
        match ev.router {
            Some(r) => {
                let _ = write!(self.buf, "\"router\":{r},");
            }
            None => {
                let _ = write!(self.buf, "\"router\":null,");
            }
        }
        let _ = writeln!(
            self.buf,
            "\"port\":{},\"vc\":{},\"stream\":{},\"msg\":{},\"class\":\"{}\"}}",
            ev.port,
            ev.vc,
            ev.stream,
            ev.msg,
            if ev.real_time { "rt" } else { "be" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: FlitEventKind) -> FlitEvent {
        FlitEvent {
            cycle: 42,
            kind,
            router: Some(1),
            port: 2,
            vc: 3,
            stream: 4,
            msg: 5,
            real_time: false,
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new();
        s.record(&event(FlitEventKind::Route));
        s.record(&event(FlitEventKind::Deliver));
        assert_eq!(s.events(), 2);
        let text = String::from_utf8(s.into_bytes()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"route\""));
        assert!(lines[1].contains("\"event\":\"deliver\""));
        assert!(lines[0].contains("\"router\":1"));
        assert!(lines[0].contains("\"class\":\"be\""));
    }

    #[test]
    fn endpoint_events_have_null_router() {
        let mut s = JsonlSink::new();
        let mut ev = event(FlitEventKind::Inject);
        ev.router = None;
        ev.real_time = true;
        s.record(&ev);
        let text = String::from_utf8(s.into_bytes()).unwrap();
        assert!(text.contains("\"router\":null"));
        assert!(text.contains("\"class\":\"rt\""));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FlitEventKind::Inject.label(), "inject");
        assert_eq!(FlitEventKind::Route.label(), "route");
        assert_eq!(FlitEventKind::Arbitrate.label(), "arbitrate");
        assert_eq!(FlitEventKind::Deliver.label(), "deliver");
    }
}
