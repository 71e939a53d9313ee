//! PCS experiment driver: connection establishment, retries and jitter
//! measurement.
//!
//! The offered workload is the paper's: `round(load · link / 4 Mbps)` VBR
//! streams per node, destinations uniform. Each stream places its first
//! connection attempt at a random instant inside the setup window; a
//! dropped attempt retries after an exponential backoff (the paper counts
//! attempts and drops but does not specify the retry policy — see
//! DESIGN.md). Connections, once established, last for the whole run
//! ("connections may be dropped only at stream set-up", §4.2.1).

use flitnet::NodeId;
use metrics::JitterSummary;
use netsim::{Calendar, Cycles, SimRng};
use traffic::{RealTimeStream, ScheduledMessage, StreamClass};

use crate::config::PcsConfig;
use crate::netmodel::{PcsCounters, PcsNetwork};

/// Result of one PCS run.
#[derive(Debug, Clone, Copy)]
pub struct PcsOutcome {
    /// Frame-delivery jitter of the established streams.
    pub jitter: JitterSummary,
    /// Connection attempts (first tries + retries).
    pub attempts: u64,
    /// Connections established.
    pub established: u64,
    /// Attempts that were nacked (`attempts − established`).
    pub dropped: u64,
    /// Streams offered (distinct connections sought).
    pub offered: u64,
    /// Simulated cycles the run covered (warm-up + measurement).
    pub cycles: u64,
    /// Link-multiplexer telemetry counters over the whole run.
    pub counters: PcsCounters,
    /// Progress-watchdog report, set if the run was cut short because
    /// flits were in flight but nothing moved for [`PCS_STALL_CYCLES`].
    pub stall: Option<PcsStall>,
}

/// Cycles of zero forwarding progress (with flits in flight) after which
/// the PCS driver declares the model stalled and stops the run.
///
/// Pipelined circuits cannot block each other once established, so any
/// trip is a model bug — this is a safety net mirroring the wormhole
/// network's watchdog, not an expected outcome.
pub const PCS_STALL_CYCLES: u64 = 100_000;

/// A stall detected by the PCS progress watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcsStall {
    /// Cycle at which the stall was declared.
    pub cycle: u64,
    /// Cycles since the last forwarded flit.
    pub stalled_for: u64,
    /// Flits stuck in flight.
    pub flits_in_flight: u64,
}

/// A stream waiting to connect or connected.
#[derive(Debug)]
enum StreamState {
    Waiting,
    Connected(Box<RealTimeStream>),
}

#[derive(Debug)]
enum Event {
    /// Stream `i` tries to establish its circuit.
    Attempt(usize),
    /// Stream `i` injects its next message.
    Inject(usize, ScheduledMessage),
}

/// Runs the PCS experiment at the given input load.
///
/// # Panics
///
/// Panics if `load` is not in `(0, 1.2]` or a window is not positive.
pub fn run(
    load: f64,
    cfg: &PcsConfig,
    warmup_secs: f64,
    measure_secs: f64,
    seed: u64,
) -> PcsOutcome {
    assert!(load > 0.0 && load <= 1.2, "load must be in (0, 1.2]");
    assert!(
        warmup_secs > 0.0 && measure_secs > 0.0,
        "windows must be positive"
    );
    cfg.validate();
    let tb = cfg.spec.timebase();
    let mut rng = SimRng::seed_from(seed);
    let mut net = PcsNetwork::new(cfg, tb);
    let warmup = tb.cycles_from_secs(warmup_secs);
    let end = tb.cycles_from_secs(warmup_secs + measure_secs);
    net.set_warmup_end(warmup);

    // Offered streams.
    let per_node = (load * cfg.spec.link_bps / cfg.spec.stream_bps).round() as usize;
    let setup_window = tb.cycles_from_ms(cfg.setup_window_ms).get().max(1);
    let backoff_mean = tb.cycles_from_ms(cfg.retry_backoff_ms).as_f64().max(1.0);

    let mut calendar: Calendar<Event> = Calendar::new();
    let mut streams: Vec<(NodeId, NodeId, StreamState)> = Vec::new();
    for node in 0..cfg.nodes {
        for _ in 0..per_node {
            let dest = NodeId(rng.index_excluding(cfg.nodes, node) as u32);
            let i = streams.len();
            streams.push((NodeId(node as u32), dest, StreamState::Waiting));
            calendar.schedule(Cycles(rng.range_u64(0, setup_window)), Event::Attempt(i));
        }
    }
    let offered = streams.len() as u64;

    let mut attempts = 0u64;
    let mut established = 0u64;
    let mut next_msg_id = 0u64;
    let mut next_stream_id = 0u32;
    // Probe + ack round trip before data may flow.
    let rtt = Cycles(u64::from(cfg.pipe_cycles) * 2 + 2);

    let mut stall = None;
    let mut last_forwarded = 0u64;
    let mut last_progress_at = Cycles::ZERO;
    let mut now = Cycles::ZERO;
    while now < end {
        while let Some((_, ev)) = calendar.pop_due(now) {
            match ev {
                Event::Attempt(i) => {
                    attempts += 1;
                    let (src, dest, _) = streams[i];
                    let reserved = if net.probe_blocked(src, dest) {
                        // The probe met in-flight data on its path and was
                        // nacked.
                        None
                    } else {
                        net.try_establish(src, dest)
                    };
                    if let Some((in_vc, out_vc)) = reserved {
                        established += 1;
                        let sid = flitnet::StreamId(next_stream_id);
                        next_stream_id += 1;
                        let mut s = RealTimeStream::new(
                            &cfg.spec,
                            StreamClass::Vbr,
                            sid,
                            src,
                            dest,
                            in_vc,
                            out_vc,
                            now + rtt,
                        );
                        let msg = s.next_message(&mut rng, &mut next_msg_id);
                        calendar.schedule(msg.at, Event::Inject(i, msg));
                        streams[i].2 = StreamState::Connected(Box::new(s));
                    } else {
                        // Nacked: retry after a randomized backoff.
                        let delay = rng.exponential(backoff_mean).max(1.0) as u64;
                        calendar.schedule(now + Cycles(delay), Event::Attempt(i));
                    }
                }
                Event::Inject(i, msg) => {
                    for flit in msg.flits {
                        net.inject(now, msg.src, flit);
                    }
                    let StreamState::Connected(s) = &mut streams[i].2 else {
                        unreachable!("inject for an unconnected stream");
                    };
                    let next = s.next_message(&mut rng, &mut next_msg_id);
                    calendar.schedule(next.at, Event::Inject(i, next));
                }
            }
        }
        net.step(now);
        if net.is_idle() {
            last_progress_at = now;
            let next = calendar.next_at().unwrap_or(end);
            now = next.max(now + Cycles(1));
        } else {
            let forwarded = net.counters().flits_forwarded;
            if forwarded != last_forwarded {
                last_forwarded = forwarded;
                last_progress_at = now;
            } else if (now - last_progress_at).get() >= PCS_STALL_CYCLES {
                stall = Some(PcsStall {
                    cycle: now.get(),
                    stalled_for: (now - last_progress_at).get(),
                    flits_in_flight: net.flits_in_flight(),
                });
                break;
            }
            now += Cycles(1);
        }
    }

    PcsOutcome {
        jitter: net.delivery().summary(),
        attempts,
        established,
        dropped: attempts - established,
        offered,
        cycles: end.get(),
        counters: net.counters(),
        stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_load_eventually_establishes_everything() {
        let out = run(0.4, &PcsConfig::paper_default(), 0.05, 0.3, 1);
        // 0.4 × 25 = 10 streams per node, well under 24 VCs both sides:
        // every stream connects eventually, but probes that meet in-flight
        // data are nacked first (Table 3 shows drops at every load).
        assert_eq!(out.offered, 8 * 10);
        assert_eq!(out.established, out.offered);
        assert_eq!(out.attempts, out.established + out.dropped);
    }

    #[test]
    fn low_load_is_jitter_free() {
        let out = run(0.4, &PcsConfig::paper_default(), 0.08, 0.2, 2);
        assert!(out.jitter.intervals > 50);
        assert!(
            out.jitter.is_jitter_free(33.0, 1.0),
            "d={} σ={}",
            out.jitter.mean_ms,
            out.jitter.std_ms
        );
    }

    #[test]
    fn overload_drops_many_attempts() {
        // 0.9 × 25 ≈ 23 streams per node offered; random destinations
        // oversubscribe some output links beyond their 24 VCs, so those
        // streams retry forever: attempts ≫ established (Table 3's shape).
        let out = run(0.9, &PcsConfig::paper_default(), 0.05, 0.3, 3);
        assert!(out.established < out.offered);
        assert!(
            out.dropped > out.offered,
            "dropped {} vs offered {}",
            out.dropped,
            out.offered
        );
    }

    #[test]
    fn established_never_exceeds_vc_capacity() {
        let cfg = PcsConfig::paper_default();
        let out = run(1.0, &cfg, 0.05, 0.2, 4);
        assert!(out.established <= (cfg.nodes as u64) * u64::from(cfg.vcs_per_link));
    }

    #[test]
    fn accounting_is_consistent() {
        let out = run(0.7, &PcsConfig::paper_default(), 0.05, 0.1, 5);
        assert_eq!(out.attempts, out.established + out.dropped);
        assert!(out.established <= out.offered);
    }

    #[test]
    fn outcome_carries_counters_and_cycles() {
        let out = run(0.5, &PcsConfig::paper_default(), 0.05, 0.1, 6);
        assert!(out.cycles > 0);
        assert!(out.counters.flits_forwarded > 0);
        assert!(out.counters.mean_occupancy().is_some());
    }

    #[test]
    fn watchdog_stays_quiet_across_the_load_range() {
        // Established circuits are pipelined and cannot block each other;
        // a stall would be a model bug, and even past saturation the
        // watchdog must stay quiet.
        for (load, seed) in [(0.4, 7), (0.9, 8), (1.1, 9)] {
            let out = run(load, &PcsConfig::paper_default(), 0.05, 0.1, seed);
            assert_eq!(out.stall, None, "load {load} stalled");
        }
    }
}
