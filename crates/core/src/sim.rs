//! One-call experiment driver.
//!
//! Wraps [`crate::net::Network`] with the warm-up / measurement protocol
//! every experiment in the paper follows, and condenses the result into a
//! [`SimOutcome`].

use std::io;
use std::path::PathBuf;

use calculus::BoundError;
use metrics::JitterSummary;
use netsim::Cycles;
use topo::Topology;
use traffic::Workload;

use crate::audit::{AuditConfig, StallReport, WatchdogConfig};
use crate::bounds::{BoundsOracle, BoundsReport};
use crate::config::RouterConfig;
use crate::counters::{NetCounters, SkipStats};
use crate::net::Network;

/// Opt-in safety layers and instruments for a run (see [`crate::audit`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimOpts {
    /// Invariant audit sweep; `None` is off.
    pub audit: Option<AuditConfig>,
    /// Progress watchdog; `None` is off.
    pub watchdog: Option<WatchdogConfig>,
    /// Step on the oracle driver instead of the fast one: every cycle
    /// stepped, every slot scanned, with the same audit and watchdog (see
    /// [`crate::net::Network::run_until_reference`]). Slow; only useful
    /// as the oracle in bit-identity tests.
    pub reference: bool,
    /// Delay-bound audit: compute each real-time stream's analytic
    /// worst-case latency before the run (see [`crate::bounds`]) and
    /// check `observed ≤ bound` at the end, attaching a
    /// [`BoundsReport`] to the outcome. [`run_with`] returns
    /// [`SimError::Bounds`] before stepping if the topology's routes are
    /// not feedforward (tori, cyclic ring traffic) — those have no
    /// network-calculus bound.
    pub bounds: bool,
    /// Record a JSONL flit-event trace into [`SimOutcome::trace`] (see
    /// [`crate::net::Network::enable_trace`]). The trace buffers in memory
    /// and every crossbar crossing is an event, so keep traced runs to a
    /// few simulated milliseconds.
    pub trace: bool,
}

impl SimOpts {
    /// The default for [`run`]: watchdog on (an O(routers) check per busy
    /// cycle that turns silent stalls into structured reports), audit
    /// off.
    pub fn standard() -> SimOpts {
        SimOpts {
            audit: None,
            watchdog: Some(WatchdogConfig::default()),
            reference: false,
            bounds: false,
            trace: false,
        }
    }

    /// Audit and watchdog both on (CI audit mode, the bench `--audit`
    /// flag).
    pub fn audited() -> SimOpts {
        SimOpts {
            audit: Some(AuditConfig::default()),
            watchdog: Some(WatchdogConfig::default()),
            reference: false,
            bounds: false,
            trace: false,
        }
    }

    /// This configuration with the delay-bound audit on (the bench
    /// `--bounds` flag).
    pub fn bounds(self) -> SimOpts {
        SimOpts {
            bounds: true,
            ..self
        }
    }

    /// This configuration on the oracle driver: every cycle stepped with
    /// full scans and no horizon jump, the audit and watchdog as
    /// configured. Every identity test compares the fast driver against
    /// it.
    pub fn reference(self) -> SimOpts {
        SimOpts {
            reference: true,
            ..self
        }
    }
}

/// Periodic on-disk checkpointing for a resumable run (see
/// [`run_with`]).
///
/// The checkpoint file is a [`crate::net::Network::snapshot`] image:
/// versioned, length- and checksum-guarded, and restored bit-identically.
/// Writes are atomic (a `.tmp` sibling is renamed over the target), so a
/// kill mid-write never leaves a torn checkpoint behind.
#[derive(Debug, Clone)]
pub struct CheckpointOpts {
    /// Cycles between snapshots. `0` writes no periodic checkpoints, only
    /// the final image (the run can still *resume from* an existing file
    /// when `resume` is set).
    pub interval_cycles: u64,
    /// Where the snapshot lives. The parent directory is created on the
    /// first write; the run's final image stays there when it completes.
    pub path: PathBuf,
    /// Restore from `path` before stepping, if the file exists. A missing
    /// file is not an error — the run simply starts from cycle zero.
    pub resume: bool,
}

impl CheckpointOpts {
    /// Checkpoint to `path` every `interval_cycles`, resuming from it when
    /// present — the configuration the sweep engine uses.
    pub fn resumable(path: PathBuf, interval_cycles: u64) -> CheckpointOpts {
        CheckpointOpts {
            interval_cycles,
            path,
            resume: true,
        }
    }
}

/// The condensed result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Frame-delivery jitter of the real-time streams (d̄, σ_d).
    pub jitter: JitterSummary,
    /// Mean best-effort message latency in microseconds (`NaN` if the
    /// workload had no best-effort component).
    pub be_mean_latency_us: f64,
    /// Best-effort messages measured.
    pub be_msgs: u64,
    /// Realized real-time load (fraction of link bandwidth per node).
    pub rt_load: f64,
    /// Realized best-effort load.
    pub be_load: f64,
    /// Whether the real-time demand exceeded the per-VC stream capacity.
    pub oversubscribed: bool,
    /// Messages injected over the whole run (including warm-up).
    pub injected_msgs: u64,
    /// Messages delivered over the whole run.
    pub delivered_msgs: u64,
    /// Messages still in flight when the run's end cycle cut them off.
    ///
    /// These are right-censored observations: they appear in no latency or
    /// jitter statistic, so at high load the reported tails are biased
    /// low. Always `injected_msgs - delivered_msgs`; reported explicitly
    /// (here and in `--json` records) so the truncation is visible instead
    /// of silent.
    pub in_flight_at_end: u64,
    /// Simulated cycles the run covered (warm-up + measurement).
    pub cycles: u64,
    /// Router telemetry counter totals over the whole run.
    pub counters: NetCounters,
    /// The watchdog's stall report, if the run stalled (the run stops at
    /// the stall instead of spinning to the end cycle).
    pub stall: Option<StallReport>,
    /// Flow-control invariant violations the audit sweep observed (0 when
    /// auditing is off — see [`SimOpts`]).
    pub audit_violations: u64,
    /// Quiescence-skip effectiveness of the run's driver (stepped vs
    /// skipped cycles, horizon jumps). Diagnostic only: two runs that
    /// differ here (e.g. audited vs not) still simulate identical bits.
    pub skip: SkipStats,
    /// The delay-bound audit (`None` unless [`SimOpts::bounds`] was on):
    /// per-stream analytic worst case vs. observed maximum latency, with
    /// any `observed > bound` violations pulled out.
    pub bounds: Option<BoundsReport>,
    /// The JSONL flit-event trace; empty unless [`SimOpts::trace`] was on.
    /// A resumed run's trace covers only the segment after its restore
    /// point.
    pub trace: Vec<u8>,
}

impl SimOutcome {
    /// Mean best-effort latency in microseconds, `None` when the workload
    /// had no best-effort component (avoids NaN in serialized output).
    pub fn be_mean_latency_us_opt(&self) -> Option<f64> {
        self.be_mean_latency_us
            .is_finite()
            .then_some(self.be_mean_latency_us)
    }
}

impl SimOutcome {
    /// Whether the run delivered real-time traffic jitter-free in the
    /// paper's sense (d̄ ≈ frame interval, σ_d ≈ 0), with `tol_ms`
    /// tolerance.
    pub fn is_jitter_free(&self, frame_interval_ms: f64, tol_ms: f64) -> bool {
        self.jitter.is_jitter_free(frame_interval_ms, tol_ms)
    }
}

/// Runs `workload` over `topology` with `cfg`-configured MediaWorm
/// switches for `warmup_secs + measure_secs` of simulated time, measuring
/// only after the warm-up, under [`SimOpts::standard`] with no checkpoint
/// and no trace. [`run_with`] takes every knob explicitly.
///
/// # Example
///
/// ```
/// use mediaworm::{sim, RouterConfig};
/// use flitnet::VcPartition;
/// use topo::Topology;
/// use traffic::{StreamClass, WorkloadBuilder};
///
/// let topology = Topology::single_switch(8);
/// let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
///     .load(0.4)
///     .mix(100.0, 0.0)
///     .real_time_class(StreamClass::Cbr)
///     .build();
/// let out = sim::run(&topology, wl, &RouterConfig::default(), 0.02, 0.08);
/// assert!(out.is_jitter_free(33.0, 1.0));
/// ```
///
/// # Panics
///
/// Panics if either duration is not positive.
pub fn run(
    topology: &Topology,
    workload: Workload,
    cfg: &RouterConfig,
    warmup_secs: f64,
    measure_secs: f64,
) -> SimOutcome {
    run_with(
        topology,
        workload,
        cfg,
        warmup_secs,
        measure_secs,
        SimOpts::standard(),
        None,
    )
    .expect("a standard run without checkpoint or bounds cannot fail")
}

/// Why [`run_with`] could not produce an outcome.
#[derive(Debug)]
pub enum SimError {
    /// Checkpoint I/O failed; a corrupt or mismatched snapshot surfaces
    /// as [`io::ErrorKind::InvalidData`].
    Checkpoint(io::Error),
    /// [`SimOpts::bounds`] was asked of a topology whose routes are not
    /// feedforward (tori, cyclic ring traffic): there is no
    /// network-calculus bound to audit against.
    Bounds(BoundError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SimError::Bounds(e) => write!(f, "delay-bound audit unavailable: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Checkpoint(e) => Some(e),
            SimError::Bounds(e) => Some(e),
        }
    }
}

impl From<io::Error> for SimError {
    fn from(e: io::Error) -> SimError {
        SimError::Checkpoint(e)
    }
}

/// Runs `workload` over `topology` like [`run`], with every knob
/// explicit: the safety layers, driver and trace (`opts`) and an optional
/// on-disk checkpoint (`ckpt`).
///
/// With `ckpt`, the run writes a snapshot every `interval_cycles` and —
/// when `resume` is set and the file exists — picks the run up from it
/// instead of starting at cycle zero. A resumed run is bit-identical to
/// an uninterrupted one: the snapshot captures the complete mutable
/// simulation state (RNG streams, VC buffers, scheduler tags, link
/// pipelines, metric accumulators), so counters, statistics and traces
/// continue exactly where the checkpoint left them; a resumed run's
/// trace covers only the segment after the restore point. The run also
/// writes its final image, at the end cycle or at a stall, so resuming a
/// completed point restores that image and steps no cycle.
///
/// # Errors
///
/// [`SimError::Checkpoint`] for filesystem errors and corrupt or
/// mismatched snapshots; [`SimError::Bounds`] when `opts.bounds` meets a
/// topology without a delay bound. Both are reported before any cycle is
/// simulated, except write failures of periodic checkpoints.
///
/// # Panics
///
/// Panics if either duration is not positive.
pub fn run_with(
    topology: &Topology,
    workload: Workload,
    cfg: &RouterConfig,
    warmup_secs: f64,
    measure_secs: f64,
    opts: SimOpts,
    ckpt: Option<&CheckpointOpts>,
) -> Result<SimOutcome, SimError> {
    assert!(warmup_secs > 0.0, "warm-up must be positive");
    assert!(measure_secs > 0.0, "measurement window must be positive");
    let (rt_load, be_load) = workload.realized_load();
    let oversubscribed = workload.is_oversubscribed();
    let oracle = if opts.bounds {
        Some(BoundsOracle::new(topology, &workload, cfg).map_err(SimError::Bounds)?)
    } else {
        None
    };
    let mut net = Network::new(topology, workload, cfg);
    if let Some(a) = opts.audit {
        net.enable_audit(a);
    }
    if let Some(w) = opts.watchdog {
        net.enable_watchdog(w);
    }
    if opts.trace {
        net.enable_trace();
    }
    let tb = net.timebase();
    let warmup = tb.cycles_from_secs(warmup_secs);
    let end = tb.cycles_from_secs(warmup_secs + measure_secs);
    net.set_warmup_end(warmup);
    if let Some(ckpt) = ckpt.filter(|c| c.resume) {
        match std::fs::read(&ckpt.path) {
            Ok(bytes) => net.restore(&bytes).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("checkpoint {}: {e}", ckpt.path.display()),
                )
            })?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    let interval = ckpt.map_or(0, |c| c.interval_cycles);
    while net.now() < end && net.stall_report().is_none() {
        let to = if interval == 0 {
            end
        } else {
            end.min(net.now() + Cycles(interval))
        };
        if opts.reference {
            net.run_until_reference(to);
        } else {
            net.run_until(to);
        }
        if let Some(ckpt) = ckpt {
            write_checkpoint(&ckpt.path, &net.snapshot())?;
        }
    }
    let bounds = oracle.map(|o| o.report(&net, end));
    let in_flight_at_end = net.note_truncated_messages();
    Ok(SimOutcome {
        jitter: net.delivery().summary(),
        be_mean_latency_us: net.latency().mean_us(),
        be_msgs: net.latency().count(),
        rt_load,
        be_load,
        oversubscribed,
        injected_msgs: net.injected_msgs(),
        delivered_msgs: net.delivered_msgs(),
        in_flight_at_end,
        cycles: end.get(),
        counters: net.counters(),
        stall: net.stall_report().cloned(),
        audit_violations: net.audit_log().map_or(0, |l| l.total()),
        skip: net.skip_stats(),
        bounds,
        trace: net.take_trace(),
    })
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written,
/// flushed and renamed over the target, so a kill mid-write leaves either
/// the previous checkpoint or the new one — never a torn file.
fn write_checkpoint(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use flitnet::VcPartition;
    use traffic::{StreamClass, WorkloadBuilder};

    fn workload(load: f64, x: f64, y: f64, seed: u64) -> Workload {
        let p = if y == 0.0 {
            VcPartition::all_real_time(16)
        } else {
            VcPartition::from_mix(16, x, y)
        };
        WorkloadBuilder::new(8, p)
            .load(load)
            .mix(x, y)
            .real_time_class(StreamClass::Vbr)
            .seed(seed)
            .build()
    }

    #[test]
    fn outcome_reports_loads() {
        let out = run(
            &Topology::single_switch(8),
            workload(0.5, 80.0, 20.0, 1),
            &RouterConfig::default(),
            0.02,
            0.05,
        );
        assert!((out.rt_load - 0.4).abs() < 0.01);
        assert!((out.be_load - 0.1).abs() < 0.01);
        assert!(out.be_msgs > 0);
        assert!(out.injected_msgs > out.delivered_msgs / 2);
    }

    #[test]
    fn moderate_load_vbr_is_jitter_free_with_virtual_clock() {
        let out = run(
            &Topology::single_switch(8),
            workload(0.6, 100.0, 0.0, 2),
            &RouterConfig::default().scheduler(SchedulerKind::VirtualClock),
            0.05,
            0.2,
        );
        assert!(
            out.is_jitter_free(33.0, 1.5),
            "d={} σ={}",
            out.jitter.mean_ms,
            out.jitter.std_ms
        );
    }

    #[test]
    fn traced_run_matches_untraced_numbers() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let plain = run(&topology, workload(0.4, 100.0, 0.0, 5), &cfg, 0.01, 0.02);
        let traced = run_with(
            &topology,
            workload(0.4, 100.0, 0.0, 5),
            &cfg,
            0.01,
            0.02,
            SimOpts {
                trace: true,
                ..SimOpts::standard()
            },
            None,
        )
        .expect("traced run");
        let trace = traced.trace;
        assert!(plain.trace.is_empty(), "untraced runs carry no trace");
        assert_eq!(plain.delivered_msgs, traced.delivered_msgs);
        assert_eq!(plain.counters, traced.counters);
        assert_eq!(plain.cycles, traced.cycles);
        assert!(!trace.is_empty(), "traced run must produce events");
        assert!(trace.ends_with(b"\n"), "JSONL trace ends with newline");
    }

    #[test]
    fn outcome_carries_counters_and_cycles() {
        let out = run(
            &Topology::single_switch(8),
            workload(0.5, 80.0, 20.0, 6),
            &RouterConfig::default(),
            0.01,
            0.02,
        );
        assert!(out.cycles > 0);
        assert!(out.counters.rt_flits > 0);
        assert!(out.counters.be_flits > 0);
        assert_eq!(out.be_mean_latency_us_opt(), Some(out.be_mean_latency_us));
    }

    #[test]
    fn watchdog_never_trips_on_saturated_but_progressing_loads() {
        // The fig. 3 operating range, including past saturation: slow is
        // not stuck, and the default watchdog must not cry wolf.
        for &load in &[0.6, 0.8, 0.96] {
            let out = run(
                &Topology::single_switch(8),
                workload(load, 80.0, 20.0, 21),
                &RouterConfig::default(),
                0.01,
                0.03,
            );
            assert!(
                out.stall.is_none(),
                "load {load} tripped the watchdog: {:?}",
                out.stall
            );
            assert!(out.delivered_msgs > 0);
        }
    }

    #[test]
    fn audited_opts_report_zero_violations_on_healthy_runs() {
        let out = run_with(
            &Topology::single_switch(8),
            workload(0.5, 80.0, 20.0, 22),
            &RouterConfig::default(),
            0.01,
            0.02,
            SimOpts::audited(),
            None,
        )
        .expect("audited run");
        assert_eq!(out.audit_violations, 0);
        assert!(out.stall.is_none());
    }

    #[test]
    fn end_of_run_truncation_is_counted_not_silent() {
        // Drain-window regression: at high load a short measurement window
        // always cuts messages off mid-flight. They must show up in
        // `in_flight_at_end` (and on the latency tracker as censored
        // observations) instead of silently vanishing from the stats.
        let out = run(
            &Topology::single_switch(8),
            workload(0.96, 80.0, 20.0, 9),
            &RouterConfig::default(),
            0.01,
            0.02,
        );
        assert!(
            out.in_flight_at_end > 0,
            "a saturated run must truncate some messages"
        );
        assert_eq!(
            out.injected_msgs,
            out.delivered_msgs + out.in_flight_at_end,
            "message conservation: injected = delivered + in flight"
        );
    }

    #[test]
    fn longer_drain_reduces_truncation_share() {
        // The same offered load measured over a longer window truncates a
        // smaller *fraction* of its messages — the bias in_flight_at_end
        // exposes shrinks as the window grows.
        let share = |measure: f64| {
            let out = run(
                &Topology::single_switch(8),
                workload(0.8, 80.0, 20.0, 10),
                &RouterConfig::default(),
                0.01,
                measure,
            );
            out.in_flight_at_end as f64 / out.injected_msgs.max(1) as f64
        };
        let short = share(0.01);
        let long = share(0.08);
        assert!(
            long < short,
            "truncated share must shrink with the window: short {short} long {long}"
        );
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let plain = run(&topology, workload(0.5, 80.0, 20.0, 31), &cfg, 0.01, 0.03);
        let path = std::env::temp_dir().join("mediaworm_sim_ckpt_plain.snap");
        let _ = std::fs::remove_file(&path);
        let out = run_with(
            &topology,
            workload(0.5, 80.0, 20.0, 31),
            &cfg,
            0.01,
            0.03,
            SimOpts::standard(),
            Some(&CheckpointOpts::resumable(path.clone(), 20_000)),
        )
        .expect("checkpointed run");
        assert_eq!(plain.delivered_msgs, out.delivered_msgs);
        assert_eq!(plain.injected_msgs, out.injected_msgs);
        assert_eq!(plain.counters, out.counters);
        assert_eq!(
            plain.jitter.mean_ms.to_bits(),
            out.jitter.mean_ms.to_bits(),
            "periodic checkpointing must not perturb the statistics"
        );
        // The final image stays: resuming it steps no cycle and gives the
        // same outcome.
        assert!(path.exists(), "the final image must stay on disk");
        let again = run_with(
            &topology,
            workload(0.5, 80.0, 20.0, 31),
            &cfg,
            0.01,
            0.03,
            SimOpts::standard(),
            Some(&CheckpointOpts::resumable(path.clone(), 20_000)),
        )
        .expect("resumed finished run");
        assert_eq!(again.skip.cycles_stepped, 0);
        assert_eq!(again.counters, out.counters);
        assert_eq!(again.delivered_msgs, out.delivered_msgs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        use crate::audit::WatchdogConfig;
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let plain = run(&topology, workload(0.6, 80.0, 20.0, 32), &cfg, 0.01, 0.03);

        // Manufacture an interrupted run: step half-way under the same
        // options run() uses, then leave its snapshot on disk.
        let mut half = Network::new(&topology, workload(0.6, 80.0, 20.0, 32), &cfg);
        half.enable_watchdog(WatchdogConfig::default());
        let tb = half.timebase();
        half.set_warmup_end(tb.cycles_from_secs(0.01));
        half.run_until(tb.cycles_from_secs(0.02));
        let path = std::env::temp_dir().join("mediaworm_sim_ckpt_resume.snap");
        std::fs::write(&path, half.snapshot()).expect("write checkpoint");

        let out = run_with(
            &topology,
            workload(0.6, 80.0, 20.0, 32),
            &cfg,
            0.01,
            0.03,
            SimOpts::standard(),
            Some(&CheckpointOpts::resumable(path.clone(), 0)),
        )
        .expect("resumed run");
        assert_eq!(plain.delivered_msgs, out.delivered_msgs);
        assert_eq!(plain.counters, out.counters);
        assert_eq!(plain.in_flight_at_end, out.in_flight_at_end);
        assert_eq!(plain.jitter.mean_ms.to_bits(), out.jitter.mean_ms.to_bits());
        assert_eq!(plain.jitter.std_ms.to_bits(), out.jitter.std_ms.to_bits());
        assert_eq!(
            plain.be_mean_latency_us.to_bits(),
            out.be_mean_latency_us.to_bits()
        );
        assert!(path.exists(), "the final image must stay on disk");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_silent_restart() {
        let topology = Topology::single_switch(8);
        let cfg = RouterConfig::default();
        let path = std::env::temp_dir().join("mediaworm_sim_ckpt_corrupt.snap");
        std::fs::write(&path, b"not a snapshot").expect("write garbage");
        let err = run_with(
            &topology,
            workload(0.5, 80.0, 20.0, 33),
            &cfg,
            0.01,
            0.02,
            SimOpts::standard(),
            Some(&CheckpointOpts::resumable(path.clone(), 0)),
        )
        .expect_err("garbage checkpoint must be rejected");
        assert!(
            matches!(&err, SimError::Checkpoint(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bounds_on_a_torus_is_a_typed_error_not_a_panic() {
        // Dateline routing wraps around a cycle, outside feedforward
        // network calculus: asking for bounds must come back as a
        // matchable error before any cycle is simulated.
        let topology = Topology::torus(4, 4, 1);
        let wl = WorkloadBuilder::new(16, VcPartition::from_mix(4, 50.0, 50.0))
            .load(0.3)
            .mix(80.0, 20.0)
            .real_time_class(StreamClass::Vbr)
            .seed(1)
            .build();
        let err = run_with(
            &topology,
            wl,
            &RouterConfig::new(4),
            0.001,
            0.001,
            SimOpts::standard().bounds(),
            None,
        )
        .expect_err("a torus has no delay bound");
        assert!(
            matches!(err, SimError::Bounds(BoundError::Datelines { .. })),
            "{err:?}"
        );
        assert!(err.to_string().contains("delay-bound audit unavailable"));
    }

    #[test]
    #[should_panic(expected = "warm-up must be positive")]
    fn zero_warmup_rejected() {
        let _ = run(
            &Topology::single_switch(8),
            workload(0.5, 100.0, 0.0, 3),
            &RouterConfig::default(),
            0.0,
            0.1,
        );
    }
}
