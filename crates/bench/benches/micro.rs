//! Criterion micro-benchmarks for the simulator's hot paths.
//!
//! These are engineering benchmarks (how fast is the simulator), not the
//! paper's experiments — those live in `src/bin/` (fig3…fig9, table2,
//! table3) and print the paper's tables.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use flitnet::{Flit, FrameId, MsgId, NodeId, StreamId, TrafficClass, VcId, VcPartition};
use mediaworm::{MuxScheduler, Network, RouterConfig, SchedulerKind};
use netsim::{Calendar, Cycles, SimRng};
use topo::Topology;
use traffic::{StreamClass, WorkloadBuilder};

fn flit(vtick: f64) -> Flit {
    Flit {
        stream: StreamId(0),
        msg: MsgId(0),
        frame: FrameId(0),
        seq_in_msg: 0,
        msg_len: 20,
        msgs_in_frame: 1,
        dest: NodeId(0),
        vc: VcId(0),
        out_vc: VcId(0),
        vtick,
        class: TrafficClass::Vbr,
        created_at: Cycles(0),
    }
}

fn bench_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("virtual_clock_scheduler");
    for kind in [SchedulerKind::VirtualClock, SchedulerKind::Fifo] {
        g.bench_function(format!("{kind:?}_arrival_choose_service_16vc"), |b| {
            let mut s = MuxScheduler::new(kind, 16);
            // Keep every VC backlogged so `choose` scans a full mux point.
            for v in 0..16 {
                for _ in 0..4 {
                    s.on_arrival(v, Cycles(0), &flit(100.0));
                }
            }
            let mut eligible = [true; 16];
            let mut vc = 0usize;
            b.iter(|| {
                s.on_arrival(vc, Cycles(1), &flit(100.0));
                for (v, e) in eligible.iter_mut().enumerate() {
                    *e = s.pending(v) > 0;
                }
                let pick = s.choose(black_box(&eligible)).expect("eligible");
                s.on_service(pick);
                vc = (vc + 1) % 16;
            });
        });
        // The measured busy regimes: about 2 of 16 VCs eligible per port
        // on the fig. 9 fat mesh and about 6 on the saturated fig. 3
        // switch, handed over as the ascending list the router builds.
        for k in [2usize, 6] {
            g.bench_function(format!("{kind:?}_choose_from_{k}_of_16vc"), |b| {
                let mut s = MuxScheduler::new(kind, 16);
                for v in 0..16 {
                    for _ in 0..4 {
                        s.on_arrival(v, Cycles(0), &flit(100.0));
                    }
                }
                // Sixteen rotations of `k` evenly spread VCs, each sorted.
                let lists: Vec<Vec<usize>> = (0..16)
                    .map(|r| {
                        let mut l: Vec<usize> = (0..k).map(|i| (r + i * 16 / k) % 16).collect();
                        l.sort_unstable();
                        l
                    })
                    .collect();
                let mut r = 0usize;
                b.iter(|| {
                    let pick = s.choose_from(black_box(&lists[r])).expect("eligible");
                    s.on_service(pick);
                    // Refill the served VC so every listed VC stays backlogged.
                    s.on_arrival(pick, Cycles(1), &flit(100.0));
                    r = (r + 1) % 16;
                });
            });
        }
    }
    g.finish();
}

fn bench_calendar(c: &mut Criterion) {
    c.bench_function("calendar_schedule_pop_1k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed_from(1);
                let times: Vec<u64> = (0..1000).map(|_| rng.range_u64(0, 1_000_000)).collect();
                times
            },
            |times| {
                let mut cal = Calendar::new();
                for (i, t) in times.iter().enumerate() {
                    cal.schedule(Cycles(*t), i);
                }
                let mut out = 0usize;
                while let Some((_, v)) = cal.pop() {
                    out = out.wrapping_add(v);
                }
                black_box(out)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_normal(c: &mut Criterion) {
    c.bench_function("normal_sample", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| black_box(rng.normal(16_666.0, 3_333.0)));
    });
}

fn bench_router_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_cycle");
    g.sample_size(20);
    for &load in &[0.5, 0.9] {
        g.bench_function(format!("single_switch_load_{load}"), |b| {
            b.iter_batched(
                || {
                    let topology = Topology::single_switch(8);
                    let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
                        .load(load)
                        .mix(100.0, 0.0)
                        .real_time_class(StreamClass::Vbr)
                        .seed(3)
                        .build();
                    let mut net = Network::new(&topology, wl, &RouterConfig::default());
                    // Warm into a busy region.
                    let tb = net.timebase();
                    net.run_until(tb.cycles_from_ms(2.0));
                    net
                },
                |mut net| {
                    // Simulate 10k cycles of steady state.
                    let end = net.now() + Cycles(10_000);
                    net.run_until(end);
                    black_box(net.delivered_flits())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn busy_network(load: f64) -> Network {
    let topology = Topology::single_switch(8);
    let wl = WorkloadBuilder::new(8, VcPartition::all_real_time(16))
        .load(load)
        .mix(100.0, 0.0)
        .real_time_class(StreamClass::Vbr)
        .seed(3)
        .build();
    let mut net = Network::new(&topology, wl, &RouterConfig::default());
    let tb = net.timebase();
    net.run_until(tb.cycles_from_ms(2.0));
    net
}

/// Tracing off must cost nothing measurable on the hot path: compare an
/// untraced `run_until` (the baseline) against a run with JSONL tracing
/// armed by `enable_trace`.
fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(20);
    g.bench_function("untraced_10k_cycles", |b| {
        b.iter_batched(
            || busy_network(0.9),
            |mut net| {
                let end = net.now() + Cycles(10_000);
                net.run_until(end);
                black_box(net.delivered_flits())
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("jsonl_sink_10k_cycles", |b| {
        b.iter_batched(
            || busy_network(0.9),
            |mut net| {
                net.enable_trace();
                let end = net.now() + Cycles(10_000);
                net.run_until(end);
                black_box((net.delivered_flits(), net.take_trace().len()))
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// A fig. 3-configured network (16-VC switch, 80:20 mix) warmed into
/// steady state — the configuration whose scan cost the occupancy-driven
/// active sets attack.
fn fig3_network(load: f64) -> Network {
    let topology = Topology::single_switch(8);
    let wl = WorkloadBuilder::new(8, VcPartition::from_mix(16, 80.0, 20.0))
        .load(load)
        .mix(80.0, 20.0)
        .real_time_class(StreamClass::Vbr)
        .seed(3)
        .build();
    let mut net = Network::new(&topology, wl, &RouterConfig::default());
    let tb = net.timebase();
    net.run_until(tb.cycles_from_ms(2.0));
    net
}

/// The fast driver vs. the oracle (full scans, every cycle stepped) on
/// the fig. 3 configuration: per-cycle work should track flits in
/// flight, not ports × VCs, and quiescent spans should cost nothing, so
/// `active` must beat `reference` at both loads.
fn bench_net_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("net_step");
    g.sample_size(20);
    for &load in &[0.3, 0.96] {
        g.bench_function(format!("active_fig3_load_{load}_10k_cycles"), |b| {
            b.iter_batched(
                || fig3_network(load),
                |mut net| {
                    let end = net.now() + Cycles(10_000);
                    net.run_until(end);
                    black_box(net.delivered_flits())
                },
                BatchSize::SmallInput,
            );
        });
        g.bench_function(format!("reference_fig3_load_{load}_10k_cycles"), |b| {
            b.iter_batched(
                || fig3_network(load),
                |mut net| {
                    let end = net.now() + Cycles(10_000);
                    net.run_until_reference(end);
                    black_box(net.delivered_flits())
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scheduler,
    bench_calendar,
    bench_normal,
    bench_router_cycle,
    bench_net_step,
    bench_telemetry
);
criterion_main!(benches);
