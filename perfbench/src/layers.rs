//! Standalone timings of single layers through their public calls, fed
//! with flits the workload itself generated. Each returns host
//! nanoseconds per operation, averaged over `iters` operations.

use std::hint::black_box;
use std::time::Instant;

use flitnet::{CreditLink, Flit, Link, VcBuffer, VcId};
use mediaworm::{MuxScheduler, SchedulerKind};
use netsim::Cycles;

/// Bounds on the operations a standalone timing runs: enough to rise
/// above timer noise, few enough to keep the traced run short.
pub const MIN_ITERS: u64 = 200_000;
pub const MAX_ITERS: u64 = 2_000_000;

fn ns_per(started: Instant, iters: u64) -> f64 {
    started.elapsed().as_secs_f64() * 1e9 / iters.max(1) as f64
}

/// One scheduling decision at a multiplexer of `vcs` VCs with every VC
/// backlogged: `on_arrival` of a new flit, `choose`, then `on_service`.
pub fn scheduler_pick_ns(kind: SchedulerKind, vcs: usize, flits: &[Flit], iters: u64) -> f64 {
    let mut s = MuxScheduler::new(kind, vcs);
    let mut next = flits.iter().cycle();
    for v in 0..vcs {
        for _ in 0..4 {
            s.on_arrival(v, Cycles(0), next.next().expect("sample flits"));
        }
    }
    let mut eligible = vec![false; vcs];
    let mut vc = 0usize;
    let started = Instant::now();
    for k in 0..iters {
        s.on_arrival(vc, Cycles(k), next.next().expect("sample flits"));
        for (v, e) in eligible.iter_mut().enumerate() {
            *e = s.pending(v) > 0;
        }
        let pick = s
            .choose(black_box(&eligible))
            .expect("a backlogged multiplexer picks a VC");
        s.on_service(pick);
        vc = (vc + 1) % vcs;
    }
    ns_per(started, iters)
}

/// One `push` plus one `pop` on a VC buffer kept at `depth - 1` flits.
pub fn vcbuf_ns(depth: usize, flits: &[Flit], iters: u64) -> f64 {
    let mut buf = VcBuffer::new(depth);
    let mut next = flits.iter().cycle();
    for _ in 1..depth {
        buf.push(*next.next().expect("sample flits"));
    }
    let started = Instant::now();
    for _ in 0..iters {
        buf.push(*next.next().expect("sample flits"));
        black_box(buf.pop());
    }
    ns_per(started, iters)
}

/// One cycle of a busy wire of `latency` cycles: a flit `send` and
/// `recv` on the `Link`, and a credit `send` and `recv` on its
/// `CreditLink`.
pub fn link_ns(latency: u64, vcs: usize, flits: &[Flit], iters: u64) -> f64 {
    let mut link = Link::new(Cycles(latency));
    let mut credits = CreditLink::new(Cycles(latency), vcs);
    let mut next = flits.iter().cycle();
    let started = Instant::now();
    for k in 0..iters {
        let now = Cycles(k);
        black_box(link.recv(now));
        link.send(now, *next.next().expect("sample flits"));
        black_box(credits.recv(now));
        credits.send(now, VcId((k % vcs as u64) as u32));
    }
    ns_per(started, iters)
}
