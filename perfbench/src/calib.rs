//! The host-speed reference: a fixed kernel, independent of the
//! simulator's code, timed just before and just after each measured span.
//!
//! The benchmark's host shares its cores with other tenants. The speed it
//! gives one thread drifts by up to 1.8× over seconds to minutes, and
//! thread CPU time drifts exactly as wall time does, so the cause is
//! contention for the core and its caches, not preemption. No run length
//! averages that out. Each timed span is therefore bracketed by two runs
//! of this kernel; their mean time over [`NOMINAL_CHUNK_SECS`] is the
//! host's slowdown during the span, and every reported time is the
//! span's host time divided by it: the time the span would take at the
//! nominal speed.
//!
//! The kernel is a small discrete-event queueing simulation (a binary-
//! heap calendar, per-queue ring buffers, data-dependent branches), the
//! same kind of work the simulator does per cycle. Of the kernels tried
//! (a 4 MiB and a 32 KiB random-update table with a heap, a 16 MiB
//! pointer chase, and this one), it tracked the simulator's speed best:
//! its per-round time correlated 0.77–0.86 with the simulator's, with
//! a slope of 0.7–1.2 in log terms.
//! The kernel never changes with the program, so the factor is the same
//! on every commit it compares.
//!
//! Between stretches of host load the simulator's speed moves further
//! than the kernel's, so the kernel's slowdown is raised to
//! [`SENSITIVITY`] before it divides a span's time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Queues of the kernel's network, and the most a queue holds.
const QUEUES: usize = 64;
const QUEUE_CAP: usize = 48;
/// Events per chunk.
const CHUNK_STEPS: u64 = 25_000;
/// Host seconds of one chunk at the nominal speed: about the fast end
/// of what the 2-vCPU host this was tuned on gives.
pub const NOMINAL_CHUNK_SECS: f64 = 2.0e-3;
/// How far the simulator's speed moves, in log terms, when the kernel's
/// moves by one. In two sets of ten runs per workload, taken 1.5 h apart,
/// the kernel sped up 1.3x and the simulator 1.25-1.7x, depending on
/// the workload; fitted over both sets, the slope was 1.2-1.5.
const SENSITIVITY: f64 = 1.4;

/// The kernel's state, kept warm between chunks.
pub struct Reference {
    queues: Vec<VecDeque<u64>>,
    calendar: BinaryHeap<Reverse<(u64, u32)>>,
    state: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            queues: (0..QUEUES)
                .map(|_| VecDeque::with_capacity(QUEUE_CAP))
                .collect(),
            calendar: (0..QUEUES as u32)
                .map(|q| Reverse((u64::from(q), q)))
                .collect(),
            state: 0x2545_f491_4f6c_dd1d,
        };
        // Fill the queues before any chunk is timed.
        for _ in 0..4 {
            black_box(r.run(CHUNK_STEPS));
        }
        r
    }

    /// `steps` events: each pops the earliest queue event, maybe enqueues
    /// an arrival, serves the queue's head into another queue, and
    /// schedules the queue's next event.
    fn run(&mut self, steps: u64) -> u64 {
        let mut served = 0u64;
        for _ in 0..steps {
            let Reverse((t, q)) = self.calendar.pop().expect("one event per queue");
            let mut x = self.state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            let queue = &mut self.queues[q as usize];
            if x & 3 != 0 && queue.len() < QUEUE_CAP {
                queue.push_back(t ^ x);
            }
            if let Some(m) = queue.pop_front() {
                served = served.wrapping_add(m);
                let dst = (m as usize >> 7) % QUEUES;
                if self.queues[dst].len() < QUEUE_CAP {
                    self.queues[dst].push_back(m >> 1);
                }
            }
            self.calendar.push(Reverse((t + 1 + (x >> 58), q)));
        }
        served
    }

    /// The simulator's slowdown now, as one chunk predicts it: the
    /// chunk's time over its nominal time, raised to [`SENSITIVITY`].
    pub fn slowdown(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run(CHUNK_STEPS));
        (t.elapsed().as_secs_f64() / NOMINAL_CHUNK_SECS).powf(SENSITIVITY)
    }

    /// Host seconds `f` would take at the nominal speed, and its result.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (f64, T) {
        let before = self.slowdown();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        (secs * 2.0 / (before + self.slowdown()), out)
    }
}
