//! What a run prints, plus the small measuring helpers every workload
//! shares: order statistics, the outcome fingerprint hash, process
//! memory and CPU time, and in-memory trace spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run: ops attempted and failed, plus the
/// metrics of the requested mode.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one op, failed when `ok` is false.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every metric with its unit. Floats print in Rust's shortest
    /// round-trip form, so every measured digit survives.
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Median of `xs` (mean of the middle pair for even counts); NaN if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of `xs` (`0 < p ≤ 100`); NaN if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Times `f` `reps` times and returns the median wall time in seconds,
/// with `f`'s last result.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (median(&secs), last.expect("at least one repetition"))
}

/// 64-bit FNV-1a over little-endian words: the outcome fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, x: u64) -> Fnv {
        self.bytes(&x.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The process's resident-memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in the fixed 100 Hz `USER_HZ`).
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may hold spaces; the fields after it do not.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so fields 14/15 sit at 11/12.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// One traced span: a named interval of host time, relative to the
/// tracer's epoch, and the span that contains it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// A count of work done inside the span (cycles, calls, bytes...).
    work: u64,
}

/// Spans kept in memory for the whole run and written out at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        work: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            work,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` with no parent.
    pub fn time<T>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), None, work);
        out
    }

    /// The spans as JSON lines, one per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"work\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.work
            );
        }
        s
    }

    /// Writes the spans under `target/perfbench/` in the working
    /// directory and returns the path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("target").join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans_{workload}_{seed}.jsonl"));
        std::fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let mut r = Report::default();
        r.op(true);
        r.push("latency_ms", 1.203_456_789_012_3, "ms");
        let line = r.to_json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}"));
    }

    #[test]
    fn fingerprint_sees_every_word() {
        assert_ne!(Fnv::new().u64(1).finish(), Fnv::new().u64(2).finish());
        assert_ne!(
            Fnv::new().u64(1).u64(2).finish(),
            Fnv::new().u64(2).u64(1).finish()
        );
    }
}
