//! Measurement helpers: order statistics, per-phase memory from
//! `/proc/self`, the in-memory span recorder, and the run's outcome
//! ledger (operations attempted, failures by name, metric values).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, with that percentile and the sample
/// count. Fewer than eleven samples have no such tail; the maximum is
/// reported then, at the 100th percentile.
pub struct Tail {
    pub value: f64,
    pub pct: f64,
    pub samples: u64,
}

/// Sub-buckets per power of two in a [`Histogram`]: each bucket is at
/// most 1/64 (1.6 %) of its lower edge wide.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Latencies in ns, in a log-linear histogram allocated once: recording
/// a sample never grows the benchmark's own memory, however many
/// operations a run completes. Order statistics interpolate within a
/// bucket by rank. (The `logdiam-obs` histogram's buckets are a factor
/// of two wide: too coarse for a median.)
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (ns >> shift) - SUB) as usize
    }

    /// Lower edge and width of bucket `b`, in ns.
    fn edges(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let shift = b / SUB - 1;
        (((SUB + b % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, d: std::time::Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The sample of rank `r` (0-based, ascending), in ns.
    fn at_rank(&self, r: u64) -> f64 {
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if r < below + c {
                let (lo, width) = Self::edges(b);
                return lo + width * ((r - below) as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        0.0
    }

    /// Median in ns (0 when empty).
    pub fn median(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.at_rank((self.n - 1) / 2) + self.at_rank(self.n / 2)) / 2.0
    }

    /// The tail in ns (see [`Tail`]).
    pub fn tail(&self) -> Tail {
        let n = self.n;
        if n < 11 {
            return Tail {
                value: if n == 0 { 0.0 } else { self.at_rank(n - 1) },
                pct: 100.0,
                samples: n,
            };
        }
        Tail {
            value: self.at_rank(n - 11),
            pct: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    }
}

/// A `/proc/self/status` field in KiB (0 when unreadable).
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB
}

/// Peak-RSS bookkeeping across phases. Each phase resets `VmHWM`
/// through `/proc/self/clear_refs`, so the whole-run peak is the largest
/// high-water mark seen before any reset and at the end.
pub struct Memory {
    run_peak_kib: u64,
}

impl Memory {
    pub fn new() -> Self {
        Memory { run_peak_kib: 0 }
    }

    /// Start a phase: fold the current high-water mark into the run peak,
    /// reset `VmHWM` to the current RSS and return that RSS (KiB).
    pub fn phase_start(&mut self) -> u64 {
        self.run_peak_kib = self.run_peak_kib.max(status_kib("VmHWM:"));
        // Writing 5 resets the peak RSS to the current RSS. Where the
        // kernel refuses, the phase peak degrades to the run peak so far.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        status_kib("VmRSS:")
    }

    /// End a phase started at RSS `start_kib`: the phase's peak growth
    /// over its start, in MiB.
    pub fn phase_peak_mb(&mut self, start_kib: u64) -> f64 {
        let hwm = status_kib("VmHWM:");
        self.run_peak_kib = self.run_peak_kib.max(hwm);
        hwm.saturating_sub(start_kib) as f64 / 1024.0
    }

    /// Peak RSS over the whole run so far, MiB.
    pub fn run_peak_mb(&mut self) -> f64 {
        self.run_peak_kib = self.run_peak_kib.max(status_kib("VmHWM:"));
        self.run_peak_kib as f64 / 1024.0
    }
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans around the benchmark's calls into each layer, kept in memory
/// and written once when the run ends. A disabled trace records nothing
/// and reads no clock.
pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
pub struct SpanId(Option<usize>);

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span; its parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// A span handle that records nothing (for sampled spans).
    pub fn begin_off(&self) -> SpanId {
        SpanId(None)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end = self.t0.elapsed();
            // Spans nest; one left open by a caught panic is closed here.
            while self.open.pop().is_some_and(|top| top != id) {}
        }
    }

    /// Median duration (ms) of the spans named `name`; 0 if none ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Write the spans as JSON lines (`name`, `id`, `parent`, start and
    /// end in µs since the run began) to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What one run did and found: timed operations attempted, failures by
/// name, and the metric values it measured.
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            attempted: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Count one timed operation; `Err` names what went wrong with it.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("perfbench: FAILED {why}");
            self.failures.push(why);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run `f`, turning a panic into an `Err` carrying its message, so one
/// failing operation is counted instead of ending the run.
pub fn guarded<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        format!("{what}: panicked: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_order_statistics_stay_within_a_bucket() {
        let mut h = Histogram::new();
        let xs: Vec<u64> = (1..=1000).map(|i| i * 997 % 100_003 + 1).collect();
        for &x in &xs {
            h.record(Duration::from_nanos(x));
        }
        let mut v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        v.sort_by(f64::total_cmp);
        let close = |got: f64, want: f64| (got - want).abs() <= want / 60.0 + 1.0;
        assert!(
            close(h.median(), median(&v)),
            "{} vs {}",
            h.median(),
            median(&v)
        );
        let t = h.tail();
        assert_eq!((t.samples, t.pct), (1000, 99.0));
        assert!(close(t.value, v[989]), "{} vs {}", t.value, v[989]);
        for ns in [0, 1, 63, 64, 65, 127, 128, 1 << 40, (1 << 62) + 12_345] {
            let (lo, w) = Histogram::edges(Histogram::bucket(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + w + 1.0, "{ns}");
        }
    }
}
