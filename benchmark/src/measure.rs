//! Percentiles, the sandbox-speed yardstick, process memory, and the
//! in-memory span recorder.

use crate::json::Value;
use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile, `p` in 0..=100. Panics on an empty sample: a
/// workload that measured nothing has no metric to report.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The smallest sample: for work too short or too threaded for a
/// [`Yardstick`], the fastest of many repeats is the least disturbed one.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of an empty sample");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A fixed piece of work, timed beside every op, that says how fast the
/// sandbox is right now.
///
/// The sandbox shares its cores and caches with other tenants: the same
/// deterministic ResNet-18 op takes 300 ms in a quiet minute and 450 ms in a
/// busy one, and which minute a run gets is not the program's doing. Medians
/// of runs minutes apart differ by a quarter. The yardstick (random lookups
/// in a table the size of the L2 cache, unpredictable branches, integer
/// arithmetic: what a cycle simulator leans on) slows down with the
/// simulator, so an op's time over the yardstick's time either side of it
/// moves by a few percent where the raw time moves by thirty. Times scaled
/// this way read as "ms at the speed at which the yardstick takes
/// `YARDSTICK_REF_MS`", which is this sandbox when quiet.
///
/// The loop is part of the benchmark and never changes with the code under
/// test, so a faster simulator still shows as a smaller number.
pub struct Yardstick {
    table: Vec<u32>,
    /// The reading taken after the previous op, reused as the next one's
    /// "before".
    before: f64,
}

const YARDSTICK_REF_MS: f64 = 3.0;
const YARDSTICK_TABLE_BYTES: usize = 4 << 20;
const YARDSTICK_STEPS: usize = 500_000;

/// An op's result, how long it took, and the sandbox's speed around it.
pub struct Timed<T> {
    pub value: T,
    /// Wall clock, ms.
    pub raw_ms: f64,
    /// Multiply a duration measured inside the op by this to scale it to
    /// reference speed.
    pub speed: f64,
}

impl<T> Timed<T> {
    /// Wall clock scaled to reference speed, ms.
    pub fn ms(&self) -> f64 {
        self.raw_ms * self.speed
    }
}

impl Yardstick {
    /// Build the table and take the first reading: call this just before
    /// the ops it will time.
    pub fn start() -> Yardstick {
        // splitmix64 from a fixed seed: the same table in every run.
        let mut state = 0x5EED_u64;
        let table = (0..YARDSTICK_TABLE_BYTES / 4)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u32
            })
            .collect();
        let mut yard = Yardstick { table, before: 0.0 };
        yard.before = yard.reading();
        yard
    }

    fn walk(&self) -> u64 {
        let mask = self.table.len() - 1;
        let (mut acc, mut at) = (0u64, 1usize);
        for step in 0..YARDSTICK_STEPS {
            let v = self.table[at & mask];
            let w = self.table[(at.wrapping_mul(31) + step) & mask];
            match v & 3 {
                0 => acc = acc.wrapping_add(u64::from((v ^ w).count_ones())),
                1 => acc ^= u64::from(v) << (w & 15),
                _ => acc = acc.wrapping_mul(3).wrapping_add(u64::from(w)),
            }
            at = at.wrapping_add((v >> 3) as usize | 1);
        }
        acc
    }

    /// The fastest of three walks, which sheds a preemption in one of them.
    fn reading(&self) -> f64 {
        let walks: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.walk());
                ms(t.elapsed())
            })
            .collect();
        fastest(&walks)
    }

    /// Time `work`, and read the yardstick after it.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> Timed<T> {
        let t = Instant::now();
        let value = work();
        let raw_ms = ms(t.elapsed());
        let after = self.reading();
        let speed = YARDSTICK_REF_MS / ((self.before + after) / 2.0);
        self.before = after;
        Timed {
            value,
            raw_ms,
            speed,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), which is why each
/// workload runs in a process of its own.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// One timed interval at a layer boundary. Spans of one op share `op`;
/// `parent` is the index of the span that caused this one.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Spans are kept in memory and written out once, when the run ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Duration of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// Every span with its self time: its duration minus its children's.
    pub fn to_json(&self) -> Value {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let ns = |t: Instant| Value::Num((t - self.epoch).as_nanos() as f64);
        Value::Arr(
            self.spans
                .iter()
                .zip(&child_ns)
                .map(|(s, &children)| {
                    let total = (s.end - s.start).as_nanos();
                    Value::obj([
                        ("name", Value::from(s.name)),
                        ("op", Value::from(s.op)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                        ),
                        ("start_ns", ns(s.start)),
                        ("end_ns", ns(s.end)),
                        ("self_ns", Value::Num(total.saturating_sub(children) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Distance between the first and third quartile as a share of the median,
/// by the rule of Python's `statistics.quantiles(values, n=4)`; 0 for fewer
/// than four samples, whose quartiles would be extrapolations.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 4 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / quartile(2).abs()
}
