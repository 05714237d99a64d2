//! Per-request and aggregate serving statistics.

use crate::config::Priority;
use std::time::Duration;

/// Timing and placement breakdown attached to every completed request.
#[derive(Clone, Debug)]
pub struct RequestStats {
    /// Submission → the batch containing this request started executing.
    pub queue_wait: Duration,
    /// Submission → response produced (queue wait + service time).
    pub latency: Duration,
    /// Number of images in the batch this request rode in.
    pub batch_size: usize,
    /// Server-wide batch sequence number of that batch. All requests
    /// sharing a `batch_id` ran on the same weight snapshot — the
    /// observable handle for the swap-atomicity guarantee.
    pub batch_id: u64,
    /// Global replica index (across every model's pool) that executed the
    /// batch.
    pub replica: usize,
    /// Scheduling class the request was dispatched under.
    pub priority: Priority,
    /// Weight version of the artifact the batch ran on (0 until the
    /// model's first publish).
    pub weight_version: u64,
    /// Simulated fabric cycles of the batch run (bit-identical across
    /// runs; the wall-clock fields above are not).
    pub cycles: u64,
}

/// Per-replica aggregate counters, returned by each worker at shutdown.
#[derive(Clone, Debug)]
pub struct ReplicaStats {
    /// Global replica index (unique across pools).
    pub replica: usize,
    /// The model this replica serves.
    pub model: String,
    /// Batches executed.
    pub batches: u64,
    /// Images executed.
    pub images: u64,
    /// Wall time spent inside pipeline execution.
    pub busy: Duration,
    /// Simulated fabric cycles executed, summed over batches.
    pub cycles: u64,
    /// Pipelines this replica built: one for the first batch of each
    /// weight version it ran, never one per batch.
    pub lowerings: u64,
    /// Batches that replayed a whole-batch schedule tape recorded by an
    /// earlier batch of their size (see `dfe_platform::replay`).
    pub replayed_batches: u64,
}

/// Durations counted in log-linear buckets: what a model's ledger keeps of
/// its requests' latencies for the shutdown report, in memory that does not
/// grow with the requests it answers. Below 128 ns every nanosecond count
/// is a bucket; above, a bucket holds the counts that share their leading
/// seven bits, so it spans at most 1/64 of its lower bound.
#[derive(Clone, Debug, Default)]
pub(crate) struct Histogram {
    counts: Vec<u64>,
    n: u64,
    max: Duration,
}

impl Histogram {
    /// Bits of a count kept below its leading one.
    const SUB_BITS: u32 = 6;

    fn bucket(ns: u64) -> usize {
        let e = 63 - (ns | 1).leading_zeros();
        if e <= Self::SUB_BITS {
            ns as usize
        } else {
            let shift = e - Self::SUB_BITS;
            (((shift as u64) << Self::SUB_BITS) + (ns >> shift)) as usize
        }
    }

    /// The smallest count in bucket `b`.
    fn lower(b: usize) -> u64 {
        let per = 1usize << Self::SUB_BITS;
        if b < 2 * per {
            b as u64
        } else {
            let shift = b / per - 1;
            ((b % per + per) as u64) << shift
        }
    }

    /// Count one duration.
    pub(crate) fn record(&mut self, d: Duration) {
        let b = Self::bucket(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
        self.max = self.max.max(d);
    }

    /// Add every duration `other` counted.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// The sum of `hists`.
    pub(crate) fn sum<'a>(hists: impl IntoIterator<Item = &'a Histogram>) -> Histogram {
        let mut total = Histogram::default();
        for h in hists {
            total.merge(h);
        }
        total
    }

    /// The duration of 0-based rank `r`, as its bucket's lower bound.
    fn at(&self, r: u64) -> Duration {
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > r {
                return Duration::from_nanos(Self::lower(b)).min(self.max);
            }
        }
        self.max
    }
}

/// p50/p95/max over a set of durations. A [`LoadWindow`]'s are exact; a
/// [`ServerReport`]'s come from the ledgers' histograms, so a server's
/// memory does not grow with the requests it answers: their percentiles are
/// at most 1/64 below the exact ones, and their maximum is exact.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Median.
    pub p50: Duration,
    /// 95th percentile (nearest-rank).
    pub p95: Duration,
    /// Worst observed sample.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarize `samples`; `None` when no requests completed.
    ///
    /// The median of an even count is the mean of the two middle samples;
    /// p95 is nearest-rank.
    pub fn from_samples(mut samples: Vec<Duration>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let p50 = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2
        };
        let p95 = samples[(n * 95).div_ceil(100).max(1) - 1];
        Some(Self { p50, p95, max: samples[n - 1] })
    }

    /// Summarize the durations `hist` counted, by the same rules as
    /// [`LatencySummary::from_samples`]; `None` when it counted none. The
    /// percentiles are their buckets' lower bounds, at most 1/64 below the
    /// exact ones; the maximum is exact.
    pub(crate) fn from_histogram(hist: &Histogram) -> Option<Self> {
        let n = hist.n;
        if n == 0 {
            return None;
        }
        let p50 = if n % 2 == 1 {
            hist.at(n / 2)
        } else {
            (hist.at(n / 2 - 1) + hist.at(n / 2)) / 2
        };
        let p95 = hist.at((n * 95).div_ceil(100).max(1) - 1);
        Some(Self { p50, p95, max: hist.max })
    }

    fn render(this: &Option<Self>) -> String {
        match this {
            Some(l) => format!(
                "p50 {:.3} ms  p95 {:.3} ms  max {:.3} ms",
                l.p50.as_secs_f64() * 1e3,
                l.p95.as_secs_f64() * 1e3,
                l.max.as_secs_f64() * 1e3
            ),
            None => "no completed requests".to_string(),
        }
    }
}

/// One live load sample for a model, returned by
/// [`crate::Server::load_window`] *while the server runs* — the signal the
/// replica autoscaler's control loop consumes. Counter fields are
/// cumulative (diff two windows for rates); the latency summary covers
/// only the interval since the previous window read.
#[derive(Clone, Debug)]
pub struct LoadWindow {
    /// Model name.
    pub model: String,
    /// Current replica pool size.
    pub replicas: usize,
    /// Requests admitted for this model since server start.
    pub submitted: u64,
    /// Requests answered with a response since server start.
    pub completed: u64,
    /// Requests shed at dispatch since server start.
    pub shed: u64,
    /// Current backlog: admitted but not yet answered or shed. The
    /// saturation signal — a backlog persistently above the pool's
    /// capacity means the model needs more replicas (or a router should
    /// spill its traffic).
    pub in_flight: u64,
    /// Interactive completions inside this window.
    pub interactive_samples: usize,
    /// Interactive end-to-end latency over this window (`None` when no
    /// interactive request completed in it).
    pub interactive: Option<LatencySummary>,
}

/// Completed/shed counts and latency for one scheduling class.
#[derive(Clone, Debug)]
pub struct ClassStats {
    /// The scheduling class.
    pub priority: Priority,
    /// Requests of this class answered with a response.
    pub completed: u64,
    /// Requests of this class shed at dispatch because their deadline had
    /// already passed ([`crate::Dropped::Deadline`]).
    pub shed: u64,
    /// End-to-end latency distribution of the class's completed requests.
    pub latency: Option<LatencySummary>,
}

/// Aggregate counters for one registered model.
#[derive(Clone, Debug)]
pub struct ModelStats {
    /// Model name.
    pub model: String,
    /// Pool size (replica workers).
    pub replicas: usize,
    /// Submission attempts for this model that reached admission (admitted
    /// + rejected), as in [`ServerReport::submitted`].
    pub submitted: u64,
    /// Requests answered with a response.
    pub completed: u64,
    /// Attempts refused at admission, as in [`ServerReport::rejected`].
    pub rejected: u64,
    /// Requests shed at dispatch (deadline already passed). The model's
    /// ledger partitions after a clean drain: `completed + rejected + shed
    /// == submitted`.
    pub shed: u64,
    /// Weight versions published over the server's lifetime.
    pub weight_publishes: u64,
    /// End-to-end latency distribution of the model's completed requests.
    pub latency: Option<LatencySummary>,
    /// Per-class breakdown within this model (scheduling order).
    pub per_priority: Vec<ClassStats>,
}

/// Aggregate report returned by [`crate::Server::shutdown`] after the
/// drain completes.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Total replica workers across every model's pool.
    pub replicas: usize,
    /// Submission attempts that reached admission (admitted + rejected).
    pub submitted: u64,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests refused at admission: a full queue (only under
    /// [`crate::AdmissionPolicy::Reject`]) or an image whose shape is not
    /// the model's input ([`crate::SubmitError::ShapeMismatch`]).
    pub rejected: u64,
    /// Requests admitted but shed at dispatch because their deadline had
    /// already passed. The admission ledger partitions after a clean
    /// drain: `completed + rejected + shed == submitted`.
    pub shed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Pipelines built, summed over replicas ([`ReplicaStats::lowerings`]).
    pub lowerings: u64,
    /// Batches that replayed a whole-batch schedule tape, summed over
    /// replicas ([`ReplicaStats::replayed_batches`]).
    pub replayed_batches: u64,
    /// Wall time from server start to the end of the drain.
    pub wall: Duration,
    /// Mean images per dispatched batch.
    pub mean_batch_occupancy: f64,
    /// Queue-wait distribution across completed requests.
    pub queue_wait: Option<LatencySummary>,
    /// End-to-end latency distribution across completed requests.
    pub latency: Option<LatencySummary>,
    /// Per-replica counters, sorted by global replica id.
    pub per_replica: Vec<ReplicaStats>,
    /// Per-model breakdown, in registration order.
    pub per_model: Vec<ModelStats>,
    /// Per-class breakdown across all models (scheduling order:
    /// interactive first).
    pub per_priority: Vec<ClassStats>,
}

impl ServerReport {
    /// Sustained throughput over the serving window.
    pub fn images_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 { self.completed as f64 / secs } else { 0.0 }
    }

    /// The per-model breakdown for `model`, if it was registered.
    pub fn model(&self, model: &str) -> Option<&ModelStats> {
        self.per_model.iter().find(|m| m.model == model)
    }

    /// The cross-model breakdown for one scheduling class.
    pub fn class(&self, priority: Priority) -> Option<&ClassStats> {
        self.per_priority.iter().find(|c| c.priority == priority)
    }

    /// Render a human-readable multi-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replicas {}  submitted {}  completed {}  rejected {}  shed {}  batches {} \
             (mean occupancy {:.2}, {} replayed)",
            self.replicas,
            self.submitted,
            self.completed,
            self.rejected,
            self.shed,
            self.batches,
            self.mean_batch_occupancy,
            self.replayed_batches,
        );
        let _ = writeln!(
            out,
            "wall {:.3} ms  throughput {:.1} images/sec",
            self.wall.as_secs_f64() * 1e3,
            self.images_per_sec(),
        );
        let _ = writeln!(out, "queue wait  {}", LatencySummary::render(&self.queue_wait));
        let _ = writeln!(out, "latency     {}", LatencySummary::render(&self.latency));
        for c in &self.per_priority {
            let _ = writeln!(
                out,
                "class {:<12} {} completed, {} shed, {}",
                c.priority,
                c.completed,
                c.shed,
                LatencySummary::render(&c.latency),
            );
        }
        for m in &self.per_model {
            let _ = writeln!(
                out,
                "model {:?}: {} replicas, {} submitted, {} completed, {} rejected, {} shed, \
                 {} weight publish(es), {}",
                m.model,
                m.replicas,
                m.submitted,
                m.completed,
                m.rejected,
                m.shed,
                m.weight_publishes,
                LatencySummary::render(&m.latency),
            );
        }
        for r in &self.per_replica {
            let _ = writeln!(
                out,
                "replica {} ({}): {} batches ({} replayed), {} images, busy {:.3} ms, {} cycles",
                r.replica,
                r.model,
                r.batches,
                r.replayed_batches,
                r.images,
                r.busy.as_secs_f64() * 1e3,
                r.cycles,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_orders_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = LatencySummary::from_samples(samples).expect("non-empty");
        assert!(s.p50 <= s.p95 && s.p95 <= s.max);
        assert_eq!(s.max, Duration::from_micros(100));
        assert_eq!(s.p95, Duration::from_micros(95));
    }

    #[test]
    fn median_and_p95_of_known_samples() {
        let samples: Vec<Duration> = (1..=20).map(Duration::from_micros).collect();
        let s = LatencySummary::from_samples(samples).expect("non-empty");
        assert_eq!(s.p50, Duration::from_nanos(10_500));
        assert_eq!(s.p95, Duration::from_micros(19));
    }

    #[test]
    fn empty_samples_yield_none() {
        assert!(LatencySummary::from_samples(Vec::new()).is_none());
        assert!(LatencySummary::from_histogram(&Histogram::default()).is_none());
    }

    /// Every bucket's lower bound maps back to that bucket, and a count
    /// lies at most 1/64 above its bucket's lower bound.
    #[test]
    fn histogram_buckets_are_contiguous_and_narrow() {
        for b in 0..3000 {
            assert_eq!(Histogram::bucket(Histogram::lower(b)), b, "bucket {b}");
        }
        let mut rng = qnn_testkit::Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let ns = rng.next_u64() >> rng.below(64);
            let lower = Histogram::lower(Histogram::bucket(ns));
            assert!(lower <= ns && ns - lower <= lower / 64, "{ns} in a bucket from {lower}");
        }
    }

    /// A histogram summary reads the exact summary's percentiles to within
    /// 1/64 below, and its maximum exactly, over merged histograms.
    #[test]
    fn histogram_summary_tracks_the_exact_one() {
        let mut rng = qnn_testkit::Rng::seed_from_u64(9);
        let samples: Vec<Duration> =
            (0..5_001).map(|_| Duration::from_nanos(1_000 + rng.below(50_000_000))).collect();
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for (i, &d) in samples.iter().enumerate() {
            if i % 3 == 0 { a.record(d) } else { b.record(d) }
        }
        let got = LatencySummary::from_histogram(&Histogram::sum([&a, &b])).expect("counted");
        let want = LatencySummary::from_samples(samples).expect("non-empty");
        for (g, w) in [(got.p50, want.p50), (got.p95, want.p95)] {
            assert!(g <= w && w - g <= w / 64, "{g:?} against {w:?}");
        }
        assert_eq!(got.max, want.max);
    }

    #[test]
    fn report_renders_and_computes_throughput() {
        let report = ServerReport {
            replicas: 2,
            submitted: 10,
            completed: 9,
            rejected: 0,
            shed: 1,
            batches: 5,
            lowerings: 2,
            replayed_batches: 3,
            wall: Duration::from_millis(100),
            mean_batch_occupancy: 2.0,
            queue_wait: None,
            latency: LatencySummary::from_samples(vec![
                Duration::from_millis(1),
                Duration::from_millis(3),
            ]),
            per_replica: vec![],
            per_model: vec![ModelStats {
                model: "cnv".to_string(),
                replicas: 2,
                submitted: 10,
                completed: 9,
                rejected: 0,
                shed: 1,
                weight_publishes: 1,
                latency: None,
                per_priority: vec![],
            }],
            per_priority: vec![ClassStats {
                priority: Priority::Interactive,
                completed: 4,
                shed: 1,
                latency: None,
            }],
        };
        assert!((report.images_per_sec() - 90.0).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("replicas 2"), "render was: {text}");
        assert!(text.contains("3 replayed"), "render was: {text}");
        assert!(text.contains("images/sec"), "render was: {text}");
        assert!(text.contains("model \"cnv\""), "render was: {text}");
        assert!(text.contains("10 submitted, 9 completed, 0 rejected"), "render was: {text}");
        assert!(text.contains("class interactive"), "render was: {text}");
        assert_eq!(report.model("cnv").map(|m| m.shed), Some(1));
        assert!(report.class(Priority::Batch).is_none());
    }
}
