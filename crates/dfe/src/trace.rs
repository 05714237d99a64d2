//! Pipeline tracing: periodic samples of stream occupancy and kernel
//! activity during a cycle-scheduled run.
//!
//! The Maxeler toolchain exposes similar counters through its debug
//! infrastructure; here they are first-class, because buffer occupancy is
//! how several of the paper's claims are *checked* (the skip buffer's
//! "exactly one convolution buffer" sizing, the FMem elasticity argument,
//! the bottleneck analysis behind Table III).

use crate::graph::Node;
use crate::stream::StreamState;

/// A sampled timeline of one run.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Cycles between samples.
    pub sample_every: u64,
    /// Stream names, column order of `occupancy`.
    pub streams: Vec<String>,
    /// Kernel names, column order of `busy_delta`.
    pub kernels: Vec<String>,
    /// Per-sample committed occupancy of each stream.
    pub occupancy: Vec<Vec<u32>>,
    /// Per-sample busy cycles each kernel accumulated since the previous
    /// sample (0..=sample_every — divide for utilization).
    pub busy_delta: Vec<Vec<u32>>,
}

impl Trace {
    pub(crate) fn new(sample_every: u64, streams: Vec<String>, kernels: Vec<String>) -> Self {
        Self { sample_every, streams, kernels, occupancy: Vec::new(), busy_delta: Vec::new() }
    }

    /// Take one sample: every stream's committed occupancy and every
    /// node's busy cycles since `last`, which it then updates.
    pub(crate) fn sample(&mut self, streams: &[StreamState], nodes: &[Node], last: &mut [u64]) {
        self.occupancy.push(streams.iter().map(|s| s.queue.len() as u32).collect());
        let delta = nodes.iter().zip(&*last).map(|(n, &prev)| (n.busy - prev) as u32);
        self.busy_delta.push(delta.collect());
        for (slot, n) in last.iter_mut().zip(nodes) {
            *slot = n.busy;
        }
    }

    /// Number of samples captured.
    pub fn len(&self) -> usize {
        self.occupancy.len()
    }

    /// True when no samples were captured.
    pub fn is_empty(&self) -> bool {
        self.occupancy.is_empty()
    }

    /// Peak occupancy of the stream named `name` across the run.
    pub fn peak_occupancy(&self, name: &str) -> Option<u32> {
        let col = self.streams.iter().position(|s| s == name)?;
        self.occupancy.iter().map(|row| row[col]).max()
    }

    /// Mean utilization (busy fraction) of the kernel named `name`.
    pub fn mean_utilization(&self, name: &str) -> Option<f64> {
        let col = self.kernels.iter().position(|k| k == name)?;
        if self.busy_delta.is_empty() || self.sample_every == 0 {
            return None;
        }
        let total: u64 = self.busy_delta.iter().map(|row| u64::from(row[col])).sum();
        Some(total as f64 / (self.busy_delta.len() as u64 * self.sample_every) as f64)
    }

    /// Render the occupancy timeline as CSV (`cycle, <stream...>`).
    pub fn occupancy_csv(&self) -> String {
        let mut out = String::from("cycle");
        for s in &self.streams {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for (i, row) in self.occupancy.iter().enumerate() {
            out.push_str(&(i as u64 * self.sample_every).to_string());
            for v in row {
                out.push(',');
                out.push_str(&v.to_string());
            }
            out.push('\n');
        }
        out
    }

    /// Render the kernel-utilization timeline as CSV
    /// (`cycle, <kernel...>` with busy fractions).
    pub fn utilization_csv(&self) -> String {
        let mut out = String::from("cycle");
        for k in &self.kernels {
            out.push(',');
            out.push_str(k);
        }
        out.push('\n');
        for (i, row) in self.busy_delta.iter().enumerate() {
            out.push_str(&(i as u64 * self.sample_every).to_string());
            for v in row {
                out.push(',');
                out.push_str(&format!("{:.3}", f64::from(*v) / self.sample_every as f64));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use crate::host::{HostSink, HostSource};
    use crate::stream::StreamSpec;

    fn traced_pipeline() -> (crate::graph::CycleReport, super::Trace) {
        let mut g = Graph::new();
        let s = g.add_stream(StreamSpec::new("wire", 8, 4));
        g.add_kernel(Box::new(HostSource::new("src", (0..100).collect())), &[], &[s]);
        let (sink, _h) = HostSink::new("dst", 100);
        g.add_kernel(Box::new(sink), &[s], &[]);
        g.run_traced(10_000, 10).expect("run")
    }

    #[test]
    fn trace_samples_at_the_requested_cadence() {
        let (report, trace) = traced_pipeline();
        assert_eq!(trace.sample_every, 10);
        let expected = (report.cycles / 10) as usize;
        assert!(
            trace.len() == expected || trace.len() == expected + 1,
            "{} samples for {} cycles",
            trace.len(),
            report.cycles
        );
        assert_eq!(trace.streams, vec!["wire".to_string()]);
        assert_eq!(trace.kernels, vec!["src".to_string(), "dst".to_string()]);
    }

    #[test]
    fn occupancy_respects_capacity_and_utilization_is_a_fraction() {
        let (_, trace) = traced_pipeline();
        assert!(trace.peak_occupancy("wire").expect("stream exists") <= 4);
        let u = trace.mean_utilization("src").expect("kernel exists");
        assert!(u > 0.5 && u <= 1.0, "source utilization {u}");
    }

    #[test]
    fn csv_rendering_has_header_and_rows() {
        let (_, trace) = traced_pipeline();
        let occ = trace.occupancy_csv();
        assert!(occ.starts_with("cycle,wire\n"));
        assert_eq!(occ.lines().count(), trace.len() + 1);
        let util = trace.utilization_csv();
        assert!(util.starts_with("cycle,src,dst\n"));
    }

    #[test]
    fn missing_names_return_none() {
        let (_, trace) = traced_pipeline();
        assert!(trace.peak_occupancy("nope").is_none());
        assert!(trace.mean_utilization("nope").is_none());
    }
}
