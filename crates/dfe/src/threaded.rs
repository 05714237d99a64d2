//! Running several graphs.
//!
//! A network cut across DFEs is not several graphs: the compiler lowers it
//! to one [`Graph`] and records each kernel's device as a tag, so a MaxRing
//! hop is an ordinary stream and a cut run bursts and replays like an
//! uncut one. [`run_devices`] remains only because the repo benchmark's
//! allowed API surface (`benchmark/README.md`) names it.

use crate::graph::{CycleReport, Graph, RunError};

/// Run each graph to completion in turn under the same cycle budget,
/// returning one report per graph. Independent graphs only: nothing
/// connects them.
pub fn run_devices(graphs: Vec<Graph>, max_cycles: u64) -> Result<Vec<CycleReport>, RunError> {
    graphs.into_iter().map(|mut g| g.run(max_cycles)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostSink, HostSource};
    use crate::stream::StreamSpec;

    #[test]
    fn each_graph_runs_to_its_own_report() {
        let build = |data: Vec<i32>| {
            let mut g = Graph::new();
            let s = g.add_stream(StreamSpec::new("s", 8, 4));
            let (sink, handle) = HostSink::new("dst", data.len());
            g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[s]);
            g.add_kernel(Box::new(sink), &[s], &[]);
            (g, handle)
        };
        let (a, out_a) = build(vec![1, 2]);
        let (b, out_b) = build(vec![3, 4, 5, 6]);
        let reports = run_devices(vec![a, b], 1_000).expect("run ok");
        assert_eq!((out_a.take(), out_b.take()), (vec![1, 2], vec![3, 4, 5, 6]));
        assert_eq!(reports.len(), 2);
        assert!(reports[0].cycles < reports[1].cycles);
    }
}
