//! Property suite for the dataflow platform (seeded via `qnn-testkit`):
//! random map-kernel pipelines at random FIFO capacities, arbitrary
//! payloads. Streaming must equal the composed reference function on every
//! configuration. (A device cut is a compiler tag on one graph, so its
//! transparency is pinned at the compiler level, in
//! `tests/macro_tick_equivalence.rs`.)

use dfe_platform::{Graph, HostSink, HostSource, Io, Kernel, Progress, SinkHandle, StreamSpec};
use qnn_testkit::{prop_assert, prop_assert_eq, props, vec};

/// One-element-per-cycle affine map kernel: `v -> v * mul + add` with
/// wrapping arithmetic (the property cares about dataflow, not overflow).
struct Affine {
    mul: i32,
    add: i32,
    name: String,
}

impl Kernel for Affine {
    fn name(&self) -> &str {
        &self.name
    }
    fn rearm(&mut self) {}

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(0) && io.can_write(0) {
            let v = io.read(0).expect("checked");
            io.write(0, v.wrapping_mul(self.mul).wrapping_add(self.add));
            Progress::Busy
        } else {
            Progress::Stalled
        }
    }
}

/// What the pipeline must compute, evaluated directly.
fn reference(data: &[i32], stages: &[(i32, i32)]) -> Vec<i32> {
    data.iter()
        .map(|&v| {
            stages
                .iter()
                .fold(v, |acc, &(mul, add)| acc.wrapping_mul(mul).wrapping_add(add))
        })
        .collect()
}

/// Single-device chain: source → affine stages → sink.
fn build_chain(data: Vec<i32>, stages: &[(i32, i32)], cap: usize) -> (Graph, SinkHandle) {
    let n = data.len();
    let mut g = Graph::new();
    let mut prev = g.add_stream(StreamSpec::new("s0", 32, cap));
    g.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
    for (i, &(mul, add)) in stages.iter().enumerate() {
        let next = g.add_stream(StreamSpec::new(format!("s{}", i + 1), 32, cap));
        g.add_kernel(Box::new(Affine { mul, add, name: format!("affine{i}") }), &[prev], &[next]);
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    g.add_kernel(Box::new(sink), &[prev], &[]);
    (g, handle)
}

const BUDGET: u64 = 1_000_000;

props! {
    /// Any chain of map kernels at any FIFO capacity computes the composed
    /// function, and the stream counters account for every element.
    #[test]
    fn pipeline_matches_composed_reference(
        data in vec(-128i32..128, 1..40),
        stages in vec((-5i32..6, -100i32..101), 1..5),
        cap in 1usize..9,
    ) {
        let expect = reference(&data, &stages);
        let (mut g, handle) = build_chain(data.clone(), &stages, cap);
        let report = g.run(BUDGET).expect("chain must complete");
        prop_assert_eq!(handle.take(), expect);
        for s in &report.streams {
            prop_assert_eq!(s.pushed, data.len() as u64, "stream {} element count", s.name);
            prop_assert!(
                s.max_occupancy <= s.capacity,
                "stream {} overflowed: {} > {}", s.name, s.max_occupancy, s.capacity
            );
        }
    }
}
