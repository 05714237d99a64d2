//! Property suite for the dataflow platform (seeded via `qnn-testkit`):
//! random map-kernel pipelines at random FIFO capacities, random device
//! cuts, arbitrary payloads. Streaming must equal the composed reference
//! function on every configuration, the placement of the device cut must
//! be invisible in the output, and the lockstep multi-device executor must
//! produce bit-identical cycle reports across repeated runs.

use dfe_platform::threaded::{link, run_devices};
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

/// The same chain cut into two devices after `cut` stages, joined by a
/// bounded channel link of `link_cap` elements.
fn build_split(
    data: Vec<i32>,
    stages: &[(i32, i32)],
    cut: usize,
    cap: usize,
    link_cap: usize,
) -> (Vec<Graph>, SinkHandle) {
    let n = data.len();
    let (egress, ingress) = link("ring0", link_cap, n as u64);

    let mut d0 = Graph::new();
    let mut prev = d0.add_stream(StreamSpec::new("a0", 32, cap));
    d0.add_kernel(Box::new(HostSource::new("src", data)), &[], &[prev]);
    for (i, &(mul, add)) in stages[..cut].iter().enumerate() {
        let next = d0.add_stream(StreamSpec::new(format!("a{}", i + 1), 32, cap));
        d0.add_kernel(Box::new(Affine { mul, add, name: format!("affine{i}") }), &[prev], &[next]);
        prev = next;
    }
    d0.add_kernel(Box::new(egress), &[prev], &[]);

    let mut d1 = Graph::new();
    let mut prev = d1.add_stream(StreamSpec::new("b0", 32, cap));
    d1.add_kernel(Box::new(ingress), &[], &[prev]);
    for (i, &(mul, add)) in stages[cut..].iter().enumerate() {
        let next = d1.add_stream(StreamSpec::new(format!("b{}", i + 1), 32, cap));
        d1.add_kernel(
            Box::new(Affine { mul, add, name: format!("affine{}", cut + i) }),
            &[prev],
            &[next],
        );
        prev = next;
    }
    let (sink, handle) = HostSink::new("dst", n);
    d1.add_kernel(Box::new(sink), &[prev], &[]);

    (vec![d0, d1], handle)
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

    /// Cutting the chain onto two devices at any point, with any link
    /// capacity, is invisible in the output (the paper's scale-out claim).
    #[test]
    fn device_cut_is_transparent(
        data in vec(-128i32..128, 1..30),
        stages in vec((-5i32..6, -100i32..101), 2..5),
        cut_pick in 0usize..16,
        cap in 1usize..9,
        link_cap in 1usize..9,
    ) {
        let cut = cut_pick % (stages.len() + 1);
        let expect = reference(&data, &stages);
        let (graphs, handle) = build_split(data, &stages, cut, cap, link_cap);
        run_devices(graphs, BUDGET).expect("split must complete");
        prop_assert_eq!(handle.take(), expect);
    }

    /// The lockstep executor is a deterministic function of the graphs:
    /// repeated runs give bit-identical outputs *and* cycle reports.
    #[test]
    fn lockstep_reports_are_deterministic(
        data in vec(-128i32..128, 1..20),
        stages in vec((-5i32..6, -100i32..101), 2..4),
        link_cap in 1usize..6,
    ) {
        let cut = stages.len() / 2;
        let (graphs, handle) = build_split(data.clone(), &stages, cut, 4, link_cap);
        let first = run_devices(graphs, BUDGET).expect("first run");
        let first_out = handle.take();
        let (graphs, handle) = build_split(data, &stages, cut, 4, link_cap);
        let second = run_devices(graphs, BUDGET).expect("second run");
        prop_assert_eq!(&second, &first, "cycle reports must be bit-identical");
        prop_assert_eq!(handle.take(), first_out);
    }
}
