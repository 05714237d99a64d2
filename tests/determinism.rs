//! Executor determinism: a run is a pure function of the compiled graph,
//! on one device or cut across several. Ten runs of the same (network,
//! images, placement) must produce bit-identical logits *and*
//! bit-identical per-device [`CycleReport`]s — cycle totals, per-kernel
//! busy/stall tallies, and per-stream high-water marks included. This is
//! what makes cycle counts citable as reproduction results and regressions
//! diffable.

use qnn::compiler::{run_images, CompileOptions, SimResult};
use qnn::nn::{models, Network};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::Rng;

const RUNS: usize = 10;

fn image(side: usize, seed: u64) -> Tensor3<i8> {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor3::from_fn(Shape3::square(side, 3), |_, _, _| rng.gen_range(-127i8..=127))
}

fn assert_identical_runs(runs: &[SimResult]) {
    let first = &runs[0];
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(r.logits, first.logits, "run {i}: logits diverged");
        assert_eq!(
            r.reports.len(),
            first.reports.len(),
            "run {i}: device count diverged"
        );
        for (d, (got, want)) in r.reports.iter().zip(&first.reports).enumerate() {
            assert_eq!(got.cycles, want.cycles, "run {i}: device {d} cycle count diverged");
            assert_eq!(got, want, "run {i}: device {d} full cycle report diverged");
        }
    }
}

#[test]
fn two_device_executor_is_deterministic_over_10_runs() {
    let spec = models::test_net(8, 4, 2);
    let cut = spec.stages.len() / 2;
    let stage_device: Vec<usize> =
        (0..spec.stages.len()).map(|i| usize::from(i >= cut)).collect();
    let net = Network::random(spec, 77);
    let imgs = vec![image(8, 1), image(8, 2)];
    let opts = CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() };

    let runs: Vec<SimResult> = (0..RUNS)
        .map(|i| run_images(&net, &imgs, &opts).unwrap_or_else(|e| panic!("run {i}: {e}")))
        .collect();
    assert_eq!(runs[0].reports.len(), 2, "expected a two-device split");
    assert_identical_runs(&runs);
}

#[test]
fn three_device_executor_is_deterministic_over_10_runs() {
    let spec = models::test_net(12, 5, 2);
    let n = spec.stages.len();
    let stage_device: Vec<usize> = (0..n).map(|i| (3 * i / n).min(2)).collect();
    let net = Network::random(spec, 78);
    let imgs = vec![image(12, 3)];
    let opts = CompileOptions { stage_device: Some(stage_device), ..CompileOptions::default() };

    let runs: Vec<SimResult> = (0..RUNS)
        .map(|i| run_images(&net, &imgs, &opts).unwrap_or_else(|e| panic!("run {i}: {e}")))
        .collect();
    assert_eq!(runs[0].reports.len(), 3, "expected a three-device split");
    assert_identical_runs(&runs);
}

#[test]
fn single_device_executor_is_deterministic_over_10_runs() {
    let net = Network::random(models::test_net(8, 4, 2), 79);
    let imgs = vec![image(8, 4)];

    let runs: Vec<SimResult> = (0..RUNS)
        .map(|i| {
            run_images(&net, &imgs, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("run {i}: {e}"))
        })
        .collect();
    assert_identical_runs(&runs);
}
