//! Convenience runners: compile + execute + collect logits.

use crate::lower::{try_compile, CompileOptions, CompiledNetwork, OptionsError};
use dfe_platform::{CycleReport, RunError, WholeBatch};
use qnn_nn::Network;
use qnn_tensor::Tensor3;
use std::fmt;

/// Why [`run_images`] returned no logits: the options were rejected
/// before anything ran, or the run itself stopped abnormally.
#[derive(Debug)]
pub enum SimError {
    /// [`try_compile`] rejected the compile options for this network.
    Options(OptionsError),
    /// The simulation deadlocked, timed out or found the graph malformed.
    Run(RunError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Options(e) => write!(f, "invalid CompileOptions: {e}"),
            SimError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

impl From<OptionsError> for SimError {
    fn from(e: OptionsError) -> Self {
        SimError::Options(e)
    }
}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        SimError::Run(e)
    }
}

/// Borrowed view over one image's logits, carrying the post-processing
/// every surface shares. Both the simulator's [`SimResult`] and
/// `qnn-serve`'s `Response` delegate here, so tie-breaking is identical
/// everywhere: among equal scores, the lowest class index wins.
#[derive(Clone, Copy, Debug)]
pub struct Logits<'a>(&'a [i32]);

impl<'a> Logits<'a> {
    /// Wrap a raw logits slice.
    pub fn new(raw: &'a [i32]) -> Self {
        Self(raw)
    }

    /// The raw scores.
    pub fn raw(&self) -> &'a [i32] {
        self.0
    }

    /// Index of the winning class (lowest index on ties).
    ///
    /// # Panics
    /// Panics on an empty logits slice — a classifier has ≥ 1 class.
    pub fn argmax(&self) -> usize {
        assert!(!self.0.is_empty(), "argmax of zero classes");
        let mut best = 0;
        for (j, &v) in self.0.iter().enumerate() {
            if v > self.0[best] {
                best = j;
            }
        }
        best
    }

    /// The `k` best (class, score) pairs, best first; ties resolve to the
    /// lower class index, and `k` saturates at the class count.
    pub fn top_k(&self, k: usize) -> Vec<(usize, i32)> {
        let mut ranked: Vec<(usize, i32)> =
            self.0.iter().copied().enumerate().collect();
        // Stable sort by descending score keeps equal scores in index order.
        ranked.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        ranked.truncate(k);
        ranked
    }
}

/// Result of simulating one or more images.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-image logits.
    pub logits: Vec<Vec<i32>>,
    /// One cycle report per device (length 1 for single-DFE runs). A cut
    /// network runs as one graph on one clock, so each report is a
    /// projection of that run's report: `cycles` is the shared clock, and
    /// `kernels`/`streams` are the ones on that device (a stream sits on
    /// its reader's device), in graph order. The replay diagnostics sit on
    /// the logits device's report; the others carry
    /// `ReplayDiag::default()`, so sums over devices stay correct.
    pub reports: Vec<CycleReport>,
}

impl SimResult {
    /// Image `i`'s logits as a [`Logits`] view.
    pub fn logits_view(&self, i: usize) -> Logits<'_> {
        Logits::new(&self.logits[i])
    }

    /// Argmax of image `i`'s logits.
    pub fn argmax(&self, i: usize) -> usize {
        self.logits_view(i).argmax()
    }

    /// Cycles of the run (every device's report carries the same clock).
    pub fn cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles).max().unwrap_or(0)
    }

    /// Whether the run replayed a whole-batch schedule tape end to end
    /// (see [`CompiledNetwork::load`]).
    pub fn replayed_whole_batch(&self) -> bool {
        self.reports.iter().any(|r| r.replay.whole_batch == WholeBatch::Replayed)
    }
}

impl CompiledNetwork {
    /// Run the loaded batch to completion and collect its logits, within
    /// the instance's own cycle budget for that many images.
    pub fn run(&mut self) -> Result<SimResult, RunError> {
        self.run_within(self.budget_per_image * self.images as u64)
    }

    /// [`CompiledNetwork::run`] under an explicit cycle budget. After an
    /// `Err` the instance holds mid-run state until the next
    /// [`CompiledNetwork::load`] re-arms it.
    pub fn run_within(&mut self, max_cycles: u64) -> Result<SimResult, RunError> {
        let report = self.graphs[0].run_opts(max_cycles, self.detect_deadlock)?;
        let reports = match &self.placement {
            Some(placement) => placement.project(&report),
            None => vec![report],
        };
        let flat = self.sink.take();
        assert_eq!(flat.len(), self.classes * self.images, "sink under-filled");
        let logits = flat.chunks_exact(self.classes).map(<[i32]>::to_vec).collect();
        Ok(SimResult { logits, reports })
    }
}

/// Run `images` through the compiled streaming pipeline: elaborate, load,
/// run. A warm serving replica takes the same three steps through the same
/// code; it just repeats only the last two for each further batch.
///
/// Options the network cannot take come back as [`SimError::Options`]
/// before anything runs.
pub fn run_images(
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
) -> Result<SimResult, SimError> {
    Ok(try_compile(net, images, opts)?.run()?)
}

/// Run a single image on a single DFE.
pub fn run_image(net: &Network, image: &Tensor3<i8>) -> Result<SimResult, SimError> {
    run_images(net, std::slice::from_ref(image), &CompileOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::ReplayDiag;
    use qnn_nn::models;
    use qnn_testkit::Rng;

    fn image(side: usize, seed: u64) -> Tensor3<i8> {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor3::from_fn(qnn_tensor::Shape3::square(side, 3), |_, _, _| {
            rng.gen_range(-127i8..=127)
        })
    }

    #[test]
    fn streaming_matches_reference_on_test_net() {
        let net = Network::random(models::test_net(8, 4, 2), 42);
        let img = image(8, 1);
        let expect = net.forward(&img).logits;
        let got = run_image(&net, &img).expect("sim run");
        assert_eq!(got.logits[0], expect);
    }

    #[test]
    fn streaming_matches_reference_multi_image() {
        let net = Network::random(models::test_net(8, 3, 2), 7);
        let imgs: Vec<_> = (0..3).map(|s| image(8, s)).collect();
        let got = run_images(&net, &imgs, &CompileOptions::default()).expect("sim run");
        for (i, img) in imgs.iter().enumerate() {
            assert_eq!(got.logits[i], net.forward(img).logits, "image {i}");
        }
    }

    /// Options the network cannot take are an error, not a panic: an
    /// unknown stream in `fifo_overrides` comes back before anything runs.
    #[test]
    fn unknown_fifo_override_is_an_options_error() {
        let net = Network::random(models::test_net(8, 4, 2), 42);
        let opts = CompileOptions {
            fifo_overrides: vec![("no_such_stream".into(), 4)],
            ..CompileOptions::default()
        };
        match run_images(&net, &[image(8, 1)], &opts) {
            Err(SimError::Options(OptionsError::UnknownStream(name))) => {
                assert_eq!(name, "no_such_stream");
            }
            other => panic!("expected an unknown-stream error, got {other:?}"),
        }
    }

    /// A deadlock reachable from configuration, across a device cut: the
    /// skip stream `res3.skipbuf`, from stage 2's output split to stage
    /// 3's adder, crosses the cut, and one slot cannot cover stage 3's
    /// window fill. The run reports a deadlock naming that stream.
    #[test]
    fn undersized_crossing_skip_stream_deadlocks() {
        use qnn_nn::{PoolKind, ResidualGeometry, SpecBuilder};
        use qnn_tensor::{ConvGeometry, FilterShape, Shape3};
        let input = Shape3::square(8, 3);
        let stem = ConvGeometry::new(input, FilterShape::new(3, 3, 8), 1, 1);
        let conv = ConvGeometry::new(stem.output(), FilterShape::new(3, 8, 8), 1, 1);
        let block = ResidualGeometry { conv1: conv, conv2: conv, downsample: None };
        let spec = SpecBuilder::new("skip-cut", input, 2)
            .conv_input(stem)
            .residual(block)
            .residual(block)
            .residual(block)
            .pool(block.output(), 8, 8, 0, PoolKind::AvgSum)
            .fully_connected(8, 4, false)
            .try_build()
            .expect("valid spec");
        let net = Network::random(spec, 3);
        let opts = CompileOptions {
            stage_device: Some(vec![0, 0, 0, 1, 1, 1]),
            fifo_overrides: vec![("res3.skipbuf".into(), 1)],
            ..CompileOptions::default()
        };
        match run_images(&net, &[image(8, 1)], &opts) {
            Err(SimError::Run(RunError::Deadlock { diagnostics, .. })) => {
                assert!(diagnostics.contains("'res3.skipbuf': 1/1 occupied"), "{diagnostics}");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    /// A cut network's reports are projections of one run: a stream that
    /// crosses the cut sits on its reader's device, every report carries
    /// the shared clock, and the replay diagnostics sit on the logits
    /// device only.
    #[test]
    fn cut_reports_project_the_one_run_by_device() {
        let net = Network::random(models::test_net(8, 4, 2), 42);
        let imgs: Vec<_> = (0..12).map(|s| image(8, s)).collect();
        let whole = run_images(&net, &imgs, &CompileOptions::default()).expect("uncut");
        let opts = CompileOptions {
            stage_device: Some(vec![0, 0, 0, 1, 1, 1, 1]),
            ..CompileOptions::default()
        };
        let cut = run_images(&net, &imgs, &opts).expect("cut");
        assert_eq!(cut.logits, whole.logits);
        let [d0, d1] = &cut.reports[..] else {
            panic!("expected two device reports");
        };
        // res2's threshold kernel writes `res2.out` on device 0; res3 reads
        // it on device 1.
        assert!(d0.kernels.iter().any(|k| k.name == "res2.thr"));
        assert!(d1.streams.iter().any(|s| s.name == "res2.out"));
        assert!(d0.streams.iter().all(|s| s.name != "res2.out"));
        assert_eq!((d0.cycles, d1.cycles), (whole.cycles(), whole.cycles()));
        assert_ne!(whole.reports[0].replay, ReplayDiag::default(), "replay never engaged");
        assert_eq!((d0.replay, d1.replay), (ReplayDiag::default(), whole.reports[0].replay));
    }

    #[test]
    fn binary_activation_network_matches_reference() {
        let net = Network::random(models::test_net(8, 4, 1), 9);
        let img = image(8, 2);
        let got = run_image(&net, &img).expect("sim run");
        assert_eq!(got.logits[0], net.forward(&img).logits);
    }
}

#[cfg(test)]
mod streamed_param_tests {
    use super::*;
    use qnn_nn::models;
    use qnn_testkit::Rng;

    fn image(side: usize, seed: u64) -> Tensor3<i8> {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor3::from_fn(qnn_tensor::Shape3::square(side, 3), |_, _, _| {
            rng.gen_range(-127i8..=127)
        })
    }

    /// §III-B1a end to end: parameters streamed as 32-bit floats, binarized
    /// on the DFE, thresholds decoded from the wire — identical inference.
    #[test]
    fn streamed_parameters_match_preloaded_caches() {
        let net = Network::random(models::test_net(8, 4, 2), 33);
        let img = image(8, 1);
        let direct = run_image(&net, &img).expect("direct");
        let streamed = run_images(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions {
                stream_parameters: true,
                ..CompileOptions::default()
            },
        )
        .expect("streamed");
        assert_eq!(direct.logits, streamed.logits);
        // The load phase costs cycles: roughly one per parameter word on
        // the critical path.
        assert!(
            streamed.cycles() > direct.cycles(),
            "parameter load should cost cycles: {} vs {}",
            streamed.cycles(),
            direct.cycles()
        );
    }

    /// The one-time load amortizes: per-image cycles drop sharply with
    /// more images ("loaded … only once, before inference of images
    /// starts"). Cycle counts are deterministic — measured factor 0.33,
    /// bound tightened from 0.7 in the conv-datapath PR.
    #[test]
    fn parameter_load_amortizes_over_images() {
        let net = Network::random(models::test_net(8, 4, 2), 34);
        let opts = CompileOptions {
            stream_parameters: true,
            ..CompileOptions::default()
        };
        let one = run_images(&net, &[image(8, 1)], &opts).expect("1 image");
        let four = run_images(
            &net,
            &(0..4).map(|s| image(8, s)).collect::<Vec<_>>(),
            &opts,
        )
        .expect("4 images");
        let per_image_four = four.cycles() as f64 / 4.0;
        assert!(
            per_image_four < one.cycles() as f64 * 0.45,
            "load did not amortize: {per_image_four} vs {}",
            one.cycles()
        );
    }

    #[test]
    fn streamed_parameters_work_with_binary_activations() {
        let net = Network::random(models::test_net(8, 3, 1), 35);
        let img = image(8, 2);
        let streamed = run_images(
            &net,
            std::slice::from_ref(&img),
            &CompileOptions {
                stream_parameters: true,
                ..CompileOptions::default()
            },
        )
        .expect("streamed");
        assert_eq!(streamed.logits[0], net.forward(&img).logits);
    }
}
