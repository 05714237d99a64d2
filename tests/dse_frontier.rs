//! Differential DSE battery: compile the top-K Pareto frontier points for
//! random networks and check the estimator's promises against the cycle
//! simulator —
//!
//! (a) logits bit-identical to the reference interpreter at every folding
//!     setting (folding changes lane widths, never element order);
//! (b) runs deadlock-free at the chosen FIFO capacities (a deadlock
//!     surfaces as `RunError` and fails the case);
//! (c) sim/analytic cycle ratio inside the EXPERIMENTS.md flaky band
//!     (0.6–1.1) once the design is large enough for steady-state to
//!     dominate ramp effects.
//!
//! Part of `./ci.sh dse` (tier-1, reduced cases) and `./ci.sh soak`.

use qnn::compiler::dse::{explore, pick, DseConfig, ResourceBudget};
use qnn::compiler::{run_images, CompileOptions, SimError};
use qnn::dfe::STRATIX_10_GX2800;
use qnn::hw::CycleModel;
use qnn::nn::specgen::spec_strategy;
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::Tensor3;
use qnn_testkit::{prop_assert, prop_assert_eq, props};

fn image_for(spec: &NetworkSpec, seed: u64) -> Tensor3<i8> {
    Tensor3::from_fn(spec.input, |y, x, c| {
        ((seed as usize)
            .wrapping_mul(31)
            .wrapping_add(y * 131 + x * 17 + c * 7)
            .wrapping_mul(2654435761)
            >> 16) as i8
    })
}

/// At least three option sets per spec: the frontier's fastest points,
/// padded with uniform-folding FIFO variants when the frontier is shorter.
fn option_sets(spec: &NetworkSpec) -> Vec<CompileOptions> {
    let budget = ResourceBudget::new(STRATIX_10_GX2800, 2);
    let frontier = explore(spec, &budget, &DseConfig::default());
    assert!(frontier.pick().is_some(), "{} does not fit two Stratix 10", spec.name);
    let mut options: Vec<CompileOptions> =
        frontier.top(3).iter().map(|p| p.compile_options()).collect();
    let mut pad = 128;
    while options.len() < 3 {
        options.push(CompileOptions { fifo_capacity: pad, ..CompileOptions::default() });
        pad *= 4;
    }
    options
}

props! {
    /// (a) + (b): every frontier point of a random spec produces
    /// bit-identical logits and finishes without deadlock.
    #[test]
    fn frontier_points_match_reference_interpreter(
        spec in spec_strategy(),
        seed in 0u64..1000,
        n_images in 1usize..3,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let images: Vec<_> =
            (0..n_images as u64).map(|i| image_for(&net.spec, seed + i)).collect();
        let expect: Vec<Vec<i32>> =
            images.iter().map(|img| net.forward(img).logits).collect();
        for (k, opts) in option_sets(&net.spec).iter().enumerate() {
            let got = run_images(&net, &images, opts)
                .unwrap_or_else(|e| panic!("frontier point {k} wedged: {e:?}"));
            prop_assert_eq!(&got.logits, &expect, "frontier point {} logits", k);
        }
    }

    /// (c): the fold-aware analytic model stays inside the flaky band
    /// against the simulator for the picked design point. Tiny random
    /// specs are ramp-dominated (fills and the drain tail are the whole
    /// run), so the band is only asserted once the analytic latency is
    /// large enough for the steady-state period to mean something.
    #[test]
    fn sim_analytic_ratio_in_flaky_band(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let Some(spec) = spec else {
            return Ok(());
        };
        let net = Network::random(spec, seed);
        let budget = ResourceBudget::new(STRATIX_10_GX2800, 2);
        let Some(point) = pick(&net.spec, &budget) else {
            return Ok(());
        };
        let analytic =
            CycleModel::analyze_folded(&net.spec, &point.folding).latency();
        let img = image_for(&net.spec, seed);
        let sim = run_images(&net, std::slice::from_ref(&img), &point.compile_options())
            .expect("picked point wedged");
        prop_assert_eq!(&sim.logits[0], &net.forward(&img).logits);
        if analytic < 4_000 {
            return Ok(()); // ramp-dominated; the logits check above still ran
        }
        let ratio = sim.cycles() as f64 / analytic as f64;
        prop_assert!(
            (0.6..=1.1).contains(&ratio),
            "sim {} / analytic {} = {:.3} outside flaky band (fold {:?})",
            sim.cycles(),
            analytic,
            ratio,
            point.folding
        );
    }
}

/// The paper's FMem case: the residual skip buffer must absorb the conv
/// path's lead. Probe downward from the structural default to the minimal
/// power-of-two capacity that still completes, pin that it is well under
/// the default (the formula over-provisions with slack), and pin
/// deadlock-freedom at that minimum.
#[test]
fn skip_path_runs_at_minimal_fifo_capacity() {
    let net = Network::random(models::test_net(8, 4, 2), 11);
    let img = image_for(&net.spec, 4);
    let images = std::slice::from_ref(&img);
    let expect = net.forward(&img).logits;
    let run_with_skip = |capacity: usize| {
        run_images(
            &net,
            images,
            &CompileOptions {
                fifo_overrides: vec![("res2.skipbuf".into(), capacity)],
                ..CompileOptions::default()
            },
        )
    };
    let mut minimal = None;
    for capacity in [4usize, 8, 16, 32, 64, 128, 256, 512] {
        if let Ok(r) = run_with_skip(capacity) {
            assert_eq!(r.logits[0], expect, "skip capacity {capacity}");
            minimal = Some(capacity);
            break;
        }
    }
    let minimal = minimal.expect("default-sized skip buffer must be reachable");
    // Regression pin: the minimal viable capacity for this geometry. The
    // structural default (`skip_capacity`) carries ≥256 slack on top of
    // both window fills, so the DSE-chosen minimum must sit well below it.
    assert!(
        (8..=128).contains(&minimal),
        "minimal skip capacity moved to {minimal}; skip scheduling changed"
    );
}

/// Undersizing the skip buffer must trip the deadlock detector — not hang,
/// not corrupt — with diagnostics that name the offending stream and its
/// occupancy so the user can size it up.
#[test]
fn undersized_skip_fifo_deadlocks_with_diagnostics() {
    let net = Network::random(models::test_net(8, 4, 2), 11);
    let img = image_for(&net.spec, 4);
    let err = run_images(
        &net,
        std::slice::from_ref(&img),
        &CompileOptions {
            fifo_overrides: vec![("res2.skipbuf".into(), 2)],
            ..CompileOptions::default()
        },
    )
    .expect_err("a 2-slot skip buffer cannot absorb the conv path's lead");
    match err {
        SimError::Run(qnn::dfe::RunError::Deadlock { cycle, diagnostics }) => {
            assert!(cycle > 0);
            assert!(
                diagnostics.contains("res2.skipbuf"),
                "diagnostics do not name the skip stream:\n{diagnostics}"
            );
            assert!(
                diagnostics.contains("2/2 occupied"),
                "diagnostics do not show the full buffer:\n{diagnostics}"
            );
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
}

/// Deterministic spot-check on the full-featured residual test net: the
/// picked point beats the uniform default end-to-end in simulated cycles,
/// with identical logits.
#[test]
fn picked_point_beats_uniform_on_test_net() {
    let net = Network::random(models::test_net(16, 4, 2), 5);
    let img = image_for(&net.spec, 9);
    let images = std::slice::from_ref(&img);
    let uniform =
        run_images(&net, images, &CompileOptions::default()).expect("uniform run");
    let point = pick(&net.spec, &ResourceBudget::new(STRATIX_10_GX2800, 2))
        .expect("test_net fits");
    let folded = run_images(&net, images, &point.compile_options()).expect("folded run");
    assert_eq!(uniform.logits, folded.logits);
    assert!(
        folded.cycles() < uniform.cycles(),
        "folded {} vs uniform {}",
        folded.cycles(),
        uniform.cycles()
    );
    // This net is big enough for steady state to dominate, so the band
    // from criterion (c) must hold here unconditionally.
    let analytic = CycleModel::analyze_folded(&net.spec, &point.folding).latency();
    let ratio = folded.cycles() as f64 / analytic as f64;
    // Logged in EXPERIMENTS.md ("Flaky-threshold tightening log"); visible
    // under `--nocapture` when re-measuring for a new row.
    println!(
        "dse picked test_net/16: sim {} analytic {analytic} ratio {ratio:.3} uniform {}",
        folded.cycles(),
        uniform.cycles()
    );
    assert!(
        (0.6..=1.1).contains(&ratio),
        "sim {} / analytic {analytic} = {ratio:.3} outside flaky band",
        folded.cycles()
    );
}
