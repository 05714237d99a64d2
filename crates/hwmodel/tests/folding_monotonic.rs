//! Property battery for the fold-aware analytic models: over random
//! specs and random fold assignments,
//!
//! * the cycle estimate is monotone **non-increasing** in either folding
//!   factor (more lanes never cost cycles — both per-layer busy counts
//!   and the whole-pipeline period/latency), and
//! * the resource estimate is monotone **non-decreasing** along the
//!   power-of-two doubling chains the DSE actually searches (BRAM block
//!   quantization guarantees `⌈x⌉ ≤ 2·⌈x/2⌉`, so doubling a bank count
//!   never shrinks the bill; arbitrary non-power steps can round either
//!   way and are deliberately out of scope);
//!
//! and over random CNN and encoder specs, the fixed-rate entries of the
//! unit-plan model (host source, skip glue) never set the period and
//! carry no fill. Every property also draws a residual spec, whose strided
//! and pooled stems slide windows the plain generator does not.

use hw_model::resources::estimate_network_folded;
use hw_model::{CycleModel, Fold, FoldPlan};
use qnn_nn::specgen::{encoder_spec_strategy, residual_spec_strategy, spec_strategy};
use qnn_nn::NetworkSpec;
use qnn_testkit::prop::CaseResult;
use qnn_testkit::{prop_assert, props};

/// The foldable layer labels of a spec, in model order.
fn foldable_layers(spec: &NetworkSpec) -> Vec<String> {
    CycleModel::analyze(spec)
        .layers
        .iter()
        .filter(|l| l.foldable())
        .map(|l| l.name.clone())
        .collect()
}

/// A random fold plan: each layer gets power-of-two factors chosen by
/// consuming bits of `seed`.
fn random_plan(spec: &NetworkSpec, mut seed: u64) -> FoldPlan {
    let mut plan = FoldPlan::new();
    for label in foldable_layers(spec) {
        let pe = 1usize << (seed % 4); // 1..=8
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let simd = 1usize << (seed % 4);
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        plan.set(&label, Fold::new(pe, simd));
    }
    plan
}

/// Doubling one layer's pe or simd (the `which`th foldable layer, from a
/// random starting plan) never increases that layer's busy count, the
/// pipeline period, or the latency.
fn cycles_monotone(spec: &NetworkSpec, seed: u64, which: usize) -> CaseResult {
    let plan = random_plan(spec, seed);
    let base = CycleModel::analyze_folded(spec, &plan);
    let layers = foldable_layers(spec);
    let label = &layers[which % layers.len()];
    let f = plan.get(label);
    for next in [Fold::new(f.pe * 2, f.simd), Fold::new(f.pe, f.simd * 2)] {
        let folded = CycleModel::analyze_folded(spec, &plan.clone().with(label, next));
        prop_assert!(
            folded.period() <= base.period(),
            "period grew under {label}:{next:?}: {} > {}",
            folded.period(),
            base.period()
        );
        prop_assert!(
            folded.latency() <= base.latency(),
            "latency grew under {label}:{next:?}: {} > {}",
            folded.latency(),
            base.latency()
        );
        for (b, a) in base.layers.iter().zip(&folded.layers) {
            prop_assert!(a.busy <= b.busy, "layer {} busy grew: {} > {}", a.name, a.busy, b.busy);
        }
    }
    Ok(())
}

/// Along the same doubling step, LUTs/FFs/BRAM never decrease.
fn resources_monotone(spec: &NetworkSpec, seed: u64, which: usize) -> CaseResult {
    let plan = random_plan(spec, seed);
    let base = estimate_network_folded(spec, 1, &plan);
    let layers = foldable_layers(spec);
    let label = &layers[which % layers.len()];
    let f = plan.get(label);
    for next in
        [Fold::new(f.pe * 2, f.simd), Fold::new(f.pe, f.simd * 2), Fold::new(f.pe * 2, f.simd * 2)]
    {
        let folded = estimate_network_folded(spec, 1, &plan.clone().with(label, next));
        prop_assert!(folded.design.luts >= base.design.luts, "LUTs shrank under {label}:{next:?}");
        prop_assert!(folded.design.ffs >= base.design.ffs, "FFs shrank under {label}:{next:?}");
        prop_assert!(
            folded.design.bram_kbits >= base.design.bram_kbits,
            "BRAM shrank under {label}:{next:?}"
        );
    }
    Ok(())
}

/// A random plan costs at least the unfolded design in resources and at
/// most the unfolded pipeline in cycles.
fn bounded_by_unit_plan(spec: &NetworkSpec, seed: u64) -> CaseResult {
    let plan = random_plan(spec, seed);
    let unit = FoldPlan::new();
    prop_assert!(
        CycleModel::analyze_folded(spec, &plan).latency()
            <= CycleModel::analyze_folded(spec, &unit).latency()
    );
    let folded = estimate_network_folded(spec, 1, &plan);
    let base = estimate_network_folded(spec, 1, &unit);
    prop_assert!(folded.design.luts >= base.design.luts);
    prop_assert!(folded.design.ffs >= base.design.ffs);
    prop_assert!(folded.design.bram_kbits >= base.design.bram_kbits);
    Ok(())
}

props! {
    /// Cycles: doubling any one layer's pe or simd never increases that
    /// layer's busy count, the pipeline period, or the latency.
    #[test]
    fn cycle_estimate_monotone_non_increasing(
        spec in spec_strategy(),
        residual in residual_spec_strategy(),
        seed in 0u64..10_000,
        which in 0usize..8,
    ) {
        for spec in spec.iter().chain([&residual]) {
            cycles_monotone(spec, seed, which)?;
        }
    }

    /// Resources: along the same doubling step, LUTs/FFs/BRAM never
    /// decrease.
    #[test]
    fn resource_estimate_monotone_non_decreasing(
        spec in spec_strategy(),
        residual in residual_spec_strategy(),
        seed in 0u64..10_000,
        which in 0usize..8,
    ) {
        for spec in spec.iter().chain([&residual]) {
            resources_monotone(spec, seed, which)?;
        }
    }

    /// Anchors of the chain: any random plan costs at least the unfolded
    /// design in resources and at most the unfolded pipeline in cycles.
    #[test]
    fn random_plan_bounded_by_unit_plan(
        spec in spec_strategy(),
        residual in residual_spec_strategy(),
        seed in 0u64..10_000,
    ) {
        for spec in spec.iter().chain([&residual]) {
            bounded_by_unit_plan(spec, seed)?;
        }
    }

    /// Unit plan: the period is set by an entry folding can move, and no
    /// fixed-rate entry adds fill — so the unfolded model's `period()` and
    /// `latency()` are those of the foldable layers alone.
    #[test]
    fn fixed_rate_entries_are_inert_at_the_unit_plan(
        spec in spec_strategy(),
        encoder in encoder_spec_strategy(),
        residual in residual_spec_strategy(),
    ) {
        for spec in spec.into_iter().chain([encoder, residual]) {
            let m = CycleModel::analyze(&spec);
            let peak = m.layers.iter().filter(|l| l.foldable()).map(|l| l.busy).max();
            prop_assert!(
                peak == Some(m.period()),
                "{}: a fixed-rate entry sets the period {} (foldable peak {peak:?})",
                spec.name,
                m.period()
            );
            for l in m.layers.iter().filter(|l| !l.foldable()) {
                prop_assert!(l.fill == 0, "{}: {} carries fill {}", spec.name, l.name, l.fill);
            }
        }
    }
}
