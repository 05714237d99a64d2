//! Design-space exploration: folding × FIFO capacity × device cuts.
//!
//! The paper hand-picks one hardware configuration per network; FINN-R's
//! defining feature is *searching* that space against a resource budget.
//! This module does the estimate-sweep-pick loop over the knobs this
//! compiler exposes:
//!
//! * per-layer folding ([`FoldPlan`]) — searched by greedy bottleneck
//!   doubling: repeatedly take the busiest foldable layer of the
//!   fold-aware cycle model and double whichever lane knob (`pe`, `simd`,
//!   or both) shrinks it most, until the pipeline is limited by structures
//!   folding cannot touch (the host source, residual skip glue), a factor
//!   would pass 64, or 16 steps have run;
//! * default FIFO capacity — a fixed sweep over 256, 512 and 1024
//!   elements (elasticity vs BRAM);
//! * device cuts — the placer behind [`partition`](crate::partition()),
//!   run on the fold-aware stage estimates with each kernel's FIFO BRAM
//!   charged: greedy contiguous first-fit onto the budget's device type,
//!   refusing any cut the default MaxRing cannot carry at the device's
//!   clock.
//!
//! Every candidate is scored analytically
//! (`hw_model::cycles::analyze_folded` + `estimate_stage_folded`),
//! dominated points are pruned, and the surviving Pareto frontier is
//! returned. [`pick`] is the one-call entry point: the fastest feasible
//! point under a budget. The differential battery in
//! `tests/dse_frontier.rs` compiles frontier points and checks the
//! estimator's promises against the cycle simulator.

use crate::lower::CompileOptions;
use crate::partition::place;
use dfe_platform::{DeviceSpec, ResourceUsage};
use hw_model::{CycleModel, Fold, FoldPlan};
use qnn_nn::NetworkSpec;

/// What the design may spend.
#[derive(Clone, Copy, Debug)]
pub struct ResourceBudget {
    /// Device type to place onto.
    pub device: DeviceSpec,
    /// Maximum DFEs in the daisy chain.
    pub max_devices: usize,
}

impl ResourceBudget {
    /// A budget of `max_devices` devices of one type.
    pub fn new(device: DeviceSpec, max_devices: usize) -> Self {
        assert!(max_devices >= 1);
        Self { device, max_devices }
    }

    /// A single-device budget.
    pub fn single(device: DeviceSpec) -> Self {
        Self::new(device, 1)
    }
}

/// Cap on either folding factor (power-of-two doubling never exceeds it).
const MAX_FOLD: usize = 64;
/// Default FIFO capacities to sweep.
const FIFO_CANDIDATES: [usize; 3] = [256, 512, 1024];
/// Maximum bottleneck-doubling steps.
const MAX_STEPS: usize = 16;

/// One candidate configuration with its analytic score.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Per-layer folding.
    pub folding: FoldPlan,
    /// Default FIFO capacity (elements).
    pub fifo_capacity: usize,
    /// Device index per stage (contiguous, non-decreasing).
    pub stage_device: Vec<usize>,
    /// Analytic single-image latency.
    pub est_latency: u64,
    /// Total usage across devices (infrastructure included).
    pub usage: ResourceUsage,
    /// Peak per-device utilization against the budget device (≤ 1 fits).
    pub utilization: f64,
}

impl DesignPoint {
    /// Number of DFEs this point occupies.
    pub fn num_devices(&self) -> usize {
        self.stage_device.iter().max().copied().unwrap_or(0) + 1
    }

    /// Compile options realizing this point (parameter loading stays at
    /// its default).
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            fifo_capacity: self.fifo_capacity,
            stage_device: Some(self.stage_device.clone()),
            layer_folding: self.folding.clone(),
            ..CompileOptions::default()
        }
    }
}

/// The surviving non-dominated points, fastest first.
#[derive(Clone, Debug, Default)]
pub struct Frontier {
    /// Pareto-optimal points ordered by ascending `est_latency`.
    pub points: Vec<DesignPoint>,
}

impl Frontier {
    /// The fastest feasible point (`None` when nothing fit the budget).
    pub fn pick(&self) -> Option<&DesignPoint> {
        self.points.first()
    }

    /// The `k` fastest frontier points.
    pub fn top(&self, k: usize) -> &[DesignPoint] {
        &self.points[..k.min(self.points.len())]
    }
}

fn evaluate(
    spec: &NetworkSpec,
    plan: &FoldPlan,
    fifo_capacity: usize,
    budget: &ResourceBudget,
) -> Option<DesignPoint> {
    let placed = place(spec, plan, fifo_capacity, &budget.device).ok()?;
    if placed.num_dfes() > budget.max_devices {
        return None;
    }
    let utilization = placed
        .per_device
        .iter()
        .map(|u| u.utilization(&budget.device))
        .fold(0.0f64, f64::max);
    Some(DesignPoint {
        folding: plan.clone(),
        fifo_capacity,
        usage: placed.total_usage(),
        stage_device: placed.stage_device,
        est_latency: CycleModel::analyze_folded(spec, plan).latency(),
        utilization,
    })
}

/// One bottleneck-doubling step: take the busiest foldable layer and
/// double the lane knob that shrinks it most. `None` when the pipeline is
/// already limited by unfoldable structures or the caps.
fn next_plan(spec: &NetworkSpec, plan: &FoldPlan) -> Option<FoldPlan> {
    let model = CycleModel::analyze_folded(spec, plan);
    let floor = model
        .layers
        .iter()
        .filter(|l| !l.foldable())
        .map(|l| l.busy)
        .max()
        .unwrap_or(0);
    let target = model.layers.iter().filter(|l| l.foldable()).max_by_key(|l| l.busy)?;
    if target.busy <= floor {
        return None; // the host source / skip glue sets the period now
    }
    let f = plan.get(&target.name);
    let mut best: Option<(u64, u64, FoldPlan)> = None;
    for (pe, simd) in [(f.pe * 2, f.simd), (f.pe, f.simd * 2), (f.pe * 2, f.simd * 2)] {
        if pe > MAX_FOLD || simd > MAX_FOLD {
            continue;
        }
        let cand = plan.clone().with(&target.name, Fold::new(pe, simd));
        let m = CycleModel::analyze_folded(spec, &cand);
        let busy = m
            .layers
            .iter()
            .find(|l| l.name == target.name)
            .map(|l| l.busy)
            .unwrap_or(target.busy);
        if busy >= target.busy {
            continue; // this knob no longer moves the layer
        }
        let key = (m.period(), busy);
        if best.as_ref().is_none_or(|(p, b, _)| key < (*p, *b)) {
            best = Some((key.0, key.1, cand));
        }
    }
    best.map(|(_, _, c)| c)
}

/// Enumerate folding × FIFO × cut candidates under `budget`, score them
/// analytically, and return the Pareto frontier over
/// (latency, utilization, device count).
pub fn explore(spec: &NetworkSpec, budget: &ResourceBudget) -> Frontier {
    let mut candidates = Vec::new();
    let mut plan = FoldPlan::new();
    for _ in 0..=MAX_STEPS {
        for fifo in FIFO_CANDIDATES {
            if let Some(p) = evaluate(spec, &plan, fifo, budget) {
                candidates.push(p);
            }
        }
        match next_plan(spec, &plan) {
            Some(next) => plan = next,
            None => break,
        }
    }

    // Pareto prune: smaller latency, utilization, and device count win.
    let dominates = |a: &DesignPoint, b: &DesignPoint| {
        a.est_latency <= b.est_latency
            && a.utilization <= b.utilization + 1e-12
            && a.num_devices() <= b.num_devices()
            && (a.est_latency < b.est_latency
                || a.utilization + 1e-12 < b.utilization
                || a.num_devices() < b.num_devices())
    };
    let mut points: Vec<DesignPoint> = Vec::new();
    for c in &candidates {
        if candidates.iter().any(|o| dominates(o, c)) {
            continue;
        }
        if points
            .iter()
            .any(|p: &DesignPoint| p.folding == c.folding && p.fifo_capacity == c.fifo_capacity)
        {
            continue; // exact duplicate
        }
        points.push(c.clone());
    }
    points.sort_by(|a, b| {
        (a.est_latency, a.num_devices())
            .cmp(&(b.est_latency, b.num_devices()))
            .then(a.utilization.total_cmp(&b.utilization))
    });
    Frontier { points }
}

/// The fastest feasible design point under `budget` (`None` when the
/// network cannot fit).
pub fn pick(spec: &NetworkSpec, budget: &ResourceBudget) -> Option<DesignPoint> {
    explore(spec, budget).pick().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::{STRATIX_10_GX2800, STRATIX_V_5SGSD8};
    use hw_model::resources::estimate_stage_folded;
    use qnn_nn::{models, PoolKind, ResidualGeometry, SpecBuilder};
    use qnn_tensor::{ConvGeometry, FilterShape, Shape3};

    #[test]
    fn resnet18_frontier_beats_uniform() {
        let spec = models::resnet18(1000);
        let budget = ResourceBudget::new(STRATIX_10_GX2800, 2);
        let frontier = explore(&spec, &budget);
        assert!(!frontier.points.is_empty(), "nothing fit the budget");
        let best = frontier.pick().expect("frontier non-empty");
        let uniform = CycleModel::analyze_folded(&spec, &FoldPlan::new());
        assert!(
            (best.est_latency as f64) < uniform.latency() as f64 / 1.5,
            "picked {} vs uniform {}",
            best.est_latency,
            uniform.latency()
        );
        // The picked plan folds the stem (the known bottleneck).
        assert!(!best.folding.is_uniform());
        assert!(best.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn frontier_is_pareto_minimal() {
        let spec = models::vgg_like(32, 10, 2);
        let budget = ResourceBudget::single(STRATIX_V_5SGSD8);
        let frontier = explore(&spec, &budget);
        for (i, a) in frontier.points.iter().enumerate() {
            for (j, b) in frontier.points.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.est_latency <= b.est_latency
                    && a.utilization <= b.utilization
                    && a.num_devices() <= b.num_devices()
                    && (a.est_latency < b.est_latency
                        || a.utilization < b.utilization
                        || a.num_devices() < b.num_devices());
                assert!(!dominates, "point {j} dominated by point {i}");
            }
        }
    }

    #[test]
    fn tight_budget_prunes_or_empties() {
        // A tiny budget must never return an overfull point.
        let spec = models::resnet18(1000);
        let mut small = STRATIX_V_5SGSD8;
        small.luts /= 8;
        small.ffs /= 8;
        small.bram_kbits /= 8;
        let frontier = explore(&spec, &ResourceBudget::single(small));
        for p in &frontier.points {
            assert!(p.utilization <= 1.0 + 1e-9);
            assert_eq!(p.num_devices(), 1);
        }
    }

    #[test]
    fn picked_point_compiles_to_valid_options() {
        let spec = models::test_net(8, 4, 2);
        let budget = ResourceBudget::single(STRATIX_10_GX2800);
        let point = pick(&spec, &budget).expect("test_net fits");
        let net = qnn_nn::Network::random(spec.clone(), 7);
        crate::lower::elaborate(&net, &point.compile_options()).expect("options valid");
    }

    /// Stem, two identity residual blocks, classifier, on a device whose
    /// LUTs hold the stem and one block but not both blocks. Every
    /// two-device placement then cuts between the blocks, where the 2-bit
    /// stream and the 16-bit skip cross together: 18 bits × 525 MHz =
    /// 9.45 Gbps against the default ring's 4. At 105 MHz (1.89 Gbps) the
    /// same cut is fine.
    #[test]
    fn a_cut_the_ring_cannot_carry_is_not_a_design_point() {
        let input = Shape3::square(8, 3);
        let stem = ConvGeometry::new(input, FilterShape::new(3, 3, 16), 1, 1);
        let conv = ConvGeometry::new(stem.output(), FilterShape::new(3, 16, 16), 1, 1);
        let block = ResidualGeometry { conv1: conv, conv2: conv, downsample: None };
        let spec = SpecBuilder::new("skip-cut", input, 2)
            .conv_input(stem)
            .residual(block)
            .residual(block)
            .pool(block.output(), 8, 8, 0, PoolKind::AvgSum)
            .fully_connected(16, 4, false)
            .try_build()
            .expect("valid spec");
        let luts = |i: usize| {
            estimate_stage_folded(&spec.stages[i], 2, i, &FoldPlan::new(), 0).usage.luts
        };
        let mut device = STRATIX_10_GX2800;
        let usable = luts(0) + luts(1) + luts(2) / 2;
        device.luts = (usable as f64 / device.usable_fraction).ceil() as u64;

        let fast = explore(&spec, &ResourceBudget::new(device, 2));
        assert!(fast.points.iter().all(|p| p.num_devices() == 1), "{:?}", fast.points);
        let slow = explore(
            &spec,
            &ResourceBudget::new(DeviceSpec { fclk_mhz: 105.0, ..device }, 2),
        );
        assert!(
            slow.points.iter().any(|p| p.stage_device == [0, 0, 1, 1, 1]),
            "{:?}",
            slow.points
        );
    }
}
