//! Shared measurement helpers for the `paper-tables` binary.
//!
//! Every table and figure of the paper's evaluation maps to one function
//! here or in the binary (see DESIGN.md §4 for the experiment index).

#![forbid(unsafe_code)]

use qnn::compiler::{partition, run_images, CompileOptions, Partition};
use qnn::data::Dataset;
use qnn::dfe::{MAIA_FCLK_MHZ, STRATIX_V_5SGSD8};
use qnn::hw::{
    dfe_power_watts, energy_joules, estimate_network, gpu_power_watts, CycleModel, GpuModel,
    GTX1080, P100,
};
use qnn::nn::{models, Network, NetworkSpec};

/// One row of a runtime/power/energy comparison (Figures 5, 7, 8).
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Workload label ("VGG-like @ 32×32", "ResNet-18 @ 224×224", …).
    pub label: String,
    /// DFE count required.
    pub dfes: usize,
    /// DFE time per image (ms) — analytic latency model.
    pub dfe_ms: f64,
    /// P100 time (ms).
    pub p100_ms: f64,
    /// GTX 1080 time (ms).
    pub gtx_ms: f64,
    /// DFE board power (W).
    pub dfe_w: f64,
    /// P100 power (W).
    pub p100_w: f64,
    /// GTX 1080 power (W).
    pub gtx_w: f64,
}

impl ComparisonRow {
    /// Energy per image on the DFE (J).
    pub fn dfe_j(&self) -> f64 {
        energy_joules(self.dfe_w, self.dfe_ms)
    }
    /// Energy per image on the P100 (J).
    pub fn p100_j(&self) -> f64 {
        energy_joules(self.p100_w, self.p100_ms)
    }
    /// Energy per image on the GTX 1080 (J).
    pub fn gtx_j(&self) -> f64 {
        energy_joules(self.gtx_w, self.gtx_ms)
    }
}

/// The Figure 5/7/8 workload sweep: VGG-like at 32², 96², 144² and the two
/// ImageNet networks at 224².
pub fn sweep_specs() -> Vec<(String, NetworkSpec)> {
    vec![
        ("VGG-like @ 32×32 (CIFAR-10)".into(), models::vgg_like(32, 10, 2)),
        ("VGG-like @ 96×96 (STL-10)".into(), models::vgg_like(96, 10, 2)),
        ("VGG-like @ 144×144 (STL-10)".into(), models::vgg_like(144, 10, 2)),
        ("AlexNet @ 224×224 (ImageNet)".into(), models::alexnet(1000)),
        ("ResNet-18 @ 224×224 (ImageNet)".into(), models::resnet18(1000)),
    ]
}

/// Partition a spec onto Stratix V DFEs.
pub fn place(spec: &NetworkSpec) -> Partition {
    partition(spec, &STRATIX_V_5SGSD8).expect("partition")
}

/// Build one comparison row from the analytic models.
pub fn comparison_row(label: &str, spec: &NetworkSpec) -> ComparisonRow {
    let p = place(spec);
    let usage = estimate_network(spec, p.num_dfes()).total;
    // The paper's runtime numbers average 50 000 consecutive images, i.e.
    // steady-state pipelined throughput — the model's period.
    let dfe_ms = CycleModel::ms(CycleModel::analyze(spec).period(), MAIA_FCLK_MHZ);
    ComparisonRow {
        label: label.to_string(),
        dfes: p.num_dfes(),
        dfe_ms,
        p100_ms: GpuModel::new(P100).time_ms(spec),
        gtx_ms: GpuModel::new(GTX1080).time_ms(spec),
        dfe_w: dfe_power_watts(usage, p.num_dfes(), &STRATIX_V_5SGSD8, MAIA_FCLK_MHZ).total(),
        p100_w: gpu_power_watts(&P100),
        gtx_w: gpu_power_watts(&GTX1080),
    }
}

/// Simulate and return (cycles, per-image ms) for a single image.
pub fn simulate_one(spec: &NetworkSpec, data: &Dataset, seed: u64) -> (u64, f64) {
    let net = Network::random(spec.clone(), seed);
    let sim =
        run_images(&net, &data.images(1), &CompileOptions::default()).expect("sim");
    (sim.cycles(), sim.cycles() as f64 / (MAIA_FCLK_MHZ * 1e3))
}

/// Render a plain-text table: header row + rows, columns padded.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_figure5_workloads() {
        let specs = sweep_specs();
        assert_eq!(specs.len(), 5);
        assert!(specs.iter().any(|(l, _)| l.contains("ResNet")));
    }

    #[test]
    fn comparison_rows_are_self_consistent() {
        let (label, spec) = &sweep_specs()[0];
        let row = comparison_row(label, spec);
        assert!(row.dfe_ms > 0.0 && row.p100_ms > 0.0);
        assert!(row.dfe_j() > 0.0);
        assert!((row.dfe_j() - row.dfe_w * row.dfe_ms / 1e3).abs() < 1e-12);
    }

    #[test]
    fn render_table_pads_columns() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "22222".into()]],
        );
        assert!(t.contains("a   bbbb"));
        assert!(t.lines().count() == 4);
    }
}
