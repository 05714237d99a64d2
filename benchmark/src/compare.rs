//! `compare PARENT.json CHANGE.json`: every workload × end-to-end metric of
//! two ledgers against the bounds in `BENCHMARK.json`, and every simulated
//! count against exact equality. A ledger may hold several runs of a
//! workload; medians are compared, and a metric whose run-to-run spread is
//! wider than its bound is `unresolved`, never `ok`.

use crate::json::Value;
use crate::measure::{median, quartile_spread};
use crate::report::{Manifest, MetricDef};
use std::path::Path;

/// Simulated counts: deterministic, so two commits compare exactly.
const EXACT: [&str; 15] = [
    "sim_cycles_per_img",
    "dfe.burst_cycle_share",
    "dfe.bursts",
    "dfe.mean_span",
    "dfe.replay_img_share",
    "dfe.replay_guard_fallbacks",
    "dfe.stall_share",
    "dfe.bottleneck_busy_share",
    "dfe.fifo_peak_fill_max",
    "dfe.fifo_full_streams",
    "hwmodel.layer_resid_p50",
    "hwmodel.layer_resid_max",
    "hwmodel.layer_resid_min",
    "hwmodel.sim_vs_analytic_ratio",
    "hwmodel.paper_err_pct",
];

struct Ledger {
    doc: Value,
}

impl Ledger {
    fn load(path: &Path) -> Result<Ledger, String> {
        let doc = Value::read(path)?;
        let quick = |v: &Value| v.get("quick") == Some(&Value::Bool(true));
        if quick(&doc)
            || doc
                .get("runs")
                .is_some_and(|r| r.as_arr().iter().any(quick))
        {
            return Err(format!(
                "{}: a --quick run measures nothing; refusing",
                path.display()
            ));
        }
        Ok(Ledger { doc })
    }

    fn workloads(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for run in self.doc.get("runs").map_or(&[][..], Value::as_arr) {
            if let Some(name) = run.get("workload").and_then(Value::as_str) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names
    }

    /// The metric's value in every run of `workload` of the given pass.
    fn values(&self, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
        self.doc
            .get("runs")
            .map_or(&[][..], Value::as_arr)
            .iter()
            .filter(|run| {
                run.get("workload").and_then(Value::as_str) == Some(workload)
                    && run.get("trace").and_then(Value::as_f64) == Some(f64::from(u8::from(traced)))
            })
            .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }
}

fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> &'static str {
    let (p, c) = (median(parent), median(change));
    // Positive when the change is worse, as a share of the parent.
    let worse = if def.better == "lower" {
        (c - p) / p.abs()
    } else {
        (p - c) / p.abs()
    };
    let bound = def.bound.unwrap_or(0.0);
    if EXACT.contains(&def.name.as_str()) {
        return match () {
            _ if p == c => "ok",
            _ if def.bound.is_some() && worse > 0.0 => "regressed",
            _ => "changed-exact",
        };
    }
    if quartile_spread(parent).max(quartile_spread(change)) > bound {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "ok"
    }
}

pub fn compare(manifest: &Manifest, parent: &Path, change: &Path) -> Result<(), String> {
    let (parent, change) = (Ledger::load(parent)?, Ledger::load(change)?);
    let mut bad = 0;
    println!(
        "{:<20} {:<34} {:>14} {:>14} {:>9}  {:<12} verdict",
        "workload", "metric", "parent", "change", "ratio", "(base)"
    );
    for workload in parent.workloads() {
        let passes = [(false, &manifest.end_to_end), (true, &manifest.per_layer)];
        for (traced, defs) in passes {
            for def in defs
                .iter()
                .filter(|d| !traced || EXACT.contains(&d.name.as_str()))
            {
                let p = parent.values(workload, traced, &def.name);
                let c = change.values(workload, traced, &def.name);
                if p.is_empty() || c.is_empty() {
                    println!("{workload:<20} {:<34} missing on one side", def.name);
                    bad += 1;
                    continue;
                }
                let v = verdict(def, &p, &c);
                bad += usize::from(v == "regressed" || v == "unresolved");
                // Identical simulated counts are the expected case: say so once.
                if traced && v == "ok" {
                    continue;
                }
                let (pm, cm) = (median(&p), median(&c));
                println!(
                    "{workload:<20} {:<34} {pm:>14.4} {cm:>14.4} {:>9.4}  (÷ {pm:<.4}) {v}",
                    def.name,
                    cm / pm
                );
            }
        }
    }
    println!("simulated per-layer counts not listed above are identical");
    if bad > 0 {
        return Err(format!("{bad} metric(s) regressed, unresolved or missing"));
    }
    Ok(())
}
