//! `BENCHMARK.json` is the one list of metric names, units, directions and
//! bounds. A run looks its units up there and refuses to print a metric the
//! manifest does not name, so the two cannot drift apart.

use crate::json::Value;
use std::path::Path;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let doc = Value::read(path)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .ok_or_else(|| format!("{}: no \"{key}\"", path.display()))?
                .as_arr()
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| {
                                format!("{}: {key} entry without \"{k}\"", path.display())
                            })
                    };
                    Ok(MetricDef {
                        name: text("name")?,
                        unit: text("unit")?,
                        better: text("better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }
}

/// What one workload run measured, before units are attached.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Context that is not a metric: sample counts, phase ledgers, tables.
    pub notes: Vec<(&'static str, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn note(&mut self, name: &'static str, value: impl Into<Value>) {
        self.notes.push((name, value.into()));
    }
}

/// Attach units, print every metric by name, and return the result object
/// whose single-line form is the run's last line of output.
///
/// The untraced pass must produce every end-to-end metric. In the traced
/// pass a per-layer metric the workload did not produce belongs to a layer
/// that is not on its path, and reads 0.
pub fn finish(manifest: &Manifest, traced: bool, outcome: &Outcome) -> Result<Value, String> {
    let defs = if traced {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    if let Some((stray, _)) = outcome
        .values
        .iter()
        .find(|(name, _)| !defs.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {stray} is not in BENCHMARK.json"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let measured = outcome
            .values
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|&(_, v)| v);
        let value = match measured {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is {v}", def.name)),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        println!("{:<36} {:>16.6} {}", def.name, value, def.unit);
        metrics.push((
            def.name.clone(),
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::from(def.unit.as_str())),
            ]),
        ));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", Value::Obj(metrics)),
    ]))
}
