//! Per-layer parallelism (folding) description.
//!
//! A streaming kernel's default shape moves one element per port per
//! clock. Folding widens that: `pe` output lanes (how many filter results
//! a convolution emits per clock at one window position — FINN's "PE"
//! knob) and `simd` input lanes (how many window elements it absorbs per
//! clock — FINN's "SIMD" knob). Folding never changes element *order*,
//! only per-cycle width, so logits stay bit-identical; the analytic
//! models in [`crate::cycles`] and [`crate::resources`] expose matching
//! fold-aware estimates that the DSE in `qnn-compiler` searches over.

/// Folding factors for one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fold {
    /// Output lanes: filter results emitted per clock per window position.
    pub pe: usize,
    /// Input lanes: window elements absorbed per clock.
    pub simd: usize,
}

impl Fold {
    /// The no-folding identity (one element per port per clock).
    pub const UNIT: Fold = Fold { pe: 1, simd: 1 };

    /// A fold with the given lane counts (both must be ≥ 1).
    pub fn new(pe: usize, simd: usize) -> Self {
        assert!(pe >= 1 && simd >= 1, "folding factors must be ≥ 1");
        Fold { pe, simd }
    }

    /// True when this fold is the identity.
    pub fn is_unit(&self) -> bool {
        *self == Fold::UNIT
    }
}

impl Default for Fold {
    fn default() -> Self {
        Fold::UNIT
    }
}

/// A per-layer folding assignment, keyed by the lowering's stage labels
/// (`conv0`, `pool1`, `fc5`, `res2.conv1`, …). Layers not mentioned run
/// at [`Fold::UNIT`]. Stored as a sorted vector so the plan is `Eq` and
/// `Hash` (it is part of the compiler's `CompileOptions`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct FoldPlan {
    entries: Vec<(String, Fold)>,
}

impl FoldPlan {
    /// An empty plan: every layer at `Fold::UNIT`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the fold for `label`, replacing any previous entry.
    pub fn set(&mut self, label: &str, fold: Fold) -> &mut Self {
        match self.entries.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => self.entries[i].1 = fold,
            Err(i) => self.entries.insert(i, (label.to_string(), fold)),
        }
        self
    }

    /// Builder-style [`FoldPlan::set`].
    pub fn with(mut self, label: &str, fold: Fold) -> Self {
        self.set(label, fold);
        self
    }

    /// The fold for `label` (`Fold::UNIT` when absent).
    pub fn get(&self, label: &str) -> Fold {
        self.entries
            .binary_search_by(|(l, _)| l.as_str().cmp(label))
            .map(|i| self.entries[i].1)
            .unwrap_or(Fold::UNIT)
    }

    /// All explicit entries, sorted by label.
    pub fn entries(&self) -> &[(String, Fold)] {
        &self.entries
    }

    /// True when no layer is folded (every entry is the identity).
    pub fn is_uniform(&self) -> bool {
        self.entries.iter().all(|(_, f)| f.is_unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_defaults_to_unit() {
        let plan = FoldPlan::new().with("conv0", Fold::new(4, 2));
        assert_eq!(plan.get("conv0"), Fold { pe: 4, simd: 2 });
        assert_eq!(plan.get("pool1"), Fold::UNIT);
        assert!(!plan.is_uniform());
        assert!(FoldPlan::new().is_uniform());
    }

    #[test]
    fn set_replaces_and_keeps_sorted() {
        let mut plan = FoldPlan::new();
        plan.set("fc5", Fold::new(2, 1));
        plan.set("conv0", Fold::new(8, 8));
        plan.set("fc5", Fold::new(4, 4));
        assert_eq!(plan.entries().len(), 2);
        assert_eq!(plan.entries()[0].0, "conv0");
        assert_eq!(plan.get("fc5"), Fold::new(4, 4));
    }

    #[test]
    #[should_panic(expected = "folding factors must be ≥ 1")]
    fn zero_fold_rejected() {
        let _ = Fold::new(0, 1);
    }
}
