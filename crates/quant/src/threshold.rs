//! Threshold-form BatchNorm + n-bit activation (paper §III-B3).
//!
//! FINN showed that BatchNorm followed by a 1-bit activation collapses into
//! a single threshold comparison. The paper extends this to n-bit uniform
//! activations: the activation's `2ⁿ` equal ranges have `2ⁿ−1` interior
//! endpoints; pulling those endpoints back through the (affine, monotone)
//! BatchNorm gives `2ⁿ−1` thresholds in the *pre-activation* domain, where
//! the convolution accumulator is an exact integer. The output code is then
//! found by a binary search over the ranges using an n-input comparator and
//! a 2ⁿ→1 multiplexer — here, `slice::partition_point`.

use crate::batchnorm::BnParams;

/// Uniform n-bit activation quantizer over the half-open range `[lo, hi)`
/// divided into `2ⁿ` equal ranges of size `d` (paper §III-B3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantSpec {
    /// Number of activation bits (the paper uses 2; FINN comparison uses 1).
    pub bits: u32,
    /// Lower endpoint of the quantization range.
    pub lo: f32,
    /// Upper endpoint of the quantization range.
    pub hi: f32,
}

impl QuantSpec {
    /// Construct a spec.
    ///
    /// # Panics
    /// Panics unless `0 < bits ≤ 8` and `lo < hi`.
    pub fn new(bits: u32, lo: f32, hi: f32) -> Self {
        assert!((1..=8).contains(&bits), "activation bits must be in 1..=8, got {bits}");
        assert!(lo < hi, "empty quantization range [{lo}, {hi})");
        Self { bits, lo, hi }
    }

    /// The paper's configuration: 2-bit activations over `[0, 4)` so that
    /// codes coincide with values (`d = 1`).
    pub fn paper_2bit() -> Self {
        Self::new(2, 0.0, 4.0)
    }

    /// Binary activations (FINN comparison): one threshold, codes `{0, 1}`.
    pub fn binary() -> Self {
        Self::new(1, 0.0, 2.0)
    }

    /// Number of output levels `2ⁿ`.
    #[inline]
    pub fn levels(&self) -> u32 {
        1 << self.bits
    }

    /// Range size `d = (hi − lo) / 2ⁿ`.
    #[inline]
    pub fn d(&self) -> f32 {
        (self.hi - self.lo) / self.levels() as f32
    }

    /// Quantize a post-BatchNorm value to its code by locating its range,
    /// clamping outside values to the extreme codes.
    #[inline]
    pub fn quantize(&self, y: f32) -> u8 {
        let idx = ((y - self.lo) / self.d()).floor();
        idx.clamp(0.0, (self.levels() - 1) as f32) as u8
    }

    /// Interior range endpoints `lo + α·d` for α = 1 … 2ⁿ−1.
    pub fn endpoints(&self) -> impl Iterator<Item = f32> + '_ {
        (1..self.levels()).map(move |a| self.lo + a as f32 * self.d())
    }
}

/// Monotonicity of the fused BatchNorm map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// γ·i > 0: code counts thresholds `a ≥ Tα`.
    Increasing,
    /// γ·i < 0: code counts thresholds `a ≤ Tα`.
    Decreasing,
    /// γ·i = 0: BatchNorm is constant; code is fixed.
    Constant(u8),
}

/// One neuron's fused BatchNorm + n-bit activation, reduced to integer
/// thresholds on the convolution accumulator.
///
/// The hardware stores only two derived parameters per neuron (τ and
/// `d/(γ·i)`, one 64-bit word — paper §III-B1a/§III-B3); this struct keeps
/// the expanded threshold list, which is what the comparator tree sees.
#[derive(Clone, Debug, PartialEq)]
pub struct ThresholdUnit {
    /// Ascending integer thresholds (length `2ⁿ−1`, except `Constant`).
    thresholds: Vec<i64>,
    direction: Direction,
}

impl ThresholdUnit {
    /// Fuse BatchNorm parameters with a quantizer.
    ///
    /// Thresholds are computed in `f64` and snapped to the integer grid:
    /// for an increasing map, `a ≥ t ⟺ a ≥ ⌈t⌉` for integer `a`; for a
    /// decreasing map, `a ≤ t ⟺ a ≤ ⌊t⌋`.
    pub fn from_batchnorm(bn: &BnParams, spec: &QuantSpec) -> Self {
        let slope = f64::from(bn.gamma) * f64::from(bn.inv_sigma);
        if slope == 0.0 {
            // Degenerate: the normalized value is the constant B.
            return Self {
                thresholds: Vec::new(),
                direction: Direction::Constant(spec.quantize(bn.beta)),
            };
        }
        let mu = f64::from(bn.mu);
        let beta = f64::from(bn.beta);
        let mut thresholds: Vec<i64> = spec
            .endpoints()
            .map(|y| {
                let t = mu + (f64::from(y) - beta) / slope;
                let snapped = if slope > 0.0 { t.ceil() } else { t.floor() };
                snapped.clamp(i64::MIN as f64, i64::MAX as f64) as i64
            })
            .collect();
        let direction = if slope > 0.0 {
            Direction::Increasing
        } else {
            thresholds.reverse(); // preimages of ascending endpoints descend
            Direction::Decreasing
        };
        debug_assert!(thresholds.windows(2).all(|w| w[0] <= w[1]));
        Self { thresholds, direction }
    }

    /// A raw unit from explicit ascending thresholds (increasing direction);
    /// useful for tests and for identity-BN layers.
    pub fn from_raw_thresholds(thresholds: Vec<i64>) -> Self {
        assert!(thresholds.windows(2).all(|w| w[0] <= w[1]), "thresholds must ascend");
        Self { thresholds, direction: Direction::Increasing }
    }

    /// Apply to an integer accumulator via binary search (the paper's
    /// "binary search on the ranges").
    #[inline]
    pub fn activate(&self, a: i32) -> u8 {
        let a = i64::from(a);
        match self.direction {
            Direction::Constant(q) => q,
            Direction::Increasing => self.thresholds.partition_point(|&t| a >= t) as u8,
            Direction::Decreasing => {
                (self.thresholds.len() - self.thresholds.partition_point(|&t| t < a)) as u8
            }
        }
    }

    /// Reference implementation: linear scan over the comparator outputs.
    /// Exists to cross-check [`ThresholdUnit::activate`].
    pub fn activate_linear(&self, a: i32) -> u8 {
        let a = i64::from(a);
        match self.direction {
            Direction::Constant(q) => q,
            Direction::Increasing => self.thresholds.iter().filter(|&&t| a >= t).count() as u8,
            Direction::Decreasing => self.thresholds.iter().filter(|&&t| a <= t).count() as u8,
        }
    }

    /// Number of thresholds (`2ⁿ−1` for an n-bit non-degenerate unit).
    pub fn num_thresholds(&self) -> usize {
        self.thresholds.len()
    }

    /// Number of 32-bit words in the wire encoding of an n-bit unit:
    /// one direction/constant word plus `2ⁿ−1` thresholds.
    pub const fn wire_words(bits: u32) -> usize {
        1 + (1 << bits) - 1
    }

    /// Serialize for the CPU→DFE parameter stream (paper §III-B1a: the
    /// normalization parameters are sent as 32-bit words and cached
    /// on-chip). Layout: a direction word (0 = increasing, 1 = decreasing,
    /// 2 = constant-with-code-in-next-word) followed by the thresholds,
    /// padded to `wire_words(bits)` for a fixed per-neuron footprint.
    ///
    /// # Panics
    /// Panics when a threshold does not fit in 32 bits (cannot occur for
    /// units built from real accumulator ranges) or the unit's width
    /// exceeds `bits`.
    pub fn to_wire(&self, bits: u32) -> Vec<i32> {
        let words = Self::wire_words(bits);
        let mut out = Vec::with_capacity(words);
        match self.direction {
            Direction::Increasing => out.push(0),
            Direction::Decreasing => out.push(1),
            Direction::Constant(q) => {
                out.push(2);
                out.push(i32::from(q));
            }
        }
        for &t in &self.thresholds {
            out.push(i32::try_from(t).expect("threshold exceeds 32-bit wire word"));
        }
        assert!(out.len() <= words, "unit wider than the declared wire width");
        out.resize(words, 0);
        out
    }

    /// Deserialize a unit previously encoded with [`ThresholdUnit::to_wire`].
    ///
    /// # Panics
    /// Panics on a malformed direction word.
    pub fn from_wire(words: &[i32], bits: u32) -> Self {
        assert_eq!(words.len(), Self::wire_words(bits), "wire length mismatch");
        let n_thr = (1usize << bits) - 1;
        match words[0] {
            0 | 1 => {
                let thresholds: Vec<i64> =
                    words[1..=n_thr].iter().map(|&w| i64::from(w)).collect();
                debug_assert!(thresholds.windows(2).all(|p| p[0] <= p[1]));
                let direction =
                    if words[0] == 0 { Direction::Increasing } else { Direction::Decreasing };
                Self { thresholds, direction }
            }
            2 => Self { thresholds: Vec::new(), direction: Direction::Constant(words[1] as u8) },
            other => panic!("malformed threshold wire direction {other}"),
        }
    }
}

/// Every [`ThresholdUnit`] of one layer as a flat comparator bank: the
/// thresholds of all `O` units in `[T][O]` structure-of-arrays order, so a
/// whole position's accumulators become output codes in one branch-free
/// compare-and-count pass the compiler can vectorise — FINN-R's
/// matrix-vector-threshold unit comparing against every threshold at once,
/// where [`ThresholdUnit::activate`] is the paper's binary search.
///
/// Exact for anything a `ThresholdUnit` can hold. An `i32` accumulator
/// cannot tell an `i64` threshold beyond its range from one at the edge of
/// it, so each comparator is stored as the strict `i32` bound `a > b`:
/// `i32::MAX` for one that never fires, while one that always fires is
/// counted into the unit's `base` code instead. A decreasing unit's code is
/// the number of comparators that do *not* fire past their threshold, which
/// the `negate` mask turns into a subtraction; a constant unit is a `base`
/// with no live comparator.
#[derive(Clone, Debug)]
pub struct ThresholdBank {
    /// Units (`O`).
    units: usize,
    /// `[T][O]`: comparator `t` of unit `o` fires when `a > bounds[t·O + o]`.
    bounds: Vec<i32>,
    /// Code of unit `o` when none of its comparators fires.
    base: Vec<i32>,
    /// `0` ⇒ code = base + fired; `-1` ⇒ code = base − fired.
    negate: Vec<i32>,
}

impl ThresholdBank {
    /// Accumulators handled per pass of the inner compare loop (the fired
    /// counts live in a stack array this long).
    const LANES: usize = 64;

    /// Bank the units of one layer, in channel order.
    ///
    /// # Panics
    /// Panics if `units` is empty.
    pub fn new(units: &[ThresholdUnit]) -> Self {
        assert!(!units.is_empty(), "threshold bank needs at least one unit");
        let n = units.len();
        let depth = units.iter().map(ThresholdUnit::num_thresholds).max().unwrap_or(0);
        let mut bank = Self {
            units: n,
            bounds: vec![i32::MAX; depth * n],
            base: vec![0; n],
            negate: vec![0; n],
        };
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        for (o, unit) in units.iter().enumerate() {
            match unit.direction {
                Direction::Constant(q) => bank.base[o] = i32::from(q),
                // `a ≥ t` ⟺ `a > t − 1`; always true at or below i32::MIN.
                Direction::Increasing => {
                    for (t, &thr) in unit.thresholds.iter().enumerate() {
                        if thr <= lo {
                            bank.base[o] += 1;
                        } else if thr <= hi {
                            bank.bounds[t * n + o] = (thr - 1) as i32;
                        }
                    }
                }
                // `a ≤ t` ⟺ not `a > t`: counted in `base`, uncounted when
                // the comparator fires; never true below i32::MIN.
                Direction::Decreasing => {
                    bank.negate[o] = -1;
                    for (t, &thr) in unit.thresholds.iter().enumerate() {
                        if thr >= lo {
                            bank.base[o] += 1;
                            bank.bounds[t * n + o] = thr.min(hi) as i32;
                        }
                    }
                }
            }
        }
        bank
    }

    /// Replace every accumulator of one position by its output code:
    /// `acc[o] = units[o].activate(acc[o])` for all `o`.
    ///
    /// # Panics
    /// Panics if `acc.len()` differs from the unit count.
    pub fn activate_all(&self, acc: &mut [i32]) {
        assert_eq!(acc.len(), self.units, "one accumulator per unit");
        self.activate_span(0, acc);
    }

    /// Activate a run of a depth-first stream in place: `vals[i]` goes
    /// through unit `(first + i) % O`.
    ///
    /// # Panics
    /// Panics if `first` is not a unit index.
    pub fn activate_run(&self, first: usize, mut vals: &mut [i32]) {
        assert!(first < self.units, "unit {first} outside the bank");
        let mut o = first;
        while !vals.is_empty() {
            let (span, rest) = vals.split_at_mut((self.units - o).min(vals.len()));
            self.activate_span(o, span);
            vals = rest;
            o = 0;
        }
    }

    /// Units `first..first + vals.len()` against their accumulators.
    fn activate_span(&self, first: usize, vals: &mut [i32]) {
        for (i, chunk) in vals.chunks_mut(Self::LANES).enumerate() {
            let units = first + i * Self::LANES..first + i * Self::LANES + chunk.len();
            let mut fired = [0i32; Self::LANES];
            for row in self.bounds.chunks_exact(self.units) {
                for ((f, &a), &b) in fired.iter_mut().zip(chunk.iter()).zip(&row[units.clone()]) {
                    *f += i32::from(a > b);
                }
            }
            let (base, negate) = (&self.base[units.clone()], &self.negate[units]);
            for (((a, &f), &b), &m) in chunk.iter_mut().zip(&fired).zip(base).zip(negate) {
                // `& 0xFF`: `activate` returns the count as a `u8`.
                *a = (b + ((f ^ m) - m)) & 0xFF;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_matches_units_at_the_edges_of_i32() {
        let spec = QuantSpec::paper_2bit();
        let mut decreasing = ThresholdUnit::from_raw_thresholds(vec![
            i64::MIN,
            i64::from(i32::MIN) - 1,
            i64::from(i32::MIN),
            -4,
            -4,
            i64::from(i32::MAX) - 1,
            i64::from(i32::MAX),
            i64::MAX,
        ]);
        decreasing.direction = Direction::Decreasing;
        let mut increasing = decreasing.clone();
        increasing.direction = Direction::Increasing;
        let units = vec![
            increasing,
            decreasing,
            ThresholdUnit::from_batchnorm(&BnParams::new(0.0, 5.0, 1.0, 2.5), &spec),
            ThresholdUnit::from_batchnorm(&BnParams::new(-0.7, 3.0, 0.4, 2.0), &spec),
            ThresholdUnit::from_raw_thresholds((0..300).collect()),
        ];
        let bank = ThresholdBank::new(&units);
        for a in [i32::MIN, i32::MIN + 1, -5, -4, -3, 0, 1, 3, 299, 300, i32::MAX - 1, i32::MAX] {
            let mut acc = vec![a; units.len()];
            bank.activate_all(&mut acc);
            for (o, unit) in units.iter().enumerate() {
                assert_eq!(acc[o], i32::from(unit.activate(a)), "unit {o} a={a}");
                assert_eq!(unit.activate(a), unit.activate_linear(a), "unit {o} a={a}");
            }
        }
    }

    #[test]
    fn quantize_partitions_range_evenly() {
        let spec = QuantSpec::paper_2bit(); // [0,4), d = 1
        assert_eq!(spec.d(), 1.0);
        assert_eq!(spec.quantize(-5.0), 0);
        assert_eq!(spec.quantize(0.0), 0);
        assert_eq!(spec.quantize(0.99), 0);
        assert_eq!(spec.quantize(1.0), 1);
        assert_eq!(spec.quantize(2.5), 2);
        assert_eq!(spec.quantize(3.0), 3);
        assert_eq!(spec.quantize(100.0), 3);
    }

    #[test]
    fn binary_spec_has_single_endpoint() {
        let spec = QuantSpec::binary();
        let eps: Vec<f32> = spec.endpoints().collect();
        assert_eq!(eps, vec![1.0]);
        assert_eq!(spec.quantize(0.5), 0);
        assert_eq!(spec.quantize(1.5), 1);
    }

    #[test]
    fn threshold_matches_bn_then_quantize_increasing() {
        let bn = BnParams::new(0.5, 10.0, 0.25, 1.0);
        let spec = QuantSpec::paper_2bit();
        let unit = ThresholdUnit::from_batchnorm(&bn, &spec);
        assert_eq!(unit.num_thresholds(), 3);
        for a in -200..=200 {
            let expected = spec.quantize(bn.apply(a as f32));
            assert_eq!(unit.activate(a), expected, "a={a}");
        }
    }

    #[test]
    fn threshold_matches_bn_then_quantize_decreasing() {
        let bn = BnParams::new(-0.7, 3.0, 0.4, 2.0);
        let spec = QuantSpec::paper_2bit();
        let unit = ThresholdUnit::from_batchnorm(&bn, &spec);
        for a in -200..=200 {
            let expected = spec.quantize(bn.apply(a as f32));
            assert_eq!(unit.activate(a), expected, "a={a}");
        }
    }

    #[test]
    fn constant_bn_yields_constant_code() {
        let bn = BnParams::new(0.0, 5.0, 1.0, 2.5);
        let spec = QuantSpec::paper_2bit();
        let unit = ThresholdUnit::from_batchnorm(&bn, &spec);
        for a in [-100, 0, 100] {
            assert_eq!(unit.activate(a), spec.quantize(2.5));
        }
    }

    #[test]
    fn binary_search_equals_linear_scan() {
        let unit = ThresholdUnit::from_raw_thresholds(vec![-10, -3, 0, 0, 7, 42, 100]);
        for a in -120..=120 {
            assert_eq!(unit.activate(a), unit.activate_linear(a), "a={a}");
        }
    }

    #[test]
    fn paper_identity_example() {
        // With identity BN and the paper's [0,4) spec, the code is a clamp
        // of the accumulator itself: thresholds at 1, 2, 3.
        let unit = ThresholdUnit::from_batchnorm(&BnParams::IDENTITY, &QuantSpec::paper_2bit());
        assert_eq!(unit.activate(-5), 0);
        assert_eq!(unit.activate(0), 0);
        assert_eq!(unit.activate(1), 1);
        assert_eq!(unit.activate(2), 2);
        assert_eq!(unit.activate(3), 3);
        assert_eq!(unit.activate(99), 3);
    }

    #[test]
    fn eight_bit_unit_has_255_thresholds() {
        let spec = QuantSpec::new(8, 0.0, 256.0);
        let unit = ThresholdUnit::from_batchnorm(&BnParams::IDENTITY, &spec);
        assert_eq!(unit.num_thresholds(), 255);
        assert_eq!(unit.activate(200), 200);
    }

    #[test]
    #[should_panic(expected = "activation bits")]
    fn zero_bits_rejected() {
        let _ = QuantSpec::new(0, 0.0, 1.0);
    }

    #[test]
    fn wire_roundtrip_preserves_behaviour() {
        let spec = QuantSpec::paper_2bit();
        for bn in [
            BnParams::new(0.5, 10.0, 0.25, 1.0),
            BnParams::new(-0.7, 3.0, 0.4, 2.0),
            BnParams::new(0.0, 5.0, 1.0, 2.5),
            BnParams::IDENTITY,
        ] {
            let unit = ThresholdUnit::from_batchnorm(&bn, &spec);
            let wire = unit.to_wire(2);
            assert_eq!(wire.len(), ThresholdUnit::wire_words(2));
            let back = ThresholdUnit::from_wire(&wire, 2);
            for a in -300..=300 {
                assert_eq!(unit.activate(a), back.activate(a), "a={a} bn={bn:?}");
            }
        }
    }

    #[test]
    fn wire_words_matches_paper_footprint_scale() {
        // 2-bit: 4 words/neuron. The paper packs the *derived* parameters
        // into 64 bits; the expanded wire form trades 2× link traffic for
        // zero on-chip threshold arithmetic.
        assert_eq!(ThresholdUnit::wire_words(1), 2);
        assert_eq!(ThresholdUnit::wire_words(2), 4);
        assert_eq!(ThresholdUnit::wire_words(8), 256);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn bad_wire_direction_panics() {
        let _ = ThresholdUnit::from_wire(&[9, 0, 0, 0], 2);
    }
}
