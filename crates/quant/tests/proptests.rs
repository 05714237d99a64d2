//! Property tests for the quantization algebra.

use qnn_testkit::{any, prop_assert, prop_assert_eq, prop_assume, props, Strategy};
use qnn_quant::{
    dot_codes, dot_pm1, weighted_average, ActPlanes, BnParams, PlaneRing, QuantSpec,
    SoftmaxLadder, ThresholdBank, ThresholdUnit, SOFTMAX_WEIGHT_BITS,
};
use qnn_tensor::BitVec;

/// Values where an `i32` accumulator and an `i64` threshold part ways.
const EDGES: [i64; 12] = [
    i64::MIN,
    i32::MIN as i64 - 1,
    i32::MIN as i64,
    i32::MIN as i64 + 1,
    -2,
    0,
    0,
    3,
    i32::MAX as i64 - 1,
    i32::MAX as i64,
    i32::MAX as i64 + 1,
    i64::MAX,
];

/// A threshold unit of every construction the public API offers, drawn
/// from `seed`: increasing / decreasing / constant, duplicate thresholds,
/// thresholds at and beyond the ends of the `i32` range.
fn unit_from(kind: u8, seed: u64) -> ThresholdUnit {
    let pick = |k: u32| (seed >> (5 * k)) as usize;
    let spec = QuantSpec::paper_2bit();
    match kind {
        // Small ascending thresholds, duplicates likely.
        0 => {
            let mut ts: Vec<i64> = (0..pick(0) % 7).map(|k| (pick(k as u32 + 1) % 9) as i64 - 4).collect();
            ts.sort_unstable();
            ThresholdUnit::from_raw_thresholds(ts)
        }
        // Increasing, thresholds at the edges of (and outside) i32.
        1 => {
            let mut ts: Vec<i64> = (0..pick(0) % 6).map(|k| EDGES[pick(k as u32 + 1) % EDGES.len()]).collect();
            ts.sort_unstable();
            ThresholdUnit::from_raw_thresholds(ts)
        }
        // Decreasing (wire direction 1) or constant (2) inside i32.
        2 | 3 => {
            let mut ts: Vec<i32> = (1..4)
                .map(|k| EDGES[2 + pick(k) % 8].clamp(i32::MIN.into(), i32::MAX.into()) as i32)
                .collect();
            ts.sort_unstable();
            let head = if kind == 2 { 1 } else { 2 };
            ThresholdUnit::from_wire(&[head, ts[0], ts[1], ts[2]], 2)
        }
        // BatchNorm slopes from vanishing (thresholds saturate at the ends
        // of i64, either direction) through zero (constant) to steep.
        _ => {
            let slopes = [1e-30f32, -1e-30, 1e-8, -1e-8, 0.0, 0.3, -0.3, 40.0, -40.0];
            let gamma = slopes[pick(0) % slopes.len()];
            let mu = (pick(1) % 2001) as f32 - 1000.0;
            let beta = (pick(2) % 9) as f32 - 2.0;
            ThresholdUnit::from_batchnorm(&BnParams::new(gamma, mu, 1.0, beta), &spec)
        }
    }
}

/// An accumulator drawn from `seed`: the ends of `i32`, the neighbourhood
/// of the small thresholds, or anything.
fn acc_from(seed: u64) -> i32 {
    match seed % 4 {
        0 => [i32::MIN, i32::MIN + 1, i32::MAX - 1, i32::MAX][(seed >> 2) as usize % 4],
        1 => ((seed >> 2) % 13) as i32 - 6,
        2 => ((seed >> 2) % 2101) as i32 - 1050,
        _ => (seed >> 2) as i32,
    }
}

fn finite_param() -> impl qnn_testkit::Strategy<Value = f32> {
    (-8.0f32..8.0).prop_filter("nonzero-ish", |x| x.abs() > 1e-3 || *x == 0.0)
}

props! {
    /// Fused threshold unit equals BatchNorm followed by uniform quantization
    /// for every integer accumulator, away from floating-point range-boundary
    /// ties (where the f32 reference itself is ill-defined).
    #[test]
    fn threshold_unit_equals_bn_then_quantize(
        gamma in finite_param(),
        mu in finite_param(),
        inv_sigma in finite_param(),
        beta in finite_param(),
        bits in 1u32..5,
        a in -500i32..500,
    ) {
        let bn = BnParams::new(gamma, mu, inv_sigma, beta);
        let spec = QuantSpec::new(bits, 0.0, (1u32 << bits) as f32);
        let unit = ThresholdUnit::from_batchnorm(&bn, &spec);
        let y = f64::from(gamma) * (f64::from(a) - f64::from(mu)) * f64::from(inv_sigma)
            + f64::from(beta);
        // Distance from the nearest range endpoint, in units of d (= 1 here).
        let frac = (y - y.floor()).min(y.ceil() - y);
        prop_assume!(frac > 1e-4);
        let expected = (y.floor().clamp(0.0, (spec.levels() - 1) as f64)).max(0.0) as u8;
        prop_assert_eq!(unit.activate(a), expected);
    }

    /// Binary search and linear comparator scan always agree.
    #[test]
    fn binary_search_equals_comparator_scan(
        mut ts in qnn_testkit::vec(-100i64..100, 0..16),
        a in -150i32..150,
    ) {
        ts.sort_unstable();
        let unit = ThresholdUnit::from_raw_thresholds(ts);
        prop_assert_eq!(unit.activate(a), unit.activate_linear(a));
    }

    /// The comparator bank, the binary search and the linear comparator
    /// scan agree on every unit the public API can build, position by
    /// position and along a stream that starts and ends mid-bank.
    #[test]
    fn threshold_bank_equals_unit_search_equals_scan(
        units in qnn_testkit::vec((0u8..5, any::<u64>()), 1..80),
        accs in qnn_testkit::vec(any::<u64>(), 1..200),
        first in any::<u64>(),
    ) {
        let units: Vec<ThresholdUnit> = units.iter().map(|&(k, s)| unit_from(k, s)).collect();
        let bank = ThresholdBank::new(&units);
        let o = units.len();
        let mut position: Vec<i32> = (0..o).map(|c| acc_from(accs[c % accs.len()])).collect();
        let before = position.clone();
        bank.activate_all(&mut position);
        for (c, unit) in units.iter().enumerate() {
            prop_assert_eq!(unit.activate(before[c]), unit.activate_linear(before[c]));
            prop_assert_eq!(position[c], i32::from(unit.activate(before[c])), "unit {c}");
        }
        let first = (first % o as u64) as usize;
        let stream: Vec<i32> = accs.iter().map(|&s| acc_from(s)).collect();
        let mut run = stream.clone();
        bank.activate_run(first, &mut run);
        for (i, (&a, &q)) in stream.iter().zip(&run).enumerate() {
            prop_assert_eq!(q, i32::from(units[(first + i) % o].activate(a)), "element {i}");
        }
    }

    /// A run of arriving elements written word-at-a-time lands exactly
    /// where the per-element `set` loop puts it: any plane count, any
    /// start slot, runs that cross word seams and the ring seam (or lap
    /// the ring), code bits above the plane count — sign included —
    /// dropped.
    #[test]
    fn ring_write_codes_equals_set_loop(
        bits in 1u32..9,
        cap in 1usize..260,
        start in any::<u64>(),
        raw in qnn_testkit::vec(any::<u32>(), 0..201),
        prior in any::<u64>(),
    ) {
        let slot = (start % cap as u64) as usize;
        let codes: Vec<i32> = raw.iter().map(|&r| r as i32).collect();
        let mut got = PlaneRing::new(bits, cap);
        for s in 0..cap {
            got.set(s, (prior >> (s % 57)) as u8);
        }
        let mut expect = got.clone();
        got.write_codes(slot, &codes);
        for (j, &code) in codes.iter().enumerate() {
            expect.set((slot + j) % cap, code as u8);
        }
        for s in 0..cap {
            prop_assert_eq!(got.code(s), expect.code(s), "slot {s}");
        }
    }

    /// Plane-decomposed dot product equals the code-level reference for any
    /// bit width.
    #[test]
    fn planes_dot_equals_codes_dot(
        bits in 1u32..6,
        seed in any::<u64>(),
        n in 1usize..200,
    ) {
        let mask = ((1u32 << bits) - 1) as u8;
        let codes: Vec<u8> = (0..n)
            .map(|i| ((seed.wrapping_mul(i as u64 * 2654435761 + 1) >> 24) as u8) & mask)
            .collect();
        let wbools: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let w = BitVec::from_bools(&wbools);
        let planes = ActPlanes::from_codes(bits, &codes);
        prop_assert_eq!(planes.dot(&w), dot_codes(&w, &codes));
    }

    /// XNOR dot is symmetric and bounded by ±n.
    #[test]
    fn pm1_dot_bounds(bools_a in qnn_testkit::vec(any::<bool>(), 1..128)) {
        let bools_b: Vec<bool> = bools_a.iter().map(|&b| !b).collect();
        let a = BitVec::from_bools(&bools_a);
        let b = BitVec::from_bools(&bools_b);
        let n = bools_a.len() as i32;
        prop_assert_eq!(dot_pm1(&a, &b), -n); // full disagreement
        prop_assert_eq!(dot_pm1(&a, &a), n);  // full agreement
    }

    /// Quantize is monotone non-decreasing in its argument.
    #[test]
    fn quantize_is_monotone(bits in 1u32..8, y1 in -100.0f32..100.0, dy in 0.0f32..50.0) {
        let spec = QuantSpec::new(bits, -16.0, 16.0);
        prop_assert!(spec.quantize(y1) <= spec.quantize(y1 + dy));
    }

    /// The threshold-softmax ladder is order-preserving: a higher score
    /// never gets a lower weight, and raising one score never lowers its
    /// own weight (the pairwise form of softmax monotonicity).
    #[test]
    fn softmax_ladder_is_monotone_in_scores(
        act_bits in 1u32..5,
        head_dim in 1usize..16,
        mut scores in qnn_testkit::vec(0i32..2000, 2..12),
        bump in 1i32..500,
        idx in any::<u64>(),
    ) {
        let ladder = SoftmaxLadder::for_scores(act_bits, head_dim);
        let w = ladder.weights_row(&scores);
        for (i, &si) in scores.iter().enumerate() {
            for (j, &sj) in scores.iter().enumerate() {
                if si >= sj {
                    prop_assert!(w[i] >= w[j], "score order {si}>={sj} broke weight order");
                }
            }
        }
        let i = (idx as usize) % scores.len();
        scores[i] += bump;
        let w2 = ladder.weights_row(&scores);
        prop_assert!(w2[i] >= w[i], "raising a score lowered its weight");
    }

    /// Row-sum bounds: every weight lies in `0 ..= 2^b − 1`, the row
    /// maximum always carries full weight, and the row sum is therefore
    /// pinned inside `[2^b − 1, n·(2^b − 1)]` — the denominator of the
    /// weighted average can never vanish or overflow its design bound.
    #[test]
    fn softmax_ladder_row_sum_bounds(
        act_bits in 1u32..5,
        head_dim in 1usize..16,
        scores in qnn_testkit::vec(0i32..4000, 1..12),
    ) {
        let ladder = SoftmaxLadder::for_scores(act_bits, head_dim);
        let w = ladder.weights_row(&scores);
        let w_max = (1i32 << SOFTMAX_WEIGHT_BITS) - 1;
        for &wi in &w {
            prop_assert!((0..=w_max).contains(&wi));
        }
        let arg = (0..scores.len()).max_by_key(|&i| scores[i]).expect("non-empty");
        prop_assert_eq!(w[arg], w_max, "row max must carry full weight");
        let sum: i32 = w.iter().sum();
        prop_assert!(sum >= w_max && sum <= w_max * scores.len() as i32);
    }

    /// Argmax preservation against the real thing: the position an exact
    /// f64 softmax ranks highest always carries the ladder's top weight,
    /// so replacing exp-normalization with the threshold ladder can never
    /// flip which token dominates an attention row.
    #[test]
    fn softmax_ladder_preserves_float_softmax_argmax(
        act_bits in 1u32..5,
        head_dim in 1usize..16,
        scores in qnn_testkit::vec(0i32..2000, 1..12),
    ) {
        let m = *scores.iter().max().expect("non-empty");
        let exps: Vec<f64> = scores.iter().map(|&s| f64::from(s - m).exp()).collect();
        let total: f64 = exps.iter().sum();
        let float_arg = (0..exps.len())
            .max_by(|&a, &b| exps[a].total_cmp(&exps[b]))
            .expect("non-empty");
        prop_assert!(exps[float_arg] / total > 0.0);
        let ladder = SoftmaxLadder::for_scores(act_bits, head_dim);
        let w = ladder.weights_row(&scores);
        let top = *w.iter().max().expect("non-empty");
        prop_assert_eq!(w[float_arg], top, "float-softmax argmax lost the top ladder weight");
    }

    /// The attention AV reduction is a true average: its output code is
    /// bracketed by the smallest and largest value codes of the row, so
    /// attention outputs never escape the activation code range and need
    /// no re-quantization.
    #[test]
    fn weighted_average_is_bracketed_by_operands(
        act_bits in 1u32..5,
        head_dim in 1usize..16,
        scores in qnn_testkit::vec(0i32..2000, 1..12),
        seed in any::<u64>(),
    ) {
        let mask = ((1u16 << act_bits) - 1) as u8;
        let values: Vec<u8> = (0..scores.len())
            .map(|u| ((seed.wrapping_mul(u as u64 * 2654435761 + 17) >> 13) as u8) & mask)
            .collect();
        let ladder = SoftmaxLadder::for_scores(act_bits, head_dim);
        let w = ladder.weights_row(&scores);
        let avg = weighted_average(&w, |u| values[u]);
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        prop_assert!(avg >= lo && avg <= hi, "average {avg} escaped [{lo}, {hi}]");
    }
}
