//! Blocked accumulator precompute: all `O` filter accumulators of one
//! latched convolution window in a single weights-stationary pass.
//!
//! The emit loop of the streaming conv kernel produces one filter result
//! per modeled clock (paper §III-B1: one weight-cache address per cycle).
//! A per-filter dot ([`ActPlanes::dot`]) would re-walk the packed window
//! once *per emit tick*; here the whole `O × (K·K·I)` bit-GEMM runs once at
//! latch time, register-blocked over filters so each window word is loaded
//! once per `FILTER_BLOCK` filters, and the filter rows — the big operand,
//! the paper's weight cache — stream through exactly once. Each emit tick
//! then pops a precomputed accumulator.
//!
//! Per filter the arithmetic is *identical* to [`ActPlanes::dot`]
//! (AND-popcount per plane, `(2·agree − ones) << p`, planes summed in
//! ascending order), so accumulators — and therefore outputs and modeled
//! cycle counts — are bit-identical to that dot. That identity is enforced
//! by unit tests here, by the conv kernel's tests and the
//! `property_streaming` battery against the reference interpreter, and by
//! the golden vectors.

use crate::planes::ActPlanes;
use qnn_tensor::BinaryFilters;

/// Filters processed per register block of the word-level pass.
const FILTER_BLOCK: usize = 4;

/// Compute every filter's accumulator for one packed window:
/// `acc[o] = window.dot(filters.filter(o))` for all `o`, in one blocked
/// word-level pass.
///
/// # Panics
/// Panics if `acc.len() != filters.num_filters()` or the filter width
/// differs from the window length.
pub fn conv_accumulate_all(filters: &BinaryFilters, window: &ActPlanes, acc: &mut [i32]) {
    assert_eq!(acc.len(), filters.num_filters(), "one accumulator per filter");
    assert_eq!(
        filters.bits_per_filter(),
        window.len(),
        "filter width must match the window"
    );
    let nf = filters.num_filters();
    let mut o = 0;
    while o + FILTER_BLOCK <= nf {
        let (a0, a1, a2, a3) = block4(
            filters.filter(o).words(),
            filters.filter(o + 1).words(),
            filters.filter(o + 2).words(),
            filters.filter(o + 3).words(),
            window,
        );
        acc[o] = a0;
        acc[o + 1] = a1;
        acc[o + 2] = a2;
        acc[o + 3] = a3;
        o += FILTER_BLOCK;
    }
    // Tail filters: per-filter dots, arithmetically the same plane sum.
    for (t, a) in acc.iter_mut().enumerate().skip(o) {
        *a = window.dot(filters.filter(t));
    }
}

/// One register block: four filters against every plane of the window.
/// Slicing all four rows to the plane's word count up front lets the inner
/// loop run bounds-check-free, and four independent accumulator chains keep
/// the popcount unit busy — this is where the blocked pass beats four
/// sequential [`ActPlanes::dot`] calls.
///
/// Per filter the result is exactly `Σ_p (2·agreeₚ − onesₚ) << p` with
/// planes ascending — the [`ActPlanes::dot`] formula, term for term.
fn block4(r0: &[u64], r1: &[u64], r2: &[u64], r3: &[u64], window: &ActPlanes) -> (i32, i32, i32, i32) {
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    for (p, plane) in window.planes().iter().enumerate() {
        let w = plane.words();
        let n = w.len();
        let (r0, r1, r2, r3) = (&r0[..n], &r1[..n], &r2[..n], &r3[..n]);
        let (mut a0, mut a1, mut a2, mut a3) = (0u32, 0u32, 0u32, 0u32);
        for j in 0..n {
            let x = w[j];
            a0 += (r0[j] & x).count_ones();
            a1 += (r1[j] & x).count_ones();
            a2 += (r2[j] & x).count_ones();
            a3 += (r3[j] & x).count_ones();
        }
        let ones = window.plane_ones(p);
        s0 += (2 * a0 as i32 - ones) << p;
        s1 += (2 * a1 as i32 - ones) << p;
        s2 += (2 * a2 as i32 - ones) << p;
        s3 += (2 * a3 as i32 - ones) << p;
    }
    (s0, s1, s2, s3)
}

/// Expand 8 filter bits into 8 `u16` lanes of `0xFFFF`/`0x0000` — the
/// select masks of the first-layer kernel. Built at compile time.
const fn lane_masks() -> [[u16; 8]; 256] {
    let mut table = [[0u16; 8]; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                table[b][j] = 0xFFFF;
            }
            j += 1;
        }
        b += 1;
    }
    table
}
const LANE_MASKS: [[u16; 8]; 256] = lane_masks();

/// A filter bank as `u16` select masks for the first-layer (i8 pixel)
/// kernel ([`conv_accumulate_i8_lanes`]): per filter and byte of its
/// weight bits — one row of eight taps, the window padded to a whole row —
/// eight lanes of `0xFFFF` where the bit is set; and each filter's set-bit
/// count. Built once per installed bank.
#[derive(Clone, Debug)]
pub struct I8Masks {
    taps: usize,
    /// Rows of eight lanes per filter.
    rows: usize,
    masks: Vec<[u16; 8]>,
    ones: Vec<i32>,
}

impl I8Masks {
    /// The masks of every filter of `filters`.
    pub fn new(filters: &BinaryFilters) -> Self {
        let (taps, nf) = (filters.bits_per_filter(), filters.num_filters());
        let rows = taps.div_ceil(8);
        let (mut masks, mut ones) = (Vec::with_capacity(rows * nf), Vec::with_capacity(nf));
        for o in 0..nf {
            let words = filters.filter(o).words();
            masks.extend((0..rows).map(|r| *lane_masks_of(words[r / 8], r % 8)));
            ones.push(words.iter().map(|w| w.count_ones() as i32).sum());
        }
        Self { taps, rows, masks, ones }
    }

    /// Lanes a window must fill ([`conv_accumulate_i8_lanes`]): its taps
    /// padded to a multiple of eight.
    pub fn stride(&self) -> usize {
        8 * self.rows
    }
}

/// The eight lane masks of byte `b` of a word of filter bits.
fn lane_masks_of(word: u64, b: usize) -> &'static [u16; 8] {
    &LANE_MASKS[(word >> (8 * b) & 0xFF) as usize]
}

/// One filter's accumulator over one window: `2·(S₁ᵤ − 128·ones) − T`.
///
/// A ±1 dot over signed pixels is `2·S₁ − T`, where `T = Σ pixelⱼ` is
/// filter-independent (computed once per window) and `S₁ = Σ_{wⱼ=1}
/// pixelⱼ = S₁ᵤ − 128·ones`. `S₁ᵤ` is a masked sum: `lanes` holds the
/// window's pixels offset to unsigned, eight to a row, `row(c, b)` the lane
/// masks of row `8c + b` — byte `b` of word `c` of the filter's bits — and
/// `lane & mask` adds up in eight `u16` lanes side by side, folded every 32
/// words (256 taps a lane, `256 · 255 < 65 536`) so no lane wraps. Every step is exact integer
/// arithmetic, so the values are bit-identical to the per-filter
/// [`dot_i8`](crate::dot::dot_i8) the reference interpreter uses.
fn i8_acc<'a>(
    lanes: &[u16],
    row: impl Fn(usize, usize) -> &'a [u16; 8],
    ones: i32,
    total: i32,
) -> i32 {
    fn add(part: &mut [u16; 8], m: &[u16; 8], l: &[u16]) {
        for k in 0..8 {
            part[k] = part[k].wrapping_add(m[k] & l[k]);
        }
    }
    let fold = |part: [u16; 8]| part.iter().map(|&p| u32::from(p)).sum::<u32>();
    let (mut s1u, mut part) = (0u32, [0u16; 8]);
    // Whole words of rows, then the rows past the last whole word.
    let (words, tail) = lanes.split_at(lanes.len() / 64 * 64);
    for (c, word) in words.chunks_exact(64).enumerate() {
        for (b, l) in word.chunks_exact(8).enumerate() {
            add(&mut part, row(c, b), l);
        }
        if c % 32 == 31 {
            s1u += fold(std::mem::take(&mut part));
        }
    }
    for (b, l) in tail.chunks_exact(8).enumerate() {
        add(&mut part, row(words.len() / 64, b), l);
    }
    2 * ((s1u + fold(part)) as i32 - 128 * ones) - total
}

/// First-layer (i8 pixel) counterpart of [`conv_accumulate_all`]:
/// `acc[o] = dot_i8(filters.filter(o), pixels)` for all `o`, each filter's
/// lane masks read from a 256-entry table as it goes. A kernel latching
/// many windows builds them once ([`I8Masks`]) and calls
/// [`conv_accumulate_i8_lanes`]; both sum the same way.
///
/// # Panics
/// Panics if `acc.len() != filters.num_filters()` or the filter width
/// differs from the pixel count.
pub fn conv_accumulate_all_i8(filters: &BinaryFilters, pixels: &[i8], acc: &mut [i32]) {
    assert_eq!(acc.len(), filters.num_filters(), "one accumulator per filter");
    assert_eq!(
        filters.bits_per_filter(),
        pixels.len(),
        "filter width must match the window"
    );
    let mut lanes = vec![0u16; pixels.len().next_multiple_of(8)];
    for (lane, &p) in lanes.iter_mut().zip(pixels) {
        *lane = (i16::from(p) + 128) as u16;
    }
    let total: i32 = pixels.iter().map(|&p| i32::from(p)).sum();
    for (o, a) in acc.iter_mut().enumerate() {
        let words = filters.filter(o).words();
        let ones = words.iter().map(|w| w.count_ones() as i32).sum();
        *a = i8_acc(&lanes, |c, b| lane_masks_of(words[c], b), ones, total);
    }
}

/// [`conv_accumulate_all_i8`] over masks built once and one window of
/// pixels offset to unsigned, `lanes[j] = pixelⱼ + 128` (the lanes past
/// the taps zero).
///
/// # Panics
/// Panics if `acc` does not hold one accumulator per filter or `lanes`
/// one lane per mask lane.
pub fn conv_accumulate_i8_lanes(masks: &I8Masks, lanes: &[u16], acc: &mut [i32]) {
    assert_eq!(acc.len(), masks.ones.len(), "one accumulator per filter");
    assert_eq!(lanes.len(), masks.stride(), "one lane per mask lane");
    let sum: u32 = lanes.iter().map(|&l| u32::from(l)).sum();
    let total = sum as i32 - 128 * masks.taps as i32;
    let rows = masks.masks.chunks_exact(masks.rows);
    for ((a, row), &ones) in acc.iter_mut().zip(rows).zip(&masks.ones) {
        *a = i8_acc(lanes, |c, b| &row[8 * c + b], ones, total);
    }
}

/// Scalar-reference mirror of [`conv_accumulate_all`] for tests: one full
/// window dot per filter, as the reference interpreter computes it.
pub fn conv_accumulate_all_reference(filters: &BinaryFilters, window: &ActPlanes, acc: &mut [i32]) {
    assert_eq!(acc.len(), filters.num_filters(), "one accumulator per filter");
    for (o, a) in acc.iter_mut().enumerate() {
        *a = window.dot(filters.filter(o));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot::dot_i8;

    fn bank(o: usize, n: usize, seed: u64) -> BinaryFilters {
        let w: Vec<f32> = (0..o * n)
            .map(|i| {
                if (i as u64).wrapping_mul(seed * 2 + 1) % 5 < 2 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        BinaryFilters::from_float_rows(&w, n)
    }

    #[test]
    fn blocked_gemm_matches_per_filter_dot() {
        // Filter counts around the block size and widths around word
        // boundaries, 1–3 activation bits.
        for &o in &[1usize, 3, 4, 5, 8, 17] {
            for &n in &[1usize, 63, 64, 65, 147, 576] {
                for bits in 1..=3u32 {
                    let filters = bank(o, n, (o + n) as u64);
                    let codes: Vec<u8> =
                        (0..n).map(|i| ((i * 7 + o) % (1 << bits)) as u8).collect();
                    let window = ActPlanes::from_codes(bits, &codes);
                    let mut got = vec![0; o];
                    let mut expect = vec![0; o];
                    conv_accumulate_all(&filters, &window, &mut got);
                    conv_accumulate_all_reference(&filters, &window, &mut expect);
                    assert_eq!(got, expect, "o={o} n={n} bits={bits}");
                }
            }
        }
    }

    #[test]
    fn i8_precompute_matches_per_filter_dot() {
        // Widths across byte, lane-row and word boundaries and past one
        // lane block (4 096 taps), extreme pixel values included.
        for &n in &[1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 147, 363, 4100] {
            for &o in &[1usize, 5, 6] {
                let filters = bank(o, n, (3 * o + n) as u64);
                let pixels: Vec<i8> = (0..n)
                    .map(|i| match i % 5 {
                        0 => 127,
                        1 => -128,
                        _ => ((i as i32 * 37) % 255 - 127) as i8,
                    })
                    .collect();
                let mut got = vec![0; o];
                conv_accumulate_all_i8(&filters, &pixels, &mut got);
                // The kernel's path: masks built once, windows as lanes.
                let masks = I8Masks::new(&filters);
                let mut lanes = vec![0u16; masks.stride()];
                for (l, &p) in lanes.iter_mut().zip(&pixels) {
                    *l = (i32::from(p) + 128) as u16;
                }
                let mut again = vec![0; o];
                conv_accumulate_i8_lanes(&masks, &lanes, &mut again);
                for (idx, &a) in got.iter().enumerate() {
                    let expect = dot_i8(filters.filter(idx), &pixels);
                    assert_eq!(a, expect, "o={o} n={n} filter {idx}");
                    assert_eq!(again[idx], expect, "lanes: o={o} n={n} filter {idx}");
                }
            }
        }
        // Every weight set and every pixel at the top of its range: the
        // widest lane sums there are.
        let n = 4100;
        let filters = BinaryFilters::from_float_rows(&vec![1.0; n], n);
        let mut got = [0];
        conv_accumulate_all_i8(&filters, &vec![127; n], &mut got);
        assert_eq!(got[0], 127 * n as i32);
    }

    #[test]
    #[should_panic(expected = "filter width must match")]
    fn i8_precompute_rejects_window_size_mismatch() {
        let filters = bank(4, 8, 1);
        conv_accumulate_all_i8(&filters, &[0; 9], &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "one accumulator per filter")]
    fn gemm_rejects_wrong_accumulator_count() {
        let filters = bank(4, 8, 1);
        let window = ActPlanes::from_codes(2, &[0; 8]);
        conv_accumulate_all(&filters, &window, &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "filter width must match")]
    fn gemm_rejects_window_size_mismatch() {
        let filters = bank(4, 8, 1);
        let window = ActPlanes::from_codes(2, &[0; 9]);
        conv_accumulate_all(&filters, &window, &mut [0; 4]);
    }
}
