//! Blocked accumulator precompute: all `O` filter accumulators of one
//! latched convolution window in a single weights-stationary pass.
//!
//! The emit loop of the streaming conv kernel produces one filter result
//! per modeled clock (paper §III-B1: one weight-cache address per cycle).
//! The scalar datapath re-walks the packed window once *per emit tick*;
//! here the whole `O × (K·K·I)` bit-GEMM runs once at latch time, register-
//! blocked over filters so each window word is loaded once per
//! [`FILTER_BLOCK`] filters, and the filter rows — the big operand, the
//! paper's weight cache — stream through exactly once. Each emit tick then
//! pops a precomputed accumulator.
//!
//! Per filter the arithmetic is *identical* to [`ActPlanes::dot`]
//! (AND-popcount per plane, `(2·agree − ones) << p`, planes summed in
//! ascending order), so accumulators — and therefore outputs and modeled
//! cycle counts — are bit-identical to the scalar datapath. That identity
//! is enforced by unit tests here, the kernel-level differential property
//! suite, and the golden vectors.

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

/// Expand 8 filter bits into 8 byte lanes of `0xFF`/`0x00` — the select
/// mask of the SWAR first-layer kernel. Built at compile time.
const fn byte_masks() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut m = 0u64;
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                m |= 0xFF << (8 * j);
            }
            j += 1;
        }
        table[b] = m;
        b += 1;
    }
    table
}
const BYTE_MASKS: [u64; 256] = byte_masks();

/// First-layer (i8 pixel) counterpart: `acc[o] = dot_i8(filters.filter(o),
/// pixels)` for all `o`.
///
/// A ±1 dot over signed pixels is `2·S₁ − T`, where `T = Σ pxⱼ` is
/// filter-independent (computed once per window) and `S₁ = Σ_{wⱼ=1} pxⱼ`
/// is a masked byte sum: pixels are offset to unsigned bytes once, then
/// each 8-bit filter chunk selects its 8 pixel bytes via a mask table and
/// a SWAR horizontal add folds them — ~8 ops per 8 pixels against
/// [`dot_i8`]'s ~5 per pixel. Every step is exact integer arithmetic
/// (`S₁ = S₁ᵤ − 128·popcount(w)`, no lane can overflow), so the values are
/// bit-identical to the scalar datapath's per-emit-tick [`dot_i8`].
///
/// # Panics
/// Panics if `acc.len() != filters.num_filters()` or the filter width
/// differs from the pixel count.
pub fn conv_accumulate_all_i8(filters: &BinaryFilters, pixels: &[i8], acc: &mut [i32]) {
    conv_accumulate_all_i8_into(filters, pixels, &mut Vec::new(), acc);
}

/// [`conv_accumulate_all_i8`] with the packed-pixel words built in a
/// caller-owned scratch (contents ignored on entry), so a kernel latching
/// thousands of windows per image allocates it once.
pub fn conv_accumulate_all_i8_into(
    filters: &BinaryFilters,
    pixels: &[i8],
    px: &mut Vec<u64>,
    acc: &mut [i32],
) {
    assert_eq!(acc.len(), filters.num_filters(), "one accumulator per filter");
    assert_eq!(
        filters.bits_per_filter(),
        pixels.len(),
        "filter width must match the window"
    );
    let n = pixels.len();
    // Pixels offset by +128 into unsigned byte lanes, 8 per word, in the
    // same element order as the filter bits; padding bytes stay zero and
    // are never selected (trailing filter bits are zero by invariant).
    px.clear();
    px.resize(n.div_ceil(8), 0);
    for (i, &p) in pixels.iter().enumerate() {
        px[i / 8] |= ((p as i32 + 128) as u64) << (8 * (i % 8));
    }
    let total: i32 = pixels.iter().map(|&p| i32::from(p)).sum();
    const LANES: u64 = 0x00FF_00FF_00FF_00FF;
    for (o, a) in acc.iter_mut().enumerate() {
        let row = filters.filter(o).words();
        let mut s1u = 0u32; // Σ over set filter bits of (px + 128)
        let mut ones = 0u32;
        for (c, &w) in row.iter().enumerate() {
            ones += w.count_ones();
            let mut wb = w;
            for &chunk in px[c * 8..].iter().take(8) {
                let sel = chunk & BYTE_MASKS[(wb & 0xFF) as usize];
                wb >>= 8;
                // Bytes → u16 lanes → one u16 horizontal sum (≤ 8·255).
                let pair = (sel & LANES) + ((sel >> 8) & LANES);
                s1u += (pair.wrapping_mul(0x0001_0001_0001_0001) >> 48) as u32;
            }
        }
        *a = 2 * (s1u as i32 - 128 * ones as i32) - total;
    }
}

/// Scalar-reference mirror of [`conv_accumulate_all`] for tests and the
/// `kernels_micro` bench: the per-emit-tick loop the packed datapath
/// replaces, one full window dot per filter.
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
        // Widths across byte and word boundaries (the SWAR path selects
        // 8 pixels per mask lookup), extreme pixel values included.
        for &n in &[1usize, 7, 8, 9, 63, 64, 65, 147, 363] {
            for &o in &[1usize, 5, 6] {
                let filters = bank(o, n, (3 * o + n) as u64);
                let pixels: Vec<i8> = (0..n)
                    .map(|i| match i % 5 {
                        0 => 127,
                        1 => -127,
                        _ => ((i as i32 * 37) % 255 - 127) as i8,
                    })
                    .collect();
                let mut got = vec![0; o];
                conv_accumulate_all_i8(&filters, &pixels, &mut got);
                for (idx, &a) in got.iter().enumerate() {
                    assert_eq!(
                        a,
                        dot_i8(filters.filter(idx), &pixels),
                        "o={o} n={n} filter {idx}"
                    );
                }
            }
        }
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
