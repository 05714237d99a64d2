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
//!
//! The first layer's pixels are signed bytes, not codes, and run their own
//! GEMM ([`conv_accumulate_i8_lanes`]) over a tap-major mask layout
//! ([`I8Masks`]): each tap's pixel is added into 64 filter lanes side by
//! side, FINN-R's matrix–vector unit. Against the filter-major layout it
//! replaced (eight lanes per filter, folded to one number per filter per
//! window), a standalone timing loop at the `x86-64-v3` codegen floor on a
//! 2-vCPU Intel Xeon VM timed the GEMM alone at 7.1 → 1.9 ms per ResNet-18
//! image (147 taps, 64 filters) and 10.2 → 1.5 ms per 40-image VGG stream
//! (27 taps, 64 filters).

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
/// select masks of [`conv_accumulate_all_i8`]. Built at compile time.
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

/// Filters per wide block of the tap-major i8 kernel: a `[u16; 64]`
/// accumulator is four 256-bit vector registers.
const I8_BLOCK: usize = 64;

/// Filters per narrow group: the filters past a bank's last whole block,
/// and every filter of a bank narrower than one block.
const I8_GROUP: usize = 16;

/// Taps summed in `u16` lanes between folds to `u32`: a lane adds at most
/// 255 per tap, and `256 · 255 < 65 536`.
const I8_FOLD: usize = 256;

/// A filter bank as `u16` select masks for the first-layer (i8 pixel)
/// kernel ([`conv_accumulate_i8_lanes`]), tap-major: the bank splits into
/// blocks — whole blocks of 64 filters, then 16-lane groups for the rest,
/// the last group padded with zero lanes — and each block holds, per tap,
/// one lane per filter, `0xFFFF` where that filter's weight bit of the tap
/// is set. Also each filter's set-bit count. Built once per installed
/// bank.
#[derive(Clone, Debug)]
pub struct I8Masks {
    taps: usize,
    /// Filters in whole 64-wide blocks; the rest run in 16-lane groups.
    wide: usize,
    masks: Vec<u16>,
    ones: Vec<i32>,
}

impl I8Masks {
    /// The masks of every filter of `filters`.
    pub fn new(filters: &BinaryFilters) -> Self {
        let (taps, nf) = (filters.bits_per_filter(), filters.num_filters());
        let wide = nf / I8_BLOCK * I8_BLOCK;
        let lanes = wide + (nf - wide).next_multiple_of(I8_GROUP);
        let mut masks = Vec::with_capacity(taps * lanes);
        let blocks = (0..wide).step_by(I8_BLOCK).map(|o| (o, I8_BLOCK));
        let groups = (wide..nf).step_by(I8_GROUP).map(|o| (o, I8_GROUP));
        for (first, width) in blocks.chain(groups) {
            for t in 0..taps {
                masks.extend((first..first + width).map(|o| {
                    if o < nf && filters.filter(o).get(t) {
                        0xFFFF
                    } else {
                        0
                    }
                }));
            }
        }
        let ones = filters.iter().map(|f| f.count_ones() as i32).collect();
        Self { taps, wide, masks, ones }
    }
}

/// The eight lane masks of byte `b` of a word of filter bits.
fn lane_masks_of(word: u64, b: usize) -> &'static [u16; 8] {
    &LANE_MASKS[(word >> (8 * b) & 0xFF) as usize]
}

/// One filter's accumulator over one window for [`conv_accumulate_all_i8`]:
/// `lanes` holds the window's pixels offset to unsigned, eight to a row,
/// and `lane & mask` adds up in eight `u16` lanes side by side — the masks
/// of row `8c + b` are byte `b` of word `c` of the filter's bits — folded
/// every 32 words (256 taps a lane) and once more at the end.
fn i8_acc(lanes: &[u16], words: &[u64], ones: i32, total: i32) -> i32 {
    fn add(part: &mut [u16; 8], m: &[u16; 8], l: &[u16]) {
        for k in 0..8 {
            part[k] = part[k].wrapping_add(m[k] & l[k]);
        }
    }
    let fold = |part: [u16; 8]| part.iter().map(|&p| u32::from(p)).sum::<u32>();
    let (mut s1u, mut part) = (0u32, [0u16; 8]);
    // Whole words of rows, then the rows past the last whole word.
    let (whole, tail) = lanes.split_at(lanes.len() / 64 * 64);
    for (c, word) in whole.chunks_exact(64).enumerate() {
        for (b, l) in word.chunks_exact(8).enumerate() {
            add(&mut part, lane_masks_of(words[c], b), l);
        }
        if c % 32 == 31 {
            s1u += fold(std::mem::take(&mut part));
        }
    }
    for (b, l) in tail.chunks_exact(8).enumerate() {
        add(&mut part, lane_masks_of(words[whole.len() / 64], b), l);
    }
    2 * ((s1u + fold(part)) as i32 - 128 * ones) - total
}

/// `S₁ᵤ` of each filter of one 64-filter block: `Σⱼ mask[j][f] & lanes[j]`
/// per filter `f`, over the block's tap-major `masks`. Each tap's lane is
/// broadcast against the tap's 64 filter masks and added into 64 `u16`
/// lanes side by side, folded to `u32` every [`I8_FOLD`] taps so no lane
/// wraps.
fn block_sums(masks: &[u16], lanes: &[u16]) -> [u32; I8_BLOCK] {
    let mut sums = [0u32; I8_BLOCK];
    for (masks, lanes) in masks.chunks(I8_FOLD * I8_BLOCK).zip(lanes.chunks(I8_FOLD)) {
        let mut part = [0u16; I8_BLOCK];
        for (row, &lane) in masks.chunks_exact(I8_BLOCK).zip(lanes) {
            for (p, &m) in part.iter_mut().zip(row) {
                *p = p.wrapping_add(m & lane);
            }
        }
        for (s, &p) in sums.iter_mut().zip(&part) {
            *s += u32::from(p);
        }
    }
    sums
}

/// [`block_sums`] of one 16-filter group. The group's 16 `u16` lanes sit
/// four to a `u64` word, and one `u64` add of `masks & lane` adds four
/// lanes at once: no lane exceeds 65 535 between folds, so no carry
/// crosses into the next lane. Written as 16 `u16` lanes like
/// [`block_sums`], a row this narrow unrolls into 16 separate sums that
/// the compiler then vectorizes across taps, with a gather per row — 3–4×
/// slower than this form.
fn group_sums(masks: &[u16], lanes: &[u16]) -> [u32; I8_GROUP] {
    let mut sums = [0u32; I8_GROUP];
    for (masks, lanes) in masks.chunks(I8_FOLD * I8_GROUP).zip(lanes.chunks(I8_FOLD)) {
        let mut part = [0u64; I8_GROUP / 4];
        for (row, &lane) in masks.chunks_exact(I8_GROUP).zip(lanes) {
            let lane = u64::from(lane) * 0x0001_0001_0001_0001;
            for (p, m) in part.iter_mut().zip(row.chunks_exact(4)) {
                let m = u64::from(m[0])
                    | u64::from(m[1]) << 16
                    | u64::from(m[2]) << 32
                    | u64::from(m[3]) << 48;
                *p += m & lane;
            }
        }
        for (f, s) in sums.iter_mut().enumerate() {
            *s += (part[f / 4] >> (16 * (f % 4)) & 0xFFFF) as u32;
        }
    }
    sums
}

/// First-layer (i8 pixel) counterpart of [`conv_accumulate_all`]:
/// `acc[o] = dot_i8(filters.filter(o), pixels)` for all `o`, one filter at
/// a time. It uses the identity of [`conv_accumulate_i8_lanes`] (see
/// there) but builds nothing ahead: a filter's masks of byte `b` of its
/// weight bits are eight lanes read from a 256-entry table, summed
/// filter-major in eight `u16` lanes that fold to one number per filter
/// per window.
///
/// The conv kernel does not call this: it runs
/// [`conv_accumulate_i8_lanes`] over tap-major masks built once per bank.
/// So the benchmark's `quant.gemm_i8_ms_per_img`, which times this per-call
/// path, does not move with the kernel's GEMM, while
/// `kernels.conv_iso_ms_per_img`, which times the kernel, does.
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
        *a = i8_acc(&lanes, words, ones, total);
    }
}

/// [`conv_accumulate_all_i8`] over masks built once and one window of
/// pixels offset to unsigned, `lanes[j] = pixelⱼ + 128`, one lane per tap.
///
/// A ±1 dot over signed pixels is `2·S₁ − T`, where `T = Σ pixelⱼ` is
/// filter-independent (computed once per window) and `S₁ = Σ_{wⱼ=1}
/// pixelⱼ = S₁ᵤ − 128·ones`, so `acc = 2·(S₁ᵤ − 128·ones) − T`. `S₁ᵤ` is
/// a masked sum, run tap-major a block of filters at a time: each tap's
/// lane is added, through each filter's mask, into 64 filter lanes side by
/// side (16 for the groups past the last whole block), so no filter pays a
/// horizontal fold per window. Every step is exact integer arithmetic, so
/// the values are bit-identical to the per-filter
/// [`dot_i8`](crate::dot::dot_i8) the reference interpreter uses.
///
/// # Panics
/// Panics if `acc` does not hold one accumulator per filter or `lanes`
/// one lane per tap.
pub fn conv_accumulate_i8_lanes(masks: &I8Masks, lanes: &[u16], acc: &mut [i32]) {
    assert_eq!(acc.len(), masks.ones.len(), "one accumulator per filter");
    assert_eq!(lanes.len(), masks.taps, "one lane per tap");
    let sum: u32 = lanes.iter().map(|&l| u32::from(l)).sum();
    let total = sum as i32 - 128 * masks.taps as i32;
    let finish = |acc: &mut [i32], ones: &[i32], sums: &[u32]| {
        for ((a, &ones), &s1u) in acc.iter_mut().zip(ones).zip(sums) {
            *a = 2 * (s1u as i32 - 128 * ones) - total;
        }
    };
    let (wide, taps) = (masks.wide, masks.taps);
    let (block_masks, group_masks) = masks.masks.split_at(wide * taps);
    let (block_acc, group_acc) = acc.split_at_mut(wide);
    let (block_ones, group_ones) = masks.ones.split_at(wide);
    let blocks = block_acc.chunks_exact_mut(I8_BLOCK).zip(block_ones.chunks_exact(I8_BLOCK));
    for ((acc, ones), m) in blocks.zip(block_masks.chunks_exact(I8_BLOCK * taps)) {
        finish(acc, ones, &block_sums(m, lanes));
    }
    let groups = group_acc.chunks_mut(I8_GROUP).zip(group_ones.chunks(I8_GROUP));
    for ((acc, ones), m) in groups.zip(group_masks.chunks_exact(I8_GROUP * taps)) {
        finish(acc, ones, &group_sums(m, lanes));
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

    /// The kernel's path: masks built once, the window as lanes.
    fn i8_lanes_acc(filters: &BinaryFilters, pixels: &[i8]) -> Vec<i32> {
        let masks = I8Masks::new(filters);
        let lanes: Vec<u16> = pixels.iter().map(|&p| (i32::from(p) + 128) as u16).collect();
        let mut acc = vec![0; filters.num_filters()];
        conv_accumulate_i8_lanes(&masks, &lanes, &mut acc);
        acc
    }

    #[test]
    fn i8_precompute_matches_per_filter_dot() {
        // Widths across byte, lane-row, word and fold (256-tap) boundaries
        // and past one per-call lane block (4 096 taps); filter counts
        // across 16-lane groups and 64-filter blocks, a block with a tail
        // group included; extreme pixel values included.
        let widths =
            [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 147, 255, 256, 257, 363, 512, 513, 4100];
        let counts = [1usize, 5, 6, 8, 15, 16, 17, 63, 64, 65, 80, 130];
        for &n in &widths {
            for &o in &counts {
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
                let again = i8_lanes_acc(&filters, &pixels);
                for (idx, &a) in got.iter().enumerate() {
                    let expect = dot_i8(filters.filter(idx), &pixels);
                    assert_eq!(a, expect, "o={o} n={n} filter {idx}");
                    assert_eq!(again[idx], expect, "lanes: o={o} n={n} filter {idx}");
                }
            }
        }
        // Every weight set and every pixel at the top of its range: the
        // widest lane sums there are — per call at 4 100 taps, and in a
        // block and its one-filter tail group at 513 taps, two whole folds
        // and one tap past them.
        let n = 4100;
        let filters = BinaryFilters::from_float_rows(&vec![1.0; n], n);
        let mut got = [0];
        conv_accumulate_all_i8(&filters, &vec![127; n], &mut got);
        assert_eq!(got[0], 127 * n as i32);
        let (o, n) = (65, 513);
        let filters = BinaryFilters::from_float_rows(&vec![1.0; o * n], n);
        assert_eq!(i8_lanes_acc(&filters, &vec![127; n]), vec![127 * n as i32; o]);
    }

    #[test]
    #[should_panic(expected = "one lane per tap")]
    fn i8_lanes_reject_a_padded_window() {
        let masks = I8Masks::new(&bank(4, 9, 1));
        conv_accumulate_i8_lanes(&masks, &[128; 16], &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "filter width must match")]
    fn i8_precompute_rejects_window_size_mismatch() {
        let filters = bank(4, 8, 1);
        conv_accumulate_all_i8(&filters, &[0; 9], &mut [0; 4]);
    }

    /// The codegen floor's witness. `.cargo/config.toml` builds x86-64 at
    /// `target-cpu=x86-64-v3`, so each `count_ones` in the GEMM above is one
    /// `popcnt`; without it the same source compiles to a bit-twiddling
    /// sequence that costs about a quarter of a ResNet-18 image. A build
    /// that lost or never read the config fails here. `ci.sh`'s portable
    /// pass builds with the floor off and skips exactly this test.
    #[test]
    fn codegen_floor_witness() {
        let floor = [
            ("popcnt", cfg!(target_feature = "popcnt")),
            ("avx2", cfg!(target_feature = "avx2")),
        ];
        let missing: Vec<&str> =
            floor.iter().filter(|(_, on)| !on).map(|(name, _)| *name).collect();
        if cfg!(target_arch = "x86_64") {
            assert!(missing.is_empty(), "built below the x86-64-v3 codegen floor: no {missing:?}");
        }
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
