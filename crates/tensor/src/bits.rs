//! Bit-packed storage for binary (±1) weights and activation bit-planes.
//!
//! The paper stores binarized weights in on-chip caches where each address
//! holds all `K × K × I` bits of one filter so the whole filter is available
//! in a single clock (paper §III-B1a). [`BinaryFilters`] mirrors that
//! geometry: one packed row per output feature map.
//!
//! Bit convention: bit = 1 encodes weight +1, bit = 0 encodes weight −1
//! (the `Sign` transform of the paper applied to 32-bit float weights).

/// Number of bits per packing word.
pub const WORD_BITS: usize = 64;

/// A fixed-length packed bit vector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// All-zeros (all −1 weights) vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self { len, words: vec![0; len.div_ceil(WORD_BITS)] }
    }

    /// Build from a boolean slice (`true` ⇒ bit 1 ⇒ +1).
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Build from ±1 (or sign of arbitrary) values: `x ≥ 0` packs as 1.
    ///
    /// This is the `Sign` binarization the DFE applies to incoming 32-bit
    /// float weights before caching them (paper §III-B1a).
    pub fn from_signs(values: &[f32]) -> Self {
        let mut v = Self::zeros(values.len());
        for (i, &x) in values.iter().enumerate() {
            if x >= 0.0 {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Write bit `i`. A mask-merge, not a branch on `v`: activation bits
    /// are close to coin flips, and the streaming kernels write one per
    /// plane per arriving element.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words[w] = (self.words[w] & !(1 << b)) | (u64::from(v) << b);
    }

    /// The ±1 value encoded by bit `i`.
    #[inline]
    pub fn sign(&self, i: usize) -> i32 {
        if self.get(i) {
            1
        } else {
            -1
        }
    }

    /// Packed words. Trailing bits beyond `len` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words for bulk rewrites. Callers must
    /// keep trailing bits beyond `len` zero — `count_ones` and the popcount
    /// primitives rely on it.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Population count (number of 1 bits).
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// XNOR-popcount against another vector of the same length: the number of
    /// bit positions where the two vectors agree.
    ///
    /// With both operands encoding ±1 values, the ±1 dot product is
    /// `2 · xnor_popcount − len` — the core BNN primitive (paper §III-B1).
    pub fn xnor_popcount(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "xnor_popcount length mismatch");
        let full_words = self.len / WORD_BITS;
        let mut agree = 0u32;
        for i in 0..full_words {
            agree += (!(self.words[i] ^ other.words[i])).count_ones();
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            agree += ((!(self.words[full_words] ^ other.words[full_words])) & mask).count_ones();
        }
        agree
    }

    /// AND-popcount against another vector: positions where both bits are 1.
    ///
    /// Used for the multi-bit activation planes, where activations are
    /// unsigned `{0,1}` per plane rather than ±1.
    pub fn and_popcount(&self, other: &Self) -> u32 {
        assert_eq!(self.len, other.len, "and_popcount length mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones()).sum()
    }

    /// Bits as an iterator of bools.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Copy `len` bits from `src` starting at bit `src_off` into `self`
    /// starting at bit `dst_off` (shift-based, word-at-a-time).
    ///
    /// This is the window-extraction primitive of the packed conv datapath:
    /// one call moves a whole row of a convolution window between a
    /// plane ring and a packed window, replacing `len` scalar get/set
    /// pairs. Bits outside the target range are untouched, so the
    /// trailing-bits-zero invariant is preserved.
    ///
    /// # Panics
    /// Panics if either range runs past the corresponding vector.
    #[inline]
    pub fn copy_bitrange_from(&mut self, dst_off: usize, src: &Self, src_off: usize, len: usize) {
        assert!(src_off + len <= src.len, "copy_bitrange source overrun");
        assert!(dst_off + len <= self.len, "copy_bitrange destination overrun");
        copy_bitrange(&mut self.words, dst_off, &src.words, src_off, len);
    }

    /// Overwrite the `n ∈ 1..=64` bits starting at bit `off` with the low
    /// `n` bits of `v` (bit `j` of `v` lands at `off + j`), leaving every
    /// other bit untouched — the register-to-plane store of
    /// `PlaneRing::write_codes`, where [`BitVec::copy_bitrange_from`] is the
    /// plane-to-plane one.
    ///
    /// # Panics
    /// Panics if `n` is outside `1..=64`, the span runs past the vector, or
    /// `v` has bits set at or above `n`.
    #[inline]
    pub fn store_bits(&mut self, off: usize, n: usize, v: u64) {
        assert!((1..=WORD_BITS).contains(&n), "store_bits width {n} outside 1..=64");
        assert!(off + n <= self.len, "store_bits overrun");
        assert!(n == WORD_BITS || v >> n == 0, "store_bits value wider than {n} bits");
        set_bits(&mut self.words, off, n, v);
    }

    /// Popcount of the `len`-bit span starting at bit `off`.
    ///
    /// # Panics
    /// Panics if the span runs past the vector.
    #[inline]
    pub fn popcount_range(&self, off: usize, len: usize) -> u32 {
        assert!(off + len <= self.len, "popcount_range overrun");
        popcount_range(&self.words, off, len)
    }
}

/// Read `n ∈ 1..=64` bits of `src` starting at bit `off` into the low bits
/// of a word.
#[inline]
fn get_bits(src: &[u64], off: usize, n: usize) -> u64 {
    debug_assert!((1..=WORD_BITS).contains(&n));
    let (w, b) = (off / WORD_BITS, off % WORD_BITS);
    let mut v = src[w] >> b;
    if b != 0 && b + n > WORD_BITS {
        v |= src[w + 1] << (WORD_BITS - b);
    }
    if n < WORD_BITS {
        v &= (1u64 << n) - 1;
    }
    v
}

/// Write the low `n ∈ 1..=64` bits of `v` into `dst` starting at bit `off`,
/// leaving every other bit untouched. `v`'s bits above `n` must be zero.
#[inline]
fn set_bits(dst: &mut [u64], off: usize, n: usize, v: u64) {
    debug_assert!((1..=WORD_BITS).contains(&n));
    debug_assert!(n == WORD_BITS || v >> n == 0);
    let (w, b) = (off / WORD_BITS, off % WORD_BITS);
    let mask = if n == WORD_BITS { u64::MAX } else { (1u64 << n) - 1 };
    // `mask << b` self-truncates when the span crosses into the next word.
    dst[w] = (dst[w] & !(mask << b)) | (v << b);
    if b + n > WORD_BITS {
        let hi = n - (WORD_BITS - b);
        let hi_mask = (1u64 << hi) - 1;
        dst[w + 1] = (dst[w + 1] & !hi_mask) | (v >> (WORD_BITS - b));
    }
}

/// Copy `len` bits between packed word slices at arbitrary bit offsets —
/// the shift-based span move behind [`BitVec::copy_bitrange_from`].
///
/// Callers must guarantee both spans fit inside their slices (the `BitVec`
/// wrapper asserts this against the logical lengths).
pub fn copy_bitrange(dst: &mut [u64], dst_off: usize, src: &[u64], src_off: usize, len: usize) {
    let mut done = 0;
    while done < len {
        let n = (len - done).min(WORD_BITS);
        let v = get_bits(src, src_off + done, n);
        set_bits(dst, dst_off + done, n, v);
        done += n;
    }
}

/// Popcount of an arbitrary `len`-bit span of a packed word slice — the
/// word-level companion of [`copy_bitrange`] (behind
/// [`BitVec::popcount_range`]).
pub fn popcount_range(words: &[u64], off: usize, len: usize) -> u32 {
    let mut count = 0;
    let mut done = 0;
    while done < len {
        let n = (len - done).min(WORD_BITS);
        count += get_bits(words, off + done, n).count_ones();
        done += n;
    }
    count
}

/// A bank of `O` binary filters, each `K × K × I` bits — the weight cache of
/// one convolution kernel (paper §III-B1a: "each address of the cache stores
/// K × K × I weights and the cache has O entries").
#[derive(Clone, Debug)]
pub struct BinaryFilters {
    bits_per_filter: usize,
    filters: Vec<BitVec>,
}

impl BinaryFilters {
    /// Binarize a float weight bank laid out as `O` rows of `K·K·I` values,
    /// each row in the same depth-first order as the input stream
    /// (ky, kx, c innermost).
    ///
    /// # Panics
    /// Panics if `weights.len()` is not a multiple of `bits_per_filter`.
    pub fn from_float_rows(weights: &[f32], bits_per_filter: usize) -> Self {
        assert!(bits_per_filter > 0);
        assert_eq!(
            weights.len() % bits_per_filter,
            0,
            "weight count {} not a multiple of filter size {}",
            weights.len(),
            bits_per_filter
        );
        let filters = weights.chunks_exact(bits_per_filter).map(BitVec::from_signs).collect();
        Self { bits_per_filter, filters }
    }

    /// Assemble from pre-packed rows.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(filters: Vec<BitVec>) -> Self {
        let bits_per_filter = filters.first().map_or(0, BitVec::len);
        assert!(
            filters.iter().all(|f| f.len() == bits_per_filter),
            "all filters must have equal length"
        );
        Self { bits_per_filter, filters }
    }

    /// Number of filters (`O`, cache entries).
    #[inline]
    pub fn num_filters(&self) -> usize {
        self.filters.len()
    }

    /// Bits per filter (`K·K·I`, cache word width).
    #[inline]
    pub fn bits_per_filter(&self) -> usize {
        self.bits_per_filter
    }

    /// One filter row.
    #[inline]
    pub fn filter(&self, o: usize) -> &BitVec {
        &self.filters[o]
    }

    /// Iterate filters in output-map order.
    pub fn iter(&self) -> impl Iterator<Item = &BitVec> {
        self.filters.iter()
    }

    /// Total storage bits actually occupied (before BRAM shape quantization).
    pub fn storage_bits(&self) -> usize {
        self.bits_per_filter * self.filters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot_reference(a: &[i32], b: &[i32]) -> i32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(65) && !v.get(128));
        assert_eq!(v.count_ones(), 4);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn xnor_popcount_equals_pm1_dot() {
        // ±1 dot product = 2·agreements − n, on a length that is not a
        // multiple of the word size to exercise the tail mask.
        let n = 100;
        let a_sign: Vec<i32> = (0..n).map(|i| if (i * 7) % 3 == 0 { 1 } else { -1 }).collect();
        let b_sign: Vec<i32> = (0..n).map(|i| if (i * 5) % 4 < 2 { 1 } else { -1 }).collect();
        let a = BitVec::from_bools(&a_sign.iter().map(|&s| s > 0).collect::<Vec<_>>());
        let b = BitVec::from_bools(&b_sign.iter().map(|&s| s > 0).collect::<Vec<_>>());
        let dot = 2 * a.xnor_popcount(&b) as i32 - n;
        assert_eq!(dot, dot_reference(&a_sign, &b_sign));
    }

    #[test]
    fn xnor_popcount_ignores_padding_bits() {
        // Trailing word bits beyond len would agree (both zero) and must not
        // be counted.
        let a = BitVec::zeros(3);
        let b = BitVec::zeros(3);
        assert_eq!(a.xnor_popcount(&b), 3);
    }

    #[test]
    fn and_popcount_counts_joint_ones() {
        let a = BitVec::from_bools(&[true, true, false, false, true]);
        let b = BitVec::from_bools(&[true, false, true, false, true]);
        assert_eq!(a.and_popcount(&b), 2);
    }

    #[test]
    fn from_signs_maps_nonnegative_to_plus_one() {
        let v = BitVec::from_signs(&[-0.5, 0.0, 1.5, -2.0]);
        assert_eq!(v.sign(0), -1);
        assert_eq!(v.sign(1), 1); // sign(0) = +1 by convention
        assert_eq!(v.sign(2), 1);
        assert_eq!(v.sign(3), -1);
    }

    #[test]
    fn binary_filters_geometry() {
        // 4 filters of 3·3·2 = 18 bits each.
        let weights: Vec<f32> = (0..72).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let bank = BinaryFilters::from_float_rows(&weights, 18);
        assert_eq!(bank.num_filters(), 4);
        assert_eq!(bank.bits_per_filter(), 18);
        assert_eq!(bank.storage_bits(), 72);
        // Row 0 packs weights [0..18): indices divisible by 3 are +1.
        assert!(bank.filter(0).get(0));
        assert!(!bank.filter(0).get(1));
        assert!(bank.filter(0).get(3));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn filters_reject_ragged_weights() {
        let _ = BinaryFilters::from_float_rows(&[1.0; 10], 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xnor_length_mismatch_panics() {
        let _ = BitVec::zeros(3).xnor_popcount(&BitVec::zeros(4));
    }

    fn patterned(len: usize, seed: u64) -> BitVec {
        BitVec::from_bools(
            &(0..len)
                .map(|i| (i as u64).wrapping_mul(seed).wrapping_add(seed / 3) % 7 < 3)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn copy_bitrange_matches_scalar_copy_across_word_boundaries() {
        let src = patterned(200, 11);
        for (src_off, dst_off, len) in
            [(0, 0, 200), (63, 1, 66), (1, 63, 130), (64, 64, 64), (127, 3, 65), (5, 190, 9)]
        {
            let mut dst = patterned(200, 29);
            let mut expect = dst.clone();
            for i in 0..len {
                expect.set(dst_off + i, src.get(src_off + i));
            }
            dst.copy_bitrange_from(dst_off, &src, src_off, len);
            assert_eq!(dst, expect, "src_off={src_off} dst_off={dst_off} len={len}");
        }
    }

    #[test]
    fn set_is_a_mask_merge_at_word_seams() {
        // Against the branching form it replaced (`|=` / `&= !`), writing
        // both values over both prior values on each side of every seam.
        for i in [0usize, 1, 62, 63, 64, 65, 127, 128, 190, 199] {
            for prior in [false, true] {
                for v in [false, true] {
                    let mut got = patterned(200, 11);
                    got.set(i, prior);
                    let mut expect = got.clone();
                    let (w, b) = (i / WORD_BITS, i % WORD_BITS);
                    if v {
                        expect.words[w] |= 1 << b;
                    } else {
                        expect.words[w] &= !(1 << b);
                    }
                    got.set(i, v);
                    assert_eq!(got, expect, "bit {i}: {prior} -> {v}");
                    assert_eq!(got.get(i), v);
                }
            }
        }
    }

    #[test]
    fn store_bits_matches_a_set_loop_across_word_seams() {
        for (off, n) in [
            (0, 64),
            (0, 1),
            (63, 1),
            (63, 2),
            (1, 64),
            (60, 9),
            (64, 64),
            (130, 64),
            (199, 1),
            (136, 64),
        ] {
            let v = 0xA5C3_96F0_1E87_D24Bu64 >> (WORD_BITS - n);
            let mut got = patterned(200, 29);
            let mut expect = got.clone();
            for j in 0..n {
                expect.set(off + j, (v >> j) & 1 == 1);
            }
            got.store_bits(off, n, v);
            assert_eq!(got, expect, "off={off} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "store_bits overrun")]
    fn store_bits_rejects_overrun() {
        BitVec::zeros(70).store_bits(60, 11, 0);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn store_bits_rejects_stray_high_bits() {
        BitVec::zeros(70).store_bits(0, 3, 0b1000);
    }

    #[test]
    fn copy_bitrange_zero_len_is_identity() {
        let src = patterned(70, 7);
        let mut dst = patterned(70, 13);
        let before = dst.clone();
        dst.copy_bitrange_from(40, &src, 3, 0);
        assert_eq!(dst, before);
    }

    #[test]
    fn popcount_range_matches_scalar_count() {
        let v = patterned(300, 17);
        for (off, len) in [(0, 300), (63, 2), (64, 64), (1, 64), (130, 111), (299, 1), (10, 0)] {
            let expect = (0..len).filter(|&i| v.get(off + i)).count() as u32;
            assert_eq!(v.popcount_range(off, len), expect, "off={off} len={len}");
        }
    }

    #[test]
    #[should_panic(expected = "destination overrun")]
    fn copy_bitrange_rejects_destination_overrun() {
        let src = BitVec::zeros(100);
        let mut dst = BitVec::zeros(50);
        dst.copy_bitrange_from(40, &src, 0, 20);
    }

    #[test]
    #[should_panic(expected = "source overrun")]
    fn copy_bitrange_rejects_source_overrun() {
        let src = BitVec::zeros(30);
        let mut dst = BitVec::zeros(100);
        dst.copy_bitrange_from(0, &src, 20, 20);
    }

    #[test]
    #[should_panic(expected = "popcount_range overrun")]
    fn popcount_range_rejects_overrun() {
        let _ = BitVec::zeros(64).popcount_range(60, 5);
    }
}
