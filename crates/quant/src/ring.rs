//! Pack-on-arrival plane rings for the streaming convolution window.
//!
//! A scalar conv datapath keeps the depth-first window buffer as a
//! `Vec<i32>` ring and re-packs all `K·K·I` codes into bit planes at every
//! latched output position. [`PlaneRing`] moves the packing to the *input*
//! side: each arriving n-bit activation code costs O(n) bit writes into n
//! packed ring planes — or, when a whole run of codes arrives in one span
//! dispatch, one masked word store per plane per 64 codes
//! ([`PlaneRing::write_codes`]) — and a window latch becomes `K` contiguous
//! bit-span copies per plane ([`qnn_tensor::BitVec::copy_bitrange_from`])
//! instead of `K·K·I` scalar loads plus a repack — the word-parallel
//! structure of the paper's Fig. 3 datapath (and of FINN-R's bit-serial
//! matrix multiply).
//!
//! Codes are never stored unpacked, so the ring also models the hardware
//! more faithfully: the Fig. 4a shift-register buffer holds exactly the
//! quantized wire bits.

use crate::planes::ActPlanes;
use qnn_tensor::bits::WORD_BITS;
use qnn_tensor::BitVec;

/// A ring of `n` packed bit planes over `capacity` slots — the depth-first
/// window buffer of one convolution kernel, stored quantized.
///
/// Slot `s` holds the activation code whose stream index `idx` satisfies
/// `idx % capacity == s`, exactly mirroring the scalar `Vec<i32>` ring it
/// replaces; the two layouts are interchangeable element-for-element, which
/// is what the scalar-vs-packed differential suite checks end to end.
#[derive(Clone, Debug)]
pub struct PlaneRing {
    planes: Vec<BitVec>,
    capacity: usize,
}

impl PlaneRing {
    /// A ring of `bits` planes over `capacity` slots, all zero.
    pub fn new(bits: u32, capacity: usize) -> Self {
        assert!((1..=8).contains(&bits), "activation bits must be in 1..=8");
        assert!(capacity > 0, "plane ring needs at least one slot");
        Self {
            planes: (0..bits).map(|_| BitVec::zeros(capacity)).collect(),
            capacity,
        }
    }

    /// Number of planes (activation bits).
    #[inline]
    pub fn bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// Slots per plane.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store `code` in slot `slot`, overwriting whatever was there — the
    /// O(bits) per-input-tick write. Bits of `code` above [`Self::bits`]
    /// are ignored, matching [`ActPlanes::pack`].
    #[inline]
    pub fn set(&mut self, slot: usize, code: u8) {
        debug_assert!(slot < self.capacity);
        for (p, plane) in self.planes.iter_mut().enumerate() {
            plane.set(slot, (code >> p) & 1 == 1);
        }
    }

    /// Store a run of arriving stream elements in consecutive slots from
    /// `slot` on, wrapping at the ring seam: element `j` lands where
    /// `set((slot + j) % capacity, codes[j] as u8)` would put it (a run
    /// longer than the ring overwrites its own head, as the `set` loop
    /// would). Each plane's bits are assembled in a register, up to a word
    /// at a time, and land with one masked store — no branch on the data
    /// and no read-modify-write per element.
    pub fn write_codes(&mut self, slot: usize, mut codes: &[i32]) {
        assert!(slot < self.capacity, "slot {slot} outside the ring");
        let mut at = slot;
        while !codes.is_empty() {
            // Up to the next word boundary of the planes, or the seam.
            let n = (WORD_BITS - at % WORD_BITS)
                .min(self.capacity - at)
                .min(codes.len());
            let (chunk, rest) = codes.split_at(n);
            for (p, plane) in self.planes.iter_mut().enumerate() {
                let mut word = 0u64;
                for (j, &code) in chunk.iter().enumerate() {
                    word |= u64::from((code >> p) & 1 != 0) << j;
                }
                plane.store_bits(at, n, word);
            }
            codes = rest;
            at += n;
            if at == self.capacity {
                at = 0;
            }
        }
    }

    /// Read back the code at `slot` (tests and debugging).
    pub fn code(&self, slot: usize) -> u8 {
        self.planes
            .iter()
            .enumerate()
            .map(|(p, plane)| u8::from(plane.get(slot)) << p)
            .sum()
    }

    /// Latch a convolution window into `out`: `rows` spans of `row_len`
    /// slots, row `r` starting at ring slot `(start + r·row_stride) %
    /// capacity` (wrap-aware), written contiguously into `out`'s planes
    /// with per-plane popcounts refreshed.
    ///
    /// For a `K×K×I` window over a `W`-wide input this is `start =
    /// (ty·W + tx)·I`, `rows = K`, `row_len = K·I`, `row_stride = W·I` —
    /// `K` span copies per plane in place of a scalar ring's
    /// `K·K·I`-element gather-and-repack.
    ///
    /// # Panics
    /// Panics if `out`'s plane count differs from the ring's, if
    /// `rows·row_len` differs from `out.len()`, or if `row_len` exceeds
    /// the ring capacity.
    pub fn extract_window(
        &self,
        start: usize,
        rows: usize,
        row_len: usize,
        row_stride: usize,
        out: &mut ActPlanes,
    ) {
        assert_eq!(out.bits(), self.bits(), "plane count mismatch");
        assert_eq!(rows * row_len, out.len(), "window size mismatch");
        assert!(row_len <= self.capacity, "window row exceeds ring capacity");
        let (planes, ones) = out.parts_mut();
        for r in 0..rows {
            let src = (start + r * row_stride) % self.capacity;
            let dst = r * row_len;
            let first = row_len.min(self.capacity - src);
            for (ring_plane, window_plane) in self.planes.iter().zip(planes.iter_mut()) {
                window_plane.copy_bitrange_from(dst, ring_plane, src, first);
                if first < row_len {
                    // The span wraps: finish from the ring's slot 0.
                    window_plane.copy_bitrange_from(dst + first, ring_plane, 0, row_len - first);
                }
            }
        }
        for (plane, ones) in planes.iter().zip(ones.iter_mut()) {
            *ones = plane.count_ones() as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar mirror of the ring: write codes by stream index, gather a
    /// window the way a scalar ring does.
    fn scalar_window(
        codes_by_index: &[u8],
        start: usize,
        rows: usize,
        row_len: usize,
        row_stride: usize,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(rows * row_len);
        for r in 0..rows {
            for j in 0..row_len {
                out.push(codes_by_index[start + r * row_stride + j]);
            }
        }
        out
    }

    #[test]
    fn set_then_code_roundtrips_and_masks_high_bits() {
        let mut ring = PlaneRing::new(2, 10);
        ring.set(3, 2);
        ring.set(9, 7); // bit 2 dropped: only planes 0 and 1 exist
        assert_eq!(ring.code(3), 2);
        assert_eq!(ring.code(9), 3);
        ring.set(3, 0); // overwrite clears both planes
        assert_eq!(ring.code(3), 0);
    }

    #[test]
    fn extract_window_matches_scalar_gather_without_wrap() {
        let cap = 64;
        let codes: Vec<u8> = (0..cap).map(|i| ((i * 5 + 1) % 4) as u8).collect();
        let mut ring = PlaneRing::new(2, cap);
        for (s, &q) in codes.iter().enumerate() {
            ring.set(s, q);
        }
        // 3 rows of 6 slots, stride 12, starting at slot 2.
        let mut window = ActPlanes::new(2, 18);
        ring.extract_window(2, 3, 6, 12, &mut window);
        let expect = scalar_window(&codes, 2, 3, 6, 12);
        for (i, &q) in expect.iter().enumerate() {
            assert_eq!(window.code(i), q, "element {i}");
        }
        for p in 0..2 {
            assert_eq!(
                window.plane_ones(p),
                expect.iter().filter(|&&q| (q >> p) & 1 == 1).count() as i32
            );
        }
    }

    #[test]
    fn extract_window_wraps_rows_across_the_ring_seam() {
        // Stream longer than the ring: later indices overwrite slot idx%cap,
        // and window rows that straddle the seam come out in stream order.
        let cap = 20;
        let total = 70;
        let codes: Vec<u8> = (0..total).map(|i| ((i * 3 + 2) % 4) as u8).collect();
        let mut ring = PlaneRing::new(2, cap);
        for (idx, &q) in codes.iter().enumerate() {
            ring.set(idx % cap, q);
        }
        // Window rows over stream indices 56..63 and 63..70: both live (no
        // later write overwrote their slots) and the first crosses slot 0.
        let (start, rows, row_len, row_stride) = (56usize, 2usize, 7usize, 7usize);
        let mut window = ActPlanes::new(2, rows * row_len);
        ring.extract_window(start % cap, rows, row_len, row_stride, &mut window);
        let expect = scalar_window(&codes, start, rows, row_len, row_stride);
        for (i, &q) in expect.iter().enumerate() {
            assert_eq!(window.code(i), q, "element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "window size mismatch")]
    fn extract_window_rejects_size_mismatch() {
        let ring = PlaneRing::new(2, 16);
        let mut window = ActPlanes::new(2, 9);
        ring.extract_window(0, 2, 4, 8, &mut window);
    }

    #[test]
    #[should_panic(expected = "plane count mismatch")]
    fn extract_window_rejects_plane_mismatch() {
        let ring = PlaneRing::new(2, 16);
        let mut window = ActPlanes::new(1, 8);
        ring.extract_window(0, 2, 4, 8, &mut window);
    }
}
