//! Streaming attention kernels: per-head fan-out, the attention head
//! itself (QKᵀ → threshold-softmax → AV), head concatenation, and integer
//! LayerNorm.
//!
//! An encoder block lowers to a *branching* kernel subgraph: the projected
//! Q/K/V token streams fan out across [`HeadSplitKernel`]s into one
//! [`AttentionHeadKernel`] per head, which rejoin at a [`ConcatKernel`]
//! before the output projection; [`LayerNormKernel`] normalizes the
//! post-residual accumulator stream back into activation codes.
//!
//! All four kernels keep the scalar one-element-per-clock stream contract,
//! so they compose with the conv/pool/elemwise kernels unchanged. None of
//! them overrides [`Kernel::span_hint`] or [`Kernel::replay_token`]: the
//! attention head gathers a whole `seq_len × head_dim` tile before it can
//! emit anything, so its port behaviour is phase-dependent in a way no
//! span promise has been written for yet, and the whole family vetoes both
//! span dispatch and schedule replay rather than promise contracts it
//! cannot keep. Transformer graphs
//! therefore always run with live planning; CNN graphs are unaffected.
//!
//! The numeric core lives in `qnn_quant::attention` and is shared verbatim
//! with the reference interpreter, which is what makes the streaming and
//! reference paths bit-identical by construction.

use dfe_platform::{Io, Kernel, Progress, WakeHint};
use qnn_quant::{head_attention, layernorm_codes};

/// Routes a channel-innermost projected token stream onto one output port
/// per head: channel `c` of each token goes to port `c / head_dim`.
///
/// The inverse of [`ConcatKernel`]. One element per cycle; only the
/// destination port of the *current* channel needs room, so a slow head
/// back-pressures the split exactly at its own slice boundary.
pub struct HeadSplitKernel {
    name: String,
    heads: usize,
    head_dim: usize,
    channel: usize,
}

impl HeadSplitKernel {
    /// Create a head splitter for `heads` ports of `head_dim` channels.
    pub fn new(name: impl Into<String>, heads: usize, head_dim: usize) -> Self {
        assert!(heads >= 1 && head_dim >= 1, "head split needs heads, head_dim >= 1");
        Self { name: name.into(), heads, head_dim, channel: 0 }
    }
}

impl Kernel for HeadSplitKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        let port = self.channel / self.head_dim;
        if io.can_read(0) && io.can_write(port) {
            let v = io.read(0).expect("checked");
            io.write(port, v);
            self.channel += 1;
            if self.channel == self.heads * self.head_dim {
                self.channel = 0;
            }
            Progress::Busy
        } else if io.can_read(0) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Back to channel 0.
    fn rearm(&mut self) {
        self.channel = 0;
    }

    /// Port-inert when blocked: the channel counter only advances on a
    /// completed move, so a non-`Busy` tick is a fixed point.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

/// One attention head: gathers the head's `seq_len × head_dim` Q, K and V
/// code tiles from three input ports, runs the integer
/// QKᵀ → threshold-softmax → AV pipeline, then emits the `seq_len ×
/// head_dim` output tile in token-major order.
///
/// Gather and emit are mutually exclusive phases: while the pending output
/// drains, no input is absorbed (the next sequence's codes simply wait in
/// the upstream FIFOs). Each input port fills independently, so skewed
/// arrival — e.g. V delayed behind Q — costs buffering, not correctness.
pub struct AttentionHeadKernel {
    name: String,
    act_bits: u32,
    seq_len: usize,
    head_dim: usize,
    q: Vec<u8>,
    k: Vec<u8>,
    v: Vec<u8>,
    pending: Vec<u8>,
    emitted: usize,
}

impl AttentionHeadKernel {
    /// Create a head over `seq_len` tokens of `head_dim` codes at
    /// `act_bits` activation precision.
    pub fn new(name: impl Into<String>, act_bits: u32, seq_len: usize, head_dim: usize) -> Self {
        assert!(seq_len >= 1 && head_dim >= 1, "attention head needs seq_len, head_dim >= 1");
        let tile = seq_len * head_dim;
        Self {
            name: name.into(),
            act_bits,
            seq_len,
            head_dim,
            q: Vec::with_capacity(tile),
            k: Vec::with_capacity(tile),
            v: Vec::with_capacity(tile),
            pending: Vec::new(),
            emitted: 0,
        }
    }

    fn tile(&self) -> usize {
        self.seq_len * self.head_dim
    }
}

impl Kernel for AttentionHeadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        // Emit phase: drain the computed tile before touching the inputs.
        if !self.pending.is_empty() {
            if io.can_write(0) {
                let v = self.pending[self.emitted];
                io.write(0, i32::from(v));
                self.emitted += 1;
                if self.emitted == self.pending.len() {
                    self.pending.clear();
                    self.emitted = 0;
                }
                return Progress::Busy;
            }
            return Progress::Stalled;
        }
        // Gather phase: absorb at most one element per port per cycle.
        let tile = self.tile();
        let mut moved = false;
        let mut waiting = false;
        for (port, buf) in [(0usize, &mut self.q), (1, &mut self.k), (2, &mut self.v)] {
            if buf.len() < tile && io.can_read(port) {
                let raw = io.read(port).expect("checked");
                let code = u8::try_from(raw).expect("activation code fits u8");
                buf.push(code);
                moved = true;
            } else if io.can_read(port) {
                waiting = true;
            }
        }
        if self.q.len() == tile && self.k.len() == tile && self.v.len() == tile {
            self.pending = head_attention(self.act_bits, self.head_dim, &self.q, &self.k, &self.v);
            self.q.clear();
            self.k.clear();
            self.v.clear();
        }
        if moved {
            Progress::Busy
        } else if waiting {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Empty tiles, nothing pending.
    fn rearm(&mut self) {
        self.q.clear();
        self.k.clear();
        self.v.clear();
        self.pending.clear();
        self.emitted = 0;
    }

    /// Both phases only act on a stream event (new input while gathering,
    /// output space while emitting), so a non-`Busy` tick is a fixed
    /// point. A full-but-unread port cannot occur: buffers only stay full
    /// for the single tick in which the compute fires and clears them.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

/// Concatenates per-head output tiles back into a channel-innermost token
/// stream: for each token, `head_dim` elements from port 0, then port 1,
/// and so on — the inverse of [`HeadSplitKernel`].
pub struct ConcatKernel {
    name: String,
    heads: usize,
    head_dim: usize,
    head: usize,
    idx: usize,
}

impl ConcatKernel {
    /// Create a concatenator over `heads` ports of `head_dim` channels.
    pub fn new(name: impl Into<String>, heads: usize, head_dim: usize) -> Self {
        assert!(heads >= 1 && head_dim >= 1, "concat needs heads, head_dim >= 1");
        Self { name: name.into(), heads, head_dim, head: 0, idx: 0 }
    }
}

impl Kernel for ConcatKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if io.can_read(self.head) && io.can_write(0) {
            let v = io.read(self.head).expect("checked");
            io.write(0, v);
            self.idx += 1;
            if self.idx == self.head_dim {
                self.idx = 0;
                self.head += 1;
                if self.head == self.heads {
                    self.head = 0;
                }
            }
            Progress::Busy
        } else if (0..self.heads).any(|p| io.can_read(p)) {
            Progress::Stalled
        } else {
            Progress::Idle
        }
    }

    /// Back to the first element of head 0.
    fn rearm(&mut self) {
        self.head = 0;
        self.idx = 0;
    }

    /// Counters only advance on a completed move; data on a non-current
    /// port cannot unblock the kernel by itself, but it also changes
    /// nothing, so every non-`Busy` tick remains a fixed point until the
    /// *current* port or the output sees an event.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

/// Integer LayerNorm over the post-residual accumulator stream: gathers
/// one token's `d_model` raw accumulators, normalizes them back into
/// `act_bits` activation codes (`qnn_quant::layernorm_codes`), and emits
/// the codes before absorbing the next token.
pub struct LayerNormKernel {
    name: String,
    gains: Vec<i32>,
    act_bits: u32,
    row: Vec<i32>,
    pending: Vec<u8>,
    emitted: usize,
}

impl LayerNormKernel {
    /// Create a LayerNorm kernel with one positive gain per channel; the
    /// gain count fixes `d_model`.
    pub fn new(name: impl Into<String>, gains: Vec<i32>, act_bits: u32) -> Self {
        assert!(!gains.is_empty(), "layernorm needs at least one channel gain");
        Self {
            name: name.into(),
            gains,
            act_bits,
            row: Vec::new(),
            pending: Vec::new(),
            emitted: 0,
        }
    }
}

impl Kernel for LayerNormKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if !self.pending.is_empty() {
            if io.can_write(0) {
                let v = self.pending[self.emitted];
                io.write(0, i32::from(v));
                self.emitted += 1;
                if self.emitted == self.pending.len() {
                    self.pending.clear();
                    self.emitted = 0;
                }
                return Progress::Busy;
            }
            return Progress::Stalled;
        }
        if io.can_read(0) {
            let v = io.read(0).expect("checked");
            self.row.push(v);
            if self.row.len() == self.gains.len() {
                self.pending = layernorm_codes(&self.row, &self.gains, self.act_bits);
                self.row.clear();
            }
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    /// Empty row, nothing pending.
    fn rearm(&mut self) {
        self.row.clear();
        self.pending.clear();
        self.emitted = 0;
    }

    /// Gather acts only on input arrival, emit only on output space: every
    /// non-`Busy` tick is a fixed point.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfe_platform::ring::DelayLine;
    use dfe_platform::{Graph, HostSink, HostSource, StreamSpec};

    #[test]
    fn head_split_routes_channel_slices() {
        // 2 heads × 2 dims: tokens [1,2,3,4] and [5,6,7,8].
        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let h0 = g.add_stream(StreamSpec::new("h0", 16, 8));
        let h1 = g.add_stream(StreamSpec::new("h1", 16, 8));
        g.add_kernel(
            Box::new(HostSource::new("src", vec![1, 2, 3, 4, 5, 6, 7, 8])),
            &[],
            &[a],
        );
        g.add_kernel(Box::new(HeadSplitKernel::new("hs", 2, 2)), &[a], &[h0, h1]);
        let (s0, o0) = HostSink::new("d0", 4);
        let (s1, o1) = HostSink::new("d1", 4);
        g.add_kernel(Box::new(s0), &[h0], &[]);
        g.add_kernel(Box::new(s1), &[h1], &[]);
        g.run(1000).expect("run");
        assert_eq!(o0.take(), vec![1, 2, 5, 6]);
        assert_eq!(o1.take(), vec![3, 4, 7, 8]);
    }

    #[test]
    fn concat_is_the_inverse_of_head_split() {
        let mut g = Graph::new();
        let h0 = g.add_stream(StreamSpec::new("h0", 16, 8));
        let h1 = g.add_stream(StreamSpec::new("h1", 16, 8));
        let c = g.add_stream(StreamSpec::new("c", 16, 8));
        g.add_kernel(Box::new(HostSource::new("s0", vec![1, 2, 5, 6])), &[], &[h0]);
        g.add_kernel(Box::new(HostSource::new("s1", vec![3, 4, 7, 8])), &[], &[h1]);
        g.add_kernel(Box::new(ConcatKernel::new("cat", 2, 2)), &[h0, h1], &[c]);
        let (sink, out) = HostSink::new("dst", 8);
        g.add_kernel(Box::new(sink), &[c], &[]);
        g.run(1000).expect("run");
        assert_eq!(out.take(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn attention_head_matches_the_shared_math() {
        let (act_bits, seq_len, head_dim) = (2u32, 3usize, 2usize);
        let q: Vec<u8> = vec![3, 1, 0, 2, 1, 1];
        let k: Vec<u8> = vec![2, 2, 3, 0, 1, 3];
        let v: Vec<u8> = vec![0, 3, 1, 2, 3, 0];
        let want: Vec<i32> = head_attention(act_bits, head_dim, &q, &k, &v)
            .into_iter()
            .map(i32::from)
            .collect();

        let as_i32 = |s: &[u8]| s.iter().map(|&x| i32::from(x)).collect::<Vec<_>>();
        let mut g = Graph::new();
        let sq = g.add_stream(StreamSpec::new("q", 16, 8));
        let sk = g.add_stream(StreamSpec::new("k", 16, 8));
        let sv = g.add_stream(StreamSpec::new("v", 16, 8));
        let so = g.add_stream(StreamSpec::new("o", 16, 8));
        g.add_kernel(Box::new(HostSource::new("srcq", as_i32(&q))), &[], &[sq]);
        g.add_kernel(Box::new(HostSource::new("srck", as_i32(&k))), &[], &[sk]);
        g.add_kernel(Box::new(HostSource::new("srcv", as_i32(&v))), &[], &[sv]);
        g.add_kernel(
            Box::new(AttentionHeadKernel::new("attn", act_bits, seq_len, head_dim)),
            &[sq, sk, sv],
            &[so],
        );
        let (sink, out) = HostSink::new("dst", seq_len * head_dim);
        g.add_kernel(Box::new(sink), &[so], &[]);
        g.run(10_000).expect("run");
        assert_eq!(out.take(), want);
    }

    #[test]
    fn attention_head_resets_between_sequences_and_tolerates_skew() {
        // Two back-to-back sequences with V lagging far behind Q and K:
        // the head must keep the tiles aligned and reset cleanly.
        let (act_bits, seq_len, head_dim) = (2u32, 2usize, 2usize);
        let q: Vec<u8> = vec![1, 2, 3, 0, 2, 2, 0, 1];
        let k: Vec<u8> = vec![0, 3, 1, 1, 3, 3, 2, 0];
        let v: Vec<u8> = vec![2, 0, 1, 3, 0, 2, 3, 1];
        let tile = seq_len * head_dim;
        let mut want = Vec::new();
        for s in 0..2 {
            let r = s * tile..(s + 1) * tile;
            want.extend(
                head_attention(act_bits, head_dim, &q[r.clone()], &k[r.clone()], &v[r])
                    .into_iter()
                    .map(i32::from),
            );
        }

        let as_i32 = |s: &[u8]| s.iter().map(|&x| i32::from(x)).collect::<Vec<_>>();
        let mut g = Graph::new();
        let sq = g.add_stream(StreamSpec::new("q", 16, 16));
        let sk = g.add_stream(StreamSpec::new("k", 16, 16));
        let sv0 = g.add_stream(StreamSpec::new("v0", 16, 16));
        let sv = g.add_stream(StreamSpec::new("v", 16, 16));
        let so = g.add_stream(StreamSpec::new("o", 16, 16));
        g.add_kernel(Box::new(HostSource::new("srcq", as_i32(&q))), &[], &[sq]);
        g.add_kernel(Box::new(HostSource::new("srck", as_i32(&k))), &[], &[sk]);
        g.add_kernel(Box::new(HostSource::new("srcv", as_i32(&v))), &[], &[sv0]);
        g.add_kernel(Box::new(DelayLine::new("lag", 9)), &[sv0], &[sv]);
        g.add_kernel(
            Box::new(AttentionHeadKernel::new("attn", act_bits, seq_len, head_dim)),
            &[sq, sk, sv],
            &[so],
        );
        let (sink, out) = HostSink::new("dst", 2 * tile);
        g.add_kernel(Box::new(sink), &[so], &[]);
        // The delay line's in-flight gap looks like a quiet cycle to the
        // deadlock detector, so run with detection off.
        g.run_opts(10_000, false).expect("run");
        assert_eq!(out.take(), want);
    }

    #[test]
    fn layernorm_kernel_matches_the_shared_math() {
        let gains = vec![1, 2, 3, 1];
        let act_bits = 2u32;
        // Two tokens of raw accumulators, including negatives.
        let rows = [[40, -7, 13, 0], [-3, -3, 25, 8]];
        let mut want = Vec::new();
        for row in &rows {
            want.extend(layernorm_codes(row, &gains, act_bits).into_iter().map(i32::from));
        }

        let mut g = Graph::new();
        let a = g.add_stream(StreamSpec::new("a", 16, 8));
        let b = g.add_stream(StreamSpec::new("b", 16, 8));
        g.add_kernel(
            Box::new(HostSource::new("src", rows.concat())),
            &[],
            &[a],
        );
        g.add_kernel(
            Box::new(LayerNormKernel::new("ln", gains, act_bits)),
            &[a],
            &[b],
        );
        let (sink, out) = HostSink::new("dst", 8);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.run(1000).expect("run");
        assert_eq!(out.take(), want);
    }

    #[test]
    fn attention_family_vetoes_span_and_replay() {
        let hs = HeadSplitKernel::new("hs", 2, 2);
        let attn = AttentionHeadKernel::new("a", 2, 2, 2);
        let cat = ConcatKernel::new("c", 2, 2);
        let ln = LayerNormKernel::new("l", vec![1, 1], 2);
        let ks: [&dyn Kernel; 4] = [&hs, &attn, &cat, &ln];
        for k in ks {
            assert!(k.span_hint(&[8; 3], &[8; 3]).is_none(), "{} must not offer spans", k.name());
            assert!(k.replay_token().is_none(), "{} must veto replay", k.name());
        }
    }
}
