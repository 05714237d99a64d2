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
//! so they compose with the conv/pool/elemwise kernels unchanged. Each
//! offers span promises ([`Kernel::span_hint`]) for the phases of its state
//! machine it can state without knowing when its inputs arrive, and a
//! replay token over its counters, so transformer graphs burst and replay
//! like CNN graphs:
//!
//! * [`HeadSplitKernel`] and [`ConcatKernel`] promise one phase per
//!   `head_dim` channel slice, each on that slice's port.
//! * [`AttentionHeadKernel`] promises a gather that fills its Q, K and V
//!   tiles port by port ([`SpanPhase::gather`]: the three streams arrive
//!   skewed), then the emit phase of the tile it computes.
//! * [`LayerNormKernel`] promises gather then emit, token by token.
//!
//! The numeric core lives in `qnn_quant::attention` and is shared verbatim
//! with the reference interpreter, which is what makes the streaming and
//! reference paths bit-identical by construction.

use dfe_platform::replay::token_mix;
use dfe_platform::{Io, Kernel, Progress, SpanIo, SpanPhase, SpanPlan, WakeHint, MAX_SPAN_PHASES};
use qnn_quant::{head_attention, layernorm_codes};

/// The phases of a router that moves `head_dim`-element slices through one
/// port per head in turn, starting `at` elements into the round: one phase
/// per slice, `phase(len, mask)` for a `len`-element slice on the ports in
/// `mask`, as far as the chain holds.
fn slice_phases(
    at: usize,
    heads: usize,
    head_dim: usize,
    phase: impl Fn(u64, u32) -> SpanPhase,
) -> SpanPlan {
    let mut slice = at / head_dim;
    let mut plan = SpanPlan::of(phase((head_dim - at % head_dim) as u64, 1 << slice));
    for _ in 1..MAX_SPAN_PHASES {
        slice = (slice + 1) % heads;
        if !plan.push(phase(head_dim as u64, 1 << slice)) {
            break;
        }
    }
    plan
}

/// A computed tile or row draining onto output port 0, one code per tick:
/// the emit phase the attention head and LayerNorm share.
#[derive(Default)]
struct Pending {
    codes: Vec<i32>,
    emitted: usize,
}

impl Pending {
    fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Codes still to emit.
    fn left(&self) -> usize {
        self.codes.len() - self.emitted
    }

    /// Queue `codes` for emission.
    fn set(&mut self, codes: Vec<u8>) {
        self.codes = codes.into_iter().map(i32::from).collect();
    }

    fn clear(&mut self) {
        self.codes.clear();
        self.emitted = 0;
    }

    /// Emit up to `n` codes, returning how many.
    fn emit(&mut self, n: usize, mut push: impl FnMut(&[i32])) -> usize {
        let end = self.codes.len().min(self.emitted + n);
        push(&self.codes[self.emitted..end]);
        let moved = end - self.emitted;
        self.emitted = end;
        if self.emitted == self.codes.len() {
            self.clear();
        }
        moved
    }

    /// One emit tick: a code out, or a stall on a full output.
    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if !io.can_write(0) {
            return Progress::Stalled;
        }
        self.emit(1, |code| io.write(0, code[0]));
        Progress::Busy
    }

    /// The span's share of the emit: up to `writes` codes, returning how
    /// many went out.
    fn run_span(&mut self, io: &mut SpanIo<'_>, writes: u64) -> u64 {
        self.emit(writes as usize, |codes| io.push_slice(0, codes)) as u64
    }

    /// The emit phase's promise: the codes left, a full output stalling.
    fn phase(len: usize) -> SpanPhase {
        SpanPhase::coupled(len as u64, 0, 0b1).stalls(Progress::Stalled)
    }
}

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

    /// One phase per channel slice: input to the slice's head port, one
    /// element per tick. A tick without an input element idles; one whose
    /// head port is full stalls — exactly `tick`'s verdicts.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        Some(slice_phases(self.channel, self.heads, self.head_dim, |len, port| {
            SpanPhase::coupled(len, 0b1, port).stalls(Progress::Idle)
        }))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let mut left = io.read_quota(0);
        while left > 0 {
            let into = self.channel % self.head_dim;
            let m = left.min((self.head_dim - into) as u64);
            io.transfer(0, self.channel / self.head_dim, m);
            self.channel = (self.channel + m as usize) % (self.heads * self.head_dim);
            left -= m;
        }
    }

    /// The channel counter is the only state.
    fn replay_token(&self) -> Option<u64> {
        Some(self.channel as u64)
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
    pending: Pending,
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
            pending: Pending::default(),
        }
    }

    fn tile(&self) -> usize {
        self.seq_len * self.head_dim
    }

    /// Run the head once all three tiles are full, leaving the output tile
    /// pending and the tiles empty.
    fn compute_if_full(&mut self) {
        let tile = self.tile();
        if self.q.len() == tile && self.k.len() == tile && self.v.len() == tile {
            let out = head_attention(self.act_bits, self.head_dim, &self.q, &self.k, &self.v);
            self.pending.set(out);
            self.q.clear();
            self.k.clear();
            self.v.clear();
        }
    }
}

impl Kernel for AttentionHeadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        // Emit phase: drain the computed tile before touching the inputs.
        if !self.pending.is_empty() {
            return self.pending.tick(io);
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
        self.compute_if_full();
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
    }

    /// Both phases only act on a stream event (new input while gathering,
    /// output space while emitting), so a non-`Busy` tick is a fixed
    /// point. A full-but-unread port cannot occur: buffers only stay full
    /// for the single tick in which the compute fires and clears them.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Emit what is pending (a full output stalls), then alternate the
    /// gather that fills the three tiles — each port read on its own, as
    /// `tick` reads them — with the emit of the tile it computes.
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let tile = self.tile();
        let gather = |lens: [usize; 3]| SpanPhase::gather(&lens.map(|l| (tile - l) as u64));
        let mut plan = if self.pending.is_empty() {
            let plan = SpanPlan::of(gather([self.q.len(), self.k.len(), self.v.len()]));
            plan.then(Pending::phase(tile))
        } else {
            SpanPlan::of(Pending::phase(self.pending.left()))
        };
        while plan.push(gather([0; 3])) && plan.push(Pending::phase(tile)) {}
        Some(plan)
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let tile = self.tile();
        let mut reads = [0, 1, 2].map(|p| io.read_quota(p));
        let mut writes = io.write_quota(0);
        while reads.iter().sum::<u64>() + writes > 0 {
            if self.pending.is_empty() {
                let mut moved = false;
                for (port, buf) in [(0usize, &mut self.q), (1, &mut self.k), (2, &mut self.v)] {
                    let m = reads[port].min((tile - buf.len()) as u64);
                    io.pop_n(port, m, |vals| {
                        buf.extend(
                            vals.iter()
                                .map(|&raw| u8::try_from(raw).expect("activation code fits u8")),
                        );
                    });
                    reads[port] -= m;
                    moved |= m > 0;
                }
                assert!(moved, "attention head '{}' gather beyond its promise", self.name);
                self.compute_if_full();
            } else {
                let moved = self.pending.run_span(io, writes);
                assert!(moved > 0, "attention head '{}' emit beyond its promise", self.name);
                writes -= moved;
            }
        }
    }

    /// Tile fill levels and emit progress are the whole control state.
    fn replay_token(&self) -> Option<u64> {
        let counters = [self.q.len(), self.k.len(), self.v.len(), self.pending.left()];
        Some(token_mix(&counters.map(|c| c as u64)))
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

    /// One lockstep phase per slice, from the current head's port to the
    /// output. A tick that moves nothing stalls or idles on what the
    /// *other* head ports hold, which no phase can state, so the promise
    /// covers moving ticks only (and is withheld while the current port is
    /// empty).
    fn span_hint(&self, in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        if in_len[self.head] == 0 {
            return None;
        }
        let at = self.head * self.head_dim + self.idx;
        Some(slice_phases(at, self.heads, self.head_dim, |len, port| {
            SpanPhase::coupled(len, port, 0b1)
        }))
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let mut left = io.write_quota(0);
        while left > 0 {
            let m = left.min((self.head_dim - self.idx) as u64);
            io.transfer(self.head, 0, m);
            self.idx += m as usize;
            if self.idx == self.head_dim {
                self.idx = 0;
                self.head = (self.head + 1) % self.heads;
            }
            left -= m;
        }
    }

    /// The head and element counters are the whole control state.
    fn replay_token(&self) -> Option<u64> {
        Some((self.head * self.head_dim + self.idx) as u64)
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
    pending: Pending,
}

impl LayerNormKernel {
    /// Create a LayerNorm kernel with one positive gain per channel; the
    /// gain count fixes `d_model`.
    pub fn new(name: impl Into<String>, gains: Vec<i32>, act_bits: u32) -> Self {
        assert!(!gains.is_empty(), "layernorm needs at least one channel gain");
        Self { name: name.into(), gains, act_bits, row: Vec::new(), pending: Pending::default() }
    }

    /// Normalize the gathered row once it holds a whole token.
    fn compute_if_full(&mut self) {
        if self.row.len() == self.gains.len() {
            self.pending.set(layernorm_codes(&self.row, &self.gains, self.act_bits));
            self.row.clear();
        }
    }
}

impl Kernel for LayerNormKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, io: &mut Io<'_>) -> Progress {
        if !self.pending.is_empty() {
            return self.pending.tick(io);
        }
        if io.can_read(0) {
            let v = io.read(0).expect("checked");
            self.row.push(v);
            self.compute_if_full();
            Progress::Busy
        } else {
            Progress::Idle
        }
    }

    /// Empty row, nothing pending.
    fn rearm(&mut self) {
        self.row.clear();
        self.pending.clear();
    }

    /// Gather acts only on input arrival, emit only on output space: every
    /// non-`Busy` tick is a fixed point.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Parkable
    }

    /// Emit what is pending, then alternate gathering a token (a dry input
    /// idles) with emitting its codes (a full output stalls).
    fn span_hint(&self, _in_len: &[usize], _out_room: &[usize]) -> Option<SpanPlan> {
        let d = self.gains.len();
        let gather = |len| SpanPhase::coupled(len as u64, 0b1, 0).stalls(Progress::Idle);
        let mut plan = if self.pending.is_empty() {
            SpanPlan::of(gather(d - self.row.len())).then(Pending::phase(d))
        } else {
            SpanPlan::of(Pending::phase(self.pending.left()))
        };
        while plan.push(gather(d)) && plan.push(Pending::phase(d)) {}
        Some(plan)
    }

    fn run_span(&mut self, io: &mut SpanIo<'_>, _n: u64) {
        let d = self.gains.len();
        let (mut reads, mut writes) = (io.read_quota(0), io.write_quota(0));
        while reads + writes > 0 {
            if self.pending.is_empty() {
                let m = reads.min((d - self.row.len()) as u64);
                assert!(m > 0, "layernorm '{}' gather beyond its promise", self.name);
                io.pop_n(0, m, |vals| self.row.extend_from_slice(vals));
                reads -= m;
                self.compute_if_full();
            } else {
                let moved = self.pending.run_span(io, writes);
                assert!(moved > 0, "layernorm '{}' emit beyond its promise", self.name);
                writes -= moved;
            }
        }
    }

    /// Row fill level and emit progress are the whole control state.
    fn replay_token(&self) -> Option<u64> {
        Some(token_mix(&[self.row.len() as u64, self.pending.left() as u64]))
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
        g.add_kernel(Box::new(HostSource::new("src", vec![1, 2, 3, 4, 5, 6, 7, 8])), &[], &[a]);
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
        let want: Vec<i32> =
            head_attention(act_bits, head_dim, &q, &k, &v).into_iter().map(i32::from).collect();

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
        g.add_kernel(Box::new(HostSource::new("src", rows.concat())), &[], &[a]);
        g.add_kernel(Box::new(LayerNormKernel::new("ln", gains, act_bits)), &[a], &[b]);
        let (sink, out) = HostSink::new("dst", 8);
        g.add_kernel(Box::new(sink), &[b], &[]);
        g.run(1000).expect("run");
        assert_eq!(out.take(), want);
    }

    /// Every kernel of the family promises spans and attests its control
    /// state, in every state the serving graphs reach: the head mid-gather
    /// with skewed tiles and mid-emit, LayerNorm mid-row.
    #[test]
    fn attention_family_offers_spans_and_tokens() {
        let hs = HeadSplitKernel::new("hs", 2, 2);
        let mut attn = AttentionHeadKernel::new("a", 2, 2, 2);
        let cat = ConcatKernel::new("c", 2, 2);
        let ln = LayerNormKernel::new("l", vec![1, 1], 2);
        let ks: [&dyn Kernel; 4] = [&hs, &attn, &cat, &ln];
        for k in ks {
            assert!(k.span_hint(&[8; 3], &[8; 3]).is_some(), "{} must offer spans", k.name());
            assert!(k.replay_token().is_some(), "{} must attest its state", k.name());
        }
        // Q one element ahead: a gather with per-port quotas, then the emit.
        let fresh = attn.replay_token();
        attn.q.push(1);
        let plan = attn.span_hint(&[0; 3], &[8]).expect("a skewed gather promises");
        let phases = plan.phases();
        assert!(phases[0].is_gather());
        assert_eq!(phases[0].gather, [3, 4, 4]);
        assert_eq!((phases[1].writes, phases[1].write_len), (0b1, 4));
        assert_ne!(attn.replay_token(), fresh, "the token covers the tile levels");
        // Mid-emit: the rest of the tile first.
        attn.pending.set(vec![0; 4]);
        attn.pending.emitted = 3;
        let plan = attn.span_hint(&[0; 3], &[8]).expect("an emit promises");
        assert_eq!(plan.phases()[0].write_len, 1);
        // Concat promises only while its current head port holds data.
        assert!(cat.span_hint(&[0, 8], &[8]).is_none());
    }
}
