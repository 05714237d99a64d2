//! Span promises: a kernel's next ticks as a chain of [`SpanPhase`]s
//! ([`Kernel::span_hint`](crate::Kernel::span_hint)), which the burst
//! planner solves against its neighbours'.

use super::Progress;

/// Maximum port count (inputs or outputs) of a span-capable kernel; the
/// per-port span counters are fixed-size arrays so a burst dispatch never
/// allocates. Every in-tree kernel has ≤ 2 ports per direction.
pub const MAX_SPAN_PORTS: usize = 8;

/// Most phases one [`SpanPlan`] chains.
pub const MAX_SPAN_PHASES: usize = 8;

/// Most input ports one [`SpanPhase::gather`] reads independently.
pub const MAX_GATHER_PORTS: usize = 3;

/// One phase of a [`SpanPlan`]: a stretch of the kernel's state machine
/// whose ticks all follow one rule, stated in elements rather than cycles.
///
/// A **coupled** phase ([`SpanPhase::coupled`]) moves `len` elements through
/// every masked port in lockstep: each tick moves the same count `m` on
/// every read-masked and write-masked port, `m` being as many as its lanes,
/// the committed elements of every masked input, the free slots of every
/// masked output and what is left of `len` allow — an element-wise stage, a
/// padder, a source or a sink.
///
/// An **overlapped** phase ([`SpanPhase::overlapped`]) has two independent
/// sides: each tick reads as many of `read_len` as its read lanes and the
/// queued input allow and, in the same tick, writes as many of `write_len`
/// as its write lanes and the free slots allow — a convolution emitting one
/// position while absorbing the next window. The phase ends on the tick after
/// the later side finishes.
///
/// A **gather** ([`SpanPhase::gather`]) reads each masked input port on its
/// own: each tick reads one element from every port that holds one and still
/// has elements left — an attention head filling its Q, K and V tiles from
/// streams that arrive skewed. A tick that reads nothing is `Stalled` when a
/// port whose quota is met holds an element, `Idle` otherwise, and the phase
/// ends on the tick that meets the last port's quota.
///
/// An overlapped phase may **repeat** ([`SpanPhase::times`]): `repeat`
/// back-to-back copies of it in one chain slot, each starting on the tick
/// after the one before ends — a convolution or a pool stating the interior
/// of an output row, whose positions all absorb and emit the same counts, as
/// one phase. The planner walks the copies one by one, or crosses them in
/// closed form while the neighbours keep every tick at its full count.
///
/// A tick that moves nothing is a **stall**. With [`SpanPhase::stalls`] the
/// kernel promises that such a tick is a port-inert fixed point (the
/// [`WakeHint::Parkable`](crate::WakeHint::Parkable) contract) with verdict
/// `Stalled` whenever some masked input holds an element or every masked
/// input does (an output is full), and the given *dry* verdict otherwise; an overlapped phase always
/// stalls `Stalled`. Without it (the lockstep promise of [`SpanPlan::new`])
/// every tick must move exactly its lane count, and the promise ends where
/// one could not.
///
/// The scheduler solves each phase's ticks from the neighbours' schedules,
/// so a kernel states only what its state machine does, never when.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanPhase {
    /// Bitmask of the input ports read (bit `p` = port `p`).
    pub reads: u8,
    /// Bitmask of the output ports written.
    pub writes: u8,
    /// Most elements per read port per tick.
    pub read_lanes: u16,
    /// Most elements per write port per tick.
    pub write_lanes: u16,
    /// Elements the phase reads from every read-masked port.
    pub read_len: u64,
    /// Elements the phase writes to every write-masked port.
    pub write_len: u64,
    /// Independent read and write sides (see the type docs).
    pub overlapped: bool,
    /// The verdict of a stall tick with every masked input empty, or `None`
    /// when the phase never stalls (see the type docs).
    pub dry: Option<Progress>,
    /// A tick that finishes the phase with lanes to spare carries on into
    /// the next phase within the same cycle (a folded padder crossing from
    /// an interior run into a border, a folded pool reading past a window
    /// that completes mid-tick). The scheduler plans such a tick across
    /// the coupled phases the chain holds, and ends the promise before one
    /// it cannot state that way.
    pub spill: bool,
    /// A gather's elements left on each masked input port, in port order;
    /// all zero for the other phase kinds.
    pub gather: [u32; MAX_GATHER_PORTS],
    /// Back-to-back copies of the phase (see the type docs); 1 but for a
    /// repeated overlapped phase.
    pub repeat: u32,
}

/// A port mask as a phase stores it ([`MAX_SPAN_PORTS`] bits).
fn span_mask(mask: u32) -> u8 {
    u8::try_from(mask).expect("span port mask exceeds MAX_SPAN_PORTS")
}

/// A per-tick lane count as a phase stores it
/// ([`Kernel::lanes`](crate::Kernel::lanes) is `u16`).
fn span_lanes(lanes: usize) -> u16 {
    assert!(lanes >= 1, "a span port moves at least one element per tick");
    u16::try_from(lanes).expect("span lanes exceed the lane-count range")
}

impl SpanPhase {
    /// A coupled phase of `len` elements per masked port, one per tick and
    /// never stalling (widen with [`SpanPhase::lanes`], let it stall with
    /// [`SpanPhase::stalls`]).
    pub fn coupled(len: u64, reads: u32, writes: u32) -> Self {
        debug_assert!(reads | writes != 0, "a span phase moves through some port");
        Self {
            reads: span_mask(reads),
            writes: span_mask(writes),
            read_lanes: 1,
            write_lanes: 1,
            read_len: if reads != 0 { len } else { 0 },
            write_len: if writes != 0 { len } else { 0 },
            overlapped: false,
            dry: None,
            spill: false,
            gather: [0; MAX_GATHER_PORTS],
            repeat: 1,
        }
    }

    /// A gather from input ports `0..lens.len()`, `lens[p]` more elements
    /// from port `p`, one per tick each (see the type docs).
    pub fn gather(lens: &[u64]) -> Self {
        assert!(
            (1..=MAX_GATHER_PORTS).contains(&lens.len()),
            "a gather reads 1 to {MAX_GATHER_PORTS} ports"
        );
        let mut gather = [0; MAX_GATHER_PORTS];
        for (g, &len) in gather.iter_mut().zip(lens) {
            *g = u32::try_from(len).expect("gather length exceeds the u32 range");
        }
        Self { gather, dry: Some(Progress::Idle), ..Self::coupled(0, (1 << lens.len()) - 1, 0) }
    }

    /// Whether this is a [`SpanPhase::gather`].
    pub fn is_gather(&self) -> bool {
        self.gather != [0; MAX_GATHER_PORTS]
    }

    /// An overlapped phase: `read_len` elements from the ports in `reads`
    /// at up to `read_lanes` per tick and, independently, `write_len` to the
    /// ports in `writes` at up to `write_lanes`. Stalls `Stalled`.
    pub fn overlapped(
        reads: u32,
        read_len: u64,
        read_lanes: usize,
        writes: u32,
        write_len: u64,
        write_lanes: usize,
    ) -> Self {
        Self {
            reads: span_mask(reads),
            writes: span_mask(writes),
            read_lanes: span_lanes(read_lanes),
            write_lanes: span_lanes(write_lanes),
            read_len,
            write_len,
            overlapped: true,
            dry: Some(Progress::Stalled),
            spill: false,
            gather: [0; MAX_GATHER_PORTS],
            repeat: 1,
        }
    }

    /// Move up to `lanes` elements per port per tick.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.read_lanes = span_lanes(lanes);
        self.write_lanes = self.read_lanes;
        self
    }

    /// Let a tick that moves nothing stall, with verdict `dry` when every
    /// masked input is empty (see the type docs).
    pub fn stalls(mut self, dry: Progress) -> Self {
        debug_assert_ne!(dry, Progress::Busy, "a stall tick is non-Busy");
        self.dry = Some(dry);
        self
    }

    /// `n` back-to-back copies of this overlapped phase (see the type
    /// docs).
    pub fn times(mut self, n: u32) -> Self {
        assert!(self.overlapped && n >= 1, "only an overlapped phase repeats, at least once");
        self.repeat = n;
        self
    }

    /// The phase with its repeat count left out: equal for two copies of
    /// one phase.
    fn copy(&self) -> Self {
        Self { repeat: 1, ..*self }
    }

    /// Mark the phase as spilling into the next one (see
    /// [`SpanPhase::spill`]).
    pub fn spills(mut self) -> Self {
        self.spill = true;
        self
    }

    /// `self` followed by `next` as one phase: a coupled phase that `next`
    /// continues tick for tick, or more copies of an overlapped one.
    fn merged(&self, next: &Self) -> Option<Self> {
        if self.overlapped && self.copy() == next.copy() {
            let repeat = self.repeat.checked_add(next.repeat)?;
            return Some(Self { repeat, ..*self });
        }
        let same = !self.overlapped
            && !self.is_gather()
            && Self { read_len: 0, write_len: 0, ..*self }
                == Self { read_len: 0, write_len: 0, ..*next };
        same.then(|| Self {
            read_len: self.read_len.saturating_add(next.read_len),
            write_len: self.write_len.saturating_add(next.write_len),
            ..*self
        })
    }
}

/// A **span promise** (see [`Kernel::span_hint`](crate::Kernel::span_hint)): the kernel's next ticks
/// as a chain of up to [`MAX_SPAN_PHASES`] [`SpanPhase`]s, from its current
/// state onward. The promise covers every tick until the chain runs out;
/// the scheduler fast-forwards whole bursts of cycles against the promises
/// of every kernel they touch, crediting the busy/stall counters and stream
/// statistics arithmetically, which is what keeps [`CycleReport`]s
/// bit-identical to per-element stepping.
///
/// The promise is conditional only on the kernel's own state: a phase says
/// what each tick does *given* the ports it finds, and the scheduler works
/// out, from every stream's level and the other kernels' promises, when
/// each tick finds what. A chain may stop short at any phase boundary —
/// any prefix of a valid promise is valid.
///
/// [`CycleReport`]: crate::CycleReport
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanPlan {
    phases: [SpanPhase; MAX_SPAN_PHASES],
    len: u8,
}

impl SpanPlan {
    /// The lockstep promise: for `cycles` ticks, one element per tick on
    /// every port in `reads` and `writes` (bitmasks, bit `p` = port `p`),
    /// never stalling.
    pub fn new(cycles: u64, reads: u32, writes: u32) -> Self {
        Self::of(SpanPhase::coupled(cycles, reads, writes))
    }

    /// A one-phase promise.
    pub fn of(phase: SpanPhase) -> Self {
        let mut phases = [phase; MAX_SPAN_PHASES];
        phases[1..].fill(SpanPhase::coupled(0, 1, 0));
        Self { phases, len: 1 }
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[SpanPhase] {
        &self.phases[..usize::from(self.len)]
    }

    /// Append `phase`. A coupled phase that continues the last one tick for
    /// tick (same ports, lanes and stall rule) extends it instead, and an
    /// overlapped phase identical to the last one (repeats aside) adds its
    /// copies to the last one's. `false` (and no change) when the chain is
    /// full.
    pub fn push(&mut self, phase: SpanPhase) -> bool {
        let last = &mut self.phases[usize::from(self.len) - 1];
        if let Some(merged) = last.merged(&phase) {
            *last = merged;
            return true;
        }
        if usize::from(self.len) == MAX_SPAN_PHASES {
            return false;
        }
        self.phases[usize::from(self.len)] = phase;
        self.len += 1;
        true
    }

    /// Append `phase` as a phase of its own, never folded into the last
    /// one: a repeat stated copy by copy.
    #[cfg(test)]
    pub(crate) fn push_unfolded(&mut self, phase: SpanPhase) -> bool {
        if usize::from(self.len) == MAX_SPAN_PHASES {
            return false;
        }
        self.phases[usize::from(self.len)] = phase;
        self.len += 1;
        true
    }

    /// `self` with `phase` appended (see [`SpanPlan::push`]).
    ///
    /// # Panics
    /// Panics when the chain is full.
    pub fn then(mut self, phase: SpanPhase) -> Self {
        assert!(self.push(phase), "SpanPlan chain is full");
        self
    }
}
