//! Burst explainers: why the span planner refused an attempt, how many
//! per-element cycles each refusal cost, and what ended each accepted burst
//! — and where a run's host time went ([`HostProfile`]).
//!
//! Like [`Graph::bursts`](crate::Graph::bursts), these describe how a run was
//! *dispatched*, not what it computed, so they sit outside
//! [`CycleReport`](crate::CycleReport) equality. The counters are touched only
//! once per planning attempt, refused or dispatched — never per stepped
//! cycle.

/// Why [`Graph`](crate::Graph)'s span planner refused a burst attempt:
/// mostly the bound that cut the burst it found below the attempt's
/// minimum length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Refusal {
    /// A participant's promise — its whole [`SpanPlan`](crate::SpanPlan)
    /// chain — runs out, or the next schedule-replay boundary comes.
    ShortPhase,
    /// A participant's lockstep phase (one without a wait) meets a full
    /// output.
    WriteBlockedNonHalting,
    /// An awake kernel offered no [`SpanPlan`](crate::SpanPlan).
    NoPlan,
    /// A parked kernel the burst's traffic would wake offered no plan, so
    /// the burst must end before that event.
    RecruitVeto,
    /// A stream limit: a lockstep phase starved, a folded tick spilling
    /// past the phases the chain holds, or a reader dispatched ahead of its
    /// writer outrunning the queued lead.
    StreamCap,
    /// A parked kernel's schedule would open on a verdict other than the
    /// one it is parked on.
    Admission,
    /// Nothing would run on the burst's first cycle (every awake kernel
    /// waits, or none is awake), or the whole graph goes quiet.
    AllDemoted,
}

impl Refusal {
    /// Every reason, in [`BurstDiag`] index order.
    pub const ALL: [Refusal; 7] = [
        Refusal::ShortPhase,
        Refusal::WriteBlockedNonHalting,
        Refusal::NoPlan,
        Refusal::RecruitVeto,
        Refusal::StreamCap,
        Refusal::Admission,
        Refusal::AllDemoted,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// What bounded an accepted burst's length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BurstEnd {
    /// A participant's promise (its last phase) ended there, or the graph
    /// went quiet.
    Phase,
    /// A stream limit: the first cycle a promised tick would have failed,
    /// or a wake the burst cannot model.
    Stream,
    /// The run's remaining cycle budget, or the next schedule-replay
    /// boundary.
    Budget,
}

/// Burst-planner diagnostics for one run (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BurstDiag {
    /// Refused attempts, indexed like [`Refusal::ALL`].
    pub refused: [u64; 7],
    /// Per-element cycles stepped after each refusal until the next attempt
    /// (its back-off), indexed like [`Refusal::ALL`].
    pub dense_after: [u64; 7],
    /// Accepted bursts that ended at a participant's promise end.
    pub ended_at_phase: u64,
    /// Accepted bursts that ended at a stream limit.
    pub ended_at_stream: u64,
    /// Accepted bursts cut short by the run's cycle budget.
    pub ended_at_budget: u64,
    /// Full participant evaluations the planner ran, over every attempt.
    pub evals: u64,
    /// Closed-form follower advances the planner took instead of a full
    /// evaluation, over every attempt: steps of a coupled kernel carrying a
    /// neighbour's rate change on (DESIGN.md §9, "Followers").
    pub follows: u64,
}

impl BurstDiag {
    /// Refused attempts for `reason`.
    pub fn refusals(&self, reason: Refusal) -> u64 {
        self.refused[reason.index()]
    }

    /// Per-element cycles stepped after refusals for `reason`.
    pub fn dense_cycles_after(&self, reason: Refusal) -> u64 {
        self.dense_after[reason.index()]
    }

    /// Accepted bursts, by what ended them.
    pub fn accepted(&self) -> u64 {
        self.ended_at_phase + self.ended_at_stream + self.ended_at_budget
    }

    pub(crate) fn refuse(&mut self, reason: Refusal) {
        self.refused[reason.index()] += 1;
    }

    pub(crate) fn add_dense(&mut self, reason: Refusal, cycles: u64) {
        self.dense_after[reason.index()] += cycles;
    }

    pub(crate) fn accept(&mut self, end: BurstEnd) {
        match end {
            BurstEnd::Phase => self.ended_at_phase += 1,
            BurstEnd::Stream => self.ended_at_stream += 1,
            BurstEnd::Budget => self.ended_at_budget += 1,
        }
    }
}

impl std::fmt::Display for BurstDiag {
    /// One line per refusal reason that occurred, the end split, then the
    /// planner's evaluation counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for reason in Refusal::ALL {
            let n = self.refusals(reason);
            if n > 0 {
                writeln!(
                    f,
                    "  refused {:<24} {:>8} attempts, {:>9} dense cycles after",
                    format!("{reason:?}"),
                    n,
                    self.dense_cycles_after(reason)
                )?;
            }
        }
        writeln!(
            f,
            "  accepted {:>8} bursts: {} ended at a phase end, {} at a stream limit, {} at the budget",
            self.accepted(),
            self.ended_at_phase,
            self.ended_at_stream,
            self.ended_at_budget
        )?;
        write!(f, "  planner  {:>8} evaluations, {} follower advances", self.evals, self.follows)
    }
}

/// Host time of a run by what the run loop spent it on, and the planner's
/// attempts (see [`Graph::host_profile`](crate::Graph::host_profile)).
///
/// The loop reads the clock once per advance, and once more after each
/// planning attempt: every nanosecond between two reads goes to the one
/// part that ran between them, so the parts sum to the run's wall time but
/// for the validation before the first advance and the report after the
/// last. Diagnostics like [`BurstDiag`]: outside
/// [`CycleReport`](crate::CycleReport) equality, reset with the graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Burst planning, refused attempts included.
    pub plan_ns: u64,
    /// Applying planned bursts ([`Kernel::run_span`](crate::Kernel::run_span)
    /// bodies and the closed-form credit).
    pub dispatch_ns: u64,
    /// Per-element cycles.
    pub step_ns: u64,
    /// Spans replayed from a schedule tape, their dispatch included.
    pub replay_ns: u64,
    /// Burst planning attempts, accepted or refused.
    pub attempts: u64,
}

impl HostProfile {
    /// The parts' sum.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.dispatch_ns + self.step_ns + self.replay_ns
    }
}

impl std::fmt::Display for HostProfile {
    /// One line: each part in ms and its share, then the attempts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_ns().max(1) as f64;
        let part = |ns: u64| format!("{:.2} ms ({:.0}%)", ns as f64 / 1e6, ns as f64 / total * 1e2);
        write!(
            f,
            "  host     plan {}, dispatch {}, step {}, replay {}; {} attempts",
            part(self.plan_ns),
            part(self.dispatch_ns),
            part(self.step_ns),
            part(self.replay_ns),
            self.attempts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_index_by_reason() {
        let mut d = BurstDiag::default();
        d.refuse(Refusal::StreamCap);
        d.refuse(Refusal::StreamCap);
        d.add_dense(Refusal::StreamCap, 5);
        d.refuse(Refusal::AllDemoted);
        d.accept(BurstEnd::Stream);
        d.accept(BurstEnd::Phase);
        assert_eq!(d.refusals(Refusal::StreamCap), 2);
        assert_eq!(d.dense_cycles_after(Refusal::StreamCap), 5);
        assert_eq!(d.refusals(Refusal::AllDemoted), 1);
        assert_eq!(d.refusals(Refusal::ShortPhase), 0);
        assert_eq!(d.accepted(), 2);
        assert!(Refusal::ALL.iter().enumerate().all(|(i, r)| r.index() == i));
    }
}
