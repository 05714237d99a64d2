use super::*;
use crate::stream::StreamSpec;

fn stream(stream: u32, start_len: u32) -> SpanStream {
    SpanStream {
        stream,
        start_len,
        peak: start_len,
    }
}

fn part(node: u32, quotas: (u32, u32)) -> SpanPart {
    SpanPart {
        node,
        busy: 4,
        stalled: 0,
        quotas,
        end: None,
    }
}

fn span<'a>(
    k: u64,
    parts: &'a [SpanPart],
    quotas: &'a [u64],
    streams: &'a [SpanStream],
) -> Span<'a> {
    Span {
        k,
        parts,
        quotas,
        streams,
    }
}

#[test]
fn token_mix_separates_nearby_states() {
    // Counter states differing by one element must not collide (the
    // fingerprint relies on it), and argument order must matter.
    let a = token_mix(&[10, 3, 0]);
    let b = token_mix(&[11, 3, 0]);
    let c = token_mix(&[3, 10, 0]);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_eq!(a, token_mix(&[10, 3, 0]), "deterministic");
}

#[test]
fn tape_windows_recover_recorded_steps() {
    let mut st = ReplayState::default();
    let parts_a = [part(0, (0, 2))];
    let streams_a = [stream(0, 2)];
    let parts_b = [part(1, (0, 2)), part(2, (2, 2))];
    let streams_b = [stream(1, 3)];
    st.record_span(span(4, &parts_a, &[4, 4], &streams_a), &[0b01]);
    st.record_span(span(6, &parts_b, &[6, 6, 6, 5], &streams_b), &[0b110]);
    assert_eq!(st.tape.steps.len(), 2);
    assert_eq!(st.tape.span_recs.len(), 2);
    let a = st.tape.span_recs[0];
    let b = st.tape.span_recs[1];
    assert_eq!(st.tape.span(&a).parts, parts_a);
    assert_eq!(st.tape.span(&a).streams, streams_a);
    assert_eq!(st.tape.mask(&a), [0b01]);
    assert_eq!(st.tape.span(&b).k, 6);
    assert_eq!(st.tape.span(&b).streams, streams_b);
    assert_eq!(st.tape.mask(&b), [0b110]);
}

/// Each recorded part's quota window is rebased onto the tape's quota
/// pool, so replay reads the quotas the span was planned with.
#[test]
fn record_span_rebases_quota_windows() {
    let mut st = ReplayState::default();
    st.record_span(span(3, &[part(0, (0, 1))], &[3], &[]), &[0b11]);
    let parked = SpanPart {
        end: Some(Progress::Stalled),
        ..part(1, (1, 1))
    };
    st.record_span(span(5, &[part(0, (0, 1)), parked], &[2, 5], &[]), &[0b11]);
    let rec = st.tape.span_recs[1];
    let recorded = st.tape.span(&rec);
    let quotas: Vec<u64> = recorded
        .parts
        .iter()
        .map(|p| recorded.quotas[p.quotas.0 as usize])
        .collect();
    assert_eq!(quotas, [2, 5]);
    assert_eq!(recorded.parts[1].end, Some(Progress::Stalled));
}

#[test]
fn dense_runs_flush_before_spans() {
    let mut st = ReplayState::default();
    st.record_dense();
    st.record_dense();
    st.record_span(span(8, &[], &[], &[]), &[0b1]);
    assert_eq!(st.tape.steps.len(), 2);
    assert!(matches!(st.tape.steps[0], Step::Dense(2)));
    assert!(matches!(st.tape.steps[1], Step::Span(0)));
}

/// One marker stream, period 2, on a graph with no kernels: boundaries
/// fingerprint the (empty) queue alone, so every boundary matches.
fn marked() -> (ReplayState, Vec<StreamState>) {
    let streams = vec![StreamState::new(StreamSpec::new("logits", 32, 4))];
    let mut st = ReplayState::default();
    st.arm(&streams, 0, 2);
    (st, streams)
}

/// Let the marker's reader pop one more period and report the advance.
fn cross(st: &mut ReplayState, streams: &mut [StreamState]) {
    streams[0].pushed += 2;
    st.boundary(&[], streams, &[]);
}

fn cue_of(st: &mut ReplayState, streams: &[StreamState]) -> &'static str {
    match st.cue(u64::MAX, &[], streams) {
        Cue::Replay(_) => "replay",
        Cue::Dense => "dense",
        Cue::Plan { record: true } => "record",
        Cue::Plan { record: false } => "plan",
    }
}

/// Record a span whose windows take the tape past [`TAPE_ENTRY_CAP`].
fn over_cap(st: &mut ReplayState) {
    st.record_span(span(2, &[], &vec![0; TAPE_ENTRY_CAP], &[]), &[1]);
}

/// A whole-batch recording over the tape cap finishes the run planning
/// live, stores no tape and reports `WholeBatch::Off`; the key records
/// again on its next run.
#[test]
fn whole_batch_recording_over_the_cap_finishes_live() {
    let (mut st, mut streams) = marked();
    st.end_run(&streams);
    st.rearm(Some(3));
    assert!(st.begin_run(true));
    // A whole-batch tape ignores boundaries; over the cap, the period
    // machine takes over.
    assert_eq!(cue_of(&mut st, &streams), "record");
    assert_eq!(st.due(&streams), None);
    over_cap(&mut st);
    assert_eq!(cue_of(&mut st, &streams), "plan");
    assert_eq!(st.due(&streams), Some((0, 2)));
    cross(&mut st, &mut streams);
    st.end_run(&streams);
    assert_eq!(st.diag().whole_batch, WholeBatch::Off);
    assert!(st.batch_tapes.is_empty(), "no tape stored");
    st.rearm(Some(3));
    assert!(st.begin_run(true));
    assert_eq!(cue_of(&mut st, &streams), "record");
}

/// A period recording over the tape cap vetoes replay for the rest of the
/// run: no more recording, no boundary for the planner, and later
/// boundaries do not re-arm it. A re-arm does.
#[test]
fn period_recording_over_the_cap_vetoes_replay() {
    let (mut st, mut streams) = marked();
    assert!(st.begin_run(true));
    cross(&mut st, &mut streams);
    assert_eq!(cue_of(&mut st, &streams), "plan");
    cross(&mut st, &mut streams);
    assert_eq!(cue_of(&mut st, &streams), "record");
    over_cap(&mut st);
    for _ in 0..3 {
        assert_eq!(cue_of(&mut st, &streams), "plan");
        assert_eq!(st.due(&streams), None);
        cross(&mut st, &mut streams);
    }
    assert!(matches!(st.phase, ReplayPhase::Vetoed));
    assert_eq!(st.diag().tape_len, 0);
    st.rearm(None);
    assert!(matches!(st.phase, ReplayPhase::Armed { have_prev: false }));
}
