//! Transformer equivalence battery: the streaming encoder lowering —
//! Q/K/V projections, per-head fan-out, attention tile engines, concat,
//! output projection, residual adds and LayerNorm — must match the
//! reference interpreter bit for bit, across a geometry grid, randomized
//! specs, stall injection, and both default stepping and the dense oracle.
//!
//! The numeric core (`qnn_quant::attention`) is shared between the two
//! paths, so these tests pin the *plumbing*: stream ordering through the
//! branching subgraph, head slicing, skip alignment, and the gather/emit
//! state machines under backpressure and arbitrary stall patterns — and
//! that the attention family's span promises and replay tokens put
//! transformer runs on burst dispatch and whole-batch replay.

mod common;

use common::{dense, elaborate_stalled, run_dense};
use qnn::compiler::{elaborate, run_images, try_compile, CompileOptions};
use qnn::nn::specgen::{encoder_spec_strategy, image_for, random_encoder_spec};
use qnn::nn::{models, Network};
use qnn_testkit::{prop_assert_eq, props};

/// Deterministic grid over heads × head_dim × seq_len × FFN × act_bits,
/// each point checked stepped by default and on the dense oracle. Covers
/// the corners the random battery may miss (single-token sequences, single head,
/// 1-bit codes) with a stable, always-run set.
#[test]
fn encoder_grid_sweep_is_bit_exact_in_both_dispatch_modes() {
    let mut checked = 0;
    for heads in [1usize, 2, 4] {
        for head_dim in [1usize, 3] {
            for seq_len in [1usize, 2, 5] {
                for ff_hidden in [0usize, 6] {
                    for act_bits in [1u32, 2] {
                        let seed = (heads * 1009
                            + head_dim * 101
                            + seq_len * 11
                            + ff_hidden
                            + act_bits as usize) as u64;
                        let spec =
                            random_encoder_spec(seq_len, heads, head_dim, ff_hidden, act_bits);
                        let net = Network::random(spec, seed);
                        let img = image_for(&net.spec, seed);
                        let expect = net.forward(&img).logits;
                        let images = std::slice::from_ref(&img);
                        let opts = CompileOptions::default();
                        let at =
                            format!("h{heads} d{head_dim} s{seq_len} ff{ff_hidden} b{act_bits}");
                        let sim = run_images(&net, images, &opts).expect("sim");
                        assert_eq!(sim.logits[0], expect, "{at}");
                        let sim = run_dense(&net, images, &opts).expect("dense sim");
                        assert_eq!(sim.logits[0], expect, "{at} on the dense oracle");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 72);
}

/// A stream of images through the two-encoder transformer: the attention
/// tile engines and LayerNorm gatherers must reset cleanly between images
/// (any leftover tile state would skew every following logit).
#[test]
fn transformer_image_stream_is_bit_exact() {
    let net = Network::random(models::tiny_transformer(6, 2, 3, 5, 2, 8), 17);
    let images: Vec<_> = (0..4).map(|s| image_for(&net.spec, 900 + s)).collect();
    let sim = run_images(&net, &images, &CompileOptions::default()).expect("sim");
    for (i, img) in images.iter().enumerate() {
        assert_eq!(sim.logits[i], net.forward(img).logits, "image {i}");
    }
}

/// The default stepper fast-forwards transformer runs in bursts, and a
/// warm pipeline's third same-size batch replays the tape the second one
/// recorded — bit-exact throughout.
#[test]
fn transformer_runs_burst_and_warm_batches_replay() {
    let net = Network::random(models::tiny_transformer(6, 2, 3, 5, 2, 8), 23);
    let images: Vec<_> = (0..2).map(|s| image_for(&net.spec, 40 + s)).collect();
    let expect: Vec<_> = images.iter().map(|img| net.forward(img).logits).collect();
    let opts = CompileOptions::default();
    let mut fresh = try_compile(&net, &images, &opts).expect("valid options");
    let sim = fresh.run().expect("sim");
    assert_eq!(sim.logits, expect);
    assert!(fresh.graphs[0].burst_cycles() > 0, "no transformer cycle ran in a burst");
    let mut warm = elaborate(&net, &opts).expect("valid options");
    for batch in 0..3 {
        warm.load(&images);
        let run = warm.run().expect("sim");
        assert_eq!((&run.logits, &run.reports), (&expect, &sim.reports), "batch {batch}");
        assert_eq!(run.replayed_whole_batch(), batch == 2, "batch {batch}");
    }
}

props! {
    /// Randomized encoder specs stay bit-exact under random stall
    /// injection — every kernel's handshake must tolerate arbitrary
    /// flow-control timing — stepped by default or on the dense oracle.
    #[test]
    fn random_encoders_bit_exact_under_stall_injection(
        spec in encoder_spec_strategy(),
        seed in 0u64..1000,
        pct in 0u8..40,
        on_oracle in 0u8..2,
    ) {
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed);
        let expect = net.forward(&img).logits;
        let opts = CompileOptions::default();
        let mut pipeline = elaborate_stalled(&net, &opts, Some((seed ^ 0xA77E_1710, pct)));
        if on_oracle == 1 {
            dense(&mut pipeline);
        }
        pipeline.load(std::slice::from_ref(&img));
        let sim = pipeline.run().expect("sim");
        prop_assert_eq!(&sim.logits[0], &expect);
    }

    /// Randomized encoder specs under FIFO starvation: tiny inter-kernel
    /// FIFOs exercise backpressure through the branching subgraph (the
    /// structural skip buffers keep their sequence-deep capacity).
    #[test]
    fn random_encoders_bit_exact_under_fifo_stress(
        spec in encoder_spec_strategy(),
        seed in 0u64..500,
        fifo in 4usize..64,
    ) {
        let net = Network::random(spec, seed);
        let img = image_for(&net.spec, seed + 7);
        let expect = net.forward(&img).logits;
        let opts = CompileOptions { fifo_capacity: fifo, ..CompileOptions::default() };
        let sim = run_images(&net, std::slice::from_ref(&img), &opts).expect("sim");
        prop_assert_eq!(&sim.logits[0], &expect);
    }
}
