//! One sizing rule for reconvergent paths: on every sweep workload and on
//! the residual and transformer test networks, the lowering builds exactly
//! the skip buffers `hw::skip_buffers` gives — the ones the resource model
//! charges — at their width and depth, and a downsample block's branch
//! into its `ds` conv is an ordinary FIFO.

use qnn::compiler::{elaborate, CompileOptions};
use qnn::hw::skip_buffers;
use qnn::nn::{models, Network, Stage};
use qnn_bench::sweep_specs;

#[test]
fn lowered_skip_streams_match_the_model() {
    let mut specs: Vec<_> = sweep_specs().into_iter().map(|(_, spec)| spec).collect();
    specs.push(models::test_net(16, 10, 2));
    specs.push(models::tiny_transformer(16, 2, 8, 10, 2, 32));
    let opts = CompileOptions::default();
    for spec in specs {
        let mut want: Vec<(String, u32, usize)> = Vec::new();
        for (i, stage) in spec.stages.iter().enumerate() {
            let label = match stage {
                Stage::Encoder { .. } => format!("enc{i}"),
                _ => format!("res{i}"),
            };
            for b in skip_buffers(stage, opts.fifo_capacity) {
                want.push((format!("{label}.{}", b.suffix), b.bits, b.depth));
            }
        }
        let name = spec.name.clone();
        let pipeline = elaborate(&Network::random(spec, 1), &opts).expect("default options");
        let mut built: Vec<(String, u32, usize)> = Vec::new();
        for s in pipeline.graphs[0].stream_specs() {
            if [".skipbuf", ".ds.out", ".ffskip"].iter().any(|k| s.name.ends_with(k)) {
                built.push((s.name.clone(), s.bits, s.capacity));
            }
            if s.name.ends_with(".dsin") {
                assert_eq!(s.capacity, opts.fifo_capacity, "{name}: '{}'", s.name);
            }
        }
        built.sort();
        want.sort();
        assert_eq!(built, want, "{name}: lowered skip buffers differ from hw::skip_buffers");
    }
}
