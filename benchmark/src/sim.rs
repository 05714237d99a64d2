//! The three simulator workloads, and the lower → run → take split of one
//! op that the traced pass of every workload shares.
//!
//! One op is one `run_images` call: it lowers the network, simulates the
//! images cycle by cycle and collects the logits. Host numbers are wall
//! clock of this process; simulated numbers are Maia cycles and must repeat
//! exactly, so any op that disagrees with the first one ends the run.

use crate::iso;
use crate::json::Value;
use crate::measure::{fastest, median, ms, peak_rss_mib, Trace, Yardstick};
use crate::report::Outcome;
use crate::Plan;
use qnn::compiler::dse::{pick, ResourceBudget};
use qnn::compiler::{run_images, try_compile, CompileOptions};
use qnn::dfe::{threaded, CycleReport, ReplayDiag, MAIA_FCLK_MHZ, STRATIX_10_GX2800};
use qnn::hw::{CycleModel, FoldPlan};
use qnn::nn::{models, Network, NetworkSpec};
use qnn::tensor::{Shape3, Tensor3};
use qnn_testkit::{black_box, Rng};
use std::time::{Duration, Instant};

pub struct SimWorkload {
    pub name: &'static str,
    spec: fn() -> NetworkSpec,
    images_per_op: usize,
    /// Distinct op inputs the measured loop cycles through.
    op_pool: usize,
    /// Run under the design point `dse::pick` chooses, not the default.
    picked: bool,
    /// The paper's measured ms per image on the Maia DFE, where it has one.
    paper_ms: Option<f64>,
    /// Also run this network's convolutions and bit-GEMMs alone in the
    /// traced pass.
    isolate_layers: bool,
}

pub const WORKLOADS: [SimWorkload; 3] = [
    SimWorkload {
        name: "resnet18_single",
        spec: || models::resnet18(1000),
        images_per_op: 1,
        op_pool: 2,
        picked: false,
        paper_ms: Some(16.1),
        isolate_layers: true,
    },
    SimWorkload {
        name: "resnet18_folded",
        spec: || models::resnet18(1000),
        images_per_op: 1,
        op_pool: 2,
        picked: true,
        paper_ms: None,
        isolate_layers: true,
    },
    SimWorkload {
        name: "vgg32_stream",
        spec: || models::vgg_like(32, 10, 2),
        images_per_op: 40,
        op_pool: 1,
        picked: false,
        paper_ms: Some(0.8),
        isolate_layers: false,
    },
];

/// Fewest ops a run measures, however short `--seconds` is.
pub const MIN_OPS: u64 = 3;

pub fn random_image(shape: Shape3, rng: &mut Rng) -> Tensor3<i8> {
    Tensor3::from_fn(shape, |_, _, _| rng.gen_range(-127i8..=127))
}

/// The images of one op with the oracle's logits for each.
pub struct OpInput {
    pub images: Vec<Tensor3<i8>>,
    pub refs: Vec<Vec<i32>>,
}

impl OpInput {
    pub fn generate(net: &Network, images: usize, rng: &mut Rng) -> OpInput {
        let images: Vec<_> = (0..images)
            .map(|_| random_image(net.spec.input, rng))
            .collect();
        let refs = images.iter().map(|img| net.forward(img).logits).collect();
        OpInput { images, refs }
    }
}

/// The same budget `run_images` gives a run: far above any correct run.
fn cycle_budget(spec: &NetworkSpec, images: usize) -> u64 {
    (CycleModel::analyze(spec).serial_bound() * 8 + 2_000_000) * images as u64
}

struct Fixture {
    net: Network,
    ops: Vec<OpInput>,
    opts: CompileOptions,
    folding: FoldPlan,
    model: CycleModel,
    dse_pick: Duration,
}

/// Everything before the first measured op: weights, images, the oracle's
/// logits, the design point, the analytic model and one warm-up op.
fn setup(w: &SimWorkload, seed: u64) -> Fixture {
    let mut rng = Rng::seed_from_u64(seed);
    let spec = (w.spec)();
    let net = Network::random(spec.clone(), rng.next_u64());
    let ops: Vec<_> = (0..w.op_pool)
        .map(|_| OpInput::generate(&net, w.images_per_op, &mut rng))
        .collect();
    let t = Instant::now();
    let (opts, folding) = if w.picked {
        let point = pick(&spec, &ResourceBudget::new(STRATIX_10_GX2800, 2))
            .expect("ResNet-18 fits two Stratix 10 devices");
        (point.compile_options(), point.folding)
    } else {
        (CompileOptions::default(), FoldPlan::new())
    };
    let dse_pick = t.elapsed();
    let model = CycleModel::analyze_folded(&spec, &folding);
    let warm = run_images(&net, &ops[0].images, &opts).expect("warm-up op");
    assert_eq!(
        warm.logits, ops[0].refs,
        "warm-up op disagrees with Network::forward"
    );
    Fixture {
        net,
        ops,
        opts,
        folding,
        model,
        dse_pick,
    }
}

/// Ends the run when an op's simulated counts differ from the first op's.
struct RepeatGate<T> {
    first: Option<T>,
}

impl<T: PartialEq> RepeatGate<T> {
    fn check(&mut self, op: usize, counts: T) {
        match &self.first {
            None => self.first = Some(counts),
            Some(first) if *first == counts => {}
            Some(_) => {
                eprintln!("op {op}: simulated counts differ from the first op's; the simulator is not deterministic");
                std::process::exit(2);
            }
        }
    }
}

pub fn run(w: &SimWorkload, plan: &Plan) -> Outcome {
    if plan.traced {
        return run_traced(w, plan);
    }
    let (fx, setup_s) = plan.set_up(|| setup(w, plan.seed), drop);

    let mut out = Outcome::default();
    let (mut op_ms, mut op_raw_ms) = (Vec::new(), Vec::new());
    let mut gate = RepeatGate { first: None };
    let mut yard = Yardstick::start();
    let start = Instant::now();
    while out.attempted < MIN_OPS || start.elapsed().as_secs_f64() < plan.seconds {
        let input = &fx.ops[out.attempted as usize % fx.ops.len()];
        let op = yard.timed(|| run_images(&fx.net, &input.images, &fx.opts));
        out.attempted += 1;
        match &op.value {
            Ok(sim) if sim.logits == input.refs => {
                op_ms.push(op.ms());
                op_raw_ms.push(op.raw_ms);
                let replay: Vec<_> = sim.reports.iter().map(|r| r.replay).collect();
                gate.check(out.attempted as usize, (sim.reports.clone(), replay));
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                eprintln!("op {} failed: {e}", out.attempted);
                out.failed += 1;
            }
        }
    }
    let (reports, _) = gate.first.expect("at least one correct op");
    let cycles = reports.iter().map(|r| r.cycles).max().unwrap_or(0) as f64;
    let images = w.images_per_op as f64;
    out.set("setup_s", setup_s);
    out.set(
        "img_per_s",
        images * op_ms.len() as f64 / (op_ms.iter().sum::<f64>() * 1e-3),
    );
    out.set("img_ms", median(&op_ms) / images);
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("host_ns_per_sim_cycle", median(&op_ms) * 1e6 / cycles);
    out.set("sim_cycles_per_img", cycles / images);
    out.note("ops", op_ms.len() as u64);
    out.note("images_per_op", w.images_per_op as u64);
    // Every op as timed, so the scaling can be audited or redone.
    let list = |ms: &[f64]| Value::Arr(ms.iter().map(|&m| Value::Num(m)).collect());
    out.note("op_ms", list(&op_ms));
    out.note("op_raw_ms", list(&op_raw_ms));
    out
}

/// The simulated counts of one op (or of several run one after another)
/// that the `dfe.*` metrics are made of. All of them repeat exactly.
pub struct Counts {
    images: u64,
    cycles: u64,
    busy: u64,
    stalled: u64,
    bottleneck_busy: u64,
    bursts: u64,
    burst_cycles: u64,
    images_replayed: u64,
    guard_fallbacks: u64,
    fifo_peak_fill: f64,
    fifo_full: u64,
}

impl Counts {
    /// Counts of one run; devices of a multi-device run share one clock.
    fn of(reports: &[CycleReport], (bursts, burst_cycles): (u64, u64), images: usize) -> Counts {
        let kernels = || reports.iter().flat_map(|r| &r.kernels);
        let streams = || reports.iter().flat_map(|r| &r.streams);
        Counts {
            images: images as u64,
            cycles: reports.iter().map(|r| r.cycles).max().unwrap_or(0),
            busy: kernels().map(|k| k.busy).sum(),
            stalled: kernels().map(|k| k.stalled).sum(),
            bottleneck_busy: kernels().map(|k| k.busy).max().unwrap_or(0),
            bursts,
            burst_cycles,
            images_replayed: reports.iter().map(|r| r.replay.images_replayed).sum(),
            guard_fallbacks: reports.iter().map(|r| r.replay.guard_fallbacks).sum(),
            fifo_peak_fill: streams()
                .map(|s| s.max_occupancy as f64 / s.capacity as f64)
                .fold(0.0, f64::max),
            fifo_full: streams().filter(|s| s.max_occupancy >= s.capacity).count() as u64,
        }
    }

    /// Counts of this run followed by `next` on the same device.
    fn then(self, next: Counts) -> Counts {
        Counts {
            images: self.images + next.images,
            cycles: self.cycles + next.cycles,
            busy: self.busy + next.busy,
            stalled: self.stalled + next.stalled,
            bottleneck_busy: self.bottleneck_busy + next.bottleneck_busy,
            bursts: self.bursts + next.bursts,
            burst_cycles: self.burst_cycles + next.burst_cycles,
            images_replayed: self.images_replayed + next.images_replayed,
            guard_fallbacks: self.guard_fallbacks + next.guard_fallbacks,
            fifo_peak_fill: self.fifo_peak_fill.max(next.fifo_peak_fill),
            fifo_full: self.fifo_full + next.fifo_full,
        }
    }
}

/// One op split at the layer boundaries, as `run_images` performs it. Times
/// are ms at the yardstick's reference speed.
pub struct SplitOp {
    pub lower_ms: f64,
    pub run_ms: f64,
    pub total_ms: f64,
    pub logits: Vec<Vec<i32>>,
    pub reports: Vec<CycleReport>,
    pub counts: Counts,
}

impl SplitOp {
    /// This op followed by `next`, as one op.
    pub fn then(mut self, next: SplitOp) -> SplitOp {
        self.lower_ms += next.lower_ms;
        self.run_ms += next.run_ms;
        self.total_ms += next.total_ms;
        self.logits.extend(next.logits);
        self.reports.extend(next.reports);
        self.counts = self.counts.then(next.counts);
        self
    }

    /// Everything simulated that must be the same on every op.
    fn exact(&self) -> (&[CycleReport], Vec<ReplayDiag>, u64, u64) {
        let replay = self.reports.iter().map(|r| r.replay).collect();
        (
            &self.reports,
            replay,
            self.counts.bursts,
            self.counts.burst_cycles,
        )
    }
}

pub fn split_op(
    net: &Network,
    images: &[Tensor3<i8>],
    opts: &CompileOptions,
    yard: &mut Yardstick,
    trace: &mut Trace,
    op: u64,
) -> Result<SplitOp, String> {
    let timed = yard.timed(|| -> Result<_, String> {
        let t0 = Instant::now();
        let mut compiled = try_compile(net, images, opts).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let budget = cycle_budget(&net.spec, images.len());
        let (reports, bursts) = if let [graph] = &mut compiled.graphs[..] {
            let report = graph.run_opts(budget, true).map_err(|e| e.to_string())?;
            (vec![report], (graph.bursts(), graph.burst_cycles()))
        } else {
            // The lockstep executor consumes the graphs, burst counters included.
            let graphs = std::mem::take(&mut compiled.graphs);
            let reports = threaded::run_devices(graphs, budget).map_err(|e| e.to_string())?;
            (reports, (0, 0))
        };
        let t2 = Instant::now();
        let flat = compiled.sink.take();
        let logits = flat
            .chunks_exact(compiled.classes)
            .map(<[i32]>::to_vec)
            .collect();
        Ok(([t0, t1, t2, Instant::now()], logits, reports, bursts))
    });
    let ([t0, t1, t2, t3], logits, reports, bursts) = timed.value?;
    let root = trace.span("op", op, None, t0, t3);
    trace.span("compiler.lower", op, Some(root), t0, t1);
    trace.span("dfe.run", op, Some(root), t1, t2);
    trace.span("dfe.take", op, Some(root), t2, t3);
    let counts = Counts::of(&reports, bursts, images.len());
    Ok(SplitOp {
        lower_ms: ms(t1 - t0) * timed.speed,
        run_ms: ms(t2 - t1) * timed.speed,
        total_ms: ms(t3 - t0) * timed.speed,
        logits,
        reports,
        counts,
    })
}

/// The `compiler.*` and `dfe.*` metrics of ops that all simulated the same.
pub fn layer_metrics(out: &mut Outcome, ops: &[SplitOp]) {
    let mut gate = RepeatGate { first: None };
    for (i, op) in ops.iter().enumerate() {
        gate.check(i, op.exact());
    }
    let lower: Vec<f64> = ops.iter().map(|o| o.lower_ms).collect();
    let run: Vec<f64> = ops.iter().map(|o| o.run_ms).collect();
    let run_ns = median(&run) * 1e6;
    out.set("compiler.lower_ms", median(&lower));
    out.set(
        "compiler.lower_share",
        lower.iter().sum::<f64>() / (lower.iter().sum::<f64>() + run.iter().sum::<f64>()),
    );
    out.set("dfe.run_ms", median(&run));

    let c = &ops[0].counts;
    let cycles = c.cycles as f64;
    out.set("dfe.host_ns_per_cycle", run_ns / cycles);
    out.set("dfe.host_ns_per_busy_tick", run_ns / c.busy as f64);
    out.set("dfe.burst_cycle_share", c.burst_cycles as f64 / cycles);
    out.set("dfe.bursts", c.bursts as f64);
    out.set(
        "dfe.mean_span",
        if c.bursts == 0 {
            0.0
        } else {
            c.burst_cycles as f64 / c.bursts as f64
        },
    );
    out.set(
        "dfe.replay_img_share",
        c.images_replayed as f64 / c.images as f64,
    );
    out.set("dfe.replay_guard_fallbacks", c.guard_fallbacks as f64);
    out.set(
        "dfe.stall_share",
        c.stalled as f64 / (c.busy + c.stalled) as f64,
    );
    out.set(
        "dfe.bottleneck_busy_share",
        c.bottleneck_busy as f64 / cycles,
    );
    out.set("dfe.fifo_peak_fill_max", c.fifo_peak_fill);
    out.set("dfe.fifo_full_streams", c.fifo_full as f64);
}

/// Does kernel `name` belong to model layer `layer`? `conv0.pad` and
/// `enc1.attn0` do; `pool10` is not part of `pool1`.
fn kernel_of_layer(name: &str, layer: &str) -> bool {
    match name.strip_prefix(layer) {
        Some("") => true,
        Some(rest) if rest.starts_with('.') => true,
        Some(rest) => layer.ends_with("attn") && rest.bytes().all(|b| b.is_ascii_digit()),
        None => false,
    }
}

/// Per layer of the analytic model: the busiest of its kernels, per image,
/// over the busy cycles the model predicts. Model layers that are not
/// kernels (the host image feed, skip paths) have no row.
fn layer_residuals(
    model: &CycleModel,
    reports: &[CycleReport],
    images: usize,
) -> Vec<(String, f64, f64)> {
    model
        .layers
        .iter()
        .filter_map(|layer| {
            let busy = reports
                .iter()
                .flat_map(|r| &r.kernels)
                .filter(|k| kernel_of_layer(&k.name, &layer.name))
                .map(|k| k.busy)
                .max()?;
            let per_image = busy as f64 / images as f64;
            Some((layer.name.clone(), per_image, per_image / layer.busy as f64))
        })
        .collect()
}

/// `hwmodel.*`: the simulator against the repo's own analytic model, layer
/// by layer and in total, over networks run one after another, each with
/// the reports of its devices. This is not error against hardware. Returns
/// the full per-layer table.
pub fn hwmodel_metrics(
    out: &mut Outcome,
    runs: &[(&CycleModel, &[CycleReport])],
    images: usize,
) -> Value {
    let rows: Vec<_> = runs
        .iter()
        .flat_map(|(m, r)| layer_residuals(m, r, images))
        .collect();
    let resid: Vec<f64> = rows.iter().map(|r| r.2).collect();
    out.set("hwmodel.layer_resid_p50", median(&resid));
    out.set(
        "hwmodel.layer_resid_max",
        resid.iter().copied().fold(f64::MIN, f64::max),
    );
    out.set(
        "hwmodel.layer_resid_min",
        resid.iter().copied().fold(f64::MAX, f64::min),
    );
    let cycles: u64 = runs
        .iter()
        .map(|(_, r)| r.iter().map(|r| r.cycles).max().unwrap_or(0))
        .sum();
    let analytic: u64 = runs
        .iter()
        .map(|(m, _)| if images == 1 { m.latency() } else { m.period() })
        .sum();
    out.set(
        "hwmodel.sim_vs_analytic_ratio",
        cycles as f64 / images as f64 / analytic as f64,
    );
    Value::Arr(
        rows.into_iter()
            .map(|(layer, sim_busy, resid)| {
                Value::obj([
                    ("layer", Value::Str(layer)),
                    ("sim_busy_per_img", Value::Num(sim_busy)),
                    ("resid", Value::Num(resid)),
                ])
            })
            .collect(),
    )
}

fn run_traced(w: &SimWorkload, plan: &Plan) -> Outcome {
    let fx = setup(w, plan.seed);
    let mut rng = Rng::seed_from_u64(plan.seed ^ 0x150);
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(plan.seconds);
    if w.picked {
        out.set("compiler.dse_pick_ms", ms(fx.dse_pick));
    }

    // The oracle alone, so a slower reference shows as set-up, not as sim.
    let forward: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(fx.net.forward(black_box(&fx.ops[0].images[0])));
            ms(t.elapsed())
        })
        .collect();
    out.set("nn.forward_ms", fastest(&forward));

    // Isolated layers get a quarter of the run; the op loop gets the rest.
    // The bit-GEMMs do not know about folding, so they run once, unfolded.
    let mut yard = Yardstick::start();
    if w.isolate_layers {
        let iso_s = plan.seconds * if w.picked { 0.25 } else { 0.125 };
        let conv = iso::conv_ms_per_img(
            &fx.net.spec,
            &fx.folding,
            &fx.opts,
            &mut rng,
            &mut yard,
            iso_s,
        );
        if w.picked {
            out.set("kernels.conv_iso_folded_ms_per_img", conv);
        } else {
            out.set("kernels.conv_iso_ms_per_img", conv);
            let gemm = iso::gemm(&fx.net.spec, &mut rng, &mut yard, iso_s);
            out.set("quant.gemm_ms_per_img", gemm.codes_ms);
            out.set("quant.gemm_i8_ms_per_img", gemm.i8_ms);
            out.set("quant.gemm_gmacs_per_s", gemm.gmacs_per_s);
        }
    }

    // Untraced and traced ops alternate, so both see the same quiet and busy
    // stretches and the ratio of their medians is the cost of tracing.
    let mut trace = Trace::new();
    let (mut plain_ms, mut plain_raw_ms) = (Vec::new(), Vec::new());
    let mut ops: Vec<SplitOp> = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_OPS || Instant::now() < deadline {
        rounds += 1;
        let input = &fx.ops[ops.len() % fx.ops.len()];
        let plain = yard.timed(|| run_images(&fx.net, &input.images, &fx.opts));
        plain_ms.push(plain.ms());
        plain_raw_ms.push(plain.raw_ms);
        let split = split_op(
            &fx.net,
            &input.images,
            &fx.opts,
            &mut yard,
            &mut trace,
            rounds,
        );
        out.attempted += 2;
        out.failed += u64::from(!plain.value.is_ok_and(|sim| sim.logits == input.refs));
        match split {
            Ok(op) if op.logits == input.refs => ops.push(op),
            Ok(_) => out.failed += 1,
            Err(e) => {
                eprintln!("traced op failed: {e}");
                out.failed += 1;
            }
        }
    }

    layer_metrics(&mut out, &ops);
    let layers = hwmodel_metrics(&mut out, &[(&fx.model, &ops[0].reports)], w.images_per_op);
    let traced_ms: Vec<f64> = ops.iter().map(|o| o.total_ms).collect();
    out.set(
        "bench.trace_overhead_pct",
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
    );
    // As a user of this sandbox saw it: wall clock, busy minutes included.
    let images = w.images_per_op as f64;
    out.set("e2e.img_ms_p50", median(&plain_raw_ms) / images);
    out.set(
        "e2e.img_per_s",
        images * plain_raw_ms.len() as f64 / (plain_raw_ms.iter().sum::<f64>() * 1e-3),
    );
    if let Some(paper_ms) = w.paper_ms {
        let cycles = ops[0].reports.iter().map(|r| r.cycles).max().unwrap_or(0);
        let sim_ms = CycleModel::ms(cycles, MAIA_FCLK_MHZ) / w.images_per_op as f64;
        let err = (sim_ms / paper_ms - 1.0) * 100.0;
        println!(
            "sim {sim_ms:.4} ms/img at {MAIA_FCLK_MHZ} MHz vs paper {paper_ms} ms: {err:+.2} %"
        );
        out.set("hwmodel.paper_err_pct", err.abs());
    } else {
        println!("no hardware reference for this design point: the projection is unvalidated");
    }
    out.set("e2e.fail_share", out.failed as f64 / out.attempted as f64);
    out.note("ops", ops.len() as u64);
    out.note("layers", layers);
    out.note("trace", trace.to_json());
    out
}
