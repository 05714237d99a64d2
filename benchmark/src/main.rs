//! The repo benchmark: four workloads, end-to-end metrics with tracing off,
//! per-layer metrics from a separate traced pass. See `README.md`.
//!
//! ```text
//! qnn-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! qnn-benchmark [--seed N] [--quick] [--repeat K] [--rev REV]     every workload, both passes
//! qnn-benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! Everything is measured from outside, through the public functions of
//! `crates/`; nothing under `crates/` knows the benchmark exists.

mod compare;
mod iso;
mod json;
mod measure;
mod report;
mod serve;
mod sim;

use json::Value;
use report::{Manifest, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// What one run was asked to do.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: a few ops, one set-up, results that `compare` refuses.
    pub quick: bool,
}

impl Plan {
    /// Set up three to nine times (once in smoke mode), tearing each down
    /// before the next, and return the last with the median of the set-up
    /// times: one slow start must not read as a regression.
    pub fn set_up<T>(&self, mut build: impl FnMut() -> T, tear_down: impl Fn(T)) -> (T, f64) {
        let (least, most) = if self.quick { (1, 1) } else { (3, 9) };
        let start = std::time::Instant::now();
        let mut seconds = Vec::new();
        let mut built: Option<T> = None;
        // A quick set-up is a noisy one: repeat it until two seconds are spent.
        while seconds.len() < least || (seconds.len() < most && start.elapsed().as_secs_f64() < 2.0)
        {
            built.take().map(&tear_down);
            let t = std::time::Instant::now();
            built = Some(build());
            seconds.push(t.elapsed().as_secs_f64());
        }
        (
            built.expect("at least one set-up"),
            measure::median(&seconds),
        )
    }
}

/// Knobs `CompileOptions::default()` reads from the environment, and the
/// test and bench harness settings: any of them would change what is
/// measured without changing the code.
fn forbidden_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            [
                "QNN_SCHEDULER",
                "QNN_CONV_DATAPATH",
                "QNN_MACRO_TICKS",
                "QNN_SCHED_REPLAY",
            ]
            .contains(&k.as_str())
                || k.starts_with("QNN_BENCH_")
                || k.starts_with("QNN_TEST_")
        })
        .collect()
}

struct Args {
    root: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    repeat: usize,
    rev: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        root: PathBuf::from("."),
        workload: None,
        seed: 11,
        seconds: None,
        traced: false,
        quick: false,
        repeat: 1,
        rev: "unknown".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value} is not {what}");
        match flag.as_str() {
            "--root" => parsed.root = PathBuf::from(value),
            "--workload" => parsed.workload = Some(value.clone()),
            "--rev" => parsed.rev = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--repeat" => parsed.repeat = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn workload_names() -> Vec<&'static str> {
    sim::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([serve::NAME])
        .collect()
}

fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    std::fs::write(path, json::pretty(value)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process; the last line printed is its result.
fn run_one(args: &Args, manifest: &Manifest, run_seconds: f64, name: &str) -> Result<(), String> {
    let plan = Plan {
        seed: args.seed,
        seconds: if args.quick {
            0.0
        } else {
            args.seconds.unwrap_or(run_seconds)
        },
        traced: args.traced,
        quick: args.quick,
    };
    let mut outcome: Outcome = match sim::WORKLOADS.iter().find(|w| w.name == name) {
        Some(w) => sim::run(w, &plan),
        None if name == serve::NAME => serve::run(&plan),
        None => {
            return Err(format!(
                "unknown workload {name}; one of {:?}",
                workload_names()
            ))
        }
    };

    let out_dir = args.root.join("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // The span list and the per-layer table are files of their own.
    for note in ["trace", "layers"] {
        if let Some(at) = outcome.notes.iter().position(|(n, _)| *n == note) {
            let (_, value) = outcome.notes.remove(at);
            let path = out_dir.join(format!("{note}_{name}.json"));
            std::fs::write(&path, format!("{value}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    let result = report::finish(manifest, plan.traced, &outcome)?;
    let mut record = vec![
        ("workload".to_string(), Value::from(name)),
        ("trace".to_string(), Value::from(u64::from(plan.traced))),
        ("seed".to_string(), Value::from(plan.seed)),
        ("seconds".to_string(), Value::Num(plan.seconds)),
        ("quick".to_string(), Value::Bool(plan.quick)),
        ("nproc".to_string(), Value::from(nproc())),
    ];
    record.extend(result.as_obj().iter().cloned());
    record.push((
        "notes".to_string(),
        Value::obj(outcome.notes.iter().cloned()),
    ));
    let pass = if plan.traced { "_traced" } else { "" };
    write_json(
        &out_dir.join(format!("{name}{pass}.json")),
        &Value::Obj(record),
    )?;
    println!("{result}");
    Ok(())
}

/// Every workload, untraced then traced, each in a process of its own so
/// that set-up time and peak memory are per workload; the records become
/// one ledger file that `compare` reads.
fn run_suite(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = args.root.join("benchmark/out");
    let mut runs = Vec::new();
    for _ in 0..args.repeat {
        for name in workload_names() {
            for traced in ["0", "1"] {
                println!("== {name} --trace {traced}");
                let mut child = Command::new(&exe);
                child
                    .arg("--root")
                    .arg(&args.root)
                    .args(["--workload", name, "--trace", traced]);
                child.args(["--seed", &args.seed.to_string()]);
                if args.quick {
                    child.arg("--quick");
                }
                if let Some(s) = args.seconds {
                    child.args(["--seconds", &s.to_string()]);
                }
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{name} --trace {traced} ended with {status}"));
                }
                let pass = if traced == "1" { "_traced" } else { "" };
                runs.push(Value::read(&out_dir.join(format!("{name}{pass}.json")))?);
            }
        }
    }
    let ledger = Value::obj([
        ("rev", Value::from(args.rev.as_str())),
        ("seed", Value::from(args.seed)),
        ("nproc", Value::from(nproc())),
        ("quick", Value::Bool(args.quick)),
        ("runs", Value::Arr(runs)),
    ]);
    let path = out_dir.join("ledger.json");
    write_json(&path, &ledger)?;
    println!("ledger written to {}", path.display());
    Ok(())
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        let [_, parent, change, rest @ ..] = &argv[..] else {
            return Err("usage: compare PARENT.json CHANGE.json [--root DIR]".to_string());
        };
        let root = parse_args(rest)?.root;
        let manifest = Manifest::load(&root.join("BENCHMARK.json"))?;
        return compare::compare(&manifest, Path::new(parent), Path::new(change));
    }
    let args = parse_args(&argv)?;
    let set = forbidden_env();
    if !set.is_empty() {
        return Err(format!(
            "refusing to measure with {set:?} set: unset them (run.sh does)"
        ));
    }
    let manifest_path = args.root.join("BENCHMARK.json");
    let manifest = Manifest::load(&manifest_path)?;
    let run_seconds = Value::read(&manifest_path)?
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    match &args.workload {
        Some(name) => run_one(&args, &manifest, run_seconds, name),
        None => run_suite(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qnn-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
