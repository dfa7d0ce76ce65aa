//! The end-to-end + per-layer benchmark of the wren-rt cluster.
//! `README.md` beside this package defines every workload and metric.

mod direct;
mod gen;
mod live;
mod procfs;
mod replay;
mod report;
mod span;
mod spec;
mod stats;
mod trace;

use gen::{TxStream, RING_LEN};
use live::LivePlan;
use report::RunResult;
use spec::WorkloadDef;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Every measured slice is this long; `--seconds` sets how many there are.
const SLICE_LEN: Duration = Duration::from_secs(2);

const USAGE: &str = "usage: wren-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--repeat N] [--smoke]
  --workload  tcp_small | chan_paper | durable_always | durable_window (default: all four)
  --seed      input seed (default 1)
  --seconds   measured seconds, a multiple of the 2 s slice (default 24)
  --trace     1: the traced run that prints the per-layer metrics
  --repeat    N untraced runs on seeds seed..seed+N, a process each, and the spread per metric
  --smoke     all checks on, 2 slices of 0.5 s per workload";

struct Args {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 24,
        trace: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(spec::find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // Bare `--trace` means 1.
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds < 2 * SLICE_LEN.as_secs() {
        return Err(format!(
            "--seconds must cover at least two {SLICE_LEN:?} slices"
        ));
    }
    Ok(args)
}

/// `benchmark/out`, beside the manifest this was built from: inside the
/// checkout wherever the command was started from.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn plan(args: &Args) -> LivePlan {
    if args.smoke {
        return LivePlan {
            slices: 2,
            slice_len: Duration::from_millis(500),
            warmup: Duration::from_millis(500),
            setups: (1, 1),
            probes_per_round: 5,
            calib: Duration::from_millis(20),
            spans: args.trace,
        };
    }
    let slices = (args.seconds / SLICE_LEN.as_secs()) as usize;
    LivePlan {
        // A traced run spends half its time live, the rest on the
        // replay and the direct calls.
        slices: if args.trace { slices / 2 } else { slices },
        slice_len: SLICE_LEN,
        warmup: Duration::from_secs(2),
        setups: if args.trace { (1, 1) } else { (3, 15) },
        probes_per_round: 20,
        calib: Duration::from_millis(50),
        spans: args.trace,
    }
}

/// One run in this process: the report, then the result.
fn run_here(
    def: &WorkloadDef,
    seed: u64,
    plan: &LivePlan,
    out: &Path,
) -> Result<RunResult, String> {
    let streams = [
        TxStream::generate(def, 0, seed, RING_LEN),
        TxStream::generate(def, 1, seed, RING_LEN),
    ];
    let mut live = live::run(def, &streams, plan, out)?;
    report::print_live(def, seed, plan, &live);
    let metrics = if plan.spans {
        trace::run(def, seed, &streams, &mut live, out)?
    } else {
        report::end_to_end(&live)
    };
    report::print_checks(&live);
    // The unbounded load metrics, machine-readable for `--repeat`.
    println!(
        "load {}",
        report::result(&live, report::load_metrics(&live)).to_json()
    );
    Ok(report::result(&live, metrics))
}

/// One run of `--repeat`, in a process of its own as the driver makes
/// them (peak memory and allocator state do not carry over).
fn run_child(def: &WorkloadDef, seed: u64, args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", def.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(args.smoke.then_some("--smoke"))
        .output()
        .map_err(|e| format!("start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(RunResult::from_json);
    let load = lines
        .next()
        .and_then(|l| RunResult::from_json(l.strip_prefix("load ")?));
    match (result, load) {
        (Some(mut result), Some(load)) => {
            result.metrics.extend(load.metrics);
            Ok(result)
        }
        _ => Err(format!(
            "run printed no result: {}",
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let defs: Vec<&WorkloadDef> = match args.workload {
        Some(def) => vec![def],
        None => spec::WORKLOADS.iter().collect(),
    };
    let out = out_dir();
    let plan = plan(&args);
    let mut ok = true;
    for def in defs {
        let mut runs = Vec::new();
        for seed in (args.seed..).take(args.repeat.max(1)) {
            let run = if args.repeat > 1 {
                run_child(def, seed, &args)
            } else {
                run_here(def, seed, &plan, &out)
            };
            match run {
                Ok(result) => {
                    ok &= result.correct;
                    // The last line of a run: the result object.
                    println!("{}", result.to_json());
                    runs.push(result);
                }
                Err(e) => {
                    eprintln!("error: {} seed {seed}: {e}", def.name);
                    ok = false;
                }
            }
        }
        if args.repeat > 1 {
            report::print_spread(def, &runs);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
