//! One measured repetition of a syncbench workload, in its own process.
//!
//! ```text
//! syncbench --workload NAME [--seed N] [--jobs N] [--mode run|trace|setup]
//!           [--out DIR] [--spawn-ns NS]
//! syncbench --calibrate [--seed N] [--jobs N] [--out DIR]
//! ```
//!
//! `run` drives the workload's registry entries through the same path as
//! `repro --jobs N <names>`: one `Sweep` over the entries, each experiment
//! nesting its own cell sweeps on the same worker count. `trace` does the
//! same with the entries that have a rebuild in [`rebuild`] swapped for it,
//! and records spans ([`trace`]). `setup` stops right before the first
//! timed call into the simulator, so `run.py` can sample set-up time on
//! its own. Artifacts land in `--out` as `<name>.txt`; the seeded
//! experiments are also re-run serially after the timed window, into
//! `<name>.serial.txt`, and a traced run writes its spans to
//! `spans.json`. One JSON line on stdout reports the measurements;
//! `syncbench/run.py` checks the artifacts and aggregates repetitions.
//!
//! `--calibrate` runs every registry entry alone and reports the simulated
//! instructions each retires: the per-experiment pins in
//! `syncbench/pinned.json`.

mod rebuild;
mod trace;

use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use sync_micro::sweep::Sweep;
use syncmark_bench::experiments::{Experiment, EXPERIMENTS};

/// The workloads: registry entries run together in one process.
const WORKLOADS: &[(&str, &[&str])] = &[
    ("paper_full", &[]), // every registry entry, in registry order
    ("multigrid_sweep", &["fig5", "fig7", "fig8"]),
    ("reduce_stream", &["allreduce", "fig16", "fig15", "table6"]),
];

/// Registry entries whose output depends on the fault seed.
const SEEDED: &[&str] = &["sync_resilience", "sync_recovery"];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Nanoseconds on a POSIX clock. `CLOCK_MONOTONIC` is the clock Python's
/// `time.monotonic_ns` reads, so `run.py`'s spawn stamp is comparable.
fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer with the C layout of `timespec`
    // on 64-bit Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Serialize)]
struct ExperimentRecord {
    name: String,
    /// Wall time the experiment occupied its registry worker.
    busy_s: f64,
    error: Option<String>,
}

#[derive(Serialize)]
struct SeededRecord {
    name: String,
    /// Instructions the serial re-run retired.
    sim_instrs: u64,
    error: Option<String>,
}

#[derive(Serialize)]
struct Rep {
    mode: String,
    jobs: usize,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    sim_instrs: u64,
    experiments: Vec<ExperimentRecord>,
    seeded: Vec<SeededRecord>,
    /// Per-layer aggregates of the traced run, `(metric, value)`.
    layers: Vec<(String, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    jobs: usize,
    mode: String,
    out: Option<PathBuf>,
    spawn_ns: Option<u64>,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: syncmark_bench::faults::DEFAULT_SEED,
        jobs: 2,
        mode: "run".into(),
        out: None,
        spawn_ns: None,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            a.calibrate = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = num(&val)?,
            "--jobs" => a.jobs = num(&val)? as usize,
            "--mode" => a.mode = val,
            "--out" => a.out = Some(val.into()),
            "--spawn-ns" => a.spawn_ns = Some(num(&val)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["run", "trace", "setup"].contains(&a.mode.as_str()) {
        return Err(format!("unknown mode {:?}", a.mode));
    }
    if a.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(a)
}

fn select(workload: &str) -> Option<Vec<&'static Experiment>> {
    let (_, names) = WORKLOADS.iter().find(|(w, _)| *w == workload)?;
    if names.is_empty() {
        return Some(EXPERIMENTS.iter().collect());
    }
    names
        .iter()
        .map(|n| EXPERIMENTS.iter().find(|(e, _, _)| e == n))
        .collect()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one registry entry, containing a panic as an error message.
fn run_one(f: fn() -> String) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("syncbench: {e}");
            std::process::exit(2);
        }
    };
    Sweep::set_default_jobs(args.jobs);
    syncmark_bench::faults::set_seed(args.seed);
    // A contained panic is reported as the experiment's error; keep the
    // default hook's backtrace text off stderr's progress output.
    std::panic::set_hook(Box::new(|info| eprintln!("syncbench: {info}")));
    if args.calibrate {
        calibrate(args.out.as_deref());
        return;
    }
    let Some(selected) = select(&args.workload) else {
        eprintln!("syncbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let traced = args.mode == "trace";
    let setup_end = clock_ns(CLOCK_MONOTONIC);
    let setup_s = args
        .spawn_ns
        .map_or(0.0, |t| setup_end.saturating_sub(t) as f64 / 1e9);
    if args.mode == "setup" {
        println!("{{\"setup_s\": {setup_s}}}");
        return;
    }

    // The timed window: the registry sweep, as `repro` runs it.
    gpu_sim::stats::reset_instrs();
    let cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
    let wall0 = Instant::now();
    let results = Sweep::new().run(selected, |&(name, _, f)| {
        let f = if traced {
            rebuild::traced(name).unwrap_or(f)
        } else {
            f
        };
        let t = Instant::now();
        let out = if traced {
            trace::cell("experiments", name, None, || run_one(f))
        } else {
            run_one(f)
        };
        (name, out, t.elapsed().as_secs_f64())
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = (clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0) as f64 / 1e9;
    let sim_instrs = gpu_sim::stats::instrs_executed();
    let peak_rss_mb = peak_rss_mb();
    let spans = trace::take_spans();
    let layers = if traced {
        layer_metrics(&spans, args.jobs)
    } else {
        Vec::new()
    };

    // Untimed: a serial re-run of the seeded entries, the reference their
    // artifacts are checked against when the seed has no pinned digest.
    Sweep::set_default_jobs(1);
    let seeded: Vec<(&str, Result<String, String>, u64)> = results
        .iter()
        .filter(|(name, _, _)| SEEDED.contains(name))
        .map(|&(name, _, _)| {
            let f = EXPERIMENTS.iter().find(|(n, _, _)| *n == name).unwrap().2;
            gpu_sim::stats::reset_instrs();
            let out = run_one(f);
            (name, out, gpu_sim::stats::instrs_executed())
        })
        .collect();

    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("syncbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let files = results
            .iter()
            .map(|(name, out, _)| (format!("{name}.txt"), out))
            .chain(
                seeded
                    .iter()
                    .map(|(name, out, _)| (format!("{name}.serial.txt"), out)),
            );
        for (file, out) in files {
            if let Ok(text) = out {
                let path = dir.join(file);
                write_or_exit(&path, text);
            }
        }
        if traced {
            let json = serde_json::to_string(&spans).expect("spans serialize");
            write_or_exit(&dir.join("spans.json"), &json);
        }
    }
    let rep = Rep {
        mode: args.mode,
        jobs: args.jobs,
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        sim_instrs,
        experiments: results
            .into_iter()
            .map(|(name, out, busy_s)| ExperimentRecord {
                name: name.into(),
                busy_s,
                error: out.err(),
            })
            .collect(),
        seeded: seeded
            .into_iter()
            .map(|(name, out, sim_instrs)| SeededRecord {
                name: name.into(),
                sim_instrs,
                error: out.err(),
            })
            .collect(),
        layers,
    };
    println!(
        "{}",
        serde_json::to_string(&rep).expect("record serializes")
    );
}

fn write_or_exit(path: &std::path::Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("syncbench: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// Instructions each registry entry retires when run alone; with `out`,
/// also the entries' artifacts.
fn calibrate(out: Option<&std::path::Path>) {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create --out");
    }
    let counts: Vec<(String, u64)> = EXPERIMENTS
        .iter()
        .map(|&(name, _, f)| {
            gpu_sim::stats::reset_instrs();
            let text = run_one(f).unwrap_or_else(|e| {
                eprintln!("syncbench: {name} failed: {e}");
                std::process::exit(1);
            });
            if let Some(dir) = out {
                write_or_exit(&dir.join(format!("{name}.txt")), &text);
            }
            (name.to_string(), gpu_sim::stats::instrs_executed())
        })
        .collect();
    println!(
        "{}",
        serde_json::to_string(&counts).expect("counts serialize")
    );
}

/// Fold the traced run's spans into the per-layer metrics. Times are
/// summed self times (a span's own work, not its children's) except where
/// the metric is about the span as a whole: an experiment's or a sweep
/// cell's busy time, and a sweep's span.
fn layer_metrics(spans: &[trace::Span], jobs: usize) -> Vec<(String, f64)> {
    let of = |layer: &'static str| spans.iter().filter(move |s| s.layer == layer);
    let secs = |ns: u64| ns as f64 / 1e9;
    let count = |layer: &'static str| of(layer).count() as f64;
    let self_s = |layer: &'static str| secs(of(layer).map(|s| s.self_ns).sum());
    let dur_s = |layer: &'static str| secs(of(layer).map(|s| s.dur_ns).sum());
    let experiment_s = |name: &str| {
        secs(
            of("experiments")
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .sum(),
        )
    };
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let sweep_span_s = dur_s("sweep");
    let sweep_busy_s = dur_s("sweep.cell");
    let engine_s = self_s("engine");
    let engine_instrs: u64 = of("engine").map(|s| s.work.instrs).sum();
    let reductions = [
        "reduction.allreduce",
        "reduction.multi_gpu_reduce",
        "reduction.device_reduce",
    ];
    let mut m: Vec<(&str, f64)> = vec![
        ("experiments.count", count("experiments")),
        ("experiments.busy_s", dur_s("experiments")),
        (
            "experiments.critical_path_s",
            secs(of("experiments").map(|s| s.dur_ns).max().unwrap_or(0)),
        ),
        ("experiments.allreduce_s", experiment_s("allreduce")),
        ("experiments.fig8_s", experiment_s("fig8")),
        ("experiments.fig16_s", experiment_s("fig16")),
        ("experiments.fig9_s", experiment_s("fig9")),
        ("sweep.cells", count("sweep.cell")),
        ("sweep.span_s", sweep_span_s),
        ("sweep.busy_s", sweep_busy_s),
        (
            "sweep.idle_frac",
            if sweep_span_s > 0.0 {
                1.0 - sweep_busy_s / (jobs as f64 * sweep_span_s)
            } else {
                0.0
            },
        ),
        ("sweep.peak_threads", trace::peak_threads() as f64),
        ("system.builds", count("system.build")),
        ("system.build_s", self_s("system.build")),
        ("system.resets", count("system.reset")),
        ("system.reset_s", self_s("system.reset")),
        ("engine.launches", count("engine")),
        ("engine.execute_s", engine_s),
        ("engine.sim_instrs", engine_instrs as f64),
        (
            "engine.warps",
            of("engine").map(|s| s.work.warps).sum::<u64>() as f64,
        ),
        (
            "engine.sim_us",
            of("engine").fold(0.0, |t, s| t + s.work.sim_us),
        ),
        (
            "engine.host_ns_per_instr",
            per(engine_s * 1e9, engine_instrs as f64),
        ),
        ("reduction.calls", reductions.iter().map(|l| count(l)).sum()),
        ("reduction.allreduce_s", self_s("reduction.allreduce")),
        (
            "reduction.multi_gpu_reduce_s",
            self_s("reduction.multi_gpu_reduce"),
        ),
        (
            "reduction.device_reduce_s",
            self_s("reduction.device_reduce"),
        ),
        (
            "reduction.bytes",
            spans
                .iter()
                .filter(|s| reductions.contains(&s.layer))
                .map(|s| s.work.bytes)
                .sum::<u64>() as f64,
        ),
        ("report.render_s", self_s("report")),
        (
            "report.bytes",
            of("report").map(|s| s.work.bytes).sum::<u64>() as f64,
        ),
    ];
    m.sort_by_key(|(k, _)| *k);
    m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}
