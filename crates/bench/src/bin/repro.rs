//! Regenerate the paper's tables and figures on the simulated platforms.
//!
//! ```text
//! repro list                  # show available experiments
//! repro all                   # run everything (slow but complete)
//! repro table2 fig5 ...       # run specific artifacts
//! repro --jobs 8 all          # run the registry (and inner sweeps) on 8 workers
//! repro --out results all     # additionally write one .txt per artifact
//! repro --check               # synchronization-hazard audit; exits nonzero
//!                             # on any unsuppressed violation (the CI gate)
//! repro --scorecard           # run the seeded bug corpus and print the
//!                             # per-pass / per-class detection scorecard
//! repro --scorecard --scorecard-gate SCORECARD.json
//!                             # additionally fail if any (pass, class)
//!                             # recall drops below the baseline file
//! repro --profile grid_sync   # re-run an experiment with syncprof armed:
//!                             # summary to stdout, artifacts under --out
//! repro --bench               # run the fixed perf suite and write the
//!                             # tracked baseline (BENCH_10.json) to the
//!                             # current directory
//! repro --faults 7 sync_resilience
//!                             # seed for the fault-injection experiments
//! ```
//!
//! Every artifact lands under the one `--out DIR` with a fixed per-artifact
//! filename (the old `--bench-out` / `--scorecard-out` spellings are
//! rejected with a pointer here):
//!
//! ```text
//! experiments      DIR/<name>.txt
//! --profile NAME   DIR/<name>.profile.json, DIR/<name>.trace.json
//! --check          DIR/audit.json
//! --scorecard      DIR/SCORECARD.json
//! --bench          DIR/BENCH_10.json
//! ```
//!
//! Without `--out`, experiments/audit/scorecard print to stdout only and
//! `--bench` writes its baseline to the current directory. Modes compose in
//! one invocation because the filenames cannot collide; `--out` naming an
//! existing non-directory is a conflict and exits 2.
//!
//! Experiment names are validated up front: a typo anywhere in the argument
//! list aborts before any experiment runs or the `--out` directory is
//! created, so a failed invocation never leaves partial results behind.
//!
//! Experiment *failures* (an error or panic inside one runner) do not stop
//! the others: every requested experiment runs, successes are printed and
//! written to `--out` as usual, and a deterministic per-experiment error
//! summary goes to stderr before the process exits nonzero.
//!
//! Output order on stdout is always the requested order, independent of
//! `--jobs` — per-experiment wall-clock progress goes to stderr instead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use syncmark_bench::experiments::{Experiment, EXPERIMENTS};
use syncmark_bench::profiling;

fn usage_and_list() {
    println!(
        "usage: repro [--jobs N] [--out DIR] [--check] [--scorecard] \
         [--scorecard-gate PATH] [--bench] [--faults SEED] \
         [--profile NAME]... [all | list | <experiment>...]\n"
    );
    println!("artifacts land under the one --out DIR with fixed names:");
    println!("  experiments     DIR/<name>.txt");
    println!("  --profile NAME  DIR/<name>.profile.json, DIR/<name>.trace.json");
    println!("  --check         DIR/audit.json");
    println!("  --scorecard     DIR/{SCORECARD_FILE}");
    println!(
        "  --bench         DIR/{} (current directory without --out)\n",
        syncmark_bench::perf::DEFAULT_BENCH_FILE
    );
    println!("available experiments:");
    for (name, desc, _) in EXPERIMENTS {
        println!("  {name:<10} {desc}");
    }
    println!("\nsyncprof profiles (--profile):");
    for (name, desc, _) in profiling::PROFILES {
        println!("  {name:<10} {desc}");
    }
}

/// Fixed `--out` filename of the scorecard JSON (matches the tracked
/// baseline artifact at the repo root).
const SCORECARD_FILE: &str = "SCORECARD.json";

/// Run one syncprof profile: summary to stdout; when `--out` was given,
/// `<name>.profile.json` and `<name>.trace.json` land next to it.
fn run_profile(name: &str, out_dir: Option<&std::path::Path>) {
    let Some((_, _, f)) = profiling::find(name) else {
        eprintln!("unknown profile {name:?} — try `repro list`");
        std::process::exit(2);
    };
    let t = Instant::now();
    let run = match f() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[repro] profile {name} failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "[repro] profile {name:<12} {:8.2}s",
        t.elapsed().as_secs_f64()
    );
    println!("{}", run.summary);
    if let Some(dir) = out_dir {
        for (suffix, bytes) in [
            ("profile.json", run.report.to_json()),
            ("trace.json", run.trace_json),
        ] {
            let path = dir.join(format!("{name}.{suffix}"));
            if let Err(e) = std::fs::write(&path, &bytes) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[repro] wrote {}", path.display());
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        if pos + 1 >= args.len() {
            eprintln!("--jobs requires a worker count");
            std::process::exit(2);
        }
        let n: usize = match args[pos + 1].parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--jobs requires a number, got {:?}", args[pos + 1]);
                std::process::exit(2);
            }
        };
        sync_micro::sweep::Sweep::set_default_jobs(n);
        args.drain(pos..pos + 2);
    }
    // The per-artifact output flags were unified under `--out DIR`; reject
    // the old spellings with a pointer instead of silently ignoring them.
    for (old, new) in [
        ("--bench-out", "--bench --out DIR writes DIR/BENCH_10.json"),
        (
            "--scorecard-out",
            "--scorecard --out DIR writes DIR/SCORECARD.json",
        ),
    ] {
        if args.iter().any(|a| a == old) {
            eprintln!("{old} was replaced by the unified --out convention: {new}");
            std::process::exit(2);
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--faults") {
        if pos + 1 >= args.len() {
            eprintln!("--faults requires a seed");
            std::process::exit(2);
        }
        let seed: u64 = match args[pos + 1].parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--faults requires a number, got {:?}", args[pos + 1]);
                std::process::exit(2);
            }
        };
        syncmark_bench::faults::set_seed(seed);
        args.drain(pos..pos + 2);
    }
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out requires a directory");
            std::process::exit(2);
        }
        out_dir = Some(args.remove(pos + 1).into());
        args.remove(pos);
    }
    if let Some(dir) = &out_dir {
        if dir.exists() && !dir.is_dir() {
            eprintln!(
                "--out {} names an existing file; pass a directory (artifacts \
                 get fixed per-mode filenames under it)",
                dir.display()
            );
            std::process::exit(2);
        }
    }
    let mut profiles: Vec<String> = Vec::new();
    while let Some(pos) = args.iter().position(|a| a == "--profile") {
        if pos + 1 >= args.len() {
            eprintln!("--profile requires a profile name — try `repro list`");
            std::process::exit(2);
        }
        profiles.push(args.remove(pos + 1));
        args.remove(pos);
    }
    // Validate profile names up front, like experiment names below: a typo
    // aborts before anything runs or the --out directory is created.
    let bad_profiles: Vec<&String> = profiles
        .iter()
        .filter(|n| profiling::find(n).is_none())
        .collect();
    if !bad_profiles.is_empty() {
        for name in bad_profiles {
            eprintln!("unknown profile {name:?} — try `repro list`");
        }
        std::process::exit(2);
    }
    if !profiles.is_empty() {
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
        for name in &profiles {
            run_profile(name, out_dir.as_deref());
        }
        if args.is_empty() {
            return;
        }
    }
    if let Some(pos) = args.iter().position(|a| a == "--bench") {
        args.remove(pos);
        use syncmark_bench::perf;
        let path = match &out_dir {
            Some(dir) => dir.join(perf::DEFAULT_BENCH_FILE),
            None => perf::DEFAULT_BENCH_FILE.into(),
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
        let records = perf::run_suite();
        let json = perf::to_json(&records);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "[repro] wrote {} ({} experiments, {} worker(s))",
            path.display(),
            records.len(),
            sync_micro::sweep::jobs()
        );
        if args.is_empty() {
            return;
        }
    }
    let mut scorecard_gate: Option<std::path::PathBuf> = None;
    if let Some(pos) = args.iter().position(|a| a == "--scorecard-gate") {
        if pos + 1 >= args.len() {
            eprintln!("--scorecard-gate requires a baseline file path");
            std::process::exit(2);
        }
        scorecard_gate = Some(args.remove(pos + 1).into());
        args.remove(pos);
    }
    if let Some(pos) = args.iter().position(|a| a == "--scorecard") {
        args.remove(pos);
        // Like the audit, the corpus runs serially in a fixed order: the
        // scorecard must be byte-identical whatever `--jobs` was set to.
        let sc = synccheck::corpus::scorecard();
        print!("{}", sc.render());
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            let path = dir.join(SCORECARD_FILE);
            if let Err(e) = std::fs::write(&path, sc.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[repro] wrote {}", path.display());
        }
        if let Some(path) = &scorecard_gate {
            let baseline = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read baseline {}: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let baseline = match synccheck::corpus::Scorecard::from_json(&baseline) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("baseline {} is not a scorecard: {e}", path.display());
                    std::process::exit(2);
                }
            };
            let violations = sc.recall_regressions(&baseline);
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("[repro] scorecard regression: {v}");
                }
                std::process::exit(1);
            }
            eprintln!("[repro] scorecard recall gate passed");
        }
        if args.is_empty() {
            return;
        }
    } else if scorecard_gate.is_some() {
        eprintln!("--scorecard-gate is only meaningful with --scorecard");
        std::process::exit(2);
    }
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        args.remove(pos);
        // The audit is deliberately serial and jobs-independent: its report
        // must be byte-identical whatever `--jobs` was set to.
        let report = synccheck::audit();
        print!("{}", report.render());
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            let path = dir.join("audit.json");
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[repro] wrote {}", path.display());
        }
        let bad = report.unsuppressed();
        if bad > 0 {
            eprintln!("[repro] synccheck: {bad} unsuppressed violation(s)");
            std::process::exit(1);
        }
        if args.is_empty() {
            return;
        }
    }
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        usage_and_list();
        return;
    }
    let names: Vec<&str> = if args[0] == "all" {
        EXPERIMENTS.iter().map(|(n, _, _)| *n).collect()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Validate every name before running anything (or touching --out).
    let mut selected: Vec<&Experiment> = Vec::new();
    let mut unknown = Vec::new();
    for name in &names {
        match EXPERIMENTS.iter().find(|(n, _, _)| n == name) {
            Some(e) => selected.push(e),
            None => unknown.push(*name),
        }
    }
    if !unknown.is_empty() {
        for name in unknown {
            eprintln!("unknown experiment {name:?} — try `repro list`");
        }
        std::process::exit(2);
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    // Run the registry entries themselves as a sweep (experiments nest their
    // own cell-level sweeps on the same worker setting). A panic inside one
    // runner is contained to its cell: the rest still complete, partial
    // results still land in --out, and the failure is reported at the end.
    // Pad progress names to the longest registry name so the time column
    // lines up whatever subset runs.
    let width = EXPERIMENTS
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0);
    let wall = Instant::now();
    let results = sync_micro::sweep::Sweep::new().run(selected, |(name, _, f)| {
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string())
        });
        let dt = t.elapsed();
        eprintln!("[repro] {name:<width$} {:8.2}s", dt.as_secs_f64());
        (*name, out)
    });
    let mut failed = Vec::new();
    for (name, out) in &results {
        match out {
            Ok(out) => {
                println!("{out}");
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{name}.txt"));
                    if let Err(e) = std::fs::write(&path, out) {
                        eprintln!("cannot write {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            Err(msg) => failed.push((name, msg)),
        }
    }
    eprintln!(
        "[repro] {} experiment(s) in {:.2}s on {} worker(s)",
        results.len(),
        wall.elapsed().as_secs_f64(),
        sync_micro::sweep::jobs()
    );
    if !failed.is_empty() {
        // Requested order, so the failure summary is as deterministic as
        // the results themselves.
        for (name, msg) in &failed {
            eprintln!("[repro] FAILED {name}: {msg}");
        }
        eprintln!(
            "[repro] {} of {} experiment(s) failed; partial results were kept",
            failed.len(),
            results.len()
        );
        std::process::exit(1);
    }
}
