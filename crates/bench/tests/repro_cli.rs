//! End-to-end checks of the `repro` binary: upfront name validation (no
//! side effects on a typo) and deterministic stdout ordering under --jobs.

use std::path::Path;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn unknown_name_fails_fast_without_creating_out_dir() {
    let out = std::env::temp_dir().join("syncmark-repro-cli-unknown-out");
    let _ = std::fs::remove_dir_all(&out);
    let r = repro()
        .args(["--out", out.to_str().unwrap(), "table2", "no-such-figure"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2), "expected exit 2 on unknown name");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("no-such-figure"),
        "stderr names the bad experiment: {stderr}"
    );
    // Nothing ran, nothing was written: validation precedes all side effects.
    assert!(
        !Path::new(&out).exists(),
        "--out dir must not be created when validation fails"
    );
    let stdout = String::from_utf8_lossy(&r.stdout);
    assert!(
        stdout.is_empty(),
        "no experiment output on failure: {stdout}"
    );
}

#[test]
fn list_names_every_experiment() {
    let r = repro().arg("list").output().unwrap();
    assert!(r.status.success());
    let stdout = String::from_utf8_lossy(&r.stdout);
    for name in ["table2", "fig5", "fig7", "table7", "deadlocks"] {
        assert!(stdout.contains(name), "list is missing {name}: {stdout}");
    }
}

#[test]
fn bad_jobs_value_is_rejected() {
    let r = repro().args(["--jobs", "many", "table7"]).output().unwrap();
    assert_eq!(r.status.code(), Some(2));
}

#[test]
fn profile_writes_artifacts_and_is_jobs_independent() {
    let out1 = std::env::temp_dir().join("syncmark-repro-cli-profile-j1");
    let out8 = std::env::temp_dir().join("syncmark-repro-cli-profile-j8");
    for (jobs, out) in [("1", &out1), ("8", &out8)] {
        let _ = std::fs::remove_dir_all(out);
        let r = repro()
            .args([
                "--jobs",
                jobs,
                "--out",
                out.to_str().unwrap(),
                "--profile",
                "grid_sync",
            ])
            .output()
            .unwrap();
        assert!(r.status.success(), "profile run failed at --jobs {jobs}");
        let stdout = String::from_utf8_lossy(&r.stdout);
        assert!(
            stdout.contains("syncprof:"),
            "summary missing syncprof block: {stdout}"
        );
    }
    for suffix in ["profile.json", "trace.json"] {
        let a = std::fs::read(out1.join(format!("grid_sync.{suffix}"))).unwrap();
        let b = std::fs::read(out8.join(format!("grid_sync.{suffix}"))).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "grid_sync.{suffix} differs between --jobs 1 and 8");
    }
    // The report attributes real grid-scope barrier wait (Fig. 5's subject).
    let report = std::fs::read_to_string(out1.join("grid_sync.profile.json")).unwrap();
    let nonzero_grid_wait = report
        .lines()
        .any(|l| l.contains("\"grid_wait_ps\"") && !l.contains("\"grid_wait_ps\": 0"));
    assert!(nonzero_grid_wait, "no nonzero grid_wait_ps in {report}");
    let trace = std::fs::read_to_string(out1.join("grid_sync.trace.json")).unwrap();
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("sync.grid"));
    let _ = std::fs::remove_dir_all(&out1);
    let _ = std::fs::remove_dir_all(&out8);
}

#[test]
fn unknown_profile_fails_fast_without_creating_out_dir() {
    let out = std::env::temp_dir().join("syncmark-repro-cli-unknown-profile-out");
    let _ = std::fs::remove_dir_all(&out);
    let r = repro()
        .args([
            "--out",
            out.to_str().unwrap(),
            "--profile",
            "no-such-profile",
        ])
        .output()
        .unwrap();
    assert_eq!(
        r.status.code(),
        Some(2),
        "expected exit 2 on unknown profile"
    );
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(
        stderr.contains("no-such-profile"),
        "stderr names the bad profile: {stderr}"
    );
    assert!(
        !Path::new(&out).exists(),
        "--out dir must not be created when profile validation fails"
    );
}

#[test]
fn list_names_every_profile() {
    let r = repro().arg("list").output().unwrap();
    assert!(r.status.success());
    let stdout = String::from_utf8_lossy(&r.stdout);
    for name in ["grid_sync", "figure9", "table1"] {
        assert!(
            stdout.contains(name),
            "list is missing profile {name}: {stdout}"
        );
    }
}

#[test]
fn parallel_run_prints_outputs_in_request_order() {
    // Two cheap experiments; with --jobs 2 they run concurrently but stdout
    // must still follow the requested order, byte-identical to serial.
    let serial = repro()
        .args(["--jobs", "1", "deadlocks", "table7"])
        .output()
        .unwrap();
    assert!(serial.status.success(), "serial run failed");
    let parallel = repro()
        .args(["--jobs", "2", "deadlocks", "table7"])
        .output()
        .unwrap();
    assert!(parallel.status.success(), "parallel run failed");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "stdout must not depend on --jobs"
    );
    let out = String::from_utf8_lossy(&serial.stdout);
    let d = out.find("DEADLOCK").expect("deadlocks output present");
    let t = out.find("Table VII").expect("table7 output present");
    assert!(d < t, "outputs out of request order");
}

#[test]
fn scorecard_is_byte_identical_across_jobs_and_matches_baseline() {
    let d1 = std::env::temp_dir().join("syncmark-repro-cli-scorecard-j1");
    let d8 = std::env::temp_dir().join("syncmark-repro-cli-scorecard-j8");
    for (jobs, dir) in [("1", &d1), ("8", &d8)] {
        let _ = std::fs::remove_dir_all(dir);
        let r = repro()
            .args([
                "--jobs",
                jobs,
                "--scorecard",
                "--out",
                dir.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(r.status.success(), "scorecard run failed at --jobs {jobs}");
        let stdout = String::from_utf8_lossy(&r.stdout);
        assert!(stdout.contains("bug-corpus scorecard"), "{stdout}");
        assert!(stdout.contains("global-racecheck"), "{stdout}");
    }
    let a = std::fs::read(d1.join("SCORECARD.json")).unwrap();
    let b = std::fs::read(d8.join("SCORECARD.json")).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "SCORECARD.json differs between --jobs 1 and 8");
    // The generated scorecard must also satisfy its own recall gate.
    let baseline = d1.join("SCORECARD.json");
    let r = repro()
        .args([
            "--scorecard",
            "--scorecard-gate",
            baseline.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(r.status.success(), "self-gate failed");
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("recall gate passed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d8);
}

#[test]
fn scorecard_gate_fails_on_recall_regression() {
    // Inflate one baseline recall figure above anything achievable: the
    // gate must report the regression and exit nonzero.
    let dir = std::env::temp_dir().join("syncmark-repro-cli-scorecard-inflated");
    let _ = std::fs::remove_dir_all(&dir);
    let r = repro()
        .args(["--scorecard", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(r.status.success());
    let base = dir.join("SCORECARD.json");
    let json = std::fs::read_to_string(&base).unwrap();
    // "recall_permille": 0 → 1000 for some (pass, class) that detects nothing.
    let inflated = json.replacen("\"recall_permille\": 0", "\"recall_permille\": 1000", 1);
    assert_ne!(json, inflated, "expected at least one zero-recall entry");
    std::fs::write(&base, inflated).unwrap();
    let r = repro()
        .args(["--scorecard", "--scorecard-gate", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        r.status.code(),
        Some(1),
        "inflated baseline must fail the gate"
    );
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("dropped below baseline"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_out_writes_audit_json() {
    let dir = std::env::temp_dir().join("syncmark-repro-cli-audit");
    let _ = std::fs::remove_dir_all(&dir);
    let r = repro()
        .args(["--check", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(r.status.success(), "audit failed");
    let path = dir.join("audit.json");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"kernels\""), "{json}");
    assert!(json.contains("warp-probe"), "{json}");
    assert!(json.ends_with('\n'));
    // Byte-identical on a second run (and at a different --jobs).
    let again = std::env::temp_dir().join("syncmark-repro-cli-audit2");
    let _ = std::fs::remove_dir_all(&again);
    let r = repro()
        .args(["--jobs", "8", "--check", "--out", again.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(r.status.success());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(again.join("audit.json")).unwrap(),
        "audit JSON must be byte-deterministic"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&again);
}

/// One `--out DIR` serves every mode in a single invocation: fixed
/// per-artifact filenames cannot collide, so `--check` composes with
/// experiment output (the pre-unification CLI refused this).
#[test]
fn check_composes_with_experiments_under_one_out_dir() {
    let dir = std::env::temp_dir().join("syncmark-repro-cli-compose");
    let _ = std::fs::remove_dir_all(&dir);
    let r = repro()
        .args(["--check", "--out", dir.to_str().unwrap(), "deadlocks"])
        .output()
        .unwrap();
    assert!(r.status.success(), "composed run failed");
    assert!(dir.join("audit.json").exists(), "audit artifact missing");
    assert!(
        dir.join("deadlocks.txt").exists(),
        "experiment artifact missing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_naming_an_existing_file_is_a_conflict() {
    let path = std::env::temp_dir().join("syncmark-repro-cli-out-file-conflict");
    std::fs::write(&path, b"not a directory").unwrap();
    let r = repro()
        .args(["--out", path.to_str().unwrap(), "deadlocks"])
        .output()
        .unwrap();
    assert_eq!(r.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains("names an existing file"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn removed_output_flags_are_rejected_with_a_pointer() {
    for (flag, artifact) in [
        ("--bench-out", "BENCH_10.json"),
        ("--scorecard-out", "SCORECARD.json"),
    ] {
        let r = repro().args([flag, "x.json"]).output().unwrap();
        assert_eq!(r.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert!(
            stderr.contains("--out") && stderr.contains(artifact),
            "{flag} rejection must point at the --out convention: {stderr}"
        );
    }
}

/// Every `[repro] <name> <secs>s` progress line ends its right-aligned
/// time column at the same offset, however long the names in the run are.
#[test]
fn progress_lines_align_their_time_column() {
    let names = [
        "table1",
        "sync_recovery",
        "sync_resilience",
        "fused_pipeline",
    ];
    let r = repro().args(["--jobs", "2"]).args(names).output().unwrap();
    assert!(r.status.success(), "run failed");
    let stderr = String::from_utf8_lossy(&r.stderr);
    let ends: Vec<usize> = stderr
        .lines()
        .filter(|l| {
            let mut fields = l.split_whitespace();
            fields.next() == Some("[repro]")
                && fields.next().is_some_and(|n| names.contains(&n))
                && fields
                    .next()
                    .and_then(|t| t.strip_suffix('s'))
                    .is_some_and(|t| t.parse::<f64>().is_ok())
                && fields.next().is_none()
        })
        .map(str::len)
        .collect();
    assert_eq!(
        ends.len(),
        names.len(),
        "one progress line per name: {stderr}"
    );
    assert!(
        ends.iter().all(|&e| e == ends[0]),
        "time columns misaligned: {stderr}"
    );
}
