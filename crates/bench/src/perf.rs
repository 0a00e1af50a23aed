//! `repro --bench`: the tracked simulator-performance suite.
//!
//! Five fixed workloads spanning the engine's regimes — full-chip sweeps
//! (figure5), multi-GPU barriers (figure9), host-side launch modeling
//! (table1), the amortized small-cell sweep path (sync_heatmap), and the
//! memory-system reduction models (reduction) — each timed once and written
//! to [`DEFAULT_BENCH_FILE`] at the invocation directory (CI runs from the
//! repo root, so the file lands there as the tracked perf trajectory), or
//! under `--out <dir>`.
//!
//! `wall_ms` and `instrs_per_sec` are machine-dependent; `experiment`,
//! `instrs_executed`, and `jobs`-invariance of the instruction counts are
//! deterministic — CI diffs `instrs_executed` between `--jobs 1` and
//! `--jobs 8` runs to prove the parallel sweep engine simulates exactly the
//! same work at any worker count.

use gpu_arch::GpuArch;
use gpu_sim::kernels::SyncOp;
use serde::Serialize;
use std::time::Instant;
use sync_micro::measure::Placement;
use sync_micro::{grid_sync, sweep};

/// Where `repro --bench` writes when `--out` is not given: the tracked
/// perf-baseline file for this PR generation.
pub const DEFAULT_BENCH_FILE: &str = "BENCH_10.json";

/// One suite entry of the bench file.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    pub experiment: String,
    /// Wall-clock of the experiment, milliseconds (machine-dependent).
    pub wall_ms: f64,
    /// Simulated instructions executed across every launch of the
    /// experiment — deterministic and identical at any `--jobs` value.
    pub instrs_executed: u64,
    /// Simulator throughput (machine-dependent).
    pub instrs_per_sec: f64,
    /// Worker count the sweeps ran on.
    pub jobs: usize,
}

/// The sweep bench's workload: the Fig. 5 grid-sync heatmap on a cut-down
/// 8-SM V100 — many small cells, so it isolates the per-cell amortization
/// (kernel interning + `GpuSystem` reuse) rather than raw engine speed.
fn sync_heatmap_case() -> String {
    let mut arch = GpuArch::v100();
    arch.num_sms = 8;
    let hm = grid_sync::sync_heatmap(&arch, &Placement::single(), SyncOp::Grid, "bench")
        .expect("sync_heatmap");
    hm.render().render()
}

/// The four single-GPU reduction methods at a bandwidth-bound size on V100:
/// exercises `MemStream`, the host stream model, and the block/grid
/// reduction tails.
fn reduction_case() -> String {
    let arch = GpuArch::v100();
    let mut s = String::new();
    for m in reduction::DeviceReduceMethod::ALL {
        let sample = reduction::measure_device_reduce(&arch, m, 1 << 22).expect("reduction");
        assert!(sample.correct, "{m:?} reduced to a wrong value");
        s.push_str(&format!("{}: {:.3} us\n", sample.method, sample.latency_us));
    }
    s
}

/// One suite entry: (name, runner).
pub type BenchCase = (&'static str, fn() -> String);

/// The fixed suite: name → runner. Names are stable across PRs so the
/// `BENCH_*.json` trajectory stays comparable.
pub const SUITE: &[BenchCase] = &[
    ("figure5", crate::experiments::figure5),
    ("figure9", crate::experiments::figure9),
    ("table1", crate::experiments::table1),
    ("sync_heatmap", sync_heatmap_case),
    ("reduction", reduction_case),
];

/// Run the suite, reporting per-experiment throughput on stderr.
pub fn run_suite() -> Vec<BenchRecord> {
    let jobs = sweep::jobs();
    SUITE
        .iter()
        .map(|&(name, f)| {
            gpu_sim::stats::reset_instrs();
            let t = Instant::now();
            let out = f();
            let wall = t.elapsed();
            assert!(!out.is_empty(), "{name} produced no output");
            let instrs = gpu_sim::stats::instrs_executed();
            let ips = instrs as f64 / wall.as_secs_f64();
            eprintln!(
                "[bench] {name:<12} {:9.1} ms  {instrs:>12} instrs  {:8.2} M instr/s",
                wall.as_secs_f64() * 1e3,
                ips / 1e6,
            );
            BenchRecord {
                experiment: name.to_string(),
                wall_ms: wall.as_secs_f64() * 1e3,
                instrs_executed: instrs,
                instrs_per_sec: ips,
                jobs,
            }
        })
        .collect()
}

/// Serialize suite records in the tracked bench-file shape.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut s = serde_json::to_string_pretty(records).expect("bench records serialize");
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_are_unique_and_fixed() {
        let names: Vec<&str> = SUITE.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["figure5", "figure9", "table1", "sync_heatmap", "reduction"]
        );
    }

    #[test]
    fn records_serialize_with_all_fields() {
        let json = to_json(&[BenchRecord {
            experiment: "x".into(),
            wall_ms: 1.5,
            instrs_executed: 10,
            instrs_per_sec: 6666.6,
            jobs: 2,
        }]);
        for field in [
            "experiment",
            "wall_ms",
            "instrs_executed",
            "instrs_per_sec",
            "jobs",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    /// A suite workload renders identically at any worker count. (The
    /// matching `instrs_executed` invariance is CI's job: unit tests share
    /// the process-wide counter with concurrently running launches, so only
    /// the single-process `repro --bench` runs can diff it meaningfully.)
    #[test]
    fn heatmap_output_is_jobs_invariant() {
        sweep::Sweep::set_default_jobs(1);
        let a = sync_heatmap_case();
        sweep::Sweep::set_default_jobs(4);
        let b = sync_heatmap_case();
        sweep::Sweep::set_default_jobs(0);
        assert_eq!(a, b);
    }
}
