//! The sweep engine must be invisible in the output: any artifact rendered
//! at `--jobs 1` must be byte-identical at `--jobs 8`. Collection is
//! slot-indexed, so completion order cannot leak into the tables; this test
//! pins that guarantee on a single- and a multi-GPU figure and on the
//! single-GPU, multi-GPU and fused-pipeline syncprof bundles.
//!
//! Everything lives in one `#[test]` because the sweep default-jobs knob is process
//! global and libtest runs test functions concurrently.

use gpu_arch::GpuArch;
use sync_micro::{grid_sync, multi_grid};
use syncmark_bench::profiling;

fn small(mut a: GpuArch) -> GpuArch {
    a.num_sms = 8;
    a
}

/// The `--profile` bundles compared across worker counts.
const PROFILES: [&str; 3] = ["grid_sync", "figure9", "fused_pipeline"];

/// One full `--profile <name>` run: (summary, ProfileReport JSON, Chrome
/// trace).
fn profile_artifacts(name: &str) -> (String, String, String) {
    let (_, _, f) = profiling::find(name).unwrap();
    let run = f().unwrap();
    (run.summary, run.report.to_json(), run.trace_json)
}

fn all_profiles() -> Vec<(String, String, String)> {
    PROFILES.iter().map(|n| profile_artifacts(n)).collect()
}

fn render_fig5(arch: &GpuArch) -> String {
    grid_sync::figure5(arch).unwrap().render().render()
}

fn render_fig7(arch: &GpuArch) -> String {
    let fig = multi_grid::figure7(arch).unwrap();
    fig.maps
        .iter()
        .map(|(_, hm)| hm.render().render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn rendered_tables_are_byte_identical_across_worker_counts() {
    let v100 = small(GpuArch::v100());
    let p100 = small(GpuArch::p100());

    sync_micro::sweep::Sweep::set_default_jobs(1);
    let fig5_serial = render_fig5(&v100);
    let fig7_serial = render_fig7(&p100);
    let profiles_serial = all_profiles();

    sync_micro::sweep::Sweep::set_default_jobs(8);
    let fig5_parallel = render_fig5(&v100);
    let fig7_parallel = render_fig7(&p100);
    let profiles_parallel = all_profiles();

    sync_micro::sweep::Sweep::set_default_jobs(0);

    assert_eq!(fig5_serial, fig5_parallel, "figure5 differs across jobs");
    assert_eq!(fig7_serial, fig7_parallel, "figure7 differs across jobs");
    // syncprof artifacts are part of the same guarantee: sweep-cell profiles
    // merge in plan order, so summary, report and trace bytes cannot depend
    // on --jobs.
    for (name, (serial, parallel)) in PROFILES
        .iter()
        .zip(profiles_serial.iter().zip(&profiles_parallel))
    {
        assert_eq!(serial.0, parallel.0, "{name} summary differs across jobs");
        assert_eq!(
            serial.1, parallel.1,
            "{name} ProfileReport JSON differs across jobs"
        );
        assert_eq!(
            serial.2, parallel.2,
            "{name} Chrome trace differs across jobs"
        );
    }
    // Sanity: the tables actually contain data, not just headers.
    assert!(fig5_serial.lines().count() > 5);
    assert!(fig7_serial.lines().count() > 10);
    let (_, grid_report, grid_trace) = &profiles_serial[0];
    assert!(grid_report.contains("grid_wait_ps"), "{grid_report}");
    assert!(grid_trace.contains("sync.grid"));
}
