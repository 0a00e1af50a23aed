//! The traced run's experiments, rebuilt from the layers' public calls.
//!
//! Each function here renders the same bytes and runs the same simulations
//! as its `syncmark_bench::experiments` namesake, but makes every call into
//! a layer from this crate so the call can be timed: sweeps
//! (`Sweep::run`/`try_run`), system builds and resets, `GpuSystem::execute`
//! through `measure::sync_chain_run_in`, the reduction drivers, and the
//! report renderers. The benchmark checks the claim on every traced run:
//! the artifacts are compared with the same references as the untraced
//! run's, and the simulated instruction total with the same pin.
//!
//! Fig. 5 keeps one `GpuSystem` per sweep worker (reset per cell) and
//! Figs. 7/8 build a fresh system per cell, as the library does. The reset
//! is timed as its own call just before the chain runner, whose leading
//! reset then finds the system already empty.

use crate::trace::{cell, current, span, span_with, Work};
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use gpu_sim::kernels::SyncOp;
use gpu_sim::{GpuSystem, RunOptions};
use reduction::{AllReduceAlgo, DeviceReduceMethod, MultiGpuReduceMethod};
use std::sync::Arc;
use sync_micro::grid_sync::{HeatMap, BLOCKS_PER_SM, THREADS_PER_BLOCK};
use sync_micro::measure::{cycles_to_us, sync_chain_run_in, Placement};
use sync_micro::plot::{line_chart, shade_heatmap, Scale, Series};
use sync_micro::report::{fmt, TextTable};
use sync_micro::sweep::Sweep;

/// Barrier rounds per heat-map cell (`grid_sync`'s private `REPS`).
const REPS: usize = 4;

/// A registry entry's traced rebuild, if it has one.
pub fn traced(name: &str) -> Option<fn() -> String> {
    Some(match name {
        "fig5" => figure5,
        "fig7" => figure7,
        "fig8" => figure8,
        "allreduce" => allreduce,
        "fig16" => figure16,
        "fig15" => figure15,
        "table6" => table6,
        _ => return None,
    })
}

/// Time one renderer call; its output size is the span's byte count.
fn render(name: &'static str, f: impl FnOnce() -> String) -> String {
    span_with("report", name, f, |s| Work {
        bytes: s.len() as u64,
        ..Work::default()
    })
}

/// One feasible heat-map cell: axis indices plus launch geometry.
#[derive(Clone, Copy)]
struct CellPlan {
    i: usize,
    j: usize,
    bpsm: u32,
    tpb: u32,
}

fn plan_cells(arch: &GpuArch) -> Vec<CellPlan> {
    let mut plan = Vec::new();
    for (i, &bpsm) in BLOCKS_PER_SM.iter().enumerate() {
        for (j, &tpb) in THREADS_PER_BLOCK.iter().enumerate() {
            if bpsm <= arch.occupancy(tpb, 0).blocks_per_sm {
                plan.push(CellPlan { i, j, bpsm, tpb });
            }
        }
    }
    plan
}

fn assemble(title: &str, plan: &[CellPlan], values: &[f64]) -> HeatMap {
    let mut cells = vec![vec![None; THREADS_PER_BLOCK.len()]; BLOCKS_PER_SM.len()];
    for (c, &v) in plan.iter().zip(values) {
        cells[c.i][c.j] = Some(v);
    }
    HeatMap {
        title: title.to_string(),
        blocks_per_sm: BLOCKS_PER_SM.to_vec(),
        threads_per_block: THREADS_PER_BLOCK.to_vec(),
        cells,
    }
}

fn build_system(arch: &GpuArch, topology: &Arc<NodeTopology>) -> GpuSystem {
    span("system.build", "GpuSystem::new", || {
        GpuSystem::new(arch.clone(), topology.clone())
    })
}

/// One sync-chain cell on `sys`: reset, then the chain runner's launch.
fn chain_cell(
    sys: &mut GpuSystem,
    arch: &GpuArch,
    devices: &[usize],
    op: SyncOp,
    c: CellPlan,
) -> sim_core::SimResult<f64> {
    span("system.reset", "GpuSystem::reset", || sys.reset());
    let (m, _) = span_with(
        "engine",
        "sync_chain_run_in",
        || {
            sync_chain_run_in(
                sys,
                devices,
                op,
                REPS,
                c.bpsm * arch.num_sms,
                c.tpb,
                &RunOptions::new(),
            )
        },
        |r| match r {
            Ok((_, arts)) => Work {
                instrs: arts.report.instrs_executed,
                warps: arts.report.warps_run,
                sim_us: arts.report.duration.as_us(),
                bytes: 0,
            },
            Err(_) => Work::default(),
        },
    )?;
    Ok(cycles_to_us(arch, m.cycles_per_op))
}

/// `experiments::figure5`: grid-sync heat maps, one reused system per
/// sweep worker.
pub fn figure5() -> String {
    let mut s = String::new();
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let placement = Placement::single();
        let plan = plan_cells(&arch);
        let values = span("sweep", "Sweep::try_run", || {
            let caller = current();
            Sweep::new()
                .init(|| build_system(&arch, &placement.topology))
                .try_run(plan.clone(), |sys, c| {
                    cell("sweep.cell", "fig5", caller, || {
                        chain_cell(sys, &arch, &placement.devices, SyncOp::Grid, c)
                    })
                })
        })
        .expect("fig5");
        let title = format!("Fig. 5: grid sync latency (us), {}", arch.name);
        let hm = assemble(&title, &plan, &values);
        s.push_str(&render("TextTable::render", || hm.render().render()));
        s.push_str(&render("plot::shade_heatmap", || shade_heatmap(&hm)));
    }
    s
}

/// `multi_grid::multi_grid_figure`: one flattened sweep over GPU counts ×
/// cells, a fresh system per cell.
fn multi_grid_maps(
    arch: &GpuArch,
    topology: NodeTopology,
    counts: &[usize],
) -> Vec<(usize, HeatMap)> {
    let topology = Arc::new(topology);
    let plan = plan_cells(arch);
    let points: Vec<(usize, CellPlan)> = counts
        .iter()
        .flat_map(|&n| plan.iter().map(move |&c| (n, c)))
        .collect();
    let values = span("sweep", "Sweep::try_run", || {
        let caller = current();
        Sweep::new().try_run(points, |(n, c)| {
            cell("sweep.cell", "multi_grid", caller, || {
                let placement = Placement::multi(topology.clone(), n);
                let mut sys = build_system(arch, &placement.topology);
                chain_cell(&mut sys, arch, &placement.devices, SyncOp::MultiGrid, c)
            })
        })
    })
    .expect("multi-grid figure");
    counts
        .iter()
        .zip(values.chunks(plan.len()))
        .map(|(&n, vals)| {
            let title = format!("multi-grid sync latency (us), {} GPU(s), {}", n, arch.name);
            (n, assemble(&title, &plan, vals))
        })
        .collect()
}

fn render_maps(label: &str, maps: &[(usize, HeatMap)]) -> String {
    let mut s = String::new();
    for (n, hm) in maps {
        s.push_str(&format!("-- {label} x{n} --\n"));
        s.push_str(&render("TextTable::render", || hm.render().render()));
    }
    s
}

/// `experiments::figure7`: multi-grid sync on the P100 pair.
pub fn figure7() -> String {
    let maps = multi_grid_maps(&GpuArch::p100(), NodeTopology::p100_pair(), &[1, 2]);
    render_maps("Fig. 7: P100", &maps)
}

/// `experiments::figure8`: multi-grid sync on the DGX-1.
pub fn figure8() -> String {
    let maps = multi_grid_maps(
        &GpuArch::v100(),
        NodeTopology::dgx1_v100(),
        &[1, 2, 5, 6, 8],
    );
    render_maps("Fig. 8: DGX-1", &maps)
}

fn bytes_work<T>(bytes: u64) -> impl FnOnce(&T) -> Work {
    move |_| Work {
        bytes,
        ..Work::default()
    }
}

fn device_reduce(arch: &GpuArch, m: DeviceReduceMethod, n: u64) -> reduction::DeviceReduceSample {
    span_with(
        "reduction.device_reduce",
        "measure_device_reduce",
        || reduction::measure_device_reduce(arch, m, n),
        bytes_work(n * 8),
    )
    .expect("device reduce")
}

/// `experiments::allreduce`: `allreduce_series` unrolled into its calls.
pub fn allreduce() -> String {
    let arch = GpuArch::v100();
    let topo = NodeTopology::dgx1_v100();
    let elems = 1_000_000;
    let counts = [2usize, 4, 6, 8];
    let mut samples = Vec::new();
    for &n in &counts {
        for algo in AllReduceAlgo::ALL {
            if n == 1 && algo == AllReduceAlgo::Ring {
                continue;
            }
            samples.push(
                span_with(
                    "reduction.allreduce",
                    "measure_allreduce",
                    || reduction::measure_allreduce(&arch, &topo, algo, n, elems),
                    bytes_work(elems * 8 * n as u64),
                )
                .expect("allreduce"),
            );
        }
    }
    let mut t = TextTable::new(
        "Extension: 8 MB allreduce on DGX-1 (latency us / algbw GB/s)",
        &["GPUs", "gather-broadcast", "ring", "multi-grid kernel"],
    );
    for &n in &counts {
        let entry = |name: &str| {
            samples
                .iter()
                .find(|s| s.gpus == n && s.algo == name)
                .map(|s| {
                    assert!(s.correct, "{name} wrong at {n} GPUs");
                    format!("{} / {}", fmt(s.latency_us), fmt(s.algbw_gbs))
                })
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            n.to_string(),
            entry("gather-broadcast"),
            entry("ring"),
            entry("multi-grid kernel"),
        ]);
    }
    let mut s = render("TextTable::render", || t.render());
    s.push_str(
        "(ring wins once the quad boundary's shared PCIe ingress throttles the
         multi-grid pull; within a quad the one-launch pull is competitive)
",
    );
    s
}

/// `experiments::figure16`: `reduction::figure16` unrolled into its calls.
pub fn figure16() -> String {
    let arch = GpuArch::v100();
    let topo = NodeTopology::dgx1_v100();
    let total = (8e9 / 8.0) as u64;
    let mut samples = Vec::new();
    for n in 1..=8usize {
        for method in [
            MultiGpuReduceMethod::MultiGridSync,
            MultiGpuReduceMethod::CpuSideBarrier,
        ] {
            samples.push(
                span_with(
                    "reduction.multi_gpu_reduce",
                    "measure_multi_gpu_reduce",
                    || reduction::measure_multi_gpu_reduce(&arch, &topo, method, n, total),
                    bytes_work(total * 8),
                )
                .expect("fig16"),
            );
        }
    }
    let mut t = TextTable::new(
        "Fig. 16: reduction throughput on DGX-1 (GB/s)",
        &["GPUs", "mgrid sync", "CPU-side barrier"],
    );
    for n in 1..=8usize {
        let get = |m: &str| {
            samples
                .iter()
                .find(|s| s.gpus == n && s.method == m)
                .map(|s| {
                    assert!(s.correct, "{m} wrong at {n} GPUs");
                    fmt(s.throughput_gbs)
                })
                .unwrap()
        };
        t.row(vec![
            n.to_string(),
            get("mgrid sync"),
            get("CPU-side barrier"),
        ]);
    }
    let mut s = render("TextTable::render", || t.render());
    let series: Vec<Series> = ["mgrid sync", "CPU-side barrier"]
        .iter()
        .map(|m| {
            Series::new(
                m,
                samples
                    .iter()
                    .filter(|smp| smp.method == *m)
                    .map(|smp| (smp.gpus as f64, smp.throughput_gbs))
                    .collect(),
            )
        })
        .collect();
    s.push_str(&render("plot::line_chart", || {
        line_chart(
            "Fig. 16 (chart): throughput (GB/s) vs GPU count",
            &series,
            Scale::Linear,
            Scale::Linear,
            64,
            12,
        )
    }));
    s
}

/// `experiments::figure15`: every (size × method) point as one sweep.
pub fn figure15() -> String {
    let mut s = String::new();
    for (arch, sizes) in [
        (
            GpuArch::v100(),
            &[0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0][..],
        ),
        (GpuArch::p100(), &[0.1, 1.0, 10.0, 100.0, 1000.0][..]),
    ] {
        let mut t = TextTable::new(
            &format!("Fig. 15: single-GPU reduction latency (us), {}", arch.name),
            &["size (MB)", "implicit", "grid sync", "CUB-like", "SDK-like"],
        );
        let mut series: Vec<Series> = DeviceReduceMethod::ALL
            .iter()
            .map(|m| Series::new(m.name(), Vec::new()))
            .collect();
        let nmethods = DeviceReduceMethod::ALL.len();
        let points: Vec<(f64, DeviceReduceMethod)> = sizes
            .iter()
            .flat_map(|&mb| DeviceReduceMethod::ALL.into_iter().map(move |m| (mb, m)))
            .collect();
        let samples = span("sweep", "Sweep::run", || {
            let caller = current();
            Sweep::new().run(points, |(mb, m)| {
                cell("sweep.cell", "fig15", caller, || {
                    device_reduce(&arch, m, (mb * 1e6 / 8.0) as u64)
                })
            })
        });
        for (ri, &mb) in sizes.iter().enumerate() {
            let mut row = vec![fmt(mb)];
            for (mi, smp) in samples[ri * nmethods..(ri + 1) * nmethods]
                .iter()
                .enumerate()
            {
                assert!(smp.correct, "{} wrong at {mb} MB", smp.method);
                row.push(fmt(smp.latency_us));
                series[mi].points.push((mb, smp.latency_us));
            }
            t.row(row);
        }
        s.push_str(&render("TextTable::render", || t.render()));
        let title = format!(
            "Fig. 15 (chart): {} latency (us) vs size (MB), log-log",
            arch.name
        );
        s.push_str(&render("plot::line_chart", || {
            line_chart(&title, &series, Scale::Log10, Scale::Log10, 64, 14)
        }));
    }
    s
}

/// `experiments::table6`: `reduction::table6` unrolled into its calls.
pub fn table6() -> String {
    let mut t = TextTable::new(
        "Table VI: bandwidth (GB/s) of the reduction methods",
        &[
            "arch",
            "implicit",
            "grid sync",
            "CUB-like",
            "SDK-like",
            "theory",
        ],
    );
    let n = (1e9 / 8.0) as u64;
    for arch in [GpuArch::v100(), GpuArch::p100()] {
        let mut row = vec![arch.name.clone()];
        for m in DeviceReduceMethod::ALL {
            row.push(fmt(device_reduce(&arch, m, n).bandwidth_gbs));
        }
        row.push(fmt(arch.memory.dram_peak_gbs));
        t.row(row);
    }
    render("TextTable::render", || t.render())
}
