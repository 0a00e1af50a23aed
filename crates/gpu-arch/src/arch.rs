//! Whole-architecture descriptions and the V100 / P100 presets.

use crate::params::{HostParams, LaunchPath, MemoryParams, SyncInstr, TimingParams};
use serde::{Deserialize, Serialize};
use sim_core::Clock;

/// A complete simulated GPU architecture: geometry, clocks, timing and memory
/// parameters, plus the host-side launch-path cost model of the platform it
/// was measured in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuArch {
    pub name: String,
    /// CUDA compute capability (major, minor) — 7.0 for V100, 6.0 for P100.
    pub compute_capability: (u32, u32),
    pub num_sms: u32,
    pub warp_size: u32,
    /// Processing blocks / warp schedulers per SM (4 on V100, 2 on P100).
    pub schedulers_per_sm: u32,
    pub max_threads_per_block: u32,
    pub max_threads_per_sm: u32,
    pub max_blocks_per_sm: u32,
    pub max_warps_per_sm: u32,
    pub registers_per_sm: u32,
    pub shared_mem_per_sm_bytes: u32,
    /// Application clock used in the paper's experiments.
    pub clock_mhz: f64,
    /// Volta's per-thread program counters. When false (Pascal), warp-level
    /// synchronization cannot block individual threads (paper §VIII-A).
    pub independent_thread_scheduling: bool,
    pub timing: TimingParams,
    pub memory: MemoryParams,
    pub host: HostParams,
}

impl GpuArch {
    pub fn clock(&self) -> Clock {
        Clock::from_mhz(self.clock_mhz)
    }

    /// Warps needed to hold `threads` threads.
    pub fn warps_per_block(&self, threads_per_block: u32) -> u32 {
        threads_per_block.div_ceil(self.warp_size)
    }

    /// Tesla V100 (Volta, DGX-1 configuration from the paper: 1312 MHz
    /// application clock, CUDA 10.0, driver 410.129).
    pub fn v100() -> GpuArch {
        GpuArch {
            name: "V100".into(),
            compute_capability: (7, 0),
            num_sms: 80,
            warp_size: 32,
            schedulers_per_sm: 4,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm_bytes: 96 * 1024,
            clock_mhz: 1312.0,
            independent_thread_scheduling: true,
            timing: TimingParams {
                alu_latency: 4,
                fadd32_latency: 4,
                fadd64_latency: 8,
                issue_interval: 1.0,
                smem_latency: 12,
                volatile_extra: 5,
                smem_bytes_per_cycle_sm: 238.0,
                smem_scan_iter_cycles: 7.2,
                smem_flop_extra_cycles: 2.85,
                // Table II anchors.
                tile_sync: SyncInstr::new(14, 0.812, true),
                coalesced_sync_full: SyncInstr::new(14, 1.306, true),
                coalesced_sync_partial: SyncInstr::new(108, 0.167, true),
                shfl_tile: SyncInstr::new(22, 0.928, true),
                shfl_coalesced: SyncInstr::new(77, 0.121, true),
                shfl_coalesced_cold_cycles: 244,
                block_sync_latency: 20,
                block_sync_arrival_cycles: 2.1,
                global_atomic_latency: 1140,
                l2_atomic_interval: 5.8,
                l2_read_interval: 4.0,
                poll_interval: 215,
                grid_release_per_warp: 38.0,
                mgrid_release_per_warp: 213.0,
                divergence_switch_cycles: 20,
                warp_barrier_switch_cycles: 330,
                poll_contention_per_block: 0.0005,
                clock_read_latency: 18,
            },
            memory: MemoryParams {
                dram_peak_gbs: 898.05,
                dram_stream_efficiency: 0.9636,
                dram_latency: 440,
                warp_mlp_bytes: 2048,
                l2_latency: 200,
            },
            host: HostParams {
                traditional: LaunchPath {
                    overhead_ns: 1081,
                    floor_ns: 7807,
                },
                cooperative: LaunchPath {
                    overhead_ns: 1063,
                    floor_ns: 9185,
                },
                cooperative_multi: LaunchPath {
                    overhead_ns: 1258,
                    floor_ns: 9616,
                },
                device_sync_ns: 900,
                omp_barrier_ns: 400,
                omp_barrier_per_thread_ns: 170,
                multi_gate_per_gpu_ns: 9420,
                stream_pipeline_interval_ns: 3000,
                h2d_gbs: 11.8,
                host_timer_jitter_ns: 30.0,
            },
        }
    }

    /// Tesla P100 (Pascal, 2-GPU PCIe node from the paper: 1189 MHz
    /// application clock, CUDA 10.0, driver 418.40.04).
    pub fn p100() -> GpuArch {
        GpuArch {
            name: "P100".into(),
            compute_capability: (6, 0),
            num_sms: 56,
            warp_size: 32,
            schedulers_per_sm: 2,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_warps_per_sm: 64,
            registers_per_sm: 65_536,
            shared_mem_per_sm_bytes: 64 * 1024,
            clock_mhz: 1189.0,
            independent_thread_scheduling: false,
            timing: TimingParams {
                alu_latency: 6,
                fadd32_latency: 6,
                fadd64_latency: 8,
                issue_interval: 1.0,
                smem_latency: 17,
                volatile_extra: 0,
                smem_bytes_per_cycle_sm: 160.0,
                smem_scan_iter_cycles: 8.8,
                smem_flop_extra_cycles: 4.85,
                // Pascal warp-level "sync" is a non-blocking fence.
                tile_sync: SyncInstr::new(1, 1.774, false),
                coalesced_sync_full: SyncInstr::new(1, 1.821, false),
                coalesced_sync_partial: SyncInstr::new(1, 1.791, false),
                shfl_tile: SyncInstr::new(31, 0.642, false),
                shfl_coalesced: SyncInstr::new(50, 0.166, false),
                shfl_coalesced_cold_cycles: 277,
                block_sync_latency: 208,
                block_sync_arrival_cycles: 9.5,
                global_atomic_latency: 1300,
                l2_atomic_interval: 6.1,
                l2_read_interval: 4.5,
                poll_interval: 210,
                grid_release_per_warp: 10.0,
                mgrid_release_per_warp: 21.0,
                divergence_switch_cycles: 40,
                warp_barrier_switch_cycles: 0,
                poll_contention_per_block: 0.003,
                clock_read_latency: 60,
            },
            memory: MemoryParams {
                dram_peak_gbs: 732.16,
                dram_stream_efficiency: 0.809,
                dram_latency: 500,
                warp_mlp_bytes: 1536,
                l2_latency: 230,
            },
            host: HostParams {
                traditional: LaunchPath {
                    overhead_ns: 1100,
                    floor_ns: 7900,
                },
                cooperative: LaunchPath {
                    overhead_ns: 1080,
                    floor_ns: 9300,
                },
                cooperative_multi: LaunchPath {
                    overhead_ns: 1280,
                    floor_ns: 9700,
                },
                device_sync_ns: 950,
                omp_barrier_ns: 420,
                omp_barrier_per_thread_ns: 180,
                multi_gate_per_gpu_ns: 9500,
                stream_pipeline_interval_ns: 3200,
                h2d_gbs: 11.3,
                host_timer_jitter_ns: 35.0,
            },
        }
    }

    /// A Turing T4-like extrapolated preset (beyond the paper): a smaller
    /// inference part with Volta-style independent thread scheduling but
    /// fewer SMs and far less memory bandwidth. Predictive, not measured.
    pub fn t4_like() -> GpuArch {
        let mut t = GpuArch::v100();
        t.name = "T4-like".into();
        t.compute_capability = (7, 5);
        t.num_sms = 40;
        t.schedulers_per_sm = 4;
        t.max_threads_per_sm = 1024;
        t.max_warps_per_sm = 32;
        t.shared_mem_per_sm_bytes = 64 * 1024;
        t.clock_mhz = 1590.0;
        t.memory.dram_peak_gbs = 320.0;
        t.memory.dram_stream_efficiency = 0.88;
        t
    }

    /// An A100-like extrapolated preset (beyond the paper; shows the
    /// methodology generalizes to newer architectures). Numbers follow public
    /// Ampere characteristics where known and Volta trends elsewhere — they
    /// are *predictions*, not measurements.
    pub fn a100_like() -> GpuArch {
        let mut a = GpuArch::v100();
        a.name = "A100-like".into();
        a.compute_capability = (8, 0);
        a.num_sms = 108;
        a.clock_mhz = 1410.0;
        a.shared_mem_per_sm_bytes = 164 * 1024;
        a.timing.tile_sync = SyncInstr::new(12, 0.9, true);
        a.timing.coalesced_sync_full = SyncInstr::new(12, 1.4, true);
        a.timing.shfl_tile = SyncInstr::new(20, 1.0, true);
        a.timing.block_sync_latency = 18;
        a.timing.block_sync_arrival_cycles = 1.9;
        a.memory.dram_peak_gbs = 1555.0;
        a.memory.dram_stream_efficiency = 0.92;
        a
    }
}

impl GpuArch {
    /// The calibration sheet: every timing/memory/host parameter with its
    /// value and the paper artifact it is anchored to. This is the audit
    /// trail behind EXPERIMENTS.md.
    pub fn describe(&self) -> String {
        let t = &self.timing;
        let m = &self.memory;
        let h = &self.host;
        let mut s = format!(
            "## {} — calibration sheet
             geometry: {} SMs x {} schedulers, {:.0} MHz, {} KiB smem/SM,              independent thread scheduling: {}
",
            self.name,
            self.num_sms,
            self.schedulers_per_sm,
            self.clock_mhz,
            self.shared_mem_per_sm_bytes / 1024,
            self.independent_thread_scheduling,
        );
        let mut row = |param: &str, value: String, anchor: &str| {
            s.push_str(&format!(
                "{param:<34} {value:<14} anchor: {anchor}
"
            ));
        };
        row(
            "alu_latency (cyc)",
            t.alu_latency.to_string(),
            "§IX-D float-add cross-check",
        );
        row(
            "fadd32_latency (cyc)",
            t.fadd32_latency.to_string(),
            "§IX-D: 4 (V100) / 6 (P100)",
        );
        row(
            "tile_sync (cyc, op/cyc)",
            format!(
                "{}, {}",
                t.tile_sync.latency_cycles, t.tile_sync.throughput_per_sm
            ),
            "Table II row 1",
        );
        row(
            "coalesced_sync_full",
            format!(
                "{}, {}",
                t.coalesced_sync_full.latency_cycles, t.coalesced_sync_full.throughput_per_sm
            ),
            "Table II row 4",
        );
        row(
            "coalesced_sync_partial",
            format!(
                "{}, {}",
                t.coalesced_sync_partial.latency_cycles, t.coalesced_sync_partial.throughput_per_sm
            ),
            "Table II row 3",
        );
        row(
            "shfl_tile",
            format!(
                "{}, {}",
                t.shfl_tile.latency_cycles, t.shfl_tile.throughput_per_sm
            ),
            "Table II row 2",
        );
        row(
            "shfl_coalesced (+cold)",
            format!(
                "{}, {} (+{})",
                t.shfl_coalesced.latency_cycles,
                t.shfl_coalesced.throughput_per_sm,
                t.shfl_coalesced_cold_cycles
            ),
            "Table II row 5 + Table V",
        );
        row(
            "block_sync_latency (cyc)",
            t.block_sync_latency.to_string(),
            "Table II row 6",
        );
        row(
            "block_sync_arrival (cyc/warp)",
            format!("{}", t.block_sync_arrival_cycles),
            "Fig. 4 plateau = 1/c",
        );
        row(
            "global_atomic_latency (cyc)",
            t.global_atomic_latency.to_string(),
            "Fig. 5 base cell (1 blk/SM)",
        );
        row(
            "l2_atomic_interval (cyc)",
            format!("{}", t.l2_atomic_interval),
            "Fig. 5 blocks/SM slope",
        );
        row(
            "poll_contention_per_block",
            format!("{}", t.poll_contention_per_block),
            "Fig. 5 16->32 blk/SM bend",
        );
        row(
            "grid_release_per_warp (cyc)",
            format!("{}", t.grid_release_per_warp),
            "Fig. 5 threads/block column",
        );
        row(
            "mgrid_release_per_warp (cyc)",
            format!("{}", t.mgrid_release_per_warp),
            "Fig. 8 threads/block column",
        );
        row(
            "warp_barrier_switch (cyc)",
            t.warp_barrier_switch_cycles.to_string(),
            "Fig. 18 staircase step",
        );
        row(
            "divergence_switch (cyc)",
            t.divergence_switch_cycles.to_string(),
            "Fig. 18 (Pascal) / Table V guards",
        );
        row(
            "smem_scan_iter (cyc)",
            format!("{}", t.smem_scan_iter_cycles),
            "Table V serial column",
        );
        row(
            "smem_flop_extra (cyc)",
            format!("{}", t.smem_flop_extra_cycles),
            "Table III latency (scan + 2 flops)",
        );
        row(
            "smem_bytes_per_cycle_sm",
            format!("{}", t.smem_bytes_per_cycle_sm),
            "Table III 1024-thread bandwidth",
        );
        row(
            "dram_peak (GB/s)",
            format!("{}", m.dram_peak_gbs),
            "Table VI theory column",
        );
        row(
            "dram_stream_efficiency",
            format!("{}", m.dram_stream_efficiency),
            "Table VI implicit column",
        );
        row(
            "launch traditional (ns)",
            format!("{} + {}", h.traditional.overhead_ns, h.traditional.floor_ns),
            "Table I row 1",
        );
        row(
            "launch cooperative (ns)",
            format!("{} + {}", h.cooperative.overhead_ns, h.cooperative.floor_ns),
            "Table I row 2",
        );
        row(
            "launch coop-multi (ns)",
            format!(
                "{} + {}",
                h.cooperative_multi.overhead_ns, h.cooperative_multi.floor_ns
            ),
            "Table I row 3",
        );
        row(
            "multi_gate_per_gpu (ns)",
            h.multi_gate_per_gpu_ns.to_string(),
            "Fig. 9 implicit-launch slope",
        );
        row(
            "omp_barrier (ns, +/thread)",
            format!("{} + {}", h.omp_barrier_ns, h.omp_barrier_per_thread_ns),
            "Fig. 9 CPU-side line",
        );
        row(
            "stream_pipeline_interval (ns)",
            h.stream_pipeline_interval_ns.to_string(),
            "§IX-B null-kernel over-report",
        );
        s
    }
}

/// Static co-residency limits for a launch configuration — how many blocks of
/// a kernel fit on one SM simultaneously. Cooperative (grid-sync) launches
/// must not exceed `blocks_per_sm * num_sms` total blocks or they deadlock;
/// `cudaLaunchCooperativeKernel` rejects such configurations instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Co-resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Active warps per SM at that residency.
    pub active_warps_per_sm: u32,
}

impl GpuArch {
    /// CUDA-style occupancy for a kernel with `threads_per_block` threads and
    /// `smem_per_block` bytes of static shared memory.
    pub fn occupancy(&self, threads_per_block: u32, smem_per_block: u32) -> Occupancy {
        self.occupancy_with_regs(threads_per_block, smem_per_block, 0)
    }

    /// [`Self::occupancy`] with a per-thread register count — the register
    /// file becomes a fourth residency limit, as in
    /// `cudaOccupancyMaxActiveBlocksPerMultiprocessor`.
    pub fn occupancy_with_regs(
        &self,
        threads_per_block: u32,
        smem_per_block: u32,
        regs_per_thread: u32,
    ) -> Occupancy {
        assert!(
            threads_per_block >= 1 && threads_per_block <= self.max_threads_per_block,
            "threads per block {threads_per_block} out of range"
        );
        let warps = self.warps_per_block(threads_per_block);
        let by_warps = self.max_warps_per_sm / warps;
        let by_threads = self.max_threads_per_sm / (warps * self.warp_size);
        let by_smem = self
            .shared_mem_per_sm_bytes
            .checked_div(smem_per_block)
            .unwrap_or(u32::MAX);
        let by_regs = if regs_per_thread == 0 {
            u32::MAX
        } else {
            // Registers allocate at warp granularity.
            let regs_per_block = (regs_per_thread * warps * self.warp_size).max(1);
            self.registers_per_sm / regs_per_block
        };
        let blocks = self
            .max_blocks_per_sm
            .min(by_warps)
            .min(by_threads)
            .min(by_smem)
            .min(by_regs);
        Occupancy {
            blocks_per_sm: blocks,
            active_warps_per_sm: blocks * warps,
        }
    }

    /// Maximum total blocks a cooperative (grid-synchronizing) launch may use.
    pub fn max_cooperative_blocks(&self, threads_per_block: u32, smem_per_block: u32) -> u32 {
        self.occupancy(threads_per_block, smem_per_block)
            .blocks_per_sm
            * self.num_sms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_identity() {
        let v = GpuArch::v100();
        assert_eq!(v.num_sms, 80);
        assert_eq!(v.compute_capability, (7, 0));
        assert!(v.independent_thread_scheduling);
        assert!((v.clock().mhz() - 1312.0).abs() < 1e-9);
    }

    #[test]
    fn p100_is_pascal() {
        let p = GpuArch::p100();
        assert!(!p.independent_thread_scheduling);
        assert!(!p.timing.tile_sync.blocking);
        assert_eq!(p.num_sms, 56);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let v = GpuArch::v100();
        assert_eq!(v.warps_per_block(1), 1);
        assert_eq!(v.warps_per_block(32), 1);
        assert_eq!(v.warps_per_block(33), 2);
        assert_eq!(v.warps_per_block(1024), 32);
    }

    #[test]
    fn occupancy_thread_limited() {
        let v = GpuArch::v100();
        // 1024-thread blocks: 2048 threads/SM limit allows exactly 2.
        let o = v.occupancy(1024, 0);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.active_warps_per_sm, 64);
    }

    #[test]
    fn occupancy_block_limited() {
        let v = GpuArch::v100();
        // 32-thread blocks: warp limit would allow 64 but block cap is 32.
        let o = v.occupancy(32, 0);
        assert_eq!(o.blocks_per_sm, 32);
        assert_eq!(o.active_warps_per_sm, 32);
    }

    #[test]
    fn occupancy_register_limited() {
        let v = GpuArch::v100();
        // 128 regs/thread, 256-thread blocks: 32768 regs/block -> 2 blocks.
        let o = v.occupancy_with_regs(256, 0, 128);
        assert_eq!(o.blocks_per_sm, 2);
        // 32 regs/thread never limits a 256-thread block.
        let o = v.occupancy_with_regs(256, 0, 32);
        assert_eq!(o.blocks_per_sm, 8);
    }

    #[test]
    fn occupancy_smem_limited() {
        let v = GpuArch::v100();
        // 48 KiB static shared memory per block: only 2 fit in 96 KiB.
        let o = v.occupancy(64, 48 * 1024);
        assert_eq!(o.blocks_per_sm, 2);
    }

    #[test]
    fn cooperative_block_budget() {
        let v = GpuArch::v100();
        assert_eq!(v.max_cooperative_blocks(1024, 0), 160);
        assert_eq!(v.max_cooperative_blocks(32, 0), 32 * 80);
    }

    #[test]
    #[should_panic]
    fn occupancy_rejects_oversized_block() {
        let v = GpuArch::v100();
        let _ = v.occupancy(2048, 0);
    }

    #[test]
    fn t4_extrapolation_is_smaller() {
        let t = GpuArch::t4_like();
        assert!(t.num_sms < GpuArch::v100().num_sms);
        assert_eq!(t.max_warps_per_sm, 32);
        assert!(t.independent_thread_scheduling);
        // 1024-thread blocks: only 1 fits per SM on Turing.
        assert_eq!(t.occupancy(1024, 0).blocks_per_sm, 1);
    }

    #[test]
    fn describe_names_every_anchor() {
        let sheet = GpuArch::v100().describe();
        for anchor in [
            "Table II",
            "Fig. 4",
            "Fig. 5",
            "Table III",
            "Table VI",
            "Table I",
        ] {
            assert!(
                sheet.contains(anchor),
                "missing {anchor}:
{sheet}"
            );
        }
        assert!(sheet.contains("1312"));
    }

    #[test]
    fn a100_extrapolation_is_bigger() {
        let a = GpuArch::a100_like();
        assert!(a.num_sms > GpuArch::v100().num_sms);
        assert!(a.memory.dram_peak_gbs > 1000.0);
    }
}
