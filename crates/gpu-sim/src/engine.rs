//! The SIMT discrete-event execution engine.
//!
//! Warps are the scheduled entities. Threads within a warp are grouped by
//! program counter; the scheduler always runs the lowest-PC group, which
//! gives structured reconvergence *and* the serialized divergent-branch
//! staircase of the paper's Fig. 18. On architectures without independent
//! thread scheduling (Pascal), warp-level barriers never block — they are
//! plain fences — reproducing §VIII-A.
//!
//! Timing comes from per-SM / per-device pipelined resources (schedulers,
//! barrier unit, warp-sync unit, shared-memory port, L2 atomic unit, DRAM
//! channel) plus per-instruction latencies from [`gpu_arch::TimingParams`].

use crate::fault::{self, FaultPlan};
use crate::isa::{Instr, Operand, Program, Reg, ShflKind, ShflMode, Special, NUM_REGS};
use crate::mem::{BufData, GlobalAgent, GlobalHazard, GlobalRaceCheck, Hazard, SharedMem};
use crate::profile::{BarrierEpoch, ProfileReport, SmProfile, SyncScope, EPOCH_CAP};
use crate::system::{ExecReport, GpuSystem, GridLaunch};
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use serde::{Deserialize, Serialize};
use sim_core::{Channel, EventQueue, Pipeline, Ps, SimError, SimResult, StuckKind, StuckWarp};
use std::collections::HashMap;
use std::sync::Arc;

const WARP: u32 = 32;
const FULL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// (warp index, generation).
    WarpStep(u32, u32),
    StartBlock(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockWaitKind {
    None,
    Block,
    Grid,
    MultiGrid,
}

#[derive(Debug)]
struct Warp {
    rank: u32,
    sm: u32,
    sched: u32,
    block: u32,
    warp_in_block: u32,
    gen: u32,
    /// Lanes present in this warp (a tail warp of a non-multiple-of-32
    /// block has fewer than 32).
    nlanes: u32,
    /// Per-lane program counters, `nlanes` long.
    pcs: [u32; 32],
    /// Contiguous per-warp register file, register-major with a fixed
    /// lane stride of 32: register `r` of `lane` is `regs[r * 32 + lane]`.
    /// Register-major keeps one architectural register's 32 lanes in four
    /// cache lines, which is what the per-instruction lane loops walk.
    regs: Vec<u64>,
    /// Lanes that have exited the kernel.
    exited: u32,
    /// Lanes parked at a warp-level (tile) barrier.
    wb_wait: u32,
    wb_width: u32,
    /// Lanes parked at a block/grid/multi-grid barrier.
    blk_wait: u32,
    blk_kind: BlockWaitKind,
    /// When profiling: time the first group parked at the current warp
    /// barrier / block-level barrier (stall-attribution anchors).
    wb_parked_at: Ps,
    blk_parked_at: Ps,
    /// Mask of the group that executed last step (divergence accounting).
    last_mask: u32,
    /// Last step ended with a group blocking at a warp barrier (Volta
    /// re-queue cost — the Fig. 18 staircase driver).
    prev_blocked_at_warp_barrier: bool,
    /// Previous executed instruction was a coalesced shuffle (the software
    /// path's group descriptor is hot; see Table V's cold-path column).
    coa_shfl_hot: bool,
    done: bool,
    /// Fault-injection latency multiplier (permille; 1000 = unfaulted),
    /// drawn once per warp from the plan's seed at block start.
    mult_permille: u32,
    /// Furthest PC each lane of this warp has reached — the watchdog's
    /// progress watermark, per lane so a divergent branch (e.g. non-leader
    /// lanes jumping to the exit label) cannot poison the whole warp's
    /// watermark. Spin loops revisit PCs, so a spinning lane's watermark
    /// stalls; straight-line code always advances it.
    max_pcs: [u32; 32],
}

impl Warp {
    fn runnable(&self) -> u32 {
        !(self.exited | self.wb_wait | self.blk_wait) & self.present()
    }

    fn present(&self) -> u32 {
        if self.nlanes == 32 {
            FULL
        } else {
            (1u32 << self.nlanes) - 1
        }
    }

    #[inline]
    fn reg(&self, lane: u32, r: Reg) -> u64 {
        self.regs[r as usize * 32 + lane as usize]
    }

    #[inline]
    fn set_reg(&mut self, lane: u32, r: Reg, v: u64) {
        self.regs[r as usize * 32 + lane as usize] = v;
    }
}

#[derive(Debug)]
struct BlockRt {
    rank: u32,
    sm: u32,
    block_on_device: u32,
    /// Engine-global warp index of warp 0; warps are contiguous.
    warp_start: u32,
    nwarps: u32,
    live_warps: u32,
    /// Block-barrier round state.
    bar_arrived: u32,
    bar_waiting: Vec<u32>,
    bar_last: Ps,
    started: bool,
    done: bool,
    smem: SharedMem,
}

/// Per-round state of one device's grid barrier.
#[derive(Debug, Default)]
struct GridBar {
    arrived: u32,
    /// (block index, leader-atomic completion, kind).
    waiting: Vec<(u32, Ps)>,
}

/// Per-round state of the node-wide multi-grid barrier.
#[derive(Debug, Default)]
struct MultiGridBar {
    ranks_arrived: u32,
    /// Per-rank local completion time.
    rank_done: Vec<Option<Ps>>,
}

struct SmExec {
    scheds: Vec<Pipeline>,
    barrier_unit: Pipeline,
    sync_unit: Pipeline,
    smem_port: Pipeline,
}

struct DevExec {
    device_id: usize,
    l2: Pipeline,
    dram: Channel,
    sms: Vec<SmExec>,
    /// Engine block indices not yet started (traditional oversubscription).
    pending: Vec<u32>,
    resident: Vec<u32>,
    max_resident_per_sm: u32,
    blocks_done: u32,
    end_time: Ps,
    grid_bar: GridBar,
}

/// One shared-memory hazard detected by the dynamic racecheck, located
/// within the launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HazardRecord {
    /// Device rank within the launch.
    pub rank: u32,
    /// Block index on its device.
    pub block: u32,
    pub hazard: Hazard,
}

/// All hazards a `checked()` run detected, in deterministic (block-major)
/// order. Empty for racecheck-clean kernels.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HazardReport {
    pub records: Vec<HazardRecord>,
    /// Hazards beyond the per-block recording cap, counted but not stored.
    pub dropped: u32,
    /// Global-memory hazards, in the launch-wide execution order they were
    /// detected (deterministic).
    pub global: Vec<GlobalHazard>,
    /// Global hazards beyond the launch-wide recording cap.
    pub global_dropped: u32,
}

impl HazardReport {
    pub fn is_clean(&self) -> bool {
        self.records.is_empty()
            && self.dropped == 0
            && self.global.is_empty()
            && self.global_dropped == 0
    }

    /// Total recorded hazards across both address spaces.
    pub fn total(&self) -> usize {
        self.records.len() + self.global.len()
    }

    /// Render with disassembly context (byte-deterministic).
    pub fn render(&self, program: &Program) -> String {
        let mut s = format!("racecheck: {} hazard(s)\n", self.total());
        for r in &self.records {
            let h = &r.hazard;
            s.push_str(&format!(
                "  {} at shared word {} (rank {}, block {}, epoch {}): \
                 thread {} then thread {}\n",
                h.kind.slug(),
                h.addr,
                r.rank,
                r.block,
                h.epoch,
                h.first_thread,
                h.second_thread
            ));
            if let Some(pc) = h.pc {
                s.push_str(&crate::verify::context_lines(program, pc));
            }
        }
        if self.dropped > 0 {
            s.push_str(&format!(
                "  ... and {} more (per-block cap)\n",
                self.dropped
            ));
        }
        for h in &self.global {
            s.push_str(&format!(
                "  {} at global buf {} word {} (epoch {}): \
                 rank {} block {} thread {} then rank {} block {} thread {}\n",
                h.kind.slug(),
                h.buf,
                h.idx,
                h.epoch,
                h.first.rank,
                h.first.block,
                h.first.thread,
                h.second.rank,
                h.second.block,
                h.second.thread
            ));
            if let Some(pc) = h.pc {
                s.push_str(&crate::verify::context_lines(program, pc));
            }
        }
        if self.global_dropped > 0 {
            s.push_str(&format!(
                "  ... and {} more global (launch-wide cap)\n",
                self.global_dropped
            ));
        }
        s
    }
}

/// One recorded execution step (see [`crate::system::RunOptions::trace`]).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    pub at: Ps,
    /// Device rank within the launch.
    pub rank: u32,
    pub sm: u32,
    /// Block index on its device.
    pub block: u32,
    pub warp_in_block: u32,
    /// Mask of lanes that executed.
    pub lanes: u32,
    pub pc: u32,
    pub instr: Instr,
}

pub(crate) struct Engine<'a> {
    sys: &'a mut GpuSystem,
    launch: &'a GridLaunch,
    arch: Arc<GpuArch>,
    ps_per_cycle: f64,
    lat: LatTab,
    /// Architectural registers the launched program actually references
    /// (max index + 1); warps allocate `nregs * 32` register words instead
    /// of the full `NUM_REGS` file.
    nregs: usize,
    /// Retired warps' register files / PC vectors, recycled by
    /// `start_block` — block-wave workloads would otherwise churn one
    /// allocation pair per started warp.
    free_regs: Vec<Vec<u64>>,
    now: Ps,
    q: EventQueue<Ev>,
    warps: Vec<Warp>,
    blocks: Vec<BlockRt>,
    devs: Vec<DevExec>,
    mgrid: MultiGridBar,
    peer: HashMap<(usize, usize), Channel>,
    instrs_executed: u64,
    warps_run: u64,
    /// When tracing: (remaining capacity, recorded events).
    trace: Option<(usize, Vec<TraceEvent>)>,
    /// Whether the shared-memory racecheck shadow state is armed (the
    /// launch's own `checked` flag OR-ed with the run options).
    check: bool,
    /// Launch-wide global-memory racecheck, armed alongside `check`.
    grace: Option<GlobalRaceCheck>,
    /// When profiling: per-(rank, SM) counters and barrier epochs.
    prof: Option<ProfState>,
    /// Scheduler-issue time of the instruction currently executing (profile
    /// attribution anchor; equals `now` for unscheduled steps).
    last_issue_start: Ps,
    /// Armed fault injection (`None` for clean runs and zero plans — every
    /// fault hook is gated on this so the clean path stays byte-identical).
    fault: Option<FaultState>,
    /// Progress watchdog budget (`None` = unarmed).
    watchdog: Option<Ps>,
    /// Last simulated time any warp advanced its `max_pc` watermark (or
    /// retired lanes). Only maintained while the watchdog is armed.
    last_progress_at: Ps,
    /// Test builds only: send every global access down the per-lane path,
    /// so the differential tests can run one launch through both paths.
    #[cfg(test)]
    per_lane_only: bool,
}

/// Armed fault-injection state derived from a non-zero [`FaultPlan`].
struct FaultState {
    plan: FaultPlan,
    /// Degraded interconnect (`Some` iff the plan degrades links); the
    /// engine's topology accessor substitutes it for the system's.
    degraded: Option<Arc<NodeTopology>>,
    /// Sorted `(rank, block_on_device)` kill list.
    killed: Vec<(u32, u32)>,
    /// Counter feeding the barrier-delay draws. The engine's event
    /// processing order is deterministic, so the counter sequence — and
    /// every draw — replays identically across runs and `--jobs`.
    barrier_draws: u64,
}

/// Accumulating profile state (see [`crate::profile`]).
struct ProfState {
    /// Indexed `[rank][sm]`.
    sms: Vec<Vec<SmProfile>>,
    epochs: Vec<BarrierEpoch>,
    epochs_dropped: u64,
}

/// Every fixed per-arch latency from [`gpu_arch::TimingParams`], converted
/// to integer `Ps` once at engine construction with exactly the rounding of
/// [`Engine::cyc`] — the hot loop never touches `f64` for these. Costs that
/// genuinely vary per event (contended atomic intervals, per-warp release
/// ramps, stream-bandwidth floors) still go through `cyc` live.
#[derive(Debug, Clone, Copy)]
struct LatTab {
    issue_interval: Ps,
    alu: Ps,
    fadd32: Ps,
    fadd64: Ps,
    /// Shared-memory load latency, plain and `volatile` (the sum is
    /// converted as one value — `cyc(a + b)` ≠ `cyc(a) + cyc(b)`).
    smem_ld: Ps,
    smem_ld_vol: Ps,
    smem_st: Ps,
    smem_st_vol: Ps,
    /// Shared-memory port occupancy per executing-lane count (index =
    /// `group.count_ones()`, 8 bytes per lane).
    smem_port_int: [Ps; 33],
    dram: Ps,
    l2: Ps,
    l2_atomic_int: Ps,
    global_atomic: Ps,
    shfl_tile_int: Ps,
    shfl_tile_lat: Ps,
    shfl_coa_int: Ps,
    shfl_coa_lat: Ps,
    shfl_coa_cold_lat: Ps,
    tile_sync_int: Ps,
    tile_sync_lat: Ps,
    coa_full_int: Ps,
    coa_full_lat: Ps,
    coa_part_int: Ps,
    coa_part_lat: Ps,
    block_arr_int: Ps,
    block_sync: Ps,
    poll: Ps,
    clock_read: Ps,
    div_switch: Ps,
    wb_switch: Ps,
    /// cyc(1.0): Exit issue cost.
    c1: Ps,
    /// cyc(4.0): store issue / fence cost.
    c4: Ps,
    /// cyc(20.0): wave-scheduling block dispatch.
    c20: Ps,
}

/// The `Engine::cyc` conversion as a free function, usable before `self`
/// exists (release-mode clamp; the debug negative check lives in `cyc`).
fn cyc_of(ps_per_cycle: f64, c: f64) -> Ps {
    Ps((c * ps_per_cycle).round().max(0.0) as u64)
}

impl LatTab {
    fn new(arch: &GpuArch, ppc: f64) -> LatTab {
        let t = &arch.timing;
        let cyc = |c: f64| cyc_of(ppc, c);
        let mut smem_port_int = [Ps::ZERO; 33];
        for (n, slot) in smem_port_int.iter_mut().enumerate() {
            *slot = cyc(8.0 * n as f64 / t.smem_bytes_per_cycle_sm);
        }
        LatTab {
            issue_interval: cyc(t.issue_interval),
            alu: cyc(t.alu_latency as f64),
            fadd32: cyc(t.fadd32_latency as f64),
            fadd64: cyc(t.fadd64_latency as f64),
            smem_ld: cyc(t.smem_latency as f64),
            smem_ld_vol: cyc((t.smem_latency + t.volatile_extra) as f64),
            smem_st: cyc(1.0),
            smem_st_vol: cyc((t.volatile_extra + 1) as f64),
            smem_port_int,
            dram: cyc(arch.memory.dram_latency as f64),
            l2: cyc(arch.memory.l2_latency as f64),
            l2_atomic_int: cyc(t.l2_atomic_interval),
            global_atomic: cyc(t.global_atomic_latency as f64),
            shfl_tile_int: cyc(1.0 / t.shfl_tile.throughput_per_sm),
            shfl_tile_lat: cyc(t.shfl_tile.latency_cycles as f64),
            shfl_coa_int: cyc(1.0 / t.shfl_coalesced.throughput_per_sm),
            shfl_coa_lat: cyc(t.shfl_coalesced.latency_cycles as f64),
            shfl_coa_cold_lat: cyc(t.shfl_coalesced_cold_cycles as f64),
            tile_sync_int: cyc(1.0 / t.tile_sync.throughput_per_sm),
            tile_sync_lat: cyc(t.tile_sync.latency_cycles as f64),
            coa_full_int: cyc(1.0 / t.coalesced_sync_full.throughput_per_sm),
            coa_full_lat: cyc(t.coalesced_sync_full.latency_cycles as f64),
            coa_part_int: cyc(1.0 / t.coalesced_sync_partial.throughput_per_sm),
            coa_part_lat: cyc(t.coalesced_sync_partial.latency_cycles as f64),
            block_arr_int: cyc(t.block_sync_arrival_cycles),
            block_sync: cyc(t.block_sync_latency as f64),
            poll: cyc(t.poll_interval as f64),
            clock_read: cyc(t.clock_read_latency as f64),
            div_switch: cyc(t.divergence_switch_cycles as f64),
            wb_switch: cyc(t.warp_barrier_switch_cycles as f64),
            c1: cyc(1.0),
            c4: cyc(4.0),
            c20: cyc(20.0),
        }
    }
}

/// A pre-resolved ALU operand (see [`Engine::alu_src`]).
#[derive(Clone, Copy)]
enum AluSrc {
    /// Column offset of a register in the flattened file (`r * 32`).
    Col(usize),
    /// A lane-invariant value (immediate, kernel param, uniform special).
    Const(u64),
    /// A lane-affine special: value is `base.wrapping_add(lane)` in u32
    /// (matching `eval`'s u32 arithmetic), widened to u64. Covers `Tid`,
    /// `LaneId`, and `GlobalTid` — every other special is warp-uniform.
    Lin(u32),
}

/// What executing one instruction for a group did.
enum Step {
    /// Group advanced; next step at `done`.
    Ready(Ps),
    /// Group parked at a barrier; the warp may still have other runnable
    /// lanes. `true` if it was a warp-level barrier (Volta switch cost).
    Parked { warp_barrier: bool },
}

impl<'a> Engine<'a> {
    pub(crate) fn new(sys: &'a mut GpuSystem, launch: &'a GridLaunch) -> Engine<'a> {
        let arch = sys.arch.clone();
        let ps_per_cycle = arch.clock().ps_per_cycle();
        let lat = LatTab::new(&arch, ps_per_cycle);
        let nregs = reg_rows(&launch.kernel.program);
        Engine {
            sys,
            launch,
            arch,
            ps_per_cycle,
            lat,
            nregs,
            free_regs: Vec::new(),
            now: Ps::ZERO,
            q: EventQueue::new(),
            warps: Vec::new(),
            blocks: Vec::new(),
            devs: Vec::new(),
            mgrid: MultiGridBar::default(),
            peer: HashMap::new(),
            instrs_executed: 0,
            warps_run: 0,
            trace: None,
            check: launch.checked,
            grace: None,
            prof: None,
            last_issue_start: Ps::ZERO,
            fault: None,
            watchdog: None,
            last_progress_at: Ps::ZERO,
            #[cfg(test)]
            per_lane_only: false,
        }
    }

    /// Enable tracing of up to `cap` executed instructions.
    pub(crate) fn with_trace(mut self, cap: usize) -> Self {
        self.trace = Some((cap, Vec::new()));
        self
    }

    /// Arm the dynamic racecheck (in addition to the launch's own flag).
    pub(crate) fn with_check(mut self, check: bool) -> Self {
        self.check |= check;
        self
    }

    /// Arm fault injection from a plan. Zero plans (and `None`) leave the
    /// engine in its clean configuration — no fault hook ever fires.
    pub(crate) fn with_faults(mut self, plan: Option<&FaultPlan>) -> Self {
        if let Some(p) = plan {
            if !p.is_zero() {
                let degraded = if p.degrades_links() {
                    Some(Arc::new(self.sys.topology.degraded(
                        p.link_latency_mult_permille,
                        p.link_bw_mult_permille,
                    )))
                } else {
                    None
                };
                let mut killed = p.killed_blocks.clone();
                killed.sort_unstable();
                killed.dedup();
                self.fault = Some(FaultState {
                    plan: p.clone(),
                    degraded,
                    killed,
                    barrier_draws: 0,
                });
            }
        }
        self
    }

    /// Arm the progress watchdog with a simulated-time budget.
    pub(crate) fn with_watchdog(mut self, budget: Option<Ps>) -> Self {
        self.watchdog = budget;
        self
    }

    /// Enable syncprof stall attribution and per-SM counters.
    pub(crate) fn with_profile(mut self, profile: bool) -> Self {
        if profile {
            self.prof = Some(ProfState {
                sms: Vec::new(),
                epochs: Vec::new(),
                epochs_dropped: 0,
            });
        }
        self
    }

    /// Convert a cycle count to integer picoseconds. A negative count is a
    /// timing-table bug, not a value to round to zero — assert in debug;
    /// the release build keeps only the clamp.
    fn cyc(&self, c: f64) -> Ps {
        debug_assert!(c >= 0.0, "negative cycle count {c} reached Engine::cyc");
        cyc_of(self.ps_per_cycle, c)
    }

    pub(crate) fn run_full(
        mut self,
    ) -> SimResult<(
        ExecReport,
        Vec<TraceEvent>,
        HazardReport,
        Option<ProfileReport>,
    )> {
        self.setup();
        let mut next = self.q.pop();
        while let Some((t, ev)) = next {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            if self.watchdog_expired() {
                return Err(self.watchdog_error());
            }
            let resched = match ev {
                Ev::WarpStep(w, gen) => {
                    if self.warps[w as usize].gen == gen && !self.warps[w as usize].done {
                        self.run_warp(w)?.map(|at| (w, at))
                    } else {
                        None
                    }
                }
                Ev::StartBlock(b) => {
                    self.start_block(b);
                    None
                }
            };
            if self.instrs_executed > self.sys.instr_limit {
                return Err(self.instr_limit_error());
            }
            // A warp that could not run ahead is due no earlier than the
            // queue head: its push and the next pop fuse into one sift.
            next = match resched {
                Some((w, at)) => {
                    let warp = &mut self.warps[w as usize];
                    warp.gen = warp.gen.wrapping_add(1);
                    Some(self.q.push_pop(at, Ev::WarpStep(w, warp.gen)))
                }
                None => self.q.pop(),
            };
        }
        self.finish()
    }

    fn instr_limit_error(&self) -> SimError {
        let limit = self.sys.instr_limit;
        SimError::ProgramError(format!(
            "kernel {:?} exceeded {limit} instructions — non-terminating?",
            self.launch.kernel.name
        ))
    }

    /// Multi-grid release times from every rank's local arrival time — the
    /// master-device flag exchange of the paper's multi-grid barrier (§VI).
    fn mgrid_release_times(&self, arrivals: &[Ps]) -> Vec<Ps> {
        let topo = match &self.fault {
            Some(f) => f
                .degraded
                .clone()
                .unwrap_or_else(|| self.sys.topology.clone()),
            None => self.sys.topology.clone(),
        };
        let master = self.launch.devices[0];
        // Arrival: every rank's leader flags the master. A flag posted while
        // the link is flapped down waits out the rest of the down window.
        let mut master_done = Ps::ZERO;
        let mut serial = Ps::ZERO;
        for (r, &dev) in self.launch.devices.iter().enumerate() {
            let d = arrivals[r];
            master_done = master_done.max(d + self.fault_flap(d) + topo.flag_latency(dev, master));
            serial += topo.arrival_serial(master, dev);
        }
        master_done += serial;
        // Release: master flags every rank back.
        self.launch
            .devices
            .iter()
            .map(|&dev| master_done + topo.flag_latency(master, dev))
            .collect()
    }

    /// Step `w`, then *run ahead*: as long as the warp's next step lands
    /// strictly before every pending event, keep stepping it inline instead
    /// of a heap push/pop round-trip per instruction. Strict `<` means no
    /// equal-time event can be overtaken, so FIFO tie-breaking — and hence
    /// byte-identical replay — is preserved. Before each inline step the
    /// warp's generation is bumped exactly as `schedule_warp` would, so any
    /// event pushed for this warp in the meantime (e.g. a synchronous
    /// barrier-release wake) goes stale just as it would on the slow path.
    ///
    /// Returns the time the warp must be scheduled at when it cannot run
    /// ahead; `run_full` fuses that push with its next pop.
    fn run_warp(&mut self, w: u32) -> SimResult<Option<Ps>> {
        let mut next = self.step_warp(w)?;
        while let Some(at) = next {
            let ahead = match self.q.peek_time() {
                None => true,
                Some(t) => at < t,
            };
            if !ahead {
                return Ok(Some(at));
            }
            if self.instrs_executed > self.sys.instr_limit {
                return Err(self.instr_limit_error());
            }
            let warp = &mut self.warps[w as usize];
            warp.gen = warp.gen.wrapping_add(1);
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            // A lone spinning warp never leaves this inline loop (the queue
            // is empty), so the watchdog must also fire here.
            if self.watchdog_expired() {
                return Err(self.watchdog_error());
            }
            next = self.step_warp(w)?;
        }
        Ok(None)
    }

    // ----- fault injection / watchdog -----------------------------------------

    /// Whether the armed watchdog's no-progress budget is exhausted at `now`.
    #[inline]
    fn watchdog_expired(&self) -> bool {
        match self.watchdog {
            Some(budget) => self.now.saturating_sub(self.last_progress_at) > budget,
            None => false,
        }
    }

    /// Structured livelock report: every unfinished warp with its PC and
    /// what it was waiting on, sorted by (rank, sm, block, warp).
    fn watchdog_error(&self) -> SimError {
        SimError::Watchdog {
            at: self.now,
            last_progress: self.last_progress_at,
            stuck: self.stuck_warps(),
            faults: self.fault_fingerprint(),
        }
    }

    /// Fingerprint of the armed fault plan (`None` when unfaulted), stamped
    /// into the Deadlock/Watchdog errors this engine constructs.
    fn fault_fingerprint(&self) -> Option<sim_core::FaultFingerprint> {
        self.fault.as_ref().map(|f| f.plan.fingerprint())
    }

    /// Every unfinished warp with its PC and wait kind, sorted by
    /// (rank, sm, block, warp).
    fn stuck_warps(&self) -> Vec<StuckWarp> {
        let mut stuck: Vec<StuckWarp> = self
            .warps
            .iter()
            .filter(|w| !w.done)
            .map(|w| {
                let waiting = if w.blk_wait != 0 {
                    match w.blk_kind {
                        BlockWaitKind::Grid => StuckKind::GridBarrier,
                        BlockWaitKind::MultiGrid => StuckKind::MultiGridBarrier,
                        _ => StuckKind::BlockBarrier,
                    }
                } else if w.wb_wait != 0 {
                    StuckKind::TileBarrier
                } else {
                    StuckKind::Spinning
                };
                // For a spinning warp this is the PC of the loop it keeps
                // revisiting; for a parked warp, the barrier site.
                let pc = iter_lanes(w.present() & !w.exited)
                    .map(|l| w.pcs[(l & 31) as usize])
                    .min()
                    .unwrap_or(0);
                StuckWarp {
                    rank: w.rank,
                    sm: w.sm,
                    block: self.blocks[w.block as usize].block_on_device,
                    warp: w.warp_in_block,
                    pc,
                    waiting,
                }
            })
            .collect();
        stuck.sort_unstable();
        stuck
    }

    /// Record that the lanes in `mask` of warp `w` moved (their `pcs` are
    /// already updated): forward progress iff some lane beat its own
    /// watermark. Per-lane watermarks keep a divergent forward jump (one
    /// lane reaching the exit label) from masking another lane's later,
    /// genuine progress. Only maintained while the watchdog is armed — the
    /// clean path pays one predictable branch.
    /// Record forward progress that the PC watermark cannot see: an
    /// operation whose *success* proves the system is live (a satisfied
    /// `wait.ge`, a CAS that exchanged) happening at an already-visited PC,
    /// e.g. each round of a spin-barrier loop. Livelocked spins never
    /// succeed, so they still starve the watchdog.
    #[inline]
    fn note_semantic_progress(&mut self) {
        if self.watchdog.is_some() {
            self.last_progress_at = self.now;
        }
    }

    /// Identity of `lane` of warp `w` for the global racecheck.
    fn grace_agent(&self, w: u32, lane: u32) -> GlobalAgent {
        let warp = &self.warps[w as usize];
        GlobalAgent {
            rank: warp.rank,
            block: self.blocks[warp.block as usize].block_on_device,
            thread: warp.warp_in_block * WARP + lane,
        }
    }

    /// A scope-appropriate synchronization event executed (atomic, fence,
    /// signal, satisfied wait, grid barrier): advance the global racecheck
    /// epoch. No-op when the racecheck is unarmed.
    #[inline]
    fn grace_sync(&mut self) {
        if let Some(g) = &mut self.grace {
            g.sync_event();
        }
    }

    #[inline]
    fn note_lanes(&mut self, w: u32, mask: u32) {
        if self.watchdog.is_some() {
            let warp = &mut self.warps[w as usize];
            let mut progressed = false;
            for lane in iter_lanes(mask) {
                let pc = warp.pcs[(lane & 31) as usize];
                let max = &mut warp.max_pcs[(lane & 31) as usize];
                if pc > *max {
                    *max = pc;
                    progressed = true;
                }
            }
            if progressed {
                self.last_progress_at = self.now;
            }
        }
    }

    /// Scale a step's completion time by the warp's fault multiplier
    /// (straggler jitter x SM throttle). Identity without an armed plan.
    #[inline]
    fn fault_scaled(&self, w: u32, done: Ps) -> Ps {
        if self.fault.is_none() {
            return done;
        }
        let m = self.warps[w as usize].mult_permille;
        if m == 1000 || done <= self.now {
            return done;
        }
        self.now + Ps((done - self.now).0.saturating_mul(m as u64) / 1000)
    }

    /// Per-warp fault multiplier, drawn from the plan's seed and the warp's
    /// stable coordinates — never from execution order.
    fn fault_warp_mult(&self, rank: u32, block_on_device: u32, wi: u32, sm: u32) -> u32 {
        let Some(f) = &self.fault else { return 1000 };
        let p = &f.plan;
        let mut m = 1000u64;
        if p.straggler_permille > 0
            && fault::mix(
                p.seed,
                &[
                    fault::TAG_STRAGGLER,
                    rank as u64,
                    block_on_device as u64,
                    wi as u64,
                ],
            ) % 1000
                < p.straggler_permille as u64
        {
            m = m * p.straggler_mult_permille as u64 / 1000;
        }
        if p.sm_throttle_permille > 0
            && fault::mix(p.seed, &[fault::TAG_SM_THROTTLE, rank as u64, sm as u64]) % 1000
                < p.sm_throttle_permille as u64
        {
            m = m * p.sm_throttle_mult_permille as u64 / 1000;
        }
        m.clamp(1, u32::MAX as u64) as u32
    }

    /// Whether the plan kills `gb`'s arrival at grid-level barriers.
    fn fault_block_killed(&self, gb: u32) -> bool {
        let Some(f) = &self.fault else { return false };
        if f.killed.is_empty() {
            return false;
        }
        let b = &self.blocks[gb as usize];
        f.killed.binary_search(&(b.rank, b.block_on_device)).is_ok()
    }

    /// Extra delay for a barrier arrival drawn from the plan (counter-based,
    /// so the draw sequence replays identically).
    fn fault_barrier_delay(&mut self) -> Ps {
        let Some(f) = &mut self.fault else {
            return Ps::ZERO;
        };
        let p = &f.plan;
        if p.barrier_delay_permille == 0 || p.barrier_delay_ns == 0 {
            return Ps::ZERO;
        }
        f.barrier_draws += 1;
        if fault::mix(p.seed, &[fault::TAG_BARRIER_DELAY, f.barrier_draws]) % 1000
            < p.barrier_delay_permille as u64
        {
            Ps::from_ns(p.barrier_delay_ns)
        } else {
            Ps::ZERO
        }
    }

    /// The interconnect the run sees: the plan's degraded copy when links
    /// are faulted, the system's otherwise.
    #[inline]
    fn topo(&self) -> &NodeTopology {
        match &self.fault {
            Some(f) => f.degraded.as_deref().unwrap_or(&self.sys.topology),
            None => &self.sys.topology,
        }
    }

    /// Wait until the links are back up if `at` lands in a flap's down
    /// window (a deterministic function of simulated time).
    fn fault_flap(&self, at: Ps) -> Ps {
        let Some(f) = &self.fault else {
            return Ps::ZERO;
        };
        let p = &f.plan;
        if p.flap_period_ns == 0 || p.flap_down_ns == 0 {
            return Ps::ZERO;
        }
        let period = Ps::from_ns(p.flap_period_ns).0;
        let down = Ps::from_ns(p.flap_down_ns).0.min(period);
        let phase = at.0 % period;
        if phase < down {
            Ps(down - phase)
        } else {
            Ps::ZERO
        }
    }

    fn setup(&mut self) {
        if self.check {
            self.grace = Some(GlobalRaceCheck::new());
        }
        let occ = self
            .arch
            .occupancy(self.launch.block_dim, self.launch.kernel.shared_words * 8);
        let nranks = self.launch.devices.len();
        if let Some(p) = &mut self.prof {
            p.sms = (0..nranks)
                .map(|rank| {
                    (0..self.arch.num_sms)
                        .map(|sm| SmProfile::empty(rank as u32, sm))
                        .collect()
                })
                .collect();
        }
        for (rank, &device_id) in self.launch.devices.iter().enumerate() {
            let sms = (0..self.arch.num_sms)
                .map(|_| SmExec {
                    scheds: (0..self.arch.schedulers_per_sm)
                        .map(|_| Pipeline::new())
                        .collect(),
                    barrier_unit: Pipeline::new(),
                    sync_unit: Pipeline::new(),
                    smem_port: Pipeline::new(),
                })
                .collect();
            let mem = &self.arch.memory;
            self.devs.push(DevExec {
                device_id,
                l2: Pipeline::new(),
                dram: Channel::new(mem.dram_effective_gbs(), self.cyc(mem.dram_latency as f64)),
                sms,
                pending: Vec::new(),
                resident: vec![0; self.arch.num_sms as usize],
                max_resident_per_sm: occ.blocks_per_sm.max(1),
                blocks_done: 0,
                end_time: Ps::ZERO,
                grid_bar: GridBar::default(),
            });
            // Create block records for this rank.
            for b in 0..self.launch.grid_dim {
                let sm = b % self.arch.num_sms;
                self.blocks.push(BlockRt {
                    rank: rank as u32,
                    sm,
                    block_on_device: b,
                    warp_start: 0,
                    nwarps: self.arch.warps_per_block(self.launch.block_dim),
                    live_warps: 0,
                    bar_arrived: 0,
                    bar_waiting: Vec::new(),
                    bar_last: Ps::ZERO,
                    started: false,
                    done: false,
                    smem: if self.check {
                        SharedMem::with_racecheck(self.launch.kernel.shared_words)
                    } else {
                        SharedMem::new(self.launch.kernel.shared_words)
                    },
                });
            }
        }
        self.mgrid.rank_done = vec![None; nranks];
        // Every block's warps are pushed exactly once; reserving up front
        // avoids doubling-growth copies of the (large) `Warp` structs.
        let warps_per_block = self.arch.warps_per_block(self.launch.block_dim) as usize;
        self.warps
            .reserve(self.launch.grid_dim as usize * nranks * warps_per_block);
        // Initial wave: fill residency round-robin; queue the rest.
        for rank in 0..nranks {
            let base = rank as u32 * self.launch.grid_dim;
            for b in 0..self.launch.grid_dim {
                let gb = base + b;
                let sm = self.blocks[gb as usize].sm as usize;
                if self.devs[rank].resident[sm] < self.devs[rank].max_resident_per_sm {
                    self.devs[rank].resident[sm] += 1;
                    self.prof_note_resident(rank, sm);
                    self.q.push(Ps::ZERO, Ev::StartBlock(gb));
                } else {
                    self.devs[rank].pending.push(gb);
                }
            }
            // Process pending queue FIFO.
            self.devs[rank].pending.reverse();
        }
    }

    fn start_block(&mut self, gb: u32) {
        let block_dim = self.launch.block_dim;
        let b = &mut self.blocks[gb as usize];
        debug_assert!(!b.started);
        b.started = true;
        b.warp_start = self.warps.len() as u32;
        b.live_warps = b.nwarps;
        let (rank, sm, wstart, nwarps, block_on_device) =
            (b.rank, b.sm, b.warp_start, b.nwarps, b.block_on_device);
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[rank as usize][sm as usize];
            c.blocks_started += 1;
            c.warps_started += nwarps as u64;
        }
        for wi in 0..nwarps {
            let lanes_here = (block_dim - wi * WARP).min(WARP);
            let mut regs = self.free_regs.pop().unwrap_or_default();
            regs.clear();
            regs.resize(self.nregs * 32, 0);
            let w = Warp {
                rank,
                sm,
                sched: (wi % self.arch.schedulers_per_sm),
                block: gb,
                warp_in_block: wi,
                gen: 0,
                nlanes: lanes_here,
                pcs: [0; 32],
                regs,
                exited: 0,
                wb_wait: 0,
                wb_width: 0,
                blk_wait: 0,
                blk_kind: BlockWaitKind::None,
                wb_parked_at: Ps::ZERO,
                blk_parked_at: Ps::ZERO,
                last_mask: 0,
                prev_blocked_at_warp_barrier: false,
                coa_shfl_hot: false,
                done: false,
                mult_permille: self.fault_warp_mult(rank, block_on_device, wi, sm),
                max_pcs: [0; 32],
            };
            self.warps.push(w);
            self.warps_run += 1;
            let widx = wstart + wi;
            self.schedule_warp(widx, self.now);
        }
    }

    fn schedule_warp(&mut self, w: u32, at: Ps) {
        let warp = &mut self.warps[w as usize];
        warp.gen = warp.gen.wrapping_add(1);
        self.q.push(at, Ev::WarpStep(w, warp.gen));
    }

    // ----- operand evaluation -------------------------------------------------

    fn eval(&self, w: u32, lane: u32, op: Operand) -> u64 {
        let warp = &self.warps[w as usize];
        match op {
            Operand::Reg(r) => warp.reg(lane, r),
            Operand::Imm(v) => v,
            Operand::Param(p) => self.launch.params[warp.rank as usize][p as usize],
            Operand::Sp(s) => {
                let block = &self.blocks[warp.block as usize];
                let tid = warp.warp_in_block * WARP + lane;
                match s {
                    Special::Tid => tid as u64,
                    Special::LaneId => lane as u64,
                    Special::WarpId => warp.warp_in_block as u64,
                    Special::BlockId => block.block_on_device as u64,
                    Special::BlockDim => self.launch.block_dim as u64,
                    Special::GridDim => self.launch.grid_dim as u64,
                    Special::GpuRank => warp.rank as u64,
                    Special::NumGpus => self.launch.devices.len() as u64,
                    Special::GlobalTid => {
                        (block.block_on_device * self.launch.block_dim + tid) as u64
                    }
                    Special::GridThreads => (self.launch.grid_dim * self.launch.block_dim) as u64,
                }
            }
        }
    }

    // ----- resource charging --------------------------------------------------

    /// Issue through the warp's scheduler slot, then optionally a unit.
    fn charge_sched(&mut self, w: u32) -> Ps {
        let warp = &self.warps[w as usize];
        let (rank, sm, sched) = (warp.rank as usize, warp.sm as usize, warp.sched as usize);
        let interval = self.lat.issue_interval;
        let start = self.devs[rank].sms[sm].scheds[sched]
            .issue(self.now, interval, Ps::ZERO)
            .start;
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[rank][sm];
            c.stalls.issue_stall_ps += start.saturating_sub(self.now).0;
            c.issue_busy_ps += interval.0;
            c.instrs_issued += 1;
        }
        self.last_issue_start = start;
        start
    }

    // ----- main step ----------------------------------------------------------

    /// Execute one step of warp `w`. Returns the time the warp should next
    /// be stepped, or `None` when it is parked, retired, or a wake event
    /// already carries its schedule — the caller (`run_warp`) either pushes
    /// the event or runs the warp ahead inline.
    fn step_warp(&mut self, w: u32) -> SimResult<Option<Ps>> {
        let warp = &self.warps[w as usize];
        let runnable = warp.runnable();
        if runnable == 0 {
            return Ok(None); // Parked or done; a wake will reschedule.
        }
        // Min-PC group selection, one pass (`& 31` proves the index in
        // bounds so the fixed-array access needs no check).
        let mut min_pc = u32::MAX;
        let mut group = 0u32;
        for lane in iter_lanes(runnable) {
            let pc = warp.pcs[(lane & 31) as usize];
            if pc < min_pc {
                min_pc = pc;
                group = 1 << lane;
            } else if pc == min_pc {
                group |= 1 << lane;
            }
        }

        // Divergence / barrier-requeue switch costs: pay them as a delay and
        // re-enter (so simulated time never runs backwards for other events).
        let mut pre = Ps::ZERO;
        if warp.last_mask != 0 && warp.last_mask != group {
            pre += self.lat.div_switch;
            if warp.prev_blocked_at_warp_barrier {
                pre += self.lat.wb_switch;
            }
        }
        {
            let warp = &mut self.warps[w as usize];
            warp.last_mask = group;
            warp.prev_blocked_at_warp_barrier = false;
        }
        if !pre.is_zero() {
            // Switch costs count as issue stall: the warp holds no unit.
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            if let Some(p) = &mut self.prof {
                p.sms[rank][sm].stalls.issue_stall_ps += pre.0;
            }
            return Ok(Some(self.now + pre));
        }

        // Implicit exit at program end.
        if min_pc as usize >= self.launch.kernel.program.len() {
            self.retire_lanes(w, group);
            return Ok(None);
        }

        let instr = self.launch.kernel.program.instrs[min_pc as usize];
        self.instrs_executed += 1;
        if let Some((cap, events)) = &mut self.trace {
            if events.len() < *cap {
                let warp = &self.warps[w as usize];
                events.push(TraceEvent {
                    at: self.now,
                    rank: warp.rank,
                    sm: warp.sm,
                    block: self.blocks[warp.block as usize].block_on_device,
                    warp_in_block: warp.warp_in_block,
                    lanes: group,
                    pc: min_pc,
                    instr,
                });
            }
        }
        self.last_issue_start = self.now;
        match self.exec(w, group, min_pc, instr)? {
            Step::Ready(done) => {
                let done = self.fault_scaled(w, done);
                if self.prof.is_some() {
                    self.prof_attribute_ready(w, &instr, done);
                }
                let warp = &self.warps[w as usize];
                if warp.runnable() != 0 {
                    return Ok(Some(done));
                }
                Ok(None)
            }
            Step::Parked { warp_barrier } => {
                let warp = &mut self.warps[w as usize];
                warp.prev_blocked_at_warp_barrier = warp_barrier;
                let still_parked = warp.wb_wait != 0 || warp.blk_wait != 0;
                if warp.runnable() != 0 && still_parked {
                    // Other divergent groups keep executing. (If the barrier
                    // released synchronously, the release already scheduled
                    // the wake — rescheduling would erase its latency.)
                    return Ok(Some(self.now));
                }
                Ok(None)
            }
        }
    }

    fn advance_pcs(&mut self, w: u32, mask: u32, from_pc: u32) {
        let warp = &mut self.warps[w as usize];
        if mask == FULL {
            debug_assert!(warp.pcs.iter().all(|&pc| pc == from_pc));
            warp.pcs = [from_pc + 1; 32];
        } else {
            for lane in iter_lanes(mask) {
                debug_assert_eq!(warp.pcs[(lane & 31) as usize], from_pc);
                warp.pcs[(lane & 31) as usize] = from_pc + 1;
            }
        }
        self.note_lanes(w, mask);
    }

    /// Mark lanes exited; drive warp/block/grid completion bookkeeping.
    fn retire_lanes(&mut self, w: u32, mask: u32) {
        // Retirement is forward progress regardless of the PC watermark.
        if self.watchdog.is_some() {
            self.last_progress_at = self.now;
        }
        let warp = &mut self.warps[w as usize];
        warp.exited |= mask;
        let all_exited = warp.exited == warp.present();
        // Exits may complete a pending warp-level barrier...
        self.try_release_warp_barrier(w);
        // ...or turn the remaining lanes into a full block-barrier arrival.
        {
            let warp = &self.warps[w as usize];
            if !all_exited && warp.blk_wait != 0 && warp.blk_wait == warp.present() & !warp.exited {
                let kind = warp.blk_kind;
                self.warp_arrives_at_block_barrier(w, kind);
            }
        }
        if all_exited {
            let warp = &mut self.warps[w as usize];
            if !warp.done {
                warp.done = true;
                // Recycle per-lane state for the next started warp.
                let regs = std::mem::take(&mut warp.regs);
                let block = warp.block;
                self.free_regs.push(regs);
                self.warp_finished(block, w);
            }
        }
    }

    /// ...and a fully exited warp may complete a pending block barrier or
    /// finish the block.
    fn warp_finished(&mut self, gb: u32, _w: u32) {
        let (live, kind) = {
            let b = &mut self.blocks[gb as usize];
            b.live_warps -= 1;
            let kind = b
                .bar_waiting
                .first()
                .map(|&w| self.warps[w as usize].blk_kind)
                .filter(|_| b.bar_arrived == b.live_warps);
            (b.live_warps, kind)
        };
        if live == 0 {
            self.block_finished(gb);
        } else if let Some(kind) = kind {
            match kind {
                BlockWaitKind::Block => self.release_block_barrier(gb),
                BlockWaitKind::Grid | BlockWaitKind::MultiGrid => {
                    self.block_arrives_at_grid(gb, kind)
                }
                BlockWaitKind::None => {}
            }
        }
    }

    fn block_finished(&mut self, gb: u32) {
        let b = &mut self.blocks[gb as usize];
        debug_assert!(!b.done);
        b.done = true;
        let (rank, sm) = (b.rank as usize, b.sm as usize);
        let dev = &mut self.devs[rank];
        dev.blocks_done += 1;
        dev.end_time = dev.end_time.max(self.now);
        dev.resident[sm] -= 1;
        // Wave scheduling: start a pending block in the freed slot.
        if let Some(next) = dev.pending.pop() {
            let next_sm = self.blocks[next as usize].sm as usize;
            dev.resident[next_sm] += 1;
            self.prof_note_resident(rank, next_sm);
            self.q.push(self.now + self.lat.c20, Ev::StartBlock(next));
        }
    }

    // ----- profile hooks -------------------------------------------------------

    /// Record the current residency of `sm` as a potential high-water mark.
    fn prof_note_resident(&mut self, rank: usize, sm: usize) {
        if let Some(p) = &mut self.prof {
            let resident = self.devs[rank].resident[sm];
            let c = &mut p.sms[rank][sm];
            c.peak_resident_blocks = c.peak_resident_blocks.max(resident);
        }
    }

    /// Record a barrier-release instant (Perfetto instant event feed).
    fn prof_epoch(&mut self, rank: u32, scope: SyncScope, at: Ps) {
        if let Some(p) = &mut self.prof {
            if p.epochs.len() < EPOCH_CAP {
                p.epochs.push(BarrierEpoch {
                    at_ps: at.0,
                    rank,
                    scope,
                });
            } else {
                p.epochs_dropped += 1;
            }
        }
    }

    /// Attribute `ps` to a barrier-wait bucket of the warp's SM.
    fn prof_barrier_wait(&mut self, w: u32, scope: SyncScope, ps: u64) {
        let warp = &self.warps[w as usize];
        let (rank, sm) = (warp.rank as usize, warp.sm as usize);
        if let Some(p) = &mut self.prof {
            *p.sms[rank][sm].stalls.barrier_wait_mut(scope) += ps;
        }
    }

    /// After an instruction completed at `done`: attribute its post-issue
    /// latency (`done - issue start`) to the bucket its class belongs to.
    fn prof_attribute_ready(&mut self, w: u32, instr: &Instr, done: Ps) {
        use Instr::*;
        let warp = &self.warps[w as usize];
        let (rank, sm) = (warp.rank as usize, warp.sm as usize);
        let lat = done.saturating_sub(self.last_issue_start.max(self.now)).0;
        if let Some(p) = &mut self.prof {
            let c = &mut p.sms[rank][sm].stalls;
            match instr {
                LdShared { .. }
                | StShared { .. }
                | LdGlobal { .. }
                | StGlobal { .. }
                | MemStream { .. }
                | MemCombine { .. }
                | SmemStream { .. }
                | MemFence => c.mem_ps += lat,
                AtomicFAdd { .. }
                | AtomicCas { .. }
                | AtomicExch { .. }
                | AtomicIAdd { .. }
                | Signal { .. } => c.atomic_ps += lat,
                // Both the successful poll and every backed-off retry land
                // here: the whole time a warp spends on a flag is flag-wait.
                WaitGe { .. } => c.flag_wait_ps += lat,
                Nanosleep(..) => c.sleep_ps += lat,
                // A warp barrier that completed synchronously (converged
                // warp, or Pascal's fence semantics): its latency is barrier
                // cost, not wait.
                SyncTile { .. } | SyncCoalesced => c.tile_wait_ps += lat,
                _ => c.exec_ps += lat,
            }
        }
    }

    // ----- instruction execution ---------------------------------------------

    /// A resolved ALU source: registers become a column offset into the
    /// flattened file; immediates, kernel params, and warp-uniform specials
    /// become a single constant; lane-affine specials become a base the
    /// lane id is added to — all resolvable ONCE per instruction instead of
    /// per lane (mirrors [`Engine::eval`], including its u32 arithmetic).
    fn alu_src(&self, w: u32, op: Operand) -> AluSrc {
        match op {
            Operand::Reg(r) => AluSrc::Col(r as usize * 32),
            Operand::Imm(v) => AluSrc::Const(v),
            Operand::Param(p) => {
                let rank = self.warps[w as usize].rank as usize;
                AluSrc::Const(self.launch.params[rank][p as usize])
            }
            Operand::Sp(s) => {
                let warp = &self.warps[w as usize];
                let tid0 = warp.warp_in_block * WARP;
                match s {
                    Special::Tid => AluSrc::Lin(tid0),
                    Special::LaneId => AluSrc::Lin(0),
                    Special::WarpId => AluSrc::Const(warp.warp_in_block as u64),
                    Special::BlockId => {
                        let block = &self.blocks[warp.block as usize];
                        AluSrc::Const(block.block_on_device as u64)
                    }
                    Special::BlockDim => AluSrc::Const(self.launch.block_dim as u64),
                    Special::GridDim => AluSrc::Const(self.launch.grid_dim as u64),
                    Special::GpuRank => AluSrc::Const(warp.rank as u64),
                    Special::NumGpus => AluSrc::Const(self.launch.devices.len() as u64),
                    Special::GlobalTid => {
                        let block = &self.blocks[warp.block as usize];
                        AluSrc::Lin(
                            block
                                .block_on_device
                                .wrapping_mul(self.launch.block_dim)
                                .wrapping_add(tid0),
                        )
                    }
                    Special::GridThreads => {
                        AluSrc::Const((self.launch.grid_dim * self.launch.block_dim) as u64)
                    }
                }
            }
        }
    }

    /// Materialize a resolved source into one value per lane (a 256-byte
    /// stack buffer — cheap, and lets every consumer run one straight,
    /// vectorizable loop regardless of source kind).
    #[inline]
    fn fill_src(&self, w: u32, src: AluSrc, out: &mut [u64; WARP as usize]) {
        match src {
            AluSrc::Col(c) => {
                out.copy_from_slice(&self.warps[w as usize].regs[c..c + WARP as usize])
            }
            AluSrc::Const(v) => *out = [v; WARP as usize],
            AluSrc::Lin(base) => {
                for (l, o) in out.iter_mut().enumerate() {
                    *o = base.wrapping_add(l as u32) as u64;
                }
            }
        }
    }

    /// Value of a pre-resolved source for one lane (used by the memory arms
    /// to keep the per-lane work down to a register read in the common
    /// uniform-operand case).
    #[inline]
    fn src_val(&self, w: u32, lane: u32, src: AluSrc) -> u64 {
        match src {
            AluSrc::Const(v) => v,
            AluSrc::Col(c) => self.warps[w as usize].regs[c + (lane & 31) as usize],
            AluSrc::Lin(base) => base.wrapping_add(lane) as u64,
        }
    }

    /// The value every lane of `group` reads through `src`, if it is the
    /// same for all of them: always for a `Const`, for a register when the
    /// group's lanes agree.
    fn uniform_val(&self, w: u32, group: u32, src: AluSrc) -> Option<u64> {
        match src {
            AluSrc::Const(v) => Some(v),
            AluSrc::Col(c) => {
                let regs = &self.warps[w as usize].regs[c..c + WARP as usize];
                let v = regs[(group.trailing_zeros() & 31) as usize];
                iter_lanes(group)
                    .all(|l| regs[(l & 31) as usize] == v)
                    .then_some(v)
            }
            AluSrc::Lin(_) => None,
        }
    }

    /// The warp-uniform fast path's buffer: the index `src` names for every
    /// lane of `group`, when the id resolves and the buffer is dense — the
    /// checks the per-lane path repeats per lane. `None` sends the
    /// instruction down the per-lane path, which also reports any fault.
    fn uniform_dense_buf(&self, w: u32, group: u32, src: AluSrc) -> Option<usize> {
        #[cfg(test)]
        if self.per_lane_only {
            return None;
        }
        let b = self.uniform_val(w, group, src)? as usize;
        self.sys.bufs.get(b)?.as_dense().map(|_| b)
    }

    /// Unary ALU op: `d = f(a)` for every lane in `group`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn alu1(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        d: Reg,
        a: Operand,
        lat: Ps,
        f: impl Fn(u64) -> u64,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let dcol = d as usize * 32;
        // Materialize the source (a 256-byte stack copy) so the destination
        // column may alias it and the compute loop vectorizes.
        let mut av = [0u64; WARP as usize];
        self.fill_src(w, self.alu_src(w, a), &mut av);
        let regs = &mut self.warps[w as usize].regs;
        if group == FULL {
            let dst = &mut regs[dcol..dcol + WARP as usize];
            for (o, &x) in dst.iter_mut().zip(av.iter()) {
                *o = f(x);
            }
        } else {
            for lane in iter_lanes(group) {
                let l = (lane & 31) as usize;
                regs[dcol + l] = f(av[l]);
            }
        }
        self.advance_pcs(w, group, pc);
        Ok(Step::Ready(start + lat))
    }

    /// Binary ALU op: `d = f(a, b)` for every lane in `group`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn alu2(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        d: Reg,
        a: Operand,
        b: Operand,
        lat: Ps,
        f: impl Fn(u64, u64) -> u64,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let dcol = d as usize * 32;
        // Materialize both sources (two 256-byte stack copies) so the
        // destination column may alias either one and the compute loop
        // vectorizes regardless of operand kinds.
        let mut av = [0u64; WARP as usize];
        self.fill_src(w, self.alu_src(w, a), &mut av);
        if let AluSrc::Const(c) = self.alu_src(w, b) {
            // Lane-invariant second operand: keep it scalar so the compiler
            // folds it straight into the vector loop.
            let regs = &mut self.warps[w as usize].regs;
            if group == FULL {
                let dst = &mut regs[dcol..dcol + WARP as usize];
                for (o, &x) in dst.iter_mut().zip(av.iter()) {
                    *o = f(x, c);
                }
            } else {
                for lane in iter_lanes(group) {
                    let l = (lane & 31) as usize;
                    regs[dcol + l] = f(av[l], c);
                }
            }
            self.advance_pcs(w, group, pc);
            return Ok(Step::Ready(start + lat));
        }
        let mut bv = [0u64; WARP as usize];
        self.fill_src(w, self.alu_src(w, b), &mut bv);
        let regs = &mut self.warps[w as usize].regs;
        if group == FULL {
            let dst = &mut regs[dcol..dcol + WARP as usize];
            for l in 0..WARP as usize {
                dst[l] = f(av[l], bv[l]);
            }
        } else {
            for lane in iter_lanes(group) {
                let l = (lane & 31) as usize;
                regs[dcol + l] = f(av[l], bv[l]);
            }
        }
        self.advance_pcs(w, group, pc);
        Ok(Step::Ready(start + lat))
    }

    fn exec(&mut self, w: u32, group: u32, pc: u32, instr: Instr) -> SimResult<Step> {
        use Instr::*;
        if !matches!(
            instr,
            Shfl {
                kind: ShflKind::Coalesced,
                ..
            }
        ) {
            self.warps[w as usize].coa_shfl_hot = false;
        }
        // The instruction is matched ONCE here; each arm runs its own lane
        // loop (the old code re-matched `instr` for every lane).
        match instr {
            IAdd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_add(y)
            }),
            ISub(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_sub(y)
            }),
            IMul(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| {
                x.wrapping_mul(y)
            }),
            IMin(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| x.min(y)),
            IAnd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| x & y),
            CmpLt(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| (x < y) as u64),
            CmpEq(d, a, b) => {
                self.alu2(w, group, pc, d, a, b, self.lat.alu, |x, y| (x == y) as u64)
            }
            Mov(d, a) => self.alu1(w, group, pc, d, a, self.lat.alu, |x| x),
            I2F(d, a) => self.alu1(w, group, pc, d, a, self.lat.alu, |x| (x as f64).to_bits()),
            FAdd(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd64, |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            FAdd32(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd32, |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            FMul(d, a, b) => self.alu2(w, group, pc, d, a, b, self.lat.fadd64, |x, y| {
                (f64::from_bits(x) * f64::from_bits(y)).to_bits()
            }),

            Bra(target) => {
                let start = self.charge_sched(w);
                let warp = &mut self.warps[w as usize];
                for lane in iter_lanes(group) {
                    warp.pcs[lane as usize] = target;
                }
                self.note_lanes(w, group);
                Ok(Step::Ready(start + self.lat.alu))
            }
            BraIf(cond, target) | BraIfZ(cond, target) => {
                let start = self.charge_sched(w);
                let want_nonzero = matches!(instr, BraIf(..));
                for lane in iter_lanes(group) {
                    let c = self.eval(w, lane, cond) != 0;
                    let taken = c == want_nonzero;
                    let new_pc = if taken { target } else { pc + 1 };
                    self.warps[w as usize].pcs[lane as usize] = new_pc;
                }
                self.note_lanes(w, group);
                Ok(Step::Ready(start + self.lat.alu))
            }
            Exit => {
                self.retire_lanes(w, group);
                Ok(Step::Ready(self.now + self.lat.c1))
            }

            LdShared {
                dst,
                addr,
                volatile,
            } => {
                let start = self.charge_sched(w);
                let warp = &self.warps[w as usize];
                let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
                let port_int = self.lat.smem_port_int[group.count_ones() as usize];
                let port = self.devs[rank].sms[sm]
                    .smem_port
                    .issue(start, port_int, Ps::ZERO);
                let lat = if volatile {
                    self.lat.smem_ld_vol
                } else {
                    self.lat.smem_ld
                };
                self.blocks[block as usize].smem.racecheck_at(pc);
                for lane in iter_lanes(group) {
                    let a = self.eval(w, lane, addr);
                    let tid = self.warps[w as usize].warp_in_block * WARP + lane;
                    let v = self.blocks[block as usize].smem.load(tid, a, volatile)?;
                    self.warps[w as usize].set_reg(lane, dst, v);
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(port.start + lat))
            }
            StShared {
                addr,
                val,
                volatile,
                pred,
            } => {
                let start = self.charge_sched(w);
                let warp = &self.warps[w as usize];
                let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
                let port_int = self.lat.smem_port_int[group.count_ones() as usize];
                let port = self.devs[rank].sms[sm]
                    .smem_port
                    .issue(start, port_int, Ps::ZERO);
                self.blocks[block as usize].smem.racecheck_at(pc);
                for lane in iter_lanes(group) {
                    if let Some(p) = pred {
                        if self.eval(w, lane, p) == 0 {
                            continue;
                        }
                    }
                    let a = self.eval(w, lane, addr);
                    let v = self.eval(w, lane, val);
                    let tid = self.warps[w as usize].warp_in_block * WARP + lane;
                    self.blocks[block as usize]
                        .smem
                        .store(tid, a, v, volatile)?;
                }
                self.advance_pcs(w, group, pc);
                let lat = if volatile {
                    self.lat.smem_st_vol
                } else {
                    self.lat.smem_st
                };
                Ok(Step::Ready(port.start + lat))
            }

            LdGlobal { dst, buf, idx } => {
                let start = self.charge_sched(w);
                let warp_rank = self.warps[w as usize].rank as usize;
                let mut remote = false;
                let (rb, ri) = (self.alu_src(w, buf), self.alu_src(w, idx));
                // Collect loads first, then write the register column, so the
                // warp borrow doesn't alternate with the buffer borrow.
                let mut vals = [0u64; WARP as usize];
                if let Some(b) = self.uniform_dense_buf(w, group, rb) {
                    let buffer = &self.sys.bufs[b];
                    let data = buffer.as_dense().expect("dense buffer");
                    for lane in iter_lanes(group) {
                        let i = self.src_val(w, lane, ri);
                        vals[(lane & 31) as usize] = match data.get(i as usize) {
                            Some(&v) => v,
                            None => return Err(buffer.fault("load", i)),
                        };
                    }
                    remote = buffer.device != self.devs[warp_rank].device_id;
                } else {
                    for lane in iter_lanes(group) {
                        let b = self.src_val(w, lane, rb) as usize;
                        let i = self.src_val(w, lane, ri);
                        let buffer =
                            self.sys.bufs.get(b).ok_or_else(|| {
                                SimError::MemoryFault(format!("bad buffer id {b}"))
                            })?;
                        remote |= buffer.device != self.devs[warp_rank].device_id;
                        vals[(lane & 31) as usize] = buffer.load(i)?;
                    }
                }
                // Take the checker out of `self` for the loop: grace_agent
                // needs a fresh immutable borrow per lane.
                if let Some(mut g) = self.grace.take() {
                    g.at(pc);
                    for lane in iter_lanes(group) {
                        let b = self.src_val(w, lane, rb) as u32;
                        let i = self.src_val(w, lane, ri);
                        g.on_load(self.grace_agent(w, lane), b, i);
                    }
                    self.grace = Some(g);
                }
                let warp = &mut self.warps[w as usize];
                for lane in iter_lanes(group) {
                    warp.set_reg(lane, dst, vals[(lane & 31) as usize]);
                }
                self.advance_pcs(w, group, pc);
                let mut done = start + self.lat.dram;
                if remote {
                    let dev = self.devs[warp_rank].device_id;
                    done += self.remote_flag_latency(dev);
                }
                Ok(Step::Ready(done))
            }
            StGlobal { buf, idx, val } => {
                let start = self.charge_sched(w);
                let (rb, ri, rv) = (
                    self.alu_src(w, buf),
                    self.alu_src(w, idx),
                    self.alu_src(w, val),
                );
                // Evaluate operands (immutable borrows) before the mutable
                // buffer stores.
                let mut stores = [(0usize, 0u64, 0u64); WARP as usize];
                let mut n = 0usize;
                for lane in iter_lanes(group) {
                    stores[n] = (
                        self.src_val(w, lane, rb) as usize,
                        self.src_val(w, lane, ri),
                        self.src_val(w, lane, rv),
                    );
                    n += 1;
                }
                if let Some(b) = self.uniform_dense_buf(w, group, rb) {
                    let data = self.sys.bufs[b].as_dense_mut().expect("dense buffer");
                    for &(_, i, v) in &stores[..n] {
                        match data.get_mut(i as usize) {
                            Some(slot) => *slot = v,
                            None => return Err(self.sys.bufs[b].fault("store", i)),
                        }
                    }
                } else {
                    for &(b, i, v) in &stores[..n] {
                        let buffer =
                            self.sys.bufs.get_mut(b).ok_or_else(|| {
                                SimError::MemoryFault(format!("bad buffer id {b}"))
                            })?;
                        buffer.store(i, v)?;
                    }
                }
                if let Some(mut g) = self.grace.take() {
                    g.at(pc);
                    for (k, lane) in iter_lanes(group).enumerate() {
                        let (b, i, _) = stores[k];
                        g.on_store(self.grace_agent(w, lane), b as u32, i);
                    }
                    self.grace = Some(g);
                }
                self.advance_pcs(w, group, pc);
                // Stores are fire-and-forget: only issue cost.
                Ok(Step::Ready(start + self.lat.c4))
            }
            AtomicFAdd {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let v = f64::from_bits(self.eval(w, lane, val));
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    let old = f64::from_bits(buffer.load(i)?);
                    buffer.store(i, (old + v).to_bits())?;
                    if let Some(d) = dst_old {
                        self.warps[w as usize].set_reg(lane, d, old.to_bits());
                    }
                }
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicCas {
                dst_old,
                buf,
                idx,
                cmp,
                val,
            } => {
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let c = self.eval(w, lane, cmp);
                    let v = self.eval(w, lane, val);
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    let old = buffer.load(i)?;
                    let exchanged = old == c;
                    if exchanged {
                        buffer.store(i, v)?;
                    }
                    if let Some(d) = dst_old {
                        self.warps[w as usize].set_reg(lane, d, old);
                    }
                    // A *successful* CAS (a lock acquired) is semantic
                    // progress even inside a retry loop whose PCs the
                    // watermark has already seen; a CAS that only ever
                    // fails (the holder died) still starves the watchdog.
                    if exchanged {
                        self.note_semantic_progress();
                        // Only an exchange that *won* synchronizes anything;
                        // failed CAS polls must not advance the epoch or a
                        // spinning loser would mask the very race its lock
                        // is meant to prevent.
                        self.grace_sync();
                    }
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicExch {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let v = self.eval(w, lane, val);
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    let old = buffer.load(i)?;
                    buffer.store(i, v)?;
                    if let Some(d) = dst_old {
                        self.warps[w as usize].set_reg(lane, d, old);
                    }
                }
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            AtomicIAdd {
                dst_old,
                buf,
                idx,
                val,
            } => {
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let v = self.eval(w, lane, val);
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    let old = buffer.load(i)?;
                    buffer.store(i, old.wrapping_add(v))?;
                    if let Some(d) = dst_old {
                        self.warps[w as usize].set_reg(lane, d, old);
                    }
                }
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }
            WaitGe { buf, idx, target } => {
                // One poll of the flag cell(s): every active lane pays a full
                // L2 atomic round trip (the paper's measured global-atomic
                // latency — flag polls and atomics share the L2 atomic unit).
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                let mut satisfied = true;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let t = self.eval(w, lane, target);
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    if buffer.load(i)? < t {
                        satisfied = false;
                    }
                }
                if satisfied {
                    // All active lanes saw their flags: fall through. A
                    // satisfied wait is semantic progress even when this PC
                    // was already visited (a barrier loop re-crossing the
                    // same wait each round) — only a wait that never sees
                    // its flag should starve the watchdog.
                    self.note_semantic_progress();
                    self.grace_sync();
                    self.advance_pcs(w, group, pc);
                    Ok(Step::Ready(done))
                } else {
                    // Spin with backoff: the PC does NOT advance, so the warp
                    // re-executes this instruction after the architecture's
                    // poll interval. The stationary PC watermark is exactly
                    // what the watchdog classifies as `StuckKind::Spinning`
                    // when the flag is never signalled — in both the pop loop
                    // and the run-ahead fast path.
                    Ok(Step::Ready(done + self.lat.poll))
                }
            }
            Signal { buf, idx, val } => {
                // Release-store through the L2 atomic unit: an atomicExch
                // whose old value is discarded. The warp waits for the round
                // trip, like every other global atomic.
                let warp_rank = self.warps[w as usize].rank as usize;
                let start = self.charge_sched(w);
                let mut done = start;
                let int_ps = self.lat.l2_atomic_int;
                let lat_ps = self.lat.global_atomic;
                for lane in iter_lanes(group) {
                    let b = self.eval(w, lane, buf) as usize;
                    let i = self.eval(w, lane, idx);
                    let v = self.eval(w, lane, val);
                    let iss = self.devs[warp_rank].l2.issue(start, int_ps, lat_ps);
                    done = done.max(iss.done);
                    let buffer = self
                        .sys
                        .bufs
                        .get_mut(b)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
                    buffer.store(i, v)?;
                }
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }

            Shfl {
                dst,
                val,
                kind,
                mode,
                width,
            } => {
                let start = self.charge_sched(w);
                let (int_ps, mut lat) = match kind {
                    ShflKind::Tile => (self.lat.shfl_tile_int, self.lat.shfl_tile_lat),
                    ShflKind::Coalesced => (self.lat.shfl_coa_int, self.lat.shfl_coa_lat),
                };
                if kind == ShflKind::Coalesced {
                    // Cold group descriptor: the software path rebuilds the
                    // member mask unless the previous instruction was also a
                    // coalesced shuffle (Table V vs Table II).
                    if !self.warps[w as usize].coa_shfl_hot {
                        lat = self.lat.shfl_coa_cold_lat;
                    }
                    self.warps[w as usize].coa_shfl_hot = true;
                } else {
                    self.warps[w as usize].coa_shfl_hot = false;
                }
                let warp = &self.warps[w as usize];
                let (rank, sm, nlanes) = (warp.rank as usize, warp.sm as usize, warp.nlanes);
                let unit = self.devs[rank].sms[sm]
                    .sync_unit
                    .issue(start, int_ps, Ps::ZERO);
                // Gather source values first (exchange happens "at once").
                let mut new = [(0u32, 0u64); WARP as usize];
                let mut nnew = 0usize;
                for lane in iter_lanes(group) {
                    let src_lane = match mode {
                        ShflMode::Down(delta) => {
                            let l = lane + delta;
                            let tile_end = (lane / width + 1) * width;
                            if l < tile_end && l < nlanes {
                                l
                            } else {
                                lane
                            }
                        }
                        ShflMode::Idx(i) => {
                            let base = lane / width * width;
                            let l = base + (i % width);
                            if l < nlanes {
                                l
                            } else {
                                lane
                            }
                        }
                    };
                    let v = self.eval(w, src_lane, val);
                    new[nnew] = (lane, v);
                    nnew += 1;
                }
                let warp = &mut self.warps[w as usize];
                for &(lane, v) in &new[..nnew] {
                    warp.set_reg(lane, dst, v);
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(unit.start + lat))
            }

            SyncTile { width } => self.warp_barrier(w, group, pc, width, ShflKind::Tile),
            SyncCoalesced => self.warp_barrier(w, group, pc, WARP, ShflKind::Coalesced),
            MemFence => {
                let start = self.charge_sched(w);
                self.fence_lanes(w, group);
                self.grace_sync();
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(start + self.lat.c4))
            }

            BarSync => self.block_level_barrier(w, group, BlockWaitKind::Block),
            GridSync => self.block_level_barrier(w, group, BlockWaitKind::Grid),
            MultiGridSync => self.block_level_barrier(w, group, BlockWaitKind::MultiGrid),

            Nanosleep(ns) => {
                let start = self.charge_sched(w);
                let mut max_ns = 0u64;
                for lane in iter_lanes(group) {
                    max_ns = max_ns.max(self.eval(w, lane, ns));
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(start + Ps::from_ns(max_ns)))
            }
            ReadClock(dst) => {
                let start = self.charge_sched(w);
                let done = start + self.lat.clock_read;
                let cycles = self.arch.clock().to_cycles_u64(done);
                for lane in iter_lanes(group) {
                    self.warps[w as usize].set_reg(lane, dst, cycles);
                }
                self.advance_pcs(w, group, pc);
                Ok(Step::Ready(done))
            }

            MemStream {
                acc,
                buf,
                start: st,
                stride,
                len,
                flops,
                eff_permille,
            } => self.mem_stream(w, group, pc, acc, buf, st, stride, len, flops, eff_permille),
            MemCombine {
                dst,
                a,
                b,
                start: st,
                stride,
                len,
            } => self.mem_combine(w, group, pc, dst, a, b, st, stride, len),
            SmemStream {
                acc,
                start: st,
                stride,
                len,
                flops,
            } => self.smem_stream(w, group, pc, acc, st, stride, len, flops),
        }
    }

    /// Vectorized `dst[i] = a[i] + b[i]`: exact elementwise math, bandwidth
    /// timing over local DRAM plus any peer links the operand buffers need.
    #[allow(clippy::too_many_arguments)]
    fn mem_combine(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        dst: Operand,
        a: Operand,
        b: Operand,
        st: Operand,
        stride: Operand,
        len: Operand,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp_rank = self.warps[w as usize].rank as usize;
        let local_dev = self.devs[warp_rank].device_id;
        let mut total_elems = 0u64;
        let mut remote: Vec<usize> = Vec::new();
        let uniform = [dst, a, b].map(|op| {
            let src = self.alu_src(w, op);
            self.uniform_dense_buf(w, group, src)
        });
        let fast = match uniform {
            [Some(d), Some(ab), Some(bb)] => {
                self.mem_combine_rows(w, group, [d, ab, bb], st, stride, len)
            }
            _ => None,
        };
        if let Some(elems) = fast {
            total_elems = elems?;
            for buf in uniform.into_iter().flatten() {
                let dev = self.sys.bufs[buf].device;
                if dev != local_dev {
                    remote.push(dev);
                }
            }
        } else {
            for lane in iter_lanes(group) {
                let d = self.eval(w, lane, dst) as usize;
                let ab = self.eval(w, lane, a) as usize;
                let bb = self.eval(w, lane, b) as usize;
                let s0 = self.eval(w, lane, st);
                let k = self.eval(w, lane, stride).max(1);
                let n = self.eval(w, lane, len);
                for &buf in &[d, ab, bb] {
                    let buffer = self
                        .sys
                        .bufs
                        .get(buf)
                        .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {buf}")))?;
                    if n > buffer.len() {
                        return Err(combine_cap_fault(n, buffer.len()));
                    }
                    if buffer.device != local_dev {
                        remote.push(buffer.device);
                    }
                }
                let mut i = s0;
                while i < n {
                    let va = f64::from_bits(self.sys.bufs[ab].load(i)?);
                    let vb = f64::from_bits(self.sys.bufs[bb].load(i)?);
                    self.sys.bufs[d].store(i, (va + vb).to_bits())?;
                    i += k;
                    total_elems += 1;
                }
            }
        }
        self.advance_pcs(w, group, pc);
        // Traffic: one read per source, one write to dst.
        let bytes = total_elems * 8;
        let local_done = self.devs[warp_rank].dram.transfer(start, bytes * 3).done;
        let mut done = local_done;
        remote.sort_unstable();
        remote.dedup();
        let peer_start = start + self.fault_flap(start);
        for rd in remote {
            done = done.max(
                self.peer_channel(rd, local_dev)
                    .transfer(peer_start, bytes)
                    .done,
            );
        }
        Ok(Step::Ready(done))
    }

    /// The warp-uniform `MemCombine`: every lane names the same three dense
    /// buffers `[dst, a, b]`, already resolved once. It applies when all
    /// lanes share the stride `k` and the cap `n` and the group's `m`
    /// starts are consecutive from `s0`. Lane `j`'s `r`-th
    /// element is then word `j` of row `r`, the contiguous `m` words from
    /// `s0 + r * k`, so combining row by row touches the same elements the
    /// same number of times as lane by lane. Order cannot matter: each
    /// touch of element `i` applies the same update to `dst[i]` alone (set
    /// it to `a[i] + b[i]`, or add the other source when one aliases `dst`,
    /// or double it when both do). A cap fault hits the first lane before
    /// any write, as on the per-lane path. Returns the number of elements
    /// combined, or `None` to take the per-lane path.
    fn mem_combine_rows(
        &mut self,
        w: u32,
        group: u32,
        [d, ab, bb]: [usize; 3],
        st: Operand,
        stride: Operand,
        len: Operand,
    ) -> Option<SimResult<u64>> {
        let k = self.uniform_val(w, group, self.alu_src(w, stride))?.max(1);
        let n = self.uniform_val(w, group, self.alu_src(w, len))?;
        let rs = self.alu_src(w, st);
        let s0 = self.src_val(w, group.trailing_zeros(), rs);
        let m = group.count_ones() as u64;
        let consecutive = iter_lanes(group)
            .zip(0..)
            .all(|(lane, j)| Some(self.src_val(w, lane, rs)) == s0.checked_add(j));
        if !consecutive {
            return None;
        }
        for buf in [d, ab, bb] {
            let cap = self.sys.bufs[buf].len();
            if n > cap {
                return Some(Err(combine_cap_fault(n, cap)));
            }
        }
        // Take the destination's words out so the sources can be borrowed
        // beside them; a source that aliases the destination reads the taken
        // words.
        let BufData::Dense(words) = &mut self.sys.bufs[d].data else {
            unreachable!("dense buffer")
        };
        let mut dv = std::mem::take(words);
        let bufs = &self.sys.bufs;
        let src = |buf: usize| (buf != d).then(|| bufs[buf].as_dense().expect("dense buffer"));
        let (av, bv) = (src(ab), src(bb));
        let mut total = 0u64;
        let mut lo = s0;
        while lo < n {
            let hi = lo.saturating_add(m).min(n);
            combine_f64(&mut dv, av, bv, lo as usize..hi as usize);
            total += hi - lo;
            lo = lo.saturating_add(k);
        }
        self.sys.bufs[d].data = BufData::Dense(dv);
        Some(Ok(total))
    }

    /// Key for the peer channel between `remote` and `local`: NVLink pairs
    /// ride their own link; PCIe-routed (Far) traffic shares one ingress
    /// bus per destination device.
    fn peer_channel(&mut self, remote: usize, local: usize) -> &mut Channel {
        let topo = self.topo();
        let far = topo.link(remote, local) == gpu_node::LinkClass::Far;
        let key = if far {
            (usize::MAX, local)
        } else {
            (remote, local)
        };
        let lat = topo.flag_latency(remote, local);
        let bw = topo.peer_bandwidth_gbs(remote, local);
        self.peer
            .entry(key)
            .or_insert_with(|| Channel::new(bw.max(0.001), lat))
    }

    fn remote_flag_latency(&self, dev: usize) -> Ps {
        // One-way small-transfer latency to the nearest peer; used for the
        // rare single-word remote accesses.
        let topo = self.topo();
        (0..topo.num_gpus)
            .filter(|&g| g != dev)
            .map(|g| topo.flag_latency(dev, g))
            .min()
            .unwrap_or(Ps::ZERO)
    }

    // ----- warp-level (tile / coalesced) barriers ------------------------------

    fn warp_barrier(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        width: u32,
        kind: ShflKind,
    ) -> SimResult<Step> {
        let t = &self.arch.timing;
        let full_warp_group = {
            let warp = &self.warps[w as usize];
            group == warp.present() & !warp.exited && group.count_ones() == WARP
        };
        let (interval, latency, blocking) = match kind {
            ShflKind::Tile => (
                self.lat.tile_sync_int,
                self.lat.tile_sync_lat,
                t.tile_sync.blocking,
            ),
            ShflKind::Coalesced => {
                if full_warp_group {
                    (
                        self.lat.coa_full_int,
                        self.lat.coa_full_lat,
                        t.coalesced_sync_full.blocking,
                    )
                } else {
                    (
                        self.lat.coa_part_int,
                        self.lat.coa_part_lat,
                        t.coalesced_sync_partial.blocking,
                    )
                }
            }
        };

        if !blocking {
            // Pascal: a fence, not a barrier (paper §VIII-A / Fig. 18 right).
            let start = self.charge_sched(w);
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            let unit = self.devs[rank].sms[sm]
                .sync_unit
                .issue(start, interval, Ps::ZERO);
            self.fence_lanes(w, group);
            self.advance_pcs(w, group, pc);
            return Ok(Step::Ready(unit.start + latency));
        }

        // Volta: park the group; release each width-tile once all its
        // non-exited lanes are waiting.
        {
            let warp = &mut self.warps[w as usize];
            if warp.wb_wait == 0 {
                warp.wb_parked_at = self.now;
            }
            warp.wb_wait |= group;
            warp.wb_width = width;
        }
        let released = self.try_release_warp_barrier(w);
        if released & group != 0 {
            // This group's tile completed immediately (converged warp).
            let start = self.charge_sched(w);
            let warp = &self.warps[w as usize];
            let (rank, sm) = (warp.rank as usize, warp.sm as usize);
            let unit = self.devs[rank].sms[sm]
                .sync_unit
                .issue(start, interval, Ps::ZERO);
            Ok(Step::Ready(unit.start + latency))
        } else {
            Ok(Step::Parked { warp_barrier: true })
        }
    }

    /// Commit the pending shared stores of warp `w`'s `lanes` (each lane's
    /// fence, in one pass over the block's pending stores).
    fn fence_lanes(&mut self, w: u32, lanes: u32) {
        let warp = &self.warps[w as usize];
        let tid0 = warp.warp_in_block * WARP;
        self.blocks[warp.block as usize]
            .smem
            .fence_threads(tid0, lanes);
    }

    /// Release any warp-barrier tiles whose non-exited lanes are all waiting.
    /// Returns the mask of released lanes (already advanced past the barrier).
    fn try_release_warp_barrier(&mut self, w: u32) -> u32 {
        let (width, present, exited, waiting) = {
            let warp = &self.warps[w as usize];
            (warp.wb_width, warp.present(), warp.exited, warp.wb_wait)
        };
        if waiting == 0 {
            return 0;
        }
        let width = width.max(1);
        let mut released = 0u32;
        let mut tile_base = 0;
        while tile_base < WARP {
            let tile: u32 = if width >= 32 {
                FULL
            } else {
                (((1u64 << width) - 1) as u32) << tile_base
            };
            let scope = tile & present & !exited;
            if scope != 0 && waiting & scope == scope {
                released |= scope;
            }
            tile_base += width;
        }
        if released != 0 {
            // Wait attribution: from the warp's first parked group to the
            // release (warp-granular; the release latency itself is counted
            // by the synchronous-completion path).
            if self.prof.is_some() {
                let parked_at = self.warps[w as usize].wb_parked_at;
                let waited = self.now.saturating_sub(parked_at).0;
                self.prof_barrier_wait(w, SyncScope::Tile, waited);
            }
            let latency = self.lat.tile_sync_lat;
            // Commit stores of all released lanes; each advances past its own
            // barrier site (divergent code can sync at different PCs).
            self.fence_lanes(w, released);
            let warp = &mut self.warps[w as usize];
            for lane in iter_lanes(released) {
                warp.pcs[lane as usize] += 1;
            }
            self.note_lanes(w, released);
            {
                let warp = &mut self.warps[w as usize];
                warp.wb_wait &= !released;
            }
            // Wake the warp if it had no schedulable lanes until now.
            let at = self.now + latency;
            self.schedule_warp(w, at);
        }
        released
    }

    // ----- block / grid / multi-grid barriers ----------------------------------

    fn block_level_barrier(&mut self, w: u32, group: u32, kind: BlockWaitKind) -> SimResult<Step> {
        // The whole warp (its non-exited lanes) must converge on the barrier.
        {
            let warp = &mut self.warps[w as usize];
            if warp.blk_wait == 0 {
                warp.blk_parked_at = self.now;
            }
            warp.blk_wait |= group;
            warp.blk_kind = kind;
            let need = warp.present() & !warp.exited;
            if warp.blk_wait != need {
                // Divergent: other lanes must reach the barrier first.
                return Ok(Step::Parked {
                    warp_barrier: false,
                });
            }
        }
        self.warp_arrives_at_block_barrier(w, kind);
        Ok(Step::Parked {
            warp_barrier: false,
        })
    }

    /// A whole warp (all non-exited lanes) reached a block-level barrier:
    /// serialize its arrival at the SM barrier unit and release / escalate
    /// when it is the last one.
    fn warp_arrives_at_block_barrier(&mut self, w: u32, kind: BlockWaitKind) {
        let warp = &self.warps[w as usize];
        let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block);
        if matches!(kind, BlockWaitKind::Grid | BlockWaitKind::MultiGrid)
            && self.fault_block_killed(block)
        {
            // A killed block never arrives: its warps stay parked, the queue
            // drains, and the run reports the paper's §VIII-B partial-arrival
            // hang as a structured `SimError::Deadlock`.
            return;
        }
        let arr_int = self.lat.block_arr_int;
        let arrival = self.devs[rank].sms[sm]
            .barrier_unit
            .issue(self.now, arr_int, Ps::ZERO);
        let arr_done = arrival.start + arr_int + self.fault_barrier_delay();
        let b = &mut self.blocks[block as usize];
        b.bar_arrived += 1;
        b.bar_waiting.push(w);
        b.bar_last = b.bar_last.max(arr_done);
        if b.bar_arrived == b.live_warps {
            match kind {
                BlockWaitKind::Block => self.release_block_barrier(block),
                BlockWaitKind::Grid | BlockWaitKind::MultiGrid => {
                    self.block_arrives_at_grid(block, kind)
                }
                BlockWaitKind::None => unreachable!(),
            }
        }
    }

    fn release_block_barrier(&mut self, gb: u32) {
        let release = {
            let b = &mut self.blocks[gb as usize];
            b.smem.fence_all();
            b.bar_last + self.lat.block_sync
        };
        let mut waiting = std::mem::take(&mut self.blocks[gb as usize].bar_waiting);
        self.blocks[gb as usize].bar_arrived = 0;
        self.blocks[gb as usize].bar_last = Ps::ZERO;
        if self.prof.is_some() {
            let rank = self.blocks[gb as usize].rank;
            self.prof_epoch(rank, SyncScope::Block, release);
        }
        for &w in &waiting {
            self.release_warp_from_block_barrier(w, release);
        }
        // Hand the (emptied) buffer back so the next epoch's arrivals don't
        // reallocate it.
        waiting.clear();
        self.blocks[gb as usize].bar_waiting = waiting;
    }

    fn release_warp_from_block_barrier(&mut self, w: u32, at: Ps) {
        let warp = &mut self.warps[w as usize];
        let mask = std::mem::take(&mut warp.blk_wait);
        let kind = warp.blk_kind;
        let parked_at = warp.blk_parked_at;
        warp.blk_kind = BlockWaitKind::None;
        if mask == 0 {
            return;
        }
        if self.prof.is_some() {
            let scope = match kind {
                BlockWaitKind::Grid => SyncScope::Grid,
                BlockWaitKind::MultiGrid => SyncScope::MultiGrid,
                _ => SyncScope::Block,
            };
            self.prof_barrier_wait(w, scope, at.saturating_sub(parked_at).0);
        }
        let warp = &mut self.warps[w as usize];
        let lane = mask.trailing_zeros();
        let pc = warp.pcs[(lane & 31) as usize];
        if mask == FULL {
            warp.pcs = [pc + 1; 32];
        } else {
            for l in iter_lanes(mask) {
                warp.pcs[(l & 31) as usize] = pc + 1;
            }
        }
        self.note_lanes(w, mask);
        self.schedule_warp(w, at);
    }

    /// A block's warps are all parked on grid/multi-grid sync: its leader
    /// performs the arrival atomic, contended by every leader already
    /// spinning on the release flag.
    fn block_arrives_at_grid(&mut self, gb: u32, kind: BlockWaitKind) {
        let t = self.arch.timing.clone();
        let (rank, bar_last) = {
            let b = &self.blocks[gb as usize];
            (b.rank as usize, b.bar_last)
        };
        // Intra-block convergence first (same cost as a block barrier).
        let local = bar_last + self.lat.block_sync;
        let spinning = self.devs[rank].grid_bar.waiting.len() as f64;
        // Contended interval varies with the number of spinning leaders —
        // this one stays a live `cyc` conversion.
        let interval = t.l2_atomic_interval * (1.0 + t.poll_contention_per_block * spinning);
        let int_ps = self.cyc(interval);
        let lat_ps = self.lat.global_atomic;
        let iss = self.devs[rank].l2.issue(local, int_ps, lat_ps);
        let dev = &mut self.devs[rank];
        dev.grid_bar.arrived += 1;
        dev.grid_bar.waiting.push((gb, iss.done));
        if dev.grid_bar.arrived == self.launch.grid_dim {
            let local_done = dev
                .grid_bar
                .waiting
                .iter()
                .map(|&(_, d)| d)
                .max()
                .unwrap_or(self.now);
            match kind {
                BlockWaitKind::Grid => self.release_grid(rank, local_done, false),
                BlockWaitKind::MultiGrid => self.rank_arrives_at_mgrid(rank, local_done),
                _ => unreachable!(),
            }
        }
    }

    /// All blocks of `rank` arrived: wake them once the release flag is set
    /// at `release_flag` (after the inter-GPU exchange for multi-grid);
    /// `mgrid` selects the heavier per-warp system-scope release cost and
    /// per-block fence cost.
    fn release_grid(&mut self, rank: usize, release_flag: Ps, mgrid: bool) {
        // A grid (or multi-grid) barrier orders every agent of the launch:
        // one launch-wide epoch tick. Block barriers deliberately do NOT
        // bump the global epoch — they only order one block's threads, and
        // a launch-wide tick for them would hide true cross-block races.
        self.grace_sync();
        let t = self.arch.timing.clone();
        let per_warp = if mgrid {
            t.mgrid_release_per_warp
        } else {
            t.grid_release_per_warp
        };
        // The per-block system-scope fence cost only exists when the barrier
        // actually spans devices (a 1-GPU multi-grid launch degenerates to a
        // grid barrier, matching the paper's near-identical 1-GPU columns).
        let per_block_ns = if mgrid && self.launch.devices.len() > 1 {
            self.topo().mgrid_per_block_ns
        } else {
            0.0
        };
        let waiting = std::mem::take(&mut self.devs[rank].grid_bar.waiting);
        self.devs[rank].grid_bar.arrived = 0;
        let scope = if mgrid {
            SyncScope::MultiGrid
        } else {
            SyncScope::Grid
        };
        self.prof_epoch(rank as u32, scope, release_flag);
        let poll = self.lat.poll;
        let l2_lat = self.lat.l2;
        for (order, (gb, atomic_done)) in waiting.into_iter().enumerate() {
            // Each block's leader polls every `poll` cycles from its own arrival.
            let wake_base = if release_flag <= atomic_done {
                atomic_done
            } else {
                let gap = (release_flag - atomic_done).0;
                let k = gap.div_ceil(poll.0.max(1));
                atomic_done + Ps(k * poll.0)
            } + l2_lat
                + Ps::from_ns_f64(per_block_ns * order as f64);
            let b = &mut self.blocks[gb as usize];
            b.smem.fence_all();
            b.bar_arrived = 0;
            b.bar_last = Ps::ZERO;
            let warps = std::mem::take(&mut b.bar_waiting);
            for (i, w) in warps.into_iter().enumerate() {
                let at = wake_base + self.cyc(per_warp * i as f64);
                self.release_warp_from_block_barrier(w, at);
            }
        }
    }

    /// One device finished its local multi-grid arrival; when all ranks have,
    /// run the inter-GPU flag exchange and release every rank.
    fn rank_arrives_at_mgrid(&mut self, rank: usize, local_done: Ps) {
        self.mgrid.rank_done[rank] = Some(local_done);
        self.mgrid.ranks_arrived += 1;
        if self.mgrid.ranks_arrived as usize != self.launch.devices.len() {
            return;
        }
        let arrivals: Vec<Ps> = self
            .mgrid
            .rank_done
            .iter()
            .map(|d| d.expect("rank arrived"))
            .collect();
        let releases = self.mgrid_release_times(&arrivals);
        self.mgrid.ranks_arrived = 0;
        self.mgrid.rank_done.iter_mut().for_each(|d| *d = None);
        for (r, release) in releases.into_iter().enumerate() {
            self.release_grid(r, release, true);
        }
    }

    // ----- vectorized streams ---------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn mem_stream(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        acc: u8,
        buf: Operand,
        st: Operand,
        stride: Operand,
        len: Operand,
        flops: u8,
        eff_permille: u16,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp_rank = self.warps[w as usize].rank as usize;
        let mut total_elems = 0u64;
        let mut max_iters = 0u64;
        let mut remote_dev: Option<usize> = None;
        // Operands resolved once; the per-lane loop only reads registers.
        let (rb, rs, rk, rn) = (
            self.alu_src(w, buf),
            self.alu_src(w, st),
            self.alu_src(w, stride),
            self.alu_src(w, len),
        );
        // Phase 1 (immutable): sum each lane's stream into a stack buffer so
        // the accumulator write-back doesn't fight the buffer borrow.
        let mut sums = [0.0f64; WARP as usize];
        for lane in iter_lanes(group) {
            let b = self.src_val(w, lane, rb) as usize;
            let s = self.src_val(w, lane, rs);
            let k = self.src_val(w, lane, rk).max(1);
            let n = self.src_val(w, lane, rn);
            let buffer = self
                .sys
                .bufs
                .get(b)
                .ok_or_else(|| SimError::MemoryFault(format!("bad buffer id {b}")))?;
            if buffer.device != self.devs[warp_rank].device_id {
                remote_dev = Some(buffer.device);
            }
            let (sum, cnt) = buffer.strided_sum(s, k, n)?;
            total_elems += cnt;
            max_iters = max_iters.max(cnt);
            sums[(lane & 31) as usize] = sum;
        }
        // Phase 2 (mutable): fold the sums into the accumulator column.
        let warp = &mut self.warps[w as usize];
        for lane in iter_lanes(group) {
            let old = f64::from_bits(warp.reg(lane, acc));
            warp.set_reg(lane, acc, (old + sums[(lane & 31) as usize]).to_bits());
        }
        self.advance_pcs(w, group, pc);
        // A sub-unity efficiency stretches the channel occupancy, modelling
        // less ideal access patterns of baseline implementations.
        let eff = (eff_permille.clamp(1, 1000)) as u64;
        let bytes = total_elems * 8 * 1000 / eff;
        let (dram_latency, warp_mlp_bytes) = {
            let mem = &self.arch.memory;
            (mem.dram_latency, mem.warp_mlp_bytes)
        };
        let local_dev_id = self.devs[warp_rank].device_id;
        let ch_done = match remote_dev {
            None => self.devs[warp_rank].dram.transfer(start, bytes).done,
            Some(rd) => {
                let start = start + self.fault_flap(start);
                self.peer_channel(rd, local_dev_id)
                    .transfer(start, bytes)
                    .done
            }
        };
        // Little's-law per-warp floor: limited memory-level parallelism.
        let warp_bytes: u64 = bytes.min(max_iters * 8 * group.count_ones() as u64);
        let floor_cycles = warp_bytes as f64 * dram_latency as f64 / warp_mlp_bytes as f64;
        let tail = self.cyc((flops as u64 * self.arch.timing.fadd64_latency) as f64);
        let done = ch_done.max(start + self.cyc(floor_cycles)) + tail;
        Ok(Step::Ready(done))
    }

    #[allow(clippy::too_many_arguments)]
    fn smem_stream(
        &mut self,
        w: u32,
        group: u32,
        pc: u32,
        acc: u8,
        st: Operand,
        stride: Operand,
        len: Operand,
        flops: u8,
    ) -> SimResult<Step> {
        let start = self.charge_sched(w);
        let warp = &self.warps[w as usize];
        let (rank, sm, block) = (warp.rank as usize, warp.sm as usize, warp.block as usize);
        let warp_in_block = warp.warp_in_block;
        let mut total_elems = 0u64;
        let mut max_iters = 0u64;
        self.blocks[block].smem.racecheck_at(pc);
        for lane in iter_lanes(group) {
            let s = self.eval(w, lane, st);
            let k = self.eval(w, lane, stride).max(1);
            let n = self.eval(w, lane, len);
            let tid = warp_in_block * WARP + lane;
            let mut sum = 0.0f64;
            let mut i = s;
            let smem_len = self.blocks[block].smem.len() as u64;
            let cap = n.min(smem_len);
            let mut cnt = 0u64;
            while i < cap {
                sum += f64::from_bits(self.blocks[block].smem.load(tid, i, false)?);
                i += k;
                cnt += 1;
            }
            total_elems += cnt;
            max_iters = max_iters.max(cnt);
            let warp = &mut self.warps[w as usize];
            let old = f64::from_bits(warp.reg(lane, acc));
            warp.set_reg(lane, acc, (old + sum).to_bits());
        }
        self.advance_pcs(w, group, pc);
        let t = &self.arch.timing;
        // Dependent-loop floor per warp; port bandwidth cap across warps.
        let iter_cycles = t.smem_scan_iter_cycles + flops as f64 * t.smem_flop_extra_cycles;
        let loop_cycles = max_iters as f64 * iter_cycles;
        let bytes = total_elems as f64 * 8.0;
        let port_int = self.cyc(bytes / t.smem_bytes_per_cycle_sm);
        let port = self.devs[rank].sms[sm]
            .smem_port
            .issue(start, port_int, Ps::ZERO);
        let done = (port.start + port_int).max(start + self.cyc(loop_cycles));
        Ok(Step::Ready(done))
    }

    // ----- wrap-up ----------------------------------------------------------------

    /// Why each of this engine's unfinished blocks is stuck, keyed by
    /// (rank, sm, block) for deterministic ordering; never-started blocks
    /// have no SM and sort last per rank. Empty when the run completed.
    fn blocked_descriptors(&self) -> Vec<(u32, u32, u32, String)> {
        let mut blocked: Vec<(u32, u32, u32, String)> = Vec::new();
        for b in self.blocks.iter() {
            if b.done {
                continue;
            }
            if !b.started {
                blocked.push((
                    b.rank,
                    u32::MAX,
                    b.block_on_device,
                    format!(
                        "block {} (device rank {}) never started",
                        b.block_on_device, b.rank
                    ),
                ));
                continue;
            }
            // Describe why this block is stuck.
            let sm = self.warps[b.warp_start as usize].sm;
            let mut reasons = Vec::new();
            for wi in b.warp_start..b.warp_start + b.nwarps {
                let w = &self.warps[wi as usize];
                if w.done {
                    continue;
                }
                if w.wb_wait != 0 {
                    reasons.push(format!(
                        "warp {} lanes {:#010x} at warp barrier",
                        w.warp_in_block, w.wb_wait
                    ));
                } else if w.blk_wait != 0 {
                    let kind = match w.blk_kind {
                        BlockWaitKind::Block => "block barrier",
                        BlockWaitKind::Grid => "grid barrier",
                        BlockWaitKind::MultiGrid => "multi-grid barrier",
                        BlockWaitKind::None => "barrier",
                    };
                    reasons.push(format!("warp {} at {}", w.warp_in_block, kind));
                }
            }
            blocked.push((
                b.rank,
                sm,
                b.block_on_device,
                format!(
                    "block {} (device rank {}): {}",
                    b.block_on_device,
                    b.rank,
                    if reasons.is_empty() {
                        "stalled".to_string()
                    } else {
                        reasons.join(", ")
                    }
                ),
            ));
        }
        blocked.sort_unstable();
        blocked
    }

    fn finish(
        mut self,
    ) -> SimResult<(
        ExecReport,
        Vec<TraceEvent>,
        HazardReport,
        Option<ProfileReport>,
    )> {
        let blocked = self.blocked_descriptors();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                at: self.now,
                blocked: blocked.into_iter().map(|(_, _, _, s)| s).collect(),
                faults: self.fault_fingerprint(),
            });
        }
        // Blocks are created rank-major, so the hazard report is ordered
        // (rank, block) — deterministic across runs and --jobs values.
        let mut hazards = HazardReport::default();
        for b in &mut self.blocks {
            let (hz, dropped) = b.smem.take_hazards();
            hazards.dropped += dropped;
            for hazard in hz {
                hazards.records.push(HazardRecord {
                    rank: b.rank,
                    block: b.block_on_device,
                    hazard,
                });
            }
        }
        if let Some(g) = &mut self.grace {
            let (hz, dropped) = g.take_hazards();
            hazards.global = hz;
            hazards.global_dropped = dropped;
        }
        let device_durations: Vec<Ps> = self.devs.iter().map(|d| d.end_time).collect();
        let profile = self.prof.take().map(|p| {
            ProfileReport::from_parts(
                self.ps_per_cycle,
                self.launch.kernel.name.clone(),
                p.sms.into_iter().flatten().collect(),
                p.epochs,
                p.epochs_dropped,
            )
        });
        Ok((
            ExecReport {
                duration: device_durations.iter().copied().max().unwrap_or(Ps::ZERO),
                device_durations,
                blocks_run: self.blocks.len() as u64,
                warps_run: self.warps_run,
                instrs_executed: self.instrs_executed,
            },
            self.trace.map(|(_, ev)| ev).unwrap_or_default(),
            hazards,
            profile,
        ))
    }
}

/// Number of architectural registers a program can touch: max referenced
/// index + 1, scanned once per launch. Derived from the instructions rather
/// than `Kernel::regs_per_thread` so hand-assembled kernels with a stale
/// register count can never index out of the flattened file.
fn reg_rows(program: &Program) -> usize {
    let mut rows = 0usize;
    for i in &program.instrs {
        if let Some(d) = crate::verify::written_reg(i) {
            rows = rows.max(d as usize + 1);
        }
        for op in crate::verify::input_operands(i) {
            if let Operand::Reg(r) = op {
                rows = rows.max(r as usize + 1);
            }
        }
    }
    debug_assert!(rows <= NUM_REGS);
    rows
}

/// `dst[i] = a[i] + b[i]` on f64 bits over `r`, where a `None` source is
/// `dst` itself (each element is read before it is written). One loop per
/// aliasing case keeps the element loop branch-free.
fn combine_f64(dst: &mut [u64], a: Option<&[u64]>, b: Option<&[u64]>, r: std::ops::Range<usize>) {
    fn add(x: u64, y: u64) -> u64 {
        (f64::from_bits(x) + f64::from_bits(y)).to_bits()
    }
    let d = &mut dst[r.clone()];
    match (a, b) {
        (Some(a), Some(b)) => {
            for ((o, &x), &y) in d.iter_mut().zip(&a[r.clone()]).zip(&b[r]) {
                *o = add(x, y);
            }
        }
        (None, Some(b)) => {
            for (o, &y) in d.iter_mut().zip(&b[r]) {
                *o = add(*o, y);
            }
        }
        (Some(a), None) => {
            for (o, &x) in d.iter_mut().zip(&a[r]) {
                *o = add(x, *o);
            }
        }
        (None, None) => {
            for o in d {
                *o = add(*o, *o);
            }
        }
    }
}

/// The fault of a `MemCombine` lane whose cap `n` exceeds a buffer's length.
fn combine_cap_fault(n: u64, len: u64) -> SimError {
    SimError::MemoryFault(format!("combine cap {n} beyond buffer of {len} words"))
}

/// Iterate the set lanes of a mask, ascending (bit-clearing walk — cost is
/// proportional to the popcount, not 32).
fn iter_lanes(mask: u32) -> Lanes {
    Lanes(mask)
}

struct Lanes(u32);

impl Iterator for Lanes {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_lanes_yields_set_bits() {
        let lanes: Vec<u32> = iter_lanes(0b1010_0001).collect();
        assert_eq!(lanes, vec![0, 5, 7]);
        assert_eq!(iter_lanes(0).count(), 0);
        assert_eq!(iter_lanes(u32::MAX).count(), 32);
    }

    // --- warp-uniform fast paths vs the per-lane path ---------------------

    use crate::isa::{Kernel, KernelBuilder};
    use crate::mem::Buffer;
    use Operand::{Imm, Param, Reg as R, Sp};

    /// How the kernel names its buffers: a kernel param (`Const`), a
    /// register every lane holds the same id in, or a register whose lane
    /// 31 names the alternate buffer in `Param(alt)` (never uniform).
    #[derive(Clone, Copy, Debug)]
    enum BufOp {
        Param,
        UniformReg,
        Lane31Differs,
    }

    const MODES: [BufOp; 3] = [BufOp::Param, BufOp::UniformReg, BufOp::Lane31Differs];

    /// Emit the operand naming `Param(p)` in `mode`. Every mode emits the
    /// same four ALU instructions, so timing never depends on the mode.
    fn buf_operand(b: &mut KernelBuilder, mode: BufOp, p: u8, alt: u8) -> Operand {
        let (c, diff, r) = (b.reg(), b.reg(), b.reg());
        b.cmp_eq(c, Sp(Special::LaneId), Imm(31));
        b.isub(diff, Param(alt), Param(p));
        b.imul(c, R(c), R(diff));
        match mode {
            BufOp::Lane31Differs => b.iadd(r, Param(p), R(c)),
            _ => b.iadd(r, Param(p), Imm(0)),
        };
        match mode {
            BufOp::Param => Param(p),
            _ => R(r),
        }
    }

    /// Run `launch` on copies of `sys` through the fast and the per-lane
    /// paths; both must agree on the report (or error) and on every buffer.
    fn run_both(sys: &GpuSystem, launch: &GridLaunch) -> (SimResult<ExecReport>, Vec<Buffer>) {
        let [fast, per_lane] = [false, true].map(|per_lane_only| {
            let mut s = sys.clone();
            let mut e = Engine::new(&mut s, launch);
            e.per_lane_only = per_lane_only;
            let r = e.run_full().map(|(report, ..)| report);
            (r, s.bufs)
        });
        assert_eq!(fast.0, per_lane.0, "report or error differs");
        assert_eq!(fast.1, per_lane.1, "buffer contents differ");
        fast
    }

    fn sys() -> GpuSystem {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        GpuSystem::single(arch)
    }

    /// `out[i + bump] = in[i + bump] + 1` at `i = GlobalTid`, with `bump`
    /// added in lane 17 only. Params: 0 = in, 1 = out, 2 = alternate
    /// buffer, 3 = bump.
    fn copy_kernel(mode: BufOp) -> Kernel {
        let mut b = KernelBuilder::new("copy");
        let src = buf_operand(&mut b, mode, 0, 2);
        let dst = buf_operand(&mut b, mode, 1, 2);
        let (c, i, x) = (b.reg(), b.reg(), b.reg());
        b.cmp_eq(c, Sp(Special::LaneId), Imm(17));
        b.imul(c, R(c), Param(3));
        b.iadd(i, Sp(Special::GlobalTid), R(c));
        b.push(Instr::LdGlobal {
            dst: x,
            buf: src,
            idx: R(i),
        });
        b.iadd(x, R(x), Imm(1));
        b.push(Instr::StGlobal {
            buf: dst,
            idx: R(i),
            val: R(x),
        });
        b.exit();
        b.build(0)
    }

    type Setup = fn(&mut GpuSystem) -> Vec<u64>;

    #[test]
    fn global_load_store_fast_path_matches_per_lane_path() {
        let dense: Setup = |s| {
            let a = s.alloc_f64(0, &(0..64).map(|i| i as f64).collect::<Vec<_>>());
            let o = s.alloc(0, 64);
            let alt = s.alloc(0, 64);
            vec![a.0 as u64, o.0 as u64, alt.0 as u64, 0]
        };
        let oob_lane17: Setup = |s| {
            let a = s.alloc(0, 64);
            let o = s.alloc(0, 64);
            let alt = s.alloc(0, 64);
            vec![a.0 as u64, o.0 as u64, alt.0 as u64, 1000]
        };
        let store_oob_lane17: Setup = |s| {
            // In bounds for the load, beyond the output for lane 17's store.
            let a = s.alloc(0, 2048);
            let o = s.alloc(0, 64);
            let alt = s.alloc(0, 64);
            vec![a.0 as u64, o.0 as u64, alt.0 as u64, 1000]
        };
        let bad_id: Setup = |s| {
            let o = s.alloc(0, 64);
            let alt = s.alloc(0, 64);
            vec![99, o.0 as u64, alt.0 as u64, 0]
        };
        let linear: Setup = |s| {
            let a = s.alloc_linear(0, 0.5, 0.25, 64);
            let o = s.alloc_linear(0, 1.0, 0.0, 64);
            let alt = s.alloc(0, 64);
            vec![a.0 as u64, o.0 as u64, alt.0 as u64, 0]
        };
        let cases: [(&str, Setup, Option<&str>); 5] = [
            ("dense", dense, None),
            (
                "load oob",
                oob_lane17,
                Some("load at 1017 beyond buffer of 64 words"),
            ),
            (
                "store oob",
                store_oob_lane17,
                Some("store at 1017 beyond buffer of 64 words"),
            ),
            ("bad id", bad_id, Some("bad buffer id 99")),
            ("linear", linear, None),
        ];
        for (name, setup, want_err) in cases {
            for mode in MODES {
                let mut s = sys();
                let params = setup(&mut s);
                let launch = GridLaunch::single(copy_kernel(mode), 1, 64, params);
                let (r, bufs) = run_both(&s, &launch);
                match (want_err, r) {
                    (None, Ok(report)) => {
                        assert!(report.instrs_executed > 0, "{name} {mode:?}");
                        let out = &bufs[1];
                        let want = (0..64).map(|i| {
                            let x = s.bufs[0].load(i).unwrap();
                            x.wrapping_add(1)
                        });
                        let got = (0..64).map(|i| out.load(i).unwrap());
                        // Lane 31 of each warp writes the alternate buffer.
                        for (i, (g, w)) in got.zip(want).enumerate() {
                            if !matches!(mode, BufOp::Lane31Differs) || i % 32 != 31 {
                                assert_eq!(g, w, "{name} {mode:?} word {i}");
                            }
                        }
                    }
                    (Some(msg), Err(SimError::MemoryFault(got))) => {
                        assert_eq!(got, msg, "{name} {mode:?}")
                    }
                    (want, got) => panic!("{name} {mode:?}: want {want:?}, got {got:?}"),
                }
            }
        }
    }

    /// `dst[i] = a[i] + b[i]` via `MemCombine`, from `GlobalTid * Param(6)`
    /// by `Param(5)`. Params: 0 = dst, 1 = a, 2 = b, 3 = len, 4 = alternate
    /// buffer, 5 = stride, 6 = start spread.
    fn combine_kernel(mode: BufOp, alias_dst_a: bool) -> Kernel {
        let mut b = KernelBuilder::new("combine");
        let dst = buf_operand(&mut b, mode, 0, 4);
        let a = if alias_dst_a {
            dst
        } else {
            buf_operand(&mut b, mode, 1, 4)
        };
        let src_b = buf_operand(&mut b, mode, 2, 4);
        let start = b.reg();
        b.imul(start, Sp(Special::GlobalTid), Param(6));
        b.push(Instr::MemCombine {
            dst,
            a,
            b: src_b,
            start: R(start),
            stride: Param(5),
            len: Param(3),
        });
        b.exit();
        b.build(0)
    }

    #[test]
    fn mem_combine_fast_path_matches_per_lane_path() {
        const THREADS: u64 = 128;
        let vals = |k: f64| (0..256).map(|i| k + i as f64).collect::<Vec<f64>>();
        // Stride 1 makes the lanes' ranges overlap: element i is combined
        // once by every thread at or below it, so an aliased `dst == a`
        // accumulates. Spread 2 leaves gaps between the lanes' starts.
        for (alias, len, stride, spread, b_len, want_err) in [
            (true, 256, THREADS, 1, 256, None),
            (true, 256, 1, 1, 256, None),
            (false, 200, THREADS, 1, 256, None),
            (false, 200, 1, 1, 256, None),
            (true, 256, 2 * THREADS, 2, 256, None),
            (
                true,
                256,
                THREADS,
                1,
                128,
                Some("combine cap 256 beyond buffer of 128 words"),
            ),
        ] {
            // Times each element is combined, by the threads' element sets.
            let mut touches = vec![0u64; 256];
            for t in 0..THREADS {
                for i in (t * spread..len).step_by(stride as usize) {
                    touches[i as usize] += 1;
                }
            }
            for mode in MODES {
                let mut s = sys();
                let d = s.alloc_f64(0, &vals(1.0));
                let a = s.alloc_f64(0, &vals(0.5));
                let b = s.alloc_f64(0, &vals(0.25)[..b_len]);
                let alt = s.alloc_f64(0, &vals(2.0));
                let ids = [d, a, b, alt].map(|id| id.0 as u64);
                let params = vec![ids[0], ids[1], ids[2], len, ids[3], stride, spread];
                let launch = GridLaunch::single(combine_kernel(mode, alias), 2, 64, params);
                let (r, bufs) = run_both(&s, &launch);
                let tag =
                    format!("alias {alias} len {len} stride {stride} spread {spread} {mode:?}");
                match want_err {
                    Some(msg) => assert_eq!(r, Err(SimError::MemoryFault(msg.into())), "{tag}"),
                    None => {
                        assert!(r.is_ok(), "{tag}: {r:?}");
                        if matches!(mode, BufOp::Lane31Differs) {
                            continue;
                        }
                        for (i, &n) in touches.iter().enumerate() {
                            let got = f64::from_bits(bufs[d.0 as usize].load(i as u64).unwrap());
                            let (x, y) = (i as f64, 0.25 + i as f64);
                            let want = match (n, alias) {
                                (0, _) => 1.0 + x,
                                (_, false) => 0.5 + x + y,
                                (n, true) => 1.0 + x + n as f64 * y,
                            };
                            assert_eq!(got, want, "{tag} word {i}");
                        }
                    }
                }
            }
        }
    }
}
