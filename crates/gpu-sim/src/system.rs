//! The simulated GPU system: devices, memory, and kernel launches.

use crate::engine::{Engine, HazardReport, TraceEvent};
use crate::isa::Kernel;
use crate::mem::{BufData, BufId, Buffer};
use crate::profile::ProfileReport;
use gpu_arch::GpuArch;
use gpu_node::NodeTopology;
use serde::{Deserialize, Serialize};
use sim_core::{Ps, SimError, SimResult};
use std::sync::Arc;

/// Which launch API a kernel was started with (paper §IV). Grid sync is only
/// legal in cooperative launches; multi-grid sync only in multi-device
/// cooperative launches — using them elsewhere is an invalid launch, and
/// cooperative grids must fit co-resident or they are rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaunchKind {
    /// `kernel<<<...>>>` — the classic stream launch.
    Traditional,
    /// `cudaLaunchCooperativeKernel` — enables `grid.sync()`.
    Cooperative,
    /// `cudaLaunchCooperativeKernelMultiDevice` — enables multi-grid sync.
    CooperativeMultiDevice,
}

/// A device-side grid launch description.
#[derive(Debug, Clone)]
pub struct GridLaunch {
    pub kernel: Kernel,
    /// Blocks per participating device.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    pub kind: LaunchKind,
    /// Participating device ids (exactly one unless multi-device).
    pub devices: Vec<usize>,
    /// Kernel parameters, one vector per participating device (same order).
    pub params: Vec<Vec<u64>>,
    /// Opt-in synchronization checking: validation runs the static
    /// [`crate::verify`] lint (error-severity findings reject the launch)
    /// and the engine enables the shared-memory racecheck shadow state.
    /// Checking never perturbs simulated timing.
    pub checked: bool,
}

impl GridLaunch {
    /// Single-device launch with the same params every launch kind.
    pub fn single(kernel: Kernel, grid_dim: u32, block_dim: u32, params: Vec<u64>) -> GridLaunch {
        GridLaunch {
            kernel,
            grid_dim,
            block_dim,
            kind: LaunchKind::Traditional,
            devices: vec![0],
            params: vec![params],
            checked: false,
        }
    }

    pub fn cooperative(mut self) -> GridLaunch {
        self.kind = LaunchKind::Cooperative;
        self
    }

    pub fn on_device(mut self, device: usize) -> GridLaunch {
        self.devices = vec![device];
        self
    }

    /// Enable synchronization checking for this launch (static lint at
    /// validation + dynamic racecheck during execution).
    pub fn checked(mut self) -> GridLaunch {
        self.checked = true;
        self
    }

    /// Multi-device cooperative launch over `devices`, with per-device params.
    pub fn multi(
        kernel: Kernel,
        grid_dim: u32,
        block_dim: u32,
        devices: Vec<usize>,
        params: Vec<Vec<u64>>,
    ) -> GridLaunch {
        assert_eq!(devices.len(), params.len(), "one param set per device");
        GridLaunch {
            kernel,
            grid_dim,
            block_dim,
            kind: LaunchKind::CooperativeMultiDevice,
            devices,
            params,
            checked: false,
        }
    }
}

/// Execution statistics of one kernel run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Wall time of the slowest participating device.
    pub duration: Ps,
    /// Per participating device (launch order), time until its grid drained.
    pub device_durations: Vec<Ps>,
    pub blocks_run: u64,
    pub warps_run: u64,
    pub instrs_executed: u64,
}

impl ExecReport {
    /// Duration in cycles of the given device clock.
    pub fn cycles(&self, arch: &GpuArch) -> u64 {
        arch.clock().to_cycles_u64(self.duration)
    }
}

/// What to instrument during a run — the one knob set of the unified
/// [`GpuSystem::execute`] API. Compose with the builder methods:
///
/// ```
/// use gpu_sim::RunOptions;
/// let opts = RunOptions::new().check().trace(10_000).profile();
/// assert!(opts.wants_check() && opts.wants_profile());
/// assert_eq!(opts.trace_cap(), Some(10_000));
/// ```
///
/// None of the instruments perturb simulated timing: a checked, traced, and
/// profiled run reports the same `ExecReport` as a bare one. Fault injection
/// ([`RunOptions::faults`]) is the deliberate exception — it exists to
/// perturb timing — but a zero plan and an unarmed watchdog are guaranteed
/// no-ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    check: bool,
    trace: Option<usize>,
    profile: bool,
    faults: Option<crate::fault::FaultPlan>,
    watchdog: Option<Ps>,
    recovery: Option<crate::recover::RecoveryPolicy>,
}

impl RunOptions {
    /// No instrumentation: just validate, execute, and time the launch.
    pub const fn new() -> RunOptions {
        RunOptions {
            check: false,
            trace: None,
            profile: false,
            faults: None,
            watchdog: None,
            recovery: None,
        }
    }

    /// Arm synchronization checking: the static [`crate::verify`] lint runs
    /// at validation (error-severity findings reject the launch) and the
    /// dynamic shared-memory racecheck records hazards into
    /// [`RunArtifacts::hazards`].
    pub const fn check(mut self) -> RunOptions {
        self.check = true;
        self
    }

    /// Record up to `max_events` executed instructions into
    /// [`RunArtifacts::trace`].
    pub const fn trace(mut self, max_events: usize) -> RunOptions {
        self.trace = Some(max_events);
        self
    }

    /// Collect syncprof stall attribution and per-SM counters into
    /// [`RunArtifacts::profile`].
    pub const fn profile(mut self) -> RunOptions {
        self.profile = true;
        self
    }

    /// Arm deterministic fault injection with `plan` (see
    /// [`crate::fault::FaultPlan`]). A [`FaultPlan::is_zero`] plan perturbs
    /// nothing — artifacts stay byte-identical to an unarmed run.
    ///
    /// [`FaultPlan::is_zero`]: crate::fault::FaultPlan::is_zero
    pub fn faults(mut self, plan: crate::fault::FaultPlan) -> RunOptions {
        self.faults = Some(plan);
        self
    }

    /// Arm the progress watchdog: if simulated time advances more than
    /// `budget` past the last forward progress (any warp moving beyond its
    /// furthest-reached PC), the run fails with
    /// [`SimError::Watchdog`] instead of spinning to the instruction limit.
    pub const fn watchdog(mut self, budget: Ps) -> RunOptions {
        self.watchdog = Some(budget);
        self
    }

    /// Arm the fault recovery layer (see [`crate::recover`]): on a
    /// retryable [`SimError`] the launch is rolled back to a pre-attempt
    /// buffer checkpoint and relaunched under the policy's backoff and
    /// eviction rules, and [`RunArtifacts::recovery`] reports what happened.
    /// With no policy armed, execution takes exactly the historical path and
    /// every artifact is byte-identical to it.
    pub const fn recovery(mut self, policy: crate::recover::RecoveryPolicy) -> RunOptions {
        self.recovery = Some(policy);
        self
    }

    pub const fn wants_check(&self) -> bool {
        self.check
    }

    pub fn fault_plan(&self) -> Option<&crate::fault::FaultPlan> {
        self.faults.as_ref()
    }

    pub const fn watchdog_budget(&self) -> Option<Ps> {
        self.watchdog
    }

    pub const fn trace_cap(&self) -> Option<usize> {
        self.trace
    }

    pub const fn wants_profile(&self) -> bool {
        self.profile
    }

    pub fn recovery_policy(&self) -> Option<&crate::recover::RecoveryPolicy> {
        self.recovery.as_ref()
    }

    /// The options one recovery attempt runs under: same instruments, the
    /// attempt's (possibly disarmed or rank-compacted) fault plan, and no
    /// recovery policy — the inner `execute` must not recurse into the
    /// recovery layer.
    pub(crate) fn for_recovery_attempt(
        &self,
        faults: Option<crate::fault::FaultPlan>,
    ) -> RunOptions {
        let mut opts = self.clone();
        opts.faults = faults;
        opts.recovery = None;
        opts
    }
}

/// Everything a run produced. `report` is always present; the optional
/// instruments are `Some` exactly when the corresponding [`RunOptions`]
/// switch (or the launch's own `checked` flag) was set.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    pub report: ExecReport,
    /// Dynamic racecheck findings (`Some` iff checking was armed; empty
    /// records mean the run was racecheck-clean).
    pub hazards: Option<HazardReport>,
    /// Recorded execution steps (`Some` iff tracing was requested).
    pub trace: Option<Vec<TraceEvent>>,
    /// Syncprof counters (`Some` iff profiling was requested).
    pub profile: Option<ProfileReport>,
    /// What the recovery layer did (`Some` iff a [`RunOptions::recovery`]
    /// policy was armed — even for a clean first attempt, so callers can
    /// tell "no recovery armed" from "armed but unneeded").
    pub recovery: Option<crate::recover::RecoveryReport>,
}

impl RunArtifacts {
    /// Whether no hazard evidence was collected: checking either wasn't
    /// armed, or was armed and found nothing.
    pub fn is_clean(&self) -> bool {
        self.hazards.as_ref().is_none_or(|h| h.is_clean())
    }
}

/// A node of simulated GPUs with its interconnect and all device memory.
///
/// ```
/// use gpu_sim::{GpuSystem, GridLaunch, RunOptions, kernels};
/// use gpu_arch::GpuArch;
///
/// let mut arch = GpuArch::v100();
/// arch.num_sms = 2;
/// let mut sys = GpuSystem::single(arch);
/// let launch = GridLaunch::single(kernels::null_kernel(), 4, 64, vec![]);
/// let report = sys.execute(&launch, &RunOptions::new()).unwrap().report;
/// assert_eq!(report.blocks_run, 4);
/// assert_eq!(report.warps_run, 8);
/// ```
#[derive(Debug, Clone)]
pub struct GpuSystem {
    /// Shared, immutable once constructed — sweep cells running on worker
    /// threads alias the same `GpuArch` instead of deep-cloning per cell.
    pub arch: Arc<GpuArch>,
    pub topology: Arc<NodeTopology>,
    pub(crate) bufs: Vec<Buffer>,
    /// Instruction budget per kernel before the engine declares the kernel
    /// non-terminating (spin loops that never observe their condition).
    pub instr_limit: u64,
}

impl GpuSystem {
    /// A node of `topology.num_gpus` identical GPUs. Accepts owned values or
    /// pre-shared `Arc`s, so sweep drivers can share one description across
    /// every cell.
    pub fn new(arch: impl Into<Arc<GpuArch>>, topology: impl Into<Arc<NodeTopology>>) -> GpuSystem {
        GpuSystem {
            arch: arch.into(),
            topology: topology.into(),
            bufs: Vec::new(),
            instr_limit: 200_000_000,
        }
    }

    /// Lower (or raise) the per-kernel instruction budget — useful to make
    /// spin-loop livelocks fail fast in tests.
    pub fn with_instr_limit(mut self, limit: u64) -> GpuSystem {
        self.instr_limit = limit;
        self
    }

    /// Convenience: a single-GPU system.
    pub fn single(arch: impl Into<Arc<GpuArch>>) -> GpuSystem {
        GpuSystem::new(arch, NodeTopology::single())
    }

    pub fn num_gpus(&self) -> usize {
        self.topology.num_gpus
    }

    /// Snapshot every buffer — the checkpoint the recovery layer takes
    /// before a launch's first attempt (see [`crate::mem::MemCheckpoint`]
    /// for the byte-exactness argument).
    pub fn checkpoint(&self) -> crate::mem::MemCheckpoint {
        crate::mem::MemCheckpoint {
            bufs: self.bufs.clone(),
        }
    }

    /// Restore every buffer from `ck`, byte-exactly. The checkpoint must
    /// come from this system's current allocation epoch (same buffer count);
    /// restoring someone else's checkpoint would silently remap ids.
    pub fn restore(&mut self, ck: &crate::mem::MemCheckpoint) {
        assert_eq!(
            self.bufs.len(),
            ck.num_buffers(),
            "checkpoint is from a different allocation epoch"
        );
        self.bufs.clone_from(&ck.bufs);
    }

    /// Drop all device memory, returning the system to its just-constructed
    /// state (allocation ids restart from 0).
    ///
    /// Sweep drivers reuse one `GpuSystem` per worker across cells instead
    /// of rebuilding device memory and peer channels per cell; calling
    /// `reset` between launches makes the reused system indistinguishable
    /// from a fresh one, so results stay byte-identical to unamortized runs.
    pub fn reset(&mut self) {
        self.bufs.clear();
    }

    fn check_device(&self, device: usize) {
        assert!(
            device < self.num_gpus(),
            "device {device} out of range ({} GPUs)",
            self.num_gpus()
        );
    }

    /// Allocate a zero-filled dense buffer of `words` 64-bit words.
    pub fn alloc(&mut self, device: usize, words: u64) -> BufId {
        self.check_device(device);
        self.bufs.push(Buffer {
            device,
            data: BufData::Dense(vec![0; words as usize]),
        });
        BufId(self.bufs.len() as u32 - 1)
    }

    /// Allocate a dense buffer holding the given f64 values.
    pub fn alloc_f64(&mut self, device: usize, vals: &[f64]) -> BufId {
        self.check_device(device);
        self.bufs.push(Buffer {
            device,
            data: BufData::Dense(vals.iter().map(|v| v.to_bits()).collect()),
        });
        BufId(self.bufs.len() as u32 - 1)
    }

    /// Allocate a synthetic buffer whose f64 value at index i is `a + b*i`.
    /// O(1) storage regardless of length — the workload generator for
    /// multi-gigabyte reduction inputs.
    pub fn alloc_linear(&mut self, device: usize, a: f64, b: f64, len: u64) -> BufId {
        self.check_device(device);
        self.bufs.push(Buffer {
            device,
            data: BufData::Linear { a, b, len },
        });
        BufId(self.bufs.len() as u32 - 1)
    }

    pub fn buffer(&self, id: BufId) -> &Buffer {
        &self.bufs[id.0 as usize]
    }

    pub fn buffer_mut(&mut self, id: BufId) -> &mut Buffer {
        &mut self.bufs[id.0 as usize]
    }

    /// Copy `words` words from `src` at `src_off` into `dst` at `dst_off`,
    /// as a forward per-word copy would (see [`Buffer::copy_from`] and, for
    /// `src == dst`, [`Buffer::copy_within`]).
    pub fn copy_words(
        &mut self,
        dst: BufId,
        dst_off: u64,
        src: BufId,
        src_off: u64,
        words: u64,
    ) -> SimResult<()> {
        let (d, s) = (dst.0 as usize, src.0 as usize);
        if d == s {
            return self.bufs[d].copy_within(dst_off, src_off, words);
        }
        let (lo, hi) = self.bufs.split_at_mut(d.max(s));
        let (dst, src) = if d < s {
            (&mut lo[d], &hi[0])
        } else {
            (&mut hi[0], &lo[s])
        };
        dst.copy_from(dst_off, src, src_off, words)
    }

    /// Read back a buffer as f64 values.
    pub fn read_f64(&self, id: BufId) -> Vec<f64> {
        self.read_u64(id).into_iter().map(f64::from_bits).collect()
    }

    /// Read back a buffer as raw words.
    pub fn read_u64(&self, id: BufId) -> Vec<u64> {
        let b = self.buffer(id);
        let mut out = vec![0; b.len() as usize];
        b.read_range(0, &mut out).expect("whole buffer is in range");
        out
    }

    /// Validate and execute a grid launch to completion — the single
    /// execution entry point. Host-side launch overheads are *not* included
    /// — they belong to the `cuda-rt` stream model.
    ///
    /// Instrumentation (checking, tracing, profiling) is selected by `opts`;
    /// see [`RunOptions`]. A launch built with [`GridLaunch::checked`] arms
    /// checking regardless of `opts`. Detected hazards always come back as
    /// *data* in [`RunArtifacts::hazards`] — `execute` only errors on
    /// invalid launches, faults, deadlock, or static-lint rejections.
    pub fn execute(&mut self, launch: &GridLaunch, opts: &RunOptions) -> SimResult<RunArtifacts> {
        if let Some(policy) = opts.recovery_policy() {
            // The recovery layer wraps this same entry point with attempt
            // options that carry no policy, so the recursion is one level.
            return crate::recover::execute_with_recovery(self, launch, opts, policy);
        }
        let check = opts.wants_check() || launch.checked;
        self.validate_with(launch, check)?;
        let mut engine = Engine::new(self, launch)
            .with_check(check)
            .with_profile(opts.wants_profile())
            .with_faults(opts.fault_plan())
            .with_watchdog(opts.watchdog_budget());
        if let Some(cap) = opts.trace_cap() {
            engine = engine.with_trace(cap);
        }
        let (report, trace, hazards, profile) = engine.run_full()?;
        crate::stats::count_instrs(report.instrs_executed);
        Ok(RunArtifacts {
            report,
            hazards: if check { Some(hazards) } else { None },
            trace: if opts.trace_cap().is_some() {
                Some(trace)
            } else {
                None
            },
            profile,
            recovery: None,
        })
    }

    fn validate_with(&self, launch: &GridLaunch, check: bool) -> SimResult<()> {
        if launch.devices.is_empty() {
            return Err(SimError::InvalidLaunch("no devices".into()));
        }
        for &d in &launch.devices {
            if d >= self.num_gpus() {
                return Err(SimError::InvalidLaunch(format!(
                    "device {d} out of range ({} GPUs)",
                    self.num_gpus()
                )));
            }
        }
        {
            let mut seen = launch.devices.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != launch.devices.len() {
                return Err(SimError::InvalidLaunch("duplicate device".into()));
            }
        }
        if launch.params.len() != launch.devices.len() {
            return Err(SimError::InvalidLaunch(format!(
                "{} param sets for {} devices",
                launch.params.len(),
                launch.devices.len()
            )));
        }
        if launch.block_dim == 0 || launch.block_dim > self.arch.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "block_dim {} out of range",
                launch.block_dim
            )));
        }
        if launch.grid_dim == 0 {
            return Err(SimError::InvalidLaunch("grid_dim is zero".into()));
        }
        if launch.kernel.shared_words * 8 > self.arch.shared_mem_per_sm_bytes {
            return Err(SimError::InvalidLaunch(format!(
                "{} words of shared memory exceed the SM's capacity",
                launch.kernel.shared_words
            )));
        }
        match launch.kind {
            LaunchKind::Traditional | LaunchKind::Cooperative => {
                if launch.devices.len() != 1 {
                    return Err(SimError::InvalidLaunch(
                        "single-device launch on multiple devices".into(),
                    ));
                }
            }
            LaunchKind::CooperativeMultiDevice => {}
        }
        // Cooperative grids must be fully co-resident or grid.sync deadlocks;
        // CUDA rejects the launch instead.
        if launch.kind != LaunchKind::Traditional {
            let max = self
                .arch
                .max_cooperative_blocks(launch.block_dim, launch.kernel.shared_words * 8);
            if launch.grid_dim > max {
                return Err(SimError::InvalidLaunch(format!(
                    "cooperative launch of {} blocks exceeds co-resident capacity {}",
                    launch.grid_dim, max
                )));
            }
        }
        let uses_grid_sync = launch
            .kernel
            .program
            .instrs
            .iter()
            .any(|i| matches!(i, crate::isa::Instr::GridSync));
        let uses_mgrid_sync = launch
            .kernel
            .program
            .instrs
            .iter()
            .any(|i| matches!(i, crate::isa::Instr::MultiGridSync));
        if uses_grid_sync && launch.kind == LaunchKind::Traditional {
            return Err(SimError::InvalidLaunch(
                "grid.sync() requires a cooperative launch".into(),
            ));
        }
        if uses_mgrid_sync && launch.kind != LaunchKind::CooperativeMultiDevice {
            return Err(SimError::InvalidLaunch(
                "multi_grid.sync() requires cudaLaunchCooperativeKernelMultiDevice".into(),
            ));
        }
        // Opt-in static synchronization lint: error-severity findings (a
        // divergent barrier, an out-of-bounds constant shared address, an
        // unbound parameter slot, a wild branch) reject the launch the way
        // CUDA's runtime rejects an illegal cooperative launch.
        if check {
            let bound = launch.params.iter().map(|p| p.len()).min().unwrap_or(0);
            let diags = crate::verify::check_launch(&launch.kernel, bound);
            if crate::verify::has_errors(&diags) {
                let rendered: String = diags
                    .iter()
                    .filter(|d| d.severity == crate::verify::Severity::Error)
                    .map(|d| d.render(&launch.kernel.program))
                    .collect();
                return Err(SimError::InvalidLaunch(format!(
                    "synccheck rejected kernel {:?}:\n{rendered}",
                    launch.kernel.name
                )));
            }
        }
        Ok(())
    }

    /// Time to copy `bytes` from `src` device to `dst` device over the node
    /// fabric (used by the host runtime's peer-copy model).
    pub fn peer_copy_time(&self, src: usize, dst: usize, bytes: u64) -> Ps {
        self.check_device(src);
        self.check_device(dst);
        if src == dst {
            // Device-local copy at DRAM bandwidth (read + write).
            let gbs = self.arch.memory.dram_effective_gbs() / 2.0;
            return Ps((bytes as f64 / (gbs / 1e3)).ceil() as u64);
        }
        let gbs = self.topology.peer_bandwidth_gbs(src, dst);
        let lat = self.topology.flag_latency(src, dst);
        lat + Ps((bytes as f64 / (gbs / 1e3)).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::KernelBuilder;

    fn null_kernel() -> Kernel {
        let mut b = KernelBuilder::new("null");
        b.exit();
        b.build(0)
    }

    fn grid_sync_kernel() -> Kernel {
        let mut b = KernelBuilder::new("gs");
        b.grid_sync();
        b.build(0)
    }

    #[test]
    fn alloc_and_read_back() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        let b = sys.alloc_f64(0, &[1.0, 2.0, 3.0]);
        assert_eq!(sys.read_f64(b), vec![1.0, 2.0, 3.0]);
        let z = sys.alloc(0, 4);
        assert_eq!(sys.read_u64(z), vec![0; 4]);
    }

    #[test]
    fn linear_alloc_is_cheap_and_readable() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        let b = sys.alloc_linear(0, 2.0, 0.5, 1 << 40);
        assert_eq!(sys.buffer(b).len(), 1 << 40);
        assert_eq!(f64::from_bits(sys.buffer(b).load(4).unwrap()), 4.0);
    }

    fn exec(sys: &mut GpuSystem, l: &GridLaunch) -> SimResult<RunArtifacts> {
        sys.execute(l, &RunOptions::new())
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        let k = null_kernel();
        // zero grid
        let l = GridLaunch::single(k.clone(), 0, 32, vec![]);
        assert!(matches!(
            exec(&mut sys, &l),
            Err(SimError::InvalidLaunch(_))
        ));
        // oversized block
        let l = GridLaunch::single(k.clone(), 1, 2048, vec![]);
        assert!(exec(&mut sys, &l).is_err());
        // bad device
        let l = GridLaunch::single(k, 1, 32, vec![]).on_device(3);
        assert!(exec(&mut sys, &l).is_err());
    }

    #[test]
    fn grid_sync_requires_cooperative_launch() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        let l = GridLaunch::single(grid_sync_kernel(), 8, 32, vec![]);
        assert!(matches!(
            exec(&mut sys, &l),
            Err(SimError::InvalidLaunch(_))
        ));
        let l = GridLaunch::single(grid_sync_kernel(), 8, 32, vec![]).cooperative();
        assert!(exec(&mut sys, &l).is_ok());
    }

    #[test]
    fn cooperative_launch_must_fit_coresident() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        // 1024-thread blocks: 2 per SM * 80 SMs = 160 max.
        let l = GridLaunch::single(grid_sync_kernel(), 161, 1024, vec![]).cooperative();
        assert!(matches!(
            exec(&mut sys, &l),
            Err(SimError::InvalidLaunch(_))
        ));
        let l = GridLaunch::single(grid_sync_kernel(), 160, 1024, vec![]).cooperative();
        assert!(exec(&mut sys, &l).is_ok());
    }

    #[test]
    fn traditional_launch_may_oversubscribe() {
        let mut sys = GpuSystem::single(GpuArch::v100());
        let l = GridLaunch::single(null_kernel(), 10_000, 256, vec![]);
        let arts = exec(&mut sys, &l).unwrap();
        assert_eq!(arts.report.blocks_run, 10_000);
        // Nothing was asked for beyond the report.
        assert!(arts.hazards.is_none());
        assert!(arts.trace.is_none());
        assert!(arts.profile.is_none());
        assert!(arts.is_clean());
    }

    #[test]
    fn multi_grid_sync_requires_multi_device_launch() {
        let mut sys = GpuSystem::new(GpuArch::v100(), gpu_node::NodeTopology::dgx1_v100());
        let mut b = KernelBuilder::new("mg");
        b.multi_grid_sync();
        let k = b.build(0);
        let l = GridLaunch::single(k.clone(), 8, 32, vec![]).cooperative();
        assert!(exec(&mut sys, &l).is_err());
        let l = GridLaunch::multi(k, 8, 32, vec![0, 1], vec![vec![], vec![]]);
        assert!(exec(&mut sys, &l).is_ok());
    }

    #[test]
    fn checked_launch_rejects_divergent_barrier_statically() {
        use crate::isa::{Operand::*, Special};
        let mut sys = GpuSystem::single(GpuArch::v100());
        let mut b = KernelBuilder::new("divbar");
        let c = b.reg();
        b.cmp_lt(c, Sp(Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        let k = b.build(0);
        // Unchecked: the engine itself tolerates this (lanes converge on the
        // barrier's warp arrival rules), so only checking rejects it. Arm
        // checking both ways: via options and via the legacy launch flag.
        let l = GridLaunch::single(k, 1, 32, vec![]);
        for (launch, opts) in [
            (l.clone(), RunOptions::new().check()),
            (l.checked(), RunOptions::new()),
        ] {
            match sys.execute(&launch, &opts) {
                Err(SimError::InvalidLaunch(msg)) => {
                    assert!(msg.contains("barrier-divergence"), "{msg}");
                    assert!(msg.contains("bar.sync"), "{msg}");
                }
                other => panic!("expected InvalidLaunch, got {other:?}"),
            }
        }
    }

    #[test]
    fn checked_execute_surfaces_smem_race() {
        use crate::isa::{Instr, Operand::*, Special};
        let mut sys = GpuSystem::single(GpuArch::v100());
        let mut b = KernelBuilder::new("smemrace");
        // Every thread stores its tid to word 0 with no barrier: WAW races.
        b.push(Instr::StShared {
            addr: Imm(0),
            val: Sp(Special::Tid),
            volatile: false,
            pred: None,
        });
        b.exit();
        let k = b.build(1);
        let l = GridLaunch::single(k, 1, 32, vec![]);
        let arts = sys.execute(&l, &RunOptions::new().check()).unwrap();
        assert!(!arts.is_clean());
        let hazards = arts.hazards.expect("checking was armed");
        assert!(!hazards.is_clean());
        assert!(hazards
            .records
            .iter()
            .all(|r| r.hazard.kind == crate::mem::HazardKind::Waw));
        assert_eq!(hazards.records[0].hazard.pc, Some(0));
        // Unchecked, no hazard evidence is collected at all.
        let arts = sys.execute(&l, &RunOptions::new()).unwrap();
        assert!(arts.hazards.is_none());
        assert!(arts.is_clean());
    }

    #[test]
    fn racecheck_and_profiling_do_not_perturb_timing() {
        use crate::isa::{Instr, Operand::*, Special};
        let mut sys = GpuSystem::single(GpuArch::v100());
        // Racecheck-clean: private slots, a block barrier, then a
        // cross-thread read on the far side of the barrier.
        let mut b = KernelBuilder::new("cleansmem");
        let r = b.reg();
        b.push(Instr::StShared {
            addr: Sp(Special::Tid),
            val: Sp(Special::Tid),
            volatile: false,
            pred: None,
        });
        b.bar_sync();
        b.push(Instr::LdShared {
            dst: r,
            addr: Sp(Special::LaneId),
            volatile: false,
        });
        b.exit();
        let k = b.build(64);
        let l = GridLaunch::single(k, 4, 64, vec![]);
        let plain = sys.execute(&l, &RunOptions::new()).unwrap().report;
        let checked = sys.execute(&l, &RunOptions::new().check()).unwrap();
        assert!(checked.hazards.as_ref().unwrap().is_clean());
        assert_eq!(plain, checked.report, "checking must not change timing");
        let profiled = sys.execute(&l, &RunOptions::new().profile()).unwrap();
        assert!(profiled.profile.is_some());
        assert_eq!(plain, profiled.report, "profiling must not change timing");
    }

    #[test]
    fn checked_launch_rejects_unbound_param() {
        use crate::isa::{Instr, Operand::*};
        let mut sys = GpuSystem::single(GpuArch::v100());
        let mut b = KernelBuilder::new("needsparam");
        let r = b.reg();
        b.push(Instr::LdGlobal {
            dst: r,
            buf: Param(0),
            idx: Imm(0),
        });
        b.exit();
        let k = b.build(0);
        let l = GridLaunch::single(k, 1, 32, vec![]);
        match sys.execute(&l, &RunOptions::new().check()) {
            Err(SimError::InvalidLaunch(msg)) => {
                assert!(msg.contains("unbound-param"), "{msg}")
            }
            other => panic!("expected InvalidLaunch, got {other:?}"),
        }
    }

    #[test]
    fn peer_copy_time_scales_with_link() {
        let sys = GpuSystem::new(GpuArch::v100(), gpu_node::NodeTopology::dgx1_v100());
        let near = sys.peer_copy_time(0, 1, 1 << 20);
        let far = sys.peer_copy_time(0, 5, 1 << 20);
        assert!(far > near);
        let local = sys.peer_copy_time(0, 0, 1 << 20);
        assert!(local < near);
    }
}
