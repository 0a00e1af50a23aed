//! # gpu-sim
//!
//! A discrete-event SIMT GPU simulator purpose-built to reproduce the
//! synchronization behaviour studied in "A Study of Single and Multi-device
//! Synchronization Methods in Nvidia GPUs" (Zhang et al., 2020):
//!
//! * a small PTX-shaped ISA with a kernel builder ([`isa`]),
//! * warps with per-thread PCs (Volta) or lockstep fencing (Pascal),
//!   min-PC-group divergence, and the full barrier hierarchy — tile /
//!   coalesced / shuffle, block, grid, and multi-grid ([`engine`]),
//! * shared memory with a store-visibility model that makes unsynchronized
//!   warp reductions *incorrect*, as on real hardware ([`mem`]),
//! * DRAM/L2/shared-memory port/barrier-unit contention models,
//! * deadlock detection for partial-group synchronization (paper §VIII-B), and
//! * seeded deterministic fault injection plus a progress watchdog for
//!   spin-barrier livelocks ([`fault`], [`RunOptions::faults`],
//!   [`RunOptions::watchdog`]), and
//! * an opt-in fault recovery layer — checkpointed retry with seeded
//!   backoff and rank eviction for multi-grid launches ([`recover`],
//!   [`RunOptions::recovery`]).

pub mod chrome_trace;
pub mod disasm;
pub mod engine;
pub mod fault;
pub mod isa;
pub mod kernels;
pub mod mem;
pub mod profile;
pub mod recover;
pub mod stats;
pub mod system;
pub mod timeline;
pub mod verify;

pub use chrome_trace::export_chrome_trace;
pub use disasm::{disassemble, instr_to_string};
pub use engine::{HazardRecord, HazardReport, TraceEvent};
pub use fault::FaultPlan;
pub use isa::{
    fimm, BuildError, Instr, Kernel, KernelBuilder, Operand, Program, Reg, ShflKind, ShflMode,
    Special,
};
pub use mem::{BufData, BufId, Buffer, Hazard, HazardKind, MemCheckpoint, SharedMem};
pub use profile::{
    BarrierEpoch, KernelProfile, ProfileReport, SmProfile, StallBreakdown, SyncScope,
};
pub use recover::{AttemptRecord, ErrorClass, RecoveryPolicy, RecoveryReport};
pub use system::{ExecReport, GpuSystem, GridLaunch, LaunchKind, RunArtifacts, RunOptions};
pub use timeline::render_timeline;
pub use verify::{check_kernel, check_launch, render_report, Diagnostic, HazardClass, Severity};
