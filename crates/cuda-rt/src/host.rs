//! The host-side runtime model.
//!
//! Reproduces the launch-path semantics the paper measures in §IV and §VI:
//!
//! * **Traditional** stream launches: the CPU call costs `overhead_ns`; a
//!   saturated stream leaves an `overhead_ns` gap between back-to-back
//!   kernels (what the kernel-fusion method recovers as "launch overhead");
//!   a kernel occupies the stream for at least `floor_ns` (the null-kernel
//!   "total latency" floor of Table I).
//! * **Cooperative** launches: same shape, different constants.
//! * **Cooperative multi-device** launches: additionally gate on *all*
//!   participating devices' streams having drained, plus a per-extra-GPU
//!   serialization — the steep implicit-barrier line of Fig. 9.
//! * **Host threads** with OpenMP-style barriers (Fig. 6's pattern), and
//!   `cudaDeviceSynchronize` per thread.
//!
//! Host timestamps carry seeded Gaussian jitter so the uncertainty analysis
//! of §IX-D (Eq. 8) has real variance to chew on; device-side clocks remain
//! exact.

use gpu_arch::LaunchPath;
use gpu_sim::{
    BufId, ExecReport, GpuSystem, GridLaunch, HazardReport, LaunchKind, ProfileReport,
    RecoveryReport, RunOptions, TraceEvent,
};
use sim_core::{Ps, SimError, SimResult, SmallRng};

/// Per-device stream state (the default stream; the paper's benchmarks use
/// one stream per device).
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    /// When the stream's last enqueued work finishes.
    busy_until: Ps,
    /// Whether at least one kernel has been enqueued since the last drain
    /// observation (governs the back-to-back gap and completion cost).
    has_tail: bool,
    /// Launch path of the most recent kernel (for completion cost).
    tail_path: LaunchPath,
    /// When the most recent kernel began (stream pipeline interval).
    last_begin: Ps,
}

/// A launched kernel's timing as seen from the host.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchRecord {
    /// Device-side execution duration (excludes all launch overhead).
    pub exec: ExecReport,
    /// When the kernel began on its stream(s).
    pub begin: Ps,
    /// When the stream(s) will have completed it (includes the floor).
    pub end: Ps,
}

/// Everything a host-side launch produced: the stream timing plus whatever
/// optional evidence the [`RunOptions`] armed — the host mirror of
/// [`gpu_sim::RunArtifacts`].
#[derive(Debug, Clone)]
pub struct LaunchArtifacts {
    /// Host-visible stream timing of the launch.
    pub record: LaunchRecord,
    /// Shared-memory hazard evidence (`Some` iff checking was requested).
    pub hazards: Option<HazardReport>,
    /// Recorded execution steps (`Some` iff tracing was requested).
    pub trace: Option<Vec<TraceEvent>>,
    /// Syncprof counters (`Some` iff profiling was requested).
    pub profile: Option<ProfileReport>,
    /// Recovery account (`Some` iff a [`gpu_sim::RecoveryPolicy`] was
    /// installed — even when the first attempt succeeded cleanly).
    pub recovery: Option<RecoveryReport>,
}

impl LaunchArtifacts {
    /// Whether no hazard evidence was collected: checking either wasn't
    /// armed, or was armed and found nothing.
    pub fn is_clean(&self) -> bool {
        self.hazards.as_ref().is_none_or(|h| h.is_clean())
    }
}

/// The simulated host: one process, any number of host threads, one default
/// stream per device.
///
/// ```
/// use cuda_rt::HostSim;
/// use gpu_arch::GpuArch;
/// use gpu_sim::{kernels, GpuSystem, GridLaunch, RunOptions};
///
/// let mut arch = GpuArch::v100();
/// arch.num_sms = 2;
/// let mut h = HostSim::new(GpuSystem::single(arch)).without_jitter();
/// let l = GridLaunch::single(kernels::sleep_kernel(10_000), 1, 32, vec![]);
/// h.launch(0, &l, &RunOptions::new()).unwrap();
/// h.device_synchronize(0, 0);
/// // 10 us of execution plus the launch path's overhead and floor.
/// assert!(h.now(0).as_us() > 10.0 && h.now(0).as_us() < 25.0);
/// ```
#[derive(Debug)]
pub struct HostSim {
    pub sys: GpuSystem,
    streams: Vec<Stream>,
    /// Copy-engine ports per device: peer copies are DMA transfers that
    /// overlap with kernels and with each other, one outbound and one
    /// inbound transfer in flight per device (full duplex).
    tx_busy: Vec<Ps>,
    rx_busy: Vec<Ps>,
    /// Virtual clock per host thread.
    threads: Vec<Ps>,
    rng: SmallRng,
    /// Host-timer jitter sigma (ns); `None` disables jitter.
    jitter: Option<f64>,
}

impl HostSim {
    pub fn new(sys: GpuSystem) -> HostSim {
        HostSim::with_threads(sys, 1)
    }

    /// A host with `nthreads` OS threads (e.g. one per GPU for the paper's
    /// CPU-side barrier pattern).
    pub fn with_threads(sys: GpuSystem, nthreads: usize) -> HostSim {
        assert!(nthreads >= 1);
        let n = sys.num_gpus();
        let jit = sys.arch.host.host_timer_jitter_ns;
        HostSim {
            sys,
            streams: vec![Stream::default(); n],
            tx_busy: vec![Ps::ZERO; n],
            rx_busy: vec![Ps::ZERO; n],
            threads: vec![Ps::ZERO; nthreads],
            rng: SmallRng::seed_from_u64(0x5CA1AB1E),
            jitter: (jit > 0.0).then_some(jit),
        }
    }

    /// Disable host-timer jitter (for deterministic tests).
    pub fn without_jitter(mut self) -> HostSim {
        self.jitter = None;
        self
    }

    /// Re-seed the jitter source.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The exact virtual time of a host thread.
    pub fn now(&self, thread: usize) -> Ps {
        self.threads[thread]
    }

    /// A host-side timestamp in nanoseconds, with measurement jitter — what
    /// `std::chrono` / `gettimeofday` would return in the paper's harness.
    pub fn timestamp(&mut self, thread: usize) -> f64 {
        let base = self.threads[thread].as_ns();
        match self.jitter {
            Some(sigma) => base + self.rng.normal(0.0, sigma),
            None => base,
        }
    }

    /// Advance a host thread's clock by busy work (ns).
    pub fn advance(&mut self, thread: usize, ns: u64) {
        self.threads[thread] += Ps::from_ns(ns);
    }

    /// Block a host thread until an absolute simulated time (event waits).
    pub fn wait_until(&mut self, thread: usize, at: Ps) {
        self.threads[thread] = self.threads[thread].max(at);
    }

    /// When everything currently enqueued on `device`'s stream completes.
    pub fn stream_busy_until(&self, device: usize) -> Ps {
        self.streams[device].busy_until
    }

    fn path(&self, kind: LaunchKind) -> LaunchPath {
        let h = &self.sys.arch.host;
        match kind {
            LaunchKind::Traditional => h.traditional,
            LaunchKind::Cooperative => h.cooperative,
            LaunchKind::CooperativeMultiDevice => h.cooperative_multi,
        }
    }

    /// Driver dispatch cost paid when a kernel enters an *idle* stream, and
    /// the completion-detection cost paid by the synchronize that observes
    /// the stream drain. Together with the launch-call overhead they add up
    /// to the launch path's Table-I floor: an isolated launch+sync of a null
    /// kernel costs `overhead_ns + floor_ns`, while pipelined back-to-back
    /// kernels pay only the `overhead_ns` gap (which is why the paper's
    /// kernel-fusion method must use long-enough kernels, §IX-B).
    fn dispatch_cost(&self, path: LaunchPath) -> Ps {
        let body = path
            .floor_ns
            .saturating_sub(self.sys.arch.host.device_sync_ns);
        Ps::from_ns(body * 3 / 5)
    }

    fn completion_cost(&self, path: LaunchPath) -> Ps {
        let body = path
            .floor_ns
            .saturating_sub(self.sys.arch.host.device_sync_ns);
        Ps::from_ns(body - body * 3 / 5)
    }

    /// Asynchronously launch a kernel from `thread`. The device-side
    /// simulation runs eagerly (memory effects apply immediately), but the
    /// stream timing models when it would really execute.
    ///
    /// `opts` arms the same instruments as [`GpuSystem::execute`] — hazard
    /// checking, tracing, profiling — without changing the stream timing.
    /// Detected hazards come back as *data* in [`LaunchArtifacts::hazards`];
    /// `launch` only errors on invalid launches, faults, deadlock, or
    /// static-lint rejections. With a [`gpu_sim::RecoveryPolicy`] installed,
    /// a fault-induced failure may instead resolve to `Ok` via checkpointed
    /// retry or rank eviction — the account lands in
    /// [`LaunchArtifacts::recovery`], the failed attempts and backoff are
    /// charged to the stream as busy time, and after eviction the stream
    /// timing covers only the surviving devices.
    pub fn launch(
        &mut self,
        thread: usize,
        launch: &GridLaunch,
        opts: &RunOptions,
    ) -> SimResult<LaunchArtifacts> {
        let path = self.path(launch.kind);
        let arts = self.sys.execute(launch, opts)?;
        let exec = arts.report;
        let recovery = arts.recovery;
        // Rank eviction shrinks the participant set: `device_durations`
        // covers only the ranks the successful attempt ran on, so the
        // stream timing below must use the survivors, not the request.
        let live: Vec<usize> = match &recovery {
            Some(r) if !r.evicted_devices.is_empty() => launch
                .devices
                .iter()
                .copied()
                .filter(|d| !r.evicted_devices.contains(d))
                .collect(),
            _ => launch.devices.clone(),
        };
        debug_assert_eq!(live.len(), exec.device_durations.len());
        // Failed attempts and backoff occupy the stream(s) before the
        // successful attempt begins.
        let rec_cost = recovery.as_ref().map_or(Ps::ZERO, |r| r.recovery_cost);
        // CPU-side cost of the launch call.
        self.threads[thread] += Ps::from_ns(path.overhead_ns);
        let now = self.threads[thread];

        let begin = match launch.kind {
            LaunchKind::CooperativeMultiDevice => {
                // Gate: waits for ALL previous operations in every
                // participating device's stream, plus per-GPU serialization.
                let all_busy = live
                    .iter()
                    .map(|&d| self.streams[d].busy_until)
                    .max()
                    .unwrap_or(Ps::ZERO);
                let gate =
                    Ps::from_ns(self.sys.arch.host.multi_gate_per_gpu_ns * (live.len() as u64 - 1));
                let saturated = live
                    .iter()
                    .any(|&d| self.streams[d].has_tail && self.streams[d].busy_until > now);
                if saturated {
                    all_busy + gate + Ps::from_ns(path.overhead_ns)
                } else {
                    now.max(all_busy) + gate + self.dispatch_cost(path)
                }
            }
            _ => {
                let d = live[0];
                let s = self.streams[d];
                if s.has_tail && s.busy_until > now {
                    // Back-to-back in a saturated stream: the launch gap,
                    // but never faster than the per-kernel pipeline interval
                    // the driver needs (§IX-B: short kernels over-report).
                    let pipeline =
                        s.last_begin + Ps::from_ns(self.sys.arch.host.stream_pipeline_interval_ns);
                    (s.busy_until + Ps::from_ns(path.overhead_ns)).max(pipeline)
                } else {
                    now.max(s.busy_until) + self.dispatch_cost(path)
                }
            }
        };

        let begin = begin + rec_cost;
        let mut end = Ps::ZERO;
        for (r, &d) in live.iter().enumerate() {
            let e = begin + exec.device_durations[r];
            self.streams[d].busy_until = e;
            self.streams[d].has_tail = true;
            self.streams[d].tail_path = path;
            self.streams[d].last_begin = begin;
            end = end.max(e);
        }
        Ok(LaunchArtifacts {
            record: LaunchRecord { exec, begin, end },
            hazards: arts.hazards,
            trace: arts.trace,
            profile: arts.profile,
            recovery,
        })
    }

    /// `cudaDeviceSynchronize`: block `thread` until `device`'s stream is
    /// drained, then pay completion detection.
    pub fn device_synchronize(&mut self, thread: usize, device: usize) {
        let s = self.streams[device];
        let sync = Ps::from_ns(self.sys.arch.host.device_sync_ns);
        let completion = if s.has_tail {
            self.completion_cost(s.tail_path)
        } else {
            Ps::ZERO
        };
        self.threads[thread] = self.threads[thread].max(s.busy_until) + completion + sync;
        self.streams[device].has_tail = false;
    }

    /// Synchronize `thread` with every device.
    pub fn synchronize_all(&mut self, thread: usize) {
        for d in 0..self.streams.len() {
            self.device_synchronize(thread, d);
        }
    }

    /// OpenMP-style barrier among the given host threads (all of them when
    /// empty): everyone leaves at the max clock plus the barrier cost.
    pub fn omp_barrier(&mut self, threads: &[usize]) {
        let ids: Vec<usize> = if threads.is_empty() {
            (0..self.threads.len()).collect()
        } else {
            threads.to_vec()
        };
        let max = ids.iter().map(|&t| self.threads[t]).max().unwrap();
        let h = &self.sys.arch.host;
        let cost =
            Ps::from_ns(h.omp_barrier_ns + h.omp_barrier_per_thread_ns * (ids.len() as u64 - 1));
        for t in ids {
            self.threads[t] = max + cost;
        }
    }

    /// `cudaMemcpy` host→device: writes `vals` into `dst` starting at word
    /// `dst_off`, charging PCIe time to the thread and the device stream.
    pub fn memcpy_h2d(
        &mut self,
        thread: usize,
        dst: BufId,
        dst_off: u64,
        vals: &[f64],
    ) -> SimResult<()> {
        let dev = {
            let d = self.sys.buffer(dst);
            if dst_off + vals.len() as u64 > d.len() {
                return Err(SimError::MemoryFault(format!(
                    "h2d of {} words at +{dst_off} exceeds buffer of {} words",
                    vals.len(),
                    d.len()
                )));
            }
            d.device
        };
        let words = self
            .sys
            .buffer_mut(dst)
            .range_mut(dst_off, vals.len() as u64)?;
        for (w, v) in words.iter_mut().zip(vals) {
            *w = v.to_bits();
        }
        self.charge_pcie(thread, dev, vals.len() as u64 * 8);
        Ok(())
    }

    /// `cudaMemcpy` device→host: reads `words` f64 values from `src`,
    /// charging PCIe time.
    pub fn memcpy_d2h(
        &mut self,
        thread: usize,
        src: BufId,
        src_off: u64,
        words: u64,
    ) -> SimResult<Vec<f64>> {
        let dev = {
            let s = self.sys.buffer(src);
            if src_off + words > s.len() {
                return Err(SimError::MemoryFault(format!(
                    "d2h of {words} words at +{src_off} exceeds buffer of {} words",
                    s.len()
                )));
            }
            s.device
        };
        let mut out = vec![0u64; words as usize];
        self.sys.buffer(src).read_range(src_off, &mut out)?;
        self.charge_pcie(thread, dev, words * 8);
        Ok(out.into_iter().map(f64::from_bits).collect())
    }

    /// Synchronous PCIe transfer: the thread waits for the stream to drain
    /// (cudaMemcpy is synchronizing) plus the wire time.
    fn charge_pcie(&mut self, thread: usize, device: usize, bytes: u64) {
        let gbs = self.sys.arch.host.h2d_gbs;
        let wire = Ps::from_ns_f64(bytes as f64 / gbs);
        let begin = self.threads[thread].max(self.streams[device].busy_until);
        let end = begin + wire;
        self.streams[device].busy_until = end;
        self.threads[thread] = end;
    }

    /// `cudaMemcpyPeer`-style copy of `words` 64-bit words. Copies the data
    /// and charges the link time to both devices' streams and the thread.
    pub fn memcpy_peer(
        &mut self,
        thread: usize,
        dst: BufId,
        src: BufId,
        words: u64,
    ) -> SimResult<()> {
        self.memcpy_peer_at(thread, dst, 0, src, 0, words)
    }

    /// [`Self::memcpy_peer`] with word offsets into both buffers.
    pub fn memcpy_peer_at(
        &mut self,
        thread: usize,
        dst: BufId,
        dst_off: u64,
        src: BufId,
        src_off: u64,
        words: u64,
    ) -> SimResult<()> {
        let (src_dev, dst_dev) = {
            let s = self.sys.buffer(src);
            let d = self.sys.buffer(dst);
            if src_off + words > s.len() || dst_off + words > d.len() {
                return Err(SimError::MemoryFault(format!(
                    "peer copy of {words} words at +{src_off}/+{dst_off} exceeds \
                     buffer sizes {} / {}",
                    s.len(),
                    d.len()
                )));
            }
            (s.device, d.device)
        };
        self.sys.copy_words(dst, dst_off, src, src_off, words)?;
        // Stream-ordered start (default-stream semantics), but the transfer
        // itself runs on the copy engines: concurrent copies between
        // disjoint device pairs overlap, as on real hardware.
        let t = self.sys.peer_copy_time(src_dev, dst_dev, words * 8);
        let begin = self.threads[thread]
            .max(self.streams[src_dev].busy_until)
            .max(self.streams[dst_dev].busy_until)
            .max(self.tx_busy[src_dev])
            .max(self.rx_busy[dst_dev]);
        let end = begin + t;
        self.tx_busy[src_dev] = end;
        self.rx_busy[dst_dev] = end;
        self.threads[thread] = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_arch::GpuArch;
    use gpu_node::NodeTopology;
    use gpu_sim::kernels;

    fn host() -> HostSim {
        let mut arch = GpuArch::v100();
        arch.num_sms = 4;
        HostSim::new(GpuSystem::single(arch)).without_jitter()
    }

    #[test]
    fn null_kernel_total_latency_is_floor_plus_overhead() {
        let mut h = host();
        let k = kernels::null_kernel();
        let l = GridLaunch::single(k, 1, 32, vec![]);
        // Warm-up.
        h.launch(0, &l, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let t0 = h.now(0);
        let n = 5;
        for _ in 0..n {
            h.launch(0, &l, &RunOptions::new()).unwrap();
            h.device_synchronize(0, 0);
        }
        let per = (h.now(0) - t0).as_ns() / n as f64;
        // Table I: 7807 + 1081 = 8888 ns per isolated null kernel.
        assert!((per - 8888.0).abs() < 300.0, "got {per}");
    }

    #[test]
    fn saturated_stream_gap_equals_overhead() {
        // The kernel-fusion protocol: N sleep kernels vs one N-times-longer
        // kernel; the difference per kernel is the launch overhead.
        let mut h = host();
        let short = GridLaunch::single(kernels::sleep_kernel(10_000), 1, 32, vec![]);
        let long = GridLaunch::single(kernels::sleep_kernel(50_000), 1, 32, vec![]);
        h.launch(0, &short, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let t0 = h.now(0);
        for _ in 0..5 {
            h.launch(0, &short, &RunOptions::new()).unwrap();
        }
        h.device_synchronize(0, 0);
        let five = (h.now(0) - t0).as_ns();
        let t1 = h.now(0);
        h.launch(0, &long, &RunOptions::new()).unwrap();
        h.device_synchronize(0, 0);
        let one = (h.now(0) - t1).as_ns();
        let overhead = (five - one) / 4.0;
        assert!(
            (overhead - 1081.0).abs() < 200.0,
            "fusion overhead {overhead}"
        );
    }

    #[test]
    fn multi_device_gate_grows_with_gpu_count() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::new(sys).without_jitter();
        let mut last = 0.0;
        for n in [2usize, 4, 8] {
            let devices: Vec<usize> = (0..n).collect();
            let params = vec![vec![]; n];
            let l = GridLaunch::multi(kernels::null_kernel(), 1, 32, devices, params);
            let t0 = h.now(0);
            h.launch(0, &l, &RunOptions::new()).unwrap();
            for d in 0..n {
                h.device_synchronize(0, d);
            }
            let took = (h.now(0) - t0).as_ns();
            assert!(took > last, "gate should grow: {took} !> {last}");
            last = took;
        }
    }

    #[test]
    fn omp_barrier_aligns_threads() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::with_threads(sys, 4).without_jitter();
        h.advance(2, 5_000);
        h.omp_barrier(&[]);
        let t0 = h.now(0);
        assert!(h.threads.iter().all(|&t| t == t0));
        assert!(t0.as_ns() >= 5_000.0);
    }

    #[test]
    fn peer_copy_moves_data_and_time() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 2;
        let sys = GpuSystem::new(arch, NodeTopology::dgx1_v100());
        let mut h = HostSim::new(sys).without_jitter();
        let a = h.sys.alloc_f64(0, &[1.0, 2.0, 3.0]);
        let b = h.sys.alloc(1, 3);
        let t0 = h.now(0);
        h.memcpy_peer(0, b, a, 3).unwrap();
        assert_eq!(h.sys.read_f64(b), vec![1.0, 2.0, 3.0]);
        assert!(h.now(0) > t0);
    }

    #[test]
    fn timestamp_jitter_is_seeded_and_bounded() {
        let mut arch = GpuArch::v100();
        arch.num_sms = 1;
        let mut h = HostSim::new(GpuSystem::single(arch));
        h.reseed(7);
        h.advance(0, 1_000_000);
        let a: Vec<f64> = (0..32).map(|_| h.timestamp(0)).collect();
        h.reseed(7);
        let b: Vec<f64> = (0..32).map(|_| h.timestamp(0)).collect();
        assert_eq!(a, b, "same seed, same jitter");
        for v in &a {
            assert!((v - 1_000_000.0).abs() < 300.0, "jitter too large: {v}");
        }
    }

    fn divergent_barrier_launch() -> GridLaunch {
        use gpu_sim::isa::{Operand::*, Special};
        use gpu_sim::KernelBuilder;
        let mut b = KernelBuilder::new("divergent");
        let c = b.reg();
        b.cmp_lt(c, Sp(Special::Tid), Imm(16));
        b.bra_ifz(Reg(c), "out");
        b.bar_sync();
        b.label("out");
        b.exit();
        GridLaunch::single(b.build(0), 1, 32, vec![])
    }

    #[test]
    fn checked_launch_rejects_divergent_barrier_and_passes_clean_kernels() {
        let mut h = host();
        let check = RunOptions::new().check();
        let clean = GridLaunch::single(kernels::null_kernel(), 1, 32, vec![]);
        let arts = h.launch(0, &clean, &check).unwrap();
        assert!(arts.is_clean());
        assert!(arts.hazards.is_some(), "checking was armed");
        h.device_synchronize(0, 0);

        let bad = divergent_barrier_launch();
        let err = h.launch(0, &bad, &check).unwrap_err();
        assert!(err.to_string().contains("barrier-divergence"), "{err}");
        // The unchecked path still accepts it (Volta converges).
        h.launch(0, &bad, &RunOptions::new()).unwrap();
    }

    #[test]
    fn launch_can_arm_trace_and_profile_together() {
        let mut h = host();
        let out = h.sys.alloc(0, 2 * 64);
        let l = GridLaunch::single(
            kernels::sync_chain(kernels::SyncOp::Block, 4),
            2,
            64,
            vec![out.0 as u64],
        );
        let arts = h
            .launch(0, &l, &RunOptions::new().trace(10_000).profile())
            .unwrap();
        assert!(!arts.trace.as_ref().unwrap().is_empty());
        let profile = arts.profile.unwrap();
        assert!(profile.barrier_wait_ps(gpu_sim::SyncScope::Block) > 0);
        // Instruments must not move the stream clock.
        let plain = h.launch(0, &l, &RunOptions::new()).unwrap();
        assert_eq!(plain.record.exec, arts.record.exec);
    }

    #[test]
    fn memcpy_peer_rejects_oversized_copy() {
        let mut h = host();
        let a = h.sys.alloc(0, 2);
        let b = h.sys.alloc(0, 8);
        assert!(h.memcpy_peer(0, b, a, 4).is_err());
    }

    #[test]
    fn memcpy_peer_fault_message_is_pinned() {
        let mut h = host();
        let a = h.sys.alloc(0, 2);
        let b = h.sys.alloc(0, 8);
        let err = h.memcpy_peer_at(0, b, 1, a, 0, 4).unwrap_err();
        assert_eq!(
            err,
            SimError::MemoryFault(
                "peer copy of 4 words at +0/+1 exceeds buffer sizes 2 / 8".to_string()
            )
        );
    }

    #[test]
    fn memcpy_peer_same_buffer_overlap_copies_forward_per_word() {
        let mut h = host();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        // Destination above the source: each word reads the one written
        // `dst_off - src_off` steps earlier, so the first two repeat.
        let up = h.sys.alloc_f64(0, &vals);
        h.memcpy_peer_at(0, up, 2, up, 0, 5).unwrap();
        assert_eq!(
            h.sys.read_f64(up),
            vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 7.0]
        );
        // Destination below the source: a plain shift down.
        let down = h.sys.alloc_f64(0, &vals);
        h.memcpy_peer_at(0, down, 0, down, 3, 5).unwrap();
        assert_eq!(
            h.sys.read_f64(down),
            vec![3.0, 4.0, 5.0, 6.0, 7.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn memcpy_peer_from_a_linear_source_copies_its_closed_form() {
        let mut h = host();
        let src = h.sys.alloc_linear(0, 0.5, 0.25, 1 << 30);
        let dst = h.sys.alloc(0, 4);
        h.memcpy_peer_at(0, dst, 1, src, 10, 3).unwrap();
        assert_eq!(h.sys.read_f64(dst), vec![0.0, 3.0, 3.25, 3.5]);
        // The synthetic source stays synthetic.
        assert!(h.sys.buffer(src).as_dense().is_none());
    }
}
