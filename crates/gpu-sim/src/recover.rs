//! Fault recovery: checkpointed retry, rank eviction, and degraded-mode
//! re-execution on top of [`crate::GpuSystem::execute`].
//!
//! The layer is strictly opt-in: a [`RecoveryPolicy`] attached via
//! [`crate::RunOptions::recovery`] wraps the launch in an attempt loop.
//! Before the first attempt the system's launch-visible memory (every
//! allocated buffer word) is checkpointed; each retry restores that
//! checkpoint byte-exactly, so every attempt observes the same initial
//! state regardless of how far the failed attempt got. Buffer words are
//! the *only* mutable state a launch can observe across launches — the
//! engine and profiler are rebuilt per attempt — which is the exactness
//! argument for the checkpoint.
//!
//! Failures are classified by [`classify`]: watchdog livelocks, grid
//! deadlocks, and instruction-limit blowups are *retryable* (they are
//! exactly the classes a fault plan can induce); launch validation,
//! memory faults, and other program errors are *fatal* and surface
//! immediately. Retries are paced by a seeded, counter-based exponential
//! backoff — jitter comes from `fault::mix(seed, [TAG, attempt])`, never
//! from wall clock or execution order, so the retry schedule is
//! byte-identical at any `--jobs` setting.
//!
//! For multi-grid launches whose armed fault plan kills blocks on
//! specific ranks, plain retry cannot help while the kills persist:
//! every rank blocks at the grid barrier waiting for arrivals that never
//! come. When the policy allows it the layer instead *evicts* the
//! implicated ranks — the launch is rebuilt over the surviving devices
//! (the fault plan's kill list is renumbered with
//! [`crate::fault::FaultPlan::evict_ranks`]) and re-run degraded. The
//! surviving devices keep their original ids, so link costs between them
//! are unchanged — exactly the topology [`NodeTopology::evict`] would
//! describe, which is what the report's `effective_topology` records.
//!
//! With no policy installed nothing here runs and every artifact byte is
//! identical to an unwrapped execution.

use serde::{Deserialize, Serialize};
use sim_core::{Ps, SimError, SimResult};

use crate::fault;
use crate::system::{GpuSystem, GridLaunch, RunArtifacts, RunOptions};

/// How a [`SimError`] relates to the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorClass {
    /// Plausibly fault-induced: worth restoring the checkpoint and
    /// relaunching (possibly on fewer ranks).
    Retryable,
    /// Structural: retrying cannot change the outcome.
    Fatal,
}

/// Classify an error for retry purposes.
///
/// Watchdog livelocks, deadlocks, and instruction-limit blowups are the
/// failure modes injected faults produce; everything else (invalid
/// launch, memory fault, verifier rejections, cell errors) reflects the
/// program itself and is fatal.
pub fn classify(err: &SimError) -> ErrorClass {
    match err {
        SimError::Watchdog { .. } | SimError::Deadlock { .. } => ErrorClass::Retryable,
        SimError::ProgramError(msg) if msg.contains("exceeded") && msg.contains("instructions") => {
            ErrorClass::Retryable
        }
        _ => ErrorClass::Fatal,
    }
}

/// Retry/eviction policy attached to a launch via
/// [`crate::RunOptions::recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Relaunches allowed after the first attempt (total attempts =
    /// `max_retries + 1`).
    pub max_retries: u32,
    /// Base backoff before retry `i`: `backoff_ns * 2^(i-1)` plus seeded
    /// jitter in `[0, backoff_ns)`. Zero disables backoff entirely.
    pub backoff_ns: u64,
    /// Seed for the counter-based jitter draws.
    pub seed: u64,
    /// Allow evicting ranks implicated by persistent killed-block
    /// faults from multi-grid launches.
    pub evict: bool,
    /// Never evict below this many surviving ranks.
    pub min_ranks: u32,
    /// Model transient faults: the plan is armed only on attempts
    /// `< n`; later attempts run clean. `None` means every attempt is
    /// faulted (persistent faults).
    pub transient_attempts: Option<u32>,
}

impl RecoveryPolicy {
    /// Defaults: 2 retries, 2 us base backoff, eviction on, floor of
    /// one surviving rank, persistent faults.
    pub const fn new() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 2,
            backoff_ns: 2_000,
            seed: 0,
            evict: true,
            min_ranks: 1,
            transient_attempts: None,
        }
    }

    /// Set the number of relaunches allowed after the first attempt.
    pub const fn retries(mut self, n: u32) -> RecoveryPolicy {
        self.max_retries = n;
        self
    }

    /// Set the base backoff in simulated nanoseconds.
    pub const fn backoff_ns(mut self, ns: u64) -> RecoveryPolicy {
        self.backoff_ns = ns;
        self
    }

    /// Seed the backoff jitter draws.
    pub const fn seeded(mut self, seed: u64) -> RecoveryPolicy {
        self.seed = seed;
        self
    }

    /// Enable or disable rank eviction.
    pub const fn evicting(mut self, on: bool) -> RecoveryPolicy {
        self.evict = on;
        self
    }

    /// Set the minimum number of surviving ranks eviction may leave.
    pub const fn min_ranks(mut self, n: u32) -> RecoveryPolicy {
        self.min_ranks = n;
        self
    }

    /// Arm the fault plan only on attempts `< n` (transient faults).
    pub const fn transient(mut self, n: u32) -> RecoveryPolicy {
        self.transient_attempts = Some(n);
        self
    }
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy::new()
    }
}

/// One execution attempt inside the recovery loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Attempt index, starting at 0.
    pub attempt: u32,
    /// Device ids the attempt ran on (shrinks after eviction).
    pub devices: Vec<usize>,
    /// Whether the fault plan was armed for this attempt.
    pub faults_armed: bool,
    /// Backoff charged before this attempt (zero for attempt 0).
    pub backoff: Ps,
    /// The failure, or `None` for the successful final attempt.
    pub error: Option<SimError>,
}

/// Structured account of what the recovery layer did, attached to
/// [`RunArtifacts::recovery`] whenever a policy was installed — even for
/// a clean single-attempt run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Every attempt in order; the last one succeeded.
    pub attempts: Vec<AttemptRecord>,
    /// Original launch rank indices evicted across all rounds (sorted).
    pub evicted_ranks: Vec<u32>,
    /// Device ids those ranks occupied (sorted).
    pub evicted_devices: Vec<usize>,
    /// Ranks the successful attempt ran on.
    pub effective_ranks: usize,
    /// Name of the node topology restricted to surviving devices.
    pub effective_topology: String,
    /// Total simulated time lost to failed attempts and backoff.
    pub recovery_cost: Ps,
    /// True iff success required at least one relaunch.
    pub recovered: bool,
}

impl RecoveryReport {
    /// Attempt index that succeeded.
    pub fn succeeded_on_attempt(&self) -> u32 {
        self.attempts.last().map_or(0, |a| a.attempt)
    }

    /// Whether any rank was evicted.
    pub fn degraded(&self) -> bool {
        !self.evicted_ranks.is_empty()
    }
}

/// Seeded exponential backoff before retry `attempt` (>= 1).
fn backoff_for(policy: &RecoveryPolicy, attempt: u32) -> Ps {
    let base = policy.backoff_ns;
    if base == 0 {
        return Ps::ZERO;
    }
    let exp = (attempt - 1).min(16);
    let jitter = fault::mix(policy.seed, &[fault::TAG_RETRY_BACKOFF, attempt as u64]) % base;
    Ps::from_ns(base.saturating_mul(1 << exp).saturating_add(jitter))
}

/// Simulated time a failed attempt consumed before erroring out.
fn error_time(err: &SimError) -> Ps {
    match err {
        SimError::Deadlock { at, .. } | SimError::Watchdog { at, .. } => *at,
        _ => Ps::ZERO,
    }
}

/// The attempt loop behind [`GpuSystem::execute`] when a policy is
/// installed. `opts` still carries the policy; each inner attempt runs
/// with [`RunOptions::for_recovery_attempt`], which strips it, so the
/// recursion into `execute` is exactly one level deep.
pub(crate) fn execute_with_recovery(
    sys: &mut GpuSystem,
    launch: &GridLaunch,
    opts: &RunOptions,
    policy: &RecoveryPolicy,
) -> SimResult<RunArtifacts> {
    let checkpoint = sys.checkpoint();
    let mut cur = launch.clone();
    let mut plan = opts.fault_plan().cloned();
    // Surviving launch ranks, by original index — eviction renumbers the
    // live launch but the report speaks in original identities.
    let mut cur_to_orig: Vec<u32> = (0..launch.devices.len() as u32).collect();
    let mut evicted_ranks: Vec<u32> = Vec::new();
    let mut evicted_devices: Vec<usize> = Vec::new();
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut cost = Ps::ZERO;
    let max_attempts = policy.max_retries.saturating_add(1);
    let mut attempt = 0u32;
    loop {
        let armed = plan.as_ref().is_some_and(|p| !p.is_zero())
            && policy.transient_attempts.is_none_or(|n| attempt < n);
        let backoff = if attempt == 0 {
            Ps::ZERO
        } else {
            sys.restore(&checkpoint);
            backoff_for(policy, attempt)
        };
        cost += backoff;
        let attempt_opts = opts.for_recovery_attempt(if armed { plan.clone() } else { None });
        match sys.execute(&cur, &attempt_opts) {
            Ok(mut arts) => {
                attempts.push(AttemptRecord {
                    attempt,
                    devices: cur.devices.clone(),
                    faults_armed: armed,
                    backoff,
                    error: None,
                });
                evicted_ranks.sort_unstable();
                evicted_devices.sort_unstable();
                let effective_topology = if evicted_devices.is_empty() {
                    sys.topology.name.clone()
                } else {
                    sys.topology.evict(&evicted_devices).name
                };
                arts.recovery = Some(RecoveryReport {
                    recovered: attempt > 0,
                    attempts,
                    evicted_ranks,
                    evicted_devices,
                    effective_ranks: cur.devices.len(),
                    effective_topology,
                    recovery_cost: cost,
                });
                return Ok(arts);
            }
            Err(err) => {
                cost += error_time(&err);
                let class = classify(&err);
                attempts.push(AttemptRecord {
                    attempt,
                    devices: cur.devices.clone(),
                    faults_armed: armed,
                    backoff,
                    error: Some(err.clone()),
                });
                attempt += 1;
                if class == ErrorClass::Fatal || attempt >= max_attempts {
                    // Leave memory as the caller handed it to us: a
                    // failed recoverable launch has no partial effects.
                    sys.restore(&checkpoint);
                    return Err(err);
                }
                // Evict only when the kills will still be armed next
                // attempt — a transient plan about to disarm recovers
                // at full strength by plain retry instead.
                let kills_persist = policy.transient_attempts.is_none_or(|n| attempt < n);
                if policy.evict && armed && kills_persist && cur.devices.len() > 1 {
                    if let Some(p) = plan.clone() {
                        let ranks: Vec<u32> = p
                            .killed_ranks()
                            .into_iter()
                            .filter(|&r| (r as usize) < cur.devices.len())
                            .collect();
                        let survivors = cur.devices.len() - ranks.len();
                        if !ranks.is_empty() && survivors >= policy.min_ranks.max(1) as usize {
                            let keep = |i: usize| !ranks.contains(&(i as u32));
                            for &r in &ranks {
                                evicted_ranks.push(cur_to_orig[r as usize]);
                                evicted_devices.push(cur.devices[r as usize]);
                            }
                            cur.devices = cur
                                .devices
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, &d)| d)
                                .collect();
                            cur.params = cur
                                .params
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, prm)| prm.clone())
                                .collect();
                            cur_to_orig = cur_to_orig
                                .iter()
                                .enumerate()
                                .filter(|&(i, _)| keep(i))
                                .map(|(_, &o)| o)
                                .collect();
                            plan = Some(p.evict_ranks(&ranks));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_table() {
        let dead = SimError::Deadlock {
            at: Ps::from_ns(10),
            blocked: vec!["gpu0".into()],
            faults: None,
        };
        assert_eq!(classify(&dead), ErrorClass::Retryable);
        let wd = SimError::Watchdog {
            at: Ps::from_ns(10),
            last_progress: Ps::from_ns(1),
            stuck: vec![],
            faults: None,
        };
        assert_eq!(classify(&wd), ErrorClass::Retryable);
        let instr = SimError::ProgramError(
            "kernel \"spin\" exceeded 1000 instructions — non-terminating?".into(),
        );
        assert_eq!(classify(&instr), ErrorClass::Retryable);
        assert_eq!(
            classify(&SimError::ProgramError("bad opcode".into())),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&SimError::InvalidLaunch("0 blocks".into())),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn backoff_is_seeded_exponential_and_deterministic() {
        let p = RecoveryPolicy::new().backoff_ns(1_000).seeded(7);
        let b1 = backoff_for(&p, 1);
        let b2 = backoff_for(&p, 2);
        let b3 = backoff_for(&p, 3);
        // base*2^(i-1) dominates the jitter (< base), so growth is strict.
        assert!(b1 < b2 && b2 < b3, "{b1:?} {b2:?} {b3:?}");
        assert_eq!(b1, backoff_for(&p, 1), "same counter, same draw");
        let other = RecoveryPolicy::new().backoff_ns(1_000).seeded(8);
        assert_ne!(backoff_for(&other, 1), b1, "seed changes the jitter");
        let off = RecoveryPolicy::new().backoff_ns(0);
        assert_eq!(backoff_for(&off, 3), Ps::ZERO);
    }

    #[test]
    fn policy_builder_is_const_friendly() {
        const P: RecoveryPolicy = RecoveryPolicy::new()
            .retries(4)
            .backoff_ns(500)
            .seeded(9)
            .evicting(false)
            .min_ranks(2)
            .transient(1);
        let p = P;
        assert_eq!(p.max_retries, 4);
        assert_eq!(p.backoff_ns, 500);
        assert_eq!(p.seed, 9);
        assert!(!p.evict);
        assert_eq!(p.min_ranks, 2);
        assert_eq!(p.transient_attempts, Some(1));
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::new());
    }
}
