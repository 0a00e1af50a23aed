//! In-memory span recorder for the traced run.
//!
//! A span times one call into a layer's public function. Spans are pushed
//! into a process-wide list as they close and read once when the run ends,
//! so recording costs one clock read pair and one uncontended lock per
//! call. A span's parent is the span open around it on the same thread, or
//! for a sweep cell the span that ran the sweep. Self time excludes the
//! child spans that closed on the same thread while the span was open; work
//! a span hands to other threads (a sweep's workers) is recorded by those
//! threads' own spans.

use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer key, e.g. `engine` or `system.build`.
    pub layer: &'static str,
    /// The experiment or function the span covers.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// `dur_ns` minus the same-thread child spans.
    pub self_ns: u64,
    /// Work the call reported: simulated instructions, warps, simulated
    /// microseconds and bytes (zero where the layer reports none).
    pub work: Work,
}

/// Counters a span can carry alongside its duration.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Work {
    pub instrs: u64,
    pub warps: u64,
    pub sim_us: f64,
    pub bytes: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each open span on this thread, innermost last: its id and the child
    /// time accumulated so far.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Sweep-cell nesting depth on this thread.
    static CELL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Pops the span's child accumulator even if the timed call unwinds.
struct OpenGuard;

impl Drop for OpenGuard {
    fn drop(&mut self) {
        OPEN.with(|o| o.borrow_mut().pop());
    }
}

/// The innermost span open on this thread.
pub fn current() -> Option<u64> {
    OPEN.with(|o| o.borrow().last().map(|&(id, _)| id))
}

/// Time `f` as a span of `layer`; `work` derives the span's counters from
/// the call's result.
pub fn span_with<T>(
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
    work: impl FnOnce(&T) -> Work,
) -> T {
    record(layer, name, current(), f, work)
}

fn record<T>(
    layer: &'static str,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce() -> T,
    work: impl FnOnce(&T) -> Work,
) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let base = epoch();
    let start = Instant::now();
    OPEN.with(|o| o.borrow_mut().push((id, 0)));
    let guard = OpenGuard;
    let out = f();
    let dur_ns = start.elapsed().as_nanos() as u64;
    let child_ns = OPEN.with(|o| o.borrow().last().map_or(0, |&(_, c)| c));
    drop(guard);
    OPEN.with(|o| {
        if let Some((_, parent_child_ns)) = o.borrow_mut().last_mut() {
            *parent_child_ns += dur_ns;
        }
    });
    let span = Span {
        id,
        parent,
        layer,
        name,
        start_ns: start.duration_since(base).as_nanos() as u64,
        dur_ns,
        self_ns: dur_ns.saturating_sub(child_ns),
        work: work(&out),
    };
    SPANS.lock().expect("no span recorder panics").push(span);
    out
}

/// [`span_with`] for calls that report no counters.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_with(layer, name, f, |_| Work::default())
}

/// Run one sweep cell (at any nesting level, the registry's included) as a
/// span caused by `caller`, the span that ran the sweep, and count the
/// thread as live while it is inside its outermost cell, so
/// [`peak_threads`] sees every thread nested sweeps put to work.
pub fn cell<T>(
    layer: &'static str,
    name: &'static str,
    caller: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            let depth = CELL_DEPTH.with(|d| {
                d.set(d.get() - 1);
                d.get()
            });
            if depth == 0 {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    let depth = CELL_DEPTH.with(|d| {
        d.set(d.get() + 1);
        d.get()
    });
    if depth == 1 {
        let live = LIVE.fetch_add(1, Ordering::Relaxed) + 1;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    let _leave = Leave;
    record(layer, name, caller, f, |_| Work::default())
}

/// The most threads that were inside a sweep cell at the same time.
pub fn peak_threads() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Every span recorded so far, in closing order.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("no span recorder panics"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_same_thread_children() {
        span("outer", "o", || {
            span("inner", "i", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            })
        });
        let spans = take_spans();
        let inner = spans.iter().find(|s| s.layer == "inner").unwrap();
        let outer = spans.iter().find(|s| s.layer == "outer").unwrap();
        assert_eq!(inner.self_ns, inner.dur_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert_eq!(inner.parent, Some(outer.id));
    }
}
