//! Deterministic discrete-event queue.
//!
//! Events are ordered by time; ties are broken by insertion sequence number so
//! a simulation replays identically regardless of heap internals.
//!
//! The heap is hand-rolled and compares *keys only* — the payload needs no
//! `Ord` (the old implementation wrapped events in an always-`Equal` slot to
//! satisfy `BinaryHeap`, which worked but made every comparison walk a tuple
//! and made `peek` awkward). Two layout choices matter for the simulator's
//! pop-dominated access pattern:
//!
//! * **4-ary** instead of binary: half the depth, and the up-to-four child
//!   keys a sift-down inspects sit in one or two cache lines.
//! * **Parallel arrays**: keys live in one dense `Vec` and payloads in
//!   another, so sift comparisons never drag payload bytes through the
//!   cache.
//! * **Packed keys**: a `(time, seq)` key is one `u128`, time in the high
//!   64 bits and seq in the low. Both halves are `u64`, so integer order is
//!   exactly the lexicographic `(time, seq)` order, and a key comparison
//!   is one branch-free 128-bit compare instead of a two-field walk.

use crate::time::Ps;

/// Arity of the heap. Four keeps sibling keys within a cache line and halves
/// tree depth versus a binary heap; pops dominate, so that trade wins.
const D: usize = 4;

/// A min-heap of timed events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Packed `(time, seq)` keys (see `key`), heap-ordered; dense so sifts
    /// stay in-cache.
    keys: Vec<u128>,
    /// Payloads, kept index-parallel with `keys`; never compared.
    payload: Vec<E>,
    seq: u64,
}

/// The packed heap key of an event at `at` with insertion number `seq`.
#[inline]
fn key(at: Ps, seq: u64) -> u128 {
    (at.0 as u128) << 64 | seq as u128
}

/// The time half of a packed key.
#[inline]
fn key_time(k: u128) -> Ps {
    Ps((k >> 64) as u64)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            payload: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: Ps, event: E) {
        self.keys.push(key(at, self.seq));
        self.seq += 1;
        self.payload.push(event);
        self.sift_up(self.keys.len() - 1);
    }

    /// Remove and return the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(Ps, E)> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        let k = self.keys.swap_remove(0);
        let ev = self.payload.swap_remove(0);
        if n > 2 {
            self.sift_down(0);
        }
        Some((key_time(k), ev))
    }

    /// Schedule `event` at `at` and remove the earliest event, in one sift.
    ///
    /// Returns exactly what `push` followed by `pop` would, and leaves the
    /// same events queued. Every key is unique (`seq` never repeats), so the
    /// pair returns the smaller of the new key and the root. When that is
    /// the new key the heap is untouched. Otherwise the new entry replaces
    /// the root and a single sift-down restores the heap.
    pub fn push_pop(&mut self, at: Ps, event: E) -> (Ps, E) {
        let k = key(at, self.seq);
        self.seq += 1;
        match self.keys.first() {
            Some(&root) if root < k => {
                self.keys[0] = k;
                let ev = std::mem::replace(&mut self.payload[0], event);
                self.sift_down(0);
                (key_time(root), ev)
            }
            _ => (at, event),
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Ps> {
        self.keys.first().map(|&k| key_time(k))
    }

    /// The earliest pending event, without removing it.
    pub fn peek(&self) -> Option<(Ps, &E)> {
        self.keys.first().map(|&k| (key_time(k), &self.payload[0]))
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn clear(&mut self) {
        self.keys.clear();
        self.payload.clear();
    }

    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        self.keys.swap(i, j);
        self.payload.swap(i, j);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.keys[i] >= self.keys[parent] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        loop {
            let first = D * i + 1;
            if first >= n {
                break;
            }
            let mut child = first;
            let mut child_key = self.keys[first];
            for c in first + 1..(first + D).min(n) {
                let k = self.keys[c];
                if k < child_key {
                    child = c;
                    child_key = k;
                }
            }
            if child_key >= self.keys[i] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Ps(30), "c");
        q.push(Ps(10), "a");
        q.push(Ps(20), "b");
        assert_eq!(q.pop(), Some((Ps(10), "a")));
        assert_eq!(q.pop(), Some((Ps(20), "b")));
        assert_eq!(q.pop(), Some((Ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Ps(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Ps(5), i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.peek().is_none());
        q.push(Ps(7), 'a');
        q.push(Ps(3), 'b');
        assert_eq!(q.peek_time(), Some(Ps(3)));
        assert_eq!(q.peek(), Some((Ps(3), &'b')));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Ps(10), 1);
        q.push(Ps(5), 0);
        assert_eq!(q.pop(), Some((Ps(5), 0)));
        q.push(Ps(7), 2);
        q.push(Ps(12), 3);
        assert_eq!(q.pop(), Some((Ps(7), 2)));
        assert_eq!(q.pop(), Some((Ps(10), 1)));
        assert_eq!(q.pop(), Some((Ps(12), 3)));
    }

    #[test]
    fn packed_keys_order_the_whole_time_range() {
        let mut q = EventQueue::new();
        q.push(Ps::MAX, 'c');
        q.push(Ps(u64::MAX - 1), 'b');
        q.push(Ps::MAX, 'd');
        q.push(Ps(0), 'a');
        let order: Vec<(Ps, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Ps(0), 'a'),
                (Ps(u64::MAX - 1), 'b'),
                (Ps::MAX, 'c'),
                (Ps::MAX, 'd')
            ]
        );
    }

    #[test]
    fn push_pop_returns_the_earlier_of_new_and_root() {
        let mut q = EventQueue::new();
        assert_eq!(q.push_pop(Ps(4), "x"), (Ps(4), "x"), "empty queue");
        q.push(Ps(10), "a");
        assert_eq!(q.push_pop(Ps(5), "b"), (Ps(5), "b"), "earlier than root");
        assert_eq!(q.push_pop(Ps(10), "c"), (Ps(10), "a"), "tie: root first");
        assert_eq!(q.pop(), Some((Ps(10), "c")));
        assert!(q.is_empty());
    }

    /// Property test: seeded interleaved push, pop and push_pop with
    /// *heavily duplicated* timestamps replay in exactly the order a stable
    /// sort by arrival would produce — the FIFO-at-equal-times contract the
    /// whole engine's determinism rests on.
    #[test]
    fn fifo_replay_matches_stable_model_under_duplicates() {
        // xorshift64* — deterministic, no external deps.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        for round in 0..50u64 {
            let mut q = EventQueue::new();
            // Model: FIFO list of (time, id); a pop takes the earliest time,
            // first-inserted entry — i.e. min by (time, insertion index),
            // which a stable min-scan over arrival order gives for free.
            let mut model: Vec<(Ps, u64)> = Vec::new();
            let mut next_id = 0u64;
            for _ in 0..400 {
                let op = rng() % 4;
                if op == 3 {
                    // push_pop: the model pushes, then takes its minimum.
                    let t = Ps(round + rng() % 4);
                    model.push((t, next_id));
                    let got = q.push_pop(t, next_id);
                    next_id += 1;
                    let min_t = model.iter().map(|e| e.0).min().unwrap();
                    let pos = model.iter().position(|e| e.0 == min_t).unwrap();
                    assert_eq!(got, model.remove(pos), "round {round} push_pop");
                } else if op != 0 || model.is_empty() {
                    // Only 4 distinct times: duplicates are the common case.
                    let t = Ps(round + rng() % 4);
                    q.push(t, next_id);
                    model.push((t, next_id));
                    next_id += 1;
                } else {
                    let min_t = model.iter().map(|e| e.0).min().unwrap();
                    let pos = model.iter().position(|e| e.0 == min_t).unwrap();
                    let expect = model.remove(pos);
                    assert_eq!(q.pop(), Some(expect), "round {round}");
                }
            }
            // Drain: remaining events come out in stable (time, arrival)
            // order.
            while let Some(got) = q.pop() {
                let min_t = model.iter().map(|e| e.0).min().unwrap();
                let pos = model.iter().position(|e| e.0 == min_t).unwrap();
                assert_eq!(got, model.remove(pos), "round {round} drain");
            }
            assert!(model.is_empty());
        }
    }
}
