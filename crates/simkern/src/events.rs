//! Deterministic discrete-event queue.
//!
//! The queue is generic over the event payload `E`. Events scheduled for
//! the same instant pop in FIFO scheduling order (a monotone sequence
//! number breaks ties), so a run is a pure function of the schedule calls
//! — there is no iteration-order nondeterminism anywhere in the kernel.
//!
//! Cancellation is supported through [`EventToken`]s: cancelling is
//! O(1) — the sequence number's bit is cleared in the live set and the
//! heap entry becomes a tombstone, silently skipped on pop and
//! bulk-purged once tombstones outnumber live entries. This is how the
//! cluster model retracts, e.g., a pending "job completes" event when
//! the database hosting the job crashes first. Sequence numbers are
//! dense and monotone, so the live set is a bitset indexed by them, one
//! bit per event ever scheduled.

use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Handle identifying one scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest
        // sequence number) pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
///
/// ```
/// use intelliqos_simkern::{EventQueue, SimTime, SimDuration};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "b");
/// q.schedule(SimTime::from_secs(5), "a");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.as_secs(), e), (5, "a"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of events still pending (scheduled, not yet
    /// popped or cancelled). Heap entries whose seq is absent are
    /// tombstones awaiting the lazy purge.
    live: LiveSet,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue with the clock at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: LiveSet::default(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation clock: the timestamp of the last popped event
    /// (or the epoch before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (uncancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — that would silently
    /// reorder causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.heap.push(Entry { at, seq, payload });
        EventToken(seq)
    }

    /// Schedule `payload` after a relative delay from the current clock.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventToken {
        self.schedule(self.now + delay, payload)
    }

    /// Cancel a previously scheduled event: O(1), plus the amortised
    /// O(1) share of a tombstone purge. Returns `false` if
    /// the event already fired, was already cancelled, or never existed.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if !self.live.remove(token.0) {
            return false;
        }
        self.maybe_purge();
        true
    }

    /// Rebuild the heap without tombstones once they outnumber the live
    /// entries — amortised O(1) per cancel, and the heap never holds more
    /// than 2× the live events.
    fn maybe_purge(&mut self) {
        if self.heap.len() < 64 || self.heap.len() - self.live.len() <= self.heap.len() / 2 {
            return;
        }
        let entries = std::mem::take(&mut self.heap).into_vec();
        let live = &self.live;
        self.heap = entries
            .into_iter()
            .filter(|e| live.contains(e.seq))
            .collect();
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_dead();
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_dead();
        let entry = self.heap.pop()?;
        self.live.remove(entry.seq);
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        Some((entry.at, entry.payload))
    }

    /// Pop the next event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Drop tombstoned entries sitting at the top of the heap.
    fn skip_dead(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.live.contains(top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Advance the clock without popping (used to close out a run at a
    /// horizon even if events remain).
    ///
    /// # Panics
    /// Panics if `to` is before the current clock.
    pub fn advance_clock(&mut self, to: SimTime) {
        assert!(to >= self.now, "clock cannot move backwards");
        self.now = to;
    }
}

/// The set of pending sequence numbers: one bit per sequence number
/// ever issued, plus the count of set bits.
#[derive(Default)]
struct LiveSet {
    words: Vec<u64>,
    len: usize,
}

impl LiveSet {
    fn len(&self) -> usize {
        self.len
    }

    fn contains(&self, seq: u64) -> bool {
        self.words
            .get((seq / 64) as usize)
            .is_some_and(|w| w & (1 << (seq % 64)) != 0)
    }

    /// Add `seq`, which is not in the set (sequence numbers are issued
    /// once).
    fn insert(&mut self, seq: u64) {
        let word = (seq / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (seq % 64);
        self.len += 1;
    }

    /// Clear `seq`; false if it was not set.
    fn remove(&mut self, seq: u64) -> bool {
        let bit = 1 << (seq % 64);
        match self.words.get_mut((seq / 64) as usize) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_and_cancel_after_fire_return_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        let b = q.schedule(SimTime::from_secs(2), "b");
        q.pop();
        assert!(!q.cancel(b));
        // A token that never existed.
        assert!(!q.cancel(EventToken(999)));
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), "first");
        q.pop();
        q.schedule_after(SimDuration::from_secs(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(105));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "in");
        q.schedule(SimTime::from_secs(50), "out");
        assert_eq!(q.pop_until(SimTime::from_secs(20)).unwrap().1, "in");
        assert!(q.pop_until(SimTime::from_secs(20)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn mass_cancellation_purges_tombstones() {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = (0..1024u64)
            .map(|i| q.schedule(SimTime::from_secs(i), i))
            .collect();
        for tok in &tokens[..1000] {
            assert!(q.cancel(*tok));
            // Purge invariant: tombstones never exceed half the heap
            // (checked only above the small-heap purge threshold).
            if q.heap.len() >= 64 {
                assert!(q.heap.len() - q.live.len() <= q.heap.len() / 2);
            }
        }
        assert_eq!(q.len(), 24);
        assert!(q.heap.len() <= 2 * q.len().max(64));
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (1000..1024).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }
}
