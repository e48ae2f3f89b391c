//! Property-based tests on the simulation kernel's core invariants,
//! driven by the deterministic in-tree case generator (`common::cases`).

mod common;

use common::cases;

use intelliqos::simkern::{CircularQueue, EventQueue, SimDuration, SimTime};

/// Events always pop in (time, insertion-order) order regardless of
/// the schedule order.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    cases(64, |g| {
        let times = g.vec_u64(1..200, 10_000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_secs(), i));
        }
        assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            let (t1, i1) = pair[0];
            let (t2, i2) = pair[1];
            assert!(t1 < t2 || (t1 == t2 && i1 < i2), "order violated: {pair:?}");
        }
    });
}

/// Cancelling an arbitrary subset removes exactly that subset.
#[test]
fn event_queue_cancellation() {
    cases(64, |g| {
        let times = g.vec_u64(1..100, 1000);
        let cancel_mask = g.vec_bool(1..100);
        let mut q = EventQueue::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_secs(t), i))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, tok) in tokens.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                assert!(q.cancel(*tok));
                cancelled.insert(i);
            }
        }
        assert_eq!(q.len(), times.len() - cancelled.len());
        while let Some((_, i)) = q.pop() {
            assert!(!cancelled.contains(&i), "popped a cancelled event {i}");
        }
    });
}

/// Interleaving schedules, cancels (including double-cancels and bogus
/// tokens), and pops keeps `len()` exact and the pop order stable —
/// the O(1)-cancel tombstone bookkeeping must never drift.
#[test]
fn event_queue_len_is_exact_under_random_interleaving() {
    cases(64, |g| {
        let ops = g.usize_in(10, 400);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut live: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut tokens = Vec::new();
        let mut next_payload = 0u64;
        let mut last_pop: Option<(u64, u64)> = None;
        for _ in 0..ops {
            match g.usize_in(0, 10) {
                // Schedule (weighted heavily so the queue grows).
                0..=4 => {
                    let at = q.now() + SimDuration::from_secs(g.u64_in(0, 1000));
                    let tok = q.schedule(at, next_payload);
                    live.insert(next_payload, at.as_secs());
                    tokens.push((tok, next_payload));
                    next_payload += 1;
                }
                // Cancel a random token (possibly already dead).
                5..=6 => {
                    if !tokens.is_empty() {
                        let k = g.usize_in(0, tokens.len());
                        let (tok, payload) = tokens[k];
                        let was_live = live.remove(&payload).is_some();
                        assert_eq!(q.cancel(tok), was_live, "cancel({payload})");
                    }
                }
                // Double-cancel pressure: cancel the same token twice.
                7 => {
                    if !tokens.is_empty() {
                        let k = g.usize_in(0, tokens.len());
                        let (tok, payload) = tokens[k];
                        let was_live = live.remove(&payload).is_some();
                        assert_eq!(q.cancel(tok), was_live);
                        assert!(!q.cancel(tok), "double cancel must return false");
                    }
                }
                // Pop.
                _ => {
                    let expect = live
                        .iter()
                        .map(|(&p, &t)| (t, p))
                        .min_by_key(|&(t, p)| (t, p));
                    match q.pop() {
                        Some((t, p)) => {
                            // FIFO at equal instants ⇒ the live event with
                            // the smallest (time, insertion-order) pops.
                            let (et, ep) = expect.expect("queue said Some, model says None");
                            assert_eq!((t.as_secs(), p), (et, ep));
                            live.remove(&p);
                            last_pop = Some((t.as_secs(), p));
                        }
                        None => assert!(expect.is_none(), "queue empty but model has {expect:?}"),
                    }
                }
            }
            assert_eq!(q.len(), live.len(), "len drifted after op");
            assert_eq!(q.is_empty(), live.is_empty());
        }
        let _ = last_pop;
    });
}

/// A circular queue retains exactly the last `cap` pushes, in order.
#[test]
fn circular_queue_retains_suffix() {
    cases(64, |g| {
        let cap = g.usize_in(1, 50);
        let items: Vec<u32> = (0..g.usize_in(0, 200))
            .map(|_| g.u32_in(0, u32::MAX))
            .collect();
        let mut q = CircularQueue::new(cap);
        for &x in &items {
            q.push(x);
        }
        let expected: Vec<u32> = items
            .iter()
            .copied()
            .skip(items.len().saturating_sub(cap))
            .collect();
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), expected);
        assert_eq!(q.evicted_count() as usize, items.len().saturating_sub(cap));
    });
}

/// Calendar arithmetic: day-of-week advances by one per day, hours
/// wrap at 24.
#[test]
fn calendar_invariants() {
    cases(256, |g| {
        let day = g.u64_in(0, 3650);
        let hour = g.u64_in(0, 24);
        let t = SimTime::from_days(day) + SimDuration::from_hours(hour);
        assert_eq!(t.day_index(), day);
        assert_eq!(t.hour_of_day() as u64, hour);
        assert_eq!(t.day_of_week() as u64, day % 7);
        let next = t + SimDuration::from_days(1);
        assert_eq!(next.day_of_week() as u64, (day + 1) % 7);
        // Business hours implies weekday.
        if t.is_business_hours() {
            assert!(!t.is_weekend());
            assert!((8..20).contains(&t.hour_of_day()));
        }
    });
}
