//! Criterion micro-benchmarks for the simulation kernel: these bound
//! the cost of the primitives every simulated year leans on.

use intelliqos_bench::{black_box, criterion_group, criterion_main, Criterion};

use intelliqos_simkern::{CircularQueue, EventQueue, SimRng, SimTime, Subsystem, Trace};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_secs((i * 7919) % 86_400 + 86_400), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    c.bench_function("event_queue/cancel_heavy", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let tokens: Vec<_> = (0..1000u64)
                .map(|i| q.schedule(SimTime::from_secs(i + 1), i))
                .collect();
            for t in tokens.iter().step_by(2) {
                q.cancel(*t);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    // Cancelling 99% of 100k events: with the old retain()-per-cancel
    // this was O(n) each (quadratic overall); the live-set design makes
    // each cancel O(1) with an amortised lazy purge.
    c.bench_function("event_queue/mass_cancel_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let tokens: Vec<_> = (0..100_000u64)
                .map(|i| q.schedule(SimTime::from_secs(i + 1), i))
                .collect();
            for t in &tokens[..99_000] {
                q.cancel(*t);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_trace(c: &mut Criterion) {
    // The whole point of the disabled path: a run with tracing off must
    // pay only a branch per emit — the detail closure never runs.
    c.bench_function("trace/emit_disabled_100k", |b| {
        let mut trace = Trace::disabled();
        b.iter(|| {
            for i in 0..100_000u64 {
                trace.emit(SimTime::from_secs(i), Subsystem::Kernel, "tick", || {
                    format!("expensive detail {i}")
                });
            }
            black_box(trace.total())
        })
    });
    c.bench_function("trace/emit_enabled_100k", |b| {
        b.iter(|| {
            let mut trace = Trace::enabled();
            for i in 0..100_000u64 {
                trace.emit(SimTime::from_secs(i), Subsystem::Kernel, "tick", || {
                    format!("detail {i}")
                });
            }
            black_box(trace.total())
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/exponential_1k", |b| {
        let mut rng = SimRng::stream(1, "bench");
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.exponential(300.0);
            }
            black_box(acc)
        })
    });
    c.bench_function("rng/lognormal_1k", |b| {
        let mut rng = SimRng::stream(1, "bench");
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.lognormal_median(7200.0, 0.5);
            }
            black_box(acc)
        })
    });
}

fn bench_collections(c: &mut Criterion) {
    c.bench_function("circular_queue/push_wrap_10k", |b| {
        b.iter(|| {
            let mut q = CircularQueue::new(512);
            for i in 0..10_000u32 {
                q.push(i);
            }
            black_box(q.len())
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_trace,
    bench_rng,
    bench_collections
);
criterion_main!(benches);
