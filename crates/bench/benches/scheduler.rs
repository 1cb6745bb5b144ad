//! Microbenchmarks of the two hot dispatch structures introduced by the
//! scheduler rework: the simnet timer wheel (`event_queue_push_pop`) and
//! the switch's per-channel dispatch cache (`switch_dispatch`).
//!
//! CI runs this bench in smoke mode (no `--bench` argument) so both paths
//! stay compiled and exercised; the numbers are informational and gate
//! nothing.

use ask::prelude::*;
use ask_bench::runners::FrameFeed;
use ask_simnet::bench_api::BenchEventQueue;
use ask_wire::packet::TaskId;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

/// Steady-state push+pop through the timer wheel with the simulator's
/// event-time mix: ~95% of events land within a few microseconds of *now*
/// (link serialization + propagation) and ~5% sit at the retransmission
/// horizon or beyond, past the wheel window, so the overflow-heap path and
/// window migration are part of what is measured.
fn bench_event_queue_push_pop(c: &mut Criterion) {
    let mut q = BenchEventQueue::new();
    let mut now = 0u64;
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Warm the queue to a realistic backlog so pops scan occupied buckets,
    // not an empty wheel.
    let push = |q: &mut BenchEventQueue, now: u64, r: u64| {
        let delta = if r % 100 < 95 {
            r % 3_000 // near-future: link serialization + propagation
        } else {
            2_000_000 + r % 500_000 // far-future: beyond the wheel window
        };
        q.push_timer(now + delta, r);
    };
    for _ in 0..512 {
        let r = rand();
        push(&mut q, now, r);
    }
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(1));
    group.bench_function("event_queue_push_pop", |b| {
        b.iter(|| {
            let r = rand();
            push(&mut q, now, r);
            let (at, seq) = q.pop().expect("backlog stays at 512");
            now = at;
            seq
        });
    });
    group.finish();
}

/// One full data-packet pass through the switch with a warm dispatch
/// cache: a single registered task on a single channel, so after the first
/// packet every lookup hits the cached line (generation check + direct
/// index) instead of the two-map slow path.
fn bench_switch_dispatch(c: &mut Criterion) {
    let cfg = AskConfig::paper_default();
    let mut feed = FrameFeed::new(cfg.layout, 24_000);
    let mut engine = AggregatorEngine::new(cfg);
    engine.register_task(TaskId(1), 0).expect("region");
    engine.process_data_view(&feed.next_frame()); // installs the line
    let mut group = c.benchmark_group("switch_dispatch");
    group.throughput(Throughput::Elements(1));
    group.bench_function("switch_dispatch", |b| {
        b.iter_batched(
            || feed.next_frame(),
            |v| engine.process_data_view(&v),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_event_queue_push_pop, bench_switch_dispatch);
criterion_main!(benches);
