//! Scaling of the event scheduler itself.
//!
//! `event_scaling/wheel/*` builds timer-active populations of
//! 1000/4000/10000 nodes — stationary, out of radio range of each other,
//! running the simple-flooding protocol whose 1 Hz flood tick re-arms
//! unconditionally — and measures a full 60 s world run. After the first
//! mobility tick nothing moves and nothing is ever received, so the run is
//! almost purely scheduler work: one timer event per node per simulated
//! second (600k pops at 10k nodes), each of which cancels nothing and
//! re-arms one timer.
//!
//! `event_queue_churn/*` is the same workload at the queue level, the
//! hierarchical timer wheel against the binary-heap model it is
//! property-tested against: the heap pays O(log n) sift work per pop and per
//! push; the wheel schedules and cancels in O(1), drains same-timestamp
//! batches from one staged slot, and keeps its handles in a recycled slab.
//! The wheel must win and the gap must widen with the population (see
//! `BENCH_BASELINE.json` for captured numbers; PR 5 measured the in-world
//! heap before it was retired).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use frugal::FloodingPolicy;
use manet_sim::{MobilityKind, ProtocolKind, Scenario, ScenarioBuilder, WorldArena};
use mobility::Area;
use netsim::RadioConfig;
use simkit::{EventQueue, SimDuration, SimTime, TimerWheel};

/// A scheduler-dominated scenario: every node beats its 1 s flood tick for
/// the whole run, nobody hears anybody (10 m radio range scattered over a
/// 100 km square), nobody moves, and the 1 s mobility tick is a no-op after
/// the first — the regime where the event queue itself is the floor.
fn timer_active(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("event-scaling")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::Stationary {
            area: Area::square(100_000.0),
        })
        .radio(RadioConfig::ideal(10.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(60))
        .publications(vec![])
        .mobility_tick(SimDuration::from_secs(1))
        .build()
        .expect("static scenario is valid")
}

fn bench_event_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_scaling");
    for &nodes in &[1000usize, 4000, 10000] {
        let scenario = timer_active(nodes);
        // World setup is recycled through an arena, so what is measured is
        // the event loop alone.
        let mut arena = WorldArena::new();
        let mut seed = 0u64;
        group.bench_function(format!("wheel/{nodes}"), |b| {
            b.iter(|| {
                seed += 1;
                let world = arena.checkout(&scenario, seed).expect("valid scenario");
                world.run_mut().nodes.len()
            });
        });
    }
    group.finish();
}

/// The same workload at the queue level, with the protocol stripped away:
/// `nodes` periodic timers ~1 s apart, each pop immediately re-arming its
/// timer one period later — the steady state of a timer-driven simulation.
/// This isolates the scheduler cost that the whole-run groups above dilute
/// with per-event protocol work (callback allocation, RNG, node state).
fn bench_queue_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_churn");
    for &nodes in &[1000usize, 4000, 10000] {
        // Stagger the initial deadlines over one period, like the world does.
        let stagger = |i: usize| SimTime::from_millis((i * 997 / nodes + 1) as u64);
        group.bench_function(format!("wheel/{nodes}"), |b| {
            let mut wheel = TimerWheel::new();
            let mut batch = Vec::new();
            b.iter(|| {
                wheel.clear();
                for i in 0..nodes {
                    wheel.schedule(stagger(i), i);
                }
                let mut fired = 0usize;
                while fired < nodes * 10 {
                    let at = wheel.peek_time().expect("timers never drain");
                    wheel.pop_due_batch(at, &mut batch);
                    for (_, node) in batch.drain(..) {
                        fired += 1;
                        wheel.schedule(at + SimDuration::from_secs(1), node);
                    }
                }
                black_box(fired)
            });
        });
        group.bench_function(format!("heap/{nodes}"), |b| {
            let mut heap = EventQueue::new();
            b.iter(|| {
                heap.clear();
                for i in 0..nodes {
                    heap.schedule(stagger(i), i);
                }
                let mut fired = 0usize;
                while fired < nodes * 10 {
                    let (at, node) = heap.pop().expect("timers never drain");
                    fired += 1;
                    heap.schedule(at + SimDuration::from_secs(1), node);
                }
                black_box(fired)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_scaling, bench_queue_churn);
criterion_main!(benches);
