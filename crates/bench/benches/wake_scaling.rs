//! Scaling of the per-tick wake resolution of the event-driven wake queue.
//!
//! Builds mostly-paused random-waypoint populations of 1000/4000/10000 nodes
//! (legs of a few seconds, pauses longer than the run, so after its first
//! waypoint every node sleeps for the rest of the 60 s) and measures a full
//! world run of a traffic-free scenario over 6000 fine-grained 10 ms ticks —
//! the position-accuracy regime where per-tick cost is the floor. The
//! event-driven path advances only the moving/waking nodes (dense active
//! list + indexed wake queue), so a tick over a sleeping population costs
//! O(1) and the figures should stay nearly flat in the population (see
//! `BENCH_BASELINE.json` for captured numbers; PR 4 measured it against the
//! scan-every-node dirty tick it replaced, since retired). Reports stay
//! bit-identical to the naive oracle (pinned by
//! `tests/mobility_equivalence.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use frugal::FloodingPolicy;
use manet_sim::{MobilityKind, ProtocolKind, Scenario, ScenarioBuilder, WorldArena};
use mobility::Area;
use netsim::RadioConfig;
use simkit::SimDuration;

/// A wake-dominated scenario: no publications, simple flooding (one quiet
/// 1 Hz timer per node, no heartbeats), a fine 10 ms mobility tick, short
/// first legs (100 m area at 20–30 m/s) and pauses far longer than the run,
/// so almost every tick finds almost every node asleep — the regime where
/// wake resolution itself is the floor.
fn mostly_sleeping(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("wake-scaling")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(100.0),
            speed_min: 20.0,
            speed_max: 30.0,
            pause: SimDuration::from_secs(300),
        })
        .radio(RadioConfig::ideal(100.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(60))
        .publications(vec![])
        .mobility_tick(SimDuration::from_millis(10))
        .build()
        .expect("static scenario is valid")
}

fn bench_wake_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("wake_scaling");
    for &nodes in &[1000usize, 4000, 10000] {
        let scenario = mostly_sleeping(nodes);
        // World setup is recycled through an arena, so what is measured is
        // the per-tick wake resolution cost alone.
        let mut arena = WorldArena::new();
        let mut seed = 0u64;
        group.bench_function(format!("event/{nodes}"), |b| {
            b.iter(|| {
                seed += 1;
                let world = arena.checkout(&scenario, seed).expect("valid scenario");
                world.run_mut().nodes.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wake_scaling);
criterion_main!(benches);
