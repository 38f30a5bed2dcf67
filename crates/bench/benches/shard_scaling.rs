//! Scaling of the sharded event loop: whole-world runs at 1/2/4/8 shards.
//!
//! Two regimes, both at 10 000 and 100 000 nodes with constant density
//! (100 m² per node, 50 m radio, traffic-free simple flooding so the
//! measured work is the event loop itself, not collision resolution):
//!
//! * `stationary/*` — timer-dominated: every same-timestamp batch is one
//!   protocol segment of quiet 1 Hz timer fires, fanned out to the shard
//!   workers and committed in FIFO order;
//! * `mobile/*` — mobility-dominated: every node moves continuously
//!   (pause 0) under a 500 ms tick, so each tick batch advances the whole
//!   population in parallel before the sequential grid/wake commit.
//!
//! `shards1` is the serial event loop (one shard skips the worker pool
//! entirely); the other counts exercise the full
//! mailbox fan-out. Reports stay bit-identical across all counts (pinned
//! by `tests/shard_equivalence.rs`), so the only thing that may move here
//! is time. On a multi-core host the per-batch work (10⁴–10⁵ node
//! advances or timer fires) dwarfs the two mailbox round trips per
//! segment and higher shard counts should win; on a single-core host the
//! same numbers measure pure coordination overhead instead — the workers
//! time-slice one CPU, so `shards{2,4,8}` can only show how cheap the
//! yield-based hand-off is, never a speedup. `BENCH_BASELINE.json`
//! records which regime captured the committed figures.

use criterion::{criterion_group, criterion_main, Criterion};
use frugal::FloodingPolicy;
use manet_sim::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioBuilder, WorldArena,
};
use mobility::Area;
use netsim::RadioConfig;
use simkit::{SimDuration, SimTime};

/// Side of a square holding `nodes` at 100 m² per node, so density (and
/// with it per-node grid/neighbor cost) stays constant across sizes.
fn side_for(nodes: usize) -> f64 {
    (nodes as f64 * 100.0).sqrt()
}

/// Timer-dominated population: stationary nodes whose only events are the
/// quiet 1 Hz flooding timers, all coalesced into whole-population batches.
fn stationary(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("shard-scaling-stationary")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::Stationary {
            area: Area::square(side_for(nodes)),
        })
        .radio(RadioConfig::ideal(50.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(11))
        .publications(vec![])
        .build()
        .expect("static scenario is valid")
}

/// Mobility-dominated population: every node walks continuously (pause 0),
/// so each 500 ms tick advances the entire population in one batch.
fn mobile(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("shard-scaling-mobile")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(side_for(nodes)),
            speed_min: 5.0,
            speed_max: 15.0,
            pause: SimDuration::ZERO,
        })
        .radio(RadioConfig::ideal(50.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(11))
        .publications(vec![])
        .mobility_tick(SimDuration::from_millis(500))
        .build()
        .expect("static scenario is valid")
}

/// Traffic-sparse population: no publication ever leases a frame, so the
/// whole run is the silent stretch the adaptive lookahead fuses. The
/// initial subscription stagger spreads every node's quiet 1 Hz flood
/// timer across distinct timestamps — the degenerate tiny-batch regime, one
/// fork/join round trip per *node* per second at a one-timestamp window —
/// which the widened window drains in fused blocks of up to 256 batches.
/// Long pauses under the default 500 ms tick keep the mobility segments
/// light, so `sparse_adaptive` tracks exactly the round-trip amortisation
/// (PR 9 measured it against the fixed window, since retired).
fn sparse(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("shard-scaling-sparse")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(side_for(nodes)),
            speed_min: 15.0,
            speed_max: 30.0,
            pause: SimDuration::from_secs(20),
        })
        .radio(RadioConfig::ideal(50.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(6))
        .publications(vec![])
        .build()
        .expect("static scenario is valid")
}

/// Clustered-density chain: nodes 5 m apart on a line with a 100 m radio,
/// flooded end to end from node 0. The wavefront concentrates reception
/// work in a narrow, moving stretch of the (contiguous) id space — the
/// worst case for static boundaries and the target of the EWMA cost
/// repartitioning.
fn clustered(nodes: usize) -> Scenario {
    ScenarioBuilder::new()
        .label("shard-scaling-clustered")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(nodes)
        .subscriber_fraction(1.0)
        .mobility(MobilityKind::StationaryLine {
            length: nodes as f64 * 5.0,
        })
        .radio(RadioConfig::ideal(100.0))
        .timing(SimDuration::from_secs(1), SimDuration::from_secs(11))
        .publications(vec![Publication {
            publisher: PublisherChoice::Node(0),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(2),
            validity: SimDuration::from_secs(8),
            payload_bytes: 400,
        }])
        .build()
        .expect("static scenario is valid")
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling");
    for (label, build) in [
        ("stationary", stationary as fn(usize) -> Scenario),
        ("mobile", mobile as fn(usize) -> Scenario),
    ] {
        for &nodes in &[10_000usize, 100_000] {
            let scenario = build(nodes);
            for &shards in &[1usize, 2, 4, 8] {
                // Every shard count recycles world setup through its own
                // arena, so the measured difference is the event loop alone.
                let mut arena = WorldArena::new();
                let mut seed = 0u64;
                group.bench_function(format!("{label}/{nodes}/shards{shards}"), |b| {
                    b.iter(|| {
                        seed += 1;
                        let world = arena.checkout(&scenario, seed).expect("valid scenario");
                        world.set_shards(shards);
                        world.run_mut().nodes.len()
                    });
                });
            }
        }
    }
    // The adaptive engine on its two targeted regimes: widened windows on
    // the traffic-sparse population, cost repartitioning on the clustered
    // chain (the flood keeps terminating the windows there).
    for (label, build, sizes) in [
        (
            "sparse_adaptive",
            sparse as fn(usize) -> Scenario,
            [10_000usize, 100_000],
        ),
        ("clustered", clustered, [2_000, 10_000]),
    ] {
        for nodes in sizes {
            let scenario = build(nodes);
            for &shards in &[2usize, 4] {
                let mut arena = WorldArena::new();
                let mut seed = 0u64;
                group.bench_function(format!("{label}/{nodes}/shards{shards}"), |b| {
                    b.iter(|| {
                        seed += 1;
                        let world = arena.checkout(&scenario, seed).expect("valid scenario");
                        world.set_shards(shards);
                        world.run_mut().nodes.len()
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
