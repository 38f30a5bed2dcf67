//! Equivalence suite for the engine: every shard count against one oracle.
//!
//! The world has two event loops — the serial one (`set_shards(1)`, the
//! default) and the sharded engine, which splits the node population into
//! contiguous [`simkit::BoundaryPartition`] ranges and steps each
//! same-timestamp batch (the degenerate conservative time window of this
//! model: the shortest frame is on the air for one clock millisecond) with
//! the pure per-node work fanned out to worker threads,
//! while every random draw and every scheduler mutation stays in the
//! sequential dispatch order. None of that may change a single bit of any
//! run: these properties pin whole `RunReport`s bit-identical between the
//! default engine at 1 to 8 shards and the **one reference oracle** — the
//! naive, single-threaded advance-everyone world behind the doc-hidden
//! `World::set_naive_mobility` — on random scenarios: all four protocol
//! variants, all mobility models, fresh and arena-recycled worlds, and the
//! sharded seed-sweep runner.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    run_scenario_reports, run_scenario_reports_sharded, MobilityKind, ProtocolKind, Publication,
    PublisherChoice, RunReport, Scenario, ScenarioBuilder, SeedPlan, World, WorldArena,
};
use mobility::Area;
use netsim::RadioConfig;
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};

/// Builds a random small scenario from proptest-drawn parameters.
fn random_scenario(
    mobility: MobilityKind,
    protocol: ProtocolKind,
    nodes: usize,
    tick_ms: u64,
    range_m: f64,
) -> Scenario {
    ScenarioBuilder::new()
        .label("shard-equivalence")
        .protocol(protocol)
        .nodes(nodes)
        .subscriber_fraction(0.8)
        .mobility(mobility)
        .radio(RadioConfig::ideal(range_m))
        .timing(SimDuration::from_secs(3), SimDuration::from_secs(25))
        .publications(vec![Publication {
            publisher: PublisherChoice::RandomSubscriber,
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(4),
            validity: SimDuration::from_secs(20),
            payload_bytes: 400,
        }])
        .mobility_tick(SimDuration::from_millis(tick_ms))
        .build()
        .unwrap()
}

/// The reference oracle's report: the naive advance-everyone world, which is
/// single-threaded whatever its shard count.
fn oracle(scenario: &Scenario, seed: u64) -> RunReport {
    let mut world = World::new(scenario.clone(), seed).unwrap();
    world.set_naive_mobility(true);
    world.run()
}

/// Runs `scenario` on the default engine at `shards` shards, asserting a
/// report bit-identical to the oracle's.
fn assert_engine_matches_oracle(scenario: Scenario, seed: u64, shards: usize) {
    let reference = oracle(&scenario, seed);
    let mut world = World::new(scenario, seed).unwrap();
    world.set_shards(shards);
    assert_eq!(
        world.run(),
        reference,
        "the {shards}-shard engine diverged from the naive oracle for seed {seed}"
    );
}

/// The four protocol variants, by proptest-drawn pick.
fn protocol(pick: u8) -> ProtocolKind {
    match pick {
        0 => ProtocolKind::Frugal(ProtocolConfig::paper_default()),
        1 => ProtocolKind::Flooding(FloodingPolicy::Simple),
        2 => ProtocolKind::Flooding(FloodingPolicy::InterestAware),
        _ => ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The oracle test: the default engine at 1, 2 and 4 shards — the serial
    /// loop and the sharded engine — reproduces the naive oracle's whole
    /// `RunReport` on random scenarios across all four protocol variants and
    /// the random-waypoint, city-section and stationary models, on a fresh
    /// world and again on the same world recycled for the next seed.
    #[test]
    fn default_engine_matches_naive_oracle(
        seed in 0u64..1_000_000,
        nodes in 4usize..16,
        tick_ms in 200u64..1_000,
        pause_s in 0u64..20,
        protocol_pick in 0u8..4,
        mobility_pick in 0u8..3,
    ) {
        let (mobility, range_m) = match mobility_pick {
            0 => (
                MobilityKind::RandomWaypoint {
                    area: Area::square(400.0),
                    speed_min: 2.0,
                    speed_max: 25.0,
                    pause: SimDuration::from_secs(pause_s),
                },
                180.0,
            ),
            1 => (MobilityKind::CityCampus, 60.0),
            _ => (MobilityKind::Stationary { area: Area::square(700.0) }, 200.0),
        };
        let scenario = random_scenario(mobility, protocol(protocol_pick), nodes, tick_ms, range_m);
        let references = [oracle(&scenario, seed), oracle(&scenario, seed + 1)];
        for shards in [1usize, 2, 4] {
            let mut arena = WorldArena::new();
            for (seed, reference) in (seed..).zip(&references) {
                let world = arena.checkout(&scenario, seed).unwrap();
                world.set_shards(shards);
                prop_assert_eq!(
                    &world.run_mut(),
                    reference,
                    "the {}-shard engine diverged from the naive oracle for seed {}",
                    shards,
                    seed
                );
            }
        }
    }

    /// Whole-world equivalence under the random-waypoint model: random
    /// populations, shard counts (including counts above the population, so
    /// the clamp is exercised), tick sizes, pause lengths and all four
    /// protocol variants. Mobility keeps the active/wake merge and the
    /// cross-shard move commit hot.
    #[test]
    fn sharded_reports_identical_random_waypoint(
        seed in 0u64..1_000_000,
        nodes in 4usize..16,
        shards in 2usize..9,
        tick_ms in 200u64..1_000,
        pause_s in 0u64..20,
        protocol_pick in 0u8..4,
    ) {
        let mobility = MobilityKind::RandomWaypoint {
            area: Area::square(400.0),
            speed_min: 2.0,
            speed_max: 25.0,
            pause: SimDuration::from_secs(pause_s),
        };
        let scenario = random_scenario(mobility, protocol(protocol_pick), nodes, tick_ms, 180.0);
        assert_engine_matches_oracle(scenario, seed, shards);
    }

    /// Same property under the city-section model, whose tighter clusters
    /// produce more collisions — classification, fringe draws and the
    /// ascending cross-shard delivery merge all stay hot.
    #[test]
    fn sharded_reports_identical_city_section(
        seed in 0u64..1_000_000,
        nodes in 4usize..16,
        shards in 2usize..9,
        tick_ms in 200u64..1_000,
    ) {
        let scenario = random_scenario(
            MobilityKind::CityCampus,
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            nodes,
            tick_ms,
            60.0,
        );
        assert_engine_matches_oracle(scenario, seed, shards);
    }

    /// Timer-heavy stationary populations: the run is pure protocol-timer
    /// segments and their broadcasts — the batch segmentation and per-node
    /// timer-slot overlay are what decide every fire/skip.
    #[test]
    fn sharded_reports_identical_stationary(
        seed in 0u64..1_000_000,
        nodes in 8usize..24,
        shards in 2usize..9,
        frugal in any::<bool>(),
    ) {
        let protocol = if frugal {
            ProtocolKind::Frugal(ProtocolConfig::paper_default())
        } else {
            ProtocolKind::Flooding(FloodingPolicy::Simple)
        };
        let scenario = random_scenario(
            MobilityKind::Stationary {
                area: Area::square(700.0),
            },
            protocol,
            nodes,
            500,
            200.0,
        );
        assert_engine_matches_oracle(scenario, seed, shards);
    }

    /// Arena-recycled sharded worlds must match fresh oracle worlds: the
    /// shard knob survives `World::reset` and recycling may never leak state
    /// across seeds.
    #[test]
    fn arena_recycled_sharded_worlds_match_fresh_reference(
        seed in 0u64..1_000_000,
        nodes in 4usize..12,
        shards in 2usize..5,
    ) {
        let scenario = random_scenario(
            MobilityKind::RandomWaypoint {
                area: Area::square(400.0),
                speed_min: 2.0,
                speed_max: 20.0,
                pause: SimDuration::from_secs(2),
            },
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            nodes,
            400,
            180.0,
        );
        let mut arena = WorldArena::new();
        for offset in 0..3u64 {
            let seed = seed + offset;
            let world = arena.checkout(&scenario, seed).unwrap();
            world.set_shards(shards);
            let sharded = world.run_mut();
            prop_assert_eq!(
                &sharded,
                &oracle(&scenario, seed),
                "recycled {}-shard world diverged for seed {}",
                shards,
                seed
            );
        }
    }
}

/// A population dense enough that one completed frame reaches hundreds of
/// receivers under overlapping traffic, so the engine's receptions — and the
/// delivery fan-out that follows them — are pinned bit-identical through the
/// collision and half-duplex paths, not only through clean receptions.
#[test]
fn dense_reception_matches_single_thread() {
    let scenario = ScenarioBuilder::new()
        .label("shard-dense-reception")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(300)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::Stationary {
            area: Area::square(400.0),
        })
        .radio(RadioConfig::ideal(300.0))
        .timing(SimDuration::from_secs(2), SimDuration::from_secs(10))
        .publications(vec![Publication {
            publisher: PublisherChoice::RandomSubscriber,
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(3),
            validity: SimDuration::from_secs(6),
            payload_bytes: 400,
        }])
        .build()
        .unwrap();
    for shards in [2usize, 4] {
        assert_engine_matches_oracle(scenario.clone(), 1, shards);
    }
    // Make sure the storm still loses frames to interferers and half
    // duplex, or the runs above pin only clean receptions.
    let serial = World::new(scenario, 1).unwrap().run();
    let collided: u64 = serial
        .nodes
        .iter()
        .map(|node| node.traffic.frames_lost_collision)
        .sum();
    assert!(
        collided > 0,
        "no frame was lost to an interferer or to half duplex"
    );
}

/// The sharded seed-sweep runner must reproduce the default runner's reports
/// exactly, for any worker × shard split.
#[test]
fn sharded_runner_matches_default_runner() {
    let scenario = random_scenario(
        MobilityKind::RandomWaypoint {
            area: Area::square(400.0),
            speed_min: 2.0,
            speed_max: 20.0,
            pause: SimDuration::from_secs(1),
        },
        ProtocolKind::Frugal(ProtocolConfig::paper_default()),
        10,
        400,
        180.0,
    );
    let plan = SeedPlan::new(1, 4);
    let reference = run_scenario_reports(&scenario, plan).unwrap();
    for (workers, shards) in [(1usize, 2usize), (2, 2), (1, 4)] {
        let sharded = run_scenario_reports_sharded(&scenario, plan, workers, shards).unwrap();
        assert_eq!(
            sharded, reference,
            "sharded runner ({workers} workers × {shards} shards) diverged"
        );
    }
}
