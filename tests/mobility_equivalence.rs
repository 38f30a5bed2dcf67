//! Equivalence suite for the dirty-tick mobility advance.
//!
//! The dirty-tick path (PR 3) skips nodes that are paused, parked or
//! stationary and catches them up in one chunked `advance` when their pause
//! can end; the event-driven wake queue (PR 4) goes further and pops exactly
//! the due nodes from an indexed min-queue instead of scanning everyone, and
//! world arenas reset per-node protocol/mobility state in place instead of
//! rebuilding it. These properties pin the refactors' contract: positions,
//! the per-node mobility RNG streams, and whole `RunReport`s must be
//! **bit-identical** between the event-driven tick and the naive
//! advance-everyone oracle (`World::set_naive_mobility`), and across fresh vs
//! arena-recycled worlds, on random scenarios, for both of the paper's
//! mobility models.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    MobilityKind, ProtocolKind, Publication, PublisherChoice, Scenario, ScenarioBuilder, World,
    WorldArena,
};
use mobility::{
    Area, CitySection, CitySectionConfig, MobilityModel, RandomWaypoint, RandomWaypointConfig,
};
use netsim::RadioConfig;
use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};

/// Advances `node` tick-by-tick (the naive reference) while `dirty` replays
/// the world's skip logic: while the node is idle, accumulate skipped time
/// until the wake deadline passes, then catch up with one chunk followed by
/// the final tick. Both nodes and both RNG streams must stay in lockstep.
fn check_model_equivalence<M: MobilityModel + Clone>(
    naive: &mut M,
    naive_rng: &mut SimRng,
    dirty: &mut M,
    dirty_rng: &mut SimRng,
    tick: SimDuration,
    ticks: usize,
) {
    let mut now = SimTime::ZERO;
    let mut last_advance = SimTime::ZERO;
    let mut wake = SimTime::ZERO;
    for step in 0..ticks {
        now += tick;
        naive.advance(tick, naive_rng);
        if wake <= now {
            let skipped = now - last_advance;
            if skipped > tick {
                dirty.advance(skipped - tick, dirty_rng);
            }
            dirty.advance(tick, dirty_rng);
            last_advance = now;
            wake = if dirty.speed() > 0.0 {
                now
            } else {
                now.saturating_add(dirty.time_to_transition())
            };
            assert_eq!(
                naive.position(),
                dirty.position(),
                "positions diverged at tick {step}"
            );
            assert_eq!(
                naive.speed(),
                dirty.speed(),
                "speeds diverged at tick {step}"
            );
        } else {
            // Skipped: the naive node must not have moved either.
            assert_eq!(
                naive.position(),
                dirty.position(),
                "naive node moved during a skipped tick {step}"
            );
            assert_eq!(
                naive.speed(),
                0.0,
                "skipped node must be idle at tick {step}"
            );
        }
    }
    // The RNG streams must still be in lockstep after the whole walk.
    assert_eq!(
        naive_rng.uniform_u64(0, u64::MAX),
        dirty_rng.uniform_u64(0, u64::MAX),
        "mobility RNG streams diverged"
    );
}

proptest! {
    /// Dirty-tick advance of a random-waypoint node is bit-identical to the
    /// naive per-tick advance: same positions, same speeds, same RNG stream —
    /// across random seeds, tick sizes, speed ranges and pause lengths
    /// (including pauses shorter than, equal to, and far longer than a tick).
    #[test]
    fn random_waypoint_dirty_tick_equivalence(
        seed in any::<u64>(),
        tick_ms in 100u64..2_000,
        speed_max in 1.0f64..40.0,
        pause_ms in 0u64..30_000,
    ) {
        let config = RandomWaypointConfig::new(
            Area::square(400.0),
            0.5,
            speed_max,
            SimDuration::from_millis(pause_ms),
        );
        let mut init_rng = SimRng::seed_from(seed);
        let naive = RandomWaypoint::new(config, &mut init_rng);
        let mut dirty = naive.clone();
        let mut naive = naive;
        let mut naive_rng = init_rng.clone();
        let mut dirty_rng = init_rng;
        check_model_equivalence(
            &mut naive,
            &mut naive_rng,
            &mut dirty,
            &mut dirty_rng,
            SimDuration::from_millis(tick_ms),
            300,
        );
    }

    /// Same property for the city-section model: intersection pauses are
    /// skipped and caught up without perturbing positions or the RNG stream.
    #[test]
    fn city_section_dirty_tick_equivalence(
        seed in any::<u64>(),
        tick_ms in 100u64..2_000,
    ) {
        let config = CitySectionConfig::paper_campus();
        let mut init_rng = SimRng::seed_from(seed);
        let naive = CitySection::new(config, &mut init_rng);
        let mut dirty = naive.clone();
        let mut naive = naive;
        let mut naive_rng = init_rng.clone();
        let mut dirty_rng = init_rng;
        check_model_equivalence(
            &mut naive,
            &mut naive_rng,
            &mut dirty,
            &mut dirty_rng,
            SimDuration::from_millis(tick_ms),
            300,
        );
    }
}

/// Builds a random small scenario from proptest-drawn parameters.
fn random_scenario(
    mobility: MobilityKind,
    protocol: ProtocolKind,
    nodes: usize,
    tick_ms: u64,
    range_m: f64,
) -> Scenario {
    ScenarioBuilder::new()
        .label("equivalence")
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole-world equivalence: the dirty-tick world and the naive world
    /// produce bit-identical `RunReport`s on random scenarios — random
    /// populations, tick sizes, radio ranges, pause lengths, and both
    /// protocols — under the random-waypoint model.
    #[test]
    fn world_reports_identical_random_waypoint(
        seed in 0u64..1_000_000,
        nodes in 4usize..16,
        tick_ms in 200u64..1_000,
        pause_s in 0u64..20,
        frugal in any::<bool>(),
    ) {
        let mobility = MobilityKind::RandomWaypoint {
            area: Area::square(400.0),
            speed_min: 2.0,
            speed_max: 25.0,
            pause: SimDuration::from_secs(pause_s),
        };
        let protocol = if frugal {
            ProtocolKind::Frugal(ProtocolConfig::paper_default())
        } else {
            ProtocolKind::Flooding(FloodingPolicy::Simple)
        };
        let scenario = random_scenario(mobility, protocol, nodes, tick_ms, 180.0);
        let dirty = World::new(scenario.clone(), seed).unwrap().run();
        let mut naive_world = World::new(scenario, seed).unwrap();
        naive_world.set_naive_mobility(true);
        prop_assert_eq!(dirty, naive_world.run());
    }

    /// Arena recycling with in-place protocol/mobility resets must be
    /// invisible: checking the same scenario out for a chain of random seeds
    /// reproduces every fresh-world report bit for bit.
    #[test]
    fn arena_with_protocol_reset_matches_fresh_worlds(
        seeds in proptest::collection::vec(0u64..1_000_000, 2..5),
        nodes in 4usize..12,
        frugal in any::<bool>(),
    ) {
        let protocol = if frugal {
            ProtocolKind::Frugal(ProtocolConfig::paper_default())
        } else {
            ProtocolKind::Flooding(FloodingPolicy::NeighborInterest)
        };
        let mobility = MobilityKind::RandomWaypoint {
            area: Area::square(400.0),
            speed_min: 2.0,
            speed_max: 25.0,
            pause: SimDuration::from_secs(8),
        };
        let scenario = random_scenario(mobility, protocol, nodes, 500, 180.0);
        let mut arena = WorldArena::new();
        for seed in seeds {
            let recycled = arena.checkout(&scenario, seed).unwrap().run_mut();
            let fresh = World::new(scenario.clone(), seed).unwrap().run();
            prop_assert_eq!(recycled, fresh, "arena diverged for seed {}", seed);
        }
    }

    /// Same property under the city-section model.
    #[test]
    fn world_reports_identical_city_section(
        seed in 0u64..1_000_000,
        nodes in 4usize..16,
        tick_ms in 200u64..1_000,
    ) {
        let scenario = random_scenario(
            MobilityKind::CityCampus,
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            nodes,
            tick_ms,
            60.0,
        );
        let dirty = World::new(scenario.clone(), seed).unwrap().run();
        let mut naive_world = World::new(scenario, seed).unwrap();
        naive_world.set_naive_mobility(true);
        prop_assert_eq!(dirty, naive_world.run());
    }
}
