//! Equivalence suite for the sharded event loop.
//!
//! The sharded world (PR 7) splits the node population into contiguous
//! [`simkit::ShardPartition`] ranges and steps each same-timestamp batch —
//! the degenerate conservative time window of this model, see
//! [`World::lookahead`] — with the pure per-node work fanned out to worker
//! threads, while every random draw and every scheduler mutation stays in
//! the sequential dispatch order. None of that may change a single bit of
//! any run: these properties pin whole `RunReport`s bit-identical between
//! sharded worlds (2, 3, 4 and 8 shards) and the doc-hidden single-thread
//! reference (`World::set_single_shard`) on random scenarios — all four
//! protocol variants, all mobility models, fresh and arena-recycled worlds,
//! and the sharded seed-sweep runner.
//!
//! The adaptive-lookahead engine (this PR) widens the conservative window
//! over traffic-free stretches and rebalances shard boundaries by measured
//! cost; both are pinned here against the doc-hidden fixed-lookahead
//! reference (`World::set_fixed_lookahead`), and the work-stealing classify
//! fan-out against the pre-split default.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    run_scenario_reports, run_scenario_reports_sharded, MobilityKind, ProtocolKind, Publication,
    PublisherChoice, Scenario, ScenarioBuilder, SeedPlan, World, WorldArena,
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

/// Runs `scenario` single-threaded (the forced reference path) and at
/// `shards` shards, asserting bit-identical reports.
fn assert_sharded_matches_single(scenario: Scenario, seed: u64, shards: usize) {
    let mut reference = World::new(scenario.clone(), seed).unwrap();
    reference.set_single_shard(true);
    let reference = reference.run();
    let mut sharded = World::new(scenario, seed).unwrap();
    sharded.set_shards(shards);
    let sharded = sharded.run();
    assert_eq!(
        sharded, reference,
        "{shards}-shard world diverged from the single-thread reference for seed {seed}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
        let protocol = match protocol_pick {
            0 => ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            1 => ProtocolKind::Flooding(FloodingPolicy::Simple),
            2 => ProtocolKind::Flooding(FloodingPolicy::InterestAware),
            _ => ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
        };
        let scenario = random_scenario(mobility, protocol, nodes, tick_ms, 180.0);
        assert_sharded_matches_single(scenario, seed, shards);
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
        assert_sharded_matches_single(scenario, seed, shards);
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
        assert_sharded_matches_single(scenario, seed, shards);
    }

    /// Adaptive lookahead must be invisible in the reports: a sharded world
    /// with the default widened windows is bit-identical to one pinned to
    /// the per-timestamp window (`set_fixed_lookahead`), across random
    /// scenarios, shard counts and all four protocol variants. The
    /// publication keeps the run traffic-free only up to 4 s, so both the
    /// fused and the terminated/fallback paths are exercised.
    #[test]
    fn adaptive_lookahead_matches_fixed_window(
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
        let protocol = match protocol_pick {
            0 => ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            1 => ProtocolKind::Flooding(FloodingPolicy::Simple),
            2 => ProtocolKind::Flooding(FloodingPolicy::InterestAware),
            _ => ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
        };
        let scenario = random_scenario(mobility, protocol, nodes, tick_ms, 180.0);
        let mut fixed = World::new(scenario.clone(), seed).unwrap();
        fixed.set_shards(shards);
        fixed.set_fixed_lookahead(true);
        let fixed = fixed.run();
        let mut adaptive = World::new(scenario, seed).unwrap();
        adaptive.set_shards(shards);
        let adaptive = adaptive.run();
        prop_assert_eq!(
            adaptive,
            fixed,
            "adaptive windows diverged from the fixed window at {} shards for seed {}",
            shards,
            seed
        );
    }

    /// Arena-recycled sharded worlds must match fresh single-thread worlds:
    /// the shard knob survives `World::reset` and recycling may never leak
    /// state across seeds.
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
            let mut reference = World::new(scenario.clone(), seed).unwrap();
            reference.set_single_shard(true);
            let reference = reference.run();
            prop_assert_eq!(
                &sharded,
                &reference,
                "recycled {}-shard world diverged for seed {}",
                shards,
                seed
            );
        }
    }
}

/// A population dense enough that one completed frame reaches hundreds of
/// candidate receivers under overlapping traffic — pushing classification
/// work past the engine's parallel-classify threshold, so the fan-out
/// chunking path (not just the inline path) is pinned bit-identical.
#[test]
fn dense_classification_fanout_matches_single_thread() {
    let scenario = ScenarioBuilder::new()
        .label("shard-dense-classify")
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
        assert_sharded_matches_single(scenario.clone(), 1, shards);
    }
    // The threshold counts in-range receivers × nearby interferers; make sure
    // this scenario still crosses it, or the runs above pin only the inline
    // path.
    let mut fanned = World::new(scenario.clone(), 1).unwrap();
    fanned.set_shards(2);
    fanned.run_mut();
    assert!(
        fanned.debug_stats().classify_fanouts > 0,
        "no completed frame was heavy enough to fan its classification out"
    );
    // The work-stealing variant of the same fan-out (opt-in) must be
    // invisible too: chunks reassemble in index order, so the classification
    // outcome — and the whole report — is bit-identical to the pre-split
    // default and the single-thread reference.
    for shards in [2usize, 4] {
        let mut reference = World::new(scenario.clone(), 1).unwrap();
        reference.set_single_shard(true);
        let reference = reference.run();
        let mut stealing = World::new(scenario.clone(), 1).unwrap();
        stealing.set_shards(shards);
        stealing.set_classify_work_stealing(true);
        let stealing = stealing.run();
        assert_eq!(
            stealing, reference,
            "work-stealing classification diverged at {shards} shards"
        );
    }
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
