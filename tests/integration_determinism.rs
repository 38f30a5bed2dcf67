//! Cross-crate integration tests: reproducibility.
//!
//! Every experiment of the paper is an average over 30 seeded runs; for that
//! methodology to be meaningful the simulator must be a deterministic function
//! of (scenario, seed). These tests pin that property across protocols,
//! mobility models and the parallel runner.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{
    run_scenario_reports, run_scenario_reports_with_workers, MobilityKind, ProtocolKind,
    Publication, PublisherChoice, ScenarioBuilder, SeedPlan, World,
};
use mobility::{
    Area, CitySection, CitySectionConfig, MobilityModel, RandomWaypoint, RandomWaypointConfig,
};
use netsim::RadioConfig;
use simkit::{SimDuration, SimRng, SimTime};

fn scenario(protocol: ProtocolKind, mobility: MobilityKind) -> manet_sim::Scenario {
    ScenarioBuilder::new()
        .label("determinism")
        .protocol(protocol)
        .nodes(12)
        .subscriber_fraction(0.7)
        .mobility(mobility)
        .radio(RadioConfig::paper_random_waypoint())
        .timing(SimDuration::from_secs(4), SimDuration::from_secs(44))
        .publications(vec![Publication {
            publisher: PublisherChoice::RandomSubscriber,
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(5),
            validity: SimDuration::from_secs(38),
            payload_bytes: 400,
        }])
        .build()
        .unwrap()
}

fn rw() -> MobilityKind {
    MobilityKind::RandomWaypoint {
        area: Area::square(700.0),
        speed_min: 2.0,
        speed_max: 20.0,
        pause: SimDuration::from_secs(1),
    }
}

#[test]
fn identical_seeds_produce_identical_reports_for_every_protocol() {
    let protocols = [
        ProtocolKind::Frugal(ProtocolConfig::paper_default()),
        ProtocolKind::Flooding(FloodingPolicy::Simple),
        ProtocolKind::Flooding(FloodingPolicy::InterestAware),
        ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
    ];
    for protocol in protocols {
        let s = scenario(protocol, rw());
        let a = World::new(s.clone(), 77).unwrap().run();
        let b = World::new(s, 77).unwrap().run();
        assert_eq!(a, b, "protocol {} must be deterministic", a.protocol);
    }
}

#[test]
fn identical_seeds_produce_identical_reports_in_the_city_model() {
    let s = scenario(
        ProtocolKind::Frugal(ProtocolConfig::paper_default()),
        MobilityKind::CityCampus,
    );
    let a = World::new(s.clone(), 5).unwrap().run();
    let b = World::new(s, 5).unwrap().run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_outcomes() {
    let s = scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw());
    let reports: Vec<_> = (0..8)
        .map(|seed| World::new(s.clone(), seed).unwrap().run())
        .collect();
    // Traffic patterns depend on node placement; at least two of the eight
    // seeds must differ in total bytes or in reliability.
    let distinct: std::collections::HashSet<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{:.6}-{}",
                r.reliability(),
                r.nodes.iter().map(|n| n.traffic.bytes_sent).sum::<u64>()
            )
        })
        .collect();
    assert!(
        distinct.len() > 1,
        "eight different seeds should not all yield identical runs"
    );
}

#[test]
fn parallel_runner_matches_sequential_runs() {
    let s = scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw());
    let parallel = run_scenario_reports(&s, SeedPlan::new(1, 4)).unwrap();
    let sequential: Vec<_> = (1..=4)
        .map(|seed| World::new(s.clone(), seed).unwrap().run())
        .collect();
    assert_eq!(parallel, sequential);
}

/// FNV-1a hash of a report's debug representation. The `Debug` output covers
/// every field of the report (events, per-node counters, traffic), so two
/// reports hash equal iff they are bit-identical.
fn fingerprint(report: &manet_sim::RunReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The spatial-grid medium must reproduce, seed for seed, the exact reports
/// the brute-force O(nodes) medium produced before the refactor. The golden
/// fingerprints below were captured from the pre-grid implementation
/// (commit 19ee6c9); any divergence means the grid changed outcomes or RNG
/// consumption.
#[test]
fn grid_medium_reproduces_pre_refactor_reports_seed_for_seed() {
    let golden_rw: [(u64, u64); 3] = [
        (1, 0x1aab_bd1e_6736_647c),
        (2, 0xc939_0e01_c5ee_f665),
        (3, 0x74f6_1c0c_4ee7_d8f4),
    ];
    let golden_city: [(u64, u64); 2] = [(1, 0x6a30_3cfc_0f5c_ff07), (2, 0xba03_a064_ba51_b36e)];
    let golden_flooding: [(u64, u64); 2] = [(1, 0x38ff_8d89_0aea_6c14), (2, 0xf04a_0638_c789_c1bf)];

    for (seed, expected) in golden_rw {
        let s = scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw());
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "random-waypoint report changed for seed {seed}: {got:#018x}"
        );
    }
    for (seed, expected) in golden_city {
        let s = scenario(
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            MobilityKind::CityCampus,
        );
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "city report changed for seed {seed}: {got:#018x}"
        );
    }
    for (seed, expected) in golden_flooding {
        let s = scenario(ProtocolKind::Flooding(FloodingPolicy::Simple), rw());
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "flooding report changed for seed {seed}: {got:#018x}"
        );
    }
}

/// A city-section scenario tuned to be mobility-heavy: more nodes than the
/// paper's city experiments and a 250 ms tick, so the mobility advance
/// dominates the event count. Used to pin the dirty-tick refactor.
fn mobility_heavy_city() -> manet_sim::Scenario {
    ScenarioBuilder::city()
        .label("city-mobility-heavy")
        .nodes(20)
        .mobility_tick(SimDuration::from_millis(250))
        .timing(SimDuration::from_secs(5), SimDuration::from_secs(50))
        .publications(vec![Publication {
            publisher: PublisherChoice::Node(2),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(6),
            validity: SimDuration::from_secs(40),
            payload_bytes: 400,
        }])
        .build()
        .unwrap()
}

/// The dirty-tick mobility advance (PR 3) must reproduce, seed for seed, the
/// exact reports the advance-every-node-every-tick world produced before the
/// refactor. These golden fingerprints were captured from the pre-dirty-tick
/// implementation (commit 6b84094) on a mobility-heavy city-section scenario;
/// any divergence means tick skipping changed positions, outcomes, or RNG
/// consumption.
#[test]
fn dirty_tick_reproduces_pre_refactor_city_reports_seed_for_seed() {
    let golden: [(u64, u64); 3] = [
        (1, 0x407b_9725_18bc_9b7d),
        (2, 0xe79b_c653_f91b_2a1d),
        (3, 0x8c0f_eb87_633e_0d9b),
    ];
    for (seed, expected) in golden {
        let got = fingerprint(&World::new(mobility_heavy_city(), seed).unwrap().run());
        assert_eq!(
            got, expected,
            "mobility-heavy city report changed for seed {seed}: {got:#018x}"
        );
    }
}

/// A random-waypoint scenario tuned to be wake-heavy: short legs between long
/// 20 s pauses with a fine 100 ms tick, so most ticks find most nodes asleep
/// and waking nodes need chunked catch-up. Used to pin the event-driven wake
/// queue refactor.
fn wake_heavy(protocol: ProtocolKind) -> manet_sim::Scenario {
    ScenarioBuilder::new()
        .label("wake-heavy")
        .protocol(protocol)
        .nodes(40)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(300.0),
            speed_min: 15.0,
            speed_max: 30.0,
            pause: SimDuration::from_secs(20),
        })
        .radio(RadioConfig::ideal(120.0))
        .timing(SimDuration::from_secs(3), SimDuration::from_secs(45))
        .publications(vec![Publication {
            publisher: PublisherChoice::Node(1),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(4),
            validity: SimDuration::from_secs(35),
            payload_bytes: 400,
        }])
        .mobility_tick(SimDuration::from_millis(100))
        .build()
        .unwrap()
}

/// The event-driven wake queue (PR 4) must reproduce, seed for seed, the exact
/// reports the scan-every-node dirty-tick world produced before the refactor.
/// These golden fingerprints were captured from the pre-wake-queue
/// implementation (commit 4501ed3) on a wake-heavy random-waypoint scenario;
/// any divergence means the wake queue changed the set or order of advanced
/// nodes, positions, outcomes, or RNG consumption.
#[test]
fn wake_queue_reproduces_pre_refactor_reports_seed_for_seed() {
    let golden_frugal: [(u64, u64); 3] = [
        (1, 0x28c1_e00f_49fa_bfc2),
        (2, 0x64b5_e1e8_f6b3_b316),
        (3, 0x23ff_bb82_b404_4fac),
    ];
    let golden_flooding: [(u64, u64); 2] = [(1, 0x8fe0_40eb_0404_06ef), (2, 0xb446_a482_f571_9b3a)];
    for (seed, expected) in golden_frugal {
        let s = wake_heavy(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "wake-heavy frugal report changed for seed {seed}: {got:#018x}"
        );
    }
    for (seed, expected) in golden_flooding {
        let s = wake_heavy(ProtocolKind::Flooding(FloodingPolicy::Simple));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "wake-heavy flooding report changed for seed {seed}: {got:#018x}"
        );
    }
}

/// A timer-dense scenario: stationary nodes (mobility is a non-event after
/// the first tick) under loose clusters, so the run is dominated by protocol
/// timers — heartbeats, back-offs and GC for frugal, the 1 Hz flood tick for
/// the baseline — plus the message traffic they trigger. Used to pin the
/// timer-wheel scheduler refactor.
fn timer_dense(protocol: ProtocolKind) -> manet_sim::Scenario {
    ScenarioBuilder::new()
        .label("timer-dense")
        .protocol(protocol)
        .nodes(40)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::Stationary {
            area: Area::square(1200.0),
        })
        .radio(RadioConfig::ideal(150.0))
        .timing(SimDuration::from_secs(3), SimDuration::from_secs(45))
        .publications(vec![Publication {
            publisher: PublisherChoice::Node(1),
            topic: ".news.local".parse().unwrap(),
            at: SimTime::from_secs(4),
            validity: SimDuration::from_secs(35),
            payload_bytes: 400,
        }])
        .build()
        .unwrap()
}

/// The timer-wheel scheduler (PR 5) must reproduce, seed for seed, the exact
/// reports the single-pop binary-heap world produced before the refactor.
/// These golden fingerprints were captured from the pre-wheel implementation
/// (commit 576e53c) on the timer-dense scenario; any divergence means the
/// wheel (or the batched dispatch, or the dense timer slots) changed event
/// order, outcomes, or RNG consumption.
#[test]
fn timer_wheel_reproduces_pre_refactor_reports_seed_for_seed() {
    let golden_frugal: [(u64, u64); 3] = [
        (1, 0xf28a_33b4_5103_f7e2),
        (2, 0xcb48_3a46_b28a_3a1a),
        (3, 0xdec6_f15e_6360_4493),
    ];
    let golden_flooding: [(u64, u64); 2] = [(1, 0x56d3_86a8_bec0_880a), (2, 0xff22_69cc_add9_965e)];
    for (seed, expected) in golden_frugal {
        let s = timer_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let wheel = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            wheel, expected,
            "timer-dense frugal report changed for seed {seed}: {wheel:#018x}"
        );
    }
    for (seed, expected) in golden_flooding {
        let s = timer_dense(ProtocolKind::Flooding(FloodingPolicy::Simple));
        let wheel = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            wheel, expected,
            "timer-dense flooding report changed for seed {seed}: {wheel:#018x}"
        );
    }
}

/// A traffic-dense scenario: 30 stationary nodes packed tightly enough that
/// every protocol phase fires — heartbeats, event-id exchanges, back-off
/// dissemination, deliveries, duplicates and garbage collection — across
/// three overlapping publications on related topics. Used to pin the
/// action-buffer / SoA node-state refactor, whose changes ride exactly those
/// per-callback paths.
fn traffic_dense(protocol: ProtocolKind) -> manet_sim::Scenario {
    ScenarioBuilder::new()
        .label("traffic-dense")
        .protocol(protocol)
        .nodes(30)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::Stationary {
            area: Area::square(500.0),
        })
        .radio(RadioConfig::ideal(150.0))
        .timing(SimDuration::from_secs(3), SimDuration::from_secs(48))
        .publications(vec![
            Publication {
                publisher: PublisherChoice::RandomSubscriber,
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(5),
                validity: SimDuration::from_secs(30),
                payload_bytes: 400,
            },
            Publication {
                publisher: PublisherChoice::Node(2),
                topic: ".news.local.sport".parse().unwrap(),
                at: SimTime::from_secs(9),
                validity: SimDuration::from_secs(25),
                payload_bytes: 400,
            },
            Publication {
                publisher: PublisherChoice::RandomSubscriber,
                topic: ".news".parse().unwrap(),
                at: SimTime::from_secs(14),
                validity: SimDuration::from_secs(20),
                payload_bytes: 400,
            },
        ])
        .build()
        .unwrap()
}

/// The moving variant of [`traffic_dense`]: same population and traffic under
/// random-waypoint mobility, so neighborhoods churn and the new-neighbor
/// event-id exchange path stays hot.
fn traffic_dense_moving(protocol: ProtocolKind) -> manet_sim::Scenario {
    ScenarioBuilder::new()
        .label("traffic-dense-moving")
        .protocol(protocol)
        .nodes(30)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(500.0),
            speed_min: 2.0,
            speed_max: 15.0,
            pause: SimDuration::from_secs(2),
        })
        .radio(RadioConfig::ideal(150.0))
        .timing(SimDuration::from_secs(3), SimDuration::from_secs(48))
        .publications(vec![
            Publication {
                publisher: PublisherChoice::RandomSubscriber,
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(5),
                validity: SimDuration::from_secs(30),
                payload_bytes: 400,
            },
            Publication {
                publisher: PublisherChoice::Node(2),
                topic: ".news.local.sport".parse().unwrap(),
                at: SimTime::from_secs(9),
                validity: SimDuration::from_secs(25),
                payload_bytes: 400,
            },
        ])
        .build()
        .unwrap()
}

/// The action-buffer / SoA node-state refactor (PR 6) must reproduce, seed
/// for seed, the exact reports the Vec-returning, AoS-node implementation
/// produced before the refactor. These golden fingerprints were captured from
/// the pre-refactor implementation (commit de2d24d) on traffic-dense
/// scenarios covering all four protocol variants; any divergence means the
/// buffered callbacks, the dense id/bitset membership, or the hot/cold state
/// split changed message contents, ordering, outcomes, or RNG consumption.
#[test]
fn action_buffers_reproduce_pre_refactor_reports_seed_for_seed() {
    let golden_frugal: [(u64, u64); 3] = [
        (1, 0x7e18_46c2_518c_f16a),
        (2, 0x518d_34c5_2277_571f),
        (3, 0x984d_703c_ab4b_651e),
    ];
    let golden_flood_simple: [(u64, u64); 2] =
        [(1, 0x2728_a5d2_8986_042b), (2, 0x6838_df6b_dcad_ef27)];
    let golden_flood_interest: (u64, u64) = (1, 0x636e_027c_8b91_3c69);
    let golden_flood_neighbor: (u64, u64) = (1, 0xc22e_ef37_6492_1dc4);
    let golden_moving_frugal: [(u64, u64); 2] =
        [(1, 0xf4ff_3c06_d6e8_143d), (2, 0xbd09_0242_5a12_b289)];

    for (seed, expected) in golden_frugal {
        let s = traffic_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "traffic-dense frugal report changed for seed {seed}: {got:#018x}"
        );
    }
    for (seed, expected) in golden_flood_simple {
        let s = traffic_dense(ProtocolKind::Flooding(FloodingPolicy::Simple));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "traffic-dense simple-flooding report changed for seed {seed}: {got:#018x}"
        );
    }
    {
        let (seed, expected) = golden_flood_interest;
        let s = traffic_dense(ProtocolKind::Flooding(FloodingPolicy::InterestAware));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "traffic-dense interest-aware report changed for seed {seed}: {got:#018x}"
        );
    }
    {
        let (seed, expected) = golden_flood_neighbor;
        let s = traffic_dense(ProtocolKind::Flooding(FloodingPolicy::NeighborInterest));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "traffic-dense neighbor-interest report changed for seed {seed}: {got:#018x}"
        );
    }
    for (seed, expected) in golden_moving_frugal {
        let s = traffic_dense_moving(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let got = fingerprint(&World::new(s, seed).unwrap().run());
        assert_eq!(
            got, expected,
            "traffic-dense-moving frugal report changed for seed {seed}: {got:#018x}"
        );
    }
}

/// Worlds reused through `World::reset`, as the runner's workers reuse one
/// world per scenario, must reproduce fresh-world reports seed for seed.
/// `World::reset` keeps only the world's own buffers (timer wheel, the
/// medium's grid and counters, timer slots, frame slab, wake queue, scratch
/// vectors) and builds every node fresh, so no state may cross a reset.
/// Each world is reset after complete runs and also from 1/10, 3/10 and
/// 7/10 of a run, where timers are armed and frames may be leased and in
/// flight. The scenarios cover both protocols, all three mobility models
/// and the neighbour-interest flooding policy.
#[test]
fn arena_reused_worlds_reproduce_fresh_reports_seed_for_seed() {
    let scenarios = [
        scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw()),
        mobility_heavy_city(),
        wake_heavy(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        wake_heavy(ProtocolKind::Flooding(FloodingPolicy::Simple)),
        timer_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        traffic_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        traffic_dense_moving(ProtocolKind::Flooding(FloodingPolicy::Simple)),
        scenario(
            ProtocolKind::Flooding(FloodingPolicy::NeighborInterest),
            MobilityKind::Stationary {
                area: Area::square(600.0),
            },
        ),
    ];
    for scenario in scenarios {
        let fresh: Vec<_> = (1..=5u64)
            .map(|seed| World::new(scenario.clone(), seed).unwrap().run())
            .collect();
        let check = |world: &mut World, seed: u64, how: &str| {
            let report = world.run_mut();
            let expected = &fresh[seed as usize - 1];
            assert_eq!(
                fingerprint(&report),
                fingerprint(expected),
                "{how} diverged for {} seed {seed}",
                scenario.label
            );
            assert_eq!(&report, expected);
        };
        let mut world = World::new(scenario.clone(), 1).unwrap();
        check(&mut world, 1, "fresh world");
        for seed in 2..=5u64 {
            world.reset(seed);
            check(&mut world, seed, "world reset after a complete run");
        }
        let end = SimTime::ZERO + scenario.duration;
        for (tenths, seed) in [(1u64, 1u64), (3, 2), (7, 3)] {
            world.reset(seed + 1);
            world.run_until(SimTime::ZERO + scenario.duration * tenths / 10);
            assert!(SimTime::ZERO < world.now() && world.now() < end);
            world.reset(seed);
            check(
                &mut world,
                seed,
                &format!("world reset at {tenths}/10 of a run"),
            );
        }
    }
}

/// `run_scenario_reports` output must not depend on the number of worker
/// threads: 1 worker, 2 workers and the default `available_parallelism()`
/// pool (each worker resetting its one world per seed) must produce identical,
/// seed-ordered reports.
#[test]
fn runner_reports_are_identical_across_thread_counts() {
    let s = scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw());
    let plan = SeedPlan::new(1, 6);
    let default_pool = run_scenario_reports(&s, plan).unwrap();
    for workers in [1usize, 2] {
        let pooled = run_scenario_reports_with_workers(&s, plan, workers, |_| {}).unwrap();
        assert_eq!(
            pooled, default_pool,
            "{workers}-worker run diverged from the default pool"
        );
    }
    assert_eq!(
        default_pool.iter().map(|r| r.seed).collect::<Vec<_>>(),
        (1..=6).collect::<Vec<_>>()
    );
}

/// `World::set_shards` is inert: every frame's deliveries run inline at
/// every shard count, so a world given 2, 4 or 8 shards must reproduce, bit
/// for bit, the one-shard report — same outcomes, same RNG consumption, same
/// counters. The repository benchmark holds its two-shard workload to the
/// one-shard workload's fingerprints, and this suite reuses every
/// golden-fingerprint scenario above.
#[test]
fn sharded_worlds_reproduce_single_threaded_reports_at_every_shard_count() {
    let scenarios = [
        scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw()),
        scenario(
            ProtocolKind::Frugal(ProtocolConfig::paper_default()),
            MobilityKind::CityCampus,
        ),
        scenario(ProtocolKind::Flooding(FloodingPolicy::Simple), rw()),
        scenario(
            ProtocolKind::Flooding(FloodingPolicy::InterestAware),
            MobilityKind::CityCampus,
        ),
        mobility_heavy_city(),
        wake_heavy(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        wake_heavy(ProtocolKind::Flooding(FloodingPolicy::Simple)),
        timer_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        timer_dense(ProtocolKind::Flooding(FloodingPolicy::Simple)),
        timer_dense(ProtocolKind::Flooding(FloodingPolicy::NeighborInterest)),
        traffic_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        traffic_dense_moving(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
        traffic_dense_moving(ProtocolKind::Flooding(FloodingPolicy::Simple)),
    ];
    for s in scenarios {
        for seed in [1u64, 2] {
            let reference = World::new(s.clone(), seed).unwrap().run();
            for shards in [2usize, 4, 8] {
                let mut world = World::new(s.clone(), seed).unwrap();
                world.set_shards(shards);
                let report = world.run();
                assert_eq!(
                    fingerprint(&report),
                    fingerprint(&reference),
                    "{} diverged at {shards} shards for seed {seed}",
                    s.label
                );
                assert_eq!(report, reference);
            }
        }
    }
}

#[test]
fn mobility_models_are_deterministic_per_seed() {
    // Random waypoint.
    let config = RandomWaypointConfig::paper_fixed_speed(10.0);
    let run_rw = |seed: u64| {
        let mut rng = SimRng::seed_from(seed);
        let mut node = RandomWaypoint::new(config, &mut rng);
        for _ in 0..500 {
            node.advance(SimDuration::from_millis(400), &mut rng);
        }
        node.position()
    };
    assert_eq!(run_rw(3), run_rw(3));

    // City section.
    let run_city = |seed: u64| {
        let mut rng = SimRng::seed_from(seed);
        let mut node = CitySection::new(CitySectionConfig::paper_campus(), &mut rng);
        for _ in 0..500 {
            node.advance(SimDuration::from_millis(400), &mut rng);
        }
        node.position()
    };
    assert_eq!(run_city(3), run_city(3));
    // Different seeds almost surely end elsewhere.
    assert_ne!(run_rw(3), run_rw(4));
}
