//! Golden-fingerprint invariance and counter sanity for the adaptive
//! lookahead engine.
//!
//! The sharded world widens its conservative window over provably silent
//! stretches (no transmission in flight, no frame leased) by draining runs of
//! mobility-tick and quiet-timer batches into one fused worker round-trip,
//! and periodically rebalances shard boundaries from measured per-node cost.
//! `tests/shard_equivalence.rs` pins the engine ≡ the naive oracle on random
//! scenarios; this suite pins the adaptive sharded engine against the same
//! *golden* fingerprints the single-threaded refactors were pinned to
//! (`tests/integration_determinism.rs`), and asserts the widening actually
//! happens — the counters must advance on a traffic-free scenario, otherwise
//! the equivalence suite would never reach the fused-window paths.

use frugal::{FloodingPolicy, ProtocolConfig};
use manet_sim::{MobilityKind, ProtocolKind, Publication, PublisherChoice, ScenarioBuilder, World};
use mobility::Area;
use netsim::RadioConfig;
use simkit::{SimDuration, SimTime};

/// FNV-1a hash of a report's debug representation — same construction as the
/// golden-fingerprint suite in `integration_determinism.rs`, so the expected
/// values below are directly comparable.
fn fingerprint(report: &manet_sim::RunReport) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{report:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

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

/// The adaptive sharded engine must reproduce every golden fingerprint the
/// single-threaded refactors were pinned to — seed 1 of each golden family,
/// at 2 and 4 shards, with the default adaptive windows and cost-balanced
/// boundaries enabled. A divergence here means the widened windows, the fused
/// commit order, or the repartitioning changed outcomes or RNG consumption
/// relative to every implementation back to the growth seed.
#[test]
fn adaptive_sharded_worlds_reproduce_golden_fingerprints() {
    let golden: [(manet_sim::Scenario, u64); 10] = [
        (
            scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()), rw()),
            0x1aab_bd1e_6736_647c,
        ),
        (
            scenario(
                ProtocolKind::Frugal(ProtocolConfig::paper_default()),
                MobilityKind::CityCampus,
            ),
            0x6a30_3cfc_0f5c_ff07,
        ),
        (
            scenario(ProtocolKind::Flooding(FloodingPolicy::Simple), rw()),
            0x38ff_8d89_0aea_6c14,
        ),
        (mobility_heavy_city(), 0x407b_9725_18bc_9b7d),
        (
            wake_heavy(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            0x28c1_e00f_49fa_bfc2,
        ),
        (
            wake_heavy(ProtocolKind::Flooding(FloodingPolicy::Simple)),
            0x8fe0_40eb_0404_06ef,
        ),
        (
            timer_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            0xf28a_33b4_5103_f7e2,
        ),
        (
            timer_dense(ProtocolKind::Flooding(FloodingPolicy::Simple)),
            0x56d3_86a8_bec0_880a,
        ),
        (
            traffic_dense(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            0x7e18_46c2_518c_f16a,
        ),
        (
            traffic_dense_moving(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            0xf4ff_3c06_d6e8_143d,
        ),
    ];
    for (s, expected) in golden {
        for shards in [2usize, 4] {
            let mut world = World::new(s.clone(), 1).unwrap();
            world.set_shards(shards);
            let got = fingerprint(&world.run());
            assert_eq!(
                got, expected,
                "{} diverged from its golden fingerprint at {shards} shards under \
                 adaptive lookahead: {got:#018x}",
                s.label
            );
        }
    }
}

/// The widening must actually engage. A traffic-free flooding run — mobile
/// nodes, no publications, so no broadcast ever leases a frame — is wall to
/// wall mobility ticks and quiet flood-tick timers, exactly the batches the
/// engine may fuse. If these counters stay at zero the adaptive path is dead
/// code and the equivalence suites compare two identical per-timestamp runs.
#[test]
fn adaptive_counters_advance_on_traffic_free_run() {
    let s = ScenarioBuilder::new()
        .label("adaptive-sparse")
        .protocol(ProtocolKind::Flooding(FloodingPolicy::Simple))
        .nodes(32)
        .subscriber_fraction(0.8)
        .mobility(MobilityKind::RandomWaypoint {
            area: Area::square(900.0),
            speed_min: 2.0,
            speed_max: 20.0,
            pause: SimDuration::from_secs(1),
        })
        .radio(RadioConfig::ideal(150.0))
        .timing(SimDuration::from_secs(2), SimDuration::from_secs(64))
        .publications(vec![])
        .mobility_tick(SimDuration::from_millis(100))
        .build()
        .unwrap();
    let mut world = World::new(s, 1).unwrap();
    world.set_shards(2);
    world.run_mut();
    let stats = world.debug_stats();
    assert!(
        stats.windows_widened > 0,
        "no window was widened on a traffic-free run: {stats:?}"
    );
    // Every widened window fuses at least two batches — a lone batch falls
    // back to the per-timestamp path without touching the counters.
    assert!(
        stats.batches_fused >= 2 * stats.windows_widened,
        "fused-batch accounting inconsistent: {stats:?}"
    );
    assert!(
        stats.repartitions > 0,
        "cost-balanced boundaries never repartitioned over a long run: {stats:?}"
    );
}
