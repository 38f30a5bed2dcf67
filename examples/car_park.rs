//! The paper's motivating application: free-car-park announcements.
//!
//! "The cars leaving the car parks act as publishers and propagate the
//! information of free parking spots. When receiving such information, other
//! cars, acting as subscribers, are able to locate the free place that is
//! closest to their destination." (footnote 1 of the paper)
//!
//! This example drives the protocol directly — no simulator scenario layer —
//! to show how an application embeds `FrugalProtocol`: cars move on the campus
//! street network, exchange heartbeats when they meet, and parking-spot events
//! (published under `.parking.<district>`) hop from car to car until their
//! validity (how long the spot is likely to stay free) expires.
//!
//! Run with: `cargo run --release --example car_park`

use frugal::{
    Action, DisseminationProtocol, FrugalProtocol, ProtocolConfig, TimerKind, VecActions,
};
use mobility::{CitySection, CitySectionConfig, MobilityModel, Point};
use pubsub::{ProcessId, Topic};
use simkit::{EventHandle, SimDuration, SimRng, SimTime, TimerWheel};
use std::collections::HashMap;

/// One car: a protocol instance plus its position on the street network.
struct Car {
    name: &'static str,
    protocol: FrugalProtocol,
    mobility: CitySection,
    rng: SimRng,
}

/// Simulation events: protocol timers, mobility ticks and scripted publications.
enum Happening {
    Timer {
        car: usize,
        kind: TimerKind,
    },
    MobilityTick,
    LeaveParking {
        car: usize,
        district: &'static str,
        free_for: SimDuration,
    },
}

/// Radio range of the cars' Wi-Fi in the city (the paper's 44 m).
const RADIO_RANGE_M: f64 = 44.0;
const MOBILITY_TICK: SimDuration = SimDuration::from_millis(500);

fn main() {
    let district_topics: Vec<Topic> = ["north", "center", "south"]
        .iter()
        .map(|d| format!(".parking.{d}").parse().expect("valid topic"))
        .collect();

    // Six cars drive around the campus. Each subscribes to the districts close
    // to its destination; two of them will leave a parking spot along the way.
    let car_names = ["alice", "bob", "carol", "dave", "erin", "frank"];
    let subscriptions: [&[usize]; 6] = [&[0, 1], &[1], &[2], &[0], &[1, 2], &[0, 1]];

    let master = SimRng::seed_from(2005);
    let mut cars: Vec<Car> = car_names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut rng = master.derive(i as u64);
            Car {
                name,
                protocol: FrugalProtocol::new(ProcessId(i as u64), ProtocolConfig::paper_default()),
                mobility: CitySection::new(CitySectionConfig::paper_campus(), &mut rng),
                rng,
            }
        })
        .collect();

    let mut queue: TimerWheel<Happening> = TimerWheel::new();
    let mut timers: HashMap<(usize, TimerKind), EventHandle> = HashMap::new();
    let mut now = SimTime::ZERO;

    // Subscriptions at start-up (staggered a little, like real ignitions).
    let mut pending: Vec<(usize, Vec<Action>)> = Vec::new();
    for (i, car) in cars.iter_mut().enumerate() {
        let mut actions = Vec::new();
        for &district in subscriptions[i] {
            actions.extend(
                car.protocol
                    .subscribe_vec(district_topics[district].clone(), now),
            );
        }
        pending.push((i, actions));
    }

    // Scripted publications: bob frees a spot in the center after 20 s,
    // erin frees one in the south after 60 s.
    queue.schedule(
        SimTime::from_secs(20),
        Happening::LeaveParking {
            car: 1,
            district: "center",
            free_for: SimDuration::from_secs(120),
        },
    );
    queue.schedule(
        SimTime::from_secs(60),
        Happening::LeaveParking {
            car: 4,
            district: "south",
            free_for: SimDuration::from_secs(90),
        },
    );
    queue.schedule(SimTime::ZERO + MOBILITY_TICK, Happening::MobilityTick);

    let end = SimTime::from_secs(180);
    println!("=== Car park announcements on the campus street network ===\n");

    // Helper: deliver a broadcast to every car within radio range of the sender.
    fn positions(cars: &[Car]) -> Vec<Point> {
        cars.iter().map(|c| c.mobility.position()).collect()
    }

    // Apply protocol actions: route broadcasts to in-range cars, manage timers.
    fn apply(
        sender: usize,
        actions: Vec<Action>,
        cars: &mut Vec<Car>,
        queue: &mut TimerWheel<Happening>,
        timers: &mut HashMap<(usize, TimerKind), EventHandle>,
        now: SimTime,
    ) {
        for action in actions {
            match action {
                Action::Broadcast(message) => {
                    let pos = positions(cars);
                    let reachable: Vec<usize> = (0..cars.len())
                        .filter(|&r| r != sender && pos[sender].distance(pos[r]) <= RADIO_RANGE_M)
                        .collect();
                    for receiver in reachable {
                        let produced = cars[receiver].protocol.handle_message_vec(&message, now);
                        apply(receiver, produced, cars, queue, timers, now);
                    }
                }
                Action::Deliver(event) => {
                    println!(
                        "[{:>5.1}s] {} learns about a free spot: {} (valid {}s more)",
                        now.as_secs_f64(),
                        cars[sender].name,
                        event.topic,
                        event.remaining_validity(now).as_millis() / 1000,
                    );
                }
                Action::SetTimer { kind, after } => {
                    if let Some(handle) = timers.remove(&(sender, kind)) {
                        queue.cancel(handle);
                    }
                    let handle =
                        queue.schedule(now + after, Happening::Timer { car: sender, kind });
                    timers.insert((sender, kind), handle);
                }
                Action::CancelTimer(kind) => {
                    if let Some(handle) = timers.remove(&(sender, kind)) {
                        queue.cancel(handle);
                    }
                }
            }
        }
    }

    for (car, actions) in pending {
        apply(car, actions, &mut cars, &mut queue, &mut timers, now);
    }

    // Drain one timestamp batch at a time, as the simulator's world does. A
    // callback earlier in a batch can cancel or re-arm a timer drained with
    // it (an overheard announcement cancelling a back-off, say), so a drained
    // timer fires only while its handle is still the armed one.
    let mut batch = Vec::new();
    while let Some(at) = queue.pop_due_batch(end, &mut batch) {
        now = at;
        for (handle, happening) in batch.drain(..) {
            match happening {
                Happening::MobilityTick => {
                    for car in cars.iter_mut() {
                        let Car {
                            mobility,
                            rng,
                            protocol,
                            ..
                        } = car;
                        mobility.advance(MOBILITY_TICK, rng);
                        protocol.update_speed(Some(mobility.speed()));
                    }
                    if now + MOBILITY_TICK <= end {
                        queue.schedule(now + MOBILITY_TICK, Happening::MobilityTick);
                    }
                }
                Happening::Timer { car, kind } => {
                    if timers.get(&(car, kind)) == Some(&handle) {
                        timers.remove(&(car, kind));
                        let actions = cars[car].protocol.handle_timer_vec(kind, now);
                        apply(car, actions, &mut cars, &mut queue, &mut timers, now);
                    }
                }
                Happening::LeaveParking {
                    car,
                    district,
                    free_for,
                } => {
                    let topic: Topic = format!(".parking.{district}").parse().expect("valid topic");
                    println!(
                        "[{:>5.1}s] {} leaves a parking spot in the {} district (free for ~{}s)",
                        now.as_secs_f64(),
                        cars[car].name,
                        district,
                        free_for.as_millis() / 1000
                    );
                    let (_, actions) = cars[car].protocol.publish_vec(topic, free_for, 400, now);
                    apply(car, actions, &mut cars, &mut queue, &mut timers, now);
                }
            }
        }
    }

    println!("\n=== After {} simulated seconds ===", end.as_secs_f64());
    for car in &cars {
        let metrics = car.protocol.metrics();
        println!(
            "  {:<6} delivered {} spot announcement(s), saw {} duplicate(s), {} parasite(s)",
            car.name,
            metrics.events_delivered,
            metrics.duplicates_received,
            metrics.parasites_received
        );
    }
    println!("\nCars only stored and forwarded announcements for districts they care about —");
    println!("that is the frugality the paper is after.");
}
