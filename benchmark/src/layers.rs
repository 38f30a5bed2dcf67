//! Per-layer replays: each times a fixed number of calls into one layer's
//! public functions, from outside, at the size of the workload's scenario.
//!
//! Parameters (nodes, area, radio range, tick, speeds, seed) come from the
//! compiled `Scenario`; operation counts are constants, so every count a
//! replay reports repeats exactly and every time is a cost per operation.

use crate::stats::ratio;
use crate::trace::Tracer;
use crate::workload::Inputs;
use frugal::{
    ActionBuf, DisseminationProtocol, EventTable, FloodingPolicy, FloodingProtocol, FrugalProtocol,
    Message, NeighborhoodTable, ProtocolConfig, TimerKind,
};
use manet_sim::{MobilityKind, ProtocolKind};
use mobility::{
    Area, CitySection, CitySectionConfig, MobilityModel, Point, RandomWaypoint,
    RandomWaypointConfig, StreetMap,
};
use netsim::{RadioMedium, SpatialGrid};
use pubsub::{Event, EventId, ProcessId, SubscriptionSet};
use simkit::{IndexedMinQueue, SimDuration, SimRng, SimTime, TimerWheel};
use std::hint::black_box;
use std::time::Instant;

/// Calls per replay. Large enough that one replay takes tens of
/// milliseconds, small enough that all of them fit in a second or two.
const OPS: usize = 200_000;

/// Frames per medium replay (each resolves a whole neighbourhood).
const FRAMES: usize = 4_000;

/// The smoke run makes this fraction of the calls.
const SMOKE_DIVISOR: usize = 20;

/// Overlapping transmissions per storm round.
const STORM: usize = 8;

/// New events handed to one protocol instance before it is replaced. The
/// workloads keep at most a few dozen events alive, and reception cost grows
/// with the events already stored, so the replay stays in that range.
const EVENTS_PER_INSTANCE: usize = 16;

/// One `name → value` pair a replay produces.
pub type Metric = (&'static str, f64);

/// Scenario-derived sizes shared by the replays.
struct Sizes {
    nodes: usize,
    range_m: f64,
    tick: SimDuration,
    /// Mean number of nodes within radio range of a node.
    neighbours: usize,
    /// Roaming area, speeds and pause of the random-waypoint replay; the
    /// area is also where the other replays scatter their nodes.
    rw: RandomWaypointConfig,
    seed: u64,
    /// Calls per replay and frames per medium replay.
    ops: usize,
    frames: usize,
}

impl Sizes {
    fn of(inputs: &Inputs, smoke: bool) -> Sizes {
        let divisor = if smoke { SMOKE_DIVISOR } else { 1 };
        let scenario = &inputs.scenario;
        // A scenario has one mobility model; a replay of random waypoint on a
        // scenario without it runs on the paper's speeds over that area.
        let paper_rw =
            |area| RandomWaypointConfig::new(area, 10.0, 10.0, SimDuration::from_secs(1));
        let rw = match &scenario.mobility {
            MobilityKind::RandomWaypoint {
                area,
                speed_min,
                speed_max,
                pause,
            } => RandomWaypointConfig::new(*area, *speed_min, *speed_max, *pause),
            MobilityKind::CityCampus => paper_rw(StreetMap::campus().area()),
            MobilityKind::Stationary { area } => paper_rw(*area),
            MobilityKind::StationaryLine { length } => paper_rw(Area::new(*length, 1.0)),
        };
        let range_m = scenario.radio.range_m;
        let nodes = scenario.node_count;
        let in_range =
            nodes as f64 * std::f64::consts::PI * range_m * range_m / rw.area.surface_m2();
        Sizes {
            nodes,
            range_m,
            tick: scenario.mobility_tick,
            neighbours: (in_range.round() as usize).clamp(1, nodes.max(2) - 1),
            rw,
            seed: inputs.plan.first_seed,
            ops: OPS / divisor,
            frames: FRAMES / divisor,
        }
    }

    fn rng(&self, stream: u64) -> SimRng {
        SimRng::seed_from(self.seed).derive(0xBE7C).derive(stream)
    }

    fn scatter(&self, rng: &mut SimRng) -> Vec<Point> {
        (0..self.nodes)
            .map(|_| self.rw.area.random_point(rng))
            .collect()
    }
}

/// Nanoseconds per operation of a timed region.
fn ns_per(started: Instant, operations: usize) -> f64 {
    ratio(started.elapsed().as_nanos() as f64, operations as f64)
}

/// One periodic 1 s timer per node, staggered over the first second: pop the
/// due batch, re-arm each timer a period later. The steady state of a
/// timer-driven world.
fn wheel_schedule_pop(sizes: &Sizes) -> Vec<Metric> {
    let mut wheel = TimerWheel::new();
    for node in 0..sizes.nodes {
        let at = SimTime::from_millis((node * 997 / sizes.nodes + 1) as u64);
        wheel.schedule(at, node);
    }
    let mut batch = Vec::new();
    let mut fired = 0usize;
    let started = Instant::now();
    while fired < sizes.ops {
        let at = wheel.peek_time().expect("periodic timers never drain");
        wheel.pop_due_batch(at, &mut batch);
        for (_, node) in batch.drain(..) {
            fired += 1;
            wheel.schedule(at + SimDuration::from_secs(1), node);
        }
    }
    black_box(&wheel);
    vec![("simkit.wheel.ns_per_schedule_pop", ns_per(started, fired))]
}

/// Cancel a pending timer and arm its replacement, as a protocol does when a
/// heartbeat period or a back-off changes.
fn wheel_cancel_rearm(sizes: &Sizes) -> Vec<Metric> {
    let mut rng = sizes.rng(1);
    let mut wheel = TimerWheel::new();
    let mut handles: Vec<_> = (0..sizes.nodes)
        .map(|node| wheel.schedule(SimTime::from_millis(1 + rng.uniform_u64(0, 1000)), node))
        .collect();
    let delays: Vec<u64> = (0..1024).map(|_| 1 + rng.uniform_u64(0, 2000)).collect();
    let started = Instant::now();
    for op in 0..sizes.ops {
        let node = op % sizes.nodes;
        wheel.cancel(handles[node]);
        handles[node] = wheel.schedule(SimTime::from_millis(delays[op % delays.len()]), node);
    }
    black_box(&wheel);
    vec![(
        "simkit.wheel.ns_per_cancel_rearm",
        ns_per(started, sizes.ops),
    )]
}

/// The wake queue of the mobility tick: pop every node due at the tick and
/// give it its next wake time.
fn wake_queue_update(sizes: &Sizes) -> Vec<Metric> {
    let mut rng = sizes.rng(2);
    let tick = sizes.tick.as_millis().max(1);
    let mut queue = IndexedMinQueue::new();
    for node in 0..sizes.nodes {
        queue.set(node, SimTime::from_millis(rng.uniform_u64(0, 20 * tick)));
    }
    let sleeps: Vec<u64> = (0..1024)
        .map(|_| tick + rng.uniform_u64(0, 20 * tick))
        .collect();
    let mut now = SimTime::ZERO;
    let mut updates = 0usize;
    let started = Instant::now();
    while updates < sizes.ops {
        now += SimDuration::from_millis(tick);
        while let Some((_, node)) = queue.pop_due(now) {
            queue.set(
                node,
                now + SimDuration::from_millis(sleeps[updates % sleeps.len()]),
            );
            updates += 1;
        }
    }
    black_box(&queue);
    vec![("simkit.wake_queue.ns_per_update", ns_per(started, updates))]
}

/// Advances every model of `models` by one tick, round after round.
fn advance_rounds<M: MobilityModel>(models: &mut [M], sizes: &Sizes, rng: &mut SimRng) -> f64 {
    let tick = sizes.tick;
    let rounds = sizes.ops.div_ceil(models.len());
    let started = Instant::now();
    for _ in 0..rounds {
        for model in models.iter_mut() {
            model.advance(tick, rng);
        }
    }
    black_box(&models);
    ns_per(started, rounds * models.len())
}

fn mobility(sizes: &Sizes) -> Vec<Metric> {
    let mut rng = sizes.rng(3);
    let mut walkers: Vec<RandomWaypoint> = (0..sizes.nodes)
        .map(|_| RandomWaypoint::new(sizes.rw, &mut rng))
        .collect();
    let rw = advance_rounds(&mut walkers, sizes, &mut rng);

    let config = CitySectionConfig::paper_campus();
    let mut drivers: Vec<CitySection> = (0..sizes.nodes)
        .map(|_| CitySection::new(config.clone(), &mut rng))
        .collect();
    let city = advance_rounds(&mut drivers, sizes, &mut rng);

    // The dirty-tick query, on models left mid-leg or mid-pause by the above.
    let started = Instant::now();
    let mut total = SimDuration::ZERO;
    for op in 0..sizes.ops {
        let until = walkers[op % walkers.len()].time_to_transition();
        total = total.max(until);
    }
    black_box(total);
    vec![
        ("mobility.rw.ns_per_advance", rw),
        ("mobility.city.ns_per_advance", city),
        (
            "mobility.ns_per_transition_query",
            ns_per(started, sizes.ops),
        ),
    ]
}

fn grid(sizes: &Sizes) -> Vec<Metric> {
    let mut rng = sizes.rng(4);
    let mut positions = sizes.scatter(&mut rng);
    let mut grid = SpatialGrid::new(sizes.range_m, sizes.nodes);
    for (node, &position) in positions.iter().enumerate() {
        grid.update(node, position);
    }
    // One tick of travel at the scenario's top speed, in a drawn direction.
    let step = sizes.rw.speed_max * sizes.tick.as_secs_f64();
    let steps: Vec<(f64, f64)> = (0..1024)
        .map(|_| {
            let angle = rng.uniform_f64(0.0, std::f64::consts::TAU);
            (step * angle.cos(), step * angle.sin())
        })
        .collect();
    let started = Instant::now();
    for op in 0..sizes.ops {
        let node = op % sizes.nodes;
        let (dx, dy) = steps[op % steps.len()];
        let moved = sizes
            .rw
            .area
            .clamp(Point::new(positions[node].x + dx, positions[node].y + dy));
        positions[node] = moved;
        grid.update(node, moved);
    }
    let update = ns_per(started, sizes.ops);

    let mut out = Vec::new();
    let mut candidates = 0usize;
    let started = Instant::now();
    for op in 0..sizes.ops {
        grid.query_into(positions[op % sizes.nodes], sizes.range_m, &mut out);
        candidates += out.len();
    }
    vec![
        ("netsim.grid.ns_per_update", update),
        ("netsim.grid.ns_per_query", ns_per(started, sizes.ops)),
        (
            "netsim.grid.candidates_per_query",
            ratio(candidates as f64, sizes.ops as f64),
        ),
    ]
}

fn medium(sizes: &Sizes, inputs: &Inputs) -> Vec<Metric> {
    const PAYLOAD: usize = 400;
    let radio = &inputs.scenario.radio;
    let mut rng = sizes.rng(5);
    let positions = sizes.scatter(&mut rng);
    let mut medium = RadioMedium::with_positions(radio.clone(), &positions);
    let gap = radio.air_time(PAYLOAD) + SimDuration::from_millis(2);
    let mut outcomes = Vec::new();

    // Isolated frames: nothing else is on the air while one is.
    let mut now = SimTime::ZERO;
    let mut received = 0usize;
    let started = Instant::now();
    for frame in 0..sizes.frames {
        let sender = frame * 7919 % sizes.nodes;
        let (tx, _) = medium.begin_transmission(sender, PAYLOAD, now);
        outcomes.clear();
        medium.complete_transmission_into(tx, &mut rng, &mut outcomes);
        received += outcomes.len();
        now += gap;
    }
    let isolated = ns_per(started, received);

    // Storms: the senders of a round share a neighbourhood and start
    // together, so every reception has interferers to classify.
    let mut neighbourhood = Vec::new();
    let mut pending = Vec::new();
    let mut stormed = 0usize;
    let started = Instant::now();
    for round in 0..sizes.frames / STORM {
        let centre = round * 7919 % sizes.nodes;
        medium.neighbors_into(positions[centre], &mut neighbourhood);
        for slot in 0..STORM {
            let sender = match neighbourhood.get(slot) {
                Some(&near) => near,
                None => (centre + slot) % sizes.nodes,
            };
            pending.push(medium.begin_transmission(sender, PAYLOAD, now).0);
        }
        for tx in pending.drain(..) {
            outcomes.clear();
            medium.complete_transmission_into(tx, &mut rng, &mut outcomes);
            stormed += outcomes.len();
        }
        now += gap;
    }
    vec![
        ("netsim.medium.ns_per_reception", isolated),
        (
            "netsim.medium.ns_per_reception_storm",
            ns_per(started, stormed),
        ),
        (
            "netsim.medium.receivers_per_tx",
            ratio(received as f64, sizes.frames as f64),
        ),
    ]
}

fn event(inputs: &Inputs, sequence: u64) -> Event {
    Event::new(
        EventId::new(ProcessId(1 + sequence % 17), sequence),
        inputs.scenario.event_topic.clone(),
        SimTime::ZERO,
        SimDuration::from_secs(3600),
        400,
    )
}

/// Feeds `EVENTS_PER_INSTANCE` new events to each of a series of fresh
/// protocol instances and times the receptions alone.
fn event_receptions<P: DisseminationProtocol>(
    sizes: &Sizes,
    inputs: &Inputs,
    mut fresh: impl FnMut() -> P,
    callbacks: &mut Callbacks,
) -> f64 {
    let receptions = (sizes.ops / 10).next_multiple_of(EVENTS_PER_INSTANCE);
    let mut out = ActionBuf::new();
    let mut spent = std::time::Duration::ZERO;
    let mut sequence = 0u64;
    for _ in 0..receptions / EVENTS_PER_INSTANCE {
        let mut protocol = fresh();
        let bundles: Vec<Message> = (0..EVENTS_PER_INSTANCE)
            .map(|_| {
                sequence += 1;
                Message::Events {
                    from: ProcessId(2),
                    events: vec![event(inputs, sequence)],
                    recipients: vec![protocol.id()],
                }
            })
            .collect();
        let started = Instant::now();
        for (i, bundle) in bundles.iter().enumerate() {
            protocol.handle_message(bundle, SimTime::from_millis(1000 + i as u64), &mut out);
            callbacks.record(&mut out);
        }
        spent += started.elapsed();
    }
    ratio(spent.as_nanos() as f64, receptions as f64)
}

/// Callbacks made and actions they appended, over all protocol replays.
#[derive(Default)]
struct Callbacks {
    calls: usize,
    actions: usize,
}

impl Callbacks {
    fn record(&mut self, out: &mut ActionBuf) {
        self.calls += 1;
        self.actions += out.len();
        out.clear();
    }
}

fn protocols(sizes: &Sizes, inputs: &Inputs) -> Vec<Metric> {
    let config = match &inputs.scenario.protocol {
        ProtocolKind::Frugal(config) => config.clone(),
        ProtocolKind::Flooding(_) => ProtocolConfig::paper_default(),
    };
    let topic = inputs.scenario.subscriber_topic.clone();
    let subscriptions = SubscriptionSet::single(topic.clone());
    let me = ProcessId(0);
    let neighbour = |i: usize| ProcessId(1 + i as u64);
    let heartbeats: Vec<Message> = (0..sizes.neighbours)
        .map(|i| Message::Heartbeat {
            from: neighbour(i),
            subscriptions: subscriptions.clone(),
            speed: Some(sizes.rw.speed_max),
        })
        .collect();
    // A subscribed process that has heard every neighbour once.
    let settled = |out: &mut ActionBuf| {
        let mut protocol = FrugalProtocol::new(me, config.clone());
        protocol.subscribe(topic.clone(), SimTime::ZERO, out);
        for heartbeat in &heartbeats {
            protocol.handle_message(heartbeat, SimTime::from_millis(1), out);
        }
        out.clear();
        protocol
    };
    let mut out = ActionBuf::new();
    let mut callbacks = Callbacks::default();

    // Each neighbour beats once a second, so the table never goes stale.
    let mut protocol = settled(&mut out);
    let spacing = 1000.0 / sizes.neighbours as f64;
    let started = Instant::now();
    for op in 0..sizes.ops {
        let now = SimTime::from_millis(1000 + (op as f64 * spacing) as u64);
        protocol.handle_message(&heartbeats[op % heartbeats.len()], now, &mut out);
        callbacks.record(&mut out);
    }
    let heartbeat_rx = ns_per(started, sizes.ops);

    let mut protocol = settled(&mut out);
    let timers = sizes.ops / 10;
    let started = Instant::now();
    for op in 0..timers {
        let now = SimTime::from_millis(1000 + op as u64);
        protocol.handle_timer(TimerKind::Heartbeat, now, &mut out);
        callbacks.record(&mut out);
    }
    let heartbeat_timer = ns_per(started, timers);

    let event_rx = event_receptions(
        sizes,
        inputs,
        || settled(&mut ActionBuf::new()),
        &mut callbacks,
    );
    let flooding_rx = event_receptions(
        sizes,
        inputs,
        || {
            let mut protocol = FloodingProtocol::new(me, FloodingPolicy::Simple);
            protocol.subscribe(topic.clone(), SimTime::ZERO, &mut ActionBuf::new());
            protocol
        },
        &mut Callbacks::default(),
    );

    let mut table = EventTable::new(config.event_table_capacity);
    let events: Vec<Event> = (0..config.event_table_capacity.min(sizes.ops) as u64)
        .map(|sequence| event(inputs, sequence))
        .collect();
    let rounds = (sizes.ops / 10).div_ceil(events.len());
    let mut spent = std::time::Duration::ZERO;
    for _ in 0..rounds {
        table.clear();
        let batch = events.clone();
        let started = Instant::now();
        for event in batch {
            let _ = black_box(table.insert(event, SimTime::from_secs(1)));
        }
        spent += started.elapsed();
    }
    let insert = ratio(spent.as_nanos() as f64, (rounds * events.len()) as f64);

    let mut neighbourhood =
        NeighborhoodTable::with_departed_memory(config.departed_memory_capacity);
    let started = Instant::now();
    for op in 0..sizes.ops {
        neighbourhood.upsert(
            neighbour(op % sizes.neighbours),
            subscriptions.clone(),
            Some(sizes.rw.speed_max),
            SimTime::from_millis(op as u64),
        );
    }
    black_box(&neighbourhood);
    let upsert = ns_per(started, sizes.ops);

    let event_topic = &inputs.scenario.event_topic;
    let started = Instant::now();
    let mut matched = 0usize;
    for _ in 0..sizes.ops {
        matched += usize::from(black_box(&subscriptions).matches(black_box(event_topic)));
    }
    black_box(matched);
    let covers = ns_per(started, sizes.ops);

    vec![
        ("frugal.protocol.ns_per_heartbeat_rx", heartbeat_rx),
        ("frugal.protocol.ns_per_heartbeat_timer", heartbeat_timer),
        ("frugal.protocol.ns_per_event_rx", event_rx),
        (
            "frugal.protocol.actions_per_callback",
            ratio(callbacks.actions as f64, callbacks.calls as f64),
        ),
        ("frugal.flooding.ns_per_event_rx", flooding_rx),
        ("frugal.event_table.ns_per_insert", insert),
        ("frugal.neighborhood.ns_per_upsert", upsert),
        ("pubsub.ns_per_covers", covers),
    ]
}

/// Runs every replay, each inside a span named after its layer.
pub fn replay(inputs: &Inputs, smoke: bool, tracer: &mut Tracer) -> Vec<Metric> {
    let sizes = Sizes::of(inputs, smoke);
    tracer.set_seed(sizes.seed);
    let mut metrics = Vec::new();
    metrics.extend(tracer.span("simkit.wheel.schedule_pop", || wheel_schedule_pop(&sizes)));
    metrics.extend(tracer.span("simkit.wheel.cancel_rearm", || wheel_cancel_rearm(&sizes)));
    metrics.extend(tracer.span("simkit.wake_queue", || wake_queue_update(&sizes)));
    metrics.extend(tracer.span("mobility", || mobility(&sizes)));
    metrics.extend(tracer.span("netsim.grid", || grid(&sizes)));
    metrics.extend(tracer.span("netsim.medium", || medium(&sizes, inputs)));
    metrics.extend(tracer.span("frugal+pubsub", || protocols(&sizes, inputs)));
    metrics
}
