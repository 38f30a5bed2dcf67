//! The simulation world: nodes, radio medium and the discrete-event loop.
//!
//! [`World`] ties every substrate together: each node owns a dissemination
//! protocol (frugal or a flooding baseline), a mobility model and a private
//! random stream; the shared [`RadioMedium`] decides who hears each broadcast
//! and whether frames collide; the event queue drives timers, transmissions,
//! mobility ticks and scheduled publications. Running a world to completion
//! yields a [`RunReport`] with the reliability and frugality figures of that
//! run.
//!
//! Mobility is **event-driven**: every node has one entry in an indexed wake
//! queue ([`IndexedMinQueue`]) keyed by the earliest virtual time its movement
//! state can change ([`mobility::MobilityModel::time_to_transition`]). A
//! mobility tick pops and advances only the due nodes — moving nodes and
//! pauses that just ended — so a tick over a mostly-paused population costs
//! O(waking · log n) instead of O(nodes). Skipped pause time is caught up in
//! one exact integer-millisecond chunk, keeping positions, RNG streams and
//! reports bit-identical to the original advance-everyone path, which
//! survives as the **one reference oracle** of the engine: the doc-hidden
//! [`World::set_naive_mobility`], single-threaded by construction.
//!
//! The event loop itself is **batched**: the scheduler is a hierarchical
//! timer wheel ([`TimerWheel`]) and the world drains all the events sharing
//! a timestamp in one call, so a 10k-node heartbeat wave costs one staged
//! slot drain instead of 10k binary-heap pops. Protocol timers live in a
//! dense per-node `[Option<EventHandle>; TimerKind::COUNT]` slot table —
//! arming, re-arming and cancelling on the protocol hot path does no
//! hashing — and that same table is what keeps eager batch draining honest:
//! a timer event only fires if its handle still matches the armed slot, so a
//! timer cancelled or re-armed by an earlier event of its own batch is
//! skipped exactly as one-at-a-time popping would have skipped it.
//!
//! # One loop, one coordinator
//!
//! A world is two halves. The `Coordinator` owns everything the sequential
//! dispatch order serializes — clock, wheel, medium, timer slots, frame slab,
//! MAC RNG, publications, the wake queue — and carries the action commit,
//! the timer fire check and the mobility tick's wake bookkeeping as methods.
//! `NodeArrays` holds the per-node state, structure-of-arrays (cold boxed
//! protocol/mobility state plus the hot last-advance times).
//!
//! There is one event loop, [`World::run_until`], at every shard count.
//! [`World::set_shards`] changes one handler: a completed frame's delivery
//! callbacks fork to worker threads (`world::shard`) and commit in the same
//! ascending receiver order. Delivery is the only per-node work of any size
//! in a batch; every other handler stays serial, so there is nothing to
//! segment and no second copy of a handler to keep in step.
//!
//! Protocol callbacks append into one world-owned [`ActionBuf`] whose action
//! vector and pooled message vectors cycle in place — together with the
//! frame-slot free list this makes the steady-state event path allocation
//! free (pinned by the `alloc_free_steady_state` integration test).

mod shard;

use crate::report::{EventOutcome, NodeReport, RunReport};
use crate::scenario::{MobilityKind, ProtocolKind, PublisherChoice, Scenario, ScenarioError};
use frugal::{
    Action, ActionBuf, DisseminationProtocol, FloodingProtocol, FrugalProtocol, Message,
    ProtocolConfig, ProtocolMetrics, TimerKind,
};
use mobility::{
    BoxedMobility, CitySection, CitySectionConfig, Point, RandomWaypoint, RandomWaypointConfig,
    Stationary,
};
use netsim::{RadioMedium, ReceptionOutcome, TrafficCounters, TxId};
use pubsub::{EventId, ProcessId, Topic};
use simkit::{EventHandle, IndexedMinQueue, NodeId, SimDuration, SimRng, SimTime, TimerWheel};

/// The cold half of one simulated process: protocol + movement + private
/// randomness, all behind pointers. The per-tick hot field (the last-advance
/// time) lives in a parallel array of [`NodeArrays`] instead, so the event
/// loop walks dense cache lines rather than hopping through these structs.
#[derive(Debug)]
struct SimNode {
    /// Absent only while a shard worker holds it, inside one sharded
    /// delivery (see `world::shard`).
    protocol: Option<Box<dyn DisseminationProtocol>>,
    mobility: BoxedMobility,
    rng: SimRng,
}

/// Why a node's protocol can be missing.
const LENT: &str = "a shard worker holds this node's protocol";

impl SimNode {
    fn protocol(&self) -> &dyn DisseminationProtocol {
        self.protocol.as_deref().expect(LENT)
    }

    fn protocol_mut(&mut self) -> &mut dyn DisseminationProtocol {
        self.protocol.as_deref_mut().expect(LENT)
    }
}

/// A broadcast waiting to go on (or currently on) the air.
#[derive(Debug)]
struct PendingFrame {
    sender: NodeId,
    message: Message,
}

/// Everything the event loop can be asked to do. Node and frame references
/// are 32-bit ([`NodeId`] and a frame-slot index), keeping the scheduler's
/// event payloads dense.
#[derive(Debug, Clone, Copy)]
enum WorldEvent {
    /// Advance every node's position by one mobility tick.
    MobilityTick,
    /// Node `node` subscribes to its assigned topic (staggered at start-up).
    Subscribe { node: NodeId },
    /// A protocol timer of `node` expires.
    Timer { node: NodeId, kind: TimerKind },
    /// The MAC contention jitter of frame `frame` elapsed: put it on the air.
    TxStart { frame: u32 },
    /// Frame `frame` (transmission `tx`) finished: resolve receptions.
    TxEnd { frame: u32, tx: TxId },
    /// Execute scheduled publication number `index`.
    Publish { index: u32 },
    /// The warm-up period ended: snapshot all counters.
    WarmupEnd,
}

/// A record of one event published during the run.
#[derive(Debug, Clone)]
struct PublishedRecord {
    id: EventId,
    publisher: usize,
    topic: Topic,
}

/// Former engagement counters of the sharded engine (see
/// [`World::debug_stats`]), all always 0: the widened windows, fused batches,
/// repartition passes and classification fan-outs they counted were retired
/// from the engine.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorldDebugStats {
    /// Always 0. The three fields stay only because the repository
    /// benchmark (`benchmark/src/workload.rs`) reads them, and `benchmark/`
    /// changes only in a benchmark change, which drops its three
    /// `manet_sim.shard.*` metrics and then this struct.
    pub windows_widened: u64,
    /// Always 0; see `windows_widened`.
    pub batches_fused: u64,
    /// Always 0; see `windows_widened`.
    pub repartitions: u64,
}

/// The per-node state, structure-of-arrays (indexed by `NodeId::index`):
/// everything a protocol callback or a mobility advance of one node touches,
/// and nothing else. A node's wake time is the coordinator's (its wake-queue
/// key or its place in the active list); sharded delivery lends a worker
/// single protocols by value out of `nodes`.
#[derive(Debug, Default)]
struct NodeArrays {
    nodes: Vec<SimNode>,
    /// Virtual time of each node's last mobility advance (dirty-tick
    /// bookkeeping: skipped nodes are caught up from here).
    last_advance: Vec<SimTime>,
}

/// Advances one node across the tick ending at `now`, catching up any skipped
/// pause time, and returns its next wake time: the earliest virtual time at
/// which its movement state can change. While a node is not moving, ticks
/// strictly before it are skipped entirely — no advance, no grid update, no
/// RNG draw. The world-global effects of the move (grid update, wake-queue
/// routing) are the coordinator's ([`Coordinator::commit_move`]).
fn advance(
    node: &mut SimNode,
    last_advance: &mut SimTime,
    now: SimTime,
    tick: SimDuration,
) -> SimTime {
    // Catch up pause time skipped since the last advance in one exact chunk
    // (pure integer-millisecond countdown, no RNG), then replay the current
    // tick exactly as the naive path would. The chunk cannot cross the pause
    // end: the node would have woken at the earlier tick otherwise.
    let skipped = now - *last_advance;
    if skipped > tick {
        node.mobility.advance(skipped - tick, &mut node.rng);
    }
    node.mobility.advance(tick, &mut node.rng);
    *last_advance = now;
    let speed = node.mobility.speed();
    // Moving nodes are advanced every tick (their position changes); idle
    // nodes sleep until their phase can end. `speed` is already in the
    // protocol from the tick the node stopped, so skipped ticks lose nothing.
    let wake = if speed > 0.0 {
        now
    } else {
        now.saturating_add(node.mobility.time_to_transition())
    };
    node.protocol_mut().update_speed(Some(speed));
    wake
}

/// Everything the sequential dispatch order serializes. Every method that
/// draws MAC randomness or consumes scheduler sequence numbers must be
/// invoked in exactly that order to keep runs bit-identical; the event loop
/// does, and sharded delivery (`shard::Workers`) commits through the same
/// methods in the same order.
#[derive(Debug)]
struct Coordinator {
    scenario: Scenario,
    now: SimTime,
    end: SimTime,
    queue: TimerWheel<WorldEvent>,
    /// The medium owns the node positions (in its spatial grid); the world
    /// pushes moves into it incrementally at every mobility tick.
    medium: RadioMedium,
    /// Dense per-node timer slots: `timer_slots[node][kind.index()]` is the
    /// handle of the armed timer of that kind, if any. Arming, re-arming and
    /// cancelling on the protocol hot path is two array indexations — no
    /// hashing — and the handle match is what validates eagerly drained
    /// batch entries against mid-batch cancellations.
    timer_slots: Vec<[Option<EventHandle>; TimerKind::COUNT]>,
    /// The nodes that subscribe to the measured topic, ascending: searched
    /// at subscribe time, indexed by `PublisherChoice::RandomSubscriber`.
    /// Rebuilt by every populate/reset.
    subscribers: Vec<usize>,
    frames: Vec<Option<PendingFrame>>,
    /// Frame slots whose transmission completed, ready for reuse — the frame
    /// slab stops growing once the network reaches steady state.
    free_frames: Vec<u32>,
    /// Randomness of the shared medium (contention jitter, fringe loss).
    mac_rng: SimRng,
    published: Vec<PublishedRecord>,
    /// Counters captured at the end of the warm-up, subtracted from the final
    /// report so that measurements cover only the steady-state window.
    warmup_metrics: Option<Vec<ProtocolMetrics>>,
    warmup_traffic: Option<Vec<TrafficCounters>>,
    /// Wire-size accounting configuration (heartbeat size, header size, ...).
    sizing: ProtocolConfig,
    /// One entry per **sleeping** node, keyed by its wake time. Moving nodes
    /// live in `active` instead — they are advanced every tick anyway, so
    /// routing them through the heap would cost two O(log n) operations per
    /// node per tick for nothing. Rebuilt on every populate.
    wake_queue: IndexedMinQueue,
    /// The nodes currently moving (advanced every tick), ascending index.
    /// Every node is in exactly one of `active` / `wake_queue`.
    active: Vec<u32>,
    /// Scratch: next tick's active list, built by `commit_move`.
    next_active: Vec<u32>,
    /// Scratch: the sleepers popped as due this tick, sorted ascending.
    woken: Vec<u32>,
    /// Scratch: the buffer `begin_tick` hands out as the due list.
    due: Vec<u32>,
    /// Scratch: every inline protocol callback appends into this one buffer;
    /// its action vector and the pooled message vectors inside it cycle in
    /// place, so the steady-state event path performs no allocation.
    action_buf: ActionBuf,
    /// Scratch: per-receiver outcomes of the transmission being completed.
    outcome_scratch: Vec<(usize, ReceptionOutcome)>,
    /// Scratch: the current same-timestamp event batch, drained from the
    /// scheduler in one call and dispatched in FIFO order.
    batch_scratch: Vec<(EventHandle, WorldEvent)>,
}

impl Coordinator {
    /// Drains `out` (refilled by the caller from one protocol callback of
    /// `node`) and carries each action out. The buffer comes back empty —
    /// with its capacity and message-vector pools intact — ready for the next
    /// event.
    fn commit(&mut self, node: NodeId, out: &mut ActionBuf) {
        for action in out.drain() {
            match action {
                Action::Broadcast(message) => {
                    let jitter = self
                        .mac_rng
                        .jitter(self.scenario.radio.max_contention_jitter);
                    let pending = Some(PendingFrame {
                        sender: node,
                        message,
                    });
                    let frame = match self.free_frames.pop() {
                        Some(slot) => {
                            self.frames[slot as usize] = pending;
                            slot
                        }
                        None => {
                            self.frames.push(pending);
                            u32::try_from(self.frames.len() - 1).expect("frame slab exceeds u32")
                        }
                    };
                    self.queue
                        .schedule(self.now + jitter, WorldEvent::TxStart { frame });
                }
                Action::Deliver(_) => {
                    // Delivery bookkeeping lives in the protocol metrics; the
                    // world has nothing extra to do.
                }
                Action::SetTimer { kind, after } => {
                    self.cancel_timer(node, kind);
                    let handle = self
                        .queue
                        .schedule(self.now + after, WorldEvent::Timer { node, kind });
                    self.timer_slots[node.index()][kind.index()] = Some(handle);
                }
                Action::CancelTimer(kind) => self.cancel_timer(node, kind),
            }
        }
    }

    fn cancel_timer(&mut self, node: NodeId, kind: TimerKind) {
        if let Some(handle) = self.timer_slots[node.index()][kind.index()].take() {
            self.queue.cancel(handle);
        }
    }

    /// Disarms `(node, kind)` if `handle` is still its armed instance, and
    /// says whether it was. Batches are drained eagerly, so a popped timer
    /// event fires only on `true`: an earlier event of the same batch may
    /// have cancelled or re-armed it, and one-at-a-time popping would then
    /// never have surfaced it. Timers fire in the serial handlers at every
    /// shard count, so this check sees every earlier commit of the batch.
    fn take_armed(&mut self, node: NodeId, kind: TimerKind, handle: EventHandle) -> bool {
        let slot = &mut self.timer_slots[node.index()][kind.index()];
        let armed = *slot == Some(handle);
        if armed {
            *slot = None;
        }
        armed
    }

    /// The topic `node` subscribes to at start-up.
    fn subscribe_topic(&self, node: NodeId) -> Topic {
        if self.subscribers.binary_search(&node.index()).is_ok() {
            self.scenario.subscriber_topic.clone()
        } else {
            self.scenario.bystander_topic.clone()
        }
    }

    fn on_tx_start(&mut self, frame: u32) {
        let (sender, size) = match &self.frames[frame as usize] {
            Some(pending) => (
                pending.sender,
                pending.message.wire_size_bytes(&self.sizing),
            ),
            None => return,
        };
        let (tx, ends_at) = self
            .medium
            .begin_transmission(sender.index(), size, self.now);
        self.queue
            .schedule(ends_at, WorldEvent::TxEnd { frame, tx });
    }

    /// Takes the completed frame out of the slab. The slot is free for the
    /// next broadcast; the slab stops growing once the number of concurrently
    /// in-flight frames peaks.
    fn take_frame(&mut self, frame: u32) -> Option<PendingFrame> {
        let pending = self.frames[frame as usize].take()?;
        self.free_frames.push(frame);
        Some(pending)
    }

    /// Runs `handle_message` inline for every receiver in `outcomes` that
    /// got the frame, committing each one's actions before the next runs.
    fn deliver(
        &mut self,
        nodes: &mut [SimNode],
        outcomes: &[(usize, ReceptionOutcome)],
        message: &Message,
    ) {
        let mut out = std::mem::take(&mut self.action_buf);
        for &(receiver, outcome) in outcomes {
            if outcome == ReceptionOutcome::Received {
                nodes[receiver]
                    .protocol_mut()
                    .handle_message(message, self.now, &mut out);
                self.commit(NodeId::from_index(receiver), &mut out);
            }
        }
        self.action_buf = out;
    }

    /// Opens a mobility tick at `now`: returns every due node — the moving
    /// ones (the `active` list) plus the sleepers whose wake time has come
    /// (drained from the wake queue) — ascending, which is the order the
    /// reference advance-everyone walk visits them in. A tick over a
    /// mostly-paused population never touches the sleeping nodes, and a
    /// moving node costs no heap traffic at all: it enters the queue once
    /// when it stops and leaves it once when its pause can end. Hand the list
    /// back through [`Coordinator::end_tick`].
    fn begin_tick(&mut self, now: SimTime) -> Vec<u32> {
        self.next_active.clear();
        self.woken.clear();
        while let Some((_, index)) = self.wake_queue.pop_due(now) {
            self.woken.push(index as u32);
        }
        let mut due = std::mem::take(&mut self.due);
        if self.woken.is_empty() {
            // Nobody woke: the movers are the due list as they stand
            // (`end_tick` replaces `active` wholesale).
            std::mem::swap(&mut due, &mut self.active);
            return due;
        }
        // Pops arrive in (wake, id) order. A node is in exactly one of the
        // two lists, so sorting and a plain two-way merge restore ascending
        // index order.
        self.woken.sort_unstable();
        due.clear();
        let (mut a, mut w) = (0usize, 0usize);
        loop {
            due.push(match (self.active.get(a), self.woken.get(w)) {
                (Some(&x), Some(&y)) if x < y => {
                    a += 1;
                    x
                }
                (_, Some(&y)) => {
                    w += 1;
                    y
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (None, None) => break,
            });
        }
        due
    }

    /// Replays one advanced node's move: grid update, then routing — still
    /// (or again) moving at `now` means due at every tick, so it stays dense
    /// in the next active list; otherwise it sleeps in the wake queue until
    /// `wake`. Callers commit in ascending node order.
    fn commit_move(&mut self, node: u32, position: Point, wake: SimTime, now: SimTime) {
        let index = node as usize;
        self.medium.update_position(index, position);
        if wake <= now {
            self.next_active.push(node);
        } else {
            self.wake_queue.set(index, wake);
        }
    }

    /// Closes the tick opened by [`Coordinator::begin_tick`]: the nodes
    /// `commit_move` kept moving become the active list.
    fn end_tick(&mut self, due: Vec<u32>) {
        self.due = due;
        std::mem::swap(&mut self.active, &mut self.next_active);
    }
}

/// The complete state of one simulation run.
#[derive(Debug)]
pub struct World {
    core: Coordinator,
    pop: NodeArrays,
    seed: u64,
    /// How many shards `run_until` splits a frame's receivers across (1 =
    /// every callback inline). The choice survives [`World::reset`].
    shards: usize,
    /// Set by [`World::set_naive_mobility`]: the reference oracle. Survives
    /// [`World::reset`].
    naive_mobility: bool,
}

impl World {
    /// Builds a world for `scenario` with the given `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the scenario fails validation.
    pub fn new(scenario: Scenario, seed: u64) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let sizing = match &scenario.protocol {
            ProtocolKind::Frugal(config) => config.clone(),
            ProtocolKind::Flooding(_) => ProtocolConfig::paper_default(),
        };
        let core = Coordinator {
            now: SimTime::ZERO,
            end: SimTime::ZERO + scenario.duration,
            queue: TimerWheel::new(),
            medium: RadioMedium::new(scenario.radio.clone(), scenario.node_count),
            timer_slots: Vec::new(),
            subscribers: Vec::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            mac_rng: SimRng::seed_from(seed).derive(0xBEEF).derive(7),
            published: Vec::new(),
            warmup_metrics: None,
            warmup_traffic: None,
            sizing,
            scenario,
            wake_queue: IndexedMinQueue::new(),
            active: Vec::new(),
            next_active: Vec::new(),
            woken: Vec::new(),
            due: Vec::new(),
            action_buf: ActionBuf::new(),
            outcome_scratch: Vec::new(),
            batch_scratch: Vec::new(),
        };
        let mut world = World {
            core,
            pop: NodeArrays::default(),
            seed,
            shards: 1,
            naive_mobility: false,
        };
        world.populate(seed);
        Ok(world)
    }

    /// Re-initializes this world for a fresh run of the **same scenario** with
    /// a different `seed`, recycling every recyclable allocation: the node
    /// vector **including each node's boxed protocol and mobility state**
    /// (reset in place through [`DisseminationProtocol::reset`] and
    /// [`mobility::MobilityModel::reset`] — event tables, neighborhood maps
    /// and flood stores are cleared, not rebuilt), the medium's spatial-grid
    /// buckets, traffic counters and transmission slab, the event queue, the
    /// wake queue, the timer table, and the frame and publication records. A
    /// reset world produces a report bit-identical to
    /// `World::new(scenario, seed)` — that equivalence is pinned by the
    /// integration determinism suite.
    ///
    /// Use through [`WorldArena`] when sweeping thousands of seeds.
    pub fn reset(&mut self, seed: u64) {
        self.seed = seed;
        let core = &mut self.core;
        core.now = SimTime::ZERO;
        core.end = SimTime::ZERO + core.scenario.duration;
        // `TimerWheel::clear` also restarts the handle space, so a recycled
        // world carries no dead handles (or unbounded sequence growth) across
        // seeds.
        core.queue.clear();
        core.frames.clear();
        core.free_frames.clear();
        core.published.clear();
        core.warmup_metrics = None;
        core.warmup_traffic = None;
        core.mac_rng = SimRng::seed_from(seed).derive(0xBEEF).derive(7);
        core.medium.reset();
        self.populate(seed);
    }

    /// Builds a node's mobility model, drawing its initial state from the
    /// node's private stream. [`mobility::MobilityModel::reset`] must stay
    /// bit-compatible with this for the models that support it.
    fn build_mobility(
        kind: &MobilityKind,
        index: usize,
        node_count: usize,
        node_rng: &mut SimRng,
    ) -> BoxedMobility {
        match kind {
            MobilityKind::RandomWaypoint {
                area,
                speed_min,
                speed_max,
                pause,
            } => {
                let config = RandomWaypointConfig::new(*area, *speed_min, *speed_max, *pause);
                Box::new(RandomWaypoint::new(config, node_rng))
            }
            MobilityKind::CityCampus => {
                let config = CitySectionConfig::paper_campus();
                Box::new(CitySection::new(config, node_rng))
            }
            MobilityKind::Stationary { area } => {
                Box::new(Stationary::new(area.random_point(node_rng)))
            }
            MobilityKind::StationaryLine { length } => {
                let spacing = if node_count > 1 {
                    length / (node_count - 1) as f64
                } else {
                    0.0
                };
                Box::new(Stationary::new(Point::new(index as f64 * spacing, 0.0)))
            }
        }
    }

    /// Builds a node's dissemination protocol instance.
    fn build_protocol(kind: &ProtocolKind, index: usize) -> Box<dyn DisseminationProtocol> {
        match kind {
            ProtocolKind::Frugal(config) => {
                Box::new(FrugalProtocol::new(ProcessId(index as u64), config.clone()))
            }
            ProtocolKind::Flooding(policy) => {
                Box::new(FloodingProtocol::new(ProcessId(index as u64), *policy))
            }
        }
    }

    /// Builds the per-seed state — nodes, initial positions, the initial
    /// event schedule and the wake queue — exactly the same way for a fresh
    /// world and a reset one. Expects `queue`/`frames`/`published` empty,
    /// `medium` counters zeroed, and `mac_rng` freshly derived for `seed`.
    ///
    /// When the node vector already holds one node per process (an arena
    /// reset of the same scenario), each node's protocol and mobility boxes
    /// are reset **in place**; only instances whose `reset` hook declines
    /// (e.g. [`Stationary`], whose position is drawn here) are rebuilt. The
    /// RNG draw order is identical either way, so recycled worlds stay
    /// bit-identical to fresh ones.
    fn populate(&mut self, seed: u64) {
        let World { core, pop, .. } = self;
        let master = SimRng::seed_from(seed);
        let mut layout_rng = master.derive(0xA11);
        let n = core.scenario.node_count;

        // Choose which nodes subscribe to the measured topic.
        let subscriber_count = core.scenario.subscriber_count().min(n);
        core.subscribers = layout_rng.choose_indices(n, subscriber_count);

        // Build (or recycle) the nodes: protocol + mobility + private stream.
        let recycle = pop.nodes.len() == n;
        if !recycle {
            pop.nodes.clear();
            pop.nodes.reserve(n);
        }
        for index in 0..n {
            let mut node_rng = master.derive(1000 + index as u64);
            if recycle {
                let node = &mut pop.nodes[index];
                if !node.mobility.reset(&mut node_rng) {
                    node.mobility =
                        Self::build_mobility(&core.scenario.mobility, index, n, &mut node_rng);
                }
                if !node.protocol_mut().reset() {
                    node.protocol = Some(Self::build_protocol(&core.scenario.protocol, index));
                }
                let position = node.mobility.position();
                node.rng = node_rng;
                core.medium.update_position(index, position);
            } else {
                let mobility =
                    Self::build_mobility(&core.scenario.mobility, index, n, &mut node_rng);
                let protocol = Self::build_protocol(&core.scenario.protocol, index);
                core.medium.update_position(index, mobility.position());
                pop.nodes.push(SimNode {
                    protocol: Some(protocol),
                    mobility,
                    rng: node_rng,
                });
            }
        }
        // Every node is due at the first tick (all `active`): it initializes
        // the protocol's speed and sorts each node into `active` or the wake
        // queue.
        pop.last_advance.clear();
        pop.last_advance.resize(n, SimTime::ZERO);
        core.wake_queue.clear();
        core.active.clear();
        core.active.extend(0..n as u32);
        // No timer is armed before the run starts.
        core.timer_slots.clear();
        core.timer_slots.resize(n, [None; TimerKind::COUNT]);

        // Stagger the initial subscriptions over one heartbeat period so the
        // network does not start with every node beaconing in the same slot.
        let stagger_window = core
            .sizing
            .hb_upper_bound
            .max(SimDuration::from_millis(200));
        for node in 0..n {
            let offset = core.mac_rng.jitter(stagger_window);
            core.queue.schedule(
                SimTime::ZERO + offset,
                WorldEvent::Subscribe {
                    node: NodeId::from_index(node),
                },
            );
        }
        // Mobility ticks.
        core.queue.schedule(
            SimTime::ZERO + core.scenario.mobility_tick,
            WorldEvent::MobilityTick,
        );
        // Scheduled publications.
        for (index, publication) in core.scenario.publications.iter().enumerate() {
            core.queue.schedule(
                publication.at,
                WorldEvent::Publish {
                    index: u32::try_from(index).expect("publication index exceeds u32"),
                },
            );
        }
        // Warm-up boundary.
        if !core.scenario.warmup.is_zero() {
            core.queue
                .schedule(SimTime::ZERO + core.scenario.warmup, WorldEvent::WarmupEnd);
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The scenario this world simulates.
    pub fn scenario(&self) -> &Scenario {
        &self.core.scenario
    }

    /// Selects the **reference oracle**: the original mobility path that
    /// fully advances every node on every tick. Semantically identical to
    /// the default engine at every shard count (the `shard_equivalence`
    /// oracle proptest pins whole reports bit-identical); kept as the
    /// reference for the equivalence proptests. Call before [`World::run`];
    /// `false` restores the default.
    #[doc(hidden)]
    pub fn set_naive_mobility(&mut self, naive: bool) {
        self.naive_mobility = naive;
    }

    /// Splits each completed frame's delivery callbacks across `shards`
    /// threads (clamped to at least 1; 1 runs every callback inline).
    /// Sharded runs are **bit-identical** to serial ones — same reports, same
    /// RNG streams — because reception, every random draw and every
    /// scheduler mutation stay in the sequential dispatch order, and the
    /// receivers' actions commit in ascending receiver order either way (see
    /// the `world::shard` module). Every other handler runs serially at any
    /// shard count. The choice survives [`World::reset`]. This is the only
    /// way to shard a world: the multi-seed runner and the binaries run every
    /// world on one shard, and parallelize across seeds instead.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The retired engagement counters of the sharded engine: always
    /// [`WorldDebugStats::default`], kept for the repository benchmark.
    pub fn debug_stats(&self) -> WorldDebugStats {
        WorldDebugStats::default()
    }

    /// Runs the simulation to the end of the scenario and returns the report.
    pub fn run(mut self) -> RunReport {
        self.run_mut()
    }

    /// Like [`World::run`], but borrows the world so its allocations can be
    /// recycled afterwards with [`World::reset`].
    ///
    /// The loop advances one **timestamp batch** at a time: every event
    /// sharing the earliest pending timestamp is drained from the scheduler
    /// in one call and dispatched in FIFO order. Timer events are validated
    /// against the dense slot table at dispatch (see
    /// `Coordinator::take_armed`), so eager draining cannot fire a timer
    /// that an earlier event of the same batch cancelled or re-armed.
    pub fn run_mut(&mut self) -> RunReport {
        self.run_until(self.core.end);
        self.report()
    }

    /// Advances the simulation until every event at or before `deadline` has
    /// been dispatched (the scenario end still caps the run), leaving the
    /// world ready to continue. Stepping a run in slices is what lets the
    /// allocation-accounting tests warm a world up, open a measurement
    /// window, and assert over just the steady-state slice; a single
    /// `run_until(end)` is exactly [`World::run_mut`] minus the report.
    ///
    /// With more than one shard the call opens a thread scope and spawns the
    /// delivery workers for its whole length, unless nothing is due.
    pub fn run_until(&mut self, deadline: SimTime) {
        let deadline = deadline.min(self.core.end);
        let shards = self.shards.min(self.pop.nodes.len());
        let due = matches!(self.core.queue.peek_time(), Some(at) if at <= deadline);
        if shards > 1 && due {
            let nodes = self.pop.nodes.len();
            std::thread::scope(|scope| {
                // The workers drop at the end of the scope, or while a panic
                // unwinds; either way their work senders hang up and the
                // worker threads return.
                let mut workers = shard::Workers::spawn(scope, nodes, shards);
                self.drain(deadline, Some(&mut workers));
            });
        } else {
            self.drain(deadline, None);
        }
    }

    /// The event loop: dispatches batch after batch up to `deadline`.
    fn drain(&mut self, deadline: SimTime, mut workers: Option<&mut shard::Workers>) {
        let mut batch = std::mem::take(&mut self.core.batch_scratch);
        while let Some(at) = self.core.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.core.now = at;
            batch.clear();
            self.core.queue.pop_due_batch(at, &mut batch);
            for (handle, event) in batch.drain(..) {
                self.dispatch(handle, event, workers.as_deref_mut());
            }
        }
        self.core.batch_scratch = batch;
    }

    fn dispatch(
        &mut self,
        handle: EventHandle,
        event: WorldEvent,
        workers: Option<&mut shard::Workers>,
    ) {
        match event {
            WorldEvent::MobilityTick => self.on_mobility_tick(),
            WorldEvent::Subscribe { node } => {
                let topic = self.core.subscribe_topic(node);
                self.callback(node, |protocol, now, out| {
                    protocol.subscribe(topic, now, out)
                });
            }
            WorldEvent::Timer { node, kind } => {
                if self.core.take_armed(node, kind, handle) {
                    self.callback(node, |protocol, now, out| {
                        protocol.handle_timer(kind, now, out)
                    });
                }
            }
            WorldEvent::TxStart { frame } => self.core.on_tx_start(frame),
            WorldEvent::TxEnd { frame, tx } => self.on_tx_end(frame, tx, workers),
            WorldEvent::Publish { index } => self.on_publish(index),
            WorldEvent::WarmupEnd => {
                let core = &mut self.core;
                let metrics = self.pop.nodes.iter();
                let metrics = metrics.map(|node| node.protocol().metrics().clone());
                core.warmup_metrics = Some(metrics.collect());
                core.warmup_traffic = Some(core.medium.all_counters().to_vec());
            }
        }
    }

    /// Runs one protocol callback of `node` inline and commits what it
    /// emitted.
    fn callback(
        &mut self,
        node: NodeId,
        run: impl FnOnce(&mut dyn DisseminationProtocol, SimTime, &mut ActionBuf),
    ) {
        let mut out = std::mem::take(&mut self.core.action_buf);
        let protocol = self.pop.nodes[node.index()].protocol_mut();
        run(protocol, self.core.now, &mut out);
        self.core.commit(node, &mut out);
        self.core.action_buf = out;
    }

    fn on_mobility_tick(&mut self) {
        let World {
            core,
            pop,
            naive_mobility,
            ..
        } = self;
        let (now, tick) = (core.now, core.scenario.mobility_tick);
        if *naive_mobility {
            // The reference oracle: advance every node unconditionally.
            for (index, node) in pop.nodes.iter_mut().enumerate() {
                node.mobility.advance(tick, &mut node.rng);
                core.medium.update_position(index, node.mobility.position());
                let speed = node.mobility.speed();
                node.protocol_mut().update_speed(Some(speed));
            }
        } else {
            let due = core.begin_tick(now);
            for &node in &due {
                let index = node as usize;
                let wake = advance(
                    &mut pop.nodes[index],
                    &mut pop.last_advance[index],
                    now,
                    tick,
                );
                let position = pop.nodes[index].mobility.position();
                core.commit_move(node, position, wake, now);
            }
            core.end_tick(due);
        }
        let next = now + tick;
        if next <= core.end {
            core.queue.schedule(next, WorldEvent::MobilityTick);
        }
    }

    /// Frame completion: reception resolves here at every shard count (one
    /// MAC RNG draw order); the delivery callbacks run inline, or fork to
    /// the `workers` when the world is sharded.
    fn on_tx_end(&mut self, frame: u32, tx: TxId, workers: Option<&mut shard::Workers>) {
        let World { core, pop, .. } = self;
        let Some(pending) = core.take_frame(frame) else {
            return;
        };
        let mut outcomes = std::mem::take(&mut core.outcome_scratch);
        outcomes.clear();
        core.medium
            .complete_transmission_into(tx, &mut core.mac_rng, &mut outcomes);
        match workers {
            None => {
                core.deliver(&mut pop.nodes, &outcomes, &pending.message);
                // The frame died: reclaim the vectors inside its message so
                // the next broadcast builds on their capacity instead of
                // allocating.
                core.action_buf.recycle_message(pending.message);
            }
            Some(workers) => workers.deliver(core, &mut pop.nodes, &outcomes, pending.message),
        }
        core.outcome_scratch = outcomes;
    }

    /// Publication: resolves the publisher (drawing MAC randomness for the
    /// random choices), runs its publish callback, records the event it
    /// created and commits what it emitted.
    fn on_publish(&mut self, index: u32) {
        let core = &mut self.core;
        let publication = &core.scenario.publications[index as usize];
        let publisher = match publication.publisher {
            PublisherChoice::Node(index) => index,
            PublisherChoice::RandomSubscriber if !core.subscribers.is_empty() => {
                core.subscribers[core.mac_rng.index(core.subscribers.len())]
            }
            PublisherChoice::RandomAny | PublisherChoice::RandomSubscriber => {
                core.mac_rng.index(core.scenario.node_count)
            }
        };
        let topic = publication.topic.clone();
        let mut out = std::mem::take(&mut core.action_buf);
        let id = self.pop.nodes[publisher].protocol_mut().publish(
            topic.clone(),
            publication.validity,
            publication.payload_bytes,
            core.now,
            &mut out,
        );
        core.published.push(PublishedRecord {
            id,
            publisher,
            topic,
        });
        core.commit(NodeId::from_index(publisher), &mut out);
        core.action_buf = out;
    }

    fn report(&self) -> RunReport {
        let core = &self.core;
        let warmup_metrics: &[ProtocolMetrics] = core.warmup_metrics.as_deref().unwrap_or(&[]);
        let warmup_traffic: &[TrafficCounters] = core.warmup_traffic.as_deref().unwrap_or(&[]);

        let nodes: Vec<NodeReport> = self
            .pop
            .nodes
            .iter()
            .enumerate()
            .map(|(index, node)| {
                let metrics = node.protocol().metrics();
                let base = warmup_metrics.get(index);
                let traffic = *core.medium.counters(index);
                let traffic_base = warmup_traffic.get(index).copied().unwrap_or_default();
                NodeReport {
                    events_sent: metrics.events_sent - base.map(|b| b.events_sent).unwrap_or(0),
                    messages_sent: metrics.messages_sent
                        - base.map(|b| b.messages_sent).unwrap_or(0),
                    duplicates: metrics.duplicates_received
                        - base.map(|b| b.duplicates_received).unwrap_or(0),
                    parasites: metrics.parasites_received
                        - base.map(|b| b.parasites_received).unwrap_or(0),
                    delivered: metrics.events_delivered
                        - base.map(|b| b.events_delivered).unwrap_or(0),
                    traffic: TrafficCounters {
                        frames_sent: traffic.frames_sent - traffic_base.frames_sent,
                        bytes_sent: traffic.bytes_sent - traffic_base.bytes_sent,
                        frames_received: traffic.frames_received - traffic_base.frames_received,
                        bytes_received: traffic.bytes_received - traffic_base.bytes_received,
                        frames_lost_collision: traffic.frames_lost_collision
                            - traffic_base.frames_lost_collision,
                        frames_lost_fringe: traffic.frames_lost_fringe
                            - traffic_base.frames_lost_fringe,
                    },
                }
            })
            .collect();

        let events: Vec<EventOutcome> = core
            .published
            .iter()
            .map(|record| {
                // One pass: a node counts as a subscriber if its
                // subscriptions match, and as delivered if it also got it.
                let (mut subscribers, mut delivered) = (0, 0);
                for node in &self.pop.nodes {
                    let protocol = node.protocol();
                    if protocol.subscriptions().matches(&record.topic) {
                        subscribers += 1;
                        delivered += usize::from(protocol.has_delivered(&record.id));
                    }
                }
                EventOutcome {
                    id: record.id,
                    publisher: record.publisher,
                    subscribers,
                    delivered,
                }
            })
            .collect();

        RunReport {
            label: core.scenario.label.clone(),
            protocol: core.scenario.protocol.name().to_owned(),
            seed: self.seed,
            events,
            nodes,
        }
    }
}

/// Recycles one [`World`] across the seeds of a sweep.
///
/// `World::new` rebuilds every vector, hash map, grid bucket and per-node
/// protocol/mobility box from scratch; over a multi-thousand-seed sweep that
/// allocation churn dominates short scenarios. An arena keeps the previous
/// seed's world and [`World::reset`]s it for the next seed instead, recycling
/// the node vector — with each node's protocol and mobility state reset **in
/// place** through their `reset` hooks — the medium's grid buckets and
/// counters, the event queue, the wake queue and the frame/publication
/// records. The runner keeps one arena per worker thread.
///
/// Reports are unaffected: a recycled world is bit-identical to a fresh one
/// (pinned by the integration determinism suite).
#[derive(Debug, Default)]
pub struct WorldArena {
    world: Option<World>,
}

impl WorldArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        WorldArena { world: None }
    }

    /// Returns a world ready to run `(scenario, seed)`, reusing the previous
    /// world's allocations when the scenario is unchanged (the common case in
    /// a seed sweep) and building a fresh world otherwise.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if a fresh world has to be built and the
    /// scenario fails validation.
    pub fn checkout(
        &mut self,
        scenario: &Scenario,
        seed: u64,
    ) -> Result<&mut World, ScenarioError> {
        match &mut self.world {
            Some(world) if world.scenario() == scenario => world.reset(seed),
            slot => *slot = Some(World::new(scenario.clone(), seed)?),
        }
        Ok(self.world.as_mut().expect("checkout just filled the slot"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Publication, ScenarioBuilder};
    use frugal::FloodingPolicy;
    use mobility::Area;
    use netsim::RadioConfig;
    use simkit::SimDuration;

    /// A small, dense, fast scenario where dissemination should succeed.
    fn small_scenario(protocol: ProtocolKind) -> Scenario {
        ScenarioBuilder::new()
            .label("small")
            .protocol(protocol)
            .nodes(12)
            .subscriber_fraction(0.75)
            .mobility(MobilityKind::RandomWaypoint {
                area: Area::square(400.0),
                speed_min: 5.0,
                speed_max: 10.0,
                pause: SimDuration::from_secs(1),
            })
            .radio(RadioConfig::ideal(150.0))
            .timing(SimDuration::from_secs(5), SimDuration::from_secs(65))
            .publications(vec![Publication {
                publisher: PublisherChoice::RandomSubscriber,
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(6),
                validity: SimDuration::from_secs(59),
                payload_bytes: 400,
            }])
            .mobility_tick(SimDuration::from_millis(500))
            .build()
            .unwrap()
    }

    #[test]
    fn frugal_disseminates_in_a_dense_network() {
        let scenario = small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let report = World::new(scenario, 42).unwrap().run();
        assert_eq!(report.events.len(), 1);
        assert!(
            report.reliability() > 0.8,
            "a dense 400 m network must reach most subscribers, got {}",
            report.reliability()
        );
        assert!(report.events[0].subscribers >= 8);
    }

    #[test]
    fn simple_flooding_reaches_everyone_but_wastes_traffic() {
        let frugal = World::new(
            small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            7,
        )
        .unwrap()
        .run();
        let flooding = World::new(
            small_scenario(ProtocolKind::Flooding(FloodingPolicy::Simple)),
            7,
        )
        .unwrap()
        .run();
        assert!(flooding.reliability() > 0.9);
        assert!(
            flooding.events_sent_per_process() > frugal.events_sent_per_process() * 5.0,
            "flooding ({}) must send far more events than frugal ({})",
            flooding.events_sent_per_process(),
            frugal.events_sent_per_process()
        );
        assert!(
            flooding.duplicates_per_process() > frugal.duplicates_per_process(),
            "flooding must cause more duplicates"
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_given_seed() {
        let scenario = small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let a = World::new(scenario.clone(), 11).unwrap().run();
        let b = World::new(scenario.clone(), 11).unwrap().run();
        assert_eq!(
            a, b,
            "same scenario + same seed must give identical reports"
        );
        let c = World::new(scenario, 12).unwrap().run();
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn stationary_disconnected_nodes_do_not_receive() {
        // Nodes scattered over a huge area with a tiny radio range: the event
        // cannot spread beyond the publisher.
        let scenario = ScenarioBuilder::new()
            .label("sparse")
            .nodes(10)
            .subscriber_fraction(1.0)
            .mobility(MobilityKind::Stationary {
                area: Area::square(100_000.0),
            })
            .radio(RadioConfig::ideal(10.0))
            .timing(SimDuration::from_secs(1), SimDuration::from_secs(30))
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(0),
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(2),
                validity: SimDuration::from_secs(25),
                payload_bytes: 400,
            }])
            .build()
            .unwrap();
        let report = World::new(scenario, 5).unwrap().run();
        // Only the publisher itself can have delivered the event.
        assert!(report.events[0].delivered <= 1);
        assert!(report.reliability() < 0.2);
    }

    #[test]
    fn city_scenario_runs_and_produces_sane_counters() {
        let scenario = ScenarioBuilder::city()
            .timing(SimDuration::from_secs(10), SimDuration::from_secs(70))
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(3),
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(11),
                validity: SimDuration::from_secs(58),
                payload_bytes: 400,
            }])
            .build()
            .unwrap();
        let report = World::new(scenario, 3).unwrap().run();
        assert_eq!(report.nodes.len(), 15);
        assert_eq!(report.events[0].publisher, 3);
        assert!(report.reliability() >= 0.0 && report.reliability() <= 1.0);
        // Heartbeats flowed, so some bandwidth was consumed.
        assert!(report.bandwidth_kb_per_process() > 0.0);
    }

    #[test]
    fn warmup_snapshot_excludes_warmup_traffic() {
        // Without any publication, all traffic is heartbeats; with a warm-up as
        // long as the run minus a sliver, almost nothing should be counted.
        let base = ScenarioBuilder::new()
            .nodes(8)
            .subscriber_fraction(1.0)
            .mobility(MobilityKind::RandomWaypoint {
                area: Area::square(200.0),
                speed_min: 1.0,
                speed_max: 1.0,
                pause: SimDuration::from_secs(1),
            })
            .radio(RadioConfig::ideal(300.0))
            .publications(vec![]);
        let long_window = base
            .clone()
            .timing(SimDuration::from_secs(1), SimDuration::from_secs(60))
            .build()
            .unwrap();
        let short_window = base
            .timing(SimDuration::from_secs(59), SimDuration::from_secs(60))
            .build()
            .unwrap();
        let long = World::new(long_window, 9).unwrap().run();
        let short = World::new(short_window, 9).unwrap().run();
        assert!(
            short.bandwidth_kb_per_process() < long.bandwidth_kb_per_process() / 4.0,
            "a 1 s measurement window must see far less traffic than a 59 s one ({} vs {})",
            short.bandwidth_kb_per_process(),
            long.bandwidth_kb_per_process()
        );
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        let mut scenario = small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        scenario.node_count = 0;
        assert!(World::new(scenario, 1).is_err());
    }

    /// A pause-heavy scenario where the dirty-tick path actually skips nodes.
    fn pause_heavy_scenario() -> Scenario {
        ScenarioBuilder::new()
            .label("pause-heavy")
            .nodes(10)
            .subscriber_fraction(1.0)
            .mobility(MobilityKind::RandomWaypoint {
                area: Area::square(150.0),
                speed_min: 20.0,
                speed_max: 30.0,
                pause: SimDuration::from_secs(12),
            })
            .radio(RadioConfig::ideal(120.0))
            .timing(SimDuration::from_secs(3), SimDuration::from_secs(40))
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(1),
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(4),
                validity: SimDuration::from_secs(30),
                payload_bytes: 400,
            }])
            .mobility_tick(SimDuration::from_millis(500))
            .build()
            .unwrap()
    }

    #[test]
    fn event_driven_mobility_matches_naive_reference() {
        for seed in [1u64, 2, 3] {
            let event = World::new(pause_heavy_scenario(), seed).unwrap().run();
            let mut naive_world = World::new(pause_heavy_scenario(), seed).unwrap();
            naive_world.set_naive_mobility(true);
            assert_eq!(
                event,
                naive_world.run(),
                "event-driven diverged from the naive reference for seed {seed}"
            );
        }
        // Stationary nodes sleep forever after the first tick; reports must
        // still match the advance-everyone reference.
        let stationary = ScenarioBuilder::new()
            .label("stationary")
            .nodes(8)
            .subscriber_fraction(1.0)
            .mobility(MobilityKind::Stationary {
                area: Area::square(300.0),
            })
            .radio(RadioConfig::ideal(200.0))
            .timing(SimDuration::from_secs(2), SimDuration::from_secs(20))
            .publications(vec![])
            .build()
            .unwrap();
        let event = World::new(stationary.clone(), 5).unwrap().run();
        let mut naive_world = World::new(stationary, 5).unwrap();
        naive_world.set_naive_mobility(true);
        assert_eq!(event, naive_world.run());
    }

    #[test]
    fn reset_world_reproduces_fresh_world_reports() {
        for scenario in [
            small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default())),
            // Flooding exercises the baselines' in-place protocol reset.
            small_scenario(ProtocolKind::Flooding(FloodingPolicy::Simple)),
        ] {
            let mut reused = World::new(scenario.clone(), 1).unwrap();
            let _ = reused.run_mut();
            for seed in [9u64, 3, 7] {
                reused.reset(seed);
                let recycled = reused.run_mut();
                let fresh = World::new(scenario.clone(), seed).unwrap().run();
                assert_eq!(recycled, fresh, "reset world diverged for seed {seed}");
            }
        }
    }

    #[test]
    fn reset_world_reproduces_fresh_reports_in_the_city_model() {
        // City-section nodes carry route vectors and pause state; the in-place
        // mobility reset must redraw them exactly like a fresh construction.
        let scenario = ScenarioBuilder::city()
            .timing(SimDuration::from_secs(5), SimDuration::from_secs(40))
            .publications(vec![Publication {
                publisher: PublisherChoice::Node(2),
                topic: ".news.local".parse().unwrap(),
                at: SimTime::from_secs(6),
                validity: SimDuration::from_secs(30),
                payload_bytes: 400,
            }])
            .build()
            .unwrap();
        let mut reused = World::new(scenario.clone(), 1).unwrap();
        let _ = reused.run_mut();
        for seed in [4u64, 2] {
            reused.reset(seed);
            let recycled = reused.run_mut();
            let fresh = World::new(scenario.clone(), seed).unwrap().run();
            assert_eq!(recycled, fresh, "city reset world diverged for seed {seed}");
        }
    }

    #[test]
    fn arena_checkout_recycles_across_seeds_and_scenarios() {
        let frugal = small_scenario(ProtocolKind::Frugal(ProtocolConfig::paper_default()));
        let flooding = small_scenario(ProtocolKind::Flooding(FloodingPolicy::Simple));
        let mut arena = WorldArena::new();
        // Same scenario: second checkout reuses the first world.
        let a = arena.checkout(&frugal, 4).unwrap().run_mut();
        let b = arena.checkout(&frugal, 5).unwrap().run_mut();
        assert_eq!(a, World::new(frugal.clone(), 4).unwrap().run());
        assert_eq!(b, World::new(frugal.clone(), 5).unwrap().run());
        // Scenario switch: the arena rebuilds and still matches fresh runs.
        let c = arena.checkout(&flooding, 4).unwrap().run_mut();
        assert_eq!(c, World::new(flooding, 4).unwrap().run());
        // Invalid scenarios surface their error through checkout.
        let mut broken = frugal;
        broken.node_count = 0;
        assert!(arena.checkout(&broken, 1).is_err());
    }
}
