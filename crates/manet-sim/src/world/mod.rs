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
//! reports bit-identical to the reference full scan (kept as the doc-hidden
//! [`World::set_scan_mobility`], itself equivalent to the original
//! advance-everyone path behind [`World::set_naive_mobility`]).
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
//! skipped exactly as the reference heap would have skipped it. The heap
//! path survives as the doc-hidden [`World::set_heap_queue`], pinned
//! bit-identical by the scheduler equivalence suite.
//!
//! Node state is laid out **structure-of-arrays**: the per-tick hot fields —
//! wake times, last-advance times, timer slots, subscriber membership — live
//! in parallel arrays owned by the world (positions live in the medium's
//! spatial grid), indexed by the dense [`NodeId`]; only the cold boxed
//! protocol and mobility state stays behind the per-node struct. Protocol
//! callbacks append into one world-owned [`ActionBuf`] whose action vector
//! and pooled message vectors cycle in place — together with the frame-slot
//! free list this makes the steady-state event path allocation free (pinned
//! by the `alloc_free_steady_state` integration test).

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
use simkit::{
    BitSet, EventHandle, EventQueue, IndexedMinQueue, NodeId, SimDuration, SimRng, SimTime,
    TimerWheel,
};

/// The cold half of one simulated process: protocol + movement + private
/// randomness, all behind pointers. The per-tick hot fields (wake times,
/// last-advance times, timer slots, subscriber membership) live in parallel
/// arrays on [`World`] instead, so the event loop walks dense cache lines
/// rather than hopping through these structs.
#[derive(Debug)]
struct SimNode {
    protocol: Box<dyn DisseminationProtocol>,
    mobility: BoxedMobility,
    rng: SimRng,
}

/// A broadcast waiting to go on (or currently on) the air.
#[derive(Debug)]
struct PendingFrame {
    sender: NodeId,
    message: Message,
}

/// Everything the event loop can be asked to do. Node and frame references
/// are 32-bit ([`NodeId`] and a frame-slot index), keeping the scheduler's
/// event payloads dense (and `Copy`, so the sharded engine can segment a
/// drained batch without consuming it).
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

/// The event scheduler driving the run: the production timer wheel or the
/// binary-heap reference. Both implement the same dispatch contract — pops
/// in `(time, FIFO)` order, batched same-timestamp drains, cancellation by
/// handle — and the scheduler equivalence suite pins the whole-run reports
/// bit-identical across the two. (The implementations differ only in
/// signals the world never reads: the heap's lazy `cancel` cannot tell a
/// fired handle from a pending one, so its return value and `len` are
/// advisory there, while the wheel's are exact.)
#[derive(Debug)]
enum SchedulerQueue {
    /// Default: hierarchical timer wheel, O(1) schedule/cancel, one staged
    /// slot drain per same-timestamp batch.
    Wheel(TimerWheel<WorldEvent>),
    /// The pre-wheel binary heap, kept doc-hidden behind
    /// [`World::set_heap_queue`] for the equivalence suite and the
    /// `event_scaling` benchmark.
    Heap(EventQueue<WorldEvent>),
}

impl SchedulerQueue {
    fn schedule(&mut self, time: SimTime, event: WorldEvent) -> EventHandle {
        match self {
            SchedulerQueue::Wheel(queue) => queue.schedule(time, event),
            SchedulerQueue::Heap(queue) => queue.schedule(time, event),
        }
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        match self {
            SchedulerQueue::Wheel(queue) => queue.cancel(handle),
            SchedulerQueue::Heap(queue) => queue.cancel(handle),
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            SchedulerQueue::Wheel(queue) => queue.peek_time(),
            SchedulerQueue::Heap(queue) => queue.peek_time(),
        }
    }

    fn pop_due_batch(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(EventHandle, WorldEvent)>,
    ) -> Option<SimTime> {
        match self {
            SchedulerQueue::Wheel(queue) => queue.pop_due_batch(deadline, out),
            SchedulerQueue::Heap(queue) => queue.pop_due_batch(deadline, out),
        }
    }

    /// Like `pop_due_batch`, but guaranteed never to advance the wheel's
    /// floor past `cap` — the adaptive-lookahead drain probes the due horizon
    /// with this so that events scheduled *during* the widened window (timer
    /// re-arms landing past the cap) are never clamped forward. See
    /// [`TimerWheel::pop_due_batch_capped`].
    fn pop_due_batch_capped(
        &mut self,
        cap: SimTime,
        out: &mut Vec<(EventHandle, WorldEvent)>,
    ) -> Option<SimTime> {
        match self {
            SchedulerQueue::Wheel(queue) => queue.pop_due_batch_capped(cap, out),
            SchedulerQueue::Heap(queue) => queue.pop_due_batch_capped(cap, out),
        }
    }

    fn clear(&mut self) {
        match self {
            SchedulerQueue::Wheel(queue) => queue.clear(),
            SchedulerQueue::Heap(queue) => queue.clear(),
        }
    }
}

/// Which implementation a mobility tick uses. All three are semantically
/// identical (pinned by the equivalence suite); the slower ones are kept as
/// doc-hidden references for tests and the scaling benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MobilityPath {
    /// Default: pop only the due nodes from the per-node wake queue —
    /// O(waking · log n) per tick.
    EventDriven,
    /// The pre-wake-queue dirty-tick reference: scan every node, skip the ones
    /// whose wake time has not come — O(nodes) compares per tick.
    Scan,
    /// The original reference: advance every node unconditionally on every
    /// tick — O(nodes) full advances per tick.
    Naive,
}

/// Observability counters for the sharded engine's adaptive optimizations
/// (see [`World::debug_stats`]). They measure engagement, not results: runs
/// are bit-identical whether or not the counters advance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorldDebugStats {
    /// Conservative windows widened past one timestamp (≥ 2 batches fused
    /// into a single worker round-trip).
    pub windows_widened: u64,
    /// Total timestamp batches executed inside widened windows.
    pub batches_fused: u64,
    /// Cost-informed repartition passes evaluated between stepping epochs
    /// (boundaries move only when the measured cost is skewed).
    pub repartitions: u64,
    /// Completed frames whose reception classification was heavy enough to
    /// fan out to the shard workers.
    pub classify_fanouts: u64,
}

/// The complete state of one simulation run.
#[derive(Debug)]
pub struct World {
    scenario: Scenario,
    seed: u64,
    now: SimTime,
    end: SimTime,
    queue: SchedulerQueue,
    nodes: Vec<SimNode>,
    /// The medium owns the node positions (in its spatial grid); the world
    /// pushes moves into it incrementally at every mobility tick.
    medium: RadioMedium,
    /// Dense per-node timer slots: `timer_slots[node][kind.index()]` is the
    /// handle of the armed timer of that kind, if any. Arming, re-arming and
    /// cancelling on the protocol hot path is two array indexations — no
    /// hashing — and the handle match is what validates eagerly drained
    /// batch entries against mid-batch cancellations.
    timer_slots: Vec<[Option<EventHandle>; TimerKind::COUNT]>,
    /// Hot per-node state, structure-of-arrays (indexed by `NodeId::index`):
    /// virtual time of each node's last mobility advance (dirty-tick
    /// bookkeeping: skipped nodes are caught up from here).
    last_advance: Vec<SimTime>,
    /// Earliest virtual time at which each node's movement state can change.
    /// While a node is not moving, ticks strictly before its wake time are
    /// skipped entirely — no advance, no grid update, no RNG draw.
    wake_times: Vec<SimTime>,
    /// One bit per node: set if the node subscribes to the measured topic.
    subscriber_bits: BitSet,
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
    /// Which mobility-tick implementation runs. Defaults to the event-driven
    /// wake queue; the reference paths are kept (like
    /// `RadioMedium::complete_transmission_brute`) for equivalence tests and
    /// the `wake_scaling` / `mobility_scaling` benchmarks.
    mobility_path: MobilityPath,
    /// One entry per **sleeping** node, keyed by its wake time
    /// (`SimNode::wake`). Moving nodes live in `active` instead — they are
    /// advanced every tick anyway, so routing them through the heap would
    /// cost two O(log n) operations per node per tick for nothing. Only
    /// consulted by the event-driven path; rebuilt on every populate.
    wake_queue: IndexedMinQueue,
    /// The nodes currently moving (advanced every tick), ascending index.
    /// Every node is in exactly one of `active` / `wake_queue`.
    active: Vec<usize>,
    /// Scratch: next tick's active list, built during the merge walk.
    active_scratch: Vec<usize>,
    /// Scratch: the indices popped as due this tick, sorted ascending so they
    /// are processed in exactly the order the reference scan visits them.
    wake_scratch: Vec<usize>,
    /// Scratch: every protocol callback appends into this one buffer; its
    /// action vector and the pooled message vectors inside it cycle in place,
    /// so the steady-state event path performs no allocation.
    action_buf: ActionBuf,
    /// Scratch: per-receiver outcomes of the transmission being completed.
    outcome_scratch: Vec<(usize, ReceptionOutcome)>,
    /// Scratch: the current same-timestamp event batch, drained from the
    /// scheduler in one call and dispatched in FIFO order.
    batch_scratch: Vec<(EventHandle, WorldEvent)>,
    /// The nodes subscribed to the measured topic, ascending index. Cached so
    /// `resolve_publisher(RandomSubscriber)` allocates nothing per
    /// publication event; rebuilt by every populate/reset.
    subscriber_cache: Vec<usize>,
    /// How many worker shards `run_until` splits the node population across
    /// (1 = the single-threaded reference path). Like the scheduler and
    /// mobility toggles, the choice survives [`World::reset`].
    shards: usize,
    /// Set by [`World::set_single_shard`]: forces the single-threaded
    /// reference path regardless of the shard knob.
    force_single_shard: bool,
    /// True while **no transmission can exist**: no publication has been
    /// dispatched and no broadcast has ever been committed this run. While it
    /// holds, the sharded engine may widen its conservative window past the
    /// radio lookahead (see `world::shard`): every frame slot is provably
    /// free and the statically-quiet timer kinds cannot start traffic.
    /// Cleared permanently (until the next populate) by the first publish
    /// dispatch or broadcast commit — monotone, so checking it is race-free.
    traffic_free: bool,
    /// Set by [`World::set_fixed_lookahead`]: pins the sharded engine to the
    /// reference one-timestamp-per-window stepping. Survives [`World::reset`].
    fixed_lookahead: bool,
    /// Set by [`World::set_classify_work_stealing`]: large reception-classify
    /// fan-outs are claimed in chunks from a shared cursor instead of being
    /// split into fixed contiguous ranges. Survives [`World::reset`].
    classify_stealing: bool,
    /// Per-node work accumulators (EWMA at repartition granularity): workers
    /// add one unit per mobility advance, fired protocol callback and
    /// delivered message; the engine's periodic repartition feeds them to
    /// [`simkit::BoundaryPartition::rebalance`] and then halves them. Only
    /// wall-clock balance depends on these — never results.
    node_cost: Vec<f32>,
    /// Engagement counters for the adaptive paths; zeroed by every populate.
    stats: WorldDebugStats,
}

impl World {
    /// Builds a world for `scenario` with the given `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the scenario fails validation.
    pub fn new(scenario: Scenario, seed: u64) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let medium = RadioMedium::new(scenario.radio.clone(), scenario.node_count);
        let sizing = match &scenario.protocol {
            ProtocolKind::Frugal(config) => config.clone(),
            ProtocolKind::Flooding(_) => ProtocolConfig::paper_default(),
        };
        let end = SimTime::ZERO + scenario.duration;
        let mut world = World {
            seed,
            now: SimTime::ZERO,
            end,
            queue: SchedulerQueue::Wheel(TimerWheel::new()),
            nodes: Vec::new(),
            medium,
            timer_slots: Vec::new(),
            last_advance: Vec::new(),
            wake_times: Vec::new(),
            subscriber_bits: BitSet::new(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            mac_rng: SimRng::seed_from(seed).derive(0xBEEF).derive(7),
            published: Vec::new(),
            warmup_metrics: None,
            warmup_traffic: None,
            sizing,
            scenario,
            mobility_path: MobilityPath::EventDriven,
            wake_queue: IndexedMinQueue::new(),
            active: Vec::new(),
            active_scratch: Vec::new(),
            wake_scratch: Vec::new(),
            action_buf: ActionBuf::new(),
            outcome_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            subscriber_cache: Vec::new(),
            shards: 1,
            force_single_shard: false,
            traffic_free: true,
            fixed_lookahead: false,
            classify_stealing: false,
            node_cost: Vec::new(),
            stats: WorldDebugStats::default(),
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
        self.now = SimTime::ZERO;
        self.end = SimTime::ZERO + self.scenario.duration;
        // `SchedulerQueue::clear` also compacts: cancel tombstones are
        // dropped and the handle space restarts, so a recycled world carries
        // no dead handles (or unbounded sequence growth) across seeds.
        self.queue.clear();
        self.frames.clear();
        self.free_frames.clear();
        self.published.clear();
        self.warmup_metrics = None;
        self.warmup_traffic = None;
        self.mac_rng = SimRng::seed_from(seed).derive(0xBEEF).derive(7);
        self.medium.reset();
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
    /// world and a reset one. Expects `queue`/`timers`/`frames`/`published`
    /// empty, `medium` counters zeroed, and `mac_rng` freshly derived for
    /// `seed`.
    ///
    /// When the node vector already holds one node per process (an arena
    /// reset of the same scenario), each node's protocol and mobility boxes
    /// are reset **in place**; only instances whose `reset` hook declines
    /// (e.g. [`Stationary`], whose position is drawn here) are rebuilt. The
    /// RNG draw order is identical either way, so recycled worlds stay
    /// bit-identical to fresh ones.
    fn populate(&mut self, seed: u64) {
        let master = SimRng::seed_from(seed);
        let mut layout_rng = master.derive(0xA11);
        let n = self.scenario.node_count;

        // Choose which nodes subscribe to the measured topic.
        let subscriber_count = self.scenario.subscriber_count().min(n);
        let subscriber_indices: std::collections::HashSet<usize> = layout_rng
            .choose_indices(n, subscriber_count)
            .into_iter()
            .collect();

        // Build (or recycle) the nodes: protocol + mobility + private stream.
        let recycle = self.nodes.len() == n;
        if !recycle {
            self.nodes.clear();
            self.nodes.reserve(n);
        }
        for index in 0..n {
            let mut node_rng = master.derive(1000 + index as u64);
            if recycle {
                let node = &mut self.nodes[index];
                if !node.mobility.reset(&mut node_rng) {
                    node.mobility =
                        Self::build_mobility(&self.scenario.mobility, index, n, &mut node_rng);
                }
                if !node.protocol.reset() {
                    node.protocol = Self::build_protocol(&self.scenario.protocol, index);
                }
                let position = node.mobility.position();
                node.rng = node_rng;
                self.medium.update_position(index, position);
            } else {
                let mobility =
                    Self::build_mobility(&self.scenario.mobility, index, n, &mut node_rng);
                let protocol = Self::build_protocol(&self.scenario.protocol, index);
                self.medium.update_position(index, mobility.position());
                self.nodes.push(SimNode {
                    protocol,
                    mobility,
                    rng: node_rng,
                });
            }
        }
        // Hot per-node state: everyone is advanced at the first tick (wake =
        // ZERO); it initializes the protocol's speed and the wake times.
        self.last_advance.clear();
        self.last_advance.resize(n, SimTime::ZERO);
        self.wake_times.clear();
        self.wake_times.resize(n, SimTime::ZERO);
        self.subscriber_bits.clear();
        for index in 0..n {
            if subscriber_indices.contains(&index) {
                self.subscriber_bits.insert(index);
            }
        }
        // Every node is due at the first tick: it initializes the protocol's
        // speed and sorts each node into `active` or the wake queue.
        self.wake_queue.clear();
        self.active.clear();
        self.active.extend(0..n);
        // Dense timer slots (no timer is armed before the run starts) and the
        // subscriber index behind `PublisherChoice::RandomSubscriber`.
        self.timer_slots.clear();
        self.timer_slots.resize(n, [None; TimerKind::COUNT]);
        // No publication has run and no broadcast exists yet; the per-node
        // cost accumulators and engagement counters restart with the run.
        self.traffic_free = true;
        self.node_cost.clear();
        self.node_cost.resize(n, 0.0);
        self.stats = WorldDebugStats::default();
        self.subscriber_cache.clear();
        self.subscriber_cache
            .extend((0..n).filter(|index| subscriber_indices.contains(index)));

        // Stagger the initial subscriptions over one heartbeat period so the
        // network does not start with every node beaconing in the same slot.
        let stagger_window = self
            .sizing
            .hb_upper_bound
            .max(simkit::SimDuration::from_millis(200));
        for node in 0..n {
            let offset = self.mac_rng.jitter(stagger_window);
            self.queue.schedule(
                SimTime::ZERO + offset,
                WorldEvent::Subscribe {
                    node: NodeId::from_index(node),
                },
            );
        }
        // Mobility ticks.
        self.queue.schedule(
            SimTime::ZERO + self.scenario.mobility_tick,
            WorldEvent::MobilityTick,
        );
        // Scheduled publications.
        for index in 0..self.scenario.publications.len() {
            self.queue.schedule(
                self.scenario.publications[index].at,
                WorldEvent::Publish {
                    index: u32::try_from(index).expect("publication index exceeds u32"),
                },
            );
        }
        // Warm-up boundary.
        if !self.scenario.warmup.is_zero() {
            self.queue
                .schedule(SimTime::ZERO + self.scenario.warmup, WorldEvent::WarmupEnd);
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario this world simulates.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Forces the original reference mobility path that fully advances every
    /// node on every tick. Semantically identical to the default event-driven
    /// path (an equivalence property test pins this); kept for tests and the
    /// `mobility_scaling` benchmark. Call before [`World::run`]; `false`
    /// restores the event-driven default.
    #[doc(hidden)]
    pub fn set_naive_mobility(&mut self, naive: bool) {
        self.mobility_path = if naive {
            MobilityPath::Naive
        } else {
            MobilityPath::EventDriven
        };
    }

    /// Forces the pre-wake-queue dirty-tick reference path that scans every
    /// node each tick and skips the sleeping ones with one compare each.
    /// Semantically identical to the default event-driven path (the
    /// equivalence suite pins this); kept for tests and the `wake_scaling`
    /// benchmark. Call before [`World::run`]; `false` restores the
    /// event-driven default.
    #[doc(hidden)]
    pub fn set_scan_mobility(&mut self, scan: bool) {
        self.mobility_path = if scan {
            MobilityPath::Scan
        } else {
            MobilityPath::EventDriven
        };
    }

    /// Forces the pre-wheel binary-heap event queue. Semantically identical
    /// to the default timer wheel (the scheduler equivalence suite pins
    /// whole-run reports bit-identical); kept for tests and the
    /// `event_scaling` benchmark. Call before [`World::run`] — pending
    /// events are transferred in `(time, FIFO)` order, but armed timers are
    /// not (none exist before the run starts). The choice survives
    /// [`World::reset`]; `false` restores the wheel.
    #[doc(hidden)]
    pub fn set_heap_queue(&mut self, heap: bool) {
        if heap == matches!(self.queue, SchedulerQueue::Heap(_)) {
            return;
        }
        debug_assert!(
            self.timer_slots
                .iter()
                .all(|slots| slots.iter().all(Option::is_none)),
            "switch the scheduler before timers are armed"
        );
        // Drain the pending events in pop order and replay them into the
        // other implementation: relative order — and therefore the run — is
        // preserved, only the (unreferenced) handles change.
        let mut moved = Vec::new();
        let mut batch = Vec::new();
        while let Some(at) = self.queue.pop_due_batch(SimTime::MAX, &mut batch) {
            moved.extend(batch.drain(..).map(|(_, event)| (at, event)));
        }
        self.queue = if heap {
            SchedulerQueue::Heap(EventQueue::new())
        } else {
            SchedulerQueue::Wheel(TimerWheel::new())
        };
        for (at, event) in moved {
            self.queue.schedule(at, event);
        }
    }

    /// Splits the event loop's per-node work across `shards` worker threads
    /// (clamped to at least 1; 1 keeps the classic single-threaded loop).
    /// Sharded runs are **bit-identical** to single-threaded ones — same
    /// reports, same RNG streams — because every random draw and every
    /// scheduler mutation stays in the sequential dispatch order; only the
    /// pure per-node work (mobility integration, protocol callbacks,
    /// reception classification) runs concurrently inside each conservative
    /// time window (see [`World::lookahead`] and the `world::shard` module).
    /// Like the scheduler and mobility toggles, the choice survives
    /// [`World::reset`].
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The configured shard count (see [`World::set_shards`]).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Forces the single-threaded reference event loop regardless of the
    /// shard knob. Semantically identical to the sharded path (the shard
    /// equivalence suite pins whole-run reports bit-identical at 1/2/4/8
    /// shards); kept, like `set_heap_queue`/`set_scan_mobility`, so tests and
    /// benchmarks can pick the reference explicitly. `false` restores the
    /// configured shard count. Survives [`World::reset`].
    #[doc(hidden)]
    pub fn set_single_shard(&mut self, single: bool) {
        self.force_single_shard = single;
    }

    /// Pins the sharded engine to the reference stepping that forks and joins
    /// exactly one same-timestamp batch per window, disabling the adaptive
    /// widened windows. Semantically identical to the default adaptive path
    /// (the shard equivalence suite pins whole-run reports bit-identical);
    /// kept, like `set_single_shard`, so tests and the `shard_scaling`
    /// benchmark can pick the reference explicitly. `false` restores the
    /// adaptive default. Survives [`World::reset`].
    #[doc(hidden)]
    pub fn set_fixed_lookahead(&mut self, fixed: bool) {
        self.fixed_lookahead = fixed;
    }

    /// Opts the sharded engine into work-stealing for large
    /// reception-classify fan-outs: receiver chunks are claimed from a shared
    /// cursor instead of being pre-split into fixed contiguous ranges, so a
    /// spatially-skewed receiver set no longer leaves most shards idle behind
    /// the densest one. Results are bit-identical either way (chunks are
    /// reassembled in index order before the sequential resolve); default off
    /// because the shared cursor costs more than it saves on uniform
    /// workloads. Survives [`World::reset`].
    pub fn set_classify_work_stealing(&mut self, steal: bool) {
        self.classify_stealing = steal;
    }

    /// Engagement counters of the sharded engine's adaptive paths (widened
    /// windows, fused batches, repartition passes) for the run so far. Zeroed
    /// by [`World::reset`]; purely observational.
    pub fn debug_stats(&self) -> WorldDebugStats {
        self.stats
    }

    /// The per-timer-kind quiet bound used by the adaptive window: entry
    /// `kind.index()` is `Some(d)` iff firing that kind while `traffic_free`
    /// holds is **provably quiet** — it emits no broadcast, touches no other
    /// node and mutates the schedule only by re-arming itself at least `d`
    /// after its own timestamp. `None` marks kinds that may broadcast or arm other timers;
    /// a batch containing one ends the widened window.
    ///
    /// The table is derived statically from the protocol kind:
    ///
    /// * **Flooding** (all policies): `FloodTick` with an empty event store —
    ///   guaranteed while no publish/broadcast ever happened — only prunes
    ///   and re-arms at the fixed flood interval. Every other kind is
    ///   conservative `None` (`Heartbeat` broadcasts under NeighborInterest;
    ///   the rest are never armed by the baselines).
    /// * **Frugal**: all `None`. Subscribing already broadcasts, so a frugal
    ///   run leaves `traffic_free` within the first stagger window and the
    ///   entries would be dead code; keeping them `None` means the window
    ///   logic never needs the frugal timer semantics to be re-proven.
    fn quiet_timer_bounds(&self) -> [Option<SimDuration>; TimerKind::COUNT] {
        let mut bounds = [None; TimerKind::COUNT];
        if matches!(self.scenario.protocol, ProtocolKind::Flooding(_)) {
            bounds[TimerKind::FloodTick.index()] = Some(FloodingProtocol::PAPER_FLOOD_INTERVAL);
        }
        bounds
    }

    /// The conservative lookahead of parallel simulation for this scenario:
    /// the minimum virtual time between a node's send decision and any other
    /// node's reception ([`netsim::RadioConfig::min_latency`] — propagation is
    /// instantaneous, so this is the air time of the smallest frame, one
    /// clock millisecond). A frame begun inside one time window of this width
    /// cannot be heard inside it, so windows of this width can be advanced
    /// without cross-shard causality violations; with a 1 ms clock the window
    /// degenerates to exactly one same-timestamp event batch, which is the
    /// unit the sharded engine forks and joins on.
    pub fn lookahead(&self) -> SimDuration {
        self.scenario.radio.min_latency()
    }

    /// The shard count `run_until` will actually use this run.
    fn effective_shards(&self) -> usize {
        if self.force_single_shard {
            1
        } else {
            self.shards.min(self.nodes.len().max(1))
        }
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
    /// against the dense slot table at dispatch (see [`World::dispatch`]), so
    /// eager draining cannot fire a timer that an earlier event of the same
    /// batch cancelled or re-armed.
    pub fn run_mut(&mut self) -> RunReport {
        self.run_until(self.end);
        self.report()
    }

    /// Advances the simulation until every event at or before `deadline` has
    /// been dispatched (the scenario end still caps the run), leaving the
    /// world ready to continue. Stepping a run in slices is what lets the
    /// allocation-accounting tests warm a world up, open a measurement
    /// window, and assert over just the steady-state slice; a single
    /// `run_until(end)` is exactly [`World::run_mut`] minus the report.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.effective_shards() > 1 && self.mobility_path == MobilityPath::EventDriven {
            self.run_until_sharded(deadline);
            return;
        }
        let deadline = deadline.min(self.end);
        let mut batch = std::mem::take(&mut self.batch_scratch);
        while let Some(at) = self.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.now = at;
            batch.clear();
            self.queue.pop_due_batch(at, &mut batch);
            for (handle, event) in batch.drain(..) {
                self.dispatch(handle, event);
            }
        }
        self.batch_scratch = batch;
    }

    fn dispatch(&mut self, handle: EventHandle, event: WorldEvent) {
        match event {
            WorldEvent::MobilityTick => self.on_mobility_tick(),
            WorldEvent::Subscribe { node } => self.on_subscribe(node),
            WorldEvent::Timer { node, kind } => {
                // The batch was drained eagerly; this timer fires only if it
                // is still the armed instance for (node, kind). An earlier
                // event of the same batch may have cancelled or re-armed it —
                // the reference heap would then never have popped it.
                let slot = &mut self.timer_slots[node.index()][kind.index()];
                if *slot == Some(handle) {
                    *slot = None;
                    self.on_timer(node, kind);
                }
            }
            WorldEvent::TxStart { frame } => self.on_tx_start(frame),
            WorldEvent::TxEnd { frame, tx } => self.on_tx_end(frame, tx),
            WorldEvent::Publish { index } => self.on_publish(index),
            WorldEvent::WarmupEnd => self.on_warmup_end(),
        }
    }

    fn on_mobility_tick(&mut self) {
        match self.mobility_path {
            MobilityPath::EventDriven => self.on_mobility_tick_event(),
            MobilityPath::Scan => self.on_mobility_tick_scan(),
            MobilityPath::Naive => self.on_mobility_tick_naive(),
        }
        let next = self.now + self.scenario.mobility_tick;
        if next <= self.end {
            self.queue.schedule(next, WorldEvent::MobilityTick);
        }
    }

    /// Advances node `index` across the current tick, catching up any skipped
    /// pause time, and returns its next wake time. Shared by the event-driven
    /// and scan paths so they are advance-for-advance identical.
    fn advance_due_node(&mut self, index: usize, now: SimTime, tick: SimDuration) -> SimTime {
        let node = &mut self.nodes[index];
        // Catch up pause time skipped since the last advance in one exact
        // chunk (pure integer-millisecond countdown, no RNG), then replay
        // the current tick exactly as the naive path would. The chunk
        // cannot cross the pause end: the node would have woken at the
        // earlier tick otherwise.
        let skipped = now - self.last_advance[index];
        if skipped > tick {
            node.mobility.advance(skipped - tick, &mut node.rng);
        }
        node.mobility.advance(tick, &mut node.rng);
        self.last_advance[index] = now;
        let speed = node.mobility.speed();
        // Moving nodes are advanced every tick (their position changes);
        // idle nodes sleep until their phase can end. `speed` is already
        // in the protocol from the tick the node stopped, so skipped ticks
        // lose nothing.
        let wake = if speed > 0.0 {
            now
        } else {
            now.saturating_add(node.mobility.time_to_transition())
        };
        self.wake_times[index] = wake;
        let position = node.mobility.position();
        node.protocol.update_speed(Some(speed));
        self.medium.update_position(index, position);
        wake
    }

    /// The default event-driven path: advance the moving nodes (the `active`
    /// list) plus the sleepers whose wake time has come (drained from the
    /// wake queue), and nothing else. A tick over a mostly-paused population
    /// never touches the sleeping nodes — not even for a compare — and a
    /// moving node costs no heap traffic at all: it enters the queue once
    /// when it stops and leaves it once when its pause can end.
    fn on_mobility_tick_event(&mut self) {
        let tick = self.scenario.mobility_tick;
        let now = self.now;
        let mut woken = std::mem::take(&mut self.wake_scratch);
        woken.clear();
        while let Some((_, index)) = self.wake_queue.pop_due(now) {
            woken.push(index);
        }
        // Pops arrive in (wake, id) order; the reference scan visits due nodes
        // in ascending index. Sorting, then merge-walking the (sorted) active
        // list with the woken list, keeps the two advance-for-advance
        // identical (grid updates, RNG draws, everything).
        woken.sort_unstable();
        let active = std::mem::take(&mut self.active);
        let mut next_active = std::mem::take(&mut self.active_scratch);
        next_active.clear();
        let (mut a, mut w) = (0usize, 0usize);
        loop {
            // A node is in exactly one of the two sorted lists, so this is a
            // plain two-way merge in ascending index.
            let index = match (active.get(a).copied(), woken.get(w).copied()) {
                (Some(x), Some(y)) if x < y => {
                    a += 1;
                    x
                }
                (_, Some(y)) => {
                    w += 1;
                    y
                }
                (Some(x), None) => {
                    a += 1;
                    x
                }
                (None, None) => break,
            };
            let wake = self.advance_due_node(index, now, tick);
            if wake <= now {
                // Still (or again) moving: due at every tick, stay dense.
                next_active.push(index);
            } else {
                self.wake_queue.set(index, wake);
            }
        }
        self.active_scratch = active;
        self.active = next_active;
        self.wake_scratch = woken;
    }

    /// The pre-wake-queue dirty-tick reference path: scans every node and
    /// skips the ones whose wake time has not come. Semantically identical to
    /// the event-driven path (the equivalence suite pins this); kept for tests
    /// and the `wake_scaling` benchmark. See [`World::set_scan_mobility`].
    fn on_mobility_tick_scan(&mut self) {
        let tick = self.scenario.mobility_tick;
        let now = self.now;
        for index in 0..self.nodes.len() {
            // Dirty-tick skip: a node that is not moving cannot change
            // position or draw randomness before its wake time, so ticks
            // strictly before it are a no-op for this node.
            if self.wake_times[index] > now {
                continue;
            }
            self.advance_due_node(index, now, tick);
        }
    }

    /// The pre-dirty-tick reference path: advances every node unconditionally.
    /// See [`World::set_naive_mobility`].
    fn on_mobility_tick_naive(&mut self) {
        let tick = self.scenario.mobility_tick;
        for (index, node) in self.nodes.iter_mut().enumerate() {
            node.mobility.advance(tick, &mut node.rng);
            self.medium.update_position(index, node.mobility.position());
            node.protocol.update_speed(Some(node.mobility.speed()));
        }
    }

    fn on_subscribe(&mut self, node: NodeId) {
        let topic = if self.subscriber_bits.contains(node.index()) {
            self.scenario.subscriber_topic.clone()
        } else {
            self.scenario.bystander_topic.clone()
        };
        let now = self.now;
        let mut out = std::mem::take(&mut self.action_buf);
        self.nodes[node.index()]
            .protocol
            .subscribe(topic, now, &mut out);
        self.apply_actions(node, &mut out);
        self.action_buf = out;
    }

    fn on_timer(&mut self, node: NodeId, kind: TimerKind) {
        let now = self.now;
        let mut out = std::mem::take(&mut self.action_buf);
        self.nodes[node.index()]
            .protocol
            .handle_timer(kind, now, &mut out);
        self.apply_actions(node, &mut out);
        self.action_buf = out;
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

    fn on_tx_end(&mut self, frame: u32, tx: TxId) {
        let pending = match self.frames[frame as usize].take() {
            Some(pending) => pending,
            None => return,
        };
        // The slot is free for the next broadcast; the slab stops growing
        // once the number of concurrently in-flight frames peaks.
        self.free_frames.push(frame);
        let mut outcomes = std::mem::take(&mut self.outcome_scratch);
        outcomes.clear();
        self.medium
            .complete_transmission_into(tx, &mut self.mac_rng, &mut outcomes);
        let now = self.now;
        let mut out = std::mem::take(&mut self.action_buf);
        for &(receiver, outcome) in &outcomes {
            if outcome != ReceptionOutcome::Received {
                continue;
            }
            self.nodes[receiver]
                .protocol
                .handle_message(&pending.message, now, &mut out);
            self.apply_actions(NodeId::from_index(receiver), &mut out);
        }
        // The frame died: reclaim the vectors inside its message so the next
        // broadcast builds on their capacity instead of allocating.
        out.recycle_message(pending.message);
        self.action_buf = out;
        self.outcome_scratch = outcomes;
    }

    fn on_publish(&mut self, index: u32) {
        // A published event can ride any later quiet timer (an empty-store
        // FloodTick starts broadcasting once the store fills), so the
        // traffic-free window closes at the publish dispatch, not at the
        // first broadcast.
        self.traffic_free = false;
        let publication = self.scenario.publications[index as usize].clone();
        let publisher = self.resolve_publisher(publication.publisher);
        let now = self.now;
        let mut out = std::mem::take(&mut self.action_buf);
        let id = self.nodes[publisher].protocol.publish(
            publication.topic.clone(),
            publication.validity,
            publication.payload_bytes,
            now,
            &mut out,
        );
        self.published.push(PublishedRecord {
            id,
            publisher,
            topic: publication.topic,
        });
        self.apply_actions(NodeId::from_index(publisher), &mut out);
        self.action_buf = out;
    }

    fn on_warmup_end(&mut self) {
        self.warmup_metrics = Some(
            self.nodes
                .iter()
                .map(|n| n.protocol.metrics().clone())
                .collect(),
        );
        self.warmup_traffic = Some(self.medium.all_counters().to_vec());
    }

    fn resolve_publisher(&mut self, choice: PublisherChoice) -> usize {
        resolve_publisher_with(
            choice,
            self.nodes.len(),
            &self.subscriber_cache,
            &mut self.mac_rng,
        )
    }

    /// Drains `out` (the world's reusable action buffer, refilled by the
    /// caller from a protocol callback) and carries each action out. The
    /// buffer comes back empty — with its capacity and message-vector pools
    /// intact — ready for the next event.
    fn apply_actions(&mut self, node: NodeId, out: &mut ActionBuf) {
        ActionSink {
            queue: &mut self.queue,
            frames: &mut self.frames,
            free_frames: &mut self.free_frames,
            timer_slots: &mut self.timer_slots,
            mac_rng: &mut self.mac_rng,
            max_jitter: self.scenario.radio.max_contention_jitter,
            now: self.now,
            traffic_free: &mut self.traffic_free,
        }
        .apply(node, out);
    }

    fn report(&self) -> RunReport {
        let warmup_metrics: &[ProtocolMetrics] = self.warmup_metrics.as_deref().unwrap_or(&[]);
        let warmup_traffic: &[TrafficCounters] = self.warmup_traffic.as_deref().unwrap_or(&[]);

        let nodes: Vec<NodeReport> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(index, node)| {
                let metrics = node.protocol.metrics();
                let base = warmup_metrics.get(index);
                let traffic = *self.medium.counters(index);
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

        let events: Vec<EventOutcome> = self
            .published
            .iter()
            .map(|record| {
                let subscribers = self
                    .nodes
                    .iter()
                    .filter(|n| n.protocol.subscriptions().matches(&record.topic))
                    .count();
                let delivered = self
                    .nodes
                    .iter()
                    .filter(|n| {
                        n.protocol.subscriptions().matches(&record.topic)
                            && n.protocol.has_delivered(&record.id)
                    })
                    .count();
                EventOutcome {
                    id: record.id,
                    publisher: record.publisher,
                    subscribers,
                    delivered,
                }
            })
            .collect();

        RunReport {
            label: self.scenario.label.clone(),
            protocol: self.scenario.protocol.name().to_owned(),
            seed: self.seed,
            events,
            nodes,
        }
    }
}

/// The world-side state an action commit mutates, borrowed together so the
/// single-threaded dispatcher and the sharded engine (which cannot borrow the
/// whole `World`) run one implementation. Every call consumes MAC randomness
/// and scheduler sequence numbers, so callers must invoke it in exactly the
/// sequential dispatch order to keep runs bit-identical.
struct ActionSink<'a> {
    queue: &'a mut SchedulerQueue,
    frames: &'a mut Vec<Option<PendingFrame>>,
    free_frames: &'a mut Vec<u32>,
    timer_slots: &'a mut [[Option<EventHandle>; TimerKind::COUNT]],
    mac_rng: &'a mut SimRng,
    max_jitter: SimDuration,
    now: SimTime,
    /// Cleared on the first broadcast: from here on transmissions may exist,
    /// so the adaptive window must stop widening (see `World::traffic_free`).
    traffic_free: &'a mut bool,
}

impl ActionSink<'_> {
    /// See [`World::apply_actions`].
    fn apply(&mut self, node: NodeId, out: &mut ActionBuf) {
        for action in out.drain() {
            match action {
                Action::Broadcast(message) => {
                    *self.traffic_free = false;
                    let jitter = self.mac_rng.jitter(self.max_jitter);
                    let pending = PendingFrame {
                        sender: node,
                        message,
                    };
                    let frame = match self.free_frames.pop() {
                        Some(slot) => {
                            self.frames[slot as usize] = Some(pending);
                            slot
                        }
                        None => {
                            let slot =
                                u32::try_from(self.frames.len()).expect("frame slab exceeds u32");
                            self.frames.push(Some(pending));
                            slot
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
                    if let Some(handle) = self.timer_slots[node.index()][kind.index()].take() {
                        self.queue.cancel(handle);
                    }
                    let handle = self
                        .queue
                        .schedule(self.now + after, WorldEvent::Timer { node, kind });
                    self.timer_slots[node.index()][kind.index()] = Some(handle);
                }
                Action::CancelTimer(kind) => {
                    if let Some(handle) = self.timer_slots[node.index()][kind.index()].take() {
                        self.queue.cancel(handle);
                    }
                }
            }
        }
    }
}

/// See [`World::resolve_publisher`] — shared with the sharded engine.
fn resolve_publisher_with(
    choice: PublisherChoice,
    node_count: usize,
    subscriber_cache: &[usize],
    mac_rng: &mut SimRng,
) -> usize {
    match choice {
        PublisherChoice::Node(index) => index.min(node_count - 1),
        PublisherChoice::RandomAny => mac_rng.index(node_count),
        PublisherChoice::RandomSubscriber => {
            // The ascending subscriber index is cached by populate (and
            // therefore refreshed on every reset): resolving a random
            // subscriber allocates nothing per publication event.
            if subscriber_cache.is_empty() {
                mac_rng.index(node_count)
            } else {
                let pick = mac_rng.index(subscriber_cache.len());
                subscriber_cache[pick]
            }
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
    fn event_driven_mobility_matches_scan_and_naive_references() {
        for seed in [1u64, 2, 3] {
            let event = World::new(pause_heavy_scenario(), seed).unwrap().run();
            let mut scan_world = World::new(pause_heavy_scenario(), seed).unwrap();
            scan_world.set_scan_mobility(true);
            let scan = scan_world.run();
            let mut naive_world = World::new(pause_heavy_scenario(), seed).unwrap();
            naive_world.set_naive_mobility(true);
            let naive = naive_world.run();
            assert_eq!(
                event, scan,
                "event-driven diverged from the scan reference for seed {seed}"
            );
            assert_eq!(scan, naive, "scan diverged from naive for seed {seed}");
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
