//! Deterministic sharded stepping: one [`World`], many cores, bit-identical
//! reports.
//!
//! # The conservative window collapses to one timestamp batch…
//!
//! Classic conservative parallel discrete-event simulation advances each
//! partition inside a time window bounded by the **lookahead** — the minimum
//! virtual latency between partitions. Here propagation is instantaneous and
//! the shortest frame occupies the air for one clock millisecond
//! ([`World::lookahead`]), while every pair of nodes can become neighbors
//! within a tick — so the conservative window is exactly one millisecond: one
//! same-timestamp event batch, precisely what the scheduler already drains in
//! one call. The engine therefore forks and joins **per batch**: it is the
//! degenerate-but-honest instantiation of windowed conservative stepping for
//! this model, not an approximation of it.
//!
//! # …except while the air is provably silent: adaptive lookahead
//!
//! The one-millisecond bound is only *needed* when a transmission could
//! couple two nodes. Until the first `Broadcast` is committed (tracked by
//! `World::traffic_free`, re-armed by `populate`), the event stream is
//! mobility ticks and **quiet** timers — kinds whose callbacks, on a world
//! that has never carried traffic, emit nothing but a re-arm of themselves no
//! sooner than a static per-kind bound (see `World::quiet_timer_bounds`; for
//! the flooding baselines, `FloodTick` re-arms at the paper's one-second
//! flood interval and broadcasts only when the store holds events, which a
//! traffic-free store cannot). Under that precondition the engine *widens*
//! the window: it drains a run of consecutive tick/timer batches from the
//! queue up front — never past `min(fire + bound) - 1`, so nothing scheduled
//! mid-window can be popped by the window, and the wheel's floor never
//! passes the cap ([`TimerWheel::pop_due_batch_capped`]) — and replays the
//! whole run in **one** fork/join ([`do_fused`]). Commits still walk the
//! segments sequentially in exact (time, seq, FIFO) dispatch order, so
//! reports stay bit-identical; only round trips are saved (up to
//! [`MAX_FUSED_BATCHES`]× fewer). Any batch that could create a transmission
//! or otherwise perturb the due horizon — publish, subscribe, warm-up, a
//! non-quiet timer, a mixed tick+timer batch — terminates the drain and is
//! dispatched per-timestamp. `World::set_fixed_lookahead` pins the engine to
//! the one-batch window; the equivalence suite holds the two paths equal.
//!
//! # Cost-balanced boundaries and stealing
//!
//! Contiguous index ranges keep commits order-preserving, but equal *node
//! counts* are not equal *work*: cost concentrates wherever the traffic and
//! the due mobility nodes are. Each shard therefore accumulates a per-node
//! work count (+1 per mobility advance, fired callback, delivered message —
//! a deterministic function of the simulation, never of thread timing), and
//! the run is stepped in epochs of [`REPARTITION_INTERVAL`] batches: between
//! epochs the worker scope is down and [`BoundaryPartition::rebalance`]
//! slides the contiguous boundaries toward equal accumulated cost (the
//! accumulators halve each pass — an EWMA at epoch granularity). For the one
//! remaining intra-batch skew — a large reception-classify fan-out whose
//! receivers cluster in few shards — `World::set_classify_work_stealing`
//! opts into a shared-cursor chunk queue instead of pre-split ranges.
//! Both mechanisms redistribute identical computations across threads;
//! neither can change results.
//!
//! # What may run in parallel (and what must not)
//!
//! Bit-identity with the single-threaded loop is non-negotiable (the golden
//! fingerprints and equivalence proptests enforce it), and two global
//! sequential resources pin the commit order: the MAC RNG (contention jitter,
//! fringe draws, publisher choice — one draw order) and the scheduler's
//! sequence numbers (same-timestamp FIFO). Everything touching either is
//! executed by the coordinator in exact dispatch order. What parallelizes is
//! the *pure* per-node work, which dominates the per-event cost:
//!
//! * mobility integration (each node's position/RNG/pause state is private);
//! * protocol callbacks (`subscribe`/`handle_timer`/`handle_message` read only
//!   the acting node's state plus an immutable message — they *emit* actions
//!   into a buffer instead of touching the world);
//! * reception classification (pure function of snapshot + positions).
//!
//! The proof obligations are local: a protocol callback cannot observe
//! another node's state; `ActionSink` commits mutate only world-side state
//! (scheduler, frame slab, timer slots, MAC RNG) that callbacks never read;
//! same-timestamp `TxStart`s never overlap the `TxEnd`s of the same batch
//! (overlap requires `start < end` strictly). Timer fire/skip decisions — the
//! one place a callback's *validity* depends on earlier commits of the same
//! batch — are replayed on a per-node slot overlay (see [`SlotSim`]), which is
//! exact because only a node's own actions can touch its slots.
//!
//! # Partitioning
//!
//! Nodes are split into [`BoundaryPartition`] contiguous index ranges and
//! each worker borrows its range of the structure-of-arrays node state
//! (`split_at_mut` — no copies, no unsafe). Spatial bands were considered and
//! rejected: with a one-batch window every boundary is "hot" anyway (all
//! cross-shard traffic routes through the coordinator each batch), so spatial
//! locality buys nothing that index locality doesn't, and index ranges keep
//! the hot arrays contiguous per worker. Because ranges are ascending, any
//! ascending node list splits into per-shard runs whose concatenation — shard
//! 0 first — restores ascending NodeId order, which is the merge order the
//! sequential loop uses everywhere.
//!
//! # Exchange
//!
//! Workers are long-lived within one `run_until` call (`std::thread::scope`)
//! and exchange work through single-consumer spin-then-park mailboxes
//! ([`Mailbox`]): a send is a lock push plus an atomic; an idle receiver
//! spins briefly (`try_lock`, no syscalls) before parking. Round trips are
//! ~a microsecond, which per-batch parallel work amortizes. Boundary frames
//! (receivers in other shards) ride a per-window exchange: receivers are
//! routed to their owning shard, callbacks run in parallel, and the emitted
//! actions are committed at the coordinator in ascending receiver order —
//! i.e. drained in (time, seq, NodeId) order, since batches are already
//! (time, seq)-ordered.

use super::*;
use netsim::{CompletionSnapshot, RadioConfig, ReceptionClass};
use simkit::BoundaryPartition;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::Duration;

/// Spin iterations an idle mailbox receiver burns before yielding. At ~1-5 ns
/// per probe this is tens of microseconds of spinning — longer than any
/// in-flight batch round trip, so on a machine with a core per shard the hot
/// path never pays a context switch.
const SPIN_LIMIT: u32 = 16_384;

/// Yield iterations after the spin phase, before parking. Each yield hands
/// the timeslice to a runnable peer — on an oversubscribed machine (fewer
/// cores than shards) this is what lets the sender actually run.
const YIELD_LIMIT: u32 = 64;

/// The spin budget for this machine: spinning only helps when every shard
/// can own a core; otherwise the receiver is burning the exact timeslice the
/// sender needs, so go straight to yielding.
fn spin_budget(shards: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= shards {
        SPIN_LIMIT
    } else {
        0
    }
}

/// Distance checks one completed frame needs — its in-range receivers times
/// (one fringe check + one check per interferer the medium kept, i.e. per
/// overlapping frame sent from within two ranges of it) — above which
/// reception classification fans out to the workers. Only a neighborhood of
/// hundreds under a storm gets there. Classification is pure, so this affects
/// speed only — results are identical at every shard count and every
/// threshold.
const PARALLEL_CLASSIFY_MIN_WORK: usize = 1_024;

/// Upper bound on timestamp batches fused into one widened window. Bounds the
/// worker segment lists and the commit walk; at the millisecond clock this is
/// still a quarter of a simulated second per round trip.
const MAX_FUSED_BATCHES: usize = 256;

/// Batches the engine steps between cost-informed repartition passes (one
/// "epoch"). Each pass re-enters the thread scope, so the interval also
/// amortizes the worker respawn (~100 µs) down to noise.
const REPARTITION_INTERVAL: u64 = 1024;

/// A single-consumer mailbox tuned for microsecond fork/join round trips:
/// senders push under a (shim) mutex and bump an atomic length; the receiver
/// spins on the length with `try_lock` probes, then parks. The `parked` flag
/// makes the sender-side unpark conditional, so steady-state sends are one
/// short critical section plus two atomics.
struct Mailbox<T> {
    queue: parking_lot::Mutex<VecDeque<T>>,
    /// Queued message count, maintained outside the lock so the receiver's
    /// spin loop does not touch the mutex until there is work.
    len: AtomicUsize,
    /// Set while the receiver is parked (or committing to park); senders only
    /// issue an unpark when they observe it.
    parked: AtomicBool,
    /// The receiver thread, registered before its first receive.
    owner: parking_lot::Mutex<Option<Thread>>,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            queue: parking_lot::Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            owner: parking_lot::Mutex::new(None),
        }
    }

    /// Registers the calling thread as the one `recv` will run on. Must be
    /// called by the receiver before its first `recv`.
    fn register_owner(&self) {
        *self.owner.lock() = Some(std::thread::current());
    }

    fn send(&self, value: T) {
        self.queue.lock().push_back(value);
        self.len.fetch_add(1, Ordering::Release);
        if self.parked.swap(false, Ordering::AcqRel) {
            if let Some(owner) = self.owner.lock().as_ref() {
                owner.unpark();
            }
        }
    }

    /// Receives the next message, escalating from spinning through yielding
    /// to parking (see [`spin_budget`]); panics if `dead` becomes set while
    /// waiting (a peer thread terminated — without this the join would
    /// deadlock instead of propagating the peer's panic).
    fn recv(&self, dead: &AtomicBool, spin: u32) -> T {
        let mut tries = 0u32;
        loop {
            if self.len.load(Ordering::Acquire) > 0 {
                if let Some(mut queue) = self.queue.try_lock() {
                    if let Some(value) = queue.pop_front() {
                        self.len.fetch_sub(1, Ordering::AcqRel);
                        return value;
                    }
                }
            }
            tries += 1;
            if tries <= spin {
                std::hint::spin_loop();
            } else if tries <= spin + YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                tries = 0;
                if dead.load(Ordering::Acquire) {
                    panic!("a shard peer thread terminated while work was outstanding");
                }
                self.parked.store(true, Ordering::Release);
                if self.len.load(Ordering::Acquire) == 0 {
                    // A timeout (rather than an unbounded park) keeps the
                    // `dead` check live even if an unpark is missed.
                    std::thread::park_timeout(Duration::from_micros(100));
                }
                self.parked.store(false, Ordering::Release);
            }
        }
    }
}

/// One entry of a protocol segment: a `Subscribe` or validated-on-the-worker
/// `Timer` callback for `node`, with the node's real timer-slot state as of
/// segment build (identical to its state when the node's first item runs
/// sequentially, because only a node's own actions mutate its slots).
struct ProtocolItem {
    node: u32,
    slots: [Option<EventHandle>; TimerKind::COUNT],
    op: ProtocolOp,
}

enum ProtocolOp {
    Subscribe(Topic),
    Timer {
        kind: TimerKind,
        handle: EventHandle,
    },
}

/// Worker-side simulation of one timer slot across a protocol segment,
/// mirroring exactly the states the sequential slot table would pass through:
/// still holding the pre-segment handle, re-armed by an earlier item of this
/// segment (the new handle is not yet assigned — the commit creates it — but
/// no event in this batch can carry it either, so `Local` only needs to be
/// distinguishable), or empty.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotSim {
    Real(EventHandle),
    Local,
    Empty,
}

/// Per-worker reusable state: the timer-slot overlay of the protocol segment
/// currently executing, plus the fused-window mobility bookkeeping.
#[derive(Default)]
struct WorkerScratch {
    overlay: HashMap<u32, [SlotSim; TimerKind::COUNT]>,
    /// Fused windows: one entry per owned node due within the window, keyed
    /// by its next wake time (`due(t) = {n : wake ≤ t}` — exactly the nodes
    /// the sequential active-list/wake-queue merge would advance at tick t).
    wake_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Fused windows: nodes advanced at least once (local indices), plus the
    /// dense flags backing the dedup.
    touched: Vec<bool>,
    touched_list: Vec<u32>,
    /// Fused windows: the nodes due at the tick currently being replayed.
    due: Vec<u32>,
}

/// The worker's verdict and position update for one mobility-advanced node.
#[derive(Clone, Copy)]
struct NodeMove {
    node: u32,
    position: Point,
    wake: SimTime,
}

/// One timestamp batch of a fused window, as a worker replays it. The
/// coordinator guarantees the segment list is in ascending timestamp order
/// and that every batch in it is **quiet** (see `Engine::fuse_kind`).
enum WorkerSeg {
    /// A mobility tick at `now`: advance the owned nodes due at `now`.
    Mobility { now: SimTime },
    /// The next `count` entries of the flattened item list are quiet timer
    /// callbacks firing at `now`.
    Timers { now: SimTime, count: usize },
}

/// The shared state of one work-stealing classify fan-out: receivers are
/// claimed in `chunk_size` runs from the atomic cursor by every shard (the
/// coordinator included), so a spatially skewed receiver set keeps all cores
/// busy. Results are filed per chunk index and reassembled in index order, so
/// the classification outcome — and everything downstream of it — is
/// bit-identical to the pre-split path.
struct StealShared {
    snapshot: CompletionSnapshot,
    config: RadioConfig,
    items: Vec<(u32, Point)>,
    chunk_size: usize,
    cursor: AtomicUsize,
    results: parking_lot::Mutex<Vec<(u32, Vec<ReceptionClass>)>>,
}

/// Work the coordinator hands a shard for one phase of the current batch.
enum Work {
    /// Advance these owned nodes (ascending) across the current tick.
    Mobility {
        now: SimTime,
        tick: SimDuration,
        nodes: Vec<u32>,
    },
    /// Replay a whole fused window: the segments in timestamp order, with the
    /// owned timer items flattened in (segment, FIFO) order.
    Fused {
        segs: Vec<WorkerSeg>,
        items: Vec<(u32, TimerKind)>,
        bufs: Vec<ActionBuf>,
        tick: SimDuration,
    },
    /// Join a work-stealing classify fan-out until the cursor runs dry.
    ClassifySteal { shared: Arc<StealShared> },
    /// Run a protocol segment's callbacks for the owned items (FIFO order).
    Protocol {
        now: SimTime,
        items: Vec<ProtocolItem>,
        bufs: Vec<ActionBuf>,
    },
    /// Classify one chunk of candidate receivers against a completed frame.
    Classify {
        snapshot: Arc<CompletionSnapshot>,
        config: RadioConfig,
        receivers: Vec<(u32, Point)>,
    },
    /// Deliver a received frame to these owned receivers (ascending).
    Deliver {
        now: SimTime,
        message: Arc<Message>,
        receivers: Vec<u32>,
        bufs: Vec<ActionBuf>,
    },
    /// Run one publication on an owned node.
    Publish {
        now: SimTime,
        node: u32,
        topic: Topic,
        validity: SimDuration,
        payload_bytes: usize,
        buf: ActionBuf,
    },
    /// Snapshot the owned nodes' protocol metrics (warm-up boundary).
    Snapshot,
    /// Tear down: the `run_until` call is over.
    Exit,
}

/// A shard's answer, tagged with its shard id by the reply mailbox.
enum Reply {
    Mobility {
        moves: Vec<NodeMove>,
    },
    /// Fused window: the **final** state of every node advanced at least once
    /// (ascending), plus the filled timer buffers in item order.
    Fused {
        moves: Vec<NodeMove>,
        bufs: Vec<ActionBuf>,
    },
    /// The shard drained its share of a work-stealing classify cursor (the
    /// classes travel through [`StealShared::results`]).
    ClassifySteal,
    Protocol {
        fired: Vec<bool>,
        bufs: Vec<ActionBuf>,
    },
    Classify {
        classes: Vec<ReceptionClass>,
    },
    Deliver {
        bufs: Vec<ActionBuf>,
    },
    Publish {
        id: EventId,
        buf: ActionBuf,
    },
    Snapshot {
        metrics: Vec<ProtocolMetrics>,
    },
}

/// One shard's exclusive slice of the structure-of-arrays node state:
/// `nodes[i]` is global node `first + i`.
struct ShardChunk<'a> {
    first: usize,
    nodes: &'a mut [SimNode],
    last_advance: &'a mut [SimTime],
    wake_times: &'a mut [SimTime],
    /// Per-node work accumulators feeding the periodic repartition: +1 per
    /// mobility advance, fired protocol callback and delivered message — a
    /// deterministic function of the simulation, never of thread timing.
    /// (Classify and publish work is unattributed; both are either spread by
    /// their own fan-out or too rare to skew a shard.)
    cost: &'a mut [f32],
}

/// Advances one owned node (local index) across the tick ending at `now`:
/// exactly [`World::advance_due_node`] minus the world-global effects (grid
/// update, wake-queue routing), which the coordinator replays at commit.
/// Returns the node's next wake time.
fn advance_node(
    chunk: &mut ShardChunk<'_>,
    index: usize,
    now: SimTime,
    tick: SimDuration,
) -> SimTime {
    let node = &mut chunk.nodes[index];
    let skipped = now - chunk.last_advance[index];
    if skipped > tick {
        node.mobility.advance(skipped - tick, &mut node.rng);
    }
    node.mobility.advance(tick, &mut node.rng);
    chunk.last_advance[index] = now;
    let speed = node.mobility.speed();
    let wake = if speed > 0.0 {
        now
    } else {
        now.saturating_add(node.mobility.time_to_transition())
    };
    chunk.wake_times[index] = wake;
    node.protocol.update_speed(Some(speed));
    chunk.cost[index] += 1.0;
    wake
}

/// Mobility phase, worker side: advance the due nodes and report each one's
/// move so the coordinator can replay the grid updates and wake-queue routing
/// in ascending node order.
fn do_mobility(
    chunk: &mut ShardChunk<'_>,
    now: SimTime,
    tick: SimDuration,
    due: &[u32],
) -> Vec<NodeMove> {
    due.iter()
        .map(|&global| {
            let index = global as usize - chunk.first;
            let wake = advance_node(chunk, index, now, tick);
            NodeMove {
                node: global,
                position: chunk.nodes[index].mobility.position(),
                wake,
            }
        })
        .collect()
}

/// Fused-window replay, worker side: walk the segments in timestamp order,
/// advancing the owned nodes due at each mobility tick and firing each quiet
/// timer item into its buffer. Only the **final** per-node state is reported:
/// nothing outside this shard can observe the intermediate positions (no
/// transmission exists anywhere in the window, and the coordinator's grid is
/// only read by transmission resolution), so one `NodeMove` per touched node
/// replaces per-tick move traffic.
///
/// Due-node discovery runs on a local heap over the shard's own wake times —
/// `due(t) = {n : wake(n) ≤ t}`, which is exactly the set the sequential
/// active-list/wake-queue merge advances at t (moving nodes carry `wake =
/// last tick ≤ t`; sleepers wake when their pause can end). Per-tick
/// cross-node order is irrelevant: every mutation here is node-private.
fn do_fused(
    chunk: &mut ShardChunk<'_>,
    scratch: &mut WorkerScratch,
    segs: &[WorkerSeg],
    items: &[(u32, TimerKind)],
    bufs: &mut [ActionBuf],
    tick: SimDuration,
) -> Vec<NodeMove> {
    let last_tick = segs.iter().rev().find_map(|seg| match seg {
        WorkerSeg::Mobility { now } => Some(*now),
        WorkerSeg::Timers { .. } => None,
    });
    scratch.wake_heap.clear();
    scratch.touched.clear();
    scratch.touched_list.clear();
    if let Some(last) = last_tick {
        scratch.touched.resize(chunk.nodes.len(), false);
        for (index, &wake) in chunk.wake_times.iter().enumerate() {
            if wake <= last {
                scratch.wake_heap.push(Reverse((wake, index as u32)));
            }
        }
    }
    let mut cursor = 0usize;
    for seg in segs {
        match *seg {
            WorkerSeg::Mobility { now } => {
                // Drain every node due at this tick before advancing any of
                // them: a mover's new wake equals `now`, and pushing it back
                // mid-drain would re-pop it within the same tick.
                scratch.due.clear();
                while let Some(&Reverse((wake, index))) = scratch.wake_heap.peek() {
                    if wake > now {
                        break;
                    }
                    scratch.wake_heap.pop();
                    scratch.due.push(index);
                }
                let mut due = std::mem::take(&mut scratch.due);
                for &local in &due {
                    let index = local as usize;
                    let wake = advance_node(chunk, index, now, tick);
                    if !scratch.touched[index] {
                        scratch.touched[index] = true;
                        scratch.touched_list.push(local);
                    }
                    let last = last_tick.expect("mobility seg implies a last tick");
                    if wake <= last {
                        scratch.wake_heap.push(Reverse((wake, local)));
                    }
                }
                due.clear();
                scratch.due = due;
            }
            WorkerSeg::Timers { now, count } => {
                for ((node, kind), buf) in items[cursor..cursor + count]
                    .iter()
                    .zip(&mut bufs[cursor..cursor + count])
                {
                    let index = *node as usize - chunk.first;
                    chunk.nodes[index].protocol.handle_timer(*kind, now, buf);
                    chunk.cost[index] += 1.0;
                }
                cursor += count;
            }
        }
    }
    // Final state of every advanced node, ascending — the concatenation
    // across shards restores global ascending order at the coordinator.
    scratch.touched_list.sort_unstable();
    scratch
        .touched_list
        .iter()
        .map(|&local| {
            let index = local as usize;
            NodeMove {
                node: (chunk.first + index) as u32,
                position: chunk.nodes[index].mobility.position(),
                wake: chunk.wake_times[index],
            }
        })
        .collect()
}

/// Protocol phase, worker side: runs each item's callback into its buffer,
/// deciding timer fire/skip on the slot overlay. Returns one fired flag per
/// item (`Subscribe` items always "fire").
fn do_protocol(
    chunk: &mut ShardChunk<'_>,
    scratch: &mut WorkerScratch,
    now: SimTime,
    items: &[ProtocolItem],
    bufs: &mut [ActionBuf],
) -> Vec<bool> {
    scratch.overlay.clear();
    items
        .iter()
        .zip(bufs.iter_mut())
        .map(|(item, buf)| {
            let overlay = scratch.overlay.entry(item.node).or_insert_with(|| {
                let mut slots = [SlotSim::Empty; TimerKind::COUNT];
                for (slot, real) in slots.iter_mut().zip(item.slots) {
                    if let Some(handle) = real {
                        *slot = SlotSim::Real(handle);
                    }
                }
                slots
            });
            let index = item.node as usize - chunk.first;
            let node = &mut chunk.nodes[index];
            let fired = match &item.op {
                ProtocolOp::Subscribe(topic) => {
                    node.protocol.subscribe(topic.clone(), now, buf);
                    true
                }
                ProtocolOp::Timer { kind, handle } => {
                    if overlay[kind.index()] == SlotSim::Real(*handle) {
                        overlay[kind.index()] = SlotSim::Empty;
                        node.protocol.handle_timer(*kind, now, buf);
                        true
                    } else {
                        false
                    }
                }
            };
            if fired {
                chunk.cost[index] += 1.0;
                // Track what the commit's ActionSink will do to this node's
                // real slots, so later items of the segment validate against
                // the state they would have seen sequentially.
                for action in buf.actions() {
                    match action {
                        Action::SetTimer { kind, .. } => overlay[kind.index()] = SlotSim::Local,
                        Action::CancelTimer(kind) => overlay[kind.index()] = SlotSim::Empty,
                        _ => {}
                    }
                }
            }
            fired
        })
        .collect()
}

/// Delivery phase, worker side: `handle_message` for each owned receiver.
fn do_deliver(
    chunk: &mut ShardChunk<'_>,
    now: SimTime,
    message: &Message,
    receivers: &[u32],
    bufs: &mut [ActionBuf],
) {
    for (&receiver, buf) in receivers.iter().zip(bufs.iter_mut()) {
        let index = receiver as usize - chunk.first;
        chunk.nodes[index]
            .protocol
            .handle_message(message, now, buf);
        chunk.cost[index] += 1.0;
    }
}

/// Pairs each receiver with its current position, the form in which
/// receivers travel to the shards that classify them.
fn positioned(medium: &RadioMedium, receivers: &[usize]) -> Vec<(u32, Point)> {
    receivers
        .iter()
        .map(|&receiver| (receiver as u32, medium.position(receiver)))
        .collect()
}

/// Classifies one run of a completed frame's receivers, each with its
/// position, in the order given.
fn classify_run(
    snapshot: &CompletionSnapshot,
    config: &RadioConfig,
    receivers: &[(u32, Point)],
) -> Vec<ReceptionClass> {
    receivers
        .iter()
        .map(|&(receiver, position)| snapshot.classify(config, receiver as usize, position))
        .collect()
}

/// Drains a work-stealing classify cursor: claim chunk indices until the
/// cursor passes the end, classify each claimed run, and file the classes
/// under the chunk index (the coordinator reassembles them in index order).
/// Run by every shard of the fan-out, the coordinator included.
fn steal_classify(shared: &StealShared) {
    loop {
        let chunk = shared.cursor.fetch_add(1, Ordering::Relaxed);
        let start = chunk * shared.chunk_size;
        if start >= shared.items.len() {
            break;
        }
        let stop = (start + shared.chunk_size).min(shared.items.len());
        let classes = classify_run(&shared.snapshot, &shared.config, &shared.items[start..stop]);
        shared.results.lock().push((chunk as u32, classes));
    }
}

/// Warm-up snapshot, worker side.
fn do_snapshot(chunk: &ShardChunk<'_>) -> Vec<ProtocolMetrics> {
    chunk
        .nodes
        .iter()
        .map(|node| node.protocol.metrics().clone())
        .collect()
}

/// The worker thread: serve phase requests for one shard until `Exit`. The
/// death flag guard turns a mid-phase panic into a coordinator-visible
/// signal instead of a join deadlock.
fn worker_loop(
    shard: usize,
    mut chunk: ShardChunk<'_>,
    inbox: &Mailbox<Work>,
    replies: &Mailbox<(usize, Reply)>,
    dead: &AtomicBool,
    spin: u32,
) {
    struct DeathFlag<'a>(&'a AtomicBool);
    impl Drop for DeathFlag<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let _flag = DeathFlag(dead);
    inbox.register_owner();
    let mut scratch = WorkerScratch::default();
    loop {
        match inbox.recv(dead, spin) {
            Work::Mobility { now, tick, nodes } => {
                let moves = do_mobility(&mut chunk, now, tick, &nodes);
                replies.send((shard, Reply::Mobility { moves }));
            }
            Work::Fused {
                segs,
                items,
                mut bufs,
                tick,
            } => {
                let moves = do_fused(&mut chunk, &mut scratch, &segs, &items, &mut bufs, tick);
                replies.send((shard, Reply::Fused { moves, bufs }));
            }
            Work::ClassifySteal { shared } => {
                steal_classify(&shared);
                // Drop our clone before replying so the coordinator can
                // reclaim the shared state with `Arc::try_unwrap`.
                drop(shared);
                replies.send((shard, Reply::ClassifySteal));
            }
            Work::Protocol {
                now,
                items,
                mut bufs,
            } => {
                let fired = do_protocol(&mut chunk, &mut scratch, now, &items, &mut bufs);
                replies.send((shard, Reply::Protocol { fired, bufs }));
            }
            Work::Classify {
                snapshot,
                config,
                receivers,
            } => {
                let classes = classify_run(&snapshot, &config, &receivers);
                // Drop our snapshot clone before replying so the coordinator
                // can reclaim the buffer with `Arc::try_unwrap`.
                drop(snapshot);
                replies.send((shard, Reply::Classify { classes }));
            }
            Work::Deliver {
                now,
                message,
                receivers,
                mut bufs,
            } => {
                do_deliver(&mut chunk, now, &message, &receivers, &mut bufs);
                drop(message);
                replies.send((shard, Reply::Deliver { bufs }));
            }
            Work::Publish {
                now,
                node,
                topic,
                validity,
                payload_bytes,
                mut buf,
            } => {
                let id = chunk.nodes[node as usize - chunk.first].protocol.publish(
                    topic,
                    validity,
                    payload_bytes,
                    now,
                    &mut buf,
                );
                replies.send((shard, Reply::Publish { id, buf }));
            }
            Work::Snapshot => {
                let metrics = do_snapshot(&chunk);
                replies.send((shard, Reply::Snapshot { metrics }));
            }
            Work::Exit => break,
        }
    }
}

/// Fuses one all-quiet timer batch into a window being drained: moves the
/// events into the flat window list, records the segment, and tightens the
/// window's re-arm limit (`min` over fired events of fire time + the kind's
/// quiet bound — the earliest any in-window schedule can land).
fn fuse_timer_batch(
    quiet: &[Option<SimDuration>; TimerKind::COUNT],
    time: SimTime,
    batch: &mut Vec<(EventHandle, WorldEvent)>,
    segs: &mut Vec<FusedSeg>,
    events: &mut Vec<(EventHandle, WorldEvent)>,
    limit: &mut Option<SimTime>,
) {
    let start = events.len();
    for &(_, event) in batch.iter() {
        let kind = match event {
            WorldEvent::Timer { kind, .. } => kind,
            _ => unreachable!("fusable timer batch holds only Timer events"),
        };
        let bound = quiet[kind.index()].expect("fusable timer batch holds only quiet kinds");
        let lands = time + bound;
        *limit = Some(limit.map_or(lands, |current| current.min(lands)));
    }
    events.append(batch);
    segs.push(FusedSeg::Timers {
        time,
        start,
        stop: events.len(),
    });
}

/// Splits the node state into per-shard chunks along the partition's ranges.
fn split_chunks<'a>(
    part: &BoundaryPartition,
    mut nodes: &'a mut [SimNode],
    mut last_advance: &'a mut [SimTime],
    mut wake_times: &'a mut [SimTime],
    mut cost: &'a mut [f32],
) -> Vec<ShardChunk<'a>> {
    let mut chunks = Vec::with_capacity(part.len());
    let mut first = 0;
    for shard in 0..part.len() {
        let width = part.range(shard).len();
        let (chunk_nodes, rest_nodes) = nodes.split_at_mut(width);
        let (chunk_last, rest_last) = last_advance.split_at_mut(width);
        let (chunk_wake, rest_wake) = wake_times.split_at_mut(width);
        let (chunk_cost, rest_cost) = cost.split_at_mut(width);
        chunks.push(ShardChunk {
            first,
            nodes: chunk_nodes,
            last_advance: chunk_last,
            wake_times: chunk_wake,
            cost: chunk_cost,
        });
        nodes = rest_nodes;
        last_advance = rest_last;
        wake_times = rest_wake;
        cost = rest_cost;
        first += width;
    }
    chunks
}

impl World {
    /// The sharded twin of the `run_until` event loop: same batches, same
    /// dispatch order, same results, with the pure per-node work of each
    /// batch fanned out to `effective_shards() - 1` scoped worker threads
    /// (the coordinator doubles as shard 0's worker).
    ///
    /// The run is stepped in **epochs** of [`REPARTITION_INTERVAL`] batches.
    /// Between epochs the worker scope is down, so the per-node cost
    /// accumulators can feed a [`BoundaryPartition::rebalance`] pass and the
    /// next epoch's chunks are split along the moved boundaries — shards
    /// track measured work, not node count. Repartitioning redistributes
    /// identical computations across threads; it cannot change results.
    pub(super) fn run_until_sharded(&mut self, deadline: SimTime) {
        let deadline = deadline.min(self.end);
        let mut part = BoundaryPartition::balanced(self.nodes.len(), self.effective_shards());
        let mut first_epoch = true;
        loop {
            // Don't pay thread spawns when nothing is due (or the run is over).
            match self.queue.peek_time() {
                Some(at) if at <= deadline => {}
                _ => return,
            }
            if !first_epoch && self.node_cost.iter().any(|&cost| cost > 0.0) {
                // EWMA at epoch granularity: rebalance on the accumulated
                // costs, then halve them so each pass weighs recent epochs
                // about twice as much as the epoch before.
                part.rebalance(&self.node_cost);
                self.stats.repartitions += 1;
                for cost in &mut self.node_cost {
                    *cost *= 0.5;
                }
            }
            first_epoch = false;
            self.run_epoch(&part, deadline);
        }
    }

    /// Runs up to [`REPARTITION_INTERVAL`] batches against one fixed
    /// partition: split the chunks, spawn the workers, drive the engine,
    /// join.
    fn run_epoch(&mut self, part: &BoundaryPartition, deadline: SimTime) {
        let radio = self.scenario.radio.clone();
        let quiet = self.quiet_timer_bounds();
        let adaptive = !self.fixed_lookahead;
        let steal = self.classify_stealing;
        let World {
            scenario,
            now,
            queue,
            nodes,
            medium,
            timer_slots,
            last_advance,
            wake_times,
            subscriber_bits,
            frames,
            free_frames,
            mac_rng,
            published,
            warmup_metrics,
            warmup_traffic,
            sizing,
            wake_queue,
            active,
            active_scratch,
            wake_scratch,
            action_buf,
            batch_scratch,
            subscriber_cache,
            end,
            traffic_free,
            node_cost,
            stats,
            ..
        } = self;
        let mut chunks = split_chunks(part, nodes, last_advance, wake_times, node_cost).into_iter();
        let chunk0 = chunks.next().expect("partition has at least one shard");
        // The mailboxes and the death flag live outside the scope so their
        // borrows outlive the scope's implicit join.
        let dead = AtomicBool::new(false);
        let replies: Mailbox<(usize, Reply)> = Mailbox::new();
        replies.register_owner();
        let inboxes: Vec<Mailbox<Work>> = (1..part.len()).map(|_| Mailbox::new()).collect();
        std::thread::scope(|scope| {
            // On every exit path — including a coordinator panic — release the
            // workers so `scope` can join them instead of deadlocking.
            struct ExitGuard<'a>(&'a [Mailbox<Work>]);
            impl Drop for ExitGuard<'_> {
                fn drop(&mut self) {
                    for inbox in self.0 {
                        inbox.send(Work::Exit);
                    }
                }
            }
            let _exit = ExitGuard(&inboxes);
            let replies_ref = &replies;
            let dead_ref = &dead;
            let spin = spin_budget(part.len());
            for (index, chunk) in chunks.enumerate() {
                let inbox = &inboxes[index];
                scope.spawn(move || {
                    worker_loop(index + 1, chunk, inbox, replies_ref, dead_ref, spin)
                });
            }
            let mut engine = Engine {
                scenario,
                queue,
                medium,
                timer_slots,
                subscriber_bits,
                frames,
                free_frames,
                mac_rng,
                published,
                warmup_metrics,
                warmup_traffic,
                sizing,
                wake_queue,
                active,
                active_scratch,
                wake_scratch,
                action_buf,
                subscriber_cache,
                now: *now,
                end: *end,
                radio,
                part: part.clone(),
                chunk0,
                scratch0: WorkerScratch::default(),
                inboxes: &inboxes,
                replies: &replies,
                dead: &dead,
                spin,
                reply_slots: (0..part.len()).map(|_| None).collect(),
                buf_pool: Vec::new(),
                bufvec_pool: Vec::new(),
                item_lists: (0..part.len()).map(|_| Vec::new()).collect(),
                snapshot: CompletionSnapshot::default(),
                classes: Vec::new(),
                received: Vec::new(),
                due: Vec::new(),
                adaptive,
                quiet,
                steal,
                traffic_free,
                stats,
                fused_segs: Vec::new(),
                fused_events: Vec::new(),
            };
            engine.run(deadline, batch_scratch, REPARTITION_INTERVAL);
            *now = engine.now;
        });
    }
}

/// The coordinator of one sharded `run_until` call: owns every piece of world
/// state the commit order serializes (scheduler, medium, RNG, timer table,
/// frame slab) plus shard 0's node chunk, and drives the per-batch
/// fork/join against the worker mailboxes.
struct Engine<'w, 'mb> {
    scenario: &'w Scenario,
    queue: &'w mut SchedulerQueue,
    medium: &'w mut RadioMedium,
    timer_slots: &'w mut Vec<[Option<EventHandle>; TimerKind::COUNT]>,
    subscriber_bits: &'w BitSet,
    frames: &'w mut Vec<Option<PendingFrame>>,
    free_frames: &'w mut Vec<u32>,
    mac_rng: &'w mut SimRng,
    published: &'w mut Vec<PublishedRecord>,
    warmup_metrics: &'w mut Option<Vec<ProtocolMetrics>>,
    warmup_traffic: &'w mut Option<Vec<TrafficCounters>>,
    sizing: &'w ProtocolConfig,
    wake_queue: &'w mut IndexedMinQueue,
    active: &'w mut Vec<usize>,
    active_scratch: &'w mut Vec<usize>,
    wake_scratch: &'w mut Vec<usize>,
    action_buf: &'w mut ActionBuf,
    subscriber_cache: &'w [usize],
    now: SimTime,
    end: SimTime,
    radio: RadioConfig,
    part: BoundaryPartition,
    chunk0: ShardChunk<'w>,
    scratch0: WorkerScratch,
    inboxes: &'mb [Mailbox<Work>],
    replies: &'mb Mailbox<(usize, Reply)>,
    dead: &'mb AtomicBool,
    /// Spin budget of this machine (see [`spin_budget`]).
    spin: u32,
    /// Replies of the in-flight fork, indexed by shard id.
    reply_slots: Vec<Option<Reply>>,
    /// Recycled `ActionBuf`s (with their pooled message vectors) and the
    /// vectors that carry them to workers and back.
    buf_pool: Vec<ActionBuf>,
    bufvec_pool: Vec<Vec<ActionBuf>>,
    /// Per-shard item lists of the protocol segment being built.
    item_lists: Vec<Vec<ProtocolItem>>,
    snapshot: CompletionSnapshot,
    classes: Vec<ReceptionClass>,
    received: Vec<u32>,
    due: Vec<u32>,
    /// Adaptive lookahead enabled (the default; `set_fixed_lookahead(true)`
    /// pins the engine to the one-batch conservative window).
    adaptive: bool,
    /// Per timer kind: `Some(bound)` if the kind is *quiet* while the world is
    /// traffic-free — its callback emits nothing but a re-arm of itself no
    /// sooner than `bound` after the fire (see `World::quiet_timer_bounds`).
    quiet: [Option<SimDuration>; TimerKind::COUNT],
    /// Within-batch work stealing for the classify fan-out (opt-in).
    steal: bool,
    /// No transmission has ever been created (and no publication dispatched):
    /// the standing precondition of window fusion. Cleared by the world's
    /// `ActionSink` on the first `Broadcast` commit.
    traffic_free: &'w mut bool,
    stats: &'w mut WorldDebugStats,
    /// Scratch of the fused window currently being drained.
    fused_segs: Vec<FusedSeg>,
    fused_events: Vec<(EventHandle, WorldEvent)>,
}

/// One timestamp batch of a fused window, coordinator side.
enum FusedSeg {
    /// A mobility tick at `time` — either popped from the wheel or *virtual*
    /// (the successor of an earlier fused tick, which sequential stepping
    /// would only have scheduled while processing that tick).
    Mobility { time: SimTime },
    /// A batch of quiet timer events at `time`:
    /// `fused_events[start..stop]`, in FIFO pop order.
    Timers {
        time: SimTime,
        start: usize,
        stop: usize,
    },
}

/// What `Engine::fuse_kind` decided about a freshly popped batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FuseKind {
    Mobility,
    Timers,
}

impl Engine<'_, '_> {
    /// The batch loop — structurally identical to the single-threaded
    /// `run_until`, with dispatch replaced by segmented fork/join, except
    /// that a fusable batch may open a widened window covering a whole run
    /// of consecutive quiet batches (see [`Engine::fused_window`]).
    ///
    /// Returns after `budget` timestamp batches at the latest, so the caller
    /// can interleave repartition passes; a fused window counts each batch it
    /// consumed.
    fn run(&mut self, deadline: SimTime, batch: &mut Vec<(EventHandle, WorldEvent)>, budget: u64) {
        let mut remaining = budget;
        while remaining > 0 {
            let at = match self.queue.peek_time() {
                Some(at) if at <= deadline => at,
                _ => break,
            };
            self.now = at;
            batch.clear();
            self.queue.pop_due_batch(at, batch);
            let consumed = match self.fuse_kind(batch) {
                Some(kind) => self.fused_window(kind, batch, deadline),
                None => {
                    self.dispatch_batch(batch);
                    1
                }
            };
            remaining = remaining.saturating_sub(consumed.max(1));
        }
    }

    /// Dispatches one timestamp batch the per-timestamp way. `self.now` must
    /// already be the batch's time.
    fn dispatch_batch(&mut self, batch: &[(EventHandle, WorldEvent)]) {
        let mut index = 0;
        while index < batch.len() {
            match batch[index].1 {
                WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. } => {
                    // Maximal run of protocol events: one fork/join.
                    let mut stop = index + 1;
                    while stop < batch.len()
                        && matches!(
                            batch[stop].1,
                            WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. }
                        )
                    {
                        stop += 1;
                    }
                    self.protocol_segment(&batch[index..stop]);
                    index = stop;
                }
                WorldEvent::TxStart { frame } => {
                    self.on_tx_start(frame);
                    index += 1;
                }
                WorldEvent::TxEnd { frame, tx } => {
                    self.on_tx_end(frame, tx);
                    index += 1;
                }
                WorldEvent::MobilityTick => {
                    self.on_mobility_tick();
                    index += 1;
                }
                WorldEvent::Publish { index: publication } => {
                    self.on_publish(publication);
                    index += 1;
                }
                WorldEvent::WarmupEnd => {
                    self.on_warmup_end();
                    index += 1;
                }
            }
        }
    }

    /// Decides whether a freshly popped batch may join a widened window.
    ///
    /// Fusable batches are exactly a lone `MobilityTick`, or an all-`Timer`
    /// batch every kind of which is quiet — and only while adaptive lookahead
    /// is on, no transmission has ever existed (`traffic_free`), and nothing
    /// is on the air (every frame slot free; implied by `traffic_free`, kept
    /// as belt-and-suspenders). A mixed tick+timer batch is never fused: the
    /// relative order of `update_speed` and `handle_timer` on one node could
    /// be observable there.
    fn fuse_kind(&self, batch: &[(EventHandle, WorldEvent)]) -> Option<FuseKind> {
        if !self.adaptive || !*self.traffic_free || self.frames.len() != self.free_frames.len() {
            return None;
        }
        if batch.len() == 1 && matches!(batch[0].1, WorldEvent::MobilityTick) {
            return Some(FuseKind::Mobility);
        }
        let all_quiet = batch.iter().all(|&(_, event)| {
            matches!(event, WorldEvent::Timer { kind, .. } if self.quiet[kind.index()].is_some())
        });
        all_quiet.then_some(FuseKind::Timers)
    }

    /// Drains and executes one widened window starting from `batch`, which
    /// was already popped at `self.now` and classified as `first`. Returns
    /// the number of timestamp batches consumed (fused segments plus the
    /// terminator batch, if one was popped).
    ///
    /// # Why fusing is exact
    ///
    /// While `traffic_free` holds and every fused timer kind is quiet, no
    /// in-window callback can emit anything except a re-arm of the fired
    /// timer itself, landing no sooner than the kind's quiet bound after the
    /// fire — and the drain never pops past `min(bound-carried limit) - 1`,
    /// so nothing scheduled *during* the window is ever popped *by* the
    /// window. Mobility only mutates node-private state plus the position
    /// grid, and the grid is read exclusively by transmission resolution, of
    /// which the window has none — so per-tick cross-shard position exchange
    /// is unobservable and only final states need committing. Each
    /// `(node, kind)` fires at most once per window (its re-arm lands past
    /// the window), so popped timer events are never stale — asserted at
    /// commit against the real slot table.
    fn fused_window(
        &mut self,
        first: FuseKind,
        batch: &mut Vec<(EventHandle, WorldEvent)>,
        deadline: SimTime,
    ) -> u64 {
        let tick = self.scenario.mobility_tick;
        let start = self.now;
        let mut segs = std::mem::take(&mut self.fused_segs);
        let mut events = std::mem::take(&mut self.fused_events);
        // The earliest time any in-window re-arm can land; fused pops stay
        // strictly below it.
        let mut limit: Option<SimTime> = None;
        // The virtual next mobility tick: sequential stepping would have
        // scheduled it while processing the last fused tick, so it is not in
        // the queue — it competes with the queue as a drain candidate here
        // and is committed (once) after the window.
        let mut next_tick: Option<SimTime> = None;
        match first {
            FuseKind::Mobility => {
                segs.push(FusedSeg::Mobility { time: start });
                let next = start + tick;
                next_tick = (next <= self.end).then_some(next);
            }
            FuseKind::Timers => {
                fuse_timer_batch(
                    &self.quiet,
                    start,
                    batch,
                    &mut segs,
                    &mut events,
                    &mut limit,
                );
            }
        }
        let mut terminator: Option<SimTime> = None;
        while segs.len() < MAX_FUSED_BATCHES {
            let mut cap = deadline;
            if let Some(limit) = limit {
                debug_assert!(limit > self.now, "a quiet bound under one clock step");
                cap = cap.min(limit - SimDuration::from_millis(1));
            }
            if let Some(next) = next_tick {
                cap = cap.min(next);
            }
            batch.clear();
            match self.queue.pop_due_batch_capped(cap, batch) {
                Some(at) if next_tick == Some(at) => {
                    // Collision: real events share the virtual tick's
                    // timestamp. Their seqs predate the tick's (the commit
                    // assigns it), so they run first — as the terminator —
                    // and the engine loop pops the re-scheduled tick after.
                    terminator = Some(at);
                    break;
                }
                Some(at) => match self.fuse_kind(batch) {
                    Some(FuseKind::Mobility) => {
                        // A real wheel tick (only possible while no fused
                        // tick has retired it into `next_tick`).
                        debug_assert!(next_tick.is_none());
                        segs.push(FusedSeg::Mobility { time: at });
                        let next = at + tick;
                        next_tick = (next <= self.end).then_some(next);
                    }
                    Some(FuseKind::Timers) => {
                        fuse_timer_batch(
                            &self.quiet,
                            at,
                            batch,
                            &mut segs,
                            &mut events,
                            &mut limit,
                        );
                    }
                    None => {
                        terminator = Some(at);
                        break;
                    }
                },
                None => {
                    if next_tick == Some(cap) {
                        // Nothing in the queue up to the virtual tick: the
                        // tick itself is the next batch. Fuse it.
                        segs.push(FusedSeg::Mobility { time: cap });
                        let next = cap + tick;
                        next_tick = (next <= self.end).then_some(next);
                    } else {
                        break;
                    }
                }
            }
        }
        let consumed = if segs.len() < 2 {
            // A window of one batch: the per-timestamp path is cheaper (a
            // fused round trip scans every owned wake time). Replay it the
            // normal way; the stats only count genuinely widened windows.
            self.now = start;
            match first {
                FuseKind::Mobility => self.on_mobility_tick(),
                FuseKind::Timers => self.protocol_segment(&events),
            }
            1
        } else {
            self.execute_fused(&segs, &events, tick);
            self.stats.windows_widened += 1;
            self.stats.batches_fused += segs.len() as u64;
            segs.len() as u64
        };
        segs.clear();
        events.clear();
        self.fused_segs = segs;
        self.fused_events = events;
        if let Some(at) = terminator {
            self.now = at;
            self.dispatch_batch(batch);
            consumed + 1
        } else {
            consumed
        }
    }

    /// Executes a drained window of ≥ 2 fused segments: one fork/join for
    /// the whole window, then a sequential commit walk in exact dispatch
    /// order.
    fn execute_fused(
        &mut self,
        segs: &[FusedSeg],
        events: &[(EventHandle, WorldEvent)],
        tick: SimDuration,
    ) {
        let shard_count = self.part.len();
        let last_mobility = segs.iter().rev().find_map(|seg| match seg {
            FusedSeg::Mobility { time } => Some(*time),
            FusedSeg::Timers { .. } => None,
        });
        // Build each shard's segment list plus its timer items flattened in
        // (segment, FIFO) order. Mobility segments go to every shard; timer
        // segments only where the shard owns items.
        let mut worker_segs: Vec<Vec<WorkerSeg>> = (0..shard_count).map(|_| Vec::new()).collect();
        let mut worker_items: Vec<Vec<(u32, TimerKind)>> =
            (0..shard_count).map(|_| Vec::new()).collect();
        let mut counts = vec![0usize; shard_count];
        for seg in segs {
            match *seg {
                FusedSeg::Mobility { time } => {
                    for list in &mut worker_segs {
                        list.push(WorkerSeg::Mobility { now: time });
                    }
                }
                FusedSeg::Timers { time, start, stop } => {
                    counts.fill(0);
                    for &(_, event) in &events[start..stop] {
                        let (node, kind) = match event {
                            WorldEvent::Timer { node, kind } => (node, kind),
                            _ => unreachable!("fused segments hold only Timer events"),
                        };
                        let shard = self.part.owner(node.index());
                        worker_items[shard].push((node.0, kind));
                        counts[shard] += 1;
                    }
                    for (list, &count) in worker_segs.iter_mut().zip(&counts) {
                        if count > 0 {
                            list.push(WorkerSeg::Timers { now: time, count });
                        }
                    }
                }
            }
        }
        // Fork: workers first, then shard 0 inline on this thread.
        let mut outstanding = 0;
        let mut segs0 = Vec::new();
        let mut items0 = Vec::new();
        for (shard, (shard_segs, items)) in worker_segs.into_iter().zip(worker_items).enumerate() {
            if shard == 0 {
                segs0 = shard_segs;
                items0 = items;
                continue;
            }
            if shard_segs.is_empty() {
                continue;
            }
            let bufs = self.take_bufs(items.len());
            self.inboxes[shard - 1].send(Work::Fused {
                segs: shard_segs,
                items,
                bufs,
                tick,
            });
            outstanding += 1;
        }
        let mut bufs0 = self.take_bufs(items0.len());
        let moves0 = do_fused(
            &mut self.chunk0,
            &mut self.scratch0,
            &segs0,
            &items0,
            &mut bufs0,
            tick,
        );
        self.collect_replies(outstanding);
        let mut moves_list: Vec<Vec<NodeMove>> = Vec::with_capacity(shard_count);
        let mut bufs_list: Vec<Vec<ActionBuf>> = Vec::with_capacity(shard_count);
        moves_list.push(moves0);
        bufs_list.push(bufs0);
        for shard in 1..shard_count {
            match self.reply_slots[shard].take() {
                Some(Reply::Fused { moves, bufs }) => {
                    moves_list.push(moves);
                    bufs_list.push(bufs);
                }
                None => {
                    moves_list.push(Vec::new());
                    bufs_list.push(Vec::new());
                }
                Some(_) => unreachable!("mismatched reply kind"),
            }
        }
        // Commit walk: the segments in timestamp order, each timer segment's
        // events in FIFO order — the exact sequential dispatch order.
        let mut cursors = vec![0usize; shard_count];
        for seg in segs {
            match *seg {
                FusedSeg::Mobility { time } => {
                    self.now = time;
                    // Sequential stepping schedules the successor while
                    // processing a tick. Only the last one's schedule
                    // survives the window (the earlier ones were consumed
                    // virtually), but its seq must be assigned *at this walk
                    // position*: a later segment's re-arm could land on the
                    // same future timestamp, and FIFO order there is seq
                    // order.
                    if Some(time) == last_mobility {
                        let next = time + tick;
                        if next <= self.end {
                            self.queue.schedule(next, WorldEvent::MobilityTick);
                        }
                    }
                }
                FusedSeg::Timers { time, start, stop } => {
                    self.now = time;
                    for (handle, event) in &events[start..stop] {
                        let (node, kind) = match *event {
                            WorldEvent::Timer { node, kind } => (node, kind),
                            _ => unreachable!("fused segments hold only Timer events"),
                        };
                        let shard = self.part.owner(node.index());
                        let cursor = cursors[shard];
                        cursors[shard] += 1;
                        // Quiet kinds are never lazily cancelled, so the
                        // popped event cannot be stale (the sequential fire
                        // check would pass) — see the fusing proof.
                        debug_assert_eq!(
                            self.timer_slots[node.index()][kind.index()],
                            Some(*handle),
                            "a fused timer event went stale mid-window"
                        );
                        self.timer_slots[node.index()][kind.index()] = None;
                        let mut buf = std::mem::take(&mut bufs_list[shard][cursor]);
                        self.apply_actions(node, &mut buf);
                        bufs_list[shard][cursor] = buf;
                    }
                }
            }
        }
        debug_assert!(
            *self.traffic_free,
            "a fused window committed a Broadcast — the quiet table is wrong"
        );
        // Final mobility state: grid positions and active/wake-queue routing
        // for every node advanced at least once, in ascending node order
        // (shard concatenation preserves it). Untouched nodes kept their
        // wake-queue entries and wake > last tick, exactly as sequentially.
        if let Some(last) = last_mobility {
            let mut next_active = std::mem::take(self.active_scratch);
            next_active.clear();
            for moves in &moves_list {
                for entry in moves {
                    let index = entry.node as usize;
                    self.medium.update_position(index, entry.position);
                    if entry.wake <= last {
                        // Ends the window moving: it may still hold a queue
                        // entry from before the window (the coordinator never
                        // popped in here), which must not wake it again.
                        self.wake_queue.remove(index);
                        next_active.push(index);
                    } else {
                        self.wake_queue.set(index, entry.wake);
                    }
                }
            }
            std::mem::swap(self.active, &mut next_active);
            *self.active_scratch = next_active;
        }
        for bufs in bufs_list {
            self.return_bufs(bufs);
        }
    }

    /// Commits one node's emitted actions — in the exact sequential order the
    /// caller guarantees — through the shared [`ActionSink`].
    fn apply_actions(&mut self, node: NodeId, out: &mut ActionBuf) {
        ActionSink {
            queue: &mut *self.queue,
            frames: &mut *self.frames,
            free_frames: &mut *self.free_frames,
            timer_slots: &mut *self.timer_slots,
            mac_rng: &mut *self.mac_rng,
            max_jitter: self.radio.max_contention_jitter,
            now: self.now,
            traffic_free: &mut *self.traffic_free,
        }
        .apply(node, out);
    }

    /// Blocks until `count` outstanding replies arrived, filing each by shard.
    fn collect_replies(&mut self, count: usize) {
        for _ in 0..count {
            let (shard, reply) = self.replies.recv(self.dead, self.spin);
            debug_assert!(self.reply_slots[shard].is_none(), "double reply");
            self.reply_slots[shard] = Some(reply);
        }
    }

    fn take_buf(&mut self) -> ActionBuf {
        self.buf_pool.pop().unwrap_or_default()
    }

    fn take_bufs(&mut self, count: usize) -> Vec<ActionBuf> {
        let mut bufs = self.bufvec_pool.pop().unwrap_or_default();
        debug_assert!(bufs.is_empty());
        bufs.extend((0..count).map(|_| self.buf_pool.pop().unwrap_or_default()));
        bufs
    }

    fn return_bufs(&mut self, mut bufs: Vec<ActionBuf>) {
        // Committed buffers come back drained; keep them (and their message
        // pools) for the next phase.
        self.buf_pool.append(&mut bufs);
        self.bufvec_pool.push(bufs);
    }

    /// One maximal run of same-timestamp `Subscribe`/`Timer` events: build
    /// per-shard item lists (with slot snapshots), fork the callbacks, then
    /// commit every emitted action in the original FIFO event order.
    fn protocol_segment(&mut self, events: &[(EventHandle, WorldEvent)]) {
        let shard_count = self.part.len();
        let mut item_lists = std::mem::take(&mut self.item_lists);
        for (handle, event) in events {
            let (node, op) = match *event {
                WorldEvent::Subscribe { node } => {
                    let topic = if self.subscriber_bits.contains(node.index()) {
                        self.scenario.subscriber_topic.clone()
                    } else {
                        self.scenario.bystander_topic.clone()
                    };
                    (node, ProtocolOp::Subscribe(topic))
                }
                WorldEvent::Timer { node, kind } => (
                    node,
                    ProtocolOp::Timer {
                        kind,
                        handle: *handle,
                    },
                ),
                _ => unreachable!("protocol segments hold only Subscribe/Timer events"),
            };
            item_lists[self.part.owner(node.index())].push(ProtocolItem {
                node: node.0,
                slots: self.timer_slots[node.index()],
                op,
            });
        }
        // Fork: workers first, then shard 0 inline on this thread.
        let mut outstanding = 0;
        for (shard, list) in item_lists.iter_mut().enumerate().skip(1) {
            if list.is_empty() {
                continue;
            }
            let items = std::mem::take(list);
            let bufs = self.take_bufs(items.len());
            self.inboxes[shard - 1].send(Work::Protocol {
                now: self.now,
                items,
                bufs,
            });
            outstanding += 1;
        }
        let mut items0 = std::mem::take(&mut item_lists[0]);
        let mut bufs0 = self.take_bufs(items0.len());
        let fired0 = do_protocol(
            &mut self.chunk0,
            &mut self.scratch0,
            self.now,
            &items0,
            &mut bufs0,
        );
        self.collect_replies(outstanding);
        // Join: walk the events in FIFO order again, pulling each item's
        // result from its shard's cursor, and commit.
        let mut results: Vec<(Vec<bool>, Vec<ActionBuf>)> = Vec::with_capacity(shard_count);
        results.push((fired0, bufs0));
        for shard in 1..shard_count {
            match self.reply_slots[shard].take() {
                Some(Reply::Protocol { fired, bufs }) => results.push((fired, bufs)),
                None => results.push((Vec::new(), Vec::new())),
                Some(_) => unreachable!("mismatched reply kind"),
            }
        }
        let mut cursors = vec![0usize; shard_count];
        for (handle, event) in events {
            let node = match *event {
                WorldEvent::Subscribe { node } | WorldEvent::Timer { node, .. } => node,
                _ => unreachable!(),
            };
            let shard = self.part.owner(node.index());
            let cursor = cursors[shard];
            cursors[shard] += 1;
            let fired = results[shard].0[cursor];
            if !fired {
                continue; // skipped stale timer: nothing ran, nothing emitted
            }
            if let WorldEvent::Timer { node, kind } = *event {
                // The overlay fired this timer, which implies no earlier item
                // of this segment touched the slot — so it still holds this
                // exact handle, as the sequential fire check would require.
                debug_assert_eq!(self.timer_slots[node.index()][kind.index()], Some(*handle));
                self.timer_slots[node.index()][kind.index()] = None;
            }
            let mut buf = std::mem::take(&mut results[shard].1[cursor]);
            self.apply_actions(node, &mut buf);
            results[shard].1[cursor] = buf;
        }
        for (_, bufs) in results {
            self.return_bufs(bufs);
        }
        items0.clear();
        item_lists[0] = items0;
        self.item_lists = item_lists;
    }

    /// Identical to the sequential `on_tx_start` (no per-node work to fork).
    fn on_tx_start(&mut self, frame: u32) {
        let (sender, size) = match &self.frames[frame as usize] {
            Some(pending) => (pending.sender, pending.message.wire_size_bytes(self.sizing)),
            None => return,
        };
        let (tx, ends_at) = self
            .medium
            .begin_transmission(sender.index(), size, self.now);
        self.queue
            .schedule(ends_at, WorldEvent::TxEnd { frame, tx });
    }

    /// Frame completion: snapshot (with its receivers) at the coordinator,
    /// classification fanned out when heavy, fringe draws and counter updates
    /// sequential ascending (RNG order), delivery callbacks fanned out to the
    /// receivers' owners, commits sequential ascending.
    fn on_tx_end(&mut self, frame: u32, tx: TxId) {
        let pending = match self.frames[frame as usize].take() {
            Some(pending) => pending,
            None => return,
        };
        self.free_frames.push(frame);
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.medium.begin_completion(tx, &mut snapshot);
        let mut classes = std::mem::take(&mut self.classes);
        classes.clear();
        let work = snapshot.receivers().len() * (snapshot.interferer_count() + 1);
        let parallel = !self.inboxes.is_empty() && work >= PARALLEL_CLASSIFY_MIN_WORK;
        self.stats.classify_fanouts += u64::from(parallel);
        let snapshot = if parallel && self.steal {
            // Work-stealing variant (opt-in): every shard — coordinator
            // included — claims fixed-size receiver chunks from a shared
            // cursor, so a spatially skewed receiver set cannot idle the
            // far shards. Chunks reassemble in index order: bit-identical.
            let shard_count = self.part.len();
            let items = positioned(self.medium, snapshot.receivers());
            let chunk_size = items.len().div_ceil(shard_count * 4).max(64);
            let shared = Arc::new(StealShared {
                snapshot,
                config: self.radio.clone(),
                items,
                chunk_size,
                cursor: AtomicUsize::new(0),
                results: parking_lot::Mutex::new(Vec::new()),
            });
            for inbox in self.inboxes {
                inbox.send(Work::ClassifySteal {
                    shared: Arc::clone(&shared),
                });
            }
            steal_classify(&shared);
            self.collect_replies(self.inboxes.len());
            for shard in 1..shard_count {
                match self.reply_slots[shard].take() {
                    Some(Reply::ClassifySteal) => {}
                    _ => unreachable!("mismatched reply kind"),
                }
            }
            let Ok(shared) = Arc::try_unwrap(shared) else {
                unreachable!("workers drop their shared-state clones before replying")
            };
            let mut results = shared.results.into_inner();
            results.sort_unstable_by_key(|&(chunk, _)| chunk);
            for (_, chunk_classes) in results {
                classes.extend(chunk_classes);
            }
            shared.snapshot
        } else if parallel {
            let shard_count = self.part.len();
            let snapshot = Arc::new(snapshot);
            let receivers = snapshot.receivers();
            let chunk = receivers.len().div_ceil(shard_count);
            let mut chunks = receivers.chunks(chunk);
            let own = chunks.next().unwrap_or_default();
            let mut outstanding = 0;
            for (inbox, run) in self.inboxes.iter().zip(chunks) {
                inbox.send(Work::Classify {
                    snapshot: Arc::clone(&snapshot),
                    config: self.radio.clone(),
                    receivers: positioned(self.medium, run),
                });
                outstanding += 1;
            }
            classes.extend(own.iter().map(|&receiver| {
                snapshot.classify(&self.radio, receiver, self.medium.position(receiver))
            }));
            self.collect_replies(outstanding);
            for shard in 1..=outstanding {
                match self.reply_slots[shard].take() {
                    Some(Reply::Classify { classes: chunk }) => classes.extend(chunk),
                    _ => unreachable!("mismatched reply kind"),
                }
            }
            let Ok(snapshot) = Arc::try_unwrap(snapshot) else {
                unreachable!("workers drop their snapshot clones before replying")
            };
            snapshot
        } else {
            classes.extend(snapshot.receivers().iter().map(|&receiver| {
                snapshot.classify(&self.radio, receiver, self.medium.position(receiver))
            }));
            snapshot
        };
        // Sequential half: fringe draws + counters, ascending receiver order.
        let mut received = std::mem::take(&mut self.received);
        received.clear();
        for (&receiver, &class) in snapshot.receivers().iter().zip(classes.iter()) {
            let outcome = self
                .medium
                .resolve_classified(&snapshot, receiver, class, self.mac_rng);
            if outcome == ReceptionOutcome::Received {
                received.push(receiver as u32);
            }
        }
        if received.is_empty() {
            self.action_buf.recycle_message(pending.message);
        } else {
            self.deliver(&received, pending.message);
        }
        self.received = received;
        self.classes = classes;
        self.snapshot = snapshot;
    }

    /// Routes a received frame to the owning shards of its receivers
    /// (ascending), runs `handle_message` in parallel, and commits the
    /// emitted actions in ascending receiver order — the exact sequential
    /// interleaving, since callbacks draw no randomness.
    fn deliver(&mut self, received: &[u32], message: Message) {
        let shard_count = self.part.len();
        let message = Arc::new(message);
        // Per-shard contiguous runs of the ascending receiver list.
        let range0 = self.part.range(0);
        let split0 = received.partition_point(|&r| (r as usize) < range0.end);
        let mut outstanding = 0;
        let mut cursor = split0;
        for shard in 1..shard_count {
            let range = self.part.range(shard);
            let stop = cursor + received[cursor..].partition_point(|&r| (r as usize) < range.end);
            if stop > cursor {
                let receivers: Vec<u32> = received[cursor..stop].to_vec();
                let bufs = self.take_bufs(receivers.len());
                self.inboxes[shard - 1].send(Work::Deliver {
                    now: self.now,
                    message: Arc::clone(&message),
                    receivers,
                    bufs,
                });
                outstanding += 1;
            }
            cursor = stop;
        }
        let mut bufs0 = self.take_bufs(split0);
        do_deliver(
            &mut self.chunk0,
            self.now,
            &message,
            &received[..split0],
            &mut bufs0,
        );
        self.collect_replies(outstanding);
        // Commit ascending: shard 0's run first, then each worker shard's.
        for (index, &receiver) in received[..split0].iter().enumerate() {
            let mut buf = std::mem::take(&mut bufs0[index]);
            self.apply_actions(NodeId(receiver), &mut buf);
            bufs0[index] = buf;
        }
        self.return_bufs(bufs0);
        let mut cursor = split0;
        for shard in 1..shard_count {
            let range = self.part.range(shard);
            let stop = cursor + received[cursor..].partition_point(|&r| (r as usize) < range.end);
            if stop > cursor {
                let mut bufs = match self.reply_slots[shard].take() {
                    Some(Reply::Deliver { bufs }) => bufs,
                    _ => unreachable!("mismatched reply kind"),
                };
                for (index, &receiver) in received[cursor..stop].iter().enumerate() {
                    let mut buf = std::mem::take(&mut bufs[index]);
                    self.apply_actions(NodeId(receiver), &mut buf);
                    bufs[index] = buf;
                }
                self.return_bufs(bufs);
            }
            cursor = stop;
        }
        // All worker clones were dropped before their replies; reclaim the
        // message's vectors for the next broadcast.
        if let Ok(message) = Arc::try_unwrap(message) {
            self.action_buf.recycle_message(message);
        }
    }

    /// Mobility tick: due-node discovery and wake-queue routing stay at the
    /// coordinator (heap order is global state); the advances — the O(due)
    /// integration work — fan out to the owners.
    fn on_mobility_tick(&mut self) {
        let tick = self.scenario.mobility_tick;
        let now = self.now;
        let mut woken = std::mem::take(self.wake_scratch);
        woken.clear();
        while let Some((_, index)) = self.wake_queue.pop_due(now) {
            woken.push(index);
        }
        woken.sort_unstable();
        // Merge the (sorted) active and woken lists into one ascending due
        // list — same order the sequential merge walk advances them in.
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        {
            let active = &*self.active;
            let (mut a, mut w) = (0usize, 0usize);
            loop {
                match (active.get(a).copied(), woken.get(w).copied()) {
                    (Some(x), Some(y)) if x < y => {
                        a += 1;
                        due.push(x as u32);
                    }
                    (_, Some(y)) => {
                        w += 1;
                        due.push(y as u32);
                    }
                    (Some(x), None) => {
                        a += 1;
                        due.push(x as u32);
                    }
                    (None, None) => break,
                }
            }
        }
        *self.wake_scratch = woken;
        // Fork the advances along shard boundaries (due is ascending).
        let shard_count = self.part.len();
        let split0 = {
            let range0 = self.part.range(0);
            due.partition_point(|&i| (i as usize) < range0.end)
        };
        let mut outstanding = 0;
        let mut cursor = split0;
        for shard in 1..shard_count {
            let range = self.part.range(shard);
            let stop = cursor + due[cursor..].partition_point(|&i| (i as usize) < range.end);
            if stop > cursor {
                self.inboxes[shard - 1].send(Work::Mobility {
                    now,
                    tick,
                    nodes: due[cursor..stop].to_vec(),
                });
                outstanding += 1;
            }
            cursor = stop;
        }
        let moves0 = do_mobility(&mut self.chunk0, now, tick, &due[..split0]);
        self.collect_replies(outstanding);
        // Commit ascending (shard order = node order): grid updates and
        // active/wake-queue routing, exactly as the sequential walk does.
        let mut next_active = std::mem::take(self.active_scratch);
        next_active.clear();
        let commit =
            |engine: &mut Engine<'_, '_>, next_active: &mut Vec<usize>, moves: &[NodeMove]| {
                for entry in moves {
                    let index = entry.node as usize;
                    engine.medium.update_position(index, entry.position);
                    if entry.wake <= now {
                        next_active.push(index);
                    } else {
                        engine.wake_queue.set(index, entry.wake);
                    }
                }
            };
        commit(self, &mut next_active, &moves0);
        for shard in 1..shard_count {
            if let Some(Reply::Mobility { moves }) = self.reply_slots[shard].take() {
                commit(self, &mut next_active, &moves);
            }
        }
        std::mem::swap(self.active, &mut next_active);
        *self.active_scratch = next_active;
        self.due = due;
        // Schedule the next tick (the sequential loop does this after the
        // per-path advance).
        let next = now + tick;
        if next <= self.end {
            self.queue.schedule(next, WorldEvent::MobilityTick);
        }
    }

    /// Publication: publisher choice draws MAC randomness at the coordinator;
    /// the publish callback runs on the owning shard; the commit is inline.
    fn on_publish(&mut self, index: u32) {
        // A published event can ride any later quiet timer's broadcast, so
        // window fusion is off for good from here (until the next populate).
        *self.traffic_free = false;
        let publication = self.scenario.publications[index as usize].clone();
        let publisher = resolve_publisher_with(
            publication.publisher,
            self.timer_slots.len(),
            self.subscriber_cache,
            self.mac_rng,
        );
        let shard = self.part.owner(publisher);
        let (id, mut buf) = if shard == 0 {
            let mut buf = self.take_buf();
            let id = self.chunk0.nodes[publisher - self.chunk0.first]
                .protocol
                .publish(
                    publication.topic.clone(),
                    publication.validity,
                    publication.payload_bytes,
                    self.now,
                    &mut buf,
                );
            (id, buf)
        } else {
            let buf = self.take_buf();
            self.inboxes[shard - 1].send(Work::Publish {
                now: self.now,
                node: publisher as u32,
                topic: publication.topic.clone(),
                validity: publication.validity,
                payload_bytes: publication.payload_bytes,
                buf,
            });
            self.collect_replies(1);
            match self.reply_slots[shard].take() {
                Some(Reply::Publish { id, buf }) => (id, buf),
                _ => unreachable!("mismatched reply kind"),
            }
        };
        self.published.push(PublishedRecord {
            id,
            publisher,
            topic: publication.topic,
        });
        self.apply_actions(NodeId::from_index(publisher), &mut buf);
        self.buf_pool.push(buf);
    }

    /// Warm-up boundary: metrics snapshots fan out; shard order concatenation
    /// restores ascending node order.
    fn on_warmup_end(&mut self) {
        for inbox in self.inboxes {
            inbox.send(Work::Snapshot);
        }
        let mut metrics = do_snapshot(&self.chunk0);
        self.collect_replies(self.inboxes.len());
        for shard in 1..self.part.len() {
            match self.reply_slots[shard].take() {
                Some(Reply::Snapshot { metrics: chunk }) => metrics.extend(chunk),
                _ => unreachable!("mismatched reply kind"),
            }
        }
        *self.warmup_metrics = Some(metrics);
        *self.warmup_traffic = Some(self.medium.all_counters().to_vec());
    }
}
