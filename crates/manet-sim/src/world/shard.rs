//! Deterministic sharded stepping: one [`World`], many cores, bit-identical
//! reports.
//!
//! This is the second of the world's two event loops (see the parent module):
//! same batches, same dispatch order, same [`Coordinator`] methods as the
//! serial loop — but where the serial loop runs a protocol callback inline
//! and commits straight away, the [`Engine`] here **segments** a batch,
//! **forks** the callbacks to the owning shards, replays timer fire/skip
//! decisions on a per-node slot **overlay**, and **joins** the emitted actions
//! back into the sequential commit order. Nothing the coordinator owns is
//! re-declared or re-implemented in this file.
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
//! `Coordinator::traffic_free`, re-armed by `populate`), the event stream is
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
//! dispatched per-timestamp.
//!
//! # Cost-balanced boundaries
//!
//! Contiguous index ranges keep commits order-preserving, but equal *node
//! counts* are not equal *work*: cost concentrates wherever the traffic and
//! the due mobility nodes are. Each shard therefore accumulates a per-node
//! work count (+1 per mobility advance, fired callback, delivered message —
//! a deterministic function of the simulation, never of thread timing), and
//! the run is stepped in epochs of [`REPARTITION_INTERVAL`] batches: between
//! epochs the worker scope is down and [`BoundaryPartition::rebalance`]
//! slides the contiguous boundaries toward equal accumulated cost (the
//! accumulators halve each pass — an EWMA at epoch granularity). That
//! redistributes identical computations across threads; it cannot change
//! results.
//!
//! # What may run in parallel (and what must not)
//!
//! Bit-identity with the serial loop is non-negotiable (the golden
//! fingerprints and the oracle proptest enforce it), and two global
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
//! another node's state; [`Coordinator::commit`] mutates only coordinator
//! state (scheduler, frame slab, timer slots, MAC RNG) that callbacks never
//! read; same-timestamp `TxStart`s never overlap the `TxEnd`s of the same
//! batch (overlap requires `start < end` strictly). Timer fire/skip decisions
//! — the one place a callback's *validity* depends on earlier commits of the
//! same batch — are replayed on a per-node slot overlay (see [`SlotSim`]),
//! which is exact because only a node's own actions can touch its slots.
//!
//! # Partitioning
//!
//! Nodes are split into [`BoundaryPartition`] contiguous index ranges and
//! each worker borrows its range of [`NodeArrays`] (`split_at_mut` — no
//! copies, no unsafe). Spatial bands were considered and rejected: with a
//! one-batch window every boundary is "hot" anyway (all cross-shard traffic
//! routes through the coordinator each batch), so spatial locality buys
//! nothing that index locality doesn't, and index ranges keep the hot arrays
//! contiguous per worker. Because ranges are ascending, any ascending node
//! list splits into per-shard runs ([`Engine::split_runs`]) whose
//! concatenation — shard 0 first — restores ascending NodeId order, which is
//! the merge order the serial loop uses everywhere.
//!
//! # Exchange
//!
//! Workers are long-lived within one epoch (`std::thread::scope`) and
//! exchange work through single-consumer spin-then-park mailboxes
//! ([`Mailbox`]): a send is a lock push plus an atomic; an idle receiver
//! spins briefly (`try_lock`, no syscalls) before parking. Round trips are
//! ~a microsecond, which per-batch parallel work amortizes. The coordinator
//! doubles as shard 0's worker and files its own result beside the workers'
//! replies, so every join is one walk over the shards in order: receivers are
//! routed to their owning shard, callbacks run in parallel, and the emitted
//! actions are committed in ascending receiver order — i.e. drained in
//! (time, seq, NodeId) order, since batches are already (time, seq)-ordered.

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
    /// the coordinator's active-list/wake-queue merge would advance at tick
    /// t).
    wake_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Fused windows: nodes advanced at least once (local indices), plus the
    /// dense flags backing the dedup.
    touched: Vec<bool>,
    touched_list: Vec<u32>,
    /// Fused windows: the nodes due at the tick currently being replayed.
    due: Vec<u32>,
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
    /// Tear down: the epoch is over.
    Exit,
}

/// A shard's answer, filed under its shard id (see [`Engine::reply_slots`]).
enum Reply {
    /// A mobility tick's moves, or — for a fused window — the **final** state
    /// of every node advanced at least once; ascending either way.
    Mobility {
        moves: Vec<NodeMove>,
    },
    /// Fused window: the moves as above, plus the filled timer buffers in
    /// item order.
    Fused {
        moves: Vec<NodeMove>,
        bufs: Vec<ActionBuf>,
    },
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

/// One shard's exclusive slice of [`NodeArrays`]: `nodes[i]` is global node
/// `first + i`.
struct ShardChunk<'a> {
    first: usize,
    nodes: &'a mut [SimNode],
    last_advance: &'a mut [SimTime],
    wake_times: &'a mut [SimTime],
    /// See [`NodeArrays::cost`]. (Classify and publish work is unattributed;
    /// both are either spread by their own fan-out or too rare to skew a
    /// shard.)
    cost: &'a mut [f32],
}

impl ShardChunk<'_> {
    /// Charges one unit of work to the owned node with global id `node` and
    /// returns its protocol, about to run a callback.
    fn charge(&mut self, node: u32) -> &mut dyn DisseminationProtocol {
        let index = node as usize - self.first;
        self.cost[index] += 1.0;
        &mut *self.nodes[index].protocol
    }

    /// Advances the owned node at local `index` across the tick ending at
    /// `now` and returns its next wake time. The coordinator replays the
    /// world-global effects at commit.
    fn advance(&mut self, index: usize, now: SimTime, tick: SimDuration) -> SimTime {
        self.cost[index] += 1.0;
        advance(
            &mut self.nodes[index],
            &mut self.last_advance[index],
            &mut self.wake_times[index],
            now,
            tick,
        )
    }

    /// Where the owned node at local `index` stands now.
    fn moved(&self, index: usize) -> NodeMove {
        NodeMove {
            node: (self.first + index) as u32,
            position: self.nodes[index].mobility.position(),
            wake: self.wake_times[index],
        }
    }
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
            chunk.advance(index, now, tick);
            chunk.moved(index)
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
/// `due(t) = {n : wake(n) ≤ t}`, which is exactly the set the coordinator's
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
                for &local in &scratch.due {
                    let index = local as usize;
                    let wake = chunk.advance(index, now, tick);
                    if !scratch.touched[index] {
                        scratch.touched[index] = true;
                        scratch.touched_list.push(local);
                    }
                    if last_tick.is_some_and(|last| wake <= last) {
                        scratch.wake_heap.push(Reverse((wake, local)));
                    }
                }
            }
            WorkerSeg::Timers { now, count } => {
                for ((node, kind), buf) in items[cursor..cursor + count]
                    .iter()
                    .zip(&mut bufs[cursor..cursor + count])
                {
                    chunk.charge(*node).handle_timer(*kind, now, buf);
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
        .map(|&local| chunk.moved(local as usize))
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
                item.slots
                    .map(|slot| slot.map_or(SlotSim::Empty, SlotSim::Real))
            });
            match &item.op {
                ProtocolOp::Subscribe(topic) => {
                    chunk.charge(item.node).subscribe(topic.clone(), now, buf);
                }
                ProtocolOp::Timer { kind, handle } => {
                    if overlay[kind.index()] != SlotSim::Real(*handle) {
                        return false;
                    }
                    overlay[kind.index()] = SlotSim::Empty;
                    chunk.charge(item.node).handle_timer(*kind, now, buf);
                }
            }
            // Track what the commit will do to this node's real slots, so
            // later items of the segment validate against the state they
            // would have seen sequentially.
            for action in buf.actions() {
                match action {
                    Action::SetTimer { kind, .. } => overlay[kind.index()] = SlotSim::Local,
                    Action::CancelTimer(kind) => overlay[kind.index()] = SlotSim::Empty,
                    _ => {}
                }
            }
            true
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
        chunk.charge(receiver).handle_message(message, now, buf);
    }
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

/// The worker thread: serve phase requests for one shard until `Exit`. The
/// death flag guard turns a mid-phase panic into a coordinator-visible
/// signal instead of a join deadlock. (Only a panic: a worker leaving on
/// `Exit` must not raise it, or a peer still waiting for its own `Exit`
/// could mistake the orderly teardown for a death.)
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
            if std::thread::panicking() {
                self.0.store(true, Ordering::Release);
            }
        }
    }
    let _flag = DeathFlag(dead);
    inbox.register_owner();
    let mut scratch = WorkerScratch::default();
    loop {
        let reply = match inbox.recv(dead, spin) {
            Work::Mobility { now, tick, nodes } => Reply::Mobility {
                moves: do_mobility(&mut chunk, now, tick, &nodes),
            },
            Work::Fused {
                segs,
                items,
                mut bufs,
                tick,
            } => {
                let moves = do_fused(&mut chunk, &mut scratch, &segs, &items, &mut bufs, tick);
                Reply::Fused { moves, bufs }
            }
            Work::Protocol {
                now,
                items,
                mut bufs,
            } => {
                let fired = do_protocol(&mut chunk, &mut scratch, now, &items, &mut bufs);
                Reply::Protocol { fired, bufs }
            }
            // `snapshot` / `message` are this worker's `Arc` clones: the arm
            // drops them before the reply is sent, so the coordinator can
            // reclaim the buffers with `Arc::try_unwrap`.
            Work::Classify {
                snapshot,
                config,
                receivers,
            } => Reply::Classify {
                classes: classify_run(&snapshot, &config, &receivers),
            },
            Work::Deliver {
                now,
                message,
                receivers,
                mut bufs,
            } => {
                do_deliver(&mut chunk, now, &message, &receivers, &mut bufs);
                Reply::Deliver { bufs }
            }
            Work::Publish {
                now,
                node,
                topic,
                validity,
                payload_bytes,
                mut buf,
            } => {
                let publisher = &mut chunk.nodes[node as usize - chunk.first];
                let id = publisher
                    .protocol
                    .publish(topic, validity, payload_bytes, now, &mut buf);
                Reply::Publish { id, buf }
            }
            Work::Snapshot => Reply::Snapshot {
                metrics: metrics_of(chunk.nodes),
            },
            Work::Exit => break,
        };
        replies.send((shard, reply));
    }
}

/// Lends the node arrays out as per-shard chunks along the partition's
/// ranges.
fn split_chunks<'a>(part: &BoundaryPartition, pop: &'a mut NodeArrays) -> Vec<ShardChunk<'a>> {
    let mut nodes = pop.nodes.as_mut_slice();
    let mut last_advance = pop.last_advance.as_mut_slice();
    let mut wake_times = pop.wake_times.as_mut_slice();
    let mut cost = pop.cost.as_mut_slice();
    let mut chunks = Vec::with_capacity(part.len());
    for shard in 0..part.len() {
        let range = part.range(shard);
        let (chunk_nodes, rest_nodes) = nodes.split_at_mut(range.len());
        let (chunk_last, rest_last) = last_advance.split_at_mut(range.len());
        let (chunk_wake, rest_wake) = wake_times.split_at_mut(range.len());
        let (chunk_cost, rest_cost) = cost.split_at_mut(range.len());
        chunks.push(ShardChunk {
            first: range.start,
            nodes: chunk_nodes,
            last_advance: chunk_last,
            wake_times: chunk_wake,
            cost: chunk_cost,
        });
        nodes = rest_nodes;
        last_advance = rest_last;
        wake_times = rest_wake;
        cost = rest_cost;
    }
    chunks
}

impl World {
    /// The sharded twin of the serial `run_until` loop: same batches, same
    /// dispatch order, same results, with the pure per-node work of each
    /// batch fanned out to `shards - 1` scoped worker threads (the
    /// coordinator doubles as shard 0's worker).
    ///
    /// The run is stepped in **epochs** of [`REPARTITION_INTERVAL`] batches.
    /// Between epochs the worker scope is down, so the per-node cost
    /// accumulators can feed a [`BoundaryPartition::rebalance`] pass and the
    /// next epoch's chunks are split along the moved boundaries — shards
    /// track measured work, not node count. Repartitioning redistributes
    /// identical computations across threads; it cannot change results.
    pub(super) fn run_until_sharded(&mut self, deadline: SimTime, shards: usize) {
        let mut part = BoundaryPartition::balanced(self.pop.nodes.len(), shards);
        let mut first_epoch = true;
        // Don't pay thread spawns when nothing is due (or the run is over).
        while matches!(self.core.queue.peek_time(), Some(at) if at <= deadline) {
            if !first_epoch && self.pop.cost.iter().any(|&cost| cost > 0.0) {
                // EWMA at epoch granularity: rebalance on the accumulated
                // costs, then halve them so each pass weighs recent epochs
                // about twice as much as the epoch before.
                part.rebalance(&self.pop.cost);
                self.core.stats.repartitions += 1;
                for cost in &mut self.pop.cost {
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
        let quiet = self.quiet_timer_bounds();
        let mut chunks = split_chunks(part, &mut self.pop).into_iter();
        let chunk0 = chunks.next().expect("partition has at least one shard");
        let core = &mut self.core;
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
            let (replies, dead) = (&replies, &dead);
            let spin = spin_budget(part.len());
            for ((shard, chunk), inbox) in (1..).zip(chunks).zip(&inboxes) {
                scope.spawn(move || worker_loop(shard, chunk, inbox, replies, dead, spin));
            }
            let mut engine = Engine {
                core,
                part,
                chunk0,
                scratch0: WorkerScratch::default(),
                inboxes: &inboxes,
                replies,
                dead,
                spin,
                quiet,
                reply_slots: (0..part.len()).map(|_| None).collect(),
                runs: Vec::new(),
                buf_pool: Vec::new(),
                bufvec_pool: Vec::new(),
                item_lists: (0..part.len()).map(|_| Vec::new()).collect(),
                snapshot: CompletionSnapshot::default(),
                classes: Vec::new(),
                received: Vec::new(),
                fused_segs: Vec::new(),
                fused_events: Vec::new(),
            };
            engine.run(deadline, REPARTITION_INTERVAL);
        });
    }
}

/// The coordinator's event loop of one sharded epoch: drives the
/// [`Coordinator`] through the per-batch fork/join against the worker
/// mailboxes, with shard 0's node chunk worked inline.
struct Engine<'w, 'mb> {
    core: &'w mut Coordinator,
    chunk0: ShardChunk<'w>,
    scratch0: WorkerScratch,
    part: &'mb BoundaryPartition,
    inboxes: &'mb [Mailbox<Work>],
    replies: &'mb Mailbox<(usize, Reply)>,
    dead: &'mb AtomicBool,
    /// Spin budget of this machine (see [`spin_budget`]).
    spin: u32,
    /// Per timer kind: `Some(bound)` if the kind is *quiet* while the world is
    /// traffic-free — its callback emits nothing but a re-arm of itself no
    /// sooner than `bound` after the fire (see `World::quiet_timer_bounds`).
    quiet: [Option<SimDuration>; TimerKind::COUNT],
    /// Results of the in-flight fork, indexed by shard id: the workers'
    /// replies plus, in slot 0, the coordinator's own inline result.
    reply_slots: Vec<Option<Reply>>,
    /// Fenceposts of the ascending node list last split along the shard
    /// boundaries (see [`Engine::split_runs`]).
    runs: Vec<usize>,
    /// Recycled `ActionBuf`s (with their pooled message vectors) and the
    /// vectors that carry them to workers and back.
    buf_pool: Vec<ActionBuf>,
    bufvec_pool: Vec<Vec<ActionBuf>>,
    /// Per-shard item lists of the protocol segment being built.
    item_lists: Vec<Vec<ProtocolItem>>,
    snapshot: CompletionSnapshot,
    classes: Vec<ReceptionClass>,
    received: Vec<u32>,
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

/// The `(node, kind)` of an event the caller knows to be a `Timer`.
fn timer_of(event: WorldEvent) -> (NodeId, TimerKind) {
    match event {
        WorldEvent::Timer { node, kind } => (node, kind),
        _ => unreachable!("fused segments hold only Timer events"),
    }
}

impl Engine<'_, '_> {
    /// The batch loop — structurally identical to the serial `run_until`,
    /// with dispatch replaced by segmented fork/join, except that a fusable
    /// batch may open a widened window covering a whole run of consecutive
    /// quiet batches (see [`Engine::fused_window`]).
    ///
    /// Returns after `budget` timestamp batches at the latest, so the caller
    /// can interleave repartition passes; a fused window counts each batch it
    /// consumed.
    fn run(&mut self, deadline: SimTime, budget: u64) {
        let mut batch = std::mem::take(&mut self.core.batch_scratch);
        let mut remaining = budget;
        while remaining > 0 {
            let at = match self.core.queue.peek_time() {
                Some(at) if at <= deadline => at,
                _ => break,
            };
            self.core.now = at;
            batch.clear();
            self.core.queue.pop_due_batch(at, &mut batch);
            let consumed = match self.fuse_kind(&batch) {
                Some(kind) => self.fused_window(kind, &mut batch, deadline),
                None => {
                    self.dispatch_batch(&batch);
                    1
                }
            };
            remaining = remaining.saturating_sub(consumed);
        }
        self.core.batch_scratch = batch;
    }

    /// Dispatches one timestamp batch the per-timestamp way. `core.now` must
    /// already be the batch's time.
    fn dispatch_batch(&mut self, batch: &[(EventHandle, WorldEvent)]) {
        let mut index = 0;
        while index < batch.len() {
            let mut stop = index + 1;
            match batch[index].1 {
                WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. } => {
                    // Maximal run of protocol events: one fork/join.
                    while stop < batch.len()
                        && matches!(
                            batch[stop].1,
                            WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. }
                        )
                    {
                        stop += 1;
                    }
                    self.protocol_segment(&batch[index..stop]);
                }
                WorldEvent::TxStart { frame } => self.core.on_tx_start(frame),
                WorldEvent::TxEnd { frame, tx } => self.on_tx_end(frame, tx),
                WorldEvent::MobilityTick => self.on_mobility_tick(),
                WorldEvent::Publish { index: publication } => self.on_publish(publication),
                WorldEvent::WarmupEnd => self.on_warmup_end(),
            }
            index = stop;
        }
    }

    /// Decides whether a freshly popped batch may join a widened window.
    ///
    /// Fusable batches are exactly a lone `MobilityTick`, or an all-`Timer`
    /// batch every kind of which is quiet — and only while no transmission
    /// has ever existed (`traffic_free`) and nothing is on the air (every
    /// frame slot free; implied by `traffic_free`, kept as
    /// belt-and-suspenders). A mixed tick+timer batch is never fused: the
    /// relative order of `update_speed` and `handle_timer` on one node could
    /// be observable there.
    fn fuse_kind(&self, batch: &[(EventHandle, WorldEvent)]) -> Option<FuseKind> {
        if !self.core.traffic_free || self.core.frames.len() != self.core.free_frames.len() {
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

    /// Fuses one all-quiet timer batch (popped at `time`) into the window
    /// being drained: moves the events into the flat window list, records
    /// the segment, and tightens the window's re-arm `limit` (`min` over
    /// fired events of fire time + the kind's quiet bound — the earliest any
    /// in-window schedule can land).
    fn fuse_timers(
        &mut self,
        time: SimTime,
        batch: &mut Vec<(EventHandle, WorldEvent)>,
        limit: &mut Option<SimTime>,
    ) {
        for &(_, event) in batch.iter() {
            let bound = self.quiet[timer_of(event).1.index()]
                .expect("fusable timer batch holds only quiet kinds");
            let lands = time + bound;
            *limit = Some(limit.map_or(lands, |current| current.min(lands)));
        }
        let start = self.fused_events.len();
        self.fused_events.append(batch);
        let stop = self.fused_events.len();
        self.fused_segs.push(FusedSeg::Timers { time, start, stop });
    }

    /// Fuses the mobility tick at `time` into the window being drained and
    /// returns its successor, if the run lasts that long.
    fn fuse_tick(&mut self, time: SimTime) -> Option<SimTime> {
        self.fused_segs.push(FusedSeg::Mobility { time });
        let next = time + self.core.scenario.mobility_tick;
        (next <= self.core.end).then_some(next)
    }

    /// Drains and executes one widened window starting from `batch`, which
    /// was already popped at `core.now` and classified as `first`. Returns
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
        let start = self.core.now;
        // The earliest time any in-window re-arm can land; fused pops stay
        // strictly below it.
        let mut limit: Option<SimTime> = None;
        // The virtual next mobility tick: sequential stepping would have
        // scheduled it while processing the last fused tick, so it is not in
        // the queue — it competes with the queue as a drain candidate here
        // and is committed (once) after the window.
        let mut next_tick: Option<SimTime> = None;
        match first {
            FuseKind::Mobility => next_tick = self.fuse_tick(start),
            FuseKind::Timers => self.fuse_timers(start, batch, &mut limit),
        }
        let mut terminator: Option<SimTime> = None;
        while self.fused_segs.len() < MAX_FUSED_BATCHES {
            let mut cap = deadline;
            if let Some(limit) = limit {
                debug_assert!(limit > start, "a quiet bound under one clock step");
                cap = cap.min(limit - SimDuration::from_millis(1));
            }
            if let Some(next) = next_tick {
                cap = cap.min(next);
            }
            batch.clear();
            match self.core.queue.pop_due_batch_capped(cap, batch) {
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
                        next_tick = self.fuse_tick(at);
                    }
                    Some(FuseKind::Timers) => self.fuse_timers(at, batch, &mut limit),
                    None => {
                        terminator = Some(at);
                        break;
                    }
                },
                // Nothing in the queue up to the virtual tick: the tick
                // itself is the next batch. Fuse it.
                None if next_tick == Some(cap) => next_tick = self.fuse_tick(cap),
                None => break,
            }
        }
        let segs = std::mem::take(&mut self.fused_segs);
        let events = std::mem::take(&mut self.fused_events);
        let mut consumed = segs.len() as u64;
        if segs.len() < 2 {
            // A window of one batch: the per-timestamp path is cheaper (a
            // fused round trip scans every owned wake time). Replay it the
            // normal way; the stats only count genuinely widened windows.
            match first {
                FuseKind::Mobility => self.on_mobility_tick(),
                FuseKind::Timers => self.protocol_segment(&events),
            }
        } else {
            self.execute_fused(&segs, &events);
            self.core.stats.windows_widened += 1;
            self.core.stats.batches_fused += consumed;
        }
        (self.fused_segs, self.fused_events) = (segs, events);
        self.fused_segs.clear();
        self.fused_events.clear();
        if let Some(at) = terminator {
            self.core.now = at;
            self.dispatch_batch(batch);
            consumed += 1;
        }
        consumed
    }

    /// Executes a drained window of ≥ 2 fused segments: one fork/join for
    /// the whole window, then a sequential commit walk in exact dispatch
    /// order.
    fn execute_fused(&mut self, segs: &[FusedSeg], events: &[(EventHandle, WorldEvent)]) {
        let shard_count = self.part.len();
        let tick = self.core.scenario.mobility_tick;
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
                        let (node, kind) = timer_of(event);
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
        let mut forks = worker_segs.into_iter().zip(worker_items);
        let (segs0, items0) = forks.next().expect("partition has at least one shard");
        for (inbox, (segs, items)) in self.inboxes.iter().zip(forks) {
            if segs.is_empty() {
                continue;
            }
            let bufs = self.take_bufs(items.len());
            inbox.send(Work::Fused {
                segs,
                items,
                bufs,
                tick,
            });
            outstanding += 1;
        }
        let mut bufs = self.take_bufs(items0.len());
        let moves = do_fused(
            &mut self.chunk0,
            &mut self.scratch0,
            &segs0,
            &items0,
            &mut bufs,
            tick,
        );
        self.reply_slots[0] = Some(Reply::Fused { moves, bufs });
        self.collect_replies(outstanding);
        let (moves_list, mut bufs_list): (Vec<Vec<NodeMove>>, Vec<Vec<ActionBuf>>) = self
            .reply_slots
            .iter_mut()
            .map(|slot| match slot.take() {
                Some(Reply::Fused { moves, bufs }) => (moves, bufs),
                None => Default::default(),
                Some(_) => unreachable!("mismatched reply kind"),
            })
            .unzip();
        // Commit walk: the segments in timestamp order, each timer segment's
        // events in FIFO order — the exact sequential dispatch order.
        let mut cursors = vec![0usize; shard_count];
        for seg in segs {
            match *seg {
                FusedSeg::Mobility { time } => {
                    self.core.now = time;
                    // Sequential stepping schedules the successor while
                    // processing a tick. Only the last one's schedule
                    // survives the window (the earlier ones were consumed
                    // virtually), but its seq must be assigned *at this walk
                    // position*: a later segment's re-arm could land on the
                    // same future timestamp, and FIFO order there is seq
                    // order.
                    if Some(time) == last_mobility {
                        self.core.schedule_next_tick(time);
                    }
                }
                FusedSeg::Timers { time, start, stop } => {
                    self.core.now = time;
                    for &(handle, event) in &events[start..stop] {
                        let (node, kind) = timer_of(event);
                        let shard = self.part.owner(node.index());
                        let cursor = cursors[shard];
                        cursors[shard] += 1;
                        // Quiet kinds are never lazily cancelled, so the
                        // popped event cannot be stale (the sequential fire
                        // check would pass) — see the fusing proof.
                        let armed = self.core.take_armed(node, kind, handle);
                        debug_assert!(armed, "a fused timer event went stale mid-window");
                        self.core.commit(node, &mut bufs_list[shard][cursor]);
                    }
                }
            }
        }
        debug_assert!(
            self.core.traffic_free,
            "a fused window committed a Broadcast — the quiet table is wrong"
        );
        // Final mobility state, committed as one tick at the window's last:
        // the nodes due by then — the active list plus every sleeper whose
        // wake time fell inside the window — are exactly the nodes the
        // workers advanced at least once, and shard concatenation restores
        // their ascending order. Untouched nodes keep their wake-queue
        // entries and wake > last tick, exactly as sequentially.
        if let Some(last) = last_mobility {
            let due = self.core.begin_tick(last);
            debug_assert!(due
                .iter()
                .eq(moves_list.iter().flatten().map(|moved| &moved.node)));
            for &moved in moves_list.iter().flatten() {
                self.core.commit_move(moved, last);
            }
            self.core.end_tick(due);
        }
        for bufs in bufs_list {
            self.return_bufs(bufs);
        }
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

    /// Splits an ascending node list along the shard boundaries: afterwards
    /// `list[self.runs[s]..self.runs[s + 1]]` is shard `s`'s (possibly empty)
    /// contiguous run.
    fn split_runs(&mut self, list: &[u32]) {
        self.runs.clear();
        self.runs.push(0);
        let mut cursor = 0;
        for shard in 0..self.part.len() {
            let end = self.part.range(shard).end;
            cursor += list[cursor..].partition_point(|&node| (node as usize) < end);
            self.runs.push(cursor);
        }
    }

    /// One maximal run of same-timestamp `Subscribe`/`Timer` events: build
    /// per-shard item lists (with slot snapshots), fork the callbacks, then
    /// commit every emitted action in the original FIFO event order.
    fn protocol_segment(&mut self, events: &[(EventHandle, WorldEvent)]) {
        let now = self.core.now;
        let mut item_lists = std::mem::take(&mut self.item_lists);
        for &(handle, event) in events {
            let (node, op) = match event {
                WorldEvent::Subscribe { node } => {
                    (node, ProtocolOp::Subscribe(self.core.subscribe_topic(node)))
                }
                WorldEvent::Timer { node, kind } => (node, ProtocolOp::Timer { kind, handle }),
                _ => unreachable!("protocol segments hold only Subscribe/Timer events"),
            };
            item_lists[self.part.owner(node.index())].push(ProtocolItem {
                node: node.0,
                slots: self.core.timer_slots[node.index()],
                op,
            });
        }
        // Fork: workers first, then shard 0 inline on this thread.
        let mut outstanding = 0;
        for (inbox, list) in self.inboxes.iter().zip(&mut item_lists[1..]) {
            if list.is_empty() {
                continue;
            }
            let items = std::mem::take(list);
            let bufs = self.take_bufs(items.len());
            inbox.send(Work::Protocol { now, items, bufs });
            outstanding += 1;
        }
        let mut bufs = self.take_bufs(item_lists[0].len());
        let fired = do_protocol(
            &mut self.chunk0,
            &mut self.scratch0,
            now,
            &item_lists[0],
            &mut bufs,
        );
        item_lists[0].clear();
        self.item_lists = item_lists;
        self.reply_slots[0] = Some(Reply::Protocol { fired, bufs });
        self.collect_replies(outstanding);
        // Join: walk the events in FIFO order again, pulling each item's
        // result from its shard's cursor, and commit.
        let mut results: Vec<(Vec<bool>, Vec<ActionBuf>, usize)> = self
            .reply_slots
            .iter_mut()
            .map(|slot| match slot.take() {
                Some(Reply::Protocol { fired, bufs }) => (fired, bufs, 0),
                None => Default::default(),
                Some(_) => unreachable!("mismatched reply kind"),
            })
            .collect();
        for &(handle, event) in events {
            let node = match event {
                WorldEvent::Subscribe { node } | WorldEvent::Timer { node, .. } => node,
                _ => unreachable!(),
            };
            let (fired, bufs, cursor) = &mut results[self.part.owner(node.index())];
            *cursor += 1;
            if !fired[*cursor - 1] {
                continue; // skipped stale timer: nothing ran, nothing emitted
            }
            if let WorldEvent::Timer { kind, .. } = event {
                // The overlay fired this timer, which implies no earlier item
                // of this segment touched the slot — so it still holds this
                // exact handle, as the sequential fire check would require.
                let armed = self.core.take_armed(node, kind, handle);
                debug_assert!(armed, "the slot overlay fired a timer that is not armed");
            }
            self.core.commit(node, &mut bufs[*cursor - 1]);
        }
        for (_, bufs, _) in results {
            self.return_bufs(bufs);
        }
    }

    /// Frame completion: snapshot (with its receivers) at the coordinator,
    /// classification fanned out when heavy, fringe draws and counter updates
    /// sequential ascending (RNG order), delivery callbacks fanned out to the
    /// receivers' owners, commits sequential ascending.
    fn on_tx_end(&mut self, frame: u32, tx: TxId) {
        let Some(pending) = self.core.take_frame(frame) else {
            return;
        };
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.core.medium.begin_completion(tx, &mut snapshot);
        let mut classes = std::mem::take(&mut self.classes);
        classes.clear();
        let medium = &self.core.medium;
        let classify_own =
            |snapshot: &CompletionSnapshot, own: &[usize], classes: &mut Vec<ReceptionClass>| {
                classes.extend(own.iter().map(|&receiver| {
                    snapshot.classify(medium.config(), receiver, medium.position(receiver))
                }));
            };
        let work = snapshot.receivers().len() * (snapshot.interferer_count() + 1);
        let parallel = !self.inboxes.is_empty() && work >= PARALLEL_CLASSIFY_MIN_WORK;
        if parallel {
            let shard_count = self.part.len();
            let shared = Arc::new(snapshot);
            let mut chunks = shared
                .receivers()
                .chunks(shared.receivers().len().div_ceil(shard_count));
            let own = chunks.next().unwrap_or_default();
            let mut outstanding = 0;
            for (inbox, run) in self.inboxes.iter().zip(chunks) {
                // Receivers travel with their current positions.
                let receivers = run
                    .iter()
                    .map(|&receiver| (receiver as u32, medium.position(receiver)))
                    .collect();
                inbox.send(Work::Classify {
                    snapshot: Arc::clone(&shared),
                    config: medium.config().clone(),
                    receivers,
                });
                outstanding += 1;
            }
            classify_own(&shared, own, &mut classes);
            self.collect_replies(outstanding);
            for slot in &mut self.reply_slots[1..=outstanding] {
                match slot.take() {
                    Some(Reply::Classify { classes: chunk }) => classes.extend(chunk),
                    _ => unreachable!("mismatched reply kind"),
                }
            }
            let Ok(reclaimed) = Arc::try_unwrap(shared) else {
                unreachable!("workers drop their snapshot clones before replying")
            };
            snapshot = reclaimed;
        } else {
            classify_own(&snapshot, snapshot.receivers(), &mut classes);
        }
        self.core.stats.classify_fanouts += u64::from(parallel);
        // Sequential half: fringe draws + counters, ascending receiver order.
        let mut received = std::mem::take(&mut self.received);
        received.clear();
        for (&receiver, &class) in snapshot.receivers().iter().zip(classes.iter()) {
            let outcome = self.core.medium.resolve_classified(
                &snapshot,
                receiver,
                class,
                &mut self.core.mac_rng,
            );
            if outcome == ReceptionOutcome::Received {
                received.push(receiver as u32);
            }
        }
        if received.is_empty() {
            self.core.action_buf.recycle_message(pending.message);
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
        let now = self.core.now;
        let message = Arc::new(message);
        self.split_runs(received);
        let mut outstanding = 0;
        for shard in 1..self.part.len() {
            let run = &received[self.runs[shard]..self.runs[shard + 1]];
            if run.is_empty() {
                continue;
            }
            let bufs = self.take_bufs(run.len());
            self.inboxes[shard - 1].send(Work::Deliver {
                now,
                message: Arc::clone(&message),
                receivers: run.to_vec(),
                bufs,
            });
            outstanding += 1;
        }
        let own = &received[..self.runs[1]];
        let mut bufs = self.take_bufs(own.len());
        do_deliver(&mut self.chunk0, now, &message, own, &mut bufs);
        self.reply_slots[0] = Some(Reply::Deliver { bufs });
        self.collect_replies(outstanding);
        // Commit ascending: shard order is receiver order.
        for shard in 0..self.part.len() {
            let mut bufs = match self.reply_slots[shard].take() {
                Some(Reply::Deliver { bufs }) => bufs,
                None => continue,
                Some(_) => unreachable!("mismatched reply kind"),
            };
            let run = &received[self.runs[shard]..self.runs[shard + 1]];
            for (&receiver, buf) in run.iter().zip(&mut bufs) {
                self.core.commit(NodeId(receiver), buf);
            }
            self.return_bufs(bufs);
        }
        // All worker clones were dropped before their replies; reclaim the
        // message's vectors for the next broadcast.
        if let Ok(message) = Arc::try_unwrap(message) {
            self.core.action_buf.recycle_message(message);
        }
    }

    /// Mobility tick: due-node discovery and wake-queue routing stay at the
    /// coordinator (heap order is global state); the advances — the O(due)
    /// integration work — fan out to the owners.
    fn on_mobility_tick(&mut self) {
        let (now, tick) = (self.core.now, self.core.scenario.mobility_tick);
        let due = self.core.begin_tick(now);
        self.split_runs(&due);
        let mut outstanding = 0;
        for shard in 1..self.part.len() {
            let run = &due[self.runs[shard]..self.runs[shard + 1]];
            if run.is_empty() {
                continue;
            }
            self.inboxes[shard - 1].send(Work::Mobility {
                now,
                tick,
                nodes: run.to_vec(),
            });
            outstanding += 1;
        }
        let moves = do_mobility(&mut self.chunk0, now, tick, &due[..self.runs[1]]);
        self.reply_slots[0] = Some(Reply::Mobility { moves });
        self.collect_replies(outstanding);
        // Commit ascending (shard order = node order), exactly as the serial
        // walk does.
        for shard in 0..self.part.len() {
            match self.reply_slots[shard].take() {
                Some(Reply::Mobility { moves }) => {
                    for moved in moves {
                        self.core.commit_move(moved, now);
                    }
                }
                None => {}
                Some(_) => unreachable!("mismatched reply kind"),
            }
        }
        self.core.end_tick(due);
        self.core.schedule_next_tick(now);
    }

    /// Publication: the prologue and epilogue are the coordinator's; only the
    /// publish callback runs on the owning shard.
    fn on_publish(&mut self, index: u32) {
        let (publication, publisher) = self.core.begin_publish(index);
        let now = self.core.now;
        let mut buf = self.take_buf();
        let id = match self.part.owner(publisher) {
            0 => self.chunk0.nodes[publisher].protocol.publish(
                publication.topic.clone(),
                publication.validity,
                publication.payload_bytes,
                now,
                &mut buf,
            ),
            shard => {
                self.inboxes[shard - 1].send(Work::Publish {
                    now,
                    node: publisher as u32,
                    topic: publication.topic.clone(),
                    validity: publication.validity,
                    payload_bytes: publication.payload_bytes,
                    buf,
                });
                self.collect_replies(1);
                match self.reply_slots[shard].take() {
                    Some(Reply::Publish { id, buf: filled }) => {
                        buf = filled;
                        id
                    }
                    _ => unreachable!("mismatched reply kind"),
                }
            }
        };
        self.core
            .end_publish(publisher, id, publication.topic, &mut buf);
        self.buf_pool.push(buf);
    }

    /// Warm-up boundary: metrics snapshots fan out; shard order concatenation
    /// restores ascending node order.
    fn on_warmup_end(&mut self) {
        for inbox in self.inboxes {
            inbox.send(Work::Snapshot);
        }
        let mut metrics = metrics_of(self.chunk0.nodes);
        self.collect_replies(self.inboxes.len());
        for slot in &mut self.reply_slots[1..] {
            match slot.take() {
                Some(Reply::Snapshot { metrics: chunk }) => metrics.extend(chunk),
                _ => unreachable!("mismatched reply kind"),
            }
        }
        self.core.snapshot_warmup(metrics);
    }
}
