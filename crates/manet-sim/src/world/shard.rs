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
//! # The conservative window is one timestamp batch
//!
//! Classic conservative parallel discrete-event simulation advances each
//! partition inside a time window bounded by the **lookahead** — the minimum
//! virtual latency between partitions. Here propagation is instantaneous and
//! the shortest frame occupies the air for one clock millisecond (the air
//! time of an empty frame, [`netsim::RadioConfig::air_time`]), while every pair of
//! nodes can become neighbors within a tick — so the conservative window is
//! exactly one millisecond: one same-timestamp event batch, precisely what
//! the scheduler already drains in one call. The engine therefore forks and
//! joins **per batch**: it is the degenerate-but-honest instantiation of
//! windowed conservative stepping for this model, not an approximation of
//! it. (Windows widened over traffic-free stretches, boundaries moved toward
//! measured per-node cost and classification fanned out on heavy frames were
//! tried and retired: none paid on a timed workload — see ARCHITECTURE.md.)
//!
//! # What may run in parallel (and what must not)
//!
//! Bit-identity with the serial loop is non-negotiable (the golden
//! fingerprints and the oracle proptest enforce it), and two global
//! sequential resources pin the commit order: the MAC RNG (contention jitter,
//! fringe draws, publisher choice — one draw order) and the scheduler's
//! sequence numbers (same-timestamp FIFO). Everything touching either is
//! executed by the coordinator in exact dispatch order, reception included:
//! a frame completes through the serial loop's own medium call. What
//! parallelizes is the per-node work, on the shard that owns the node:
//!
//! * mobility integration (each node's position/RNG/pause state is private);
//! * protocol callbacks (`subscribe`/`handle_timer`/`handle_message` read only
//!   the acting node's state plus an immutable message — they *emit* actions
//!   into a buffer instead of touching the world), `publish` included;
//! * the warm-up boundary's metrics snapshot.
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
//! Nodes are split into [`BoundaryPartition::balanced`] contiguous index
//! ranges, fixed for the whole `run_until` call, and each worker borrows its
//! range of [`NodeArrays`] (`split_at_mut` — no copies, no unsafe). Spatial
//! bands were considered and rejected: with a one-batch window every
//! boundary is "hot" anyway (all cross-shard traffic routes through the
//! coordinator each batch), so spatial locality buys nothing that index
//! locality doesn't, and index ranges keep the hot arrays contiguous per
//! worker. Because ranges are ascending, any ascending node list splits into
//! per-shard runs ([`Engine::split_runs`]) whose concatenation — shard 0
//! first — restores ascending NodeId order, which is the merge order the
//! serial loop uses everywhere.
//!
//! # Exchange
//!
//! Workers are long-lived within one `run_until` call (`std::thread::scope`)
//! and exchange work through single-consumer spin-then-park mailboxes
//! ([`Mailbox`]): a send is a lock push plus an atomic; an idle receiver
//! spins briefly (`try_lock`, no syscalls) before parking. Round trips are
//! ~a microsecond, which per-batch parallel work amortizes. The coordinator
//! doubles as shard 0's worker and files its own result beside the workers'
//! replies, so every join is one walk over the shards in order: receivers are
//! routed to their owning shard, callbacks run in parallel, and the emitted
//! actions are committed in ascending receiver order — i.e. drained in
//! (time, seq, NodeId) order, since batches are already (time, seq)-ordered.

use super::*;
use simkit::BoundaryPartition;
use std::collections::{HashMap, VecDeque};
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

/// Raises the shared death flag when the thread holding it unwinds, turning
/// a mid-phase worker panic into a signal every [`Mailbox::recv`] waiting on
/// that flag sees instead of a join deadlock. Only a panic raises it: a
/// worker leaving on `Exit` must not, or a peer still waiting for its own
/// `Exit` could mistake the orderly teardown for a death.
struct DeathFlag<'a>(&'a AtomicBool);

impl Drop for DeathFlag<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
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

/// A worker's reusable timer-slot overlay of the protocol segment currently
/// executing, keyed by node.
type Overlay = HashMap<u32, [SlotSim; TimerKind::COUNT]>;

/// Work the coordinator hands a shard for one phase of the current batch.
enum Work {
    /// Advance these owned nodes (ascending) across the current tick.
    Mobility {
        now: SimTime,
        tick: SimDuration,
        nodes: Vec<u32>,
    },
    /// Run a protocol segment's callbacks for the owned items (FIFO order).
    Protocol {
        now: SimTime,
        items: Vec<ProtocolItem>,
        bufs: Vec<ActionBuf>,
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
    /// Tear down: the run is over.
    Exit,
}

/// A shard's answer, filed under its shard id (see [`Engine::reply_slots`]).
enum Reply {
    /// A mobility tick's moves, ascending.
    Mobility {
        moves: Vec<NodeMove>,
    },
    Protocol {
        fired: Vec<bool>,
        bufs: Vec<ActionBuf>,
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
}

impl ShardChunk<'_> {
    /// The protocol of the owned node with global id `node`.
    fn protocol(&mut self, node: u32) -> &mut dyn DisseminationProtocol {
        &mut *self.nodes[node as usize - self.first].protocol
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
        .map(|&node| {
            let index = node as usize - chunk.first;
            let wake = advance(
                &mut chunk.nodes[index],
                &mut chunk.last_advance[index],
                &mut chunk.wake_times[index],
                now,
                tick,
            );
            NodeMove {
                node,
                position: chunk.nodes[index].mobility.position(),
                wake,
            }
        })
        .collect()
}

/// Protocol phase, worker side: runs each item's callback into its buffer,
/// deciding timer fire/skip on the slot overlay. Returns one fired flag per
/// item (`Subscribe` items always "fire").
fn do_protocol(
    chunk: &mut ShardChunk<'_>,
    overlay: &mut Overlay,
    now: SimTime,
    items: &[ProtocolItem],
    bufs: &mut [ActionBuf],
) -> Vec<bool> {
    overlay.clear();
    items
        .iter()
        .zip(bufs.iter_mut())
        .map(|(item, buf)| {
            let slots = overlay.entry(item.node).or_insert_with(|| {
                item.slots
                    .map(|slot| slot.map_or(SlotSim::Empty, SlotSim::Real))
            });
            match &item.op {
                ProtocolOp::Subscribe(topic) => {
                    chunk.protocol(item.node).subscribe(topic.clone(), now, buf);
                }
                ProtocolOp::Timer { kind, handle } => {
                    if slots[kind.index()] != SlotSim::Real(*handle) {
                        return false;
                    }
                    slots[kind.index()] = SlotSim::Empty;
                    chunk.protocol(item.node).handle_timer(*kind, now, buf);
                }
            }
            // Track what the commit will do to this node's real slots, so
            // later items of the segment validate against the state they
            // would have seen sequentially.
            for action in buf.actions() {
                match action {
                    Action::SetTimer { kind, .. } => slots[kind.index()] = SlotSim::Local,
                    Action::CancelTimer(kind) => slots[kind.index()] = SlotSim::Empty,
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
        chunk.protocol(receiver).handle_message(message, now, buf);
    }
}

/// The worker thread: serve phase requests for one shard until `Exit`, with
/// a [`DeathFlag`] up for the whole loop.
fn worker_loop(
    shard: usize,
    mut chunk: ShardChunk<'_>,
    inbox: &Mailbox<Work>,
    replies: &Mailbox<(usize, Reply)>,
    dead: &AtomicBool,
    spin: u32,
) {
    let _flag = DeathFlag(dead);
    inbox.register_owner();
    let mut overlay = Overlay::default();
    loop {
        let reply = match inbox.recv(dead, spin) {
            Work::Mobility { now, tick, nodes } => Reply::Mobility {
                moves: do_mobility(&mut chunk, now, tick, &nodes),
            },
            Work::Protocol {
                now,
                items,
                mut bufs,
            } => {
                let fired = do_protocol(&mut chunk, &mut overlay, now, &items, &mut bufs);
                Reply::Protocol { fired, bufs }
            }
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
                let id =
                    chunk
                        .protocol(node)
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
    let mut chunks = Vec::with_capacity(part.len());
    for shard in 0..part.len() {
        let range = part.range(shard);
        let (chunk_nodes, rest_nodes) = nodes.split_at_mut(range.len());
        let (chunk_last, rest_last) = last_advance.split_at_mut(range.len());
        let (chunk_wake, rest_wake) = wake_times.split_at_mut(range.len());
        chunks.push(ShardChunk {
            first: range.start,
            nodes: chunk_nodes,
            last_advance: chunk_last,
            wake_times: chunk_wake,
        });
        nodes = rest_nodes;
        last_advance = rest_last;
        wake_times = rest_wake;
    }
    chunks
}

impl World {
    /// The sharded twin of the serial `run_until` loop: same batches, same
    /// dispatch order, same results, with the pure per-node work of each
    /// batch fanned out to `shards - 1` scoped worker threads (the
    /// coordinator doubles as shard 0's worker). One balanced partition,
    /// one thread scope and one set of mailboxes serve the whole call.
    pub(super) fn run_until_sharded(&mut self, deadline: SimTime, shards: usize) {
        // Don't pay thread spawns when nothing is due (or the run is over).
        if !matches!(self.core.queue.peek_time(), Some(at) if at <= deadline) {
            return;
        }
        let part = BoundaryPartition::balanced(self.pop.nodes.len(), shards);
        let mut chunks = split_chunks(&part, &mut self.pop).into_iter();
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
                part: &part,
                chunk0,
                overlay0: Overlay::default(),
                inboxes: &inboxes,
                replies,
                dead,
                spin,
                reply_slots: (0..part.len()).map(|_| None).collect(),
                runs: Vec::new(),
                buf_pool: Vec::new(),
                bufvec_pool: Vec::new(),
                item_lists: (0..part.len()).map(|_| Vec::new()).collect(),
                received: Vec::new(),
            };
            engine.run(deadline);
        });
    }
}

/// The coordinator's event loop of one sharded `run_until` call: drives the
/// [`Coordinator`] through the per-batch fork/join against the worker
/// mailboxes, with shard 0's node chunk worked inline.
struct Engine<'w, 'mb> {
    core: &'w mut Coordinator,
    chunk0: ShardChunk<'w>,
    overlay0: Overlay,
    part: &'mb BoundaryPartition,
    inboxes: &'mb [Mailbox<Work>],
    replies: &'mb Mailbox<(usize, Reply)>,
    dead: &'mb AtomicBool,
    /// Spin budget of this machine (see [`spin_budget`]).
    spin: u32,
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
    received: Vec<u32>,
}

impl Engine<'_, '_> {
    /// The batch loop — structurally identical to the serial `run_until`,
    /// with dispatch replaced by segmented fork/join.
    fn run(&mut self, deadline: SimTime) {
        let mut batch = std::mem::take(&mut self.core.batch_scratch);
        while let Some(at) = self.core.queue.peek_time() {
            if at > deadline {
                break;
            }
            self.core.now = at;
            batch.clear();
            self.core.queue.pop_due_batch(at, &mut batch);
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
        self.core.batch_scratch = batch;
    }

    /// Blocks until `count` outstanding replies arrived, filing each by shard.
    fn collect_replies(&mut self, count: usize) {
        for _ in 0..count {
            let (shard, reply) = self.replies.recv(self.dead, self.spin);
            debug_assert!(self.reply_slots[shard].is_none(), "double reply");
            self.reply_slots[shard] = Some(reply);
        }
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
            &mut self.overlay0,
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

    /// Frame completion: reception resolves at the coordinator exactly as in
    /// the serial loop (one MAC RNG draw order), then the delivery callbacks
    /// fan out to the receivers' owners and commit sequential ascending.
    fn on_tx_end(&mut self, frame: u32, tx: TxId) {
        let Some(pending) = self.core.take_frame(frame) else {
            return;
        };
        let core = &mut *self.core;
        core.outcome_scratch.clear();
        core.medium
            .complete_transmission_into(tx, &mut core.mac_rng, &mut core.outcome_scratch);
        let mut received = std::mem::take(&mut self.received);
        received.clear();
        received.extend(
            core.outcome_scratch
                .iter()
                .filter(|&&(_, outcome)| outcome == ReceptionOutcome::Received)
                .map(|&(receiver, _)| receiver as u32),
        );
        if received.is_empty() {
            core.action_buf.recycle_message(pending.message);
        } else {
            self.deliver(&received, pending.message);
        }
        self.received = received;
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
        // Each worker's clone dropped with its `Work::Deliver` before the
        // reply; reclaim the message's vectors for the next broadcast.
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
        let mut buf = self.buf_pool.pop().unwrap_or_default();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// An orderly return must leave the flag down: a worker leaving on
    /// `Exit` while a peer still waits for its own `Exit` is not a death.
    #[test]
    fn death_flag_stays_down_when_a_thread_returns() {
        let dead = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _flag = DeathFlag(&dead);
            });
        });
        assert!(!dead.load(Ordering::Acquire));
    }

    /// A panicking thread raises the flag, and a receiver waiting on an
    /// empty mailbox then panics with the cause instead of waiting forever.
    #[test]
    #[should_panic(expected = "a shard peer thread terminated")]
    fn death_flag_rises_on_panic_and_unblocks_a_waiting_receiver() {
        let dead = AtomicBool::new(false);
        let joined = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _flag = DeathFlag(&dead);
                    panic!("a worker callback failed");
                })
                .join()
        });
        assert!(joined.is_err(), "the worker must have panicked");
        assert!(
            dead.load(Ordering::Acquire),
            "the panic must raise the flag"
        );
        let mailbox: Mailbox<()> = Mailbox::new();
        mailbox.register_owner();
        mailbox.recv(&dead, 0);
    }
}
