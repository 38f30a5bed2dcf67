//! Deterministic sharded stepping: one [`World`], many cores, bit-identical
//! reports.
//!
//! This is the second of the world's two event loops (see the parent module):
//! same batches, same dispatch order, same [`Coordinator`] methods as the
//! serial loop — but where the serial loop runs a protocol callback inline
//! and commits straight away, the [`Engine`] here **segments** a batch,
//! decides each timer's fire/skip at the coordinator exactly as the serial
//! loop does, **forks** the callbacks that run to the owning shards, and
//! **joins** the emitted actions back into the sequential commit order.
//! Nothing the coordinator owns is re-declared or re-implemented in this
//! file.
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
//! same batch — are made by the coordinator with the serial loop's own
//! [`Coordinator::take_armed`] while it builds a segment, which is exact
//! because only a node's own commits touch its timer slots and a segment
//! never holds a node twice (see [`Engine::protocol_segment`]).
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
//! Workers are long-lived within one `run_until` call (`std::thread::scope`).
//! Each has two `std::sync::mpsc::sync_channel(1)`s, work in and reply out;
//! a fork sends at most one message each way per worker, so no send ever
//! blocks. A receiver probes `try_recv` for a while before it blocks
//! ([`spin_budget`], [`recv`]): round trips are ~a microsecond, which
//! per-batch parallel work amortizes. Teardown is the other side hanging
//! up. The engine owns the work senders, so dropping it — at the end of the
//! run, or while a coordinator panic unwinds — ends every worker loop and
//! lets the scope join. A worker's panic drops its reply sender, and the
//! coordinator's next receive from it fails the run with a message naming
//! the shard and the batch time. The coordinator doubles as shard 0's
//! worker; each join then walks the shards in ascending order, receiving
//! and committing as it goes: receivers are routed to their owning shard,
//! callbacks run in parallel, and the emitted actions are committed in
//! ascending receiver order — i.e. drained in (time, seq, NodeId) order,
//! since batches are already (time, seq)-ordered.

use super::*;
use simkit::BoundaryPartition;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;

/// Probes an idle receiver makes before blocking. At ~1-5 ns per probe this
/// is tens of microseconds of spinning — longer than any in-flight batch
/// round trip, so on a machine with a core per shard the hot path never pays
/// a context switch.
const SPIN_LIMIT: u32 = 16_384;

/// The spin budget for this machine: spinning only helps when every shard
/// can own a core; otherwise the receiver is burning the exact timeslice the
/// sender needs, so block at once.
fn spin_budget(shards: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= shards {
        SPIN_LIMIT
    } else {
        0
    }
}

/// Receives the next message, probing `try_recv` up to `spin` times before
/// blocking in `recv`; `None` once the sender hung up.
fn recv<T>(rx: &Receiver<T>, spin: u32) -> Option<T> {
    for _ in 0..spin {
        match rx.try_recv() {
            Ok(value) => return Some(value),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// One callback of a protocol segment that runs: a `Subscribe`, or a `Timer`
/// the coordinator found armed.
struct ProtocolItem {
    node: u32,
    op: ProtocolOp,
}

enum ProtocolOp {
    Subscribe(Topic),
    Timer(TimerKind),
}

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
}

/// A shard's answer to one [`Work`].
enum Reply {
    /// A mobility tick's moves, ascending.
    Mobility(Vec<NodeMove>),
    /// The filled buffers of a `Protocol` or `Deliver` work, one per item.
    Actions(Vec<ActionBuf>),
    Publish {
        id: EventId,
        buf: ActionBuf,
    },
    Snapshot(Vec<ProtocolMetrics>),
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

/// Protocol phase, worker side: runs each item's callback into its buffer.
fn do_protocol(
    chunk: &mut ShardChunk<'_>,
    now: SimTime,
    items: &[ProtocolItem],
    bufs: &mut [ActionBuf],
) {
    for (item, buf) in items.iter().zip(bufs.iter_mut()) {
        let protocol = chunk.protocol(item.node);
        match &item.op {
            ProtocolOp::Subscribe(topic) => protocol.subscribe(topic.clone(), now, buf),
            ProtocolOp::Timer(kind) => protocol.handle_timer(*kind, now, buf),
        }
    }
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

/// The worker thread: serve one shard's work until the coordinator hangs up.
fn worker_loop(
    mut chunk: ShardChunk<'_>,
    inbox: Receiver<Work>,
    replies: SyncSender<Reply>,
    spin: u32,
) {
    while let Some(work) = recv(&inbox, spin) {
        let reply = match work {
            Work::Mobility { now, tick, nodes } => {
                Reply::Mobility(do_mobility(&mut chunk, now, tick, &nodes))
            }
            Work::Protocol {
                now,
                items,
                mut bufs,
            } => {
                do_protocol(&mut chunk, now, &items, &mut bufs);
                Reply::Actions(bufs)
            }
            Work::Deliver {
                now,
                message,
                receivers,
                mut bufs,
            } => {
                do_deliver(&mut chunk, now, &message, &receivers, &mut bufs);
                Reply::Actions(bufs)
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
            Work::Snapshot => Reply::Snapshot(metrics_of(chunk.nodes)),
        };
        if replies.send(reply).is_err() {
            break;
        }
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
    /// one thread scope and one pair of channels per worker serve the whole
    /// call.
    pub(super) fn run_until_sharded(&mut self, deadline: SimTime, shards: usize) {
        // Don't pay thread spawns when nothing is due (or the run is over).
        if !matches!(self.core.queue.peek_time(), Some(at) if at <= deadline) {
            return;
        }
        let part = BoundaryPartition::balanced(self.pop.nodes.len(), shards);
        let spin = spin_budget(part.len());
        let mut chunks = split_chunks(&part, &mut self.pop).into_iter();
        let chunk0 = chunks.next().expect("partition has at least one shard");
        let core = &mut self.core;
        std::thread::scope(|scope| {
            let (mut work, mut replies) = (Vec::new(), Vec::new());
            for chunk in chunks {
                let (work_tx, work_rx) = sync_channel(1);
                let (reply_tx, reply_rx) = sync_channel(1);
                scope.spawn(move || worker_loop(chunk, work_rx, reply_tx, spin));
                work.push(work_tx);
                replies.push(reply_rx);
            }
            let item_lists = (0..part.len()).map(|_| Vec::new()).collect();
            // The engine drops here, or while a panic unwinds; either way its
            // work senders hang up and the workers return.
            Engine {
                core,
                chunk0,
                part,
                work,
                replies,
                spin,
                runs: Vec::new(),
                buf_pool: Vec::new(),
                bufvec_pool: Vec::new(),
                item_lists,
                segment: Vec::new(),
                in_segment: BitSet::new(),
                received: Vec::new(),
            }
            .run(deadline);
        });
    }
}

/// The coordinator's event loop of one sharded `run_until` call: drives the
/// [`Coordinator`] through the per-batch fork/join against the worker
/// channels, with shard 0's node chunk worked inline.
struct Engine<'w> {
    core: &'w mut Coordinator,
    chunk0: ShardChunk<'w>,
    part: BoundaryPartition,
    /// Work senders and reply receivers of worker shards `1..`, at index
    /// `shard - 1`.
    work: Vec<SyncSender<Work>>,
    replies: Vec<Receiver<Reply>>,
    /// Spin budget of this machine (see [`spin_budget`]).
    spin: u32,
    /// Fenceposts of the ascending node list last split along the shard
    /// boundaries (see [`Engine::split_runs`]).
    runs: Vec<usize>,
    /// Recycled `ActionBuf`s (with their pooled message vectors) and the
    /// vectors that carry them to workers and back.
    buf_pool: Vec<ActionBuf>,
    bufvec_pool: Vec<Vec<ActionBuf>>,
    /// Per-shard item lists of the protocol segment being built.
    item_lists: Vec<Vec<ProtocolItem>>,
    /// The nodes of the segment's items in FIFO order, and as a set.
    segment: Vec<NodeId>,
    in_segment: BitSet,
    received: Vec<u32>,
}

impl Engine<'_> {
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
            while let Some(&(_, event)) = batch.get(index) {
                if let WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. } = event {
                    index += self.protocol_segment(&batch[index..]);
                    continue;
                }
                index += 1;
                match event {
                    WorldEvent::TxStart { frame } => self.core.on_tx_start(frame),
                    WorldEvent::TxEnd { frame, tx } => self.on_tx_end(frame, tx),
                    WorldEvent::MobilityTick => self.on_mobility_tick(),
                    WorldEvent::Publish { index: publication } => self.on_publish(publication),
                    WorldEvent::WarmupEnd => self.on_warmup_end(),
                    WorldEvent::Subscribe { .. } | WorldEvent::Timer { .. } => unreachable!(),
                }
            }
        }
        self.core.batch_scratch = batch;
    }

    /// Hands `work` to worker shard `shard`. A worker that died fails the
    /// `join` that follows every fork.
    fn fork(&self, shard: usize, work: Work) {
        let _ = self.work[shard - 1].send(work);
    }

    /// Waits for worker shard `shard`'s reply. A worker that panicked hung
    /// up its reply channel; the run then fails here rather than waiting.
    fn join(&self, shard: usize) -> Reply {
        recv(&self.replies[shard - 1], self.spin).unwrap_or_else(|| {
            panic!(
                "shard {shard} panicked in the batch at {}; the run is abandoned",
                self.core.now
            )
        })
    }

    fn join_bufs(&self, shard: usize) -> Vec<ActionBuf> {
        match self.join(shard) {
            Reply::Actions(bufs) => bufs,
            _ => unreachable!("mismatched reply kind"),
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

    /// Commits the filled buffers of an ascending run of nodes, in order.
    fn commit_run(&mut self, run: &[u32], mut bufs: Vec<ActionBuf>) {
        for (&node, buf) in run.iter().zip(&mut bufs) {
            self.core.commit(NodeId(node), buf);
        }
        self.return_bufs(bufs);
    }

    /// Splits an ascending node list along the shard boundaries: afterwards
    /// `list[self.span(s)]` is shard `s`'s (possibly empty) contiguous run.
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

    /// Shard `shard`'s run of the list last split by [`Engine::split_runs`].
    fn span(&self, shard: usize) -> std::ops::Range<usize> {
        self.runs[shard]..self.runs[shard + 1]
    }

    /// Runs the protocol segment at the head of `events` — the longest run
    /// of `Subscribe`/`Timer` events in which no node appears twice — and
    /// returns how many events it consumed (at least 1).
    ///
    /// The coordinator decides each timer's fire/skip with
    /// [`Coordinator::take_armed`] while it builds the segment, exactly as
    /// the serial `dispatch` does, forks only the callbacks that run, and
    /// commits their actions in FIFO order. Deciding before any of the
    /// segment's actions commit is exact: only a node's own commits touch
    /// its timer slots, and no node in the segment has an earlier event in
    /// it. The cut at a repeated node keeps the second half true; it is what
    /// lets a callback cancel another of its own timers due in the same
    /// batch.
    fn protocol_segment(&mut self, events: &[(EventHandle, WorldEvent)]) -> usize {
        let now = self.core.now;
        let mut item_lists = std::mem::take(&mut self.item_lists);
        let mut segment = std::mem::take(&mut self.segment);
        let mut consumed = 0;
        for &(handle, event) in events {
            let node = match event {
                WorldEvent::Subscribe { node } | WorldEvent::Timer { node, .. } => node,
                _ => break,
            };
            if self.in_segment.contains(node.index()) {
                break;
            }
            consumed += 1;
            let op = match event {
                WorldEvent::Timer { kind, .. } => {
                    if !self.core.take_armed(node, kind, handle) {
                        continue; // cancelled or re-armed: skipped, nothing runs
                    }
                    ProtocolOp::Timer(kind)
                }
                _ => ProtocolOp::Subscribe(self.core.subscribe_topic(node)),
            };
            self.in_segment.insert(node.index());
            segment.push(node);
            item_lists[self.part.owner(node.index())].push(ProtocolItem { node: node.0, op });
        }
        // Fork: workers first, then shard 0 inline on this thread.
        let forked: Vec<bool> = item_lists.iter().map(|items| !items.is_empty()).collect();
        for (shard, items) in item_lists.iter_mut().enumerate().skip(1) {
            if !items.is_empty() {
                let items = std::mem::take(items);
                let bufs = self.take_bufs(items.len());
                self.fork(shard, Work::Protocol { now, items, bufs });
            }
        }
        let mut bufs = self.take_bufs(item_lists[0].len());
        do_protocol(&mut self.chunk0, now, &item_lists[0], &mut bufs);
        item_lists[0].clear();
        self.item_lists = item_lists;
        // Join: receive in shard order, then commit each item's actions in
        // FIFO order from its shard's cursor.
        let mut joined = vec![(bufs, 0)];
        for (shard, &forked) in forked.iter().enumerate().skip(1) {
            joined.push((
                if forked {
                    self.join_bufs(shard)
                } else {
                    Vec::new()
                },
                0,
            ));
        }
        for node in segment.drain(..) {
            self.in_segment.remove(node.index());
            let (bufs, cursor) = &mut joined[self.part.owner(node.index())];
            self.core.commit(node, &mut bufs[*cursor]);
            *cursor += 1;
        }
        self.segment = segment;
        for (bufs, _) in joined {
            // An idle shard's placeholder holds nothing worth pooling.
            if bufs.capacity() > 0 {
                self.return_bufs(bufs);
            }
        }
        consumed
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
        for shard in 1..self.part.len() {
            let run = &received[self.span(shard)];
            if !run.is_empty() {
                let bufs = self.take_bufs(run.len());
                let message = Arc::clone(&message);
                let receivers = run.to_vec();
                self.fork(
                    shard,
                    Work::Deliver {
                        now,
                        message,
                        receivers,
                        bufs,
                    },
                );
            }
        }
        let own = &received[self.span(0)];
        let mut bufs = self.take_bufs(own.len());
        do_deliver(&mut self.chunk0, now, &message, own, &mut bufs);
        // Commit ascending: shard order is receiver order.
        self.commit_run(own, bufs);
        for shard in 1..self.part.len() {
            let run = &received[self.span(shard)];
            if !run.is_empty() {
                let bufs = self.join_bufs(shard);
                self.commit_run(run, bufs);
            }
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
        for shard in 1..self.part.len() {
            let run = &due[self.span(shard)];
            if !run.is_empty() {
                let nodes = run.to_vec();
                self.fork(shard, Work::Mobility { now, tick, nodes });
            }
        }
        // Commit ascending (shard order = node order), exactly as the serial
        // walk does.
        let own = &due[self.span(0)];
        for moved in do_mobility(&mut self.chunk0, now, tick, own) {
            self.core.commit_move(moved, now);
        }
        for shard in 1..self.part.len() {
            if !due[self.span(shard)].is_empty() {
                let Reply::Mobility(moves) = self.join(shard) else {
                    unreachable!("mismatched reply kind")
                };
                for moved in moves {
                    self.core.commit_move(moved, now);
                }
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
                self.fork(
                    shard,
                    Work::Publish {
                        now,
                        node: publisher as u32,
                        topic: publication.topic.clone(),
                        validity: publication.validity,
                        payload_bytes: publication.payload_bytes,
                        buf,
                    },
                );
                let Reply::Publish { id, buf: filled } = self.join(shard) else {
                    unreachable!("mismatched reply kind")
                };
                buf = filled;
                id
            }
        };
        self.core
            .end_publish(publisher, id, publication.topic, &mut buf);
        self.buf_pool.push(buf);
    }

    /// Warm-up boundary: metrics snapshots fan out; shard order concatenation
    /// restores ascending node order.
    fn on_warmup_end(&mut self) {
        for shard in 1..self.part.len() {
            self.fork(shard, Work::Snapshot);
        }
        let mut metrics = metrics_of(self.chunk0.nodes);
        for shard in 1..self.part.len() {
            let Reply::Snapshot(chunk) = self.join(shard) else {
                unreachable!("mismatched reply kind")
            };
            metrics.extend(chunk);
        }
        self.core.snapshot_warmup(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use mobility::Area;
    use netsim::RadioConfig;
    use pubsub::SubscriptionSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A stand-in protocol. `subscribe` arms a heartbeat and a
    /// neighborhood-GC timer for the same instant; every timer broadcasts,
    /// and the heartbeat also cancels the GC timer and re-arms both, so the
    /// GC timer of each batch is stale by the time the serial loop reaches
    /// it. With `panics` set, `subscribe` panics instead.
    #[derive(Debug)]
    struct Fake {
        id: ProcessId,
        subscriptions: SubscriptionSet,
        metrics: ProtocolMetrics,
        panics: bool,
    }

    fn arm_both(out: &mut ActionBuf) {
        for kind in [TimerKind::Heartbeat, TimerKind::NeighborhoodGc] {
            let after = SimDuration::from_millis(500);
            out.push(Action::SetTimer { kind, after });
        }
    }

    impl DisseminationProtocol for Fake {
        fn name(&self) -> &'static str {
            "fake"
        }

        fn id(&self) -> ProcessId {
            self.id
        }

        fn subscriptions(&self) -> &SubscriptionSet {
            &self.subscriptions
        }

        fn subscribe(&mut self, _: Topic, _: SimTime, out: &mut ActionBuf) {
            assert!(!self.panics, "node {} cannot subscribe", self.id.0);
            arm_both(out);
        }

        fn unsubscribe(&mut self, _: &Topic, _: SimTime, _: &mut ActionBuf) {}

        fn publish(
            &mut self,
            _: Topic,
            _: SimDuration,
            _: usize,
            _: SimTime,
            _: &mut ActionBuf,
        ) -> EventId {
            unreachable!("the fake world publishes nothing")
        }

        fn handle_message(&mut self, _: &Message, _: SimTime, _: &mut ActionBuf) {}

        fn handle_timer(&mut self, kind: TimerKind, _: SimTime, out: &mut ActionBuf) {
            self.metrics.messages_sent += 1;
            out.push(Action::Broadcast(Message::Heartbeat {
                from: self.id,
                subscriptions: self.subscriptions.clone(),
                speed: None,
            }));
            if kind == TimerKind::Heartbeat {
                out.push(Action::CancelTimer(TimerKind::NeighborhoodGc));
                arm_both(out);
            }
        }

        fn update_speed(&mut self, _: Option<f64>) {}

        fn metrics(&self) -> &ProtocolMetrics {
            &self.metrics
        }
    }

    /// Six stationary nodes in radio range of each other, running [`Fake`]
    /// on `shards` shards; node `panicking`, if any, panics on subscribe.
    fn fake_world(shards: usize, panicking: Option<usize>) -> World {
        let scenario = ScenarioBuilder::new()
            .label("fake")
            .nodes(6)
            .mobility(MobilityKind::Stationary {
                area: Area::square(100.0),
            })
            .radio(RadioConfig::ideal(150.0))
            .timing(SimDuration::ZERO, SimDuration::from_secs(5))
            .publications(Vec::new())
            .build()
            .unwrap();
        let mut world = World::new(scenario, 1).unwrap();
        for (index, node) in world.pop.nodes.iter_mut().enumerate() {
            node.protocol = Box::new(Fake {
                id: ProcessId(index as u64),
                subscriptions: SubscriptionSet::new(),
                metrics: ProtocolMetrics::default(),
                panics: panicking == Some(index),
            });
        }
        world.set_shards(shards);
        world
    }

    #[test]
    fn a_panicking_worker_fails_the_run_instead_of_hanging() {
        assert_eq!(BoundaryPartition::balanced(6, 2).owner(4), 1);
        let mut world = fake_world(2, Some(4));
        let end = SimTime::ZERO + world.scenario().duration;
        let payload = catch_unwind(AssertUnwindSafe(|| world.run_until(end)))
            .expect_err("the worker's panic must fail the run");
        let message = payload
            .downcast::<String>()
            .expect("the coordinator's diagnostic");
        assert!(message.contains("shard 1"), "{message}");
        assert!(message.contains(&world.now().to_string()), "{message}");
    }

    #[test]
    fn a_node_twice_in_one_batch_matches_the_serial_loop() {
        let serial = fake_world(1, None).run();
        assert!(serial.nodes.iter().any(|node| node.messages_sent > 0));
        assert_eq!(fake_world(2, None).run(), serial);
    }
}
