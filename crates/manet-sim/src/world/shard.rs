//! Sharded delivery: the receivers of one frame run their `handle_message`
//! callbacks on several cores, and the report stays bit-identical.
//!
//! The world has one event loop, the serial `World::run_until`, at every
//! shard count. With [`World::set_shards`] above one it opens a thread scope
//! for the call, spawns one [`Workers`] pool and changes exactly one handler,
//! the frame completion: [`Workers::deliver`]. Everything else a batch holds
//! (timers, subscribes, publishes, mobility ticks, the warm-up snapshot) runs
//! in the serial handlers, because the only per-node work of any size is a
//! receiver's delivery callback, and a frame can have hundreds of receivers.
//!
//! # Why the fork is exact
//!
//! Bit-identity with one shard is non-negotiable (the golden fingerprints
//! and the oracle proptest enforce it). Reception resolves at the
//! coordinator through the serial loop's own medium call, so the MAC RNG
//! draws in one order. A delivery callback reads only its own node's state
//! and an immutable message, and *emits* actions into a buffer. The
//! coordinator commits those buffers in ascending receiver order, exactly as
//! the serial loop does, so the scheduler's sequence numbers come out the
//! same. Committing touches only coordinator state, which no callback reads.
//!
//! # Partitioning
//!
//! Nodes are split into [`BoundaryPartition::balanced`] contiguous index
//! ranges, fixed for the whole `run_until` call. Because ranges are ascending,
//! the ascending outcome list of a frame splits into one run per shard, and
//! walking the shards in order restores ascending receiver order. Shard 0's
//! receivers run inline on the coordinator, while each worker shard gets its
//! receivers' protocols **by value**: the coordinator takes each one out of
//! its `SimNode` (`Option::take`) and puts it back at the join, so no
//! worker ever borrows the node arrays and the serial handlers may touch them
//! between forks.
//!
//! # Exchange
//!
//! Workers are long-lived within one `run_until` call (`std::thread::scope`).
//! Each has two `std::sync::mpsc::sync_channel(1)`s, work in and reply out;
//! a fork sends at most one message each way per worker, so no send ever
//! blocks. A receiver probes `try_recv` for a while before it blocks
//! ([`spin_budget`], [`recv`]). Teardown is the other side hanging up: the
//! pool owns the work senders, so dropping it, at the end of the run or
//! while a coordinator panic unwinds, ends every worker loop and lets the
//! scope join. A worker's panic drops its reply sender, and the
//! coordinator's next receive from it fails the run with a message naming
//! the shard and the batch time. A world whose run panicked is abandoned:
//! the protocols that panicking worker held are gone.

use super::*;
use simkit::BoundaryPartition;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::Scope;

/// Probes an idle receiver makes before blocking. At ~1-5 ns per probe this
/// is tens of microseconds of spinning — longer than any in-flight delivery
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

/// One receiver's protocol, lent to a worker for one delivery, with the
/// buffer its callback fills.
struct Lent {
    node: usize,
    protocol: Box<dyn DisseminationProtocol>,
    out: ActionBuf,
}

/// One frame's delivery to a worker shard's receivers (ascending).
struct Work {
    now: SimTime,
    message: Arc<Message>,
    lent: Vec<Lent>,
}

/// The worker thread: run each lent protocol's delivery callback and send
/// the lot back, until the coordinator hangs up.
fn worker_loop(inbox: Receiver<Work>, replies: SyncSender<Vec<Lent>>, spin: u32) {
    while let Some(Work {
        now,
        message,
        mut lent,
    }) = recv(&inbox, spin)
    {
        for Lent { protocol, out, .. } in &mut lent {
            protocol.handle_message(&message, now, out);
        }
        // Drop this clone before replying, so the coordinator can reclaim
        // the message's vectors.
        drop(message);
        if replies.send(lent).is_err() {
            break;
        }
    }
}

/// The worker shards of one sharded `run_until` call, seen from the
/// coordinator, which doubles as shard 0.
pub(super) struct Workers {
    part: BoundaryPartition,
    /// Work senders and reply receivers of worker shards `1..`, at index
    /// `shard - 1`.
    work: Vec<SyncSender<Work>>,
    replies: Vec<Receiver<Vec<Lent>>>,
    /// Spin budget of this machine (see [`spin_budget`]).
    spin: u32,
    /// The shards forked for the frame being delivered, ascending.
    forked: Vec<usize>,
    /// Recycled lending vectors and action buffers (with their pooled
    /// message vectors).
    spare: Vec<Vec<Lent>>,
    bufs: Vec<ActionBuf>,
}

impl Workers {
    /// Partitions `nodes` node indices into `shards` ranges and spawns a
    /// worker thread in `scope` for every shard but the first.
    pub(super) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        nodes: usize,
        shards: usize,
    ) -> Self {
        let part = BoundaryPartition::balanced(nodes, shards);
        let spin = spin_budget(part.len());
        let (mut work, mut replies) = (Vec::new(), Vec::new());
        for _ in 1..part.len() {
            let (work_tx, work_rx) = sync_channel(1);
            let (reply_tx, reply_rx) = sync_channel(1);
            scope.spawn(move || worker_loop(work_rx, reply_tx, spin));
            work.push(work_tx);
            replies.push(reply_rx);
        }
        Workers {
            part,
            work,
            replies,
            spin,
            forked: Vec::new(),
            spare: Vec::new(),
            bufs: Vec::new(),
        }
    }

    /// Delivers a completed frame to the receivers in `outcomes` (ascending,
    /// as the medium resolved them): each worker shard's receivers run on
    /// their worker, shard 0's inline, and every receiver's actions commit in
    /// ascending receiver order — the serial loop's exact interleaving, since
    /// delivery callbacks draw no randomness.
    pub(super) fn deliver(
        &mut self,
        core: &mut Coordinator,
        nodes: &mut [SimNode],
        outcomes: &[(usize, ReceptionOutcome)],
        message: Message,
    ) {
        let (now, message) = (core.now, Arc::new(message));
        let split = |shard: usize| {
            let end = self.part.range(shard).end;
            outcomes.partition_point(|&(receiver, _)| receiver < end)
        };
        let own = split(0);
        let mut start = own;
        self.forked.clear();
        for shard in 1..self.part.len() {
            let end = split(shard);
            let mut lent = self.spare.pop().unwrap_or_default();
            for &(node, outcome) in &outcomes[start..end] {
                if outcome == ReceptionOutcome::Received {
                    lent.push(Lent {
                        node,
                        protocol: nodes[node].protocol.take().expect(LENT),
                        out: self.bufs.pop().unwrap_or_default(),
                    });
                }
            }
            start = end;
            if lent.is_empty() {
                self.spare.push(lent);
                continue;
            }
            let message = Arc::clone(&message);
            // A worker that died fails the join below.
            let _ = self.work[shard - 1].send(Work { now, message, lent });
            self.forked.push(shard);
        }
        core.deliver(nodes, &outcomes[..own], &message);
        for &shard in &self.forked {
            let mut lent = recv(&self.replies[shard - 1], self.spin).unwrap_or_else(|| {
                panic!("shard {shard} panicked in the batch at {now}; the run is abandoned")
            });
            for Lent {
                node,
                protocol,
                mut out,
            } in lent.drain(..)
            {
                nodes[node].protocol = Some(protocol);
                core.commit(NodeId::from_index(node), &mut out);
                self.bufs.push(out);
            }
            self.spare.push(lent);
        }
        // Every worker dropped its clone before replying; reclaim the
        // message's vectors for the next broadcast.
        if let Ok(message) = Arc::try_unwrap(message) {
            core.action_buf.recycle_message(message);
        }
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
    /// it. With `panics` set, `handle_message` panics.
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

        fn handle_message(&mut self, _: &Message, _: SimTime, _: &mut ActionBuf) {
            assert!(!self.panics, "node {} cannot receive", self.id.0);
        }

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
    /// on `shards` shards; node `panicking`, if any, panics on delivery.
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
            node.protocol = Some(Box::new(Fake {
                id: ProcessId(index as u64),
                subscriptions: SubscriptionSet::new(),
                metrics: ProtocolMetrics::default(),
                panics: panicking == Some(index),
            }));
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

    /// Sharded delivery next to same-batch timer cancellations: the
    /// heartbeat of each batch cancels and re-arms a GC timer that the same
    /// batch already drained.
    #[test]
    fn a_node_twice_in_one_batch_matches_the_serial_loop() {
        let serial = fake_world(1, None).run();
        assert!(serial.nodes.iter().any(|node| node.messages_sent > 0));
        assert_eq!(fake_world(2, None).run(), serial);
    }
}
