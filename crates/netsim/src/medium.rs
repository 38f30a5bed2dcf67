//! The shared broadcast medium: who hears what, and which frames collide.
//!
//! [`RadioMedium`] models a single 802.11b-style broadcast channel:
//!
//! * every transmission is a **local broadcast** — it can be heard by every
//!   node within [`RadioConfig::range_m`] of the sender (the paper's model:
//!   "a process cannot send a message to only one of its neighboring
//!   processes");
//! * broadcast frames are unacknowledged and unprotected by RTS/CTS, so two
//!   transmissions that overlap in time at a receiver **collide** and are both
//!   lost at that receiver (this is what produces the paper's Fig. 13 dip);
//! * a node cannot receive while it is itself transmitting (half duplex);
//! * receivers in the outer fringe of the range suffer additional random loss,
//!   standing in for QualNet's statistical propagation model.
//!
//! The medium owns the node positions in a [`SpatialGrid`] (cell size = radio
//! range), updated incrementally as nodes move, so completing a frame touches
//! only what can matter to it:
//!
//! * its receivers come from the sender's 3×3 cell neighborhood, filtered to
//!   the radio disc and then sorted — O(neighbors) instead of O(nodes);
//! * of the other frames on the air at the same time, only those sent from
//!   within `2·range` of the sender are kept as interferers: a receiver is at
//!   most `range` from the sender, so by the triangle inequality a frame from
//!   farther away cannot be audible at it;
//! * half duplex is decided by sender id against the receiver list, never by
//!   position, because a node may have moved since it started transmitting.
//!
//! Completion has one public entry, [`RadioMedium::complete_transmission_into`]
//! (and its allocating twin): a private snapshot of the frame's receivers and
//! interferers, then a classify-and-resolve pass per receiver.
//!
//! Receivers are visited in ascending node index, which keeps the RNG stream
//! — and therefore every simulation report — bit-identical to the brute-force
//! full scan against every overlapping frame world-wide (kept as the
//! test-only `complete_transmission_brute`, the oracle which
//! `grid_matches_brute_force_reference` consults).
//!
//! The medium also does per-node traffic accounting ([`TrafficCounters`]),
//! which the frugality experiments (Fig. 17–20) read back.

use crate::grid::SpatialGrid;
use crate::radio::RadioConfig;
use mobility::Point;
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// Relative slack on the `2·range` interferer cut-off. The triangle
/// inequality holds for exact distances; the three rounded ones involved can
/// break it by a few ulps (~1e-16), which this covers a million times over.
const REACH_SLACK: f64 = 1e-9;

/// Identifier of an in-flight transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(u64);

/// Per-node traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficCounters {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// Bytes this node put on the air (payload + per-frame overhead).
    pub bytes_sent: u64,
    /// Frames this node successfully received.
    pub frames_received: u64,
    /// Bytes this node successfully received (payload + per-frame overhead).
    pub bytes_received: u64,
    /// Frames lost at this node because of a collision.
    pub frames_lost_collision: u64,
    /// Frames lost at this node because of fringe (statistical propagation) loss.
    pub frames_lost_fringe: u64,
}

impl TrafficCounters {
    /// Total bytes that crossed this node's radio, sent plus received.
    /// This is the quantity reported as "bandwidth used per process".
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

#[derive(Debug, Clone, Copy)]
struct Transmission {
    sender: usize,
    position: Point,
    start: SimTime,
    end: SimTime,
    payload_bytes: usize,
    completed: bool,
}

impl Transmission {
    /// Whether the two frames were on the air at a common instant.
    fn overlaps(&self, other: &Transmission) -> bool {
        self.start < other.end && self.end > other.start
    }
}

/// Outcome of a completed transmission at one receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceptionOutcome {
    /// The frame was received successfully.
    Received,
    /// The frame was lost because another audible transmission overlapped.
    Collided,
    /// The frame was lost to fringe (statistical) propagation loss.
    FringeLoss,
    /// The receiver was itself transmitting (half duplex).
    SelfBusy,
}

/// RNG-free classification of one receiver against a completed transmission:
/// everything about the outcome that does not need the loss draw. Produced by
/// [`CompletionSnapshot::classify`], turned into a [`ReceptionOutcome`] (and
/// counter updates) by [`RadioMedium::resolve_classified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReceptionClass {
    /// The receiver was itself on the air during the frame (half duplex).
    SelfBusy,
    /// Another transmission audible at the receiver overlapped the frame.
    Collided,
    /// In range and clear, but in the outer fringe of the disc: reception
    /// still needs the statistical loss draw.
    FringeCandidate,
    /// In range, clear, and inside the reliable part of the disc.
    Clear,
}

/// A completed transmission detached from the medium: the nodes in range of
/// it, and what was on the air with it that can matter to them. The
/// receiver-independent half of reception resolution: each receiver is
/// classified against it ([`CompletionSnapshot::classify`], no RNG), then
/// resolved ([`RadioMedium::resolve_classified`]) in ascending node order.
#[derive(Debug, Clone, Default)]
struct CompletionSnapshot {
    /// Where the frame was transmitted from.
    position: Point,
    /// Payload size of the frame in bytes (excluding per-frame overhead).
    payload_bytes: usize,
    /// Nodes in range of the frame when it completed, sender excluded,
    /// ascending.
    receivers: Vec<usize>,
    /// The receivers that were themselves on the air during the frame.
    busy: Vec<usize>,
    /// Where the other frames on the air during this one were sent from.
    interferers: Vec<Point>,
}

impl CompletionSnapshot {
    /// Overwrites the snapshot with `frame` and nothing else on the air.
    fn capture(&mut self, frame: &Transmission) {
        self.position = frame.position;
        self.payload_bytes = frame.payload_bytes;
        self.receivers.clear();
        self.busy.clear();
        self.interferers.clear();
    }

    /// Classifies reception of this frame at `receiver`, one of the
    /// snapshot's receivers, located at `rx_pos`.
    fn classify(&self, config: &RadioConfig, receiver: usize, rx_pos: Point) -> ReceptionClass {
        if self.busy.contains(&receiver) {
            return ReceptionClass::SelfBusy;
        }
        let collided = self
            .interferers
            .iter()
            .any(|from| from.distance(rx_pos) <= config.range_m);
        if collided {
            return ReceptionClass::Collided;
        }
        let fringe_start = config.range_m * config.fringe_start_fraction;
        if self.position.distance(rx_pos) > fringe_start {
            ReceptionClass::FringeCandidate
        } else {
            ReceptionClass::Clear
        }
    }
}

/// The shared wireless broadcast channel.
#[derive(Debug)]
pub struct RadioMedium {
    config: RadioConfig,
    /// Node positions, bucketed by radio-range-sized cells.
    grid: SpatialGrid,
    /// Tracked transmissions in id order: ids are handed out consecutively,
    /// so `tx` sits at index `tx - first_tx`. Pruned from the front only.
    transmissions: VecDeque<Transmission>,
    /// Id of the front of `transmissions` (of the next one when empty).
    first_tx: u64,
    counters: Vec<TrafficCounters>,
    /// Longest air time of any frame begun so far — the interference horizon
    /// used by pruning: a completed frame older than this cannot overlap
    /// anything still pending.
    max_air: SimDuration,
    /// Scratch snapshot reused by `complete_transmission_into`.
    snapshot: CompletionSnapshot,
}

impl RadioMedium {
    /// Creates a medium for `node_count` nodes sharing one `config`, all nodes
    /// initially at the origin. Push real positions with
    /// [`RadioMedium::update_position`] before transmitting, or build with
    /// [`RadioMedium::with_positions`].
    ///
    /// # Panics
    ///
    /// Panics if the configured radio range is not strictly positive and
    /// finite.
    pub fn new(config: RadioConfig, node_count: usize) -> Self {
        RadioMedium {
            grid: SpatialGrid::new(config.range_m, node_count),
            config,
            transmissions: VecDeque::new(),
            first_tx: 0,
            counters: vec![TrafficCounters::default(); node_count],
            max_air: SimDuration::ZERO,
            snapshot: CompletionSnapshot::default(),
        }
    }

    /// Creates a medium with one node per entry of `positions`.
    pub fn with_positions(config: RadioConfig, positions: &[Point]) -> Self {
        let mut medium = RadioMedium::new(config, positions.len());
        medium.sync_positions(positions);
        medium
    }

    /// Clears all per-run state — traffic counters and the tracked
    /// transmissions — while keeping every allocation (including the spatial
    /// grid's buckets) for reuse by the next run. Node positions are left as
    /// they are; callers push the next run's initial positions with
    /// [`RadioMedium::update_position`].
    ///
    /// After a reset the medium behaves exactly like a freshly built one:
    /// transmission ids restart at zero and all counters read zero.
    pub fn reset(&mut self) {
        for counters in &mut self.counters {
            *counters = TrafficCounters::default();
        }
        self.transmissions.clear();
        self.first_tx = 0;
        self.max_air = SimDuration::ZERO;
    }

    /// The radio configuration shared by all nodes.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Number of nodes known to the medium.
    pub fn node_count(&self) -> usize {
        self.counters.len()
    }

    /// Current position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: usize) -> Point {
        self.grid.position(node)
    }

    /// Moves `node` to `position` (typically once per mobility tick).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `position` is not finite.
    pub fn update_position(&mut self, node: usize, position: Point) {
        self.grid.update(node, position);
    }

    /// Replaces every node's position at once.
    ///
    /// # Panics
    ///
    /// Panics if `positions` does not hold exactly one entry per node.
    fn sync_positions(&mut self, positions: &[Point]) {
        assert_eq!(
            positions.len(),
            self.counters.len(),
            "one position per node is required"
        );
        for (node, &position) in positions.iter().enumerate() {
            self.grid.update(node, position);
        }
    }

    /// Traffic counters of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn counters(&self, node: usize) -> &TrafficCounters {
        &self.counters[node]
    }

    /// Traffic counters of every node, indexed by node id.
    pub fn all_counters(&self) -> &[TrafficCounters] {
        &self.counters
    }

    /// Registers that `sender` starts transmitting a frame of `payload_bytes`
    /// at time `now`, from its current position. Returns the transmission id
    /// and the time at which the frame ends (when
    /// [`RadioMedium::complete_transmission`] must be called).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn begin_transmission(
        &mut self,
        sender: usize,
        payload_bytes: usize,
        now: SimTime,
    ) -> (TxId, SimTime) {
        assert!(sender < self.counters.len(), "unknown sender {sender}");
        self.prune(now);
        let id = TxId(self.first_tx + self.transmissions.len() as u64);
        let air = self.config.air_time(payload_bytes);
        if air > self.max_air {
            self.max_air = air;
        }
        let end = now + air;
        self.transmissions.push_back(Transmission {
            sender,
            position: self.grid.position(sender),
            start: now,
            end,
            payload_bytes,
            completed: false,
        });
        let counters = &mut self.counters[sender];
        counters.frames_sent += 1;
        counters.bytes_sent += self.config.wire_bytes(payload_bytes);
        (id, end)
    }

    /// Completes transmission `tx` and resolves reception at every node in
    /// range of the sender (excluding the sender itself), using the positions
    /// the medium tracks. Returns the per-receiver outcomes in ascending node
    /// index; nodes outside the range are not listed.
    ///
    /// Outcomes and RNG consumption are bit-identical to the brute-force
    /// reference (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    pub fn complete_transmission(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
    ) -> Vec<(usize, ReceptionOutcome)> {
        let mut outcomes = Vec::new();
        self.complete_transmission_into(tx, rng, &mut outcomes);
        outcomes
    }

    /// Allocation-free variant of [`RadioMedium::complete_transmission`]:
    /// appends the per-receiver outcomes to a caller-owned scratch vector
    /// (which is **not** cleared first) instead of returning a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    pub fn complete_transmission_into(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
        outcomes: &mut Vec<(usize, ReceptionOutcome)>,
    ) {
        let mut snapshot = std::mem::take(&mut self.snapshot);
        self.begin_completion(tx, &mut snapshot);
        self.resolve_snapshot(&snapshot, rng, outcomes);
        self.snapshot = snapshot;
    }

    /// The reference path: finds the receivers by scanning **all** nodes and
    /// checks each against **every** transmission that overlapped the frame
    /// in time, wherever it was sent from. Semantically identical to
    /// [`RadioMedium::complete_transmission`] but O(nodes) per frame and
    /// O(frames on the air) per receiver; the oracle of
    /// `grid_matches_brute_force_reference`.
    #[cfg(test)]
    fn complete_transmission_brute(
        &mut self,
        tx: TxId,
        rng: &mut SimRng,
    ) -> Vec<(usize, ReceptionOutcome)> {
        let (index, frame) = self.mark_completed(tx);
        let mut snapshot = CompletionSnapshot::default();
        snapshot.capture(&frame);
        snapshot
            .receivers
            .extend((0..self.counters.len()).filter(|&node| {
                node != frame.sender
                    && frame.position.distance(self.grid.position(node)) <= self.config.range_m
            }));
        for other in self.overlapping(index, &frame) {
            snapshot.busy.push(other.sender);
            snapshot.interferers.push(other.position);
        }
        let mut outcomes = Vec::new();
        self.resolve_snapshot(&snapshot, rng, &mut outcomes);
        outcomes
    }

    /// Marks `tx` completed and captures into `out` (fully overwritten) the
    /// frame, the nodes in range of it, and the time-overlapping
    /// transmissions that can matter to them: as half-duplex senders, the
    /// ones whose sender is a receiver; as interferers, the ones sent from
    /// within `2·range` of the frame (see the module docs). The snapshot half
    /// of [`RadioMedium::complete_transmission_into`].
    ///
    /// # Panics
    ///
    /// Panics if `tx` is unknown or already completed.
    fn begin_completion(&mut self, tx: TxId, out: &mut CompletionSnapshot) {
        let (index, frame) = self.mark_completed(tx);
        out.capture(&frame);
        let range = self.config.range_m;
        self.grid
            .within_into(frame.position, range, &mut out.receivers);
        if let Ok(own) = out.receivers.binary_search(&frame.sender) {
            out.receivers.remove(own);
        }
        let reach = 2.0 * range * (1.0 + REACH_SLACK);
        for other in self.overlapping(index, &frame) {
            if out.receivers.binary_search(&other.sender).is_ok() {
                out.busy.push(other.sender);
            }
            if other.position.distance_squared(frame.position) <= reach * reach {
                out.interferers.push(other.position);
            }
        }
    }

    /// Grid neighborhood query at the medium's radio range: overwrites `out`
    /// with every node within range of `position` (plus some of the
    /// surrounding cells) in ascending node index.
    pub fn neighbors_into(&self, position: Point, out: &mut Vec<usize>) {
        self.grid.query_into(position, self.config.range_m, out);
    }

    /// Looks `tx` up by its offset from the front of the deque, marks it
    /// completed and returns its index and a copy of it.
    fn mark_completed(&mut self, tx: TxId) -> (usize, Transmission) {
        // An id older than the front wraps to an index past any length.
        let index = usize::try_from(tx.0.wrapping_sub(self.first_tx)).unwrap_or(usize::MAX);
        let frame = self
            .transmissions
            .get_mut(index)
            .expect("unknown transmission id");
        assert!(!frame.completed, "transmission completed twice");
        frame.completed = true;
        (index, *frame)
    }

    /// The tracked transmissions other than `frame` (at `index`) that were on
    /// the air at a common instant with it, anywhere in the world.
    fn overlapping<'a>(
        &'a self,
        index: usize,
        frame: &'a Transmission,
    ) -> impl Iterator<Item = &'a Transmission> {
        self.transmissions
            .iter()
            .enumerate()
            .filter(move |&(at, other)| at != index && other.overlaps(frame))
            .map(|(_, other)| other)
    }

    /// Classifies and resolves each receiver of `snapshot` in ascending node
    /// index, updating counters and consuming the RNG.
    fn resolve_snapshot(
        &mut self,
        snapshot: &CompletionSnapshot,
        rng: &mut SimRng,
        outcomes: &mut Vec<(usize, ReceptionOutcome)>,
    ) {
        for &receiver in &snapshot.receivers {
            let class = snapshot.classify(&self.config, receiver, self.grid.position(receiver));
            let outcome = self.resolve_classified(snapshot, receiver, class, rng);
            outcomes.push((receiver, outcome));
        }
    }

    /// Turns a [`ReceptionClass`] into the final [`ReceptionOutcome`] for
    /// `receiver`: draws the fringe loss chance where needed and updates the
    /// receiver's traffic counters. One frame's receivers must be resolved in
    /// ascending node index to keep the RNG stream — and therefore
    /// whole-simulation reports — deterministic.
    fn resolve_classified(
        &mut self,
        snapshot: &CompletionSnapshot,
        receiver: usize,
        class: ReceptionClass,
        rng: &mut SimRng,
    ) -> ReceptionOutcome {
        let outcome = match class {
            ReceptionClass::SelfBusy => ReceptionOutcome::SelfBusy,
            ReceptionClass::Collided => ReceptionOutcome::Collided,
            ReceptionClass::FringeCandidate => {
                if rng.chance(self.config.fringe_loss_probability) {
                    ReceptionOutcome::FringeLoss
                } else {
                    ReceptionOutcome::Received
                }
            }
            ReceptionClass::Clear => ReceptionOutcome::Received,
        };
        let counters = &mut self.counters[receiver];
        match outcome {
            ReceptionOutcome::Received => {
                counters.frames_received += 1;
                counters.bytes_received += self.config.wire_bytes(snapshot.payload_bytes);
            }
            ReceptionOutcome::Collided | ReceptionOutcome::SelfBusy => {
                counters.frames_lost_collision += 1;
            }
            ReceptionOutcome::FringeLoss => {
                counters.frames_lost_fringe += 1;
            }
        }
        outcome
    }

    /// Drops, from the front of the deque, completed transmissions that can
    /// no longer interfere with frames starting at or after `now`.
    fn prune(&mut self, now: SimTime) {
        // A completed frame only matters as an interferer for a transmission
        // that overlaps it in time, and no pending transmission begun before
        // `now` can have started earlier than `now - max_air`. Anything that
        // ended before that (with a 1 ms margin for the strict/loose
        // inequality mix) can never be consulted again. An expired frame
        // behind a still-pending one waits for it: ids must stay contiguous,
        // and the time test in `overlapping` ignores it meanwhile.
        let horizon = self.max_air + SimDuration::from_millis(1);
        while let Some(front) = self.transmissions.front() {
            if !front.completed || front.end + horizon > now {
                break;
            }
            self.transmissions.pop_front();
            self.first_tx += 1;
        }
    }

    /// Number of transmissions tracked, probed by `pruning_keeps_memory_bounded`.
    #[cfg(test)]
    fn tracked_transmissions(&self) -> usize {
        self.transmissions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(points: &[(f64, f64)]) -> Vec<Point> {
        points.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn ideal_medium(pos: &[Point], range: f64) -> RadioMedium {
        RadioMedium::with_positions(RadioConfig::ideal(range), pos)
    }

    #[test]
    fn in_range_node_receives() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (500.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, end) = medium.begin_transmission(0, 400, SimTime::ZERO);
        assert!(end > SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert_eq!(outcomes, vec![(1, ReceptionOutcome::Received)]);
        assert_eq!(medium.counters(1).frames_received, 1);
        assert_eq!(
            medium.counters(2).frames_received,
            0,
            "node 2 is out of range"
        );
        assert_eq!(medium.counters(0).frames_sent, 1);
        assert_eq!(medium.counters(0).bytes_sent, 400);
    }

    #[test]
    fn sender_never_receives_its_own_frame() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert!(outcomes.iter().all(|&(r, _)| r != 0));
    }

    #[test]
    fn overlapping_transmissions_collide_at_common_receiver() {
        // Nodes 0 and 2 both in range of node 1; they transmit at the same time.
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(2, 400, SimTime::ZERO);
        let outcomes_a = medium.complete_transmission(tx_a, &mut rng);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        let at_1_a = outcomes_a.iter().find(|&&(r, _)| r == 1).unwrap().1;
        let at_1_b = outcomes_b.iter().find(|&&(r, _)| r == 1).unwrap().1;
        assert_eq!(at_1_a, ReceptionOutcome::Collided);
        assert_eq!(at_1_b, ReceptionOutcome::Collided);
        assert_eq!(medium.counters(1).frames_lost_collision, 2);
        assert_eq!(medium.counters(1).frames_received, 0);
    }

    #[test]
    fn hidden_terminal_does_not_collide_at_far_receiver() {
        // Node 3 only hears node 2; node 0's simultaneous transmission is too far
        // away to interfere there.
        let pos = positions(&[(0.0, 0.0), (80.0, 0.0), (300.0, 0.0), (380.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(2, 400, SimTime::ZERO);
        let _ = medium.complete_transmission(tx_a, &mut rng);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        let at_3 = outcomes_b.iter().find(|&&(r, _)| r == 3).unwrap().1;
        assert_eq!(at_3, ReceptionOutcome::Received);
    }

    #[test]
    fn non_overlapping_transmissions_do_not_collide() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, end_a) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let a = medium.complete_transmission(tx_a, &mut rng);
        // Second transmission starts strictly after the first ended.
        let (tx_b, _) = medium.begin_transmission(2, 400, end_a + SimDuration::from_millis(5));
        let b = medium.complete_transmission(tx_b, &mut rng);
        assert!(a
            .iter()
            .any(|&(r, o)| r == 1 && o == ReceptionOutcome::Received));
        assert!(b
            .iter()
            .any(|&(r, o)| r == 1 && o == ReceptionOutcome::Received));
    }

    #[test]
    fn receiver_busy_transmitting_misses_frame() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(1, 400, SimTime::ZERO);
        let outcomes_a = medium.complete_transmission(tx_a, &mut rng);
        assert_eq!(outcomes_a, vec![(1, ReceptionOutcome::SelfBusy)]);
        let outcomes_b = medium.complete_transmission(tx_b, &mut rng);
        assert_eq!(outcomes_b, vec![(0, ReceptionOutcome::SelfBusy)]);
    }

    #[test]
    fn fringe_loss_only_in_outer_ring() {
        let config = RadioConfig {
            fringe_loss_probability: 1.0, // always lose in the fringe
            fringe_start_fraction: 0.8,
            ..RadioConfig::ideal(100.0)
        };
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (95.0, 0.0)]);
        let mut medium = RadioMedium::with_positions(config, &pos);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert!(
            outcomes.contains(&(1, ReceptionOutcome::Received)),
            "inner node unaffected"
        );
        assert!(
            outcomes.contains(&(2, ReceptionOutcome::FringeLoss)),
            "fringe node loses"
        );
        assert_eq!(medium.counters(2).frames_lost_fringe, 1);
    }

    #[test]
    fn byte_accounting_includes_overhead() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0)]);
        let mut medium = RadioMedium::with_positions(RadioConfig::paper_random_waypoint(), &pos);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        medium.complete_transmission(tx, &mut rng);
        assert_eq!(medium.counters(0).bytes_sent, 458);
        assert_eq!(medium.counters(1).bytes_received, 458);
        assert_eq!(medium.counters(0).total_bytes(), 458);
        assert_eq!(medium.counters(1).total_bytes(), 458);
    }

    #[test]
    fn pruning_keeps_memory_bounded() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let (tx, end) = medium.begin_transmission(0, 100, now);
            medium.complete_transmission(tx, &mut rng);
            now = end + SimDuration::from_secs(1);
        }
        assert!(
            medium.tracked_transmissions() < 50,
            "old transmissions must be pruned, still tracking {}",
            medium.tracked_transmissions()
        );
    }

    #[test]
    fn tx_lookup_survives_pruning() {
        // Interleave long-lived and short-lived frames so pruning reshuffles
        // the transmission slab while a frame is still pending completion.
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            let (tx_a, _) = medium.begin_transmission(0, 100, now);
            now += SimDuration::from_secs(20); // beyond the prune horizon
            let (tx_b, _) = medium.begin_transmission(1, 100, now);
            medium.complete_transmission(tx_a, &mut rng);
            medium.complete_transmission(tx_b, &mut rng);
            now += SimDuration::from_secs(20);
        }
        assert!(medium.tracked_transmissions() < 10);
    }

    #[test]
    fn tx_ids_resolve_after_the_front_was_pruned() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (1000.0, 0.0), (1050.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        medium.complete_transmission(tx_a, &mut rng);
        // Beginning the next frame drops `tx_a`: ids no longer equal indices.
        let later = SimTime::from_secs(10);
        let (tx_b, _) = medium.begin_transmission(2, 100, later);
        let (tx_c, _) = medium.begin_transmission(0, 100, later);
        assert_eq!(medium.tracked_transmissions(), 2);
        assert_eq!(
            medium.complete_transmission(tx_c, &mut rng),
            vec![(1, ReceptionOutcome::Received)]
        );
        assert_eq!(
            medium.complete_transmission(tx_b, &mut rng),
            vec![(3, ReceptionOutcome::Received)]
        );
    }

    #[test]
    #[should_panic(expected = "unknown transmission id")]
    fn completing_a_pruned_transmission_panics() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        medium.complete_transmission(tx, &mut rng);
        medium.begin_transmission(0, 100, SimTime::from_secs(10));
        medium.complete_transmission(tx, &mut rng);
    }

    #[test]
    fn interferer_at_twice_the_range_collides_at_the_midpoint() {
        // The farthest an interferer can be from the sender and still matter:
        // the receiver sits at exactly `range` from both.
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(2, 400, SimTime::ZERO);
        assert_eq!(
            medium.complete_transmission(tx_a, &mut rng),
            vec![(1, ReceptionOutcome::Collided)]
        );
        assert_eq!(
            medium.complete_transmission(tx_b, &mut rng),
            vec![(1, ReceptionOutcome::Collided)]
        );
    }

    #[test]
    fn transmitter_that_moved_into_range_is_still_busy() {
        // Node 1 starts its frame ten ranges away — far outside anything that
        // can interfere near node 0 — then arrives next to node 0 before node
        // 0's frame ends. Half duplex follows the node, not the place its
        // frame was sent from; that place stays inaudible to node 2.
        let pos = positions(&[(0.0, 0.0), (1000.0, 0.0), (60.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx_a, _) = medium.begin_transmission(0, 400, SimTime::ZERO);
        let (tx_b, _) = medium.begin_transmission(1, 400, SimTime::ZERO);
        medium.update_position(1, Point::new(50.0, 0.0));
        assert_eq!(
            medium.complete_transmission(tx_a, &mut rng),
            vec![
                (1, ReceptionOutcome::SelfBusy),
                (2, ReceptionOutcome::Received)
            ]
        );
        assert!(medium.complete_transmission(tx_b, &mut rng).is_empty());
    }

    #[test]
    fn moved_nodes_hear_according_to_their_new_position() {
        let pos = positions(&[(0.0, 0.0), (500.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        assert!(medium.complete_transmission(tx, &mut rng).is_empty());
        // Node 1 walks into range; the next frame reaches it.
        medium.update_position(1, Point::new(60.0, 0.0));
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::from_secs(30));
        assert_eq!(
            medium.complete_transmission(tx, &mut rng),
            vec![(1, ReceptionOutcome::Received)]
        );
    }

    #[test]
    #[should_panic]
    fn completing_twice_panics() {
        let pos = positions(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        medium.complete_transmission(tx, &mut rng);
        medium.complete_transmission(tx, &mut rng);
    }

    #[test]
    fn reset_medium_behaves_like_a_fresh_one() {
        let pos = positions(&[(0.0, 0.0), (50.0, 0.0), (500.0, 0.0)]);
        let config = RadioConfig {
            fringe_loss_probability: 0.4,
            fringe_start_fraction: 0.6,
            ..RadioConfig::ideal(100.0)
        };
        let mut reused = RadioMedium::with_positions(config.clone(), &pos);

        // Dirty the medium with a first run whose positions differ.
        let mut rng = SimRng::seed_from(9);
        reused.update_position(1, Point::new(400.0, 300.0));
        let (tx, _) = reused.begin_transmission(0, 300, SimTime::ZERO);
        reused.complete_transmission(tx, &mut rng);

        // Reset and replay the exact run a fresh medium would do.
        reused.reset();
        reused.sync_positions(&pos);
        let mut fresh = RadioMedium::with_positions(config, &pos);
        let mut rng_a = SimRng::seed_from(1);
        let mut rng_b = SimRng::seed_from(1);
        let mut now = SimTime::ZERO;
        for round in 0..20 {
            let sender = round % 3;
            let (tx_a, end) = reused.begin_transmission(sender, 400, now);
            let (tx_b, _) = fresh.begin_transmission(sender, 400, now);
            assert_eq!(tx_a, tx_b, "transmission ids must restart at zero");
            assert_eq!(
                reused.complete_transmission(tx_a, &mut rng_a),
                fresh.complete_transmission(tx_b, &mut rng_b)
            );
            now = end + SimDuration::from_millis(3);
        }
        assert_eq!(reused.all_counters(), fresh.all_counters());
    }

    #[test]
    fn exactly_at_range_boundary_is_received() {
        let pos = positions(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut medium = ideal_medium(&pos, 100.0);
        let mut rng = SimRng::seed_from(1);
        let (tx, _) = medium.begin_transmission(0, 100, SimTime::ZERO);
        let outcomes = medium.complete_transmission(tx, &mut rng);
        assert_eq!(outcomes.len(), 1, "boundary distance counts as in range");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation of traffic: the number of frames received plus frames
        /// lost across all receivers never exceeds (receivers-in-range) ×
        /// (frames sent), and every received byte was sent by someone.
        #[test]
        fn accounting_is_conservative(seed in any::<u64>(), sends in 1usize..30) {
            let mut rng = SimRng::seed_from(seed);
            let mut scatter = SimRng::seed_from(seed ^ 0xDEAD);
            let pos: Vec<Point> = (0..5)
                .map(|_| Point::new(scatter.uniform_f64(0.0, 300.0), scatter.uniform_f64(0.0, 300.0)))
                .collect();
            let mut medium = RadioMedium::with_positions(RadioConfig::ideal(150.0), &pos);
            let mut now = SimTime::ZERO;
            for i in 0..sends {
                let sender = i % 5;
                let (tx, end) = medium.begin_transmission(sender, 200, now);
                medium.complete_transmission(tx, &mut rng);
                now = end + SimDuration::from_millis(scatter.uniform_u64(0, 50));
            }
            let total_sent: u64 = medium.all_counters().iter().map(|c| c.frames_sent).sum();
            let total_outcomes: u64 = medium
                .all_counters()
                .iter()
                .map(|c| c.frames_received + c.frames_lost_collision + c.frames_lost_fringe)
                .sum();
            prop_assert_eq!(total_sent, sends as u64);
            // Each frame can produce at most (node_count - 1) receiver outcomes.
            prop_assert!(total_outcomes <= total_sent * 4);
            let bytes_sent: u64 = medium.all_counters().iter().map(|c| c.bytes_sent).sum();
            let bytes_received: u64 = medium.all_counters().iter().map(|c| c.bytes_received).sum();
            prop_assert!(bytes_received <= bytes_sent * 4);
        }

        /// The local reception path is bit-identical to the brute-force
        /// reference, which scans every node against every overlapping frame
        /// world-wide: same outcomes, same counters, and — because receivers
        /// are visited in ascending node index — identical RNG consumption.
        /// Layouts run from one crowded cell to twenty ranges across (so the
        /// `2·range` cut-off really drops interferers), 1 ms frames mix with
        /// 32 ms ones (so finished frames wait in the deque behind a long
        /// one), and nodes move while frames are on the air — among them
        /// transmitters walking up to another frame's sender.
        #[test]
        fn grid_matches_brute_force_reference(
            seed in any::<u64>(),
            nodes in 2usize..40,
            rounds in 1usize..40,
            side in 50.0f64..3000.0,
        ) {
            const RANGE: f64 = 150.0;
            let config = RadioConfig {
                fringe_loss_probability: 0.4,
                fringe_start_fraction: 0.6,
                ..RadioConfig::ideal(RANGE)
            };
            let mut scatter = SimRng::seed_from(seed ^ 0x5CA77E4);
            let pos: Vec<Point> = (0..nodes)
                .map(|_| Point::new(scatter.uniform_f64(0.0, side), scatter.uniform_f64(0.0, side)))
                .collect();
            let mut grid_medium = RadioMedium::with_positions(config.clone(), &pos);
            let mut brute_medium = RadioMedium::with_positions(config, &pos);
            let mut grid_rng = SimRng::seed_from(seed);
            let mut brute_rng = SimRng::seed_from(seed);

            // Frames on the air as (end, id, sender); like the world, the
            // test completes each when the clock reaches its end.
            let mut pending: Vec<(SimTime, TxId, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            for round in 0..=rounds {
                pending.sort_unstable();
                let due = if round == rounds {
                    pending.len()
                } else {
                    pending.partition_point(|&(end, _, _)| end <= now)
                };
                for (_, tx, _) in pending.drain(..due) {
                    let grid_outcomes = grid_medium.complete_transmission(tx, &mut grid_rng);
                    let brute_outcomes =
                        brute_medium.complete_transmission_brute(tx, &mut brute_rng);
                    prop_assert_eq!(&grid_outcomes, &brute_outcomes);
                }
                if round == rounds {
                    break;
                }
                // A burst of overlapping frames from distinct senders.
                let burst = 1 + scatter.index(3.min(nodes));
                for b in 0..burst {
                    let sender = (round + b * 7) % nodes;
                    let payload = if scatter.chance(0.25) { 8000 } else { 200 };
                    let (tx_g, _) = grid_medium.begin_transmission(sender, payload, now);
                    let (tx_b, end) = brute_medium.begin_transmission(sender, payload, now);
                    prop_assert_eq!(tx_g, tx_b);
                    pending.push((end, tx_g, sender));
                }
                // Moves while those frames are on the air: one node anywhere
                // (rebucketing), and often a transmitter to within range of
                // another frame's sender (half duplex at a stale position).
                let mut moves = vec![(
                    scatter.index(nodes),
                    Point::new(
                        scatter.uniform_f64(-100.0, side + 100.0),
                        scatter.uniform_f64(-100.0, side + 100.0),
                    ),
                )];
                let mover = pending[scatter.index(pending.len())].2;
                let anchor = pending[scatter.index(pending.len())].2;
                if mover != anchor {
                    let at = grid_medium.position(anchor);
                    moves.push((
                        mover,
                        Point::new(
                            at.x + scatter.uniform_f64(-0.6, 0.6) * RANGE,
                            at.y + scatter.uniform_f64(-0.6, 0.6) * RANGE,
                        ),
                    ));
                }
                for (node, to) in moves {
                    grid_medium.update_position(node, to);
                    brute_medium.update_position(node, to);
                }
                now += SimDuration::from_millis(scatter.uniform_u64(0, 40));
            }
            prop_assert_eq!(grid_medium.all_counters(), brute_medium.all_counters());
            // Identical RNG consumption: the two streams are still in lockstep.
            prop_assert_eq!(grid_rng.uniform_u64(0, u64::MAX), brute_rng.uniform_u64(0, u64::MAX));
        }
    }
}
