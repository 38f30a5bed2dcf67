//! Discrete-event scheduler.
//!
//! [`TimerWheel`] is the production event scheduler: a hierarchical timer
//! wheel (calendar queue) keyed by [`SimTime`]. Near-future events live in
//! fixed-width per-millisecond wheels (O(1) schedule/cancel, amortized-O(1)
//! advance), far-future events in a sorted overflow list, and all the events
//! that share a timestamp drain as one FIFO batch through
//! [`TimerWheel::pop_due_batch`]. Handles are slab-recycled, so a long run
//! reuses a bounded set of slots instead of growing a live-handle space.
//!
//! [`EventQueue`] is the binary-heap reference implementation of the same
//! contract: a priority queue of `(SimTime, payload)` pairs popped in
//! non-decreasing time order, with FIFO ordering between events that share
//! the same timestamp (insertion order breaks ties). It is the **model** the
//! wheel's own property tests pin its pop order against, and a simple queue
//! for embedders that drive a handful of events directly (the car-park
//! example); the simulation world runs on the wheel alone. Scheduled events
//! can be cancelled through the [`EventHandle`] returned at insertion time,
//! which is how protocol timers (heartbeats, back-offs, garbage collection)
//! are disarmed in both implementations.
//!
//! [`IndexedMinQueue`] is the companion structure for *per-entity* deadlines:
//! each id in `0..n` holds at most one `SimTime` key, the key can be decreased
//! or increased in O(log n) by id, and the queue pops `(key, id)` pairs in
//! ascending order with the lowest id first among equal keys. The simulation
//! world uses it to schedule one wake event per node instead of scanning every
//! node on every mobility tick.
//!
//! # Examples
//!
//! ```
//! use simkit::scheduler::EventQueue;
//! use simkit::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2), "second");
//! let h = q.schedule(SimTime::from_secs(1), "first");
//! q.schedule(SimTime::from_secs(3), "third");
//! q.cancel(h);
//!
//! assert_eq!(q.pop(), Some((SimTime::from_secs(2), "second")));
//! assert_eq!(q.pop(), Some((SimTime::from_secs(3), "third")));
//! assert_eq!(q.pop(), None);
//! ```

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};

/// Opaque handle identifying a scheduled event, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

/// A single entry in the heap. Ordered so that the *earliest* time pops first,
/// and among equal times the *lowest sequence number* (earliest insertion).
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time / lowest seq is "greatest".
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A cancellable discrete-event priority queue.
///
/// The binary-heap model of the scheduler contract: a consumer repeatedly pops
/// the earliest pending event, advances the virtual clock to its timestamp
/// and dispatches it. The simulation `World` runs on [`TimerWheel`]; this is
/// what the wheel is property-tested against.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// Returns a handle that can later be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        self.live += 1;
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending and is now cancelled,
    /// `false` if it had already been cancelled.
    ///
    /// Cancellation is lazy, so — unlike [`TimerWheel::cancel`], which
    /// tracks liveness exactly — the heap cannot tell a *fired* (popped)
    /// handle from a pending one: cancelling one returns `true`, leaves a
    /// tombstone that matches nothing (reclaimed by
    /// [`EventQueue::compact`] / [`EventQueue::clear`]) and makes
    /// [`EventQueue::len`] undercount by one until then. Embedders should
    /// treat the return value and `len` as advisory once they cancel handles
    /// that may already have fired.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        if self.cancelled.insert(handle.0) {
            // We cannot cheaply know whether the seq is still in the heap; `live`
            // is corrected lazily in `pop`. Only count it if it plausibly is.
            if self.live > 0 {
                self.live -= 1;
            }
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest pending event, skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.live = self.live.saturating_sub(1);
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Drains the whole batch of events sharing the earliest pending
    /// timestamp, provided that timestamp is `<= deadline`.
    ///
    /// Appends `(handle, payload)` pairs to `out` in FIFO (insertion) order
    /// and returns the batch timestamp, or `None` (appending nothing) if the
    /// queue is empty or its earliest event is after `deadline`. The handle
    /// accompanies each payload so a consumer that drained a batch eagerly
    /// can still honor cancellations requested *while dispatching the batch*
    /// — the simulation world checks each timer event against its armed
    /// handle before acting on it.
    pub fn pop_due_batch(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(EventHandle, E)>,
    ) -> Option<SimTime> {
        let time = self.peek_time()?;
        if time > deadline {
            return None;
        }
        while let Some(entry) = self.heap.peek() {
            if entry.time != time {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry must pop");
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.live = self.live.saturating_sub(1);
            out.push((EventHandle(entry.seq), entry.payload));
        }
        Some(time)
    }

    /// Removes every cancelled entry still buried in the heap, releasing the
    /// tombstone set.
    ///
    /// Cancellation is lazy: a cancelled event stays in the heap (and its seq
    /// in the tombstone set) until its timestamp comes up. Long runs with
    /// heavy re-arming can accumulate tombstones for timers that will not
    /// expire for a while; compacting rebuilds the heap from the live entries
    /// in O(n). Cancels of already-popped handles also leave a tombstone that
    /// matches nothing — compaction clears those too, restoring an exact
    /// [`EventQueue::len`].
    ///
    /// [`EventQueue::clear`] drops tombstones wholesale; `compact` is for
    /// long-lived queues that cannot restart their handle space — an embedder
    /// driving the queue directly (like the car-park example) can call it at
    /// quiet points to bound tombstone memory.
    pub fn compact(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|entry| !self.cancelled.remove(&entry.seq))
            .collect();
        // Whatever is left in the tombstone set referenced already-popped
        // events; drop it so recycled queues carry no dead handles.
        self.cancelled.clear();
        self.live = self.heap.len();
    }

    /// The timestamp of the earliest pending (non-cancelled) event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every pending event, every cancel tombstone, and restarts the
    /// handle space from zero.
    ///
    /// Recycled queues therefore carry no dead handles across runs and the
    /// sequence space does not grow without bound over thousands of reuses.
    /// Handles
    /// issued before `clear` are invalidated and **must not** be passed to
    /// [`EventQueue::cancel`] afterwards: the sequence numbers they carry
    /// will be reissued to new events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.next_seq = 0;
        self.live = 0;
    }
}

/// Number of index bits per wheel level: each level has `1 << SLOT_BITS`
/// slots.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const WHEEL_SLOTS: usize = 1 << SLOT_BITS;
/// Bitmask extracting one level's slot index from a millisecond timestamp.
const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
/// Number of hierarchical levels. Level `l` slots are `256^l` ms wide, so the
/// wheels jointly cover `256^3` ms ≈ 4.66 simulated hours ahead of the
/// current floor; everything beyond overflows into the sorted far list.
const WHEEL_LEVELS: usize = 3;
/// The horizon of the wheels: events `>= base + WHEEL_SPAN_MS` go far.
const WHEEL_SPAN_MS: u64 = 1 << (SLOT_BITS * WHEEL_LEVELS as u32);
/// Words of the per-level occupancy bitmaps (256 slots / 64 bits).
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// Null link of the intrusive bucket lists (no slab slot has this index: the
/// slab is indexed by `u32` and would overflow before reaching it).
const NIL: u32 = u32::MAX;

/// Lifecycle of one slab slot of the [`TimerWheel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlabState {
    /// Unused; index is on the free list.
    Free,
    /// A live event currently stored in one of the wheel levels.
    LiveWheel,
    /// A live event currently stored in the far list.
    LiveFar,
    /// Cancelled; the entry is a tombstone awaiting structural removal.
    Dead,
}

/// One slab slot: the event itself plus per-handle bookkeeping (cancellation
/// state and the generation that makes recycled indices distinguishable from
/// their previous tenants).
///
/// Events live *in the slab*, not in the buckets: each wheel bucket is an
/// intrusive singly-linked list threaded through the `next` field, so placing
/// an event — whether from a fresh schedule, a cascade or a far migration —
/// is a pointer relink that never allocates. (Per-bucket `Vec`s looked
/// harmless but never stopped allocating: bucket indices are a function of
/// absolute time, so a long run keeps reaching buckets whose `Vec` has not
/// yet grown to that instant's occupancy.)
#[derive(Debug)]
struct SlabSlot<E> {
    generation: u32,
    state: SlabState,
    /// The millisecond the event was scheduled for (its *effective* due time
    /// is clamped to the wheel floor at placement, see [`TimerWheel`] docs).
    time_ms: u64,
    /// Global insertion order; breaks ties between equal timestamps.
    seq: u64,
    /// Next slab index in the same bucket list, [`NIL`] at the tail.
    /// Meaningful only while the event is in a wheel bucket.
    next: u32,
    /// `Some` while the event is pending; taken when it fires, dropped when
    /// its tombstone is reclaimed.
    payload: Option<E>,
}

/// Where [`TimerWheel::place`] put an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placed {
    Wheel,
    Far,
}

/// A hierarchical timer wheel (calendar queue) with batched same-timestamp
/// dispatch.
///
/// The wheel keeps a monotone **floor** (the latest timestamp returned by
/// [`TimerWheel::peek_time`] / the batch drains): every pending event is at or
/// after the floor. Events within ~4.66 simulated hours of the floor hash
/// into one of three fixed-width wheels — level `l` has 256 slots of
/// `256^l` ms — so scheduling and cancelling are O(1) and an event cascades
/// at most twice on its way down to the millisecond-resolution level 0.
/// Events beyond that horizon wait in a far list sorted by `(time, seq)` and
/// migrate into the wheels as the floor approaches them.
///
/// **Ordering contract:** pops yield events in non-decreasing time order with
/// FIFO order between events sharing a timestamp — exactly the order of the
/// reference [`EventQueue`] (each level-0 slot covers a single millisecond,
/// and a drain sorts the slot by global insertion sequence). The batched
/// drain, [`TimerWheel::pop_due_batch`], hands over a whole same-timestamp
/// batch in one call, which is what lets the simulation world dispatch a
/// 10k-node heartbeat wave without 10k separate heap pops.
///
/// Scheduling **at or before the floor** (something the simulation world
/// never does — it only schedules at `now + delay`, and the floor never
/// passes `now`) is clamped: the event fires at the floor, in seq order
/// among the events there. [`TimerWheel::pop`] reports the clamped time.
///
/// Handles are slab-recycled: a slot freed by a pop or a tombstone cleanup is
/// reissued under a bumped generation, so stale handles never cancel a later
/// event and a bounded working set of slots serves arbitrarily long runs.
///
/// # Examples
///
/// ```
/// use simkit::scheduler::TimerWheel;
/// use simkit::time::SimTime;
///
/// let mut wheel = TimerWheel::new();
/// wheel.schedule(SimTime::from_secs(2), "b");
/// let h = wheel.schedule(SimTime::from_secs(1), "a");
/// wheel.schedule(SimTime::from_secs(2), "c");
/// wheel.cancel(h);
///
/// let mut batch = Vec::new();
/// let at = wheel.pop_due_batch(SimTime::from_secs(60), &mut batch);
/// assert_eq!(at, Some(SimTime::from_secs(2)));
/// let payloads: Vec<_> = batch.into_iter().map(|(_, p)| p).collect();
/// assert_eq!(payloads, vec!["b", "c"]);
/// ```
#[derive(Debug)]
pub struct TimerWheel<E> {
    /// The wheel floor, in ms: no pending event is earlier.
    base: u64,
    /// `WHEEL_LEVELS * WHEEL_SLOTS` bucket list heads (slab indices, [`NIL`]
    /// when empty), level-major. Fixed-size: the events themselves live in
    /// the slab, linked through [`SlabSlot::next`].
    slots: Vec<u32>,
    /// Per-level slot-occupancy bitmaps (occupied = holds entries, live or
    /// tombstoned).
    occupied: [[u64; BITMAP_WORDS]; WHEEL_LEVELS],
    /// Slab indices of events beyond the wheel horizon, sorted ascending by
    /// `(time, seq)`. A deque so migrating the front into the wheels is O(1)
    /// per entry (a sorted `Vec` paid O(len) per front removal); inserts
    /// still binary search, which far events are rare enough to afford.
    far: VecDeque<u32>,
    /// Event slab; parallel free list below.
    slab: Vec<SlabSlot<E>>,
    free: Vec<u32>,
    /// Scratch for the seq-sort of a draining batch; kept to reuse capacity.
    batch_scratch: Vec<u32>,
    /// Global insertion counter (FIFO tie-break between equal timestamps).
    next_seq: u64,
    /// Pending (non-cancelled) events, total / in the wheels / in the far
    /// list. `live == wheel_live + far_live` always.
    live: usize,
    wheel_live: usize,
    far_live: usize,
    /// The staged earliest timestamp: its level-0 slot is fully cascaded and
    /// held at `base`. Lazily re-validated because a cancel can empty it.
    staged: Option<u64>,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with its floor at [`SimTime::ZERO`].
    pub fn new() -> Self {
        TimerWheel {
            base: 0,
            slots: vec![NIL; WHEEL_LEVELS * WHEEL_SLOTS],
            occupied: [[0; BITMAP_WORDS]; WHEEL_LEVELS],
            far: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
            batch_scratch: Vec::new(),
            next_seq: 0,
            live: 0,
            wheel_live: 0,
            far_live: 0,
            staged: None,
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `payload` to fire at absolute time `time` (clamped to the
    /// current floor, see the type docs).
    ///
    /// Returns a handle for [`TimerWheel::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slab = self.alloc_slab();
        let slot = &mut self.slab[slab as usize];
        let handle = EventHandle(pack_handle(slab, slot.generation));
        slot.time_ms = time.as_millis();
        slot.seq = seq;
        slot.payload = Some(payload);
        self.live += 1;
        match self.place(slab) {
            Placed::Wheel => self.wheel_live += 1,
            Placed::Far => self.far_live += 1,
        }
        handle
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending and is now cancelled,
    /// `false` if it had already fired or been cancelled. O(1): the entry is
    /// tombstoned in place and reclaimed when the wheel next touches it.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let (index, generation) = unpack_handle(handle);
        let Some(slot) = self.slab.get_mut(index as usize) else {
            return false;
        };
        if slot.generation != generation {
            return false;
        }
        match slot.state {
            SlabState::LiveWheel => {
                slot.state = SlabState::Dead;
                self.live -= 1;
                self.wheel_live -= 1;
                true
            }
            SlabState::LiveFar => {
                slot.state = SlabState::Dead;
                self.live -= 1;
                self.far_live -= 1;
                true
            }
            SlabState::Free | SlabState::Dead => false,
        }
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Advances the floor to that timestamp (cascading higher-level slots and
    /// migrating due far entries on the way), so a following
    /// [`TimerWheel::pop_due_batch`] or [`TimerWheel::pop`] finds the batch
    /// fully staged in level 0.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            if self.live == 0 {
                return None;
            }
            if let Some(time_ms) = self.staged {
                if self.slot_has_live((time_ms & SLOT_MASK) as usize) {
                    return Some(SimTime::from_millis(time_ms));
                }
                // A cancel emptied the staged batch; find the next one.
                self.staged = None;
            }
            if self.wheel_live == 0 {
                // Everything pending is far: jump the floor straight to the
                // far horizon instead of stepping the wheels through the gap.
                self.prune_far_front();
                debug_assert!(!self.far.is_empty(), "far_live > 0 but far list empty");
                self.base = self.base.max(self.slab[self.far[0] as usize].time_ms);
                self.migrate_far();
                continue;
            }
            self.migrate_far();
            let cursor = (self.base & SLOT_MASK) as usize;
            if let Some(index) = self.next_occupied(0, cursor) {
                let slot_time = (self.base & !SLOT_MASK) | index as u64;
                debug_assert!(slot_time >= self.base);
                if self.prune_slot(index) {
                    self.base = slot_time;
                    self.staged = Some(slot_time);
                } // else: the slot held only tombstones and is now empty.
                continue;
            }
            self.advance_boundary();
        }
    }

    /// Like [`TimerWheel::peek_time`], but **never advances the floor past
    /// `cap`**: if the earliest pending event is after `cap`, returns `None`
    /// with the floor left at or below `cap` (whereas `peek_time` would have
    /// cascaded the floor all the way to that event's timestamp).
    ///
    /// This is what lets a consumer probe the due horizon *speculatively* —
    /// e.g. a conservative-window simulator draining a run of quiet batches —
    /// and still schedule events between `cap` and the (unreached) next
    /// event afterwards without them being clamped to a prematurely raised
    /// floor. The floor invariant is unchanged: every pending event stays at
    /// or after it.
    pub fn peek_time_capped(&mut self, cap: SimTime) -> Option<SimTime> {
        let cap_ms = cap.as_millis();
        loop {
            if self.live == 0 {
                return None;
            }
            if let Some(time_ms) = self.staged {
                if self.slot_has_live((time_ms & SLOT_MASK) as usize) {
                    // A batch staged by an earlier (uncapped) peek may lie
                    // beyond the cap; leave it staged for that peek to find.
                    return (time_ms <= cap_ms).then(|| SimTime::from_millis(time_ms));
                }
                self.staged = None;
            }
            if self.base > cap_ms {
                return None;
            }
            if self.wheel_live == 0 {
                // Everything pending is far; jump only if the far horizon is
                // within the cap (the uncapped peek would jump regardless).
                self.prune_far_front();
                debug_assert!(!self.far.is_empty(), "far_live > 0 but far list empty");
                let front = self.slab[self.far[0] as usize].time_ms;
                if front > cap_ms {
                    return None;
                }
                self.base = self.base.max(front);
                self.migrate_far();
                continue;
            }
            self.migrate_far();
            let cursor = (self.base & SLOT_MASK) as usize;
            if let Some(index) = self.next_occupied(0, cursor) {
                let slot_time = (self.base & !SLOT_MASK) | index as u64;
                debug_assert!(slot_time >= self.base);
                if slot_time > cap_ms {
                    // The next occupied level-0 slot is beyond the cap. Any
                    // live entry there is too; stop without raising the floor.
                    return None;
                }
                if self.prune_slot(index) {
                    self.base = slot_time;
                    self.staged = Some(slot_time);
                }
                continue;
            }
            // This 256 ms rotation is empty. Every remaining event sits at or
            // beyond the next boundary (entries within the current rotation
            // always land in level 0), so crossing it is safe only while the
            // boundary itself is within the cap.
            if (self.base | SLOT_MASK) + 1 > cap_ms {
                return None;
            }
            self.advance_boundary();
        }
    }

    /// Drains the whole batch of events sharing the earliest pending
    /// timestamp, provided that timestamp is `<= deadline`.
    ///
    /// Appends `(handle, payload)` pairs to `out` in FIFO (seq) order and
    /// returns the batch timestamp, or `None` (appending nothing) if the
    /// wheel is empty or its earliest event is after `deadline`. As with
    /// [`EventQueue::pop_due_batch`], the handles let a consumer that drained
    /// eagerly honor cancellations issued mid-batch.
    pub fn pop_due_batch(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(EventHandle, E)>,
    ) -> Option<SimTime> {
        let time = self.peek_time()?;
        if time > deadline {
            return None;
        }
        self.drain_staged(time, out);
        Some(time)
    }

    /// Like [`TimerWheel::pop_due_batch`], but probes with
    /// [`TimerWheel::peek_time_capped`]: when nothing is due at or before
    /// `cap`, the floor is left at or below `cap` instead of being cascaded
    /// to the next pending event.
    pub fn pop_due_batch_capped(
        &mut self,
        cap: SimTime,
        out: &mut Vec<(EventHandle, E)>,
    ) -> Option<SimTime> {
        let time = self.peek_time_capped(cap)?;
        self.drain_staged(time, out);
        Some(time)
    }

    /// Drains the staged batch at `time` (the caller just peeked it).
    fn drain_staged(&mut self, time: SimTime, out: &mut Vec<(EventHandle, E)>) {
        let index = (time.as_millis() & SLOT_MASK) as usize;
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        let mut cursor = self.slots[index];
        self.slots[index] = NIL;
        while cursor != NIL {
            batch.push(cursor);
            cursor = self.slab[cursor as usize].next;
        }
        // Entries landed here through direct schedules and cascades in mixed
        // order; seq order is the heap's FIFO order for this timestamp.
        batch.sort_unstable_by_key(|&slab| self.slab[slab as usize].seq);
        for &slab in &batch {
            let slot = &mut self.slab[slab as usize];
            if slot.state == SlabState::LiveWheel {
                self.live -= 1;
                self.wheel_live -= 1;
                let handle = EventHandle(pack_handle(slab, slot.generation));
                let payload = slot.payload.take().expect("live event holds a payload");
                self.release_slab(slab);
                out.push((handle, payload));
            } else {
                debug_assert_eq!(slot.state, SlabState::Dead);
                self.release_slab(slab);
            }
        }
        self.batch_scratch = batch; // keep the allocation
        self.clear_occupied(0, index);
        self.staged = None;
    }

    /// Removes and returns the earliest pending event (the lowest-seq member
    /// of the staged batch), skipping cancelled ones.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let time = self.peek_time()?;
        let index = (time.as_millis() & SLOT_MASK) as usize;
        // Find the lowest-seq live entry, remembering its predecessor so it
        // can be unlinked.
        let mut earliest: Option<(u32, u32)> = None; // (entry, prev or NIL)
        let mut prev = NIL;
        let mut cursor = self.slots[index];
        while cursor != NIL {
            let slot = &self.slab[cursor as usize];
            if slot.state == SlabState::LiveWheel
                && earliest.is_none_or(|(best, _)| slot.seq < self.slab[best as usize].seq)
            {
                earliest = Some((cursor, prev));
            }
            prev = cursor;
            cursor = slot.next;
        }
        let (slab, prev) = earliest.expect("staged slot must hold a live entry");
        let next = self.slab[slab as usize].next;
        if prev == NIL {
            self.slots[index] = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        self.live -= 1;
        self.wheel_live -= 1;
        let payload = self.slab[slab as usize]
            .payload
            .take()
            .expect("live event holds a payload");
        self.release_slab(slab);
        if self.slots[index] == NIL {
            self.clear_occupied(0, index);
            self.staged = None;
        }
        Some((time, payload))
    }

    /// Drops every pending event and tombstone, resets the floor to
    /// [`SimTime::ZERO`] and restarts the seq space, keeping every allocation
    /// (slot buckets, slab, free list) for the next run.
    ///
    /// Occupied slab slots are released under a bumped generation, so — as
    /// with [`EventQueue::clear`] — handles issued before `clear` are
    /// invalidated and must not be cancelled afterwards.
    pub fn clear(&mut self) {
        self.slots.fill(NIL);
        self.occupied = [[0; BITMAP_WORDS]; WHEEL_LEVELS];
        self.far.clear();
        self.free.clear();
        for index in 0..self.slab.len() {
            if self.slab[index].state != SlabState::Free {
                self.slab[index].generation = self.slab[index].generation.wrapping_add(1);
                self.slab[index].state = SlabState::Free;
            }
            self.slab[index].payload = None;
            self.free.push(index as u32);
        }
        self.base = 0;
        self.next_seq = 0;
        self.live = 0;
        self.wheel_live = 0;
        self.far_live = 0;
        self.staged = None;
    }

    /// Places the event in slab slot `slab` into the wheel level covering its
    /// effective time, or into the far list. Pure placement: the live
    /// counters are the caller's business (placement is also used for
    /// cascades and migrations, which move existing entries). Never
    /// allocates on the wheel path — placing is a bucket-list relink.
    fn place(&mut self, slab: u32) -> Placed {
        let (time_ms, seq) = {
            let slot = &self.slab[slab as usize];
            (slot.time_ms, slot.seq)
        };
        let effective = time_ms.max(self.base);
        let delta = effective - self.base;
        if delta >= WHEEL_SPAN_MS {
            self.slab[slab as usize].state = SlabState::LiveFar;
            let at = self.far.partition_point(|&other| {
                let o = &self.slab[other as usize];
                (o.time_ms, o.seq) < (time_ms, seq)
            });
            self.far.insert(at, slab);
            return Placed::Far;
        }
        let level = match delta {
            d if d < 1 << SLOT_BITS => 0,
            d if d < 1 << (2 * SLOT_BITS) => 1,
            _ => 2,
        };
        let index = ((effective >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let slot = &mut self.slab[slab as usize];
        slot.state = SlabState::LiveWheel;
        slot.next = self.slots[level * WHEEL_SLOTS + index];
        self.slots[level * WHEEL_SLOTS + index] = slab;
        self.set_occupied(level, index);
        Placed::Wheel
    }

    /// Advances the floor to the next level-1 slot boundary, cascading the
    /// higher-level slots that now cover the level-0 horizon. Called only
    /// when the current level-0 rotation is exhausted.
    fn advance_boundary(&mut self) {
        let boundary = (self.base | SLOT_MASK) + 1;
        self.base = boundary;
        if (boundary >> SLOT_BITS) & SLOT_MASK == 0 {
            // Crossed a level-2 slot boundary: bring that slot down first so
            // its level-1-range entries are in place before level 1 cascades.
            let c2 = ((boundary >> (2 * SLOT_BITS)) & SLOT_MASK) as usize;
            self.cascade(2, c2);
        }
        let c1 = ((boundary >> SLOT_BITS) & SLOT_MASK) as usize;
        self.cascade(1, c1);
    }

    /// Redistributes the entries of slot `index` of `level` into the lower
    /// levels (their delta to the freshly advanced floor is below this
    /// level's slot width), reclaiming tombstones on the way.
    fn cascade(&mut self, level: usize, index: usize) {
        if self.occupied[level][index / 64] & (1 << (index % 64)) == 0 {
            return;
        }
        let mut cursor = self.slots[level * WHEEL_SLOTS + index];
        self.slots[level * WHEEL_SLOTS + index] = NIL;
        self.clear_occupied(level, index);
        while cursor != NIL {
            let next = self.slab[cursor as usize].next;
            if self.slab[cursor as usize].state == SlabState::Dead {
                self.release_slab(cursor);
            } else {
                debug_assert!(
                    self.slab[cursor as usize].time_ms.max(self.base) - self.base < WHEEL_SPAN_MS
                );
                let placed = self.place(cursor);
                debug_assert_eq!(placed, Placed::Wheel, "cascade cannot move entries far");
            }
            cursor = next;
        }
    }

    /// Moves far entries whose time has come inside the wheel horizon into
    /// the wheels, reclaiming far tombstones on the way.
    fn migrate_far(&mut self) {
        while let Some(&first) = self.far.front() {
            let slot = &self.slab[first as usize];
            if slot.state == SlabState::Dead {
                self.far.pop_front();
                self.release_slab(first);
                continue;
            }
            debug_assert!(slot.time_ms >= self.base, "far entry fell behind the floor");
            if slot.time_ms - self.base >= WHEEL_SPAN_MS {
                break;
            }
            self.far.pop_front();
            self.far_live -= 1;
            self.wheel_live += 1;
            let placed = self.place(first);
            debug_assert_eq!(placed, Placed::Wheel, "migrated entry must be near now");
        }
    }

    /// Drops cancelled entries from the head of the far list so `far[0]` is
    /// live. Only called when the wheels are empty and `far_live > 0`.
    fn prune_far_front(&mut self) {
        while let Some(&first) = self.far.front() {
            if self.slab[first as usize].state != SlabState::Dead {
                break;
            }
            self.far.pop_front();
            self.release_slab(first);
        }
    }

    /// Reclaims the tombstones of level-0 slot `index`; returns `true` if
    /// live entries remain (clearing the occupancy bit otherwise).
    fn prune_slot(&mut self, index: usize) -> bool {
        // Unlink tombstones from the head...
        let mut head = self.slots[index];
        while head != NIL && self.slab[head as usize].state == SlabState::Dead {
            let next = self.slab[head as usize].next;
            self.release_slab(head);
            head = next;
        }
        // ...then from the interior.
        let mut cursor = head;
        while cursor != NIL {
            let next = self.slab[cursor as usize].next;
            if next != NIL && self.slab[next as usize].state == SlabState::Dead {
                self.slab[cursor as usize].next = self.slab[next as usize].next;
                self.release_slab(next);
            } else {
                cursor = next;
            }
        }
        self.slots[index] = head;
        let has_live = head != NIL;
        if !has_live {
            self.clear_occupied(0, index);
        }
        has_live
    }

    /// `true` if level-0 slot `index` holds at least one live entry.
    fn slot_has_live(&self, index: usize) -> bool {
        let mut cursor = self.slots[index];
        while cursor != NIL {
            let slot = &self.slab[cursor as usize];
            if slot.state == SlabState::LiveWheel {
                return true;
            }
            cursor = slot.next;
        }
        false
    }

    /// The first occupied slot of `level` at or after `from`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let words = &self.occupied[level];
        let mut word = from / 64;
        let mut bits = words[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word == BITMAP_WORDS {
                return None;
            }
            bits = words[word];
        }
    }

    fn set_occupied(&mut self, level: usize, index: usize) {
        self.occupied[level][index / 64] |= 1 << (index % 64);
    }

    fn clear_occupied(&mut self, level: usize, index: usize) {
        self.occupied[level][index / 64] &= !(1 << (index % 64));
    }

    /// Takes a slab slot off the free list (or grows the slab). The slot's
    /// generation was bumped when it was released, so the handle minted for
    /// it cannot collide with any previously issued handle.
    fn alloc_slab(&mut self) -> u32 {
        if let Some(index) = self.free.pop() {
            index
        } else {
            let index = self.slab.len() as u32;
            self.slab.push(SlabSlot {
                generation: 0,
                state: SlabState::Free,
                time_ms: 0,
                seq: 0,
                next: NIL,
                payload: None,
            });
            index
        }
    }

    /// Returns a slab slot to the free list under a bumped generation,
    /// dropping its payload if it still holds one (tombstone reclamation).
    fn release_slab(&mut self, index: u32) {
        let slot = &mut self.slab[index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.state = SlabState::Free;
        slot.payload = None;
        self.free.push(index);
    }
}

/// Packs a slab index and its generation into one opaque handle word.
fn pack_handle(index: u32, generation: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(index)
}

/// The inverse of [`pack_handle`].
fn unpack_handle(handle: EventHandle) -> (u32, u32) {
    (handle.0 as u32, (handle.0 >> 32) as u32)
}

/// An indexed min-priority queue of `SimTime` deadlines keyed by small integer
/// ids.
///
/// Every id in `0..id_bound` holds **at most one** entry. [`IndexedMinQueue::set`]
/// inserts a new entry or re-keys an existing one (decrease *and* increase are
/// both O(log n), located through a positions table — no lazy deletion, no
/// duplicate entries). Pops yield `(key, id)` in ascending key order; among
/// equal keys the **lowest id** pops first, which is what lets the simulation
/// world process waking nodes in exactly the order the reference full scan
/// visits them.
///
/// # Examples
///
/// ```
/// use simkit::scheduler::IndexedMinQueue;
/// use simkit::time::SimTime;
///
/// let mut q = IndexedMinQueue::new();
/// q.set(3, SimTime::from_secs(9));
/// q.set(1, SimTime::from_secs(5));
/// q.set(3, SimTime::from_secs(2)); // decrease-key by id
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), 3)));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), 1)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndexedMinQueue {
    /// Ids, heap-ordered by `(key[id], id)`.
    heap: Vec<usize>,
    /// `pos[id]` is the index of `id` in `heap`, or `ABSENT`.
    pos: Vec<usize>,
    /// `key[id]` is meaningful only while `pos[id] != ABSENT`.
    key: Vec<SimTime>,
}

const ABSENT: usize = usize::MAX;

impl IndexedMinQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        IndexedMinQueue::default()
    }

    /// Number of entries in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if the queue holds no entry.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every entry, keeping all allocations.
    pub fn clear(&mut self) {
        for &id in &self.heap {
            self.pos[id] = ABSENT;
        }
        self.heap.clear();
    }

    /// `true` if `id` currently holds an entry.
    pub fn contains(&self, id: usize) -> bool {
        self.pos.get(id).is_some_and(|&p| p != ABSENT)
    }

    /// The key of `id`, if it holds an entry.
    pub fn key_of(&self, id: usize) -> Option<SimTime> {
        self.contains(id).then(|| self.key[id])
    }

    /// The smallest `(key, id)` entry without removing it.
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        self.heap.first().map(|&id| (self.key[id], id))
    }

    /// Inserts `id` with `key`, or re-keys it if already present (both
    /// decreases and increases restore the heap order).
    pub fn set(&mut self, id: usize, key: SimTime) {
        self.grow_to(id + 1);
        if self.pos[id] == ABSENT {
            self.key[id] = key;
            self.pos[id] = self.heap.len();
            self.heap.push(id);
            self.sift_up(self.heap.len() - 1);
        } else {
            let old = self.key[id];
            self.key[id] = key;
            let at = self.pos[id];
            if key < old {
                self.sift_up(at);
            } else if key > old {
                self.sift_down(at);
            }
        }
    }

    /// Removes and returns the smallest `(key, id)` entry.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let &first = self.heap.first()?;
        self.remove_at(0);
        Some((self.key[first], first))
    }

    /// Removes and returns the smallest entry **iff** its key is `<= deadline`.
    /// This is the wake-drain primitive: the world pops every node due at the
    /// current tick and nothing beyond it.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, usize)> {
        match self.peek() {
            Some((key, _)) if key <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Removes the entry of `id`, if any. Returns `true` if one was removed.
    pub fn remove(&mut self, id: usize) -> bool {
        match self.pos.get(id) {
            Some(&p) if p != ABSENT => {
                self.remove_at(p);
                true
            }
            _ => false,
        }
    }

    fn grow_to(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
            self.key.resize(n, SimTime::ZERO);
        }
    }

    /// `true` if the entry of id `a` orders before the entry of id `b`.
    fn before(&self, a: usize, b: usize) -> bool {
        (self.key[a], a) < (self.key[b], b)
    }

    fn remove_at(&mut self, at: usize) {
        let id = self.heap[at];
        let last = self.heap.len() - 1;
        self.heap.swap(at, last);
        self.heap.pop();
        self.pos[id] = ABSENT;
        if at < self.heap.len() {
            // The entry swapped into `at` may order either way relative to
            // `at`'s old neighborhood; restore both directions.
            let moved = self.heap[at];
            self.pos[moved] = at;
            self.sift_down(at);
            self.sift_up(self.pos[moved]);
        }
    }

    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.before(self.heap[at], self.heap[parent]) {
                self.heap.swap(at, parent);
                self.pos[self.heap[at]] = at;
                self.pos[self.heap[parent]] = parent;
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let left = 2 * at + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < self.heap.len() && self.before(self.heap[right], self.heap[left]) {
                smallest = right;
            }
            if self.before(self.heap[smallest], self.heap[at]) {
                self.heap.swap(at, smallest);
                self.pos[self.heap[at]] = at;
                self.pos[self.heap[smallest]] = smallest;
                at = smallest;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 5);
        q.schedule(t(1), 1);
        q.schedule(t(3), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn fifo_between_equal_timestamps() {
        let mut q = EventQueue::new();
        q.schedule(t(2), "a");
        q.schedule(t(2), "b");
        q.schedule(t(2), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "x");
        q.schedule(t(2), "y");
        assert!(q.cancel(h1));
        assert!(!q.cancel(h1), "double cancel must report false");
        assert_eq!(q.pop(), Some((t(2), "y")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_unknown_handle_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventHandle(42)));
        q.schedule(t(1), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), 1);
        q.schedule(t(4), 4);
        assert_eq!(q.peek_time(), Some(t(1)));
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(4)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "late");
        q.schedule(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        // schedule something between now and the pending "late" event
        q.schedule(t(5), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn handles_large_volumes() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            // schedule in reverse order
            q.schedule(SimTime::from_millis(10_000 - i), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
            count += 1;
        }
        assert_eq!(count, 10_000);
        let _ = SimDuration::ZERO; // silence unused import in some cfg combinations
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping always yields non-decreasing timestamps, regardless of the
        /// insertion order and of which events get cancelled.
        #[test]
        fn pop_order_is_monotone(times in proptest::collection::vec(0u64..100_000, 1..200),
                                 cancel_mask in proptest::collection::vec(any::<bool>(), 1..200)) {
            let mut q = EventQueue::new();
            let mut handles = Vec::new();
            for (i, &ms) in times.iter().enumerate() {
                handles.push(q.schedule(SimTime::from_millis(ms), i));
            }
            let mut cancelled = std::collections::HashSet::new();
            for (i, h) in handles.iter().enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    q.cancel(*h);
                    cancelled.insert(i);
                }
            }
            let mut last = SimTime::ZERO;
            let mut seen = 0usize;
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last);
                prop_assert!(!cancelled.contains(&idx), "cancelled event {idx} must not fire");
                last = t;
                seen += 1;
            }
            prop_assert_eq!(seen, times.len() - cancelled.len());
        }

        /// `len` always equals the number of events that will eventually pop.
        #[test]
        fn len_matches_poppable(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut q = EventQueue::new();
            for &ms in &times {
                q.schedule(SimTime::from_millis(ms), ms);
            }
            prop_assert_eq!(q.len(), times.len());
            let mut popped = 0;
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
            prop_assert!(q.is_empty());
        }
    }
}

#[cfg(test)]
mod batch_and_compact_tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn payloads<E: Copy>(batch: &[(EventHandle, E)]) -> Vec<E> {
        batch.iter().map(|(_, p)| *p).collect()
    }

    #[test]
    fn heap_batch_drains_one_timestamp_in_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(t(2), "b1");
        q.schedule(t(1), "a1");
        q.schedule(t(2), "b2");
        q.schedule(t(1), "a2");
        let mut batch = Vec::new();
        assert_eq!(q.pop_due_batch(t(10), &mut batch), Some(t(1)));
        assert_eq!(payloads(&batch), vec!["a1", "a2"]);
        batch.clear();
        assert_eq!(q.pop_due_batch(t(10), &mut batch), Some(t(2)));
        assert_eq!(payloads(&batch), vec!["b1", "b2"]);
        batch.clear();
        assert_eq!(q.pop_due_batch(t(10), &mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn heap_batch_respects_deadline_and_cancellation() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "dead");
        q.schedule(t(1), "live");
        q.schedule(t(5), "later");
        q.cancel(h);
        let mut batch = Vec::new();
        assert_eq!(
            q.pop_due_batch(t(0), &mut batch),
            None,
            "deadline too early"
        );
        assert_eq!(q.pop_due_batch(t(1), &mut batch), Some(t(1)));
        assert_eq!(payloads(&batch), vec!["live"]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn compact_removes_buried_tombstones() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..100u64).map(|i| q.schedule(t(100 + i), i)).collect();
        for h in handles.iter().step_by(2) {
            q.cancel(*h);
        }
        // A cancel of an already-popped handle leaves a dead tombstone too.
        q.schedule(t(1), 999);
        let early = q.pop().unwrap();
        assert_eq!(early.1, 999);
        q.compact();
        assert_eq!(q.len(), 50);
        let survivors: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(
            survivors,
            (0..100).filter(|i| i % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clear_restarts_the_handle_space() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), 1);
        q.cancel(h1);
        q.clear();
        // Fresh queue: the first new handle occupies the same seq slot as h1
        // did, and there are no leftover tombstones to swallow it.
        let h2 = q.schedule(t(2), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), 2)));
        // The heap cannot tell a fired handle from a pending one (cancel is
        // lazy); the tombstone it leaves is reclaimed by `compact`.
        q.cancel(h2);
        q.compact();
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod wheel_tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn drain<E>(wheel: &mut TimerWheel<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| wheel.pop()).collect()
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(t(5), "late");
        wheel.schedule(t(2), "tie1");
        wheel.schedule(t(2), "tie2");
        wheel.schedule(t(1), "early");
        let order: Vec<_> = drain(&mut wheel).into_iter().map(|(_, p)| p).collect();
        assert_eq!(order, vec!["early", "tie1", "tie2", "late"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn cancel_tombstones_and_handle_recycling() {
        let mut wheel = TimerWheel::new();
        let h1 = wheel.schedule(t(1), 1);
        let h2 = wheel.schedule(t(2), 2);
        assert!(wheel.cancel(h1));
        assert!(!wheel.cancel(h1), "double cancel must report false");
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop(), Some((t(2), 2)));
        assert!(!wheel.cancel(h2), "popped event cannot be cancelled");
        // h1's slab slot is recycled under a new generation: the stale handle
        // must not cancel the new tenant.
        let _h3 = wheel.schedule(t(3), 3);
        assert!(!wheel.cancel(h1));
        assert!(!wheel.cancel(h2));
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn batch_drains_same_timestamp_events_together() {
        let mut wheel = TimerWheel::new();
        for i in 0..10u32 {
            wheel.schedule(SimTime::from_millis(7_777), i);
        }
        let cancelled = wheel.schedule(SimTime::from_millis(7_777), 99);
        wheel.schedule(SimTime::from_millis(7_778), 100);
        wheel.cancel(cancelled);
        let mut batch = Vec::new();
        assert_eq!(wheel.peek_time(), Some(SimTime::from_millis(7_777)));
        assert_eq!(
            wheel.pop_due_batch(SimTime::from_millis(7_777), &mut batch),
            Some(SimTime::from_millis(7_777))
        );
        let got: Vec<_> = batch.iter().map(|(_, p)| *p).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        batch.clear();
        assert_eq!(
            wheel.pop_due_batch(SimTime::from_millis(7_777), &mut batch),
            None,
            "next batch is beyond the deadline"
        );
        assert_eq!(
            wheel.pop_due_batch(SimTime::from_millis(9_999), &mut batch),
            Some(SimTime::from_millis(7_778))
        );
    }

    #[test]
    fn events_cross_every_level_and_the_far_list() {
        let mut wheel = TimerWheel::new();
        // Level 0 (ms), level 1 (hundreds of ms), level 2 (minutes), far (days).
        let times = [
            3u64,
            200,
            70_000,
            10_000_000,
            WHEEL_SPAN_MS + 5,
            3 * WHEEL_SPAN_MS + 1,
        ];
        for (i, &ms) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_millis(ms), i);
        }
        let order: Vec<_> = drain(&mut wheel)
            .into_iter()
            .map(|(at, p)| (at.as_millis(), p))
            .collect();
        let expected: Vec<_> = times.iter().copied().zip(0..times.len()).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_across_cascades() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(SimTime::from_millis(100_000), "far-ish");
        assert_eq!(
            wheel.pop(),
            Some((SimTime::from_millis(100_000), "far-ish"))
        );
        // The floor advanced to 100 s; new events go near it.
        wheel.schedule(SimTime::from_millis(100_500), "next");
        wheel.schedule(SimTime::from_millis(100_001), "soon");
        assert_eq!(wheel.peek_time(), Some(SimTime::from_millis(100_001)));
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(100_001), "soon")));
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(100_500), "next")));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn scheduling_at_the_floor_joins_the_current_batch() {
        let mut wheel = TimerWheel::new();
        wheel.schedule(t(4), "a");
        assert_eq!(wheel.peek_time(), Some(t(4)));
        // The floor is 4 s now; a same-time schedule lands in the staged batch.
        wheel.schedule(t(4), "b");
        let mut batch = Vec::new();
        assert_eq!(wheel.pop_due_batch(t(4), &mut batch), Some(t(4)));
        let got: Vec<_> = batch.iter().map(|(_, p)| *p).collect();
        assert_eq!(got, vec!["a", "b"]);
    }

    #[test]
    fn cancelling_the_staged_batch_reveals_the_next_event() {
        let mut wheel = TimerWheel::new();
        let h = wheel.schedule(t(1), 1);
        wheel.schedule(t(9), 9);
        assert_eq!(wheel.peek_time(), Some(t(1)));
        wheel.cancel(h);
        assert_eq!(wheel.peek_time(), Some(t(9)));
        assert_eq!(wheel.pop(), Some((t(9), 9)));
    }

    #[test]
    fn far_only_wheel_jumps_instead_of_stepping() {
        let mut wheel = TimerWheel::new();
        let dead = wheel.schedule(SimTime::from_millis(10 * WHEEL_SPAN_MS), 0);
        wheel.schedule(SimTime::from_millis(10 * WHEEL_SPAN_MS + 7), 1);
        wheel.cancel(dead);
        assert_eq!(
            wheel.pop(),
            Some((SimTime::from_millis(10 * WHEEL_SPAN_MS + 7), 1))
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn clear_keeps_the_wheel_usable_and_invalidates_handles() {
        let mut wheel = TimerWheel::new();
        let h = wheel.schedule(t(1), 1);
        wheel.schedule(SimTime::from_millis(5 * WHEEL_SPAN_MS), 2);
        wheel.clear();
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
        // The floor is back at zero and old handles are dead.
        wheel.schedule(t(1), 10);
        assert!(!wheel.cancel(h));
        assert_eq!(wheel.pop(), Some((t(1), 10)));
    }

    #[test]
    fn handles_large_volumes_in_order() {
        let mut wheel = TimerWheel::new();
        for i in 0..10_000u64 {
            wheel.schedule(SimTime::from_millis(10_000 - i), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        let mut batch = Vec::new();
        while let Some(at) = wheel.pop_due_batch(SimTime::MAX, &mut batch) {
            assert!(at >= last);
            last = at;
            count += batch.len();
            batch.clear();
        }
        assert_eq!(count, 10_000);
    }

    #[test]
    fn capped_peek_does_not_raise_the_floor() {
        let ms = SimTime::from_millis;
        let mut wheel = TimerWheel::new();
        wheel.schedule(ms(10_000), "late");
        // Nothing due within the cap; crucially, the floor must stay at or
        // below the cap (an uncapped peek would cascade it to 10 000).
        assert_eq!(wheel.peek_time_capped(ms(2_000)), None);
        // A schedule between the cap and the late event must therefore fire
        // at its own time, not clamped to a prematurely raised floor.
        wheel.schedule(ms(3_000), "mid");
        assert_eq!(wheel.pop(), Some((ms(3_000), "mid")));
        assert_eq!(wheel.pop(), Some((ms(10_000), "late")));
    }

    #[test]
    fn capped_pop_drains_only_within_cap() {
        let ms = SimTime::from_millis;
        let mut wheel = TimerWheel::new();
        wheel.schedule(ms(100), 100);
        wheel.schedule(ms(150), 150);
        wheel.schedule(ms(800), 800);
        let mut batch = Vec::new();
        assert_eq!(
            wheel.pop_due_batch_capped(ms(500), &mut batch),
            Some(ms(100))
        );
        batch.clear();
        assert_eq!(
            wheel.pop_due_batch_capped(ms(500), &mut batch),
            Some(ms(150))
        );
        batch.clear();
        assert_eq!(wheel.pop_due_batch_capped(ms(500), &mut batch), None);
        assert!(batch.is_empty());
        // The floor stayed at or below 500: a late-arriving 400 ms event
        // still fires at 400 ms, before the 800 ms one.
        wheel.schedule(ms(400), 400);
        assert_eq!(wheel.pop(), Some((ms(400), 400)));
        assert_eq!(wheel.pop(), Some((ms(800), 800)));
    }

    #[test]
    fn capped_peek_crosses_rotations_only_within_cap() {
        let ms = SimTime::from_millis;
        // 10 ms and 300 ms sit in different 256 ms level-0 rotations.
        let mut wheel = TimerWheel::new();
        wheel.schedule(ms(10), 10);
        wheel.schedule(ms(300), 300);
        let mut batch = Vec::new();
        assert_eq!(
            wheel.pop_due_batch_capped(ms(280), &mut batch),
            Some(ms(10))
        );
        batch.clear();
        // The 256 boundary is within the cap, so it may be crossed, but the
        // 300 ms slot is beyond the cap and must not raise the floor.
        assert_eq!(wheel.pop_due_batch_capped(ms(280), &mut batch), None);
        wheel.schedule(ms(290), 290);
        assert_eq!(wheel.pop(), Some((ms(290), 290)));
        assert_eq!(wheel.pop(), Some((ms(300), 300)));
    }

    #[test]
    fn capped_peek_leaves_far_events_untouched() {
        let ms = SimTime::from_millis;
        let mut wheel = TimerWheel::new();
        wheel.schedule(ms(3 * WHEEL_SPAN_MS), 1);
        assert_eq!(wheel.peek_time_capped(ms(5_000)), None);
        wheel.schedule(ms(4_000), 2);
        assert_eq!(wheel.pop(), Some((ms(4_000), 2)));
        assert_eq!(wheel.pop(), Some((ms(3 * WHEEL_SPAN_MS), 1)));
    }
}

#[cfg(test)]
mod wheel_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Model record of one scheduled event.
    #[derive(Debug, Clone, Copy)]
    struct Scheduled {
        handle: EventHandle,
        /// Key in the model map (effective time, global seq).
        key: (u64, u64),
    }

    proptest! {
        /// The wheel behaves exactly like a `BTreeMap<(time, seq), payload>`
        /// under arbitrary interleavings of schedule / cancel / batched pops,
        /// including times that overflow into (and cross back out of) the
        /// far list. The model mirrors the wheel's floor-clamping contract:
        /// scheduling below the floor fires at the floor.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..(WHEEL_SPAN_MS * 2), 0usize..64),
                1..120,
            ),
        ) {
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let mut issued: Vec<Scheduled> = Vec::new();
            let mut floor = 0u64;
            let mut next_seq = 0u64;
            let mut payload = 0u64;
            let mut batch = Vec::new();
            for (op, time_ms, pick) in ops {
                match op {
                    0 | 1 => {
                        let handle = wheel.schedule(SimTime::from_millis(time_ms), payload);
                        let key = (time_ms.max(floor), next_seq);
                        model.insert(key, payload);
                        issued.push(Scheduled { handle, key });
                        next_seq += 1;
                        payload += 1;
                    }
                    2 if !issued.is_empty() => {
                        let target = issued[pick % issued.len()];
                        let expected = model.remove(&target.key).is_some();
                        prop_assert_eq!(wheel.cancel(target.handle), expected);
                    }
                    _ => {
                        // Pop attempt with a drawn deadline. The attempt
                        // advances the floor to the earliest pending time
                        // whether or not the batch is released.
                        let deadline = SimTime::from_millis(time_ms);
                        batch.clear();
                        let got = wheel.pop_due_batch(deadline, &mut batch);
                        match model.first_key_value() {
                            None => {
                                prop_assert_eq!(got, None);
                                prop_assert!(batch.is_empty());
                            }
                            Some((&(at, _), _)) => {
                                floor = floor.max(at);
                                if at > time_ms {
                                    prop_assert_eq!(got, None);
                                    prop_assert!(batch.is_empty());
                                } else {
                                    prop_assert_eq!(got, Some(SimTime::from_millis(at)));
                                    let expected: Vec<u64> = model
                                        .range((at, 0)..(at, u64::MAX))
                                        .map(|(_, &p)| p)
                                        .collect();
                                    let drained: Vec<u64> =
                                        batch.iter().map(|&(_, p)| p).collect();
                                    prop_assert_eq!(drained, expected);
                                    while model
                                        .first_key_value()
                                        .is_some_and(|(&(t, _), _)| t == at)
                                    {
                                        model.pop_first();
                                    }
                                }
                            }
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), model.len());
            }
            // Drain everything left; the tail must come out fully sorted.
            let mut drained = Vec::new();
            batch.clear();
            while let Some(at) = wheel.pop_due_batch(SimTime::MAX, &mut batch) {
                drained.extend(batch.drain(..).map(|(_, p)| (at.as_millis(), p)));
            }
            let expected: Vec<(u64, u64)> =
                model.iter().map(|(&(at, _), &p)| (at, p)).collect();
            prop_assert_eq!(drained, expected);
        }

        /// Single-event pops from the wheel match the reference heap pop for
        /// pop, including FIFO ties — the wheel and the heap implement the
        /// same contract.
        #[test]
        fn wheel_pop_matches_heap_pop(
            times in proptest::collection::vec(0u64..500_000, 1..150),
            cancel_mask in proptest::collection::vec(any::<bool>(), 1..150),
        ) {
            let mut wheel = TimerWheel::new();
            let mut heap = EventQueue::new();
            let mut wheel_handles = Vec::new();
            let mut heap_handles = Vec::new();
            for (i, &ms) in times.iter().enumerate() {
                wheel_handles.push(wheel.schedule(SimTime::from_millis(ms), i));
                heap_handles.push(heap.schedule(SimTime::from_millis(ms), i));
            }
            for (i, (&w, &h)) in wheel_handles.iter().zip(&heap_handles).enumerate() {
                if *cancel_mask.get(i).unwrap_or(&false) {
                    prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod indexed_tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_key_then_id_order() {
        let mut q = IndexedMinQueue::new();
        q.set(4, t(2));
        q.set(0, t(5));
        q.set(2, t(2));
        q.set(7, t(1));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(t(1), 7), (t(2), 2), (t(2), 4), (t(5), 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn set_rekeys_in_both_directions() {
        let mut q = IndexedMinQueue::new();
        q.set(0, t(10));
        q.set(1, t(20));
        q.set(2, t(30));
        assert_eq!(q.len(), 3);
        // Decrease 2 below everyone, increase 0 above everyone.
        q.set(2, t(1));
        q.set(0, t(99));
        assert_eq!(q.key_of(2), Some(t(1)));
        assert_eq!(q.key_of(0), Some(t(99)));
        assert_eq!(q.len(), 3, "re-keying must not duplicate entries");
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn pop_due_only_yields_entries_at_or_before_the_deadline() {
        let mut q = IndexedMinQueue::new();
        q.set(0, t(1));
        q.set(1, t(3));
        q.set(2, t(3));
        q.set(3, t(8));
        let mut due = Vec::new();
        while let Some((_, id)) = q.pop_due(t(3)) {
            due.push(id);
        }
        assert_eq!(due, vec![0, 1, 2]);
        assert_eq!(q.peek(), Some((t(8), 3)));
        assert_eq!(q.pop_due(t(7)), None);
    }

    #[test]
    fn remove_and_contains() {
        let mut q = IndexedMinQueue::new();
        q.set(0, t(1));
        q.set(1, t(2));
        q.set(2, t(3));
        assert!(q.contains(1));
        assert!(q.remove(1));
        assert!(!q.contains(1));
        assert!(!q.remove(1), "double remove must report false");
        assert!(!q.remove(99), "unknown id must report false");
        assert_eq!(q.key_of(1), None);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, vec![0, 2]);
    }

    #[test]
    fn equal_keys_pop_in_ascending_id_order() {
        let mut q = IndexedMinQueue::new();
        for id in (0..5).rev() {
            q.set(id, SimTime::ZERO);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop_due(SimTime::ZERO))
            .map(|(_, id)| id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "equal keys pop in ascending id");
    }

    #[test]
    fn clear_keeps_the_queue_usable() {
        let mut q = IndexedMinQueue::new();
        q.set(0, t(1));
        q.set(1, t(2));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.set(1, t(7));
        assert_eq!(q.pop(), Some((t(7), 1)));
    }
}

#[cfg(test)]
mod indexed_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The queue behaves exactly like a sorted map of `(key, id)` pairs
        /// under an arbitrary interleaving of set (insert, decrease, increase),
        /// remove and pop operations.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec((0usize..16, 0u64..1_000, 0u8..4), 1..200),
        ) {
            let mut q = IndexedMinQueue::new();
            let mut model: BTreeMap<usize, SimTime> = BTreeMap::new();
            for (id, ms, op) in ops {
                match op {
                    0 | 1 => {
                        let key = SimTime::from_millis(ms);
                        q.set(id, key);
                        model.insert(id, key);
                    }
                    2 => {
                        prop_assert_eq!(q.remove(id), model.remove(&id).is_some());
                    }
                    _ => {
                        let expected = model
                            .iter()
                            .map(|(&id, &key)| (key, id))
                            .min();
                        prop_assert_eq!(q.peek(), expected);
                        if let Some((key, id)) = q.pop() {
                            prop_assert_eq!(Some((key, id)), expected);
                            model.remove(&id);
                        } else {
                            prop_assert!(model.is_empty());
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                for (&id, &key) in &model {
                    prop_assert_eq!(q.key_of(id), Some(key));
                }
            }
            // Drain: the remaining pops must come out fully sorted by (key, id).
            let mut drained = Vec::new();
            while let Some(entry) = q.pop() {
                drained.push(entry);
            }
            let mut expected: Vec<(SimTime, usize)> =
                model.iter().map(|(&id, &key)| (key, id)).collect();
            expected.sort_unstable();
            prop_assert_eq!(drained, expected);
        }
    }
}
