//! Discrete-event scheduler.
//!
//! [`TimerWheel`] is the event scheduler: a hierarchical timer wheel
//! (calendar queue) keyed by [`SimTime`]. Near-future events live in
//! fixed-width per-millisecond wheels (O(1) schedule/cancel, amortized-O(1)
//! advance), far-future events in a sorted overflow list, and all the events
//! that share a timestamp drain as one FIFO batch (insertion order breaks
//! ties) through [`TimerWheel::pop_due_batch`]. Handles are slab-recycled, so
//! a long run reuses a bounded set of slots instead of growing a live-handle
//! space. Scheduled events can be cancelled through the [`EventHandle`]
//! returned at insertion time, which is how protocol timers (heartbeats,
//! back-offs, garbage collection) are disarmed.
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
//! use simkit::scheduler::TimerWheel;
//! use simkit::time::SimTime;
//!
//! let mut wheel = TimerWheel::new();
//! wheel.schedule(SimTime::from_secs(2), "second");
//! let h = wheel.schedule(SimTime::from_secs(1), "first");
//! wheel.schedule(SimTime::from_secs(3), "third");
//! wheel.cancel(h);
//!
//! let mut fired = Vec::new();
//! let mut batch = Vec::new();
//! while let Some(at) = wheel.pop_due_batch(SimTime::MAX, &mut batch) {
//!     fired.extend(batch.drain(..).map(|(_, payload)| (at, payload)));
//! }
//! assert_eq!(
//!     fired,
//!     vec![(SimTime::from_secs(2), "second"), (SimTime::from_secs(3), "third")]
//! );
//! ```

use crate::time::SimTime;
use std::collections::VecDeque;

/// Opaque handle identifying a scheduled event, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

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
/// **Ordering contract:** [`TimerWheel::pop_due_batch`] hands over one whole
/// same-timestamp batch per call, batches in increasing time order and each
/// batch in FIFO (insertion) order: each level-0 slot covers a single
/// millisecond, and a drain sorts the slot by global insertion sequence.
/// Draining a batch in one call is what lets the simulation world dispatch
/// a 10k-node heartbeat wave without 10k separate pops.
///
/// Scheduling **at or before the floor** (something the simulation world
/// never does — it only schedules at `now + delay`, and the floor never
/// passes `now`) is clamped: the event fires at the floor, in seq order
/// among the events there. [`TimerWheel::pop_due_batch`] reports the
/// clamped time.
///
/// Handles are slab-recycled: a slot freed by a drain or a tombstone cleanup is
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
    /// [`TimerWheel::pop_due_batch`] finds the batch fully staged in level 0.
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

    /// Drains the whole batch of events sharing the earliest pending
    /// timestamp, provided that timestamp is `<= deadline`.
    ///
    /// Appends `(handle, payload)` pairs to `out` in FIFO (seq) order and
    /// returns the batch timestamp, or `None` (appending nothing) if the
    /// wheel is empty or its earliest event is after `deadline`. The handle
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
        // order; seq order is the FIFO order for this timestamp.
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

    /// Drops every pending event and tombstone, resets the floor to
    /// [`SimTime::ZERO`] and restarts the seq space, keeping every allocation
    /// (slot buckets, slab, free list) for the next run.
    ///
    /// Occupied slab slots are released under a bumped generation, so handles
    /// issued before `clear` are invalidated and must not be cancelled
    /// afterwards.
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

    /// The key of `id` if it holds an entry, probed by `set_rekeys_in_both_directions`.
    #[cfg(test)]
    fn key_of(&self, id: usize) -> Option<SimTime> {
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
mod wheel_tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Drains the earliest pending batch, whatever its time.
    fn next<E>(wheel: &mut TimerWheel<E>) -> Option<(SimTime, Vec<E>)> {
        let mut batch = Vec::new();
        let at = wheel.pop_due_batch(SimTime::MAX, &mut batch)?;
        Some((at, batch.into_iter().map(|(_, p)| p).collect()))
    }

    fn drain<E>(wheel: &mut TimerWheel<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| next(wheel))
            .flat_map(|(at, batch)| batch.into_iter().map(move |p| (at, p)))
            .collect()
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
        assert_eq!(next(&mut wheel), Some((t(2), vec![2])));
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
            next(&mut wheel),
            Some((SimTime::from_millis(100_000), vec!["far-ish"]))
        );
        // The floor advanced to 100 s; new events go near it.
        wheel.schedule(SimTime::from_millis(100_500), "next");
        wheel.schedule(SimTime::from_millis(100_001), "soon");
        assert_eq!(wheel.peek_time(), Some(SimTime::from_millis(100_001)));
        assert_eq!(
            next(&mut wheel),
            Some((SimTime::from_millis(100_001), vec!["soon"]))
        );
        assert_eq!(
            next(&mut wheel),
            Some((SimTime::from_millis(100_500), vec!["next"]))
        );
        assert_eq!(next(&mut wheel), None);
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
        assert_eq!(next(&mut wheel), Some((t(9), vec![9])));
    }

    #[test]
    fn far_only_wheel_jumps_instead_of_stepping() {
        let mut wheel = TimerWheel::new();
        let dead = wheel.schedule(SimTime::from_millis(10 * WHEEL_SPAN_MS), 0);
        wheel.schedule(SimTime::from_millis(10 * WHEEL_SPAN_MS + 7), 1);
        wheel.cancel(dead);
        assert_eq!(
            next(&mut wheel),
            Some((SimTime::from_millis(10 * WHEEL_SPAN_MS + 7), vec![1]))
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
        assert_eq!(next(&mut wheel), None);
        // The floor is back at zero and old handles are dead.
        wheel.schedule(t(1), 10);
        assert!(!wheel.cancel(h));
        assert_eq!(next(&mut wheel), Some((t(1), vec![10])));
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
