//! Discrete-event scheduler.
//!
//! [`TimerWheel`] is the event scheduler: a hierarchical timer wheel
//! (calendar queue) keyed by [`SimTime`]. Near-future events live in three
//! fixed-width wheels (O(1) schedule/cancel, amortized-O(1) advance) whose
//! finest level spans 4.096 s in one-millisecond slots, so the protocols'
//! periodic timers fire without ever being cascaded; far-future events wait
//! in a sorted overflow list, and all the events that share a timestamp
//! drain as one FIFO batch (insertion order breaks ties) through
//! [`TimerWheel::pop_due_batch`]. Events live in a slab split into a hot
//! half (bucket links and states, 5 bytes per event, what every list walk
//! reads) and a cold half (payload, time, seq, generation). Handles are
//! slab-recycled, so a long run reuses a bounded set of slots instead of
//! growing a live-handle space. Scheduled events can be cancelled through the
//! [`EventHandle`] returned at insertion time, which is how protocol timers
//! (heartbeats, back-offs, garbage collection) are disarmed.
//!
//! [`IndexedMinQueue`] is the companion structure for *per-entity* deadlines:
//! each id in `0..n` holds at most one `SimTime` key, the key can be decreased
//! or increased in O(log n) by id, and [`IndexedMinQueue::pop_due`] yields
//! `(key, id)` pairs in ascending order with the lowest id first among equal
//! keys. The simulation world uses it to schedule one wake event per node
//! instead of scanning every node on every mobility tick.
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

/// Number of hierarchical levels.
const WHEEL_LEVELS: usize = 3;
/// Index bits of each level: level 0 has 4096 one-millisecond slots, a
/// 4.096 s span that holds the protocols' common timers (1 s heartbeats and
/// `FloodTick`s, the 2.5 s neighbourhood GC) until they fire, so they never
/// cascade; levels 1 and 2 have 256 slots each.
const LEVEL_BITS: [u32; WHEEL_LEVELS] = [12, 8, 8];
/// Bit offset of each level's slot index in a millisecond timestamp: a
/// level's slot is as wide as the whole level below it spans.
const LEVEL_SHIFT: [u32; WHEEL_LEVELS] = [0, LEVEL_BITS[0], LEVEL_BITS[0] + LEVEL_BITS[1]];
/// First bucket of each level in [`TimerWheel::heads`]. Level 0 comes last,
/// so a fresh wheel's first events (the near ones and a few far ones)
/// materialize only a short prefix of the heads.
const LEVEL_FIRST: [usize; WHEEL_LEVELS] = [
    (1 << LEVEL_BITS[2]) + (1 << LEVEL_BITS[1]),
    1 << LEVEL_BITS[2],
    0,
];
/// Bucket list heads of all levels together.
const HEADS: usize = LEVEL_FIRST[0] + (1 << LEVEL_BITS[0]);
/// Span of level 0: events less than this far past the floor sit in their
/// own millisecond's slot.
const L0_SPAN_MS: u64 = 1 << LEVEL_SHIFT[1];
/// Span of levels 0 and 1 together (2^20 ms ≈ 17.5 simulated minutes).
const L1_SPAN_MS: u64 = 1 << LEVEL_SHIFT[2];
/// The horizon of the wheels (2^28 ms ≈ 74.6 simulated hours): events
/// `>= base + WHEEL_SPAN_MS` go far.
const WHEEL_SPAN_MS: u64 = 1 << (LEVEL_SHIFT[2] + LEVEL_BITS[2]);
/// Bitmask extracting a level-0 slot index from a millisecond timestamp.
const L0_MASK: u64 = L0_SPAN_MS - 1;
/// Null link of the intrusive bucket lists (no slab slot has this index: the
/// slab is indexed by `u32` and would overflow before reaching it).
const NIL: u32 = u32::MAX;

/// The slot of `level` that covers millisecond `time_ms`.
fn level_index(level: usize, time_ms: u64) -> usize {
    ((time_ms >> LEVEL_SHIFT[level]) & ((1 << LEVEL_BITS[level]) - 1)) as usize
}

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

/// The cold half of one slab slot: the event itself plus the generation that
/// makes recycled indices distinguishable from their previous tenants. The
/// hot half, the bucket link and the [`SlabState`], lives in the parallel
/// arrays [`TimerWheel::next`] and [`TimerWheel::state`].
///
/// Events live *in the slab*, not in the buckets: each wheel bucket is an
/// intrusive singly-linked list threaded through `next`, so placing an event
/// — whether from a fresh schedule, a cascade or a far migration — is a
/// relink that never allocates. (Per-bucket `Vec`s looked harmless but never
/// stopped allocating: bucket indices are a function of absolute time, so a
/// long run keeps reaching buckets whose `Vec` has not yet grown to that
/// instant's occupancy.)
#[derive(Debug)]
struct SlabSlot<E> {
    generation: u32,
    /// The millisecond the event was scheduled for (its *effective* due time
    /// is clamped to the wheel floor at placement, see [`TimerWheel`] docs).
    time_ms: u64,
    /// Global insertion order; breaks ties between equal timestamps.
    seq: u64,
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

/// Words of one [`Occupancy`] bitmap: enough for level 0's 4096 slots (the
/// 256-slot levels use the first four). At most 64, one per summary bit.
const OCCUPANCY_WORDS: usize = (1 << LEVEL_BITS[0]) / 64;
const _: () = assert!(OCCUPANCY_WORDS <= 64);

/// The slot-occupancy bitmap of one wheel level (occupied = holds entries,
/// live or tombstoned), with a summary word whose bit `w` says that word `w`
/// is non-zero, so "next occupied slot" is two `trailing_zeros` even over
/// level 0's 4096 slots, and a reset touches only the words in use.
#[derive(Debug, Clone)]
struct Occupancy {
    summary: u64,
    words: [u64; OCCUPANCY_WORDS],
}

impl Occupancy {
    const EMPTY: Occupancy = Occupancy {
        summary: 0,
        words: [0; OCCUPANCY_WORDS],
    };

    fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
        self.summary |= 1 << (index / 64);
    }

    fn remove(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        *word &= !(1 << (index % 64));
        if *word == 0 {
            self.summary &= !(1 << (index / 64));
        }
    }

    /// The first occupied slot at or after `from`, if any.
    fn first_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.words[word] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let later = self.summary & (!1u64 << word);
        (later != 0).then(|| {
            let word = later.trailing_zeros() as usize;
            word * 64 + self.words[word].trailing_zeros() as usize
        })
    }

    fn clear(&mut self) {
        let mut summary = self.summary;
        while summary != 0 {
            self.words[summary.trailing_zeros() as usize] = 0;
            summary &= summary - 1;
        }
        self.summary = 0;
    }
}

/// A hierarchical timer wheel (calendar queue) with batched same-timestamp
/// dispatch.
///
/// The wheel keeps a monotone **floor** (the latest timestamp returned by
/// [`TimerWheel::peek_time`] / the batch drains): every pending event is at or
/// after the floor. Events within ~74.6 simulated hours of the floor hash
/// into one of three fixed-width wheels — level 0 has 4096 one-millisecond
/// slots, level 1 has 256 slots of 4.096 s and level 2 has 256 slots of
/// 2^20 ms — so scheduling and cancelling are O(1), an event less than
/// 4.096 s ahead never cascades and any other cascades at most twice on its
/// way down to level 0. Events beyond that horizon wait in a far list sorted
/// by `(time, seq)` and migrate into the wheels as the floor approaches them.
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
/// The slab is split in two: the bucket walks (drain, cascade, tombstone
/// pruning) read only the dense 5-byte-per-event hot arrays `next` and
/// `state`, which stay cache-resident at 100k pending events, and touch an
/// event's cold slab slot only to fire or move it.
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
    /// Bucket list heads (slab indices), placed by `LEVEL_FIRST`. A head is
    /// meaningful only while its bit in `occupied` is set, so neither `new`
    /// nor `clear` writes one: `new` reserves all `HEADS` and `place`
    /// materializes them up to the highest bucket it has used.
    heads: Vec<u32>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [Occupancy; WHEEL_LEVELS],
    /// Slab indices of events beyond the wheel horizon, sorted ascending by
    /// `(time, seq)`. A deque so migrating the front into the wheels is O(1)
    /// per entry (a sorted `Vec` paid O(len) per front removal); inserts
    /// still binary search, which far events are rare enough to afford.
    far: VecDeque<u32>,
    /// Hot slab half: the next slab index in the same bucket list, [`NIL`]
    /// at the tail. Meaningful only while the event is in a wheel bucket.
    next: Vec<u32>,
    /// Hot slab half: the lifecycle of each slab index.
    state: Vec<SlabState>,
    /// Cold slab half, parallel to `next` and `state`; free list below.
    slab: Vec<SlabSlot<E>>,
    free: Vec<u32>,
    /// Scratch for the seq-sort of a draining batch: `(seq, slab index)`
    /// pairs, kept to reuse capacity.
    batch_scratch: Vec<(u64, u32)>,
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
    /// Live entries [`TimerWheel::cascade`] has moved down a level, probed by
    /// `periodic_timers_within_level_zero_never_cascade`.
    #[cfg(test)]
    cascaded: u64,
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
            heads: Vec::with_capacity(HEADS),
            occupied: [Occupancy::EMPTY; WHEEL_LEVELS],
            far: VecDeque::new(),
            next: Vec::new(),
            state: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            batch_scratch: Vec::new(),
            next_seq: 0,
            live: 0,
            wheel_live: 0,
            far_live: 0,
            staged: None,
            #[cfg(test)]
            cascaded: 0,
        }
    }

    /// Number of pending (non-cancelled) events.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.live
    }

    /// `true` if no events are pending.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
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
        match self.slab.get(index as usize) {
            Some(slot) if slot.generation == generation => {}
            _ => return false,
        }
        let state = &mut self.state[index as usize];
        match *state {
            SlabState::LiveWheel => {
                *state = SlabState::Dead;
                self.live -= 1;
                self.wheel_live -= 1;
                true
            }
            SlabState::LiveFar => {
                *state = SlabState::Dead;
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
                if self.slot_has_live((time_ms & L0_MASK) as usize) {
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
            let cursor = (self.base & L0_MASK) as usize;
            if let Some(index) = self.occupied[0].first_from(cursor) {
                let slot_time = (self.base & !L0_MASK) | index as u64;
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

    /// Drains the staged batch at `time` (the caller just peeked it),
    /// reclaiming the tombstones `prune_slot` left behind its live head.
    fn drain_staged(&mut self, time: SimTime, out: &mut Vec<(EventHandle, E)>) {
        let index = (time.as_millis() & L0_MASK) as usize;
        debug_assert!(self.occupied[0].contains(index));
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        let mut cursor = self.heads[LEVEL_FIRST[0] + index];
        self.occupied[0].remove(index);
        while cursor != NIL {
            let next = self.next[cursor as usize];
            if self.state[cursor as usize] == SlabState::Dead {
                self.release_slab(cursor);
            } else {
                debug_assert_eq!(self.state[cursor as usize], SlabState::LiveWheel);
                batch.push((self.slab[cursor as usize].seq, cursor));
            }
            cursor = next;
        }
        // Entries landed here through direct schedules and cascades in mixed
        // order; seq order is the FIFO order for this timestamp. Seqs are
        // unique, so sorting the copied pairs is sorting by seq.
        batch.sort_unstable();
        self.live -= batch.len();
        self.wheel_live -= batch.len();
        for &(_, slab) in &batch {
            let slot = &mut self.slab[slab as usize];
            let handle = EventHandle(pack_handle(slab, slot.generation));
            let payload = slot.payload.take().expect("live event holds a payload");
            self.release_slab(slab);
            out.push((handle, payload));
        }
        self.batch_scratch = batch; // keep the allocation
        self.staged = None;
    }

    /// Drops every pending event and tombstone, resets the floor to
    /// [`SimTime::ZERO`] and restarts the seq space, keeping every allocation
    /// (bucket heads, slab, free list) for the next run. The bucket heads
    /// are not touched: clearing the occupancy bitmaps (only the words in
    /// use) retires them all.
    ///
    /// Occupied slab slots are released under a bumped generation, so handles
    /// issued before `clear` are invalidated and must not be cancelled
    /// afterwards.
    pub fn clear(&mut self) {
        for level in &mut self.occupied {
            level.clear();
        }
        self.far.clear();
        self.free.clear();
        for index in 0..self.slab.len() {
            let slot = &mut self.slab[index];
            if self.state[index] != SlabState::Free {
                slot.generation = slot.generation.wrapping_add(1);
                self.state[index] = SlabState::Free;
            }
            slot.payload = None;
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
        let time_ms = self.slab[slab as usize].time_ms;
        let effective = time_ms.max(self.base);
        let delta = effective - self.base;
        if delta >= WHEEL_SPAN_MS {
            self.state[slab as usize] = SlabState::LiveFar;
            let seq = self.slab[slab as usize].seq;
            let at = self.far.partition_point(|&other| {
                let o = &self.slab[other as usize];
                (o.time_ms, o.seq) < (time_ms, seq)
            });
            self.far.insert(at, slab);
            return Placed::Far;
        }
        let level = match delta {
            d if d < L0_SPAN_MS => 0,
            d if d < L1_SPAN_MS => 1,
            _ => 2,
        };
        let index = level_index(level, effective);
        let bucket = LEVEL_FIRST[level] + index;
        if bucket >= self.heads.len() {
            // Within the capacity `new` reserved: never reallocates.
            self.heads.resize(bucket + 1, NIL);
        }
        self.state[slab as usize] = SlabState::LiveWheel;
        self.next[slab as usize] = if self.occupied[level].contains(index) {
            self.heads[bucket]
        } else {
            NIL
        };
        self.heads[bucket] = slab;
        self.occupied[level].insert(index);
        Placed::Wheel
    }

    /// Advances the floor to the next level-1 slot boundary, cascading the
    /// higher-level slots that now cover the level-0 horizon. Called only
    /// when the current level-0 rotation is exhausted.
    fn advance_boundary(&mut self) {
        let boundary = (self.base | L0_MASK) + 1;
        self.base = boundary;
        if level_index(1, boundary) == 0 {
            // Crossed a level-2 slot boundary: bring that slot down first so
            // its level-1-range entries are in place before level 1 cascades.
            self.cascade(2, level_index(2, boundary));
        }
        self.cascade(1, level_index(1, boundary));
    }

    /// Redistributes the entries of slot `index` of `level` into the lower
    /// levels (their delta to the freshly advanced floor is below this
    /// level's slot width), reclaiming tombstones on the way.
    fn cascade(&mut self, level: usize, index: usize) {
        if !self.occupied[level].contains(index) {
            return;
        }
        let mut cursor = self.heads[LEVEL_FIRST[level] + index];
        self.occupied[level].remove(index);
        while cursor != NIL {
            let next = self.next[cursor as usize];
            if self.state[cursor as usize] == SlabState::Dead {
                self.release_slab(cursor);
            } else {
                debug_assert!(
                    self.slab[cursor as usize].time_ms.max(self.base) - self.base < WHEEL_SPAN_MS
                );
                #[cfg(test)]
                {
                    self.cascaded += 1;
                }
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
            if self.state[first as usize] == SlabState::Dead {
                self.far.pop_front();
                self.release_slab(first);
                continue;
            }
            let time_ms = self.slab[first as usize].time_ms;
            debug_assert!(time_ms >= self.base, "far entry fell behind the floor");
            if time_ms - self.base >= WHEEL_SPAN_MS {
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
            if self.state[first as usize] != SlabState::Dead {
                break;
            }
            self.far.pop_front();
            self.release_slab(first);
        }
    }

    /// Reclaims the tombstones at the head of occupied level-0 slot `index`,
    /// stopping at the first live entry (the drain reclaims any behind it);
    /// returns `true` if one was found, clearing the occupancy bit otherwise.
    fn prune_slot(&mut self, index: usize) -> bool {
        let mut head = self.heads[LEVEL_FIRST[0] + index];
        while head != NIL && self.state[head as usize] == SlabState::Dead {
            let next = self.next[head as usize];
            self.release_slab(head);
            head = next;
        }
        if head == NIL {
            self.occupied[0].remove(index);
            return false;
        }
        self.heads[LEVEL_FIRST[0] + index] = head;
        true
    }

    /// `true` if level-0 slot `index` holds at least one live entry.
    fn slot_has_live(&self, index: usize) -> bool {
        if !self.occupied[0].contains(index) {
            return false;
        }
        let mut cursor = self.heads[LEVEL_FIRST[0] + index];
        while cursor != NIL {
            if self.state[cursor as usize] == SlabState::LiveWheel {
                return true;
            }
            cursor = self.next[cursor as usize];
        }
        false
    }

    /// Takes a slab slot off the free list (or grows the slab). The slot's
    /// generation was bumped when it was released, so the handle minted for
    /// it cannot collide with any previously issued handle.
    fn alloc_slab(&mut self) -> u32 {
        match self.free.pop() {
            Some(index) => index,
            None => self.grow_slab(),
        }
    }

    /// Appends a fresh slot to both slab halves. Out of line, so that
    /// `schedule` with the recycling path of `alloc_slab` stays small enough
    /// to inline into its callers.
    #[cold]
    #[inline(never)]
    fn grow_slab(&mut self) -> u32 {
        let index = self.slab.len() as u32;
        self.slab.push(SlabSlot {
            generation: 0,
            time_ms: 0,
            seq: 0,
            payload: None,
        });
        self.next.push(NIL);
        self.state.push(SlabState::Free);
        index
    }

    /// Returns a slab slot to the free list under a bumped generation,
    /// dropping its payload if it still holds one (tombstone reclamation).
    fn release_slab(&mut self, index: u32) {
        let slot = &mut self.slab[index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.payload = None;
        self.state[index as usize] = SlabState::Free;
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
/// visits them. [`IndexedMinQueue::pop_due`] is the one way out.
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
    #[cfg(test)]
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if the queue holds no entry.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
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
    #[cfg(test)]
    fn contains(&self, id: usize) -> bool {
        self.pos.get(id).is_some_and(|&p| p != ABSENT)
    }

    /// The key of `id` if it holds an entry, probed by `set_rekeys_in_both_directions`.
    #[cfg(test)]
    fn key_of(&self, id: usize) -> Option<SimTime> {
        self.contains(id).then(|| self.key[id])
    }

    /// The smallest `(key, id)` entry without removing it.
    fn peek(&self) -> Option<(SimTime, usize)> {
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
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        let &first = self.heap.first()?;
        self.remove_at(0);
        Some((self.key[first], first))
    }

    /// Removes and returns the smallest entry **iff** its key is `<= deadline`.
    /// This is the wake-drain primitive: the world pops every node due at the
    /// current tick and nothing beyond it.
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
    /// assert_eq!(q.pop_due(SimTime::MAX), Some((SimTime::from_secs(2), 3)));
    /// assert_eq!(q.pop_due(SimTime::from_secs(4)), None);
    /// assert_eq!(q.pop_due(SimTime::from_secs(5)), Some((SimTime::from_secs(5), 1)));
    /// assert_eq!(q.pop_due(SimTime::MAX), None);
    /// ```
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, usize)> {
        match self.peek() {
            Some((key, _)) if key <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Removes the entry of `id`, if any. Returns `true` if one was removed.
    #[cfg(test)]
    fn remove(&mut self, id: usize) -> bool {
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
    use crate::time::SimDuration;

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
        // Level 0 (ms to seconds), level 1 (a minute), level 2 (hours), far
        // (weeks).
        let times = [
            3u64,
            4_000,
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

    /// Runs one periodic timer per node for 60 simulated seconds, staggered
    /// over the first second, and returns how many entries `cascade` moved.
    fn cascades_of_periodic_timers(periods_ms: &[u64]) -> u64 {
        let mut wheel = TimerWheel::new();
        for node in 0..500u64 {
            for &period in periods_ms {
                wheel.schedule(SimTime::from_millis(1 + node * 2), period);
            }
        }
        let mut batch = Vec::new();
        let mut fired = 0;
        while let Some(at) = wheel.pop_due_batch(t(60), &mut batch) {
            for (_, period) in batch.drain(..) {
                fired += 1;
                wheel.schedule(at + SimDuration::from_millis(period), period);
            }
        }
        let rounds: u64 = periods_ms.iter().map(|period| 59_000 / period).sum();
        assert!(fired >= 500 * rounds, "only {fired} timers fired");
        wheel.cascaded
    }

    /// The protocols' 1 s heartbeats and `FloodTick`s and the 2.5 s
    /// neighbourhood GC re-arm within level 0's span, so a drain never has
    /// to cascade them; a 5 s period does cascade, which shows the probe
    /// counts.
    #[test]
    fn periodic_timers_within_level_zero_never_cascade() {
        assert_eq!(cascades_of_periodic_timers(&[1_000, 2_500]), 0);
        assert!(cascades_of_periodic_timers(&[5_000]) > 0);
    }

    /// Every millisecond each of 100 timers is re-armed behind a tombstone
    /// left in the same slot: `prune_slot` stops at the live head, so only
    /// the drain can reclaim those tombstones, and the slab stays bounded.
    #[test]
    fn tombstones_inside_a_slot_are_reclaimed_at_drain() {
        let mut wheel = TimerWheel::new();
        let mut batch = Vec::new();
        for node in 0..100u64 {
            wheel.schedule(SimTime::from_millis(1 + node), node);
        }
        let mut fired = 0;
        while let Some(at) = wheel.pop_due_batch(t(30), &mut batch) {
            for (_, node) in batch.drain(..) {
                fired += 1;
                let due = at + SimDuration::from_millis(100);
                let doomed = wheel.schedule(due, node);
                wheel.schedule(due, node);
                assert!(wheel.cancel(doomed));
            }
        }
        assert_eq!(fired, 30_000);
        assert_eq!(wheel.len(), 100);
        assert!(
            wheel.slab.len() <= 202,
            "slab grew to {} slots",
            wheel.slab.len()
        );
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

    /// A wheel driven in lockstep with its reference model, a
    /// `BTreeMap<(time, seq), payload>`. The model mirrors the wheel's
    /// floor-clamping contract: scheduling below the floor fires at the
    /// floor. Every payload is its event's seq.
    struct Lockstep {
        wheel: TimerWheel<u64>,
        model: BTreeMap<(u64, u64), u64>,
        issued: Vec<Scheduled>,
        floor: u64,
        next_seq: u64,
        batch: Vec<(EventHandle, u64)>,
    }

    impl Lockstep {
        fn new() -> Self {
            Lockstep {
                wheel: TimerWheel::new(),
                model: BTreeMap::new(),
                issued: Vec::new(),
                floor: 0,
                next_seq: 0,
                batch: Vec::new(),
            }
        }

        /// Op `0 | 1` schedules at `time_ms`, op `2` cancels the `pick`-th
        /// issued handle (modulo), any other op attempts a pop with deadline
        /// `time_ms`.
        fn apply(&mut self, op: u8, time_ms: u64, pick: usize) {
            match op {
                0 | 1 => self.schedule(time_ms),
                2 => self.cancel(pick),
                _ => self.pop(time_ms),
            }
            assert_eq!(self.wheel.len(), self.model.len());
        }

        fn schedule(&mut self, time_ms: u64) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let handle = self.wheel.schedule(SimTime::from_millis(time_ms), seq);
            let key = (time_ms.max(self.floor), seq);
            self.model.insert(key, seq);
            self.issued.push(Scheduled { handle, key });
        }

        fn cancel(&mut self, pick: usize) {
            if self.issued.is_empty() {
                return;
            }
            let target = self.issued[pick % self.issued.len()];
            let expected = self.model.remove(&target.key).is_some();
            assert_eq!(self.wheel.cancel(target.handle), expected);
        }

        /// A pop attempt advances the floor to the earliest pending time
        /// whether or not the batch is released.
        fn pop(&mut self, deadline_ms: u64) {
            self.batch.clear();
            let got = self
                .wheel
                .pop_due_batch(SimTime::from_millis(deadline_ms), &mut self.batch);
            let Some((&(at, _), _)) = self.model.first_key_value() else {
                assert_eq!(got, None);
                assert!(self.batch.is_empty());
                return;
            };
            self.floor = self.floor.max(at);
            if at > deadline_ms {
                assert_eq!(got, None);
                assert!(self.batch.is_empty());
                return;
            }
            assert_eq!(got, Some(SimTime::from_millis(at)));
            let expected: Vec<u64> = self
                .model
                .range((at, 0)..(at, u64::MAX))
                .map(|(_, &p)| p)
                .collect();
            let drained: Vec<u64> = self.batch.iter().map(|&(_, p)| p).collect();
            assert_eq!(drained, expected);
            while self
                .model
                .first_key_value()
                .is_some_and(|(&(t, _), _)| t == at)
            {
                self.model.pop_first();
            }
        }

        /// Drains everything left; the tail must come out fully sorted.
        fn finish(mut self) {
            let mut drained = Vec::new();
            self.batch.clear();
            while let Some(at) = self.wheel.pop_due_batch(SimTime::MAX, &mut self.batch) {
                drained.extend(self.batch.drain(..).map(|(_, p)| (at.as_millis(), p)));
            }
            let expected: Vec<(u64, u64)> =
                self.model.iter().map(|(&(at, _), &p)| (at, p)).collect();
            assert_eq!(drained, expected);
        }
    }

    /// Offsets at which a level boundary or the far horizon falls: the
    /// bunched cases draw times within ±1 ms of these.
    const SPANS: [u64; 4] = [0, L0_SPAN_MS, L1_SPAN_MS, WHEEL_SPAN_MS];

    proptest! {
        /// The wheel behaves exactly like a `BTreeMap<(time, seq), payload>`
        /// under arbitrary interleavings of schedule / cancel / batched pops,
        /// including times that overflow into (and cross back out of) the
        /// far list. This is the wheel's one reference model.
        #[test]
        fn matches_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..(WHEEL_SPAN_MS * 2), 0usize..64),
                1..120,
            ),
        ) {
            let mut lockstep = Lockstep::new();
            for (op, time_ms, pick) in ops {
                lockstep.apply(op, time_ms, pick);
            }
            lockstep.finish();
        }

        /// The same model, with every time within ±1 ms of a level span or
        /// of the far horizon: past the current floor (`anchored == 0`), or
        /// past an absolute multiple of the span, where slot indices wrap.
        #[test]
        fn bunched_level_boundaries_match_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..SPANS.len(), 0u8..2, 1u64..4, 0u64..3, 0usize..64),
                1..160,
            ),
        ) {
            let mut lockstep = Lockstep::new();
            for (op, span, anchored, multiple, jitter, pick) in ops {
                let origin = if anchored == 0 { lockstep.floor } else { 0 };
                let time_ms = (origin + multiple * SPANS[span] + jitter).saturating_sub(1);
                lockstep.apply(op, time_ms, pick);
            }
            lockstep.finish();
        }
    }

    /// Batches sharing one millisecond, with cancels in the middle of a
    /// batch, before and after it is staged, right at each level span.
    #[test]
    fn same_millisecond_batches_with_middle_cancels_match_the_model() {
        let mut lockstep = Lockstep::new();
        for &span in &SPANS[..3] {
            let at = lockstep.floor + span.max(1);
            for _ in 0..8 {
                lockstep.schedule(at);
            }
            lockstep.schedule(at + 1);
            lockstep.schedule(at - 1);
            let first = lockstep.issued.len() - 10;
            // Middle cancels: the list's head and tail stay live.
            for offset in [2, 3, 5] {
                lockstep.apply(2, 0, first + offset);
            }
            lockstep.pop(at - 1);
            // Staged, then cancel more of the batch before it drains.
            lockstep.pop(at - 1);
            for offset in [6, 9] {
                lockstep.apply(2, 0, first + offset);
            }
            lockstep.schedule(at);
            lockstep.pop(at);
            lockstep.pop(at + 1);
        }
        lockstep.finish();
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
