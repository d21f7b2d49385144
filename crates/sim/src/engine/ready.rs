//! The engine's clock within the horizon: the event ring, the wake
//! calendar and the ready set that drains it. Both the ring and the
//! calendar keep one slot per cycle of [`HORIZON`] and one [`Occupancy`]
//! mask saying which slots hold something.

use muir_core::hw;

/// Scheduling horizon in cycles: every event and every wake mark is due
/// sooner than this, in slot `t % HORIZON`. An event is a non-stamping
/// firing's fixed-latency completion, an instance's last stamp or a reply
/// one cycle on; a mark is made at most a node latency or initiation
/// interval ahead. The verifier holds both below [`hw::HORIZON_CYCLES`] at
/// seal. The occupancy mask is a `u32`, which ties the horizon to 32. The
/// run touches every slot in turn, so a ring no longer than it must be
/// keeps the slots in the first-level cache; a 256-slot ring was
/// measurably slower.
pub(super) const HORIZON: u64 = 32;
const _: () = assert!(HORIZON == u32::BITS as u64, "Occupancy::occupied");
const _: () = assert!(HORIZON == hw::HORIZON_CYCLES as u64, "hw::HORIZON_CYCLES");

/// Which slots may hold something: bit `t % HORIZON` for cycle `t`, so the
/// next such cycle is a rotate and a count, not a scan.
#[derive(Debug, Clone, Copy, Default)]
struct Occupancy {
    occupied: u32,
}

impl Occupancy {
    #[inline]
    fn set(&mut self, t: u64) {
        self.occupied |= 1 << (t % HORIZON);
    }

    #[inline]
    fn unset(&mut self, t: u64) {
        self.occupied &= !(1 << (t % HORIZON));
    }

    /// The first cycle from `c` on, within the horizon, whose slot is set.
    #[inline]
    fn first_from(self, c: u64) -> Option<u64> {
        // Bit 0 of the rotated mask is cycle `c`'s slot.
        let ahead = self.occupied.rotate_right((c % HORIZON) as u32);
        (ahead != 0).then(|| c + u64::from(ahead.trailing_zeros()))
    }
}

/// Scheduled events: one FIFO bucket per slot (O(1) push and pop, no
/// comparisons), so within a cycle events replay in push order.
#[derive(Debug)]
pub(super) struct EventRing<T> {
    buckets: Vec<Vec<T>>,
    slots: Occupancy,
}

impl<T> EventRing<T> {
    pub(super) fn new() -> EventRing<T> {
        EventRing {
            buckets: (0..HORIZON).map(|_| Vec::new()).collect(),
            slots: Occupancy::default(),
        }
    }

    /// Schedule `ev` at cycle `at`, after `now` and inside the horizon.
    #[inline]
    pub(super) fn push(&mut self, at: u64, now: u64, ev: T) {
        debug_assert!(at > now, "events are always strictly future");
        debug_assert!(at - now < HORIZON, "an event for {at} made at {now}");
        self.buckets[(at % HORIZON) as usize].push(ev);
        self.slots.set(at);
    }

    /// Take cycle `cycle`'s events, if it has any. Nothing can land in the
    /// slot until [`EventRing::put_back`] (that would need an event due a
    /// horizon ahead), so the emptied bucket goes back to keep its
    /// capacity.
    #[inline]
    pub(super) fn take(&mut self, cycle: u64) -> Option<Vec<T>> {
        let bucket = &mut self.buckets[(cycle % HORIZON) as usize];
        if bucket.is_empty() {
            return None;
        }
        self.slots.unset(cycle);
        Some(std::mem::take(bucket))
    }

    pub(super) fn put_back(&mut self, cycle: u64, bucket: Vec<T>) {
        debug_assert!(bucket.is_empty(), "a drained bucket");
        self.buckets[(cycle % HORIZON) as usize] = bucket;
    }

    /// The cycle of the earliest event from `c` on.
    pub(super) fn first_from(&self, c: u64) -> Option<u64> {
        self.slots.first_from(c)
    }
}

/// A calendar of marks over the ids `0..n`, by cycle. It serves twice:
/// each invocation's [`ReadySet`] marks scan positions for node visits,
/// and the engine marks global tile ids for phase-4 tile ticks
/// (`Engine::set_due`). A mark asks for a look at an id in a cycle;
/// whoever drains it re-checks its own gate, so a mark left behind by a
/// later change of mind costs one test and nothing else.
#[derive(Debug)]
pub(super) struct Calendar {
    /// [`HORIZON`] slots of `words` words, slot `t % HORIZON` holding
    /// cycle `t`'s marks as a bitset over the ids. Marking is an idempotent
    /// OR. The current cycle's slot is drained lowest-id-first
    /// ([`Calendar::take`]), re-reading the word after every id, so a mark
    /// set ahead of the drain point during the drain is still reached.
    cal: Vec<u64>,
    /// Words per slot.
    words: usize,
    /// Set while a slot may hold a mark.
    slots: Occupancy,
}

/// Where the drain of one cycle's slot has got to.
pub(super) struct Due {
    /// Index in `Calendar::cal` of the slot's first word.
    slot: usize,
    /// The word the next id is searched from.
    wi: usize,
}

impl Calendar {
    pub(super) fn sized(n: usize) -> Calendar {
        let words = n.div_ceil(64).max(1);
        Calendar {
            cal: vec![0; HORIZON as usize * words],
            words,
            slots: Occupancy::default(),
        }
    }

    /// Drop every mark. Only the occupied slots are zeroed: a slot whose
    /// bit is clear holds no mark, since `drained` clears the bit only
    /// after `take` has emptied the slot.
    #[inline]
    pub(super) fn clear(&mut self) {
        let mut occupied = self.slots.occupied;
        while occupied != 0 {
            let slot = occupied.trailing_zeros() as usize * self.words;
            self.cal[slot..slot + self.words].fill(0);
            occupied &= occupied - 1;
        }
        self.slots = Occupancy::default();
    }

    /// Mark `id` for cycle `t`, inside the horizon from `cycle`.
    #[inline]
    pub(super) fn mark(&mut self, id: u32, t: u64, cycle: u64) {
        debug_assert!(t - cycle < HORIZON, "a mark for {t} made at {cycle}");
        let w = (t % HORIZON) as usize * self.words + (id / 64) as usize;
        self.cal[w] |= 1u64 << (id % 64);
        self.slots.set(t);
    }

    /// Start draining cycle `cycle`'s slot.
    #[inline]
    pub(super) fn due(&self, cycle: u64) -> Due {
        let slot = (cycle % HORIZON) as usize * self.words;
        Due { slot, wi: 0 }
    }

    /// Take the lowest id still marked in the slot `d` drains; `None` once
    /// the slot is empty.
    #[inline]
    pub(super) fn take(&mut self, d: &mut Due) -> Option<usize> {
        while d.wi < self.words {
            let word = self.cal[d.slot + d.wi];
            if word != 0 {
                self.cal[d.slot + d.wi] = word & (word - 1);
                return Some(d.wi * 64 + word.trailing_zeros() as usize);
            }
            d.wi += 1;
        }
        None
    }

    /// Cycle `cycle`'s slot has been drained.
    #[inline]
    pub(super) fn drained(&mut self, cycle: u64) {
        self.slots.unset(cycle);
    }

    /// The first cycle from `c` on, within the horizon, with a mark.
    #[inline]
    pub(super) fn first_from(&self, c: u64) -> Option<u64> {
        self.slots.first_from(c)
    }
}

/// Ready-set state of one invocation for `SchedulerKind::Ready` (unused
/// under `Dense`): which nodes to visit in which cycle.
#[derive(Debug)]
pub(super) struct ReadySet {
    /// Node visits, marked by *scan position* (not node id), so draining a
    /// slot lowest-first mirrors the dense order. Same-cycle wakes always
    /// land at positions ahead of the drain point (`scan`), so the forward
    /// word walk never misses one.
    wakes: Calendar,
    /// Nodes blocked on the instance gate (`fired == admitted`), woken by
    /// the next admission. Registered at gate failure and when a firing
    /// exhausts the admitted window, so admission wakes are O(waiters)
    /// instead of a scan over every node.
    adm: Vec<u32>,
    /// Scan position this tile's pass has reached in the current cycle;
    /// -1 outside the pass. Phases 1–3 run before any tile is scanned and
    /// no firing wakes a node of another tile, so this one number decides
    /// whether a wake can still be served this cycle.
    scan: i64,
}

impl ReadySet {
    pub(super) fn sized(n: usize) -> ReadySet {
        ReadySet {
            wakes: Calendar::sized(n),
            adm: Vec::new(),
            scan: -1,
        }
    }

    /// Drop all membership (stale candidates of a retired invocation must
    /// not leak into the next one).
    pub(super) fn clear(&mut self) {
        self.wakes.clear();
        self.adm.clear();
        self.scan = -1;
    }

    /// Mark a visit of scan position `pos` for cycle `t`, or for the next
    /// cycle when `t` is `cycle` and this cycle's pass is already past
    /// `pos`; returns the cycle marked.
    #[inline]
    pub(super) fn wake(&mut self, pos: u32, t: u64, cycle: u64) -> u64 {
        let mut t = t;
        if t == cycle && i64::from(pos) <= self.scan {
            t += 1;
        }
        self.wakes.mark(pos, t, cycle);
        t
    }

    /// List `node` for the next admission.
    #[inline]
    pub(super) fn park(&mut self, node: u32) {
        self.adm.push(node);
    }

    /// The parked nodes, for an admission to wake. The emptied list comes
    /// back through [`ReadySet::unparked`].
    pub(super) fn take_parked(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.adm)
    }

    pub(super) fn unparked(&mut self, adm: Vec<u32>) {
        debug_assert!(adm.is_empty() && self.adm.is_empty(), "no park mid-wake");
        self.adm = adm;
    }

    /// Start this tile's pass over cycle `cycle`'s slot.
    #[inline]
    pub(super) fn due(&self, cycle: u64) -> Due {
        self.wakes.due(cycle)
    }

    /// The lowest scan position still due in the slot `d` drains.
    #[inline]
    pub(super) fn take(&mut self, d: &mut Due) -> Option<usize> {
        self.wakes.take(d)
    }

    /// The pass is at scan position `pos`.
    #[inline]
    pub(super) fn visiting(&mut self, pos: usize) {
        self.scan = pos as i64;
    }

    /// The pass over cycle `cycle` is over and its slot drained.
    #[inline]
    pub(super) fn passed(&mut self, cycle: u64) {
        self.wakes.drained(cycle);
        self.scan = -1;
    }

    /// The first cycle from `c` on with a visit due.
    #[inline]
    pub(super) fn first_from(&self, c: u64) -> Option<u64> {
        self.wakes.first_from(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::rng::SplitMix64;
    use std::collections::{BTreeMap, BTreeSet};

    impl Calendar {
        /// Whether no slot holds a mark.
        fn is_clear(&self) -> bool {
            self.slots.occupied == 0 && self.cal.iter().all(|&w| w == 0)
        }
    }

    impl ReadySet {
        /// Whether nothing is due, parked or under way.
        pub(in crate::engine) fn is_clear(&self) -> bool {
            self.wakes.is_clear() && self.adm.is_empty() && self.scan == -1
        }
    }

    /// The event ring's `first_from` and buckets answer what a scan of a
    /// model would: over seeded schedules that wrap the ring, the first
    /// cycle with an event from the current one on, and each cycle's
    /// events in push order.
    #[test]
    fn first_from_matches_a_scan_of_the_slots() {
        let mut ring = EventRing::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut rng = SplitMix64::new(0x0e1e);
        let (mut seen, mut wrapped) = (0, 0);
        for cycle in 100..4_100u64 {
            if let Some(bucket) = ring.take(cycle) {
                assert_eq!(Some(bucket.clone()), model.remove(&cycle), "cycle {cycle}");
                let mut bucket = bucket;
                bucket.clear();
                ring.put_back(cycle, bucket);
            }
            assert!(!model.contains_key(&cycle), "cycle {cycle}: events left");
            for _ in 0..rng.below(3) {
                if rng.below(4) == 0 {
                    let at = cycle + 1 + rng.below(HORIZON - 1);
                    let ev = rng.below(1 << 20) as u32;
                    ring.push(at, cycle, ev);
                    model.entry(at).or_default().push(ev);
                }
            }
            let want = model.range(cycle..).next().map(|(&at, _)| at);
            assert_eq!(ring.first_from(cycle), want, "cycle {cycle}");
            if let Some(at) = want {
                seen += 1;
                // The next event's slot lies below the current one's.
                wrapped += u32::from(at % HORIZON < cycle % HORIZON);
            }
        }
        assert!(seen > 100 && wrapped > 100, "{seen} {wrapped}");
    }

    /// `Calendar` against a map from cycle to the ids marked for it, over
    /// 100 ids (two bitset words) and marks up to `HORIZON - 1` ahead:
    /// each cycle's drain yields its ids lowest first, marks made ahead of
    /// the drain point during the drain included; `first_from` agrees with
    /// the map, and `clear` empties both.
    #[test]
    fn calendar_matches_a_map_of_marks() {
        const IDS: u64 = 100;
        let mut cal = Calendar::sized(IDS as usize);
        let mut model: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        let mut rng = SplitMix64::new(0xca1e);
        let (mut second_word, mut last_slot, mut mid_drain) = (0, 0, 0);
        for cycle in 1_000..6_000u64 {
            // Drain this cycle, sometimes marking ahead of the drain point.
            let mut want = model.remove(&cycle).unwrap_or_default();
            let mut d = cal.due(cycle);
            while let Some(id) = cal.take(&mut d) {
                assert_eq!(want.pop_first(), Some(id as u32), "cycle {cycle}");
                second_word += usize::from(id >= 64);
                if id as u64 + 1 < IDS && rng.below(4) == 0 {
                    let ahead = (id as u64 + 1 + rng.below(IDS - id as u64 - 1)) as u32;
                    cal.mark(ahead, cycle, cycle);
                    want.insert(ahead);
                    mid_drain += 1;
                }
            }
            assert!(want.is_empty(), "cycle {cycle}: {want:?} not drained");
            cal.drained(cycle);
            for _ in 0..rng.below(4) {
                let t = cycle + 1 + rng.below(HORIZON);
                let id = rng.below(IDS) as u32;
                cal.mark(id, t, cycle + 1);
                model.entry(t).or_default().insert(id);
                last_slot += u32::from(t - (cycle + 1) == HORIZON - 1);
            }
            let next = cycle + 1;
            let first = model.range(next..).next().map(|(&t, _)| t);
            assert_eq!(cal.first_from(next), first, "cycle {cycle}");
            for t in next..next + HORIZON {
                let marked = cal.first_from(t) == Some(t);
                assert_eq!(marked, model.contains_key(&t), "cycle {t}");
            }
            if rng.below(500) == 0 {
                cal.clear();
                model.clear();
                assert!(cal.is_clear());
            }
        }
        assert!(second_word > 100 && last_slot > 100 && mid_drain > 100);
    }
}
