//! Where an invocation keeps its values: value lists beside a lane buffer,
//! and the token arena with its lane slab (DESIGN.md §14).

use muir_mir::flat::{Form, Kind, Lanes, Word};
use muir_mir::memory::ElemKind;

/// Values outside a ring — a firing's inputs and outputs, an invocation's
/// arguments and results, a task's constants. A composite's lanes live in
/// the list's own buffer, so moving a list moves its values whole, copying
/// a value in is a `memcpy`, and `clear` drops everything at once.
#[derive(Debug, Default)]
pub(super) struct Vals {
    words: Vec<Word>,
    lanes: Vec<u64>,
}

impl Vals {
    #[inline]
    pub(super) fn words(&self) -> &[Word] {
        &self.words
    }

    #[inline]
    pub(super) fn lanes(&self) -> &[u64] {
        &self.lanes
    }

    /// The lane buffer, for a producer that writes a composite's lanes
    /// before it appends the word ([`Vals::push_word`]).
    #[inline]
    pub(super) fn lanes_mut(&mut self) -> &mut Vec<u64> {
        &mut self.lanes
    }

    pub(super) fn clear(&mut self) {
        self.words.clear();
        self.lanes.clear();
    }

    /// Append a copy of `w`, whose lanes (if it has any) live in `from`.
    #[inline]
    pub(super) fn push(&mut self, w: Word, from: &[u64]) {
        // The kind test stays in the caller's loop; the lane copy is a call.
        let w = match w.kind {
            Kind::Lanes => w.copy_into(from, &mut self.lanes),
            _ => w,
        };
        self.words.push(w);
    }

    /// Append `w`, whose lanes (if it has any) are already in this list's
    /// buffer.
    #[inline]
    pub(super) fn push_word(&mut self, w: Word) {
        self.words.push(w);
    }

    /// Append the composite whose lanes are `words`, each read as `elem`.
    pub(super) fn push_lanes(&mut self, elem: ElemKind, form: Form, words: &[u64]) {
        let off = self.lanes.len();
        self.lanes.extend_from_slice(words);
        self.words.push(Lanes { off: 0, elem, form }.at(off));
    }

    /// Drop the words from `n` on; their lanes stay until `clear`.
    #[inline]
    pub(super) fn truncate(&mut self, n: usize) {
        self.words.truncate(n);
    }

    /// Become a copy of `other`, keeping both allocations.
    pub(super) fn copy_from(&mut self, other: &Vals) {
        self.words.clone_from(&other.words);
        self.lanes.clone_from(&other.lanes);
    }
}

/// The input and output values of the firing under way. One pair serves
/// the whole run: `Engine::run_flat` owns it and lends it down to
/// `Engine::fire`, which clears it on the way in.
#[derive(Debug, Default)]
pub(super) struct Scratch {
    values: Vals,
    out: Vals,
}

impl Scratch {
    /// Both lists, emptied: the firing's inputs and its outputs.
    #[inline]
    pub(super) fn begin(&mut self) -> (&mut Vals, &mut Vals) {
        self.values.clear();
        self.out.clear();
        (&mut self.values, &mut self.out)
    }
}

/// Lane storage for the composite values one invocation holds in its
/// rings and accumulator registers. The ownership rule: a [`Word`] of kind
/// `Lanes` stored there owns its region and nobody shares it — fan-out
/// copies ([`LaneSlab::adopt`]), and whoever removes the word gives the
/// region back ([`LaneSlab::release`]) for the next value of that length,
/// so the slab grows to the tokens in flight and stops.
#[derive(Debug, Default)]
struct LaneSlab {
    words: Vec<u64>,
    /// Released regions, `(length, offsets)`. A task moves tiles of a
    /// handful of shapes, so the list is short and searched linearly.
    free: Vec<(u32, Vec<u32>)>,
}

impl LaneSlab {
    /// A copy of `w` that this slab owns, its lanes read from `from`. A
    /// scalar is itself.
    #[inline]
    fn adopt(&mut self, w: Word, from: &[u64]) -> Word {
        match w.as_lanes() {
            None => w,
            Some(l) => self.adopt_lanes(l, from),
        }
    }

    fn adopt_lanes(&mut self, l: Lanes, from: &[u64]) -> Word {
        let len = l.len();
        let reused = self.free.iter_mut().find(|(n, _)| *n as usize == len);
        let off = match reused.and_then(|(_, offs)| offs.pop()) {
            Some(off) => off as usize,
            None => {
                let off = self.words.len();
                self.words.resize(off + len, 0);
                off
            }
        };
        self.words[off..off + len].copy_from_slice(&from[l.range()]);
        l.at(off)
    }

    /// Take back the region `w` owns. A scalar owns none.
    #[inline]
    fn release(&mut self, w: Word) {
        if let Some(l) = w.as_lanes() {
            self.release_lanes(l);
        }
    }

    fn release_lanes(&mut self, l: Lanes) {
        let len = l.len() as u32;
        match self.free.iter_mut().find(|(n, _)| *n == len) {
            Some((_, offs)) => offs.push(l.off),
            None => self.free.push((len, vec![l.off])),
        }
    }

    fn clear(&mut self) {
        self.words.clear();
        for (_, offs) in &mut self.free {
            offs.clear();
        }
    }
}

/// Token storage for one invocation: one power-of-two ring per edge over
/// a shared token array (DESIGN.md §14), and the accumulator registers of
/// its `FusedAcc` units. A visit reads one [`Ring`] record and one
/// [`Token`] per edge it tests, and the visibility test is a single `u64`
/// compare against the token's delivery cycle.
///
/// A ring is *stamped* when its producer's completion cycle is known as it
/// fires (`NodeInfo::stamps`): the token carries that cycle from the push
/// on and nothing touches it again. The other rings — out of a `Load`, a
/// `Store` or a `TaskCall`, whose completions arrive out of order — take
/// their tokens at `u64::MAX` (still in the producer's pipeline) and
/// [`TokenArena::reveal`] them when the completion event comes.
///
/// Rings are sized once from the resolved capacity table
/// (`ElabTask::cap`): capacity plus slack for the in-flight push of the
/// current firing, rounded up to a power of two so wraparound is a mask.
/// Fault injection can duplicate tokens past any static bound, so
/// overfull rings relocate to a doubled slice at the end of the arena
/// (`grow`, cold by construction).
#[derive(Debug, Default)]
pub(super) struct TokenArena {
    rings: Vec<Ring>,
    toks: Vec<Token>,
    /// Accumulator registers, by node.
    acc: Vec<Option<Word>>,
    /// The lanes of the composite tokens in `toks` and registers in `acc`.
    slab: LaneSlab,
}

/// One edge's ring over `TokenArena::toks[base..=base + mask]`.
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: u32,
    mask: u32,
    head: u32,
    len: u32,
    /// Queued tokens whose delivery cycle is set (`vis != u64::MAX`), kept
    /// in lockstep so the output-space gate is an O(1) read: the delivered
    /// ones on a revealed ring, every token on a stamped one.
    visible: u32,
    /// Delivery cycles are written at the push and ascend along the ring
    /// (one producer, firing in instance order at one latency).
    stamped: bool,
}

impl Ring {
    /// Index into the token array of the `i`-th queued token.
    #[inline]
    fn slot(&self, i: u32) -> usize {
        (self.base + (self.head.wrapping_add(i) & self.mask)) as usize
    }
}

/// 32 bytes, `Copy`, no drop glue: the kind is dynamic (`and` of two
/// booleans is an integer, a loop call is typed `i64` whatever it returns),
/// so it travels with the word instead of being read off the edge.
#[derive(Debug, Clone, Copy)]
struct Token {
    inst: u64,
    /// Delivery cycle; `u64::MAX` while an unstamped token is in flight.
    vis: u64,
    /// The payload; a composite's lanes are a region of the arena's slab.
    val: Word,
}

const _: () = assert!(std::mem::size_of::<Token>() == 32);

impl Token {
    const EMPTY: Token = Token {
        inst: 0,
        vis: u64::MAX,
        val: Word::POISON,
    };
}

impl TokenArena {
    /// Ring size for a resolved edge capacity: the capacity itself plus
    /// slack for the producer's in-flight push, next power of two. Deep
    /// FIFOs cap the *initial* ring (growth stays demand-driven) so a
    /// pathological `Fifo(1 << 20)` does not reserve megabytes up front.
    fn ring_cap(cap: u32) -> u32 {
        cap.saturating_add(2).next_power_of_two().min(64)
    }

    /// One ring per edge, from its resolved capacity and whether its
    /// producer stamps, and one register per node.
    pub(super) fn with_caps(caps: &[u32], stamped: &[bool], nnodes: usize) -> TokenArena {
        let mut a = TokenArena {
            acc: vec![None; nnodes],
            ..TokenArena::default()
        };
        let total: usize = caps.iter().map(|&c| Self::ring_cap(c) as usize).sum();
        a.toks.reserve_exact(total);
        for (&c, &stamped) in caps.iter().zip(stamped) {
            let rc = Self::ring_cap(c);
            a.rings.push(Ring {
                base: a.toks.len() as u32,
                mask: rc - 1,
                head: 0,
                len: 0,
                visible: 0,
                stamped,
            });
            a.toks.extend((0..rc).map(|_| Token::EMPTY));
        }
        a
    }

    /// Reset for reuse by the next invocation: every ring and register
    /// empty, every lane region back with the slab. Ring geometry is
    /// task-constant, so no reallocation.
    pub(super) fn clear(&mut self) {
        for r in &mut self.rings {
            r.head = 0;
            r.len = 0;
            r.visible = 0;
        }
        self.acc.fill(None);
        self.slab.clear();
    }

    #[inline]
    pub(super) fn len(&self, e: usize) -> u32 {
        self.rings[e].len
    }

    /// Whether edge `e`, of capacity `cap`, holds `cap` delivered tokens at
    /// `cycle` — the output-space gate. Only delivered tokens occupy the
    /// edge register; in-flight results live in the producer's pipeline.
    /// On a stamped ring delivery cycles ascend, so the `cap`-th token's
    /// decides; such an edge fills by the clock alone and frees on a pop.
    #[inline]
    pub(super) fn full(&self, e: usize, cap: u32, cycle: u64) -> bool {
        let r = &self.rings[e];
        r.visible >= cap && (!r.stamped || cap == 0 || self.toks[r.slot(cap - 1)].vis <= cycle)
    }

    /// The front token's (instance, visibility cycle), if any.
    #[inline]
    pub(super) fn front(&self, e: usize) -> Option<(u64, u64)> {
        let r = &self.rings[e];
        if r.len == 0 {
            return None;
        }
        let t = &self.toks[r.slot(0)];
        Some((t.inst, t.vis))
    }

    /// Push a copy of `val` (lanes in `from`) to be delivered at `vis`:
    /// the stamp, or `u64::MAX` until the producer's completion event.
    #[inline]
    pub(super) fn push(&mut self, e: usize, inst: u64, vis: u64, val: Word, from: &[u64]) {
        if self.rings[e].len > self.rings[e].mask {
            self.grow(e);
        }
        let val = self.slab.adopt(val, from);
        let r = &mut self.rings[e];
        debug_assert_eq!(r.stamped, vis != u64::MAX, "edge e{e}");
        self.toks[r.slot(r.len)] = Token { inst, vis, val };
        r.len += 1;
        r.visible += u32::from(vis != u64::MAX);
    }

    /// Pop the front token, appending its value to `into` (an order token
    /// carries none worth keeping). Callers guarantee non-empty: the input
    /// gate ran first.
    #[inline]
    pub(super) fn pop(&mut self, e: usize, into: Option<&mut Vals>) {
        let r = &mut self.rings[e];
        debug_assert!(r.len > 0, "pop on empty edge e{e}");
        let t = self.toks[r.slot(0)];
        if t.vis != u64::MAX {
            r.visible -= 1;
        }
        r.head = (r.head + 1) & r.mask;
        r.len -= 1;
        if let Some(into) = into {
            into.push(t.val, &self.slab.words);
        }
        self.slab.release(t.val);
    }

    /// Reverse-scan the unstamped edge `e` marking instance `instance`'s
    /// in-flight tokens delivered at `cycle`, replacing their value with a
    /// copy of `patch` (a word and the buffer its lanes live in) when
    /// given: call replies. Tokens are pushed in instance order, so the
    /// scan stops at the first older instance.
    #[inline]
    pub(super) fn reveal(
        &mut self,
        e: usize,
        instance: u64,
        cycle: u64,
        patch: Option<(Word, &[u64])>,
    ) {
        let r = &mut self.rings[e];
        for i in (0..r.len).rev() {
            let t = &mut self.toks[r.slot(i)];
            if t.inst > instance {
                continue;
            }
            if t.inst < instance {
                break;
            }
            if t.vis == u64::MAX {
                if let Some((p, from)) = patch {
                    self.slab.release(t.val);
                    t.val = self.slab.adopt(p, from);
                }
                t.vis = cycle;
                r.visible += 1;
            }
        }
    }

    /// Relocate edge `e`'s ring to a doubled slice appended to the arena
    /// (the old slice goes dead — acceptable, because this is reachable
    /// only when fault injection overfills a ring past its slack). Tokens
    /// move as they are: their lane regions stay where they were.
    #[cold]
    fn grow(&mut self, e: usize) {
        let old = self.rings[e];
        let new_base = self.toks.len() as u32;
        for i in 0..2 * (old.mask + 1) {
            let t = if i < old.len {
                self.toks[old.slot(i)]
            } else {
                Token::EMPTY
            };
            self.toks.push(t);
        }
        self.rings[e] = Ring {
            base: new_base,
            mask: 2 * (old.mask + 1) - 1,
            head: 0,
            ..old
        };
    }

    /// Overwrite word `i` of `into` with a copy of node `node`'s register;
    /// `None` while the register is empty.
    pub(super) fn read_acc(&self, node: usize, into: &mut Vals, i: usize) -> Option<()> {
        let w = self.acc[node]?;
        into.words[i] = w.copy_into(&self.slab.words, &mut into.lanes);
        Some(())
    }

    /// Set node `node`'s register to a copy of `w` (lanes in `from`),
    /// giving back the lanes of the value it held.
    pub(super) fn write_acc(&mut self, node: usize, w: Word, from: &[u64]) {
        if let Some(old) = self.acc[node].take() {
            self.slab.release(old);
        }
        self.acc[node] = Some(self.slab.adopt(w, from));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::rng::SplitMix64;
    use std::collections::VecDeque;

    impl TokenArena {
        /// `(slab words, ring slots)`: how far this shell's storage has
        /// grown.
        pub(in crate::engine) fn storage(&self) -> (usize, usize) {
            (self.slab.words.len(), self.toks.len())
        }
    }

    /// A seeded value, scalar or composite, built in `src`: its word and
    /// what the model keeps of it (a scalar's bits, a composite's lanes).
    fn value(rng: &mut SplitMix64, src: &mut Vals) -> (Word, Vec<u64>) {
        src.clear();
        if rng.below(2) == 0 {
            let w = Word::int((rng.next_u64() >> 1) as i64);
            return (w, vec![w.bits]);
        }
        let lanes: Vec<u64> = (0..2 + rng.below(4)).map(|_| rng.next_u64()).collect();
        src.push_lanes(ElemKind::Int, Form::Vector(lanes.len() as u16), &lanes);
        (src.words()[0], lanes)
    }

    /// What the model keeps of word `i` of `vals`.
    fn seen(vals: &Vals, i: usize) -> Vec<u64> {
        let w = vals.words()[i];
        match w.as_lanes() {
            Some(l) => vals.lanes()[l.range()].to_vec(),
            None => vec![w.bits],
        }
    }

    /// `TokenArena` and its `LaneSlab` against one queue of
    /// `(instance, delivery cycle, value)` per edge, over seeded pushes,
    /// pops, reveals (patched and not), register writes and clears, on
    /// stamped and unstamped rings filled past their slack (`grow`): every
    /// value comes back as it went in, `front`, `len` and `full` agree
    /// with the queues, and the slab stays bounded by what is live.
    #[test]
    fn token_arena_matches_a_queue_per_edge() {
        let caps = [1u32, 2, 0, 3];
        let stamped = [true, false, true, false];
        let mut a = TokenArena::with_caps(&caps, &stamped, 1);
        let mut model: Vec<VecDeque<(u64, u64, Vec<u64>)>> = vec![VecDeque::new(); caps.len()];
        let mut acc: Option<Vec<u64>> = None;
        let (mut next_inst, mut last_vis) = ([0u64; 4], [0u64; 4]);
        let (mut src, mut into) = (Vals::default(), Vals::default());
        let mut rng = SplitMix64::new(0xa4e7a);
        let (mut grew, mut patched, mut unpatched, mut filled) = (0, 0, 0, 0);
        let mut cycle = 0;
        for _ in 0..20_000 {
            cycle += rng.below(2);
            let e = rng.below(caps.len() as u64) as usize;
            match rng.below(8) {
                0..=2 if model[e].len() < 13 => {
                    let (w, lanes) = value(&mut rng, &mut src);
                    let inst = next_inst[e];
                    next_inst[e] += rng.below(2);
                    let vis = if stamped[e] {
                        last_vis[e] = last_vis[e].max(cycle + 1 + rng.below(3));
                        last_vis[e]
                    } else {
                        u64::MAX
                    };
                    let mask = a.rings[e].mask;
                    a.push(e, inst, vis, w, src.lanes());
                    grew += u32::from(a.rings[e].mask != mask);
                    model[e].push_back((inst, vis, lanes));
                }
                3 | 4 if !model[e].is_empty() => {
                    let (inst, vis, lanes) = model[e].pop_front().unwrap();
                    assert_eq!(a.front(e), Some((inst, vis)));
                    into.clear();
                    if rng.below(4) == 0 {
                        a.pop(e, None);
                    } else {
                        a.pop(e, Some(&mut into));
                        assert_eq!(seen(&into, 0), lanes);
                    }
                }
                5 if !stamped[e] && !model[e].is_empty() => {
                    let i = rng.below(model[e].len() as u64) as usize;
                    let inst = model[e][i].0;
                    let patch = (rng.below(2) == 0).then(|| value(&mut rng, &mut src));
                    a.reveal(
                        e,
                        inst,
                        cycle,
                        patch.as_ref().map(|(w, _)| (*w, src.lanes())),
                    );
                    let mut hit = false;
                    for t in model[e]
                        .iter_mut()
                        .filter(|t| t.0 == inst && t.1 == u64::MAX)
                    {
                        t.1 = cycle;
                        if let Some((_, lanes)) = &patch {
                            t.2.clone_from(lanes);
                        }
                        hit = true;
                    }
                    patched += u32::from(hit && patch.is_some());
                    unpatched += u32::from(hit && patch.is_none());
                }
                6 => {
                    let (w, lanes) = value(&mut rng, &mut src);
                    a.write_acc(0, w, src.lanes());
                    acc = Some(lanes);
                }
                7 if rng.below(64) == 0 => {
                    a.clear();
                    model.iter_mut().for_each(VecDeque::clear);
                    acc = None;
                }
                _ => {}
            }
            into.clear();
            into.push_word(Word::POISON);
            match (&acc, a.read_acc(0, &mut into, 0)) {
                (Some(lanes), Some(())) => assert_eq!(&seen(&into, 0), lanes),
                (None, None) => {}
                (want, got) => panic!("register: want {want:?}, got {got:?}"),
            }
            for (e, q) in model.iter().enumerate() {
                assert_eq!(a.len(e) as usize, q.len(), "edge e{e}");
                assert_eq!(a.front(e), q.front().map(|t| (t.0, t.1)), "edge e{e}");
                let delivered = q.iter().filter(|t| t.1 <= cycle).count();
                for cap in 0..=4 {
                    let full = delivered >= cap as usize;
                    assert_eq!(a.full(e, cap, cycle), full, "edge e{e}, cap {cap}");
                    filled += u32::from(full && cap == caps[e] && cap > 0);
                }
            }
            // Lengths 2..=5, each at most 13 tokens on each of 4 edges
            // plus the register at once.
            assert!(a.storage().0 <= (2 + 3 + 4 + 5) * (13 * 4 + 1));
        }
        // Each ring doubles until 16 slots hold 13 tokens: rings of 4, 4, 2
        // and 8 slots grow 2 + 2 + 3 + 1 times.
        let reached = (grew, patched, unpatched, filled);
        assert!(
            grew == 8 && patched > 100 && unpatched > 100 && filled > 100,
            "{reached:?}"
        );
    }
}
