//! The cycle engine: executes a μIR accelerator graph under the paper's
//! execution model (§3.2):
//!
//! * the whole accelerator is a graph of concurrently running task blocks,
//!   each with a hardware issue queue and `tiles` replicated execution
//!   units;
//! * within a task, execution is a pipelined latency-insensitive dataflow:
//!   nodes handshake over bounded ready/valid edges, arbitrary buffering
//!   may be inserted, and multiple invocations/iterations are in flight;
//! * invocations complete in order (§3.2: unlike tagged dataflow);
//! * memory transits through junctions (per-cycle port limits) to banked
//!   structures; the databox slices typed accesses into element
//!   transactions and coalesces responses (§3.4).
//!
//! The engine is *functional*: nodes compute real values (via the `mir`
//! evaluators) and loads/stores access a real memory image, so every run is
//! checked against the reference interpreter. Inside, a value is flat — a
//! [`Word`]: a kind byte and 64 bits, a tile's lanes in a word buffer
//! beside it — and [`Value`] exists at the door only: root arguments in,
//! results out, and the text of an error.
//!
//! A function unit is a fixed-latency pipeline, so the cycle its result is
//! valid is known when it fires: such a firing *stamps* that cycle into
//! the tokens it pushes and into its instance's record and schedules no
//! event ([`NodeInfo::stamps`]). Only a `Load`, a `Store` and a `TaskCall`
//! complete by event, and an instance retires on one (DESIGN.md §9).
//!
//! The firing rules are written once: [`Engine::try_fire`] is the gate and
//! [`Engine::fire`] the body, both reading the sealed [`CompiledTask`]'s
//! micro-op stream and pools directly. [`crate::reference`] re-derives
//! those tables from the graph and compares them with the sealed ones; it
//! is a test oracle, not a second way to run.

use crate::error::{
    BufferSuggestion, ChannelState, DeadlockReport, FaultKind, StuckTile, WaitEdge,
};
use crate::fault::{Ecc, FaultClass, Injector};
use crate::memory::{DramModel, MemRequest, MemResponse, StructModel};
use crate::trace::{Observer, SimProfile, StallReason, Trace};
use crate::{SchedulerKind, SimConfig, SimError, SimStats};
use muir_core::accel::{AccelGraph, ArgExpr, ResultInit, TaskKind};
use muir_core::compiled::{
    CompiledAccel, CompiledTask, MicroOp, UopKind, SLOT_ARG, SLOT_CONST, SLOT_FEEDBACK,
    SLOT_PAYLOAD, SLOT_TAG, UOP_PREDICATED, UOP_SPAWN,
};
use muir_core::hw;
use muir_core::node::{FusedInput, NodeKind, OpKind};
use muir_core::structure::StructureKind;
use muir_mir::flat::{self, Form, Kind, Lanes, Word};
use muir_mir::instr::{BinOp, CastOp, MemObjId};
use muir_mir::interp::{InterpError, Memory};
use muir_mir::memory::ElemKind;
use muir_mir::types::Type;
use muir_mir::value::Value;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// Fault classes injected at the engine's ready/valid edges (the rest are
/// owned by the memory models).
const ENGINE_FAULTS: [FaultClass; 4] = [
    FaultClass::TokenBitFlip,
    FaultClass::TokenDrop,
    FaultClass::TokenDup,
    FaultClass::StuckHandshake,
];

/// Values outside a ring — a firing's inputs and outputs, an invocation's
/// arguments and results, a task's constants. A composite's lanes live in
/// the list's own buffer, so moving a list moves its values whole, copying
/// a value in is a `memcpy`, and `clear` drops everything at once.
#[derive(Debug, Default)]
struct Vals {
    words: Vec<Word>,
    lanes: Vec<u64>,
}

impl Vals {
    fn clear(&mut self) {
        self.words.clear();
        self.lanes.clear();
    }

    /// Append a copy of `w`, whose lanes (if it has any) live in `from`.
    #[inline]
    fn push(&mut self, w: Word, from: &[u64]) {
        // The kind test stays in the caller's loop; the lane copy is a call.
        let w = match w.kind {
            Kind::Lanes => w.copy_into(from, &mut self.lanes),
            _ => w,
        };
        self.words.push(w);
    }

    /// Append the composite whose lanes are `words`, each read as `elem`.
    fn push_lanes(&mut self, elem: ElemKind, form: Form, words: &[u64]) {
        let off = self.lanes.len();
        self.lanes.extend_from_slice(words);
        self.words.push(Lanes { off: 0, elem, form }.at(off));
    }

    /// Become a copy of `other`, keeping both allocations.
    fn copy_from(&mut self, other: &Vals) {
        self.words.clone_from(&other.words);
        self.lanes.clone_from(&other.lanes);
    }
}

/// The input and output values of the firing under way. One pair serves
/// the whole run: [`Engine::run`] owns it and lends it down to
/// [`Engine::fire`], which clears it on the way in.
#[derive(Debug, Default)]
struct Scratch {
    values: Vals,
    out: Vals,
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
/// a shared token array (DESIGN.md §14). A visit reads one [`Ring`] record
/// and one [`Token`] per edge it tests, and the visibility test is a
/// single `u64` compare against the token's delivery cycle.
///
/// A ring is *stamped* when its producer's completion cycle is known as it
/// fires ([`NodeInfo::stamps`]): the token carries that cycle from the push
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
struct TokenArena {
    rings: Vec<Ring>,
    toks: Vec<Token>,
    /// The lanes of the composite tokens in `toks`.
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
    /// producer stamps.
    fn with_caps(caps: &[u32], stamped: &[bool]) -> TokenArena {
        let mut a = TokenArena::default();
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

    /// Reset for reuse by the next invocation: every ring empty, every
    /// lane region back with the slab. Ring geometry is task-constant, so
    /// no reallocation.
    fn clear(&mut self) {
        for r in &mut self.rings {
            r.head = 0;
            r.len = 0;
            r.visible = 0;
        }
        self.slab.clear();
    }

    #[inline]
    fn len(&self, e: usize) -> u32 {
        self.rings[e].len
    }

    /// Whether edge `e`, of capacity `cap`, holds `cap` delivered tokens at
    /// `cycle` — the output-space gate. Only delivered tokens occupy the
    /// edge register; in-flight results live in the producer's pipeline.
    /// On a stamped ring delivery cycles ascend, so the `cap`-th token's
    /// decides; such an edge fills by the clock alone and frees on a pop.
    #[inline]
    fn full(&self, e: usize, cap: u32, cycle: u64) -> bool {
        let r = &self.rings[e];
        r.visible >= cap && (!r.stamped || cap == 0 || self.toks[r.slot(cap - 1)].vis <= cycle)
    }

    /// The front token's (instance, visibility cycle), if any.
    #[inline]
    fn front(&self, e: usize) -> Option<(u64, u64)> {
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
    fn push(&mut self, e: usize, inst: u64, vis: u64, val: Word, from: &[u64]) {
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
    fn pop(&mut self, e: usize, into: Option<&mut Vals>) {
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
    fn reveal(&mut self, e: usize, instance: u64, cycle: u64, patch: Option<(Word, &[u64])>) {
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
}

/// Which firing a completion belongs to. One record serves completion
/// events, in-flight memory requests and blocking-call replies alike.
#[derive(Debug, Clone, Copy)]
struct Site {
    task: u32,
    tile: u32,
    node: u32,
    uid: u64,
    instance: u64,
}

/// A queued task invocation.
#[derive(Debug)]
struct Invocation {
    uid: u64,
    args: Box<Vals>,
    reply: Option<Site>,
    spawn_parent: Option<(usize, u64)>,
}

/// Everything a visit reads or writes about one node of one invocation,
/// in one record (one cache line per visit instead of six vectors).
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Instances fired so far (= the next instance to fire).
    fired: u64,
    /// Earliest cycle of the next firing (initiation interval).
    ready_at: u64,
    /// In-flight (issued, not yet completed) firings of a node whose
    /// completions are events — the databox entries of §3.4 for memory
    /// nodes, outstanding calls for a `TaskCall`. A stamping node's stay 0.
    pending: u32,
    /// The node sits in [`ReadySet::adm`], which lists it at most once.
    parked: bool,
}

const _: () = assert!(std::mem::size_of::<NodeState>() == 24);

/// The per-run constants of one node: timing and databox bound depend on
/// the `SimConfig`, scan position on the sealed graph.
#[derive(Debug, Clone, Copy)]
struct NodeInfo {
    latency: u32,
    ii: u32,
    /// Bound on in-flight firings (`cfg.databox_entries` for memory
    /// transit nodes; effectively unbounded for pipelined function units).
    max_pending: u32,
    /// Position in the consumers-first scan order.
    pos: u32,
    /// A fixed-latency unit whose in-flight firings nothing bounds: the
    /// cycle its result is valid is known as it fires, so the firing
    /// writes that cycle into the tokens it pushes and into its instance's
    /// record and schedules no completion event. Not so a `Load`, `Store`
    /// or `TaskCall` — the memory system or the callee decides, replies
    /// overtake squashed firings, and `max_pending` binds.
    stamps: bool,
}

/// Wake-calendar horizon in cycles: a mark due sooner than this is a bit
/// in the cycle's slot, anything later waits in [`Calendar::far`]. Node
/// latencies and initiation intervals are ≤ 17 at the default period, so
/// only a fused chain at a very short clock period reaches past it.
const CAL_HORIZON: u64 = 32;
const _: () = assert!(CAL_HORIZON == u32::BITS as u64, "Calendar::occupied");

/// A calendar of marks over the ids `0..n`, by cycle. It serves twice:
/// each invocation's [`ReadySet`] marks scan positions for node visits,
/// and the engine marks global tile ids for phase-4 tile ticks
/// ([`Engine::set_due`]). A mark asks for a look at an id in a cycle;
/// whoever drains it re-checks its own gate, so a mark left behind by a
/// later change of mind costs one test and nothing else.
#[derive(Debug)]
struct Calendar {
    /// [`CAL_HORIZON`] slots of `words` words, slot `t % CAL_HORIZON`
    /// holding cycle `t`'s marks as a bitset over the ids. Marking is an
    /// idempotent OR. The current cycle's slot is drained lowest-id-first
    /// ([`Calendar::take`]), re-reading the word after every id, so a mark
    /// set ahead of the drain point during the drain is still reached.
    cal: Vec<u64>,
    /// Words per slot.
    words: usize,
    /// Bit `t % CAL_HORIZON` is set while cycle `t`'s slot may hold a mark,
    /// so the next cycle with one is a rotate and a count, not a scan.
    occupied: u32,
    /// Marks due [`CAL_HORIZON`] or more cycles after they were made:
    /// (cycle, id).
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Calendar {
    fn sized(n: usize) -> Calendar {
        let words = n.div_ceil(64).max(1);
        Calendar {
            cal: vec![0; CAL_HORIZON as usize * words],
            words,
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }

    /// Drop every mark. Only the slots `occupied` names are zeroed: a
    /// slot whose bit is clear holds no mark, since `drained` clears the
    /// bit only after `take` has emptied the slot.
    fn clear(&mut self) {
        let mut occupied = self.occupied;
        while occupied != 0 {
            let slot = occupied.trailing_zeros() as usize * self.words;
            self.cal[slot..slot + self.words].fill(0);
            occupied &= occupied - 1;
        }
        self.occupied = 0;
        self.far.clear();
    }

    /// Index in `cal` of the first word of cycle `t`'s slot.
    #[inline]
    fn slot(&self, t: u64) -> usize {
        (t % CAL_HORIZON) as usize * self.words
    }

    /// Mark `id` for cycle `t >= cycle`.
    #[inline]
    fn mark(&mut self, id: u32, t: u64, cycle: u64) {
        if t - cycle < CAL_HORIZON {
            let w = self.slot(t) + (id / 64) as usize;
            self.cal[w] |= 1u64 << (id % 64);
            self.occupied |= 1 << (t % CAL_HORIZON);
        } else {
            self.mark_far(id, t);
        }
    }

    /// The rare mark a horizon or more ahead, kept out of `mark`'s inline
    /// body.
    #[cold]
    #[inline(never)]
    fn mark_far(&mut self, id: u32, t: u64) {
        self.far.push(Reverse((t, id)));
    }

    /// Start draining cycle `cycle`: the marks that waited in `far` for it
    /// join its slot.
    #[inline]
    fn promote(&mut self, cycle: u64) {
        if self.far.peek().is_some_and(|&Reverse((t, _))| t <= cycle) {
            self.promote_far(cycle);
        }
    }

    #[cold]
    #[inline(never)]
    fn promote_far(&mut self, cycle: u64) {
        while let Some(&Reverse((t, id))) = self.far.peek() {
            if t > cycle {
                break;
            }
            self.far.pop();
            self.mark(id, cycle, cycle);
        }
    }

    /// Take the lowest id still marked in the slot at `slot`, searching
    /// from word `*wi` on; `None` once the slot is empty.
    #[inline]
    fn take(&mut self, slot: usize, wi: &mut usize) -> Option<usize> {
        while *wi < self.words {
            let word = self.cal[slot + *wi];
            if word != 0 {
                self.cal[slot + *wi] = word & (word - 1);
                return Some(*wi * 64 + word.trailing_zeros() as usize);
            }
            *wi += 1;
        }
        None
    }

    /// Cycle `cycle`'s slot has been drained.
    #[inline]
    fn drained(&mut self, cycle: u64) {
        self.occupied &= !(1 << (cycle % CAL_HORIZON));
    }

    /// Whether a mark for cycle `cycle` waits, in its slot or in `far`.
    #[inline]
    fn marked(&self, cycle: u64) -> bool {
        self.occupied & (1 << (cycle % CAL_HORIZON)) != 0
            || self.far.peek().is_some_and(|&Reverse((t, _))| t <= cycle)
    }

    /// The first cycle after `cycle`, whose slot is drained, with a mark.
    fn next_marked(&self, cycle: u64) -> u64 {
        let far = self.far.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        // Bit 0 of the rotated set is cycle + 1's slot.
        let ahead = self
            .occupied
            .rotate_right(((cycle + 1) % CAL_HORIZON) as u32);
        if ahead == 0 {
            far
        } else {
            far.min(cycle + 1 + u64::from(ahead.trailing_zeros()))
        }
    }
}

/// Ready-set state of one invocation for [`SchedulerKind::Ready`]
/// (unused under `Dense`): which nodes to visit in which cycle.
#[derive(Debug)]
struct ReadySet {
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
    fn sized(n: usize) -> ReadySet {
        ReadySet {
            wakes: Calendar::sized(n),
            adm: Vec::new(),
            scan: -1,
        }
    }

    /// Drop all membership (stale candidates of a retired invocation must
    /// not leak into the next one; the `parked` flags reset with the nodes).
    fn clear(&mut self) {
        self.wakes.clear();
        self.adm.clear();
        self.scan = -1;
    }
}

/// One admitted, unretired instance of an invocation.
#[derive(Debug, Clone, Copy)]
struct Instance {
    /// Dynamic nodes whose firing for this instance has not been counted
    /// yet: a stamping node's is counted as it fires, an event node's when
    /// its completion arrives.
    remaining: u32,
    /// The latest completion cycle counted so far. The instance is done
    /// at this cycle once `remaining` is 0.
    done_at: u64,
}

/// Per-invocation runtime state on one execution tile.
#[derive(Debug)]
struct ActiveInv {
    uid: u64,
    args: Box<Vals>,
    reply: Option<Site>,
    spawn_parent: Option<(usize, u64)>,
    trip: u64,
    lo: i64,
    step: i64,
    serial: bool,
    admitted: u64,
    completed: u64,
    /// Activation cycle (`Ready` accounts tile-busy cycles at retirement).
    since: u64,
    nodes: Vec<NodeState>,
    /// Token rings, one per edge.
    arena: TokenArena,
    /// The in-flight instances, front = instance `completed`. Instances
    /// are admitted and retired strictly in order, so a ring indexed by
    /// `instance - completed` needs no hashing.
    outstanding: VecDeque<Instance>,
    spawns_outstanding: u32,
    last_output: Vals,
    /// Internal accumulator registers of `FusedAcc` units; a composite's
    /// lanes are a region of the arena's slab.
    acc_state: Vec<Option<Word>>,
    ready: ReadySet,
}

/// Outcome of [`ActiveInv::input_gate`].
enum InputGate {
    Pass,
    /// This edge has no visible front token (`InputEmpty`).
    Empty(usize),
    /// In-order delivery is the latency-insensitive contract; a visible
    /// front token of the wrong instance means a token was dropped or
    /// duplicated upstream (a detected hardware fault).
    Misordered {
        edge: usize,
        want: u64,
        found: u64,
        feedback: bool,
    },
}

impl ActiveInv {
    fn new(nnodes: usize, caps: &[u32], stamped: &[bool]) -> ActiveInv {
        ActiveInv {
            uid: 0,
            args: Box::default(),
            reply: None,
            spawn_parent: None,
            trip: 0,
            lo: 0,
            step: 1,
            serial: false,
            admitted: 0,
            completed: 0,
            since: 0,
            nodes: vec![NodeState::default(); nnodes],
            arena: TokenArena::with_caps(caps, stamped),
            outstanding: VecDeque::new(),
            spawns_outstanding: 0,
            last_output: Vals::default(),
            acc_state: vec![None; nnodes],
            ready: ReadySet::sized(nnodes),
        }
    }

    /// Back to the just-built state, keeping every allocation: the vectors
    /// have task-constant shapes, so reactivating a pooled shell is a
    /// clear, not a malloc.
    fn reset(&mut self) {
        self.admitted = 0;
        self.completed = 0;
        self.nodes.fill(NodeState::default());
        self.arena.clear();
        self.outstanding.clear();
        self.spawns_outstanding = 0;
        self.last_output.clear();
        self.acc_state.fill(None);
        self.ready.clear();
    }

    /// Whether a new instance could be admitted this cycle (the dense
    /// scheduler checks this every cycle; the ready scheduler must tick
    /// the tile in every cycle in which it would succeed).
    fn can_admit(&self, window: u64) -> bool {
        self.admitted < self.trip
            && if self.serial {
                self.completed == self.admitted
            } else {
                self.admitted - self.completed < window
            }
    }

    fn is_complete(&self) -> bool {
        self.admitted == self.trip
            && self.completed == self.trip
            && self.outstanding.is_empty()
            && self.spawns_outstanding == 0
    }

    /// Count one completion of instance `k`, at cycle `at`, and return the
    /// instance's record. `None` for an instance that is not in flight,
    /// which no caller should name.
    fn complete_one(&mut self, k: u64, at: u64) -> Option<Instance> {
        let d = usize::try_from(k.checked_sub(self.completed)?).ok()?;
        let inst = self.outstanding.get_mut(d)?;
        inst.remaining = inst.remaining.saturating_sub(1);
        inst.done_at = inst.done_at.max(at);
        Some(*inst)
    }

    /// In-order instance retirement: the front instances that are done by
    /// `cycle`.
    fn retire_done(&mut self, cycle: u64) {
        while let Some(front) = self.outstanding.front() {
            if front.remaining != 0 || front.done_at > cycle {
                break;
            }
            self.outstanding.pop_front();
            self.completed += 1;
        }
    }

    /// Ready-scheduler wake: ask for a visit of `node` in cycle `at` — now,
    /// or the cycle a token just pushed is stamped for — and return the
    /// cycle the tile must be ticked in for it. A wake is a *hint* —
    /// `try_fire` re-checks every gate — so a spurious wake costs a visit,
    /// never correctness; a *missed* wake is the only bug class.
    ///
    /// The visit is put off to the node's `ready_at` (II) when that is
    /// later, and to next cycle when the current scan is already past the
    /// node, which keeps dense-order semantics. `ready_at` is read now; if
    /// the node fires before the visit comes due, the drain puts the visit
    /// off again (`ready_pass`), so no node is visited before its
    /// `ready_at`.
    fn wake(&mut self, info: &[NodeInfo], node: usize, at: u64, cycle: u64) -> u64 {
        let pos = info[node].pos;
        let mut t = at.max(self.nodes[node].ready_at);
        if t == cycle && i64::from(pos) <= self.ready.scan {
            t += 1;
        }
        self.ready.wakes.mark(pos, t, cycle);
        t
    }

    /// The input gate of `uop` for instance `k`: every token input must
    /// carry a visible token of the right instance. Edges are tested in
    /// a fixed order — data slots in port order, then the dynamic
    /// order-in edges — and the first one that fails decides.
    fn input_gate(&self, ct: &CompiledTask, uop: &MicroOp, k: u64, cycle: u64) -> InputGate {
        let token = |edge: usize, want: u64, feedback: bool| match self.arena.front(edge) {
            Some((found, vis)) if vis <= cycle => {
                (found != want).then_some(InputGate::Misordered {
                    edge,
                    want,
                    found,
                    feedback,
                })
            }
            _ => Some(InputGate::Empty(edge)),
        };
        for &s in &ct.in_slots[uop.slot0 as usize..][..uop.nin as usize] {
            let edge = (s & SLOT_PAYLOAD) as usize;
            let failed = match s & SLOT_TAG {
                SLOT_ARG | SLOT_CONST => None,
                // Feedback: required from instance 1 on, carrying the
                // previous instance's token.
                SLOT_FEEDBACK if k == 0 => None,
                SLOT_FEEDBACK => token(edge, k - 1, true),
                _ => token(edge, k, false),
            };
            if let Some(failed) = failed {
                return failed;
            }
        }
        for &e in &ct.edge_refs[uop.ebase as usize..][..uop.nord as usize] {
            if let Some(failed) = token(e as usize, k, false) {
                return failed;
            }
        }
        InputGate::Pass
    }

    /// Park `node` until the next admission opens its instance.
    fn park_adm(&mut self, node: usize) {
        let ns = &mut self.nodes[node];
        if !ns.parked {
            ns.parked = true;
            self.ready.adm.push(node as u32);
        }
    }

    /// After this tile's pass at `cycle` (its slot is drained): the next
    /// cycle in which ticking the tile is not a dense no-op.
    fn due_after_pass(&self, cycle: u64, window: u64) -> u64 {
        if self.can_admit(window) {
            cycle + 1
        } else {
            self.ready.wakes.next_marked(cycle)
        }
    }
}

/// The out edges of `uop`'s node.
fn out_edges<'a>(ct: &CompiledTask<'a>, uop: &MicroOp) -> &'a [u32] {
    &ct.edge_refs[(uop.ebase + u32::from(uop.nord)) as usize..][..uop.nout as usize]
}

/// Per-run view of one task: the sealed graph-derived tables from the
/// [`CompiledTask`] (shared, never rebuilt) plus the few
/// configuration-dependent vectors that genuinely vary per `SimConfig`.
/// `Deref` exposes the compiled tables (`order`, `uops`, `in_slots`,
/// `queue_cap`, …) directly.
#[derive(Debug)]
struct ElabTask<'a> {
    /// The sealed per-task tables: scan order and the micro-op stream
    /// firings execute from.
    ct: CompiledTask<'a>,
    info: Vec<NodeInfo>,
    /// Per edge resolved token capacity: explicit FIFO depth, or
    /// `cfg.elastic_depth` for handshake connections (they act as elastic
    /// pipelines).
    ///
    /// `Fifo(0)` is honored as a genuinely capacity-less channel — the
    /// hardware a μopt pass would emit if it removed a pipeline register it
    /// shouldn't have. Such an edge can never carry a token; the producer
    /// blocks forever and the deadlock diagnosis names the edge and the
    /// buffer bump that fixes it.
    cap: Vec<u32>,
    /// Per edge: its producer stamps, so its ring is a stamped one.
    stamped: Vec<bool>,
    /// The sealed constant pool, decoded once per run.
    consts: Vals,
}

impl<'a> std::ops::Deref for ElabTask<'a> {
    type Target = CompiledTask<'a>;

    fn deref(&self) -> &CompiledTask<'a> {
        &self.ct
    }
}

#[derive(Debug)]
struct TaskState {
    queue: VecDeque<Invocation>,
    /// Boxed so a tile pass can lift its invocation out of the engine (and
    /// put it back) by moving one pointer.
    tiles: Vec<Option<Box<ActiveInv>>>,
    busy_cycles: u64,
    /// Indices of free tiles, min-first so dispatch picks the same tile the
    /// dense `position(|t| t.is_none())` scan would (tile choice is
    /// observable through traces and error sites).
    free_tiles: BinaryHeap<Reverse<usize>>,
    /// Retired `ActiveInv` shells recycled across invocations (boxed like
    /// the tiles they move in and out of).
    #[allow(clippy::vec_box)]
    pool: Vec<Box<ActiveInv>>,
    /// Ready-scheduler wake list: `TaskCall` sites (task, tile, node)
    /// blocked on this task's full issue queue, woken when dispatch pops.
    queue_waiters: Vec<(u32, u32, u32)>,
}

#[derive(Debug)]
enum Ev {
    /// A firing of a node that does not stamp completed after its fixed
    /// latency: a squashed `Load` or `Store`, a spawn, a squashed call.
    NodeDone(Site),
    /// Every node of an instance has fired and the last of their stamps
    /// falls in this cycle: the invocation `uid` on (task, tile) may retire
    /// instances. At most one per instance.
    InstanceDone { task: u32, tile: u32, uid: u64 },
    /// Boxed: one pointer beside the site keeps the common `NodeDone`
    /// event small, and the box is recycled through `Engine::spare`.
    Reply { to: Site, results: Box<Vals> },
}

/// Calendar-queue horizon: events due within this many cycles of *now* go
/// into a per-cycle FIFO ring bucket (O(1) push/pop, no comparisons); the
/// rare event further out falls back to the `(cycle, seq)` min-heap. An
/// event is a non-stamping firing's fixed-latency completion, an
/// instance's last stamp or a reply one cycle on — at most 17 cycles out at
/// the default period — so in practice every event is "near". Must exceed
/// the largest single-hop event latency for the ring to pay off. The
/// ring's occupancy mask ([`Engine::ev_occupied`]) is a `u32`, which ties
/// the horizon to 32. The run touches every bucket in turn, so a ring no
/// longer than it must be keeps the buckets in the first-level cache; a
/// 256-bucket ring was measurably slower.
const EV_HORIZON: u64 = 32;
const _: () = assert!(EV_HORIZON == u32::BITS as u64, "Engine::ev_occupied");

/// A scheduled event in the *far* min-heap, ordered by (cycle, insertion
/// seq). Replay order across both queues is identical to a pure-heap
/// design: a far event is by definition pushed at least [`EV_HORIZON`]
/// cycles before it is due, while a near event with the same due cycle is
/// pushed strictly later — so draining due far events before the ring
/// bucket reproduces global (cycle, push-order) order exactly.
#[derive(Debug)]
struct EvAt {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for EvAt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for EvAt {}
impl PartialOrd for EvAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EvAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulator.
pub(crate) struct Engine<'a> {
    /// The sealed graph, read through the handle once.
    acc: &'a AccelGraph,
    cfg: &'a SimConfig,
    mem: &'a mut Memory,
    elab: Vec<ElabTask<'a>>,
    tasks: Vec<TaskState>,
    structs: Vec<StructModel>,
    dram: DramModel,
    dram_idx: Option<usize>,
    /// Near events: ring of per-cycle FIFO buckets indexed by `at % EV_HORIZON`.
    ev_near: Vec<Vec<Ev>>,
    /// Bit `at % EV_HORIZON` is set while that `ev_near` bucket holds an
    /// event, so the next due bucket is a rotate and a count.
    ev_occupied: u32,
    /// Far events (due ≥ [`EV_HORIZON`] cycles out): (cycle, seq) min-heap.
    ev_far: BinaryHeap<Reverse<EvAt>>,
    ev_seq: u64,
    /// In-flight memory requests. Ids are handed out densely, so the slot
    /// of request `id` is `id - req_base`; answered requests at the front
    /// are popped, which keeps the ring as long as the oldest one pending.
    reqs: VecDeque<Option<Site>>,
    req_base: u64,
    /// Reused response buffer for `StructModel::tick`.
    mem_resp: Vec<MemResponse>,
    next_uid: u64,
    cycle: u64,
    last_progress: u64,
    root_result: Option<Box<Vals>>,
    fires: u64,
    sched_visits: u64,
    task_invocations: Vec<u64>,
    /// Dense per-(task, tile, junction) arbitration budgets, epoch-stamped
    /// by cycle so no per-cycle clear (or hashing) is needed:
    /// (epoch, reads, writes) at `junction_base[ti] + tk*njunctions + j`.
    junction_slab: Vec<(u64, u32, u32)>,
    junction_base: Vec<usize>,
    /// Global tile ids in dense (task, tile) order: tile `tk` of task `ti`
    /// is `tile_base[ti] + tk`, and `tile_ids` maps back.
    tile_base: Vec<usize>,
    tile_ids: Vec<(u32, u32)>,
    /// The tile-work invariant (`Ready` only, DESIGN.md §9): ticking tile
    /// `g` in any cycle before `tile_due[g]` is a dense no-op — no
    /// admission, no candidate, no due sleeper. `u64::MAX` for a free tile
    /// and for an occupied one that only an event can give work. Every
    /// wake and every admission-relevant retirement lowers it; the tile's
    /// own pass recomputes it. All writes go through [`Engine::set_due`].
    tile_due: Vec<u64>,
    /// Phase 4's work list (`Ready` only): tile `g` is marked for every
    /// cycle `tile_due[g]` was set to. A mark whose entry has moved on
    /// since is stale and ticks nothing.
    tile_cal: Calendar,
    /// Tasks whose issue queue holds an invocation, one bit per task: set
    /// by every push, cleared by the dispatch that empties the queue.
    queued: Vec<u64>,
    /// Tiles with a global id below this have had their phase-4 slot in
    /// the current cycle (0 during phases 1–3).
    scan_g: usize,
    /// Set by every queue push and every tile retirement: the only two
    /// things that can make a dispatch possible. `Ready` runs phase 3 and
    /// refuses to skip cycles only while it is set.
    dispatch_hint: bool,
    /// True when the event-driven scheduler drives phase 4. Tracing forces
    /// the dense visitation (stall attribution *is* a per-cycle scan), so
    /// this is `Ready` and not tracing.
    use_ready: bool,
    /// Emptied argument and result lists, handed back out to the next
    /// `TaskCall` firing or invocation result.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Vals>>,
    faults: Injector,
    faults_on: bool,
    /// Nodes whose output handshake was stuck by fault injection:
    /// (task, tile, node). A stuck node never fires again.
    stuck: HashSet<(usize, usize, usize)>,
    /// Observability recorder (`None` unless tracing is enabled). The
    /// observer only *reads* engine facts — it never feeds back into
    /// simulation state, so enabling it cannot change cycle counts.
    obs: Option<Box<Observer>>,
}

impl<'a> Engine<'a> {
    /// Bind a sealed artifact to a runnable model. The graph-derived
    /// tables come straight from the [`CompiledAccel`] (built exactly
    /// once per graph); only the configuration-dependent vectors —
    /// node timing and databox bounds — are computed here, so a batch
    /// of N runs pays one compile instead of N elaborations.
    pub(crate) fn new(
        comp: &'a CompiledAccel,
        mem: &'a mut Memory,
        cfg: &'a SimConfig,
    ) -> Engine<'a> {
        let acc: &AccelGraph = comp.accel();
        let elab: Vec<ElabTask<'a>> = comp
            .tasks()
            .iter()
            .enumerate()
            .map(|(ti, ct)| {
                let info: Vec<NodeInfo> = acc.tasks[ti]
                    .dataflow
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(n, nd)| {
                        let timing = hw::node_timing(&nd.kind, nd.ty, cfg.period_ns);
                        let max_pending = match nd.kind {
                            NodeKind::Load { .. } | NodeKind::Store { .. } => {
                                Some(cfg.databox_entries)
                            }
                            NodeKind::TaskCall { .. } => Some(16),
                            _ => None,
                        };
                        NodeInfo {
                            latency: timing.latency,
                            ii: timing.ii,
                            max_pending: max_pending.unwrap_or(u32::MAX),
                            pos: ct.pos[n],
                            stamps: max_pending.is_none(),
                        }
                    })
                    .collect();
                let stamped = ct
                    .edge_meta
                    .iter()
                    .map(|m| info[m.src as usize].stamps)
                    .collect();
                let cap: Vec<u32> = ct
                    .edge_meta
                    .iter()
                    .map(|m| {
                        if m.fifo == u32::MAX {
                            cfg.elastic_depth
                        } else {
                            m.fifo
                        }
                    })
                    .collect();
                let mut consts = Vals::default();
                for c in ct.consts {
                    let w = Word::from_value(c, &mut consts.lanes);
                    consts
                        .words
                        .push(w.expect("a sealed constant has a flat form"));
                }
                ElabTask {
                    ct,
                    info,
                    cap,
                    stamped,
                    consts,
                }
            })
            .collect();
        let tasks: Vec<TaskState> = acc
            .tasks
            .iter()
            .map(|t| {
                let ntiles = t.tiles.max(1) as usize;
                TaskState {
                    queue: VecDeque::new(),
                    tiles: (0..ntiles).map(|_| None).collect(),
                    busy_cycles: 0,
                    free_tiles: (0..ntiles).map(Reverse).collect(),
                    pool: Vec::new(),
                    queue_waiters: Vec::new(),
                }
            })
            .collect();
        let mut structs: Vec<StructModel> = acc.structures.iter().map(StructModel::new).collect();
        for (si, st) in structs.iter_mut().enumerate() {
            st.arm_faults(&cfg.faults, si as u64);
        }
        let dram_idx = acc
            .structures
            .iter()
            .position(|s| matches!(s.kind, StructureKind::Dram { .. }));
        let mut dram = DramModel::new(dram_idx.map(|i| &acc.structures[i].kind));
        dram.arm_faults(&cfg.faults);
        let faults = Injector::new(&cfg.faults, 0x0e5e_0001, &ENGINE_FAULTS);
        let faults_on = faults.active();
        let obs = cfg
            .trace
            .enabled
            .then(|| Box::new(Observer::new(comp.accel(), cfg)));
        let ntasks = acc.tasks.len();
        // Junction-budget slab: one (epoch, reads, writes) slot per
        // (task, tile, junction), laid out contiguously per task.
        let mut junction_base = Vec::with_capacity(ntasks);
        let mut slab_len = 0usize;
        let mut tile_base = Vec::with_capacity(ntasks);
        let mut tile_ids = Vec::new();
        for (ti, e) in elab.iter().enumerate() {
            junction_base.push(slab_len);
            slab_len += tasks[ti].tiles.len() * e.njunctions;
            tile_base.push(tile_ids.len());
            tile_ids.extend((0..tasks[ti].tiles.len()).map(|tk| (ti as u32, tk as u32)));
        }
        Engine {
            acc,
            cfg,
            mem,
            elab,
            tasks,
            structs,
            dram,
            dram_idx,
            ev_near: (0..EV_HORIZON).map(|_| Vec::new()).collect(),
            ev_occupied: 0,
            ev_far: BinaryHeap::new(),
            ev_seq: 0,
            reqs: VecDeque::new(),
            req_base: 1,
            mem_resp: Vec::new(),
            next_uid: 1,
            cycle: 0,
            last_progress: 0,
            root_result: None,
            fires: 0,
            sched_visits: 0,
            task_invocations: vec![0; ntasks],
            junction_slab: vec![(u64::MAX, 0, 0); slab_len],
            junction_base,
            tile_base,
            tile_due: vec![u64::MAX; tile_ids.len()],
            tile_cal: Calendar::sized(tile_ids.len()),
            tile_ids,
            queued: vec![0; ntasks.div_ceil(64)],
            scan_g: 0,
            dispatch_hint: false,
            use_ready: cfg.scheduler == SchedulerKind::Ready && obs.is_none(),
            spare: Vec::new(),
            faults,
            faults_on,
            stuck: HashSet::new(),
            obs,
        }
    }

    // ---- the door: root arguments in -----------------------------------
    // `Value` lists exist between this marker and the next one only
    // (scripts/check.sh, "one token payload").

    /// Run the root task once with `args`; returns (cycles, results, stats,
    /// observability artifacts when tracing was enabled).
    ///
    /// # Errors
    /// Deadlock (no progress), cycle-limit exhaustion, or a functional
    /// fault (out-of-bounds access on a live path).
    #[allow(clippy::type_complexity)]
    pub(crate) fn run(
        &mut self,
        args: &[Value],
    ) -> Result<(u64, Vec<Value>, SimStats, Option<(SimProfile, Trace)>), SimError> {
        // DMA model (§3.2: scratchpads are DMA-managed): streaming the
        // read-only inputs into scratchpads costs DRAM bandwidth up front;
        // draining written scratchpad objects costs bandwidth at the end.
        let (fill, drain) = self.dma_elems();
        let (lat, bw) = match self.dram_idx.map(|i| &self.acc.structures[i].kind) {
            Some(StructureKind::Dram {
                latency,
                elems_per_cycle,
            }) => (*latency as u64, (*elems_per_cycle).max(1) as u64),
            _ => (40, 8),
        };
        // Scratchpad DMA is double-buffered: inbound streams overlap with
        // compute, so only the first burst is exposed; the outbound drain
        // likewise overlaps except its tail.
        let burst = 4 * bw;
        let fill_delay = if fill > 0 {
            lat + fill.min(burst).div_ceil(bw)
        } else {
            0
        };
        let drain_delay = if drain > 0 {
            lat + drain.min(burst).div_ceil(bw)
        } else {
            0
        };

        let root = self.acc.root.0 as usize;
        let args = self.admit_root_args(root, args)?;
        let uid = self.fresh_uid();
        self.enqueue(
            root,
            Invocation {
                uid,
                args,
                reply: None,
                spawn_parent: None,
            },
        );
        self.cycle = fill_delay;
        self.last_progress = fill_delay;
        let mut scratch = Scratch::default();
        while self.root_result.is_none() {
            if self.use_ready {
                self.maybe_skip_idle();
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::CycleLimitExhausted {
                    limit: self.cfg.max_cycles,
                });
            }
            // `last_progress` runs ahead of the clock while a stamped
            // completion is still to come.
            if self.cycle.saturating_sub(self.last_progress) > self.cfg.deadlock_cycles {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    report: Box::new(self.diagnose_deadlock()),
                });
            }
            self.step(&mut scratch)?;
        }
        // Whatever the dataflow achieved, the run can never beat the AXI
        // channel: all scratchpad streams must cross it once.
        let stream_floor = lat + (fill + drain).div_ceil(bw);
        let cycles = (self.cycle + drain_delay).max(stream_floor);
        let results = self.root_result.take().map_or_else(Vec::new, |r| {
            r.words.iter().map(|w| w.to_value(&r.lanes)).collect()
        });
        let stats = self.collect_stats(cycles);
        let observed = self
            .obs
            .take()
            .map(|o| o.finish(cycles, &stats.struct_stats));
        Ok((cycles, results, stats, observed))
    }

    /// The door check on the root invocation: every `Input` node of the
    /// root task must find an argument of its declared type, and every
    /// argument must have a flat form. Inside the graph a token's kind
    /// follows from the graph; here it is the caller's.
    fn admit_root_args(&self, root: usize, args: &[Value]) -> Result<Box<Vals>, SimError> {
        let task = &self.acc.tasks[root];
        let at_door = |detail: String, node: Option<u32>| {
            SimError::eval(detail).at_site(0, root as u32, &task.name, node, None)
        };
        for (n, nd) in task.dataflow.nodes.iter().enumerate() {
            let NodeKind::Input { index } = nd.kind else {
                continue;
            };
            let detail = match args.get(index as usize) {
                None => format!("missing argument {index}"),
                Some(v) if !value_fits(v, nd.ty) => {
                    format!("argument {index} is {v}, but {} takes {}", nd.name, nd.ty)
                }
                Some(_) => continue,
            };
            return Err(at_door(detail, Some(n as u32)));
        }
        let mut flat = Box::<Vals>::default();
        for (i, v) in args.iter().enumerate() {
            let w = Word::from_value(v, &mut flat.lanes).ok_or_else(|| {
                let detail = format!("argument {i} is {v}: lanes must be scalars of one kind");
                at_door(detail, None)
            })?;
            flat.words.push(w);
        }
        Ok(flat)
    }

    // ---- the door: results out ------------------------------------------

    /// The largest lane slab and the largest token array among this run's
    /// invocation shells, live or pooled: `(slab words, ring slots)`.
    #[cfg(test)]
    pub(crate) fn slab_high_water(&self) -> (usize, usize) {
        let shells = self.tasks.iter().flat_map(|t| {
            let live = t.tiles.iter().flatten();
            live.chain(&t.pool).map(|inv| &inv.arena)
        });
        shells.fold((0, 0), |(words, slots), a| {
            (words.max(a.slab.words.len()), slots.max(a.toks.len()))
        })
    }

    /// Elements DMA'd into scratchpads before launch (read-only inputs) and
    /// drained out after completion (written objects).
    fn dma_elems(&self) -> (u64, u64) {
        let mut fill = 0;
        let mut drain = 0;
        for st in &self.acc.structures {
            if !matches!(st.kind, StructureKind::Scratchpad { .. }) {
                continue;
            }
            for obj in &st.objects {
                let Some(&(len, ro)) = self.acc.object_info.get(obj.0 as usize) else {
                    continue;
                };
                if ro {
                    fill += len;
                } else {
                    fill += len; // outputs are zero/limit-initialised too
                    drain += len;
                }
            }
        }
        (fill, drain)
    }

    fn collect_stats(&self, cycles: u64) -> SimStats {
        let mut faults = self.faults.counts;
        for s in &self.structs {
            faults.merge(&s.fault_counts());
        }
        faults.merge(&self.dram.fault_counts());
        let task_busy_cycles = self
            .tasks
            .iter()
            .map(|t| {
                // `Ready` books a tile's busy cycles when it retires; tiles
                // still occupied now have been busy since their activation.
                let open: u64 = t
                    .tiles
                    .iter()
                    .flatten()
                    .map(|inv| self.cycle - inv.since)
                    .sum();
                t.busy_cycles + if self.use_ready { open } else { 0 }
            })
            .collect();
        SimStats {
            cycles,
            fires: self.fires,
            task_invocations: self.task_invocations.clone(),
            task_busy_cycles,
            struct_stats: self.structs.iter().map(|s| s.stats).collect(),
            dram_fills: self.dram.fills,
            faults,
            sched_visits: self.sched_visits,
        }
    }

    /// Schedule `ev` at cycle `at`; within a cycle events replay in push
    /// order. Near events (due inside [`EV_HORIZON`]) take the O(1) ring
    /// bucket; far events take the (cycle, seq) heap.
    fn schedule(&mut self, at: u64, ev: Ev) {
        debug_assert!(at > self.cycle, "events are always strictly future");
        if at - self.cycle < EV_HORIZON {
            self.ev_near[(at % EV_HORIZON) as usize].push(ev);
            self.ev_occupied |= 1 << (at % EV_HORIZON);
        } else {
            self.ev_seq += 1;
            self.ev_far.push(Reverse(EvAt {
                at,
                seq: self.ev_seq,
                ev,
            }));
        }
    }

    /// Cycle of the earliest scheduled event: the far heap's top, and the
    /// first occupied ring bucket from the current cycle's on (bit 0 of
    /// the rotated mask). Only the idle-skip path calls this, never the
    /// per-cycle hot loop.
    fn next_event_cycle(&self) -> Option<u64> {
        let far = self.ev_far.peek().map(|Reverse(e)| e.at);
        if self.ev_occupied == 0 {
            return far;
        }
        let ahead = self
            .ev_occupied
            .rotate_right((self.cycle % EV_HORIZON) as u32);
        let near = self.cycle + u64::from(ahead.trailing_zeros());
        Some(far.map_or(near, |f| f.min(near)))
    }

    /// Arbitration budget slot for junction `j` on (task, tile), reset
    /// lazily when first touched in a new cycle.
    fn jslot(&mut self, ti: usize, tk: usize, j: usize) -> &mut (u64, u32, u32) {
        let idx = self.junction_base[ti] + tk * self.elab[ti].njunctions + j;
        let slot = &mut self.junction_slab[idx];
        if slot.0 != self.cycle {
            *slot = (self.cycle, 0, 0);
        }
        slot
    }

    /// Record request `id` (the next dense id) as in flight for `site`.
    fn track_request(&mut self, site: Site) -> u64 {
        let id = self.req_base + self.reqs.len() as u64;
        self.reqs.push_back(Some(site));
        id
    }

    /// The firing request `id` belongs to, if it is still in flight.
    fn answer_request(&mut self, id: u64) -> Option<Site> {
        let idx = usize::try_from(id.checked_sub(self.req_base)?).ok()?;
        let site = self.reqs.get_mut(idx)?.take();
        while let Some(None) = self.reqs.front() {
            self.reqs.pop_front();
            self.req_base += 1;
        }
        site
    }

    /// The watchdog's clock: something moved, or is known to complete, at
    /// cycle `at`. A stamped completion is booked when its firing is, so
    /// the latest cycle wins.
    fn progress(&mut self, at: u64) {
        self.last_progress = self.last_progress.max(at);
    }

    /// Wake `node` on another tile (dispatch freeing a queue slot is the
    /// one cross-tile wake; it runs in phase 3, before any tile's pass).
    fn wake_tile(&mut self, ti: usize, tk: usize, node: usize) {
        if let Some(inv) = self.tasks[ti].tiles[tk].as_deref_mut() {
            let due = inv.wake(&self.elab[ti].info, node, self.cycle, self.cycle);
            let g = self.tile_base[ti] + tk;
            self.set_due(g, self.tile_due[g].min(due));
        }
    }

    /// Set tile `g`'s `tile_due` entry to `t` and, under `Ready`, mark the
    /// tile for cycle `t` in phase 4's calendar. The one writer of both.
    #[inline]
    fn set_due(&mut self, g: usize, t: u64) {
        if self.tile_due[g] == t {
            return; // marked when it was set, and not yet drained
        }
        self.tile_due[g] = t;
        if self.use_ready && t != u64::MAX {
            self.tile_cal.mark(g as u32, t, self.cycle);
        }
    }

    /// Idle-cycle skip: when provably nothing can happen at the current
    /// cycle — no dispatch, no tile with work, quiescent memory, no due
    /// event — jump straight to the earliest cycle at which something
    /// *can*, capped at the deadlock deadline and cycle limit so watchdog
    /// errors fire at exactly the dense scheduler's cycle. Each skipped
    /// cycle is a no-op under dense semantics (empty banks tick to
    /// nothing, every `try_fire` would gate out).
    fn maybe_skip_idle(&mut self) {
        let cycle = self.cycle;
        if self.dispatch_hint || self.tile_cal.marked(cycle) {
            return;
        }
        // The last step was at `cycle - 1`. The first tile to come due is
        // the calendar's next mark: no later than `min(tile_due)`, earlier
        // only by a stale mark, which costs a stepped cycle that does
        // nothing.
        let mut earliest = self.tile_cal.next_marked(cycle.saturating_sub(1));
        for s in &self.structs {
            match s.next_activity(cycle) {
                Some(at) if at <= cycle => return, // must tick now
                Some(at) => earliest = earliest.min(at),
                None => {}
            }
        }
        if let Some(at) = self.next_event_cycle() {
            if at <= cycle {
                return;
            }
            earliest = earliest.min(at);
        }
        // Never skip past the watchdog deadline (first cycle at which
        // `cycle - last_progress > deadlock_cycles`) or the hard limit.
        let deadline = (self.last_progress + self.cfg.deadlock_cycles).saturating_add(1);
        let target = earliest.min(deadline).min(self.cfg.max_cycles);
        if target > cycle {
            self.cycle = target;
        }
    }

    /// Walk the blocked-channel wait-for graph and diagnose the stall.
    ///
    /// Every node that still has instances to fire contributes wait-for
    /// edges: an *empty* input channel makes it wait on its producer; a
    /// *full* output channel makes it wait on its consumer. A cycle over
    /// these edges is the deadlock's root cause; if one of the cycle's
    /// channels is full, growing that buffer breaks the cycle, and the
    /// report says exactly which edge and to what depth.
    fn diagnose_deadlock(&self) -> DeadlockReport {
        let cycle = self.cycle;
        let mut vertices: Vec<V> = Vec::new();
        let mut waits: HashMap<V, Vec<W>> = HashMap::new();
        let mut report = DeadlockReport {
            mem_outstanding: self.reqs.iter().flatten().count() as u32,
            stuck_nodes: {
                let mut sn: Vec<(u32, u32)> = self
                    .stuck
                    .iter()
                    .map(|&(ti, _, n)| (ti as u32, n as u32))
                    .collect();
                sn.sort_unstable();
                sn.dedup();
                sn
            },
            ..DeadlockReport::default()
        };
        for (ti, t) in self.tasks.iter().enumerate() {
            let task = &self.acc.tasks[ti];
            let df = &task.dataflow;
            let et = &self.elab[ti];
            let ct = et.ct;
            if !t.queue.is_empty() {
                report.queued.push((ti as u32, t.queue.len()));
            }
            for (tk, tile) in t.tiles.iter().enumerate() {
                let Some(inv) = tile else { continue };
                report.stuck_tiles.push(StuckTile {
                    task: ti as u32,
                    task_name: task.name.clone(),
                    tile: tk as u32,
                    trip: inv.trip,
                    admitted: inv.admitted,
                    completed: inv.completed,
                    spawns_outstanding: inv.spawns_outstanding,
                });
                for (node, uop) in ct.uops.iter().enumerate() {
                    if uop.kind == UopKind::Static || self.stuck.contains(&(ti, tk, node)) {
                        continue;
                    }
                    let k = inv.nodes[node].fired;
                    if k >= inv.admitted {
                        continue; // waiting for admission, not a channel
                    }
                    // `node` waits on node `on` through channel `ei`.
                    let wait = |ei: usize, on: u32, state: ChannelState| W {
                        to: (ti, tk, on as usize),
                        edge: WaitEdge {
                            task: ti as u32,
                            task_name: task.name.clone(),
                            edge: ei as u32,
                            src: node as u32,
                            src_name: df.nodes[node].name.to_string(),
                            dst: on,
                            dst_name: df.nodes[on as usize].name.to_string(),
                            capacity: et.cap[ei],
                            state,
                        },
                    };
                    // Empty input channels: waiting on the producer. The
                    // edges are the input gate's, in its order — token
                    // slots by port, then the dynamic order-in edges.
                    let slots = &ct.in_slots[uop.slot0 as usize..][..uop.nin as usize];
                    let tokens = slots.iter().filter_map(|&s| match s & SLOT_TAG {
                        SLOT_ARG | SLOT_CONST => None,
                        SLOT_FEEDBACK if k == 0 => None,
                        _ => Some(s & SLOT_PAYLOAD),
                    });
                    let order_in = &ct.edge_refs[uop.ebase as usize..][..uop.nord as usize];
                    let mut out: Vec<W> = Vec::new();
                    for ei in tokens.chain(order_in.iter().copied()) {
                        let ei = ei as usize;
                        if inv.arena.front(ei).is_none_or(|(_, vis)| vis > cycle) {
                            out.push(wait(ei, ct.edge_meta[ei].src, ChannelState::Empty));
                        }
                    }
                    // Full output channels: waiting on the consumer.
                    for &ei in out_edges(&ct, uop) {
                        let ei = ei as usize;
                        if inv.arena.full(ei, et.cap[ei], cycle) {
                            out.push(wait(ei, df.edges[ei].dst.0, ChannelState::Full));
                        }
                    }
                    if !out.is_empty() {
                        let me: V = (ti, tk, node);
                        vertices.push(me);
                        waits.insert(me, out);
                    }
                }
            }
        }
        report.wait_cycle = find_wait_cycle(&vertices, &waits);
        report.suggestion = report
            .wait_cycle
            .iter()
            .filter(|w| w.state == ChannelState::Full)
            .min_by_key(|w| w.capacity)
            .map(|w| BufferSuggestion {
                task: w.task,
                edge: w.edge,
                depth: w.capacity + 1,
            });
        report
    }

    /// A typed `Fault` error located at a node interface of invocation
    /// `uid`.
    fn fault_err(
        &self,
        ti: usize,
        node: usize,
        uid: u64,
        instance: u64,
        kind: FaultKind,
        detail: String,
    ) -> SimError {
        SimError::Fault {
            cycle: self.cycle,
            task: ti as u32,
            task_name: self.acc.tasks[ti].name.clone(),
            node: node as u32,
            invocation: uid,
            instance,
            kind,
            detail,
        }
    }

    fn fresh_uid(&mut self) -> u64 {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// Hand an emptied list back for the next `TaskCall` or result.
    fn recycle(&mut self, mut v: Box<Vals>) {
        v.clear();
        self.spare.push(v);
    }

    /// Queue an invocation of `child` for the `TaskCall` firing at `site`,
    /// copying the call's first `nargs` input values into the argument
    /// list. A blocking call gets its reply at `site`; a spawn only
    /// names its parent.
    fn issue_call(&mut self, site: Site, child: usize, nargs: usize, spawn: bool, values: &Vals) {
        let mut args = self.spare.pop().unwrap_or_default();
        for &w in &values.words[..nargs] {
            args.push(w, &values.lanes);
        }
        let (reply, spawn_parent) = if spawn {
            (None, Some((site.task as usize, site.uid)))
        } else {
            (Some(site), None)
        };
        let uid = self.fresh_uid();
        self.enqueue(
            child,
            Invocation {
                uid,
                args,
                reply,
                spawn_parent,
            },
        );
    }

    /// Push `inv` onto task `ti`'s issue queue.
    fn enqueue(&mut self, ti: usize, inv: Invocation) {
        self.tasks[ti].queue.push_back(inv);
        self.queued[ti / 64] |= 1 << (ti % 64);
        self.dispatch_hint = true;
    }

    /// Record a blocked firing opportunity at `site = (task, tile, node)`
    /// and yield the cycle. Pure observation: no engine state changes.
    fn note_stall(
        &mut self,
        site: (usize, usize, usize),
        reason: StallReason,
        edge: Option<usize>,
        structure: Option<usize>,
    ) -> Result<(), SimError> {
        if let Some(obs) = self.obs.as_mut() {
            obs.stall(self.cycle, site, reason, edge, structure);
        }
        Ok(())
    }

    fn step(&mut self, scratch: &mut Scratch) -> Result<(), SimError> {
        let cycle = self.cycle;
        self.scan_g = 0;
        // Phase 1: scheduled events, in (cycle, push-order) order. Due far
        // events drain first — each was pushed ≥ EV_HORIZON cycles ago, so
        // it precedes every near event due this cycle in push order.
        while self.ev_far.peek().is_some_and(|Reverse(e)| e.at <= cycle) {
            let Reverse(EvAt { ev, .. }) = self.ev_far.pop().expect("peeked");
            self.dispatch_event(ev)?;
        }
        let slot = (cycle % EV_HORIZON) as usize;
        if !self.ev_near[slot].is_empty() {
            let mut bucket = std::mem::take(&mut self.ev_near[slot]);
            self.ev_occupied &= !(1 << slot);
            for ev in bucket.drain(..) {
                self.dispatch_event(ev)?;
            }
            // Nothing can land in this slot mid-drain (that would need
            // `at == cycle + EV_HORIZON`, which goes to the far heap), so
            // swap the emptied Vec back to keep its capacity.
            self.ev_near[slot] = bucket;
        }
        // Phase 2: memory responses. `Ready` passes over a quiet structure,
        // whose tick would return at once; the dense oracle ticks them all.
        let mut responses = std::mem::take(&mut self.mem_resp);
        for si in 0..self.structs.len() {
            if self.use_ready && self.structs[si].is_quiet() {
                continue;
            }
            let dram = (Some(si) != self.dram_idx).then_some(&mut self.dram);
            self.structs[si].tick(cycle, dram, &mut responses);
            for r in responses.drain(..) {
                if let Some(p) = self.answer_request(r.id) {
                    if let Some(obs) = self.obs.as_mut() {
                        obs.mem_resp(cycle, si, r.id);
                    }
                    if r.ecc == Ecc::Uncorrectable {
                        return Err(self.fault_err(
                            p.task as usize,
                            p.node as usize,
                            self.tasks[p.task as usize].tiles[p.tile as usize]
                                .as_ref()
                                .map_or(0, |i| i.uid),
                            p.instance,
                            FaultKind::EccUncorrectable,
                            format!("memory response for request {} (structure {si})", r.id),
                        ));
                    }
                    self.node_done(p, None)?;
                }
            }
        }
        self.mem_resp = responses;
        // Phase 3: dispatch queued invocations onto free tiles, tasks in
        // index order. Only a queue push or a retirement can make a
        // dispatch possible, so `Ready` looks only after one, and only at
        // the tasks with a queued invocation; the dense oracle looks at
        // every task every cycle.
        if !self.use_ready {
            for ti in 0..self.tasks.len() {
                self.dispatch(ti)?;
            }
        } else if self.dispatch_hint {
            self.dispatch_hint = false;
            // No push happens in phase 3, so a word read once stays true
            // but for the bits its own dispatches clear.
            for w in 0..self.queued.len() {
                let mut word = self.queued[w];
                while word != 0 {
                    self.dispatch(w * 64 + word.trailing_zeros() as usize)?;
                    word &= word - 1;
                }
            }
        }
        // Phase 4: admissions + node firing (consumers-first order), tiles
        // in dense order. `Ready` ticks only the tiles that are due, taking
        // them from this cycle's calendar slot lowest-id-first; every
        // other tile's tick would admit nothing, promote nothing and visit
        // nothing (the tile-work invariant on `tile_due`). A stale mark
        // fails the `tile_due` test and ticks nothing.
        if self.use_ready {
            self.tile_cal.promote(cycle);
            let slot = self.tile_cal.slot(cycle);
            let mut wi = 0;
            while let Some(g) = self.tile_cal.take(slot, &mut wi) {
                if self.tile_due[g] <= cycle {
                    self.scan_g = g + 1;
                    let (ti, tk) = self.tile_ids[g];
                    self.tile_tick(ti as usize, tk as usize, scratch)?;
                }
            }
            self.tile_cal.drained(cycle);
        } else {
            for ti in 0..self.tasks.len() {
                for tk in 0..self.tasks[ti].tiles.len() {
                    if self.tasks[ti].tiles[tk].is_some() {
                        self.tasks[ti].busy_cycles += 1;
                        self.tile_tick(ti, tk, scratch)?;
                    }
                }
            }
        }
        self.cycle += 1;
        Ok(())
    }

    /// Dispatch task `ti`'s queued invocations onto its free tiles,
    /// lowest tile first (a linear `is_none()` scan's choice).
    fn dispatch(&mut self, ti: usize) -> Result<(), SimError> {
        while !self.tasks[ti].queue.is_empty() {
            let Some(Reverse(free)) = self.tasks[ti].free_tiles.pop() else {
                break;
            };
            let invq = self.tasks[ti].queue.pop_front().expect("checked");
            if self.tasks[ti].queue.is_empty() {
                self.queued[ti / 64] &= !(1 << (ti % 64));
            }
            if self.use_ready && !self.tasks[ti].queue_waiters.is_empty() {
                // A queue slot freed: blocked TaskCall sites may retry.
                let mut waiters = std::mem::take(&mut self.tasks[ti].queue_waiters);
                for (wti, wtk, wnode) in waiters.drain(..) {
                    self.wake_tile(wti as usize, wtk as usize, wnode as usize);
                }
                self.tasks[ti].queue_waiters = waiters;
            }
            let uid = invq.uid;
            self.activate(ti, free, invq).map_err(|e| {
                let name = &self.acc.tasks[ti].name;
                e.at_site(self.cycle, ti as u32, name, None, Some(uid))
            })?;
        }
        Ok(())
    }

    /// Deliver one scheduled event to its completion handler.
    fn dispatch_event(&mut self, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::NodeDone(site) => self.node_done(site, None),
            Ev::Reply { to, results } => self.node_done(to, Some(results)),
            Ev::InstanceDone { task, tile, uid } => {
                self.instance_done(task as usize, tile as usize, uid)
            }
        }
    }

    fn activate(&mut self, ti: usize, tile: usize, inv: Invocation) -> Result<(), SimError> {
        let task = &self.acc.tasks[ti];
        let (trip, lo, step, serial) = match &task.kind {
            TaskKind::Region => (1u64, 0i64, 1i64, false),
            TaskKind::Loop { spec, serial } => {
                let eval = |e: &ArgExpr| -> Result<i64, SimError> {
                    match e {
                        ArgExpr::Const(k) => Ok(*k),
                        ArgExpr::Arg(a) => inv
                            .args
                            .words
                            .get(*a as usize)
                            .ok_or_else(|| {
                                SimError::eval(format!("loop bound argument {a} missing"))
                            })?
                            .as_int()
                            .ok_or_else(|| {
                                SimError::eval(format!("non-integer loop bound argument {a}"))
                            }),
                    }
                };
                let lo = eval(&spec.lo)?;
                let hi = eval(&spec.hi)?;
                let trip = if hi > lo {
                    ((hi - lo) as u64).div_ceil(spec.step as u64)
                } else {
                    0
                };
                (trip, lo, spec.step, *serial)
            }
        };
        self.task_invocations[ti] += 1;
        let mut a = match self.tasks[ti].pool.pop() {
            Some(mut a) => {
                a.reset();
                a
            }
            None => {
                let et = &self.elab[ti];
                Box::new(ActiveInv::new(et.info.len(), &et.cap, &et.stamped))
            }
        };
        let old_args = std::mem::replace(&mut a.args, inv.args);
        self.recycle(old_args);
        a.uid = inv.uid;
        a.reply = inv.reply;
        a.spawn_parent = inv.spawn_parent;
        a.trip = trip;
        a.lo = lo;
        a.step = step;
        a.serial = serial;
        a.since = self.cycle;
        self.tasks[ti].tiles[tile] = Some(a);
        // Due at once: to admit instance 0, or — a zero-trip loop admits
        // nothing — for the completion check that follows the tile's pass.
        self.set_due(self.tile_base[ti] + tile, self.cycle);
        self.progress(self.cycle);
        Ok(())
    }

    /// One tile's phase-4 slot: admission, the scheduler's candidate walk,
    /// the completion check. The invocation is lifted out of the engine
    /// for the walk, so every firing works on one `&mut ActiveInv` next to
    /// `&mut self` instead of re-deriving it from (task, tile).
    fn tile_tick(&mut self, ti: usize, tk: usize, scratch: &mut Scratch) -> Result<(), SimError> {
        let Some(mut inv) = self.tasks[ti].tiles[tk].take() else {
            return Ok(());
        };
        let walked = if self.use_ready {
            let r = self.ready_pass(ti, tk, &mut inv, scratch);
            let due = inv.due_after_pass(self.cycle, self.cfg.window);
            self.set_due(self.tile_base[ti] + tk, due);
            r
        } else {
            self.dense_pass(ti, tk, &mut inv, scratch)
        };
        self.tasks[ti].tiles[tk] = Some(inv);
        walked?;
        self.check_invocation_complete(ti, tk)
    }

    /// Admission: at most one new instance per cycle. Returns the admitted
    /// instance number, if any.
    fn admit(&mut self, ti: usize, inv: &mut ActiveInv) -> Option<u64> {
        if !inv.can_admit(self.cfg.window) {
            return None;
        }
        let k = inv.admitted;
        inv.admitted += 1;
        debug_assert_eq!(k, inv.completed + inv.outstanding.len() as u64);
        inv.outstanding.push_back(Instance {
            remaining: self.elab[ti].dynamic_count,
            done_at: 0,
        });
        self.progress(self.cycle);
        Some(k)
    }

    /// The dense oracle's walk: every node, consumers first, every cycle.
    fn dense_pass(
        &mut self,
        ti: usize,
        tk: usize,
        inv: &mut ActiveInv,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        self.admit(ti, inv);
        let order: &[u32] = self.elab[ti].ct.order;
        for &node in order {
            self.try_fire(ti, tk, inv, node as usize, scratch)?;
        }
        Ok(())
    }

    /// The ready scheduler's walk: fire only the woken candidates, in
    /// ascending scan position — exactly the subsequence of the dense scan
    /// that would have fired or stalled for a cause.
    fn ready_pass(
        &mut self,
        ti: usize,
        tk: usize,
        inv: &mut ActiveInv,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let cycle = self.cycle;
        let admitted = self.admit(ti, inv);
        let info = &self.elab[ti].info;
        match admitted {
            // Seeding: every dynamic node's next firing is instance 0.
            Some(0) => {
                for (node, uop) in self.elab[ti].ct.uops.iter().enumerate() {
                    if uop.kind != UopKind::Static {
                        inv.wake(info, node, cycle, cycle);
                    }
                }
            }
            // Only parked admission waiters can be unblocked by a later
            // admission (anything else is gated by tokens or II, which
            // carry their own wakes). Their tokens can predate admission —
            // elastic edges run ahead.
            Some(_) => {
                let mut adm = std::mem::take(&mut inv.ready.adm);
                for node in adm.drain(..) {
                    inv.nodes[node as usize].parked = false;
                    inv.wake(info, node as usize, cycle, cycle);
                }
                inv.ready.adm = adm;
            }
            None => {}
        }
        // Drain this cycle's slot lowest-position-first. The word is
        // re-read after every visit: a same-cycle wake from inside
        // `try_fire` can only set a bit ahead of the drain point, which
        // this forward walk will still reach.
        inv.ready.wakes.promote(cycle);
        let order: &[u32] = self.elab[ti].ct.order;
        let slot = inv.ready.wakes.slot(cycle);
        let mut wi = 0;
        while let Some(pos) = inv.ready.wakes.take(slot, &mut wi) {
            let node = order[pos] as usize;
            // A mark made for a token's stamp reads `ready_at` at the push;
            // a firing since may have moved it past this cycle.
            let ready_at = inv.nodes[node].ready_at;
            if ready_at > cycle {
                inv.ready.wakes.mark(pos as u32, ready_at, cycle);
                continue;
            }
            inv.ready.scan = pos as i64;
            self.try_fire(ti, tk, inv, node, scratch)?;
        }
        inv.ready.wakes.drained(cycle);
        inv.ready.scan = -1;
        Ok(())
    }

    /// Attempt to fire `node` of the invocation on (task, tile),
    /// re-checking every gate in a fixed order: static, stuck handshake,
    /// instance admission, initiation interval, input tokens, in-flight
    /// bound, output space, junction ports / child queue. The one gate
    /// function (DESIGN.md §14).
    fn try_fire(
        &mut self,
        ti: usize,
        tk: usize,
        inv: &mut ActiveInv,
        node: usize,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let cycle = self.cycle;
        let df = &self.acc.tasks[ti].dataflow;
        self.sched_visits += 1;
        let ct = &self.elab[ti].ct;
        let uop = &ct.uops[node];
        if matches!(uop.kind, UopKind::Static) {
            return Ok(());
        }
        let site = (ti, tk, node);
        let ns = inv.nodes[node];
        let k = ns.fired;
        if self.faults_on && self.stuck.contains(&site) {
            // Output handshake stuck: valid never asserts again. Attribute
            // the hold only while the node actually has instances to fire.
            if k < inv.admitted {
                return self.note_stall(site, StallReason::FaultHold, None, None);
            }
            return Ok(());
        }
        if k >= inv.admitted {
            if self.use_ready {
                // Blocked on the instance gate: only the next admission can
                // open instance `k`, so park on the admission-waiter list.
                inv.park_adm(node);
            }
            return Ok(());
        }
        if cycle < ns.ready_at {
            return Ok(());
        }
        match inv.input_gate(ct, uop, k, cycle) {
            InputGate::Pass => {}
            InputGate::Empty(ei) => {
                return self.note_stall(site, StallReason::InputEmpty, Some(ei), None)
            }
            InputGate::Misordered {
                edge,
                want,
                found,
                feedback,
            } => {
                let feedback = if feedback { "feedback " } else { "" };
                return Err(self.fault_err(
                    ti,
                    node,
                    inv.uid,
                    k,
                    FaultKind::TokenMisorder,
                    format!("{feedback}edge e{edge}: expected instance {want}, found {found}"),
                ));
            }
        }
        // In-flight bound (databox entries / pipeline occupancy). For
        // memory transit points a full databox means every entry is
        // waiting on the structure behind the junction.
        let et = &self.elab[ti];
        let ni = et.info[node];
        if ns.pending >= ni.max_pending {
            let (reason, sid) = match uop.kind {
                UopKind::Load | UopKind::Store => (
                    StallReason::MemoryWait,
                    Some(df.junctions[uop.b as usize].structure.0 as usize),
                ),
                _ => (StallReason::OutputFull, None),
            };
            return self.note_stall(site, reason, None, sid);
        }
        // Output space: an edge register holding its capacity in delivered
        // tokens.
        let full = out_edges(ct, uop)
            .iter()
            .map(|&e| e as usize)
            .find(|&ei| inv.arena.full(ei, et.cap[ei], cycle));
        if let Some(ei) = full {
            return self.note_stall(site, StallReason::OutputFull, Some(ei), None);
        }
        // Memory/call-specific admission checks (junction ports, queues).
        match uop.kind {
            UopKind::Load | UopKind::Store => {
                let j = uop.b as usize;
                let jn = &df.junctions[j];
                let budget = *self.jslot(ti, tk, j);
                let lost = if uop.kind == UopKind::Store {
                    budget.2 >= jn.write_ports
                } else {
                    budget.1 >= jn.read_ports
                };
                if lost {
                    // Port budgets refresh every cycle: retry next cycle.
                    if self.use_ready {
                        inv.wake(&self.elab[ti].info, node, cycle, cycle);
                    }
                    let sid = jn.structure.0 as usize;
                    return self.note_stall(site, StallReason::ArbitrationLoss, None, Some(sid));
                }
            }
            UopKind::TaskCall => {
                let child = uop.a as usize;
                let cap = self.elab[child].queue_cap;
                if self.tasks[child].queue.len() >= cap {
                    // Downstream issue queue full: backpressure, not memory.
                    // Retry when the child's dispatcher pops a slot.
                    if self.use_ready {
                        self.tasks[child]
                            .queue_waiters
                            .push((ti as u32, tk as u32, node as u32));
                    }
                    return self.note_stall(site, StallReason::OutputFull, None, None);
                }
            }
            _ => {}
        }
        // Every admission check passed: this is a real firing opportunity,
        // which is the injection point for a stuck output handshake.
        if self.faults_on && self.faults.roll(FaultClass::StuckHandshake) {
            self.stuck.insert(site);
            return self.note_stall(site, StallReason::FaultHold, None, None);
        }

        // The body's evaluation errors are context-free; locate them here.
        let r = self.fire(ti, tk, inv, node, uop, ni, k, scratch);
        r.map_err(|e| {
            let name = &self.acc.tasks[ti].name;
            e.at_site(cycle, ti as u32, name, Some(node as u32), Some(inv.uid))
        })
    }

    /// The firing body: consume tokens, evaluate by dense opcode, push
    /// outputs over the pre-resolved edge range, account. Callers have
    /// verified every gate.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn fire(
        &mut self,
        ti: usize,
        tk: usize,
        inv: &mut ActiveInv,
        node: usize,
        uop: &MicroOp,
        ni: NodeInfo,
        k: u64,
        scratch: &mut Scratch,
    ) -> Result<(), SimError> {
        let Scratch {
            values,
            out: out_values,
        } = scratch;
        values.clear();
        out_values.clear();
        let cycle = self.cycle;
        let df = &self.acc.tasks[ti].dataflow;
        let ct = self.elab[ti].ct;
        let slots = &ct.in_slots[uop.slot0 as usize..][..uop.nin as usize];
        let erefs = &ct.edge_refs[uop.ebase as usize..][..uop.nord as usize + uop.nout as usize];
        // Consume the front token of an input edge. That frees a slot on the
        // edge — which only unblocks the producer if the edge was *full*
        // before the pop (fullness is the producer's output-space gate; no
        // other firing gate reads this edge).
        let (et, obs, use_ready) = (&self.elab[ti], &mut self.obs, self.use_ready);
        let mut pop = |inv: &mut ActiveInv, ei: usize, into: Option<&mut Vals>| {
            let was_full = use_ready && inv.arena.full(ei, et.cap[ei], cycle);
            inv.arena.pop(ei, into);
            if let Some(obs) = obs.as_mut() {
                obs.edge_delta(cycle, ti, ei, inv.arena.len(ei), false);
            }
            if was_full {
                inv.wake(&et.info, ct.edge_meta[ei].src as usize, cycle, cycle);
            }
        };
        // Collect input values straight into `values` — each slot is
        // self-describing, so no staging buffer is needed.
        for &s in slots {
            let p = (s & SLOT_PAYLOAD) as usize;
            match s & SLOT_TAG {
                SLOT_ARG => {
                    let arg = inv.args.words.get(p);
                    let arg = arg.ok_or_else(|| SimError::eval(format!("missing argument {p}")))?;
                    values.push(*arg, &inv.args.lanes);
                }
                SLOT_CONST => values.push(et.consts.words[p], &et.consts.lanes),
                SLOT_FEEDBACK if k == 0 => values.words.push(Word::POISON), // unused at instance 0
                _ if inv.arena.len(p) == 0 => {
                    return Err(SimError::eval(format!("missing token on edge e{p}")));
                }
                _ => pop(inv, p, Some(&mut *values)),
            }
        }
        for &er in &erefs[..uop.nord as usize] {
            pop(inv, er as usize, None);
        }

        let site = Site {
            task: ti as u32,
            tile: tk as u32,
            node: node as u32,
            uid: inv.uid,
            instance: k,
        };
        // The cycle the result is valid, unless memory or a callee decides.
        let due = cycle + u64::from(ni.latency.max(1));
        let mut completion_at = Some(due);
        // A predicated op is active unless its predicate input is false
        // or poison.
        let active = |pred: Option<&Word>| match pred {
            Some(&v) if uop.flags & UOP_PREDICATED != 0 => {
                truth(v, "predicate").map(|t| t == Some(true))
            }
            _ => Ok(true),
        };
        // The element index of a memory access: poison (a squashed
        // division upstream) and negative indices are typed errors.
        let index = |v: Word, what: &str| match v.as_int() {
            None => Err(SimError::eval(format!("poison {what} index"))),
            Some(idx) if idx < 0 => Err(SimError::eval(format!("negative {what} index {idx}"))),
            Some(idx) => Ok(idx as u64),
        };

        match uop.kind {
            UopKind::IndVar => {
                out_values
                    .words
                    .push(Word::int(inv.lo + k as i64 * inv.step));
            }
            UopKind::Merge => {
                // Port 0 = init (instance 0), port 1 = feedback.
                out_values.push(values.words[usize::from(k != 0)], &values.lanes);
            }
            UopKind::FusedAcc => {
                // Self-accumulating unit: port 0 = init, port 1 = operand.
                let slab = &mut inv.arena.slab;
                if k != 0 {
                    let base = inv.acc_state[node]
                        .ok_or_else(|| SimError::eval("accumulator state missing"))?;
                    values.words[0] = base.copy_into(&slab.words, &mut values.lanes);
                }
                eval_op(uop.op, &values.words[..2], &values.lanes, out_values)?;
                if let Some(old) = inv.acc_state[node].take() {
                    slab.release(old);
                }
                inv.acc_state[node] = Some(slab.adopt(out_values.words[0], &out_values.lanes));
            }
            UopKind::Compute => eval_op(uop.op, &values.words, &values.lanes, out_values)?,
            UopKind::Fused => eval_fused(&ct.fused_plans[uop.a as usize], values, out_values)?,
            UopKind::Output => inv.last_output.copy_from(values),
            UopKind::Load => {
                if active(values.words.last())? {
                    let obj = MemObjId(uop.a);
                    let idx = index(values.words[0], "load")?;
                    let ty = df.nodes[node].ty;
                    let base = self.mem.flat_addr(obj, idx);
                    let n = u64::from(ty.elems());
                    let (elem, words) = self.mem.words(obj, idx, n).map_err(interp_err)?;
                    match ty {
                        Type::Scalar(_) => out_values.words.push(Word::scalar(elem, words[0])),
                        Type::Vector { lanes, .. } => {
                            out_values.push_lanes(elem, Form::Vector(lanes.into()), words);
                        }
                        Type::Tensor { shape, .. } => {
                            out_values.push_lanes(elem, Form::Tile(shape), words);
                        }
                    }
                    self.issue_mem(site, uop.b as usize, base, n, false);
                    completion_at = None; // completes on the memory response
                } else {
                    out_values.words.push(Word::POISON);
                }
            }
            UopKind::Store => {
                if active(values.words.last())? {
                    let obj = MemObjId(uop.a);
                    let idx = index(values.words[0], "store")?;
                    let v = values.words[1];
                    let (elem, words) = match (v.as_elem(), v.as_lanes()) {
                        (Some(elem), _) => (elem, std::slice::from_ref(&v.bits)),
                        (None, Some(l)) => (l.elem, &values.lanes[l.range()]),
                        (None, None) => {
                            return Err(SimError::eval(format!("poison stored to {obj:?}")))
                        }
                    };
                    let base = self.mem.flat_addr(obj, idx);
                    self.mem
                        .store_words(obj, idx, elem, words)
                        .map_err(interp_err)?;
                    self.issue_mem(site, uop.b as usize, base, words.len() as u64, true);
                    completion_at = None; // completes on the memory response
                }
            }
            UopKind::TaskCall => {
                let child = uop.a as usize;
                let nargs = (uop.b >> 16) as usize;
                let nres = (uop.b & 0xffff) as usize;
                let mut result = Word::POISON; // squashed, or patched by the reply
                if active(values.words.get(nargs))? {
                    let spawn = uop.flags & UOP_SPAWN != 0;
                    self.issue_call(site, child, nargs, spawn, values);
                    if spawn {
                        inv.spawns_outstanding += 1;
                        result = Word::int(0);
                    } else {
                        completion_at = None;
                    }
                }
                out_values.words.resize(nres.max(1), result);
            }
            UopKind::Static => unreachable!("static"),
        }

        // Push tokens on out edges, one copy each: stamped with the cycle
        // they are delivered in and their consumer woken for it, or in
        // flight until this firing's completion event. Ready/valid faults
        // inject here: a drop loses the valid pulse, a dup holds it one
        // transfer too long, a bit-flip corrupts the data lines.
        let vis = if ni.stamps { due } else { u64::MAX };
        for &er in &erefs[uop.nord as usize..] {
            let ei = er as usize;
            let m = ct.edge_meta[ei];
            let mut value = match out_values.words.get(m.src_port as usize) {
                Some(&w) if !m.is_order => w,
                _ => Word::bool(true),
            };
            let mut copies = 1;
            if self.faults_on {
                if self.faults.roll(FaultClass::TokenDrop) {
                    continue; // token lost on the wire
                }
                if self.faults.roll(FaultClass::TokenBitFlip) {
                    let bit = self.faults.below(32) as u32;
                    value = flip_bit(value, bit, &mut out_values.lanes);
                }
                if self.faults.roll(FaultClass::TokenDup) {
                    copies = 2;
                }
            }
            for _ in 0..copies {
                inv.arena.push(ei, k, vis, value, &out_values.lanes);
            }
            if let Some(obs) = self.obs.as_mut() {
                obs.edge_delta(cycle, ti, ei, inv.arena.len(ei), true);
            }
            if ni.stamps && self.use_ready {
                let info = &self.elab[ti].info;
                inv.wake(info, df.edges[ei].dst.0 as usize, due, cycle);
            }
        }
        self.book_firing(inv, site, ni, completion_at)
    }

    /// Send the typed access of the firing at `site` — `n` elements from
    /// flat address `base` — through junction `j` to the structure behind
    /// it, spending one of the junction's ports for this cycle.
    fn issue_mem(&mut self, site: Site, j: usize, base: u64, n: u64, is_write: bool) {
        let (ti, tk) = (site.task as usize, site.tile as usize);
        let sid = self.acc.tasks[ti].dataflow.junctions[j].structure.0 as usize;
        let id = self.track_request(site);
        if let Some(obs) = self.obs.as_mut() {
            let bank = (base % self.structs[sid].bank_count().max(1) as u64) as u32;
            obs.mem_req(self.cycle, sid, id, bank, n as u32, is_write);
        }
        self.structs[sid].submit(MemRequest {
            id,
            base,
            n,
            is_write,
        });
        let budget = self.jslot(ti, tk, j);
        if is_write {
            budget.2 += 1;
        } else {
            budget.1 += 1;
        }
    }

    /// Book the firing at `site`: advance the node, count the firing, queue
    /// the node's next visit, and account for its completion — a stamping
    /// node's folds into the instance's record here and now, any other
    /// fixed-latency one is an event at `completion_at`.
    fn book_firing(
        &mut self,
        inv: &mut ActiveInv,
        site: Site,
        ni: NodeInfo,
        completion_at: Option<u64>,
    ) -> Result<(), SimError> {
        let cycle = self.cycle;
        let (ti, node, k) = (site.task as usize, site.node as usize, site.instance);
        let ns = &mut inv.nodes[node];
        ns.fired = k + 1;
        ns.ready_at = cycle + u64::from(ni.ii);
        ns.pending += u32::from(!ni.stamps);
        self.fires += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.fire(cycle, (ti, site.tile as usize, node), k);
        }
        self.progress(cycle);
        if self.use_ready {
            if k + 1 < inv.admitted {
                // More instances to fire: sleep until the initiation
                // interval elapses.
                inv.wake(&self.elab[ti].info, node, cycle, cycle);
            } else {
                // Window exhausted: only the next admission opens instance
                // `k + 1`. Nodes with all-static inputs (IndVar, Const
                // fan-ins) get no token wakes, so this is their only path
                // back.
                inv.park_adm(node);
            }
        }
        match completion_at {
            Some(at) if ni.stamps => {
                let inst = inv.complete_one(k, at).ok_or_else(|| unknown_instance(k))?;
                self.progress(at);
                if inst.remaining == 0 {
                    let (task, tile, uid) = (site.task, site.tile, site.uid);
                    self.schedule(inst.done_at, Ev::InstanceDone { task, tile, uid });
                }
            }
            Some(at) => self.schedule(at, Ev::NodeDone(site)),
            None => {} // completes on a memory response or a reply
        }
        Ok(())
    }

    /// A node's firing completed by event: make its tokens visible
    /// (patching values for call replies) and count it against its
    /// instance, which may retire here if nothing stamped outlasts it.
    fn node_done(&mut self, site: Site, reply_values: Option<Box<Vals>>) -> Result<(), SimError> {
        let cycle = self.cycle;
        let (ti, tk, node) = (site.task as usize, site.tile as usize, site.node as usize);
        let df = &self.acc.tasks[ti].dataflow;
        let et = &self.elab[ti];
        let outs = out_edges(&et.ct, &et.uops[node]);
        let Some(inv) = self.tasks[ti].tiles[tk].as_deref_mut() else {
            return Ok(()); // stale
        };
        if inv.uid != site.uid {
            return Ok(()); // stale
        }
        for &ei in outs {
            // All matching tokens become visible (normally exactly one;
            // an injected duplicate shares the completion pulse),
            // patching call-reply values onto data edges.
            let m = &et.edge_meta[ei as usize];
            let patch = reply_values.as_deref().and_then(|rv| {
                let w = rv.words.get(m.src_port as usize).filter(|_| !m.is_order)?;
                Some((*w, rv.lanes.as_slice()))
            });
            inv.arena.reveal(ei as usize, site.instance, cycle, patch);
        }
        let ns = &mut inv.nodes[node];
        let was_at_cap = ns.pending >= et.info[node].max_pending;
        ns.pending = ns.pending.saturating_sub(1);
        let inst = inv.complete_one(site.instance, cycle).ok_or_else(|| {
            let name = &self.acc.tasks[ti].name;
            let e = unknown_instance(site.instance);
            e.at_site(cycle, site.task, name, Some(site.node), Some(site.uid))
        })?;
        // The last completion to arrive need not be the last to happen: a
        // stamp may still be ahead.
        let stamp_ahead = inst.remaining == 0 && inst.done_at > cycle;
        inv.retire_done(cycle);
        if self.use_ready {
            // Tokens just became visible: their consumers may fire. The
            // node itself needs a wake only when this retirement freed a
            // *saturated* databox slot — that is the one firing gate a
            // completion changes. A retired instance can also open the
            // admission window, which makes the tile due by itself.
            let mut due = if inv.can_admit(self.cfg.window) {
                cycle
            } else {
                u64::MAX
            };
            for &ei in outs {
                let dst = df.edges[ei as usize].dst.0 as usize;
                due = due.min(inv.wake(&et.info, dst, cycle, cycle));
            }
            if was_at_cap {
                due = due.min(inv.wake(&et.info, node, cycle, cycle));
            }
            let g = self.tile_base[ti] + tk;
            self.set_due(g, self.tile_due[g].min(due));
        }
        if let Some(rv) = reply_values {
            self.recycle(rv);
        }
        if stamp_ahead {
            let (task, tile, uid) = (site.task, site.tile, site.uid);
            self.schedule(inst.done_at, Ev::InstanceDone { task, tile, uid });
        }
        self.progress(cycle);
        self.check_invocation_complete(ti, tk)
    }

    /// The last stamp of an instance of invocation `uid` falls in this
    /// cycle: retire what is done, in order. The event is stale, and
    /// nothing to do, when an earlier one this cycle already retired the
    /// invocation.
    fn instance_done(&mut self, ti: usize, tk: usize, uid: u64) -> Result<(), SimError> {
        let Some(inv) = self.tasks[ti].tiles[tk].as_deref_mut() else {
            return Ok(());
        };
        if inv.uid != uid {
            return Ok(());
        }
        inv.retire_done(self.cycle);
        if self.use_ready && inv.can_admit(self.cfg.window) {
            // A retired instance opened the admission window.
            let g = self.tile_base[ti] + tk;
            self.set_due(g, self.tile_due[g].min(self.cycle));
        }
        self.check_invocation_complete(ti, tk)
    }

    fn check_invocation_complete(&mut self, ti: usize, tk: usize) -> Result<(), SimError> {
        let slot = &mut self.tasks[ti].tiles[tk];
        if !slot.as_deref().is_some_and(ActiveInv::is_complete) {
            return Ok(());
        }
        let inv = slot.take().expect("checked");
        let g = self.tile_base[ti] + tk;
        self.set_due(g, u64::MAX);
        if self.use_ready {
            // Busy since activation, this cycle included iff the dense scan
            // has already been past this tile's slot (it counts a tile when
            // it visits it).
            self.tasks[ti].busy_cycles += self.cycle - inv.since + u64::from(g < self.scan_g);
        }
        self.tasks[ti].free_tiles.push(Reverse(tk));
        self.dispatch_hint = true;
        let task = &self.acc.tasks[ti];
        // Results: the last Output firing's values, or zero-trip fallbacks.
        let mut results = self.spare.pop().unwrap_or_default();
        if inv.trip == 0 {
            for r in 0..task.num_results as usize {
                let w = match task.loop_result_inits.get(r).and_then(|x| *x) {
                    Some(ResultInit::Arg(a)) => inv.args.words.get(a as usize).copied(),
                    Some(ResultInit::Const(c)) => Some(c.into()),
                    None => None,
                };
                results.push(w.unwrap_or(Word::POISON), &inv.args.lanes);
            }
        } else {
            results.copy_from(&inv.last_output);
        }
        if let Some((ptask, puid)) = inv.spawn_parent {
            self.recycle(results);
            // Sync bookkeeping: find the parent invocation and release it.
            for pinv in self.tasks[ptask].tiles.iter_mut().flatten() {
                if pinv.uid == puid {
                    pinv.spawns_outstanding -= 1;
                    break;
                }
            }
            // Parent may now be complete.
            let ptiles = self.tasks[ptask].tiles.len();
            for pt in 0..ptiles {
                self.check_invocation_complete(ptask, pt)?;
            }
        } else if let Some(to) = inv.reply {
            let at = self.cycle + 1;
            self.schedule(at, Ev::Reply { to, results });
        } else {
            self.root_result = Some(results);
        }
        self.progress(self.cycle);
        // Return the shell to the pool: its vectors keep their (task-
        // constant) shapes for the next activation.
        self.tasks[ti].pool.push(inv);
        Ok(())
    }
}

/// A wait-for-graph vertex: (task, tile, node).
type V = (usize, usize, usize);

/// One wait-for edge: the owning vertex waits on `to` through `edge`.
struct W {
    to: V,
    edge: WaitEdge,
}

/// Find one cycle in the wait-for graph (iterative DFS with an explicit
/// path stack) and return its wait edges in wait-for order. Empty if the
/// stall has no channel cycle (e.g. progress is blocked on memory).
fn find_wait_cycle(vertices: &[V], waits: &HashMap<V, Vec<W>>) -> Vec<WaitEdge> {
    // 0 = unvisited, 1 = on the current path, 2 = finished.
    let mut color: HashMap<V, u8> = HashMap::new();
    for &start in vertices {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Each entry: (vertex, next out-edge index, wait edge that led here).
        let mut path: Vec<(V, usize, Option<WaitEdge>)> = vec![(start, 0, None)];
        color.insert(start, 1);
        while let Some(&(v, i, _)) = path.last() {
            let Some(w) = waits.get(&v).and_then(|o| o.get(i)) else {
                color.insert(v, 2);
                path.pop();
                continue;
            };
            if let Some(top) = path.last_mut() {
                top.1 += 1;
            }
            match color.get(&w.to).copied().unwrap_or(0) {
                1 => {
                    // Back edge: the cycle runs from `w.to` along the path
                    // back to `v`, closed by this edge.
                    let p = path.iter().position(|e| e.0 == w.to).unwrap_or(0);
                    let mut cycle: Vec<WaitEdge> =
                        path[p + 1..].iter().filter_map(|e| e.2.clone()).collect();
                    cycle.push(w.edge.clone());
                    return cycle;
                }
                2 => {}
                _ => {
                    color.insert(w.to, 1);
                    path.push((w.to, 0, Some(w.edge.clone())));
                }
            }
        }
    }
    Vec::new()
}

/// A completion names an instance its invocation does not have in flight.
fn unknown_instance(k: u64) -> SimError {
    SimError::eval(format!("completion for unknown instance {k}"))
}

fn interp_err(e: InterpError) -> SimError {
    SimError::eval(e.to_string())
}

/// Evaluate a compute op on `ins`, whose lanes live in `lanes`; the one
/// result is appended to `out`.
fn eval_op(op: OpKind, ins: &[Word], lanes: &[u64], out: &mut Vals) -> Result<(), SimError> {
    let r = match op {
        // Hardware on a predicated-off path may divide by zero; the
        // result is squashed, so produce poison rather than fault.
        OpKind::Bin(BinOp::Div | BinOp::Rem) if ins[1].as_int() == Some(0) => Word::POISON,
        OpKind::Bin(b) => flat::bin(b, ins[0], ins[1]).map_err(interp_err)?,
        OpKind::Un(u) => flat::un(u, ins[0]).map_err(interp_err)?,
        OpKind::Cmp(p) => flat::cmp(p, ins[0], ins[1]).map_err(interp_err)?,
        OpKind::Select => match truth(ins[0], "select condition")? {
            None => Word::POISON,
            Some(true) => ins[1],
            Some(false) => ins[2],
        },
        OpKind::Cast(c) => match (c, ins[0]) {
            (_, v) if v.is_poison() => v,
            (CastOp::SiToFp, v) => Word::f32(
                v.as_int()
                    .ok_or_else(|| SimError::eval("non-integer cast operand"))?
                    as f32,
            ),
            (CastOp::FpToSi, v) => Word::int(
                v.as_f32()
                    .ok_or_else(|| SimError::eval("non-float cast operand"))?
                    as i64,
            ),
            (CastOp::IntResize, v) => v,
        },
        OpKind::Tensor(_, _) if ins.iter().any(|w| w.is_poison()) => Word::POISON,
        OpKind::Tensor(t, _) => {
            // The result's lanes (if it is a tile) land in `out` directly.
            let r = flat::tensor(t, ins[0], ins.get(1).copied(), lanes, &mut out.lanes);
            out.words.push(r.map_err(interp_err)?);
            return Ok(());
        }
    };
    out.push(r, lanes);
    Ok(())
}

/// Evaluate a fused plan over `values` into `out`. Step results join
/// `values` behind the external inputs, so a later step reads either from
/// one list.
fn eval_fused(
    plan: &muir_core::node::FusedPlan,
    values: &mut Vals,
    out: &mut Vals,
) -> Result<(), SimError> {
    let ext = values.words.len();
    for step in &plan.steps {
        let ins = values.words.len();
        for i in &step.inputs {
            let w = match i {
                FusedInput::External(p) => values.words[*p as usize],
                FusedInput::Step(s) => values.words[ext + *s as usize],
            };
            values.words.push(w);
        }
        out.clear();
        eval_op(step.op, &values.words[ins..], &values.lanes, out)?;
        values.words.truncate(ins);
        values.push(out.words[0], &out.lanes);
    }
    if out.words.is_empty() {
        return Err(SimError::eval("empty fused plan"));
    }
    Ok(())
}

/// Flip one bit of a scalar (the data-line corruption of the
/// token-bit-flip fault class): a boolean is negated, an integer loses bit
/// `bit % 63`, a float bit `bit % 32`.
fn flip_scalar(elem: ElemKind, bits: u64, bit: u32) -> u64 {
    bits ^ match elem {
        ElemKind::Bool => 1,
        ElemKind::Int => 1 << (bit % 63),
        ElemKind::F32 => 1 << (bit % 32),
    }
}

/// [`flip_scalar`] on a token value. A composite is first copied within
/// `lanes` — other edges still read the original — and the copy's first
/// lane is the one corrupted. Poison has no data lines to corrupt.
fn flip_bit(v: Word, bit: u32, lanes: &mut Vec<u64>) -> Word {
    match (v.as_elem(), v.as_lanes()) {
        (Some(elem), _) => Word::scalar(elem, flip_scalar(elem, v.bits, bit)),
        (None, Some(l)) => {
            let off = lanes.len();
            lanes.extend_from_within(l.range());
            if let Some(first) = lanes.get_mut(off) {
                *first = flip_scalar(l.elem, *first, bit);
            }
            l.at(off)
        }
        (None, None) => v,
    }
}

/// Whether `v` is a value an edge of type `ty` can carry: poison always,
/// booleans and integers on any integer scalar (the evaluators read either
/// as the other), floats on `f32`, vectors and tiles of the declared extent
/// whose lanes fit the element type.
fn value_fits(v: &Value, ty: Type) -> bool {
    let lanes_fit = |lanes: &[Value], elem| lanes.iter().all(|l| value_fits(l, Type::Scalar(elem)));
    match (v, ty) {
        (Value::Poison, _) => true,
        (Value::Bool(_) | Value::Int(_), Type::Scalar(s)) => !s.is_float(),
        (Value::F32(_), Type::Scalar(s)) => s.is_float(),
        (Value::Vector(l), Type::Vector { elem, lanes }) => {
            l.len() == usize::from(lanes) && lanes_fit(l, elem)
        }
        (Value::Tensor { shape, data }, Type::Tensor { elem, shape: want }) => {
            *shape == want && data.len() == want.elems() as usize && lanes_fit(data, elem)
        }
        _ => false,
    }
}

/// The truth value of a predicate-like input: `None` for poison, an
/// evaluation error naming `what` for anything not boolean or integer.
fn truth(v: Word, what: &str) -> Result<Option<bool>, SimError> {
    match v.as_int() {
        Some(i) => Ok(Some(i != 0)),
        None if v.is_poison() => Ok(None),
        None => Err(SimError::eval(format!("non-boolean {what}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::module::Module;

    /// A shell goes back to the pool with whatever visits its invocation
    /// still had marked; a slot or a far entry that survived `reset` would
    /// wake a node of the next invocation on that shell.
    #[test]
    fn reset_clears_the_calendar_and_the_far_heap() {
        let info = [3, 1, 0, 2].map(|pos| NodeInfo {
            latency: 1,
            ii: 1,
            max_pending: u32::MAX,
            pos,
            stamps: true,
        });
        let mut inv = ActiveInv::new(info.len(), &[8], &[true]);
        let cycle = 70;
        assert_eq!(inv.wake(&info, 0, cycle, cycle), cycle);
        assert_eq!(inv.wake(&info, 1, cycle + 5, cycle), cycle + 5);
        assert_eq!(inv.wake(&info, 2, cycle + CAL_HORIZON + 9, cycle), 111);
        // Cycle 100's slot (4) wraps below the current one (6).
        assert_eq!(inv.wake(&info, 3, cycle + 30, cycle), 100);
        assert!((100 % CAL_HORIZON) < (cycle % CAL_HORIZON));
        inv.park_adm(3);
        inv.ready.scan = 2;
        assert_eq!(inv.ready.wakes.far.len(), 1);
        assert_eq!(inv.ready.wakes.next_marked(cycle), cycle + 5);
        inv.reset();
        assert!(inv.ready.wakes.cal.iter().all(|&w| w == 0));
        assert!(inv.ready.wakes.far.is_empty() && inv.ready.adm.is_empty());
        assert_eq!(inv.ready.scan, -1);
        assert_eq!(inv.ready.wakes.next_marked(cycle), u64::MAX);
        assert!(!inv.nodes[3].parked);
    }

    /// A loop nest that touches no memory: the inner loop's tile is reused
    /// by four invocations.
    fn loop_nest() -> (Module, CompiledAccel) {
        let mut m = Module::new("stale");
        let mut b = FunctionBuilder::new("main", &[]).returns(Type::I64);
        let zero = (ValueRef::int(0), Type::I64);
        let total = b.for_loop_acc(zero.0, ValueRef::int(4), 1, &[zero], |b, i, outer| {
            let carried = [(outer[0], Type::I64)];
            b.for_loop_acc(zero.0, ValueRef::int(8), 1, &carried, |b, j, inner| {
                let term = b.mul(i, j);
                vec![b.add(inner[0], term)]
            })
        });
        b.ret(Some(total[0]));
        m.add_function(b.finish());
        let acc = translate(&m, &FrontendConfig::default()).expect("translate");
        let comp = CompiledAccel::compile(&acc).expect("seal");
        (m, comp)
    }

    /// Step `e` up to cycle `to` (idle cycles are stepped, not skipped) and
    /// list the cycles in which phase 4 ticked a tile, with the last tile
    /// it ticked in each.
    fn ticks(e: &mut Engine, to: u64) -> Vec<(u64, usize)> {
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        while e.cycle < to {
            let cycle = e.cycle;
            e.step(&mut scratch).expect("an idle step");
            if e.scan_g > 0 {
                out.push((cycle, e.scan_g - 1));
            }
        }
        out
    }

    /// Phase 4 ticks a tile in exactly the cycle its `tile_due` entry
    /// names, also when that is a calendar horizon or more ahead and the
    /// mark waits in `far`. The tiles here hold no invocation, so a tick
    /// changes nothing but `scan_g`, which is what the test reads.
    #[test]
    fn a_tile_due_past_the_horizon_ticks_in_exactly_its_cycle() {
        let (m, comp) = loop_nest();
        let cfg = SimConfig::default();
        let mut mem = Memory::from_module(&m);
        let mut e = Engine::new(&comp, &mut mem, &cfg);
        assert!(e.use_ready && e.tile_due.len() > 1);
        let g = e.tile_due.len() - 1;
        e.cycle = 50;
        let due = e.cycle + CAL_HORIZON + 7;
        e.set_due(g, due);
        assert_eq!(
            e.tile_cal.far.len(),
            1,
            "a mark past the horizon waits in far"
        );
        assert_eq!(e.tile_cal.next_marked(e.cycle), due);
        assert_eq!(ticks(&mut e, due + 40), [(due, g)]);
        assert!(e.tile_cal.far.is_empty());
        assert_eq!(e.tile_cal.next_marked(e.cycle - 1), u64::MAX, "all drained");
    }

    /// A wake marks a tile for cycle 10; the tile retires, is reactivated
    /// for cycle 3 and, after its pass there, sleeps until cycle 20. The
    /// mark for cycle 10 is stale by then: draining it ticks nothing, and
    /// it only ever makes the calendar's next marked cycle early, never
    /// late.
    #[test]
    fn a_stale_tile_mark_ticks_nothing() {
        let (m, comp) = loop_nest();
        let cfg = SimConfig::default();
        let mut mem = Memory::from_module(&m);
        let mut e = Engine::new(&comp, &mut mem, &cfg);
        let g = 0;
        e.set_due(g, 10); // a wake
        e.set_due(g, u64::MAX); // retired
        e.set_due(g, 3); // reactivated
        assert_eq!(ticks(&mut e, 4), [(3, g)]);
        assert_eq!(e.tile_cal.next_marked(3), 10, "the stale mark first");
        e.set_due(g, 20); // what the pass at cycle 3 left behind
        assert_eq!(ticks(&mut e, 11), []);
        assert_eq!(e.tile_cal.next_marked(10), 20, "after its drain");
        assert_eq!(ticks(&mut e, 30), [(20, g)]);
    }

    /// `next_event_cycle` answers from the ring's occupancy mask what a
    /// scan of every bucket from the current cycle on, and the far heap,
    /// would answer, over random schedules that wrap the ring and spill
    /// past its horizon. The events are stale `InstanceDone`s (the tiles
    /// hold no invocation), so stepping drains them and changes nothing
    /// else.
    #[test]
    fn next_event_cycle_matches_a_scan_of_the_ring() {
        let (m, comp) = loop_nest();
        let cfg = SimConfig::default();
        let mut mem = Memory::from_module(&m);
        let mut e = Engine::new(&comp, &mut mem, &cfg);
        let (task, tile) = e.tile_ids[0];
        let scan = |e: &Engine| {
            let near = (e.cycle..e.cycle + EV_HORIZON)
                .find(|&at| !e.ev_near[(at % EV_HORIZON) as usize].is_empty());
            let far = e.ev_far.peek().map(|Reverse(ev)| ev.at);
            near.into_iter().chain(far).min()
        };
        let mut rng = muir_core::rng::SplitMix64::new(0x0e1e);
        let mut scratch = Scratch::default();
        let (mut seen_near, mut seen_far) = (0, 0);
        for _ in 0..4_000 {
            if rng.below(8) == 0 {
                let at = e.cycle + 1 + rng.below(2 * EV_HORIZON);
                e.schedule(at, Ev::InstanceDone { task, tile, uid: 0 });
            }
            let want = scan(&e);
            assert_eq!(e.next_event_cycle(), want, "cycle {}", e.cycle);
            match want {
                Some(at) if at - e.cycle < EV_HORIZON => seen_near += 1,
                Some(_) => seen_far += 1,
                None => {}
            }
            e.step(&mut scratch).expect("a stale event is a no-op");
        }
        assert!(seen_near > 100 && seen_far > 100, "{seen_near} {seen_far}");
    }

    /// An `InstanceDone` that finds its tile free, or running a later
    /// invocation, changes nothing and is not an error.
    #[test]
    fn a_stale_instance_done_is_a_no_op() {
        let (m, comp) = loop_nest();
        // Run to the end, then again to two thirds of the way there, which
        // finds the inner loop's tile on its second invocation or later.
        let mut end = 0;
        for midway in [false, true] {
            let cfg = SimConfig {
                max_cycles: if midway { end / 3 * 2 } else { u64::MAX },
                ..SimConfig::default()
            };
            let mut mem = Memory::from_module(&m);
            let mut engine = Engine::new(&comp, &mut mem, &cfg);
            assert_eq!(engine.run(&[]).is_err(), midway);
            end = engine.cycle;
            let shown = |e: &Engine| {
                let tiles: Vec<_> = e
                    .tasks
                    .iter()
                    .flat_map(|t| &t.tiles)
                    .map(|t| {
                        t.as_deref()
                            .map(|inv| (inv.uid, inv.completed, inv.outstanding.len()))
                    })
                    .collect();
                let near: usize = e.ev_near.iter().map(Vec::len).sum();
                let events = (e.ev_occupied, near, e.ev_far.len());
                (tiles, e.tile_due.clone(), events, e.last_progress)
            };
            let before = shown(&engine);
            let live: Vec<u64> = before.0.iter().flatten().map(|t| t.0).collect();
            if midway {
                assert!(live.iter().any(|&uid| uid > 2), "a reused tile: {live:?}");
            } else {
                assert!(live.is_empty(), "every invocation retired");
            }
            for (g, &(task, tile)) in engine.tile_ids.clone().iter().enumerate() {
                // No invocation gets uid 0; `next_uid` is not out yet.
                for uid in [0, engine.next_uid] {
                    let ev = Ev::InstanceDone { task, tile, uid };
                    engine.dispatch_event(ev).expect("stale, not an error");
                }
                assert_eq!(shown(&engine), before, "tile {g}");
            }
        }
    }
}
