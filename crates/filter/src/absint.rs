//! The verifier's one abstract interpretation over the filter IR.
//!
//! [`interpret`] runs a structurally checked program on abstract values
//! instead of packets. Control flow is forward-only, so the CFG is a DAG
//! and one in-order pass *is* the fixpoint: by the time `pc` is visited
//! every predecessor has contributed its state, and no state is revisited.
//!
//! The state at one instruction holds, for each register, what it holds
//! — undefined on some path, a constant, a loaded packet field, or
//! anything — and its interval `[lo, hi]`, seeded from the natural range
//! of what it loads (a port is ≤ 0xFFFF, a flag ≤ 1, ...); and, for each
//! packet field, the values it may hold and the shared port sets it is
//! known to lie outside of. A merge point joins both parts, and each
//! conditional branch splits both parts along its two edges.
//!
//! Every value a field's fact can name is a constant the walk has met (a
//! branch's immediate, or a register's constant), and every set a
//! not-in fact names is one a `JInSet` probes; a program that reaches the
//! walk has at most [`MAX_INSNS`] instructions, each of which loads at most
//! one field and meets at most one constant or set. So the walk numbers
//! the fields, constants and sets it meets in tables of its own, and a
//! field's facts are two `u64` masks over them: a join is an OR (values)
//! and an AND (sets), a clone is a copy, and a branch edge keeps the
//! values for which the edge's relation holds. The masks of every state
//! live in one arena, a slot per instruction; registers and intervals sit
//! in a fixed array on the stack. The arena is kept per thread from one
//! walk to the next, so a warm verifier allocates nothing for it.
//!
//! Reachability has two strengths, kept apart so that every verdict is
//! the one two separate passes gave:
//!
//! * an edge the value sets refute is not followed: code reached only
//!   that way is [`VerifyError::Unreachable`], so a contradictory guard
//!   is rejected;
//! * an edge only the intervals refute is followed without interval
//!   facts: code reached only that way is [`Lint::Unreachable`] — the
//!   program still verifies, and that code adds nothing to the bound.
//!
//! The one walk yields the dataflow verdicts (undefined reads, missing
//! terminators, the policy at every `Accept`), the fields of the demux key
//! (folded from the `Accept` states), the bounded-state proofs (every map
//! index provably below its map's capacity, every operation fitting its
//! map's kind), the **static worst-case cycle bound** — the most cycles
//! any feasible path spends, in the unit of [`Insn::cost`] — and the
//! always/never-taken lints. One backward pass over the feasible edges it
//! recorded then finds dead stores. Lints are advisory (the program still
//! verifies); `plexus-verify` surfaces them.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt;

use crate::ir::{Field, FilterProgram, Insn, Reg, SetId, Src, Width, MAX_INSNS, NUM_REGS};
use crate::state::MapKind;
use crate::verify::{
    key_schema, FieldKey, KeySpec, KeyValues, Policy, Shape, VerifyError, KEY_FIELDS,
    MAX_ENUMERATED_KEYS,
};

/// An advisory finding: the program verifies, but contains provably
/// useless code. Surfaced by `plexus-verify` (and its `--lint-all` CI
/// gate) with instruction offsets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    /// No interval-feasible path reaches this instruction.
    Unreachable {
        /// Instruction index.
        pc: usize,
    },
    /// The value stored here is never read afterwards.
    DeadStore {
        /// Instruction index.
        pc: usize,
        /// The register written.
        reg: u8,
    },
    /// The branch condition is always true (fall-through is dead).
    AlwaysTaken {
        /// Instruction index.
        pc: usize,
    },
    /// The branch condition is always false (the jump is dead).
    NeverTaken {
        /// Instruction index.
        pc: usize,
    },
}

impl Lint {
    /// The instruction the lint is anchored to.
    pub fn pc(&self) -> usize {
        match self {
            Lint::Unreachable { pc }
            | Lint::DeadStore { pc, .. }
            | Lint::AlwaysTaken { pc }
            | Lint::NeverTaken { pc } => *pc,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lint::Unreachable { pc } => write!(f, "insn {pc}: unreachable (interval analysis)"),
            Lint::DeadStore { pc, reg } => {
                write!(f, "insn {pc}: dead store to r{reg} (value never read)")
            }
            Lint::AlwaysTaken { pc } => {
                write!(f, "insn {pc}: branch always taken (fall-through is dead)")
            }
            Lint::NeverTaken { pc } => {
                write!(f, "insn {pc}: branch never taken (the jump is dead)")
            }
        }
    }
}

/// What a register holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sym {
    /// Not written on some path here.
    Undef,
    /// A known constant.
    Const(u64),
    /// The current value of a packet field: its number in [`Walk::keys`].
    Field(u8),
    /// Anything.
    Unknown,
}

/// An inclusive value range `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Range {
    lo: u64,
    hi: u64,
}

impl Range {
    const fn span(lo: u64, hi: u64) -> Range {
        Range { lo, hi }
    }

    const fn exact(v: u64) -> Range {
        Range { lo: v, hi: v }
    }

    fn is_const(self) -> bool {
        self.lo == self.hi
    }
}

/// Natural range of a typed field load — the seed that makes the
/// intervals precise before any branch has run.
fn field_range(field: Field) -> Range {
    use Field::*;
    let hi = match field {
        EthDst | EthSrc => (1 << 48) - 1,
        EthType | FrameLen | IpPayloadLen | UdpPayloadLen | TcpPayloadLen => 0xFFFF,
        IpSrc | IpDst | UdpSrcAddr | UdpDstAddr | TcpSrcAddr | TcpDstAddr => u64::from(u32::MAX),
        IpProto => 0xFF,
        UdpSrcPort | UdpDstPort | TcpSrcPort | TcpDstPort => 0xFFFF,
        TcpFlagSyn | TcpFlagAck => 1,
    };
    Range::span(0, hi)
}

fn width_range(width: Width) -> Range {
    let hi = match width {
        Width::W8 => 0xFF,
        Width::W16 => 0xFFFF,
        Width::W32 => 0xFFFF_FFFF,
    };
    Range::span(0, hi)
}

/// Smallest all-ones mask covering every bit either operand's upper bound
/// can set — a sound upper bound for bitwise OR.
fn or_hi(a: u64, b: u64) -> u64 {
    let m = a | b;
    if m == 0 {
        0
    } else {
        u64::MAX >> m.leading_zeros()
    }
}

/// The interval half of a state: each register's range, and the most
/// cycles any path to here has spent.
#[derive(Clone, Copy, Debug)]
struct Bounds {
    regs: [Range; NUM_REGS],
    cycles: u32,
}

impl Bounds {
    fn src(&self, s: Src) -> Range {
        match s {
            Src::Imm(v) => Range::exact(v),
            Src::Reg(r) => self.regs[r.0 as usize],
        }
    }

    fn join(mut self, other: Bounds) -> Bounds {
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs) {
            *mine = Range::span(mine.lo.min(theirs.lo), mine.hi.max(theirs.hi));
        }
        self.cycles = self.cycles.max(other.cycles);
        self
    }
}

/// The relation one edge of a conditional branch learns: `a rel b`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rel {
    Eq,
    Ne,
    Lt,
    Ge,
    Gt,
    Le,
}

impl Rel {
    /// What the other edge of the same branch learns.
    fn negate(self) -> Rel {
        match self {
            Rel::Eq => Rel::Ne,
            Rel::Ne => Rel::Eq,
            Rel::Lt => Rel::Ge,
            Rel::Ge => Rel::Lt,
            Rel::Gt => Rel::Le,
            Rel::Le => Rel::Gt,
        }
    }

    fn holds(self, x: u64, y: u64) -> bool {
        match self {
            Rel::Eq => x == y,
            Rel::Ne => x != y,
            Rel::Lt => x < y,
            Rel::Ge => x >= y,
            Rel::Gt => x > y,
            Rel::Le => x <= y,
        }
    }

    /// Narrows `a` and `b` to the values for which `a rel b` can hold, or
    /// `None` when no values can.
    fn narrow(self, a: Range, b: Range) -> Option<(Range, Range)> {
        match self {
            Rel::Eq => {
                let meet = Range::span(a.lo.max(b.lo), a.hi.min(b.hi));
                (meet.lo <= meet.hi).then_some((meet, meet))
            }
            // Impossible only when both are the same single value. With
            // one side constant, trim a matching endpoint off the other.
            Rel::Ne => (!(a.is_const() && b.is_const() && a.lo == b.lo)).then(|| {
                let trim = |x: Range, c: Range| {
                    let mut t = x;
                    if c.is_const() && !x.is_const() {
                        if t.lo == c.lo {
                            t.lo += 1;
                        }
                        if t.hi == c.lo {
                            t.hi -= 1;
                        }
                    }
                    t
                };
                (trim(a, b), trim(b, a))
            }),
            Rel::Lt => (a.lo < b.hi).then(|| {
                (
                    Range::span(a.lo, a.hi.min(b.hi - 1)),
                    Range::span(b.lo.max(a.lo + 1), b.hi),
                )
            }),
            Rel::Ge => (a.hi >= b.lo).then(|| {
                (
                    Range::span(a.lo.max(b.lo), a.hi),
                    Range::span(b.lo, b.hi.min(a.hi)),
                )
            }),
            Rel::Gt => Rel::Lt.narrow(b, a).map(|(b, a)| (a, b)),
            Rel::Le => Rel::Ge.narrow(b, a).map(|(b, a)| (a, b)),
        }
    }
}

/// What one walk meets, each once, numbered in the order first met (the
/// port sets in id order): at most one per instruction, so at most
/// [`MAX_INSNS`], and any subset of them is a `u64` mask.
struct Table<T> {
    items: [T; MAX_INSNS],
    len: usize,
}

impl<T: Copy + PartialEq> Table<T> {
    fn new(fill: T) -> Table<T> {
        Table {
            items: [fill; MAX_INSNS],
            len: 0,
        }
    }

    fn find(&self, item: T) -> Option<usize> {
        self.items[..self.len].iter().position(|x| *x == item)
    }

    fn intern(&mut self, item: T) -> usize {
        self.find(item).unwrap_or_else(|| {
            self.items[self.len] = item;
            self.len += 1;
            self.len - 1
        })
    }
}

fn bit(i: usize) -> u64 {
    1 << i
}

/// The numbers of the bits set in `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// The abstract state at one program point, but for the fields' facts,
/// which are masks in the walk's arena ([`Walk::facts`]).
#[derive(Clone, Copy, Debug)]
struct Head {
    regs: [Sym; NUM_REGS],
    /// `None` where only edges the intervals refute lead.
    bounds: Option<Bounds>,
    /// Bit `k`: field `k` may hold only the values its value mask names. A
    /// field whose bit is clear may hold anything.
    known: u64,
}

impl Head {
    fn entry() -> Head {
        Head {
            regs: [Sym::Undef; NUM_REGS],
            bounds: Some(Bounds {
                regs: [Range::exact(0); NUM_REGS],
                cycles: 0,
            }),
            known: 0,
        }
    }

    /// What `r` holds; a read of a register some path leaves unwritten is
    /// an error.
    fn read(&self, r: Reg, at: usize, errors: &mut Vec<VerifyError>) -> Sym {
        let sym = self.regs[r.0 as usize];
        if sym == Sym::Undef {
            errors.push(VerifyError::UndefinedRegister { at, reg: r.0 });
        }
        sym
    }

    fn read_src(&self, s: Src, at: usize, errors: &mut Vec<VerifyError>) -> Sym {
        match s {
            Src::Imm(v) => Sym::Const(v),
            Src::Reg(r) => self.read(r, at, errors),
        }
    }

    /// Sets `dst` to `sym`, with `range` (ignored where the intervals do
    /// not reach).
    fn write(&mut self, dst: Reg, sym: Sym, range: Range) {
        self.regs[dst.0 as usize] = sym;
        if let Some(b) = &mut self.bounds {
            b.regs[dst.0 as usize] = range;
        }
    }

    /// Joins the registers, intervals and known fields of another path
    /// into this one.
    fn join(&mut self, other: &Head) {
        for (mine, theirs) in self.regs.iter_mut().zip(other.regs) {
            *mine = match (*mine, theirs) {
                (a, b) if a == b => a,
                (Sym::Undef, _) | (_, Sym::Undef) => Sym::Undef,
                _ => Sym::Unknown,
            };
        }
        self.bounds = match (self.bounds, other.bounds) {
            (Some(a), Some(b)) => Some(a.join(b)),
            (a, b) => a.or(b),
        };
        self.known &= other.known;
    }
}

/// What the walk proves of a program that passed `check_structure`.
pub(crate) struct Facts {
    /// The static worst-case cycle bound.
    pub(crate) bound: u32,
    /// Advisory findings, in instruction order.
    pub(crate) lints: Vec<Lint>,
    /// The demux key every reachable `Accept` proves: `None` when no
    /// `Accept` is reachable or none bounds a field of the kind's
    /// [`key_schema`] to a value set.
    pub(crate) key: Option<KeySpec>,
}

thread_local! {
    /// The fact arena, kept between walks: each walk takes it, clears it
    /// to its own size and gives it back, so a verification allocates for
    /// it only when a program needs more room than any before it.
    static ARENA: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Per-instruction feasible-edge mask bits, for the dead-store pass: the
/// intervals reach the instruction, and follow its fall-through edge and
/// its jump edge.
const REACHED: u8 = 1;
const FALLS: u8 = 2;
const JUMPS: u8 = 4;

fn jump_off(insn: &Insn) -> Option<u16> {
    match insn {
        Insn::Jeq { off, .. }
        | Insn::Jne { off, .. }
        | Insn::Jlt { off, .. }
        | Insn::Jgt { off, .. }
        | Insn::JInSet { off, .. }
        | Insn::Ja { off } => Some(*off),
        _ => None,
    }
}

/// One walk's storage.
struct Walk {
    /// The fields the program loads.
    keys: Table<FieldKey>,
    /// The constants the fields' value facts name.
    consts: Table<u64>,
    /// The port sets the program probes, in id order.
    sets: Table<SetId>,
    /// Each instruction's state, facts aside, once a path reaches it.
    heads: [Option<Head>; MAX_INSNS],
    /// The fields' facts, a slot per instruction and a last one for the
    /// taken edge of the branch being walked. A slot holds a value mask
    /// (over `consts`) per key, then a not-in mask (over `sets`) per key.
    facts: Vec<u64>,
}

impl Walk {
    /// The walk over `program`, its facts in `arena`.
    fn new(program: &FilterProgram, mut arena: Vec<u64>) -> Walk {
        let mut keys = Table::new(FieldKey::Field(Field::EthType));
        let mut sets = Table::new(0);
        for insn in &program.insns {
            match insn {
                Insn::Ld { field, .. } => _ = keys.intern(FieldKey::Field(*field)),
                Insn::LdPay { off, width, .. } => _ = keys.intern(FieldKey::Pay(*off, *width)),
                Insn::JInSet { set, .. } => _ = sets.intern(*set),
                _ => {}
            }
        }
        sets.items[..sets.len].sort_unstable();
        let slots = program.insns.len() + 1;
        arena.clear();
        arena.resize(slots * 2 * keys.len, 0);
        Walk {
            facts: arena,
            keys,
            consts: Table::new(0),
            sets,
            heads: [None; MAX_INSNS],
        }
    }

    /// Where key `k`'s value mask sits in `slot`; its not-in mask is
    /// `keys.len` further on.
    fn at(&self, slot: usize, k: usize) -> usize {
        2 * self.keys.len * slot + k
    }

    /// What a register holds after loading `key`.
    fn loaded(&self, key: FieldKey) -> Sym {
        Sym::Field(self.keys.find(key).expect("tabled before the walk") as u8)
    }

    /// Copies slot `from`'s facts into slot `to`.
    fn copy(&mut self, from: usize, to: usize) {
        let (from, to) = (self.at(from, 0), self.at(to, 0));
        self.facts.copy_within(from..from + 2 * self.keys.len, to);
    }

    /// The values `mask` names. Inserted one by one: collecting would sort
    /// them in a list of its own first.
    fn values(&self, mask: u64) -> BTreeSet<u64> {
        let mut values = BTreeSet::new();
        values.extend(bits(mask).map(|i| self.consts.items[i]));
        values
    }

    /// Flows the state `head` + the facts in slot `from` into instruction
    /// `to`: the first path to arrive sets it, later ones join it.
    fn flow(&mut self, to: usize, head: Head, from: usize) {
        match &mut self.heads[to] {
            Some(cur) => cur.join(&head),
            slot @ None => {
                *slot = Some(head);
                self.copy(from, to);
                return;
            }
        }
        let (to_at, from_at, n) = (self.at(to, 0), self.at(from, 0), self.keys.len);
        for k in 0..n {
            self.facts[to_at + k] |= self.facts[from_at + k];
            // A non-membership fact survives a join only if both paths
            // prove it.
            self.facts[to_at + n + k] &= self.facts[from_at + n + k];
        }
    }

    /// Narrows `head` + the facts in `slot` to the edge of a branch on
    /// which `a rel b` holds. Returns `false` when the value sets refute
    /// the edge; when only the intervals do, the state loses its bounds
    /// instead.
    fn assume(&mut self, head: &mut Head, slot: usize, rel: Rel, a: Reg, b: Src) -> bool {
        if let Some(bounds) = &mut head.bounds {
            match rel.narrow(bounds.regs[a.0 as usize], bounds.src(b)) {
                Some((na, nb)) => {
                    bounds.regs[a.0 as usize] = na;
                    if let Src::Reg(r) = b {
                        bounds.regs[r.0 as usize] = nb;
                    }
                }
                None => head.bounds = None,
            }
        }
        let b = match b {
            Src::Imm(v) => Sym::Const(v),
            Src::Reg(r) => head.regs[r.0 as usize],
        };
        // A field compared with a constant: `field rel c`, or `c rel field`
        // for the symmetric relations.
        let (k, c) = match (head.regs[a.0 as usize], b) {
            (Sym::Field(k), Sym::Const(c)) => (usize::from(k), c),
            (Sym::Const(c), Sym::Field(k)) if matches!(rel, Rel::Eq | Rel::Ne) => {
                (usize::from(k), c)
            }
            _ => return true,
        };
        let at = self.at(slot, k);
        if head.known & bit(k) != 0 {
            let held = bits(self.facts[at]).filter(|&i| rel.holds(self.consts.items[i], c));
            self.facts[at] = held.fold(0, |mask, i| mask | bit(i));
            self.facts[at] != 0
        } else {
            if rel == Rel::Eq {
                head.known |= bit(k);
                self.facts[at] = bit(self.consts.intern(c));
            }
            true
        }
    }

    /// Checks `policy` at the `Accept` at `pc`, whose state is `head` +
    /// slot `pc`.
    fn check_policy(&self, policy: &Policy, pc: usize, head: &Head, errors: &mut Vec<VerifyError>) {
        for (key, allowed) in policy.constraints() {
            let proven = (self.keys.find(key))
                .filter(|&k| head.known & bit(k) != 0)
                .map(|k| self.facts[self.at(pc, k)]);
            let allows = |v| allowed.clone().any(|a| a == v);
            let within = |mask| bits(mask).all(|i| allows(self.consts.items[i]));
            if !proven.is_some_and(within) {
                errors.push(VerifyError::PolicyViolation {
                    at: pc,
                    key,
                    allowed: allowed.collect(),
                    proven: proven.map(|mask| self.values(mask)),
                });
            }
        }
    }

    /// Folds the states at the `Accept`s in `accepts` (a mask of
    /// instructions) into the demux key they prove, per schema field:
    ///
    /// * if every accept proves `field ∈ S_i`, `In(S_1 ∪ ... ∪ S_n)` — a
    ///   sound over-approximation;
    /// * otherwise, if every accept proves `field ∉ set` for some common
    ///   shared sets, `NotIn` of those sets;
    /// * otherwise `Any`.
    ///
    /// While the cross product of the `In` sizes exceeds
    /// [`MAX_ENUMERATED_KEYS`], the largest `In` widens to `Any`, which
    /// bounds the guard's bucket footprint. The accept states do not
    /// depend on the policy (it is only *checked* at `Accept`), so neither
    /// does the key.
    fn key(&self, program: &FilterProgram, accepts: u64) -> Option<KeySpec> {
        if accepts == 0 {
            return None;
        }
        let schema = key_schema(program.kind);
        // Per schema field: the values (over `consts`) every accept bounds
        // it to, if each does; else the sets (over `sets`) every accept
        // proves it outside of.
        let (mut vals, mut notin) = ([None; KEY_FIELDS], [0u64; KEY_FIELDS]);
        for (f, key) in schema.iter().enumerate() {
            let Some(k) = self.keys.find(*key) else {
                continue;
            };
            let (mut known, mut v, mut n) = (true, 0, u64::MAX);
            for pc in bits(accepts) {
                let head = self.heads[pc].as_ref().expect("an accept keeps its state");
                known &= head.known & bit(k) != 0;
                v |= self.facts[self.at(pc, k)];
                n &= self.facts[self.at(pc, k) + self.keys.len];
            }
            if known {
                vals[f] = Some(v);
            } else {
                notin[f] = n;
            }
        }
        let size = |m: &u64| m.count_ones() as usize;
        while vals.iter().flatten().map(size).product::<usize>() > MAX_ENUMERATED_KEYS {
            let (_, widest) = (vals.iter().enumerate())
                .filter_map(|(f, m)| Some((size(m.as_ref()?), f)))
                .max()?;
            vals[widest] = None;
        }

        let mut values = KeyValues::with_capacity(vals.iter().flatten().map(size).sum());
        let mut sets = Vec::new();
        let mut shapes = [Shape::Any; KEY_FIELDS];
        let end = |len: usize| u8::try_from(len).expect("a key names at most 64 of each");
        for f in 0..schema.len() {
            let start = end(values.len());
            if let Some(mask) = vals[f] {
                values.extend(bits(mask).map(|i| self.consts.items[i]));
                values[usize::from(start)..].sort_unstable();
                shapes[f] = Shape::In(start, end(values.len()));
                continue;
            }
            let start = end(sets.len());
            sets.extend(
                bits(notin[f])
                    .filter_map(|i| program.sets.get(usize::from(self.sets.items[i])).cloned()),
            );
            if sets.len() > usize::from(start) {
                shapes[f] = Shape::NotIn(start, end(sets.len()));
            }
        }
        KeySpec::new(program.kind, shapes, values, sets.into_boxed_slice())
    }
}

/// Runs the one walk over `program`, pushing every violation (and every
/// `policy` obligation an `Accept` fails) onto `errors`. Precondition:
/// `check_structure` passed — registers, jump targets and set and map ids
/// are in range, and there are at most [`MAX_INSNS`] instructions.
pub(crate) fn interpret(
    program: &FilterProgram,
    policy: &Policy,
    errors: &mut Vec<VerifyError>,
) -> Facts {
    let len = program.insns.len();
    let mut walk = Walk::new(program, ARENA.take());
    walk.heads[0] = Some(Head::entry());
    // The slot a branch's taken edge is narrowed in; the fall-through edge
    // narrows the branch's own.
    let taken_slot = len;
    let mut edges = [0u8; MAX_INSNS];
    let (mut bound, mut lints, mut accepts) = (0, Vec::new(), 0u64);

    for (pc, insn) in program.insns.iter().enumerate() {
        let Some(mut st) = walk.heads[pc].take() else {
            errors.push(VerifyError::Unreachable { at: pc });
            continue;
        };
        match &mut st.bounds {
            Some(b) => {
                b.cycles += insn.cost();
                bound = bound.max(b.cycles);
                edges[pc] = REACHED;
            }
            None => lints.push(Lint::Unreachable { pc }),
        }

        // The states leaving along the jump edge and the fall-through
        // edge, with the slot their facts are in; `None` for an edge the
        // value sets refute (or that is not there).
        let (mut jump, mut fall) = (None, None);
        match insn {
            Insn::Ld { dst, field } => {
                let sym = walk.loaded(FieldKey::Field(*field));
                st.write(*dst, sym, field_range(*field));
                fall = Some((st, pc));
            }
            Insn::LdImm { dst, imm } => {
                st.write(*dst, Sym::Const(*imm), Range::exact(*imm));
                fall = Some((st, pc));
            }
            Insn::LdPay { dst, off, width } => {
                let sym = walk.loaded(FieldKey::Pay(*off, *width));
                st.write(*dst, sym, width_range(*width));
                fall = Some((st, pc));
            }
            Insn::And { dst, src } | Insn::Or { dst, src } => {
                let is_and = matches!(insn, Insn::And { .. });
                let sym = match (st.read(*dst, pc, errors), st.read_src(*src, pc, errors)) {
                    (Sym::Const(x), Sym::Const(y)) => {
                        Sym::Const(if is_and { x & y } else { x | y })
                    }
                    _ => Sym::Unknown,
                };
                let range = st.bounds.map_or(Range::span(0, u64::MAX), |b| {
                    let (x, y) = (b.regs[dst.0 as usize], b.src(*src));
                    if x.is_const() && y.is_const() {
                        Range::exact(if is_and { x.lo & y.lo } else { x.lo | y.lo })
                    } else if is_and {
                        // x & y never exceeds either operand.
                        Range::span(0, x.hi.min(y.hi))
                    } else {
                        // x | y is at least either operand, at most the
                        // all-ones cover of both upper bounds.
                        Range::span(x.lo.max(y.lo), or_hi(x.hi, y.hi))
                    }
                });
                st.write(*dst, sym, range);
                fall = Some((st, pc));
            }
            Insn::Jeq { a, b, .. }
            | Insn::Jne { a, b, .. }
            | Insn::Jlt { a, b, .. }
            | Insn::Jgt { a, b, .. } => {
                let rel = match insn {
                    Insn::Jeq { .. } => Rel::Eq,
                    Insn::Jne { .. } => Rel::Ne,
                    Insn::Jlt { .. } => Rel::Lt,
                    _ => Rel::Gt,
                };
                st.read(*a, pc, errors);
                st.read_src(*b, pc, errors);
                let mut taken = st;
                walk.copy(pc, taken_slot);
                let taken_ok = walk.assume(&mut taken, taken_slot, rel, *a, *b);
                let fall_ok = walk.assume(&mut st, pc, rel.negate(), *a, *b);
                if edges[pc] & REACHED != 0 {
                    if taken.bounds.is_none() {
                        lints.push(Lint::NeverTaken { pc });
                    }
                    if st.bounds.is_none() {
                        lints.push(Lint::AlwaysTaken { pc });
                    }
                }
                jump = taken_ok.then_some((taken, taken_slot));
                fall = fall_ok.then_some((st, pc));
            }
            Insn::JInSet { a, set, .. } => {
                // Set contents are dynamic, so the taken (member) edge
                // learns nothing. The fall-through edge learns "tested
                // value ∉ set"; a packet field records it as a fact.
                let sym = st.read(*a, pc, errors);
                walk.copy(pc, taken_slot);
                jump = Some((st, taken_slot));
                if let Sym::Field(k) = sym {
                    let s = walk.sets.find(*set).expect("tabled before the walk");
                    let at = walk.at(pc, usize::from(k)) + walk.keys.len;
                    walk.facts[at] |= bit(s);
                }
                fall = Some((st, pc));
            }
            Insn::Ja { .. } => jump = Some((st, pc)),
            Insn::MBump { dst, map, idx }
            | Insn::MLoad { dst, map, idx }
            | Insn::MTake { dst, map, idx } => {
                st.read(*idx, pc, errors);
                let range = match &st.bounds {
                    Some(b) => map_op(program, insn, pc, *map, b.regs[idx.0 as usize], errors),
                    None => Range::span(0, u64::MAX),
                };
                st.write(*dst, Sym::Unknown, range);
                fall = Some((st, pc));
            }
            Insn::Accept => {
                walk.check_policy(policy, pc, &st, errors);
                // The state stays, for the demux key.
                accepts |= bit(pc);
                walk.heads[pc] = Some(st);
            }
            Insn::Reject => {}
        }

        if let (Some((next, from)), Some(off)) = (jump, jump_off(insn)) {
            if next.bounds.is_some() {
                edges[pc] |= JUMPS;
            }
            walk.flow(pc + 1 + off as usize, next, from);
        }
        if let Some((next, from)) = fall {
            if pc + 1 == len {
                errors.push(VerifyError::MissingTerminator { at: pc });
            } else {
                if next.bounds.is_some() {
                    edges[pc] |= FALLS;
                }
                walk.flow(pc + 1, next, from);
            }
        }
    }

    dead_stores(program, &edges, &mut lints);
    lints.sort_by_key(Lint::pc);
    let key = walk.key(program, accepts);
    ARENA.set(walk.facts);
    Facts { bound, lints, key }
}

/// The bounded-state proof for one map operation: it fits the map's kind,
/// and the index range `idx` lies below the map's capacity. Returns the
/// range of the result.
fn map_op(
    program: &FilterProgram,
    insn: &Insn,
    pc: usize,
    map: u16,
    idx: Range,
    errors: &mut Vec<VerifyError>,
) -> Range {
    let decl = &program.maps[map as usize];
    let kind_ok = match insn {
        Insn::MBump { .. } => matches!(decl.kind(), MapKind::Counter),
        Insn::MTake { .. } => matches!(decl.kind(), MapKind::TokenBucket { .. }),
        _ => true,
    };
    if !kind_ok {
        errors.push(VerifyError::MapKindMismatch {
            at: pc,
            map,
            kind: decl.kind().name(),
        });
    }
    if idx.hi >= u64::from(decl.capacity()) {
        errors.push(VerifyError::MapIndexOutOfBounds {
            at: pc,
            map,
            hi: idx.hi,
            capacity: decl.capacity(),
        });
    }
    match insn {
        // A saturating bump returns at least 1.
        Insn::MBump { .. } => Range::span(1, u64::MAX),
        Insn::MTake { .. } => Range::span(0, 1),
        _ => match decl.kind() {
            MapKind::Counter => Range::span(0, u64::MAX),
            MapKind::TokenBucket { tokens, .. } => Range::span(0, u64::from(tokens)),
        },
    }
}

/// Backward liveness over the feasible edges `edges` records: a
/// side-effect-free write whose register no successor reads is a dead
/// store. Reverse program order is a reverse topological order of the
/// DAG, so one pass is exact.
fn dead_stores(program: &FilterProgram, edges: &[u8; MAX_INSNS], lints: &mut Vec<Lint>) {
    let mut live = [0u8; MAX_INSNS];
    let bit = |r: Reg| 1u8 << (r.0 % 8);
    for (pc, insn) in program.insns.iter().enumerate().rev() {
        if edges[pc] & REACHED == 0 {
            continue;
        }
        let mut out: u8 = 0;
        if edges[pc] & FALLS != 0 {
            out |= live[pc + 1];
        }
        if let Some(off) = jump_off(insn).filter(|_| edges[pc] & JUMPS != 0) {
            out |= live[pc + 1 + off as usize];
        }
        let (reads, write, pure_store): (u8, Option<Reg>, bool) = match insn {
            Insn::Ld { dst, .. } | Insn::LdImm { dst, .. } | Insn::LdPay { dst, .. } => {
                (0, Some(*dst), true)
            }
            Insn::And { dst, src } | Insn::Or { dst, src } => {
                let mut r = bit(*dst);
                if let Src::Reg(s) = src {
                    r |= bit(*s);
                }
                (r, Some(*dst), true)
            }
            Insn::Jeq { a, b, .. }
            | Insn::Jne { a, b, .. }
            | Insn::Jlt { a, b, .. }
            | Insn::Jgt { a, b, .. } => {
                let mut r = bit(*a);
                if let Src::Reg(s) = b {
                    r |= bit(*s);
                }
                (r, None, false)
            }
            Insn::JInSet { a, .. } => (bit(*a), None, false),
            // Map reads are pure; bump/take mutate state, so their
            // (possibly unused) result register is not a dead store.
            Insn::MLoad { dst, idx, .. } => (bit(*idx), Some(*dst), true),
            Insn::MBump { dst, idx, .. } | Insn::MTake { dst, idx, .. } => {
                (bit(*idx), Some(*dst), false)
            }
            Insn::Ja { .. } | Insn::Accept | Insn::Reject => (0, None, false),
        };
        if let Some(d) = write {
            if pure_store && out & bit(d) == 0 {
                lints.push(Lint::DeadStore { pc, reg: d.0 });
            }
            out &= !bit(d);
        }
        live[pc] = out | reads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::EventKind;
    use crate::state::StateMap;
    use crate::verify::{verify, VerifiedProgram};

    fn eth(insns: Vec<Insn>) -> FilterProgram {
        FilterProgram::new(EventKind::EthRecv, insns)
    }

    fn verified(p: &FilterProgram) -> VerifiedProgram {
        verify(p).unwrap_or_else(|report| panic!("{report}"))
    }

    fn rejected(p: &FilterProgram) -> Vec<VerifyError> {
        verify(p).expect_err("must be rejected").errors
    }

    #[test]
    fn masked_index_proves_in_bounds() {
        let maps = vec![StateMap::new("flows", MapKind::Counter, 64)];
        let p = FilterProgram::new(
            EventKind::EthRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::EthType,
                },
                Insn::And {
                    dst: Reg(0),
                    src: Src::Imm(0x3F),
                },
                Insn::MBump {
                    dst: Reg(1),
                    map: 0,
                    idx: Reg(0),
                },
                Insn::Accept,
            ],
        )
        .with_state(maps, 64 * 8);
        let vp = verified(&p);
        assert_eq!(vp.state_bytes(), 512);
        assert_eq!(vp.static_bound(), 1 + 1 + 6 + 1);
    }

    #[test]
    fn unmasked_index_is_rejected() {
        let maps = vec![StateMap::new("flows", MapKind::Counter, 64)];
        let p = FilterProgram::new(
            EventKind::EthRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::EthType, // up to 0xFFFF, capacity only 64
                },
                Insn::MBump {
                    dst: Reg(1),
                    map: 0,
                    idx: Reg(0),
                },
                Insn::Accept,
            ],
        )
        .with_state(maps, 64 * 8);
        assert!(rejected(&p).iter().any(|e| matches!(
            e,
            VerifyError::MapIndexOutOfBounds {
                hi: 0xFFFF,
                capacity: 64,
                ..
            }
        )));
    }

    #[test]
    fn over_budget_state_is_rejected() {
        let maps = vec![StateMap::new("flows", MapKind::Counter, 64)];
        let p = eth(vec![Insn::Accept]).with_state(maps, 100);
        assert!(rejected(&p).iter().any(|e| matches!(
            e,
            VerifyError::StateOverBudget {
                bytes: 512,
                budget: 100
            }
        )));
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let maps = vec![StateMap::new("flows", MapKind::Counter, 4)];
        let p = FilterProgram::new(
            EventKind::EthRecv,
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::MTake {
                    dst: Reg(1),
                    map: 0,
                    idx: Reg(0),
                },
                Insn::Accept,
            ],
        )
        .with_state(maps, 32);
        assert!(rejected(&p)
            .iter()
            .any(|e| matches!(e, VerifyError::MapKindMismatch { .. })));
    }

    #[test]
    fn constant_branches_lint_and_tighten_the_bound() {
        // r0 = 5; if r0 == 5 goto Accept; (dead) LdPay; LdPay; Reject
        let p = eth(vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 5,
            },
            Insn::Jeq {
                a: Reg(0),
                b: Src::Imm(5),
                off: 2,
            },
            Insn::LdPay {
                dst: Reg(1),
                off: 0,
                width: Width::W32,
            },
            Insn::Reject,
            Insn::Accept,
        ]);
        let vp = verified(&p);
        assert!(vp.lints().contains(&Lint::AlwaysTaken { pc: 1 }));
        assert!(vp.lints().contains(&Lint::Unreachable { pc: 2 }));
        assert!(vp.lints().contains(&Lint::Unreachable { pc: 3 }));
        // Bound counts only the feasible path: LdImm + Jeq + Accept.
        assert_eq!(vp.static_bound(), 3);
    }

    #[test]
    fn flag_range_makes_impossible_compare_a_lint() {
        // A TCP flag is 0/1; comparing it against 2 never takes.
        let p = FilterProgram::new(
            EventKind::TcpRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::TcpFlagSyn,
                },
                Insn::Jeq {
                    a: Reg(0),
                    b: Src::Imm(2),
                    off: 1,
                },
                Insn::Accept,
                Insn::Reject,
            ],
        );
        let vp = verified(&p);
        assert!(vp.lints().contains(&Lint::NeverTaken { pc: 1 }));
        assert!(vp.lints().contains(&Lint::Unreachable { pc: 3 }));
    }

    #[test]
    fn dead_store_is_linted() {
        let p = eth(vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 9,
            },
            Insn::Accept,
        ]);
        assert!(verified(&p)
            .lints()
            .contains(&Lint::DeadStore { pc: 0, reg: 1 }));
    }

    #[test]
    fn range_refinement_follows_lt_chains() {
        // port < 1024 on the taken edge, then a membership bump indexed by
        // the port stays within a 1024-slot map.
        let maps = vec![StateMap::new("ports", MapKind::Counter, 1024)];
        let p = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::UdpDstPort,
                },
                Insn::Jlt {
                    a: Reg(0),
                    b: Src::Imm(1024),
                    off: 1,
                },
                Insn::Reject,
                Insn::MBump {
                    dst: Reg(1),
                    map: 0,
                    idx: Reg(0),
                },
                Insn::Accept,
            ],
        )
        .with_state(maps, 8192);
        // The refined [0, 1023] interval proves the access in bounds with
        // no mask instruction at all.
        verified(&p);
    }

    #[test]
    fn clean_program_has_no_lints() {
        let p = eth(vec![
            Insn::Ld {
                dst: Reg(0),
                field: Field::EthType,
            },
            Insn::Jne {
                a: Reg(0),
                b: Src::Imm(0x0800),
                off: 1,
            },
            Insn::Accept,
            Insn::Reject,
        ]);
        let vp = verified(&p);
        assert!(vp.lints().is_empty(), "{:?}", vp.lints());
        assert_eq!(vp.static_bound(), 3);
    }

    /// Which refutation reaches how far: code no CFG path reaches, and
    /// code only the value sets refute, are `Unreachable` errors; code
    /// only the intervals refute verifies, is linted, and adds nothing to
    /// the bound.
    #[test]
    fn value_sets_reject_what_they_refute_and_intervals_only_lint() {
        let ld = |dst, field| Insn::Ld {
            dst: Reg(dst),
            field,
        };
        // A taken edge only the intervals refute, into the longer path:
        // the structural bound is Ld + jump + LdPay + Accept = 5 cycles,
        // the feasible one Ld + jump + Reject = 3.
        let refuted_by_range = |field, jump| {
            vec![
                ld(0, field),
                jump,
                Insn::Reject,
                Insn::LdPay {
                    dst: Reg(1),
                    off: 0,
                    width: Width::W32,
                },
                Insn::Accept,
            ]
        };
        let udp = |insns| FilterProgram::new(EventKind::UdpRecv, insns);
        let tcp = |insns| FilterProgram::new(EventKind::TcpRecv, insns);
        enum Expect {
            /// Rejected, with an `Unreachable` error at this instruction.
            Error(usize),
            /// Verifies; the `LdPay` at 3 is linted and left out of the bound.
            Lint,
        }
        let table = [
            (
                "no CFG path",
                udp(vec![Insn::Ja { off: 1 }, Insn::Reject, Insn::Accept]),
                Expect::Error(1),
            ),
            (
                "port == 80, then port != 80 through a second load",
                udp(vec![
                    ld(0, Field::UdpDstPort),
                    Insn::Jne {
                        a: Reg(0),
                        b: Src::Imm(80),
                        off: 4,
                    },
                    // r1 is a fresh [0, 0xFFFF] to the intervals, but the
                    // field's value set is already {80}.
                    ld(1, Field::UdpDstPort),
                    Insn::Jne {
                        a: Reg(1),
                        b: Src::Imm(80),
                        off: 1,
                    },
                    Insn::Accept,
                    Insn::Accept,
                    Insn::Reject,
                ]),
                Expect::Error(5),
            ),
            (
                "port < 0",
                udp(refuted_by_range(
                    Field::UdpDstPort,
                    Insn::Jlt {
                        a: Reg(0),
                        b: Src::Imm(0),
                        off: 1,
                    },
                )),
                Expect::Lint,
            ),
            (
                "SYN == 2",
                tcp(refuted_by_range(
                    Field::TcpFlagSyn,
                    Insn::Jeq {
                        a: Reg(0),
                        b: Src::Imm(2),
                        off: 1,
                    },
                )),
                Expect::Lint,
            ),
        ];
        for (name, program, expected) in table {
            match expected {
                Expect::Error(at) => assert!(
                    rejected(&program).contains(&VerifyError::Unreachable { at }),
                    "{name}: expected insn {at} to be an unreachable error"
                ),
                Expect::Lint => {
                    let vp = verified(&program);
                    assert!(
                        vp.lints().contains(&Lint::Unreachable { pc: 3 }),
                        "{name}: {:?}",
                        vp.lints()
                    );
                    assert_eq!(vp.static_bound(), 3, "{name}");
                }
            }
        }
    }
}
