//! Install-time guard compilation: the fused, direct-threaded tier.
//!
//! After [`crate::verify`] accepts a program, [`compile`] lowers the IR
//! into a flat array of pre-resolved op thunks (threaded code): every
//! instruction becomes one [`Op`] that already knows its operands —
//! immediates folded, payload load ranges pre-computed, port sets and
//! state maps resolved to their shared handles, branch targets resolved
//! to op indices — so evaluation is a tight dispatch loop with no
//! decode, no per-step fuel check, no bounds checks on operands the
//! verifier already proved in range, and the packet's payload head
//! fetched once per evaluation instead of once per load.
//!
//! Two peephole fusions collapse the common shapes the builder emits:
//!
//! * **load + branch** — `Ld`/`LdPay` immediately consumed by a compare
//!   against an immediate (or a `JInSet` probe) becomes a single op, so
//!   the dominant `field == const` test costs one dispatch;
//! * **mask + state op** — the `And dst, #mask` that canonicalizes a map
//!   index fuses into the following `MBump`/`MLoad`/`MTake`, so a
//!   counter bump or token take is one direct [`StateMap`] slot op.
//!
//! A third pass forms *superinstructions*: a maximal fall-through run of
//! fused load-compares (the shape every conjunction compiles to) is
//! collapsed into a single [`Op::Run`] evaluated by a homogeneous inner
//! loop. A whole `a == x && b == y && …` guard then costs one dispatch
//! — the per-op indirect branch, the dominant cost of any threaded
//! interpreter, is paid once per conjunction instead of once per test.
//!
//! A compiled program is one allocation, its op list: a run's tests sit in
//! the list right after the run, and the passes before it work in arrays
//! bounded by [`MAX_INSNS`], which no verified program exceeds. That bound
//! also keeps the list dense: an op names registers as `u8`s and other ops
//! as `u16` indices, so none is wider than four words.
//!
//! The tier is *observationally identical* to the interpreter: same
//! verdicts, same state-map mutations, and the same metered cycle count,
//! because each op stages exactly the [`crate::ir::Insn::cost`] of the
//! instructions it covers. The interpreter's per-step fuel check is the
//! one thing elided — soundly, because verification proves the whole
//! program's cost fits [`crate::ir::MAX_COST`] and forward-only control
//! flow runs each instruction at most once. Compilation is only
//! reachable through verification ([`crate::verify::VerifiedProgram`]
//! owns the compiled form), which is also what justifies the direct
//! register indexing: the verifier has already bounded every register
//! number below [`NUM_REGS`].

use std::fmt;

use crate::eval::Packet;
use crate::ir::{EventKind, Field, FilterProgram, Insn, PortSet, Src, Width, MAX_INSNS, NUM_REGS};
use crate::state::StateMap;

/// The register file a compiled program threads through its ops.
type Regs = [u64; NUM_REGS];

/// What [`compile`] did to a program — reported by `plexus-verify
/// --explain` and useful for asserting fusion actually fires.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Op thunks in the compiled body: one per instruction, minus one
    /// per fusion.
    pub thunks: u32,
    /// Immediate operands folded into their op (`LdImm`, ALU and
    /// compare immediates).
    pub folded_consts: u32,
    /// `And #mask` + `MBump`/`MLoad`/`MTake` pairs fused into direct
    /// state-map slot ops.
    pub fused_state_ops: u32,
    /// `Ld`/`LdPay` + compare/`JInSet` pairs fused into single
    /// load-and-branch ops.
    pub fused_loads: u32,
}

/// A pre-resolved comparison, branch-free to apply.
#[derive(Clone, Copy)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Gt,
}

impl Cmp {
    #[inline(always)]
    fn apply(self, a: u64, b: u64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Gt => a > b,
        }
    }
}

/// How a load op produces its value: a typed field via the packet's
/// accessor, or a big-endian load from the payload head (fetched once
/// per evaluation) — specialized per width at compile time, so each is
/// a constant-length slice check and a `from_be_bytes`, not a
/// variable-length byte fold.
///
/// Four bytes: a payload offset is below [`crate::ir::PAY_WINDOW`], so a
/// `u16` holds it.
#[derive(Clone, Copy)]
enum LoadKind {
    Field(Field),
    Pay8 { start: u16 },
    Pay16 { start: u16 },
    Pay32 { start: u16 },
}

impl LoadKind {
    fn cost(&self) -> u32 {
        match self {
            LoadKind::Field(_) => 1,
            _ => 2,
        }
    }

    #[inline(always)]
    fn get<'p>(self, pkt: &'p dyn Packet, head: &mut Option<&'p [u8]>) -> Option<u64> {
        match self {
            LoadKind::Field(f) => pkt.field(f),
            LoadKind::Pay8 { start } => {
                let start = usize::from(start);
                head_of(pkt, head).get(start).map(|b| u64::from(*b))
            }
            LoadKind::Pay16 { start } => {
                let start = usize::from(start);
                head_of(pkt, head)
                    .get(start..start + 2)
                    .map(|b| u64::from(u16::from_be_bytes(b.try_into().expect("2-byte slice"))))
            }
            LoadKind::Pay32 { start } => {
                let start = usize::from(start);
                head_of(pkt, head)
                    .get(start..start + 4)
                    .map(|b| u64::from(u32::from_be_bytes(b.try_into().expect("4-byte slice"))))
            }
        }
    }
}

/// One test of an [`Op::Run`] superinstruction: the payload of a
/// [`Op::FusedCmp`] minus the fall-through target, which is implicit
/// (the next test, or the run's `next` after the last).
struct CmpEntry {
    d: u8,
    load: LoadKind,
    lc: u32,
    v: u64,
    cmp: Cmp,
    /// Branch-taken target, an op index.
    t: u16,
}

/// A [`StateMap`] slot operation — the same calls the interpreter makes,
/// so refill arithmetic and saturation are shared, not reimplemented.
type StateFn = fn(&StateMap, u64, u64) -> Option<u64>;

/// One pre-resolved op thunk. Branch targets (`t`/`f`) are op indices;
/// straight-line ops implicitly continue at the next op. Costs are the
/// covered instructions' [`Insn::cost`], staged exactly where the
/// interpreter stages them.
enum Op {
    /// Unfused `Ld`/`LdPay`; a missing value rejects with `c` charged.
    Load {
        d: u8,
        load: LoadKind,
        c: u32,
    },
    LdImm {
        d: u8,
        v: u64,
    },
    AndImm {
        d: u8,
        v: u64,
    },
    AndReg {
        d: u8,
        r: u8,
    },
    OrImm {
        d: u8,
        v: u64,
    },
    OrReg {
        d: u8,
        r: u8,
    },
    CmpImm {
        a: u8,
        v: u64,
        cmp: Cmp,
        t: u16,
        f: u16,
    },
    CmpReg {
        a: u8,
        r: u8,
        cmp: Cmp,
        t: u16,
        f: u16,
    },
    InSet {
        a: u8,
        set: PortSet,
        t: u16,
        f: u16,
    },
    Ja {
        t: u16,
    },
    /// Fused load + compare-immediate + branch.
    FusedCmp {
        d: u8,
        load: LoadKind,
        lc: u32,
        v: u64,
        cmp: Cmp,
        t: u16,
        f: u16,
    },
    /// A superinstruction: a fall-through run of fused load-compares
    /// evaluated by one homogeneous inner loop — the `tests` ops after it.
    /// Branch-taken exits to the test's own target; surviving every test
    /// continues at `next`.
    Run {
        tests: u16,
        next: u16,
    },
    /// One test of the [`Op::Run`] before it; never dispatched to.
    RunTest(CmpEntry),
    /// Fused load + set-membership probe + branch.
    FusedInSet {
        d: u8,
        load: LoadKind,
        lc: u32,
        set: PortSet,
        t: u16,
        f: u16,
    },
    /// Unfused `MBump`/`MLoad`/`MTake` on a resolved map handle.
    Map {
        d: u8,
        i: u8,
        op: StateFn,
        m: StateMap,
        c: u32,
    },
    /// Fused `And #mask` + map op: one direct slot operation.
    FusedMap {
        d: u8,
        mask: u64,
        md: u8,
        op: StateFn,
        m: StateMap,
        c: u32,
    },
    /// Terminal: `Accept`/`Reject` (`extra` 1), falling off the end
    /// (`extra` 0), or a charged reject for an unresolvable set/map id
    /// (unreachable once verified).
    Halt {
        accept: bool,
        extra: u32,
    },
}

// An op is at most four words: registers are `u8`s, op indices `u16`s
// (a program has at most `MAX_INSNS + 1` ops), a load four bytes, and a
// port set or state map one shared handle.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

/// A verified guard program lowered to threaded code at install time.
///
/// Constructed only by [`crate::verify`] (every
/// [`crate::verify::VerifiedProgram`] carries one); evaluated by the
/// dispatcher's compiled tier. [`CompiledProgram::eval`] returns exactly
/// what [`crate::eval::eval_metered`] returns for the same packet, time,
/// and shared state — the differential property suite holds the two
/// tiers to that.
pub struct CompiledProgram {
    kind: EventKind,
    ops: Vec<Op>,
    stats: CompileStats,
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("kind", &self.kind)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl CompiledProgram {
    /// Evaluates the compiled tier: verdict plus metered cycles, with
    /// the same totals the interpreter would report. A kind mismatch
    /// rejects at zero cost, exactly like [`crate::eval::eval_metered`].
    pub fn eval(&self, pkt: &dyn Packet, now_ns: u64) -> (bool, u32) {
        if pkt.kind() != self.kind {
            return (false, 0);
        }
        // The payload head is fetched through the packet's virtual call
        // at most once per evaluation, and only on the first op that
        // actually reads it — a guard that rejects on a field test never
        // pays for it.
        let mut head: Option<&[u8]> = None;
        let mut regs: Regs = [0; NUM_REGS];
        let mut spent = 0u32;
        let mut pc = 0usize;
        'dispatch: loop {
            match &self.ops[pc] {
                Op::Run { tests, next } => {
                    for op in &self.ops[pc + 1..=pc + usize::from(*tests)] {
                        let Op::RunTest(e) = op else {
                            unreachable!("a run's tests follow it");
                        };
                        spent += e.lc;
                        let Some(x) = e.load.get(pkt, &mut head) else {
                            return (false, spent);
                        };
                        regs[usize::from(e.d)] = x;
                        spent += 1;
                        if e.cmp.apply(x, e.v) {
                            pc = usize::from(e.t);
                            continue 'dispatch;
                        }
                    }
                    pc = usize::from(*next);
                }
                Op::FusedCmp {
                    d,
                    load,
                    lc,
                    v,
                    cmp,
                    t,
                    f,
                } => {
                    spent += lc;
                    let Some(x) = load.get(pkt, &mut head) else {
                        return (false, spent);
                    };
                    regs[usize::from(*d)] = x;
                    spent += 1;
                    pc = usize::from(if cmp.apply(x, *v) { *t } else { *f });
                }
                Op::FusedInSet {
                    d,
                    load,
                    lc,
                    set,
                    t,
                    f,
                } => {
                    spent += lc;
                    let Some(x) = load.get(pkt, &mut head) else {
                        return (false, spent);
                    };
                    regs[usize::from(*d)] = x;
                    spent += 4;
                    pc = usize::from(if in_set(set, x) { *t } else { *f });
                }
                Op::Load { d, load, c } => {
                    spent += c;
                    let Some(x) = load.get(pkt, &mut head) else {
                        return (false, spent);
                    };
                    regs[usize::from(*d)] = x;
                    pc += 1;
                }
                Op::LdImm { d, v } => {
                    regs[usize::from(*d)] = *v;
                    spent += 1;
                    pc += 1;
                }
                Op::AndImm { d, v } => {
                    regs[usize::from(*d)] &= *v;
                    spent += 1;
                    pc += 1;
                }
                Op::AndReg { d, r } => {
                    regs[usize::from(*d)] &= regs[usize::from(*r)];
                    spent += 1;
                    pc += 1;
                }
                Op::OrImm { d, v } => {
                    regs[usize::from(*d)] |= *v;
                    spent += 1;
                    pc += 1;
                }
                Op::OrReg { d, r } => {
                    regs[usize::from(*d)] |= regs[usize::from(*r)];
                    spent += 1;
                    pc += 1;
                }
                Op::CmpImm { a, v, cmp, t, f } => {
                    spent += 1;
                    let taken = cmp.apply(regs[usize::from(*a)], *v);
                    pc = usize::from(if taken { *t } else { *f });
                }
                Op::CmpReg { a, r, cmp, t, f } => {
                    spent += 1;
                    let taken = cmp.apply(regs[usize::from(*a)], regs[usize::from(*r)]);
                    pc = usize::from(if taken { *t } else { *f });
                }
                Op::InSet { a, set, t, f } => {
                    spent += 4;
                    let taken = in_set(set, regs[usize::from(*a)]);
                    pc = usize::from(if taken { *t } else { *f });
                }
                Op::Ja { t } => {
                    spent += 1;
                    pc = usize::from(*t);
                }
                Op::Map { d, i, op, m, c } => {
                    spent += c;
                    match op(m, regs[usize::from(*i)], now_ns) {
                        Some(v) => {
                            regs[usize::from(*d)] = v;
                            pc += 1;
                        }
                        None => return (false, spent),
                    }
                }
                Op::FusedMap {
                    d,
                    mask,
                    md,
                    op,
                    m,
                    c,
                } => {
                    spent += 1; // the And
                    let idx = regs[usize::from(*d)] & mask;
                    regs[usize::from(*d)] = idx;
                    spent += c;
                    match op(m, idx, now_ns) {
                        Some(v) => {
                            regs[usize::from(*md)] = v;
                            pc += 1;
                        }
                        None => return (false, spent),
                    }
                }
                Op::Halt { accept, extra } => return (*accept, spent + extra),
                Op::RunTest(_) => unreachable!("a run's tests are walked by the run"),
            }
        }
    }

    /// What compilation folded and fused.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Dispatched ops in the compiled body after superinstruction
    /// formation — the number of indirect branches a full walk costs,
    /// as opposed to [`CompileStats::thunks`] which counts before runs
    /// are coalesced.
    pub fn ops(&self) -> usize {
        (self.ops.iter())
            .filter(|op| !matches!(op, Op::RunTest(_)))
            .count()
    }

    /// The event kind the program filters.
    pub fn kind(&self) -> EventKind {
        self.kind
    }
}

/// The per-eval payload-head cache: one virtual `head()` call on first
/// use, shared by every later payload load of the same evaluation.
#[inline(always)]
fn head_of<'p>(pkt: &'p dyn Packet, cache: &mut Option<&'p [u8]>) -> &'p [u8] {
    match cache {
        Some(h) => h,
        None => {
            let h = pkt.head();
            *cache = Some(h);
            h
        }
    }
}

/// The membership test [`Insn::JInSet`] performs, shared with the
/// interpreter's semantics bit for bit.
#[inline(always)]
fn in_set(ports: &PortSet, v: u64) -> bool {
    u16::try_from(v).map(|p| ports.contains(p)).unwrap_or(false)
}

fn load_op(insn: &Insn) -> Option<(u8, LoadKind)> {
    match insn {
        Insn::Ld { dst, field } => Some((dst.0, LoadKind::Field(*field))),
        Insn::LdPay { dst, off, width } => {
            let start = *off;
            let load = match width {
                Width::W8 => LoadKind::Pay8 { start },
                Width::W16 => LoadKind::Pay16 { start },
                Width::W32 => LoadKind::Pay32 { start },
            };
            Some((dst.0, load))
        }
        _ => None,
    }
}

/// Whether `insn` + `next` is the mask + state-op shape fusion 1 covers.
fn fuses_state(insn: &Insn, next: &Insn, program: &FilterProgram) -> bool {
    let Insn::And {
        dst,
        src: Src::Imm(_),
    } = insn
    else {
        return false;
    };
    match next {
        Insn::MBump { map, idx, .. }
        | Insn::MLoad { map, idx, .. }
        | Insn::MTake { map, idx, .. } => {
            idx.0 == dst.0 && program.maps.get(*map as usize).is_some()
        }
        _ => false,
    }
}

/// Whether `insn` + `next` is the load + branch shape fusion 2 covers.
fn fuses_load(insn: &Insn, next: &Insn, program: &FilterProgram) -> bool {
    let Some((d, _)) = load_op(insn) else {
        return false;
    };
    match next {
        Insn::Jeq {
            a, b: Src::Imm(_), ..
        }
        | Insn::Jne {
            a, b: Src::Imm(_), ..
        }
        | Insn::Jlt {
            a, b: Src::Imm(_), ..
        }
        | Insn::Jgt {
            a, b: Src::Imm(_), ..
        } => a.0 == d,
        Insn::JInSet { a, set, .. } => a.0 == d && program.sets.get(*set as usize).is_some(),
        _ => false,
    }
}

/// Resolves a map instruction to its [`StateMap`] slot operation.
fn state_op(insn: &Insn) -> StateFn {
    match insn {
        Insn::MBump { .. } => |m, i, _| m.bump(i),
        Insn::MLoad { .. } => |m, i, _| m.load(i),
        _ => |m, i, now| m.take(i, now).map(u64::from),
    }
}

/// Pass 3: superinstruction formation. A maximal fall-through run of
/// [`Op::FusedCmp`] ops — each falling through to the next — collapses
/// into one [`Op::Run`], so a whole conjunction costs a single dispatch.
///
/// An op may be absorbed as a non-head member only if fall-through from
/// the previous member is the *only* way control reaches it; any op some
/// branch lands on stays addressable (it may head its own run). Indices
/// shift when runs compress the array, so every surviving target is
/// remapped through `remap` at the end. The ops move out of `ops` into the
/// one list the program keeps, sized exactly.
fn coalesce_runs(ops: &mut [Option<Op>]) -> Vec<Op> {
    let n = ops.len();
    // Which ops are entered other than by falling through from the
    // fused compare directly above them.
    let mut entered = [false; MAX_INSNS + 1];
    for (idx, op) in ops.iter().enumerate() {
        match op {
            Some(Op::FusedCmp { t, f, .. }) => {
                entered[usize::from(*t)] = true;
                if usize::from(*f) != idx + 1 {
                    entered[usize::from(*f)] = true;
                }
            }
            Some(
                Op::CmpImm { t, f, .. }
                | Op::CmpReg { t, f, .. }
                | Op::InSet { t, f, .. }
                | Op::FusedInSet { t, f, .. },
            ) => {
                entered[usize::from(*t)] = true;
                entered[usize::from(*f)] = true;
            }
            Some(Op::Ja { t }) => entered[usize::from(*t)] = true,
            _ => {}
        }
    }

    // The length of the fall-through fused-compare run each op heads, if
    // it heads one of two or more.
    let mut run = [0usize; MAX_INSNS + 1];
    let mut runs = 0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j < n
            && matches!(&ops[j], Some(Op::FusedCmp { f, .. }) if usize::from(*f) == j + 1)
            && (j == i || !entered[j])
        {
            j += 1;
        }
        if j - i >= 2 {
            run[i] = j - i;
            runs += 1;
            i = j;
        } else {
            i += 1;
        }
    }

    let mut remap = [0u16; MAX_INSNS + 2];
    let mut out: Vec<Op> = Vec::with_capacity(n + runs);
    let mut i = 0;
    while i < n {
        remap[i] = op_index(out.len());
        let tests = run[i];
        if tests == 0 {
            out.push(ops[i].take().expect("each op moves exactly once"));
            i += 1;
            continue;
        }
        // The op after the run is never absorbed elsewhere (the run
        // stopped there), so its remap entry is a real op.
        out.push(Op::Run {
            tests: op_index(tests),
            next: op_index(i + tests),
        });
        for k in i..i + tests {
            remap[k] = remap[i];
            let Some(Op::FusedCmp {
                d,
                load,
                lc,
                v,
                cmp,
                t,
                ..
            }) = ops[k].take()
            else {
                unreachable!("the run extent checked the shape");
            };
            out.push(Op::RunTest(CmpEntry {
                d,
                load,
                lc,
                v,
                cmp,
                t,
            }));
        }
        i += tests;
    }

    for op in &mut out {
        match op {
            Op::CmpImm { t, f, .. }
            | Op::CmpReg { t, f, .. }
            | Op::InSet { t, f, .. }
            | Op::FusedCmp { t, f, .. }
            | Op::FusedInSet { t, f, .. } => {
                *t = remap[usize::from(*t)];
                *f = remap[usize::from(*f)];
            }
            Op::Ja { t } => *t = remap[usize::from(*t)],
            Op::Run { next, .. } => *next = remap[usize::from(*next)],
            Op::RunTest(e) => e.t = remap[usize::from(e.t)],
            _ => {}
        }
    }
    out
}

/// Branch target for the instruction at `at` jumping `off` forward,
/// resolved to an op index. A target past the end behaves like falling
/// off the end (the fail op), exactly like the interpreter's `pc < len`
/// loop exit.
fn target(pc_to_op: &[u16], len: usize, at: usize, off: usize) -> u16 {
    pc_to_op[(at + 1 + off).min(len)]
}

/// `i` as ops store an op index. A compiled program has at most
/// `MAX_INSNS + 1` ops (one per instruction, and the fail op), so every
/// index fits a `u16`; the conversion is checked in every profile.
fn op_index(i: usize) -> u16 {
    u16::try_from(i).expect("a verified program's op indices fit a u16")
}

/// Lowers a program into its op array. Called from the verifier's
/// success path only — see the module doc for the invariants (register
/// and map/set indices in range, total cost within budget) that the
/// generated code relies on.
pub(crate) fn compile(program: &FilterProgram) -> CompiledProgram {
    let len = program.insns.len();

    // Jump-target set: a fusion may swallow `at + 1` only if no branch
    // lands there (fall-through from `at` is the fused path itself).
    let mut is_target = [false; MAX_INSNS];
    for (at, insn) in program.insns.iter().enumerate() {
        let off = match insn {
            Insn::Jeq { off, .. }
            | Insn::Jne { off, .. }
            | Insn::Jlt { off, .. }
            | Insn::Jgt { off, .. }
            | Insn::JInSet { off, .. }
            | Insn::Ja { off } => Some(*off as usize),
            _ => None,
        };
        if let Some(off) = off {
            if let Some(t) = is_target[..len].get_mut(at + 1 + off) {
                *t = true;
            }
        }
    }

    // Pass 1: decide fusions and assign each instruction its op index.
    // `pc_to_op[len]` is the shared fail op appended after the body.
    let mut pc_to_op = [0u16; MAX_INSNS + 1];
    let mut n_ops = 0u16;
    let mut at = 0;
    while at < len {
        pc_to_op[at] = n_ops;
        let insn = &program.insns[at];
        let fused = match program.insns.get(at + 1) {
            Some(next) if !is_target[at + 1] => {
                fuses_state(insn, next, program) || fuses_load(insn, next, program)
            }
            _ => false,
        };
        if fused {
            // Nothing branches into a swallowed pc (checked above), but
            // keep the mapping total.
            pc_to_op[at + 1] = n_ops;
            at += 2;
        } else {
            at += 1;
        }
        n_ops += 1;
    }
    pc_to_op[len] = n_ops;

    // Pass 2: emit the ops with resolved operands and targets.
    let mut ops: [Option<Op>; MAX_INSNS + 1] = [const { None }; MAX_INSNS + 1];
    let mut n = 0;
    let mut push = |op: Op| {
        ops[n] = Some(op);
        n += 1;
    };
    let mut stats = CompileStats::default();
    let mut at = 0;
    while at < len {
        let insn = &program.insns[at];
        let next = program.insns.get(at + 1);
        let fusible = next.is_some() && !is_target[at + 1];

        // Fusion 1: mask + state op. The builder canonicalizes every map
        // index as `And dst, #mask` right before the map instruction.
        if fusible && fuses_state(insn, next.expect("fusible implies next"), program) {
            let (
                Insn::And {
                    dst,
                    src: Src::Imm(mask),
                },
                Some(m_insn),
            ) = (insn, next)
            else {
                unreachable!("fuses_state checked the shape");
            };
            let (Insn::MBump { dst: md, map, .. }
            | Insn::MLoad { dst: md, map, .. }
            | Insn::MTake { dst: md, map, .. }) = m_insn
            else {
                unreachable!("fuses_state checked the shape");
            };
            stats.folded_consts += 1;
            stats.fused_state_ops += 1;
            push(Op::FusedMap {
                d: dst.0,
                mask: *mask,
                md: md.0,
                op: state_op(m_insn),
                m: program.maps[*map as usize].clone(),
                c: m_insn.cost(),
            });
            at += 2;
            continue;
        }

        // Fusion 2: load + branch — `field == const` in one op.
        if fusible && fuses_load(insn, next.expect("fusible implies next"), program) {
            let (d, load) = load_op(insn).expect("fuses_load checked the shape");
            let lc = load.cost();
            let op = match next.expect("fusible implies next") {
                Insn::Jeq {
                    b: Src::Imm(v),
                    off,
                    ..
                } => Some((*v, Cmp::Eq, *off)),
                Insn::Jne {
                    b: Src::Imm(v),
                    off,
                    ..
                } => Some((*v, Cmp::Ne, *off)),
                Insn::Jlt {
                    b: Src::Imm(v),
                    off,
                    ..
                } => Some((*v, Cmp::Lt, *off)),
                Insn::Jgt {
                    b: Src::Imm(v),
                    off,
                    ..
                } => Some((*v, Cmp::Gt, *off)),
                _ => None,
            };
            match (op, next) {
                (Some((v, cmp, off)), _) => {
                    stats.folded_consts += 1;
                    push(Op::FusedCmp {
                        d,
                        load,
                        lc,
                        v,
                        cmp,
                        t: target(&pc_to_op, len, at + 1, off as usize),
                        f: target(&pc_to_op, len, at + 1, 0),
                    });
                }
                (None, Some(Insn::JInSet { set, off, .. })) => {
                    push(Op::FusedInSet {
                        d,
                        load,
                        lc,
                        set: program.sets[*set as usize].clone(),
                        t: target(&pc_to_op, len, at + 1, *off as usize),
                        f: target(&pc_to_op, len, at + 1, 0),
                    });
                }
                _ => unreachable!("fuses_load checked the shape"),
            }
            stats.fused_loads += 1;
            at += 2;
            continue;
        }

        let mut fold_cmp = |b: &Src| -> Option<u64> {
            match b {
                Src::Imm(v) => {
                    stats.folded_consts += 1;
                    Some(*v)
                }
                Src::Reg(_) => None,
            }
        };
        let op = match insn {
            Insn::Ld { .. } | Insn::LdPay { .. } => {
                let (d, load) = load_op(insn).expect("loads have load ops");
                let c = load.cost();
                Op::Load { d, load, c }
            }
            Insn::LdImm { dst, imm } => {
                stats.folded_consts += 1;
                Op::LdImm { d: dst.0, v: *imm }
            }
            Insn::And { dst, src } => match fold_cmp(src) {
                Some(v) => Op::AndImm { d: dst.0, v },
                None => {
                    let Src::Reg(r) = src else { unreachable!() };
                    Op::AndReg { d: dst.0, r: r.0 }
                }
            },
            Insn::Or { dst, src } => match fold_cmp(src) {
                Some(v) => Op::OrImm { d: dst.0, v },
                None => {
                    let Src::Reg(r) = src else { unreachable!() };
                    Op::OrReg { d: dst.0, r: r.0 }
                }
            },
            Insn::Jeq { a, b, off }
            | Insn::Jne { a, b, off }
            | Insn::Jlt { a, b, off }
            | Insn::Jgt { a, b, off } => {
                let cmp = match insn {
                    Insn::Jeq { .. } => Cmp::Eq,
                    Insn::Jne { .. } => Cmp::Ne,
                    Insn::Jlt { .. } => Cmp::Lt,
                    _ => Cmp::Gt,
                };
                let t = target(&pc_to_op, len, at, *off as usize);
                let f = target(&pc_to_op, len, at, 0);
                match fold_cmp(b) {
                    Some(v) => Op::CmpImm {
                        a: a.0,
                        v,
                        cmp,
                        t,
                        f,
                    },
                    None => {
                        let Src::Reg(r) = b else { unreachable!() };
                        Op::CmpReg {
                            a: a.0,
                            r: r.0,
                            cmp,
                            t,
                            f,
                        }
                    }
                }
            }
            Insn::JInSet { a, set, off } => match program.sets.get(*set as usize) {
                Some(ports) => Op::InSet {
                    a: a.0,
                    set: ports.clone(),
                    t: target(&pc_to_op, len, at, *off as usize),
                    f: target(&pc_to_op, len, at, 0),
                },
                // An unknown set id rejects after charging the probe,
                // exactly like the interpreter (unreachable once
                // verified).
                None => Op::Halt {
                    accept: false,
                    extra: 4,
                },
            },
            Insn::Ja { off } => Op::Ja {
                t: target(&pc_to_op, len, at, *off as usize),
            },
            m_insn @ (Insn::MBump { dst, map, idx }
            | Insn::MLoad { dst, map, idx }
            | Insn::MTake { dst, map, idx }) => match program.maps.get(*map as usize) {
                Some(m) => Op::Map {
                    d: dst.0,
                    i: idx.0,
                    op: state_op(m_insn),
                    m: m.clone(),
                    c: m_insn.cost(),
                },
                None => Op::Halt {
                    accept: false,
                    extra: m_insn.cost(),
                },
            },
            Insn::Accept => Op::Halt {
                accept: true,
                extra: 1,
            },
            Insn::Reject => Op::Halt {
                accept: false,
                extra: 1,
            },
        };
        push(op);
        at += 1;
    }
    // Falling off the end rejects with the cycles spent so far, exactly
    // like the interpreter's loop exit. Also the entry of the empty
    // program.
    push(Op::Halt {
        accept: false,
        extra: 0,
    });

    stats.thunks = (len as u32) - stats.fused_state_ops - stats.fused_loads;
    CompiledProgram {
        kind: program.kind,
        ops: coalesce_runs(&mut ops[..n]),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{conjunction, Operand, Test};
    use crate::eval::eval_metered;
    use crate::ir::Reg;
    use crate::verify::verify;

    struct Udp {
        dst_port: u16,
        src_addr: u32,
        head: Vec<u8>,
    }

    impl Packet for Udp {
        fn kind(&self) -> EventKind {
            EventKind::UdpRecv
        }
        fn field(&self, field: Field) -> Option<u64> {
            match field {
                Field::UdpDstPort => Some(u64::from(self.dst_port)),
                Field::UdpSrcAddr => Some(u64::from(self.src_addr)),
                Field::UdpSrcPort => Some(7),
                Field::UdpDstAddr => Some(1),
                Field::UdpPayloadLen => Some(self.head.len() as u64),
                _ => None,
            }
        }
        fn head(&self) -> &[u8] {
            &self.head
        }
    }

    fn udp(dst_port: u16) -> Udp {
        Udp {
            dst_port,
            src_addr: 0x0a00_0001,
            head: vec![0x17, 0x03, 0x03, 0x00],
        }
    }

    #[test]
    fn compiled_matches_interpreter_on_port_test() {
        let prog = conjunction(
            EventKind::UdpRecv,
            &[Test::eq(Operand::Field(Field::UdpDstPort), 4000)],
            vec![],
        );
        let vp = verify(&prog).unwrap();
        for port in [4000u16, 4001] {
            let pkt = udp(port);
            assert_eq!(
                vp.compiled().eval(&pkt, 0),
                eval_metered(&vp, &pkt, 0),
                "port {port}"
            );
        }
    }

    #[test]
    fn load_branch_fusion_fires_on_eq_tests() {
        let prog = conjunction(
            EventKind::UdpRecv,
            &[
                Test::eq(Operand::Field(Field::UdpDstPort), 4000),
                Test::eq(Operand::Field(Field::UdpSrcPort), 7),
            ],
            vec![],
        );
        let vp = verify(&prog).unwrap();
        let stats = vp.compiled().stats();
        assert!(
            stats.fused_loads >= 2,
            "both eq tests should fuse: {stats:?}"
        );
        assert!(stats.thunks < prog.insns.len() as u32);
    }

    #[test]
    fn kind_mismatch_rejects_at_zero_cost() {
        let prog = conjunction(EventKind::TcpRecv, &[], vec![]);
        let vp = verify(&prog).unwrap();
        assert_eq!(vp.compiled().eval(&udp(1), 0), (false, 0));
    }

    #[test]
    fn fused_branch_still_writes_the_loaded_register() {
        // r0 <- dst_port; fused Jne would skip the write if buggy; the
        // following compare of r0 against itself via Jlt must see the
        // loaded value, not a stale zero.
        use crate::ir::Insn::*;
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Ld {
                    dst: Reg(0),
                    field: Field::UdpDstPort,
                },
                Jne {
                    a: Reg(0),
                    b: Src::Imm(99_999),
                    off: 0,
                },
                Jlt {
                    a: Reg(0),
                    b: Src::Imm(4000),
                    off: 1,
                },
                Accept,
                Reject,
            ],
        );
        let vp = verify(&prog).unwrap();
        for port in [100u16, 5000] {
            let pkt = udp(port);
            assert_eq!(vp.compiled().eval(&pkt, 0), eval_metered(&vp, &pkt, 0));
        }
    }

    #[test]
    fn missing_field_rejects_with_the_interpreter_cycle_count() {
        use crate::ir::Insn::*;
        struct Sparse;
        impl Packet for Sparse {
            fn kind(&self) -> EventKind {
                EventKind::UdpRecv
            }
            fn field(&self, field: Field) -> Option<u64> {
                (field == Field::UdpDstPort).then_some(9)
            }
            fn head(&self) -> &[u8] {
                &[]
            }
        }
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Ld {
                    dst: Reg(0),
                    field: Field::UdpDstPort,
                },
                Ld {
                    dst: Reg(1),
                    field: Field::UdpSrcPort,
                },
                Accept,
            ],
        );
        let vp = verify(&prog).unwrap();
        let got = vp.compiled().eval(&Sparse, 0);
        assert_eq!(got, eval_metered(&vp, &Sparse, 0));
        assert_eq!(got, (false, 2), "bails after charging both loads");
    }

    #[test]
    fn short_payload_rejects_like_the_interpreter() {
        use crate::ir::Insn::*;
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                LdPay {
                    dst: Reg(0),
                    off: 2,
                    width: Width::W32,
                },
                Accept,
            ],
        );
        let vp = verify(&prog).unwrap();
        let pkt = udp(1); // 4-byte head; off 2 + 4 bytes overruns
        assert_eq!(vp.compiled().eval(&pkt, 0), eval_metered(&vp, &pkt, 0));
        assert_eq!(vp.compiled().eval(&pkt, 0), (false, 2));
    }

    #[test]
    fn state_fusion_shares_the_interpreter_map() {
        use crate::builder::conjunction_stateful;
        use crate::state::{MapKind, StateMap};
        let map = StateMap::new("hits", MapKind::Counter, 16);
        let prog = conjunction_stateful(
            EventKind::UdpRecv,
            &[Test::Count {
                op: Operand::Field(Field::UdpDstPort),
                mask: 15,
                map: 0,
            }],
            vec![],
            vec![map],
            1024,
        );
        let vp = verify(&prog).unwrap();
        assert!(vp.compiled().stats().fused_state_ops >= 1);
        let pkt = udp(5);
        // Alternate tiers against the SAME shared map: counts interleave.
        let (_, c1) = vp.compiled().eval(&pkt, 0);
        let (_, c2) = eval_metered(&vp, &pkt, 0);
        assert_eq!(c1, c2, "both tiers charge the same cycles");
        let m = &vp.program().maps[0];
        assert_eq!(m.load(5 & 15), Some(2), "one bump from each tier");
    }

    #[test]
    fn conjunction_coalesces_into_a_single_run() {
        // 3 eq tests = 6 insns + Accept + Reject = 8 insns; fusion gives
        // 3 FusedCmp + 2 Halts + fail = 6 ops; run formation folds the
        // three compares into one op: Run + Accept + Reject + fail.
        let prog = conjunction(
            EventKind::UdpRecv,
            &[
                Test::eq(Operand::Field(Field::UdpDstPort), 4000),
                Test::eq(Operand::Field(Field::UdpSrcPort), 7),
                Test::eq(
                    Operand::Pay {
                        off: 0,
                        width: Width::W16,
                    },
                    0x1703,
                ),
            ],
            vec![],
        );
        let vp = verify(&prog).unwrap();
        assert_eq!(
            vp.compiled().ops(),
            4,
            "one dispatch for the whole conjunction"
        );
        for (port, head) in [
            (4000u16, vec![0x17, 0x03]), // hit
            (4000, vec![0x18, 0x03]),    // last test misses
            (4001, vec![0x17, 0x03]),    // first test misses
            (4000, vec![0x17]),          // short head: load fails mid-run
        ] {
            let pkt = Udp {
                dst_port: port,
                src_addr: 1,
                head,
            };
            assert_eq!(
                vp.compiled().eval(&pkt, 0),
                eval_metered(&vp, &pkt, 0),
                "port {port}"
            );
        }
    }

    #[test]
    fn jump_into_a_would_be_fusion_pair_disables_the_fusion() {
        use crate::ir::Insn::*;
        // The Jeq at pc 1 lands on the Jne at pc 3, so the Ld at pc 2
        // must NOT swallow it: the jump path reaches the compare without
        // the load having run.
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Ld {
                    dst: Reg(0),
                    field: Field::UdpSrcPort,
                },
                Jeq {
                    a: Reg(0),
                    b: Src::Imm(7),
                    off: 1,
                },
                Ld {
                    dst: Reg(0),
                    field: Field::UdpDstPort,
                },
                Jne {
                    a: Reg(0),
                    b: Src::Imm(9),
                    off: 1,
                },
                Accept,
                Reject,
            ],
        );
        let vp = verify(&prog).unwrap();
        // Pair (0,1) fuses; pair (2,3) must not — pc 3 is a jump target.
        assert_eq!(vp.compiled().stats().fused_loads, 1);
        for port in [9u16, 1234] {
            let pkt = udp(port); // src_port is always 7: the jump is taken
            assert_eq!(vp.compiled().eval(&pkt, 0), eval_metered(&vp, &pkt, 0));
            assert!(!vp.compiled().eval(&pkt, 0).0, "r0 held 7, not 9");
        }
    }
}
