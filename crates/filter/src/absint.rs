//! Interval abstract interpretation over the filter IR.
//!
//! Runs the program on intervals instead of packets: each register is
//! tracked as a `[lo, hi]` range seeded from the natural range of what it
//! loads (a port is ≤ 0xFFFF, a protocol ≤ 0xFF, a flag ≤ 1, ...), branch
//! edges refine the ranges, and joins at merge points widen them. Control
//! flow is forward-only, so the CFG is a DAG and one in-order pass *is*
//! the fixpoint: by the time `pc` is visited every predecessor has
//! contributed its state and no state is ever revisited.
//!
//! For a structurally verified program the pass produces:
//!
//! * a **static worst-case cycle bound** — the longest-cost path through
//!   the interval-feasible part of the CFG, in the same cycle unit the
//!   evaluator's fuel meter spends ([`crate::cost`]). Never larger than
//!   [`FilterProgram::total_cost`], and tighter whenever branches skip
//!   work or intervals prove edges dead;
//! * **bounded-state proofs** — every `MBump`/`MLoad`/`MTake` index
//!   provably below its map's capacity, operations matching the map's
//!   kind, and the combined map footprint within the program's declared
//!   byte budget (itself capped by [`crate::state::MAX_STATE_BYTES`]);
//! * **lints** — instructions no interval-feasible path reaches, stores
//!   no later instruction reads, and conditional branches that always or
//!   never take. Lints are advisory (the program still verifies);
//!   `plexus-verify` surfaces them.
//!
//! This analysis complements the verifier's set-based dataflow
//! ([`crate::verify`]): that pass proves *which values* a field may hold
//! at an accept (the policy/demux machinery); this one proves *how much*
//! a program can cost and *how much state* it can touch.

use std::fmt;

use crate::cost;
use crate::ir::{Field, FilterProgram, Insn, Src, Width, NUM_REGS};
use crate::state::{MapKind, MAX_STATE_BYTES};
use crate::verify::VerifyError;

/// An inclusive value range `[lo, hi]`. The abstract value of one
/// register at one program point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest value the register may hold.
    pub lo: u64,
    /// Largest value the register may hold.
    pub hi: u64,
}

impl Interval {
    /// The full `u64` range.
    pub const TOP: Interval = Interval {
        lo: 0,
        hi: u64::MAX,
    };

    /// The single value `v`.
    pub const fn exact(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The range `[lo, hi]` (callers must keep `lo <= hi`).
    pub const fn span(lo: u64, hi: u64) -> Interval {
        Interval { lo, hi }
    }

    /// Whether the range is a single value.
    pub fn is_const(self) -> bool {
        self.lo == self.hi
    }

    fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_const() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Natural range of a typed field load — the seed intervals that make the
/// analysis precise without any branch having run yet.
fn field_interval(field: Field) -> Interval {
    use Field::*;
    match field {
        EthDst | EthSrc => Interval::span(0, (1 << 48) - 1),
        EthType => Interval::span(0, 0xFFFF),
        FrameLen | IpPayloadLen | UdpPayloadLen | TcpPayloadLen => Interval::span(0, 0xFFFF),
        IpSrc | IpDst | UdpSrcAddr | UdpDstAddr | TcpSrcAddr | TcpDstAddr => {
            Interval::span(0, u64::from(u32::MAX))
        }
        IpProto => Interval::span(0, 0xFF),
        UdpSrcPort | UdpDstPort | TcpSrcPort | TcpDstPort => Interval::span(0, 0xFFFF),
        TcpFlagSyn | TcpFlagAck => Interval::span(0, 1),
    }
}

fn width_interval(width: Width) -> Interval {
    Interval::span(
        0,
        match width {
            Width::W8 => 0xFF,
            Width::W16 => 0xFFFF,
            Width::W32 => 0xFFFF_FFFF,
        },
    )
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

/// Everything the interval pass derives for one program.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Static worst-case cycle bound (longest interval-feasible path).
    pub bound: u32,
    /// Combined declared map footprint in bytes.
    pub state_bytes: u32,
    /// Advisory findings; the program still verifies.
    pub lints: Vec<Lint>,
    /// Hard failures (map bounds, kind mismatches, state budget).
    pub errors: Vec<VerifyError>,
}

type Regs = [Interval; NUM_REGS];

fn src_interval(regs: &Regs, s: Src) -> Interval {
    match s {
        Src::Imm(v) => Interval::exact(v),
        Src::Reg(r) => regs.get(r.0 as usize).copied().unwrap_or(Interval::TOP),
    }
}

/// Feasibility and refinement of one comparison's two outcomes.
/// Returns `(eq_edge, other_edge)` style pairs per comparison kind below.
struct Split {
    /// Refined `(a, b)` if the outcome is possible.
    yes: Option<(Interval, Interval)>,
    /// Refined `(a, b)` for the complementary outcome, if possible.
    no: Option<(Interval, Interval)>,
}

fn split_eq(a: Interval, b: Interval) -> Split {
    let meet_lo = a.lo.max(b.lo);
    let meet_hi = a.hi.min(b.hi);
    let yes = (meet_lo <= meet_hi).then(|| {
        let m = Interval::span(meet_lo, meet_hi);
        (m, m)
    });
    // a != b impossible only when both are the same single value.
    let no = (!(a.is_const() && b.is_const() && a.lo == b.lo)).then(|| {
        // With one side constant, trim a matching endpoint off the other.
        let trim = |x: Interval, c: Interval| -> Interval {
            if !c.is_const() || x.is_const() {
                return x;
            }
            let mut t = x;
            if t.lo == c.lo {
                t.lo += 1;
            }
            if t.hi == c.lo {
                t.hi -= 1;
            }
            t
        };
        (trim(a, b), trim(b, a))
    });
    Split { yes, no }
}

/// `yes` = `a < b`, `no` = `a >= b`.
fn split_lt(a: Interval, b: Interval) -> Split {
    let yes = (a.lo < b.hi).then(|| {
        (
            Interval::span(a.lo, a.hi.min(b.hi - 1)),
            Interval::span(b.lo.max(a.lo + 1), b.hi),
        )
    });
    let no = (a.hi >= b.lo).then(|| {
        (
            Interval::span(a.lo.max(b.lo), a.hi),
            Interval::span(b.lo, b.hi.min(a.hi)),
        )
    });
    Split { yes, no }
}

/// Joins `incoming` into the state at `target` (the first arrival sets it).
fn merge(states: &mut [Option<Regs>], target: usize, incoming: Regs) {
    match &mut states[target] {
        None => states[target] = Some(incoming),
        Some(cur) => {
            for (c, i) in cur.iter_mut().zip(incoming.iter()) {
                *c = c.join(*i);
            }
        }
    }
}

/// Runs the interval pass. Precondition: `check_structure` passed (jump
/// targets in range, register and map/set ids valid); the pass is still
/// defensive about violations but reports them as errors rather than
/// panicking.
pub fn analyze(program: &FilterProgram) -> Analysis {
    let len = program.insns.len();
    let mut out = Analysis::default();
    if len == 0 {
        return out;
    }

    let mut states: Vec<Option<Regs>> = vec![None; len];
    states[0] = Some([Interval::exact(0); NUM_REGS]);
    // Interval-feasible successors per reachable pc; `None` = unreachable.
    let mut succs: Vec<Option<Vec<usize>>> = vec![None; len];

    for pc in 0..len {
        let Some(regs) = states[pc] else {
            out.lints.push(Lint::Unreachable { pc });
            continue;
        };
        let mut edges: Vec<usize> = Vec::with_capacity(2);
        let insn = &program.insns[pc];

        // Writes fall through with `dst` set to `val`.
        let write_fall =
            |dst: u8, val: Interval, states: &mut Vec<Option<Regs>>, edges: &mut Vec<usize>| {
                let mut next = regs;
                if let Some(slot) = next.get_mut(dst as usize) {
                    *slot = val;
                }
                if pc + 1 < len {
                    merge(states, pc + 1, next);
                    edges.push(pc + 1);
                }
            };

        match insn {
            Insn::Ld { dst, field } => {
                write_fall(dst.0, field_interval(*field), &mut states, &mut edges)
            }
            Insn::LdImm { dst, imm } => {
                write_fall(dst.0, Interval::exact(*imm), &mut states, &mut edges)
            }
            Insn::LdPay { dst, width, .. } => {
                write_fall(dst.0, width_interval(*width), &mut states, &mut edges)
            }
            Insn::And { dst, src } => {
                let a = regs.get(dst.0 as usize).copied().unwrap_or(Interval::TOP);
                let b = src_interval(&regs, *src);
                // a & b never exceeds either operand; exact when both const.
                let val = if a.is_const() && b.is_const() {
                    Interval::exact(a.lo & b.lo)
                } else {
                    Interval::span(0, a.hi.min(b.hi))
                };
                write_fall(dst.0, val, &mut states, &mut edges)
            }
            Insn::Or { dst, src } => {
                let a = regs.get(dst.0 as usize).copied().unwrap_or(Interval::TOP);
                let b = src_interval(&regs, *src);
                let val = if a.is_const() && b.is_const() {
                    Interval::exact(a.lo | b.lo)
                } else {
                    // a | b is at least either operand, at most the
                    // all-ones cover of both upper bounds.
                    Interval::span(a.lo.max(b.lo), or_hi(a.hi, b.hi))
                };
                write_fall(dst.0, val, &mut states, &mut edges)
            }
            Insn::Jeq { a, b, off } | Insn::Jne { a, b, off } => {
                let av = regs.get(a.0 as usize).copied().unwrap_or(Interval::TOP);
                let bv = src_interval(&regs, *b);
                let eq_jumps = matches!(insn, Insn::Jeq { .. });
                let split = split_eq(av, bv);
                let (taken, fall) = if eq_jumps {
                    (split.yes, split.no)
                } else {
                    (split.no, split.yes)
                };
                branch(
                    pc,
                    len,
                    *off,
                    *a,
                    *b,
                    regs,
                    taken,
                    fall,
                    &mut states,
                    &mut edges,
                    &mut out,
                );
            }
            Insn::Jlt { a, b, off } | Insn::Jgt { a, b, off } => {
                let av = regs.get(a.0 as usize).copied().unwrap_or(Interval::TOP);
                let bv = src_interval(&regs, *b);
                // a > b is b < a with the pair swapped back.
                let (taken, fall) = if matches!(insn, Insn::Jlt { .. }) {
                    let s = split_lt(av, bv);
                    (s.yes, s.no)
                } else {
                    let s = split_lt(bv, av);
                    (
                        s.yes.map(|(b2, a2)| (a2, b2)),
                        s.no.map(|(b2, a2)| (a2, b2)),
                    )
                };
                branch(
                    pc,
                    len,
                    *off,
                    *a,
                    *b,
                    regs,
                    taken,
                    fall,
                    &mut states,
                    &mut edges,
                    &mut out,
                );
            }
            Insn::JInSet { off, .. } => {
                // Set contents are dynamic: both edges stay feasible and
                // nothing numeric is learned.
                let target = pc + 1 + *off as usize;
                if target < len {
                    merge(&mut states, target, regs);
                    edges.push(target);
                }
                if pc + 1 < len {
                    merge(&mut states, pc + 1, regs);
                    edges.push(pc + 1);
                }
            }
            Insn::Ja { off } => {
                let target = pc + 1 + *off as usize;
                if target < len {
                    merge(&mut states, target, regs);
                    edges.push(target);
                }
            }
            Insn::MBump { dst, map, idx }
            | Insn::MLoad { dst, map, idx }
            | Insn::MTake { dst, map, idx } => {
                let val = check_map_op(program, insn, pc, *map, *idx, &regs, &mut out.errors);
                write_fall(dst.0, val, &mut states, &mut edges)
            }
            Insn::Accept | Insn::Reject => {}
        }
        succs[pc] = Some(edges);
    }

    out.bound = cost::longest_path(&program.insns, &succs);
    dead_stores(program, &succs, &mut out.lints);
    out.lints.sort_by_key(|l| l.pc());

    out.state_bytes = program.state_bytes();
    if program.state_budget > MAX_STATE_BYTES {
        out.errors.push(VerifyError::StateOverBudget {
            bytes: program.state_budget,
            budget: MAX_STATE_BYTES,
        });
    } else if out.state_bytes > program.state_budget {
        out.errors.push(VerifyError::StateOverBudget {
            bytes: out.state_bytes,
            budget: program.state_budget,
        });
    }

    out
}

/// Map-op checks: the map exists, the operation fits its kind, and the
/// index interval is provably in bounds. Returns the result interval for
/// `dst`.
fn check_map_op(
    program: &FilterProgram,
    insn: &Insn,
    pc: usize,
    map: u16,
    idx: crate::ir::Reg,
    regs: &Regs,
    errors: &mut Vec<VerifyError>,
) -> Interval {
    let Some(decl) = program.maps.get(map as usize) else {
        errors.push(VerifyError::UnknownMap { at: pc, map });
        return Interval::TOP;
    };
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
    let iv = regs.get(idx.0 as usize).copied().unwrap_or(Interval::TOP);
    if iv.hi >= u64::from(decl.capacity()) {
        errors.push(VerifyError::MapIndexOutOfBounds {
            at: pc,
            map,
            hi: iv.hi,
            capacity: decl.capacity(),
        });
    }
    match insn {
        // A saturating bump returns at least 1.
        Insn::MBump { .. } => Interval::span(1, u64::MAX),
        Insn::MTake { .. } => Interval::span(0, 1),
        _ => match decl.kind() {
            MapKind::Counter => Interval::span(0, u64::MAX),
            MapKind::TokenBucket { tokens, .. } => Interval::span(0, u64::from(tokens)),
        },
    }
}

/// Propagates one conditional branch's refined states along its feasible
/// edges, recording always/never-taken lints.
#[allow(clippy::too_many_arguments)]
fn branch(
    pc: usize,
    len: usize,
    off: u16,
    a: crate::ir::Reg,
    b: Src,
    regs: Regs,
    taken: Option<(Interval, Interval)>,
    fall: Option<(Interval, Interval)>,
    states: &mut [Option<Regs>],
    edges: &mut Vec<usize>,
    out: &mut Analysis,
) {
    let apply = |refined: (Interval, Interval)| -> Regs {
        let mut next = regs;
        if let Some(slot) = next.get_mut(a.0 as usize) {
            *slot = refined.0;
        }
        if let Src::Reg(r) = b {
            if let Some(slot) = next.get_mut(r.0 as usize) {
                *slot = refined.1;
            }
        }
        next
    };
    let target = pc + 1 + off as usize;
    match &taken {
        Some(refined) if target < len => {
            merge(states, target, apply(*refined));
            edges.push(target);
        }
        _ => {}
    }
    match &fall {
        Some(refined) if pc + 1 < len => {
            merge(states, pc + 1, apply(*refined));
            edges.push(pc + 1);
        }
        _ => {}
    }
    if taken.is_none() {
        out.lints.push(Lint::NeverTaken { pc });
    }
    if fall.is_none() {
        out.lints.push(Lint::AlwaysTaken { pc });
    }
}

/// Backward liveness over the feasible edges: a side-effect-free write
/// whose register no successor reads is a dead store. Reverse program
/// order is a reverse topological order of the DAG, so one pass is exact.
fn dead_stores(program: &FilterProgram, succs: &[Option<Vec<usize>>], lints: &mut Vec<Lint>) {
    let len = program.insns.len();
    let mut live: Vec<u8> = vec![0; len];
    let bit = |r: crate::ir::Reg| 1u8 << (r.0 % 8);
    for pc in (0..len).rev() {
        let Some(ss) = &succs[pc] else { continue };
        let mut out: u8 = 0;
        for &s in ss {
            out |= live[s];
        }
        let insn = &program.insns[pc];
        let (reads, write, pure_store): (u8, Option<crate::ir::Reg>, bool) = match insn {
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
    use crate::ir::{EventKind, Reg};
    use crate::state::StateMap;

    fn eth(insns: Vec<Insn>) -> FilterProgram {
        FilterProgram::new(EventKind::EthRecv, insns)
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
        let a = analyze(&p);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.state_bytes, 512);
        assert_eq!(a.bound, 1 + 1 + 6 + 1);
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
        let a = analyze(&p);
        assert!(a.errors.iter().any(|e| matches!(
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
        let a = analyze(&p);
        assert!(a.errors.iter().any(|e| matches!(
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
        let a = analyze(&p);
        assert!(a
            .errors
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
        let a = analyze(&p);
        assert!(a.lints.contains(&Lint::AlwaysTaken { pc: 1 }));
        assert!(a.lints.contains(&Lint::Unreachable { pc: 2 }));
        assert!(a.lints.contains(&Lint::Unreachable { pc: 3 }));
        // Bound counts only the feasible path: LdImm + Jeq + Accept.
        assert_eq!(a.bound, 3);
        assert!(a.errors.is_empty());
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
        let a = analyze(&p);
        assert!(a.lints.contains(&Lint::NeverTaken { pc: 1 }));
        assert!(a.lints.contains(&Lint::Unreachable { pc: 3 }));
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
        let a = analyze(&p);
        assert!(a.lints.contains(&Lint::DeadStore { pc: 0, reg: 1 }));
    }

    #[test]
    fn range_refinement_follows_lt_chains() {
        // port < 1024 on the taken edge, then a membership bump indexed by
        // port & 0x3FF stays within a 1024-slot map.
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
        let a = analyze(&p);
        // The refined [0, 1023] interval proves the access in bounds with
        // no mask instruction at all.
        assert!(a.errors.is_empty(), "{:?}", a.errors);
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
        let a = analyze(&p);
        assert!(a.lints.is_empty(), "{:?}", a.lints);
        assert_eq!(a.bound, 3);
    }
}
