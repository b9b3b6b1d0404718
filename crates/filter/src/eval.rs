//! Guard program interpreters — the reference tier.
//!
//! [`eval`] is the reference interpreter: it only runs
//! [`VerifiedProgram`]s, and even then is fully defensive — any anomaly
//! (missing field, short payload, exhausted fuel) rejects the packet
//! instead of faulting. It is no longer the only production tier:
//! verification also lowers every accepted program to fused threaded
//! code ([`crate::compile`]), which the dispatcher prefers on the hot
//! path; the interpreter remains the semantic ground truth the compiled
//! tier is differentially tested against, and the opt-out
//! (`set_compiled_guards(false)`) falls back here. [`eval_unchecked`]
//! interprets a *raw* [`FilterProgram`] with no safety net; it exists to
//! demonstrate (in tests) that programs the verifier rejects really
//! would fault.

use crate::ir::{EventKind, Field, FilterProgram, Insn, Src, Width, MAX_COST};
use crate::verify::{FieldKey, VerifiedProgram};

/// How an event exposes its typed fields and contiguous head bytes to a
/// guard program.
pub trait Packet {
    /// The event kind this packet is.
    fn kind(&self) -> EventKind;

    /// Reads a typed field; `None` if the field does not belong to this
    /// packet's kind.
    fn field(&self, field: Field) -> Option<u64>;

    /// The contiguous head of the payload, addressed by `LdPay`.
    fn head(&self) -> &[u8];
}

pub(crate) fn load_be(bytes: &[u8], width: Width) -> u64 {
    bytes.iter().fold(0u64, |acc, b| (acc << 8) | *b as u64)
        & match width {
            Width::W8 => 0xFF,
            Width::W16 => 0xFFFF,
            Width::W32 => 0xFFFF_FFFF,
        }
}

/// Reads the value a guard program would observe for `key` on `pkt`,
/// mirroring [`eval`]'s load semantics exactly: a missing typed field or a
/// short payload yields `None` (where `eval` would reject).
///
/// The dispatcher's demux index probes packets through this function, so
/// `read_field_key(pkt, k) == None` implies every verified guard that
/// loads `k` rejects `pkt`.
pub fn read_field_key<P: Packet + ?Sized>(pkt: &P, key: FieldKey) -> Option<u64> {
    match key {
        FieldKey::Field(field) => pkt.field(field),
        FieldKey::Pay(off, width) => {
            let start = off as usize;
            let end = start + width.bytes() as usize;
            pkt.head().get(start..end).map(|b| load_be(b, width))
        }
    }
}

/// Evaluates a verified guard against a packet. Total and fault-free: any
/// runtime anomaly (kind mismatch, short payload, missing field) rejects.
///
/// Token-bucket maps see time 0; use [`eval_metered`] when the program
/// carries rate-limiting state.
pub fn eval<P: Packet + ?Sized>(vp: &VerifiedProgram, pkt: &P) -> bool {
    run(vp.program(), pkt, 0).0
}

/// [`eval`] at simulated time `now_ns`, which drives token-bucket refill,
/// that also reports the cycles the evaluation actually spent — the
/// measured side of the static-bound cross-check. For a verified
/// program the cycle count never exceeds [`VerifiedProgram::static_bound`]
/// (the dispatcher and the property suite assert exactly that).
pub fn eval_metered<P: Packet + ?Sized>(vp: &VerifiedProgram, pkt: &P, now_ns: u64) -> (bool, u32) {
    run(vp.program(), pkt, now_ns)
}

fn run<P: Packet + ?Sized>(program: &FilterProgram, pkt: &P, now_ns: u64) -> (bool, u32) {
    let mut spent = 0u32;
    if pkt.kind() != program.kind {
        return (false, spent);
    }

    let mut regs = [0u64; crate::ir::NUM_REGS];
    let mut pc = 0usize;

    // Any anomaly rejects, reporting the cycles spent so far.
    macro_rules! bail {
        () => {
            return (false, spent)
        };
    }

    while pc < program.insns.len() {
        let insn = &program.insns[pc];
        spent = spent.saturating_add(insn.cost());
        // Defense in depth: verification already bounds cost, but the
        // interpreter carries its own fuel so even a bug in the verifier
        // cannot produce an unbounded evaluation.
        if spent > MAX_COST {
            bail!();
        }

        let src = |s: &Src, regs: &[u64]| match s {
            Src::Imm(v) => Some(*v),
            Src::Reg(r) => regs.get(r.0 as usize).copied(),
        };

        match insn {
            Insn::Ld { dst, field } => {
                let Some(v) = pkt.field(*field) else {
                    bail!();
                };
                let Some(slot) = regs.get_mut(dst.0 as usize) else {
                    bail!();
                };
                *slot = v;
            }
            Insn::LdImm { dst, imm } => {
                let Some(slot) = regs.get_mut(dst.0 as usize) else {
                    bail!();
                };
                *slot = *imm;
            }
            Insn::LdPay { dst, off, width } => {
                let start = *off as usize;
                let end = start + width.bytes() as usize;
                let Some(bytes) = pkt.head().get(start..end) else {
                    bail!();
                };
                let v = load_be(bytes, *width);
                let Some(slot) = regs.get_mut(dst.0 as usize) else {
                    bail!();
                };
                *slot = v;
            }
            Insn::And { dst, src: s } | Insn::Or { dst, src: s } => {
                let Some(b) = src(s, &regs) else { bail!() };
                let Some(slot) = regs.get_mut(dst.0 as usize) else {
                    bail!();
                };
                *slot = if matches!(insn, Insn::And { .. }) {
                    *slot & b
                } else {
                    *slot | b
                };
            }
            Insn::Jeq { a, b, off }
            | Insn::Jne { a, b, off }
            | Insn::Jlt { a, b, off }
            | Insn::Jgt { a, b, off } => {
                let Some(av) = regs.get(a.0 as usize).copied() else {
                    bail!();
                };
                let Some(bv) = src(b, &regs) else {
                    bail!();
                };
                let taken = match insn {
                    Insn::Jeq { .. } => av == bv,
                    Insn::Jne { .. } => av != bv,
                    Insn::Jlt { .. } => av < bv,
                    _ => av > bv,
                };
                if taken {
                    pc += *off as usize;
                }
            }
            Insn::JInSet { a, set, off } => {
                let Some(av) = regs.get(a.0 as usize).copied() else {
                    bail!();
                };
                let Some(ports) = program.sets.get(*set as usize) else {
                    bail!();
                };
                let member = u16::try_from(av)
                    .map(|p| ports.contains(p))
                    .unwrap_or(false);
                if member {
                    pc += *off as usize;
                }
            }
            Insn::Ja { off } => pc += *off as usize,
            Insn::MBump { dst, map, idx }
            | Insn::MLoad { dst, map, idx }
            | Insn::MTake { dst, map, idx } => {
                let Some(i) = regs.get(idx.0 as usize).copied() else {
                    bail!();
                };
                let Some(m) = program.maps.get(*map as usize) else {
                    bail!();
                };
                // The verifier proves the index in bounds and the op
                // matched to the map kind; `None` here means a broken
                // invariant, and rejecting is the safe answer.
                let v = match insn {
                    Insn::MBump { .. } => m.bump(i),
                    Insn::MLoad { .. } => m.load(i),
                    _ => m.take(i, now_ns).map(u64::from),
                };
                let Some(v) = v else { bail!() };
                let Some(slot) = regs.get_mut(dst.0 as usize) else {
                    bail!();
                };
                *slot = v;
            }
            Insn::Accept => return (true, spent),
            Insn::Reject => bail!(),
        }
        pc += 1;
    }
    // Fell off the end: verified programs never do, reject defensively.
    (false, spent)
}

/// Interprets a **raw, unverified** program with no safety checks: field
/// type mismatches, short payloads, bad registers, unknown sets, and
/// out-of-range jumps all panic, and falling off the end panics too.
///
/// This is deliberately an evaluator a kernel must never run — it exists
/// so tests can demonstrate that programs rejected by the verifier
/// actually fault without it. Note it is *not* how unverified programs
/// would reach the fast path either: the compiled tier
/// ([`crate::compile`]) is only constructed by the verifier, so there is
/// no unchecked variant of it to misuse.
pub fn eval_unchecked<P: Packet + ?Sized>(program: &FilterProgram, pkt: &P) -> bool {
    let mut regs = [0u64; crate::ir::NUM_REGS];
    let mut pc = 0usize;

    loop {
        let insn = program
            .insns
            .get(pc)
            .unwrap_or_else(|| panic!("fell off the end of the program at pc {pc}"));

        let src = |s: &Src, regs: &[u64]| match s {
            Src::Imm(v) => *v,
            Src::Reg(r) => regs[r.0 as usize],
        };

        match insn {
            Insn::Ld { dst, field } => {
                regs[dst.0 as usize] = pkt
                    .field(*field)
                    .unwrap_or_else(|| panic!("field {field} absent on {} packet", pkt.kind()));
            }
            Insn::LdImm { dst, imm } => regs[dst.0 as usize] = *imm,
            Insn::LdPay { dst, off, width } => {
                let start = *off as usize;
                let bytes = &pkt.head()[start..start + width.bytes() as usize];
                regs[dst.0 as usize] = load_be(bytes, *width);
            }
            Insn::And { dst, src: s } => {
                let b = src(s, &regs);
                regs[dst.0 as usize] &= b;
            }
            Insn::Or { dst, src: s } => {
                let b = src(s, &regs);
                regs[dst.0 as usize] |= b;
            }
            Insn::Jeq { a, b, off }
            | Insn::Jne { a, b, off }
            | Insn::Jlt { a, b, off }
            | Insn::Jgt { a, b, off } => {
                let av = regs[a.0 as usize];
                let bv = src(b, &regs);
                let taken = match insn {
                    Insn::Jeq { .. } => av == bv,
                    Insn::Jne { .. } => av != bv,
                    Insn::Jlt { .. } => av < bv,
                    _ => av > bv,
                };
                if taken {
                    pc += *off as usize;
                }
            }
            Insn::JInSet { a, set, off } => {
                let av = regs[a.0 as usize];
                let ports = &program.sets[*set as usize];
                if ports.contains(av as u16) {
                    pc += *off as usize;
                }
            }
            Insn::Ja { off } => pc += *off as usize,
            Insn::MBump { dst, map, idx } => {
                let i = regs[idx.0 as usize];
                regs[dst.0 as usize] = program.maps[*map as usize]
                    .bump(i)
                    .unwrap_or_else(|| panic!("bump faulted on map #{map} index {i}"));
            }
            Insn::MLoad { dst, map, idx } => {
                let i = regs[idx.0 as usize];
                regs[dst.0 as usize] = program.maps[*map as usize]
                    .load(i)
                    .unwrap_or_else(|| panic!("load faulted on map #{map} index {i}"));
            }
            Insn::MTake { dst, map, idx } => {
                let i = regs[idx.0 as usize];
                let took = program.maps[*map as usize]
                    .take(i, 0)
                    .unwrap_or_else(|| panic!("take faulted on map #{map} index {i}"));
                regs[dst.0 as usize] = u64::from(took);
            }
            Insn::Accept => return true,
            Insn::Reject => return false,
        }
        pc += 1;
    }
}
