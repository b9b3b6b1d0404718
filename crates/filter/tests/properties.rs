//! Property tests for the guard verifier (§3.1, §3.3):
//!
//! * programs built by [`conjunction`] always verify, stay within the
//!   static cost budget, and never fault on arbitrary packets;
//! * on well-formed packets the defensive interpreter agrees with the
//!   unchecked one (verification costs no expressive power);
//! * arbitrary raw programs either verify (and are then safe to run) or
//!   produce a non-empty error report;
//! * programs the verifier rejects for out-of-bounds loads or field type
//!   mismatches really do fault under an unchecked interpreter — the
//!   verifier is load-bearing, not ceremonial;
//! * on arbitrary decision DAGs, the demux key holds for every accepted
//!   packet, a policy the program verified under holds for every accepted
//!   packet, and no packet spends more cycles than the static bound.

use std::panic::{catch_unwind, AssertUnwindSafe};

use plexus_filter::{
    conjunction, eval, eval_metered, key_schema, read_field_key, verify, verify_with_policy,
    EventKind, Field, FieldKey, FieldSpec, FilterProgram, Insn, Operand, Packet, Policy, PortSet,
    Reg, Src, Test, VerifyError, Width,
};
use proptest::prelude::*;

/// Interprets a **raw, unverified** program with no safety checks: field
/// type mismatches, short payloads, bad registers, unknown sets, and
/// out-of-range jumps all panic, and falling off the end panics too.
///
/// This is deliberately an evaluator a kernel must never run, so it lives
/// here and not in the crate: it shows that programs the verifier rejects
/// actually fault without it. The programs these properties run carry no
/// state maps, so the map instructions are not interpreted.
fn eval_unchecked<P: Packet + ?Sized>(program: &FilterProgram, pkt: &P) -> bool {
    let mut regs = [0u64; plexus_filter::NUM_REGS];
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
                let len = match width {
                    Width::W8 => 1,
                    Width::W16 => 2,
                    Width::W32 => 4,
                };
                let bytes = &pkt.head()[start..start + len];
                regs[dst.0 as usize] = bytes.iter().fold(0u64, |acc, b| (acc << 8) | *b as u64);
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
            Insn::MBump { .. } | Insn::MLoad { .. } | Insn::MTake { .. } => {
                panic!("no state map is interpreted unchecked")
            }
            Insn::Accept => return true,
            Insn::Reject => return false,
        }
        pc += 1;
    }
}

const KINDS: [EventKind; 4] = [
    EventKind::EthRecv,
    EventKind::IpRecv,
    EventKind::UdpRecv,
    EventKind::TcpRecv,
];

const ALL_FIELDS: [Field; 20] = [
    Field::EthDst,
    Field::EthSrc,
    Field::EthType,
    Field::FrameLen,
    Field::IpSrc,
    Field::IpDst,
    Field::IpProto,
    Field::IpPayloadLen,
    Field::UdpSrcAddr,
    Field::UdpDstAddr,
    Field::UdpSrcPort,
    Field::UdpDstPort,
    Field::UdpPayloadLen,
    Field::TcpSrcAddr,
    Field::TcpDstAddr,
    Field::TcpSrcPort,
    Field::TcpDstPort,
    Field::TcpFlagSyn,
    Field::TcpFlagAck,
    Field::TcpPayloadLen,
];

fn fields_of(kind: EventKind) -> Vec<Field> {
    ALL_FIELDS
        .iter()
        .copied()
        .filter(|f| f.kind() == kind)
        .collect()
}

fn field_index(field: Field) -> u64 {
    ALL_FIELDS.iter().position(|f| *f == field).unwrap() as u64
}

/// A packet whose typed fields are small deterministic values (so random
/// tests hit and miss both branches) over an arbitrary head.
#[derive(Debug)]
struct TestPacket {
    kind: EventKind,
    base: u64,
    head: Vec<u8>,
}

impl Packet for TestPacket {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn field(&self, field: Field) -> Option<u64> {
        if field.kind() != self.kind {
            return None;
        }
        let v = self.base.wrapping_add(field_index(field)) % 8;
        // A flag is one bit, as on the wire; the verifier's intervals
        // start from each field's natural range.
        Some(match field {
            Field::TcpFlagSyn | Field::TcpFlagAck => v % 2,
            _ => v,
        })
    }

    fn head(&self) -> &[u8] {
        &self.head
    }
}

/// A packet whose typed fields and head bytes are each drawn on their own
/// from a small range (fields 0..8, flags 0..2, bytes 0..4), so that among
/// a few dozen of them some pass a guard that pins several fields at once
/// — which [`TestPacket`]'s fields, moving in step, seldom do.
struct DrawnPacket {
    kind: EventKind,
    fields: [u64; ALL_FIELDS.len()],
    head: [u8; 64],
}

impl DrawnPacket {
    /// The next packet of the splitmix64 sequence `seed` stands at.
    fn draw(kind: EventKind, seed: &mut u64) -> DrawnPacket {
        let mut next = || {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let fields = std::array::from_fn(|i| match ALL_FIELDS[i] {
            Field::TcpFlagSyn | Field::TcpFlagAck => next() % 2,
            _ => next() % 8,
        });
        let head = std::array::from_fn(|_| (next() % 4) as u8);
        DrawnPacket { kind, fields, head }
    }
}

impl Packet for DrawnPacket {
    fn kind(&self) -> EventKind {
        self.kind
    }

    fn field(&self, field: Field) -> Option<u64> {
        (field.kind() == self.kind).then(|| self.fields[field_index(field) as usize])
    }

    fn head(&self) -> &[u8] {
        &self.head
    }
}

/// Decodes raw tuples into builder tests over `kind`'s own fields,
/// keeping at most one test per operand: a conjunction that constrains
/// the same operand to two disjoint value sets is a contradiction, which
/// the verifier (correctly) rejects as an unreachable `Accept`.
fn decode_tests(kind: EventKind, raw: &[(u8, u16, u64, u64)]) -> Vec<Test> {
    let mut seen = std::collections::BTreeSet::new();
    raw.iter()
        .map(|&t| decode_test(kind, t))
        .filter(|test| {
            let Test::In { op, .. } = test else {
                unreachable!("decode_test only builds In tests");
            };
            seen.insert(format!("{op:?}"))
        })
        .collect()
}

/// Decodes one raw tuple into a builder test over `kind`'s own fields.
fn decode_test(kind: EventKind, raw: (u8, u16, u64, u64)) -> Test {
    let (sel, off, a, b) = raw;
    let op = if sel % 2 == 0 {
        let fields = fields_of(kind);
        Operand::Field(fields[(a % fields.len() as u64) as usize])
    } else {
        Operand::Pay {
            off: off % 58,
            width: match sel % 3 {
                0 => Width::W8,
                1 => Width::W16,
                _ => Width::W32,
            },
        }
    };
    Test::one_of(op, [a % 8, b % 8])
}

/// Decodes one raw tuple into an arbitrary (possibly ill-formed) insn.
fn decode_insn(raw: (u8, u8, u16, u64)) -> Insn {
    let (op, reg, off, imm) = raw;
    let r = Reg(reg % 10); // Deliberately sometimes out of range.
    match op % 9 {
        0 => Insn::Ld {
            dst: r,
            field: ALL_FIELDS[(imm % ALL_FIELDS.len() as u64) as usize],
        },
        1 => Insn::LdImm { dst: r, imm },
        2 => Insn::LdPay {
            dst: r,
            off: off % 80, // Sometimes beyond PAY_WINDOW.
            width: Width::W16,
        },
        3 => Insn::And {
            dst: r,
            src: Src::Imm(imm),
        },
        4 => Insn::Jeq {
            a: r,
            b: Src::Imm(imm % 8),
            off: off % 5,
        },
        5 => Insn::Jne {
            a: r,
            b: Src::Imm(imm % 8),
            off: off % 5,
        },
        6 => Insn::Ja { off: off % 5 },
        7 => Insn::Accept,
        _ => Insn::Reject,
    }
}

/// The live contents of port set #0 in every [`decision_dag`] program.
const SET_PORTS: [u16; 3] = [1, 3, 5];

/// One raw decision node: (load selector, test selector, jump target, imm).
type RawNode = (u8, u8, u8, u64);

/// Where a decision node's taken edge goes.
#[derive(PartialEq)]
enum To {
    Node(usize),
    Accept,
    Reject,
}

/// The conditional jump `test` selects, over `a` and `imm`.
fn decision_jump(test: u8, a: Reg, imm: u64, off: u16) -> Insn {
    let b = Src::Imm(imm % 8);
    match test % 8 {
        0 | 1 => Insn::Jeq { a, b, off },
        2 | 3 => Insn::Jne { a, b, off },
        4 => Insn::Jlt { a, b, off },
        5 => Insn::Jgt { a, b, off },
        _ => Insn::JInSet { a, set: 0, off },
    }
}

/// An arbitrary forward decision DAG over `kind` — the shape the key is a
/// fact *about*, far wider than the builder's conjunctions. Each node
/// loads a field (three times in four one of the kind's key-schema
/// fields), sometimes clobbers the register, then tests it with an
/// arbitrary comparison or a port-set membership. The taken edge goes to
/// any later node, to an `Accept` of its own or to the shared `Reject`;
/// the other edge falls through to the next node, and the last node into
/// the terminator `tail_accepts` names. `pinned` puts `schema[0] == value`
/// in front of it all, which makes keyed programs common and two-field
/// (`In` + `NotIn`) keys possible. Disjunctions, joins, several accept
/// states, ranges and re-tested fields all arise; the instruction soup
/// above almost never verifies to a key (0 of 512 cases), which is why
/// the key's properties have a generator of their own.
fn decision_dag(
    kind: EventKind,
    pinned: Option<u64>,
    raw: &[RawNode],
    tail_accepts: bool,
) -> FilterProgram {
    let fields = fields_of(kind);
    let schema = key_schema(kind);
    let load = |dst: Reg, key: FieldKey| match key {
        FieldKey::Field(field) => Insn::Ld { dst, field },
        FieldKey::Pay(off, width) => Insn::LdPay { dst, off, width },
    };

    // First the nodes, each jump a placeholder: its target's index is
    // known only once every node and terminator has its place.
    let mut insns = Vec::new();
    let mut starts = Vec::new();
    let mut jumps = Vec::new();
    if let Some(value) = pinned {
        insns.push(load(Reg(0), schema[0]));
        jumps.push((insns.len(), 2, Reg(0), value, To::Reject));
        insns.push(Insn::Reject);
    }
    for (i, &(sel, test, target, imm)) in raw.iter().enumerate() {
        starts.push(insns.len());
        let dst = Reg((sel >> 3) % 2);
        insns.push(if sel % 4 != 0 {
            load(dst, schema[(imm >> 8) as usize % schema.len()])
        } else {
            Insn::Ld {
                dst,
                field: fields[(imm >> 8) as usize % fields.len()],
            }
        });
        if sel % 8 == 7 {
            insns.push(Insn::And {
                dst,
                src: Src::Imm(imm >> 16),
            });
        }
        // Usually the register just loaded; now and then the other one.
        let a = if (test >> 4) % 4 == 0 {
            Reg(1 - dst.0)
        } else {
            dst
        };
        let later = raw.len() - i - 1;
        let to = match target as usize % (later + 2) {
            // Half the edges bail out, so conjunction-like chains — the
            // programs that verify to a key — are common, not the rule.
            _ if target >= 128 => To::Reject,
            k if k < later => To::Node(i + 1 + k),
            k if k == later => To::Accept,
            _ => To::Reject,
        };
        jumps.push((insns.len(), test, a, imm, to));
        insns.push(Insn::Reject);
    }

    // Then the terminators: the one the last node falls into, an `Accept`
    // per accepting edge, and the shared `Reject` if it is not there yet.
    let tail = insns.len();
    insns.push(if tail_accepts {
        Insn::Accept
    } else {
        Insn::Reject
    });
    let accepting = jumps.iter().filter(|j| j.4 == To::Accept).count();
    let rejecting = jumps.iter().any(|j| j.4 == To::Reject);
    let reject_at = if tail_accepts {
        tail + 1 + accepting
    } else {
        tail
    };
    for (at, test, a, imm, to) in jumps {
        let target = match to {
            To::Node(k) => starts[k],
            To::Reject => reject_at,
            To::Accept => {
                insns.push(Insn::Accept);
                insns.len() - 1
            }
        };
        insns[at] = decision_jump(test, a, imm, (target - at - 1) as u16);
    }
    if tail_accepts && rejecting {
        insns.push(Insn::Reject);
    }

    let mut prog = FilterProgram::new(kind, insns);
    let set = PortSet::new();
    for port in SET_PORTS {
        set.insert(port);
    }
    prog.sets = vec![set];
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Manager-built guards always verify, are bounded, and their checked
    // evaluation never faults — on packets of any kind, any head length.
    #[test]
    fn built_guards_verify_and_never_fault(
        kind_i in 0usize..4,
        raw_tests in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u64>(), any::<u64>()), 0..5),
        pkt_kind_i in 0usize..4,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let kind = KINDS[kind_i];
        let tests = decode_tests(kind, &raw_tests);
        let prog = conjunction(kind, &tests, vec![]);
        let vp = match verify(&prog) {
            Ok(vp) => vp,
            Err(report) => return Err(TestCaseError::fail(format!(
                "built guard failed verification: {report}"
            ))),
        };
        prop_assert!(vp.static_bound() <= plexus_filter::MAX_COST);
        // Must return (not fault) whatever the packet looks like.
        let pkt = TestPacket { kind: KINDS[pkt_kind_i], base, head };
        let _ = eval(&vp, &pkt);
    }

    // On a matching, fully-populated packet the defensive interpreter
    // agrees with the unchecked one: safety costs no answers.
    #[test]
    fn checked_and_unchecked_agree_on_well_formed_packets(
        kind_i in 0usize..4,
        raw_tests in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u64>(), any::<u64>()), 0..5),
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 64..80),
    ) {
        let kind = KINDS[kind_i];
        let tests = decode_tests(kind, &raw_tests);
        let prog = conjunction(kind, &tests, vec![]);
        let vp = verify(&prog).expect("built guard verifies");
        let pkt = TestPacket { kind, base, head };
        prop_assert_eq!(eval(&vp, &pkt), eval_unchecked(&prog, &pkt));
    }

    // Arbitrary instruction soup: either the verifier accepts (and the
    // program is then bounded and safe to evaluate) or it explains itself
    // with at least one error.
    #[test]
    fn arbitrary_programs_verify_or_report(
        kind_i in 0usize..4,
        raw_insns in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>(), any::<u64>()), 0..12),
        pkt_kind_i in 0usize..4,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut insns: Vec<Insn> = raw_insns.iter().map(|&r| decode_insn(r)).collect();
        insns.push(Insn::Accept);
        let prog = FilterProgram::new(KINDS[kind_i], insns);
        match verify(&prog) {
            Ok(vp) => {
                prop_assert!(vp.static_bound() <= plexus_filter::MAX_COST);
                let pkt = TestPacket { kind: KINDS[pkt_kind_i], base, head };
                let _ = eval(&vp, &pkt);
            }
            Err(report) => prop_assert!(!report.errors.is_empty()),
        }
    }

    // The install-time compiled tier agrees with the metered interpreter
    // on manager-built guards — verdict AND cycle count — including on
    // mismatched-kind packets, short heads (failed payload loads), and
    // absent fields. Safety *and* metering survive compilation.
    #[test]
    fn compiled_agrees_with_metered_interpreter_on_built_guards(
        kind_i in 0usize..4,
        raw_tests in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u64>(), any::<u64>()), 0..5),
        pkt_kind_i in 0usize..4,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let kind = KINDS[kind_i];
        let tests = decode_tests(kind, &raw_tests);
        let prog = conjunction(kind, &tests, vec![]);
        let vp = verify(&prog).expect("built guard verifies");
        let pkt = TestPacket { kind: KINDS[pkt_kind_i], base, head };
        let interp = eval_metered(&vp, &pkt, 0);
        let compiled = vp.compiled().eval(&pkt, 0);
        prop_assert_eq!(interp, compiled, "tiers diverge on a built guard");
    }

    // Same differential over arbitrary verifier-accepted instruction soup:
    // whatever register/jump/payload shape gets past the verifier, the
    // compiled closure must reproduce the interpreter bit for bit.
    #[test]
    fn compiled_agrees_on_arbitrary_verified_programs(
        kind_i in 0usize..4,
        raw_insns in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>(), any::<u64>()), 0..12),
        pkt_kind_i in 0usize..4,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut insns: Vec<Insn> = raw_insns.iter().map(|&r| decode_insn(r)).collect();
        insns.push(Insn::Accept);
        let prog = FilterProgram::new(KINDS[kind_i], insns);
        if let Ok(vp) = verify(&prog) {
            let pkt = TestPacket { kind: KINDS[pkt_kind_i], base, head };
            let interp = eval_metered(&vp, &pkt, 0);
            let compiled = vp.compiled().eval(&pkt, 0);
            prop_assert_eq!(interp, compiled, "tiers diverge on verified soup");
        }
    }

    // A program rejected for an out-of-bounds payload load really does
    // fault when interpreted without checks.
    #[test]
    fn oob_rejected_programs_fault_unchecked(
        kind_i in 0usize..4,
        off in 64u16..1000,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let kind = KINDS[kind_i];
        let prog = FilterProgram::new(
            kind,
            vec![
                Insn::LdPay { dst: Reg(0), off, width: Width::W16 },
                Insn::Accept,
            ],
        );
        let report = verify(&prog).expect_err("load beyond PAY_WINDOW must be rejected");
        let has_oob = report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::OutOfBoundsLoad { .. }));
        prop_assert!(has_oob, "expected an OutOfBoundsLoad error");
        let pkt = TestPacket { kind, base, head };
        let faulted = catch_unwind(AssertUnwindSafe(|| eval_unchecked(&prog, &pkt))).is_err();
        prop_assert!(faulted, "unchecked interpreter should fault on the OOB load");
    }

    // A program rejected for loading a field of the wrong event kind
    // faults when run unchecked against a packet of the program's kind.
    #[test]
    fn type_rejected_programs_fault_unchecked(
        field_i in 0usize..20,
        kind_i in 0usize..4,
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let field = ALL_FIELDS[field_i];
        // Pick a kind the field does NOT belong to.
        let kind = KINDS[(KINDS.iter().position(|k| *k == field.kind()).unwrap() + 1 + kind_i % 3) % 4];
        prop_assert_ne!(kind, field.kind());
        let prog = FilterProgram::new(
            kind,
            vec![Insn::Ld { dst: Reg(0), field }, Insn::Accept],
        );
        let report = verify(&prog).expect_err("cross-kind field load must be rejected");
        let has_mismatch = report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::FieldKindMismatch { .. }));
        prop_assert!(has_mismatch, "expected a FieldKindMismatch error");
        let pkt = TestPacket { kind, base, head };
        let faulted = catch_unwind(AssertUnwindSafe(|| eval_unchecked(&prog, &pkt))).is_err();
        prop_assert!(faulted, "unchecked interpreter should fault on the absent field");
    }
}

proptest! {
    // Four times the cases of the block above: about a third of the
    // generated DAGs verify to a key, and the properties are about those.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // `KeySpec`'s soundness invariant on whatever shape the verifier lets
    // through: a packet the guard accepts satisfies the key field by field
    // — each `In` field's value lies in the set, each `NotIn` field's
    // value is a member of none of the named sets. The demux index skips
    // guards on the strength of exactly this.
    #[test]
    fn accepted_packets_satisfy_the_demux_key(
        kind_i in 0usize..4,
        pinned in any::<u64>().prop_map(|v| (v % 2 == 0).then_some(v >> 1)),
        raw_nodes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..6),
        tail_accepts in any::<bool>(),
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let kind = KINDS[kind_i];
        let Ok(vp) = verify(&decision_dag(kind, pinned, &raw_nodes, tail_accepts)) else {
            return Ok(());
        };
        let Some(key) = vp.demux_key() else {
            return Ok(());
        };
        prop_assert_eq!(key.kind(), kind);
        // Eight consecutive bases walk every typed field through all of
        // its eight values, so a one-field key is hit by some packet.
        for step in 0..8 {
            let pkt = TestPacket { kind, base: base.wrapping_add(step), head: head.clone() };
            if !eval(&vp, &pkt) {
                continue;
            }
            for (field, spec) in key_schema(kind).iter().zip(key.fields()) {
                let seen = read_field_key(&pkt, *field);
                match spec {
                    FieldSpec::Any => {}
                    FieldSpec::In(vals) => prop_assert!(
                        seen.is_some_and(|v| vals.contains(&v)),
                        "accepted with {field} = {seen:?}, outside the key's {vals:?}"
                    ),
                    // Membership as `JInSet` decides it: a value wider
                    // than a port is a member of nothing.
                    FieldSpec::NotIn(sets) => prop_assert!(
                        seen.is_some_and(|v| {
                            u16::try_from(v).map_or(true, |p| !sets.iter().any(|s| s.contains(p)))
                        }),
                        "accepted with {field} = {seen:?}, inside a set the key excludes"
                    ),
                }
            }
        }
    }

    // The key is a fact about the program, not about who asked: whenever
    // a program verifies both bare and under a policy, the two keys are
    // the same (the policy is only checked at `Accept`, never folded in).
    #[test]
    fn the_demux_key_does_not_depend_on_the_policy(
        kind_i in 0usize..4,
        pinned in any::<u64>().prop_map(|v| (v % 2 == 0).then_some(v >> 1)),
        raw_nodes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..6),
        tail_accepts in any::<bool>(),
        raw_policy in prop::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let kind = KINDS[kind_i];
        let prog = decision_dag(kind, pinned, &raw_nodes, tail_accepts);
        let fields = fields_of(kind);
        let policy = raw_policy.iter().fold(Policy::new(), |policy, &(f, mask)| {
            let allowed = (0..8u64).filter(|v| mask & (1 << v) != 0);
            policy.require_in(FieldKey::Field(fields[f as usize % fields.len()]), allowed)
        });
        if let (Ok(bare), Ok(checked)) = (verify(&prog), verify_with_policy(&prog, &policy)) {
            prop_assert_eq!(
                format!("{:?}", bare.demux_key()),
                format!("{:?}", checked.demux_key())
            );
        }
    }

    // The anti-snoop theorem, evaluated: whenever a program verifies under
    // a policy, every packet it accepts satisfies every constraint of that
    // policy. Constraints name the kind's key-schema fields (which the DAGs
    // test most; the first one, which `pinned` pins, half the time) and
    // now and then another field, and most allow the pinned value, so that
    // programs that accept something verify too. `same_key` adds a second
    // constraint on the first one's key, and each must hold on its own.
    // The packets draw every field on its own, so that some of them pass
    // a program that pins several fields at once.
    #[test]
    fn a_program_verified_under_a_policy_accepts_only_what_it_allows(
        kind_i in 0usize..4,
        pinned in any::<u64>().prop_map(|v| (v % 2 == 0).then_some(v >> 1)),
        raw_nodes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..6),
        tail_accepts in any::<bool>(),
        raw_policy in prop::collection::vec((any::<u8>(), any::<u16>()), 1..4),
        same_key in any::<u32>().prop_map(|v| (v % 2 == 0).then_some((v >> 8) as u16)),
        seed in any::<u64>(),
    ) {
        let kind = KINDS[kind_i];
        let prog = decision_dag(kind, pinned, &raw_nodes, tail_accepts);
        let (schema, fields) = (key_schema(kind), fields_of(kind));
        let key = |sel: u8| match sel % 4 {
            0 | 1 => schema[0],
            2 => schema[(sel >> 2) as usize % schema.len()],
            _ => FieldKey::Field(fields[(sel >> 2) as usize % fields.len()]),
        };
        // Bits 0..8 of `mask` allow the values 0..8; bit 8 clear allows
        // the pinned value as well.
        let pinned_bit = pinned.map_or(0, |v| 1u16 << (v % 8));
        let allowed = move |mask: u16| {
            let mask = mask | if mask & 0x100 == 0 { pinned_bit } else { 0 };
            (0..8u64).filter(move |v| mask & (1 << v) != 0)
        };
        let mut constraints: Vec<(FieldKey, Vec<u64>)> = raw_policy
            .iter()
            .map(|&(sel, mask)| (key(sel), allowed(mask).collect()))
            .collect();
        if let Some(mask) = same_key {
            constraints.push((constraints[0].0, allowed(mask).collect()));
        }
        let policy = constraints.iter().fold(Policy::new(), |policy, (key, values)| {
            policy.require_in(*key, values.iter().copied())
        });
        let Ok(vp) = verify_with_policy(&prog, &policy) else {
            return Ok(());
        };
        let mut seed = seed;
        for _ in 0..64 {
            let pkt = DrawnPacket::draw(kind, &mut seed);
            if !eval(&vp, &pkt) {
                continue;
            }
            for (key, values) in &constraints {
                let seen = read_field_key(&pkt, *key);
                prop_assert!(
                    seen.is_some_and(|v| values.contains(&v)),
                    "accepted with {key} = {seen:?}, outside the policy's {values:?}"
                );
            }
        }
    }

    // The static bound is sound where the analysis does the most work:
    // ranges, joins, `JInSet` and re-tested fields. No stepped packet
    // spends more cycles than `static_bound()` promises, hit or miss.
    #[test]
    fn metered_spend_stays_within_the_static_bound(
        kind_i in 0usize..4,
        pinned in any::<u64>().prop_map(|v| (v % 2 == 0).then_some(v >> 1)),
        raw_nodes in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..6),
        tail_accepts in any::<bool>(),
        base in any::<u64>(),
        head in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let kind = KINDS[kind_i];
        let Ok(vp) = verify(&decision_dag(kind, pinned, &raw_nodes, tail_accepts)) else {
            return Ok(());
        };
        for step in 0..8 {
            let pkt = TestPacket { kind, base: base.wrapping_add(step), head: head.clone() };
            let (_, spent) = eval_metered(&vp, &pkt, 0);
            prop_assert!(
                spent <= vp.static_bound(),
                "spent {spent} cycles, bound {}", vp.static_bound()
            );
        }
    }
}
