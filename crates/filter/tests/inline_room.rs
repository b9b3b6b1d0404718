//! The lists a guard's build holds in place — a one-of test's values (4),
//! a policy's entries (8), a demux key's values (4) — at their room and
//! one past it, where they move to the heap: the emitted program, the
//! verdicts of both tiers, the static bound, the policy's report and the
//! key are the same on either side of the spill.

use plexus_filter::{
    conjunction, eval_metered, verify_with_policy, EventKind, Field, FieldKey, FieldSpec, Insn,
    Operand, Packet, Policy, Reg, Src, Test, VerifiedProgram,
};

/// A TCP segment with the given 4-tuple; every other field reads 0.
struct Seg {
    dst_addr: u64,
    dst_port: u64,
    src_addr: u64,
    src_port: u64,
}

impl Packet for Seg {
    fn kind(&self) -> EventKind {
        EventKind::TcpRecv
    }
    fn field(&self, field: Field) -> Option<u64> {
        Some(match field {
            Field::TcpDstAddr => self.dst_addr,
            Field::TcpDstPort => self.dst_port,
            Field::TcpSrcAddr => self.src_addr,
            Field::TcpSrcPort => self.src_port,
            _ => 0,
        })
    }
    fn head(&self) -> &[u8] {
        &[]
    }
}

const DST_ADDR: u64 = 1;
const SRC_ADDR: u64 = 2;
const SRC_PORT: u64 = 4242;

fn seg(dst_port: u64, src_addr: u64, src_port: u64) -> Seg {
    Seg {
        dst_addr: DST_ADDR,
        dst_port,
        src_addr,
        src_port,
    }
}

fn key(field: Field) -> FieldKey {
    FieldKey::Field(field)
}

/// Ports in no order, so the key's sorting shows.
const PORTS: [u64; 5] = [8080, 80, 443, 25, 22];

/// Both tiers' verdict and spend on `pkt`, checked equal.
fn verdict(vp: &VerifiedProgram, pkt: &Seg) -> (bool, u32) {
    let interpreted = eval_metered(vp, pkt, 0);
    assert_eq!(
        vp.compiled().eval(pkt, 0),
        interpreted,
        "compiled = interpreted"
    );
    interpreted
}

/// The key's `In` values per schema field (`None` for any other shape).
fn key_values(vp: &VerifiedProgram) -> Vec<Option<Vec<u64>>> {
    let key = vp.demux_key().expect("the guard is indexable");
    (key.fields())
        .map(|spec| match spec {
            FieldSpec::In(values) => Some(values.to_vec()),
            _ => None,
        })
        .collect()
}

#[test]
fn one_of_at_and_past_its_inline_room() {
    for n in [4, 5] {
        let values = &PORTS[..n];
        let port = Operand::Field(Field::TcpDstPort);
        let program = conjunction(
            EventKind::TcpRecv,
            &[Test::one_of(port, values.iter().copied())],
            vec![],
        );
        // `Ld`, a `Jeq` to the `Accept` per value but the last, whose
        // `Jne` fails to the `Reject`.
        let mut emitted = vec![Insn::Ld {
            dst: Reg(0),
            field: Field::TcpDstPort,
        }];
        for (at, &v) in (1..).zip(&values[..n - 1]) {
            emitted.push(Insn::Jeq {
                a: Reg(0),
                b: Src::Imm(v),
                off: (n - at) as u16,
            });
        }
        emitted.push(Insn::Jne {
            a: Reg(0),
            b: Src::Imm(values[n - 1]),
            off: 1,
        });
        emitted.extend([Insn::Accept, Insn::Reject]);
        assert_eq!(program.insns, emitted, "{n} values");

        let allowed = Policy::new().require_in(key(Field::TcpDstPort), values.iter().copied());
        let vp = verify_with_policy(&program, &allowed).expect("proves its own values");
        assert_eq!(vp.static_bound(), n as u32 + 2, "{n} values");
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        assert_eq!(key_values(&vp), [Some(sorted), None, None], "{n} values");
        for p in [0, 21, 22, 25, 26, 80, 443, 8080, 8081, 65_535] {
            let hit = values.contains(&p);
            let (accepted, _) = verdict(&vp, &seg(p, SRC_ADDR, SRC_PORT));
            assert_eq!(accepted, hit, "{n} values, port {p}");
        }
        // A value the policy does not allow.
        let short = Policy::new().require_in(key(Field::TcpDstPort), values[1..].iter().copied());
        let report = verify_with_policy(&program, &short).expect_err("accepts a value it may not");
        let errors: Vec<_> = report.errors.iter().map(ToString::to_string).collect();
        let refused = match n {
            4 => {
                "insn 5: policy violation: TcpDstPort must be within {25, 80, 443}, \
                  but may hold {25, 80, 443, 8080}"
            }
            _ => {
                "insn 6: policy violation: TcpDstPort must be within {22, 25, 80, 443}, \
                  but may hold {22, 25, 80, 443, 8080}"
            }
        };
        assert_eq!(errors, [refused], "{n} values");
    }
}

#[test]
fn a_policy_at_and_past_its_inline_room() {
    // A connection's 4-tuple guard.
    let tuple = [
        (Field::TcpDstAddr, DST_ADDR),
        (Field::TcpDstPort, 80),
        (Field::TcpSrcAddr, SRC_ADDR),
        (Field::TcpSrcPort, SRC_PORT),
    ];
    let tests = tuple.map(|(field, value)| Test::eq(Operand::Field(field), value));
    let program = conjunction(EventKind::TcpRecv, &tests, vec![]);
    let three = tuple[..3]
        .iter()
        .fold(Policy::new(), |policy, &(field, value)| {
            policy.require_eq(key(field), value)
        });
    // 8 entries: four keys and their values. 9: one more allowed value.
    let cases = [
        (
            8,
            three.clone().require_eq(key(Field::TcpSrcPort), SRC_PORT),
            None,
        ),
        (
            8,
            three
                .clone()
                .require_eq(key(Field::TcpSrcPort), SRC_PORT + 1),
            Some("insn 8: policy violation: TcpSrcPort must be within {4243}, but may hold {4242}"),
        ),
        (
            9,
            (three.clone()).require_in(key(Field::TcpSrcPort), [SRC_PORT + 1, SRC_PORT]),
            None,
        ),
        (
            9,
            (three.clone()).require_in(key(Field::TcpSrcPort), [SRC_PORT + 1, SRC_PORT + 2]),
            Some(
                "insn 8: policy violation: TcpSrcPort must be within {4243, 4244}, \
                 but may hold {4242}",
            ),
        ),
        (
            9,
            Policy::new()
                .require_in(key(Field::TcpDstPort), [80, 443])
                .require_eq(key(Field::TcpDstAddr), DST_ADDR + 1)
                .require_eq(key(Field::TcpSrcAddr), SRC_ADDR)
                .require_eq(key(Field::TcpSrcPort), SRC_PORT),
            Some("insn 8: policy violation: TcpDstAddr must be within {2}, but may hold {1}"),
        ),
    ];
    for (entries, policy, refused) in cases {
        match (verify_with_policy(&program, &policy), refused) {
            (Ok(vp), None) => {
                assert_eq!(vp.static_bound(), 9, "{entries} entries");
                assert_eq!(
                    key_values(&vp),
                    [Some(vec![80]), Some(vec![SRC_ADDR]), Some(vec![SRC_PORT])],
                    "{entries} entries"
                );
                assert!(verdict(&vp, &seg(80, SRC_ADDR, SRC_PORT)).0);
                assert!(!verdict(&vp, &seg(80, SRC_ADDR, SRC_PORT + 1)).0);
            }
            (Err(report), Some(why)) => {
                let errors: Vec<_> = report.errors.iter().map(ToString::to_string).collect();
                assert_eq!(errors, [why], "{entries} entries");
            }
            (got, want) => panic!("{entries} entries: {got:?}, expected refusal {want:?}"),
        }
    }
}

#[test]
fn a_key_at_and_past_its_inline_room() {
    // The key's values, over all three schema fields: 2 + 1 + 1, then
    // 3 + 1 + 1.
    for ports in [&PORTS[1..3], &PORTS[..3]] {
        let n = ports.len() + 2;
        let program = conjunction(
            EventKind::TcpRecv,
            &[
                Test::one_of(Operand::Field(Field::TcpDstPort), ports.iter().copied()),
                Test::eq(Operand::Field(Field::TcpSrcAddr), SRC_ADDR),
                Test::eq(Operand::Field(Field::TcpSrcPort), SRC_PORT),
            ],
            vec![],
        );
        let vp = verify_with_policy(&program, &Policy::new()).expect("verifies");
        assert_eq!(vp.static_bound(), ports.len() as u32 + 6, "{n} values");
        let mut sorted = ports.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            key_values(&vp),
            [Some(sorted), Some(vec![SRC_ADDR]), Some(vec![SRC_PORT])],
            "{n} values"
        );
        for p in [22, 80, 443, 8080] {
            for (addr, sport) in [
                (SRC_ADDR, SRC_PORT),
                (SRC_ADDR + 1, SRC_PORT),
                (SRC_ADDR, 1),
            ] {
                let hit = ports.contains(&p) && (addr, sport) == (SRC_ADDR, SRC_PORT);
                let (accepted, _) = verdict(&vp, &seg(p, addr, sport));
                assert_eq!(accepted, hit, "{n} values: {p}, {addr}, {sport}");
            }
        }
    }
}
