//! # plexus-filter — verified guard IR
//!
//! SPIN's dispatcher lets extensions attach *guards* — packet-filter
//! predicates — to protocol events. The paper's §3.1 safety story
//! ("applications cannot snoop on other applications' packets, and cannot
//! source spoofed packets") rests on protocol managers building those
//! guards on the application's behalf. With opaque closures the manager
//! must be trusted to have built the right predicate; nothing checks it.
//!
//! This crate makes guards *data*: a BPF-style straight-line program over
//! typed packet fields ([`ir::FilterProgram`]), plus a static verifier
//! ([`verify::verify_with_policy`]) that proves, at install time:
//!
//! * **memory safety** — field loads are typed against the event kind and
//!   payload loads stay inside a static window;
//! * **termination and bounded cost** — control flow is forward-only and
//!   total cost is below a budget, so a guard is safe to run at interrupt
//!   level; a static worst-case cycle bound and bounded map state are
//!   proved on top;
//! * **no dead code, no undefined reads** — every instruction is
//!   reachable, every path terminates, every register read is preceded by
//!   a write on all paths;
//! * **policy compliance** — conservative value-set analysis proves
//!   that every accepting path constrains the destination port/address to
//!   the caller's own binding: the anti-snoop guarantee, checked instead
//!   of assumed.
//!
//! Everything but the per-instruction checks comes from one forward
//! abstract interpretation ([`absint`]): one state per instruction holding
//! each register's symbolic value and interval and each field's value
//! set, one join, one refinement per branch edge. The demux key
//! ([`verify::KeySpec`]) is folded from the states it reaches at `Accept`.
//!
//! The same multi-error reporting discipline extends to extension specs:
//! [`spec::analyze`] computes a spec's import closure against an
//! interface table and reports unresolved, unused, duplicate, and
//! undeclared symbols all at once. The kernel's linker admits only specs
//! it finds clean, and the `plexus-verify` binary exposes both passes as a
//! command-line linter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod builder;
pub mod compile;
pub mod cost;
pub mod eval;
mod inline;
pub mod ir;
pub mod spec;
pub mod state;
pub mod verify;

pub use absint::Lint;
pub use builder::{conjunction, conjunction_stateful, Operand, Test};
pub use compile::{CompileStats, CompiledProgram};
pub use eval::{eval, eval_metered, eval_unchecked, read_field_key, Packet};
pub use inline::Inline;
pub use ir::{
    EventKind, Field, FilterProgram, Insn, MapId, PortSet, Reg, SetId, Src, Width, MAX_COST,
    MAX_INSNS, NUM_REGS, PAY_WINDOW,
};
pub use state::{MapKind, StateMap, MAX_STATE_BYTES};
pub use verify::{
    key_schema, verify, verify_owned, verify_with_policy, FieldKey, FieldSpec, FilterReport,
    KeySpec, Policy, VerifiedProgram, VerifyError, MAX_ENUMERATED_KEYS,
};

#[cfg(test)]
mod tests {
    use super::ir::{MAX_COST, MAX_INSNS};
    use super::*;

    /// A minimal UdpRecv-shaped packet for tests.
    struct TestUdp {
        src: u64,
        dst: u64,
        src_port: u64,
        dst_port: u64,
        payload: Vec<u8>,
    }

    impl Packet for TestUdp {
        fn kind(&self) -> EventKind {
            EventKind::UdpRecv
        }

        fn field(&self, field: Field) -> Option<u64> {
            match field {
                Field::UdpSrcAddr => Some(self.src),
                Field::UdpDstAddr => Some(self.dst),
                Field::UdpSrcPort => Some(self.src_port),
                Field::UdpDstPort => Some(self.dst_port),
                Field::UdpPayloadLen => Some(self.payload.len() as u64),
                _ => None,
            }
        }

        fn head(&self) -> &[u8] {
            &self.payload
        }
    }

    fn udp_to(dst_port: u64) -> TestUdp {
        TestUdp {
            src: 0x0A00_0001,
            dst: 0x0A00_0002,
            src_port: 9999,
            dst_port,
            payload: vec![0u8; 32],
        }
    }

    fn port_guard(port: u64) -> FilterProgram {
        conjunction(
            EventKind::UdpRecv,
            &[Test::eq(Operand::Field(Field::UdpDstPort), port)],
            Vec::new(),
        )
    }

    #[test]
    fn accepts_simple_port_guard() {
        let vp = verify(&port_guard(53)).expect("clean program verifies");
        assert!(eval(&vp, &udp_to(53)));
        assert!(!eval(&vp, &udp_to(54)));
    }

    // Acceptance case 1: an out-of-bounds field load is rejected.
    #[test]
    fn rejects_out_of_bounds_payload_load() {
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Insn::LdPay {
                    dst: Reg(0),
                    off: ir::PAY_WINDOW, // one past the window
                    width: Width::W16,
                },
                Insn::Accept,
            ],
        );
        let report = verify(&prog).expect_err("OOB load must be rejected");
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, VerifyError::OutOfBoundsLoad { at: 0, .. })),
            "expected OutOfBoundsLoad in {report}"
        );
    }

    // Acceptance case 2: a program over the cost budget is rejected.
    #[test]
    fn rejects_over_budget_program() {
        // MAX_INSNS-1 payload loads (cost 2 each) blow the cost budget
        // while staying under the instruction-count limit, then blow the
        // length limit too with a longer variant.
        let mut insns: Vec<Insn> = (0..(MAX_INSNS - 1))
            .map(|_| Insn::LdPay {
                dst: Reg(0),
                off: 0,
                width: Width::W8,
            })
            .collect();
        insns.push(Insn::Accept);
        let prog = FilterProgram::new(EventKind::UdpRecv, insns);
        assert!(prog.total_cost() > MAX_COST);
        let report = verify(&prog).expect_err("over-budget program must be rejected");
        assert!(
            report
                .errors
                .iter()
                .any(|e| matches!(e, VerifyError::CostOverBudget { .. })),
            "expected CostOverBudget in {report}"
        );

        let long = FilterProgram::new(
            EventKind::UdpRecv,
            std::iter::repeat_n(
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                MAX_INSNS + 4,
            )
            .chain([Insn::Accept])
            .collect(),
        );
        let report = verify(&long).expect_err("over-long program must be rejected");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::TooLong { .. })));
    }

    // Acceptance case 3: a UDP app guard matching a port other than the
    // caller's binding violates the anti-snoop policy.
    #[test]
    fn rejects_guard_snooping_on_foreign_port() {
        let bound_port = 4000u64;
        let policy = Policy::new().require_eq(FieldKey::Field(Field::UdpDstPort), bound_port);

        // The honest guard (matches the caller's own binding) passes.
        verify_with_policy(&port_guard(bound_port), &policy)
            .expect("guard matching own binding verifies");

        // A guard matching someone else's port is rejected with a
        // PolicyViolation naming the offending accept.
        let report = verify_with_policy(&port_guard(4001), &policy)
            .expect_err("snooping guard must be rejected");
        assert!(
            report.has_policy_violation(),
            "expected PolicyViolation in {report}"
        );

        // So is a guard that never constrains the port at all.
        let wide_open = FilterProgram::new(EventKind::UdpRecv, vec![Insn::Accept]);
        let report = verify_with_policy(&wide_open, &policy)
            .expect_err("unconstrained guard must be rejected");
        assert!(report.has_policy_violation());
    }

    #[test]
    fn reports_every_error_not_just_the_first() {
        // One program with three distinct defects: a mistyped field, an
        // OOB payload load, and a bad register.
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::TcpDstPort, // wrong kind
                },
                Insn::LdPay {
                    dst: Reg(0),
                    off: 1000, // out of window
                    width: Width::W32,
                },
                Insn::LdImm {
                    dst: Reg(200), // no such register
                    imm: 0,
                },
                Insn::Accept,
            ],
        );
        let report = verify(&prog).expect_err("defective program must be rejected");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::FieldKindMismatch { .. })));
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::OutOfBoundsLoad { .. })));
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::BadRegister { .. })));
        assert!(report.errors.len() >= 3);
    }

    #[test]
    fn rejects_unreachable_and_undefined() {
        // insn 1 is skipped by the jump; insn 3 reads an undefined reg on
        // the path where insn 2 never wrote it.
        let prog = FilterProgram::new(
            EventKind::UdpRecv,
            vec![
                Insn::Ja { off: 1 },
                Insn::LdImm {
                    dst: Reg(1),
                    imm: 7,
                }, // unreachable
                Insn::Jeq {
                    a: Reg(1), // read before any write on the live path
                    b: Src::Imm(7),
                    off: 0,
                },
                Insn::Accept,
            ],
        );
        let report = verify(&prog).expect_err("must be rejected");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::Unreachable { at: 1 })));
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::UndefinedRegister { at: 2, reg: 1 })));
    }

    #[test]
    fn rejects_missing_terminator_and_bad_jump() {
        let falls_off = FilterProgram::new(
            EventKind::UdpRecv,
            vec![Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            }],
        );
        let report = verify(&falls_off).expect_err("must be rejected");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::MissingTerminator { at: 0 })));

        let wild_jump =
            FilterProgram::new(EventKind::UdpRecv, vec![Insn::Ja { off: 40 }, Insn::Accept]);
        let report = verify(&wild_jump).expect_err("must be rejected");
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, VerifyError::JumpOutOfRange { at: 0, .. })));
    }

    #[test]
    fn empty_program_is_rejected() {
        let report = verify(&FilterProgram::new(EventKind::UdpRecv, Vec::new()))
            .expect_err("empty program must be rejected");
        assert_eq!(report.errors, vec![VerifyError::EmptyProgram]);
    }

    #[test]
    fn port_set_membership_is_live() {
        let special = PortSet::new();
        let prog = conjunction(
            EventKind::IpRecv,
            &[
                Test::eq(Operand::Field(Field::IpProto), 17),
                Test::NotInSet {
                    op: Operand::Pay {
                        off: 2,
                        width: Width::W16,
                    },
                    set: 0,
                },
            ],
            vec![special.clone()],
        );
        let vp = verify(&prog).expect("verifies");

        struct Ip {
            payload: Vec<u8>,
        }
        impl Packet for Ip {
            fn kind(&self) -> EventKind {
                EventKind::IpRecv
            }
            fn field(&self, field: Field) -> Option<u64> {
                match field {
                    Field::IpProto => Some(17),
                    Field::IpSrc | Field::IpDst => Some(0),
                    Field::IpPayloadLen => Some(self.payload.len() as u64),
                    _ => None,
                }
            }
            fn head(&self) -> &[u8] {
                &self.payload
            }
        }

        // dst port 53 lives at payload bytes 2..4
        let pkt = Ip {
            payload: vec![0, 0, 0, 53, 0, 0, 0, 0],
        };
        assert!(eval(&vp, &pkt), "port not special yet");
        special.insert(53);
        assert!(!eval(&vp, &pkt), "set updates are seen without reinstall");
        special.remove(53);
        assert!(eval(&vp, &pkt));
    }

    #[test]
    fn multi_value_test_joins_at_merge_point() {
        let policy = Policy::new().require_in(
            FieldKey::Field(Field::UdpDstAddr),
            [0x0A00_0002u64, 0xFFFF_FFFF],
        );
        let prog = conjunction(
            EventKind::UdpRecv,
            &[
                Test::one_of(
                    Operand::Field(Field::UdpDstAddr),
                    [0x0A00_0002u64, 0xFFFF_FFFF],
                ),
                Test::eq(Operand::Field(Field::UdpDstPort), 53),
            ],
            Vec::new(),
        );
        verify_with_policy(&prog, &policy).expect("join keeps both constants");

        // But a third address sneaks past the policy -> rejected.
        let wide = conjunction(
            EventKind::UdpRecv,
            &[Test::one_of(
                Operand::Field(Field::UdpDstAddr),
                [0x0A00_0002u64, 0xFFFF_FFFF, 0x0A00_0099],
            )],
            Vec::new(),
        );
        let report = verify_with_policy(&wide, &policy).expect_err("must be rejected");
        assert!(report.has_policy_violation());
    }

    #[test]
    fn kind_mismatch_rejected_at_eval_time_too() {
        let vp = verify(&port_guard(53)).unwrap();
        struct NotUdp;
        impl Packet for NotUdp {
            fn kind(&self) -> EventKind {
                EventKind::TcpRecv
            }
            fn field(&self, _: Field) -> Option<u64> {
                None
            }
            fn head(&self) -> &[u8] {
                &[]
            }
        }
        assert!(!eval(&vp, &NotUdp));
    }

    #[test]
    fn demux_key_extracts_eq_conjunction() {
        let vp = verify(&port_guard(53)).unwrap();
        let spec = vp.demux_key().expect("eq guard is indexable");
        assert_eq!(spec.kind(), EventKind::UdpRecv);
        assert_eq!(spec.fields().len(), 1);
        let field = spec.fields().next().unwrap();
        match field {
            FieldSpec::In(vals) => assert_eq!(vals, [53]),
            other => panic!("expected In, got {other:?}"),
        }
    }

    #[test]
    fn demux_key_unions_one_of_values() {
        let prog = conjunction(
            EventKind::UdpRecv,
            &[Test::one_of(
                Operand::Field(Field::UdpDstPort),
                [53u64, 67, 68],
            )],
            Vec::new(),
        );
        let vp = verify(&prog).unwrap();
        let spec = vp.demux_key().expect("indexable");
        let field = spec.fields().next().unwrap();
        match field {
            FieldSpec::In(vals) => assert_eq!(vals, [53, 67, 68]),
            other => panic!("expected In, got {other:?}"),
        }
    }

    #[test]
    fn demux_key_tracks_not_in_set_and_in_together() {
        // The UDP manager's standard-node guard shape: proto == 17 AND
        // transport dst port not in the special set.
        let special = PortSet::new();
        let prog = conjunction(
            EventKind::IpRecv,
            &[
                Test::eq(Operand::Field(Field::IpProto), 17),
                Test::NotInSet {
                    op: Operand::Pay {
                        off: 2,
                        width: Width::W16,
                    },
                    set: 0,
                },
            ],
            vec![special.clone()],
        );
        let vp = verify(&prog).unwrap();
        let spec = vp.demux_key().expect("indexable via proto");
        let fields: Vec<_> = spec.fields().collect();
        assert_eq!(fields.len(), 2);
        assert!(matches!(fields[0], FieldSpec::In(v) if v.contains(&17)));
        match fields[1] {
            FieldSpec::NotIn(sets) => {
                assert_eq!(sets.len(), 1);
                // The spec carries the *live* shared set, not a snapshot.
                special.insert(9);
                assert!(sets[0].contains(9));
            }
            other => panic!("expected NotIn, got {other:?}"),
        }
    }

    #[test]
    fn demux_key_keeps_a_not_in_fact_only_if_every_accept_proves_it() {
        // proto == 17, then: port 53 accepts outright; any other port
        // accepts if it is outside the set. Only the second accept proves
        // "port not in set", so the key must not claim it — port 53 may
        // well be in the set and still be accepted.
        let port = Reg(1);
        let insns = vec![
            Insn::Ld {
                dst: Reg(0),
                field: Field::IpProto,
            },
            Insn::Jne {
                a: Reg(0),
                b: Src::Imm(17),
                off: 4,
            },
            Insn::LdPay {
                dst: port,
                off: 2,
                width: Width::W16,
            },
            Insn::Jeq {
                a: port,
                b: Src::Imm(53),
                off: 3,
            },
            Insn::JInSet {
                a: port,
                set: 0,
                off: 1,
            },
            Insn::Accept,
            Insn::Reject,
            Insn::Accept,
        ];
        let mut prog = FilterProgram::new(EventKind::IpRecv, insns);
        prog.sets = vec![PortSet::new()];
        let vp = verify(&prog).unwrap();
        let spec = vp.demux_key().expect("indexable via proto");
        let fields: Vec<_> = spec.fields().collect();
        assert!(matches!(fields[0], FieldSpec::In(v) if v.contains(&17)));
        assert!(matches!(fields[1], FieldSpec::Any));
    }

    #[test]
    fn demux_key_absent_for_unconstrained_guard() {
        // Accept-all over UdpRecv: no In field -> no key.
        let wide_open = FilterProgram::new(EventKind::UdpRecv, vec![Insn::Accept]);
        assert!(verify(&wide_open).unwrap().demux_key().is_none());

        // A guard that only constrains a non-schema field (payload length)
        // is likewise not indexable.
        let by_len = conjunction(
            EventKind::UdpRecv,
            &[Test::eq(Operand::Field(Field::UdpPayloadLen), 8)],
            Vec::new(),
        );
        assert!(verify(&by_len).unwrap().demux_key().is_none());
    }

    #[test]
    fn demux_key_absent_for_never_accepting_guard() {
        let prog = FilterProgram::new(EventKind::UdpRecv, vec![Insn::Reject]);
        assert!(verify(&prog).unwrap().demux_key().is_none());
    }

    #[test]
    fn demux_key_caps_enumerated_cross_product() {
        // Two 9-value one_of tests over schema fields: the 81-key cross
        // product exceeds MAX_ENUMERATED_KEYS (64), so the widest In field
        // is demoted to Any while the other still indexes.
        let dsts: Vec<u64> = (80..89).collect();
        let srcs: Vec<u64> = (2000..2009).collect();
        let prog = conjunction(
            EventKind::TcpRecv,
            &[
                Test::one_of(Operand::Field(Field::TcpDstPort), dsts),
                Test::one_of(Operand::Field(Field::TcpSrcPort), srcs),
            ],
            Vec::new(),
        );
        let vp = verify(&prog).unwrap();
        let spec = vp.demux_key().expect("still indexable");
        let fields: Vec<_> = spec.fields().collect();
        assert!(matches!(fields[0], FieldSpec::In(v) if v.len() == 9));
        assert!(matches!(fields[1], FieldSpec::Any), "src addr untested");
        assert!(
            matches!(fields[2], FieldSpec::Any),
            "widest In demoted to fit the cap"
        );
    }

    #[test]
    fn read_field_key_mirrors_eval_loads() {
        let pkt = udp_to(53);
        assert_eq!(
            read_field_key(&pkt, FieldKey::Field(Field::UdpDstPort)),
            Some(53)
        );
        assert_eq!(read_field_key(&pkt, FieldKey::Field(Field::IpProto)), None);
        assert_eq!(
            read_field_key(&pkt, FieldKey::Pay(0, Width::W16)),
            Some(0),
            "in-window payload load"
        );
        assert_eq!(
            read_field_key(&pkt, FieldKey::Pay(31, Width::W16)),
            None,
            "short payload reads as None, as eval would reject"
        );
    }

    #[test]
    fn spec_analysis_reports_all_issues() {
        use spec::{analyze, ExtensionSpec, InterfaceTable, Signature, SpecIssue};

        let mut table = InterfaceTable::new();
        table.insert(
            "UDP",
            ["UDP.PacketRecv".to_string(), "UDP.Send".to_string()],
        );
        table.insert("Video", ["Video.Frame".to_string()]);

        let spec = ExtensionSpec {
            name: "Video".into(), // collides with existing interface
            signature: Signature::Unsigned,
            imports: vec![
                "UDP.PacketRecv".into(),
                "UDP.PacketRecv".into(),   // duplicate
                "UDP.Send".into(),         // unused
                "Ether.PacketSent".into(), // unresolved
                "Video.Frame".into(),      // self-import
            ],
            refs: vec![
                "UDP.PacketRecv".into(),
                "Ether.PacketSent".into(),
                "VM.MapKernel".into(), // undeclared
            ],
            exports: vec!["Frame".into(), "Frame".into()], // duplicate
        };
        let report = analyze(&table, &spec);
        let has = |pred: fn(&SpecIssue) -> bool| report.issues.iter().any(pred);
        assert!(has(|i| matches!(i, SpecIssue::BadSignature)));
        assert!(has(|i| matches!(i, SpecIssue::DuplicateImport { .. })));
        assert!(has(|i| matches!(i, SpecIssue::UnusedImport { .. })));
        assert!(has(|i| matches!(i, SpecIssue::UnresolvedImport { .. })));
        assert!(has(|i| matches!(i, SpecIssue::SelfImport { .. })));
        assert!(has(|i| matches!(i, SpecIssue::UndeclaredReference { .. })));
        assert!(has(|i| matches!(i, SpecIssue::ExportCollision { .. })));
        assert!(has(|i| matches!(i, SpecIssue::DuplicateExport { .. })));
        assert!(report.issues.len() >= 8, "all issues reported: {report}");
    }
}
