//! What the verifier makes of every guard shape the stack builds and of
//! every example spec, pinned by bytes: the emitted instructions, the
//! verdict (every error of a rejection), `static_bound`, the lints, the
//! demux key and what the compiled tier did (`CompileStats` and the
//! dispatched op count). The shapes are the ones `core::guards`' tests and
//! the protocol managers build, rebuilt here through the public builder,
//! under the policies the managers prove; the specs are read from
//! `examples/specs` (the rejected ones under `bad/` too).
//!
//! On a mismatch the test writes what it got next to the test binary and
//! names the file, so the difference can be read with `diff`.

use std::fmt::Write as _;
use std::path::Path;

use plexus_filter::{
    conjunction, conjunction_stateful, verify_with_policy, EventKind, Field, FieldKey, FieldSpec,
    FilterProgram, MapKind, Operand, Policy, PortSet, StateMap, Test, Width,
};

const KINDS: [EventKind; 4] = [
    EventKind::EthRecv,
    EventKind::IpRecv,
    EventKind::UdpRecv,
    EventKind::TcpRecv,
];

const FIELDS: [Field; 20] = [
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

/// Bytes 2..4 of a transport header at the head of an IP payload.
const DST_PORT: Operand = Operand::Pay {
    off: 2,
    width: Width::W16,
};
const DST_PORT_KEY: FieldKey = FieldKey::Pay(2, Width::W16);

const HOST: u64 = 0x0A00_0001; // 10.0.0.1
const BROADCAST: u64 = 0xFFFF_FFFF;
const MAC: u64 = 0x0200_0000_0007;
const MAC_BROADCAST: u64 = 0xFFFF_FFFF_FFFF;

fn field(f: Field) -> Operand {
    Operand::Field(f)
}

/// A policy's constraints, as the site states them: one `require_in` each.
type Constraints<'a> = &'a [(FieldKey, &'a [u64])];

/// The verifier's output for `program` under `constraints`, as text.
fn record(out: &mut String, name: &str, program: &FilterProgram, constraints: Constraints<'_>) {
    let policy = constraints.iter().fold(Policy::new(), |p, (key, allowed)| {
        p.require_in(*key, allowed.iter().copied())
    });
    writeln!(out, "== {name}").unwrap();
    writeln!(
        out,
        "kind {}, {} insn(s)",
        program.kind,
        program.insns.len()
    )
    .unwrap();
    for (key, allowed) in constraints {
        writeln!(out, "policy {key} in {allowed:?}").unwrap();
    }
    for (pc, insn) in program.insns.iter().enumerate() {
        writeln!(out, "  {pc:2}: {insn:?}").unwrap();
    }
    let vp = match verify_with_policy(program, &policy) {
        Ok(vp) => vp,
        Err(report) => {
            writeln!(out, "rejected").unwrap();
            for e in &report.errors {
                writeln!(out, "  error: {e}").unwrap();
            }
            return;
        }
    };
    writeln!(
        out,
        "verified: static_bound {}, state {} B",
        vp.static_bound(),
        vp.state_bytes()
    )
    .unwrap();
    for lint in vp.lints() {
        writeln!(out, "  lint: {lint}").unwrap();
    }
    match vp.demux_key() {
        None => writeln!(out, "demux_key: none").unwrap(),
        Some(key) => {
            let fields: Vec<String> = key
                .fields()
                .map(|spec| match spec {
                    FieldSpec::Any => "Any".to_string(),
                    FieldSpec::In(vals) => {
                        let vals: Vec<_> = vals.iter().map(u64::to_string).collect();
                        format!("In{{{}}}", vals.join(", "))
                    }
                    FieldSpec::NotIn(sets) => {
                        let sets: Vec<_> = sets.iter().map(PortSet::snapshot).collect();
                        format!("NotIn{sets:?}")
                    }
                })
                .collect();
            writeln!(out, "demux_key: {:?} {}", key.kind(), fields.join(" ")).unwrap();
        }
    }
    let compiled = vp.compiled();
    writeln!(
        out,
        "compiled: {:?}, {} op(s)",
        compiled.stats(),
        compiled.ops()
    )
    .unwrap();
}

/// Every guard shape the stack's managers build, with the policies they
/// prove, plus the shapes `core::guards`' tests build beside them.
fn manager_shapes(out: &mut String) {
    let eth = |tests: &[Test]| conjunction(EventKind::EthRecv, tests, vec![]);
    let ip = |tests: &[Test], sets| conjunction(EventKind::IpRecv, tests, sets);
    let proto = |p: u64| Test::eq(field(Field::IpProto), p);
    let local_dst = || Test::one_of(field(Field::IpDst), [HOST, BROADCAST]);

    record(
        out,
        "ether demux: ARP",
        &eth(&[Test::eq(field(Field::EthType), 0x0806)]),
        &[],
    );
    record(
        out,
        "ether demux: IPv4",
        &eth(&[Test::eq(field(Field::EthType), 0x0800)]),
        &[],
    );
    let to_me = Test::one_of(field(Field::EthDst), [MAC, MAC_BROADCAST]);
    record(
        out,
        "ether demux: IPv4 to this host",
        &eth(&[Test::eq(field(Field::EthType), 0x0800), to_me.clone()]),
        &[],
    );
    record(
        out,
        "ether extension (attach_ether)",
        &eth(&[Test::eq(field(Field::EthType), 0x88B5), to_me]),
        &[
            (FieldKey::Field(Field::EthType), &[0x88B5]),
            (FieldKey::Field(Field::EthDst), &[MAC, MAC_BROADCAST]),
        ],
    );
    record(out, "icmp node", &ip(&[proto(1)], vec![]), &[]);
    for (name, p) in [("udp standard node", 17), ("tcp standard node", 6)] {
        let carve_out = Test::NotInSet {
            op: DST_PORT,
            set: 0,
        };
        record(
            out,
            name,
            &ip(&[proto(p), carve_out], vec![PortSet::new()]),
            &[],
        );
    }
    let special = PortSet::new();
    for port in [53, 2049] {
        special.insert(port);
    }
    record(
        out,
        "udp standard node, two ports carved out",
        &ip(
            &[
                proto(17),
                Test::NotInSet {
                    op: DST_PORT,
                    set: 0,
                },
            ],
            vec![special],
        ),
        &[],
    );
    record(
        out,
        "pinned-port binding",
        &ip(&[proto(6), local_dst(), Test::eq(DST_PORT, 53)], vec![]),
        &[],
    );
    record(
        out,
        "udp special implementation (bind, checksum off)",
        &ip(&[proto(17), local_dst(), Test::eq(DST_PORT, 9000)], vec![]),
        &[
            (FieldKey::Field(Field::IpProto), &[17]),
            (DST_PORT_KEY, &[9000]),
            (FieldKey::Field(Field::IpDst), &[HOST, BROADCAST]),
        ],
    );
    record(
        out,
        "udp redirect",
        &ip(&[proto(17), Test::eq(DST_PORT, 5353)], vec![]),
        &[
            (FieldKey::Field(Field::IpProto), &[17]),
            (DST_PORT_KEY, &[5353]),
        ],
    );
    let claimed: Vec<u64> = (1..=20).collect();
    record(
        out,
        "tcp special claim of 20 ports",
        &ip(&[proto(6), Test::one_of(DST_PORT, claimed.clone())], vec![]),
        &[
            (FieldKey::Field(Field::IpProto), &[6]),
            (DST_PORT_KEY, &claimed),
        ],
    );

    let udp_bind = |port: u64| {
        conjunction(
            EventKind::UdpRecv,
            &[
                Test::eq(field(Field::UdpDstPort), port),
                Test::one_of(field(Field::UdpDstAddr), [HOST, BROADCAST]),
            ],
            vec![],
        )
    };
    let bound = |port: u64| {
        [
            (FieldKey::Field(Field::UdpDstPort), vec![port]),
            (FieldKey::Field(Field::UdpDstAddr), vec![HOST, BROADCAST]),
        ]
    };
    for (name, program, port) in [
        ("udp bind", udp_bind(7), 7),
        ("udp bind, a guard for another port", udp_bind(8), 7),
    ] {
        let policy = bound(port);
        let constraints: Vec<(FieldKey, &[u64])> =
            policy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        record(out, name, &program, &constraints);
    }
    record(
        out,
        "udp bind, two constraints on the port",
        &udp_bind(7),
        &[
            (FieldKey::Field(Field::UdpDstPort), &[7, 8]),
            (FieldKey::Field(Field::UdpDstPort), &[6, 7]),
            (FieldKey::Field(Field::UdpDstAddr), &[HOST, BROADCAST]),
        ],
    );
    record(
        out,
        "udp bind, two constraints on the port that exclude each other",
        &udp_bind(7),
        &[
            (FieldKey::Field(Field::UdpDstPort), &[7]),
            (FieldKey::Field(Field::UdpDstPort), &[8]),
        ],
    );
    record(
        out,
        "tcp listener",
        &conjunction(
            EventKind::TcpRecv,
            &[
                Test::eq(field(Field::TcpDstPort), 80),
                Test::eq(field(Field::TcpFlagSyn), 1),
                Test::eq(field(Field::TcpFlagAck), 0),
            ],
            vec![],
        ),
        &[(FieldKey::Field(Field::TcpDstPort), &[80])],
    );
    let tuple = [
        (Field::TcpDstAddr, HOST),
        (Field::TcpDstPort, 80),
        (Field::TcpSrcAddr, 0x0A00_0002),
        (Field::TcpSrcPort, 40_000),
    ];
    let tests: Vec<Test> = tuple.iter().map(|(f, v)| Test::eq(field(*f), *v)).collect();
    let values: Vec<[u64; 1]> = tuple.iter().map(|(_, v)| [*v]).collect();
    let constraints: Vec<(FieldKey, &[u64])> = tuple
        .iter()
        .zip(&values)
        .map(|((f, _), v)| (FieldKey::Field(*f), &v[..]))
        .collect();
    record(
        out,
        "tcp connection 4-tuple",
        &conjunction(EventKind::TcpRecv, &tests, vec![]),
        &constraints,
    );
    record(
        out,
        "tcp 4-tuple, core::guards' order",
        &conjunction(
            EventKind::TcpRecv,
            &[
                Test::eq(field(Field::TcpDstPort), 80),
                Test::eq(field(Field::TcpDstAddr), 1),
                Test::eq(field(Field::TcpSrcAddr), 2),
                Test::eq(field(Field::TcpSrcPort), 4242),
            ],
            vec![],
        ),
        &[],
    );
}

fn parse_operand<'a>(words: &'a [&'a str]) -> (Operand, &'a [&'a str]) {
    match words {
        ["field", name, rest @ ..] => {
            let f = FIELDS
                .into_iter()
                .find(|f| format!("{f:?}") == *name)
                .unwrap_or_else(|| panic!("unknown field {name}"));
            (Operand::Field(f), rest)
        }
        ["pay", off, width, rest @ ..] => {
            let width = match *width {
                "w8" => Width::W8,
                "w16" => Width::W16,
                "w32" => Width::W32,
                other => panic!("unknown width {other}"),
            };
            let off = off.parse().expect("payload offset");
            (Operand::Pay { off, width }, rest)
        }
        other => panic!("not an operand: {other:?}"),
    }
}

fn num<T: std::str::FromStr>(word: &str) -> T {
    word.parse()
        .unwrap_or_else(|_| panic!("not a number: {word}"))
}

/// The guard a spec file describes, and its policy: the lines
/// `plexus-verify` turns into a program (`map`, `state-budget`,
/// `guard-kind`, `guard-test`, `policy`), read the way it reads them.
fn spec_guard(text: &str) -> (FilterProgram, Vec<(FieldKey, Vec<u64>)>) {
    let (mut kind, mut tests, mut maps, mut budget) = (None, Vec::new(), Vec::new(), 0);
    let mut policy = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["map", name, "counter", cap] => {
                maps.push(StateMap::new(name, MapKind::Counter, num(cap)))
            }
            ["map", name, "bucket", cap, tokens, refill] => maps.push(StateMap::new(
                name,
                MapKind::TokenBucket {
                    tokens: num(tokens),
                    refill_per_ms: num(refill),
                },
                num(cap),
            )),
            ["state-budget", bytes] => budget = num(bytes),
            ["guard-kind", name] => kind = KINDS.into_iter().find(|k| format!("{k:?}") == *name),
            ["guard-test", rest @ ..] => {
                let map = |name: &str| {
                    maps.iter()
                        .position(|m: &StateMap| m.name() == name)
                        .expect("declared map") as u16
                };
                tests.push(match parse_operand(rest) {
                    (op, ["==", v]) => Test::eq(op, num(v)),
                    (op, ["in", vs @ ..]) => Test::one_of(op, vs.iter().map(|v| num(v))),
                    (op, ["take-token", mask, m]) => Test::TakeToken {
                        op,
                        mask: num(mask),
                        map: map(m),
                    },
                    (op, ["count", mask, m]) => Test::Count {
                        op,
                        mask: num(mask),
                        map: map(m),
                    },
                    (_, other) => panic!("unknown guard test {other:?}"),
                });
            }
            ["policy", rest @ ..] => {
                let (op, values) = match parse_operand(rest) {
                    (op, ["==", v]) => (op, vec![num(v)]),
                    (op, ["in", vs @ ..]) => (op, vs.iter().map(|v| num(v)).collect()),
                    (_, other) => panic!("unknown policy {other:?}"),
                };
                let key = match op {
                    Operand::Field(f) => FieldKey::Field(f),
                    Operand::Pay { off, width } => FieldKey::Pay(off, width),
                };
                policy.push((key, values));
            }
            _ => {}
        }
    }
    let kind = kind.expect("the spec describes a guard");
    (
        conjunction_stateful(kind, &tests, vec![], maps, budget),
        policy,
    )
}

fn example_specs(out: &mut String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut paths = Vec::new();
    for dir in [root.clone(), root.join("bad")] {
        for entry in std::fs::read_dir(&dir).expect("spec directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "spec") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("spec file");
        let (program, policy) = spec_guard(&text);
        let constraints: Vec<(FieldKey, &[u64])> =
            policy.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let name = path.strip_prefix(&root).expect("under the root");
        record(
            out,
            &format!("spec {}", name.display()),
            &program,
            &constraints,
        );
    }
}

#[test]
fn the_verifier_output_is_pinned() {
    let mut got = String::new();
    manager_shapes(&mut got);
    example_specs(&mut got);
    let expected = include_str!("expected/verifier-output.txt");
    if got != expected {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("verifier-output.txt");
        std::fs::write(&path, &got).expect("written");
        panic!(
            "the verifier's output drifted from tests/expected/verifier-output.txt; \
             what it printed is in {}",
            path.display()
        );
    }
}
