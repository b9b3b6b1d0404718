//! Guard evaluation three ways: native closure, verified-IR interpreter,
//! and the install-time compiled tier.
//!
//! One 16-instruction predicate (dst port + six payload fields) is
//! evaluated by:
//!
//! * **closure** — the predicate hand-written in Rust: the floor an
//!   in-kernel guard could ever reach, and exactly what SPIN-style
//!   type-safe extensions get for free (but without a static cycle
//!   bound);
//! * **interpreted** — the reference [`eval_metered`] interpreter over
//!   the verified IR;
//! * **compiled** — the fused-closure tier [`verify()`] builds at install
//!   time ([`VerifiedProgram::compiled`]): constants folded, loads
//!   pre-bounds-checked, load/branch pairs fused.
//!
//! The three are held to each other over a fixed 512-packet stream:
//! verdict counts, metered cycles and compile-shape stats are identical
//! across tiers by construction and land in
//! `results/BENCH_guard_eval.json`. Host-clock ns/eval of the same tiers
//! is `perf/`'s `filter.eval_interp_hit_ns` / `filter.eval_compiled_hit_ns`.

use crate::report::BenchReport;
use plexus_kernel::filter::{
    conjunction, eval_metered, verify, EventKind, Field, Operand, Packet, Test, VerifiedProgram,
    Width,
};

/// A UDP-shaped event with a payload head, enough to exercise field and
/// payload loads without building a stack.
struct Dgram {
    src_port: u16,
    dst_port: u16,
    head: Vec<u8>,
}

impl Packet for Dgram {
    fn kind(&self) -> EventKind {
        EventKind::UdpRecv
    }

    fn field(&self, field: Field) -> Option<u64> {
        match field {
            Field::UdpSrcPort => Some(u64::from(self.src_port)),
            Field::UdpDstPort => Some(u64::from(self.dst_port)),
            _ => None,
        }
    }

    fn head(&self) -> &[u8] {
        &self.head
    }
}

/// The payload image the hit packet carries; the six payload tests below
/// check fields of it at three widths — a protocol-fingerprint guard.
const HIT_HEAD: [u8; 12] = [
    0xAA, 0x55, 0x01, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x12, 0x34, 0x56, 0x00,
];

/// The 16-instruction program: 7 conjoined equality tests (2 insns each:
/// load + branch-to-reject) plus the accept/reject tail. One port test
/// plus six payload-fingerprint tests — the deep-inspection shape where
/// the interpreter pays a virtual `head()` call per payload load while
/// the compiled tier fetches the head once per evaluation.
fn sixteen_insn_program() -> VerifiedProgram {
    let pay = |off: u16, width: Width| Operand::Pay { off, width };
    let prog = conjunction(
        EventKind::UdpRecv,
        &[
            Test::eq(Operand::Field(Field::UdpDstPort), 7),
            Test::eq(pay(0, Width::W16), 0xAA55),
            Test::eq(pay(2, Width::W8), 0x01),
            Test::eq(pay(4, Width::W32), 0xDEAD_BEEF),
            Test::eq(pay(6, Width::W16), 0xBEEF),
            Test::eq(pay(8, Width::W16), 0x1234),
            Test::eq(pay(10, Width::W8), 0x56),
        ],
        vec![],
    );
    let vp = verify(&prog).expect("the 16-insn benchmark guard verifies");
    assert_eq!(
        vp.program().insns.len(),
        16,
        "the benchmark is defined at the 16-instruction size"
    );
    vp
}

/// The same predicate hand-written: big-endian payload loads with the
/// bounds checks the verifier proves away.
fn closure_predicate(d: &Dgram) -> bool {
    let be = |off: usize, len: usize| -> Option<u64> {
        let bytes = d.head.get(off..off + len)?;
        Some(bytes.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b)))
    };
    d.dst_port == 7
        && be(0, 2) == Some(0xAA55)
        && be(2, 1) == Some(0x01)
        && be(4, 4) == Some(0xDEAD_BEEF)
        && be(6, 2) == Some(0xBEEF)
        && be(8, 2) == Some(0x1234)
        && be(10, 1) == Some(0x56)
}

/// A deterministic 512-packet stream exercising hits, port misses, payload
/// misses, and short heads (failed payload loads).
fn stream() -> Vec<Dgram> {
    (0u32..512)
        .map(|i| {
            let mut head = HIT_HEAD.to_vec();
            match i % 4 {
                // Hit candidate (ports may still miss below).
                0 => {}
                // Payload miss: corrupt one checked byte.
                1 => head[(i as usize / 4) % HIT_HEAD.len()] ^= 0xFF,
                // Short head: the W32 load at offset 4 cannot complete.
                2 => head.truncate((i as usize / 4) % 8),
                // Extra tail bytes must not change any verdict.
                _ => head.extend_from_slice(&[0u8; 32]),
            }
            Dgram {
                src_port: if i % 3 == 0 {
                    2000
                } else {
                    1000 + (i % 7) as u16
                },
                dst_port: if i % 2 == 0 { 7 } else { 8 },
                head,
            }
        })
        .collect()
}

/// The three-tier comparison over the fixed stream.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    let vp = sixteen_insn_program();
    let compiled = vp.compiled();
    let cs = compiled.stats();
    let hit = Dgram {
        src_port: 2000,
        dst_port: 7,
        head: HIT_HEAD.to_vec(),
    };
    let miss = Dgram {
        src_port: 2000,
        dst_port: 8,
        head: HIT_HEAD.to_vec(),
    };
    assert!(closure_predicate(&hit) && eval_metered(&vp, &hit, 0).0 && compiled.eval(&hit, 0).0);
    assert!(
        !closure_predicate(&miss) && !eval_metered(&vp, &miss, 0).0 && !compiled.eval(&miss, 0).0
    );

    outln!(
        out,
        "Guard evaluation: closure vs. interpreted IR vs. compiled tier"
    );
    outln!(out,
        "(16-insn program: {} thunks, {} folded consts, {} fused loads, {} dispatched ops; bound {} cycles)",
        cs.thunks,
        cs.folded_consts,
        cs.fused_loads,
        compiled.ops(),
        vp.static_bound()
    );

    // Verdicts and metered cycles over the fixed stream are identical
    // across tiers by the equivalence contract; the compile-shape stats
    // pin the fusion level.
    let (mut accepts, mut cycles_i, mut cycles_c, mut closure_accepts) = (0u64, 0u64, 0u64, 0u64);
    for pkt in stream() {
        let (ok_i, spent_i) = eval_metered(&vp, &pkt, 0);
        let (ok_c, spent_c) = compiled.eval(&pkt, 0);
        let ok_n = closure_predicate(&pkt);
        assert_eq!((ok_i, spent_i), (ok_c, spent_c), "tiers diverge");
        assert_eq!(ok_i, ok_n, "native predicate diverges");
        assert!(spent_c <= vp.static_bound(), "over static bound");
        accepts += u64::from(ok_i);
        closure_accepts += u64::from(ok_n);
        cycles_i += u64::from(spent_i);
        cycles_c += u64::from(spent_c);
    }
    outln!(
        out,
        "512 packets: {accepts} accepted by all three, {cycles_i} metered cycles on either IR tier"
    );
    report.count("program/insns", vp.program().insns.len() as u64);
    report.count("program/static_bound", u64::from(vp.static_bound()));
    report.count("compiled/thunks", u64::from(cs.thunks));
    report.count("compiled/folded_consts", u64::from(cs.folded_consts));
    report.count("compiled/fused_loads", u64::from(cs.fused_loads));
    report.count("compiled/fused_state_ops", u64::from(cs.fused_state_ops));
    report.count("compiled/ops", compiled.ops() as u64);
    report.count("stream/packets", 512);
    report.count("stream/accepts/closure", closure_accepts);
    report.count("stream/accepts/interpreted", accepts);
    report.count("stream/accepts/compiled", accepts);
    report.count("stream/cycles/interpreted", cycles_i);
    report.count("stream/cycles/compiled", cycles_c);
}
