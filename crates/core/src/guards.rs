//! Manager-side guard construction.
//!
//! Every guard the stack and its protocol managers install is compiled to
//! the declarative filter IR and **statically verified** before it reaches
//! the dispatcher — the paper's "guards are packet filters" (§3.1) made
//! checkable. The helpers here capture the two shapes the managers share:
//! an EtherType demultiplexer on `Ethernet.PacketRecv` and a transport
//! node on `Ip.PacketRecv` (protocol number + optional local-destination
//! check + a destination-port test), which is the common skeleton of the
//! standard UDP node, special UDP bindings, UDP/TCP redirectors, and
//! special TCP claims.

use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_filter::{
    conjunction, verify_owned, EventKind, Field, FilterProgram, Operand, Policy, PortSet, Test,
    VerifiedProgram, Width,
};
use plexus_net::ether::{EtherType, MacAddr};

use crate::types::mac_to_u64;

/// Declared worst-case cycle ceiling for EtherType demux guards (an
/// EthType test plus at most a two-address destination check).
pub(crate) const ETHER_GUARD_CYCLES: u32 = 8;

/// Declared ceiling for transport-node guards: protocol number, optional
/// locality test, and a single pinned-port (or NotInSet carve-out) test.
pub(crate) const TRANSPORT_GUARD_CYCLES: u32 = 16;

/// Declared ceiling for transport guards enumerating a claimed port list
/// (`Test::one_of`); covers a few dozen ports.
pub(crate) const MULTIPORT_GUARD_CYCLES: u32 = 32;

/// The destination port of a transport header at the head of an IP
/// payload: bytes 2..4 of both the UDP and the TCP header.
pub(crate) const TRANSPORT_DST_PORT: Operand = Operand::Pay {
    off: 2,
    width: Width::W16,
};

/// The [`plexus_filter::FieldKey`] for [`TRANSPORT_DST_PORT`], used when a
/// policy must pin the port a transport guard may accept.
pub(crate) const TRANSPORT_DST_PORT_KEY: plexus_filter::FieldKey =
    plexus_filter::FieldKey::Pay(2, Width::W16);

/// `IpDst ∈ {my_ip, broadcast}` — the locality test transport bindings use.
pub(crate) fn local_dst_test(my_ip: Ipv4Addr) -> Test {
    Test::one_of(Operand::Field(Field::IpDst), local_dst_values(my_ip))
}

/// The value set `{my_ip, broadcast}` (for building the matching policy).
pub(crate) fn local_dst_values(my_ip: Ipv4Addr) -> [u64; 2] {
    [
        u64::from(u32::from(my_ip)),
        u64::from(u32::from(Ipv4Addr::BROADCAST)),
    ]
}

/// The guard shape shared by every transport node on `Ip.PacketRecv`:
/// `IpProto == proto`, optionally `IpDst ∈ {my_ip, broadcast}`, then the
/// caller's destination-port test (if any). The tests sit on the stack:
/// only the program keeps anything.
pub(crate) fn transport_over_ip(
    proto: u8,
    local_dst: Option<Ipv4Addr>,
    port_test: Option<Test>,
    sets: Vec<PortSet>,
) -> FilterProgram {
    let proto = Test::eq(Operand::Field(Field::IpProto), u64::from(proto));
    let kind = EventKind::IpRecv;
    match (local_dst.map(local_dst_test), port_test) {
        (None, None) => conjunction(kind, &[proto], sets),
        (Some(test), None) | (None, Some(test)) => conjunction(kind, &[proto, test], sets),
        (Some(local), Some(port)) => conjunction(kind, &[proto, local, port], sets),
    }
}

/// An EtherType demultiplexer on `Ethernet.PacketRecv`, optionally
/// restricted to frames addressed to `local_dst` (or broadcast).
pub(crate) fn ether_type_program(
    ethertype: EtherType,
    local_dst: Option<MacAddr>,
) -> FilterProgram {
    let ethertype = Test::eq(Operand::Field(Field::EthType), u64::from(ethertype.0));
    match local_dst {
        None => conjunction(EventKind::EthRecv, &[ethertype], vec![]),
        Some(mac) => {
            let local = Test::one_of(
                Operand::Field(Field::EthDst),
                [mac_to_u64(mac), mac_to_u64(MacAddr::BROADCAST)],
            );
            conjunction(EventKind::EthRecv, &[ethertype, local], vec![])
        }
    }
}

/// Verifies a manager-built program against `policy`; the site installs
/// the result as `Guard::verified(vp)`. The managers are trusted code
/// building guards from their own bindings, so a verification failure
/// here is a manager bug, not a packet-time condition — it panics with
/// the full report.
pub(crate) fn build(program: FilterProgram, policy: &Policy) -> Rc<VerifiedProgram> {
    match verify_owned(program, policy) {
        Ok(vp) => Rc::new(vp),
        Err(report) => panic!("manager-built guard failed verification:\n{report}"),
    }
}

/// [`build`] plus a declared worst-case cycle ceiling: the manager states
/// up front how expensive its guard shape may get, and the verifier's
/// static bound must prove it. A violation is a manager bug (the guard
/// shape grew past what its site declared), caught at build time rather
/// than at interrupt-admission time — every declared ceiling is itself
/// within [`plexus_kernel::DEFAULT_INTERRUPT_CYCLE_BUDGET`], so a guard
/// passing this check always admits at interrupt level.
pub(crate) fn build_bounded(
    program: FilterProgram,
    policy: &Policy,
    declared_max_cycles: u32,
) -> Rc<VerifiedProgram> {
    let vp = build(program, policy);
    let bound = vp.static_bound();
    assert!(
        bound <= declared_max_cycles,
        "manager-built guard's static worst-case bound is {bound} cycles, \
         over its site's declared ceiling of {declared_max_cycles}"
    );
    vp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite claim behind the demux index: every guard shape the
    /// managers build — EtherType demux, transport node with a NotInSet
    /// port carve-out, and pinned-port bindings — verifies to a demux key, so
    /// all manager installs land on the hash path without any manager
    /// knowing the index exists.
    #[test]
    fn manager_guard_shapes_are_demux_indexable() {
        let ether = build(ether_type_program(EtherType::IPV4, None), &Policy::new());
        assert!(
            ether.demux_key().is_some(),
            "EtherType demux guard must index"
        );
        assert_eq!(ether.program().kind, EventKind::EthRecv);

        let udp_standard = build(
            transport_over_ip(
                17,
                None,
                Some(Test::NotInSet {
                    op: TRANSPORT_DST_PORT,
                    set: 0,
                }),
                vec![PortSet::new()],
            ),
            &Policy::new(),
        );
        assert!(
            udp_standard.demux_key().is_some(),
            "UDP standard node (proto + NotInSet) must index"
        );

        let my_ip = Ipv4Addr::new(10, 0, 0, 1);
        let special_bind = build(
            transport_over_ip(
                17,
                Some(my_ip),
                Some(Test::eq(TRANSPORT_DST_PORT, 53)),
                vec![],
            ),
            &Policy::new(),
        );
        assert!(
            special_bind.demux_key().is_some(),
            "special binding (proto + local dst + pinned port) must index"
        );
    }

    /// The admission-control acceptance claim: every guard shape the
    /// managers install fits its site's declared cycle ceiling (checked
    /// by `build_bounded`, which panics otherwise), and every ceiling is
    /// within the dispatcher's default interrupt budget — so all thirteen
    /// manager sites admit at interrupt level.
    #[test]
    fn manager_guard_shapes_fit_their_declared_ceilings() {
        const {
            assert!(ETHER_GUARD_CYCLES <= plexus_kernel::DEFAULT_INTERRUPT_CYCLE_BUDGET);
            assert!(TRANSPORT_GUARD_CYCLES <= plexus_kernel::DEFAULT_INTERRUPT_CYCLE_BUDGET);
            assert!(MULTIPORT_GUARD_CYCLES <= plexus_kernel::DEFAULT_INTERRUPT_CYCLE_BUDGET);
        }

        let mac = MacAddr([2, 0, 0, 0, 0, 7]);
        build_bounded(
            ether_type_program(EtherType::ARP, None),
            &Policy::new(),
            ETHER_GUARD_CYCLES,
        );
        build_bounded(
            ether_type_program(EtherType::IPV4, Some(mac)),
            &Policy::new(),
            ETHER_GUARD_CYCLES,
        );
        build_bounded(
            transport_over_ip(1, None, None, vec![]),
            &Policy::new(),
            TRANSPORT_GUARD_CYCLES,
        );
        build_bounded(
            transport_over_ip(
                17,
                None,
                Some(Test::NotInSet {
                    op: TRANSPORT_DST_PORT,
                    set: 0,
                }),
                vec![PortSet::new()],
            ),
            &Policy::new(),
            TRANSPORT_GUARD_CYCLES,
        );
        build_bounded(
            transport_over_ip(
                6,
                Some(Ipv4Addr::new(10, 0, 0, 1)),
                Some(Test::eq(TRANSPORT_DST_PORT, 53)),
                vec![],
            ),
            &Policy::new(),
            TRANSPORT_GUARD_CYCLES,
        );
        // A claimed-port list at the multi-port ceiling's working size.
        build_bounded(
            transport_over_ip(
                6,
                None,
                Some(Test::one_of(
                    TRANSPORT_DST_PORT,
                    (1u64..=20).collect::<Vec<_>>(),
                )),
                vec![],
            ),
            &Policy::new(),
            MULTIPORT_GUARD_CYCLES,
        );
        // The per-connection 4-tuple shape.
        build_bounded(
            conjunction(
                EventKind::TcpRecv,
                &[
                    Test::eq(Operand::Field(Field::TcpDstPort), 80),
                    Test::eq(Operand::Field(Field::TcpDstAddr), 1),
                    Test::eq(Operand::Field(Field::TcpSrcAddr), 2),
                    Test::eq(Operand::Field(Field::TcpSrcPort), 4242),
                ],
                vec![],
            ),
            &Policy::new(),
            TRANSPORT_GUARD_CYCLES,
        );
    }

    /// Guard compilation is install-time and automatic: every guard shape
    /// a manager builds comes out of `build()` already lowered to the
    /// compiled tier (the verifier constructs it), with its `field ==
    /// const` tests fused into single load-and-branch thunks. No manager
    /// opts in, so all thirteen sites run compiled the moment the
    /// dispatcher's default tier selection picks them.
    #[test]
    fn manager_guard_shapes_compile_with_fused_tests() {
        let shapes: Vec<(&str, Rc<VerifiedProgram>)> = vec![
            (
                "ether demux",
                build(ether_type_program(EtherType::IPV4, None), &Policy::new()),
            ),
            (
                "ether demux + local dst",
                build(
                    ether_type_program(EtherType::IPV4, Some(MacAddr([2, 0, 0, 0, 0, 7]))),
                    &Policy::new(),
                ),
            ),
            (
                "udp standard node",
                build(
                    transport_over_ip(
                        17,
                        None,
                        Some(Test::NotInSet {
                            op: TRANSPORT_DST_PORT,
                            set: 0,
                        }),
                        vec![PortSet::new()],
                    ),
                    &Policy::new(),
                ),
            ),
            (
                "pinned-port binding",
                build(
                    transport_over_ip(
                        17,
                        Some(Ipv4Addr::new(10, 0, 0, 1)),
                        Some(Test::eq(TRANSPORT_DST_PORT, 53)),
                        vec![],
                    ),
                    &Policy::new(),
                ),
            ),
        ];
        for (name, vp) in &shapes {
            let stats = vp.compiled().stats();
            assert!(stats.thunks > 0, "{name}: compiled tier missing");
            assert!(
                stats.fused_loads > 0,
                "{name}: no load+branch fusion fired ({stats:?})"
            );
            assert!(
                stats.folded_consts > 0,
                "{name}: no constants folded ({stats:?})"
            );
            assert!(
                stats.thunks < vp.program().insns.len() as u32,
                "{name}: fusion should shorten the chain ({stats:?})"
            );
        }
    }
}
