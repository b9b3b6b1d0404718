//! The UDP protocol manager (§3.1).
//!
//! The manager is the only party that installs handlers on the UDP events;
//! applications hand it a binding and a handler, and it builds the guard —
//! so an extension can only ever receive datagrams addressed to its own
//! port (anti-snooping) and every datagram it sends leaves with its own
//! source address stamped by the manager (anti-spoofing, "overwrite the
//! source field ... provides the best performance").
//!
//! Two extension mechanisms from the paper live here:
//!
//! * **Multiple implementations of one protocol** — a [`UdpConfig`] with
//!   the checksum disabled makes the binding a *special implementation*:
//!   the manager installs it as its own node on `Ip.PacketRecv` and
//!   excludes its port from the standard UDP node's guard, exactly like
//!   the paper's TCP-standard/TCP-special example.
//! * **Protocol redirection** (§5.2) — [`UdpManager::redirect`] installs a
//!   node that rewrites the destination of every datagram for a port and
//!   re-emits it below the transport layer, fixing the checksum
//!   incrementally.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_filter::{conjunction, EventKind, Field, FieldKey, Operand, Policy, Test};
use plexus_kernel::dispatcher::{Guard, HandlerId, RaiseCtx};
use plexus_kernel::domain::LinkedExtension;
use plexus_kernel::ephemeral::Ephemeral;
use plexus_net::checksum::incremental_update;
use plexus_net::ip::proto;
use plexus_net::mbuf::Mbuf;
use plexus_net::udp::{self, Endpoint, UdpConfig};
use plexus_net::{icmp_unreachable, Structure};
use plexus_sim::{Engine, Loss, Outcome};

use crate::guards;
use crate::stack::{Hold, StackShared};
use crate::types::{AppHandler, IpRecv, PlexusError, SourcePolicy, UdpRecv};

/// The UDP protocol manager for one stack.
pub struct UdpManager {
    shared: Rc<StackShared>,
}

impl UdpManager {
    /// Installs the standard UDP implementation node and returns the
    /// manager.
    pub(crate) fn install(shared: &Rc<StackShared>) -> Rc<UdpManager> {
        let mgr = Rc::new(UdpManager {
            shared: shared.clone(),
        });

        // Standard UDP node: IP payloads whose protocol is UDP and whose
        // destination port is not claimed by a special implementation or
        // a redirector.
        let guard = guards::build_bounded(
            guards::transport_over_ip(
                proto::UDP,
                None,
                Some(Test::NotInSet {
                    op: guards::TRANSPORT_DST_PORT,
                    set: 0,
                }),
                vec![shared.udp_ports.special.clone()],
            ),
            &Policy::new(),
            guards::TRANSPORT_GUARD_CYCLES,
        );
        let s = shared.clone();
        shared.install_layer(
            shared.events.ip_recv,
            Guard::verified(guard),
            move |ctx, ev: &IpRecv| {
                let claim = |_| Some((UdpConfig::default(), ()));
                let offload = s.csum_offload();
                let Some((arg, ())) =
                    udp::receive(ctx.lease, ev.src, ev.dst, &ev.payload, offload, claim)
                else {
                    return;
                };
                ctx.lease.count(Outcome::UdpIn);
                let outcome = s.dispatcher.raise(ctx, s.events.udp_recv, &arg);
                if outcome.invoked > 0 {
                    return ctx.lease.count(Outcome::Delivered);
                }
                if arg.dst == Ipv4Addr::BROADCAST {
                    ctx.lease.lose(Loss::UdpNoSocket);
                } else {
                    // No endpoint claimed the datagram: answer with ICMP
                    // port unreachable (code 3), quoting the offending
                    // datagram's IP header and UDP header, as a period BSD
                    // stack would.
                    ctx.lease.count(Outcome::PortUnreachable);
                    let reply = icmp_unreachable(3, &ev.header, &ev.payload);
                    ctx.lease
                        .charge(ctx.lease.model().checksum(reply.total_len()));
                    s.send_ip(ctx, s.link.ip(), ev.src, proto::ICMP, reply);
                }
            },
            "udp",
        );
        mgr
    }

    /// Datagrams the standard node delivered upward: the machine's
    /// [`Outcome::UdpIn`]. It stays only because `perf/` pins it; ROADMAP
    /// item 1 deletes it.
    pub fn delivered(&self) -> u64 {
        self.shared.link.cpu.counted(Outcome::UdpIn)
    }

    /// Datagrams answered with ICMP port unreachable (no endpoint bound):
    /// the machine's [`Outcome::PortUnreachable`]. It stays only because
    /// `perf/` pins it; ROADMAP item 1 deletes it.
    pub fn unreachable_sent(&self) -> u64 {
        self.shared.link.cpu.counted(Outcome::PortUnreachable)
    }

    /// Binds `port` for an application extension.
    ///
    /// The *manager* builds the guard (destination port and address match),
    /// so the handler can only see the endpoint's own traffic. A non-default
    /// `config` (checksum disabled) installs the binding as a special UDP
    /// implementation below the standard node.
    pub fn bind(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        port: u16,
        config: UdpConfig,
        handler: AppHandler<UdpRecv>,
    ) -> Result<Rc<UdpEndpoint>, PlexusError> {
        let (shared, my_ip) = (&self.shared, self.shared.link.ip());
        let handler_id = if config == UdpConfig::default() {
            // Endpoint node on Udp.PacketRecv. The policy makes the §3.1
            // anti-snooping argument a machine-checked theorem: the program
            // provably accepts only this binding's port at this host.
            shared.install_held(ext, shared.events.udp_recv, Hold::Udp(port), || {
                let policy = Policy::new()
                    .require_eq(FieldKey::Field(Field::UdpDstPort), u64::from(port))
                    .require_in(
                        FieldKey::Field(Field::UdpDstAddr),
                        guards::local_dst_values(my_ip),
                    );
                let guard = guards::build_bounded(
                    conjunction(
                        EventKind::UdpRecv,
                        &[
                            Test::eq(Operand::Field(Field::UdpDstPort), u64::from(port)),
                            Test::one_of(
                                Operand::Field(Field::UdpDstAddr),
                                guards::local_dst_values(my_ip),
                            ),
                        ],
                        vec![],
                    ),
                    &policy,
                    guards::TRANSPORT_GUARD_CYCLES,
                );
                (Guard::verified(guard), handler)
            })
        } else {
            // Special implementation: its own node on Ip.PacketRecv, doing
            // its own (cheaper) datagram processing. Its guard reads the
            // port straight out of the raw UDP header, and the policy pins
            // that load to the claimed port.
            let hold = Hold::UdpSpecial(port);
            shared.install_held(ext, shared.events.ip_recv, hold, || {
                let policy = Policy::new()
                    .require_eq(FieldKey::Field(Field::IpProto), u64::from(proto::UDP))
                    .require_eq(guards::TRANSPORT_DST_PORT_KEY, u64::from(port))
                    .require_in(
                        FieldKey::Field(Field::IpDst),
                        guards::local_dst_values(my_ip),
                    );
                let guard = guards::build_bounded(
                    guards::transport_over_ip(
                        proto::UDP,
                        Some(my_ip),
                        Some(Test::eq(guards::TRANSPORT_DST_PORT, u64::from(port))),
                        vec![],
                    ),
                    &policy,
                    guards::TRANSPORT_GUARD_CYCLES,
                );
                let wrapped = wrap_special_udp(config, shared.csum_offload(), handler);
                (Guard::verified(guard), wrapped)
            })
        }?;

        Ok(Rc::new(UdpEndpoint {
            manager: self.clone(),
            port,
            config,
            handler_id,
            // Never a release count: the first send looks the record up.
            seen_held: Cell::new(u64::MAX),
        }))
    }

    /// Installs a port redirector (the §5.2 forwarding protocol): every
    /// datagram arriving for `port` is re-emitted to `new_dst` *below* the
    /// transport layer, preserving the original source so the protocol's
    /// end-to-end fields survive. The UDP checksum is fixed incrementally.
    pub fn redirect(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        port: u16,
        new_dst: Ipv4Addr,
    ) -> Result<HandlerId, PlexusError> {
        let (shared, old_dst) = (&self.shared, self.shared.link.ip());
        shared.install_held(ext, shared.events.ip_recv, Hold::UdpSpecial(port), || {
            let policy = Policy::new()
                .require_eq(FieldKey::Field(Field::IpProto), u64::from(proto::UDP))
                .require_eq(guards::TRANSPORT_DST_PORT_KEY, u64::from(port));
            let guard = guards::build_bounded(
                guards::transport_over_ip(
                    proto::UDP,
                    None,
                    Some(Test::eq(guards::TRANSPORT_DST_PORT, u64::from(port))),
                    vec![],
                ),
                &policy,
                guards::TRANSPORT_GUARD_CYCLES,
            );
            let s = shared.clone();
            let redirector = shared.per_mode(move |ctx, ev: &IpRecv| {
                // Header rewrite + incremental checksum fix: a handful of
                // loads/stores, modeled as one procedure call.
                ctx.lease.charge(ctx.lease.model().proc_call);
                let mut fixed = ev.payload.share();
                fix_udp_checksum_for_dst(&mut fixed, old_dst, new_dst);
                // The source is preserved: end-to-end semantics hold.
                ctx.lease.count(Outcome::Forwarded);
                s.send_ip(ctx, ev.src, new_dst, proto::UDP, fixed);
            });
            (Guard::verified(guard), redirector)
        })
    }
}

/// Rewrites the UDP checksum for a destination-address change using the
/// RFC 1624 incremental update (no payload rescan).
fn fix_udp_checksum_for_dst(m: &mut Mbuf, old_dst: Ipv4Addr, new_dst: Ipv4Addr) {
    let mut field = [0u8; 2];
    if !m.read_at(6, &mut field) {
        return;
    }
    let mut check = u16::from_be_bytes(field);
    if check == 0 {
        return; // Checksum disabled.
    }
    let old = old_dst.octets();
    let new = new_dst.octets();
    for i in [0usize, 2] {
        check = incremental_update(
            check,
            u16::from_be_bytes([old[i], old[i + 1]]),
            u16::from_be_bytes([new[i], new[i + 1]]),
        );
    }
    m.write_at(6, &check.to_be_bytes());
}

/// Adapts an application's `UdpRecv` handler to run as a special UDP
/// implementation directly on `Ip.PacketRecv`. The handler keeps its
/// interrupt/thread class: [`HandlerSpec::adapt`] carries it through the
/// certified adapter — an ephemeral wrapper around an ephemeral body.
///
/// [`HandlerSpec::adapt`]: plexus_kernel::dispatcher::HandlerSpec::adapt
fn wrap_special_udp(
    config: UdpConfig,
    csum_offload: bool,
    AppHandler(handler): AppHandler<UdpRecv>,
) -> AppHandler<IpRecv> {
    type Inner<'a> = &'a dyn Fn(&mut RaiseCtx<'_>, &UdpRecv);
    AppHandler(handler.adapt(Ephemeral::certify(
        move |ctx: &mut RaiseCtx<'_>, ev: &IpRecv, inner: Inner<'_>| {
            let claim = |_| Some((config, ()));
            if let Some((arg, ())) =
                udp::receive(ctx.lease, ev.src, ev.dst, &ev.payload, csum_offload, claim)
            {
                inner(ctx, &arg);
                ctx.lease.count(Outcome::Delivered);
            }
        },
    )))
}

/// A legitimate UDP sending/receiving endpoint (§3.1): the object whose
/// possession is the right to raise the sends for its port — for as long
/// as its extension holds the binding.
pub struct UdpEndpoint {
    manager: Rc<UdpManager>,
    port: u16,
    config: UdpConfig,
    handler_id: HandlerId,
    /// See [`StackShared::still_holds`].
    seen_held: Cell<u64>,
}

impl UdpEndpoint {
    /// [`Endpoint::send_mbuf_in`] without the trait in scope. The manager
    /// stamps the source, so spoofing is structurally impossible.
    pub fn send_mbuf_in(
        &self,
        ctx: &mut RaiseCtx<'_>,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: Mbuf,
    ) -> Result<(), PlexusError> {
        Endpoint::send_mbuf_in(self, ctx, dst, dst_port, payload)
    }

    /// Debugging variant with [`SourcePolicy::Verify`] (§3.1): the caller
    /// *claims* a source address; the manager checks it against the
    /// endpoint's legitimate address and refuses a mismatch, before any
    /// datagram is built, with [`PlexusError::SpoofDetected`].
    pub fn send_verified(
        &self,
        engine: &mut Engine,
        claimed_src: Ipv4Addr,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
        policy: SourcePolicy,
    ) -> Result<(), PlexusError> {
        if policy == SourcePolicy::Verify && claimed_src != self.manager.shared.link.ip() {
            return Err(PlexusError::SpoofDetected);
        }
        Endpoint::send(self, engine, dst, dst_port, payload)
    }

    /// Unbinds the endpoint: uninstalls the handler and frees the port
    /// (runtime adaptation). Idempotent.
    pub fn close(&self) {
        self.manager.shared.release(self.handler_id, |_| true);
    }
}

/// A Plexus port may send for as long as its extension holds the binding.
impl Endpoint for UdpEndpoint {
    type Structure = StackShared;
    type Error = PlexusError;

    fn local(&self) -> (&Rc<StackShared>, &(), u16, UdpConfig) {
        (&self.manager.shared, &(), self.port, self.config)
    }

    fn admit(&self) -> Result<(), PlexusError> {
        let shared = &self.manager.shared;
        if shared.still_holds(self.handler_id, &self.seen_held) {
            Ok(())
        } else {
            Err(PlexusError::Revoked)
        }
    }
}

impl std::fmt::Debug for UdpEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shared = &self.manager.shared;
        f.debug_struct("UdpEndpoint")
            .field("port", &self.port)
            .field("checksum", &self.config.checksum)
            .field(
                "closed",
                &!shared.still_holds(self.handler_id, &self.seen_held),
            )
            .finish()
    }
}
