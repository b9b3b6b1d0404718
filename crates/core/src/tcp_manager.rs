//! The TCP protocol manager: connections as graph nodes.
//!
//! The standard TCP implementation is a node on `Ip.PacketRecv` whose
//! guard accepts TCP segments *except* those destined for ports claimed by
//! special implementations — the paper's TCP-standard/TCP-special example
//! (§3.1) verbatim. Verified segments are re-raised as `Tcp.PacketRecv`,
//! where each connection (and each listener) is its own guarded handler.
//!
//! Connections are the shared [`plexus_net::tcp::TcpConn`]: the manager is
//! their [`TcpHost`], so its output segments flow down through
//! `Ip.PacketSend` with the manager-stamped source, and the application
//! is called directly, in the raiser's context.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_filter::{conjunction, EventKind, Field, FieldKey, Operand, Policy, Test};
use plexus_kernel::dispatcher::{Guard, HandlerId, RaiseCtx};
use plexus_kernel::domain::LinkedExtension;
use plexus_net::ip::{self, encapsulate as ip_encapsulate, proto, Hop, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{ConnIds, Tcb, TcpHost, TcpSegment};
use plexus_sim::{Cpu, Engine};

use crate::guards;
use crate::stack::{Hold, StackShared};
use crate::types::{IpRecv, IpSendReq, PlexusError, TcpRecv};

pub use plexus_net::tcp::{ConnCallback, DataCallback, TcpCallbacks, TcpConn};

type ConnKey = (u16, Ipv4Addr, u16);

/// The TCP protocol manager for one stack.
pub struct TcpManager {
    shared: Rc<StackShared>,
    /// Each live connection and its guarded handler.
    conns: RefCell<HashMap<ConnKey, (Rc<TcpConn>, HandlerId)>>,
    ids: ConnIds,
    segments_in: Cell<u64>,
}

impl TcpManager {
    pub(crate) fn install(shared: &Rc<StackShared>) -> Rc<TcpManager> {
        let mgr = Rc::new(TcpManager {
            shared: shared.clone(),
            conns: RefCell::new(HashMap::new()),
            ids: ConnIds::new(40_000, 1_000),
            segments_in: Cell::new(0),
        });

        // The standard TCP implementation node: all TCP except ports owned
        // by special implementations (§3.1's two-implementations example).
        // The destination port is bytes 2..4 of the TCP header.
        let guard = guards::build_bounded(
            guards::transport_over_ip(
                proto::TCP,
                None,
                Some(Test::NotInSet {
                    op: guards::TRANSPORT_DST_PORT,
                    set: 0,
                }),
                vec![shared.tcp_ports.special.clone()],
            ),
            &Policy::new(),
            guards::TRANSPORT_GUARD_CYCLES,
        );
        let s = shared.clone();
        let m = mgr.clone();
        // Scratch buffer reused across segments: parsing needs contiguous
        // bytes, and a frame that spans clusters is copied here to get them.
        let scratch = std::cell::RefCell::new(Vec::new());
        shared.install_layer(
            shared.events.ip_recv,
            Guard::verified(guard),
            move |ctx, ev: &IpRecv| {
                ctx.lease.charge(ctx.lease.model().tcp_proc);
                if !s.csum_offload {
                    ctx.lease
                        .charge(ctx.lease.model().checksum(ev.payload.total_len()));
                }
                // The parsed header travels on with a share of the frame's
                // payload bytes; the scratch borrow ends ahead of the raise.
                let segment = {
                    let mut scratch = scratch.borrow_mut();
                    let Some(view) =
                        TcpSegment::parse(ev.src, ev.dst, ev.payload.contiguous(&mut scratch))
                    else {
                        return;
                    };
                    let len = view.payload.len();
                    view.with_payload(ev.payload.range(ev.payload.total_len() - len, len))
                };
                m.segments_in.set(m.segments_in.get() + 1);
                let arg = TcpRecv {
                    src: ev.src,
                    dst: ev.dst,
                    segment,
                };
                s.dispatcher.raise(ctx, s.events.tcp_recv, &arg);
            },
            "tcp",
        );
        mgr
    }

    /// Verified segments received by the standard implementation.
    pub fn segments_in(&self) -> u64 {
        self.segments_in.get()
    }

    /// Passive open: accept connections on `port`. `on_accept` runs for
    /// each new connection (attach data/close callbacks there).
    pub fn listen<F>(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        port: u16,
        on_accept: F,
    ) -> Result<(), PlexusError>
    where
        F: Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>) + 'static,
    {
        // Listener guard: initial SYNs for our port. Locality of `dst` was
        // already enforced by the IP layer (host address, broadcast, or
        // configured alias). Whether the segment belongs to an existing
        // connection is dynamic state the static program cannot consult,
        // so that check moved into the handler below; the policy proves
        // the listener only ever sees its own port (§3.1).
        let shared = &self.shared;
        shared.install_held(ext, shared.events.tcp_recv, Hold::Listen(port), || {
            let policy =
                Policy::new().require_eq(FieldKey::Field(Field::TcpDstPort), u64::from(port));
            let guard = guards::build_bounded(
                conjunction(
                    EventKind::TcpRecv,
                    &[
                        Test::eq(Operand::Field(Field::TcpDstPort), u64::from(port)),
                        Test::eq(Operand::Field(Field::TcpFlagSyn), 1),
                        Test::eq(Operand::Field(Field::TcpFlagAck), 0),
                    ],
                    vec![],
                ),
                &policy,
                guards::TRANSPORT_GUARD_CYCLES,
            );
            let mgr = self.clone();
            let listener = shared.per_mode(move |ctx, ev: &TcpRecv| {
                let key = (port, ev.src, ev.segment.src_port);
                if mgr.conns.borrow().contains_key(&key) {
                    // A retransmitted SYN for a live connection: that
                    // connection's own node handles it.
                    return;
                }
                let tcb = Tcb::listen((ev.dst, port), mgr.ids.next_iss());
                let conn = mgr.register(key, ev.dst, tcb);
                // Let the application attach callbacks before the handshake
                // proceeds.
                on_accept(ctx, &conn);
                conn.input(ctx, ev.src, &ev.segment);
            });
            (Guard::verified(guard), listener)
        })?;
        Ok(())
    }

    /// Stops listening on `port` (existing connections continue).
    pub fn unlisten(&self, port: u16) -> bool {
        let holder = self.shared.tcp_ports.holder(port);
        holder.is_some_and(|id| {
            self.shared
                .release(id, |hold| matches!(hold, Hold::Listen(_)))
        })
    }

    /// Active open to `remote`. Returns the connection; attach callbacks
    /// via [`TcpConn::set_callbacks`] before running the engine. Refused as
    /// [`PlexusError::Revoked`] unless `ext` is linked on this stack, and
    /// as [`PlexusError::PortsExhausted`] when every ephemeral port is held
    /// or in use.
    pub fn connect(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        engine: &mut Engine,
        remote: (Ipv4Addr, u16),
    ) -> Result<Rc<TcpConn>, PlexusError> {
        self.shared.check_token(ext)?;
        let port = self.ids.port(|p| {
            self.shared.tcp_ports.holder(p).is_some()
                || self.conns.borrow().keys().any(|&(lp, ..)| lp == p)
        });
        let port = port.map_err(|_| PlexusError::PortsExhausted)?;
        let key = (port, remote.0, remote.1);
        let now = engine.now().as_nanos();
        let iss = self.ids.next_iss();
        let (tcb, actions) = Tcb::connect((self.shared.ip, port), remote, iss, now);
        let conn = self.register(key, self.shared.ip, tcb);
        let lease = &mut self.shared.cpu.begin(engine.now());
        conn.apply(&mut RaiseCtx { engine, lease }, actions);
        Ok(conn)
    }

    /// A connection answering on `local_ip`, registered under `key` with
    /// its own guarded handler on `Tcp.PacketRecv`.
    fn register(self: &Rc<Self>, key: ConnKey, local_ip: Ipv4Addr, mut tcb: Tcb) -> Rc<TcpConn> {
        // When the adapter advertises segmentation offload, let the state
        // machine emit super-segments; the connection resegments them at
        // wire MSS on the way to the driver.
        let tso = self.shared.nic.profile().tso_segs;
        if tso > 1 {
            tcb.set_gso_segs(tso);
        }
        let (lport, rip, rport) = key;
        let conn = TcpConn::new(self.clone(), (local_ip, lport), (rip, rport), tcb);

        // The connection's own guarded handler: exact 4-tuple match, with
        // the policy proving the program cannot see any other flow.
        let tuple = [
            (Field::TcpDstAddr, u64::from(u32::from(local_ip))),
            (Field::TcpDstPort, u64::from(lport)),
            (Field::TcpSrcAddr, u64::from(u32::from(rip))),
            (Field::TcpSrcPort, u64::from(rport)),
        ];
        let policy = (tuple.iter()).fold(Policy::new(), |policy, &(field, value)| {
            policy.require_eq(FieldKey::Field(field), value)
        });
        let tests = tuple.map(|(field, value)| Test::eq(Operand::Field(field), value));
        let guard = guards::build_bounded(
            conjunction(EventKind::TcpRecv, &tests, vec![]),
            &policy,
            guards::TRANSPORT_GUARD_CYCLES,
        );
        let c = conn.clone();
        let id = self.shared.install_layer(
            self.shared.events.tcp_recv,
            Guard::verified(guard),
            move |ctx, ev: &TcpRecv| c.input(ctx, ev.src, &ev.segment),
            "tcp",
        );
        self.conns.borrow_mut().insert(key, (conn.clone(), id));
        conn
    }

    /// Claims `ports` for a special TCP implementation: raw segments for
    /// those ports bypass the standard node and arrive at `handler`
    /// (which implements whatever transport discipline it wants).
    pub fn claim_special<F>(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        ports: &[u16],
        handler: F,
    ) -> Result<HandlerId, PlexusError>
    where
        F: Fn(&mut RaiseCtx<'_>, &IpRecv) + 'static,
    {
        if ports.is_empty() {
            return Err(PlexusError::SnoopDenied(
                "a special TCP implementation must claim at least one port",
            ));
        }
        let (shared, hold) = (&self.shared, Hold::TcpSpecial(ports.to_vec()));
        shared.install_held(ext, shared.events.ip_recv, hold, || {
            let claimed = ports.iter().map(|p| u64::from(*p));
            let policy = Policy::new()
                .require_eq(FieldKey::Field(Field::IpProto), u64::from(proto::TCP))
                .require_in(guards::TRANSPORT_DST_PORT_KEY, claimed.clone());
            let guard = guards::build_bounded(
                guards::transport_over_ip(
                    proto::TCP,
                    None,
                    Some(Test::one_of(guards::TRANSPORT_DST_PORT, claimed)),
                    vec![],
                ),
                &policy,
                guards::MULTIPORT_GUARD_CYCLES,
            );
            (Guard::verified(guard), shared.per_mode(handler))
        })
    }

    /// Installs a TCP port redirector (§5.2): segments for `port` —
    /// including *control* packets (SYN/FIN/RST), which a user-level splice
    /// cannot forward — are re-routed to the machine owning `new_dst` at
    /// the link layer, with the IP destination (this host's address)
    /// preserved. The target accepts that address as an alias
    /// ([`crate::PlexusStack::add_ip_alias`]) and answers the client
    /// directly from it, so end-to-end TCP semantics hold between the
    /// original endpoints — no header or checksum is touched in flight.
    pub fn redirect(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        port: u16,
        new_dst: Ipv4Addr,
    ) -> Result<HandlerId, PlexusError> {
        let shared = self.shared.clone();
        // Redirected datagrams are re-originated here, in their own ident
        // space, clear of the host's.
        let ident = ip::Ident::starting_at(0x8000);
        // To the graph a redirector is a special implementation of one
        // port whose handler the kernel wrote.
        self.claim_special(ext, &[port], move |ctx, ev| {
            ctx.lease.charge(ctx.lease.model().proc_call);
            // Rebuild the datagram with its original addressing and
            // hand it to the target's link address.
            let hdr = IpHeader::simple(ev.src, ev.dst, proto::TCP, ident.take());
            let dgram = ip_encapsulate(&hdr, ev.payload.share());
            shared.link_output(ctx, Hop::Via(new_dst), dgram);
        })
    }
}

/// Plexus's structure around a connection: no charge on entry, segments
/// raised on `Ip.PacketSend`, the application called directly (the default
/// delivery), and the connection's handler uninstalled when it closes.
impl TcpHost for TcpManager {
    fn cpu(&self) -> &Rc<Cpu> {
        &self.shared.cpu
    }

    fn csum_offload(&self) -> bool {
        self.shared.csum_offload
    }

    fn output(&self, ctx: &mut RaiseCtx<'_>, src: Ipv4Addr, dst: Ipv4Addr, payload: Mbuf) {
        let req = IpSendReq {
            src,
            dst,
            protocol: proto::TCP,
            payload,
        };
        self.shared.raise_ip_send(ctx, req);
    }

    fn unregister(&self, conn: &TcpConn) {
        let (rip, rport) = conn.remote();
        let removed = self
            .conns
            .borrow_mut()
            .remove(&(conn.local_port(), rip, rport));
        if let Some((_, id)) = removed {
            self.shared
                .dispatcher
                .uninstall(self.shared.events.tcp_recv, id);
        }
    }
}
