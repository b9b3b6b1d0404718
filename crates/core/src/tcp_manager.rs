//! The TCP protocol manager: connections as graph nodes.
//!
//! The standard TCP implementation is a node on `Ip.PacketRecv` whose
//! guard accepts TCP segments *except* those destined for ports claimed by
//! special implementations — the paper's TCP-standard/TCP-special example
//! (§3.1) verbatim. Verified segments are re-raised as `Tcp.PacketRecv`,
//! where each connection (and each listener) is its own guarded handler.
//!
//! Connections wrap the shared [`plexus_net::tcp::Tcb`] state machine;
//! its output segments flow down through `Ip.PacketSend` with the
//! manager-stamped source, and its retransmission timers are armed on the
//! simulation engine.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_filter::{conjunction, EventKind, Field, FieldKey, Operand, Policy, Test};
use plexus_kernel::dispatcher::{Guard, HandlerId, RaiseCtx};
use plexus_kernel::domain::LinkedExtension;
use plexus_net::ip::{self, encapsulate as ip_encapsulate, proto, Hop, IpHeader};
use plexus_net::tcp::{Actions, Tcb, TcpSegment, TcpState, TCP_HDR_LEN};
use plexus_sim::engine::TimerHandle;
use plexus_sim::time::SimDuration;
use plexus_sim::Engine;

use crate::guards;
use crate::stack::{Hold, StackShared};
use crate::types::{IpRecv, IpSendReq, PlexusError, TcpRecv};

/// A connection-event callback (connected, closed, peer-closed).
pub type ConnCallback = Rc<dyn Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>)>;

/// A data-arrival callback.
pub type DataCallback = Rc<dyn Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>, &[u8])>;

/// Callbacks an application attaches to a connection. `Rc`-based so the
/// manager can invoke them without holding the callback cell borrowed
/// (handlers may re-enter the connection).
#[derive(Default)]
pub struct TcpCallbacks {
    /// Connection reached `Established`.
    pub on_connected: Option<ConnCallback>,
    /// In-order data arrived.
    pub on_data: Option<DataCallback>,
    /// Connection fully closed (or reset).
    pub on_closed: Option<ConnCallback>,
    /// The peer finished sending (half-close); typical servers respond by
    /// closing their side.
    pub on_peer_close: Option<ConnCallback>,
}

type ConnKey = (u16, Ipv4Addr, u16);

/// The TCP protocol manager for one stack.
pub struct TcpManager {
    shared: Rc<StackShared>,
    conns: Rc<RefCell<HashMap<ConnKey, Rc<TcpConn>>>>,
    iss: Cell<u32>,
    next_ephemeral: Cell<u16>,
    segments_in: Cell<u64>,
}

impl TcpManager {
    pub(crate) fn install(shared: &Rc<StackShared>) -> Rc<TcpManager> {
        let mgr = Rc::new(TcpManager {
            shared: shared.clone(),
            conns: Rc::new(RefCell::new(HashMap::new())),
            iss: Cell::new(1000),
            next_ephemeral: Cell::new(40_000),
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

    fn next_iss(&self) -> u32 {
        let iss = self.iss.get();
        self.iss.set(iss.wrapping_add(64_000));
        iss
    }

    fn alloc_port(&self) -> u16 {
        loop {
            let p = self.next_ephemeral.get();
            self.next_ephemeral.set(p.wrapping_add(1).max(40_000));
            let taken = self.shared.tcp_ports.holder(p).is_some()
                || self.conns.borrow().keys().any(|(lp, _, _)| *lp == p);
            if !taken {
                return p;
            }
        }
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
                let tcb = Tcb::listen((ev.dst, port), mgr.next_iss());
                let conn = TcpConn::register(&mgr, key, ev.dst, tcb);
                // Let the application attach callbacks before the handshake
                // proceeds.
                on_accept(ctx, &conn);
                let actions = conn.tcb.borrow_mut().on_segment(
                    &ev.segment,
                    (ev.src, ev.segment.src_port),
                    now_ns(ctx),
                );
                conn.process_actions(ctx, actions);
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
    /// [`PlexusError::Revoked`] unless `ext` is linked on this stack.
    pub fn connect(
        self: &Rc<Self>,
        ext: &LinkedExtension,
        engine: &mut Engine,
        remote: (Ipv4Addr, u16),
    ) -> Result<Rc<TcpConn>, PlexusError> {
        self.shared.check_token(ext)?;
        let port = self.alloc_port();
        let key = (port, remote.0, remote.1);
        let now = engine.now().as_nanos();
        let (tcb, actions) = Tcb::connect((self.shared.ip, port), remote, self.next_iss(), now);
        let conn = TcpConn::register(self, key, self.shared.ip, tcb);
        let cpu = self.shared.cpu.clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        conn.process_actions(&mut ctx, actions);
        Ok(conn)
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

fn now_ns(ctx: &RaiseCtx<'_>) -> u64 {
    ctx.lease.now().as_nanos()
}

/// One TCP connection living in the protocol graph.
pub struct TcpConn {
    manager: Rc<TcpManager>,
    key: ConnKey,
    /// The local address this connection answers on — normally the host
    /// address, but a DSR redirection target answers on the forwarder's
    /// alias, preserving end-to-end addressing (§5.2).
    local_ip: Ipv4Addr,
    tcb: RefCell<Tcb>,
    /// This side of the receive hand-off ([`Tcb::swap_received`]).
    rx_buf: RefCell<Vec<u8>>,
    callbacks: RefCell<TcpCallbacks>,
    timer: RefCell<Option<TimerHandle>>,
    handler: Cell<Option<HandlerId>>,
    deregistered: Cell<bool>,
}

impl TcpConn {
    fn register(
        mgr: &Rc<TcpManager>,
        key: ConnKey,
        local_ip: Ipv4Addr,
        mut tcb: Tcb,
    ) -> Rc<TcpConn> {
        // When the adapter advertises segmentation offload, let the state
        // machine emit super-segments; `process_actions` resegments them at
        // wire MSS on the way to the driver.
        let tso = mgr.shared.nic.profile().tso_segs;
        if tso > 1 {
            tcb.set_gso_segs(tso);
        }
        let conn = Rc::new(TcpConn {
            manager: mgr.clone(),
            key,
            local_ip,
            tcb: RefCell::new(tcb),
            rx_buf: RefCell::new(Vec::new()),
            callbacks: RefCell::new(TcpCallbacks::default()),
            timer: RefCell::new(None),
            handler: Cell::new(None),
            deregistered: Cell::new(false),
        });
        mgr.conns.borrow_mut().insert(key, conn.clone());

        // The connection's own guarded handler: exact 4-tuple match, with
        // the policy proving the program cannot see any other flow.
        let (lport, rip, rport) = key;
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
        let id = mgr.shared.install_layer(
            mgr.shared.events.tcp_recv,
            Guard::verified(guard),
            move |ctx, ev: &TcpRecv| {
                let actions = c.tcb.borrow_mut().on_segment(
                    &ev.segment,
                    (ev.src, ev.segment.src_port),
                    now_ns(ctx),
                );
                c.process_actions(ctx, actions);
            },
            "tcp",
        );
        conn.handler.set(Some(id));
        conn
    }

    /// Attaches application callbacks.
    pub fn set_callbacks(&self, callbacks: TcpCallbacks) {
        *self.callbacks.borrow_mut() = callbacks;
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.tcb.borrow().state()
    }

    /// The local port.
    pub fn local_port(&self) -> u16 {
        self.key.0
    }

    /// The remote endpoint.
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        (self.key.1, self.key.2)
    }

    /// Segments this side retransmitted.
    pub fn retransmits(&self) -> u64 {
        self.tcb.borrow().retransmits
    }

    /// Queues `data` for transmission (from inside an event handler).
    pub fn send_in(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, data: &[u8]) {
        let actions = self.tcb.borrow_mut().send(data, now_ns(ctx));
        self.process_actions(ctx, actions);
    }

    /// Queues `data` for transmission (top-level entry; opens a lease).
    pub fn send(self: &Rc<Self>, engine: &mut Engine, data: &[u8]) {
        let cpu = self.manager.shared.cpu.clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        self.send_in(&mut ctx, data);
    }

    /// Begins an orderly close from inside an event handler.
    pub fn close_in(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>) {
        let actions = self.tcb.borrow_mut().close(now_ns(ctx));
        self.process_actions(ctx, actions);
    }

    /// Begins an orderly close.
    pub fn close(self: &Rc<Self>, engine: &mut Engine) {
        let cpu = self.manager.shared.cpu.clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        let actions = self.tcb.borrow_mut().close(now_ns(&ctx));
        self.process_actions(&mut ctx, actions);
    }

    /// Applies the state machine's outputs: transmit segments, fire
    /// callbacks, rearm timers, tear down on close.
    fn process_actions(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, mut actions: Actions) {
        let (_, rip, _) = self.key;
        let shared = self.manager.shared.clone();
        let mss = self.tcb.borrow().mss;
        for seg in &mut actions.segments {
            // One protocol pass per (super-)segment: with segmentation
            // offload the state machine hands down up to gso_segs * mss
            // bytes here, and the resegmentation below models the
            // adapter-assisted split, not another trip through TCP.
            ctx.lease.charge(ctx.lease.model().tcp_proc);
            let len = seg.payload.total_len();
            // A segment without payload is still one wire segment.
            for off in (0..len.max(1)).step_by(mss) {
                let end = (off + mss).min(len);
                if !shared.csum_offload {
                    ctx.lease
                        .charge(ctx.lease.model().checksum(end - off + TCP_HDR_LEN));
                }
                let payload = seg.chunk_to_mbuf(off..end, self.local_ip, rip, shared.csum_offload);
                shared.raise_ip_send(
                    ctx,
                    IpSendReq {
                        src: self.local_ip,
                        dst: rip,
                        protocol: proto::TCP,
                        payload,
                    },
                );
            }
        }
        self.tcb
            .borrow_mut()
            .reclaim(std::mem::take(&mut actions.segments));
        if actions.connected {
            let cb = self.callbacks.borrow().on_connected.clone();
            if let Some(cb) = cb {
                cb(ctx, self);
            }
        }
        if actions.out_of_window {
            StackShared::record_drop(ctx.lease, "tcp", "tcp_out_of_window");
        }
        if actions.timed_out {
            StackShared::record_drop(ctx.lease, "tcp", "tcp_retransmit_limit");
        }
        if actions.data_available {
            // The buffer goes back when the callback returns, so the next
            // delivery reuses its allocation (and the TCB the one it got).
            let mut data = self.rx_buf.take();
            self.tcb.borrow_mut().swap_received(&mut data);
            if !data.is_empty() {
                let cb = self.callbacks.borrow().on_data.clone();
                if let Some(cb) = cb {
                    cb(ctx, self, &data);
                }
            }
            self.rx_buf.replace(data);
        }
        if actions.peer_fin {
            let cb = self.callbacks.borrow().on_peer_close.clone();
            if let Some(cb) = cb {
                cb(ctx, self);
            }
        }
        if actions.closed {
            self.deregister(ctx.engine);
            let cb = self.callbacks.borrow().on_closed.clone();
            if let Some(cb) = cb {
                cb(ctx, self);
            }
            return;
        }
        self.rearm_timer(ctx.engine);
    }

    /// Puts the engine's timer where the TCB's deadline now is: a pending
    /// one is moved, closure and all; only when none is pending (it fired,
    /// or none was armed) is a closure boxed.
    fn rearm_timer(self: &Rc<Self>, engine: &mut Engine) {
        let pending = self.timer.borrow_mut().take();
        let Some(deadline_ns) = self.tcb.borrow().next_timeout() else {
            if let Some(old) = pending {
                engine.cancel(old);
            }
            return;
        };
        let now = engine.now().as_nanos();
        let delay = SimDuration::from_nanos(deadline_ns.saturating_sub(now));
        let handle = match pending.and_then(|old| engine.reschedule(old, delay)) {
            Some(moved) => moved,
            None => {
                let conn = self.clone();
                engine.schedule_cancelable(delay, move |eng| conn.on_timer_fire(eng))
            }
        };
        *self.timer.borrow_mut() = Some(handle);
    }

    fn on_timer_fire(self: &Rc<Self>, engine: &mut Engine) {
        if self.deregistered.get() {
            return;
        }
        let cpu = self.manager.shared.cpu.clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        let now = now_ns(&ctx);
        let actions = self.tcb.borrow_mut().on_timer(now);
        self.process_actions(&mut ctx, actions);
    }

    fn deregister(&self, engine: &mut Engine) {
        if self.deregistered.replace(true) {
            return;
        }
        if let Some(t) = self.timer.borrow_mut().take() {
            engine.cancel(t);
        }
        if let Some(id) = self.handler.take() {
            self.manager
                .shared
                .dispatcher
                .uninstall(self.manager.shared.events.tcp_recv, id);
        }
        self.manager.conns.borrow_mut().remove(&self.key);
    }
}
