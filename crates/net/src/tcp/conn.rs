//! One TCP connection, whichever stack runs it: a [`TcpConn`] applies its
//! [`Tcb`]'s [`Actions`] the same way on every stack, and reaches its
//! stack's [`Structure`] through a [`ConnHost`]. Plexus raises
//! `Ip.PacketSend` and calls the application directly; the monolithic
//! baseline calls its IP output and crosses into the user process.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_sim::engine::TimerHandle;
use plexus_sim::time::SimDuration;
use plexus_sim::{Cpu, CpuLease, Engine, Loss};

use super::{Actions, Payload, Tcb, TcpSegment, TcpState, TCP_HDR_LEN};
use crate::ip::proto;
use crate::link::Structure;
use crate::mbuf::Mbuf;

/// A connection-event callback (connected, closed, peer-closed).
pub type ConnCallback = Rc<dyn Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>)>;

/// A data-arrival callback.
pub type DataCallback = Rc<dyn Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>, &[u8])>;

/// Callbacks an application attaches to a connection. `Rc`-based so the
/// connection can invoke them without holding the callback cell borrowed
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

/// A connection event the application hears about, in the order a
/// connection's life produces them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// The connection reached `Established`.
    Connected,
    /// The peer finished sending.
    PeerClose,
    /// The connection fully closed (or was reset).
    Closed,
}

/// A connection's place in its stack: the [`Structure`], whom it runs for,
/// and the table it leaves when it closes — Plexus's TCP manager for every
/// connection, a DIGITAL UNIX connection's own socket.
pub trait ConnHost: 'static {
    /// The stack's structure.
    type Structure: Structure;

    /// The structure, and whom the connection runs for.
    fn host(self: &Rc<Self>) -> (&Rc<Self::Structure>, <Self::Structure as Structure>::Owner);

    /// Removes a closed `conn` from the stack's tables.
    fn unregister(&self, conn: &TcpConn);
}

/// A [`ConnHost`] with its structure's type erased: a connection is one
/// type on every stack (applications and their callbacks name `TcpConn`
/// whichever stack runs them), so it holds its host as `Rc<dyn Host>`. Each
/// method is written once, here, for every stack.
trait Host {
    fn cpu(self: Rc<Self>) -> Rc<Cpu>;
    fn enter_send(self: Rc<Self>, lease: &mut CpuLease, len: usize);
    fn enter_close(self: Rc<Self>, lease: &mut CpuLease, in_callback: bool);
    fn apply(self: Rc<Self>, ctx: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>, actions: Actions);
    fn unregister(&self, conn: &TcpConn);
}

impl<H: ConnHost> Host for H {
    fn cpu(self: Rc<Self>) -> Rc<Cpu> {
        self.host().0.link().cpu.clone()
    }

    fn enter_send(self: Rc<Self>, lease: &mut CpuLease, len: usize) {
        let (s, owner) = self.host();
        s.enter_send(&owner, lease, len);
    }

    fn enter_close(self: Rc<Self>, lease: &mut CpuLease, in_callback: bool) {
        let (s, owner) = self.host();
        s.enter_close(&owner, lease, in_callback);
    }

    fn apply(self: Rc<Self>, ctx: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>, actions: Actions) {
        let (s, owner) = self.host();
        conn.apply_under(s, &owner, ctx, actions);
    }

    fn unregister(&self, conn: &TcpConn) {
        ConnHost::unregister(self, conn);
    }
}

/// No ephemeral port was free: every one was held or in use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortsExhausted;

/// A stack's source of ephemeral ports and initial sequence numbers. Each
/// stack keeps its own seeds; every connection moves the ISS on by 64 000.
pub struct ConnIds {
    first_port: u16,
    next_port: Cell<u16>,
    iss: Cell<u32>,
}

impl ConnIds {
    /// Ports from `first_port` up to 65 535, then round again; ISS from
    /// `first_iss`.
    pub fn new(first_port: u16, first_iss: u32) -> ConnIds {
        ConnIds {
            first_port,
            next_port: Cell::new(first_port),
            iss: Cell::new(first_iss),
        }
    }

    /// The next initial sequence number.
    pub fn next_iss(&self) -> u32 {
        let iss = self.iss.get();
        self.iss.set(iss.wrapping_add(64_000));
        iss
    }

    /// The next ephemeral port that is not `taken` (held by a listener or
    /// in use by a connection). Each port is tried at most once.
    pub fn port(&self, taken: impl Fn(u16) -> bool) -> Result<u16, PortsExhausted> {
        for _ in self.first_port..=u16::MAX {
            let port = self.next_port.get();
            self.next_port
                .set(port.checked_add(1).unwrap_or(self.first_port));
            if !taken(port) {
                return Ok(port);
            }
        }
        Err(PortsExhausted)
    }
}

/// One TCP connection: the state machine, the application's callbacks,
/// the retransmit timer, and its stack's [`ConnHost`].
pub struct TcpConn {
    host: Rc<dyn Host>,
    /// The local address this connection answers on: normally the host
    /// address, but a DSR redirection target answers on the forwarder's
    /// alias, preserving end-to-end addressing (§5.2).
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    tcb: RefCell<Tcb>,
    /// This side of the receive hand-off ([`Tcb::swap_received`]).
    rx_buf: RefCell<Vec<u8>>,
    callbacks: RefCell<TcpCallbacks>,
    timer: RefCell<Option<TimerHandle>>,
    gone: Cell<bool>,
}

impl TcpConn {
    /// A connection of `host`'s between `local` and `remote`, run by `tcb`.
    /// The stack registers it in its tables and then feeds it segments.
    pub fn new(
        host: Rc<impl ConnHost>,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        tcb: Tcb,
    ) -> Rc<TcpConn> {
        Rc::new(TcpConn {
            host,
            local,
            remote,
            tcb: RefCell::new(tcb),
            rx_buf: RefCell::new(Vec::new()),
            callbacks: RefCell::new(TcpCallbacks::default()),
            timer: RefCell::new(None),
            gone: Cell::new(false),
        })
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
        self.local.1
    }

    /// The remote endpoint.
    pub fn remote(&self) -> (Ipv4Addr, u16) {
        self.remote
    }

    /// Segments this side retransmitted.
    pub fn retransmits(&self) -> u64 {
        self.tcb.borrow().retransmits
    }

    /// Queues `data` for transmission (from inside an event handler). An
    /// owned or shared buffer (`Vec<u8>`, `Rc<Vec<u8>>`, an [`Mbuf`]) is
    /// queued without a copy and a borrowed one is copied once
    /// ([`Tcb::send`]); what the stack charges for the send is the same
    /// either way.
    pub fn send_in(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, data: impl Into<Mbuf>) {
        let data = data.into();
        self.host.clone().enter_send(ctx.lease, data.total_len());
        let actions = self.tcb.borrow_mut().send(data, now_ns(ctx));
        self.apply(ctx, actions);
    }

    /// Queues `data` for transmission (top-level entry; opens a lease).
    pub fn send(self: &Rc<Self>, engine: &mut Engine, data: impl Into<Mbuf>) {
        self.on_lease(engine, |ctx| self.send_in(ctx, data));
    }

    /// Begins an orderly close from inside an event handler.
    pub fn close_in(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>) {
        self.close_from(ctx, true);
    }

    /// Begins an orderly close (top-level entry; opens a lease).
    pub fn close(self: &Rc<Self>, engine: &mut Engine) {
        self.on_lease(engine, |ctx| self.close_from(ctx, false));
    }

    /// Runs `f` on a lease of the host's CPU that begins now.
    fn on_lease(&self, engine: &mut Engine, f: impl FnOnce(&mut RaiseCtx<'_>)) {
        let lease = &mut self.host.clone().cpu().begin(engine.now());
        f(&mut RaiseCtx { engine, lease });
    }

    fn close_from(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, in_callback: bool) {
        self.host.clone().enter_close(ctx.lease, in_callback);
        let actions = self.tcb.borrow_mut().close(now_ns(ctx));
        self.apply(ctx, actions);
    }

    /// Runs a segment from `src` addressed to this connection through the
    /// state machine.
    pub fn input<P: Payload>(
        self: &Rc<Self>,
        ctx: &mut RaiseCtx<'_>,
        src: Ipv4Addr,
        seg: &TcpSegment<P>,
    ) {
        let actions = self
            .tcb
            .borrow_mut()
            .on_segment(seg, (src, seg.src_port), now_ns(ctx));
        self.apply(ctx, actions);
    }

    /// Applies the state machine's outputs, in this order: transmit the
    /// segments, tell the application it connected, name the drops,
    /// deliver data, tell it the peer closed, then either tear down and
    /// tell it the connection closed, or re-arm the timer.
    pub fn apply(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, actions: Actions) {
        self.host.clone().apply(ctx, self, actions);
    }

    /// [`TcpConn::apply`] under the stack's structure `s`, for `owner`.
    fn apply_under<S: Structure>(
        self: &Rc<Self>,
        s: &Rc<S>,
        owner: &S::Owner,
        ctx: &mut RaiseCtx<'_>,
        mut actions: Actions,
    ) {
        let ((lip, _), (rip, _)) = (self.local, self.remote);
        let offload = s.csum_offload();
        let mss = self.tcb.borrow().mss;
        for seg in &mut actions.segments {
            // One protocol pass per (super-)segment: with segmentation
            // offload the state machine hands down up to gso_segs * mss
            // bytes here, and the split below models the adapter-assisted
            // one, not another trip through TCP.
            ctx.lease.charge(ctx.lease.model().tcp_proc);
            let len = seg.payload.total_len();
            // A segment without payload is still one wire segment.
            for off in (0..len.max(1)).step_by(mss) {
                let end = (off + mss).min(len);
                if !offload {
                    ctx.lease
                        .charge(ctx.lease.model().checksum(end - off + TCP_HDR_LEN));
                }
                let payload = seg.chunk_to_mbuf(off..end, lip, rip, offload);
                s.send_ip(ctx, lip, rip, proto::TCP, payload);
            }
        }
        self.tcb
            .borrow_mut()
            .reclaim(std::mem::take(&mut actions.segments));
        if actions.connected {
            s.notify(ctx, owner, self, ConnEvent::Connected);
        }
        if actions.out_of_window {
            ctx.lease.lose(Loss::TcpOutOfWindow);
        }
        if actions.timed_out {
            ctx.lease.lose(Loss::TcpRetransmitLimit);
        }
        if actions.data_available {
            // The buffer goes back when the delivery returns, so the next
            // one reuses its allocation (and the TCB the one it got).
            let mut data = self.rx_buf.take();
            self.tcb.borrow_mut().swap_received(&mut data);
            if !data.is_empty() {
                s.deliver(ctx, owner, self, &data);
            }
            self.rx_buf.replace(data);
        }
        if actions.peer_fin {
            s.notify(ctx, owner, self, ConnEvent::PeerClose);
        }
        if actions.closed {
            self.teardown(ctx.engine);
            s.notify(ctx, owner, self, ConnEvent::Closed);
            return;
        }
        self.rearm_timer(ctx.engine);
    }

    /// Runs the application's callback for `event`.
    pub fn upcall(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, event: ConnEvent) {
        let cb = {
            let callbacks = self.callbacks.borrow();
            match event {
                ConnEvent::Connected => callbacks.on_connected.clone(),
                ConnEvent::PeerClose => callbacks.on_peer_close.clone(),
                ConnEvent::Closed => callbacks.on_closed.clone(),
            }
        };
        if let Some(cb) = cb {
            cb(ctx, self);
        }
    }

    /// Runs the application's data callback on `data`.
    pub fn upcall_data(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, data: &[u8]) {
        let cb = self.callbacks.borrow().on_data.clone();
        if let Some(cb) = cb {
            cb(ctx, self, data);
        }
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
                engine.schedule_cancelable(delay, move |eng| {
                    if !conn.gone.get() {
                        conn.on_lease(eng, |ctx| {
                            let actions = conn.tcb.borrow_mut().on_timer(now_ns(ctx));
                            conn.apply(ctx, actions);
                        });
                    }
                })
            }
        };
        *self.timer.borrow_mut() = Some(handle);
    }

    /// Cancels the timer and has the stack forget the connection, once.
    fn teardown(&self, engine: &mut Engine) {
        if self.gone.replace(true) {
            return;
        }
        if let Some(t) = self.timer.borrow_mut().take() {
            engine.cancel(t);
        }
        self.host.unregister(self);
    }
}

fn now_ns(ctx: &RaiseCtx<'_>) -> u64 {
    ctx.lease.now().as_nanos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_come_in_order_from_the_seed_and_skip_taken_ones() {
        let ids = ConnIds::new(40_000, 1_000);
        assert_eq!(ids.port(|_| false), Ok(40_000));
        assert_eq!(ids.port(|p| p == 40_001), Ok(40_002));
        assert_eq!((ids.next_iss(), ids.next_iss()), (1_000, 65_000));
    }

    #[test]
    fn the_port_cursor_wraps_to_the_seed() {
        let ids = ConnIds::new(65_534, 0);
        let ports: Vec<_> = (0..3).map(|_| ids.port(|_| false).unwrap()).collect();
        assert_eq!(ports, [65_534, 65_535, 65_534]);
    }

    #[test]
    fn with_every_port_taken_the_allocator_says_so_after_one_round() {
        let ids = ConnIds::new(30_000, 52_000);
        let tried = Cell::new(0u32);
        let taken = |_| {
            tried.set(tried.get() + 1);
            true
        };
        assert_eq!(ids.port(taken), Err(PortsExhausted));
        assert_eq!(tried.get(), 35_536, "each port once");
        // The one port that comes free is found, wherever the cursor is.
        assert_eq!(ids.port(|p| p != 31_234), Ok(31_234));
    }
}
