//! TCP sockets for the monolithic stack.
//!
//! Same [`Tcb`] state machine as Plexus; what differs is the delivery
//! structure: data reaches the application only after socket-buffer
//! bookkeeping, a process wakeup, a context switch, a trap return, and a
//! copyout — and application sends pay the mirror-image costs.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::vm::AddressSpace;
use plexus_net::ip::{proto, IpHeader};
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{Actions, Tcb, TcpSegment, TcpState, TCP_HDR_LEN};
use plexus_sim::engine::TimerHandle;
use plexus_sim::time::SimDuration;
use plexus_sim::{CpuLease, Engine};

use crate::stack::BaselineShared;

type ConnKey = (u16, Ipv4Addr, u16);

/// A socket-event callback, run in user context.
pub type SocketCallback = Rc<dyn Fn(&mut Engine, &mut CpuLease, &Rc<TcpSocket>)>;

/// A data-arrival callback, run in user context after the copyout.
pub type SocketDataCallback = Rc<dyn Fn(&mut Engine, &mut CpuLease, &Rc<TcpSocket>, &[u8])>;

/// User-context callbacks for a TCP socket.
#[derive(Default)]
pub struct SocketCallbacks {
    /// Connection established.
    pub on_connected: Option<SocketCallback>,
    /// Data arrived (already copied out; the copy was charged).
    pub on_data: Option<SocketDataCallback>,
    /// Peer half-closed.
    pub on_peer_close: Option<SocketCallback>,
    /// Fully closed.
    pub on_closed: Option<SocketCallback>,
}

type AcceptCallback = SocketCallback;

/// The kernel TCP layer of the monolithic stack.
pub struct TcpLayer {
    shared: Rc<BaselineShared>,
    conns: RefCell<HashMap<ConnKey, Rc<TcpSocket>>>,
    listeners: RefCell<HashMap<u16, (Rc<AddressSpace>, AcceptCallback)>>,
    iss: Cell<u32>,
    next_port: Cell<u16>,
}

impl TcpLayer {
    pub(crate) fn new(shared: &Rc<BaselineShared>) -> Rc<TcpLayer> {
        Rc::new(TcpLayer {
            shared: shared.clone(),
            conns: RefCell::new(HashMap::new()),
            listeners: RefCell::new(HashMap::new()),
            iss: Cell::new(52_000),
            next_port: Cell::new(30_000),
        })
    }

    fn next_iss(&self) -> u32 {
        let v = self.iss.get();
        self.iss.set(v.wrapping_add(64_000));
        v
    }

    /// `listen(2)` + `accept(2)` loop: `on_accept` runs (in user context)
    /// for each new connection.
    pub fn listen<F>(self: &Rc<Self>, process: &Rc<AddressSpace>, port: u16, on_accept: F) -> bool
    where
        F: Fn(&mut Engine, &mut CpuLease, &Rc<TcpSocket>) + 'static,
    {
        let mut listeners = self.listeners.borrow_mut();
        if listeners.contains_key(&port) {
            return false;
        }
        listeners.insert(port, (process.clone(), Rc::new(on_accept)));
        true
    }

    /// `connect(2)`: active open. Costs a trap; the handshake proceeds in
    /// the kernel.
    pub fn connect(
        self: &Rc<Self>,
        engine: &mut Engine,
        process: &Rc<AddressSpace>,
        remote: (Ipv4Addr, u16),
    ) -> Rc<TcpSocket> {
        let port = self.next_port.get();
        self.next_port.set(port.wrapping_add(1).max(30_000));
        let key = (port, remote.0, remote.1);
        let mut lease = self.shared.cpu.begin(engine.now());
        process.trap(&mut lease);
        let now = lease.now().as_nanos();
        let (tcb, actions) = Tcb::connect((self.shared.ip, port), remote, self.next_iss(), now);
        let sock = self.register(process, key, tcb);
        sock.process_actions(engine, &mut lease, actions);
        sock
    }

    fn register(
        self: &Rc<Self>,
        process: &Rc<AddressSpace>,
        key: ConnKey,
        tcb: Tcb,
    ) -> Rc<TcpSocket> {
        let sock = Rc::new(TcpSocket {
            layer: self.clone(),
            process: process.clone(),
            key,
            tcb: RefCell::new(tcb),
            rx_buf: RefCell::new(Vec::new()),
            callbacks: RefCell::new(SocketCallbacks::default()),
            timer: RefCell::new(None),
            gone: Cell::new(false),
            pending_data: RefCell::new(Vec::new()),
            wakeup_queued: Cell::new(false),
        });
        self.conns.borrow_mut().insert(key, sock.clone());
        sock
    }

    /// Kernel input path for a TCP segment.
    pub(crate) fn input(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        hdr: &IpHeader,
        payload: &Mbuf,
    ) {
        lease.charge(lease.model().tcp_proc);
        lease.charge(lease.model().checksum(payload.total_len()));
        // Parsed in place: only a frame that spans clusters is gathered, and
        // only then does `spill` allocate.
        let mut spill = Vec::new();
        let Some(seg) = TcpSegment::parse(hdr.src, hdr.dst, payload.contiguous(&mut spill)) else {
            return;
        };
        let key = (seg.dst_port, hdr.src, seg.src_port);
        let existing = self.conns.borrow().get(&key).cloned();
        let sock = match existing {
            Some(s) => s,
            None => {
                let listener = self.listeners.borrow().get(&seg.dst_port).cloned();
                let Some((process, accept_cb)) = listener else {
                    return; // No RST generation in the baseline model.
                };
                if !seg.flags.syn || seg.flags.ack {
                    return;
                }
                let tcb = Tcb::listen((self.shared.ip, seg.dst_port), self.next_iss());
                let sock = self.register(&process, key, tcb);
                // The accept runs in user context after a wakeup.
                let s = sock.clone();
                let cpu = self.shared.cpu.clone();
                lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
                let at = lease.now();
                engine.schedule_at(at, move |eng| {
                    let mut user = cpu.begin(eng.now());
                    user.charge(user.model().context_switch + user.model().syscall);
                    accept_cb(eng, &mut user, &s);
                });
                sock
            }
        };
        let actions =
            sock.tcb
                .borrow_mut()
                .on_segment(&seg, (hdr.src, seg.src_port), lease.now().as_nanos());
        sock.process_actions(engine, lease, actions);
    }
}

/// A TCP socket owned by a user process on the monolithic stack.
pub struct TcpSocket {
    layer: Rc<TcpLayer>,
    process: Rc<AddressSpace>,
    key: ConnKey,
    tcb: RefCell<Tcb>,
    /// This side of the receive hand-off ([`Tcb::swap_received`]).
    rx_buf: RefCell<Vec<u8>>,
    callbacks: RefCell<SocketCallbacks>,
    timer: RefCell<Option<TimerHandle>>,
    gone: Cell<bool>,
    /// Socket-buffer bytes awaiting the woken process (wakeups coalesce:
    /// segments arriving while a wakeup is queued share one crossing, as
    /// with a real `soreceive` loop).
    pending_data: RefCell<Vec<u8>>,
    wakeup_queued: Cell<bool>,
}

impl TcpSocket {
    /// Attaches user callbacks.
    pub fn set_callbacks(&self, callbacks: SocketCallbacks) {
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

    /// Segments retransmitted by this side.
    pub fn retransmits(&self) -> u64 {
        self.tcb.borrow().retransmits
    }

    /// `write(2)`: trap, copyin, socket layer, then the kernel TCP path.
    pub fn send(self: &Rc<Self>, engine: &mut Engine, data: &[u8]) {
        let mut lease = self.layer.shared.cpu.begin(engine.now());
        self.send_in(engine, &mut lease, data);
    }

    /// [`TcpSocket::send`] on an existing lease (from a receive callback).
    pub fn send_in(self: &Rc<Self>, engine: &mut Engine, lease: &mut CpuLease, data: &[u8]) {
        self.process.trap(lease);
        self.process.copyin(lease, data.len());
        lease.charge(lease.model().socket_layer);
        let actions = self.tcb.borrow_mut().send(data, lease.now().as_nanos());
        self.process_actions(engine, lease, actions);
    }

    /// `close(2)`.
    pub fn close(self: &Rc<Self>, engine: &mut Engine) {
        let mut lease = self.layer.shared.cpu.begin(engine.now());
        self.process.trap(&mut lease);
        lease.charge(lease.model().socket_layer);
        let now = lease.now().as_nanos();
        let actions = self.tcb.borrow_mut().close(now);
        self.process_actions(engine, &mut lease, actions);
    }

    /// Close from within a user callback.
    pub fn close_in(self: &Rc<Self>, engine: &mut Engine, lease: &mut CpuLease) {
        self.process.trap(lease);
        let now = lease.now().as_nanos();
        let actions = self.tcb.borrow_mut().close(now);
        self.process_actions(engine, lease, actions);
    }

    fn process_actions(
        self: &Rc<Self>,
        engine: &mut Engine,
        lease: &mut CpuLease,
        mut actions: Actions,
    ) {
        let (_, rip, _) = self.key;
        for seg in &mut actions.segments {
            let len = seg.payload.total_len();
            lease.charge(lease.model().tcp_proc);
            lease.charge(lease.model().checksum(len + TCP_HDR_LEN));
            let m = seg.chunk_to_mbuf(0..len, self.layer.shared.ip, rip, false);
            self.layer
                .shared
                .ip_output(engine, lease, rip, proto::TCP, &m);
        }
        self.tcb
            .borrow_mut()
            .reclaim(std::mem::take(&mut actions.segments));
        if actions.connected {
            self.user_callback(engine, lease, UserEvent::Connected);
        }
        if let Some(rec) = lease.recorder() {
            let now = lease.now().as_nanos();
            if actions.out_of_window {
                rec.packet_drop(now, "tcp", "tcp_out_of_window");
            }
            if actions.timed_out {
                rec.packet_drop(now, "tcp", "tcp_retransmit_limit");
            }
        }
        if actions.data_available {
            let mut data = self.rx_buf.take();
            self.tcb.borrow_mut().swap_received(&mut data);
            if !data.is_empty() {
                self.deliver_data(engine, lease, &data);
            }
            self.rx_buf.replace(data);
        }
        if actions.peer_fin {
            self.user_callback(engine, lease, UserEvent::PeerClose);
        }
        if actions.closed {
            self.teardown(engine);
            self.user_callback(engine, lease, UserEvent::Closed);
            return;
        }
        self.rearm_timer(engine);
    }

    /// Appends to the socket buffer and wakes the blocked reader. If a
    /// wakeup is already queued (the process has not run yet), the bytes
    /// ride along with it — one boundary crossing drains the whole buffer,
    /// like `soreceive` after a burst of segments.
    fn deliver_data(self: &Rc<Self>, engine: &mut Engine, lease: &mut CpuLease, data: &[u8]) {
        lease.charge(lease.model().socket_layer);
        self.pending_data.borrow_mut().extend_from_slice(data);
        if self.wakeup_queued.replace(true) {
            return;
        }
        lease.charge(lease.model().process_wakeup);
        let at = lease.now();
        let cpu = self.layer.shared.cpu.clone();
        let process = self.process.clone();
        let sock = self.clone();
        engine.schedule_at(at, move |eng| {
            let mut user = cpu.begin(eng.now());
            user.charge(user.model().context_switch);
            process.trap(&mut user);
            sock.wakeup_queued.set(false);
            let data = std::mem::take(&mut *sock.pending_data.borrow_mut());
            if data.is_empty() {
                return;
            }
            process.copyout(&mut user, data.len());
            let cb = sock.callbacks.borrow().on_data.clone();
            if let Some(cb) = cb {
                cb(eng, &mut user, &sock, &data);
            }
        });
    }

    /// Crosses into user space: socket-layer + wakeup on the kernel side,
    /// then context switch + trap return (+ copyout for data) in the
    /// process before the callback runs.
    fn user_callback(self: &Rc<Self>, engine: &mut Engine, lease: &mut CpuLease, ev: UserEvent) {
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        let at = lease.now();
        let cpu = self.layer.shared.cpu.clone();
        let sock = self.clone();
        let process = self.process.clone();
        engine.schedule_at(at, move |eng| {
            let mut user = cpu.begin(eng.now());
            user.charge(user.model().context_switch);
            process.trap(&mut user);
            match &ev {
                UserEvent::Connected => {
                    let cb = sock.callbacks.borrow().on_connected.clone();
                    if let Some(cb) = cb {
                        cb(eng, &mut user, &sock);
                    }
                }
                UserEvent::PeerClose => {
                    let cb = sock.callbacks.borrow().on_peer_close.clone();
                    if let Some(cb) = cb {
                        cb(eng, &mut user, &sock);
                    }
                }
                UserEvent::Closed => {
                    let cb = sock.callbacks.borrow().on_closed.clone();
                    if let Some(cb) = cb {
                        cb(eng, &mut user, &sock);
                    }
                }
            }
        });
    }

    /// Moves a pending timer to the TCB's deadline; boxes a closure only
    /// when none is pending.
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
                let sock = self.clone();
                engine.schedule_cancelable(delay, move |eng| {
                    if sock.gone.get() {
                        return;
                    }
                    let mut lease = sock.layer.shared.cpu.begin(eng.now());
                    let now = lease.now().as_nanos();
                    let actions = sock.tcb.borrow_mut().on_timer(now);
                    sock.process_actions(eng, &mut lease, actions);
                })
            }
        };
        *self.timer.borrow_mut() = Some(handle);
    }

    fn teardown(&self, engine: &mut Engine) {
        if self.gone.replace(true) {
            return;
        }
        if let Some(t) = self.timer.borrow_mut().take() {
            engine.cancel(t);
        }
        self.layer.conns.borrow_mut().remove(&self.key);
    }
}

enum UserEvent {
    Connected,
    PeerClose,
    Closed,
}
