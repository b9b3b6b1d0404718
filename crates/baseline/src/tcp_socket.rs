//! TCP sockets for the monolithic stack.
//!
//! The same [`TcpConn`] as Plexus, over the same [`Tcb`]; what differs is
//! the delivery structure, which a socket supplies as the connection's
//! [`TcpHost`]: data reaches the application only after socket-buffer
//! bookkeeping, a process wakeup, a context switch, a trap return, and a
//! copyout — and application sends pay the mirror-image costs.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::vm::AddressSpace;
use plexus_net::ip::{proto, IpHeader};
use plexus_net::link::LinkHost;
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{
    ConnCallback, ConnEvent, ConnIds, PortsExhausted, Tcb, TcpConn, TcpHost, TcpSegment,
};
use plexus_sim::{Cpu, CpuLease, Engine};

use crate::stack::BaselineShared;

type ConnKey = (u16, Ipv4Addr, u16);

/// The kernel TCP layer of the monolithic stack.
pub struct TcpLayer {
    shared: Rc<BaselineShared>,
    conns: RefCell<HashMap<ConnKey, Rc<TcpConn>>>,
    listeners: RefCell<HashMap<u16, (Rc<AddressSpace>, ConnCallback)>>,
    ids: ConnIds,
}

impl TcpLayer {
    pub(crate) fn new(shared: &Rc<BaselineShared>) -> Rc<TcpLayer> {
        Rc::new(TcpLayer {
            shared: shared.clone(),
            conns: RefCell::new(HashMap::new()),
            listeners: RefCell::new(HashMap::new()),
            ids: ConnIds::new(30_000, 52_000),
        })
    }

    /// `listen(2)` + `accept(2)` loop: `on_accept` runs (in user context)
    /// for each new connection.
    pub fn listen<F>(self: &Rc<Self>, process: &Rc<AddressSpace>, port: u16, on_accept: F) -> bool
    where
        F: Fn(&mut RaiseCtx<'_>, &Rc<TcpConn>) + 'static,
    {
        let mut listeners = self.listeners.borrow_mut();
        if listeners.contains_key(&port) {
            return false;
        }
        listeners.insert(port, (process.clone(), Rc::new(on_accept)));
        true
    }

    /// `connect(2)`: active open. Costs a trap; the handshake proceeds in
    /// the kernel. `EADDRNOTAVAIL` when every ephemeral port is held by a
    /// listener or in use by a connection, refused before the trap.
    pub fn connect(
        self: &Rc<Self>,
        engine: &mut Engine,
        process: &Rc<AddressSpace>,
        remote: (Ipv4Addr, u16),
    ) -> Result<Rc<TcpConn>, PortsExhausted> {
        let port = self.ids.port(|p| {
            self.listeners.borrow().contains_key(&p)
                || self.conns.borrow().keys().any(|&(lp, ..)| lp == p)
        })?;
        let lease = &mut self.shared.link.cpu.begin(engine.now());
        process.trap(lease);
        let now = lease.now().as_nanos();
        let iss = self.ids.next_iss();
        let (tcb, actions) = Tcb::connect((self.shared.link.ip(), port), remote, iss, now);
        let conn = self.register(process, (port, remote.0, remote.1), tcb);
        conn.apply(&mut RaiseCtx { engine, lease }, actions);
        Ok(conn)
    }

    fn register(
        self: &Rc<Self>,
        process: &Rc<AddressSpace>,
        key: ConnKey,
        tcb: Tcb,
    ) -> Rc<TcpConn> {
        let socket = Rc::new(Socket {
            layer: self.clone(),
            process: process.clone(),
            pending_data: RefCell::new(Vec::new()),
            wakeup_queued: Cell::new(false),
        });
        let conn = TcpConn::new(socket, (self.shared.link.ip(), key.0), (key.1, key.2), tcb);
        self.conns.borrow_mut().insert(key, conn.clone());
        conn
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
        let conn = match existing {
            Some(c) => c,
            None => {
                let listener = self.listeners.borrow().get(&seg.dst_port).cloned();
                let Some((process, accept_cb)) = listener else {
                    return; // No RST generation in the baseline model.
                };
                if !seg.flags.syn || seg.flags.ack {
                    return;
                }
                let tcb = Tcb::listen((self.shared.link.ip(), seg.dst_port), self.ids.next_iss());
                let conn = self.register(&process, key, tcb);
                // The accept runs in user context after a wakeup.
                let c = conn.clone();
                let cpu = self.shared.link.cpu.clone();
                lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
                engine.schedule_at(lease.now(), move |engine| {
                    let lease = &mut cpu.begin(engine.now());
                    lease.charge(lease.model().context_switch + lease.model().syscall);
                    accept_cb(&mut RaiseCtx { engine, lease }, &c);
                });
                conn
            }
        };
        conn.input(&mut RaiseCtx { engine, lease }, hdr.src, &seg);
    }
}

/// A TCP socket owned by a user process: the monolithic structure around
/// one connection.
struct Socket {
    layer: Rc<TcpLayer>,
    process: Rc<AddressSpace>,
    /// Socket-buffer bytes awaiting the woken process (wakeups coalesce:
    /// segments arriving while a wakeup is queued share one crossing, as
    /// with a real `soreceive` loop).
    pending_data: RefCell<Vec<u8>>,
    wakeup_queued: Cell<bool>,
}

impl TcpHost for Socket {
    fn cpu(&self) -> &Rc<Cpu> {
        &self.layer.shared.link.cpu
    }

    /// `write(2)`: trap, copyin, socket layer, then the kernel TCP path.
    fn enter_send(&self, lease: &mut CpuLease, len: usize) {
        self.process.trap(lease);
        self.process.copyin(lease, len);
        lease.charge(lease.model().socket_layer);
    }

    /// `close(2)`: a trap, and the socket layer when the process calls it
    /// outside a callback.
    fn enter_close(&self, lease: &mut CpuLease, in_callback: bool) {
        self.process.trap(lease);
        if !in_callback {
            lease.charge(lease.model().socket_layer);
        }
    }

    fn csum_offload(&self) -> bool {
        false
    }

    fn output(&self, ctx: &mut RaiseCtx<'_>, _src: Ipv4Addr, dst: Ipv4Addr, segment: Mbuf) {
        let link = &self.layer.shared.link;
        link.ip_output(ctx, link.ip(), dst, proto::TCP, &segment);
    }

    /// Appends to the socket buffer and wakes the blocked reader. If a
    /// wakeup is already queued (the process has not run yet), the bytes
    /// ride along with it — one boundary crossing drains the whole buffer,
    /// like `soreceive` after a burst of segments.
    fn deliver(self: Rc<Self>, ctx: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>, data: &[u8]) {
        let lease = &mut *ctx.lease;
        lease.charge(lease.model().socket_layer);
        self.pending_data.borrow_mut().extend_from_slice(data);
        if self.wakeup_queued.replace(true) {
            return;
        }
        lease.charge(lease.model().process_wakeup);
        let conn = conn.clone();
        self.in_process(ctx, move |socket, ctx| {
            socket.wakeup_queued.set(false);
            let data = std::mem::take(&mut *socket.pending_data.borrow_mut());
            if !data.is_empty() {
                socket.process.copyout(ctx.lease, data.len());
                conn.upcall_data(ctx, &data);
            }
        });
    }

    /// Crosses into user space: socket-layer + wakeup on the kernel side,
    /// then the process runs the callback.
    fn notify(self: Rc<Self>, ctx: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>, event: ConnEvent) {
        let lease = &mut *ctx.lease;
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        let conn = conn.clone();
        self.in_process(ctx, move |_, ctx| conn.upcall(ctx, event));
    }

    fn unregister(&self, conn: &TcpConn) {
        let (rip, rport) = conn.remote();
        self.layer
            .conns
            .borrow_mut()
            .remove(&(conn.local_port(), rip, rport));
    }
}

impl Socket {
    /// Runs `f` in the woken process, from the time `ctx` has reached:
    /// after its context switch in and its trap return.
    fn in_process<F>(self: Rc<Self>, ctx: &mut RaiseCtx<'_>, f: F)
    where
        F: FnOnce(&Socket, &mut RaiseCtx<'_>) + 'static,
    {
        ctx.engine.schedule_at(ctx.lease.now(), move |engine| {
            let lease = &mut self.cpu().begin(engine.now());
            lease.charge(lease.model().context_switch);
            self.process.trap(lease);
            f(&self, &mut RaiseCtx { engine, lease });
        });
    }
}
