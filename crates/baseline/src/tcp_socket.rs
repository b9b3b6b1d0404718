//! TCP sockets for the monolithic stack: the same [`TcpConn`] as Plexus,
//! over the same [`Tcb`], whose [`ConnHost`] is its [`Socket`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::vm::AddressSpace;
use plexus_net::ip::IpHeader;
use plexus_net::link::Structure;
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{ConnCallback, ConnHost, ConnIds, PortsExhausted, Tcb, TcpConn, TcpSegment};
use plexus_sim::{Engine, Loss};

use crate::stack::{BaselineShared, Socket};

/// The kernel TCP layer of the monolithic stack.
pub struct TcpLayer {
    kernel: Rc<BaselineShared>,
    listeners: RefCell<HashMap<u16, (Rc<AddressSpace>, ConnCallback)>>,
    ids: ConnIds,
}

impl TcpLayer {
    pub(crate) fn new(kernel: &Rc<BaselineShared>) -> Rc<TcpLayer> {
        Rc::new(TcpLayer {
            kernel: kernel.clone(),
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
        let conns = &self.kernel.tcp_conns;
        let port = self.ids.port(|p| {
            self.listeners.borrow().contains_key(&p)
                || conns.borrow().keys().any(|&(lp, ..)| lp == p)
        })?;
        let lease = &mut self.kernel.link().cpu.begin(engine.now());
        process.trap(lease);
        let now = lease.now().as_nanos();
        let iss = self.ids.next_iss();
        let (tcb, actions) = Tcb::connect((self.kernel.link().ip(), port), remote, iss, now);
        let conn = self.register(process, (port, remote.0, remote.1), tcb);
        conn.apply(&mut RaiseCtx { engine, lease }, actions);
        Ok(conn)
    }

    fn register(
        &self,
        process: &Rc<AddressSpace>,
        key: (u16, Ipv4Addr, u16),
        tcb: Tcb,
    ) -> Rc<TcpConn> {
        let local = (self.kernel.link().ip(), key.0);
        let conn = TcpConn::new(
            Socket::new(&self.kernel, process),
            local,
            (key.1, key.2),
            tcb,
        );
        self.kernel.tcp_conns.borrow_mut().insert(key, conn.clone());
        conn
    }

    /// Kernel input path for a TCP segment. One that does not parse is
    /// [`Loss::TcpBadSegment`]; one for no connection that is not an
    /// opening SYN to a listener is [`Loss::TcpNoConnection`] (the baseline
    /// model sends no RST).
    pub(crate) fn input(&self, ctx: &mut RaiseCtx<'_>, hdr: &IpHeader, payload: &Mbuf) {
        let lease = &mut *ctx.lease;
        lease.charge(lease.model().tcp_proc);
        if !self.kernel.csum_offload() {
            lease.charge(lease.model().checksum(payload.total_len()));
        }
        // Parsed in place: only a frame that spans clusters is gathered, and
        // only then does `spill` allocate.
        let mut spill = Vec::new();
        let Some(seg) = TcpSegment::parse(hdr.src, hdr.dst, payload.contiguous(&mut spill)) else {
            return lease.lose(Loss::TcpBadSegment);
        };
        let key = (seg.dst_port, hdr.src, seg.src_port);
        let existing = self.kernel.tcp_conns.borrow().get(&key).cloned();
        let conn = match existing {
            Some(c) => c,
            None => {
                let listener = self.listeners.borrow().get(&seg.dst_port).cloned();
                let Some((process, accept_cb)) =
                    listener.filter(|_| seg.flags.syn && !seg.flags.ack)
                else {
                    return lease.lose(Loss::TcpNoConnection);
                };
                let tcb = Tcb::listen((self.kernel.link().ip(), seg.dst_port), self.ids.next_iss());
                let conn = self.register(&process, key, tcb);
                // The accept runs in user context after a wakeup.
                let c = conn.clone();
                let cpu = self.kernel.link().cpu.clone();
                lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
                ctx.engine.schedule_at(lease.now(), move |engine| {
                    let lease = &mut cpu.begin(engine.now());
                    lease.charge(lease.model().context_switch + lease.model().syscall);
                    accept_cb(&mut RaiseCtx { engine, lease }, &c);
                });
                conn
            }
        };
        conn.input(ctx, hdr.src, &seg);
    }
}

/// A connection's socket is its host: the kernel's structure, the socket
/// itself as whom it runs for, and the kernel's table to leave.
impl ConnHost for Socket {
    type Structure = BaselineShared;

    fn host(self: &Rc<Self>) -> (&Rc<BaselineShared>, Rc<Socket>) {
        (&self.kernel, self.clone())
    }

    fn unregister(&self, conn: &TcpConn) {
        let (rip, rport) = conn.remote();
        let key = (conn.local_port(), rip, rport);
        self.kernel.tcp_conns.borrow_mut().remove(&key);
    }
}
