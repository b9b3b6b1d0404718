//! The monolithic ("DIGITAL UNIX"-like) protocol stack.
//!
//! Same device drivers, same protocol implementations (`plexus-net`), but
//! the conventional OS structure the paper compares against (§4):
//! applications live in *user processes* behind a socket API, so
//!
//! * every send pays a **trap** and a **copyin** as data crosses the
//!   user/kernel boundary, plus socket-layer bookkeeping;
//! * every receive pays the interrupt, a **softirq** queue hop into the
//!   kernel stack proper, socket-layer bookkeeping, a **process wakeup**,
//!   a **context switch**, and a **copyout** before the application sees a
//!   byte.
//!
//! The protocol processing itself (Ethernet/IP/UDP/TCP parsing, checksums)
//! charges exactly the same costs as the Plexus graph — the measured gap
//! between the systems is pure OS structure, as the paper argues.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_net::ether::{self, EtherType, MacAddr, ETHER_HDR_LEN};
use plexus_net::ip::{self, IpHeader, RouteTable};
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{ConnEvent, TcpConn};
use plexus_net::udp::{self, Endpoint, UdpConfig, UdpRecv};
use plexus_net::{Host, Interface, Structure};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::{CpuLease, Engine, Loss, Machine, Outcome};

use plexus_kernel::dispatcher::RaiseCtx;
use plexus_kernel::AddressSpace;

use crate::tcp_socket::TcpLayer;

/// The kernel's state for one machine, and the DIGITAL UNIX [`Structure`].
/// (Public only so that the sockets naming it can be; nothing outside the
/// crate can name it.)
pub struct BaselineShared {
    link: Interface,
    udp_socks: RefCell<HashMap<u16, Rc<UdpSocket>>>,
    /// Each live TCP connection, by (local port, remote address, remote
    /// port).
    pub(crate) tcp_conns: RefCell<HashMap<(u16, Ipv4Addr, u16), Rc<TcpConn>>>,
}

/// The monolithic stack bound to one machine + NIC.
pub struct MonolithicStack {
    machine: Rc<Machine>,
    shared: Rc<BaselineShared>,
    tcp: Rc<TcpLayer>,
}

impl MonolithicStack {
    /// [`MonolithicStack::attach`] on a [`plexus_net::Testbed`] host, with
    /// the ARP cache seeded with every other host on the segment.
    pub fn attach_host(host: &Host) -> Rc<MonolithicStack> {
        let stack = MonolithicStack::attach(&host.machine, &host.nic, host.ip, host.mac);
        for &(ip, mac) in &host.peers {
            stack.seed_arp(ip, mac);
        }
        stack
    }

    /// Attaches the monolithic kernel stack to `machine`'s `nic`.
    pub fn attach(
        machine: &Rc<Machine>,
        nic: &Rc<Nic>,
        ip_addr: Ipv4Addr,
        mac: MacAddr,
    ) -> Rc<MonolithicStack> {
        let shared = Rc::new(BaselineShared {
            link: Interface::new(machine, nic, ip_addr, mac),
            udp_socks: RefCell::default(),
            tcp_conns: RefCell::default(),
        });
        let tcp = TcpLayer::new(&shared);
        let stack = Rc::new(MonolithicStack {
            machine: machine.clone(),
            shared: shared.clone(),
            tcp: tcp.clone(),
        });

        let s = shared.clone();
        nic.attach(DriverConfig::per_frame(move |engine, frame| {
            let link = &s.link;
            let mut lease = link.cpu.begin(engine.now());
            lease.charge(lease.model().interrupt_entry);
            lease.charge(link.nic.profile().rx_cpu_cost(frame.len()));
            let ctx = &mut RaiseCtx {
                engine,
                lease: &mut lease,
            };
            if let Some(v) = ether::accept(frame, link.mac()) {
                ctx.lease.count(Outcome::EthIn);
                ctx.lease.charge(ctx.lease.model().eth_proc);
                match v.ethertype() {
                    EtherType::ARP => s.arp_input(ctx, &frame[ETHER_HDR_LEN..]),
                    EtherType::IPV4 => Self::ip_input(&s, &tcp, ctx, frame),
                    _ => ctx.lease.lose(Loss::UnknownEthertype),
                }
            } else {
                ctx.lease.lose(Loss::ForeignMac);
            }
            ctx.lease.charge(ctx.lease.model().interrupt_exit);
        }));
        stack
    }

    /// The netisr/softirq hop — the interrupt handler queues the packet and
    /// the kernel processes it "later" (the hop is charged; processing
    /// continues on this CPU) — then IP input, and each protocol's input by
    /// direct call.
    fn ip_input(s: &Rc<BaselineShared>, tcp: &Rc<TcpLayer>, ctx: &mut RaiseCtx<'_>, frame: &[u8]) {
        ctx.lease.charge(ctx.lease.model().softirq);
        let mut pkt = Mbuf::from_wire(frame);
        pkt.trim_front(ETHER_HDR_LEN);
        let Some((hdr, payload)) = s.ip_input(ctx, &pkt) else {
            return;
        };
        match hdr.protocol {
            ip::proto::ICMP => {
                let bytes = payload.to_vec();
                ctx.lease.charge(ctx.lease.model().checksum(bytes.len()));
                s.echo(ctx, hdr.src, &bytes);
            }
            ip::proto::UDP => Self::udp_input(s, ctx, &hdr, &payload),
            ip::proto::TCP => tcp.input(ctx, &hdr, &payload),
            _ => ctx.lease.lose(Loss::UnknownProtocol),
        }
    }

    /// The receive path with the socket lookup as its claim; then the socket
    /// layer, a wakeup, and in the process the return from `recvfrom(2)` and
    /// the copyout. A datagram for no socket is [`Loss::UdpNoSocket`],
    /// counted but not recorded: ROADMAP item 8.
    fn udp_input(s: &BaselineShared, ctx: &mut RaiseCtx<'_>, hdr: &IpHeader, payload: &Mbuf) {
        // Find the socket first so the checksum honours its config.
        let mut unbound = false;
        let claim = |port| {
            let sock = s.udp_socks.borrow().get(&port).cloned();
            unbound = sock.is_none();
            sock.map(|sock| (sock.config, sock))
        };
        let lease = &mut *ctx.lease;
        let offload = s.csum_offload();
        let Some((recv, sock)) = udp::receive(lease, hdr.src, hdr.dst, payload, offload, claim)
        else {
            if unbound {
                lease.lose(Loss::UdpNoSocket);
            }
            return;
        };
        lease.count(Outcome::Delivered);
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        sock.socket.clone().in_process(ctx, move |so, ctx| {
            so.process.copyout(ctx.lease, recv.payload.total_len());
            (sock.on_recv)(ctx, &recv);
        });
    }

    /// The machine this stack runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// This host's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.shared.link.ip()
    }

    /// The TCP socket layer.
    pub fn tcp(&self) -> &Rc<TcpLayer> {
        &self.tcp
    }

    /// Pre-seeds the ARP cache.
    pub fn seed_arp(&self, ip_addr: Ipv4Addr, mac: MacAddr) {
        self.shared.link.seed_arp(ip_addr, mac);
    }

    /// Configures the default gateway (and subnet prefix) so off-subnet
    /// destinations route through an IP router (see `plexus-core`).
    pub fn set_gateway(&self, gateway: Ipv4Addr, prefix_len: u8) {
        let mut routes = RouteTable::host(self.shared.link.ip(), prefix_len);
        routes.set_default(gateway);
        self.shared.link.set_routes(routes);
    }

    /// Sends an ICMP echo request from the kernel (diagnostics).
    pub fn ping(&self, engine: &mut Engine, dst: Ipv4Addr, ident: u16, seq: u16, data: &[u8]) {
        self.shared.ping(engine, dst, ident, seq, data);
    }

    /// Opens a UDP socket for a user process, parked in a `recvfrom(2)`
    /// loop: `on_recv` runs in the process for every datagram that arrives,
    /// as a Plexus `bind`'s handler runs for its own. Returns `None` if the
    /// port is taken.
    pub fn udp_socket(
        &self,
        process: &Rc<AddressSpace>,
        port: u16,
        config: UdpConfig,
        on_recv: impl Fn(&mut RaiseCtx<'_>, &UdpRecv) + 'static,
    ) -> Option<Rc<UdpSocket>> {
        let mut socks = self.shared.udp_socks.borrow_mut();
        if socks.contains_key(&port) {
            return None;
        }
        let sock = Rc::new(UdpSocket {
            socket: Socket::new(&self.shared, process),
            port,
            config,
            on_recv: Box::new(on_recv),
        });
        socks.insert(port, sock.clone());
        Some(sock)
    }
}

/// A socket (BSD's `so`): its process and its receive buffer, whom the
/// structure charges a send, a close and a delivery to. (Public only
/// because the structure names it.)
pub struct Socket {
    pub(crate) kernel: Rc<BaselineShared>,
    process: Rc<AddressSpace>,
    /// Bytes awaiting the woken process (wakeups coalesce: segments
    /// arriving while a wakeup is queued share one crossing, as with a real
    /// `soreceive` loop).
    rcv: RefCell<Vec<u8>>,
    wakeup_queued: Cell<bool>,
}

impl Socket {
    pub(crate) fn new(kernel: &Rc<BaselineShared>, process: &Rc<AddressSpace>) -> Rc<Socket> {
        Rc::new(Socket {
            kernel: kernel.clone(),
            process: process.clone(),
            rcv: RefCell::default(),
            wakeup_queued: Cell::new(false),
        })
    }

    /// Runs `f` in the socket's process once it is woken, from the time
    /// `ctx` has reached: after its context switch in and its trap return.
    fn in_process<F>(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, f: F)
    where
        F: FnOnce(&Socket, &mut RaiseCtx<'_>) + 'static,
    {
        let so = self.clone();
        ctx.engine.schedule_at(ctx.lease.now(), move |engine| {
            let lease = &mut so.kernel.link.cpu.begin(engine.now());
            lease.charge(lease.model().context_switch);
            so.process.trap(lease);
            f(&so, &mut RaiseCtx { engine, lease });
        });
    }
}

/// The DIGITAL UNIX structure, the crossings listed above; datagrams and
/// frames go straight down, and no checksum is offloaded (the defaults).
impl Structure for BaselineShared {
    type Owner = Rc<Socket>;

    fn link(&self) -> &Interface {
        &self.link
    }

    /// `sendto(2)` or `write(2)`: trap, copyin, socket layer.
    fn enter_send(&self, so: &Rc<Socket>, lease: &mut CpuLease, len: usize) {
        so.process.trap(lease);
        so.process.copyin(lease, len);
        lease.charge(lease.model().socket_layer);
    }

    /// `close(2)`: a trap, and the socket layer when the process calls it
    /// outside a callback. From inside one it pays no socket layer, where a
    /// top-level close does: ROADMAP item 8.
    fn enter_close(&self, so: &Rc<Socket>, lease: &mut CpuLease, in_callback: bool) {
        so.process.trap(lease);
        if !in_callback {
            lease.charge(lease.model().socket_layer);
        }
    }

    /// Appends to the socket buffer and wakes the blocked reader. If a
    /// wakeup is already queued (the process has not run yet), the bytes
    /// ride along with it — one boundary crossing drains the whole buffer,
    /// like `soreceive` after a burst of segments.
    fn deliver(&self, ctx: &mut RaiseCtx<'_>, so: &Rc<Socket>, conn: &Rc<TcpConn>, data: &[u8]) {
        let lease = &mut *ctx.lease;
        lease.charge(lease.model().socket_layer);
        so.rcv.borrow_mut().extend_from_slice(data);
        if so.wakeup_queued.replace(true) {
            return;
        }
        lease.charge(lease.model().process_wakeup);
        let conn = conn.clone();
        so.in_process(ctx, move |so, ctx| {
            so.wakeup_queued.set(false);
            let data = std::mem::take(&mut *so.rcv.borrow_mut());
            if !data.is_empty() {
                so.process.copyout(ctx.lease, data.len());
                conn.upcall_data(ctx, &data);
            }
        });
    }

    /// Crosses into user space: socket layer and wakeup on the kernel side,
    /// then the process runs the callback.
    fn notify(&self, ctx: &mut RaiseCtx<'_>, so: &Rc<Socket>, conn: &Rc<TcpConn>, ev: ConnEvent) {
        let lease = &mut *ctx.lease;
        lease.charge(lease.model().socket_layer + lease.model().process_wakeup);
        let conn = conn.clone();
        so.in_process(ctx, move |_, ctx| conn.upcall(ctx, ev));
    }
}

/// A socket's receive handler: the same shape as a Plexus binding's.
type OnRecv = Box<dyn Fn(&mut RaiseCtx<'_>, &UdpRecv)>;

/// A user-process UDP socket on the monolithic stack.
pub struct UdpSocket {
    socket: Rc<Socket>,
    port: u16,
    config: UdpConfig,
    on_recv: OnRecv,
}

/// A DIGITAL UNIX port may always send.
impl Endpoint for UdpSocket {
    type Structure = BaselineShared;
    type Error = udp::DatagramTooLong;

    fn local(&self) -> (&Rc<BaselineShared>, &Rc<Socket>, u16, UdpConfig) {
        (&self.socket.kernel, &self.socket, self.port, self.config)
    }
}
