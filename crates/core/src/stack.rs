//! The Plexus protocol graph on one machine (Figure 1).
//!
//! [`PlexusStack::attach`] builds the kernel-resident graph over a
//! simulated machine and NIC:
//!
//! ```text
//!             device rx interrupt
//!                    |
//!            Ethernet.PacketRecv          (event)
//!             /        |        \
//!        [type=ARP] [type=IP] [type=X]    (guards)
//!           ARP        IP      app ext    (handlers)
//!                       |
//!                 Ip.PacketRecv           (event)
//!               /       |       \
//!        [proto=ICMP][proto=UDP][proto=TCP]
//!           ICMP       UDP        TCP
//!                       |          |
//!               Udp.PacketRecv  Tcp.PacketRecv
//!                /      \            \
//!          [port=a]  [port=b]     [4-tuple]
//!           app A     app B       connection
//! ```
//!
//! Packets go *up* through `PacketRecv` events and *down* through
//! `PacketSend` events; every hop is a dispatcher raise whose guard/handler
//! costs are charged to the CPU, and the whole receive path runs either at
//! interrupt level (ephemeral handlers) or in per-event threads, per
//! [`DispatchMode`] — the two Plexus bars of Figure 5.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_filter::{Field, FieldKey, Policy, PortSet};
use plexus_kernel::dispatcher::{Dispatcher, Event, EventBatch, Guard, HandlerId, RaiseCtx};
use plexus_kernel::domain::{Domain, ExtensionSpec, LinkedExtension};
use plexus_sim::nic::{DriverConfig, Nic};
use plexus_sim::time::SimDuration;
use plexus_sim::{CpuLease, Engine, Loss, Machine};

use plexus_net::ether::{self, EtherType, Frame, MacAddr, ETHER_HDR_LEN};
use plexus_net::ip::{self, RouteTable};
use plexus_net::link::{Interface, LinkStats, Structure};
use plexus_net::mbuf::Mbuf;
use plexus_net::testbed::Host;

use crate::guards;
use crate::tcp_manager::TcpManager;
use crate::types::{
    mac_to_u64, AppHandler, DispatchMode, EthRecv, IpRecv, IpSendReq, PlexusError, TcpRecv, UdpRecv,
};
use crate::udp_manager::UdpManager;

/// Configuration for one stack instance.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// This host's IP address.
    pub ip: Ipv4Addr,
    /// This host's MAC address.
    pub mac: MacAddr,
    /// Receive-path delivery mode (Figure 5's interrupt vs. thread bars).
    pub mode: DispatchMode,
    /// Optional per-handler time limit for interrupt-level extension
    /// handlers (§3.3's termination allotment).
    pub ext_time_limit: Option<SimDuration>,
    /// Where sends go: the attached /24, plus a default route once
    /// [`StackConfig::with_gateway`] names one (see
    /// [`crate::router::IpRouter`]).
    pub routes: RouteTable,
    /// Use the NIC's batched receive path (rx ring + interrupt
    /// coalescing) instead of one interrupt per frame. Off by default:
    /// the per-frame path is the paper's configuration and the one the
    /// latency goldens pin.
    pub coalesce: bool,
    /// Submit transmits through the NIC's doorbell-batching tier
    /// ([`plexus_sim::nic::TxSubmit::Doorbell`]): while the adapter is
    /// draining, follow-on frames share one fixed driver charge. Off by
    /// default (one doorbell per frame — the historical cost model the
    /// latency goldens pin).
    pub tx_doorbell: bool,
}

impl StackConfig {
    /// Interrupt-mode stack for `ip`/`mac`.
    pub fn interrupt(ip: Ipv4Addr, mac: MacAddr) -> StackConfig {
        StackConfig {
            ip,
            mac,
            mode: DispatchMode::Interrupt,
            ext_time_limit: None,
            routes: RouteTable::host(ip, 24),
            coalesce: false,
            tx_doorbell: false,
        }
    }

    /// Sends off-subnet destinations via `gateway`.
    pub fn with_gateway(mut self, gateway: Ipv4Addr) -> StackConfig {
        self.routes.set_default(gateway);
        self
    }

    /// Enables the batched receive path (rx ring + interrupt coalescing).
    pub fn coalesced(mut self) -> StackConfig {
        self.coalesce = true;
        self
    }

    /// Enables doorbell-batched transmit submission.
    pub fn doorbell_tx(mut self) -> StackConfig {
        self.tx_doorbell = true;
        self
    }

    /// Thread-mode stack for `ip`/`mac`.
    pub fn thread(ip: Ipv4Addr, mac: MacAddr) -> StackConfig {
        StackConfig {
            mode: DispatchMode::Thread,
            ..StackConfig::interrupt(ip, mac)
        }
    }
}

/// Counters the stack keeps (beyond the dispatcher's own): the driver
/// glue's, then its [`Interface`]'s. The losses among them are read from
/// the machine's CPU, which counts every [`Loss`] once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Frames delivered to `Ethernet.PacketRecv`.
    pub eth_rx: u64,
    /// Frames dropped by the MAC filter ([`Loss::MacFilter`]).
    pub eth_filtered: u64,
    /// Datagrams delivered to `Ip.PacketRecv`.
    pub ip_rx: u64,
    /// IP datagrams dropped: [`Loss::IpBadHeader`] and
    /// [`Loss::NotLocal`].
    pub ip_dropped: u64,
    /// Datagrams sent through `Ip.PacketSend`.
    pub ip_tx: u64,
    /// ICMP echo requests answered.
    pub icmp_echoes: u64,
    /// ARP requests answered.
    pub arp_replies: u64,
    /// Sends queued waiting on ARP resolution.
    pub arp_queued: u64,
    /// Sends dropped: no route to the destination ([`Loss::NoRoute`]).
    pub no_route: u64,
    /// ARP resolutions abandoned after retries; their parked packets were
    /// dropped.
    pub arp_failures: u64,
}

/// The events of the protocol graph (all capabilities are held privately by
/// the stack and its managers; extensions never see them — §3.1).
pub(crate) struct StackEvents {
    pub(crate) eth_recv: Event<EthRecv>,
    pub(crate) eth_send: Event<Frame>,
    pub(crate) ip_recv: Event<IpRecv>,
    pub(crate) ip_send: Event<IpSendReq>,
    pub(crate) udp_recv: Event<UdpRecv>,
    pub(crate) tcp_recv: Event<TcpRecv>,
}

/// Owner names the stack's own layers run under; the extension domain
/// keeps them, so no extension takes one (the recorder bills handler time
/// per owner).
const KERNEL_OWNERS: [&str; 6] = ["kernel", "arp", "ip", "icmp", "udp", "tcp"];

/// Where an extension's handler sits and which ports it claims there —
/// the whole of what [`StackShared::release`] needs to give it back.
pub(crate) enum Hold {
    /// On `Ethernet.PacketRecv`; no port.
    Ether,
    /// On `Udp.PacketRecv`, above the standard UDP node: this UDP port.
    Udp(u16),
    /// On `Ip.PacketRecv`, beside the standard UDP node, whose guard
    /// excludes this UDP port (a special implementation or a redirector).
    UdpSpecial(u16),
    /// On `Tcp.PacketRecv`, above the standard TCP node: a listener on
    /// this TCP port.
    Listen(u16),
    /// On `Ip.PacketRecv`, beside the standard TCP node, whose guard
    /// excludes these TCP ports.
    TcpSpecial(Vec<u16>),
}

/// One transport's ports as extensions hold them.
#[derive(Default)]
pub(crate) struct PortTable {
    /// Every held port, and the handler holding it, by port. Lists, here
    /// and in [`StackShared`]'s `held`, rather than maps: binding and
    /// closing beside many held ports then allocates only when more are
    /// held than ever before, where a tree takes a node every few binds
    /// and a hash table's deleted slots make it grow again at a moment
    /// nothing picks.
    holders: RefCell<Vec<(u16, HandlerId)>>,
    /// Of those, the ports claimed beside the standard node. The set is
    /// shared with that node's guard *program* (via `JInSet`), so a claim
    /// takes effect without reinstalling the node.
    pub(crate) special: PortSet,
}

impl PortTable {
    /// The handler holding `port`, if an extension does.
    pub(crate) fn holder(&self, port: u16) -> Option<HandlerId> {
        let holders = self.holders.borrow();
        let at = holders.binary_search_by_key(&port, |&(p, _)| p).ok()?;
        Some(holders[at].1)
    }
}

/// Shared stack state, reachable from every installed handler: Plexus's
/// [`Structure`]. (Public only so that the endpoints and connections which
/// name it as theirs can be; nothing outside the crate can name it.)
pub struct StackShared {
    /// The NIC, addresses and L2/L3 state; the ARP, IP and ICMP nodes and
    /// both `PacketSend` handlers run its one path.
    pub(crate) link: Interface,
    pub(crate) dispatcher: Rc<Dispatcher>,
    pub(crate) mode: DispatchMode,
    pub(crate) ext_time_limit: Option<SimDuration>,
    pub(crate) events: StackEvents,
    /// The driver glue's count of frames accepted; [`PlexusStack::stats`]
    /// adds the interface's and the CPU's losses.
    eth_rx: Cell<u64>,
    ext_domain: Domain,
    /// What the extensions hold, by handler (so in install order): which
    /// handler, who, and what. Written by [`StackShared::install_held`]
    /// alone and read back by [`StackShared::release`] alone, whether the
    /// extension lets go of one install or unloads with all of them
    /// (runtime adaptation: extensions "come and go with their
    /// corresponding applications").
    held: RefCell<Vec<(HandlerId, LinkedExtension, Hold)>>,
    /// How many holdings have been given back. While it stands still no
    /// record has gone, so an endpoint need not look its own up again on
    /// every send ([`StackShared::still_holds`]).
    releases: Cell<u64>,
    pub(crate) udp_ports: PortTable,
    pub(crate) tcp_ports: PortTable,
}

impl StackShared {
    /// Installs a protocol-layer handler per the stack's dispatch mode.
    /// `owner` names the protection domain the handler runs for, so the
    /// flight recorder can attribute work per-domain.
    pub(crate) fn install_layer<T, F>(
        &self,
        event: Event<T>,
        guard: Guard<T>,
        handler: F,
        owner: &'static str,
    ) -> HandlerId
    where
        T: 'static,
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        let AppHandler(spec) = self.per_mode(handler);
        self.dispatcher
            .install(event, spec.guard(guard).owner(owner))
    }

    /// Installs a send-path handler. The send path is always a direct
    /// call chain (the caller's thread carries the packet down); Figure 5's
    /// thread cost is a *receive*-delivery phenomenon, where each raised
    /// `PacketRecv` event creates a new thread.
    pub(crate) fn install_send<T, F>(&self, event: Event<T>, handler: F) -> HandlerId
    where
        T: 'static,
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        let AppHandler(spec) = AppHandler::interrupt(handler);
        self.dispatcher.install(event, spec)
    }

    /// Kernel-written code (a protocol layer; a redirector or a listener
    /// that runs for an extension), delivered per the stack's dispatch
    /// mode — the one place a [`DispatchMode`] becomes a handler's class.
    pub(crate) fn per_mode<T, F>(&self, f: F) -> AppHandler<T>
    where
        F: Fn(&mut RaiseCtx<'_>, &T) + 'static,
    {
        match self.mode {
            DispatchMode::Interrupt => AppHandler::interrupt(f),
            DispatchMode::Thread => AppHandler::thread(f),
        }
    }

    /// The port table `hold` claims in, the ports, and whether the
    /// standard node's guard must exclude them.
    fn claim<'a>(&'a self, hold: &'a Hold) -> Option<(&'a PortTable, &'a [u16], bool)> {
        use std::slice::from_ref;
        match hold {
            Hold::Ether => None,
            Hold::Udp(port) => Some((&self.udp_ports, from_ref(port), false)),
            Hold::UdpSpecial(port) => Some((&self.udp_ports, from_ref(port), true)),
            Hold::Listen(port) => Some((&self.tcp_ports, from_ref(port), false)),
            Hold::TcpSpecial(ports) => Some((&self.tcp_ports, ports, true)),
        }
    }

    /// Installs the guarded handler `build` makes on `event` for extension
    /// `ext` and writes down what it holds — the one way a handler comes
    /// to be owned by an extension, so nothing an extension holds is
    /// missing from `held`. `hold` names `event` and the ports claimed; a
    /// port some extension holds already refuses the install before
    /// `build` runs, so a refusal verifies no guard and allocates nothing;
    /// so does a token this stack's domain does not hold. The handler keeps
    /// the class it was made with; at interrupt level it runs under
    /// `ext_time_limit`.
    pub(crate) fn install_held<T: 'static>(
        &self,
        ext: &LinkedExtension,
        event: Event<T>,
        hold: Hold,
        build: impl FnOnce() -> (Guard<T>, AppHandler<T>),
    ) -> Result<HandlerId, PlexusError> {
        self.check_token(ext)?;
        let claim = self.claim(&hold);
        if let Some((table, ports, _)) = claim {
            if let Some(taken) = ports.iter().find(|p| table.holder(**p).is_some()) {
                return Err(PlexusError::PortInUse(*taken));
            }
        }
        let (guard, AppHandler(spec)) = build();
        let spec = spec.allot(self.ext_time_limit);
        let id = self.dispatcher.install(event, spec.guard(guard).owner(ext));
        if let Some((table, ports, special)) = claim {
            let mut holders = table.holders.borrow_mut();
            for port in ports {
                match holders.binary_search_by_key(port, |&(p, _)| p) {
                    Ok(at) => holders[at].1 = id,
                    Err(at) => holders.insert(at, (*port, id)),
                }
                if special {
                    table.special.insert(*port);
                }
            }
        }
        // Ids only grow, so the list stays in id order.
        self.held.borrow_mut().push((id, ext.clone(), hold));
        Ok(id)
    }

    /// Refuses a token minted by another stack, or kept past its unload,
    /// as [`PlexusError::Revoked`]: unload and accounting go by name, so a
    /// token acts only where its name is linked to it.
    pub(crate) fn check_token(&self, ext: &LinkedExtension) -> Result<(), PlexusError> {
        if self.ext_domain.holds(ext) {
            Ok(())
        } else {
            Err(PlexusError::Revoked)
        }
    }

    /// Gives back what handler `id` holds, if `admit` passes its record:
    /// uninstalls it from its event and frees its ports. `false` when no
    /// extension holds `id` (any more).
    pub(crate) fn release(&self, id: HandlerId, admit: fn(&Hold) -> bool) -> bool {
        let mut held = self.held.borrow_mut();
        let Ok(at) = held.binary_search_by_key(&id, |&(id, ..)| id) else {
            return false;
        };
        if !admit(&held[at].2) {
            return false;
        }
        let (.., hold) = held.remove(at);
        drop(held);
        self.releases.set(self.releases.get() + 1);
        let (d, ev) = (&self.dispatcher, &self.events);
        match hold {
            Hold::Ether => d.uninstall(ev.eth_recv, id),
            Hold::Udp(_) => d.uninstall(ev.udp_recv, id),
            Hold::Listen(_) => d.uninstall(ev.tcp_recv, id),
            Hold::UdpSpecial(_) | Hold::TcpSpecial(_) => d.uninstall(ev.ip_recv, id),
        };
        if let Some((table, ports, _)) = self.claim(&hold) {
            let mut holders = table.holders.borrow_mut();
            for port in ports {
                if let Ok(at) = holders.binary_search_by_key(port, |&(p, _)| p) {
                    holders.remove(at);
                }
                table.special.remove(*port);
            }
        }
        true
    }

    /// Whether an extension still holds handler `id`. `seen` is the
    /// caller's note of the release count at which that was last true:
    /// the record is looked up only if something was released since.
    pub(crate) fn still_holds(&self, id: HandlerId, seen: &Cell<u64>) -> bool {
        let releases = self.releases.get();
        let held = seen.get() == releases
            || (self.held.borrow())
                .binary_search_by_key(&id, |&(id, ..)| id)
                .is_ok();
        if held {
            seen.set(releases);
        }
        held
    }

    /// One received frame, on the interrupt's lease: pay `rx_cost`, apply
    /// the MAC filter, raise `Ethernet.PacketRecv` through `batch`. `stamp`
    /// is the frame's journey when this glue must stamp the packet ID
    /// itself — in coalesced mode the NIC cannot, since
    /// only the glue knows when each frame's CPU work begins inside the
    /// drained interrupt.
    fn rx_frame(
        &self,
        engine: &mut Engine,
        lease: &mut CpuLease,
        batch: &mut EventBatch<'_, EthRecv>,
        frame: &[u8],
        rx_cost: SimDuration,
        stamp: Option<Option<u64>>,
    ) {
        let stamped = stamp.and_then(|journey| {
            let rec = lease.recorder_handle()?;
            let at = lease.now().as_nanos();
            self.link.nic.record_arrival(&rec, at, frame.len(), journey);
            Some(rec)
        });
        lease.charge(rx_cost);
        if ether::accept(frame, self.link.mac()).is_some() {
            self.eth_rx.set(self.eth_rx.get() + 1);
            let mut mbuf = Mbuf::from_wire(frame);
            mbuf.pkthdr_mut().rcvif = Some(0);
            mbuf.pkthdr_mut().packet_id = lease.recorder().and_then(|r| r.current_packet());
            mbuf.pkthdr_mut().journey_id = lease.recorder().and_then(|r| r.current_journey());
            let outcome = batch.raise(&mut RaiseCtx { engine, lease }, &EthRecv { mbuf });
            if outcome.invoked == 0 {
                lease.lose(Loss::UnknownEthertype);
            }
        } else {
            lease.lose(Loss::MacFilter);
        }
        if let Some(rec) = stamped {
            rec.packet_done();
        }
    }
}

/// Plexus's structure: datagrams and frames go down as raises, and
/// applications run in the kernel, so entry is free and delivery direct.
impl Structure for StackShared {
    type Owner = ();

    fn link(&self) -> &Interface {
        &self.link
    }

    /// Whenever the adapter offers it
    /// ([`plexus_sim::nic::NicProfile::checksum_offload`]).
    fn csum_offload(&self) -> bool {
        self.link.nic.profile().checksum_offload
    }

    fn send_ip(
        self: &Rc<Self>,
        ctx: &mut RaiseCtx<'_>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        payload: Mbuf,
    ) {
        let req = IpSendReq {
            src,
            dst,
            protocol,
            payload,
        };
        self.dispatcher.raise(ctx, self.events.ip_send, &req);
    }

    fn send_frame(&self, ctx: &mut RaiseCtx<'_>, frame: &Frame) {
        self.dispatcher.raise(ctx, self.events.eth_send, frame);
    }
}

/// A Plexus protocol stack bound to one machine + NIC.
pub struct PlexusStack {
    machine: Rc<Machine>,
    shared: Rc<StackShared>,
    udp: Rc<UdpManager>,
    tcp: Rc<TcpManager>,
}

impl PlexusStack {
    /// Builds the graph of Figure 1 over `machine`'s NIC `nic`.
    pub fn attach(machine: &Rc<Machine>, nic: &Rc<Nic>, config: StackConfig) -> Rc<PlexusStack> {
        let dispatcher = Dispatcher::new();
        let events = StackEvents {
            eth_recv: dispatcher.define_event("Ethernet.PacketRecv"),
            eth_send: dispatcher.define_event("Ethernet.PacketSend"),
            ip_recv: dispatcher.define_event("Ip.PacketRecv"),
            ip_send: dispatcher.define_event("Ip.PacketSend"),
            udp_recv: dispatcher.define_event("Udp.PacketRecv"),
            tcp_recv: dispatcher.define_event("Tcp.PacketRecv"),
        };

        // The logical protection domain applications link against: the
        // public manager interfaces only. Internal events/symbols (VM,
        // device, dispatcher internals) are *not* here, so an extension
        // importing them is rejected at link time (§2).
        let ext_domain = Domain::new(&KERNEL_OWNERS);
        ext_domain.add_interface("Mbuf", &["Alloc", "Free", "Prepend", "Adj"]);
        ext_domain.add_interface("Ethernet", &["Attach", "Detach", "Send"]);
        ext_domain.add_interface("UDP", &["Bind", "Unbind", "Send", "Redirect"]);
        ext_domain.add_interface("TCP", &["Listen", "Connect", "Send", "Close", "Redirect"]);
        ext_domain.add_interface("ICMP", &["Ping"]);

        let link = Interface::new(machine.cpu(), nic, config.ip, config.mac);
        link.set_routes(config.routes);
        let shared = Rc::new(StackShared {
            link,
            dispatcher: dispatcher.clone(),
            mode: config.mode,
            ext_time_limit: config.ext_time_limit,
            events,
            eth_rx: Cell::new(0),
            ext_domain,
            held: RefCell::default(),
            releases: Cell::new(0),
            udp_ports: PortTable::default(),
            tcp_ports: PortTable::default(),
        });

        let driver = if config.coalesce {
            Self::driver_glue_coalesced(&shared)
        } else {
            Self::driver_glue(&shared)
        };
        nic.attach(if config.tx_doorbell {
            driver.doorbell()
        } else {
            driver
        });
        Self::install_l2_l3(&shared);
        let udp = UdpManager::install(&shared);
        let tcp = TcpManager::install(&shared);

        Rc::new(PlexusStack {
            machine: machine.clone(),
            shared,
            udp,
            tcp,
        })
    }

    /// [`PlexusStack::attach`] on a [`plexus_net::Testbed`] host: `config`
    /// builds the configuration from the host's addresses
    /// ([`StackConfig::interrupt`], [`StackConfig::thread`], or a closure
    /// refining one), and the ARP cache is seeded with every other host
    /// on the segment.
    pub fn attach_host(
        host: &Host,
        config: impl FnOnce(Ipv4Addr, MacAddr) -> StackConfig,
    ) -> Rc<PlexusStack> {
        let stack = PlexusStack::attach(&host.machine, &host.nic, config(host.ip, host.mac));
        for &(ip, mac) in &host.peers {
            stack.seed_arp(ip, mac);
        }
        stack
    }

    /// The device receive interrupt: charge driver + interrupt costs, then
    /// [`StackShared::rx_frame`]. Returns the driver binding for
    /// [`plexus_sim::nic::Nic::attach`].
    fn driver_glue(shared: &Rc<StackShared>) -> DriverConfig {
        let s = shared.clone();
        DriverConfig::per_frame(move |engine, frame| {
            let mut lease = s.link.cpu.begin(engine.now());
            lease.charge(lease.model().interrupt_entry);
            let rx_cost = s.link.nic.profile().rx_cpu_cost(frame.len());
            let mut batch = s.dispatcher.batch(s.events.eth_recv);
            s.rx_frame(engine, &mut lease, &mut batch, frame, rx_cost, None);
            lease.charge(lease.model().interrupt_exit);
        })
    }

    /// The coalesced device receive interrupt: one `interrupt_entry` /
    /// `interrupt_exit` pair covers the whole drained batch, the first
    /// frame pays the full driver cost and later frames only the
    /// amortized `rx_per_frame`, and `Ethernet.PacketRecv` is raised
    /// through one warm [`EventBatch`]. Each frame still gets its own
    /// packet ID, MAC-filter verdict, and trace records — batching
    /// amortizes fixed costs, never dispatch semantics.
    fn driver_glue_coalesced(shared: &Rc<StackShared>) -> DriverConfig {
        let s = shared.clone();
        DriverConfig::coalesced(move |engine, frames| {
            let mut lease = s.link.cpu.begin(engine.now());
            lease.charge(lease.model().interrupt_entry);
            let mut batch = s.dispatcher.batch(s.events.eth_recv);
            for (i, frame) in frames.iter().enumerate() {
                let rx_cost = (s.link.nic)
                    .profile()
                    .rx_cpu_cost_coalesced(frame.bytes.len(), i == 0);
                let stamp = Some(frame.journey);
                s.rx_frame(engine, &mut lease, &mut batch, &frame.bytes, rx_cost, stamp);
            }
            lease.charge(lease.model().interrupt_exit);
            lease.now()
        })
    }

    /// The graph's link and IP nodes over [`Interface`]'s one path:
    /// `Ethernet.PacketSend` is link tx; ARP and IP are guarded nodes on
    /// `Ethernet.PacketRecv` and ICMP one on `Ip.PacketRecv`;
    /// `Ip.PacketSend` is IP output. The IP node charges no `eth_proc`
    /// (the ARP node does): ROADMAP item 8.
    fn install_l2_l3(shared: &Rc<StackShared>) {
        let ether_guard = |ethertype| {
            Guard::verified(guards::build_bounded(
                guards::ether_type_program(ethertype, None),
                &Policy::new(),
                guards::ETHER_GUARD_CYCLES,
            ))
        };
        let (s, events) = (shared.clone(), &shared.events);
        let tx = move |ctx: &mut RaiseCtx<'_>, frame: &Frame| s.link.transmit(ctx, frame);
        shared.install_send(events.eth_send, tx);

        let s = shared.clone();
        let arp = move |ctx: &mut RaiseCtx<'_>, ev: &EthRecv| {
            ctx.lease.charge(ctx.lease.model().eth_proc);
            s.arp_input(ctx, &ev.mbuf.to_vec()[ETHER_HDR_LEN..]);
        };
        shared.install_layer(events.eth_recv, ether_guard(EtherType::ARP), arp, "arp");

        let s = shared.clone();
        let ip = move |ctx: &mut RaiseCtx<'_>, ev: &EthRecv| {
            let mut pkt = ev.mbuf.share();
            pkt.trim_front(ETHER_HDR_LEN);
            if let Some((header, payload)) = s.link.ip_input(ctx.lease, &pkt) {
                let arg = IpRecv {
                    src: header.src,
                    dst: header.dst,
                    protocol: header.protocol,
                    payload,
                    header,
                };
                if s.dispatcher.raise(ctx, s.events.ip_recv, &arg).invoked == 0 {
                    ctx.lease.lose(Loss::UnknownProtocol);
                }
            }
        };
        shared.install_layer(events.eth_recv, ether_guard(EtherType::IPV4), ip, "ip");
        let s = shared.clone();
        shared.install_send(events.ip_send, move |ctx, req: &IpSendReq| {
            s.ip_output(ctx, req.src, req.dst, req.protocol, &req.payload);
        });

        let s = shared.clone();
        let icmp_guard = Guard::verified(guards::build_bounded(
            guards::transport_over_ip(ip::proto::ICMP, None, None, vec![]),
            &Policy::new(),
            guards::TRANSPORT_GUARD_CYCLES,
        ));
        let icmp = move |ctx: &mut RaiseCtx<'_>, ev: &IpRecv| {
            let bytes = ev.payload.to_vec();
            ctx.lease.charge(ctx.lease.model().checksum(bytes.len()));
            s.echo(ctx, ev.src, &bytes);
        };
        shared.install_layer(events.ip_recv, icmp_guard, icmp, "icmp");
    }

    /// The machine this stack runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.machine
    }

    /// This stack's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.shared.link.ip()
    }

    /// This stack's MAC address.
    pub fn mac(&self) -> MacAddr {
        self.shared.link.mac()
    }

    /// The stack's dispatcher (for inspection in tests/benches).
    pub fn dispatcher(&self) -> &Rc<Dispatcher> {
        &self.shared.dispatcher
    }

    /// Stack counters.
    pub fn stats(&self) -> StackStats {
        let l = self.shared.link.stats();
        let lost = |loss| self.shared.link.cpu.lost(loss);
        StackStats {
            eth_rx: self.shared.eth_rx.get(),
            eth_filtered: lost(Loss::MacFilter),
            ip_rx: l.ip_rx,
            ip_dropped: lost(Loss::IpBadHeader) + lost(Loss::NotLocal),
            ip_tx: l.ip_tx,
            icmp_echoes: l.icmp_echoes,
            arp_replies: l.arp_replies,
            arp_queued: l.arp_queued,
            no_route: lost(Loss::NoRoute),
            arp_failures: l.arp_failures,
        }
    }

    /// The interface's own counters, with the fragments IP input holds
    /// (`ip_held`), which [`StackStats`] does not carry.
    pub fn link_stats(&self) -> LinkStats {
        self.shared.link.stats()
    }

    /// Renders the live protocol graph — Figure 1 as the kernel actually
    /// sees it: one line per event, with the number of handler nodes and
    /// how many hang off guards (packet filters).
    pub fn graph_description(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "protocol graph on {} ({}):\n",
            self.shared.link.ip(),
            self.shared.link.mac()
        ));
        for ev in self.shared.dispatcher.event_summary() {
            out.push_str(&format!(
                "  {:<22} {} handler(s), {} guarded\n",
                ev.name, ev.handlers, ev.guarded
            ));
        }
        out
    }

    /// The UDP protocol manager.
    pub fn udp(&self) -> &Rc<UdpManager> {
        &self.udp
    }

    /// The TCP protocol manager.
    pub fn tcp(&self) -> &Rc<TcpManager> {
        &self.tcp
    }

    /// Dynamically links an application extension against the public
    /// extension domain. Fails — rejecting the extension — if it imports
    /// any symbol outside that domain (§2), or goes by a name that a
    /// linked extension, an interface or one of the stack's own layers
    /// already has.
    pub fn link_extension(&self, spec: &ExtensionSpec) -> Result<LinkedExtension, PlexusError> {
        Ok(self.shared.ext_domain.link(spec)?)
    }

    /// Unloads an extension completely: everything it still holds — UDP
    /// endpoints (standard and special), UDP and TCP redirectors, TCP
    /// listeners and special-port claims, raw Ethernet handlers — is
    /// released in install order, and its symbols are unlinked: the full
    /// "extensions come and go with their corresponding applications"
    /// lifecycle. Returns whether the extension was linked.
    ///
    /// TCP *connections* opened or accepted for the extension are the
    /// kernel's and outlive it, as they outlive
    /// [`TcpManager::unlisten`](crate::TcpManager::unlisten); aborting
    /// them is ROADMAP item 7.
    pub fn unload_extension(&self, name: &str) -> bool {
        let mine: Vec<HandlerId> = self
            .shared
            .held
            .borrow()
            .iter()
            .filter(|(_, ext, _)| ext.name() == name)
            .map(|(id, ..)| *id)
            .collect();
        for id in mine {
            self.shared.release(id, |_| true);
        }
        self.shared.ext_domain.unlink(name)
    }

    /// Attaches a raw Ethernet extension (e.g. active messages, §3.3) for
    /// frames of `ethertype` addressed to this host. The *manager* builds
    /// the guard, so the extension cannot widen it to snoop other traffic;
    /// claiming the IP or ARP types is refused outright.
    pub fn attach_ether(
        &self,
        ext: &LinkedExtension,
        ethertype: EtherType,
        handler: AppHandler<EthRecv>,
    ) -> Result<HandlerId, PlexusError> {
        if ethertype == EtherType::IPV4 || ethertype == EtherType::ARP {
            return Err(PlexusError::SnoopDenied(
                "EtherType belongs to the system protocol stack",
            ));
        }
        let my_mac = self.shared.link.mac();
        // The guard is manager-built *and* policy-checked: the verifier
        // proves it only accepts the claimed EtherType addressed to this
        // host, so the extension provably cannot snoop (§3.1).
        let policy = Policy::new()
            .require_eq(FieldKey::Field(Field::EthType), u64::from(ethertype.0))
            .require_in(
                FieldKey::Field(Field::EthDst),
                [mac_to_u64(my_mac), mac_to_u64(MacAddr::BROADCAST)],
            );
        let guard = Guard::verified(guards::build_bounded(
            guards::ether_type_program(ethertype, Some(my_mac)),
            &policy,
            guards::ETHER_GUARD_CYCLES,
        ));
        let events = &self.shared.events;
        (self.shared).install_held(ext, events.eth_recv, Hold::Ether, || (guard, handler))
    }

    /// Detaches a raw Ethernet extension (runtime adaptation: extensions
    /// "come and go with their corresponding applications").
    pub fn detach_ether(&self, id: HandlerId) -> bool {
        self.shared.release(id, |hold| matches!(hold, Hold::Ether))
    }

    /// Sends a raw Ethernet frame on behalf of an extension. The manager
    /// refuses the system EtherTypes, so extensions cannot inject forged
    /// IP/ARP traffic (link-level anti-spoofing).
    pub fn send_ether(
        &self,
        engine: &mut Engine,
        dst: MacAddr,
        ethertype: EtherType,
        payload: &[u8],
    ) -> Result<(), PlexusError> {
        let mut lease = self.shared.link.cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        self.send_ether_in(&mut ctx, dst, ethertype, payload)
    }

    /// [`PlexusStack::send_ether`] from inside an event handler (continues
    /// on the caller's CPU lease) — e.g. an active-message acknowledgement
    /// sent from the interrupt-level handler itself (§3.3).
    pub fn send_ether_in(
        &self,
        ctx: &mut RaiseCtx<'_>,
        dst: MacAddr,
        ethertype: EtherType,
        payload: &[u8],
    ) -> Result<(), PlexusError> {
        if ethertype == EtherType::IPV4 || ethertype == EtherType::ARP {
            return Err(PlexusError::SnoopDenied(
                "EtherType belongs to the system protocol stack",
            ));
        }
        let frame = Frame {
            dst,
            ethertype,
            packet: Mbuf::from_payload(ETHER_HDR_LEN, payload),
        };
        self.shared.send_frame(ctx, &frame);
        Ok(())
    }

    /// Sends a raw transport-layer packet over IP from inside a handler —
    /// the send path for *special protocol implementations* (§3.1's
    /// TCP-special and kin) that build their own transport headers. The
    /// source address is stamped with this host's own (the managers'
    /// Overwrite anti-spoofing policy applies here too).
    pub fn send_raw_ip(&self, ctx: &mut RaiseCtx<'_>, dst: Ipv4Addr, protocol: u8, payload: Mbuf) {
        (self.shared).send_ip(ctx, self.shared.link.ip(), dst, protocol, payload);
    }

    /// Sends an ICMP echo request (used by examples/tests).
    pub fn ping(&self, engine: &mut Engine, dst: Ipv4Addr, ident: u16, seq: u16, data: &[u8]) {
        self.shared.ping(engine, dst, ident, seq, data);
    }

    /// Pre-seeds the ARP cache (lets latency benches measure steady-state
    /// round trips, as the paper's do).
    pub fn seed_arp(&self, ip: Ipv4Addr, mac: MacAddr) {
        self.shared.link.seed_arp(ip, mac);
    }

    /// Adds a local IP alias (privileged): the stack accepts datagrams for
    /// `ip` as its own. Used by a redirection target to take over the
    /// forwarder's address (§5.2) while preserving end-to-end semantics.
    pub fn add_ip_alias(&self, ip: Ipv4Addr) {
        self.shared.link.add_alias(ip);
    }
}
