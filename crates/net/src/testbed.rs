//! One simulated LAN, declared instead of wired by hand.
//!
//! Every experiment of the paper (§4–§5) runs in the same world: a few
//! Alphas on one private Ethernet/ATM/T3 segment with a protocol stack
//! on each. A [`Testbed`] builds that world from a [`Link`] and the host
//! names and fixes the address plan in one place: host `k` — 1-based, in
//! the order named — is `10.0.<subnet>.<k>` with `MacAddr::local(k)`.
//!
//! Each [`Host`] carries what a stack attaches to (machine, NIC, its own
//! addresses) and the addresses of every other host on the segment. The
//! stacks' `attach_host` constructors (`PlexusStack::attach_host`,
//! `MonolithicStack::attach_host`) seed their ARP cache from that list,
//! so the ARP mesh is complete and symmetric whatever mix of stacks (or
//! bare NICs) the hosts run. [`Testbed::traced`] installs a flight
//! recorder on the engine, every CPU and every NIC.
//!
//! This is a convenience over [`World::connect`] and the stacks' `attach`,
//! which stay the primitives; routers and multi-NIC hosts use them
//! directly.
//!
//! ```
//! use plexus_net::Testbed;
//! use plexus_sim::nic::Link;
//!
//! let tb = Testbed::new(&Link::ethernet(), 7, &["client", "server"]);
//! assert_eq!(tb.hosts[1].ip.octets(), [10, 0, 7, 2]);
//! assert_eq!(tb.hosts[0].peers, [(tb.hosts[1].ip, tb.hosts[1].mac)]);
//! ```

use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_sim::nic::{Link, Medium, Nic};
use plexus_sim::{CostModel, Machine, World};
use plexus_trace::Recorder;

use crate::ether::MacAddr;

/// One machine on a [`Testbed`]'s segment, with its place in the address
/// plan.
pub struct Host {
    /// The simulated machine (CPU, devices).
    pub machine: Rc<Machine>,
    /// Its NIC on the segment.
    pub nic: Rc<Nic>,
    /// `10.0.<subnet>.<k>`.
    pub ip: Ipv4Addr,
    /// `MacAddr::local(k)`.
    pub mac: MacAddr,
    /// Every other host's addresses, in host order: what a stack attached
    /// here seeds its ARP cache with.
    pub peers: Vec<(Ipv4Addr, MacAddr)>,
}

/// A world of one LAN segment and the hosts on it.
pub struct Testbed {
    /// The engine and machines: schedule on it, run it.
    pub world: World,
    /// The shared segment (capture, fault injection).
    pub medium: Rc<Medium>,
    /// The hosts, in the order they were named.
    pub hosts: Vec<Host>,
}

impl Testbed {
    /// Hosts `names` on one `link` segment of subnet `10.0.<subnet>.0/24`,
    /// each an Alpha 3000/400.
    pub fn new(link: &Link, subnet: u8, names: &[&str]) -> Testbed {
        let alpha = CostModel::alpha_3000_400();
        let hosts: Vec<_> = names.iter().map(|&name| (name, alpha.clone())).collect();
        Testbed::with_models(link, subnet, &hosts)
    }

    /// [`Testbed::new`] with a cost model per host.
    pub fn with_models(link: &Link, subnet: u8, hosts: &[(&str, CostModel)]) -> Testbed {
        assert!(hosts.len() < 255, "a /24 holds 254 hosts");
        let mut world = World::new();
        let machines: Vec<Rc<Machine>> = hosts
            .iter()
            .map(|(name, model)| world.add_machine_with_model(name, model.clone()))
            .collect();
        let (medium, nics) = world.connect(
            &machines.iter().collect::<Vec<_>>(),
            link.profile.clone(),
            link.propagation,
            link.half_duplex,
        );
        let plan: Vec<(Ipv4Addr, MacAddr)> = (1..=hosts.len() as u8)
            .map(|k| (Ipv4Addr::new(10, 0, subnet, k), MacAddr::local(k)))
            .collect();
        let hosts = machines
            .into_iter()
            .zip(nics)
            .zip(&plan)
            .map(|((machine, nic), &(ip, mac))| Host {
                machine,
                nic,
                ip,
                mac,
                peers: plan.iter().copied().filter(|peer| peer.0 != ip).collect(),
            })
            .collect();
        Testbed {
            world,
            medium,
            hosts,
        }
    }

    /// Installs `recorder`, if there is one, across the whole world: the
    /// engine, every CPU and every NIC. Call it before anything attaches
    /// or runs.
    pub fn traced(mut self, recorder: Option<&Rc<Recorder>>) -> Testbed {
        if let Some(recorder) = recorder {
            self.world.install_recorder(recorder);
        }
        self
    }
}
