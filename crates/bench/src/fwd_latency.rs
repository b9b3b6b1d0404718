//! Figure 7's experiment: TCP redirection latency.
//!
//! A client talks TCP to a service address; a forwarder redirects the
//! traffic to a backend. Two forwarders are compared:
//!
//! * **Plexus**: an in-kernel graph node below the transport layer
//!   (direct-server-return); control packets forward too, so one TCP
//!   connection spans client↔backend.
//! * **DIGITAL UNIX**: the user-level socket splice — every byte makes two
//!   trips through the forwarder's protocol stack and is copied twice
//!   across its user/kernel boundary, and end-to-end semantics are broken.
//!
//! The measurement is the mean request/response round trip through the
//! forwarder for a small request, plus a no-forwarder direct baseline.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::forward::{forwarder_extension_spec, InKernelForwarder};
use plexus_baseline::{MonolithicStack, SocketCallbacks, UserSplice};
use plexus_core::{PlexusStack, StackConfig, TcpCallbacks};
use plexus_kernel::vm::AddressSpace;
use plexus_net::ether::MacAddr;
use plexus_sim::time::SimDuration;
use plexus_sim::World;

use crate::udp_rtt::Link;

/// The forwarding system measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FwdSystem {
    /// Plexus in-kernel redirection.
    Plexus,
    /// The DIGITAL UNIX user-level splice.
    DunixSplice,
    /// No forwarder: client talks straight to the backend (Plexus stacks),
    /// the floor any forwarder adds latency over.
    Direct,
}

impl FwdSystem {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            FwdSystem::Plexus => "Plexus (in-kernel)",
            FwdSystem::DunixSplice => "DIGITAL UNIX (user splice)",
            FwdSystem::Direct => "direct (no forwarder)",
        }
    }
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, last)
}

const CLIENT: u8 = 1;
const FWD: u8 = 2;
const BACKEND: u8 = 3;
const PORT: u16 = 8080;

struct EchoState {
    remaining: Cell<u32>,
    sent_at: Cell<u64>,
    rtts_ns: RefCell<Vec<u64>>,
}

impl EchoState {
    fn new(rounds: u32) -> Rc<EchoState> {
        Rc::new(EchoState {
            remaining: Cell::new(rounds),
            sent_at: Cell::new(0),
            rtts_ns: RefCell::new(Vec::new()),
        })
    }

    fn complete(&self, now: u64) -> bool {
        self.rtts_ns.borrow_mut().push(now - self.sent_at.get());
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        left > 0
    }

    fn mean_us(&self) -> f64 {
        let v = self.rtts_ns.borrow();
        assert!(!v.is_empty(), "no round trips completed");
        v.iter().sum::<u64>() as f64 / v.len() as f64 / 1000.0
    }
}

/// Measures the mean request/response latency (µs) for `payload`-byte
/// requests through the given forwarding configuration.
pub fn forwarding_rtt_us(system: FwdSystem, link: &Link, payload: usize, rounds: u32) -> f64 {
    match system {
        FwdSystem::Plexus => plexus_fwd(link, payload, rounds),
        FwdSystem::DunixSplice => splice_fwd(link, payload, rounds),
        FwdSystem::Direct => direct(link, payload, rounds),
    }
}

fn plexus_triple(
    world: &mut World,
    link: &Link,
) -> (Rc<PlexusStack>, Rc<PlexusStack>, Rc<PlexusStack>) {
    let mc = world.add_machine("client");
    let mf = world.add_machine("fwd");
    let mb = world.add_machine("backend");
    let (_m, nics) = world.connect(
        &[&mc, &mf, &mb],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let client = PlexusStack::attach(
        &mc,
        &nics[0],
        StackConfig::interrupt(ip(CLIENT), MacAddr::local(CLIENT)),
    );
    let fwd = PlexusStack::attach(
        &mf,
        &nics[1],
        StackConfig::interrupt(ip(FWD), MacAddr::local(FWD)),
    );
    let backend = PlexusStack::attach(
        &mb,
        &nics[2],
        StackConfig::interrupt(ip(BACKEND), MacAddr::local(BACKEND)),
    );
    for (a, b) in [(&client, &fwd), (&client, &backend), (&fwd, &backend)] {
        a.seed_arp(b.ip(), b.mac());
        b.seed_arp(a.ip(), a.mac());
    }
    (client, fwd, backend)
}

fn run_plexus_echo(
    world: &mut World,
    client: &Rc<PlexusStack>,
    backend: &Rc<PlexusStack>,
    target: Ipv4Addr,
    payload: usize,
    rounds: u32,
) -> f64 {
    let spec = forwarder_extension_spec("echo");
    let cext = client.link_extension(&spec).unwrap();
    let bext = backend.link_extension(&spec).unwrap();
    backend
        .tcp()
        .listen(&bext, PORT, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    conn.send_in(ctx, data);
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();

    let state = EchoState::new(rounds);
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (target, PORT))
        .unwrap();
    let st = state.clone();
    let req = vec![0x42u8; payload];
    let req2 = req.clone();
    let pending = Rc::new(Cell::new(0usize));
    let p2 = pending.clone();
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            st.sent_at.set(ctx.lease.now().as_nanos());
            conn.send_in(ctx, &req2);
        })),
        on_data: Some(Rc::new({
            let st = state.clone();
            move |ctx, conn, data| {
                // Wait for the whole response before scoring the round.
                p2.set(p2.get() + data.len());
                if p2.get() >= payload {
                    p2.set(0);
                    let now = ctx.lease.now().as_nanos();
                    if let Some(rec) = ctx.lease.recorder() {
                        let hist = rec.intern("fwd.rtt_ns");
                        // Completion sample for the windowed timeline,
                        // and a journey break so the next request's
                        // ledger starts fresh at this send.
                        rec.sample(now, hist, now - st.sent_at.get());
                        rec.journey_break();
                    }
                    if st.complete(now) {
                        st.sent_at.set(ctx.lease.now().as_nanos());
                        conn.send_in(ctx, &req);
                    }
                }
            }
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(120));
    assert_eq!(state.remaining.get(), 0, "echo rounds incomplete");
    state.mean_us()
}

fn plexus_fwd(link: &Link, payload: usize, rounds: u32) -> f64 {
    plexus_fwd_traced(link, payload, rounds, None)
}

/// The Plexus in-kernel forwarding scenario with a flight recorder
/// attached, so `plexus-trace` can attribute the forwarder's cycles.
/// Returns the mean round-trip in µs.
pub fn plexus_fwd_traced(
    link: &Link,
    payload: usize,
    rounds: u32,
    recorder: Option<&Rc<plexus_trace::Recorder>>,
) -> f64 {
    let mut world = World::new();
    let (client, fwd, backend) = plexus_triple(&mut world, link);
    if let Some(rec) = recorder {
        world.install_recorder(rec);
    }
    let fext = fwd
        .link_extension(&forwarder_extension_spec("fwd"))
        .unwrap();
    InKernelForwarder::tcp(&fwd, &fext, PORT, backend.ip()).unwrap();
    backend.add_ip_alias(fwd.ip());
    // The client connects to the FORWARDER's address.
    run_plexus_echo(&mut world, &client, &backend, ip(FWD), payload, rounds)
}

fn direct(link: &Link, payload: usize, rounds: u32) -> f64 {
    let mut world = World::new();
    let (client, _fwd, backend) = plexus_triple(&mut world, link);
    run_plexus_echo(&mut world, &client, &backend, ip(BACKEND), payload, rounds)
}

fn splice_fwd(link: &Link, payload: usize, rounds: u32) -> f64 {
    let mut world = World::new();
    let mc = world.add_machine("client");
    let mf = world.add_machine("fwd");
    let mb = world.add_machine("backend");
    let (_m, nics) = world.connect(
        &[&mc, &mf, &mb],
        link.profile.clone(),
        link.propagation,
        link.half_duplex,
    );
    let client = MonolithicStack::attach(&mc, &nics[0], ip(CLIENT), MacAddr::local(CLIENT));
    let fwd = MonolithicStack::attach(&mf, &nics[1], ip(FWD), MacAddr::local(FWD));
    let backend = MonolithicStack::attach(&mb, &nics[2], ip(BACKEND), MacAddr::local(BACKEND));
    for (a, b) in [(&client, &fwd), (&client, &backend), (&fwd, &backend)] {
        a.seed_arp(b.ip(), b.mac());
        b.seed_arp(a.ip(), a.mac());
    }

    let bproc = AddressSpace::new("backend");
    backend.tcp().listen(&bproc, PORT, |_, _, sock| {
        sock.set_callbacks(SocketCallbacks {
            on_data: Some(Rc::new(|eng, user, sock, data| {
                sock.send_in(eng, user, data);
            })),
            on_peer_close: Some(Rc::new(|eng, user, sock| sock.close_in(eng, user))),
            ..Default::default()
        });
    });

    let _splice = UserSplice::start(&fwd, world.engine_mut(), PORT, (ip(BACKEND), PORT));

    let cproc = AddressSpace::new("client");
    let state = EchoState::new(rounds);
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &cproc, (ip(FWD), PORT));
    let st = state.clone();
    let req = vec![0x42u8; payload];
    let req2 = req.clone();
    let pending = Rc::new(Cell::new(0usize));
    let p2 = pending.clone();
    conn.set_callbacks(SocketCallbacks {
        on_connected: Some(Rc::new(move |eng, user, sock| {
            st.sent_at.set(user.now().as_nanos());
            sock.send_in(eng, user, &req2);
        })),
        on_data: Some(Rc::new({
            let st = state.clone();
            move |eng, user, sock, data| {
                p2.set(p2.get() + data.len());
                if p2.get() >= payload {
                    p2.set(0);
                    let now = user.now().as_nanos();
                    if st.complete(now) {
                        st.sent_at.set(user.now().as_nanos());
                        sock.send_in(eng, user, &req);
                    }
                }
            }
        })),
        ..Default::default()
    });
    world.run_for(SimDuration::from_secs(120));
    assert_eq!(state.remaining.get(), 0, "echo rounds incomplete");
    state.mean_us()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_kernel_forwarding_beats_the_user_splice() {
        let link = Link::ethernet();
        let direct = forwarding_rtt_us(FwdSystem::Direct, &link, 64, 5);
        let plexus = forwarding_rtt_us(FwdSystem::Plexus, &link, 64, 5);
        let splice = forwarding_rtt_us(FwdSystem::DunixSplice, &link, 64, 5);
        assert!(
            direct < plexus && plexus < splice,
            "Figure 7 ordering: direct={direct:.0} plexus={plexus:.0} splice={splice:.0}"
        );
        // The splice pays two full stack traversals + four boundary
        // crossings per direction; expect a substantial multiple.
        assert!(
            splice > plexus * 1.5,
            "splice ({splice:.0} us) should cost well over in-kernel ({plexus:.0} us)"
        );
    }
}
