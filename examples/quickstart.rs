//! Quickstart: two simulated Alphas on an Ethernet, a Plexus stack on
//! each, and an application-specific UDP echo protocol installed into the
//! server's kernel at runtime.
//!
//! Run with `cargo run --example quickstart`.

use std::cell::{Cell, OnceCell};
use std::rc::Rc;

use plexus::core::{AppHandler, PlexusStack, StackConfig, UdpEndpoint, UdpRecv};
use plexus::kernel::domain::ExtensionSpec;
use plexus::net::udp::{Endpoint, UdpConfig};
use plexus::net::Testbed;
use plexus::sim::nic::Link;

fn main() {
    // 1. Build the world: two machines on a private (shared, half-duplex)
    //    Ethernet segment, as in the paper's testbed. Host k is 10.0.0.k.
    let mut lan = Testbed::new(&Link::ethernet(), 0, &["alpha-a", "alpha-b"]);

    // 2. Attach a Plexus protocol graph to each machine; each one knows
    //    the other's MAC.
    let client = PlexusStack::attach_host(&lan.hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&lan.hosts[1], StackConfig::interrupt);

    // 3. Dynamically link an application extension into each kernel. The
    //    linker rejects any extension importing symbols outside the public
    //    extension domain.
    let spec = ExtensionSpec::typesafe("EchoProtocol", &["UDP.Bind", "UDP.Send"]);
    let client_ext = client
        .link_extension(&spec)
        .expect("client extension links");
    let server_ext = server
        .link_extension(&spec)
        .expect("server extension links");

    // 4. Server: an interrupt-level (EPHEMERAL) handler that echoes each
    //    datagram straight back — no user/kernel crossings anywhere.
    let echo_slot: Rc<OnceCell<Rc<UdpEndpoint>>> = Rc::default();
    let slot = echo_slot.clone();
    let echo_ep = server
        .udp()
        .bind(
            &server_ext,
            7,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let ep = slot.get().expect("endpoint ready");
                ep.send_in(ctx, ev.src, ev.src_port, &ev.payload.to_vec())
                    .expect("echo");
            }),
        )
        .expect("bind port 7");
    let _ = echo_slot.set(echo_ep);

    // 5. Client: send a ping and measure the simulated round-trip time.
    let reply_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
    let ra = reply_at.clone();
    let client_ep = client
        .udp()
        .bind(
            &client_ext,
            2000,
            UdpConfig::default(),
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                println!(
                    "reply from {}:{} ({} bytes)",
                    ev.src,
                    ev.src_port,
                    ev.payload.total_len()
                );
                ra.set(Some(ctx.lease.now().as_nanos()));
            }),
        )
        .expect("bind port 2000");

    let t0 = lan.world.engine().now().as_nanos();
    client_ep
        .send(lan.world.engine_mut(), server.ip(), 7, b"12345678")
        .expect("send ping");
    lan.world.run();

    let rtt_ns = reply_at.get().expect("the echo came back") - t0;
    println!(
        "UDP round trip: {:.0} us of simulated time",
        rtt_ns as f64 / 1000.0
    );
    println!("(paper, Figure 5: under 600 us on Ethernet for Plexus at interrupt level)");
    println!();
    println!("server stack stats: {:?}", server.stats());
    println!("server dispatcher:  {:?}", server.dispatcher().stats());
    println!();
    print!("{}", server.graph_description());
}
