//! §5.2's protocol forwarding: load-balancing TCP connections through a
//! middle host, comparing the Plexus in-kernel redirector with the
//! DIGITAL UNIX user-level socket splice.
//!
//! The in-kernel redirector forwards *control* packets too, so the TCP
//! connection runs end-to-end between client and backend; the splice
//! terminates the client's connection at the forwarder and opens a second
//! one, copying every byte through user space twice.
//!
//! Run with `cargo run --example forwarder`.

use std::cell::Cell;
use std::rc::Rc;

use plexus::apps::{forwarder_extension_spec, InKernelForwarder};
use plexus::baseline::{MonolithicStack, UserSplice};
use plexus::core::{PlexusStack, StackConfig, TcpCallbacks, TcpConn};
use plexus::kernel::dispatcher::RaiseCtx;
use plexus::kernel::AddressSpace;
use plexus::net::Testbed;
use plexus::sim::nic::Link;
use plexus::sim::time::SimDuration;

const PORT: u16 = 8080;

/// Client, forwarder and backend on one Ethernet segment (10.0.2.0/24).
fn three_hosts() -> Testbed {
    Testbed::new(&Link::ethernet(), 2, &["client", "forwarder", "backend"])
}

fn main() {
    println!("TCP forwarding through a middle host (client -> forwarder -> backend)");
    println!();
    let plexus_us = plexus_redirect();
    let splice_us = user_splice();
    println!();
    println!("request/response through Plexus in-kernel redirect: {plexus_us:.0} us");
    println!("request/response through user-level socket splice:  {splice_us:.0} us");
    println!();
    println!("Paper (Figure 7): the user-level forwarder pays two stack traversals");
    println!("and four boundary crossings per direction — and cannot maintain TCP's");
    println!("end-to-end semantics, because it terminates the client's connection.");
}

/// The backend's service on either stack: echo, and close after the peer.
fn echo(_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>) {
    conn.set_callbacks(TcpCallbacks {
        on_data: Some(Rc::new(|ctx, conn, data| conn.send_in(ctx, data))),
        on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
        ..Default::default()
    });
}

/// The client on either stack: one request on connect; the round trip, in
/// nanoseconds, lands in the returned cell when the response does.
fn request(conn: &Rc<TcpConn>) -> Rc<Cell<u64>> {
    let sent_at = Rc::new(Cell::new(0u64));
    let rtt_ns = Rc::new(Cell::new(0u64));
    let (s2, r2) = (sent_at.clone(), rtt_ns.clone());
    conn.set_callbacks(TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            s2.set(ctx.lease.now().as_nanos());
            conn.send_in(ctx, b"GET /balance");
        })),
        on_data: Some(Rc::new(move |ctx, _, _| {
            r2.set(ctx.lease.now().as_nanos() - sent_at.get());
        })),
        ..Default::default()
    });
    rtt_ns
}

/// Plexus: DSR-style in-kernel redirection; one TCP connection end-to-end.
fn plexus_redirect() -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = three_hosts();
    let [client, fwd, backend] =
        [0, 1, 2].map(|k| PlexusStack::attach_host(&hosts[k], StackConfig::interrupt));

    let fext = fwd.link_extension(&forwarder_extension_spec("lb")).unwrap();
    InKernelForwarder::tcp(&fwd, &fext, PORT, backend.ip()).unwrap();
    backend.add_ip_alias(fwd.ip()); // The backend answers on the VIP.

    let bext = backend
        .link_extension(&forwarder_extension_spec("svc"))
        .unwrap();
    backend.tcp().listen(&bext, PORT, echo).unwrap();

    let cext = client
        .link_extension(&forwarder_extension_spec("cli"))
        .unwrap();
    // The client connects to the FORWARDER's address; the backend answers.
    let conn = client
        .tcp()
        .connect(&cext, world.engine_mut(), (fwd.ip(), PORT))
        .unwrap();
    let rtt_ns = request(&conn);
    world.run_for(SimDuration::from_secs(10));
    assert!(rtt_ns.get() > 0, "response arrived");
    println!(
        "plexus: connection is end-to-end (client's TCP peer port {}, one connection)",
        conn.remote().1
    );
    rtt_ns.get() as f64 / 1000.0
}

/// DIGITAL UNIX: the user-level splice — two connections, double copies.
fn user_splice() -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = three_hosts();
    let [client, fwd, backend] = [0, 1, 2].map(|k| MonolithicStack::attach_host(&hosts[k]));
    backend.tcp().listen(&AddressSpace::new(), PORT, echo);
    let splice = UserSplice::start(&fwd, world.engine_mut(), PORT, (backend.ip(), PORT));
    let conn = client
        .tcp()
        .connect(world.engine_mut(), &AddressSpace::new(), (fwd.ip(), PORT))
        .unwrap();
    let rtt_ns = request(&conn);
    world.run_for(SimDuration::from_secs(10));
    assert!(rtt_ns.get() > 0, "response arrived");
    println!(
        "splice: {} spliced pair(s) — the client's connection terminates at the forwarder",
        splice.pair_count()
    );
    rtt_ns.get() as f64 / 1000.0
}
