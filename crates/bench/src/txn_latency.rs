//! §1.1 quantified: "a connection-oriented protocol that is used for many
//! small transactions is best served by an implementation that minimizes
//! connection lifetime."
//!
//! Three ways to do a small request/response on the same pair of machines:
//!
//! * **TCP-standard** — connect, send, receive, close: the general
//!   solution, paying the three-way handshake and four-segment teardown.
//! * **TCP-special (transactions)** — the §3.1-style second TCP
//!   implementation from `plexus_apps::transaction`: one segment out, one
//!   back, no connection state.
//! * **UDP** — the connectionless floor (no reliability).

use std::cell::Cell;
use std::rc::Rc;

use plexus_apps::transaction::{transaction_extension_spec, TransactionClient, TransactionServer};
use plexus_core::{PlexusStack, StackConfig, TcpCallbacks};
use plexus_net::testbed::Testbed;
use plexus_sim::nic::Link;
use plexus_sim::time::SimDuration;

use crate::udp_rtt::{mean_us, System, UdpRtt};

use crate::report::BenchReport;
use crate::table;

/// The exchange discipline measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnSystem {
    /// Full TCP connection per exchange.
    TcpStandard,
    /// The transaction transport (TCP-special).
    TcpSpecial,
    /// Plain UDP (unreliable floor).
    Udp,
}

impl TxnSystem {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            TxnSystem::TcpStandard => "TCP-standard (connect/close)",
            TxnSystem::TcpSpecial => "TCP-special (transaction)",
            TxnSystem::Udp => "UDP (floor)",
        }
    }
}

/// Mean latency (µs) of one complete `payload`-byte request/response
/// exchange, over `rounds` serial exchanges.
pub fn txn_latency_us(system: TxnSystem, link: &Link, payload: usize, rounds: u32) -> f64 {
    match system {
        TxnSystem::Udp => {
            mean_us(&UdpRtt::new(System::PlexusInterrupt, link, payload, rounds).run())
        }
        TxnSystem::TcpSpecial => special_txn(link, payload, rounds),
        TxnSystem::TcpStandard => tcp_exchange(link, payload, rounds),
    }
}

/// A client and a server host, an interrupt-mode Plexus stack on each.
fn client_server(link: &Link) -> (Testbed, Rc<PlexusStack>, Rc<PlexusStack>) {
    let tb = Testbed::new(link, 5, &["client", "server"]);
    let client = PlexusStack::attach_host(&tb.hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&tb.hosts[1], StackConfig::interrupt);
    (tb, client, server)
}

fn special_txn(link: &Link, payload: usize, rounds: u32) -> f64 {
    let (Testbed { mut world, .. }, client, server) = client_server(link);
    let cext = client
        .link_extension(&transaction_extension_spec("txn-c"))
        .unwrap();
    let sext = server
        .link_extension(&transaction_extension_spec("txn-s"))
        .unwrap();
    let _srv = TransactionServer::install(&server, &sext, 9999, |req| req.to_vec()).unwrap();
    let cli = TransactionClient::install(&client, &cext, 9998, (server.ip(), 9999)).unwrap();
    let mut total_ns = 0u64;
    let req = vec![0x33u8; payload];
    for _ in 0..rounds {
        let t0 = world.engine().now().as_nanos();
        let call = cli.call(world.engine_mut(), &req);
        world.run_for(SimDuration::from_millis(200));
        let done = call.completed_at_ns().expect("transaction answered");
        total_ns += done - t0;
    }
    total_ns as f64 / rounds as f64 / 1000.0
}

fn tcp_exchange(link: &Link, payload: usize, rounds: u32) -> f64 {
    let (Testbed { mut world, .. }, client, server) = client_server(link);
    let spec = plexus_kernel::domain::ExtensionSpec::typesafe("x", &["TCP.Listen", "TCP.Connect"]);
    let cext = client.link_extension(&spec).unwrap();
    let sext = server.link_extension(&spec).unwrap();
    server
        .tcp()
        .listen(&sext, 8000, |_, conn| {
            conn.set_callbacks(TcpCallbacks {
                on_data: Some(Rc::new(|ctx, conn, data| {
                    conn.send_in(ctx, data);
                    conn.close_in(ctx); // Server closes after responding.
                })),
                on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
                ..Default::default()
            });
        })
        .unwrap();
    let mut total_ns = 0u64;
    let req = vec![0x33u8; payload];
    for _ in 0..rounds {
        let done: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        let got: Rc<Cell<usize>> = Rc::new(Cell::new(0));
        let t0 = world.engine().now().as_nanos();
        let conn = client
            .tcp()
            .connect(&cext, world.engine_mut(), (server.ip(), 8000))
            .unwrap();
        let (d, g, req2) = (done.clone(), got.clone(), req.clone());
        conn.set_callbacks(TcpCallbacks {
            on_connected: Some(Rc::new(move |ctx, conn| conn.send_in(ctx, &req2))),
            on_data: Some(Rc::new(move |ctx, _, data| {
                g.set(g.get() + data.len());
                if g.get() >= payload {
                    d.set(Some(ctx.lease.now().as_nanos()));
                }
            })),
            on_peer_close: Some(Rc::new(|ctx, conn| conn.close_in(ctx))),
            ..Default::default()
        });
        world.run_for(SimDuration::from_secs(3));
        let at = done.get().expect("response arrived");
        total_ns += at - t0;
    }
    total_ns as f64 / rounds as f64 / 1000.0
}

/// §1.1 quantified: small request/response latency under three
/// disciplines — full TCP connections, the TCP-special transaction
/// protocol, and raw UDP.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    const ROUNDS: u32 = 20;
    out.push_str("Section 1.1: small-exchange latency by transport discipline (Ethernet)\n\n");
    let payloads = [8usize, 64, 256];
    let systems = [
        TxnSystem::Udp,
        TxnSystem::TcpSpecial,
        TxnSystem::TcpStandard,
    ];
    let mut rows = Vec::new();
    for sys in systems {
        let mut row = vec![sys.label().to_string()];
        let sys_key = match sys {
            TxnSystem::Udp => "udp",
            TxnSystem::TcpSpecial => "tcp_special",
            TxnSystem::TcpStandard => "tcp_standard",
        };
        for p in payloads {
            let us = txn_latency_us(sys, &Link::ethernet(), p, ROUNDS);
            report.latency_us(&format!("payload_{p:03}/{sys_key}"), us);
            row.push(format!("{us:.0}"));
        }
        rows.push(row);
    }
    table::render(
        out,
        &["discipline", "8 B (us)", "64 B (us)", "256 B (us)"],
        &rows,
    );
    out.push_str(
        "The transaction implementation \"minimizes connection lifetime\": one\n\
         round trip where TCP-standard pays the handshake, the transfer, and\n\
         the teardown — while UDP remains the unreliable floor. Both TCP\n\
         implementations coexist on the same machines; guards split the port\n\
         space between them (the paper's TCP-standard/TCP-special example).\n",
    );

    report.count("rounds_per_cell", u64::from(ROUNDS));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_sit_between_udp_and_full_tcp() {
        let link = Link::ethernet();
        let udp = txn_latency_us(TxnSystem::Udp, &link, 64, 5);
        let txn = txn_latency_us(TxnSystem::TcpSpecial, &link, 64, 5);
        let tcp = txn_latency_us(TxnSystem::TcpStandard, &link, 64, 5);
        assert!(
            udp <= txn && txn < tcp,
            "expected UDP <= transaction < TCP: {udp:.0} / {txn:.0} / {tcp:.0}"
        );
        assert!(
            tcp > txn * 1.8,
            "a full connection per exchange should cost ~2x+: txn={txn:.0} tcp={tcp:.0}"
        );
    }
}
