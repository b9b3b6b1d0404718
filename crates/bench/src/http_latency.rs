//! §7's demonstration turned into an experiment: HTTP request latency when
//! the server runs as a Plexus kernel extension vs. a DIGITAL UNIX user
//! process.
//!
//! A full HTTP/1.0 exchange is measured: TCP handshake, GET, response,
//! close. The Plexus server parses requests and serves responses without a
//! single user/kernel crossing; the monolithic server pays an accept
//! wakeup, read copyouts, write copyins, and close traps per request.
//! (The *client* is a Plexus host in both cases, so only the server's OS
//! structure varies.)

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_apps::httpd::{httpd_extension_spec, DunixHttpd, HttpGet, Httpd};
use plexus_baseline::MonolithicStack;
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::testbed::Testbed;
use plexus_sim::nic::Link;
use plexus_sim::time::SimDuration;
use plexus_sim::World;

use crate::report::BenchReport;
use crate::table;

/// The server's OS structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpSystem {
    /// In-kernel Plexus extension.
    Plexus,
    /// User process over sockets.
    Dunix,
}

/// Measures the complete GET latency (connect → response body → close
/// observed) in microseconds for a document of `body_bytes`.
pub fn http_get_latency_us(system: HttpSystem, link: &Link, body_bytes: usize) -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(link, 4, &["client", "server"]);
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);

    let mut docs = HashMap::new();
    docs.insert("/doc".to_string(), vec![b'x'; body_bytes]);

    match system {
        HttpSystem::Plexus => {
            let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
            let ext = server
                .link_extension(&httpd_extension_spec("httpd"))
                .unwrap();
            let _srv = Httpd::serve(&server, &ext, 80, docs).unwrap();
            run_get(&mut world, &client, hosts[1].ip, body_bytes)
        }
        HttpSystem::Dunix => {
            let server = MonolithicStack::attach_host(&hosts[1]);
            let _srv = DunixHttpd::serve(&server, 80, docs);
            run_get(&mut world, &client, hosts[1].ip, body_bytes)
        }
    }
}

fn run_get(
    world: &mut World,
    client: &Rc<PlexusStack>,
    server: Ipv4Addr,
    body_bytes: usize,
) -> f64 {
    let cext = client
        .link_extension(&httpd_extension_spec("client"))
        .unwrap();
    let t0 = world.engine().now().as_nanos();
    let get = HttpGet::start(client, &cext, world.engine_mut(), (server, 80), "/doc").unwrap();
    world.run_for(SimDuration::from_secs(30));
    let (status, body) = get.result().expect("HTTP response arrived");
    assert_eq!(status, 200);
    assert_eq!(body.len(), body_bytes);
    let done = get.completed_at_ns().expect("completion instant recorded");
    (done - t0) as f64 / 1000.0
}

/// §7's HTTP demonstration as a figure: full GET latency against the
/// in-kernel server vs. the user-process server, by body size.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    out.push_str(
        "Section 7: HTTP GET latency (handshake + request + response + close)\n\
         over Ethernet, server in-kernel vs. user process\n\n",
    );
    let sizes = [128usize, 1024, 8192, 65536];
    let mut rows = Vec::new();
    for size in sizes {
        let p = http_get_latency_us(HttpSystem::Plexus, &Link::ethernet(), size);
        let d = http_get_latency_us(HttpSystem::Dunix, &Link::ethernet(), size);
        report.latency_us(&format!("body_{size:05}/plexus"), p);
        report.latency_us(&format!("body_{size:05}/dunix"), d);
        rows.push(vec![
            size.to_string(),
            format!("{p:.0}"),
            format!("{d:.0}"),
            format!("{:.0}", d - p),
        ]);
    }
    table::render(
        out,
        &[
            "body (B)",
            "Plexus (us)",
            "DUNIX (us)",
            "structure cost (us)",
        ],
        &rows,
    );
    out.push_str(
        "The structure cost is per-request boundary crossing work; it is\n\
         roughly constant until the response is large enough that wire time\n\
         and per-byte copies dominate.\n",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_kernel_http_beats_the_user_process() {
        let link = Link::ethernet();
        let p = http_get_latency_us(HttpSystem::Plexus, &link, 1024);
        let d = http_get_latency_us(HttpSystem::Dunix, &link, 1024);
        assert!(
            d > p + 200.0,
            "user-process server should pay its crossings: plexus={p:.0} dunix={d:.0}"
        );
        // Sanity: a full HTTP/1.0 exchange is a handful of milliseconds on
        // 10 Mb/s Ethernet.
        assert!((1_000.0..20_000.0).contains(&p), "plexus {p:.0} us");
    }
}
