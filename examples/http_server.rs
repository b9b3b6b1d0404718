//! §7's demonstration: the Plexus protocol stack servicing HTTP requests.
//!
//! An in-kernel HTTP/1.0 server extension serves a small site; a client
//! fetches pages over full TCP connections (handshake, transfer, close)
//! through the simulated Ethernet.
//!
//! Run with `cargo run --example http_server`.

use std::collections::HashMap;

use plexus::apps::httpd::{httpd_extension_spec, HttpGet, Httpd};
use plexus::core::{PlexusStack, StackConfig};
use plexus::net::Testbed;
use plexus::sim::nic::Link;
use plexus::sim::time::SimDuration;

fn main() {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["browser", "www-spin"]);
    let client = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let server = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);

    // The site, served by an extension linked into the server's kernel.
    let mut docs = HashMap::new();
    docs.insert(
        "/index.html".to_string(),
        b"<html><body>SPIN / Plexus demonstration page</body></html>".to_vec(),
    );
    docs.insert(
        "/paper.html".to_string(),
        b"<html><body>An Extensible Protocol Architecture for \
          Application-Specific Networking</body></html>"
            .to_vec(),
    );
    let sext = server
        .link_extension(&httpd_extension_spec("httpd"))
        .unwrap();
    let httpd = Httpd::serve(&server, &sext, 80, docs).unwrap();

    let cext = client
        .link_extension(&httpd_extension_spec("browser"))
        .unwrap();
    for path in ["/index.html", "/paper.html", "/missing.html"] {
        let get =
            HttpGet::start(&client, &cext, world.engine_mut(), (server.ip(), 80), path).unwrap();
        world.run_for(SimDuration::from_secs(5));
        match get.result() {
            Some((status, body)) => {
                println!("GET {path:<14} -> {status} ({} bytes)", body.len());
                if status == 200 {
                    println!("   {}", String::from_utf8_lossy(&body));
                }
            }
            None => println!("GET {path} -> no response"),
        }
    }
    println!();
    println!("server stats: {:?}", httpd.stats());
    println!(
        "TCP segments into the server's standard implementation: {}",
        server.tcp().segments_in()
    );
}
