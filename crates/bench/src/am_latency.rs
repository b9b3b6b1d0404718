//! §3.3's claim: active-message handlers at interrupt level minimize
//! latency.
//!
//! Compares the round trip of an 8-byte active message (raw Ethernet,
//! ephemeral handler in the receive interrupt) against the full UDP path
//! at interrupt level and at thread level.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::report::BenchReport;
use crate::table;
use crate::udp_rtt::{mean_us, Link, System, UdpRtt};
use plexus_apps::{am_extension_spec, ActiveMessages};
use plexus_core::{PlexusStack, StackConfig};
use plexus_net::Testbed;

fn am_rtt_us(rounds: u32) -> f64 {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["a", "b"]);
    let sa = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);
    let ea = sa.link_extension(&am_extension_spec("am-a")).unwrap();
    let eb = sb.link_extension(&am_extension_spec("am-b")).unwrap();
    let am_a = Rc::new(ActiveMessages::install(&sa, &ea).unwrap());
    let am_b = Rc::new(ActiveMessages::install(&sb, &eb).unwrap());

    // B: bounce every message back on handler 2.
    let am_b2 = am_b.clone();
    am_b.register(1, move |ctx, msg| {
        am_b2.reply_in(ctx, msg.src, 2, msg.argument, &msg.payload);
    });

    // A: score the round trip and fire the next.
    let remaining = Rc::new(Cell::new(rounds));
    let sent_at = Rc::new(Cell::new(0u64));
    let rtts: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let (rem, sa_at, rt, am_a2) = (
        remaining.clone(),
        sent_at.clone(),
        rtts.clone(),
        am_a.clone(),
    );
    am_a.register(2, move |ctx, msg| {
        let now = ctx.lease.now().as_nanos();
        rt.borrow_mut().push(now - sa_at.get());
        let left = rem.get() - 1;
        rem.set(left);
        if left > 0 {
            sa_at.set(ctx.lease.now().as_nanos());
            am_a2.reply_in(ctx, msg.src, 1, msg.argument, &msg.payload);
        }
    });

    sent_at.set(world.engine().now().as_nanos());
    am_a.send(world.engine_mut(), hosts[1].mac, 1, 7, &[0u8; 8])
        .unwrap();
    world.run();
    let rtts = rtts.borrow();
    mean_us(&rtts)
}

/// The §3.3 table: active messages vs. the UDP path at both levels.
pub(crate) fn figure(out: &mut String, report: &mut BenchReport) {
    const ROUNDS: u32 = 100;
    out.push_str(
        "Section 3.3: interrupt-level active messages vs. the UDP path (Ethernet, 8 B)\n\n",
    );

    let am = am_rtt_us(ROUNDS);
    let udp_us = |system| mean_us(&UdpRtt::new(system, &Link::ethernet(), 8, ROUNDS).run());
    let udp_int = udp_us(System::PlexusInterrupt);
    let udp_thr = udp_us(System::PlexusThread);

    let rows = vec![
        vec![
            "active messages (interrupt)".to_string(),
            format!("{am:.0}"),
        ],
        vec!["UDP (interrupt)".to_string(), format!("{udp_int:.0}")],
        vec!["UDP (thread)".to_string(), format!("{udp_thr:.0}")],
    ];
    table::render(out, &["protocol", "RTT (us)"], &rows);
    out.push_str(
        "Claim: protocols needing little per-packet work run fastest at\n\
         interrupt level; skipping IP/UDP processing shaves the rest.\n",
    );

    report.latency_us("ethernet/active_messages", am);
    report.latency_us("ethernet/udp_interrupt", udp_int);
    report.latency_us("ethernet/udp_thread", udp_thr);
    report.count("rounds_per_cell", u64::from(ROUNDS));
}
