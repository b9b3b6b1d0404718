//! §3.3's active messages: an application-specific protocol that runs its
//! handlers inside the network receive interrupt as `EPHEMERAL` procedures
//! — the guard discriminates on the Ethernet type field with `VIEW`, just
//! like Figure 2.
//!
//! The demo implements a tiny remote-increment service: node A sends
//! `incr(x)` messages; node B's interrupt-level handler computes `x + 1`
//! and acknowledges; A measures the round trip and fires the next one.
//!
//! Run with `cargo run --example active_messages`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use plexus::apps::{am_extension_spec, ActiveMessages};
use plexus::core::{PlexusStack, StackConfig};
use plexus::net::Testbed;
use plexus::sim::nic::Link;

fn main() {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 0, &["node-a", "node-b"]);
    let sa = PlexusStack::attach_host(&hosts[0], StackConfig::interrupt);
    let sb = PlexusStack::attach_host(&hosts[1], StackConfig::interrupt);

    let ext_a = sa.link_extension(&am_extension_spec("am-a")).unwrap();
    let ext_b = sb.link_extension(&am_extension_spec("am-b")).unwrap();
    let am_a = Rc::new(ActiveMessages::install(&sa, &ext_a).unwrap());
    let am_b = Rc::new(ActiveMessages::install(&sb, &ext_b).unwrap());

    // B, handler 1: remote increment; acknowledge on handler 2. This runs
    // in B's receive interrupt — it does "little more than reference
    // memory and reply with an acknowledgement".
    const INCR: u16 = 1;
    const ACK: u16 = 2;
    let am_b2 = am_b.clone();
    am_b.register(INCR, move |ctx, msg| {
        am_b2.reply_in(ctx, msg.src, ACK, msg.argument + 1, &[]);
    });

    // A, handler 2: score the round trip, launch the next.
    const ROUNDS: u64 = 32;
    let rtts: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let sent_at = Rc::new(Cell::new(0u64));
    let (r2, s2, am_a2) = (rtts.clone(), sent_at.clone(), am_a.clone());
    am_a.register(ACK, move |ctx, msg| {
        let now = ctx.lease.now().as_nanos();
        r2.borrow_mut().push(now - s2.get());
        if msg.argument < ROUNDS {
            s2.set(ctx.lease.now().as_nanos());
            am_a2.reply_in(ctx, msg.src, INCR, msg.argument, &[]);
        }
    });

    sent_at.set(world.engine().now().as_nanos());
    am_a.send(world.engine_mut(), sb.mac(), INCR, 0, &[])
        .unwrap();
    world.run();

    let rtts = rtts.borrow();
    let mean = rtts.iter().sum::<u64>() as f64 / rtts.len() as f64 / 1000.0;
    println!("{} remote increments completed", rtts.len());
    println!("mean active-message round trip: {mean:.0} us (simulated)");
    println!("messages dispatched at B: {}", am_b.received());
    println!();
    println!("Every handler above ran at interrupt level as a certified-ephemeral");
    println!("procedure; a plain closure would not typecheck in that position.");
}
