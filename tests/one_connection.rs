//! One application script over both OS structures.
//!
//! Plexus and the monolithic baseline hand out the same `TcpConn`, and
//! differ only in the structure around it: what a call is charged, how a
//! segment goes down and how an event comes up. So an application that
//! runs the same script on each must see the same thing: the same bytes
//! (concatenated, since the baseline's wakeups coalesce deliveries), the
//! same callbacks in the same order, and the same named drop when the peer
//! never answers.

use std::any::Any;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus::baseline::MonolithicStack;
use plexus::core::{PlexusStack, StackConfig, TcpCallbacks, TcpConn};
use plexus::kernel::dispatcher::RaiseCtx;
use plexus::kernel::domain::ExtensionSpec;
use plexus::kernel::AddressSpace;
use plexus::net::tcp::TcpState;
use plexus::net::{Host, Testbed};
use plexus::sim::nic::{DriverConfig, Link};
use plexus::sim::time::SimDuration;
use plexus::sim::World;
use plexus::trace::{CounterKey, Recorder, Scope};

const PORT: u16 = 7000;

/// The writes the client makes as soon as it is connected, then closes.
const WRITES: [&[u8]; 4] = [b"one ", b"two ", b"three ", b"and the rest"];

#[derive(Clone, Copy, Debug)]
enum Structure {
    Plexus,
    Dunix,
}

/// What an application saw, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Seen {
    Connected,
    Data(Vec<u8>),
    PeerClose,
    Closed,
}

type Log = Rc<RefCell<Vec<Seen>>>;

/// Callbacks that write everything into `log`; `script` runs once the
/// connection is up, and the side closes when its peer has.
fn logging(log: &Log, script: fn(&mut RaiseCtx<'_>, &Rc<TcpConn>)) -> TcpCallbacks {
    let note = |log: &Log, seen: Seen| log.borrow_mut().push(seen);
    let (l1, l2, l3, l4) = (log.clone(), log.clone(), log.clone(), log.clone());
    TcpCallbacks {
        on_connected: Some(Rc::new(move |ctx, conn| {
            note(&l1, Seen::Connected);
            script(ctx, conn);
        })),
        on_data: Some(Rc::new(move |_, _, data| {
            note(&l2, Seen::Data(data.to_vec()))
        })),
        on_peer_close: Some(Rc::new(move |ctx, conn| {
            note(&l3, Seen::PeerClose);
            conn.close_in(ctx);
        })),
        on_closed: Some(Rc::new(move |_, _| note(&l4, Seen::Closed))),
    }
}

fn write_then_close(ctx: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>) {
    for data in WRITES {
        conn.send_in(ctx, data);
    }
    conn.close_in(ctx);
}

fn nothing(_: &mut RaiseCtx<'_>, _: &Rc<TcpConn>) {}

/// The log with consecutive deliveries joined into one.
fn joined(log: &Log) -> Vec<Seen> {
    let mut out: Vec<Seen> = Vec::new();
    for seen in log.borrow().iter() {
        match (out.last_mut(), seen) {
            (Some(Seen::Data(all)), Seen::Data(more)) => all.extend_from_slice(more),
            _ => out.push(seen.clone()),
        }
    }
    out
}

/// Puts `structure`'s stack on `host`; with `serve`, a listener on
/// [`PORT`] whose connections get `serve`'s callbacks. The returned value
/// keeps the stack alive.
fn stack_on(
    structure: Structure,
    host: &Host,
    serve: Option<Rc<dyn Fn() -> TcpCallbacks>>,
) -> (Rc<dyn Any>, Dialer) {
    let on_accept = move |_: &mut RaiseCtx<'_>, conn: &Rc<TcpConn>| {
        if let Some(serve) = &serve {
            conn.set_callbacks(serve());
        }
    };
    match structure {
        Structure::Plexus => {
            let stack = PlexusStack::attach_host(host, StackConfig::interrupt);
            let spec = ExtensionSpec::typesafe("script", &["TCP.Listen", "TCP.Connect"]);
            let ext = stack.link_extension(&spec).unwrap();
            stack.tcp().listen(&ext, PORT, on_accept).unwrap();
            let s = stack.clone();
            let dial: Dialer =
                Box::new(move |world, to| s.tcp().connect(&ext, world.engine_mut(), to).unwrap());
            (stack, dial)
        }
        Structure::Dunix => {
            let stack = MonolithicStack::attach_host(host);
            let process = AddressSpace::new();
            assert!(stack.tcp().listen(&process, PORT, on_accept));
            let s = stack.clone();
            let dial: Dialer = Box::new(move |world, to| {
                s.tcp().connect(world.engine_mut(), &process, to).unwrap()
            });
            (stack, dial)
        }
    }
}

type Dialer = Box<dyn Fn(&mut World, (Ipv4Addr, u16)) -> Rc<TcpConn>>;

/// Runs the script between two hosts of `structure`: what the client saw,
/// what the server saw, and the client connection's final state.
fn run_script(structure: Structure) -> (Vec<Seen>, Vec<Seen>, TcpState) {
    let Testbed {
        mut world, hosts, ..
    } = Testbed::new(&Link::ethernet(), 3, &["client", "server"]);
    let (client_log, server_log) = (Log::default(), Log::default());
    let slog = server_log.clone();
    let serve: Rc<dyn Fn() -> TcpCallbacks> = Rc::new(move || logging(&slog, nothing));
    let (_server, _) = stack_on(structure, &hosts[1], Some(serve));
    let (_client, dial) = stack_on(structure, &hosts[0], None);
    let conn = dial(&mut world, (hosts[1].ip, PORT));
    conn.set_callbacks(logging(&client_log, write_then_close));
    world.run_for(SimDuration::from_secs(60));
    (joined(&client_log), joined(&server_log), conn.state())
}

#[test]
fn the_same_script_sees_the_same_thing_on_both_structures() {
    let everything: Vec<u8> = WRITES.concat();
    let mut seen = Vec::new();
    for structure in [Structure::Plexus, Structure::Dunix] {
        let (client, server, state) = run_script(structure);
        assert_eq!(
            client,
            [Seen::Connected, Seen::PeerClose, Seen::Closed],
            "{structure:?} client"
        );
        assert_eq!(
            server,
            [
                Seen::Connected,
                Seen::Data(everything.clone()),
                Seen::PeerClose,
                Seen::Closed,
            ],
            "{structure:?} server"
        );
        assert_eq!(state, TcpState::Closed, "{structure:?} client state");
        seen.push((client, server));
    }
    assert_eq!(seen[0], seen[1], "Plexus and DIGITAL UNIX agree");
}

#[test]
fn a_silent_peer_ends_in_one_named_drop_on_both_structures() {
    for structure in [Structure::Plexus, Structure::Dunix] {
        let rec = Recorder::new(1024);
        let Testbed {
            mut world, hosts, ..
        } = Testbed::new(&Link::ethernet(), 9, &["client", "void"]).traced(Some(&rec));
        hosts[1].nic.attach(DriverConfig::per_frame(|_, _| {}));
        let (_client, dial) = stack_on(structure, &hosts[0], None);
        let log = Log::default();
        let conn = dial(&mut world, (hosts[1].ip, PORT));
        conn.set_callbacks(logging(&log, nothing));
        world.run_for(SimDuration::from_secs(3600));
        assert_eq!(conn.state(), TcpState::Closed, "{structure:?}");
        assert_eq!(
            joined(&log),
            [Seen::Closed],
            "{structure:?}: only the close"
        );
        let gave_up = rec.registry().get(CounterKey {
            scope: Scope::Drop,
            label: rec.intern("tcp_retransmit_limit"),
            metric: "count",
        });
        assert_eq!(gave_up, 1, "{structure:?}: one named drop");
    }
}
