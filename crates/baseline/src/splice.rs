//! The user-level TCP forwarder (§5.2's DIGITAL UNIX comparison).
//!
//! "We have implemented a similar service using DIGITAL UNIX with a
//! user-level process that splices together an incoming and outgoing
//! socket." The splice terminates the client's TCP connection at the
//! forwarder and opens a *second* connection to the backend, so
//!
//! * end-to-end TCP semantics are broken — the backend never sees the
//!   client's connection establishment or teardown, and the forwarder
//!   interposes on window/congestion behaviour; and
//! * every forwarded byte makes two trips through the protocol stack and
//!   is copied twice across the user/kernel boundary.
//!
//! Figure 7 measures the latency consequence; this module is that
//! comparison system.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_kernel::AddressSpace;
use plexus_net::tcp::{TcpCallbacks, TcpConn};
use plexus_sim::Engine;

use crate::stack::MonolithicStack;

/// A user-level port forwarder process on the monolithic stack.
/// The spliced socket pairs, keyed by the client's source port.
type PairMap = Rc<RefCell<HashMap<u16, (Rc<TcpConn>, Rc<TcpConn>)>>>;

/// A user-level port forwarder process on the monolithic stack.
pub struct UserSplice {
    /// Forwarded connections currently alive (client socket, backend
    /// socket), for observation in tests.
    pairs: PairMap,
}

impl UserSplice {
    /// Starts the splice process: accept on `stack`:`port`, connect onward
    /// to `backend`, and shuttle bytes both ways through user space.
    pub fn start(
        stack: &Rc<MonolithicStack>,
        engine: &mut Engine,
        port: u16,
        backend: (Ipv4Addr, u16),
    ) -> UserSplice {
        let _ = engine;
        let process = AddressSpace::new();
        let pairs: PairMap = Rc::new(RefCell::new(HashMap::new()));

        let stack2 = stack.clone();
        let process2 = process.clone();
        let pairs2 = pairs.clone();
        stack.tcp().listen(&process, port, move |ctx, client_sock| {
            // A client connected: open the outgoing socket (or refuse
            // the client when no port is free).
            let Ok(backend_sock) = stack2.tcp().connect(ctx.engine, &process2, backend) else {
                client_sock.close_in(ctx);
                return;
            };
            pairs2.borrow_mut().insert(
                client_sock.remote().1,
                (client_sock.clone(), backend_sock.clone()),
            );

            forward(client_sock, &backend_sock);
            forward(&backend_sock, client_sock);
        });

        UserSplice { pairs }
    }

    /// Number of spliced connection pairs created.
    pub fn pair_count(&self) -> usize {
        self.pairs.borrow().len()
    }
}

/// One direction of the splice: each chunk `from` delivers was copied out
/// to the splice process by the receive path, and writing it to `to`
/// copies it back in; `from`'s peer closing closes `to`.
fn forward(from: &Rc<TcpConn>, to: &Rc<TcpConn>) {
    let (data_to, close_to) = (to.clone(), to.clone());
    from.set_callbacks(TcpCallbacks {
        on_data: Some(Rc::new(move |ctx, _, data| data_to.send_in(ctx, data))),
        on_peer_close: Some(Rc::new(move |ctx, _| close_to.close_in(ctx))),
        ..Default::default()
    });
}
