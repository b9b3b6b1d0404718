//! "TCP-special": an application-specific transaction transport (§1.1,
//! §3.1).
//!
//! §1.1: "a connection-oriented protocol that is used for many small
//! transactions is best served by an implementation that minimizes
//! connection lifetime." §3.1 describes the mechanism: a second TCP
//! implementation that claims particular ports, its guard carving those
//! ports out of TCP-standard's.
//!
//! This module is that second implementation. It speaks *TCP segment
//! format on the wire* (so the standard node's checksum rules hold and the
//! port space is shared), but with transaction semantics in the spirit of
//! T/TCP: a request rides in a single SYN-flagged segment, the response
//! rides in the SYN+ACK-flagged reply, and there is no connection state to
//! establish or tear down — one round trip replaces TCP-standard's
//! three-way handshake + transfer + four-segment close. Both endpoints
//! must install the extension (an "agreed upon by the communicating
//! applications" protocol change, exactly as §1.1 prescribes), while
//! TCP-standard keeps serving every other port on the same machines.
//!
//! Retransmission: the client retries an unanswered request with its
//! sequence number; servers answer idempotently (the handler is re-run, so
//! handlers should be idempotent — the application knows whether that is
//! acceptable, which is the whole point of application-specific protocols).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{IpRecv, PlexusError, PlexusStack};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::RaiseCtx;
use plexus_net::ip::proto;
use plexus_net::mbuf::Mbuf;
use plexus_net::tcp::{TcpFlags, TcpSegment};
use plexus_sim::engine::TimerHandle;
use plexus_sim::time::SimDuration;
use plexus_sim::Engine;

/// Extension spec for transaction endpoints.
pub fn transaction_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["TCP.Redirect", "Mbuf.Alloc"])
}

/// A request handler: maps the request bytes to the response bytes. Runs
/// at interrupt level; must be quick, non-blocking, and idempotent.
pub(crate) type TransactionHandler = Rc<dyn Fn(&[u8]) -> Vec<u8>>;

/// The server side: one handler per claimed port.
pub struct TransactionServer {
    served: Rc<Cell<u64>>,
}

impl TransactionServer {
    /// Claims `port` as a special TCP implementation and serves
    /// transactions with `handler`.
    pub fn install<F>(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        port: u16,
        handler: F,
    ) -> Result<TransactionServer, PlexusError>
    where
        F: Fn(&[u8]) -> Vec<u8> + 'static,
    {
        let served = Rc::new(Cell::new(0u64));
        let s = stack.clone();
        let served2 = served.clone();
        let handler: TransactionHandler = Rc::new(handler);
        // Parse scratch reused across segments: single-segment chains (the
        // common case) are peeked in place; only spilled chains copy, and
        // into this one retained buffer rather than a fresh Vec per packet.
        let scratch = RefCell::new(Vec::new());
        stack
            .tcp()
            .claim_special(ext, &[port], move |ctx, ev: &IpRecv| {
                // One segment in, one out: half of tcp_proc captures the
                // slimmer per-packet work of the transaction discipline.
                ctx.lease.charge(ctx.lease.model().tcp_proc / 2);
                ctx.lease
                    .charge(ctx.lease.model().checksum(ev.payload.total_len()));
                let mut scratch = scratch.borrow_mut();
                let bytes = ev.payload.contiguous(&mut scratch);
                let Some(seg) = TcpSegment::parse(ev.src, ev.dst, bytes) else {
                    return;
                };
                // Requests are SYN-without-ACK segments carrying data.
                if !seg.flags.syn || seg.flags.ack {
                    return;
                }
                served2.set(served2.get() + 1);
                let response = handler(seg.payload);
                let reply = TcpSegment {
                    src_port: seg.dst_port,
                    dst_port: seg.src_port,
                    seq: 0,
                    ack: seg.seq, // Echoed transaction id.
                    flags: TcpFlags::SYN_ACK,
                    window: 0,
                    mss: None,
                    payload: response,
                };
                ctx.lease.charge(ctx.lease.model().tcp_proc / 2);
                ctx.lease.charge(
                    ctx.lease
                        .model()
                        .checksum(reply.payload.len() + plexus_net::tcp::TCP_HDR_LEN),
                );
                let wire = reply.to_bytes(ev.dst, ev.src);
                s.send_raw_ip(ctx, ev.src, proto::TCP, Mbuf::from_payload(64, &wire));
            })?;
        Ok(TransactionServer { served })
    }

    /// Transactions answered.
    pub fn served(&self) -> u64 {
        self.served.get()
    }
}

struct Pending {
    request: Vec<u8>,
    timer: Option<TimerHandle>,
    tries: u32,
    completed: Rc<RefCell<Option<Vec<u8>>>>,
    completed_at: Rc<Cell<Option<u64>>>,
}

struct ClientInner {
    stack: Rc<PlexusStack>,
    local_port: u16,
    server: (Ipv4Addr, u16),
    next_id: Cell<u32>,
    pending: RefCell<HashMap<u32, Pending>>,
    retry_timeout: SimDuration,
    max_tries: u32,
    retries: Cell<u64>,
}

/// The client side: issues single-round-trip transactions.
pub struct TransactionClient {
    inner: Rc<ClientInner>,
}

/// A transaction in flight; poll [`TransactionCall::response`] after
/// running the engine.
pub struct TransactionCall {
    completed: Rc<RefCell<Option<Vec<u8>>>>,
    completed_at: Rc<Cell<Option<u64>>>,
}

impl TransactionCall {
    /// The response, once it has arrived.
    pub fn response(&self) -> Option<Vec<u8>> {
        self.completed.borrow().clone()
    }

    /// Simulated instant (ns) the response arrived.
    pub fn completed_at_ns(&self) -> Option<u64> {
        self.completed_at.get()
    }
}

impl TransactionClient {
    /// Claims `local_port` for the client side of the protocol, talking to
    /// `server`.
    pub fn install(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        local_port: u16,
        server: (Ipv4Addr, u16),
    ) -> Result<TransactionClient, PlexusError> {
        let inner = Rc::new(ClientInner {
            stack: stack.clone(),
            local_port,
            server,
            next_id: Cell::new(1),
            pending: RefCell::new(HashMap::new()),
            retry_timeout: SimDuration::from_millis(3),
            max_tries: 8,
            retries: Cell::new(0),
        });
        let me = inner.clone();
        let scratch = RefCell::new(Vec::new());
        stack
            .tcp()
            .claim_special(ext, &[local_port], move |ctx, ev: &IpRecv| {
                ctx.lease.charge(ctx.lease.model().tcp_proc / 2);
                ctx.lease
                    .charge(ctx.lease.model().checksum(ev.payload.total_len()));
                let mut scratch = scratch.borrow_mut();
                let bytes = ev.payload.contiguous(&mut scratch);
                let Some(seg) = TcpSegment::parse(ev.src, ev.dst, bytes) else {
                    return;
                };
                // Responses are SYN+ACK segments echoing the id in `ack`.
                if !(seg.flags.syn && seg.flags.ack) {
                    return;
                }
                let id = seg.ack;
                if let Some(p) = me.pending.borrow_mut().remove(&id) {
                    if let Some(t) = p.timer {
                        ctx.engine.cancel(t);
                    }
                    *p.completed.borrow_mut() = Some(seg.payload.to_vec());
                    p.completed_at.set(Some(ctx.lease.now().as_nanos()));
                }
            })?;
        Ok(TransactionClient { inner })
    }

    /// Issues a transaction: one segment out, one back.
    pub fn call(&self, engine: &mut Engine, request: &[u8]) -> TransactionCall {
        let id = self.inner.next_id.get();
        self.inner.next_id.set(id.wrapping_add(1));
        let completed: Rc<RefCell<Option<Vec<u8>>>> = Rc::new(RefCell::new(None));
        let completed_at: Rc<Cell<Option<u64>>> = Rc::new(Cell::new(None));
        self.inner.pending.borrow_mut().insert(
            id,
            Pending {
                request: request.to_vec(),
                timer: None,
                tries: 0,
                completed: completed.clone(),
                completed_at: completed_at.clone(),
            },
        );
        ClientInner::transmit(&self.inner, engine, id);
        TransactionCall {
            completed,
            completed_at,
        }
    }

    /// Requests retransmitted after a timeout.
    pub fn retries(&self) -> u64 {
        self.inner.retries.get()
    }
}

impl ClientInner {
    fn transmit(me: &Rc<ClientInner>, engine: &mut Engine, id: u32) {
        let (give_up, request) = {
            let mut pending = me.pending.borrow_mut();
            let Some(p) = pending.get_mut(&id) else {
                return; // Answered already.
            };
            p.tries += 1;
            if p.tries > me.max_tries {
                pending.remove(&id);
                (true, Vec::new())
            } else {
                if p.tries > 1 {
                    me.retries.set(me.retries.get() + 1);
                }
                (false, p.request.clone())
            }
        };
        if give_up {
            return;
        }
        let seg = TcpSegment {
            src_port: me.local_port,
            dst_port: me.server.1,
            seq: id, // The transaction id rides in `seq`.
            ack: 0,
            flags: TcpFlags::SYN,
            window: 0,
            mss: None,
            payload: request,
        };
        let cpu = me.stack.machine().cpu().clone();
        let mut lease = cpu.begin(engine.now());
        lease.charge(lease.model().tcp_proc / 2);
        lease.charge(
            lease
                .model()
                .checksum(seg.payload.len() + plexus_net::tcp::TCP_HDR_LEN),
        );
        let wire = seg.to_bytes(me.stack.ip(), me.server.0);
        {
            let mut ctx = RaiseCtx {
                engine,
                lease: &mut lease,
            };
            let stack = me.stack.clone();
            stack.send_raw_ip(
                &mut ctx,
                me.server.0,
                proto::TCP,
                Mbuf::from_payload(64, &wire),
            );
        }
        // Arm the retry timer.
        let me2 = me.clone();
        let handle = engine.schedule_cancelable(me.retry_timeout, move |eng| {
            ClientInner::transmit(&me2, eng, id);
        });
        if let Some(p) = me.pending.borrow_mut().get_mut(&id) {
            p.timer = Some(handle);
        }
    }
}
