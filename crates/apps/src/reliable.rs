//! An application-specific reliable datagram protocol (§1.1's thesis,
//! taken one step further).
//!
//! The paper's motivating example disables the UDP checksum for media
//! traffic; this module goes the other way for applications that need
//! *more* than UDP: a stop-and-wait ARQ protocol — sequence numbers,
//! application-level integrity, acknowledgements, retransmission — built
//! entirely as a Plexus extension on top of checksum-free UDP. The
//! transport below stays dumb; the reliability policy lives with the
//! application, tuned to its needs (bounded retries, its own timeout),
//! which is exactly the "application-specific protocols" the architecture
//! exists to enable. Works over lossy links (see the fault-injection
//! tests).
//!
//! Wire format inside the UDP payload:
//!
//! ```text
//! 0      2     3        7          9
//! | magic| kind|  seq    | checksum |  data...
//! ```
//!
//! `kind` is DATA (1) or ACK (2); `checksum` is the Internet checksum of
//! the data (the application's own integrity pass, since UDP's is off).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::rc::Rc;

use plexus_core::{AppHandler, PlexusError, PlexusStack, UdpRecv};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::view::{be16, be32, put_be16, put_be32};
use plexus_kernel::RaiseCtx;
use plexus_net::checksum::checksum;
use plexus_net::udp::{Endpoint, UdpConfig};
use plexus_sim::engine::TimerHandle;
use plexus_sim::time::SimDuration;
use plexus_sim::Engine;

const MAGIC: u16 = 0x5D47; // "reliable datagram".
const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const HDR: usize = 9;

/// Protocol parameters — the application's own reliability policy.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Retransmission timeout.
    pub retry_timeout: SimDuration,
    /// Attempts per datagram before giving up.
    pub max_retries: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retry_timeout: SimDuration::from_millis(5),
            max_retries: 16,
        }
    }
}

/// Extension spec for the reliable-datagram modules.
pub fn reliable_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["UDP.Bind", "UDP.Send", "Mbuf.Alloc"])
}

fn encode(kind: u8, seq: u32, data: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; HDR + data.len()];
    put_be16(&mut out, 0, MAGIC);
    out[2] = kind;
    put_be32(&mut out, 3, seq);
    put_be16(&mut out, 7, checksum(data));
    out[HDR..].copy_from_slice(data);
    out
}

struct Decoded<'a> {
    kind: u8,
    seq: u32,
    data: &'a [u8],
}

fn decode(bytes: &[u8]) -> Option<Decoded<'_>> {
    if bytes.len() < HDR || be16(bytes, 0) != MAGIC {
        return None;
    }
    let data = &bytes[HDR..];
    if checksum(data) != be16(bytes, 7) {
        return None; // Application-level integrity failed.
    }
    Some(Decoded {
        kind: bytes[2],
        seq: be32(bytes, 3),
        data,
    })
}

struct SenderInner {
    stack: Rc<PlexusStack>,
    ep: Rc<plexus_core::UdpEndpoint>,
    peer: (Ipv4Addr, u16),
    config: ReliableConfig,
    next_seq: Cell<u32>,
    inflight: RefCell<Option<(u32, Vec<u8>, u32)>>, // (seq, frame, tries)
    queue: RefCell<VecDeque<Vec<u8>>>,
    timer: RefCell<Option<TimerHandle>>,
    delivered: Cell<u64>,
    retransmits: Cell<u64>,
    failed: Cell<u64>,
}

/// The sending side of the reliable protocol.
pub struct ReliableSender {
    inner: Rc<SenderInner>,
}

impl ReliableSender {
    /// Creates a sender on `stack` targeting `peer`, bound to `local_port`
    /// (where the ACKs come back).
    pub fn new(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        local_port: u16,
        peer: (Ipv4Addr, u16),
        config: ReliableConfig,
    ) -> Result<ReliableSender, PlexusError> {
        let inner_slot: Rc<RefCell<Option<Rc<SenderInner>>>> = Rc::new(RefCell::new(None));
        let slot = inner_slot.clone();
        // The ACK handler runs at interrupt level: it only pops state and
        // fires the next frame — EPHEMERAL by design.
        let ep = stack.udp().bind(
            ext,
            local_port,
            UdpConfig { checksum: false },
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let Some(inner) = slot.borrow().clone() else {
                    return;
                };
                let bytes = ev.payload.to_vec();
                let Some(d) = decode(&bytes) else {
                    return;
                };
                if d.kind == KIND_ACK {
                    inner.on_ack(ctx, d.seq);
                }
            }),
        )?;
        let inner = Rc::new(SenderInner {
            stack: stack.clone(),
            ep,
            peer,
            config,
            next_seq: Cell::new(0),
            inflight: RefCell::new(None),
            queue: RefCell::new(VecDeque::new()),
            timer: RefCell::new(None),
            delivered: Cell::new(0),
            retransmits: Cell::new(0),
            failed: Cell::new(0),
        });
        *inner_slot.borrow_mut() = Some(inner.clone());
        Ok(ReliableSender { inner })
    }

    /// Queues `data` for reliable delivery.
    pub fn send(&self, engine: &mut Engine, data: &[u8]) {
        self.inner.queue.borrow_mut().push_back(data.to_vec());
        let cpu = self.inner.stack.machine().cpu().clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        self.inner.pump(&mut ctx);
    }

    /// Datagrams acknowledged by the peer.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.get()
    }

    /// Retransmissions performed.
    pub fn retransmits(&self) -> u64 {
        self.inner.retransmits.get()
    }

    /// Datagrams abandoned after `max_retries`.
    pub fn failed(&self) -> u64 {
        self.inner.failed.get()
    }

    /// True if everything queued has been acknowledged.
    pub fn idle(&self) -> bool {
        self.inner.inflight.borrow().is_none() && self.inner.queue.borrow().is_empty()
    }
}

impl SenderInner {
    /// Starts the next transfer if the channel is idle.
    fn pump(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>) {
        if self.inflight.borrow().is_some() {
            return;
        }
        let Some(data) = self.queue.borrow_mut().pop_front() else {
            return;
        };
        let seq = self.next_seq.get();
        self.next_seq.set(seq.wrapping_add(1));
        let frame = encode(KIND_DATA, seq, &data);
        *self.inflight.borrow_mut() = Some((seq, frame.clone(), 1));
        let _ = self.ep.send_in(ctx, self.peer.0, self.peer.1, &frame);
        self.arm_timer(ctx.engine);
    }

    fn arm_timer(self: &Rc<Self>, engine: &mut Engine) {
        if let Some(t) = self.timer.borrow_mut().take() {
            engine.cancel(t);
        }
        let me = self.clone();
        let handle = engine.schedule_cancelable(self.config.retry_timeout, move |eng| {
            me.on_timeout(eng);
        });
        *self.timer.borrow_mut() = Some(handle);
    }

    fn on_timeout(self: &Rc<Self>, engine: &mut Engine) {
        let retransmit = {
            let mut inflight = self.inflight.borrow_mut();
            match inflight.as_mut() {
                None => return,
                Some((_, _, tries)) if *tries >= self.config.max_retries => {
                    // Give up on this datagram; the application's policy
                    // says bounded effort.
                    *inflight = None;
                    self.failed.set(self.failed.get() + 1);
                    None
                }
                Some((_, frame, tries)) => {
                    *tries += 1;
                    Some(frame.clone())
                }
            }
        };
        let cpu = self.stack.machine().cpu().clone();
        let mut lease = cpu.begin(engine.now());
        let mut ctx = RaiseCtx {
            engine,
            lease: &mut lease,
        };
        match retransmit {
            Some(frame) => {
                self.retransmits.set(self.retransmits.get() + 1);
                let _ = self.ep.send_in(&mut ctx, self.peer.0, self.peer.1, &frame);
                self.arm_timer(ctx.engine);
            }
            None => self.pump(&mut ctx), // Move on to the next datagram.
        }
    }

    fn on_ack(self: &Rc<Self>, ctx: &mut RaiseCtx<'_>, seq: u32) {
        let matched = {
            let mut inflight = self.inflight.borrow_mut();
            match inflight.as_ref() {
                Some((s, _, _)) if *s == seq => {
                    *inflight = None;
                    true
                }
                _ => false,
            }
        };
        if matched {
            self.delivered.set(self.delivered.get() + 1);
            if let Some(t) = self.timer.borrow_mut().take() {
                ctx.engine.cancel(t);
            }
            self.pump(ctx);
        }
    }
}

/// The receiving side: delivers each datagram exactly once, in order, and
/// acknowledges everything (including retransmitted duplicates).
pub struct ReliableReceiver {
    received: Rc<RefCell<Vec<Vec<u8>>>>,
    duplicates: Rc<Cell<u64>>,
}

impl ReliableReceiver {
    /// Binds the receiver on `port`.
    pub fn new(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
        port: u16,
    ) -> Result<ReliableReceiver, PlexusError> {
        let received: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
        let duplicates = Rc::new(Cell::new(0u64));
        let expected = Rc::new(Cell::new(0u32));
        let (r, dup, exp) = (received.clone(), duplicates.clone(), expected.clone());
        let ep_slot: Rc<RefCell<Option<Rc<plexus_core::UdpEndpoint>>>> =
            Rc::new(RefCell::new(None));
        let es = ep_slot.clone();
        let ep = stack.udp().bind(
            ext,
            port,
            UdpConfig { checksum: false },
            AppHandler::interrupt(move |ctx, ev: &UdpRecv| {
                let bytes = ev.payload.to_vec();
                let Some(d) = decode(&bytes) else {
                    return; // Corrupt or foreign: drop silently (no ACK).
                };
                if d.kind != KIND_DATA {
                    return;
                }
                if d.seq == exp.get() {
                    exp.set(exp.get().wrapping_add(1));
                    r.borrow_mut().push(d.data.to_vec());
                } else {
                    dup.set(dup.get() + 1);
                }
                // ACK whatever arrived so the sender makes progress.
                let ack = encode(KIND_ACK, d.seq, &[]);
                let ep = es.borrow().clone().expect("endpoint installed");
                let _ = ep.send_in(ctx, ev.src, ev.src_port, &ack);
            }),
        )?;
        *ep_slot.borrow_mut() = Some(ep);
        Ok(ReliableReceiver {
            received,
            duplicates,
        })
    }

    /// Datagrams delivered, in order.
    pub fn received(&self) -> Vec<Vec<u8>> {
        self.received.borrow().clone()
    }

    /// Retransmitted duplicates that were re-acknowledged but not
    /// re-delivered.
    pub fn duplicates(&self) -> u64 {
        self.duplicates.get()
    }
}
