//! Active messages over Ethernet (§3.3, Figure 2).
//!
//! An active message carries the index of a handler to run on arrival plus
//! a small payload; the protocol "does little more than reference memory
//! and reply with an acknowledgement", so it exhibits the best performance
//! running at interrupt level as an `EPHEMERAL` procedure. This module is
//! the paper's example extension: a guard that discriminates on the
//! Ethernet type field (via `VIEW`) and an ephemeral handler dispatching
//! into a user-registered handler table.
//!
//! Wire format after the Ethernet header:
//!
//! ```text
//! 0       2              10
//! | index |   argument   |  payload...
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use plexus_core::{AppHandler, EthRecv, PlexusError, PlexusStack};
use plexus_kernel::domain::{ExtensionSpec, LinkedExtension};
use plexus_kernel::view::{be16, put_be16, view_at, WireView};
use plexus_kernel::RaiseCtx;
use plexus_net::ether::{EtherType, EtherView, MacAddr, ETHER_HDR_LEN};
use plexus_sim::Engine;

/// Active-message header length (after the Ethernet header).
pub(crate) const AM_HDR_LEN: usize = 10;

/// Zero-copy view of an active-message header.
pub(crate) struct AmView<'a>(&'a [u8]);

impl<'a> WireView<'a> for AmView<'a> {
    const WIRE_SIZE: usize = AM_HDR_LEN;
    fn from_prefix(bytes: &'a [u8]) -> Self {
        AmView(bytes)
    }
}

impl AmView<'_> {
    /// Handler-table index.
    pub(crate) fn index(&self) -> u16 {
        be16(self.0, 0)
    }

    /// The 64-bit argument word.
    pub(crate) fn argument(&self) -> u64 {
        u64::from_be_bytes(self.0[2..10].try_into().expect("length checked"))
    }
}

/// A received active message, as passed to registered handlers.
#[derive(Debug)]
pub struct ActiveMessage {
    /// Sender MAC.
    pub src: MacAddr,
    /// Handler index it was dispatched on.
    pub index: u16,
    /// The argument word.
    pub argument: u64,
    /// Trailing payload bytes.
    pub payload: Vec<u8>,
}

/// An active-message handler: must be quick and non-blocking; it runs at
/// interrupt level.
pub(crate) type AmHandler = Rc<dyn Fn(&mut RaiseCtx<'_>, &ActiveMessage)>;

/// The extension spec an active-message module links with.
pub fn am_extension_spec(name: &str) -> ExtensionSpec {
    ExtensionSpec::typesafe(name, &["Ethernet.Attach", "Ethernet.Send", "Mbuf.Alloc"])
}

/// An active-message endpoint on one machine.
pub struct ActiveMessages {
    stack: Rc<PlexusStack>,
    handlers: Rc<RefCell<HashMap<u16, AmHandler>>>,
    received: Rc<Cell<u64>>,
}

impl ActiveMessages {
    /// Installs the guard/handler pair of Figure 2 on
    /// `Ethernet.PacketRecv`, at interrupt level.
    pub fn install(
        stack: &Rc<PlexusStack>,
        ext: &LinkedExtension,
    ) -> Result<ActiveMessages, PlexusError> {
        let handlers: Rc<RefCell<HashMap<u16, AmHandler>>> = Rc::new(RefCell::new(HashMap::new()));
        let received = Rc::new(Cell::new(0u64));
        let (h, r) = (handlers.clone(), received.clone());
        stack.attach_ether(
            ext,
            EtherType::ACTIVE_MESSAGE,
            AppHandler::interrupt(move |ctx, ev: &EthRecv| {
                // VIEW the Ethernet header, then the AM header behind it —
                // the Figure 2 pattern.
                let head = ev.mbuf.head();
                let Some(eth) = plexus_kernel::view::view::<EtherView>(head) else {
                    return;
                };
                let Some(am) = view_at::<AmView>(head, ETHER_HDR_LEN) else {
                    return;
                };
                // Peek the headers in place, then gather the payload from
                // wherever the chain put it — the head slice only covers
                // the first cluster, so slicing it would truncate frames
                // whose payload spills into a continuation segment.
                let hdr = ETHER_HDR_LEN + AM_HDR_LEN;
                let mut payload = Vec::new();
                ev.mbuf
                    .copy_into(hdr, ev.mbuf.total_len() - hdr, &mut payload);
                let msg = ActiveMessage {
                    src: eth.src(),
                    index: am.index(),
                    argument: am.argument(),
                    payload,
                };
                let handler = h.borrow().get(&msg.index).cloned();
                if let Some(handler) = handler {
                    r.set(r.get() + 1);
                    if let Some(rec) = ctx.lease.recorder() {
                        let lbl = rec.intern("active_messages");
                        rec.count(plexus_trace::Scope::App, lbl, "dispatched", 1);
                    }
                    handler(ctx, &msg);
                }
            }),
        )?;
        Ok(ActiveMessages {
            stack: stack.clone(),
            handlers,
            received,
        })
    }

    /// Registers `handler` at `index`, replacing any previous registration.
    pub fn register<F>(&self, index: u16, handler: F)
    where
        F: Fn(&mut RaiseCtx<'_>, &ActiveMessage) + 'static,
    {
        self.handlers.borrow_mut().insert(index, Rc::new(handler));
    }

    /// Messages dispatched to registered handlers so far.
    pub fn received(&self) -> u64 {
        self.received.get()
    }

    /// Sends an active message (top-level entry).
    pub fn send(
        &self,
        engine: &mut Engine,
        dst: MacAddr,
        index: u16,
        argument: u64,
        payload: &[u8],
    ) -> Result<(), PlexusError> {
        let frame = encode(index, argument, payload);
        self.stack
            .send_ether(engine, dst, EtherType::ACTIVE_MESSAGE, &frame)
    }

    /// Sends a reply from inside a handler (e.g. the acknowledgement the
    /// paper's request/response pattern uses).
    pub fn reply_in(
        &self,
        ctx: &mut RaiseCtx<'_>,
        dst: MacAddr,
        index: u16,
        argument: u64,
        payload: &[u8],
    ) {
        let frame = encode(index, argument, payload);
        // Manager-mediated: the EtherType is fixed to the extension's own,
        // so the system stack cannot be spoofed.
        let _ = self
            .stack
            .send_ether_in(ctx, dst, EtherType::ACTIVE_MESSAGE, &frame);
    }
}

/// Serializes an AM header + payload (without the Ethernet header).
pub(crate) fn encode(index: u16, argument: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; AM_HDR_LEN + payload.len()];
    put_be16(&mut out, 0, index);
    out[2..10].copy_from_slice(&argument.to_be_bytes());
    out[AM_HDR_LEN..].copy_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_kernel::view::view;

    #[test]
    fn header_round_trips() {
        let bytes = encode(7, 0xDEAD_BEEF_0123_4567, b"pp");
        let v: AmView = view(&bytes).expect("long enough");
        assert_eq!(v.index(), 7);
        assert_eq!(v.argument(), 0xDEAD_BEEF_0123_4567);
        assert_eq!(&bytes[AM_HDR_LEN..], b"pp");
    }

    #[test]
    fn short_messages_not_viewable() {
        assert!(view::<AmView>(&[0u8; AM_HDR_LEN - 1]).is_none());
    }
}
