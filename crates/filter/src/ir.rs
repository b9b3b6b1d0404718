//! The guard intermediate representation.
//!
//! A [`FilterProgram`] is a straight-line predicate over one typed network
//! event: it loads typed fields (or raw payload bytes) into registers,
//! compares them against immediates or other registers, and terminates with
//! [`Insn::Accept`] or [`Insn::Reject`]. All control flow is **forward
//! only** — a jump target is always `pc + 1 + off` with `off: u16 >= 0` —
//! so every program terminates and each instruction executes at most once.
//!
//! Programs are *data*, not code: a protocol manager can inspect, verify,
//! and reason about a guard it installs on behalf of an untrusted
//! extension, which is impossible with an opaque closure.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

/// Hard limit on program length.
pub const MAX_INSNS: usize = 64;

/// Hard limit on total static cost (a sound bound on any execution, since
/// control flow is forward-only).
pub const MAX_COST: u32 = 96;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 8;

/// Static bound on payload-byte loads: `LdPay` must address within the
/// first `PAY_WINDOW` bytes of the event's contiguous head.
pub const PAY_WINDOW: u16 = 64;

/// The event type a program is written against. Field loads are typed by
/// kind; a program only ever evaluates events of its own kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Raw Ethernet frame receive (`EthRecv`).
    EthRecv,
    /// IP datagram receive (`IpRecv`).
    IpRecv,
    /// Demultiplexed UDP receive (`UdpRecv`).
    UdpRecv,
    /// Demultiplexed TCP segment receive (`TcpRecv`).
    TcpRecv,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A typed field of a network event. Each field belongs to exactly one
/// [`EventKind`]; loading it from any other kind is a verification error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Field {
    /// Destination MAC address, as a 48-bit integer (EthRecv).
    EthDst,
    /// Source MAC address, as a 48-bit integer (EthRecv).
    EthSrc,
    /// Ethertype (EthRecv).
    EthType,
    /// Total frame length in bytes (EthRecv).
    FrameLen,
    /// Source IPv4 address as a u32 (IpRecv).
    IpSrc,
    /// Destination IPv4 address as a u32 (IpRecv).
    IpDst,
    /// IP protocol number (IpRecv).
    IpProto,
    /// IP payload length in bytes (IpRecv).
    IpPayloadLen,
    /// Source IPv4 address (UdpRecv).
    UdpSrcAddr,
    /// Destination IPv4 address (UdpRecv).
    UdpDstAddr,
    /// UDP source port (UdpRecv).
    UdpSrcPort,
    /// UDP destination port (UdpRecv).
    UdpDstPort,
    /// UDP payload length in bytes (UdpRecv).
    UdpPayloadLen,
    /// Source IPv4 address (TcpRecv).
    TcpSrcAddr,
    /// Destination IPv4 address (TcpRecv).
    TcpDstAddr,
    /// TCP source port (TcpRecv).
    TcpSrcPort,
    /// TCP destination port (TcpRecv).
    TcpDstPort,
    /// SYN flag as 0/1 (TcpRecv).
    TcpFlagSyn,
    /// ACK flag as 0/1 (TcpRecv).
    TcpFlagAck,
    /// TCP payload length in bytes (TcpRecv).
    TcpPayloadLen,
}

impl Field {
    /// The event kind this field belongs to.
    pub fn kind(self) -> EventKind {
        use Field::*;
        match self {
            EthDst | EthSrc | EthType | FrameLen => EventKind::EthRecv,
            IpSrc | IpDst | IpProto | IpPayloadLen => EventKind::IpRecv,
            UdpSrcAddr | UdpDstAddr | UdpSrcPort | UdpDstPort | UdpPayloadLen => EventKind::UdpRecv,
            TcpSrcAddr | TcpDstAddr | TcpSrcPort | TcpDstPort | TcpFlagSyn | TcpFlagAck
            | TcpPayloadLen => EventKind::TcpRecv,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Width of a raw payload load.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Width {
    /// One byte.
    W8,
    /// Two bytes, big-endian.
    W16,
    /// Four bytes, big-endian.
    W32,
}

impl Width {
    /// Load width in bytes.
    pub(crate) fn bytes(self) -> u16 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
        }
    }
}

/// A register index (`0..NUM_REGS`). Out-of-range indices are rejected by
/// the verifier and fault in the unchecked interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reg(pub u8);

/// Second operand of ALU/compare instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Another register.
    Reg(Reg),
    /// An immediate constant.
    Imm(u64),
}

/// Index into [`FilterProgram::sets`].
pub type SetId = u16;

/// Index into [`FilterProgram::maps`].
pub type MapId = u16;

/// One guard instruction. Jump targets are `pc + 1 + off` (forward only).
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field roles are given in each variant's doc line
pub enum Insn {
    /// `dst <- field(event)`.
    Ld { dst: Reg, field: Field },
    /// `dst <- imm`.
    LdImm { dst: Reg, imm: u64 },
    /// `dst <- big-endian load of `width` bytes at `off` in the payload head.
    LdPay { dst: Reg, off: u16, width: Width },
    /// `dst <- dst & src`.
    And { dst: Reg, src: Src },
    /// `dst <- dst | src`.
    Or { dst: Reg, src: Src },
    /// Jump forward `off` if `a == b`.
    Jeq { a: Reg, b: Src, off: u16 },
    /// Jump forward `off` if `a != b`.
    Jne { a: Reg, b: Src, off: u16 },
    /// Jump forward `off` if `a < b`.
    Jlt { a: Reg, b: Src, off: u16 },
    /// Jump forward `off` if `a > b`.
    Jgt { a: Reg, b: Src, off: u16 },
    /// Jump forward `off` if `a` (as a port number) is in the shared set.
    JInSet { a: Reg, set: SetId, off: u16 },
    /// Unconditional forward jump.
    Ja { off: u16 },
    /// `dst <- ++map[idx]` (saturating): bump a counter-map slot.
    MBump { dst: Reg, map: MapId, idx: Reg },
    /// `dst <- map[idx]`: read a map slot (count or token balance).
    MLoad { dst: Reg, map: MapId, idx: Reg },
    /// `dst <- take(map[idx])`: refill a token-bucket slot, take one
    /// token; `dst` is 1 if a token was available, else 0.
    MTake { dst: Reg, map: MapId, idx: Reg },
    /// Terminate: the guard matches.
    Accept,
    /// Terminate: the guard does not match.
    Reject,
}

/// A shared, mutable set of ports referenced by [`Insn::JInSet`].
///
/// The handle is shared between the installed program and its manager, so
/// the manager can grow or shrink the set (e.g. the UDP manager's special
/// ports) without reinstalling — mirroring how the original closure guards
/// captured an `Rc<RefCell<HashSet<u16>>>`.
#[derive(Clone, Debug, Default)]
pub struct PortSet(Rc<RefCell<BTreeSet<u16>>>);

impl PortSet {
    /// Creates an empty set.
    pub fn new() -> PortSet {
        PortSet::default()
    }

    /// Adds a port; returns whether it was newly inserted.
    pub fn insert(&self, port: u16) -> bool {
        self.0.borrow_mut().insert(port)
    }

    /// Removes a port; returns whether it was present.
    pub fn remove(&self, port: u16) -> bool {
        self.0.borrow_mut().remove(&port)
    }

    /// Membership test.
    pub fn contains(&self, port: u16) -> bool {
        self.0.borrow().contains(&port)
    }

    /// Snapshot of the current contents.
    pub fn snapshot(&self) -> BTreeSet<u16> {
        self.0.borrow().clone()
    }
}

/// A complete guard program: typed against one event kind, with the shared
/// port sets its `JInSet` instructions reference and the bounded state
/// maps its map instructions address.
#[derive(Clone, Debug)]
pub struct FilterProgram {
    /// Event kind this program filters.
    pub kind: EventKind,
    /// Instruction sequence.
    pub insns: Vec<Insn>,
    /// Shared port sets addressed by [`SetId`].
    pub sets: Vec<PortSet>,
    /// Declared state maps addressed by [`MapId`].
    pub maps: Vec<crate::state::StateMap>,
    /// Declared total state budget in bytes: verification fails unless the
    /// maps' combined footprint fits (and the budget itself fits
    /// [`crate::state::MAX_STATE_BYTES`]).
    pub state_budget: u32,
}

impl FilterProgram {
    /// A program over `kind` with no shared sets and no state.
    pub fn new(kind: EventKind, insns: Vec<Insn>) -> FilterProgram {
        FilterProgram {
            kind,
            insns,
            sets: Vec::new(),
            maps: Vec::new(),
            state_budget: 0,
        }
    }

    /// Combined footprint of the declared maps, in bytes.
    pub(crate) fn state_bytes(&self) -> u32 {
        self.maps
            .iter()
            .fold(0u32, |acc, m| acc.saturating_add(m.state_bytes()))
    }
}
