//! The static verifier.
//!
//! `verify` proves, before a guard is installed, that the program:
//!
//! * loads only fields of its own event kind, and payload bytes only
//!   within the static window (`PAY_WINDOW`);
//! * reads only registers that are written on **every** path reaching the
//!   read;
//! * jumps only to in-range (forward) targets, reaches every instruction,
//!   and terminates every path with `Accept`/`Reject`;
//! * stays within the instruction-count and cost budgets (cost is a sound
//!   per-evaluation bound because control flow is forward-only), and
//!   touches only declared map state within its budget;
//! * and, under a [`Policy`], can only accept packets whose constrained
//!   fields provably lie inside the allowed value sets — the "cannot
//!   snoop" guarantee of §3.1: a guard installed on behalf of an
//!   application must constrain the destination port/address to that
//!   application's own binding.
//!
//! [`check_structure`] proves the per-instruction facts; everything that
//! depends on paths comes from one abstract interpretation
//! ([`crate::absint`]). All violations are collected into one
//! [`FilterReport`]; verification never stops at the first error, except
//! that a program over [`MAX_INSNS`] is judged on its length alone.

use std::collections::BTreeSet;
use std::fmt;

use crate::absint::{self, Lint};
use crate::inline::Inline;
use crate::ir::{
    EventKind, Field, FilterProgram, Insn, PortSet, Reg, Src, Width, MAX_COST, MAX_INSNS, NUM_REGS,
    PAY_WINDOW,
};
use crate::state::MAX_STATE_BYTES;

/// What a value-range constraint or abstract field refers to: a typed
/// field, or a raw payload load (offset + width).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FieldKey {
    /// A typed event field.
    Field(Field),
    /// A raw payload load at `(offset, width)`.
    Pay(u16, Width),
}

impl fmt::Display for FieldKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKey::Field(field) => write!(f, "{field}"),
            FieldKey::Pay(off, width) => write!(f, "payload[{off}..+{}]", width.bytes()),
        }
    }
}

/// An install-time policy: at every reachable `Accept`, each constrained
/// field must provably lie within its allowed set.
///
/// Every constraint lives in one list: its key, then the values it
/// allows. Two constraints on one key stay two, so both must hold. A
/// policy is verification scratch, dropped when the verifier returns, so
/// its first eight entries are held in place and only a longer list (a
/// spec file's) takes a heap call.
#[derive(Clone, Debug, Default)]
pub struct Policy {
    entries: Inline<PolicyEntry, POLICY_ROOM>,
}

#[derive(Clone, Copy, Debug)]
enum PolicyEntry {
    /// Opens a constraint on this field.
    Key(FieldKey),
    /// A value the open constraint allows.
    Allows(u64),
}

impl Default for PolicyEntry {
    /// Fills the unused slots of a policy held in place.
    fn default() -> PolicyEntry {
        PolicyEntry::Allows(0)
    }
}

/// Entries a policy holds in place: the four single-value constraints of
/// a connection's 4-tuple, or a binding's port and addresses, fit.
const POLICY_ROOM: usize = 8;

impl Policy {
    /// A policy with no constraints (verification only).
    pub fn new() -> Policy {
        Policy::default()
    }

    /// Requires `key` to be provably within `allowed` at every accept.
    pub fn require_in(mut self, key: FieldKey, allowed: impl IntoIterator<Item = u64>) -> Policy {
        self.entries.push(PolicyEntry::Key(key));
        self.entries
            .extend(allowed.into_iter().map(PolicyEntry::Allows));
        self
    }

    /// Requires `key` to be provably equal to `value` at every accept.
    pub fn require_eq(self, key: FieldKey, value: u64) -> Policy {
        self.require_in(key, [value])
    }

    /// Whether the policy constrains anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Each constraint in the order it was required: its key, and the
    /// values it allows (repeats included).
    pub(crate) fn constraints(
        &self,
    ) -> impl Iterator<Item = (FieldKey, impl Iterator<Item = u64> + Clone + '_)> {
        let entries = &self.entries;
        entries
            .iter()
            .enumerate()
            .filter_map(|(at, entry)| match entry {
                PolicyEntry::Key(key) => Some((
                    *key,
                    entries[at + 1..].iter().map_while(|entry| match entry {
                        PolicyEntry::Allows(v) => Some(*v),
                        PolicyEntry::Key(_) => None,
                    }),
                )),
                PolicyEntry::Allows(_) => None,
            })
    }
}

/// One verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// The program has no instructions.
    EmptyProgram,
    /// The program exceeds [`MAX_INSNS`].
    TooLong {
        /// Actual length.
        len: usize,
        /// The limit.
        max: usize,
    },
    /// Total static cost exceeds [`MAX_COST`].
    CostOverBudget {
        /// Total program cost.
        cost: u32,
        /// The budget.
        max: u32,
    },
    /// A `Ld` of a field belonging to a different event kind.
    FieldKindMismatch {
        /// Instruction index.
        at: usize,
        /// The mistyped field.
        field: Field,
        /// The program's declared kind.
        program_kind: EventKind,
    },
    /// A `LdPay` extending beyond the static payload window.
    OutOfBoundsLoad {
        /// Instruction index.
        at: usize,
        /// Load offset.
        off: u16,
        /// Load width.
        width: Width,
        /// The window size.
        window: u16,
    },
    /// A register index `>= NUM_REGS`.
    BadRegister {
        /// Instruction index.
        at: usize,
        /// The offending register index.
        reg: u8,
    },
    /// A jump whose target lies at or beyond the end of the program.
    JumpOutOfRange {
        /// Instruction index.
        at: usize,
        /// Computed target.
        target: usize,
        /// Program length.
        len: usize,
    },
    /// A `JInSet` naming a set the program does not carry.
    UnknownPortSet {
        /// Instruction index.
        at: usize,
        /// The missing set id.
        set: u16,
    },
    /// A register read on some path before any write.
    UndefinedRegister {
        /// Instruction index.
        at: usize,
        /// The register read.
        reg: u8,
    },
    /// An instruction no path can reach.
    Unreachable {
        /// Instruction index.
        at: usize,
    },
    /// A reachable path falls off the end without `Accept`/`Reject`.
    MissingTerminator {
        /// Index of the final instruction the path falls through.
        at: usize,
    },
    /// A reachable `Accept` where a policy-constrained field is not
    /// provably within its allowed set.
    PolicyViolation {
        /// Index of the offending `Accept`.
        at: usize,
        /// The constrained field.
        key: FieldKey,
        /// Values the policy allows.
        allowed: BTreeSet<u64>,
        /// Values the field may hold at this accept (`None` = unbounded).
        proven: Option<BTreeSet<u64>>,
    },
    /// A map instruction naming a map the program does not declare.
    UnknownMap {
        /// Instruction index.
        at: usize,
        /// The missing map id.
        map: u16,
    },
    /// A map operation that does not fit the map's declared kind (e.g.
    /// `MTake` on a counter map).
    MapKindMismatch {
        /// Instruction index.
        at: usize,
        /// The map id.
        map: u16,
        /// The map's declared kind name.
        kind: &'static str,
    },
    /// A map access whose index is not provably below the map's capacity.
    MapIndexOutOfBounds {
        /// Instruction index.
        at: usize,
        /// The map id.
        map: u16,
        /// Largest index the interval analysis admits.
        hi: u64,
        /// The map's declared capacity.
        capacity: u32,
    },
    /// Declared map state exceeding the program's byte budget (or a budget
    /// exceeding the global [`crate::state::MAX_STATE_BYTES`] cap).
    StateOverBudget {
        /// Bytes the maps (or the budget itself) occupy.
        bytes: u32,
        /// The budget they must fit.
        budget: u32,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyProgram => write!(f, "program is empty"),
            VerifyError::TooLong { len, max } => {
                write!(f, "program has {len} instructions (limit {max})")
            }
            VerifyError::CostOverBudget { cost, max } => {
                write!(f, "program cost {cost} exceeds budget {max}")
            }
            VerifyError::FieldKindMismatch {
                at,
                field,
                program_kind,
            } => write!(
                f,
                "insn {at}: field {field} belongs to {} events, program filters {program_kind}",
                field.kind()
            ),
            VerifyError::OutOfBoundsLoad {
                at,
                off,
                width,
                window,
            } => write!(
                f,
                "insn {at}: payload load [{off}..+{}] exceeds {window}-byte window",
                width.bytes()
            ),
            VerifyError::BadRegister { at, reg } => {
                write!(f, "insn {at}: register r{reg} out of range (0..{NUM_REGS})")
            }
            VerifyError::JumpOutOfRange { at, target, len } => {
                write!(
                    f,
                    "insn {at}: jump target {target} outside program (len {len})"
                )
            }
            VerifyError::UnknownPortSet { at, set } => {
                write!(f, "insn {at}: references unknown port set #{set}")
            }
            VerifyError::UndefinedRegister { at, reg } => {
                write!(f, "insn {at}: register r{reg} read before any write")
            }
            VerifyError::Unreachable { at } => write!(f, "insn {at}: unreachable"),
            VerifyError::MissingTerminator { at } => {
                write!(
                    f,
                    "insn {at}: execution can fall off the end of the program"
                )
            }
            VerifyError::PolicyViolation {
                at,
                key,
                allowed,
                proven,
            } => {
                write!(
                    f,
                    "insn {at}: policy violation: {key} must be within {allowed:?}, "
                )?;
                match proven {
                    Some(vals) => write!(f, "but may hold {vals:?}"),
                    None => write!(f, "but is unconstrained"),
                }
            }
            VerifyError::UnknownMap { at, map } => {
                write!(f, "insn {at}: references unknown state map #{map}")
            }
            VerifyError::MapKindMismatch { at, map, kind } => {
                write!(
                    f,
                    "insn {at}: operation does not fit {kind} map #{map} \
                     (bump needs a counter, take needs a bucket)"
                )
            }
            VerifyError::MapIndexOutOfBounds {
                at,
                map,
                hi,
                capacity,
            } => write!(
                f,
                "insn {at}: map #{map} index may reach {hi} but capacity is \
                 {capacity}; mask or range-check the index below the capacity"
            ),
            VerifyError::StateOverBudget { bytes, budget } => write!(
                f,
                "declared map state {bytes} B exceeds budget {budget} B; \
                 shrink map capacities or raise the declared budget"
            ),
        }
    }
}

/// The complete result of a failed verification: every violation found.
#[derive(Clone, Debug, Default)]
pub struct FilterReport {
    /// All violations, in discovery order.
    pub errors: Vec<VerifyError>,
}

impl FilterReport {
    /// Whether verification found no violations.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Whether any error is a [`VerifyError::PolicyViolation`].
    pub fn has_policy_violation(&self) -> bool {
        self.errors
            .iter()
            .any(|e| matches!(e, VerifyError::PolicyViolation { .. }))
    }
}

impl fmt::Display for FilterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "guard verification failed ({} error(s)):",
            self.errors.len()
        )?;
        for e in &self.errors {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FilterReport {}

/// A program that passed verification. Unforgeable: the only way to obtain
/// one is through [`verify`] / [`verify_with_policy`] / [`verify_owned`],
/// so holding a `VerifiedProgram` is proof of the verifier's guarantees.
#[derive(Debug)]
pub struct VerifiedProgram {
    program: FilterProgram,
    compiled: crate::compile::CompiledProgram,
    static_bound: u32,
    state_bytes: u32,
    lints: Vec<Lint>,
    key: Option<KeySpec>,
}

impl VerifiedProgram {
    /// The underlying program (read-only).
    pub fn program(&self) -> &FilterProgram {
        &self.program
    }

    /// The event kind this guard filters.
    pub fn kind(&self) -> EventKind {
        self.program.kind
    }

    /// The static worst-case cycle bound: no evaluation of this program
    /// on any packet spends more cycles than this (the most any feasible
    /// path spends, [`crate::absint`]). Never more than
    /// [`FilterProgram::total_cost`]. The dispatcher admits
    /// interrupt-level installs against this number, and `eval_metered`
    /// never reports more.
    pub fn static_bound(&self) -> u32 {
        self.static_bound
    }

    /// Total bytes of declared map state, proven within the program's
    /// budget.
    pub fn state_bytes(&self) -> u32 {
        self.state_bytes
    }

    /// Advisory lints found during verification (the program is still
    /// valid).
    pub fn lints(&self) -> &[Lint] {
        &self.lints
    }

    /// The compiled tier: the program lowered to fused threaded code at
    /// verification time. Shares the interpreter's port sets and state
    /// maps, reports the same metered cycles, and is what the dispatcher
    /// runs on the hot path by default.
    pub fn compiled(&self) -> &crate::compile::CompiledProgram {
        &self.compiled
    }

    /// The demux key verification proved (see [`KeySpec`]), or `None`
    /// when the value-set analysis bounds no schema field — the
    /// dispatcher then keeps the guard on its linear-scan path.
    pub fn demux_key(&self) -> Option<&KeySpec> {
        self.key.as_ref()
    }
}

/// Verifies `program` with no policy constraints.
pub fn verify(program: &FilterProgram) -> Result<VerifiedProgram, FilterReport> {
    verify_with_policy(program, &Policy::new())
}

/// Verifies `program`, additionally proving `policy` at every accept.
pub fn verify_with_policy(
    program: &FilterProgram,
    policy: &Policy,
) -> Result<VerifiedProgram, FilterReport> {
    verify_owned(program.clone(), policy)
}

/// [`verify_with_policy`] for a program the caller has no further use
/// for: the verified program keeps it, so nothing is copied.
pub fn verify_owned(
    program: FilterProgram,
    policy: &Policy,
) -> Result<VerifiedProgram, FilterReport> {
    let mut report = FilterReport::default();
    let len = program.insns.len();

    if len == 0 {
        report.errors.push(VerifyError::EmptyProgram);
        return Err(report);
    }
    let too_long = len > MAX_INSNS;
    if too_long {
        report.errors.push(VerifyError::TooLong {
            len,
            max: MAX_INSNS,
        });
    }
    let cost = program.total_cost();
    if cost > MAX_COST {
        report.errors.push(VerifyError::CostOverBudget {
            cost,
            max: MAX_COST,
        });
    }
    // An over-long program is judged on its length alone: a spec file can
    // ask for any length, and no analysis should scale with that.
    if too_long || !check_structure(&program, &mut report) {
        return Err(report);
    }

    let facts = absint::interpret(&program, policy, &mut report.errors);
    let state_bytes = program.state_bytes();
    if program.state_budget > MAX_STATE_BYTES {
        report.errors.push(VerifyError::StateOverBudget {
            bytes: program.state_budget,
            budget: MAX_STATE_BYTES,
        });
    } else if state_bytes > program.state_budget {
        report.errors.push(VerifyError::StateOverBudget {
            bytes: state_bytes,
            budget: program.state_budget,
        });
    }
    if !report.is_clean() {
        return Err(report);
    }

    // Lower the accepted program to the compiled tier here, inside the
    // verifier's success path: the op list shares the program's port sets
    // and state maps by handle, so the interpreter and the compiled tier
    // observe (and mutate) identical state.
    let compiled = crate::compile::compile(&program);
    Ok(VerifiedProgram {
        program,
        compiled,
        static_bound: facts.bound,
        state_bytes,
        lints: facts.lints,
        key: facts.key,
    })
}

/// Per-instruction well-formedness: register indices, field kinds, payload
/// bounds, jump ranges, set and map ids. Returns whether the program is
/// structurally sound enough for the abstract interpretation.
fn check_structure(program: &FilterProgram, report: &mut FilterReport) -> bool {
    let len = program.insns.len();
    let before = report.errors.len();

    let check_reg = |at: usize, r: Reg, report: &mut FilterReport| {
        if (r.0 as usize) >= NUM_REGS {
            report
                .errors
                .push(VerifyError::BadRegister { at, reg: r.0 });
        }
    };
    let check_src = |at: usize, s: Src, report: &mut FilterReport| {
        if let Src::Reg(r) = s {
            if (r.0 as usize) >= NUM_REGS {
                report
                    .errors
                    .push(VerifyError::BadRegister { at, reg: r.0 });
            }
        }
    };
    let check_jump = |at: usize, off: u16, report: &mut FilterReport| {
        let target = at + 1 + off as usize;
        if target >= len {
            report
                .errors
                .push(VerifyError::JumpOutOfRange { at, target, len });
        }
    };

    for (at, insn) in program.insns.iter().enumerate() {
        match insn {
            Insn::Ld { dst, field } => {
                check_reg(at, *dst, report);
                if field.kind() != program.kind {
                    report.errors.push(VerifyError::FieldKindMismatch {
                        at,
                        field: *field,
                        program_kind: program.kind,
                    });
                }
            }
            Insn::LdImm { dst, .. } => check_reg(at, *dst, report),
            Insn::LdPay { dst, off, width } => {
                check_reg(at, *dst, report);
                if off
                    .checked_add(width.bytes())
                    .is_none_or(|end| end > PAY_WINDOW)
                {
                    report.errors.push(VerifyError::OutOfBoundsLoad {
                        at,
                        off: *off,
                        width: *width,
                        window: PAY_WINDOW,
                    });
                }
            }
            Insn::And { dst, src } | Insn::Or { dst, src } => {
                check_reg(at, *dst, report);
                check_src(at, *src, report);
            }
            Insn::Jeq { a, b, off }
            | Insn::Jne { a, b, off }
            | Insn::Jlt { a, b, off }
            | Insn::Jgt { a, b, off } => {
                check_reg(at, *a, report);
                check_src(at, *b, report);
                check_jump(at, *off, report);
            }
            Insn::JInSet { a, set, off } => {
                check_reg(at, *a, report);
                if (*set as usize) >= program.sets.len() {
                    report
                        .errors
                        .push(VerifyError::UnknownPortSet { at, set: *set });
                }
                check_jump(at, *off, report);
            }
            Insn::Ja { off } => check_jump(at, *off, report),
            Insn::MBump { dst, map, idx }
            | Insn::MLoad { dst, map, idx }
            | Insn::MTake { dst, map, idx } => {
                check_reg(at, *dst, report);
                check_reg(at, *idx, report);
                if (*map as usize) >= program.maps.len() {
                    report
                        .errors
                        .push(VerifyError::UnknownMap { at, map: *map });
                }
            }
            Insn::Accept | Insn::Reject => {}
        }
    }

    report.errors.len() == before
}

/// The declared demultiplexing key schema for each event kind: the ordered
/// fields a dispatcher may hash on. Chosen to match what the stack's guards
/// actually test — ethertype at the link layer, (protocol, transport
/// destination port) at the IP layer, destination port for UDP, and the
/// connection 3-tuple for TCP.
///
/// `IpRecv` keys the transport destination port as a *payload* load
/// (`Pay(2, W16)`) because that is how IP-level guards address it: the
/// port sits 2 bytes into the IP payload for both UDP and TCP.
pub fn key_schema(kind: EventKind) -> &'static [FieldKey] {
    match kind {
        EventKind::EthRecv => &[FieldKey::Field(Field::EthType)],
        EventKind::IpRecv => &[
            FieldKey::Field(Field::IpProto),
            FieldKey::Pay(2, Width::W16),
        ],
        EventKind::UdpRecv => &[FieldKey::Field(Field::UdpDstPort)],
        EventKind::TcpRecv => &[
            FieldKey::Field(Field::TcpDstPort),
            FieldKey::Field(Field::TcpSrcAddr),
            FieldKey::Field(Field::TcpSrcPort),
        ],
    }
}

/// Cap on the number of hash keys one guard may occupy in the demux index
/// (the cross product of its per-field value sets). Guards over the cap
/// have their widest field demoted to [`FieldSpec::Any`] — still sound,
/// just less selective.
pub const MAX_ENUMERATED_KEYS: usize = 64;

/// Most fields a [`key_schema`] has (`TcpRecv`'s).
pub(crate) const KEY_FIELDS: usize = 3;

/// What a guard provably requires of one schema field at every accept.
#[derive(Clone, Copy, Debug)]
pub enum FieldSpec<'k> {
    /// No static constraint: the guard may accept any value here.
    Any,
    /// The guard only accepts packets whose field value is one of these,
    /// listed once each, ascending.
    In(&'k [u64]),
    /// The guard only accepts packets whose field value (as a u16 port) is
    /// in none of these shared sets — checked live, since set contents are
    /// dynamic.
    NotIn(&'k [PortSet]),
}

/// How a [`KeySpec`] bounds one field: `In` and `NotIn` name their run
/// of the key's values or sets.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Shape {
    Any,
    In(u8, u8),
    NotIn(u8, u8),
}

/// A guard's extracted demux key: one [`FieldSpec`] per field of its event
/// kind's [`key_schema`], in schema order.
///
/// Soundness invariant: for every packet the guard accepts, each `In`
/// field's observed value lies in the spec's set, and each `NotIn` field's
/// value is a member of none of the named sets *at the time of dispatch*.
/// The converse need not hold — a key match does not imply acceptance —
/// so an index built from key specs can only *narrow* the candidate set,
/// never admit a handler whose guard would reject.
///
/// Every `In` field's values sit in one list, held in place up to four
/// (a UDP binding's key holds one, a connection's three): a key whose
/// fields are all `In` or `Any` and that names at most four values takes
/// no heap call of its own.
#[derive(Clone, Debug)]
pub struct KeySpec {
    kind: EventKind,
    shapes: [Shape; KEY_FIELDS],
    values: KeyValues,
    sets: Box<[PortSet]>,
}

/// `In` values a [`KeySpec`] holds without a heap call.
const KEY_VALUES_INLINE: usize = 4;

/// A key's `In` values, every field's run in one list.
pub(crate) type KeyValues = Inline<u64, KEY_VALUES_INLINE>;

impl KeySpec {
    /// A key over `kind`'s schema from its fields' shapes and the runs
    /// they name. `None` when no field is `In`: such a guard would hash
    /// nowhere.
    pub(crate) fn new(
        kind: EventKind,
        shapes: [Shape; KEY_FIELDS],
        values: KeyValues,
        sets: Box<[PortSet]>,
    ) -> Option<KeySpec> {
        let indexable = shapes[..key_schema(kind).len()]
            .iter()
            .any(|s| matches!(s, Shape::In(..)));
        indexable.then_some(KeySpec {
            kind,
            shapes,
            values,
            sets,
        })
    }

    /// The event kind whose schema this key is over.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Per-field specs, aligned with `key_schema(self.kind())`.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = FieldSpec<'_>> + Clone + '_ {
        let run = |a: u8, b: u8| usize::from(a)..usize::from(b);
        self.shapes[..key_schema(self.kind).len()]
            .iter()
            .map(move |shape| match *shape {
                Shape::Any => FieldSpec::Any,
                Shape::In(a, b) => FieldSpec::In(&self.values[run(a, b)]),
                Shape::NotIn(a, b) => FieldSpec::NotIn(&self.sets[run(a, b)]),
            })
    }
}
