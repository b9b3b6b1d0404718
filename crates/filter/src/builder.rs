//! Declarative guard construction.
//!
//! Protocol managers describe a guard as a conjunction of [`Test`]s and
//! [`conjunction`] compiles it to IR: each test either falls through to
//! the next or jumps to a shared failure label; the final fall-through is
//! `Accept`. All emitted control flow is forward, so the result always
//! verifies for termination, and the `Jeq`/`Jne` shapes it emits are
//! exactly what the verifier's value-range analysis understands — a guard
//! built with `conjunction` proves its own policy compliance.

use crate::inline::Inline;
use crate::ir::{EventKind, Field, FilterProgram, Insn, MapId, PortSet, Reg, SetId, Src, Width};
use crate::state::StateMap;

/// What a test examines: a typed field or raw payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A typed event field.
    Field(Field),
    /// A big-endian payload load at `(offset, width)`.
    Pay {
        /// Byte offset into the payload head.
        off: u16,
        /// Load width.
        width: Width,
    },
}

/// Values a [`Test::In`] holds without a heap call: a binding's
/// `{address, broadcast}` pair fits, with room to spare.
const IN_VALUES_INLINE: usize = 4;

/// One conjunct of a guard predicate.
#[derive(Clone, Debug)]
pub enum Test {
    /// The operand must equal `value` (an [`Test::In`] of one value, held
    /// inline).
    Eq {
        /// What to load.
        op: Operand,
        /// The accepted value.
        value: u64,
    },
    /// The operand must equal one of `values`.
    In {
        /// What to load.
        op: Operand,
        /// Accepted values (must be non-empty); up to four are held in
        /// place, more on the heap.
        values: Inline<u64, IN_VALUES_INLINE>,
    },
    /// The operand must be a member of the shared port set.
    InSet {
        /// What to load.
        op: Operand,
        /// Which of the program's sets to probe.
        set: SetId,
    },
    /// The operand must **not** be a member of the shared port set.
    NotInSet {
        /// What to load.
        op: Operand,
        /// Which of the program's sets to probe.
        set: SetId,
    },
    /// The operand, masked, selects a token-bucket slot that must yield a
    /// token — per-flow rate limiting *inside* the guard, so over-rate
    /// packets are dropped before any handler (or thread) exists.
    /// The map's capacity must exceed `mask` for the program to verify.
    TakeToken {
        /// What to load (the flow key).
        op: Operand,
        /// Mask applied to the loaded value to form the slot index.
        mask: u64,
        /// Which of the program's maps to draw from.
        map: MapId,
    },
    /// The operand, masked, selects a counter slot to bump — per-flow
    /// accounting in the guard. Never fails the conjunction.
    Count {
        /// What to load (the flow key).
        op: Operand,
        /// Mask applied to the loaded value to form the slot index.
        mask: u64,
        /// Which of the program's maps to bump.
        map: MapId,
    },
}

impl Test {
    /// `op == value`.
    pub fn eq(op: Operand, value: u64) -> Test {
        Test::Eq { op, value }
    }

    /// `op ∈ values`.
    pub fn one_of(op: Operand, values: impl IntoIterator<Item = u64>) -> Test {
        Test::In {
            op,
            values: values.into_iter().collect(),
        }
    }

    /// Instructions the test compiles to.
    fn len(&self) -> usize {
        match self {
            Test::Eq { .. } => 2,
            Test::In { values, .. } => 1 + values.len(),
            Test::InSet { .. } => 3,
            Test::NotInSet { .. } => 2,
            Test::TakeToken { .. } => 4,
            Test::Count { .. } => 3,
        }
    }

    /// Whether a packet can fail the test (a `Count` never does).
    fn can_fail(&self) -> bool {
        !matches!(self, Test::Count { .. })
    }
}

/// The offset that takes a jump at `at` to `target`. A jump longer than
/// `u16` only arises in a program tens of thousands of instructions past
/// `MAX_INSNS` (a spec file's `in` list can ask for one), which the
/// verifier rejects on its length before it reads any jump: saturate
/// rather than panic.
fn off(at: usize, target: usize) -> u16 {
    u16::try_from(target - at - 1).unwrap_or(u16::MAX)
}

/// Compiles the conjunction of `tests` over `kind` events into a
/// [`FilterProgram`] carrying `sets`.
///
/// Panics on malformed input (an `In` test with no values, or a `set` id
/// with no backing entry) — these are builder-usage bugs, not packet-time
/// conditions. A test list too long for the IR still builds, into a
/// program [`crate::verify`] rejects as `TooLong`.
pub fn conjunction(kind: EventKind, tests: &[Test], sets: Vec<PortSet>) -> FilterProgram {
    conjunction_stateful(kind, tests, sets, Vec::new(), 0)
}

/// [`conjunction`] for guards that declare bounded state: the program
/// carries `maps` under `state_budget` bytes, and tests may reference
/// them ([`Test::TakeToken`], [`Test::Count`]).
pub fn conjunction_stateful(
    kind: EventKind,
    tests: &[Test],
    sets: Vec<PortSet>,
    maps: Vec<StateMap>,
    state_budget: u32,
) -> FilterProgram {
    let r0 = Reg(0);
    // Map results land in r1 so they never clobber the operand register
    // mid-test.
    let r1 = Reg(1);
    // Every test's length is known up front, so each jump is emitted with
    // its final offset: the failure label is the `Reject` after the
    // closing `Accept`, and a test passes to the instruction after its own.
    let body: usize = tests.iter().map(Test::len).sum();
    let fail = body + 1;
    let rejects = tests.iter().any(Test::can_fail);
    let mut insns: Vec<Insn> = Vec::with_capacity(fail + usize::from(rejects));

    let load = |op: Operand, insns: &mut Vec<Insn>| match op {
        Operand::Field(field) => insns.push(Insn::Ld { dst: r0, field }),
        Operand::Pay { off, width } => insns.push(Insn::LdPay {
            dst: r0,
            off,
            width,
        }),
    };

    for test in tests {
        let next = insns.len() + test.len();
        match test {
            Test::Eq { op, value } => {
                load(*op, &mut insns);
                insns.push(Insn::Jne {
                    a: r0,
                    b: Src::Imm(*value),
                    off: off(insns.len(), fail),
                });
            }
            Test::In { op, values } => {
                assert!(!values.is_empty(), "Test::In with no values");
                load(*op, &mut insns);
                let (last, rest) = values.split_last().expect("non-empty");
                for v in rest {
                    insns.push(Insn::Jeq {
                        a: r0,
                        b: Src::Imm(*v),
                        off: off(insns.len(), next),
                    });
                }
                insns.push(Insn::Jne {
                    a: r0,
                    b: Src::Imm(*last),
                    off: off(insns.len(), fail),
                });
            }
            Test::InSet { op, set } => {
                assert!((*set as usize) < sets.len(), "Test::InSet names no set");
                load(*op, &mut insns);
                insns.push(Insn::JInSet {
                    a: r0,
                    set: *set,
                    off: off(insns.len(), next),
                });
                insns.push(Insn::Ja {
                    off: off(insns.len(), fail),
                });
            }
            Test::NotInSet { op, set } => {
                assert!((*set as usize) < sets.len(), "Test::NotInSet names no set");
                load(*op, &mut insns);
                insns.push(Insn::JInSet {
                    a: r0,
                    set: *set,
                    off: off(insns.len(), fail),
                });
            }
            Test::TakeToken { op, mask, map } => {
                assert!((*map as usize) < maps.len(), "Test::TakeToken names no map");
                load(*op, &mut insns);
                insns.push(Insn::And {
                    dst: r0,
                    src: Src::Imm(*mask),
                });
                insns.push(Insn::MTake {
                    dst: r1,
                    map: *map,
                    idx: r0,
                });
                insns.push(Insn::Jne {
                    a: r1,
                    b: Src::Imm(1),
                    off: off(insns.len(), fail),
                });
            }
            Test::Count { op, mask, map } => {
                assert!((*map as usize) < maps.len(), "Test::Count names no map");
                load(*op, &mut insns);
                insns.push(Insn::And {
                    dst: r0,
                    src: Src::Imm(*mask),
                });
                insns.push(Insn::MBump {
                    dst: r1,
                    map: *map,
                    idx: r0,
                });
            }
        }
        debug_assert_eq!(insns.len(), next, "Test::len agrees with the emitter");
    }

    insns.push(Insn::Accept);
    if rejects {
        insns.push(Insn::Reject);
    }

    FilterProgram {
        kind,
        insns,
        sets,
        maps,
        state_budget,
    }
}
