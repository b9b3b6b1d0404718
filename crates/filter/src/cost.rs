//! The static cycle-cost model.
//!
//! Costs are counted in abstract *guard cycles*: [`Insn::cost`] charges
//! each instruction, and every consumer counts in that one unit, which is
//! what makes the bound meaningful end to end:
//!
//! * the verifier's **static worst-case bound**
//!   (`VerifiedProgram::static_bound`): the most cycles any feasible path
//!   through the CFG spends, tracked by the abstract interpretation
//!   ([`crate::absint`]);
//! * the checked evaluator's **measured cost** (cycles actually spent on
//!   one packet, returned by `eval_metered`);
//! * the **compiled tier**'s staged meter ([`crate::compile`]): every
//!   thunk charges the same per-instruction cycles, so both tiers report
//!   identical measured cost for the same packet — wall-clock speed
//!   changes, the accounted cycle model does not;
//! * the dispatcher's **admission budget** (interrupt-level installs are
//!   rejected unless the static bound fits the per-event cycle budget).
//!
//! Because control flow is forward-only each instruction runs at most
//! once, so [`FilterProgram::total_cost`] — the sum the verifier holds
//! under [`crate::MAX_COST`] — bounds every path, and the static bound is
//! never above it.

use crate::ir::{FilterProgram, Insn};

impl Insn {
    /// Static cost of executing this instruction once.
    pub(crate) fn cost(&self) -> u32 {
        match self {
            Insn::LdPay { .. } => 2,
            Insn::JInSet { .. } => 4,
            Insn::MLoad { .. } => 4,
            Insn::MBump { .. } => 6,
            Insn::MTake { .. } => 8,
            _ => 1,
        }
    }
}

impl FilterProgram {
    /// Total static cost (sound execution bound: forward-only control flow
    /// means each instruction runs at most once).
    pub(crate) fn total_cost(&self) -> u32 {
        self.insns.iter().map(Insn::cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::ir::{EventKind, Field, FilterProgram, Insn, Reg, Src};
    use crate::verify::verify;

    #[test]
    fn longest_path_is_tighter_than_total_cost() {
        // Ld; Jeq -> Accept; Reject; Accept — both paths are 3 cycles,
        // total_cost is 4.
        let p = FilterProgram::new(
            EventKind::EthRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::EthType,
                },
                Insn::Jeq {
                    a: Reg(0),
                    b: Src::Imm(0x0800),
                    off: 1,
                },
                Insn::Reject,
                Insn::Accept,
            ],
        );
        assert_eq!(p.total_cost(), 4);
        assert_eq!(verify(&p).unwrap().static_bound(), 3);
    }

    #[test]
    fn straight_line_bound_equals_total_cost() {
        let p = FilterProgram::new(
            EventKind::EthRecv,
            vec![
                Insn::Ld {
                    dst: Reg(0),
                    field: Field::EthType,
                },
                Insn::Accept,
            ],
        );
        assert_eq!(verify(&p).unwrap().static_bound(), p.total_cost());
    }
}
