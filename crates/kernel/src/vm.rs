//! Address spaces and the user/kernel boundary.
//!
//! SPIN uses its virtual memory service to build address spaces so ordinary
//! applications can run in user space; *extensions* avoid the boundary
//! entirely by running in the kernel. The whole point of Figure 5 is the
//! cost of that boundary in the monolithic baseline: every packet sent from
//! user space pays a trap and a copyin, and the receive side pays a copyout
//! plus process scheduling. This module charges those costs.

use std::cell::Cell;
use std::rc::Rc;

use plexus_sim::CpuLease;
use plexus_trace::CrossDir;

/// A user address space.
pub struct AddressSpace {
    traps: Cell<u64>,
    bytes_copied_in: Cell<u64>,
    bytes_copied_out: Cell<u64>,
}

impl AddressSpace {
    /// Creates an address space for a user program.
    pub fn new() -> Rc<AddressSpace> {
        Rc::new(AddressSpace {
            traps: Cell::new(0),
            bytes_copied_in: Cell::new(0),
            bytes_copied_out: Cell::new(0),
        })
    }

    /// System calls issued from this space.
    pub fn traps(&self) -> u64 {
        self.traps.get()
    }

    /// Bytes copied user → kernel.
    pub fn bytes_copied_in(&self) -> u64 {
        self.bytes_copied_in.get()
    }

    /// Bytes copied kernel → user.
    pub fn bytes_copied_out(&self) -> u64 {
        self.bytes_copied_out.get()
    }

    /// Charges a system-call trap (entry plus exit).
    pub fn trap(&self, lease: &mut CpuLease) {
        self.traps.set(self.traps.get() + 1);
        let cost = lease.model().syscall;
        lease.charge(cost);
        if let Some(rec) = lease.recorder() {
            rec.crossing(lease.now().as_nanos(), CrossDir::UserToKernel, 0);
        }
    }

    /// Charges a `len`-byte copy from this space into the kernel.
    pub fn copyin(&self, lease: &mut CpuLease, len: usize) {
        self.bytes_copied_in
            .set(self.bytes_copied_in.get() + len as u64);
        let cost = lease.model().copy(len);
        lease.charge(cost);
        if let Some(rec) = lease.recorder() {
            rec.crossing(lease.now().as_nanos(), CrossDir::UserToKernel, len);
        }
    }

    /// Charges a `len`-byte copy from the kernel into this space.
    pub fn copyout(&self, lease: &mut CpuLease, len: usize) {
        self.bytes_copied_out
            .set(self.bytes_copied_out.get() + len as u64);
        let cost = lease.model().copy(len);
        lease.charge(cost);
        if let Some(rec) = lease.recorder() {
            rec.crossing(lease.now().as_nanos(), CrossDir::KernelToUser, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sim::cpu::{CostModel, Cpu};
    use plexus_sim::time::SimTime;

    #[test]
    fn boundary_crossings_charge_and_count() {
        let model = CostModel::alpha_3000_400();
        let cpu = Cpu::new(model.clone());
        let space = AddressSpace::new();
        let mut lease = cpu.begin(SimTime::ZERO);
        space.trap(&mut lease);
        space.copyin(&mut lease, 1024);
        space.copyout(&mut lease, 64);
        assert_eq!(space.traps(), 1);
        assert_eq!(space.bytes_copied_in(), 1024);
        assert_eq!(space.bytes_copied_out(), 64);
        assert_eq!(
            lease.elapsed(),
            model.syscall + model.copy(1024) + model.copy(64)
        );
    }
}
