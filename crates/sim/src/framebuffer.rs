//! The SFB framebuffer model (§5.1).
//!
//! The paper's key observation about the video *client* is that writing
//! pixels to the framebuffer is ~10× slower than writing to RAM, so the
//! display dominates everything the OS does and masks the benefit of the
//! in-kernel protocol. We model the framebuffer as a pure CPU cost sink:
//! blitting `len` bytes charges `framebuffer_write_per_byte × len` to the
//! calling CPU lease.

use std::cell::Cell;
use std::rc::Rc;

use crate::cpu::CpuLease;
use crate::time::SimDuration;

/// A memory-mapped framebuffer whose writes are uncached and slow.
pub struct Framebuffer {
    bytes_blitted: Cell<u64>,
    frames_displayed: Cell<u64>,
}

impl Framebuffer {
    /// Creates an SFB-like framebuffer.
    pub fn new() -> Rc<Framebuffer> {
        Rc::new(Framebuffer {
            bytes_blitted: Cell::new(0),
            frames_displayed: Cell::new(0),
        })
    }

    /// Blits `len` bytes, charging the cost to `lease`. Returns the CPU
    /// cost charged, for callers that want to report the display share.
    pub fn blit(&self, lease: &mut CpuLease, len: usize) -> SimDuration {
        let cost = lease.model().framebuffer_write_per_byte.times(len as u64);
        lease.charge(cost);
        self.bytes_blitted
            .set(self.bytes_blitted.get() + len as u64);
        self.frames_displayed.set(self.frames_displayed.get() + 1);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CostModel, Cpu};
    use crate::time::SimTime;

    impl Framebuffer {
        /// Total bytes written to the device.
        pub(crate) fn bytes_blitted(&self) -> u64 {
            self.bytes_blitted.get()
        }

        /// Number of completed frame blits.
        pub(crate) fn frames_displayed(&self) -> u64 {
            self.frames_displayed.get()
        }
    }

    #[test]
    fn blit_is_ten_times_slower_than_ram() {
        let model = CostModel::alpha_3000_400();
        assert_eq!(
            model.framebuffer_write_per_byte.as_nanos(),
            10 * model.ram_write_per_byte.as_nanos()
        );
        let cpu = Cpu::new(model.clone());
        let fb = Framebuffer::new();
        let mut lease = cpu.begin(SimTime::ZERO);
        let cost = fb.blit(&mut lease, 1_000);
        assert_eq!(cost, model.framebuffer_write_per_byte.times(1_000));
        assert_eq!(lease.elapsed(), cost);
        assert_eq!(fb.bytes_blitted(), 1_000);
        assert_eq!(fb.frames_displayed(), 1);
    }
}
