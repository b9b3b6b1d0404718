//! Machines and topology wiring.
//!
//! A [`Machine`] bundles the per-host simulated hardware: one CPU, network
//! interfaces, and optionally a disk and a framebuffer. A [`World`] owns the
//! event engine and the machines, and wires NICs onto shared media. The
//! protocol stacks (`plexus-core`, `plexus-baseline`) attach on top of
//! these machines.

use std::cell::RefCell;
use std::rc::Rc;

use crate::cpu::{CostModel, Cpu};
use crate::disk::Disk;
use crate::engine::Engine;
use crate::framebuffer::Framebuffer;
use crate::nic::{Medium, Nic, NicProfile};
use crate::time::SimDuration;

/// One simulated host.
pub struct Machine {
    name: String,
    cpu: Rc<Cpu>,
    nics: RefCell<Vec<Rc<Nic>>>,
    disk: RefCell<Option<Rc<Disk>>>,
    framebuffer: RefCell<Option<Rc<Framebuffer>>>,
}

impl Machine {
    /// Creates a machine with the given cost model.
    pub fn new(name: &str, model: CostModel) -> Rc<Machine> {
        Rc::new(Machine {
            name: name.to_string(),
            cpu: Cpu::new(model),
            nics: RefCell::new(Vec::new()),
            disk: RefCell::new(None),
            framebuffer: RefCell::new(None),
        })
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine's processor.
    pub fn cpu(&self) -> &Rc<Cpu> {
        &self.cpu
    }

    /// NIC number `idx` (in attachment order).
    ///
    /// # Panics
    ///
    /// Panics if no NIC with that index exists.
    pub fn nic(&self, idx: usize) -> Rc<Nic> {
        self.nics.borrow()[idx].clone()
    }

    /// Number of attached NICs.
    pub fn nic_count(&self) -> usize {
        self.nics.borrow().len()
    }

    /// Attaches a disk (replacing any previous one).
    pub fn set_disk(&self, disk: Rc<Disk>) {
        *self.disk.borrow_mut() = Some(disk);
    }

    /// The attached disk.
    ///
    /// # Panics
    ///
    /// Panics if no disk is attached.
    pub fn disk(&self) -> Rc<Disk> {
        self.disk.borrow().clone().expect("machine has no disk")
    }

    /// Attaches a framebuffer (replacing any previous one).
    pub fn set_framebuffer(&self, fb: Rc<Framebuffer>) {
        *self.framebuffer.borrow_mut() = Some(fb);
    }

    /// The attached framebuffer.
    ///
    /// # Panics
    ///
    /// Panics if no framebuffer is attached.
    pub fn framebuffer(&self) -> Rc<Framebuffer> {
        self.framebuffer
            .borrow()
            .clone()
            .expect("machine has no framebuffer")
    }
}

/// The whole simulated universe: engine plus machines.
pub struct World {
    engine: Engine,
    machines: Vec<Rc<Machine>>,
}

impl World {
    /// Creates an empty world.
    pub fn new() -> World {
        World {
            engine: Engine::new(),
            machines: Vec::new(),
        }
    }

    /// Adds a machine with the default Alpha 3000/400 cost model.
    pub fn add_machine(&mut self, name: &str) -> Rc<Machine> {
        self.add_machine_with_model(name, CostModel::alpha_3000_400())
    }

    /// Adds a machine with an explicit cost model.
    pub fn add_machine_with_model(&mut self, name: &str, model: CostModel) -> Rc<Machine> {
        let m = Machine::new(name, model);
        self.machines.push(m.clone());
        m
    }

    /// Machines added so far, in order.
    pub fn machines(&self) -> &[Rc<Machine>] {
        &self.machines
    }

    /// Creates a medium, attaches one NIC per machine, and returns the NICs
    /// in machine order. `half_duplex` models a shared Ethernet segment.
    /// The new NICs carry the recorder of an earlier
    /// [`World::install_recorder`], if there was one.
    pub fn connect(
        &mut self,
        machines: &[&Rc<Machine>],
        profile: NicProfile,
        propagation: SimDuration,
        half_duplex: bool,
    ) -> (Rc<Medium>, Vec<Rc<Nic>>) {
        assert!(machines.len() >= 2, "a medium needs at least two machines");
        let medium = Medium::new(propagation, half_duplex);
        let recorder = self.engine.recorder().cloned();
        let nics: Vec<Rc<Nic>> = machines
            .iter()
            .map(|m| {
                let nic = Nic::new(profile.clone(), &medium);
                nic.set_host(m.name());
                nic.set_recorder(recorder.clone());
                m.nics.borrow_mut().push(nic.clone());
                nic
            })
            .collect();
        (medium, nics)
    }

    /// Installs a flight recorder across the whole world: the engine
    /// (timer fires), every machine's CPU (leases carry it into the
    /// dispatcher and protocol code), and every NIC (packet arrival IDs,
    /// adapter drops) — those attached already, and those a later
    /// [`World::connect`] creates. Add machines *before* calling this.
    pub fn install_recorder(&mut self, recorder: &Rc<plexus_trace::Recorder>) {
        self.engine.set_recorder(Some(recorder.clone()));
        for m in &self.machines {
            m.cpu().set_recorder(Some(recorder.clone()));
            for idx in 0..m.nic_count() {
                m.nic(idx).set_recorder(Some(recorder.clone()));
            }
        }
    }

    /// The event engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The event engine, mutably (to schedule or run).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Runs the engine until the event queue drains.
    pub fn run(&mut self) {
        self.engine.run();
    }

    /// Runs the engine for a span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        self.engine.run_for(span);
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::DriverConfig;
    use crate::time::SimTime;

    #[test]
    fn connect_attaches_one_nic_per_machine() {
        let mut world = World::new();
        let a = world.add_machine("a");
        let b = world.add_machine("b");
        let (_medium, nics) = world.connect(
            &[&a, &b],
            NicProfile::dec_t3(),
            SimDuration::from_micros(1),
            false,
        );
        assert_eq!(nics.len(), 2);
        assert_eq!(a.nic_count(), 1);
        assert_eq!(b.nic_count(), 1);
        assert!(Rc::ptr_eq(&a.nic(0), &nics[0]));
    }

    #[test]
    fn frames_flow_between_connected_machines() {
        let mut world = World::new();
        let a = world.add_machine("a");
        let b = world.add_machine("b");
        let (_m, nics) = world.connect(&[&a, &b], NicProfile::dec_t3(), SimDuration::ZERO, false);
        let got = Rc::new(std::cell::Cell::new(false));
        let g = got.clone();
        nics[1].attach(DriverConfig::per_frame(move |_, f| {
            assert_eq!(f, vec![9, 9, 9]);
            g.set(true);
        }));
        nics[0].transmit(world.engine_mut(), SimTime::ZERO, &[9u8, 9, 9][..]);
        world.run();
        assert!(got.get());
    }

    #[test]
    fn nics_connected_after_install_recorder_are_traced() {
        let mut world = World::new();
        let a = world.add_machine("a");
        let b = world.add_machine("b");
        let recorder = plexus_trace::Recorder::new(64);
        world.install_recorder(&recorder);
        let (_m, nics) = world.connect(&[&a, &b], NicProfile::dec_t3(), SimDuration::ZERO, false);
        nics[1].attach(DriverConfig::per_frame(|_, _| {}));
        nics[0].transmit(world.engine_mut(), SimTime::ZERO, &[9u8, 9, 9][..]);
        world.run();
        let arrivals = recorder
            .events()
            .iter()
            .filter(|r| matches!(r.event, plexus_trace::TraceEvent::PacketArrival { .. }))
            .count();
        assert_eq!(arrivals, 1, "the late NIC records its arrival");
    }

    #[test]
    #[should_panic(expected = "at least two machines")]
    fn connect_requires_two_machines() {
        let mut world = World::new();
        let a = world.add_machine("a");
        world.connect(&[&a], NicProfile::dec_t3(), SimDuration::ZERO, false);
    }
}

#[cfg(test)]
mod device_tests {
    use super::*;

    #[test]
    #[should_panic(expected = "machine has no disk")]
    fn disk_access_without_attachment_panics() {
        let m = Machine::new("bare", CostModel::alpha_3000_400());
        let _ = m.disk();
    }

    #[test]
    #[should_panic(expected = "machine has no framebuffer")]
    fn framebuffer_access_without_attachment_panics() {
        let m = Machine::new("bare", CostModel::alpha_3000_400());
        let _ = m.framebuffer();
    }

    #[test]
    fn devices_are_replaceable() {
        let m = Machine::new("host", CostModel::alpha_3000_400());
        m.set_disk(crate::disk::Disk::video_era());
        m.set_framebuffer(crate::framebuffer::Framebuffer::new());
        assert_eq!(m.disk().reads(), 0);
        assert_eq!(m.framebuffer().frames_displayed(), 0);
        assert_eq!(m.name(), "host");
    }
}
