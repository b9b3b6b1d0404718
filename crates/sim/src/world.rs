//! Machines and topology wiring.
//!
//! A [`Machine`] bundles the per-host simulated hardware: one CPU, network
//! interfaces, and optionally a disk. A [`World`] owns the
//! event engine and the machines, and wires NICs onto shared media. The
//! protocol stacks (`plexus-core`, `plexus-baseline`) attach on top of
//! these machines.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use plexus_trace::{Loss, Outcome};

use crate::cpu::{CostModel, Cpu};
use crate::disk::Disk;
use crate::engine::Engine;
use crate::nic::{Medium, Nic, NicProfile};
use crate::time::SimDuration;

/// One simulated host.
pub struct Machine {
    name: String,
    cpu: Rc<Cpu>,
    nics: RefCell<Vec<Rc<Nic>>>,
    disk: RefCell<Option<Rc<Disk>>>,
}

impl Machine {
    /// Creates a machine with the given cost model.
    pub(crate) fn new(name: &str, model: CostModel) -> Rc<Machine> {
        Rc::new(Machine {
            name: name.to_string(),
            cpu: Cpu::new(model),
            nics: RefCell::new(Vec::new()),
            disk: RefCell::new(None),
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

    /// Counts `nic` among the machine's NICs, once: a NIC that
    /// [`World::connect`] made for the machine is counted already, and one
    /// made with [`Nic::new`] is counted when a stack attaches to it. The
    /// NIC keeps its name and recorder.
    pub fn adopt(&self, nic: &Rc<Nic>) {
        let mut nics = self.nics.borrow_mut();
        if !nics.iter().any(|n| Rc::ptr_eq(n, nic)) {
            nics.push(nic.clone());
        }
    }

    /// The machine's books as they stand: what its NICs handed its
    /// driver, and what its CPU counted of every fate.
    pub fn books(&self) -> Books {
        let nics = self.nics.borrow();
        Books {
            heard: nics.iter().map(|nic| nic.stats().rx_frames).sum(),
            outcomes: self.cpu.outcomes.read(),
            losses: self.cpu.losses.read(),
        }
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
}

/// One machine's books: every frame its NICs handed its driver, and every
/// fate its CPU counted, outcome or loss. Read with [`Machine::books`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Books {
    /// Frames the machine's NICs handed to its driver.
    pub heard: u64,
    /// Each [`Outcome`]'s count, at its ordinal.
    pub outcomes: [u64; Outcome::COUNT],
    /// Each [`Loss`]'s count, at its ordinal.
    pub losses: [u64; Loss::COUNT],
}

impl Books {
    /// How many packets came to `outcome`.
    pub fn outcome(&self, outcome: Outcome) -> u64 {
        self.outcomes[outcome as usize]
    }

    /// How many packets were lost for `loss`.
    pub fn lost(&self, loss: Loss) -> u64 {
        self.losses[loss as usize]
    }

    /// The one equation: frames heard, less the frames that ended, each in
    /// one outcome or one loss that ends a frame. Zero when every frame the
    /// machine heard has ended exactly once; above zero when some have not
    /// ended (in flight, or dropped uncounted); below when a frame ended
    /// twice.
    pub fn balance(&self) -> i64 {
        let outcomes = Outcome::ALL.into_iter().filter(|o| o.ends_frame());
        let losses = Loss::ALL.into_iter().filter(|l| l.ends_frame());
        let ended = outcomes
            .map(|o| self.outcome(o))
            .chain(losses.map(|l| self.lost(l)));
        self.heard as i64 - ended.sum::<u64>() as i64
    }
}

/// `heard N`, then every outcome and every loss that is not zero, by name,
/// and the balance.
impl fmt::Display for Books {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heard {}", self.heard)?;
        let outcomes = Outcome::ALL.map(|o| (o.name(), self.outcome(o)));
        let losses = Loss::ALL.map(|l| (l.name(), self.lost(l)));
        for (name, n) in outcomes.iter().chain(&losses).filter(|(_, n)| *n > 0) {
            write!(f, ", {name} {n}")?;
        }
        write!(f, "; balance {}", self.balance())
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
                m.adopt(&nic);
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
    fn a_drain_that_finds_its_driver_rebound_keeps_the_books_balanced() {
        // A coalesced driver absorbs its first frame and is busy while two
        // more queue on the ring; it is rebound before the drain, which
        // then loses both as `rx_no_handler`, frames no driver heard.
        let mut world = World::new();
        let a = world.add_machine("a");
        let b = world.add_machine("b");
        let (_m, nics) = world.connect(&[&a, &b], NicProfile::dec_t3(), SimDuration::ZERO, false);
        let cpu = b.cpu().clone();
        nics[1].attach(DriverConfig::coalesced(move |eng, frames| {
            for _ in frames {
                cpu.count(Outcome::Absorbed);
            }
            eng.now() + SimDuration::from_millis(1)
        }));
        for _ in 0..3 {
            nics[0].transmit(world.engine_mut(), SimTime::ZERO, &[0u8; 64][..]);
        }
        world.run_for(SimDuration::from_micros(500));
        nics[1].attach(DriverConfig::tx_only());
        world.run();
        assert_eq!(nics[1].stats().rx_no_handler, 2);
        let books = b.books();
        assert_eq!((books.heard, books.balance()), (1, 0), "{books}");
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
    fn devices_are_replaceable() {
        let m = Machine::new("host", CostModel::alpha_3000_400());
        m.set_disk(crate::disk::Disk::video_era());
        m.set_disk(crate::disk::Disk::new(
            SimDuration::from_micros(1_000),
            4_000_000,
        ));
        // The read takes the replacement's timing: 1 ms seek, then 4000 B
        // at 4 MB/s.
        let mut engine = Engine::new();
        let done = m
            .disk()
            .read(&mut engine, crate::time::SimTime::ZERO, 4_000, |_| {});
        assert_eq!(done.as_micros(), 2_000);
        assert_eq!(m.name(), "host");
    }
}
