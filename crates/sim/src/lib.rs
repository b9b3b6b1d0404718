//! # plexus-sim — the simulated testbed
//!
//! The paper measured Plexus on real DEC Alpha workstations with real
//! Ethernet/ATM/T3 adapters. This crate is the substitute testbed: a
//! deterministic discrete-event simulator with
//!
//! * a nanosecond [`time::SimTime`] clock and an event [`engine::Engine`],
//! * a calibrated CPU cost model ([`cpu::CostModel`]) that charges for every
//!   structural operation the paper's analysis depends on,
//! * device models ([`nic`]) for the three networks of §4 plus the disk and
//!   framebuffer of §5.1, and
//! * topology wiring ([`world`]).
//!
//! Everything above this crate — the SPIN kernel substrate, the protocol
//! stacks, the applications — runs *inside* this simulated world, and all
//! reported latencies/throughputs/utilizations are simulated quantities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod disk;
pub mod engine;
pub mod framebuffer;
pub mod nic;
pub mod time;
pub mod world;

pub use cpu::{CostModel, Cpu, CpuLease};
pub use engine::Engine;
pub use plexus_trace::{Loss, Outcome};
pub use time::{SimDuration, SimTime};
pub use world::{Books, Machine, World};
