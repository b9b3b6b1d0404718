//! # plexus-sim — the simulated testbed
//!
//! The paper measured Plexus on real DEC Alpha workstations with real
//! Ethernet/ATM/T3 adapters. This crate is the substitute testbed: a
//! deterministic discrete-event simulator with
//!
//! * a nanosecond [`time::SimTime`] clock and an event [`engine::Engine`],
//! * a calibrated CPU cost model ([`cpu::CostModel`]) that charges for every
//!   structural operation the paper's analysis depends on,
//! * device models ([`nic`]) for the three networks of §4 plus the
//!   [`Disk`] and [`Framebuffer`] of §5.1, and
//! * topology wiring: a [`World`] of [`Machine`]s, each with its
//!   [`Books`].
//!
//! Everything above this crate — the SPIN kernel substrate, the protocol
//! stacks, the applications — runs *inside* this simulated world, and all
//! reported latencies/throughputs/utilizations are simulated quantities.
//!
//! `cpu`, `engine`, `nic` and `time` stay public modules because the
//! host-clock benchmark (`perf/`) imports items by their module paths;
//! `world`, `disk` and `framebuffer` are private, and the root re-exports
//! what the rest of the workspace names of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
mod disk;
pub mod engine;
mod framebuffer;
pub mod nic;
pub mod time;
mod world;

pub use cpu::{CostModel, Cpu, CpuLease};
pub use disk::Disk;
pub use engine::Engine;
pub use framebuffer::Framebuffer;
pub use plexus_trace::{Loss, Outcome};
pub use time::{SimDuration, SimTime};
pub use world::{Books, Machine, World};
