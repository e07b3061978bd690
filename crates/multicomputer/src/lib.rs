//! # multicomputer — the machine substrate
//!
//! The SC '91 Chare Kernel ran on 1991 hardware: nonshared-memory
//! multicomputers (NCUBE/2 hypercube, Intel iPSC/2) and shared-memory
//! multiprocessors (Sequent Symmetry, Encore Multimax). This crate is the
//! stand-in for that hardware layer. It provides:
//!
//! * [`Pe`] — processing-element identifiers, and [`topology`] — the
//!   interconnect graphs of the machines the paper evaluated on
//!   (hypercube, 2-D mesh, ring, fully connected, shared bus);
//! * [`cost`] — a per-message network cost model
//!   (`alpha + bytes * beta + hops * gamma`) with presets approximating
//!   the paper's machines;
//! * [`sim`] — a deterministic discrete-event simulator
//!   ([`sim::SimMachine`]) that executes a message-driven node program on
//!   `P` simulated PEs and reports simulated completion time, per-PE busy
//!   time and message statistics. This is how we reproduce speedup curves
//!   up to 256 PEs on a laptop;
//! * [`thread`] — a real-parallel backend ([`thread::ThreadMachine`]) with
//!   one OS thread per PE and a shared-memory inbox per PE, standing in
//!   for the shared-memory ports and used for wall-clock benchmarks.
//!
//! The runtime built on top (the `chare_kernel` crate) is written against
//! the [`program::NodeProgram`] / [`program::NetCtx`] interface and runs
//! unmodified on both backends — exactly the machine-independence claim of
//! the paper.
//!
//! ## Execution model
//!
//! Each PE alternates between two operations driven by the machine:
//!
//! 1. [`program::NodeProgram::incoming`] — a packet
//!    has arrived; the node files it into its internal queues (cheap, no
//!    user code runs);
//! 2. [`program::NodeProgram::step`] — the node picks
//!    one queued message and executes its handler to completion. Handlers
//!    may send packets and charge simulated compute time through the
//!    [`program::NetCtx`] passed in.
//!
//! On the simulator, time advances per the cost model and the charges made
//! by handlers; on the thread backend, real time is the cost and charges
//! are ignored.
//!
//! The machine layer records no telemetry: a node that wants to know
//! where its PE's time went reads the clock and the charges through its
//! [`program::NetCtx`] (the Chare Kernel's probe records each step as
//! one event).
//!
//! ## Combining on the real backends
//!
//! Both real backends — the thread machine here and the process machine
//! in `chare_kernel::proc` — hold a PE's remote sends in one buffer per
//! destination and send a buffer whole. They share one flush rule: a
//! buffer leaves at [`BATCH_PACKETS`] messages, every
//! [`FLUSH_EVERY_STEPS`] scheduler steps, and always before its PE waits
//! for work. Each backend's module doc has its remaining triggers.

/// A real backend's PE sends everything it holds for other PEs at least
/// this often, in scheduler steps: a busy sender delays a held message by
/// at most this many of its steps.
pub const FLUSH_EVERY_STEPS: u32 = 16;

/// A destination's held messages are sent as soon as there are this many.
/// The thread backend's fixed threshold and the process backend's default
/// `batch_frames`.
pub const BATCH_PACKETS: usize = 64;

pub mod cost;
pub mod fault;
pub mod pe;
pub mod program;
pub mod sim;
pub mod stats;
#[cfg(feature = "threads")]
pub mod thread;
pub mod time;
pub mod topology;

pub use cost::{CostModel, MachinePreset};
pub use fault::{FaultClass, FaultPlan, FaultRng, FaultStats, LinkOutage, PeFault};
pub use pe::Pe;
pub use program::{FnFactory, NetCtx, NodeFactory, NodeProgram, Packet, Payload, StepKind};
pub use sim::{take_events_tally, AbortReason, SimConfig, SimMachine, SimReport};
pub use stats::{imbalance, BacklogSummary};
#[cfg(feature = "threads")]
pub use thread::{ThreadConfig, ThreadMachine, ThreadReport};
pub use time::{Cost, SimTime};
pub use topology::Topology;
