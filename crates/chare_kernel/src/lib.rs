//! # chare_kernel — a message-driven object-parallel runtime
//!
//! This crate reproduces the system of the SC '91 paper *"Object oriented
//! parallel programming: experiments and results"*: the **Chare Kernel**,
//! the machine-independent runtime that became Charm/Charm++. A program
//! is a dynamic collection of **chares** — small concurrent objects
//! created from seed messages and driven entirely by messages to their
//! entry points — plus:
//!
//! * **branch-office chares** ([`boc`]) — objects replicated with one
//!   branch per PE, for distributed services and grid computations;
//! * **specifically shared variables** ([`shared`]) — read-only,
//!   write-once, accumulator and monotonic variables and distributed
//!   tables: disciplined sharing the runtime implements with messages on
//!   nonshared-memory machines;
//! * **dynamic load balancing** ([`balance`]) — seeds (unborn chares) are
//!   the unit of balancing; strategies range from random placement to
//!   ACWN (adaptive contracting within neighborhood);
//! * **prioritized queueing** ([`queueing`]) — FIFO, LIFO, integer and
//!   bitvector priorities; the key to efficient speculative search;
//! * **quiescence detection** ([`quiescence`]) — a four-counter wave
//!   algorithm detecting global termination of message-driven work.
//!
//! The kernel runs unmodified on the two machine backends of the
//! [`multicomputer`] crate: a deterministic discrete-event simulated
//! multicomputer (NCUBE/iPSC-like, up to hundreds of PEs) and a real
//! thread-parallel backend (Sequent-like).
//!
//! ## A complete program
//!
//! ```
//! use chare_kernel::prelude::*;
//!
//! // A chare that doubles a number and exits with it.
//! struct Doubler;
//! impl ChareInit for Doubler {
//!     type Seed = u64;
//!     fn create(seed: u64, ctx: &mut Ctx) -> Self {
//!         ctx.exit(seed * 2);
//!         Doubler
//!     }
//! }
//! impl Chare for Doubler {
//!     fn entry(&mut self, _ep: EpId, _msg: MsgBody, _ctx: &mut Ctx) {}
//! }
//!
//! let mut b = ProgramBuilder::new();
//! let kind = b.chare::<Doubler>();
//! b.main(kind, 21u64);
//! let mut report = b.build().run_sim_preset(4, MachinePreset::NcubeLike);
//! assert_eq!(report.take_result::<u64>(), Some(42));
//! ```

#[doc(hidden)]
pub mod alloc_watch;
pub mod balance;
mod body;
pub mod bcast;
pub mod boc;
pub mod chare;
pub mod ctx;
pub mod envelope;
pub mod ids;
pub mod metrics;
pub mod msg;
pub mod node;
pub mod pool;
pub mod priority;
pub mod probe;
pub mod proc;
pub mod program;
pub mod queueing;
pub mod quiescence;
pub mod registry;
pub mod reliable;
pub mod shared;
pub mod stats;
pub mod trace;
mod transport;
pub mod wire;

pub use balance::BalanceStrategy;
pub use bcast::BroadcastMode;
pub use boc::{Branch, BranchInit};
pub use chare::{cast, Chare, ChareInit};
pub use ctx::Ctx;
pub use envelope::MsgBody;
pub use ids::{Boc, BocId, ChareId, ChareKind, EpId, Kind, Notify, WoId};
pub use metrics::{Histogram, MetricsConfig, MetricsLog, PeMetricSet, Slice};
pub use msg::Message;
pub use priority::{BitPrio, Priority};
pub use proc::{maybe_worker, LossConfig, ProcAbortReason, ProcConfig, ProcDetail, ProcTransport};
pub use program::{CkReport, Program, ProgramBuilder, RunOpts};
pub use queueing::QueueingStrategy;
pub use reliable::{ReliableConfig, ReliableConfigError};
pub use shared::{
    Acc, AccResult, Accum, MaxF64, MinBoundU64, MinU64, Mono, MonoVar, QuiescenceMsg, ReadOnly,
    SumF64, SumU64, TableAck, TableGot, TableRef, WoReady,
};
pub use stats::KernelCounters;
pub use trace::{EntryWhat, EventKind, MsgClass, TraceConfig, TraceEvent, TraceLog};
pub use wire::{Wire, WireReader};

/// Everything a kernel program normally needs.
pub mod prelude {
    pub use crate::balance::BalanceStrategy;
    pub use crate::bcast::BroadcastMode;
    pub use crate::boc::{Branch, BranchInit};
    pub use crate::chare::{cast, Chare, ChareInit};
    pub use crate::ctx::Ctx;
    pub use crate::envelope::MsgBody;
    pub use crate::ids::{Boc, BocId, ChareId, ChareKind, EpId, Kind, Notify, WoId};
    pub use crate::message;
    pub use crate::msg::Message;
    pub use crate::priority::{BitPrio, Priority};
    pub use crate::proc::{
        maybe_worker, LossConfig, ProcAbortReason, ProcConfig, ProcDetail, ProcTransport,
    };
    pub use crate::program::{CkReport, Program, ProgramBuilder, RunOpts};
    pub use crate::queueing::QueueingStrategy;
    pub use crate::reliable::{ReliableConfig, ReliableConfigError};
    pub use crate::shared::{
        Acc, AccResult, Accum, MaxF64, MinBoundU64, MinU64, Mono, MonoVar, QuiescenceMsg,
        ReadOnly, SumF64, SumU64, TableAck, TableGot, TableRef, WoReady,
    };
    pub use crate::metrics::{MetricsConfig, MetricsLog};
    pub use crate::trace::{EventKind, TraceConfig, TraceLog};
    pub use crate::wire::{Wire, WireReader};
    pub use crate::{wire_enum, wire_struct};
    pub use multicomputer::{Cost, FaultPlan, MachinePreset, Pe, SimConfig, Topology};
    #[cfg(feature = "threads")]
    pub use multicomputer::ThreadConfig;
}
