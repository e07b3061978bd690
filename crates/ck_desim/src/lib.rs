//! # ck_desim — deterministic simulation-testing for the Chare Kernel
//!
//! FoundationDB-style simulation testing over the repo's deterministic
//! discrete-event multicomputer: one *campaign seed* expands into
//! hundreds of randomized (scenario × fault storm) runs, each checked
//! against oracles that know what a correct message-driven kernel must
//! preserve under faults, with automatic storm minimization and a
//! committed regression corpus for everything ever found.
//!
//! The pipeline, seed to verdict:
//!
//! 1. [`campaign::run_seed`] mixes the campaign seed with a run index;
//! 2. [`scenario::generate`] draws the victim configuration — app ×
//!    PE count × machine preset × strategies × reliable-layer knobs;
//! 3. [`storm::generate`] draws a fault storm inside the survivable
//!    envelope (drop/dup/delay rates, bounded outages and stalls,
//!    crashes only where recovery is guaranteed);
//! 4. the run executes on the simulator with an event budget that
//!    converts hangs into structured aborts;
//! 5. [`oracle::judge`] compares against the memoized fault-free
//!    reference and the kernel's exactly-once seed ledger and
//!    quiescence-soundness counters;
//! 6. on failure, [`minimize::minimize`] shrinks the storm while the
//!    failure persists and emits a one-line repro;
//! 7. fixed failures join the corpus ([`corpus`]) and are replayed by
//!    tier-1 CI forever.
//!
//! Every step is a pure function of the seed: the same campaign seed
//! produces the same scenarios, storms and verdicts anywhere, which is
//! what makes a randomized campaign *regressable*.
//!
//! The same scenario stream also feeds a *procs slice* ([`procs`]):
//! scenarios replayed as real OS processes over sockets, faulted by the
//! backend's deterministic loss shim instead of a simulator storm, and
//! judged by the unchanged oracle battery.

pub mod campaign;
pub mod corpus;
pub mod forensics;
pub mod minimize;
pub mod oracle;
pub mod procs;
pub mod scenario;
pub mod storm;

pub use campaign::{
    make_run, run_campaign, run_one, CampaignConfig, CampaignSummary, RunRecord,
    DEFAULT_MAX_EVENTS,
};
pub use corpus::CorpusEntry;
pub use minimize::{minimize, Minimized};
pub use oracle::{judge, ledger_gate_active, Violation};
pub use scenario::{Answer, RelKnobs, Scenario};
