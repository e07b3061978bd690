//! Running campaign scenarios on the multi-process socket backend.
//!
//! The sim campaign's storms are simulator constructs (event-level
//! drops, stalls, crashes at simulated instants); the procs backend has
//! its own native fault source — the deterministic loss shim on every
//! data link. A *procs slice* draws scenarios from the same seeded
//! stream the sim campaign uses, swaps the storm for a seeded
//! [`LossConfig`], runs each scenario as real OS processes over
//! sockets, and judges the report with the unchanged oracle battery
//! ([`crate::oracle::judge`] dispatches on the report's backend).
//!
//! Two translations happen at the boundary:
//!
//! * **Reliable knobs.** Scenario `rel=` knobs are in simulated
//!   microseconds — meaningful under the event clock, nonsense against
//!   wall-clock socket latency. Slice runs pin the wall-clock config
//!   ([`slice_reliable`]): the 5 ms socket-scale timeout and a retry
//!   budget deep enough that an all-acks-lost seed redirect (the known
//!   at-most-once gap) is out of statistical reach.
//! * **Worker program.** `CK_SPEC` carries the scenario's app spec
//!   (the part after `app=`), so workers rebuild the program with the
//!   ordinary `ck_apps::spec::worker_hook` and the wire-table
//!   fingerprint matches the parent's by construction. The reliable
//!   layer, metrics and the shim config ride the parent's `Go`
//!   message to every worker; the spec only has to describe the base
//!   program. Every registry app registers the codecs of what it
//!   sends, so the slice draws from all of them.

use chare_kernel::prelude::*;
use chare_kernel::CkReport;

use crate::scenario::Scenario;

/// Wall-clock reliable config for slice runs (see module docs for why
/// the scenario's own sim-time knobs are not used).
pub fn slice_reliable() -> ReliableConfig {
    ReliableConfig {
        timeout: Cost::millis(5),
        seed_retry_limit: 30,
        window: 16,
    }
}

/// Run one scenario on the procs backend under an optional loss shim,
/// returning the report for [`crate::oracle::judge`]. `test_name` is
/// the calling test's name (the backend re-invokes the test binary
/// filtered to it, so the test must start with
/// `ck_apps::spec::worker_hook()`). The machine preset is ignored —
/// processes run at real speed — which is exactly what makes the slice
/// interesting: the answers and ledgers must hold on wall-clock
/// scheduling too.
pub fn run_scenario_procs(sc: &Scenario, loss: Option<LossConfig>, test_name: &str) -> CkReport {
    let mut cfg = ProcConfig::for_test(sc.npes, sc.prog.to_string(), test_name);
    if let Some(loss) = loss {
        cfg = cfg.with_loss(loss);
    }
    sc.prog
        .build()
        .with_reliable(slice_reliable())
        .with_metrics(MetricsConfig)
        .run_procs(&cfg)
}
