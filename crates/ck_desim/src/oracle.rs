//! The campaign's oracles: what makes a faulted run *wrong*.
//!
//! Every run inside the survivable envelope must satisfy all of:
//!
//! 1. **Structured completion** — the run ends by exit or quiescence,
//!    never by exhausting the event budget. Hangs are converted into
//!    `AbortReason::MaxEvents` by the simulator, so "never hangs" is a
//!    checkable property, not a wall-clock timeout.
//! 2. **Reference answer** — the result equals the fault-free run's
//!    (memoized) answer: exact for counts, 1e-9 relative for
//!    floating-point accumulations.
//! 3. **Exactly-once seed accounting** — `Σ seeds_spawned` must equal
//!    `Σ chares_created` once everything drained. An excess of
//!    creations is *unconditionally* a duplication bug (nothing
//!    legitimate constructs a chare twice). A shortfall is only a
//!    verdict when the ledger gate is active: either quiescence was
//!    detected during the run (`qd_declares > 0` — QD only declares
//!    once every PE is idle and the reliable layer quiet, so every
//!    spawned seed was constructed by then, and post-declare
//!    collect/exit spawns nothing), or the end state is fully drained
//!    (no runnable backlog, no counted frames in flight). A run that
//!    exits by `Ctx::exit` mid-computation may legitimately strand
//!    queued seeds, so neither arm applies and the shortfall passes.
//! 4. **Quiescence soundness** — a run in which QD declared must end
//!    with an empty user backlog: QD declaring while runnable user
//!    work sits in any queue is exactly the four-counter unsoundness
//!    this oracle hunts. (Post-declare collect/exit traffic rides the
//!    *system* queues and does not trip this.)

use chare_kernel::CkReport;
use multicomputer::AbortReason;

use crate::scenario::{Answer, Scenario};

/// One oracle violation. A passing run has none.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The run burned through the event budget without terminating.
    Hang {
        /// The configured event limit.
        limit: u64,
    },
    /// The run terminated but produced no extractable result.
    MissingAnswer,
    /// The result differs from the fault-free reference.
    WrongAnswer {
        /// Reference answer.
        want: Answer,
        /// Faulted-run answer.
        got: Answer,
    },
    /// More chares were constructed than creations were requested.
    DuplicatedSeeds {
        /// Total `seeds_spawned`.
        spawned: u64,
        /// Total `chares_created`.
        created: u64,
    },
    /// Fewer chares were constructed than requested, with nothing left
    /// queued or in flight to account for the difference.
    LostSeeds {
        /// Total `seeds_spawned`.
        spawned: u64,
        /// Total `chares_created`.
        created: u64,
    },
    /// QD declared quiescence, yet runnable user work remained queued
    /// at run end.
    PrematureQuiescence {
        /// Total `backlog_end` across PEs.
        backlog: u64,
    },
    /// A multi-process run was cut short (worker death, protocol
    /// violation, or the parent watchdog — the procs backend's
    /// structured-completion failures, including its rendering of a
    /// hang).
    Aborted {
        /// The backend's structured reason, rendered.
        reason: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Hang { limit } => {
                write!(f, "hang: event budget {limit} exhausted without termination")
            }
            Violation::MissingAnswer => write!(f, "terminated without a result"),
            Violation::WrongAnswer { want, got } => {
                write!(f, "wrong answer: want {want}, got {got}")
            }
            Violation::DuplicatedSeeds { spawned, created } => write!(
                f,
                "seed ledger: {created} chares created from {spawned} spawns (duplication)"
            ),
            Violation::LostSeeds { spawned, created } => write!(
                f,
                "seed ledger: only {created} chares created from {spawned} spawns with nothing in flight (loss)"
            ),
            Violation::PrematureQuiescence { backlog } => write!(
                f,
                "quiescence declared with {backlog} runnable user messages still queued"
            ),
            Violation::Aborted { reason } => write!(f, "run aborted: {reason}"),
        }
    }
}

/// Whether the strict seed-ledger gate is active for this report:
/// either QD declared quiescence during the run (at declare time every
/// PE was idle with the reliable layer quiet, so the ledger must have
/// balanced then, and post-declare collect/exit constructs no chares),
/// or the end state is fully drained — no runnable user backlog and no
/// counted frames unacknowledged anywhere. Only then must the
/// spawn/create ledger balance exactly.
pub fn ledger_gate_active(rep: &CkReport) -> bool {
    let total = rep.total();
    total.qd_declares > 0 || (total.backlog_end == 0 && total.rel_inflight_end == 0)
}

/// Judge a finished run against every oracle. `want` is the fault-free
/// reference answer. Returns all violations found (empty = pass).
pub fn judge(sc: &Scenario, rep: &CkReport, want: Answer) -> Vec<Violation> {
    let mut out = Vec::new();
    // Structured completion, per backend: the simulator converts hangs
    // into `MaxEvents` aborts; the procs backend surfaces worker deaths
    // and watchdog expiry through its own abort reasons. Either way a
    // cut-short run fails this oracle and suppresses the dependent ones.
    let hung = if let Some(sim) = rep.sim.as_ref() {
        match sim.aborted {
            Some(AbortReason::MaxEvents { limit }) => {
                out.push(Violation::Hang { limit });
                true
            }
            None => false,
        }
    } else if let Some(proc) = rep.proc.as_ref() {
        match &proc.aborted {
            Some(reason) => {
                out.push(Violation::Aborted {
                    reason: reason.to_string(),
                });
                true
            }
            None => false,
        }
    } else {
        false
    };
    if !hung {
        match sc.prog.answer(rep) {
            None => out.push(Violation::MissingAnswer),
            Some(got) if !want.matches(got) => out.push(Violation::WrongAnswer { want, got }),
            Some(_) => {}
        }
    }
    let total = rep.total();
    let (spawned, created) = (total.seeds_spawned, total.chares_created);
    if created > spawned {
        out.push(Violation::DuplicatedSeeds { spawned, created });
    }
    // The loss check needs the run to have actually drained; an aborted
    // run's shortfall is the hang's symptom, not a second bug.
    if !hung && created < spawned && ledger_gate_active(rep) {
        out.push(Violation::LostSeeds { spawned, created });
    }
    // `sim.quiesced` only covers the (rare) machine-level full stop;
    // apps that use QD end by notify → collect → exit, so the sound
    // signal that quiescence was *declared* is the qd_declares counter.
    if !hung && total.qd_declares > 0 {
        let backlog = total.backlog_end;
        if backlog > 0 {
            out.push(Violation::PrematureQuiescence { backlog });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use multicomputer::FaultPlan;

    fn clean_scenario() -> Scenario {
        Scenario::parse("app=nqueens:n=7,grain=4 npes=4 preset=ncube rel=none").unwrap()
    }

    #[test]
    fn a_clean_run_passes_every_oracle() {
        let sc = clean_scenario();
        let want = sc.reference().expect("reference");
        let rep = sc.run(&FaultPlan::new(1), 10_000_000);
        let v = judge(&sc, &rep, want);
        assert!(v.is_empty(), "violations: {v:?}");
        assert!(
            ledger_gate_active(&rep),
            "a fault-free quiesced run should end fully drained"
        );
    }

    #[test]
    fn wrong_reference_trips_the_answer_oracle() {
        let sc = clean_scenario();
        let rep = sc.run(&FaultPlan::new(1), 10_000_000);
        let v = judge(&sc, &rep, Answer::Int(41));
        assert!(
            v.iter()
                .any(|v| matches!(v, Violation::WrongAnswer { .. })),
            "violations: {v:?}"
        );
    }

    #[test]
    fn a_tiny_event_budget_reads_as_a_hang() {
        let sc = clean_scenario();
        let want = sc.reference().expect("reference");
        let rep = sc.run(&FaultPlan::new(1), 50);
        let v = judge(&sc, &rep, want);
        assert!(
            v.iter().any(|v| matches!(v, Violation::Hang { limit: 50 })),
            "violations: {v:?}"
        );
        // The hang suppresses the dependent oracles (answer, loss): an
        // interrupted run is one bug, not four.
        assert!(!v.iter().any(|v| matches!(v, Violation::LostSeeds { .. })));
        assert!(!v.iter().any(|v| matches!(v, Violation::MissingAnswer)));
    }

    #[test]
    fn an_unprotected_lossy_run_fails_structurally() {
        // Without the reliable layer a 10% drop rate loses counted
        // messages outright: QD can never balance sent against recv, so
        // the run must read as a hang (never a silent wrong answer that
        // goes unflagged).
        let sc = clean_scenario();
        let want = sc.reference().expect("reference");
        let storm = FaultPlan::new(0xDEAD).drop(0.10);
        let rep = sc.run(&storm, 2_000_000);
        let v = judge(&sc, &rep, want);
        assert!(!v.is_empty(), "an unprotected lossy run must fail an oracle");
    }
}
