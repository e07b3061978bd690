//! Campaign driver: expand one seed into N (scenario, storm) runs,
//! execute each, and tally oracle verdicts.
//!
//! Everything downstream of the campaign seed is deterministic: run
//! `index` draws its scenario and storm from
//! `FaultRng::new(run_seed(campaign_seed, index))`, and the simulator
//! itself is deterministic, so `--campaign-seed S --only I` replays any
//! run bit-for-bit — on a laptop, in CI, or sharded `k/n` across CI
//! jobs (shards partition indices by residue, so the union of all
//! shards is exactly the unsharded campaign).

use multicomputer::FaultPlan;
use multicomputer::FaultRng;

use crate::oracle::{self, Violation};
use crate::scenario::{self, Answer, Scenario};
use crate::storm;

/// Default per-run event budget: ~40× the largest clean campaign run,
/// small enough that a genuine hang aborts in well under a second.
pub const DEFAULT_MAX_EVENTS: u64 = 20_000_000;

/// Per-run seed: a SplitMix64-style mix of the campaign seed and the
/// run index, so adjacent indices land in unrelated parts of the
/// scenario space and `(seed, index)` fully names a run.
pub fn run_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expand one campaign run index into its (scenario, storm) pair
/// without executing it.
pub fn make_run(campaign_seed: u64, index: u64) -> (Scenario, FaultPlan) {
    let mut rng = FaultRng::new(run_seed(campaign_seed, index));
    let sc = scenario::generate(&mut rng);
    let plan = storm::generate(&mut rng, &sc);
    (sc, plan)
}

/// Everything recorded about one executed run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Campaign index (0-based).
    pub index: u64,
    /// The victim configuration.
    pub scenario: Scenario,
    /// The fault storm it ran under.
    pub storm: FaultPlan,
    /// The fault-free reference answer.
    pub reference: Answer,
    /// Oracle verdicts (empty = pass).
    pub violations: Vec<Violation>,
    /// Whether quiescence was detected during the run (QD declared at
    /// least once) — such runs also activate the strict seed ledger.
    pub qd_used: bool,
    /// Whether the strict seed-ledger gate was active at run end.
    pub gate_active: bool,
    /// Simulator events consumed.
    pub events: u64,
    /// Forensics lines (flight-recorder tail + metrics snapshot),
    /// captured only when the run failed — passing runs stay light.
    pub forensics: Vec<String>,
}

impl RunRecord {
    /// Pass/fail.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The one-line replay command for this run.
    pub fn repro(&self) -> String {
        format!(
            "desim --scenario '{}' --storm '{}'",
            self.scenario.spec(),
            self.storm.spec()
        )
    }
}

/// Execute an explicit (scenario, storm) pair and judge it. `index` is
/// carried through for reporting only.
pub fn execute(index: u64, scenario: Scenario, storm: FaultPlan, max_events: u64) -> RunRecord {
    let reference = scenario
        .reference()
        .expect("fault-free reference run produced no result");
    let rep = scenario.run(&storm, max_events);
    let violations = oracle::judge(&scenario, &rep, reference);
    let sim = rep.sim.as_ref().expect("desim runs on the simulator");
    let forensics = if violations.is_empty() {
        Vec::new()
    } else {
        crate::forensics::render(&rep)
    };
    RunRecord {
        index,
        reference,
        violations,
        qd_used: rep.total().qd_declares > 0,
        gate_active: oracle::ledger_gate_active(&rep),
        events: sim.events,
        forensics,
        scenario,
        storm,
    }
}

/// Generate and execute campaign run `index`.
pub fn run_one(campaign_seed: u64, index: u64, max_events: u64) -> RunRecord {
    let (sc, plan) = make_run(campaign_seed, index);
    execute(index, sc, plan, max_events)
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// The seed everything expands from.
    pub seed: u64,
    /// Total run count (across all shards).
    pub runs: u64,
    /// `(k, n)`: this invocation executes indices with `index % n == k`.
    pub shard: (u64, u64),
    /// Per-run event budget (hang detection threshold).
    pub max_events: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            runs: 100,
            shard: (0, 1),
            max_events: DEFAULT_MAX_EVENTS,
        }
    }
}

/// Aggregate campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Runs executed by this shard.
    pub attempted: u64,
    /// Runs with no violations.
    pub passed: u64,
    /// Runs in which QD declared quiescence.
    pub qd_used: u64,
    /// Runs where the strict seed-ledger gate was active.
    pub gate_active: u64,
    /// Full records of every failing run.
    pub failures: Vec<RunRecord>,
}

impl CampaignSummary {
    /// Whether every attempted run passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run a (shard of a) campaign, invoking `on_run` after each run —
/// the CLI uses it for progress lines; tests usually pass `|_| {}`.
pub fn run_campaign(cfg: &CampaignConfig, mut on_run: impl FnMut(&RunRecord)) -> CampaignSummary {
    let (k, n) = cfg.shard;
    assert!(n > 0 && k < n, "shard must be k/n with k < n");
    let mut summary = CampaignSummary::default();
    for index in 0..cfg.runs {
        if index % n != k {
            continue;
        }
        let rec = run_one(cfg.seed, index, cfg.max_events);
        summary.attempted += 1;
        if rec.passed() {
            summary.passed += 1;
        }
        if rec.qd_used {
            summary.qd_used += 1;
        }
        if rec.gate_active {
            summary.gate_active += 1;
        }
        on_run(&rec);
        if !rec.passed() {
            summary.failures.push(rec);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seed_mixing_separates_neighbors() {
        let s: Vec<u64> = (0..64).map(|i| run_seed(1, i)).collect();
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "adjacent indices must not collide");
        assert_ne!(run_seed(1, 0), run_seed(2, 0), "campaign seed matters");
    }

    #[test]
    fn shards_partition_the_campaign() {
        let all: Vec<u64> = (0..20).collect();
        let mut merged: Vec<u64> = Vec::new();
        for k in 0..4 {
            merged.extend(all.iter().copied().filter(|i| i % 4 == k));
        }
        merged.sort_unstable();
        assert_eq!(merged, all);
    }

    #[test]
    fn make_run_is_deterministic() {
        let (sa, pa) = make_run(0xFEED, 17);
        let (sb, pb) = make_run(0xFEED, 17);
        assert_eq!(sa.spec(), sb.spec());
        assert_eq!(pa.spec(), pb.spec());
        let (sc, pc) = make_run(0xFEED, 18);
        assert!(
            sa.spec() != sc.spec() || pa.spec() != pc.spec(),
            "neighboring indices should differ"
        );
    }
}
