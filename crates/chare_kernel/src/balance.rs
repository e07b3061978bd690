//! Dynamic load balancing strategies.
//!
//! New chares are the unit of load balancing: a seed message carries no
//! state besides its constructor argument, so it can be placed on any PE
//! at creation time (chares never migrate once born). The paper's
//! experiments compare placement strategies on adaptive tree
//! computations; this module implements the four families it discusses:
//!
//! * [`BalanceStrategy::Local`] — no balancing; every chare runs where it
//!   was created (the baseline that demonstrates the problem);
//! * [`BalanceStrategy::Random`] — uniform random placement at creation;
//!   communication-oblivious but statistically balanced;
//! * [`BalanceStrategy::CentralManager`] — all seeds go to PE 0, which
//!   assigns them to the least-loaded PE using load reports; accurate but
//!   a bottleneck at scale;
//! * [`BalanceStrategy::TokenIdle`] — receiver-initiated: idle PEs
//!   request work tokens from neighbors;
//! * [`BalanceStrategy::Acwn`] — **Adaptive Contracting Within
//!   Neighborhood**: a loaded PE forwards a seed to its least-loaded
//!   direct neighbor, up to a hop budget, contracting (keeping work
//!   local) as load rises; the paper's best general-purpose strategy.

use multicomputer::Pe;
use rand::rngs::StdRng;
use rand::Rng;

/// Placement decision for one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Enqueue the seed on this PE.
    Local,
    /// Forward the seed to another PE (incrementing its hop count).
    Forward(Pe),
}

/// Strategy selector, chosen per program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalanceStrategy {
    /// No balancing: seeds stay on their creating PE.
    Local,
    /// Uniform random placement at creation time.
    Random,
    /// Central manager on PE 0 assigns seeds to the least-loaded PE.
    CentralManager,
    /// Idle PEs request work from neighbors (receiver-initiated tokens).
    TokenIdle,
    /// Adaptive contracting within neighborhood.
    Acwn {
        /// Maximum number of forwards before a seed must settle.
        max_hops: u32,
        /// Keep seeds local while the runnable backlog is below this.
        low_mark: u32,
    },
}

impl BalanceStrategy {
    /// Reasonable ACWN defaults (hop budget 4, low mark 2).
    pub const fn acwn() -> BalanceStrategy {
        BalanceStrategy::Acwn {
            max_hops: 4,
            low_mark: 2,
        }
    }

    /// Short stable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            BalanceStrategy::Local => "local",
            BalanceStrategy::Random => "random",
            BalanceStrategy::CentralManager => "central",
            BalanceStrategy::TokenIdle => "token",
            BalanceStrategy::Acwn { .. } => "acwn",
        }
    }

    pub(crate) fn make(&self, pe: Pe, npes: usize, neighbors: Vec<Pe>) -> Box<dyn Balancer> {
        match *self {
            BalanceStrategy::Local => Box::new(LocalBalancer),
            BalanceStrategy::Random => Box::new(RandomBalancer { npes }),
            BalanceStrategy::CentralManager => Box::new(CentralBalancer {
                pe,
                loads: if pe == Pe::ZERO {
                    vec![0; npes]
                } else {
                    Vec::new()
                },
                report_to: if pe == Pe::ZERO { vec![] } else { vec![Pe::ZERO] },
                rr: 0,
            }),
            BalanceStrategy::TokenIdle => Box::new(TokenBalancer {
                neighbors,
                next: 0,
            }),
            BalanceStrategy::Acwn { max_hops, low_mark } => Box::new(AcwnBalancer {
                max_hops,
                low_mark,
                neighbors: neighbors.clone(),
                loads: vec![0; neighbors.len()],
                report_to: neighbors,
            }),
        }
    }
}

/// The spec-string spelling (`bal=` in `ck_apps::spec`): the
/// [`BalanceStrategy::name`], with ACWN's tuning spelled out as
/// `acwn:HOPS/LOW`.
impl std::fmt::Display for BalanceStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BalanceStrategy::Acwn { max_hops, low_mark } => write!(f, "acwn:{max_hops}/{low_mark}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Parses what `Display` prints; a bare `acwn` is [`BalanceStrategy::acwn`].
impl std::str::FromStr for BalanceStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "local" => BalanceStrategy::Local,
            "random" => BalanceStrategy::Random,
            "central" => BalanceStrategy::CentralManager,
            "token" => BalanceStrategy::TokenIdle,
            "acwn" => BalanceStrategy::acwn(),
            _ => {
                let tuning = s.strip_prefix("acwn:").and_then(|t| t.split_once('/'));
                match tuning.map(|(h, l)| (h.parse(), l.parse())) {
                    Some((Ok(max_hops), Ok(low_mark))) => BalanceStrategy::Acwn { max_hops, low_mark },
                    _ => return Err(format!("unknown balance '{s}'")),
                }
            }
        })
    }
}

/// Per-PE load balancing policy. One instance per PE; the kernel calls
/// it for every seed that is still placeable and feeds it load reports
/// from other PEs.
pub(crate) trait Balancer: Send {
    /// Decide where a seed goes. `hops` counts previous forwards;
    /// `local_load` is this PE's runnable backlog.
    fn place(&mut self, hops: u32, local_load: usize, rng: &mut StdRng) -> Placement;

    /// Whether locally kept seeds go into the stealable seed pool
    /// (token strategy) instead of the main queue.
    fn pools_seeds(&self) -> bool {
        false
    }

    /// Incorporate a load report from another PE.
    fn on_load_status(&mut self, from: Pe, load: u32) {
        let _ = (from, load);
    }

    /// PEs that should receive this PE's load reports.
    fn load_targets(&self) -> &[Pe] {
        &[]
    }

    /// Whether this PE should send work requests when it goes idle.
    fn request_work_when_idle(&self) -> bool {
        false
    }

    /// Choose a PE to ask for work (token strategy); round-robins so
    /// repeated NACKs try different victims.
    fn pick_victim(&mut self, rng: &mut StdRng) -> Option<Pe> {
        let _ = rng;
        None
    }

    /// Choose a new home for a seed whose delivery to `suspect` timed
    /// out (reliable-delivery recovery). `None` means the strategy has
    /// no opinion and the node falls back to a uniform pick avoiding
    /// the suspect.
    fn redirect_target(&mut self, suspect: Pe, rng: &mut StdRng) -> Option<Pe> {
        let _ = (suspect, rng);
        None
    }
}

/// No balancing.
struct LocalBalancer;

impl Balancer for LocalBalancer {
    fn place(&mut self, _hops: u32, _load: usize, _rng: &mut StdRng) -> Placement {
        Placement::Local
    }
}

/// Uniform random placement at the source; arrivals settle.
struct RandomBalancer {
    npes: usize,
}

impl Balancer for RandomBalancer {
    fn place(&mut self, hops: u32, _load: usize, rng: &mut StdRng) -> Placement {
        if hops > 0 {
            return Placement::Local;
        }
        let target = Pe::from(rng.random_range(0..self.npes));
        Placement::Forward(target)
    }
}

/// Seeds route via PE 0, which assigns them to its current estimate of
/// the least-loaded PE. PE 0 bumps its estimate on each assignment so
/// bursts spread even between load reports.
struct CentralBalancer {
    pe: Pe,
    /// PE 0 only: load estimate per PE.
    loads: Vec<u64>,
    report_to: Vec<Pe>,
    /// Tie-break rotation so equal loads spread round-robin.
    rr: usize,
}

impl Balancer for CentralBalancer {
    fn place(&mut self, hops: u32, local_load: usize, _rng: &mut StdRng) -> Placement {
        if self.pe == Pe::ZERO {
            // Manager: assign to least-loaded (its own estimate for PE 0
            // is its actual backlog).
            if !self.loads.is_empty() {
                self.loads[0] = local_load as u64;
            }
            let n = self.loads.len();
            let mut best = self.rr % n;
            for off in 0..n {
                let i = (self.rr + off) % n;
                if self.loads[i] < self.loads[best] {
                    best = i;
                }
            }
            self.rr = (self.rr + 1) % n;
            self.loads[best] += 1;
            if best == 0 {
                Placement::Local
            } else {
                Placement::Forward(Pe::from(best))
            }
        } else if hops == 0 {
            // Route to the manager.
            Placement::Forward(Pe::ZERO)
        } else {
            // Assigned by the manager; settle.
            Placement::Local
        }
    }

    fn on_load_status(&mut self, from: Pe, load: u32) {
        if self.pe == Pe::ZERO && from.index() < self.loads.len() {
            self.loads[from.index()] = load as u64;
        }
    }

    fn load_targets(&self) -> &[Pe] {
        &self.report_to
    }

    fn redirect_target(&mut self, suspect: Pe, _rng: &mut StdRng) -> Option<Pe> {
        if self.pe != Pe::ZERO {
            return None;
        }
        // Manager: reassign to the least-loaded PE that isn't the one
        // that stopped answering.
        let mut best: Option<usize> = None;
        for i in 0..self.loads.len() {
            if i == suspect.index() || Pe::from(i) == self.pe {
                continue;
            }
            if best.is_none_or(|b| self.loads[i] < self.loads[b]) {
                best = Some(i);
            }
        }
        best.map(|i| {
            self.loads[i] += 1;
            Pe::from(i)
        })
    }
}

/// Receiver-initiated: seeds stay local in a stealable pool; idle PEs
/// send work requests to neighbors round-robin.
struct TokenBalancer {
    neighbors: Vec<Pe>,
    next: usize,
}

impl Balancer for TokenBalancer {
    fn place(&mut self, _hops: u32, _load: usize, _rng: &mut StdRng) -> Placement {
        Placement::Local
    }

    fn pools_seeds(&self) -> bool {
        true
    }

    fn request_work_when_idle(&self) -> bool {
        true
    }

    fn pick_victim(&mut self, _rng: &mut StdRng) -> Option<Pe> {
        if self.neighbors.is_empty() {
            return None;
        }
        let v = self.neighbors[self.next % self.neighbors.len()];
        self.next += 1;
        Some(v)
    }

    fn redirect_target(&mut self, suspect: Pe, _rng: &mut StdRng) -> Option<Pe> {
        for _ in 0..self.neighbors.len() {
            let v = self.neighbors[self.next % self.neighbors.len()];
            self.next += 1;
            if v != suspect {
                return Some(v);
            }
        }
        None
    }
}

/// Adaptive contracting within neighborhood.
struct AcwnBalancer {
    max_hops: u32,
    low_mark: u32,
    neighbors: Vec<Pe>,
    /// Load estimate per neighbor (parallel to `neighbors`).
    loads: Vec<u64>,
    report_to: Vec<Pe>,
}

impl Balancer for AcwnBalancer {
    fn place(&mut self, hops: u32, local_load: usize, _rng: &mut StdRng) -> Placement {
        if hops >= self.max_hops || self.neighbors.is_empty() {
            return Placement::Local;
        }
        if (local_load as u32) < self.low_mark {
            // Contract: we are hungry enough to keep it.
            return Placement::Local;
        }
        // Least-loaded neighbor.
        let mut best = 0;
        for i in 1..self.neighbors.len() {
            if self.loads[i] < self.loads[best] {
                best = i;
            }
        }
        if self.loads[best] + 2 <= local_load as u64 {
            self.loads[best] += 1;
            Placement::Forward(self.neighbors[best])
        } else {
            Placement::Local
        }
    }

    fn on_load_status(&mut self, from: Pe, load: u32) {
        if let Some(i) = self.neighbors.iter().position(|&n| n == from) {
            self.loads[i] = load as u64;
        }
    }

    fn load_targets(&self) -> &[Pe] {
        &self.report_to
    }

    fn redirect_target(&mut self, suspect: Pe, _rng: &mut StdRng) -> Option<Pe> {
        // Least-loaded neighbor other than the suspect.
        let mut best: Option<usize> = None;
        for (i, &n) in self.neighbors.iter().enumerate() {
            if n == suspect {
                continue;
            }
            if best.is_none_or(|b| self.loads[i] < self.loads[b]) {
                best = Some(i);
            }
        }
        best.map(|i| {
            self.loads[i] += 1;
            self.neighbors[i]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn local_always_keeps() {
        let mut b = BalanceStrategy::Local.make(Pe(1), 8, vec![Pe(0), Pe(3)]);
        for hops in 0..3 {
            assert_eq!(b.place(hops, 100, &mut rng()), Placement::Local);
        }
        assert!(!b.pools_seeds());
    }

    #[test]
    fn random_forwards_once_then_settles() {
        let mut b = BalanceStrategy::Random.make(Pe(0), 8, vec![]);
        let mut r = rng();
        match b.place(0, 0, &mut r) {
            Placement::Forward(pe) => assert!(pe.index() < 8),
            Placement::Local => panic!("random must pick a target at hops 0"),
        }
        assert_eq!(b.place(1, 0, &mut r), Placement::Local);
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut b = BalanceStrategy::Random.make(Pe(0), 4, vec![]);
        let mut r = rng();
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            if let Placement::Forward(pe) = b.place(0, 0, &mut r) {
                counts[pe.index()] += 1;
            }
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn central_routes_via_manager() {
        let mut worker = BalanceStrategy::CentralManager.make(Pe(3), 8, vec![]);
        assert_eq!(worker.place(0, 0, &mut rng()), Placement::Forward(Pe::ZERO));
        assert_eq!(worker.place(1, 0, &mut rng()), Placement::Local);
        assert_eq!(worker.load_targets(), &[Pe::ZERO]);
    }

    #[test]
    fn central_manager_assigns_least_loaded() {
        let mut mgr = BalanceStrategy::CentralManager.make(Pe::ZERO, 4, vec![]);
        mgr.on_load_status(Pe(1), 10);
        mgr.on_load_status(Pe(2), 0);
        mgr.on_load_status(Pe(3), 5);
        // Manager's own load is high.
        let p = mgr.place(1, 50, &mut rng());
        assert_eq!(p, Placement::Forward(Pe(2)));
        // The assignment bumped PE2's estimate; next pick with equal
        // loads rotates rather than hammering one PE.
        mgr.on_load_status(Pe(1), 1);
        mgr.on_load_status(Pe(2), 1);
        mgr.on_load_status(Pe(3), 1);
        let mut targets = std::collections::HashSet::new();
        for _ in 0..3 {
            if let Placement::Forward(pe) = mgr.place(1, 50, &mut rng()) {
                targets.insert(pe.index());
            }
        }
        assert!(targets.len() >= 2, "assignments should rotate: {targets:?}");
    }

    #[test]
    fn token_pools_and_picks_round_robin() {
        let mut b = BalanceStrategy::TokenIdle.make(Pe(0), 8, vec![Pe(1), Pe(2), Pe(4)]);
        assert!(b.pools_seeds());
        assert!(b.request_work_when_idle());
        assert_eq!(b.place(0, 0, &mut rng()), Placement::Local);
        let mut r = rng();
        let picks: Vec<Pe> = (0..4).filter_map(|_| b.pick_victim(&mut r)).collect();
        assert_eq!(picks, vec![Pe(1), Pe(2), Pe(4), Pe(1)]);
    }

    #[test]
    fn token_with_no_neighbors_never_picks() {
        let mut b = BalanceStrategy::TokenIdle.make(Pe(0), 1, vec![]);
        assert_eq!(b.pick_victim(&mut rng()), None);
    }

    #[test]
    fn acwn_keeps_when_hungry() {
        let mut b = BalanceStrategy::acwn().make(Pe(0), 8, vec![Pe(1), Pe(2)]);
        assert_eq!(b.place(0, 0, &mut rng()), Placement::Local);
        assert_eq!(b.place(0, 1, &mut rng()), Placement::Local);
    }

    #[test]
    fn acwn_forwards_to_least_loaded_neighbor() {
        let mut b = BalanceStrategy::acwn().make(Pe(0), 8, vec![Pe(1), Pe(2)]);
        b.on_load_status(Pe(1), 9);
        b.on_load_status(Pe(2), 1);
        assert_eq!(b.place(0, 10, &mut rng()), Placement::Forward(Pe(2)));
        // Its estimate for PE2 rose; with both neighbors loaded it
        // contracts.
        b.on_load_status(Pe(2), 9);
        assert_eq!(b.place(0, 10, &mut rng()), Placement::Local);
    }

    #[test]
    fn acwn_respects_hop_budget() {
        let mut b = BalanceStrategy::Acwn {
            max_hops: 2,
            low_mark: 0,
        }
        .make(Pe(0), 8, vec![Pe(1)]);
        b.on_load_status(Pe(1), 0);
        assert!(matches!(b.place(0, 50, &mut rng()), Placement::Forward(_)));
        assert_eq!(b.place(2, 50, &mut rng()), Placement::Local);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(BalanceStrategy::Local.name(), "local");
        assert_eq!(BalanceStrategy::acwn().name(), "acwn");
    }

    #[test]
    fn spec_spelling_round_trips() {
        let tuned = BalanceStrategy::Acwn { max_hops: 8, low_mark: 1 };
        for b in [
            BalanceStrategy::Local,
            BalanceStrategy::Random,
            BalanceStrategy::CentralManager,
            BalanceStrategy::TokenIdle,
            BalanceStrategy::acwn(),
            tuned.clone(),
        ] {
            assert_eq!(b.to_string().parse(), Ok(b));
        }
        assert_eq!(tuned.to_string(), "acwn:8/1");
        assert_eq!("acwn".parse(), Ok(BalanceStrategy::acwn()));
        for bad in ["", "magic", "acwn:", "acwn:4", "acwn:4/x", "acwn:-1/2"] {
            assert!(bad.parse::<BalanceStrategy>().is_err(), "accepted {bad:?}");
        }
    }
}
