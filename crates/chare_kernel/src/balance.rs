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
//!
//! Every strategy decides from one table, the `Balancer`: a peer list,
//! one load estimate per peer, the PEs this PE reports its own load to,
//! and one rotation cursor. Which parts a strategy reads:
//!
//! | strategy | peers | loads | report to | cursor |
//! |---|---|---|---|---|
//! | local | — | — | — | — |
//! | random | — | — | — | — |
//! | central, PE 0 | every PE | reports, own backlog, `+1` per pick | — | tie-break start |
//! | central, others | — | — | PE 0 | — |
//! | token | neighbors | — | — | next victim |
//! | ACWN | neighbors | reports, `+1` per pick | neighbors | — |
//!
//! The manager and ACWN choose with the same scan — the first
//! least-loaded peer in rotation order from a start index, among those
//! admitted — for placement and for re-homing a seed alike; random
//! placement draws from the seed manager's RNG instead.
//!
//! The strategies only decide. The `SeedManager` is the balancing
//! *service*, one stratum above the transport: it **owns** the PE's
//! `Balancer`, the stealable seed pool, the work-request bookkeeping,
//! the placement RNG and the handler for `LoadStatus`, `WorkReq` and
//! `WorkNack`. It **may call** the transport, through the `Port` it is
//! handed, and push a kept seed on the work queue the scheduler lends
//! it; never the scheduler itself or another service.

use std::collections::VecDeque;

use multicomputer::Pe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::envelope::{Seed, SysMsg, WorkItem, PLACED};
use crate::queueing::SchedQueue;
use crate::reliable::RedirectSeed;
use crate::trace::EventKind;
use crate::transport::Port;

/// The scheduler's work queue, as lent to the seed manager.
type Queue<'a> = dyn SchedQueue<WorkItem> + 'a;

/// Give up requesting work after this many consecutive NACKs; arrival of
/// any new seed resets the budget.
const NACK_BUDGET: u32 = 4;

/// Re-advertise load to interested PEs when the backlog changed by at
/// least this much since the last report (or crossed zero).
const LOAD_REPORT_DELTA: u32 = 4;

/// Maximum work requests a PE remembers while its seed pool is empty.
const MAX_DEFERRED: usize = 16;

/// Forwarding budget of a work request's walk over the neighbor graph.
const WORK_REQ_TTL: u8 = 8;

/// Most seeds handed over per work request (steal-half cap).
const GRANT_MAX: usize = 16;

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

    /// PE `pe`'s balancer on a machine of `npes`, whose topology
    /// neighbours are `neighbors`.
    pub(crate) fn make(&self, pe: Pe, npes: usize, neighbors: Vec<Pe>) -> Balancer {
        let (peers, report_to) = match self {
            BalanceStrategy::Local | BalanceStrategy::Random => (vec![], vec![]),
            BalanceStrategy::CentralManager if pe == Pe::ZERO => (Pe::all(npes).collect(), vec![]),
            BalanceStrategy::CentralManager => (vec![], vec![Pe::ZERO]),
            BalanceStrategy::TokenIdle => (neighbors, vec![]),
            BalanceStrategy::Acwn { .. } => (neighbors.clone(), neighbors),
        };
        Balancer {
            strategy: self.clone(),
            pe,
            npes,
            loads: vec![0; peers.len()],
            peers,
            report_to,
            cursor: 0,
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

/// One PE's load balancing table: the strategy and what it decides from
/// (the module doc says which strategy reads which field). The kernel
/// asks it about every seed that is still placeable and feeds it load
/// reports from other PEs.
pub(crate) struct Balancer {
    strategy: BalanceStrategy,
    pe: Pe,
    npes: usize,
    /// The PEs this one may place a seed on, re-home one to or ask for
    /// work.
    peers: Vec<Pe>,
    /// Load estimate per peer (parallel to `peers`).
    loads: Vec<u64>,
    /// PEs that should receive this PE's load reports.
    report_to: Vec<Pe>,
    /// Rotation over `peers`: the manager's tie-break start, the token
    /// strategy's next victim.
    cursor: usize,
}

impl Balancer {
    /// Decide where a seed goes. `hops` counts previous forwards;
    /// `local_load` is this PE's runnable backlog. Only random placement
    /// draws from `rng`, once per seed at hops 0.
    pub(crate) fn place(&mut self, hops: u32, local_load: usize, rng: &mut StdRng) -> Placement {
        match self.strategy {
            BalanceStrategy::Local | BalanceStrategy::TokenIdle => Placement::Local,
            // Uniform at the source; arrivals settle.
            BalanceStrategy::Random if hops == 0 => {
                Placement::Forward(Pe::from(rng.random_range(0..self.npes)))
            }
            BalanceStrategy::Random => Placement::Local,
            // The manager assigns the seed to its least-loaded estimate
            // (its own is its actual backlog); equal loads take turns.
            BalanceStrategy::CentralManager if self.pe == Pe::ZERO => {
                self.loads[0] = local_load as u64;
                let start = self.turn();
                let best = self.least_loaded(start, |_| true).expect("every PE is a peer");
                match self.claim(best) {
                    pe if pe == self.pe => Placement::Local,
                    pe => Placement::Forward(pe),
                }
            }
            // Route to the manager; settle once it has assigned.
            BalanceStrategy::CentralManager if hops == 0 => Placement::Forward(Pe::ZERO),
            BalanceStrategy::CentralManager => Placement::Local,
            BalanceStrategy::Acwn { max_hops, low_mark } => {
                // Out of hops, or hungry enough to keep it: contract.
                if hops >= max_hops || (local_load as u32) < low_mark {
                    return Placement::Local;
                }
                // Forward only to a neighbor at least 2 below this PE.
                match self.least_loaded(0, |_| true) {
                    Some(i) if self.loads[i] + 2 <= local_load as u64 => {
                        Placement::Forward(self.claim(i))
                    }
                    _ => Placement::Local,
                }
            }
        }
    }

    /// Whether balancing is receiver-initiated (token strategy): locally
    /// created seeds wait in the stealable pool instead of the main
    /// queue, and this PE sends work requests when it goes idle.
    pub(crate) fn pulls_work(&self) -> bool {
        self.strategy == BalanceStrategy::TokenIdle
    }

    /// Incorporate a load report from another PE; a PE that is not a
    /// peer is ignored.
    pub(crate) fn on_load_status(&mut self, from: Pe, load: u32) {
        if let Some(i) = self.peers.iter().position(|&p| p == from) {
            self.loads[i] = load as u64;
        }
    }

    /// PEs that should receive this PE's load reports.
    pub(crate) fn load_targets(&self) -> &[Pe] {
        &self.report_to
    }

    /// Choose a PE to ask for work (token strategy); round-robins so
    /// repeated NACKs try different victims.
    pub(crate) fn pick_victim(&mut self) -> Option<Pe> {
        if !self.pulls_work() || self.peers.is_empty() {
            return None;
        }
        let i = self.turn();
        Some(self.peers[i])
    }

    /// Choose a new home for a seed whose delivery to `suspect` timed
    /// out (reliable-delivery recovery). `None` means the strategy has
    /// no opinion and the seed manager falls back to a uniform pick
    /// avoiding the suspect.
    pub(crate) fn redirect_target(&mut self, suspect: Pe) -> Option<Pe> {
        match self.strategy {
            BalanceStrategy::Local | BalanceStrategy::Random => None,
            // The next victim in rotation that is not the suspect.
            BalanceStrategy::TokenIdle => {
                (0..self.peers.len()).filter_map(|_| self.pick_victim()).find(|&v| v != suspect)
            }
            // The least-loaded peer that is neither the suspect nor this PE.
            BalanceStrategy::CentralManager | BalanceStrategy::Acwn { .. } => {
                let me = self.pe;
                self.least_loaded(0, |p| p != suspect && p != me).map(|i| self.claim(i))
            }
        }
    }

    /// The first least-loaded peer in rotation order from index `start`,
    /// among those `admit` accepts.
    fn least_loaded(&self, start: usize, admit: impl Fn(Pe) -> bool) -> Option<usize> {
        (start..self.peers.len())
            .chain(0..start)
            .filter(|&i| admit(self.peers[i]))
            .min_by_key(|&i| self.loads[i])
    }

    /// Count one more seed against peer `i` — optimistically, so a burst
    /// spreads even between load reports — and name it.
    fn claim(&mut self, i: usize) -> Pe {
        self.loads[i] += 1;
        self.peers[i]
    }

    /// The peer index under the cursor; steps the cursor.
    fn turn(&mut self) -> usize {
        let i = self.cursor % self.peers.len();
        self.cursor += 1;
        i
    }
}

/// One PE's seed balancing state.
pub(crate) struct SeedManager {
    balancer: Balancer,
    /// Stealable seed pool (token balancing keeps seeds here).
    pool: VecDeque<Seed>,
    /// Token strategy: PEs whose work request found us empty; granted as
    /// soon as spare seeds appear.
    deferred_reqs: VecDeque<Pe>,
    awaiting_work: bool,
    nack_budget: u32,
    last_advertised: Option<u32>,
    rng: StdRng,
}

impl SeedManager {
    pub(crate) fn new(balancer: Balancer, pe: Pe, rng_seed: u64) -> Self {
        SeedManager {
            balancer,
            pool: VecDeque::new(),
            deferred_reqs: VecDeque::new(),
            awaiting_work: false,
            nack_budget: NACK_BUDGET,
            last_advertised: None,
            rng: StdRng::seed_from_u64(rng_seed ^ (pe.index() as u64).wrapping_mul(0x9E37_79B9)),
        }
    }

    /// Seeds waiting in the stealable pool.
    pub(crate) fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// The scheduler ran out of queued work: run a pooled seed here.
    pub(crate) fn pop_pooled(&mut self) -> Option<WorkItem> {
        self.pool.pop_front().map(WorkItem::NewChare)
    }

    /// Keep or forward: a function of the seed's hop count, this PE's
    /// runnable backlog and the strategy's state, nothing else — it
    /// touches neither queue nor net.
    fn decide(&mut self, me: Pe, hops: u32, load: usize) -> Placement {
        if hops == PLACED {
            return Placement::Local;
        }
        match self.balancer.place(hops, load, &mut self.rng) {
            // "Forward to self" settles the seed.
            Placement::Forward(pe) if pe == me => Placement::Local,
            p => p,
        }
    }

    /// A chare creation was requested on this PE: place the seed on
    /// `on`, or wherever the load balancer says. Like [`Self::place`],
    /// returns whether the seed stayed here.
    pub(crate) fn spawn(
        &mut self,
        port: &mut Port,
        queue: &mut Queue<'_>,
        on: Option<Pe>,
        seed: Seed,
    ) -> bool {
        port.counters.seeds_spawned += 1;
        match on {
            None => self.place(port, queue, seed, 0),
            // Settle locally without a network round trip, like the
            // kernel's local-creation fast path.
            Some(pe) if pe == port.t.pe => self.place(port, queue, seed, PLACED),
            Some(pe) => {
                port.post(pe, SysMsg::NewChare { seed, hops: PLACED });
                false
            }
        }
    }

    /// Run a seed through the load balancer: keep it here — in `queue`,
    /// or in the stealable pool — or forward it. Returns whether it
    /// stayed (the backlog grew).
    pub(crate) fn place(
        &mut self,
        port: &mut Port,
        queue: &mut Queue<'_>,
        seed: Seed,
        hops: u32,
    ) -> bool {
        let kind = seed.kind;
        match self.decide(port.t.pe, hops, queue.len() + self.pool.len()) {
            Placement::Local => {
                port.counters.seeds_kept += 1;
                port.emit(|| EventKind::SeedKept { kind, hops });
                self.nack_budget = NACK_BUDGET;
                self.awaiting_work = false;
                // Only locally created seeds are stealable; work that
                // already migrated here executes here (otherwise seeds
                // circulate between hungry PEs instead of running).
                if self.balancer.pulls_work() && hops == 0 {
                    self.pool.push_back(seed);
                    self.grant_deferred(port);
                } else {
                    queue.push(seed.prio.clone(), WorkItem::NewChare(seed));
                }
                true
            }
            Placement::Forward(pe) => {
                port.counters.seeds_forwarded += 1;
                port.emit(|| EventKind::SeedForwarded { kind, to: pe, hops });
                let hops = hops.saturating_add(1);
                port.post(pe, SysMsg::NewChare { seed, hops });
                false
            }
        }
    }

    /// Give a seed the transport reclaimed a new home away from the PE
    /// that stopped acknowledging. Returns whether it settled here.
    pub(crate) fn rehome(
        &mut self,
        port: &mut Port,
        queue: &mut Queue<'_>,
        rd: RedirectSeed,
    ) -> bool {
        port.counters.seeds_redirected += 1;
        let target = self.redirect_target(port.t.pe, rd.suspect, port.t.suspects());
        port.emit(|| EventKind::SeedRedirected { to: target });
        let SysMsg::NewChare { seed, .. } = rd.seed else {
            unreachable!("only seeds are reclaimed");
        };
        if target == port.t.pe {
            // The seed was counted as sent at its original post;
            // settling it here IS its delivery, so the quiescence
            // recv counter must balance or QD never declares.
            port.counters.user_recv += 1;
            self.place(port, queue, seed, PLACED)
        } else {
            // hops = 1 so the receiver's balancer settles it rather
            // than bouncing it onward. The seed stays redirectable:
            // if this target turns out dead too, the suspect filter
            // steers the next redirect somewhere fresh. Transmitted,
            // not posted: it was counted when first posted.
            port.transmit(target, SysMsg::NewChare { seed, hops: 1 });
            false
        }
    }

    /// Hand pooled seeds to `to`: half the pool, capped — the classic
    /// steal-half policy, so one request amortizes the round trip.
    fn grant_to(&mut self, port: &mut Port, to: Pe) {
        let count = (self.pool.len().div_ceil(2)).min(GRANT_MAX);
        for _ in 0..count {
            let Some(seed) = self.pool.pop_back() else {
                return;
            };
            port.counters.work_grants += 1;
            port.post(to, SysMsg::NewChare { seed, hops: 1 });
        }
    }

    /// Grant deferred work requests while spare seeds remain. Keeps the
    /// last pooled seed for itself so a lone seed cannot ping-pong
    /// between mutually idle PEs.
    fn grant_deferred(&mut self, port: &mut Port) {
        while self.pool.len() > 1 {
            let Some(to) = self.deferred_reqs.pop_front() else {
                return;
            };
            self.grant_to(port, to);
        }
    }

    /// Issue a token-strategy work request if this PE is idle and has
    /// budget left.
    pub(crate) fn request_work(&mut self, port: &mut Port, queue: &Queue<'_>) {
        if !self.balancer.pulls_work()
            || self.awaiting_work
            || self.nack_budget == 0
            || queue.len() + self.pool.len() > 0
        {
            return;
        }
        if let Some(victim) = self.balancer.pick_victim() {
            port.counters.work_reqs += 1;
            self.awaiting_work = true;
            let origin = port.t.pe;
            port.post(victim, SysMsg::WorkReq { origin, ttl: WORK_REQ_TTL });
        }
    }

    /// Advertise backlog changes to PEs whose balancers want load info.
    pub(crate) fn report_load(&mut self, port: &mut Port, queue: &Queue<'_>) {
        let targets = self.balancer.load_targets();
        if targets.is_empty() {
            return;
        }
        let load = (queue.len() + self.pool.len()) as u32;
        let significant = match self.last_advertised {
            None => true,
            Some(prev) => prev.abs_diff(load) >= LOAD_REPORT_DELTA || (prev == 0) != (load == 0),
        };
        if significant {
            self.last_advertised = Some(load);
            port.counters.load_reports += 1;
            for &t in targets {
                port.post(t, SysMsg::LoadStatus { load });
            }
        }
    }

    /// Choose the new home of a seed reclaimed from `suspect`;
    /// `suspects` marks every destination this PE has timed a seed out
    /// on.
    ///
    /// Never re-aim at any of them (the set includes `suspect`). The
    /// set only grows, so a seed that keeps timing out bounces through
    /// at most `npes - 1` fresh destinations before settling here —
    /// without this, a congested machine whose RTT exceeds the seed
    /// retry budget reclaims *live* in-flight seeds and re-launches
    /// them forever, and each bounce adds traffic that keeps the RTT
    /// high: a self-sustaining redirect livelock.
    fn redirect_target(&mut self, me: Pe, suspect: Pe, suspects: &[bool]) -> Pe {
        let ok = |p: Pe| p != suspect && suspects.get(p.index()) == Some(&false);
        if let Some(t) = self.balancer.redirect_target(suspect).filter(|&t| ok(t)) {
            return t;
        }
        // Uniform over the non-suspect PEs; run it here if the suspects
        // were the only alternative.
        let cands: Vec<Pe> = Pe::all(suspects.len()).filter(|&p| ok(p) && p != me).collect();
        if cands.is_empty() {
            me
        } else {
            cands[self.rng.random_range(0..cands.len())]
        }
    }

    /// Handle one balancing kernel message from `from`.
    pub(crate) fn handle(&mut self, port: &mut Port, queue: &Queue<'_>, from: Pe, sys: SysMsg) {
        match sys {
            SysMsg::LoadStatus { load } => self.balancer.on_load_status(from, load),
            SysMsg::WorkReq { origin, ttl } => {
                if !self.pool.is_empty() {
                    self.grant_to(port, origin);
                } else if !queue.is_empty() {
                    // Busy but nothing spare yet: remember the hungry PE
                    // and grant once seeds appear.
                    if self.deferred_reqs.len() < MAX_DEFERRED {
                        self.deferred_reqs.push_back(origin);
                    } else {
                        port.post(origin, SysMsg::WorkNack);
                    }
                } else if let Some(next) =
                    (ttl > 0).then(|| self.balancer.pick_victim()).flatten()
                {
                    // Idle ourselves with TTL left: pass the request to
                    // our next neighbor in round-robin order (the
                    // rotation our own requests use), until a PE with
                    // work answers or the TTL runs out.
                    port.post(next, SysMsg::WorkReq { origin, ttl: ttl - 1 });
                } else {
                    port.post(origin, SysMsg::WorkNack);
                }
            }
            SysMsg::WorkNack => {
                port.counters.work_nacks += 1;
                self.awaiting_work = false;
                self.nack_budget = self.nack_budget.saturating_sub(1);
                self.request_work(port, queue);
            }
            _ => unreachable!("not a balancing message"),
        }
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
        assert!(!b.pulls_work());
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
        assert!(b.pulls_work());
        assert_eq!(b.place(0, 0, &mut rng()), Placement::Local);
        let picks: Vec<Pe> = (0..4).filter_map(|_| b.pick_victim()).collect();
        assert_eq!(picks, vec![Pe(1), Pe(2), Pe(4), Pe(1)]);
    }

    #[test]
    fn token_with_no_neighbors_never_picks() {
        let mut b = BalanceStrategy::TokenIdle.make(Pe(0), 1, vec![]);
        assert_eq!(b.pick_victim(), None);
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

    /// One call on a balancer and the answer it must give.
    enum Call {
        /// `place(hops, local_load)`.
        Place(u32, usize, Placement),
        /// `redirect_target(suspect)`.
        Redirect(u32, Option<Pe>),
        /// `pick_victim()`.
        Victim(Option<Pe>),
    }
    use Call::{Place, Redirect, Victim};
    use Placement::{Forward, Local};

    /// One row of the decision table: a balancer built by `make`, the
    /// load reports it hears, the calls it answers in order, then its
    /// load estimates, its report targets and how many placement draws
    /// it took from the RNG.
    struct Case {
        name: &'static str,
        strategy: BalanceStrategy,
        pe: u32,
        npes: usize,
        neighbors: &'static [u32],
        reports: &'static [(u32, u32)],
        calls: &'static [Call],
        loads: &'static [u64],
        targets: &'static [Pe],
        draws: usize,
    }

    const ACWN: BalanceStrategy = BalanceStrategy::acwn();
    const MGR: BalanceStrategy = BalanceStrategy::CentralManager;
    const TOKEN: BalanceStrategy = BalanceStrategy::TokenIdle;
    const N3: &[u32] = &[1, 2, 3];
    const N3_TARGETS: &[Pe] = &[Pe(1), Pe(2), Pe(3)];

    const CASES: &[Case] = &[
        Case {
            name: "acwn: a seed out of hops settles",
            strategy: ACWN, pe: 0, npes: 8, neighbors: N3,
            reports: &[(1, 0), (2, 0), (3, 0)],
            calls: &[
                Place(4, 50, Local),
                Place(9, 50, Local),
                Place(3, 50, Forward(Pe(1))),
                Victim(None),
            ],
            loads: &[1, 0, 0], targets: N3_TARGETS, draws: 0,
        },
        Case {
            name: "acwn: below the low mark contracts",
            strategy: ACWN, pe: 0, npes: 8, neighbors: N3,
            reports: &[],
            calls: &[Place(0, 0, Local), Place(0, 1, Local), Place(0, 2, Forward(Pe(1)))],
            loads: &[1, 0, 0], targets: N3_TARGETS, draws: 0,
        },
        Case {
            name: "acwn: forwards only with a margin of 2",
            strategy: ACWN, pe: 0, npes: 8, neighbors: N3,
            reports: &[(1, 4), (2, 3), (3, 5)],
            calls: &[Place(0, 4, Local), Place(0, 5, Forward(Pe(2)))],
            loads: &[4, 4, 5], targets: N3_TARGETS, draws: 0,
        },
        Case {
            name: "acwn: the estimate bump makes the next seed contract",
            strategy: ACWN, pe: 0, npes: 8, neighbors: &[1, 2],
            reports: &[(1, 5), (2, 3)],
            calls: &[Place(0, 5, Forward(Pe(2))), Place(0, 5, Local)],
            loads: &[5, 4], targets: &[Pe(1), Pe(2)], draws: 0,
        },
        Case {
            name: "acwn: equal estimates go to the first neighbor",
            strategy: ACWN, pe: 0, npes: 8, neighbors: N3,
            reports: &[(1, 2), (2, 1), (3, 1)],
            calls: &[
                Place(0, 10, Forward(Pe(2))),
                Place(0, 10, Forward(Pe(3))),
                Place(0, 10, Forward(Pe(1))),
            ],
            loads: &[3, 2, 2], targets: N3_TARGETS, draws: 0,
        },
        Case {
            name: "acwn: a report from a non-neighbor is ignored",
            strategy: ACWN, pe: 0, npes: 8, neighbors: &[1, 2],
            reports: &[(1, 7), (5, 0), (2, 7)],
            calls: &[Place(0, 8, Local)],
            loads: &[7, 7], targets: &[Pe(1), Pe(2)], draws: 0,
        },
        Case {
            name: "acwn: no neighbors keeps every seed",
            strategy: ACWN, pe: 0, npes: 1, neighbors: &[],
            reports: &[],
            calls: &[Place(0, 50, Local), Redirect(1, None)],
            loads: &[], targets: &[], draws: 0,
        },
        Case {
            name: "acwn: a redirect takes the least-loaded non-suspect",
            strategy: ACWN, pe: 0, npes: 8, neighbors: N3,
            reports: &[(1, 0), (2, 3), (3, 1)],
            calls: &[Redirect(1, Some(Pe(3))), Redirect(3, Some(Pe(1))), Redirect(2, Some(Pe(1)))],
            loads: &[2, 3, 2], targets: N3_TARGETS, draws: 0,
        },
        Case {
            name: "acwn: a redirect with only the suspect around has no opinion",
            strategy: ACWN, pe: 2, npes: 8, neighbors: &[1],
            reports: &[],
            calls: &[Redirect(1, None)],
            loads: &[0], targets: &[Pe(1)], draws: 0,
        },
        Case {
            name: "manager: equal loads rotate, its own included",
            strategy: MGR, pe: 0, npes: 4, neighbors: &[1],
            reports: &[],
            calls: &[
                Place(0, 0, Local),
                Place(0, 0, Forward(Pe(1))),
                Place(1, 0, Forward(Pe(2))),
                Place(2, 0, Forward(Pe(3))),
                Place(0, 0, Local),
            ],
            loads: &[1, 1, 1, 1], targets: &[], draws: 0,
        },
        Case {
            name: "manager: assigns to the least loaded by report",
            strategy: MGR, pe: 0, npes: 4, neighbors: &[],
            reports: &[(1, 10), (2, 0), (3, 5)],
            calls: &[Place(1, 50, Forward(Pe(2))), Place(1, 50, Forward(Pe(2))), Victim(None)],
            loads: &[50, 10, 2, 5], targets: &[], draws: 0,
        },
        Case {
            name: "manager: places on itself when it is least loaded",
            strategy: MGR, pe: 0, npes: 4, neighbors: &[],
            reports: &[(1, 3), (2, 3), (3, 3)],
            calls: &[Place(0, 1, Local), Place(0, 3, Forward(Pe(1)))],
            loads: &[3, 4, 3, 3], targets: &[], draws: 0,
        },
        Case {
            name: "manager: a redirect skips the suspect and itself, from PE 1 on",
            strategy: MGR, pe: 0, npes: 4, neighbors: &[],
            reports: &[(1, 0), (2, 1), (3, 1)],
            calls: &[Redirect(1, Some(Pe(2))), Redirect(1, Some(Pe(3))), Place(0, 0, Local)],
            loads: &[1, 0, 2, 2], targets: &[], draws: 0,
        },
        Case {
            name: "manager: a redirect with no third PE has no opinion",
            strategy: MGR, pe: 0, npes: 2, neighbors: &[],
            reports: &[],
            calls: &[Redirect(1, None)],
            loads: &[0, 0], targets: &[], draws: 0,
        },
        Case {
            name: "manager's worker: routes hops 0 to PE 0 and settles the rest",
            strategy: MGR, pe: 3, npes: 8, neighbors: &[2],
            reports: &[(1, 7), (0, 7)],
            calls: &[
                Place(0, 9, Forward(Pe::ZERO)),
                Place(1, 9, Local),
                Place(2, 0, Local),
                Redirect(5, None),
            ],
            loads: &[], targets: &[Pe::ZERO], draws: 0,
        },
        Case {
            name: "token: victims round-robin over the neighbors",
            strategy: TOKEN, pe: 0, npes: 8, neighbors: &[1, 2, 4],
            reports: &[],
            calls: &[
                Place(0, 50, Local),
                Victim(Some(Pe(1))),
                Victim(Some(Pe(2))),
                Victim(Some(Pe(4))),
                Victim(Some(Pe(1))),
            ],
            loads: &[0, 0, 0], targets: &[], draws: 0,
        },
        Case {
            name: "token: a redirect takes the next victim, skipping the suspect",
            strategy: TOKEN, pe: 0, npes: 8, neighbors: &[1, 2, 4],
            reports: &[],
            calls: &[
                Victim(Some(Pe(1))),
                Redirect(2, Some(Pe(4))),
                Victim(Some(Pe(1))),
                Redirect(1, Some(Pe(2))),
            ],
            loads: &[0, 0, 0], targets: &[], draws: 0,
        },
        Case {
            name: "token: an empty neighborhood neither asks nor redirects",
            strategy: TOKEN, pe: 0, npes: 1, neighbors: &[],
            reports: &[],
            calls: &[Victim(None), Redirect(1, None), Place(0, 9, Local)],
            loads: &[], targets: &[], draws: 0,
        },
        Case {
            name: "token: a lone suspect neighbor has no redirect",
            strategy: TOKEN, pe: 0, npes: 2, neighbors: &[1],
            reports: &[],
            calls: &[Redirect(1, None), Victim(Some(Pe(1)))],
            loads: &[0], targets: &[], draws: 0,
        },
        Case {
            name: "random: forwards at hops 0 only, one draw each",
            strategy: BalanceStrategy::Random, pe: 0, npes: 1, neighbors: &[],
            reports: &[(0, 3)],
            calls: &[
                Place(0, 0, Forward(Pe(0))),
                Place(1, 0, Local),
                Place(7, 9, Local),
                Redirect(0, None),
                Victim(None),
                Place(0, 9, Forward(Pe(0))),
            ],
            loads: &[], targets: &[], draws: 2,
        },
        Case {
            name: "local: keeps every seed and has no opinion",
            strategy: BalanceStrategy::Local, pe: 1, npes: 4, neighbors: &[0, 2],
            reports: &[(0, 9)],
            calls: &[Place(0, 100, Local), Place(3, 0, Local), Redirect(0, None), Victim(None)],
            loads: &[], targets: &[], draws: 0,
        },
    ];

    #[test]
    fn every_decision_matches_the_table() {
        for c in CASES {
            let neighbors = c.neighbors.iter().map(|&n| Pe(n)).collect();
            let mut b = c.strategy.make(Pe(c.pe), c.npes, neighbors);
            for &(from, load) in c.reports {
                b.on_load_status(Pe(from), load);
            }
            let mut r = rng();
            for (step, call) in c.calls.iter().enumerate() {
                let at = format!("{}: call {step}", c.name);
                match *call {
                    Place(hops, load, want) => assert_eq!(b.place(hops, load, &mut r), want, "{at}"),
                    Redirect(suspect, want) => assert_eq!(b.redirect_target(Pe(suspect)), want, "{at}"),
                    Victim(want) => assert_eq!(b.pick_victim(), want, "{at}"),
                }
            }
            assert_eq!(b.loads, c.loads, "{}: load estimates", c.name);
            assert_eq!(b.load_targets(), c.targets, "{}: report targets", c.name);
            let mut want = rng();
            for _ in 0..c.draws {
                want.random_range(0..c.npes);
            }
            assert_eq!(r.random::<u64>(), want.random::<u64>(), "{}: RNG draws", c.name);
        }
    }
}
