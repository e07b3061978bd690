//! Deterministic fault injection for the simulated multicomputer.
//!
//! The 1991 Chare Kernel machines (NCUBE/2, iPSC/2) had unreliable
//! interconnects papered over by the vendor's message layer. This module
//! lets the simulator play that adversary on purpose: a [`FaultPlan`]
//! describes per-link message drop / duplication / extra delay, timed
//! link outage windows, and per-PE stalls or crashes, all driven by one
//! seed so a failing run replays exactly. With no plan installed the
//! simulator takes a `None` fast path and produces byte-identical
//! reports to a build without this module — fault injection is zero-cost
//! when off.
//!
//! Faults act at the *network* layer: the node program (and the Chare
//! Kernel's reliable-delivery protocol built on it) sees only the
//! consequences — missing, repeated or late packets, and silent peers.

use crate::pe::Pe;
use crate::time::{Cost, SimTime};

/// One SplitMix64 step: advance `state` and return its next output.
/// Tiny, full-period and identical on every platform, so a schedule
/// drawn from it replays across processes and builds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random source for fault decisions.
///
/// xoshiro256** seeded via SplitMix64 — self-contained so the simulator
/// stays free of external dependencies. All fault decisions for a run
/// are a pure function of ([`FaultPlan::seed`], packet routing order),
/// which the discrete-event simulator fixes, so a seed replays exactly.
#[derive(Clone, Debug)]
pub struct FaultRng {
    s: [u64; 4],
}

impl FaultRng {
    /// An rng whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into four non-zero words.
        let mut x = seed;
        FaultRng {
            s: [0; 4].map(|_| splitmix64(&mut x)),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// True with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still consume a draw so enabling a fault class does not
            // shift the decisions of the others.
            self.next_u64();
            return false;
        }
        if p >= 1.0 {
            self.next_u64();
            return true;
        }
        // Map the top 53 bits to [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Uniform draw in `[0, bound)`; 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            self.next_u64();
            return 0;
        }
        // Widening-multiply range reduction (bias negligible at u64 width).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A window during which one directed link delivers nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkOutage {
    /// Sending PE.
    pub from: Pe,
    /// Receiving PE.
    pub to: Pe,
    /// First instant of the outage (inclusive).
    pub start: SimTime,
    /// End of the outage (exclusive).
    pub end: SimTime,
}

impl LinkOutage {
    fn covers(&self, from: Pe, to: Pe, now: SimTime) -> bool {
        self.from == from && self.to == to && self.start <= now && now < self.end
    }
}

/// What happens to a PE at its scheduled fault time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeFault {
    /// The PE freezes — executes nothing, acks nothing — until the given
    /// time, then resumes with its queues intact. Models a transient
    /// hang (page fault storm, OS preemption) the kernel must ride out.
    Stall {
        /// The stalled PE.
        pe: Pe,
        /// When the stall begins.
        at: SimTime,
        /// When the PE resumes (exclusive).
        until: SimTime,
    },
    /// The PE halts permanently; packets addressed to it after this
    /// instant are black-holed.
    Crash {
        /// The crashed PE.
        pe: Pe,
        /// When the crash occurs.
        at: SimTime,
    },
}

/// A seeded, fully deterministic description of every fault a simulated
/// run will experience.
///
/// Probabilities apply per routed packet, evaluated in a fixed order
/// (drop, duplicate, delay) so runs replay from [`seed`](FaultPlan::seed)
/// alone. Scheduled faults ([`outages`](FaultPlan::outages),
/// [`pe_faults`](FaultPlan::pe_faults)) fire at their sim times
/// regardless of the seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions.
    pub seed: u64,
    /// Probability a packet is silently dropped in flight.
    pub drop_prob: f64,
    /// Probability a delivered packet arrives twice.
    pub dup_prob: f64,
    /// Probability a delivered packet is held back by an extra delay
    /// uniform in `[1, max_extra_delay]`.
    pub delay_prob: f64,
    /// Upper bound on the extra delay (ns).
    pub max_extra_delay: Cost,
    /// Timed windows during which a directed link drops everything.
    pub outages: Vec<LinkOutage>,
    /// Scheduled per-PE stalls and crashes.
    pub pe_faults: Vec<PeFault>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_extra_delay: Cost(0),
            outages: Vec::new(),
            pe_faults: Vec::new(),
        }
    }

    /// Drop each packet with probability `p`.
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Duplicate each delivered packet with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Delay each delivered packet with probability `p` by an extra
    /// uniform `[1, max]` ns.
    pub fn delay(mut self, p: f64, max: Cost) -> Self {
        self.delay_prob = p;
        self.max_extra_delay = max;
        self
    }

    /// Black out the directed link `from → to` over `[start, end)`.
    pub fn outage(mut self, from: Pe, to: Pe, start: SimTime, end: SimTime) -> Self {
        self.outages.push(LinkOutage {
            from,
            to,
            start,
            end,
        });
        self
    }

    /// Stall `pe` over `[at, until)`.
    pub fn stall(mut self, pe: Pe, at: SimTime, until: SimTime) -> Self {
        self.pe_faults.push(PeFault::Stall { pe, at, until });
        self
    }

    /// Crash `pe` at `at`, permanently.
    pub fn crash(mut self, pe: Pe, at: SimTime) -> Self {
        self.pe_faults.push(PeFault::Crash { pe, at });
        self
    }

    /// True if no fault of any kind can fire.
    pub fn is_noop(&self) -> bool {
        self.drop_prob <= 0.0
            && self.dup_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.outages.is_empty()
            && self.pe_faults.is_empty()
    }

    /// The fault classes this plan can actually fire, in canonical
    /// order. The unit a minimizer bisects over.
    pub fn classes(&self) -> Vec<FaultClass> {
        let mut out = Vec::new();
        if self.drop_prob > 0.0 {
            out.push(FaultClass::Drop);
        }
        if self.dup_prob > 0.0 {
            out.push(FaultClass::Dup);
        }
        if self.delay_prob > 0.0 {
            out.push(FaultClass::Delay);
        }
        if !self.outages.is_empty() {
            out.push(FaultClass::Outage);
        }
        if self.pe_faults.iter().any(|f| matches!(f, PeFault::Stall { .. })) {
            out.push(FaultClass::Stall);
        }
        if self.pe_faults.iter().any(|f| matches!(f, PeFault::Crash { .. })) {
            out.push(FaultClass::Crash);
        }
        out
    }

    /// A copy of this plan with one fault class removed entirely.
    ///
    /// The seed and every other class are untouched, so each probe run
    /// a minimizer makes stays a deterministic function of the reduced
    /// plan alone. The probabilistic classes share one decision stream;
    /// a disabled class still consumes its per-packet draw (see
    /// [`FaultRng::chance`] at p = 0), but classes that early-out
    /// (drop) or draw extra words (delay magnitude) shift the stream
    /// for later packets — so probes are individually replayable, not
    /// pointwise comparable to the original run.
    pub fn without(&self, class: FaultClass) -> FaultPlan {
        let mut p = self.clone();
        match class {
            FaultClass::Drop => p.drop_prob = 0.0,
            FaultClass::Dup => p.dup_prob = 0.0,
            FaultClass::Delay => {
                p.delay_prob = 0.0;
                p.max_extra_delay = Cost(0);
            }
            FaultClass::Outage => p.outages.clear(),
            FaultClass::Stall => p.pe_faults.retain(|f| !matches!(f, PeFault::Stall { .. })),
            FaultClass::Crash => p.pe_faults.retain(|f| !matches!(f, PeFault::Crash { .. })),
        }
        p
    }

    /// Serialize into the canonical one-line spec, parseable by
    /// [`FaultPlan::parse`]. Probabilities use Rust's shortest-roundtrip
    /// float formatting, so `parse(spec())` reproduces the plan exactly.
    ///
    /// Format (space-separated, classes omitted when inert):
    /// `seed=0x1F drop=0.05 dup=0.02 delay=0.05/200000
    ///  out=0>1@100-200 stall=5@300-1200 crash=3@0`
    pub fn spec(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("seed={:#x}", self.seed);
        if self.drop_prob > 0.0 {
            write!(s, " drop={}", self.drop_prob).unwrap();
        }
        if self.dup_prob > 0.0 {
            write!(s, " dup={}", self.dup_prob).unwrap();
        }
        if self.delay_prob > 0.0 {
            write!(s, " delay={}/{}", self.delay_prob, self.max_extra_delay.0).unwrap();
        }
        for o in &self.outages {
            write!(s, " out={}>{}@{}-{}", o.from.0, o.to.0, o.start.0, o.end.0).unwrap();
        }
        for f in &self.pe_faults {
            match *f {
                PeFault::Stall { pe, at, until } => {
                    write!(s, " stall={}@{}-{}", pe.0, at.0, until.0).unwrap();
                }
                PeFault::Crash { pe, at } => {
                    write!(s, " crash={}@{}", pe.0, at.0).unwrap();
                }
            }
        }
        s
    }

    /// Parse a plan from the spec format produced by
    /// [`FaultPlan::spec`]. Tokens may appear in any order; the `seed=`
    /// token is required (a plan without a seed is not replayable).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        fn num(s: &str) -> Result<u64, String> {
            if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex '{s}': {e}"))
            } else {
                s.parse().map_err(|e| format!("bad number '{s}': {e}"))
            }
        }
        fn prob(s: &str) -> Result<f64, String> {
            let p: f64 = s.parse().map_err(|e| format!("bad probability '{s}': {e}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} outside [0, 1]"));
            }
            Ok(p)
        }
        fn span(s: &str) -> Result<(u64, u64), String> {
            let (a, b) = s
                .split_once('-')
                .ok_or_else(|| format!("expected START-END, got '{s}'"))?;
            let (start, end) = (num(a)?, num(b)?);
            if end <= start {
                return Err(format!("empty window '{s}'"));
            }
            Ok((start, end))
        }
        let mut plan = FaultPlan::new(0);
        let mut saw_seed = false;
        for tok in spec.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected KEY=VALUE, got '{tok}'"))?;
            match key {
                "seed" => {
                    plan.seed = num(val)?;
                    saw_seed = true;
                }
                "drop" => plan.drop_prob = prob(val)?,
                "dup" => plan.dup_prob = prob(val)?,
                "delay" => {
                    let (p, max) = val
                        .split_once('/')
                        .ok_or_else(|| format!("expected delay=P/MAX_NS, got '{tok}'"))?;
                    plan.delay_prob = prob(p)?;
                    plan.max_extra_delay = Cost(num(max)?);
                }
                "out" => {
                    let (link, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("expected out=FROM>TO@START-END, got '{tok}'"))?;
                    let (from, to) = link
                        .split_once('>')
                        .ok_or_else(|| format!("expected FROM>TO, got '{link}'"))?;
                    let (start, end) = span(window)?;
                    plan = plan.outage(
                        Pe(num(from)? as u32),
                        Pe(num(to)? as u32),
                        SimTime(start),
                        SimTime(end),
                    );
                }
                "stall" => {
                    let (pe, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("expected stall=PE@START-END, got '{tok}'"))?;
                    let (at, until) = span(window)?;
                    plan = plan.stall(Pe(num(pe)? as u32), SimTime(at), SimTime(until));
                }
                "crash" => {
                    let (pe, at) = val
                        .split_once('@')
                        .ok_or_else(|| format!("expected crash=PE@TIME, got '{tok}'"))?;
                    plan = plan.crash(Pe(num(pe)? as u32), SimTime(num(at)?));
                }
                other => return Err(format!("unknown fault token '{other}'")),
            }
        }
        if !saw_seed {
            return Err("missing required 'seed=' token".into());
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// One bisectable class of faults in a [`FaultPlan`] — the granularity
/// at which a failure minimizer strips a plan down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Probabilistic packet drop.
    Drop,
    /// Probabilistic packet duplication.
    Dup,
    /// Probabilistic extra delivery delay.
    Delay,
    /// Scheduled link outage windows.
    Outage,
    /// Scheduled transient PE stalls.
    Stall,
    /// Scheduled permanent PE crashes.
    Crash,
}

impl FaultClass {
    /// All classes, in the canonical bisection order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::Drop,
        FaultClass::Dup,
        FaultClass::Delay,
        FaultClass::Outage,
        FaultClass::Stall,
        FaultClass::Crash,
    ];
}

/// Verdict for one routed packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Silently dropped (probabilistic).
    Drop,
    /// Dropped because the link is in an outage window.
    OutageDrop,
    /// Delivered, possibly late and/or twice.
    Deliver {
        /// Extra latency beyond the cost model.
        extra: Cost,
        /// Deliver a second copy (after the first).
        duplicate: bool,
    },
}

/// Counters of the faults a run actually experienced; reported in
/// `SimReport::faults`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped by the random-drop process.
    pub dropped: u64,
    /// Packets lost to link outage windows.
    pub outage_dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Packets held back by extra delay.
    pub delayed: u64,
    /// Packets black-holed at crashed PEs.
    pub crash_dropped: u64,
    /// Execute dispatches deferred because the PE was stalled.
    pub stall_deferrals: u64,
}

/// Live per-run fault state owned by the simulator: the plan, its rng,
/// and the counters.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: FaultRng,
    /// Observed fault counts (simulator updates these as faults fire).
    pub stats: FaultStats,
}

impl FaultState {
    /// Fresh state for a plan; the rng starts from the plan's seed.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        FaultState {
            plan,
            rng,
            stats: FaultStats::default(),
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of one packet routed `from → to` at `now`,
    /// updating the stats. Outage windows are checked first (no rng
    /// consumed — they are scheduled, not probabilistic), then drop /
    /// duplicate / delay draws in fixed order.
    pub fn judge(&mut self, from: Pe, to: Pe, now: SimTime) -> LinkVerdict {
        if self.plan.outages.iter().any(|o| o.covers(from, to, now)) {
            self.stats.outage_dropped += 1;
            return LinkVerdict::OutageDrop;
        }
        if self.plan.crashed_at(to, now) {
            self.stats.crash_dropped += 1;
            return LinkVerdict::Drop;
        }
        if self.rng.chance(self.plan.drop_prob) {
            self.stats.dropped += 1;
            return LinkVerdict::Drop;
        }
        let duplicate = self.rng.chance(self.plan.dup_prob);
        let delayed = self.rng.chance(self.plan.delay_prob);
        let extra = if delayed && self.plan.max_extra_delay.0 > 0 {
            Cost(1 + self.rng.below(self.plan.max_extra_delay.0))
        } else {
            Cost(0)
        };
        // `duplicated` is counted by the machine when it actually injects
        // the copy — the draw here may be vetoed for opaque payloads.
        if extra.0 > 0 {
            self.stats.delayed += 1;
        }
        LinkVerdict::Deliver { extra, duplicate }
    }

    /// If `pe` is stalled at `now`, the time it resumes.
    pub fn stalled_until(&self, pe: Pe, now: SimTime) -> Option<SimTime> {
        self.plan.pe_faults.iter().find_map(|f| match *f {
            PeFault::Stall { pe: p, at, until } if p == pe && at <= now && now < until => {
                Some(until)
            }
            _ => None,
        })
    }

    /// True if `pe` has crashed at or before `now`.
    pub fn crashed(&self, pe: Pe, now: SimTime) -> bool {
        self.plan.crashed_at(pe, now)
    }
}

impl FaultPlan {
    fn crashed_at(&self, pe: Pe, now: SimTime) -> bool {
        self.pe_faults
            .iter()
            .any(|f| matches!(*f, PeFault::Crash { pe: p, at } if p == pe && at <= now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn chance_extremes_consume_draws() {
        let mut a = FaultRng::new(7);
        assert!(!a.chance(0.0));
        assert!(a.chance(1.0));
        let mut b = FaultRng::new(7);
        b.next_u64();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_rate_roughly_matches() {
        let mut rng = FaultRng::new(1);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn below_bounds() {
        let mut rng = FaultRng::new(9);
        for bound in [1u64, 2, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.below(bound) < bound);
            }
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn judge_replays_from_seed() {
        let plan = FaultPlan::new(0xFA17).drop(0.1).duplicate(0.05).delay(0.2, Cost(500));
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..500u64 {
            let from = Pe((i % 4) as u32);
            let to = Pe(((i + 1) % 4) as u32);
            assert_eq!(a.judge(from, to, SimTime(i)), b.judge(from, to, SimTime(i)));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn outage_window_drops_only_inside() {
        let plan =
            FaultPlan::new(0).outage(Pe(0), Pe(1), SimTime(100), SimTime(200));
        let mut st = FaultState::new(plan);
        assert!(matches!(
            st.judge(Pe(0), Pe(1), SimTime(150)),
            LinkVerdict::OutageDrop
        ));
        assert!(matches!(
            st.judge(Pe(0), Pe(1), SimTime(200)),
            LinkVerdict::Deliver { .. }
        ));
        // Reverse direction unaffected.
        assert!(matches!(
            st.judge(Pe(1), Pe(0), SimTime(150)),
            LinkVerdict::Deliver { .. }
        ));
        assert_eq!(st.stats.outage_dropped, 1);
    }

    #[test]
    fn stall_and_crash_queries() {
        let plan = FaultPlan::new(0)
            .stall(Pe(2), SimTime(10), SimTime(20))
            .crash(Pe(3), SimTime(50));
        let st = FaultState::new(plan);
        assert_eq!(st.stalled_until(Pe(2), SimTime(15)), Some(SimTime(20)));
        assert_eq!(st.stalled_until(Pe(2), SimTime(20)), None);
        assert_eq!(st.stalled_until(Pe(1), SimTime(15)), None);
        assert!(!st.crashed(Pe(3), SimTime(49)));
        assert!(st.crashed(Pe(3), SimTime(50)));
        assert!(st.crashed(Pe(3), SimTime(1000)));
    }

    #[test]
    fn crashed_destination_black_holes() {
        let mut st = FaultState::new(FaultPlan::new(0).crash(Pe(1), SimTime(5)));
        assert!(matches!(
            st.judge(Pe(0), Pe(1), SimTime(6)),
            LinkVerdict::Drop
        ));
        assert_eq!(st.stats.crash_dropped, 1);
    }

    #[test]
    fn noop_plan_detected() {
        assert!(FaultPlan::new(1).is_noop());
        assert!(!FaultPlan::new(1).drop(0.01).is_noop());
        assert!(!FaultPlan::new(1).crash(Pe(0), SimTime(0)).is_noop());
    }

    fn full_plan() -> FaultPlan {
        FaultPlan::new(0xBAD_5EED)
            .drop(0.05)
            .duplicate(0.02)
            .delay(0.07, Cost(200_000))
            .outage(Pe(0), Pe(1), SimTime(100), SimTime(200))
            .outage(Pe(2), Pe(3), SimTime(500), SimTime(900))
            .stall(Pe(5), SimTime(300), SimTime(1_200))
            .crash(Pe(3), SimTime(0))
    }

    /// Structural equality for plans (FaultPlan has no PartialEq: the
    /// float probabilities make a blanket derive a footgun elsewhere).
    fn same_plan(a: &FaultPlan, b: &FaultPlan) -> bool {
        a.seed == b.seed
            && a.drop_prob == b.drop_prob
            && a.dup_prob == b.dup_prob
            && a.delay_prob == b.delay_prob
            && a.max_extra_delay == b.max_extra_delay
            && a.outages == b.outages
            && a.pe_faults == b.pe_faults
    }

    #[test]
    fn spec_roundtrips_exactly() {
        let plan = full_plan();
        let parsed = FaultPlan::parse(&plan.spec()).expect("own spec must parse");
        assert!(same_plan(&plan, &parsed), "{} != {}", plan, parsed);
        // An awkward float must survive the round trip bit-for-bit.
        let odd = FaultPlan::new(7).drop(0.1234567890123 / 3.0);
        let parsed = FaultPlan::parse(&odd.spec()).unwrap();
        assert_eq!(odd.drop_prob.to_bits(), parsed.drop_prob.to_bits());
        // Noop plan: just the seed.
        assert_eq!(FaultPlan::new(0x1F).spec(), "seed=0x1f");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",                          // no seed
            "drop=0.1",                  // no seed either
            "seed=1 drop=1.5",           // probability out of range
            "seed=1 delay=0.1",          // missing /MAX
            "seed=1 out=0>1@200-100",    // empty window
            "seed=1 stall=2@50-50",      // empty window
            "seed=1 flood=0.5",          // unknown class
            "seed=1 crash=3",            // missing @TIME
            "seed=zz",                   // bad number
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted: '{bad}'");
        }
    }

    #[test]
    fn classes_and_without_cover_every_class() {
        let plan = full_plan();
        assert_eq!(
            plan.classes(),
            vec![
                FaultClass::Drop,
                FaultClass::Dup,
                FaultClass::Delay,
                FaultClass::Outage,
                FaultClass::Stall,
                FaultClass::Crash,
            ]
        );
        for class in FaultClass::ALL {
            let reduced = plan.without(class);
            assert!(
                !reduced.classes().contains(&class),
                "{class:?} survived removal"
            );
            assert_eq!(reduced.classes().len(), plan.classes().len() - 1);
            assert_eq!(reduced.seed, plan.seed, "removal must not reseed");
        }
        // Removing every class yields a noop plan (minimizer endpoint).
        let mut bare = plan;
        for class in FaultClass::ALL {
            bare = bare.without(class);
        }
        assert!(bare.is_noop());
    }

    #[test]
    fn without_dup_preserves_the_decision_stream() {
        // The duplication class consumes exactly one draw per delivered
        // packet whether enabled or not, so removing it must leave every
        // drop and delay decision on the same packets.
        let plan = FaultPlan::new(42).drop(0.3).duplicate(0.2).delay(0.2, Cost(100));
        let mut full = FaultState::new(plan.clone());
        let mut nodup = FaultState::new(plan.without(FaultClass::Dup));
        for i in 0..2_000u64 {
            let full_v = full.judge(Pe(0), Pe(1), SimTime(i));
            let nodup_v = nodup.judge(Pe(0), Pe(1), SimTime(i));
            match (full_v, nodup_v) {
                (LinkVerdict::Drop, LinkVerdict::Drop) => {}
                (
                    LinkVerdict::Deliver { extra: a, duplicate: _ },
                    LinkVerdict::Deliver { extra: b, duplicate: dup },
                ) => {
                    assert_eq!(a, b, "packet {i}: delay decision shifted");
                    assert!(!dup, "packet {i}: removed class fired");
                }
                (a, b) => panic!("packet {i}: drop decision shifted ({a:?} vs {b:?})"),
            }
        }
        assert_eq!(full.stats.dropped, nodup.stats.dropped);
        assert_eq!(full.stats.delayed, nodup.stats.delayed);
    }
}
