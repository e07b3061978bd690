//! Randomized-but-replayable scenarios: which benchmark, on which
//! simulated machine, with which kernel strategies and reliable-layer
//! knobs.
//!
//! A [`Scenario`] is the *victim configuration* half of one campaign
//! run (the fault storm is the other half, see [`crate::storm`]). It is
//! fully described by a one-line spec string ([`Scenario::spec`] /
//! [`Scenario::parse`]) so failing runs can be replayed from a single
//! shell command and committed to the regression corpus as plain text.
//!
//! Scenarios are drawn from a [`FaultRng`] — the same deterministic
//! generator the fault layer uses — so a campaign seed expands into the
//! exact same scenario sequence on every machine, every time.

use chare_kernel::prelude::*;
use chare_kernel::CkReport;
use ck_apps::spec::Spec;
use multicomputer::{FaultPlan, FaultRng};

pub use ck_apps::registry::Answer;

/// Reliable-delivery knobs a scenario runs with, in spec-friendly
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelKnobs {
    /// Base retransmission timeout, microseconds.
    pub timeout_us: u64,
    /// Seed retry budget before redirect.
    pub retry: u32,
    /// Per-destination send window.
    pub window: u32,
}

impl RelKnobs {
    /// The kernel-facing config (validated at program construction).
    pub fn to_config(self) -> ReliableConfig {
        ReliableConfig {
            timeout: Cost::micros(self.timeout_us),
            seed_retry_limit: self.retry,
            window: self.window,
        }
    }
}

/// One campaign run's victim configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Benchmark, parameters and kernel strategies — a registry spec
    /// at campaign scale (small enough that one run takes milliseconds;
    /// a CI campaign does hundreds of them).
    pub prog: Spec,
    /// Simulated machine size.
    pub npes: usize,
    /// Machine cost preset (also fixes the topology).
    pub preset: MachinePreset,
    /// Reliable-layer knobs; `None` runs unprotected (only storm-free
    /// or deliberately-failing runs survive that).
    pub rel: Option<RelKnobs>,
}

impl Scenario {
    /// One-line spec, parseable by [`Scenario::parse`]. Example:
    /// `app=nqueens:n=8,grain=4,q=fifo,bal=acwn:4/2 npes=8 preset=ncube rel=800/3/16`.
    pub fn spec(&self) -> String {
        let rel = match self.rel {
            Some(k) => format!("{}/{}/{}", k.timeout_us, k.retry, k.window),
            None => "none".into(),
        };
        format!("app={} npes={} preset={} rel={rel}", self.prog, self.npes, self.preset)
    }

    /// Parse a spec produced by [`Scenario::spec`]. Tokens may appear
    /// in any order; all four are required. `app=` takes any
    /// `ck_apps::spec` string, so omitted keys and strategies mean the
    /// registry defaults.
    pub fn parse(spec: &str) -> Result<Scenario, String> {
        let (mut app, mut npes, mut preset, mut rel) = (None, None, None, None);
        for tok in spec.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected KEY=VALUE, got '{tok}'"))?;
            match key {
                "app" => app = Some(Spec::parse(val).map_err(|e| e.to_string())?),
                "npes" => {
                    npes = Some(
                        val.parse::<usize>()
                            .map_err(|e| format!("bad npes '{val}': {e}"))?,
                    )
                }
                "preset" => preset = Some(val.parse::<MachinePreset>()?),
                "rel" => {
                    rel = Some(if val == "none" {
                        None
                    } else {
                        let parts: Vec<&str> = val.split('/').collect();
                        if parts.len() != 3 {
                            return Err(format!("expected rel=TIMEOUT_US/RETRY/WINDOW, got '{val}'"));
                        }
                        Some(RelKnobs {
                            timeout_us: parts[0]
                                .parse()
                                .map_err(|e| format!("bad timeout: {e}"))?,
                            retry: parts[1].parse().map_err(|e| format!("bad retry: {e}"))?,
                            window: parts[2].parse().map_err(|e| format!("bad window: {e}"))?,
                        })
                    })
                }
                other => return Err(format!("unknown scenario token '{other}'")),
            }
        }
        Ok(Scenario {
            prog: app.ok_or("missing app=")?,
            npes: npes.ok_or("missing npes=")?,
            preset: preset.ok_or("missing preset=")?,
            rel: rel.ok_or("missing rel=")?,
        })
    }

    /// Whether this scenario tolerates a PE crash. Crashing destroys
    /// whatever state lived on the PE; only `fib` (stateless recursion
    /// ending by explicit exit, no BOC or accumulator residency) under
    /// `Random` placement, protected by the reliable layer, is in the
    /// recovery envelope the kernel guarantees — matching the
    /// `seeds_outrun_a_crashed_pe` acceptance test.
    pub fn crash_survivable(&self) -> bool {
        self.prog.app.name == "fib"
            && self.prog.balance == BalanceStrategy::Random
            && self.rel.is_some()
    }

    /// The fault-free reference answer, memoized through the bench
    /// runner (identical scenarios across a campaign are simulated
    /// once). The reference runs *without* the reliable layer: the
    /// zero-cost-off property says answers are unaffected, and it keeps
    /// the reference cache shared with the bench tables.
    pub fn reference(&self) -> Option<Answer> {
        let rep = ck_bench::runner::run_spec(&self.prog, self.npes, self.preset);
        self.prog.answer(&rep)
    }

    /// Run this scenario under a fault storm, converting hangs into
    /// structured `MaxEvents` aborts at `max_events`.
    pub fn run(&self, storm: &FaultPlan, max_events: u64) -> CkReport {
        let mut prog = self.prog.build();
        if let Some(knobs) = self.rel {
            prog = prog.with_reliable(knobs.to_config());
        }
        // Streaming metrics ride along on every campaign run: bounded
        // memory, zero perturbation (the simulation is byte-identical
        // with them off), and on failure the flight recorder and final
        // snapshot become the forensics attached to the repro report.
        let prog = prog.with_metrics(MetricsConfig);
        let cfg = SimConfig::preset(self.npes, self.preset)
            .with_faults(storm.clone())
            .with_max_events(max_events);
        prog.run_sim(cfg)
    }
}

/// Draw a scenario from the campaign stream. Roughly one run in eight
/// is a crash scenario (pinned to the crash-survivable envelope); the
/// rest sweep apps × machine sizes × presets × strategies × reliable
/// knobs.
pub fn generate(rng: &mut FaultRng) -> Scenario {
    let crashy = rng.chance(0.125);
    let npes = [4usize, 8, 16][rng.below(3) as usize];
    let preset = [
        MachinePreset::NcubeLike,
        MachinePreset::IpscLike,
        MachinePreset::SharedBusLike,
    ][rng.below(3) as usize];
    let spec = |text: String| Spec::parse(&text).expect("generated specs parse");
    if crashy {
        // Aggressive-but-proven recovery knobs (short timeout, small
        // retry budget) so redirects land within a short simulated run.
        return Scenario {
            prog: spec(format!(
                "fib:n={},grain={},q=fifo,bal=random",
                14 + rng.below(5),
                8 + rng.below(3)
            )),
            npes,
            preset,
            rel: Some(RelKnobs {
                timeout_us: 500,
                retry: 2,
                window: [8, 16, 32][rng.below(3) as usize],
            }),
        };
    }
    // Every answer-relevant knob is spelled out, drawn or not: the
    // repro line must not depend on a default staying what it is.
    let app = spec(match rng.below(8) {
        0 => format!("fib:n={},grain={}", 14 + rng.below(5), 8 + rng.below(3)),
        1 => format!("nqueens:n={},grain=4", 7 + rng.below(2)),
        2 => format!(
            "primes:limit={},chunks={}",
            [1_500, 2_000, 3_000][rng.below(3) as usize],
            [6, 8, 12][rng.below(3) as usize]
        ),
        3 => format!(
            "jacobi:n={},iters={}",
            [16, 24][rng.below(2) as usize],
            [4, 6][rng.below(2) as usize]
        ),
        4 => format!("jconv:n=16,eps=0.001,max_iters={}", [100, 200][rng.below(2) as usize]),
        5 => format!("quad:a=0,b=10,tol=0.000001,grain={}", [200, 300, 500][rng.below(3) as usize]),
        6 => format!(
            "mmr:leaves={},grain={},seed=1",
            [40, 64, 90][rng.below(3) as usize],
            [4, 8][rng.below(2) as usize]
        ),
        _ => format!(
            "tablefill:stages={},blocks={},rows=8,width={},seed=1",
            [2, 3][rng.below(2) as usize],
            [4, 6][rng.below(2) as usize],
            [1, 2][rng.below(2) as usize]
        ),
    });
    let queueing = match app.app.name {
        // The hash-family apps attach bitvector priorities to every
        // send; give the priority ready-queue fault coverage too.
        "mmr" | "tablefill" => [
            QueueingStrategy::Fifo,
            QueueingStrategy::Lifo,
            QueueingStrategy::BitvecPriority,
        ][rng.below(3) as usize],
        _ => [QueueingStrategy::Fifo, QueueingStrategy::Lifo][rng.below(2) as usize],
    };
    // jconv has always run unbalanced (it creates no chares to place);
    // it takes no draw, so the stream stays aligned.
    let balance = if app.app.name == "jconv" {
        BalanceStrategy::Local
    } else {
        match rng.below(4) {
            0 => BalanceStrategy::acwn(),
            1 => BalanceStrategy::Random,
            2 => BalanceStrategy::TokenIdle,
            _ => BalanceStrategy::CentralManager,
        }
    };
    Scenario {
        prog: app.with(queueing, balance),
        npes,
        preset,
        rel: Some(RelKnobs {
            timeout_us: [300, 500, 800, 1_200, 2_000][rng.below(5) as usize],
            retry: 2 + rng.below(4) as u32,
            window: [4, 8, 16, 32][rng.below(4) as usize],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip() {
        let mut rng = FaultRng::new(0xC0FFEE);
        for _ in 0..200 {
            let sc = generate(&mut rng);
            let spec = sc.spec();
            let back = Scenario::parse(&spec).expect("generated specs parse");
            assert_eq!(back, sc, "spec: {spec}");
            assert_eq!(back.spec(), spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "app=fib:n=14,grain=8",                                 // missing fields
            "app=warp:n=1 npes=4 preset=ncube rel=none",            // unknown app
            "app=fib:n=14,grain=8 npes=4 preset=vax rel=none",      // unknown preset
            "app=fib:n=14,q=gpu npes=4 preset=ncube rel=none",      // unknown queueing
            "app=fib:n=14,bal=magic npes=4 preset=ncube rel=none",  // unknown balance
            "app=fib:n=14,grain=8 npes=4 preset=ncube rel=1/2",     // short rel
            "app=tablefill:stage=2 npes=4 preset=ncube rel=none",   // unknown key
            "app=nqueens:n=264 npes=4 preset=ncube rel=none",       // out of the field's range
            "app=fib:14/8 npes=4 preset=ncube rel=none",            // the retired positional grammar
            "app=fib:n=14 npes=4 preset=ncube q=fifo rel=none",     // strategies live in app= now
            "app=fib:n=14,grain=8 npes=x preset=ncube rel=none",    // bad number
            "whatever",                                             // no key=value
        ] {
            assert!(Scenario::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn omitted_keys_and_strategies_take_registry_defaults() {
        let short = Scenario::parse("app=fib:n=14 npes=4 preset=ncube rel=none").unwrap();
        assert_eq!(
            short.spec(),
            "app=fib:n=14,grain=16,q=fifo,bal=acwn:4/2 npes=4 preset=ncube rel=none"
        );
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a: Vec<String> = {
            let mut rng = FaultRng::new(7);
            (0..50).map(|_| generate(&mut rng).spec()).collect()
        };
        let b: Vec<String> = {
            let mut rng = FaultRng::new(7);
            (0..50).map(|_| generate(&mut rng).spec()).collect()
        };
        let c: Vec<String> = {
            let mut rng = FaultRng::new(8);
            (0..50).map(|_| generate(&mut rng).spec()).collect()
        };
        assert_eq!(a, b, "same seed, same scenarios");
        assert_ne!(a, c, "different seed, different scenarios");
    }

    #[test]
    fn crash_scenarios_stay_in_the_survivable_envelope() {
        let mut rng = FaultRng::new(11);
        let mut crashy = 0;
        for _ in 0..400 {
            let sc = generate(&mut rng);
            if sc.prog.balance == BalanceStrategy::Random && sc.prog.app.name == "fib" {
                crashy += 1;
                assert!(sc.crash_survivable());
            }
        }
        assert!(crashy > 10, "crash scenarios should appear (~1/8)");
    }

    #[test]
    fn reference_answers_are_stable_and_extractable() {
        let sc = Scenario::parse("app=nqueens:n=7,grain=4 npes=4 preset=ncube rel=none").unwrap();
        let a = sc.reference().expect("reference answer");
        let b = sc.reference().expect("reference answer");
        assert_eq!(a, b);
        assert_eq!(a, Answer::Int(40), "7-queens has 40 solutions");
    }
}
