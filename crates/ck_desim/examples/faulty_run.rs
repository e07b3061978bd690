//! The README's fault-injection example, runnable — and, with flags,
//! a one-command replay harness for anything the desim campaign finds.
//!
//! ```text
//! # the showcase demo: nqueens on a lossy stalling machine, then fib
//! # with a PE crashed at boot
//! cargo run --release -p ck_desim --example faulty_run
//!
//! # same demo under a different storm seed
//! cargo run --release -p ck_desim --example faulty_run -- --seed 0xFEED
//!
//! # replay a campaign failure verbatim (specs from the FAIL line),
//! # judging it with the campaign's own oracles
//! cargo run --release -p ck_desim --example faulty_run -- \
//!     --scenario 'app=nqueens:n=8,grain=4,bal=token npes=16 preset=ncube rel=800/3/16' \
//!     --storm 'seed=0xBEEF drop=0.05 stall=5@500000-2000000' --minimize
//! ```

use chare_kernel::prelude::*;
use ck_apps::{fib, nqueens};
use ck_desim::{campaign, minimize, Scenario};
use multicomputer::SimTime;

struct Args {
    seed: u64,
    scenario: Option<String>,
    storm: Option<String>,
    minimize: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0xBAD_5EED,
        scenario: None,
        storm: None,
        minimize: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--seed" => {
                let v = val();
                args.seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse())
                    .expect("--seed takes a decimal or 0x-hex integer");
            }
            "--scenario" => args.scenario = Some(val()),
            "--storm" => args.storm = Some(val()),
            "--minimize" => args.minimize = true,
            other => panic!("unknown flag '{other}' (try --seed/--scenario/--storm/--minimize)"),
        }
    }
    args
}

/// Replay an explicit (scenario, storm) pair under the campaign's
/// oracles; optionally minimize a failing storm.
fn replay(args: &Args) {
    let sc = args
        .scenario
        .as_deref()
        .map(|s| Scenario::parse(s).expect("valid --scenario spec"))
        .unwrap_or_else(|| {
            Scenario::parse("app=nqueens:n=8,grain=4,bal=local npes=16 preset=ncube rel=800/3/16")
                .unwrap()
        });
    let storm = match args.storm.as_deref() {
        Some(spec) => FaultPlan::parse(spec).expect("valid --storm spec"),
        None => FaultPlan::new(args.seed)
            .drop(0.05)
            .duplicate(0.02)
            .delay(0.05, Cost::micros(200)),
    };
    let rec = campaign::execute(0, sc, storm, campaign::DEFAULT_MAX_EVENTS);
    println!("scenario: {}", rec.scenario.spec());
    println!("storm:    {}", rec.storm.spec());
    println!("reference answer: {}", rec.reference);
    if rec.passed() {
        println!("verdict: pass ({} events, qd_used={})", rec.events, rec.qd_used);
        return;
    }
    println!("verdict: FAIL");
    for v in &rec.violations {
        println!("  violation: {v}");
    }
    println!("  repro: {}", rec.repro());
    if args.minimize {
        let min = minimize::minimize(&rec.scenario, &rec.storm, campaign::DEFAULT_MAX_EVENTS);
        println!(
            "  minimized ({} probes): desim --scenario '{}' --storm '{}'",
            min.probes,
            rec.scenario.spec(),
            min.storm.spec()
        );
    }
    std::process::exit(1);
}

/// The original README showcase, parameterized by `--seed`.
fn showcase(seed: u64) {
    let program = nqueens::build(nqueens::QueensParams { n: 8, grain: 4 });

    // Drop 5% of packets, duplicate 2%, delay 5% by 200 µs, and freeze
    // PE 5 between 0.5 ms and 2 ms of simulated time.
    let plan = FaultPlan::new(seed)
        .drop(0.05)
        .duplicate(0.02)
        .delay(0.05, Cost::micros(200))
        .stall(Pe(5), SimTime(500_000), SimTime(2_000_000));

    let cfg = SimConfig::preset(16, MachinePreset::NcubeLike).with_faults(plan);
    let mut report = program
        .with_reliable(ReliableConfig::default())
        .run_sim(cfg);

    assert!(report.sim.as_ref().unwrap().aborted.is_none());
    println!("nqueens(8) under 5% loss + stall (storm seed {seed:#x}):");
    println!("  solutions:    {:?}", report.take_result::<u64>());
    println!("  retransmits:  {}", report.total().retransmits);
    println!("  dups dropped: {}", report.total().dup_dropped);

    let crash = FaultPlan::new(9).crash(Pe(3), SimTime::ZERO);
    let cfg = SimConfig::preset(16, MachinePreset::NcubeLike).with_faults(crash);
    let mut report = fib::build(fib::FibParams { n: 16, grain: 9 })
        .with_opts(|o| o.balance = BalanceStrategy::Random)
        .with_reliable(ReliableConfig {
        timeout: Cost::micros(500),
        seed_retry_limit: 2,
        ..ReliableConfig::default()
    })
    .run_sim(cfg);
    println!("fib(16) with PE 3 dead from boot:");
    println!("  result:           {:?}", report.take_result::<u64>());
    println!("  seeds redirected: {}", report.total().seeds_redirected);
}

fn main() {
    let args = parse_args();
    if args.scenario.is_some() || args.storm.is_some() {
        replay(&args);
    } else {
        showcase(args.seed);
    }
}
