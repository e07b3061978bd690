//! The desim campaign CLI.
//!
//! ```text
//! # run (a shard of) a randomized campaign
//! desim --campaign-seed 42 --runs 500 --shard 1/4 --minimize --out fails.txt
//!
//! # replay one campaign run by index
//! desim --campaign-seed 42 --only 137
//!
//! # replay an explicit (scenario, storm) pair — the repro one-liner
//! desim --scenario 'app=fib:n=16,grain=9,q=fifo,bal=random npes=8 preset=ncube rel=500/2/16' \
//!       --storm 'seed=0xBEEF drop=0.05 crash=3@0'
//!
//! # replay the committed regression corpus
//! desim --corpus tests/desim_corpus
//! ```
//!
//! Exit status is 0 only when every executed run passed every oracle.

use std::io::Write as _;
use std::process::ExitCode;

use ck_desim::{campaign, corpus, minimize, CampaignConfig, RunRecord};
use multicomputer::FaultPlan;

struct Args {
    seed: u64,
    runs: u64,
    shard: (u64, u64),
    max_events: u64,
    minimize: bool,
    only: Option<u64>,
    scenario: Option<String>,
    storm: Option<String>,
    corpus: Option<String>,
    out: Option<String>,
    emit_corpus: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: desim [--campaign-seed N] [--runs N] [--shard K/N] [--max-events N]\n\
         \x20            [--minimize] [--only IDX] [--out FILE] [--emit-corpus FILE]\n\
         \x20      desim --scenario SPEC --storm SPEC [--minimize] [--emit-corpus FILE]\n\
         \x20      desim --corpus DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        runs: 100,
        shard: (0, 1),
        max_events: campaign::DEFAULT_MAX_EVENTS,
        minimize: false,
        only: None,
        scenario: None,
        storm: None,
        corpus: None,
        out: None,
        emit_corpus: None,
    };
    let mut it = std::env::args().skip(1);
    let num = |s: Option<String>, what: &str| -> u64 {
        let s = s.unwrap_or_else(|| usage());
        let r = if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            s.parse()
        };
        r.unwrap_or_else(|e| {
            eprintln!("bad {what} '{s}': {e}");
            std::process::exit(2);
        })
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--campaign-seed" => args.seed = num(it.next(), "seed"),
            "--runs" => args.runs = num(it.next(), "run count"),
            "--shard" => {
                let v = it.next().unwrap_or_else(|| usage());
                let Some((k, n)) = v.split_once('/') else {
                    usage()
                };
                args.shard = (num(Some(k.into()), "shard"), num(Some(n.into()), "shard"));
                if args.shard.1 == 0 || args.shard.0 >= args.shard.1 {
                    eprintln!("shard must be K/N with K < N");
                    std::process::exit(2);
                }
            }
            "--max-events" => args.max_events = num(it.next(), "event budget"),
            "--minimize" => args.minimize = true,
            "--only" => args.only = Some(num(it.next(), "index")),
            "--scenario" => args.scenario = it.next().or_else(|| usage()),
            "--storm" => args.storm = it.next().or_else(|| usage()),
            "--corpus" => args.corpus = it.next().or_else(|| usage()),
            "--out" => args.out = it.next().or_else(|| usage()),
            "--emit-corpus" => args.emit_corpus = it.next().or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    args
}

/// Report one failing run: violations, repro line, optional minimized
/// storm. Returns the artifact lines for `--out`.
fn report_failure(rec: &RunRecord, do_minimize: bool, max_events: u64) -> Vec<String> {
    let mut lines = Vec::new();
    lines.push(format!(
        "FAIL run {}: {} | {}",
        rec.index,
        rec.scenario.spec(),
        rec.storm.spec()
    ));
    for v in &rec.violations {
        lines.push(format!("  violation: {v}"));
    }
    lines.push(format!("  repro: {}", rec.repro()));
    lines.extend(rec.forensics.iter().cloned());
    if do_minimize {
        let min = minimize::minimize(&rec.scenario, &rec.storm, max_events);
        lines.push(format!(
            "  minimized ({} probes): {}",
            min.probes,
            min.storm.spec()
        ));
        lines.push(format!(
            "  repro (minimized): desim --scenario '{}' --storm '{}'",
            rec.scenario.spec(),
            min.storm.spec()
        ));
    }
    for l in &lines {
        eprintln!("{l}");
    }
    lines
}

fn write_out(path: &str, lines: &[String]) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    for l in lines {
        writeln!(f, "{l}").expect("write artifact");
    }
    eprintln!("wrote failure artifact to {path}");
}

fn emit_corpus(path: &str, rec: &RunRecord, provenance: &str) {
    let entry = corpus::CorpusEntry {
        scenario: rec.scenario.clone(),
        storm: rec.storm.clone(),
    };
    std::fs::write(path, corpus::format_entry(&entry, provenance)).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    eprintln!("wrote corpus entry to {path}");
}

fn run_corpus(dir: &str, max_events: u64) -> ExitCode {
    let entries = match corpus::load_dir(std::path::Path::new(dir)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read corpus dir {dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = 0u64;
    let total = entries.len();
    for (name, entry) in entries {
        match entry {
            Err(e) => {
                eprintln!("FAIL corpus entry {name}: malformed: {e}");
                failed += 1;
            }
            Ok(entry) => {
                let rec = corpus::replay(&entry, max_events);
                if rec.passed() {
                    println!("ok corpus {name}");
                } else {
                    eprintln!("FAIL corpus {name} regressed:");
                    for v in &rec.violations {
                        eprintln!("  violation: {v}");
                    }
                    eprintln!("  repro: {}", rec.repro());
                    for l in &rec.forensics {
                        eprintln!("{l}");
                    }
                    failed += 1;
                }
            }
        }
    }
    println!("corpus: {total} entries, {} passed, {failed} failed", total as u64 - failed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(dir) = &args.corpus {
        return run_corpus(dir, args.max_events);
    }

    // Explicit (scenario, storm) replay — the repro one-liner.
    if args.scenario.is_some() || args.storm.is_some() {
        let (Some(sc), Some(st)) = (&args.scenario, &args.storm) else {
            eprintln!("--scenario and --storm must be given together");
            return ExitCode::from(2);
        };
        let scenario = match ck_desim::Scenario::parse(sc) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad --scenario: {e}");
                return ExitCode::from(2);
            }
        };
        let storm = match FaultPlan::parse(st) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("bad --storm: {e}");
                return ExitCode::from(2);
            }
        };
        let rec = campaign::execute(0, scenario, storm, args.max_events);
        if let Some(path) = &args.emit_corpus {
            emit_corpus(path, &rec, "replayed from an explicit scenario/storm pair");
        }
        return if rec.passed() {
            println!("ok: {} | {}", rec.scenario.spec(), rec.storm.spec());
            ExitCode::SUCCESS
        } else {
            let lines = report_failure(&rec, args.minimize, args.max_events);
            if let Some(path) = &args.out {
                write_out(path, &lines);
            }
            ExitCode::FAILURE
        };
    }

    // Single campaign index.
    if let Some(index) = args.only {
        let rec = campaign::run_one(args.seed, index, args.max_events);
        println!(
            "run {index} (campaign {:#x}): {} | {}",
            args.seed,
            rec.scenario.spec(),
            rec.storm.spec()
        );
        if let Some(path) = &args.emit_corpus {
            emit_corpus(
                path,
                &rec,
                &format!("campaign seed {:#x} run {index}", args.seed),
            );
        }
        return if rec.passed() {
            println!("ok ({} events, qd_used={})", rec.events, rec.qd_used);
            ExitCode::SUCCESS
        } else {
            let lines = report_failure(&rec, args.minimize, args.max_events);
            if let Some(path) = &args.out {
                write_out(path, &lines);
            }
            ExitCode::FAILURE
        };
    }

    // Full (shard of a) campaign.
    let cfg = CampaignConfig {
        seed: args.seed,
        runs: args.runs,
        shard: args.shard,
        max_events: args.max_events,
    };
    let mut artifact: Vec<String> = Vec::new();
    let summary = campaign::run_campaign(&cfg, |rec| {
        if !rec.passed() {
            artifact.extend(report_failure(rec, args.minimize, args.max_events));
        }
    });
    println!(
        "campaign seed {:#x}, runs {}, shard {}/{}: {} attempted, {} passed, {} failed",
        cfg.seed,
        cfg.runs,
        cfg.shard.0,
        cfg.shard.1,
        summary.attempted,
        summary.passed,
        summary.failures.len()
    );
    println!(
        "  qd-terminated {}, seed-ledger gate active {}",
        summary.qd_used, summary.gate_active
    );
    if !summary.all_passed() {
        if let Some(path) = &args.out {
            write_out(path, &artifact);
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
