//! The repository's benchmark: six workloads across the simulator, the
//! thread backend and the multi-process backend, a per-layer suite and
//! a traced run. See `README.md` beside this crate for what each number
//! means and `../BENCHMARK.json` for the contract the driver checks.
//!
//! ```text
//! ck_benchmark --workload threads_fine --seed 1 --seconds 10 --trace 0
//! ck_benchmark --workload procs_fine --trace 1     # traced pass + layer probes
//! ck_benchmark                                      # all six workloads
//! ck_benchmark --selfcheck                          # run twice, compare within bounds
//! ck_benchmark --quick                              # the CI variant
//! ```

mod apps;
mod catalogue;
mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use catalogue::{Better, MetricDef, Metrics, RUN_SECONDS, WORKLOADS};
use spans::Recorder;
use workloads::{rep_ms_p25, timed_loop, KernelProfile, Rep, Workload};

/// Set-up is repeated this often per run and its median reported, so
/// neither the cold first one nor one disturbed one decides `setup_s`.
const SETUPS: usize = 5;

fn usage() -> ! {
    eprintln!(
        "usage: ck_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                   [--traced] [--layers] [--quick] [--selfcheck]\n\
         \x20                   [--inject-wrong-answer] [--trace-dir DIR]\n\
         \x20                   [--print-benchmark-json]\n\
         workloads: {}\n\
         --trace 1 | --traced   add the traced pass (spans + kernel metrics, written as\n\
         \x20                      Chrome JSON under --trace-dir) and the layer probes;\n\
         \x20                      prints the per-layer metrics instead of the end-to-end ones\n\
         --layers               the layer probes without the traced pass\n\
         --quick                one tenth of the time, quick-scale tables (CI)\n\
         --selfcheck            run everything twice, fail if a pair of end-to-end\n\
         \x20                      values differs by more than the metric's bound\n\
         --inject-wrong-answer  make grain_sweep's first timed rep answer wrongly; it must\n\
         \x20                      be counted as 1 failed operation",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

#[derive(Clone, Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced_pass: bool,
    layers: bool,
    quick: bool,
    selfcheck: bool,
    inject_wrong_answer: bool,
    trace_dir: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            workload: None,
            seed: 1,
            seconds: 0.0,
            traced_pass: false,
            layers: false,
            quick: false,
            selfcheck: false,
            inject_wrong_answer: false,
            trace_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter();
        let mut seconds = None;
        while let Some(arg) = it.next() {
            let mut value = || it.next().cloned().unwrap_or_else(|| usage());
            match arg.as_str() {
                "--workload" => o.workload = Some(value()),
                "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
                "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
                "--trace" => match value().as_str() {
                    "0" => {}
                    "1" => (o.traced_pass, o.layers) = (true, true),
                    _ => usage(),
                },
                "--traced" => (o.traced_pass, o.layers) = (true, true),
                "--layers" => o.layers = true,
                "--quick" => o.quick = true,
                "--selfcheck" => o.selfcheck = true,
                "--inject-wrong-answer" => o.inject_wrong_answer = true,
                "--trace-dir" => o.trace_dir = PathBuf::from(value()),
                "--print-benchmark-json" => {
                    print!("{}", catalogue::benchmark_json());
                    std::process::exit(0);
                }
                _ => usage(),
            }
        }
        let default = RUN_SECONDS as f64 / if o.quick { 10.0 } else { 1.0 };
        o.seconds = seconds.unwrap_or(default);
        if !(o.seconds > 0.0 && o.seconds <= 600.0) {
            usage();
        }
        if let Some(w) = &o.workload {
            if !WORKLOADS.iter().any(|d| d.name == w) {
                eprintln!("unknown workload {w:?}");
                usage();
            }
        }
        o
    }

    /// Per-layer metrics are what a run with probes or a traced pass
    /// reports; a plain run reports the end-to-end ones.
    fn reports_layers(&self) -> bool {
        self.traced_pass || self.layers
    }

    fn names(&self) -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|n| self.workload.as_deref().is_none_or(|w| w == *n))
            .collect()
    }
}

/// Everything one run of one workload produced.
struct Outcome {
    name: &'static str,
    attempted: u64,
    failures: Vec<String>,
    degraded: bool,
    fingerprint: Option<u64>,
    /// The metrics this run reports: end-to-end, or per-layer.
    metrics: Metrics,
    defs: Vec<MetricDef>,
    samples: usize,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The last-line JSON object the driver's contract specifies.
    fn contract_json(&self) -> String {
        let metrics: Vec<String> = self
            .defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.metrics.get(&d.name)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A measured value with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn rep_ms(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_ns as f64 / 1e6).collect()
}

/// Median self time per rep, in milliseconds, of the spans named `name`.
fn span_self_ms(rec: &Recorder, name: &str) -> f64 {
    let mut per_rep: std::collections::BTreeMap<u32, u64> = Default::default();
    for (n, rep, ns) in rec.self_times() {
        if n == name {
            *per_rep.entry(rep).or_default() += ns;
        }
    }
    let ms: Vec<f64> = per_rep.values().map(|&ns| ns as f64 / 1e6).collect();
    stats::median(&ms).unwrap_or(0.0)
}

/// Keep the socket directories of procs runs inside the checkout when
/// its path leaves room for them (a Unix socket path holds 107 bytes).
fn keep_sockets_in_checkout() {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("tmp")))
    else {
        return;
    };
    // Relative to the working directory when the binary lives under it
    // (the driver's `.bench_build`), so a long checkout path costs nothing.
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(dir);
    if dir.as_os_str().len() <= 60 && std::fs::create_dir_all(&dir).is_ok() {
        std::env::set_var("TMPDIR", dir);
    }
}

/// `cargo run` replaces itself with this binary by `exec`, so the
/// process inherits cargo's reaped children (rustc, hundreds of MB) in
/// `RUSAGE_CHILDREN`, which would pass for worker memory. When that is
/// so, measure in a fresh child process instead and pass its verdict on.
fn rerun_if_children_inherited(args: &[String]) {
    if host::children_maxrss_kb() == 0 {
        return;
    }
    let status = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).args(args).status())
        .unwrap_or_else(|e| panic!("cannot re-run the benchmark in a fresh process: {e}"));
    std::process::exit(status.code().unwrap_or(1));
}

fn run_workload(name: &'static str, opts: &Opts) -> Result<Outcome, String> {
    let traced = opts.traced_pass;
    println!(
        "== {name}: seed {}, {} s{}{}{} ==",
        opts.seed,
        opts.seconds,
        if opts.quick { ", quick" } else { "" },
        if traced { ", traced pass" } else { "" },
        if opts.layers { ", layer probes" } else { "" },
    );

    // Host guard: calibrate, probe two-thread scaling (which also gets
    // both cores clocked up), refuse what the host cannot run.
    let (single, burst) = if opts.quick { (50, 100) } else { (200, 200) };
    let host = host::probe(Duration::from_millis(single), Duration::from_millis(burst));
    println!(
        "host: {:.4} ns/iter, two-thread scaling {:.2}, nproc {}{}",
        host.calib_ns_per_iter,
        host.two_thread_scaling,
        host.nproc,
        if host.degraded() {
            "  [DEGRADED: scaling below 1.5]"
        } else {
            ""
        }
    );

    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut silent = Recorder::new(name, false);

    // Set-up, several times over: oracles, spec generation, warm-up.
    let mut setup_s = Vec::new();
    let mut workload = None;
    let setups = if opts.reports_layers() || opts.quick {
        1
    } else {
        SETUPS
    };
    for _ in 0..setups {
        let start = Instant::now();
        let w = Workload::new(name, opts.seed, opts.quick, &host)?;
        if w.real_backend() && host.nproc < 2 {
            return Err(format!(
                "{name} needs 2 cores; this host has {}",
                host.nproc
            ));
        }
        let (n, failed) = w.warm_up(&mut silent);
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += n;
        failures.extend(failed);
        workload = Some(w);
    }
    let mut workload = workload.expect("set up at least once");

    if opts.inject_wrong_answer {
        match &mut workload {
            Workload::Cycle(c) => c.inject_wrong_answer()?,
            Workload::Tables(_) => return Err("--inject-wrong-answer needs grain_sweep".into()),
        }
        let one = timed_loop(&workload, Duration::ZERO, false, &mut silent);
        attempted += one.attempted;
        failures.extend(one.failures);
        if let Workload::Cycle(c) = &mut workload {
            c.clear_injection();
        }
    }

    // The measurement proper: tracing and metrics off.
    let share = if traced { 0.3 } else { 1.0 };
    let budget = Duration::from_secs_f64(opts.seconds * share);
    let plain = timed_loop(&workload, budget, false, &mut silent);
    attempted += plain.attempted;
    failures.extend(plain.failures);
    let reps = plain.reps;
    let ms = rep_ms(&reps);
    let p25 = rep_ms_p25(&reps);

    let mut m = Metrics::default();
    m.set(
        "setup_s",
        stats::median(&setup_s).expect("set up at least once"),
    );
    m.set("rep_ms_p25", p25);
    m.set("work_per_s", workload.work_per_s(&reps));

    m.set("host.calib_ns_per_iter", host.calib_ns_per_iter);
    m.set("host.two_thread_scaling", host.two_thread_scaling);
    m.set("host.nproc", host.nproc as f64);
    m.set("rep.samples", reps.len() as f64);
    m.set("rep.ms_p50", stats::median(&ms).unwrap_or(0.0));
    m.set("rep.ms_p90", stats::percentile(&ms, 0.9).unwrap_or(0.0));
    workload.layer_metrics(&reps, &mut m);

    if traced {
        let mut rec = Recorder::new(name, true);
        let pass = timed_loop(&workload, budget, true, &mut rec);
        attempted += pass.attempted;
        failures.extend(pass.failures);
        let traced_p25 = rep_ms_p25(&pass.reps);
        if p25 > 0.0 && traced_p25 > 0.0 {
            m.set("trace.overhead_pct", (traced_p25 / p25 - 1.0) * 100.0);
        }
        for (span, metric) in [
            ("build", "span.build_ms"),
            ("run", "span.run_ms"),
            ("verify", "span.verify_ms"),
            ("spawn+handshake", "span.spawn_handshake_ms"),
            ("compute", "span.compute_ms"),
            ("teardown", "span.teardown_ms"),
        ] {
            m.set(metric, span_self_ms(&rec, span));
        }
        let profiles: Vec<KernelProfile> = pass
            .reps
            .iter()
            .flat_map(|r| r.runs.iter())
            .filter_map(|s| s.profile)
            .collect();
        if let Some(p) = KernelProfile::merged(&profiles) {
            p.report(&mut m);
        }
        let json = rec.to_chrome_json();
        ck_trace::json_lint::validate(&json)
            .map_err(|e| format!("span export failed lint: {e}"))?;
        let path = opts.trace_dir.join(format!("trace-{name}.json"));
        std::fs::create_dir_all(&opts.trace_dir)
            .and_then(|()| std::fs::write(&path, &json))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "traced pass: {} reps, {} spans -> {}",
            pass.reps.len(),
            rec.spans().len(),
            path.display()
        );
    }

    if opts.layers {
        match &workload {
            Workload::Tables(_) => layers::simulator_side(opts.seed, opts.quick, &mut m),
            Workload::Cycle(c) => match name {
                "threads_fine" => layers::threads_side(c, opts.quick, &mut m),
                "threads_coarse" => layers::coarse_side(c, opts.quick, &mut m),
                "procs_fine" => layers::procs_side(opts.quick, &mut m),
                "procs_pingpong" => layers::pingpong_side(opts.seed, opts.quick, &mut m),
                "grain_sweep" => layers::grain_side(opts.seed, opts.quick, &mut m),
                _ => unreachable!("every cycle workload hosts a probe group"),
            },
        }
    }
    m.set("mem.peak_rss_mb", host::peak_rss_mb());

    let defs = if opts.reports_layers() {
        catalogue::per_layer()
    } else {
        catalogue::end_to_end()
    };
    print_distribution(&ms);
    let outcome = Outcome {
        name,
        attempted,
        failures,
        degraded: workload.real_backend() && host.degraded(),
        fingerprint: workload.fingerprint(),
        metrics: m,
        defs,
        samples: reps.len(),
    };
    print_outcome(&outcome);
    Ok(outcome)
}

/// The spread of the timed reps behind `rep_ms_p25`, for the reader
/// (plain order statistics of whole reps, no sample-count rule).
fn print_distribution(rep_ms: &[f64]) {
    let mut v = rep_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(max) = v.last() else { return };
    let at = |p: f64| v[((p * v.len() as f64) as usize).min(v.len() - 1)];
    println!(
        "rep ms over {} reps: min {:.2}  p10 {:.2}  p25 {:.2}  p50 {:.2}  p75 {:.2}  p90 {:.2}  max {max:.2}",
        v.len(),
        v[0],
        at(0.10),
        at(0.25),
        at(0.50),
        at(0.75),
        at(0.90),
    );
}

fn print_outcome(o: &Outcome) {
    println!(
        "operations: {} attempted, {} failed ({} timed reps kept){}",
        o.attempted,
        o.failures.len(),
        o.samples,
        if o.degraded { "  [DEGRADED host]" } else { "" }
    );
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
    if let Some(fp) = o.fingerprint {
        println!("table text fingerprint (FNV-1a, host cells redacted): {fp:016x}");
    }
    for d in &o.defs {
        let v = o.metrics.get(&d.name);
        // Per-layer metrics this workload does not exercise read 0.
        if d.bound.is_none() && v == 0.0 {
            continue;
        }
        let n = match d.name.as_str() {
            "rep_ms_p25" | "rep.ms_p50" | "rep.ms_p90" => format!("  (n={})", o.samples),
            _ => String::new(),
        };
        println!("  {:<38} {:>16.4} {}{}", d.name, v, d.unit, n);
    }
}

/// Run one workload; a workload that cannot run at all (too few cores,
/// an unwritable trace directory) ends the process without a result.
fn run_or_exit(name: &'static str, opts: &Opts) -> Outcome {
    run_workload(name, opts).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    })
}

/// How much worse `b` is than `a`, as a share of `a`, in the direction
/// that is worse for the metric (negative: `b` is better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Counts that must repeat exactly between two runs of the same code.
const EXACT_COUNTS: [&str; 7] = [
    "sim.events_fib16",
    "balance.acwn.seeds_forwarded",
    "balance.random.seeds_forwarded",
    "reliable.acks_sent",
    "reliable.retransmits",
    "ck_desim.campaign_events",
    "runner.runs_simulated",
];

/// Run every selected workload twice, the two runs of a workload back
/// to back (this host's speed shifts by the minute), and compare the
/// two sets: end-to-end values within their bounds either way round,
/// fingerprints and simulator counts exactly.
fn selfcheck(opts: &Opts) -> i32 {
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for name in opts.names() {
        first.push(run_or_exit(name, opts));
        second.push(run_or_exit(name, opts));
    }
    println!(
        "== selfcheck: two runs of the same code at seed {} ==",
        opts.seed
    );
    let mut bad = 0;
    for (a, b) in first.iter().zip(&second) {
        if a.fingerprint != b.fingerprint {
            println!(
                "{:<16} fingerprint differs: {:?} vs {:?}  FAIL",
                a.name, a.fingerprint, b.fingerprint
            );
            bad += 1;
        }
        for d in &a.defs {
            let (x, y) = (a.metrics.get(&d.name), b.metrics.get(&d.name));
            if let Some(bound) = d.bound {
                let diff = worse_by(d, x, y).max(worse_by(d, y, x));
                let ok = diff <= bound;
                println!(
                    "{:<16} {:<12} {:>14.4} {:>14.4} {:<4} diff {:>6.2}%  bound {:>4.0}%  {}",
                    a.name,
                    d.name,
                    x,
                    y,
                    d.unit,
                    diff * 100.0,
                    bound * 100.0,
                    if ok { "ok" } else { "FAIL" }
                );
                bad += u32::from(!ok);
            } else if EXACT_COUNTS.contains(&d.name.as_str()) && (x != 0.0 || y != 0.0) {
                let ok = x == y;
                println!(
                    "{:<16} {:<32} {x} {y}  {}",
                    a.name,
                    d.name,
                    if ok { "identical" } else { "FAIL" }
                );
                bad += u32::from(!ok);
            }
        }
        bad += u32::from(!a.correct()) + u32::from(!b.correct());
    }
    if bad == 0 {
        println!("selfcheck passed");
        0
    } else {
        println!("selfcheck FAILED: {bad} disagreement(s)");
        1
    }
}

fn main() {
    // Worker processes of the procs backend re-enter here and never
    // return; this must precede everything else.
    chare_kernel::maybe_worker(apps::build);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&args);
    rerun_if_children_inherited(&args);
    // Host-measured table cells print as "host", so the table text of
    // two runs compares exactly (what `tables` CI diffs do).
    std::env::set_var("CK_TABLES_REDACT_HOST", "1");
    keep_sockets_in_checkout();

    if opts.selfcheck {
        std::process::exit(selfcheck(&opts));
    }
    let outcomes: Vec<Outcome> = opts
        .names()
        .into_iter()
        .map(|name| run_or_exit(name, &opts))
        .collect();
    let all_correct = outcomes.iter().all(Outcome::correct);
    // The last line of stdout is the result: the contract's object for
    // one workload, an object of them by name for several.
    let last = match outcomes.as_slice() {
        [one] if opts.workload.is_some() => one.contract_json(),
        many => format!(
            "{{{}}}",
            many.iter()
                .map(|o| format!("\"{}\": {}", o.name, o.contract_json()))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    ck_trace::json_lint::validate(&last).expect("result line must be valid JSON");
    println!("{last}");
    std::process::exit(if all_correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = Opts::parse(&args(
            "--workload procs_fine --seed 7 --seconds 3 --trace 1",
        ));
        assert_eq!(o.workload.as_deref(), Some("procs_fine"));
        assert_eq!((o.seed, o.seconds), (7, 3.0));
        assert!(o.traced_pass && o.layers && o.reports_layers());
        assert_eq!(o.names(), ["procs_fine"]);
        let o = Opts::parse(&args("--trace 0"));
        assert!(!o.reports_layers());
        assert_eq!(o.seconds, RUN_SECONDS as f64);
        assert_eq!(o.names().len(), WORKLOADS.len());
        assert_eq!(
            Opts::parse(&args("--quick")).seconds,
            RUN_SECONDS as f64 / 10.0
        );
        assert!(Opts::parse(&args("--layers")).reports_layers());
    }

    fn outcome(defs: Vec<MetricDef>, failures: Vec<String>) -> Outcome {
        let mut metrics = Metrics::default();
        for (i, d) in defs.iter().enumerate() {
            metrics.set(d.name.clone(), 1.5 + i as f64);
        }
        Outcome {
            name: "threads_fine",
            attempted: 12,
            failures,
            degraded: false,
            fingerprint: None,
            metrics,
            defs,
            samples: 10,
        }
    }

    #[test]
    fn contract_json_lints_and_names_every_metric() {
        for defs in [catalogue::end_to_end(), catalogue::per_layer()] {
            let o = outcome(defs, Vec::new());
            let json = o.contract_json();
            ck_trace::json_lint::validate(&json).expect("contract line must be valid JSON");
            assert!(json.starts_with(
                "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"
            ));
            for d in &o.defs {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                    "{}",
                    d.name
                );
            }
            assert!(!json.contains('\n'));
        }
        let bad = outcome(catalogue::end_to_end(), vec!["wrong answer".into()]);
        assert!(bad
            .contract_json()
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
    }

    #[test]
    fn json_numbers_keep_their_digits_and_stay_finite() {
        assert_eq!(json_number(1.203_456_789), "1.203456789");
        assert_eq!(json_number(0.000_000_123), "0.000000123");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let e = catalogue::end_to_end();
        let lower = e.iter().find(|d| d.name == "rep_ms_p25").unwrap();
        let higher = e.iter().find(|d| d.name == "work_per_s").unwrap();
        assert!((worse_by(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(lower, 0.0, 0.0), 0.0);
        assert!(worse_by(lower, 0.0, 1.0).is_infinite());
    }

    #[test]
    fn span_self_time_is_a_per_rep_median() {
        let mut rec = Recorder::new("x", true);
        for rep in 0..3 {
            rec.set_rep(rep);
            rec.span("run", |_| ());
            rec.split_last(&[("compute", 2_000_000 * (u64::from(rep) + 1))]);
        }
        assert_eq!(span_self_ms(&rec, "compute"), 4.0);
        assert_eq!(span_self_ms(&rec, "absent"), 0.0);
    }
}
