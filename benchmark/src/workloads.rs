//! The six workloads: what one rep runs, how its answer is checked, and
//! how its samples reduce to the reported metrics.
//!
//! Every caller here is a closed loop: one benchmark process starts a
//! program, waits for its answer, checks it, and starts the next. Real
//! backends always run 2 PEs (the sandbox has 2 vCPUs; the procs parent
//! only waits). A rep that fails any check is a failed operation and
//! contributes no timing.

use std::time::{Duration, Instant};

use chare_kernel::prelude::*;
use chare_kernel::CkReport;
use ck_apps::{fib, jacobi, mmr, nqueens, primes, tablefill};
use ck_bench::Scale;

use crate::apps::{self, grain, pingpong};
use crate::catalogue::{Metrics, APPS, PROCS_APPS};
use crate::host::Host;
use crate::spans::Recorder;
use crate::stats::{self, GrainPoint};

/// PEs of every real-backend run.
pub const NPES: usize = 2;

/// Which machine a kernel run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Threads,
    Procs,
}

/// The answer a run must produce.
#[derive(Clone, Debug)]
pub enum Check {
    U64(u64),
    Mmr(ck_apps::hashes::Digest),
    Fill(u64),
    /// Relative tolerance 1e-9: the cross-block accumulator combine
    /// order differs between the serial sweep and a 2-PE run.
    Jacobi(f64),
    Ping {
        rounds: usize,
    },
    Grain {
        tasks: u64,
        iters: u64,
    },
}

/// One kernel run of a cycle.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// Groups samples of the same program across reps (`fib`,
    /// `fib_rel`, `ping_1k`, `grain_t_1`...).
    pub label: String,
    pub spec: String,
    pub backend: Backend,
    pub reliable: bool,
    pub check: Check,
}

/// Timing of one verified kernel run.
#[derive(Clone, Debug)]
pub struct RunSample {
    pub label: String,
    /// Around the public `run_*` call: includes procs spawn and teardown.
    pub wall_ns: u64,
    /// `CkReport.time_ns`: launch to last PE exit on threads, `Start`
    /// to `Stopped` on procs.
    pub kernel_ns: u64,
    pub user_msgs: u64,
    /// What the kernel's own metrics saw (traced pass only).
    pub profile: Option<KernelProfile>,
    /// Per-round round-trip times (ping-pong runs only).
    pub rtt_ns: Vec<u64>,
}

/// A run as the kernel's existing `with_metrics` switch saw it: PE time
/// by kind, and the send-to-deliver latency histogram's median bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelProfile {
    pub work_ns: u64,
    pub dispatch_ns: u64,
    pub ctl_ns: u64,
    /// Run length times PEs: what the three kinds are shares of.
    pub pe_time_ns: u64,
    pub latency_p50_ns: u64,
}

impl KernelProfile {
    pub fn of(report: &CkReport) -> Option<KernelProfile> {
        let log = report.metrics.as_ref()?;
        let mut p = KernelProfile {
            pe_time_ns: log.end_ns * log.npes as u64,
            latency_p50_ns: log.latency_all().quantile_bound(0.5),
            ..KernelProfile::default()
        };
        for slice in log.per_pe.iter().flat_map(|pe| pe.slices.iter()) {
            p.work_ns += slice.work_ns;
            p.dispatch_ns += slice.dispatch_ns;
            p.ctl_ns += slice.ctl_ns;
        }
        Some(p)
    }

    /// Sum of several runs' profiles; the latency is the median of theirs.
    pub fn merged(profiles: &[KernelProfile]) -> Option<KernelProfile> {
        let lat: Vec<f64> = profiles.iter().map(|p| p.latency_p50_ns as f64).collect();
        let mut out = KernelProfile {
            latency_p50_ns: stats::median(&lat)? as u64,
            ..KernelProfile::default()
        };
        for p in profiles {
            out.work_ns += p.work_ns;
            out.dispatch_ns += p.dispatch_ns;
            out.ctl_ns += p.ctl_ns;
            out.pe_time_ns += p.pe_time_ns;
        }
        Some(out)
    }

    /// Report the shares and the latency as `trace.*` metrics.
    pub fn report(&self, out: &mut Metrics) {
        let total = self.pe_time_ns.max(1) as f64;
        let share = |ns: u64| ns as f64 / total;
        out.set("trace.work_share", share(self.work_ns));
        out.set("trace.dispatch_share", share(self.dispatch_ns));
        out.set("trace.ctl_share", share(self.ctl_ns));
        let busy = self.work_ns + self.dispatch_ns + self.ctl_ns;
        out.set(
            "trace.idle_share",
            share(self.pe_time_ns.saturating_sub(busy)),
        );
        out.set("trace.msg_latency_us_p50", self.latency_p50_ns as f64 / 1e3);
    }
}

/// One timed, verified rep.
#[derive(Clone, Debug)]
pub struct Rep {
    pub wall_ns: u64,
    pub runs: Vec<RunSample>,
    /// `tables_all` only: per-job host cost, memo statistics.
    pub tables: Option<TablesRep>,
}

#[derive(Clone, Debug)]
pub struct TablesRep {
    pub records: Vec<ck_bench::BenchRecord>,
    pub cache: ck_bench::runner::CacheStats,
}

impl Rep {
    /// The rep's wall-clock cut into its units, in nanoseconds: one per
    /// kernel run of the cycle (or per table job), then whatever is left
    /// of the rep (program builds, answer checks, the table thread and
    /// its text). Every rep of a workload has the same units.
    pub fn unit_ns(&self) -> Vec<u64> {
        let mut units: Vec<u64> = match &self.tables {
            Some(t) => t.records.iter().map(|r| r.wall_ns).collect(),
            None => self.runs.iter().map(|s| s.wall_ns).collect(),
        };
        let inside: u64 = units.iter().sum();
        units.push(self.wall_ns.saturating_sub(inside));
        units
    }

    /// Kernel time (`CkReport.time_ns`) of each run of the cycle.
    fn kernel_ns(&self) -> Vec<u64> {
        self.runs.iter().map(|s| s.kernel_ns).collect()
    }

    fn user_msgs(&self) -> Vec<u64> {
        self.runs.iter().map(|s| s.user_msgs).collect()
    }
}

/// Reduce each unit's samples over `reps` with `reduce` and add the
/// units up. Reducing per unit, not per rep, keeps a disturbance that
/// hit one 20 ms run from spoiling the whole 600 ms sweep it was part of.
fn sum_over_units(
    reps: &[Rep],
    units: impl Fn(&Rep) -> Vec<u64>,
    reduce: impl Fn(&[f64]) -> Option<f64>,
) -> f64 {
    let per_rep: Vec<Vec<u64>> = reps.iter().map(units).collect();
    let n_units = per_rep.first().map_or(0, Vec::len);
    (0..n_units)
        .map(|i| {
            let samples: Vec<f64> = per_rep.iter().map(|u| u[i] as f64).collect();
            reduce(&samples).unwrap_or(0.0)
        })
        .sum()
}

/// `rep_ms_p25`: what one rep costs on an undisturbed host, in
/// milliseconds: the sum over the rep's units of each unit's lower
/// quartile over the timed reps (see [`stats::lower_quartile`]).
pub fn rep_ms_p25(reps: &[Rep]) -> f64 {
    sum_over_units(reps, Rep::unit_ns, stats::lower_quartile) / 1e6
}

/// Build `run`'s program, run it, and verify its answer, with a span
/// around each step. With `metrics` the program runs under the kernel's
/// existing `with_metrics` switch (the traced pass).
pub fn run_checked(run: &AppRun, metrics: bool, rec: &mut Recorder) -> Result<RunSample, String> {
    let prog = rec.span("build", |_| {
        let mut p = apps::build(&run.spec);
        if run.reliable {
            p = p.with_reliable(ReliableConfig::default());
        }
        if metrics {
            p = p.with_metrics(MetricsConfig::default());
        }
        p
    });
    rec.begin("run");
    let start = Instant::now();
    let mut report = match run.backend {
        Backend::Threads => prog.run_threads_cfg(ThreadConfig::new(NPES), Topology::Hypercube),
        Backend::Procs => prog.run_procs(&ProcConfig::new(NPES, run.spec.as_str())),
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    rec.end();
    if let Some(detail) = &report.proc {
        // The public API shows the compute phase (`time_ns`) and when
        // the last worker saw `Halt`; the parent's final reap wait is
        // not exposed and lands in the first span with spawn.
        let compute = report.time_ns.min(wall_ns);
        let halted = detail.worker_end_ns.iter().copied().max().unwrap_or(0);
        let teardown = halted.saturating_sub(compute).min(wall_ns - compute);
        rec.split_last(&[
            ("spawn+handshake", wall_ns - compute - teardown),
            ("compute", compute),
            ("teardown", teardown),
        ]);
    }
    let rtt_ns = rec
        .span("verify", |_| verify(&run.check, &mut report))
        .map_err(|e| format!("{}: {e}", run.spec))?;
    Ok(RunSample {
        label: run.label.clone(),
        wall_ns,
        kernel_ns: report.time_ns,
        user_msgs: report.counter_total("user_recv"),
        profile: KernelProfile::of(&report),
        rtt_ns,
    })
}

/// Check a finished run: clean stop on its backend, then the answer
/// against the serial oracle. A ping-pong run hands back its round-trip
/// samples.
pub fn verify(check: &Check, report: &mut CkReport) -> Result<Vec<u64>, String> {
    if report.timed_out {
        return Err("watchdog fired".into());
    }
    if let Some(reason) = report.proc.as_ref().and_then(|p| p.aborted.as_ref()) {
        return Err(format!("procs run aborted: {reason}"));
    }
    fn answer<T: 'static>(report: &mut CkReport) -> Result<T, String> {
        report
            .take_result::<T>()
            .ok_or_else(|| format!("no result of type {}", std::any::type_name::<T>()))
    }
    fn expect<T: PartialEq + std::fmt::Debug>(got: T, want: T) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!("wrong answer: got {got:?}, want {want:?}"))
        }
    }
    match check {
        Check::U64(want) => expect(answer::<u64>(report)?, *want)?,
        Check::Mmr(want) => expect(answer::<mmr::MmrResult>(report)?.root, *want)?,
        Check::Fill(want) => expect(answer::<tablefill::FillResult>(report)?.digest, *want)?,
        Check::Jacobi(want) => {
            let got = answer::<f64>(report)?;
            if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
                return Err(format!("wrong answer: got {got}, want {want}"));
            }
        }
        Check::Ping { rounds } => {
            let got = answer::<pingpong::PingResult>(report)?;
            expect((got.rtt_ns.len(), got.corrupt), (*rounds, 0))?;
            return Ok(got.rtt_ns);
        }
        Check::Grain { tasks, iters } => expect(
            answer::<grain::GrainResult>(report)?,
            grain::GrainResult {
                tasks: *tasks,
                iters: *iters,
            },
        )?,
    }
    Ok(Vec::new())
}

/// How a cycle's samples reduce to `work_per_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    /// User messages received per second of kernel time.
    Msgs,
    /// Program runs per second of kernel time: for cycles whose few
    /// messages are no measure of their work.
    Runs,
    /// 1 KiB round trips per second, from the median round-trip time.
    PingPong,
    /// Tasks per second of kernel time over the whole sweep.
    Grain,
}

/// Grain points of the sweep, mean task size in microseconds.
pub const GRAINS_US: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0];

/// Tasks at a grain point: about 60 ms of total work, capped so the
/// finest points neither dominate the sweep nor decide peak memory
/// (every seed is created up front by one entry method).
pub fn grain_tasks(grain_us: f64) -> u64 {
    ((60_000.0 / grain_us) as u64).clamp(200, 10_000)
}

/// The grain point `task_overhead_*_us` is read at.
const OVERHEAD_GRAIN_US: f64 = 1.0;

fn grain_label(backend: Backend, grain_us: f64) -> String {
    let b = match backend {
        Backend::Threads => "t",
        Backend::Procs => "p",
    };
    format!("grain_{b}_{grain_us}")
}

/// A workload whose rep is a cycle of kernel runs (all but
/// `tables_all`).
pub struct Cycle {
    flavor: Flavor,
    pub runs: Vec<AppRun>,
    /// Serial oracle time per app, milliseconds.
    seq_ms: Vec<(&'static str, f64)>,
    /// Mean task size actually realised per grain label, microseconds
    /// (`grain_sweep` only).
    grain_us: Vec<(String, f64)>,
    warmup_reps: usize,
}

/// The fingerprint of the redacted table text at each scale (quick,
/// full), set by the first rep of this process; every later rep at the
/// same scale must reproduce it. Simulated statistics repeat exactly,
/// so two commits compare exactly too.
static FINGERPRINTS: [std::sync::OnceLock<u64>; 2] =
    [std::sync::OnceLock::new(), std::sync::OnceLock::new()];

fn fingerprint_slot(scale: Scale) -> &'static std::sync::OnceLock<u64> {
    match scale {
        Scale::Quick => &FINGERPRINTS[0],
        Scale::Full => &FINGERPRINTS[1],
    }
}

pub enum Workload {
    /// `tables_all`: every rep regenerates all 21 table jobs at this
    /// scale on a fresh thread, so the thread-local run memo and message
    /// pool start cold.
    Tables(Scale),
    Cycle(Cycle),
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn run_of(label: &str, spec: String, backend: Backend, check: Check) -> AppRun {
    AppRun {
        label: label.to_string(),
        spec,
        backend,
        reliable: false,
        check,
    }
}

/// The issue's `jacobi:n=512,iters=100` on threads with its oracle, and
/// the oracle's time in milliseconds: run by `threads_coarse`'s layer
/// probes, outside the gated cycle (see `Workload::new`).
pub fn jacobi_probe() -> (AppRun, f64) {
    let params = jacobi::JacobiParams { n: 512, iters: 100 };
    let (want, seq_ms) = timed(|| jacobi::jacobi_seq(params));
    let spec = format!("jacobi:n={},iters={}", params.n, params.iters);
    (
        run_of("jacobi", spec, Backend::Threads, Check::Jacobi(want)),
        seq_ms,
    )
}

impl Workload {
    /// Set a workload up: compute its serial oracles (timing them) and
    /// generate its spec strings from `seed`. `quick` selects the
    /// one-tenth CI variant. Programs receive only the generated specs.
    pub fn new(name: &str, seed: u64, quick: bool, host: &Host) -> Result<Workload, String> {
        use Backend::*;
        let cycle = |flavor, runs, seq_ms, warmup_reps| {
            Workload::Cycle(Cycle {
                flavor,
                runs,
                seq_ms,
                grain_us: Vec::new(),
                warmup_reps,
            })
        };
        Ok(match name {
            "tables_all" => Workload::Tables(if quick { Scale::Quick } else { Scale::Full }),
            "threads_fine" => {
                let (fib_want, fib_ms) = timed(|| fib::fib_seq(30));
                let (nq_want, nq_ms) = timed(|| nqueens::nqueens_seq(11));
                let (mmr_want, mmr_ms) = timed(|| mmr::mmr_root_seq(seed, 262_144));
                let fill = tablefill::FillParams {
                    stages: 8,
                    blocks: 256,
                    rows: 64,
                    width: 2,
                    seed,
                };
                let (fill_want, fill_ms) = timed(|| tablefill::fill_seq(&fill));
                cycle(
                    Flavor::Msgs,
                    vec![
                        run_of(
                            "fib",
                            "fib:n=30,grain=12".into(),
                            Threads,
                            Check::U64(fib_want),
                        ),
                        run_of(
                            "nqueens",
                            "nqueens:n=11,grain=6".into(),
                            Threads,
                            Check::U64(nq_want),
                        ),
                        run_of(
                            "mmr",
                            format!("mmr:leaves=262144,grain=64,seed={seed}"),
                            Threads,
                            Check::Mmr(mmr_want),
                        ),
                        run_of(
                            "tablefill",
                            format!("tablefill:stages=8,blocks=256,rows=64,width=2,seed={seed}"),
                            Threads,
                            Check::Fill(fill_want),
                        ),
                    ],
                    vec![
                        ("fib", fib_ms),
                        ("nqueens", nq_ms),
                        ("mmr", mmr_ms),
                        ("tablefill", fill_ms),
                    ],
                    6,
                )
            }
            "threads_coarse" => {
                // Not the issue's jacobi + primes: jacobi is the one app
                // here whose speed is the shared host's, not the code's.
                // Its grid streams through the cache the neighbours
                // share and it waits on a cross-thread wake per sweep,
                // so the same binary takes 29 ms in one hour and 41-50
                // in the next, where primes moves 19 -> 21 ms. jacobi
                // stays in the ledger as this workload's layer probe
                // (`jacobi_probe`); the cycle runs the two coarse apps
                // that compute out of registers and first-level cache.
                let (pr_want, pr_ms) = timed(|| primes::primes_seq(600_000));
                let (nq_want, nq_ms) = timed(|| nqueens::nqueens_seq(13));
                cycle(
                    // ~35 + ~100 messages per cycle, the second figure moving
                    // by a third with the balancer's choices: messages per
                    // second would measure its dice.
                    Flavor::Runs,
                    vec![
                        run_of(
                            "primes",
                            "primes:limit=600000,chunks=64".into(),
                            Threads,
                            Check::U64(pr_want),
                        ),
                        run_of(
                            "nqueens13",
                            "nqueens:n=13,grain=11".into(),
                            Threads,
                            Check::U64(nq_want),
                        ),
                    ],
                    vec![("primes", pr_ms), ("nqueens13", nq_ms)],
                    6,
                )
            }
            "procs_fine" => {
                let (fib_want, fib_ms) = timed(|| fib::fib_seq(30));
                let (mmr_want, mmr_ms) = timed(|| mmr::mmr_root_seq(seed, 65_536));
                let mut fib_rel = run_of(
                    "fib_rel",
                    "fib:n=30,grain=12".into(),
                    Procs,
                    Check::U64(fib_want),
                );
                fib_rel.reliable = true;
                cycle(
                    Flavor::Msgs,
                    vec![
                        run_of(
                            "fib",
                            "fib:n=30,grain=12".into(),
                            Procs,
                            Check::U64(fib_want),
                        ),
                        run_of(
                            "mmr",
                            format!("mmr:leaves=65536,grain=64,seed={seed}"),
                            Procs,
                            Check::Mmr(mmr_want),
                        ),
                        fib_rel,
                    ],
                    vec![("fib", fib_ms), ("mmr", mmr_ms)],
                    4,
                )
            }
            "procs_pingpong" => cycle(
                Flavor::PingPong,
                vec![
                    run_of(
                        "ping_1k",
                        format!("pingpong:rounds=1000,bytes=1024,seed={seed}"),
                        Procs,
                        Check::Ping { rounds: 1000 },
                    ),
                    run_of(
                        "ping_64k",
                        format!("pingpong:rounds=300,bytes=65536,seed={seed}"),
                        Procs,
                        Check::Ping { rounds: 300 },
                    ),
                ],
                Vec::new(),
                2,
            ),
            "grain_sweep" => {
                let mut runs = Vec::new();
                let mut grain_us = Vec::new();
                for backend in [Threads, Procs] {
                    for g in GRAINS_US {
                        let (n, iters) = (grain_tasks(g), host.iters_for_us(g));
                        let total: u64 = grain::task_iters(n, iters, seed).sum();
                        let label = grain_label(backend, g);
                        grain_us.push((
                            label.clone(),
                            total as f64 / n as f64 * host.calib_ns_per_iter / 1e3,
                        ));
                        runs.push(run_of(
                            &label,
                            format!("grain:n={n},iters={iters},seed={seed}"),
                            backend,
                            Check::Grain {
                                tasks: n,
                                iters: total,
                            },
                        ));
                    }
                }
                Workload::Cycle(Cycle {
                    flavor: Flavor::Grain,
                    runs,
                    seq_ms: Vec::new(),
                    grain_us,
                    warmup_reps: 1,
                })
            }
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Whether the workload needs two really parallel cores.
    pub fn real_backend(&self) -> bool {
        matches!(self, Workload::Cycle(_))
    }

    /// Discarded reps that end set-up: they fill caches, fault pages in
    /// and keep both cores hot. Each is checked like a timed rep;
    /// returns `(attempted, failures)`.
    pub fn warm_up(&self, rec: &mut Recorder) -> (u64, Vec<String>) {
        let reps = match self {
            Workload::Tables(_) => 1,
            Workload::Cycle(c) => c.warmup_reps,
        };
        let mut failures = Vec::new();
        for _ in 0..reps {
            let outcome = match self {
                // Quick scale: a full-scale warm-up would double the run.
                Workload::Tables(_) => tables_rep(Scale::Quick, rec).map(|_| ()),
                Workload::Cycle(c) => c.rep(false, rec).map(|_| ()),
            };
            failures.extend(outcome.err());
        }
        (reps as u64, failures)
    }

    /// One timed, checked rep.
    pub fn rep(&self, metrics: bool, rec: &mut Recorder) -> Result<Rep, String> {
        match self {
            Workload::Tables(scale) => tables_rep(*scale, rec),
            Workload::Cycle(c) => c.rep(metrics, rec),
        }
    }

    /// The fingerprint of the redacted table text (`tables_all`).
    pub fn fingerprint(&self) -> Option<u64> {
        match self {
            Workload::Tables(scale) => fingerprint_slot(*scale).get().copied(),
            Workload::Cycle(_) => None,
        }
    }

    /// Work completed per second, as this workload counts work.
    ///
    /// The time under the work is reduced like `rep_ms_p25`: per unit,
    /// lower quartile over the reps. Ping-pong keeps the plain median of
    /// its round trips: with tens of thousands of 100 us samples in a
    /// run it is steady as it is.
    pub fn work_per_s(&self, reps: &[Rep]) -> f64 {
        let (work, ns) = match self {
            Workload::Tables(_) => {
                // Simulated event counts repeat exactly; any rep's do.
                let events: u64 = reps
                    .last()
                    .and_then(|r| r.tables.as_ref())
                    .map_or(0, |t| t.records.iter().map(|b| b.events).sum());
                (events as f64, rep_ms_p25(reps) * 1e6)
            }
            Workload::Cycle(c) => {
                let kernel_ns = sum_over_units(reps, Rep::kernel_ns, stats::lower_quartile);
                match c.flavor {
                    Flavor::Msgs => (
                        sum_over_units(reps, Rep::user_msgs, stats::median),
                        kernel_ns,
                    ),
                    Flavor::Runs => (c.runs.len() as f64, kernel_ns),
                    Flavor::Grain => {
                        let tasks: u64 = c
                            .runs
                            .iter()
                            .map(|run| match run.check {
                                Check::Grain { tasks, .. } => tasks,
                                _ => 0,
                            })
                            .sum();
                        (tasks as f64, kernel_ns)
                    }
                    Flavor::PingPong => (
                        1.0,
                        stats::median(&rtt_samples(reps, "ping_1k")).unwrap_or(0.0),
                    ),
                }
            }
        };
        if ns > 0.0 {
            work * 1e9 / ns
        } else {
            0.0
        }
    }

    /// Per-layer numbers that fall out of the timed reps themselves.
    pub fn layer_metrics(&self, reps: &[Rep], out: &mut Metrics) {
        match self {
            Workload::Tables(_) => {
                let Some(last) = reps.last().and_then(|r| r.tables.as_ref()) else {
                    return;
                };
                for (i, job) in crate::catalogue::TABLE_JOBS.iter().enumerate() {
                    let ms: Vec<f64> = reps
                        .iter()
                        .filter_map(|r| r.tables.as_ref())
                        .map(|t| t.records[i].wall_ns as f64 / 1e6)
                        .collect();
                    out.set(
                        format!("tables.{job}.ms"),
                        stats::median(&ms).unwrap_or(0.0),
                    );
                }
                let (hits, misses) = (last.cache.hits as f64, last.cache.misses as f64);
                out.set("runner.memo_hit_ratio", hits / (hits + misses).max(1.0));
                out.set("runner.runs_simulated", misses);
            }
            Workload::Cycle(c) => c.layer_metrics(reps, out),
        }
    }
}

/// Regenerate every table on a fresh thread and fingerprint the text.
fn tables_rep(scale: Scale, rec: &mut Recorder) -> Result<Rep, String> {
    rec.begin("run");
    let start = Instant::now();
    let joined = std::thread::Builder::new()
        .name("tables-rep".into())
        .spawn(move || {
            let (tables, records, cache) = ck_bench::driver::run_all_recording(scale, 1, true);
            let text: String = tables.iter().map(|t| t.to_string()).collect();
            (tables.len(), text, records, cache)
        })
        .map_err(|e| format!("cannot spawn the table thread: {e}"))?
        .join();
    let wall_ns = start.elapsed().as_nanos() as u64;
    rec.end();
    let (ntables, text, records, cache) = joined.map_err(|_| "table regeneration panicked")?;
    let parts: Vec<(&'static str, u64)> = records.iter().map(|r| (r.name, r.wall_ns)).collect();
    rec.split_last(&parts);
    rec.span("verify", |_| {
        if ntables != crate::catalogue::TABLE_JOBS.len() || records.iter().any(|r| r.wall_ns == 0) {
            return Err(format!("expected 21 table jobs, got {ntables}"));
        }
        let fp = stats::fnv1a(text.as_bytes());
        let first = *fingerprint_slot(scale).get_or_init(|| fp);
        if first != fp {
            return Err(format!(
                "table text changed between reps: {first:016x} then {fp:016x}"
            ));
        }
        Ok(())
    })?;
    Ok(Rep {
        wall_ns,
        runs: Vec::new(),
        tables: Some(TablesRep { records, cache }),
    })
}

/// Round-trip samples of every run labelled `label`, pooled over reps.
fn rtt_samples(reps: &[Rep], label: &str) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.runs.iter())
        .filter(|s| s.label == label)
        .flat_map(|s| s.rtt_ns.iter())
        .map(|&ns| ns as f64)
        .collect()
}

/// Median over reps of one field of the runs labelled `label`.
fn median_of(reps: &[Rep], label: &str, field: impl Fn(&RunSample) -> f64) -> Option<f64> {
    let v: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.runs.iter())
        .filter(|s| s.label == label)
        .map(field)
        .collect();
    stats::median(&v)
}

impl Cycle {
    fn rep(&self, metrics: bool, rec: &mut Recorder) -> Result<Rep, String> {
        let start = Instant::now();
        let runs = self
            .runs
            .iter()
            .map(|run| run_checked(run, metrics, rec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rep {
            wall_ns: start.elapsed().as_nanos() as u64,
            runs,
            tables: None,
        })
    }

    /// Make the first run of the next rep produce a wrong answer (the
    /// `--inject-wrong-answer` hook; `grain_sweep` only).
    pub fn inject_wrong_answer(&mut self) -> Result<(), String> {
        let run = self
            .runs
            .iter_mut()
            .find(|r| r.spec.starts_with("grain:"))
            .ok_or("--inject-wrong-answer needs the grain_sweep workload")?;
        run.spec.push_str(",wrong=1");
        Ok(())
    }

    /// Undo [`Cycle::inject_wrong_answer`].
    pub fn clear_injection(&mut self) {
        for run in &mut self.runs {
            if let Some(clean) = run.spec.strip_suffix(",wrong=1") {
                run.spec = clean.to_string();
            }
        }
    }

    fn layer_metrics(&self, reps: &[Rep], out: &mut Metrics) {
        let ms = |ns: f64| ns / 1e6;
        for &(app, seq) in &self.seq_ms {
            out.set(format!("apps.{app}.seq_ms"), seq);
        }
        for app in APPS {
            let on = |backend| {
                self.runs
                    .iter()
                    .any(|r| r.label == app && r.backend == backend)
            };
            if on(Backend::Threads) {
                if let Some(t) = median_of(reps, app, |s| s.kernel_ns as f64) {
                    out.set(format!("apps.{app}.threads_p2_ms"), ms(t));
                }
            }
            if on(Backend::Procs) && PROCS_APPS.contains(&app) {
                if let Some(t) = median_of(reps, app, |s| s.kernel_ns as f64) {
                    out.set(format!("apps.{app}.procs_p2_ms"), ms(t));
                }
            }
            if let Some(m) = median_of(reps, app, |s| s.user_msgs as f64) {
                out.set(format!("apps.{app}.user_msgs"), m);
            }
        }
        if self.runs.iter().any(|r| r.backend == Backend::Procs) {
            let spawn: Vec<f64> = reps
                .iter()
                .flat_map(|r| r.runs.iter())
                .filter(|s| self.backend_of(&s.label) == Some(Backend::Procs))
                .map(|s| ms(s.wall_ns.saturating_sub(s.kernel_ns) as f64))
                .collect();
            out.set("proc.spawn_ms", stats::median(&spawn).unwrap_or(0.0));
        }
        if let (Some(plain), Some(rel)) = (
            median_of(reps, "fib", |s| s.kernel_ns as f64),
            median_of(reps, "fib_rel", |s| s.kernel_ns as f64),
        ) {
            out.set("reliable.procs_overhead_pct", (rel / plain - 1.0) * 100.0);
        }
        match self.flavor {
            Flavor::Msgs | Flavor::Runs => {}
            Flavor::PingPong => {
                let small = rtt_samples(reps, "ping_1k");
                let bulk = rtt_samples(reps, "ping_64k");
                out.set(
                    "pingpong.rtt_us_p50",
                    stats::median(&small).unwrap_or(0.0) / 1e3,
                );
                out.set(
                    "proc.rtt_us_p99",
                    stats::percentile(&small, 0.99).unwrap_or(0.0) / 1e3,
                );
                if let Some(rtt) = stats::median(&bulk).filter(|&r| r > 0.0) {
                    // Two 64 KiB payloads cross per round; bytes/ns is GB/s.
                    out.set("pingpong.bulk_mb_per_s", 2.0 * 65_536.0 / rtt * 1e3);
                }
            }
            Flavor::Grain => {
                for (backend, tag) in [(Backend::Threads, "threads"), (Backend::Procs, "procs")] {
                    let points: Vec<GrainPoint> = GRAINS_US
                        .iter()
                        .filter_map(|&g| {
                            let label = grain_label(backend, g);
                            let wall_us = median_of(reps, &label, |s| s.kernel_ns as f64)? / 1e3;
                            let real_us = self.grain_us.iter().find(|(l, _)| *l == label)?.1;
                            let n = grain_tasks(g) as f64;
                            if g == OVERHEAD_GRAIN_US {
                                out.set(
                                    format!("grain.task_overhead_{tag}_us"),
                                    NPES as f64 * wall_us / n - real_us,
                                );
                            }
                            Some(GrainPoint {
                                grain_us: real_us,
                                useful_cores: n * real_us / wall_us,
                            })
                        })
                        .collect();
                    let peak = stats::peak_cores(&points);
                    out.set(format!("kernel.peak_cores_{tag}"), peak);
                    out.set(
                        format!("kernel.metg50_{tag}_us"),
                        stats::metg50(&points, peak).unwrap_or(0.0),
                    );
                }
            }
        }
    }

    fn backend_of(&self, label: &str) -> Option<Backend> {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.backend)
    }
}

/// How long one timed loop lasts and how reps are counted in it.
pub struct Timed {
    pub reps: Vec<Rep>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Run reps back to back until `budget` has elapsed (always at least
/// one), keeping the samples of the reps that passed their checks.
pub fn timed_loop(w: &Workload, budget: Duration, metrics: bool, rec: &mut Recorder) -> Timed {
    let mut out = Timed {
        reps: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let start = Instant::now();
    loop {
        rec.set_rep(out.attempted as u32);
        out.attempted += 1;
        match rec.span("rep", |rec| w.rep(metrics, rec)) {
            Ok(rep) => out.reps.push(rep),
            Err(e) => out.failures.push(e),
        }
        if start.elapsed() >= budget {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            calib_ns_per_iter: 1.0,
            two_thread_scaling: 2.0,
            nproc: 2,
        }
    }

    #[test]
    fn every_catalogue_workload_sets_up() {
        for w in &crate::catalogue::WORKLOADS {
            // threads_fine/threads_coarse compute real oracles; keep
            // the test fast by only building the cheap ones fully.
            if matches!(w.name, "threads_fine" | "threads_coarse" | "procs_fine") {
                continue;
            }
            let built = Workload::new(w.name, 1, true, &host()).expect(w.name);
            assert_eq!(built.real_backend(), w.name != "tables_all");
        }
        assert!(Workload::new("nope", 1, true, &host()).is_err());
    }

    #[test]
    fn seed_reaches_the_spec_strings() {
        let specs = |seed| match Workload::new("grain_sweep", seed, true, &host()).unwrap() {
            Workload::Cycle(c) => c.runs.iter().map(|r| r.spec.clone()).collect::<Vec<_>>(),
            Workload::Tables(_) => unreachable!(),
        };
        assert_eq!(specs(1), specs(1));
        assert_ne!(specs(1), specs(2));
        assert_eq!(specs(1).len(), 2 * GRAINS_US.len());
    }

    #[test]
    fn grain_task_counts_are_clamped() {
        assert_eq!(grain_tasks(0.5), 10_000);
        assert_eq!(grain_tasks(8.0), 7_500);
        assert_eq!(grain_tasks(256.0), 234);
        assert_eq!(grain_tasks(1000.0), 200);
    }

    fn grain_run(spec: &str, tasks: u64, iters: u64) -> AppRun {
        run_of(
            "g",
            spec.to_string(),
            Backend::Threads,
            Check::Grain { tasks, iters },
        )
    }

    #[test]
    fn a_wrong_answer_is_a_failed_run_not_a_sample() {
        let want: u64 = grain::task_iters(30, 5, 9).sum();
        let mut rec = Recorder::new("grain_sweep", false);
        let good = grain_run("grain:n=30,iters=5,seed=9", 30, want);
        let sample = run_checked(&good, false, &mut rec).expect("clean run verifies");
        assert!(sample.kernel_ns > 0 && sample.user_msgs > 0);
        let bad = grain_run("grain:n=30,iters=5,seed=9,wrong=1", 30, want);
        let err = run_checked(&bad, false, &mut rec).unwrap_err();
        assert!(err.contains("wrong answer"), "{err}");
    }

    #[test]
    fn injection_marks_one_grain_spec_and_clears() {
        let Workload::Cycle(mut c) = Workload::new("grain_sweep", 1, true, &host()).unwrap() else {
            unreachable!()
        };
        c.inject_wrong_answer().unwrap();
        assert_eq!(
            c.runs
                .iter()
                .filter(|r| r.spec.ends_with(",wrong=1"))
                .count(),
            1
        );
        c.clear_injection();
        assert!(c.runs.iter().all(|r| !r.spec.contains("wrong")));
        let Workload::Cycle(mut p) = Workload::new("procs_pingpong", 1, true, &host()).unwrap()
        else {
            unreachable!()
        };
        assert!(p.inject_wrong_answer().is_err());
    }

    #[test]
    fn traced_run_records_build_run_verify() {
        let want: u64 = grain::task_iters(30, 5, 9).sum();
        let mut rec = Recorder::new("grain_sweep", true);
        run_checked(
            &grain_run("grain:n=30,iters=5,seed=9", 30, want),
            true,
            &mut rec,
        )
        .unwrap();
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["build", "run", "verify"]);
    }

    #[test]
    fn rep_time_is_reduced_per_unit_not_per_rep() {
        let run = |wall_ns: u64| RunSample {
            label: "x".into(),
            wall_ns,
            kernel_ns: wall_ns / 2,
            user_msgs: 100,
            profile: None,
            rtt_ns: Vec::new(),
        };
        // Two runs and 1 ms of build and check per rep. Each rep has one
        // disturbed run, a different one each time, so every whole rep
        // reads 41 ms or more; the units still show 10 + 20 + 1.
        let rep = |a: u64, b: u64| Rep {
            wall_ns: (a + b + 1) * 1_000_000,
            runs: vec![run(a * 1_000_000), run(b * 1_000_000)],
            tables: None,
        };
        let reps = [rep(10, 30), rep(20, 20), rep(10, 40), rep(40, 20)];
        assert_eq!(reps[0].unit_ns(), [10_000_000, 30_000_000, 1_000_000]);
        assert_eq!(rep_ms_p25(&reps), 31.0);
        assert_eq!(rep_ms_p25(&[]), 0.0);
        let Workload::Cycle(mut c) = Workload::new("procs_pingpong", 1, true, &host()).unwrap()
        else {
            unreachable!()
        };
        c.flavor = Flavor::Msgs;
        // 200 messages per rep over 5 + 10 ms of quiet kernel time.
        let rate = Workload::Cycle(c).work_per_s(&reps);
        assert!((rate - 200.0 / 0.015).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn pingpong_reduction_uses_the_small_message_median() {
        let Workload::Cycle(c) = Workload::new("procs_pingpong", 1, true, &host()).unwrap() else {
            unreachable!()
        };
        let sample = |label: &str, rtts: Vec<u64>| RunSample {
            label: label.into(),
            wall_ns: 10,
            kernel_ns: 5,
            user_msgs: 0,
            profile: None,
            rtt_ns: rtts,
        };
        let reps = vec![Rep {
            wall_ns: 20,
            runs: vec![
                sample("ping_1k", vec![100_000, 200_000, 300_000]),
                sample("ping_64k", vec![500_000, 500_000]),
            ],
            tables: None,
        }];
        let w = Workload::Cycle(c);
        assert_eq!(w.work_per_s(&reps), 5_000.0);
        let mut m = Metrics::default();
        w.layer_metrics(&reps, &mut m);
        assert_eq!(m.get("pingpong.rtt_us_p50"), 200.0);
        assert!((m.get("pingpong.bulk_mb_per_s") - 262.144).abs() < 1e-9);
        assert_eq!(m.get("proc.rtt_us_p99"), 0.0, "3 samples cannot back a p99");
        assert_eq!(m.get("proc.spawn_ms"), 5.0 / 1e6);
    }
}
