//! Regenerate the evaluation tables and figures.
//!
//! ```text
//! cargo run --release -p ck_bench --bin tables -- --all
//! cargo run --release -p ck_bench --bin tables -- --table 2
//! cargo run --release -p ck_bench --bin tables -- --fig 1 --csv
//! cargo run --release -p ck_bench --bin tables -- --all --quick
//! cargo run --release -p ck_bench --bin tables -- --table p --quick
//! cargo run --release -p ck_bench --bin tables -- --matrix fib --quick
//! cargo run --release -p ck_bench --bin tables -- --export-trace fib --out fib.json
//! cargo run --release -p ck_bench --bin tables -- --all --jobs 4
//! cargo run --release -p ck_bench --bin tables -- --table m --quick
//! cargo run --release -p ck_bench --bin tables -- --timeline fib --quick --out fib_tl.json
//! ```

use std::io::Write as _;

use ck_apps::spec::Spec;
use ck_bench::driver::TableJob;
use ck_bench::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: tables [--all | --table N | --fig N | --matrix APP | --export-trace APP]\n\
         \x20              [--timeline APP] [--quick] [--csv | --md] [--out PATH]\n\
         \x20              [--jobs N | --serial] [--no-cache]\n\
         tables: 1..=8, r (resilience), p (overhead attribution),\n\
         \x20        m (streaming time profiles), b (cross-backend conformance),\n\
         \x20        h (hash-tree & pipelined table-fill workloads)\n\
         \x20        figures: 1..=8\n\
         --matrix APP        PExPE message matrix for one benchmark (e.g. fib)\n\
         --export-trace APP  Chrome trace-event JSON for one benchmark\n\
         \x20                  (open at https://ui.perfetto.dev); --out writes to a file\n\
         --timeline APP      streaming-metrics utilization timeline for one benchmark;\n\
         \x20                  ASCII to stdout, JSON to --out if given\n\
         --out PATH          takes the JSON of exactly one --timeline or --export-trace\n\
         --jobs N            regenerate the --all or --table/--fig tables on N worker\n\
         \x20                  threads (default: host CPUs); output is byte-identical\n\
         \x20                  to --serial\n\
         --no-cache          disable the deterministic run memo (slower, same bytes)"
    );
    std::process::exit(2);
}

/// The suite benchmark a `--matrix`/`--timeline`/`--export-trace`
/// argument names; an unknown name is a usage error like any other.
fn suite_case(scale: Scale, name: &str) -> Spec {
    ck_bench::suite_case(scale, name).unwrap_or_else(|| {
        let known: Vec<&str> =
            ck_bench::standard_suite(scale).iter().map(|c| c.app.name).collect();
        eprintln!("unknown benchmark {name:?}; known: {}", known.join(", "));
        usage();
    })
}

fn main() {
    // Table B re-invokes this binary as multi-process backend workers;
    // a worker invocation runs its PE loop here and never returns.
    ck_apps::spec::worker_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut csv = false;
    let mut md = false;
    let mut which: Vec<TableJob> = Vec::new();
    let mut matrices: Vec<String> = Vec::new();
    let mut exports: Vec<String> = Vec::new();
    let mut timelines: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut all = false;
    let mut jobs: Option<usize> = None;
    let mut cache = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--csv" => csv = true,
            "--md" => md = true,
            "--all" => all = true,
            "--serial" => jobs = Some(1),
            "--jobs" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage());
                jobs = Some(n.max(1));
            }
            "--no-cache" => cache = false,
            "--table" | "--fig" => {
                // `--table 3` -> table3, `--table p` -> table_p, `--fig 6` -> fig6:
                // the job names of `ck_bench::table_jobs()`.
                let kind = &args[i][2..];
                i += 1;
                let arg = args.get(i).unwrap_or_else(|| usage());
                let name = match arg.parse::<u32>() {
                    Ok(n) => format!("{kind}{n}"),
                    Err(_) => format!("{kind}_{}", arg.to_ascii_lowercase()),
                };
                let job = ck_bench::table_jobs().into_iter().find(|(n, _)| *n == name);
                which.push(job.unwrap_or_else(|| usage()));
            }
            "--matrix" => {
                i += 1;
                matrices.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--timeline" => {
                i += 1;
                timelines.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--export-trace" => {
                i += 1;
                exports.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if !all
        && which.is_empty()
        && matrices.is_empty()
        && exports.is_empty()
        && timelines.is_empty()
    {
        all = true;
    }

    if out.is_some() && timelines.len() + exports.len() != 1 {
        eprintln!("--out names one file: give it exactly one --timeline or --export-trace");
        usage();
    }

    // Resolve every benchmark name before anything runs or prints.
    let [matrices, exports, timelines] = [matrices, exports, timelines]
        .map(|names| names.iter().map(|n| suite_case(scale, n)).collect::<Vec<Spec>>());

    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    if all {
        which = ck_bench::table_jobs();
    }
    let mut tables = ck_bench::driver::run_jobs(&which, scale, jobs, cache).0;
    tables.extend(matrices.iter().map(ck_bench::comm_matrix_table));
    for t in tables {
        if csv {
            println!("# {}", t.title);
            print!("{}", t.to_csv());
        } else if md {
            println!("{}", t.to_markdown());
        } else {
            println!("{t}");
        }
    }

    for app in &timelines {
        let (text, json) = ck_bench::timeline_view(app);
        print!("{text}");
        if let Some(path) = &out {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {} bytes of timeline JSON to {path}", json.len());
        }
    }

    for app in &exports {
        let json = ck_bench::export_trace(app);
        match &out {
            Some(path) => {
                let mut f = std::fs::File::create(path)
                    .unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
                f.write_all(json.as_bytes())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("wrote {} bytes of trace JSON to {path}", json.len());
            }
            None => println!("{json}"),
        }
    }
}
