//! The names the benchmark reports: six workloads, the end-to-end
//! metrics with their bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repository root is printed from this module
//! (`--print-benchmark-json`) and a test keeps the two equal.

use std::collections::BTreeMap;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json` and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "tables_all",
        why: "tables --all --serial at full scale: the researcher-facing product; simulator, node, pool and queues do the work",
    },
    WorkloadDef {
        name: "threads_fine",
        why: "fib, nqueens, mmr, tablefill on 2 thread PEs: message-bound, so inbox, scheduler queue, pool and balancer are the cost",
    },
    WorkloadDef {
        name: "threads_coarse",
        why: "primes and coarse-grain nqueens on 2 thread PEs: compute-bound bypass, where a kernel-path change predicts no change",
    },
    WorkloadDef {
        name: "procs_fine",
        why: "fib, mmr and reliable fib on 2 worker processes: many small frames in flight, so wire, batching and sockets are the cost",
    },
    WorkloadDef {
        name: "procs_pingpong",
        why: "one message in flight at 1 KiB and 64 KiB between 2 worker processes: flush policy, wake cost and ns/byte dominate",
    },
    WorkloadDef {
        name: "grain_sweep",
        why: "Task-Bench sweep of 0.5-256 us independent tasks on threads then procs: kernel overhead per task relative to grain",
    },
];

/// A reported metric.
#[derive(Clone, Debug)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    }
}

fn layer(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics. Every workload reports every one of them; what
/// `work_per_s` counts is stated per workload in the README.
///
/// A bound holds for a metric on all six workloads, so the noisiest
/// workload sets it, and the host sets that: a 2-vCPU microVM on a
/// shared machine that changes state for many minutes at a time (the
/// same `tables_all` rep reads 5.9 s in one hour and 7.8 s in the next,
/// fib on 2 PEs 19.9 or 24.3 ms). Ten runs of `rep_ms_p25` spread 1-8%
/// (quartile distance over median) while the host holds still, up to
/// 16% on `tables_all` and 15% where the state changed mid-series, and
/// the medians of two series 40 minutes apart differed by 15-24% on
/// five of the six workloads. The README tabulates the series. Hence
/// the contract's maximum bound; compare two commits by pairing runs,
/// not by the bound.
///
/// Peak memory is reported per layer (`mem.peak_rss_mb`), not here: the
/// 5-15 MB processes of the real-backend workloads vary by 10-18% from
/// allocator arenas and thread stacks alone, which no bound the
/// contract allows would separate from a regression.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        e2e("rep_ms_p25", "ms", Lower, 0.25),
        e2e("work_per_s", "1/s", Higher, 0.25),
        e2e("setup_s", "s", Lower, 0.25),
    ]
}

/// The table jobs of `ck_bench::table_jobs()`, in output order.
pub const TABLE_JOBS: [&str; 21] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig1", "fig2",
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table_r", "table_p", "table_m", "table_b",
    "table_h",
];

/// The `ck_apps` programs the cycles run, by the label their samples
/// carry (`nqueens13` is `threads_coarse`'s `nqueens:n=13,grain=11`),
/// and `jacobi`, which `threads_coarse`'s layer probes run.
pub const APPS: [&str; 7] = [
    "fib",
    "nqueens",
    "mmr",
    "tablefill",
    "primes",
    "nqueens13",
    "jacobi",
];

/// The apps `procs_fine` runs, the only ones with a procs time.
pub const PROCS_APPS: [&str; 2] = ["fib", "mmr"];

/// Per-layer metrics, grouped by the module they describe. A traced run
/// reports all of them; the ones its workload does not exercise read 0
/// (see the README's interaction table for each group's home workload).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        // Host facts, recorded beside every result.
        layer("host.calib_ns_per_iter", "ns", Lower),
        layer("host.two_thread_scaling", "x", Higher),
        layer("host.nproc", "count", Higher),
        // The whole-rep distribution beside rep_ms_p25, and peak memory.
        layer("rep.samples", "count", Higher),
        layer("rep.ms_p50", "ms", Lower),
        layer("rep.ms_p90", "ms", Lower),
        layer("mem.peak_rss_mb", "MB", Lower),
        // multicomputer::sim
        layer("sim.null_ns_per_event", "ns", Lower),
        layer("sim.kernel_ns_per_event", "ns", Lower),
        layer("sim.events_fib16", "count", Lower),
        // multicomputer::thread
        layer("thread.self_hop_ns", "ns", Lower),
        layer("thread.hop_ns_p50", "ns", Lower),
        layer("thread.spawn_join_us", "us", Lower),
        // chare_kernel::pool
        layer("pool.payload_reclaim_ns", "ns", Lower),
        layer("pool.batch_recycle_ns", "ns", Lower),
        layer("pool.hit_ratio", "ratio", Higher),
        // chare_kernel::queueing and ::priority
        layer("queue.fifo.push_pop_ns", "ns", Lower),
        layer("queue.lifo.push_pop_ns", "ns", Lower),
        layer("queue.int-prio.push_pop_ns", "ns", Lower),
        layer("queue.bitvec-prio.push_pop_ns", "ns", Lower),
        layer("queue.bitvec-prio.deep_push_pop_ns", "ns", Lower),
        layer("priority.child_ns", "ns", Lower),
        layer("priority.cmp_ns", "ns", Lower),
        // chare_kernel::wire
        layer("wire.small_encode_ns", "ns", Lower),
        layer("wire.small_decode_ns", "ns", Lower),
        layer("wire.bulk_encode_ns_per_byte", "ns/B", Lower),
        layer("wire.bulk_decode_ns_per_byte", "ns/B", Lower),
        // chare_kernel::node
        layer("node.self_send_ns", "ns", Lower),
        layer("node.self_send_sim_host_ns", "ns", Lower),
        layer("node.create_destroy_ns", "ns", Lower),
        layer("node.remote_msg_sim_host_ns", "ns", Lower),
        // chare_kernel::reliable
        layer("reliable.host_ns_per_frame", "ns", Lower),
        layer("reliable.procs_overhead_pct", "%", Lower),
        layer("reliable.acks_sent", "count", Lower),
        layer("reliable.retransmits", "count", Lower),
        // chare_kernel::balance
        layer("balance.acwn.seeds_forwarded", "count", Lower),
        layer("balance.random.seeds_forwarded", "count", Lower),
        layer("balance.acwn.keep_ratio", "ratio", Higher),
        // chare_kernel::shared
        layer("shared.table_op_ns", "ns", Lower),
        layer("shared.acc_add_ns", "ns", Lower),
        // chare_kernel::metrics and ::trace
        layer("metrics.hook_overhead_pct", "%", Lower),
        layer("trace.hook_overhead_pct", "%", Lower),
        // chare_kernel::proc
        layer("proc.spawn_ms", "ms", Lower),
        layer("proc.rtt_us_p99", "us", Lower),
        layer("proc.rtt_unbatched_us_p50", "us", Lower),
        layer("proc.tcp_rtt_us_p50", "us", Lower),
        layer("proc.self_send_ns", "ns", Lower),
        // procs_pingpong and grain_sweep: the workload's own numbers.
        layer("pingpong.rtt_us_p50", "us", Lower),
        layer("pingpong.bulk_mb_per_s", "MB/s", Higher),
        layer("grain.task_overhead_threads_us", "us", Lower),
        layer("grain.task_overhead_procs_us", "us", Lower),
        layer("kernel.metg50_threads_us", "us", Lower),
        layer("kernel.metg50_procs_us", "us", Lower),
        layer("kernel.peak_cores_threads", "cores", Higher),
        layer("kernel.peak_cores_procs", "cores", Higher),
        // ck_bench::runner
        layer("runner.memo_hit_ratio", "ratio", Higher),
        layer("runner.runs_simulated", "count", Lower),
        // ck_trace and ck_desim
        layer("ck_trace.analyze_ms", "ms", Lower),
        layer("ck_trace.chrome_export_ms", "ms", Lower),
        layer("ck_desim.campaign_runs_per_s", "1/s", Higher),
        layer("ck_desim.campaign_events", "count", Lower),
        // The traced pass: spans around the benchmark's own calls (self
        // time per rep) and the kernel's existing metrics switch.
        layer("span.build_ms", "ms", Lower),
        layer("span.run_ms", "ms", Lower),
        layer("span.verify_ms", "ms", Lower),
        layer("span.spawn_handshake_ms", "ms", Lower),
        layer("span.compute_ms", "ms", Lower),
        layer("span.teardown_ms", "ms", Lower),
        layer("trace.work_share", "ratio", Higher),
        layer("trace.dispatch_share", "ratio", Lower),
        layer("trace.ctl_share", "ratio", Lower),
        layer("trace.idle_share", "ratio", Lower),
        layer("trace.msg_latency_us_p50", "us", Lower),
        layer("trace.overhead_pct", "%", Lower),
    ];
    for app in APPS {
        m.push(layer(format!("apps.{app}.seq_ms"), "ms", Lower));
        m.push(layer(format!("apps.{app}.threads_p1_ms"), "ms", Lower));
        m.push(layer(format!("apps.{app}.threads_p2_ms"), "ms", Lower));
        m.push(layer(format!("apps.{app}.user_msgs"), "count", Lower));
    }
    for app in PROCS_APPS {
        m.push(layer(format!("apps.{app}.procs_p2_ms"), "ms", Lower));
    }
    for job in TABLE_JOBS {
        m.push(layer(format!("tables.{job}.ms"), "ms", Lower));
    }
    m
}

/// Values measured in one run, by metric name.
#[derive(Default, Debug, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The measured value, or 0 for a metric this run did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `BENCHMARK.json`, as the builder's contract specifies it.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e = end_to_end();
    for (i, m) in e.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            if i + 1 < e.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let l = per_layer();
    for (i, m) in l.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < l.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(end_to_end().into_iter().map(|m| m.name));
        names.extend(per_layer().into_iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn units_and_whys_fit_the_contract() {
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn counts_and_bounds_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        let e = end_to_end();
        assert!((1..=16).contains(&e.len()));
        assert!(e
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        let l = per_layer();
        assert!(
            (1..=128).contains(&l.len()),
            "{} per-layer metrics",
            l.len()
        );
        assert!(l.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn table_jobs_match_ck_bench() {
        let jobs: Vec<&str> = ck_bench::table_jobs().iter().map(|(n, _)| *n).collect();
        assert_eq!(jobs, TABLE_JOBS);
    }

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let json = benchmark_json();
        ck_trace::json_lint::validate(&json).expect("BENCHMARK.json must be valid JSON");
        assert!(json.len() <= 64 * 1024);
        assert_eq!(
            json,
            include_str!("../../BENCHMARK.json"),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn unset_metrics_read_zero() {
        let mut m = Metrics::default();
        m.set("a.b", 2.5);
        assert_eq!(m.get("a.b"), 2.5);
        assert_eq!(m.get("never.set"), 0.0);
    }
}
