//! # ck_trace — post-mortem analysis of Chare Kernel traces
//!
//! A miniature of *Projections*, the performance-analysis tool that grew
//! out of the Chare Kernel ecosystem. The kernel's event log
//! ([`chare_kernel::trace`]) tells us *what* each PE did (entry begins
//! and ends, message sends and receives, seed-balancing decisions,
//! retransmits, queue depths); the simulator's span timeline tells us
//! *when* and for *how long*. This crate joins the two into the views
//! Projections is known for:
//!
//! * [`RunTrace::attribution`] — where did the PE-seconds go? work vs.
//!   scheduler dispatch vs. runtime control traffic vs. idle;
//! * [`RunTrace::entry_breakdown`] — per-entry-method time totals, the
//!   "profile view";
//! * [`RunTrace::grain_histogram`] — log₂ histogram of entry grain
//!   sizes, the quantity the paper's grain-size discussion is about;
//! * [`RunTrace::comm_matrix`] — PE×PE message/byte matrix;
//! * [`RunTrace::critical_path`] — a lower bound on achievable
//!   completion time, for "how much faster could this possibly get";
//! * [`RunTrace::to_chrome_trace`] — Chrome trace-event JSON loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! All analyses are pure functions of a [`RunTrace`], which is extracted
//! from a finished [`CkReport`] with [`RunTrace::from_report`].

use std::collections::HashMap;

use chare_kernel::trace::{entry_label, EventKind, TraceEvent, TRACE_CAP};
use chare_kernel::CkReport;
use multicomputer::{CostModel, StepKind, TraceSpan};

pub mod json_lint;
pub mod timeline;

mod chrome;

pub use timeline::{IntervalRow, TimeProfile};

/// Everything the analyzer needs from one finished run: the kernel event
/// log joined with the simulator's execution-span timeline.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// PEs in the run.
    pub npes: usize,
    /// Completion time, simulated ns.
    pub end_ns: u64,
    /// Scheduler dispatch overhead charged per user step (from the cost
    /// model), used to split span time into work vs. dispatch.
    pub dispatch_ns: u64,
    /// Dispatch overhead of control-only steps.
    pub ctl_dispatch_ns: u64,
    /// Execution spans from the simulator (`SimConfig::with_trace`).
    pub spans: Vec<TraceSpan>,
    /// Kernel events (`ProgramBuilder::tracing`).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer overflow.
    pub dropped: u64,
}

/// Per-PE time attribution, all in simulated ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeAttribution {
    /// Useful entry-method execution time (user spans minus dispatch).
    pub work_ns: u64,
    /// Scheduler pick-and-dispatch overhead of user steps.
    pub dispatch_ns: u64,
    /// Time in control-only steps (load reports, quiescence waves,
    /// acks — the runtime talking to itself).
    pub control_ns: u64,
    /// Time with nothing to run.
    pub idle_ns: u64,
}

impl PeAttribution {
    fn busy_ns(&self) -> u64 {
        self.work_ns + self.dispatch_ns + self.control_ns
    }
}

/// Where the PE-seconds of a run went — the overhead-attribution view.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// One row per PE.
    pub per_pe: Vec<PeAttribution>,
    /// Sum over PEs.
    pub total: PeAttribution,
}

impl Attribution {
    /// Fraction helpers over total PE-time (`npes * end_ns`).
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let denom = (self.total.busy_ns() + self.total.idle_ns).max(1) as f64;
        (
            self.total.work_ns as f64 / denom,
            self.total.dispatch_ns as f64 / denom,
            self.total.control_ns as f64 / denom,
            self.total.idle_ns as f64 / denom,
        )
    }
}

/// Aggregate statistics for one entry method (the "profile view" row).
#[derive(Clone, Debug)]
pub struct EntryRow {
    /// Human-readable label, e.g. `create:k2`, `chare:ep0`, `boc1:ep3`.
    pub label: String,
    /// Executions observed.
    pub count: u64,
    /// Total span time, ns.
    pub total_ns: u64,
    /// Shortest execution.
    pub min_ns: u64,
    /// Longest execution.
    pub max_ns: u64,
}

impl EntryRow {
    /// Mean execution time, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns / self.count.max(1)
    }
}

/// Log₂ histogram of user-step grain sizes.
#[derive(Clone, Debug, Default)]
pub struct GrainHistogram {
    /// `(lo_ns, hi_ns, count)` per power-of-two bucket; only buckets up
    /// to the largest observed grain are present.
    pub buckets: Vec<(u64, u64, u64)>,
    /// Number of user steps observed.
    pub count: u64,
    /// Median grain, ns.
    pub median_ns: u64,
    /// Mean grain, ns.
    pub mean_ns: u64,
    /// Largest grain, ns.
    pub max_ns: u64,
}

/// PE×PE communication matrix built from `MsgSend` events.
#[derive(Clone, Debug)]
pub struct CommMatrix {
    /// Matrix dimension.
    pub npes: usize,
    /// `msgs[src][dst]` — messages sent from `src` to `dst`.
    pub msgs: Vec<Vec<u64>>,
    /// `bytes[src][dst]` — payload bytes from `src` to `dst`.
    pub bytes: Vec<Vec<u64>>,
}

impl CommMatrix {
    /// Total messages in the matrix.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().flatten().sum()
    }

    /// Fraction of messages that left their source PE.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_msgs();
        if total == 0 {
            return 0.0;
        }
        let local: u64 = (0..self.npes).map(|p| self.msgs[p][p]).sum();
        (total - local) as f64 / total as f64
    }

    /// Render as a text table (message counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("src\\dst");
        for d in 0..self.npes {
            out.push_str(&format!(" {d:>6}"));
        }
        out.push('\n');
        for (s, row) in self.msgs.iter().enumerate() {
            out.push_str(&format!("{s:>7}"));
            for &v in row {
                out.push_str(&format!(" {v:>6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Lower bounds on achievable completion time.
#[derive(Clone, Copy, Debug)]
pub struct CriticalPath {
    /// Observed completion time.
    pub end_ns: u64,
    /// Busiest single PE (a run can never beat its own busiest PE
    /// without rebalancing).
    pub max_pe_busy_ns: u64,
    /// Longest single entry execution (sequential grain floor).
    pub max_span_ns: u64,
    /// Total busy time across PEs.
    pub total_busy_ns: u64,
    /// `max(total/P, longest span)` — the work/depth lower bound.
    pub lower_bound_ns: u64,
}

impl CriticalPath {
    /// How close the run came to its lower bound (1.0 = optimal).
    pub fn efficiency(&self) -> f64 {
        if self.end_ns == 0 {
            return 1.0;
        }
        self.lower_bound_ns as f64 / self.end_ns as f64
    }
}

impl RunTrace {
    /// Extract a `RunTrace` from a finished simulator run. Requires both
    /// kernel tracing (`ProgramBuilder::tracing`) and simulator span
    /// tracing (`SimConfig::with_trace`); returns `None` if either is
    /// missing or the run was not simulated.
    pub fn from_report(report: &CkReport, cost: &CostModel) -> Option<RunTrace> {
        let log = report.trace.as_ref()?;
        let sim = report.sim.as_ref()?;
        Some(RunTrace {
            npes: log.npes,
            end_ns: sim.end_time.as_nanos(),
            dispatch_ns: cost.dispatch.as_nanos(),
            ctl_dispatch_ns: cost.ctl_dispatch.as_nanos(),
            spans: sim.timeline.clone(),
            events: log.events.clone(),
            dropped: log.dropped,
        })
    }

    /// Split every PE's timeline into work / dispatch / control / idle.
    pub fn attribution(&self) -> Attribution {
        let mut per_pe = vec![PeAttribution::default(); self.npes];
        for span in &self.spans {
            let pe = span.pe.index();
            if pe >= self.npes {
                continue;
            }
            let dur = span.end_ns.saturating_sub(span.start_ns);
            match span.kind {
                StepKind::User => {
                    let d = self.dispatch_ns.min(dur);
                    per_pe[pe].dispatch_ns += d;
                    per_pe[pe].work_ns += dur - d;
                }
                StepKind::Control => per_pe[pe].control_ns += dur,
            }
        }
        for a in &mut per_pe {
            a.idle_ns = self.end_ns.saturating_sub(a.busy_ns());
        }
        let mut total = PeAttribution::default();
        for a in &per_pe {
            total.work_ns += a.work_ns;
            total.dispatch_ns += a.dispatch_ns;
            total.control_ns += a.control_ns;
            total.idle_ns += a.idle_ns;
        }
        Attribution { per_pe, total }
    }

    /// Join `EntryBegin` events to user spans. On the simulator a
    /// handler's `now_ns()` equals the span's start, so `(pe, start_ns)`
    /// is the join key.
    fn entry_labels(&self) -> HashMap<(u32, u64), String> {
        let mut labels = HashMap::new();
        for ev in &self.events {
            if let EventKind::EntryBegin { what, ep } = ev.kind {
                labels.insert((ev.pe.0, ev.at_ns), entry_label(what, ep));
            }
        }
        labels
    }

    /// Per-entry-method execution statistics, sorted by total time
    /// descending — the Projections "profile view".
    pub fn entry_breakdown(&self) -> Vec<EntryRow> {
        let labels = self.entry_labels();
        let mut rows: HashMap<String, EntryRow> = HashMap::new();
        for span in &self.spans {
            if span.kind != StepKind::User {
                continue;
            }
            let dur = span.end_ns.saturating_sub(span.start_ns);
            let label = labels
                .get(&(span.pe.0, span.start_ns))
                .cloned()
                .unwrap_or_else(|| "user:?".to_string());
            let row = rows.entry(label.clone()).or_insert(EntryRow {
                label,
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            row.count += 1;
            row.total_ns += dur;
            row.min_ns = row.min_ns.min(dur);
            row.max_ns = row.max_ns.max(dur);
        }
        let mut out: Vec<EntryRow> = rows.into_values().collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(&b.label)));
        out
    }

    /// Log₂ histogram of user-step durations.
    pub fn grain_histogram(&self) -> GrainHistogram {
        let mut durs: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.kind == StepKind::User)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        if durs.is_empty() {
            return GrainHistogram::default();
        }
        durs.sort_unstable();
        let count = durs.len() as u64;
        let max_ns = *durs.last().unwrap();
        let median_ns = durs[durs.len() / 2];
        let mean_ns = durs.iter().sum::<u64>() / count;
        // Bucket b covers [2^b, 2^(b+1)) ns; bucket 0 also holds 0ns.
        let top = 64 - max_ns.max(1).leading_zeros() as usize;
        let mut counts = vec![0u64; top + 1];
        for &d in &durs {
            let b = if d <= 1 {
                0
            } else {
                63 - d.leading_zeros() as usize
            };
            counts[b.min(top)] += 1;
        }
        let buckets = counts
            .iter()
            .enumerate()
            .map(|(b, &c)| (1u64 << b, 1u64 << (b + 1), c))
            .collect();
        GrainHistogram {
            buckets,
            count,
            median_ns,
            mean_ns,
            max_ns,
        }
    }

    /// PE×PE message/byte matrix from `MsgSend` events.
    pub fn comm_matrix(&self) -> CommMatrix {
        let n = self.npes;
        let mut msgs = vec![vec![0u64; n]; n];
        let mut bytes = vec![vec![0u64; n]; n];
        for ev in &self.events {
            if let EventKind::MsgSend {
                to, bytes: sz, ..
            } = ev.kind
            {
                let (s, d) = (ev.pe.index(), to.index());
                if s < n && d < n {
                    msgs[s][d] += 1;
                    bytes[s][d] += sz as u64;
                }
            }
        }
        CommMatrix { npes: n, msgs, bytes }
    }

    /// Work/depth lower bound on completion time.
    pub fn critical_path(&self) -> CriticalPath {
        let mut pe_busy = vec![0u64; self.npes];
        let mut max_span = 0u64;
        for span in &self.spans {
            let dur = span.end_ns.saturating_sub(span.start_ns);
            if span.pe.index() < self.npes {
                pe_busy[span.pe.index()] += dur;
            }
            max_span = max_span.max(dur);
        }
        let total_busy: u64 = pe_busy.iter().sum();
        let avg = if self.npes == 0 {
            0
        } else {
            total_busy.div_ceil(self.npes as u64)
        };
        CriticalPath {
            end_ns: self.end_ns,
            max_pe_busy_ns: pe_busy.iter().copied().max().unwrap_or(0),
            max_span_ns: max_span,
            total_busy_ns: total_busy,
            lower_bound_ns: avg.max(max_span),
        }
    }

    /// Export as Chrome trace-event JSON (load at
    /// <https://ui.perfetto.dev> or `chrome://tracing`).
    pub fn to_chrome_trace(&self) -> String {
        chrome::export(self)
    }

    /// A warning line when the trace ring overflowed and this analysis
    /// is therefore based on an incomplete event log, or `None` if every
    /// event was retained. Views that print attribution or profiles
    /// must surface this — a silently-truncated analysis reads as
    /// authoritative when it is not.
    pub fn truncation_warning(&self) -> Option<String> {
        if self.dropped == 0 {
            return None;
        }
        Some(format!(
            "WARNING: trace ring overflowed; {} events dropped — event-derived \
             views (entries, comm matrix) undercount; the ring keeps the last \
             {} events per PE, so trace a shorter run",
            self.dropped, TRACE_CAP
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chare_kernel::ids::{BocId, ChareKind, EpId};
    use chare_kernel::trace::EntryWhat;
    use multicomputer::Pe;

    fn span(pe: u32, start: u64, end: u64, kind: StepKind) -> TraceSpan {
        TraceSpan {
            pe: Pe(pe),
            start_ns: start,
            end_ns: end,
            kind,
        }
    }

    fn ev(pe: u32, at: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at_ns: at,
            pe: Pe(pe),
            kind,
        }
    }

    fn begin(what: EntryWhat, ep: Option<EpId>) -> EventKind {
        EventKind::EntryBegin { what, ep }
    }

    /// Two PEs: PE0 runs two user steps (1000ns each, 100ns dispatch),
    /// PE1 one control step of 50ns; run ends at 4000ns.
    fn synthetic() -> RunTrace {
        RunTrace {
            npes: 2,
            end_ns: 4000,
            dispatch_ns: 100,
            ctl_dispatch_ns: 20,
            spans: vec![
                span(0, 0, 1000, StepKind::User),
                span(0, 1000, 2000, StepKind::User),
                span(1, 0, 50, StepKind::Control),
            ],
            events: vec![
                ev(0, 0, begin(EntryWhat::Create(ChareKind(3)), None)),
                ev(
                    0,
                    1000,
                    begin(EntryWhat::Branch(BocId(1)), Some(EpId(2))),
                ),
                ev(
                    0,
                    500,
                    EventKind::MsgSend {
                        to: Pe(1),
                        class: chare_kernel::MsgClass::Chare,
                        bytes: 64,
                        hops: 1,
                    },
                ),
                ev(
                    0,
                    600,
                    EventKind::MsgSend {
                        to: Pe(0),
                        class: chare_kernel::MsgClass::Seed,
                        bytes: 16,
                        hops: 0,
                    },
                ),
                ev(1, 700, EventKind::QueueSample { len: 3 }),
                ev(
                    1,
                    800,
                    EventKind::Retransmit { to: Pe(0), seq: 7 },
                ),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn attribution_splits_work_dispatch_control_idle() {
        let a = synthetic().attribution();
        assert_eq!(a.per_pe[0].work_ns, 1800);
        assert_eq!(a.per_pe[0].dispatch_ns, 200);
        assert_eq!(a.per_pe[0].control_ns, 0);
        assert_eq!(a.per_pe[0].idle_ns, 2000);
        assert_eq!(a.per_pe[1].control_ns, 50);
        assert_eq!(a.per_pe[1].idle_ns, 3950);
        // Per-PE rows tile the full run exactly.
        for pe in &a.per_pe {
            assert_eq!(
                pe.work_ns + pe.dispatch_ns + pe.control_ns + pe.idle_ns,
                4000
            );
        }
        let (w, d, c, i) = a.fractions();
        assert!((w + d + c + i - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_caps_dispatch_at_span_length() {
        // A 30ns user span with 100ns nominal dispatch must not
        // underflow into negative work.
        let t = RunTrace {
            spans: vec![span(0, 0, 30, StepKind::User)],
            events: vec![],
            ..synthetic()
        };
        let a = t.attribution();
        assert_eq!(a.per_pe[0].dispatch_ns, 30);
        assert_eq!(a.per_pe[0].work_ns, 0);
    }

    #[test]
    fn entry_breakdown_joins_begin_events_to_spans() {
        let rows = synthetic().entry_breakdown();
        assert_eq!(rows.len(), 2);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"create:k3"));
        assert!(labels.contains(&"boc1:ep2"));
        for r in &rows {
            assert_eq!(r.count, 1);
            assert_eq!(r.total_ns, 1000);
            assert_eq!(r.mean_ns(), 1000);
        }
    }

    #[test]
    fn entry_breakdown_unlabelled_span_falls_back() {
        let t = RunTrace {
            events: vec![],
            ..synthetic()
        };
        let rows = t.entry_breakdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].label, "user:?");
        assert_eq!(rows[0].count, 2);
    }

    #[test]
    fn grain_histogram_buckets_by_log2() {
        let g = synthetic().grain_histogram();
        assert_eq!(g.count, 2); // control spans excluded
        assert_eq!(g.median_ns, 1000);
        assert_eq!(g.mean_ns, 1000);
        assert_eq!(g.max_ns, 1000);
        let total: u64 = g.buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 2);
        // 1000ns lands in [512, 1024).
        let b = g.buckets.iter().find(|&&(lo, _, _)| lo == 512).unwrap();
        assert_eq!(b.2, 2);
    }

    #[test]
    fn grain_histogram_empty_trace() {
        let t = RunTrace {
            spans: vec![],
            ..synthetic()
        };
        let g = t.grain_histogram();
        assert_eq!(g.count, 0);
        assert!(g.buckets.is_empty());
    }

    #[test]
    fn comm_matrix_counts_msgs_and_bytes() {
        let m = synthetic().comm_matrix();
        assert_eq!(m.msgs[0][1], 1);
        assert_eq!(m.bytes[0][1], 64);
        assert_eq!(m.msgs[0][0], 1);
        assert_eq!(m.total_msgs(), 2);
        assert!((m.remote_fraction() - 0.5).abs() < 1e-9);
        let text = m.render();
        assert!(text.contains("src\\dst"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn critical_path_bounds_below_end_time() {
        let cp = synthetic().critical_path();
        assert_eq!(cp.max_pe_busy_ns, 2000);
        assert_eq!(cp.max_span_ns, 1000);
        assert_eq!(cp.total_busy_ns, 2050);
        assert_eq!(cp.lower_bound_ns, 1025); // ceil(2050/2) > 1000
        assert!(cp.lower_bound_ns <= cp.end_ns);
        assert!(cp.efficiency() > 0.0 && cp.efficiency() <= 1.0);
    }

    #[test]
    fn truncation_warning_appears_only_on_loss() {
        assert!(synthetic().truncation_warning().is_none());
        let t = RunTrace {
            dropped: 42,
            ..synthetic()
        };
        let warn = t.truncation_warning().unwrap();
        assert!(warn.contains("42 events dropped"), "{warn}");
        // The export must carry the marker and pass the export lint.
        let json = t.to_chrome_trace();
        json_lint::validate_export(&json, t.dropped).unwrap();
        assert!(json.contains("\"dropped\":42"));
        // And a lossless export stays marker-free.
        let clean = synthetic().to_chrome_trace();
        json_lint::validate_export(&clean, 0).unwrap();
        assert!(!clean.contains("\"dropped\""));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_phases() {
        let json = synthetic().to_chrome_trace();
        json_lint::validate(&json).expect("export must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"i\"")); // retransmit instant
        assert!(json.contains("\"ph\":\"C\"")); // queue counter
        assert!(json.contains("create:k3"));
        assert!(json.contains("boc1:ep2"));
    }
}
