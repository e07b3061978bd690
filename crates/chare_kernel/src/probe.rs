//! The kernel's one recording path.
//!
//! Every moment the kernel can observe — a message posted or delivered,
//! an entry begun or ended, a seed kept, forwarded or re-homed, a frame
//! retransmitted, the backlog changing — is one [`EventKind`], and the
//! stratum that owns the moment reports it exactly once, through
//! `emit`: the transport a send, a delivery, a retransmit; the seed
//! manager a seed kept or forwarded; the scheduler an entry, a re-homed
//! seed, a queue sample. The per-PE `Probe` behind that call turns it
//! into one [`TraceEvent`], writes it once into the PE's one ring, and
//! folds it into the metrics if the run meters:
//!
//! * the **ring** holds [`TRACE_CAP`] events when the program ran
//!   [`with_tracing`](crate::program::Program::with_tracing) and
//!   [`FLIGHT_CAP`] when it only ran
//!   [`with_metrics`](crate::program::Program::with_metrics), oldest
//!   overwritten. At the end of the run the trace takes it whole (see
//!   [`crate::trace`]) and the flight recorder its last `FLIGHT_CAP`
//!   events;
//! * the **metrics fold** (present iff the program ran `with_metrics`)
//!   bumps the interval slice the event falls in and feeds the latency
//!   and grain histograms — see [`crate::metrics`]. One `match` on the
//!   event kind (`PeState::fold`) decides what each kind means to the
//!   aggregates.
//!
//! So a PE's flight recorder *is* the tail of its trace, by
//! construction. `docs/TRACING.md` tabulates the vocabulary:
//! which site emits each event, where it lands, and the
//! `KernelCounters` field it must agree with.
//!
//! ## Where a PE's record goes
//!
//! When a run ends its machine hands the nodes back, and each node
//! becomes one `Shard`: its [`KernelCounters`] and what its probe
//! recorded (`CkNode::into_shard`). A procs worker ships its shard to
//! the parent in `Final`. `merge` is the one code that turns a run's
//! shards into its per-PE counters, its trace and its metrics, on every
//! backend.
//!
//! ## Cost discipline
//!
//! Recording is strictly passive: it never sends messages, never charges
//! simulated time, and never perturbs the scheduler, so a recorded run
//! is byte-identical (end time, event count, packets, bytes, counters,
//! result) to the same run with recording off — asserted for trace,
//! metrics and both by `ck_apps/tests/probe_invariants.rs`. With no
//! recorder configured each site is one `Option` test and the event is
//! never built. With one configured, recording is arithmetic on state
//! the probe owns (a `RefCell`, no lock), drained once, into the shard.

use std::cell::RefCell;

use multicomputer::Pe;

use crate::metrics::{
    merge_shards, Histogram, MetricsLog, PeMetricSet, TimeSlices, FLIGHT_CAP, MAX_SLICES, SLICE_NS,
};
use crate::program::RunOpts;
use crate::stats::KernelCounters;
use crate::trace::{EventKind, RingLog, TraceEvent, TraceLog, TRACE_CAP};

/// One PE's streaming aggregates: what the metrics side of a [`Probe`]
/// folds events into.
#[derive(Debug)]
struct PeState {
    slices: TimeSlices,
    latency: Histogram,
    grain: Histogram,
    queue_hwm: u64,
}

impl PeState {
    fn new() -> Self {
        PeState {
            slices: TimeSlices::new(SLICE_NS, MAX_SLICES),
            latency: Histogram::new(),
            grain: Histogram::new(),
            queue_hwm: 0,
        }
    }

    /// Fold one event in: counts land in the interval the event falls
    /// in, and `span_ns` (see [`Probe::record`]) feeds the histogram of
    /// the kind that closes a span.
    fn fold(&mut self, ev: TraceEvent, span_ns: u64) {
        match ev.kind {
            EventKind::MsgSend { bytes, .. } => self.slices.bump(ev.at_ns, |s| {
                s.msgs_sent += 1;
                s.bytes_sent += bytes as u64;
            }),
            EventKind::MsgRecv { bytes, .. } => {
                self.slices.bump(ev.at_ns, |s| {
                    s.msgs_recv += 1;
                    s.bytes_recv += bytes as u64;
                });
                self.latency.record(span_ns);
            }
            EventKind::EntryEnd { .. } => self.grain.record(span_ns),
            EventKind::SeedKept { .. } => self.slices.bump(ev.at_ns, |s| s.seeds_kept += 1),
            EventKind::SeedForwarded { .. } => {
                self.slices.bump(ev.at_ns, |s| s.seeds_forwarded += 1)
            }
            EventKind::Retransmit { .. } => self.slices.bump(ev.at_ns, |s| s.retransmits += 1),
            EventKind::EntryBegin { .. }
            | EventKind::SeedRedirected { .. }
            | EventKind::QueueSample { .. } => {}
        }
    }

    /// This PE's shard for [`merge_shards`]: its slices at its own
    /// width, re-bucketed to the machine-wide one there, and as flight
    /// recorder the last [`FLIGHT_CAP`] of `events`, the PE's drained
    /// ring, which overwrote `dropped` before them.
    fn into_shard(self, pe: Pe, events: &[TraceEvent], dropped: u64) -> (u64, PeMetricSet) {
        let flight = events[events.len().saturating_sub(FLIGHT_CAP)..].to_vec();
        let flight_dropped = dropped.saturating_add((events.len() - flight.len()) as u64);
        let set = PeMetricSet {
            pe,
            slices: self.slices.slices().to_vec(),
            latency: self.latency,
            grain: self.grain,
            queue_hwm: self.queue_hwm,
            flight,
            flight_dropped,
        };
        (self.slices.width_ns(), set)
    }
}

/// Everything one PE records while its node runs, owned by its
/// [`Probe`]: one ring of every event, and the metrics fold if the run
/// meters.
#[derive(Debug)]
struct Recorded {
    ring: RingLog,
    metrics: Option<PeState>,
}

/// Everything one PE reported, drained: its counters, its ring's events
/// (oldest first) and overwrite count if the run traced, its metric set with
/// the slice width it ended at. The recorded parts are empty when the
/// run recorded nothing.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Shard {
    pub(crate) counters: KernelCounters,
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped: u64,
    pub(crate) metrics: Option<(u64, PeMetricSet)>,
}

crate::wire_struct!(Shard { counters, events, dropped, metrics });

/// The one merge of a run's shards, one per PE in PE order, whichever
/// backend collected them: every PE's counters, the time-ordered event
/// log if `opts` traced, and the metrics snapshot if it metered, each
/// shard's metric set filed under the PE whose shard it is. `end_ns` is
/// needed to derive idle time per interval.
pub(crate) fn merge(
    opts: &RunOpts,
    end_ns: u64,
    shards: impl IntoIterator<Item = Shard>,
) -> (Vec<KernelCounters>, Option<TraceLog>, Option<MetricsLog>) {
    let mut counters = Vec::new();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut sets = Vec::new();
    for shard in shards {
        counters.push(shard.counters);
        events.extend(shard.events);
        dropped = dropped.saturating_add(shard.dropped);
        sets.push(shard.metrics);
    }
    let npes = counters.len();
    // Per-PE rings are individually ordered; the stable sort merges
    // them PE-0-first among equal stamps.
    events.sort_by_key(|e| e.at_ns);
    let trace = opts.tracing.map(|_| TraceLog { npes, events, dropped });
    let metrics = opts.metrics.map(|_| merge_shards(end_ns, sets));
    (counters, trace, metrics)
}

/// Report one kernel event to a PE's recorder, if it has one. `observe`
/// returns the event's timestamp, the span it closes (see
/// [`Probe::record`]; 0 for the kinds that close none) and its kind.
/// With recording off this is one `Option` test and `observe` never
/// runs, so neither the clock is read nor the event built.
#[inline]
pub(crate) fn emit(probe: &Option<Probe>, observe: impl FnOnce() -> (u64, u64, EventKind)) {
    if let Some(p) = probe {
        let (at_ns, span_ns, kind) = observe();
        p.record(at_ns, span_ns, kind);
    }
}

/// One PE's recorder, owned by its node.
pub(crate) struct Probe {
    pe: Pe,
    /// Whether the run traces: the ring is then [`TRACE_CAP`] events
    /// long and its shard carries them all.
    traces: bool,
    rec: RefCell<Recorded>,
    /// User-step dispatch overhead of the hosting machine's cost model
    /// (0 on the thread and process backends). The node cannot see the
    /// machine's cost model, so the per-step split into dispatch vs.
    /// work is parameterized here, matching `ck_trace`'s attribution.
    dispatch_ns: u64,
    /// Control-step dispatch overhead, ditto.
    ctl_dispatch_ns: u64,
}

impl Probe {
    /// PE `pe`'s recorder for a run under `opts`, on a machine with the
    /// given dispatch overheads; `None` when the run records neither a
    /// trace nor metrics. Its one ring holds [`TRACE_CAP`] events when
    /// the run traces and [`FLIGHT_CAP`] when it only meters.
    pub(crate) fn for_run(
        pe: Pe,
        opts: &RunOpts,
        dispatch_ns: u64,
        ctl_dispatch_ns: u64,
    ) -> Option<Probe> {
        let RunOpts { tracing, metrics, .. } = opts;
        let traces = tracing.is_some();
        (traces || metrics.is_some()).then(|| Probe {
            pe,
            traces,
            rec: RefCell::new(Recorded {
                ring: RingLog::new(if traces { TRACE_CAP } else { FLIGHT_CAP }),
                metrics: metrics.map(|_| PeState::new()),
            }),
            dispatch_ns,
            ctl_dispatch_ns,
        })
    }

    /// What this PE recorded, drained into its shard beside `counters`:
    /// the trace takes the ring whole, the flight recorder its tail.
    pub(crate) fn into_shard(self, counters: KernelCounters) -> Shard {
        let Recorded { mut ring, metrics } = self.rec.into_inner();
        let (events, dropped) = ring.drain();
        let metrics = metrics.map(|st| st.into_shard(self.pe, &events, dropped));
        if self.traces {
            Shard { counters, events, dropped, metrics }
        } else {
            Shard { counters, metrics, ..Shard::default() }
        }
    }

    /// Record one event at `at_ns`. `span_ns` is the duration the event
    /// closes, for the two kinds that close one — a message's flight
    /// time for `MsgRecv`, the entry's grain for `EntryEnd` (charged time
    /// on the simulator, wall time on a real backend) — and 0 otherwise.
    #[inline]
    pub(crate) fn record(&self, at_ns: u64, span_ns: u64, kind: EventKind) {
        let ev = TraceEvent {
            at_ns,
            pe: self.pe,
            kind,
        };
        let mut rec = self.rec.borrow_mut();
        rec.ring.push(ev);
        if let Some(st) = &mut rec.metrics {
            st.fold(ev, span_ns);
        }
    }

    /// Attribute time or a watermark that is not an event (nothing
    /// enters the ring); a no-op unless metrics are configured.
    fn attribute(&self, f: impl FnOnce(&mut PeState)) {
        if let Some(st) = &mut self.rec.borrow_mut().metrics {
            f(st);
        }
    }

    /// A user scheduling step ran at `start` and took `spent_ns` — the
    /// time it charged on the simulator, the wall time it ran for on a
    /// real backend (the node's `spent_ns` is the one sum that is both).
    /// Attributed dispatch-first, then work, clipped across intervals.
    pub(crate) fn user_step(&self, start: u64, spent_ns: u64) {
        let dispatch = self.dispatch_ns;
        self.attribute(|st| {
            st.slices.add_span(start, dispatch, |s, ns| s.dispatch_ns += ns);
            st.slices.add_span(start + dispatch, spent_ns, |s, ns| s.work_ns += ns);
        });
    }

    /// A control scheduling step ran at `start` and took `spent_ns`.
    pub(crate) fn ctl_step(&self, start: u64, spent_ns: u64) {
        let dur = self.ctl_dispatch_ns + spent_ns;
        self.attribute(|st| st.slices.add_span(start, dur, |s, ns| s.ctl_ns += ns));
    }

    /// An alarm handler ran at `start` and took `spent_ns` (the machine
    /// charges alarms no dispatch overhead).
    pub(crate) fn alarm(&self, start: u64, spent_ns: u64) {
        self.attribute(|st| st.slices.add_span(start, spent_ns, |s, ns| s.ctl_ns += ns));
    }

    /// The runnable backlog reached a new peak of `len`. A watermark,
    /// not an event: the backlog peaks on arrival, between the steps at
    /// whose ends `QueueSample` events are taken.
    pub(crate) fn queue_peak(&self, len: u64) {
        self.attribute(|st| st.queue_hwm = st.queue_hwm.max(len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsConfig;
    use crate::trace::TraceConfig;

    fn sample(len: u32) -> EventKind {
        EventKind::QueueSample { len }
    }

    /// A run recording whichever of the two is given.
    fn recording(tracing: Option<TraceConfig>, metrics: Option<MetricsConfig>) -> RunOpts {
        RunOpts { tracing, metrics, ..RunOpts::default() }
    }

    /// PE `pe`'s probe on a machine with no dispatch overhead.
    fn probe(pe: u32, opts: &RunOpts) -> Probe {
        Probe::for_run(Pe(pe), opts, 0, 0).expect("the run records")
    }

    /// The shards of `probes`, in order, each with zero counters.
    fn shards(probes: Vec<Probe>) -> impl Iterator<Item = Shard> {
        probes.into_iter().map(|p| p.into_shard(KernelCounters::default()))
    }

    #[test]
    fn a_run_that_records_nothing_has_no_probe() {
        assert!(Probe::for_run(Pe(0), &RunOpts::default(), 5, 1).is_none());
    }

    #[test]
    fn sink_merges_pe_streams_in_time_order() {
        let opts = recording(Some(TraceConfig), None);
        let (p0, p1) = (probe(0, &opts), probe(1, &opts));
        p1.record(5, 0, sample(1));
        p0.record(3, 0, sample(2));
        p0.record(9, 0, sample(0));
        let (counters, log, metrics) = merge(&opts, 10, shards(vec![p0, p1]));
        assert_eq!(counters.len(), 2, "one PE's counters per shard");
        assert!(metrics.is_none(), "metrics were not configured");
        let log = log.expect("tracing was configured");
        let ats: Vec<u64> = log.events.iter().map(|e| e.at_ns).collect();
        assert_eq!(ats, vec![3, 5, 9]);
        assert_eq!(log.npes, 2);
        assert_eq!(log.events_for(Pe(0)).count(), 2);
    }

    #[test]
    fn drain_rebuckets_pes_to_common_width() {
        let opts = recording(None, Some(MetricsConfig));
        let p0 = Probe::for_run(Pe(0), &opts, 5, 1).expect("metered");
        let p1 = Probe::for_run(Pe(1), &opts, 5, 1).expect("metered");
        // PE1 records far past its first intervals, forcing its width to
        // grow; PE0 stays fine-grained until the merge.
        let far = 16 * MAX_SLICES as u64 * SLICE_NS;
        p0.user_step(0, 10);
        p1.user_step(far, 5);
        let (_, trace, log) = merge(&opts, far + 10, shards(vec![p0, p1]));
        assert!(trace.is_none(), "tracing was not configured");
        let log = log.expect("metrics were configured");
        assert_eq!(log.npes, 2);
        assert!(log.width_ns > 16 * SLICE_NS, "PE1 forced coarsening, got {}", log.width_ns);
        assert_eq!(log.per_pe[0].slices.len(), log.per_pe[1].slices.len());
        // Busy totals survived the re-bucketing (dispatch 5 + work 10 / 5).
        let busy0: u64 = log.per_pe[0].slices.iter().map(|s| s.busy_ns()).sum();
        let busy1: u64 = log.per_pe[1].slices.iter().map(|s| s.busy_ns()).sum();
        assert_eq!(busy0, 15);
        assert_eq!(busy1, 10);
    }

    /// `n` retransmit events into `p`, stamped `0..n`; what they record.
    fn retransmits(p: &Probe, n: usize) -> Vec<TraceEvent> {
        let kind = |seq| EventKind::Retransmit { to: Pe(0), seq };
        let events: Vec<TraceEvent> =
            (0..n as u64).map(|i| TraceEvent { at_ns: i, pe: p.pe, kind: kind(i) }).collect();
        events.iter().for_each(|ev| p.record(ev.at_ns, 0, ev.kind));
        events
    }

    #[test]
    fn flight_recorder_is_bounded_and_keeps_newest() {
        let opts = recording(None, Some(MetricsConfig));
        let p = probe(0, &opts);
        retransmits(&p, FLIGHT_CAP + 6);
        let log = merge(&opts, 100, shards(vec![p])).2.expect("metrics were configured");
        assert_eq!(log.per_pe[0].flight.len(), FLIGHT_CAP);
        assert_eq!(log.per_pe[0].flight_dropped, 6);
        let tail = log.flight_tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].at_ns, FLIGHT_CAP as u64 + 5);
        assert_eq!(log.flight_dropped(), 6);
        let rxmit: u64 = log.per_pe[0].slices.iter().map(|s| s.retransmits).sum();
        assert_eq!(rxmit, FLIGHT_CAP as u64 + 6, "the slices count what the ring overwrote");
    }

    /// One ring feeds both recorders: the trace is every event, and the
    /// flight recorder the last `FLIGHT_CAP` of them with the rest
    /// counted dropped, whether the run traces, meters or both — and
    /// still when the trace ring itself has wrapped.
    #[test]
    fn one_ring_feeds_the_trace_and_the_flight_recorder() {
        let n = 3 * FLIGHT_CAP;
        let tail_dropped = (n - FLIGHT_CAP) as u64;
        let trace_only = recording(Some(TraceConfig), None);
        let metrics_only = recording(None, Some(MetricsConfig));
        let both = recording(Some(TraceConfig), Some(MetricsConfig));
        for opts in [trace_only, metrics_only, both.clone()] {
            let p = probe(0, &opts);
            let all = retransmits(&p, n);
            let (_, trace, metrics) = merge(&opts, n as u64, shards(vec![p]));
            let whole = opts.tracing.map(|_| (all.clone(), 0));
            assert_eq!(trace.map(|t| (t.events, t.dropped)), whole, "{opts:?}");
            let flight = metrics.map(|m| (m.per_pe[0].flight.clone(), m.per_pe[0].flight_dropped));
            let tail = opts.metrics.map(|_| (all[n - FLIGHT_CAP..].to_vec(), tail_dropped));
            assert_eq!(flight, tail, "{opts:?}");
        }
        // A ring of twice the flight recorder, wrapped by a third more.
        let rec = Recorded { ring: RingLog::new(2 * FLIGHT_CAP), metrics: Some(PeState::new()) };
        let p = Probe { rec: RefCell::new(rec), ..probe(0, &both) };
        let all = retransmits(&p, n);
        let shard = p.into_shard(KernelCounters::default());
        assert_eq!((&shard.events[..], shard.dropped), (&all[FLIGHT_CAP..], FLIGHT_CAP as u64));
        let (_, set) = shard.metrics.expect("metered");
        assert_eq!((&set.flight[..], set.flight_dropped), (&all[n - FLIGHT_CAP..], tail_dropped));
    }

    #[test]
    fn queue_hwm_tracks_maximum() {
        let opts = recording(None, Some(MetricsConfig));
        let p = probe(0, &opts);
        p.queue_peak(3);
        p.queue_peak(7);
        p.queue_peak(5);
        assert_eq!(merge(&opts, 1, shards(vec![p])).2.expect("metrics on").queue_hwm_max(), 7);
    }

    #[test]
    fn both_recorders_see_the_same_events_and_spans_feed_the_histograms() {
        let opts = recording(Some(TraceConfig), Some(MetricsConfig));
        let p = probe(0, &opts);
        let recv = EventKind::MsgRecv {
            from: Pe(0),
            class: crate::trace::MsgClass::Chare,
            bytes: 40,
        };
        p.record(100, 30, recv);
        p.record(100, 7, EventKind::EntryEnd { msgs_sent: 0 });
        p.record(100, 0, sample(1));
        let (_, trace, metrics) = merge(&opts, 200, shards(vec![p]));
        let (trace, metrics) = (trace.expect("tracing on"), metrics.expect("metrics on"));
        assert_eq!(metrics.per_pe[0].flight, trace.events);
        assert_eq!((metrics.latency_all().count, metrics.latency_all().sum), (1, 30));
        assert_eq!((metrics.grain_all().count, metrics.grain_all().sum), (1, 7));
        assert_eq!(metrics.slice_totals(0).bytes_recv, 40);
    }

    #[test]
    fn the_merge_keeps_each_pes_counters_in_pe_order() {
        let opts = recording(None, None);
        let of = |user_sent| Shard {
            counters: KernelCounters { user_sent, ..KernelCounters::default() },
            ..Shard::default()
        };
        let (counters, trace, metrics) = merge(&opts, 0, [of(3), of(u64::MAX), of(7)]);
        let sent: Vec<u64> = counters.iter().map(|c| c.user_sent).collect();
        assert_eq!(sent, vec![3, u64::MAX, 7]);
        assert!(trace.is_none() && metrics.is_none(), "nothing was recorded");
    }
}
