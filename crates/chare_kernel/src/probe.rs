//! The kernel's one recording path.
//!
//! Every moment the kernel can observe — a message posted or delivered,
//! an entry begun or ended, a seed kept, forwarded or re-homed, a frame
//! retransmitted, the backlog changing — is one [`EventKind`], and the
//! stratum that owns the moment reports it exactly once, through
//! `emit`: the transport a send, a delivery, a retransmit; the seed
//! manager a seed kept or forwarded; the scheduler an entry, a re-homed
//! seed, a queue sample. The per-PE `Probe` behind that call turns it
//! into one [`TraceEvent`] and hands it to whichever recorders the run
//! configured:
//!
//! * the **trace ring** (present iff the program ran
//!   [`with_tracing`](crate::program::Program::with_tracing)) retains
//!   the event itself for the post-mortem views — see [`crate::trace`];
//! * the **metrics fold** (present iff it ran
//!   [`with_metrics`](crate::program::Program::with_metrics)) bumps the
//!   interval slice the event falls in, feeds the latency and grain
//!   histograms, and appends the event to the flight-recorder ring —
//!   see [`crate::metrics`]. One `match` on the event kind
//!   (`PeState::fold`) decides what each kind means to the aggregates.
//!
//! Both see the same events, in the same order, with the same stamps,
//! so with both on and neither ring wrapped a PE's flight recorder *is*
//! the tail of its trace. `docs/TRACING.md` tabulates the vocabulary:
//! which site emits each event, where it lands, and the
//! `KernelCounters` field it must agree with.
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
//! the probe owns (a `RefCell`, no lock): the state moves into the
//! run's `ProbeSink` exactly once, when the node — and with it the
//! probe — drops, which every backend does before it drains the sink.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use multicomputer::Pe;

use crate::metrics::{
    merge_shards, Histogram, MetricsConfig, MetricsLog, PeMetricSet, TimeSlices,
};
use crate::trace::{EventKind, RingLog, TraceConfig, TraceEvent, TraceLog};

/// One PE's streaming aggregates: what the metrics side of a [`Probe`]
/// folds events into.
#[derive(Debug)]
struct PeState {
    slices: TimeSlices,
    latency: Histogram,
    grain: Histogram,
    queue_hwm: u64,
    flight: RingLog,
}

impl PeState {
    fn new(cfg: &MetricsConfig) -> Self {
        PeState {
            slices: TimeSlices::new(cfg.slice_ns, cfg.max_slices),
            latency: Histogram::new(),
            grain: Histogram::new(),
            queue_hwm: 0,
            flight: RingLog::new(cfg.flight_cap),
        }
    }

    /// Fold one event in: counts land in the interval the event falls
    /// in, `span_ns` (see [`Probe::record`]) feeds the histogram of the
    /// kind that closes a span, and every event enters the flight ring.
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
        self.flight.push(ev);
    }

    /// This PE's shard for [`merge_shards`]: its slices at its own
    /// width, re-bucketed to the machine-wide one there.
    fn into_shard(mut self, pe: Pe) -> (u64, PeMetricSet) {
        let (flight, flight_dropped) = self.flight.drain();
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

/// Everything one PE recorded: owned by its [`Probe`] while the node
/// runs, then moved into the sink's slot.
#[derive(Debug, Default)]
struct Recorded {
    trace: Option<RingLog>,
    metrics: Option<PeState>,
}

/// Per-run collection point: one slot per PE, filled when that PE's
/// [`Probe`] drops. The mutex is touched once per run per PE, never on
/// the recording path.
pub(crate) struct ProbeSink {
    tracing: Option<TraceConfig>,
    metrics: Option<MetricsConfig>,
    /// User-step dispatch overhead of the hosting machine's cost model
    /// (0 on the thread and process backends). The node cannot see the
    /// machine's cost model, so the per-step split into dispatch vs.
    /// work is parameterized here, matching `ck_trace`'s attribution.
    dispatch_ns: u64,
    /// Control-step dispatch overhead, ditto.
    ctl_dispatch_ns: u64,
    slots: Vec<Mutex<Option<Recorded>>>,
}

impl ProbeSink {
    /// A sink for `npes` PEs recording whichever of the two is
    /// configured, on a machine with the given dispatch overheads.
    pub(crate) fn shared(
        npes: usize,
        tracing: Option<TraceConfig>,
        metrics: Option<MetricsConfig>,
        dispatch_ns: u64,
        ctl_dispatch_ns: u64,
    ) -> Arc<Self> {
        Arc::new(ProbeSink {
            tracing,
            metrics,
            dispatch_ns,
            ctl_dispatch_ns,
            slots: (0..npes).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The recording handle for one PE. Deliberately not `Clone`: a
    /// second handle would split the PE's record and the later flush
    /// would overwrite the earlier.
    pub(crate) fn probe_for(self: &Arc<Self>, pe: Pe) -> Probe {
        Probe {
            pe,
            rec: RefCell::new(Recorded {
                trace: self.tracing.map(|c| RingLog::new(c.capacity)),
                metrics: self.metrics.as_ref().map(PeState::new),
            }),
            sink: Arc::clone(self),
        }
    }

    /// Take what PE `pe`'s dropped probe flushed, in drained form; `None`
    /// if it never flushed (or was taken already). All a worker process
    /// of the procs backend calls: its one shard travels to the parent.
    pub(crate) fn take_shard(&self, pe: Pe) -> Option<Shard> {
        let rec = self.slots[pe.index()].lock().expect("a probe panicked mid-flush").take()?;
        let (events, dropped) = rec.trace.map_or((Vec::new(), 0), |mut ring| ring.drain());
        Some(Shard {
            events,
            dropped,
            metrics: rec.metrics.map(|st| st.into_shard(pe)),
        })
    }

    /// Collect what every dropped probe flushed: [`merge`] over every
    /// PE's shard. `end_ns` is the run's end time.
    pub(crate) fn drain(&self, end_ns: u64) -> (Option<TraceLog>, Option<MetricsLog>) {
        let npes = self.slots.len();
        let shards = (0..npes).filter_map(|i| self.take_shard(Pe::from(i)));
        merge(self.tracing, self.metrics, npes, end_ns, shards)
    }
}

/// Everything one PE recorded, drained: its trace ring's events (oldest
/// first) and overwrite count, and its metric set with the slice width
/// it ended at. Empty when the run recorded nothing.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Shard {
    pub(crate) events: Vec<TraceEvent>,
    pub(crate) dropped: u64,
    pub(crate) metrics: Option<(u64, PeMetricSet)>,
}

crate::wire_struct!(Shard { events, dropped, metrics });

/// The one merge of per-PE shards into a run's record, whichever
/// backend collected them and in PE order: the time-ordered event log if
/// tracing was configured, and the metrics snapshot if metrics were.
/// `end_ns` is needed to derive idle time per interval. A PE with no
/// shard reads as silent: no events, an all-idle metric set.
pub(crate) fn merge(
    tracing: Option<TraceConfig>,
    metrics: Option<MetricsConfig>,
    npes: usize,
    end_ns: u64,
    shards: impl IntoIterator<Item = Shard>,
) -> (Option<TraceLog>, Option<MetricsLog>) {
    let mut events = Vec::new();
    let mut dropped = 0;
    let mut sets = Vec::new();
    for shard in shards {
        events.extend(shard.events);
        dropped += shard.dropped;
        sets.extend(shard.metrics);
    }
    // Per-PE rings are individually ordered; the stable sort merges
    // them PE-0-first among equal stamps.
    events.sort_by_key(|e| e.at_ns);
    (
        tracing.map(|_| TraceLog {
            npes,
            events,
            dropped,
        }),
        metrics.map(|cfg| merge_shards(cfg, npes, end_ns, sets)),
    )
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
    rec: RefCell<Recorded>,
    sink: Arc<ProbeSink>,
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned slot means another flush panicked; there is no one
        // left to report to, and `drop` must not panic in turn.
        if let Ok(mut slot) = self.sink.slots[self.pe.index()].lock() {
            *slot = Some(std::mem::take(self.rec.get_mut()));
        }
    }
}

impl Probe {
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
        if let Some(ring) = &mut rec.trace {
            ring.push(ev);
        }
        if let Some(st) = &mut rec.metrics {
            st.fold(ev, span_ns);
        }
    }

    /// Attribute time or a watermark that is not an event (nothing
    /// enters either ring); a no-op unless metrics are configured.
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
        let dispatch = self.sink.dispatch_ns;
        self.attribute(|st| {
            st.slices.add_span(start, dispatch, |s, ns| s.dispatch_ns += ns);
            st.slices.add_span(start + dispatch, spent_ns, |s, ns| s.work_ns += ns);
        });
    }

    /// A control scheduling step ran at `start` and took `spent_ns`.
    pub(crate) fn ctl_step(&self, start: u64, spent_ns: u64) {
        let dur = self.sink.ctl_dispatch_ns + spent_ns;
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

    fn sample(len: u32) -> EventKind {
        EventKind::QueueSample { len }
    }

    #[test]
    fn sink_merges_pe_streams_in_time_order() {
        let sink = ProbeSink::shared(2, Some(TraceConfig::default()), None, 0, 0);
        let p0 = sink.probe_for(Pe(0));
        let p1 = sink.probe_for(Pe(1));
        p1.record(5, 0, sample(1));
        p0.record(3, 0, sample(2));
        p0.record(9, 0, sample(0));
        drop((p0, p1)); // flush into the sink
        let (log, metrics) = sink.drain(10);
        assert!(metrics.is_none(), "metrics were not configured");
        let log = log.expect("tracing was configured");
        let ats: Vec<u64> = log.events.iter().map(|e| e.at_ns).collect();
        assert_eq!(ats, vec![3, 5, 9]);
        assert_eq!(log.npes, 2);
        assert_eq!(log.events_for(Pe(0)).count(), 2);
    }

    #[test]
    fn drain_rebuckets_pes_to_common_width() {
        let cfg = MetricsConfig {
            slice_ns: 10,
            max_slices: 4,
            flight_cap: 8,
        };
        let sink = ProbeSink::shared(2, None, Some(cfg), 5, 1);
        let p0 = sink.probe_for(Pe(0));
        let p1 = sink.probe_for(Pe(1));
        // PE1 records far in the future, forcing its width to grow;
        // PE0 stays fine-grained until drain.
        p0.user_step(0, 10);
        p1.user_step(395, 5);
        drop((p0, p1));
        let (trace, log) = sink.drain(400);
        assert!(trace.is_none(), "tracing was not configured");
        let log = log.expect("metrics were configured");
        assert_eq!(log.npes, 2);
        assert!(log.slice_ns >= 100, "PE1 forced coarsening, got {}", log.slice_ns);
        assert_eq!(log.per_pe[0].slices.len(), log.per_pe[1].slices.len());
        // Busy totals survived the re-bucketing (dispatch 5 + work 10 / 5).
        let busy0: u64 = log.per_pe[0].slices.iter().map(|s| s.busy_ns()).sum();
        let busy1: u64 = log.per_pe[1].slices.iter().map(|s| s.busy_ns()).sum();
        assert_eq!(busy0, 15);
        assert_eq!(busy1, 10);
    }

    #[test]
    fn flight_recorder_is_bounded_and_keeps_newest() {
        let cfg = MetricsConfig {
            flight_cap: 4,
            ..MetricsConfig::default()
        };
        let sink = ProbeSink::shared(1, None, Some(cfg), 0, 0);
        let p = sink.probe_for(Pe(0));
        for i in 0..10u64 {
            p.record(i, 0, EventKind::Retransmit { to: Pe(0), seq: i });
        }
        drop(p);
        let log = sink.drain(10).1.expect("metrics were configured");
        assert_eq!(log.per_pe[0].flight.len(), 4);
        assert_eq!(log.per_pe[0].flight_dropped, 6);
        let tail = log.flight_tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].at_ns, 9);
        assert_eq!(log.flight_dropped(), 6);
        let rxmit: u64 = log.per_pe[0].slices.iter().map(|s| s.retransmits).sum();
        assert_eq!(rxmit, 10, "the slices count what the ring overwrote");
    }

    #[test]
    fn queue_hwm_tracks_maximum() {
        let sink = ProbeSink::shared(1, None, Some(MetricsConfig::default()), 0, 0);
        let p = sink.probe_for(Pe(0));
        p.queue_peak(3);
        p.queue_peak(7);
        p.queue_peak(5);
        drop(p);
        assert_eq!(sink.drain(1).1.expect("metrics on").queue_hwm_max(), 7);
    }

    #[test]
    fn both_recorders_see_the_same_events_and_spans_feed_the_histograms() {
        let sink = ProbeSink::shared(
            1,
            Some(TraceConfig::default()),
            Some(MetricsConfig::default()),
            0,
            0,
        );
        let p = sink.probe_for(Pe(0));
        let recv = EventKind::MsgRecv {
            from: Pe(0),
            class: crate::trace::MsgClass::Chare,
            bytes: 40,
        };
        p.record(100, 30, recv);
        p.record(100, 7, EventKind::EntryEnd { msgs_sent: 0 });
        p.record(100, 0, sample(1));
        drop(p);
        let (trace, metrics) = sink.drain(200);
        let (trace, metrics) = (trace.expect("tracing on"), metrics.expect("metrics on"));
        assert_eq!(metrics.per_pe[0].flight, trace.events);
        assert_eq!((metrics.latency_all().count, metrics.latency_all().sum), (1, 30));
        assert_eq!((metrics.grain_all().count, metrics.grain_all().sum), (1, 7));
        assert_eq!(metrics.slice_totals(0).bytes_recv, 40);
    }
}
