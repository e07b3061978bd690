//! Streaming kernel metrics — bounded-memory telemetry for every run.
//!
//! The [`trace`](crate::trace) module retains an *event log* and defers
//! analysis to post-mortem tooling; that cannot survive the planned
//! 100× machine scale-up, where even per-PE ring buffers of raw events
//! are too much state to keep or to ship. This module computes the
//! interesting aggregates *online*, at the same hook points `trace.rs`
//! uses, in O(PEs × buckets) memory independent of run length:
//!
//! * **interval time slices** — per-PE work / dispatch / control time,
//!   messages and bytes sent/received, seed load-balancing decisions
//!   and retransmits, bucketed by wall (simulated) time. When a run
//!   outgrows the slice budget, adjacent buckets are coalesced and the
//!   interval width doubles — the profile gets coarser, never bigger;
//! * **streaming histograms** — log₂-bucketed message latency
//!   (send → deliver) and entry grain size (charged ns per entry).
//!   Histogram shards merge exactly, so per-PE histograms sum to the
//!   machine-wide one;
//! * **queue-depth high-watermarks** — the deepest runnable backlog
//!   each PE ever saw;
//! * a **flight recorder** — a small per-PE ring of the most recent
//!   structured events ([`TraceEvent`]), cheap enough to leave on in
//!   every run, dumped when something goes wrong (`ck_desim` attaches
//!   it to oracle failures).
//!
//! ## Cost discipline
//!
//! Like tracing, recording is strictly passive: no messages, no charged
//! time, no scheduler perturbation. A metrics-on run is byte-identical
//! (end time, event count, packets, bytes, counters, result) to the
//! same run with metrics off — asserted by
//! `ck_apps/tests/metrics_invariants.rs` and re-checked in CI. With
//! metrics *not configured* each recording site is one `Option` test.
//!
//! ## Interval semantics
//!
//! A scheduling step that starts at `t` and charges `c` ns is split in
//! time order: dispatch overhead first (`[t, t+dispatch)`), then user
//! work (`[t+dispatch, t+dispatch+c)`), each clipped across interval
//! boundaries, so per-slice busy time is exact, not nearest-bucket.
//! Idle time is derived at render time as `width − busy`. The slice
//! width starts at [`MetricsConfig::slice_ns`] and doubles (coalescing
//! pairs) whenever a run needs more than
//! [`MetricsConfig::max_slices`] buckets; widths are always powers of
//! two, so per-PE slice sets re-bucket exactly to the coarsest common
//! width when drained — and the drained log itself respects the
//! `max_slices` budget over `[0, end_ns)`, whatever each PE saw.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use multicomputer::Pe;

use crate::envelope::SysMsg;
use crate::ids::{ChareKind, EpId};
use crate::trace::{EntryWhat, EventKind, MsgClass, RingLog, TraceEvent};

/// Metrics knobs, handed to
/// [`ProgramBuilder::metrics`](crate::program::ProgramBuilder::metrics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Initial interval width in nanoseconds, rounded up to a power of
    /// two (bucket lookup is a shift on the recording hot path).
    /// Doubles whenever the run outgrows `max_slices` buckets.
    pub slice_ns: u64,
    /// Maximum interval buckets retained per PE.
    pub max_slices: usize,
    /// Flight-recorder capacity: most recent events retained per PE.
    pub flight_cap: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            slice_ns: 1 << 14, // ~16 µs; a 4 ms run fits before doubling
            max_slices: 256,
            flight_cap: 64,
        }
    }
}

impl MetricsConfig {
    /// A config with the given initial interval width.
    pub fn with_slice_ns(slice_ns: u64) -> Self {
        MetricsConfig {
            slice_ns: slice_ns.max(1),
            ..MetricsConfig::default()
        }
    }
}

/// A log₂-bucketed streaming histogram over `u64` samples.
///
/// Bucket `b` covers `[2^b, 2^(b+1))`; bucket 0 additionally holds 0
/// (the same convention as `ck_trace`'s grain histogram). Shards merge
/// exactly: ingesting two sample streams separately and merging equals
/// ingesting their concatenation — the property the proptests in
/// `chare_kernel/tests/metrics_props.rs` pin down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; 64],
    /// Total samples ingested.
    pub count: u64,
    /// Sum of all samples (for exact means).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `v` lands in.
    pub fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// The half-open range bucket `b` covers. Bucket 0 is reported as
    /// `[0, 2)`; bucket 63 saturates at `u64::MAX`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        let lo = if b == 0 { 0 } else { 1u64 << b };
        let hi = if b >= 63 { u64::MAX } else { 1u64 << (b + 1) };
        (lo, hi)
    }

    /// Ingest one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another shard in. Exact: equivalent to having ingested the
    /// other shard's samples here.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied buckets as `(lo, hi, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let (lo, hi) = Self::bucket_bounds(b);
                (lo, hi, c)
            })
            .collect()
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty. Quantiles from a log₂ histogram
    /// are bucket-resolution estimates, biased at most one octave up.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(b).1;
            }
        }
        Self::bucket_bounds(63).1
    }
}

/// One interval bucket's worth of per-PE activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Slice {
    /// Charged user-handler nanoseconds.
    pub work_ns: u64,
    /// User-step dispatch overhead nanoseconds.
    pub dispatch_ns: u64,
    /// Control nanoseconds (control-step dispatch + charges, alarms).
    pub ctl_ns: u64,
    /// Kernel envelopes posted.
    pub msgs_sent: u64,
    /// Kernel envelopes received (after batch/frame unpacking).
    pub msgs_recv: u64,
    /// Wire bytes posted.
    pub bytes_sent: u64,
    /// Wire bytes received.
    pub bytes_recv: u64,
    /// Seeds the load balancer kept here.
    pub seeds_kept: u64,
    /// Seeds the load balancer forwarded away.
    pub seeds_forwarded: u64,
    /// Reliable-layer frame retransmissions.
    pub retransmits: u64,
}

impl Slice {
    /// Total busy nanoseconds attributed to this interval.
    pub fn busy_ns(&self) -> u64 {
        self.work_ns + self.dispatch_ns + self.ctl_ns
    }

    /// Fold another slice in (used when coalescing intervals).
    pub fn merge(&mut self, o: &Slice) {
        self.work_ns += o.work_ns;
        self.dispatch_ns += o.dispatch_ns;
        self.ctl_ns += o.ctl_ns;
        self.msgs_sent += o.msgs_sent;
        self.msgs_recv += o.msgs_recv;
        self.bytes_sent += o.bytes_sent;
        self.bytes_recv += o.bytes_recv;
        self.seeds_kept += o.seeds_kept;
        self.seeds_forwarded += o.seeds_forwarded;
        self.retransmits += o.retransmits;
    }
}

/// Per-PE interval buckets with coalesce-and-double-width overflow.
///
/// Widths are always powers of two so the hot-path bucket lookup is a
/// shift, not a division — an integer division per recorded event is
/// measurable against the simulator's own per-event cost.
#[derive(Clone, Debug)]
pub struct TimeSlices {
    width_ns: u64,
    /// `width_ns == 1 << shift` (maintained by `coalesce`/`absorb`).
    shift: u32,
    cap: usize,
    slices: Vec<Slice>,
}

impl TimeSlices {
    /// Empty slices of initial width `width_ns` (rounded up to a power
    /// of two), at most `cap` buckets.
    pub fn new(width_ns: u64, cap: usize) -> Self {
        let width_ns = width_ns.max(1).next_power_of_two();
        TimeSlices {
            width_ns,
            shift: width_ns.trailing_zeros(),
            cap: cap.max(2),
            slices: Vec::new(),
        }
    }

    /// Current interval width (grows by doubling, never shrinks).
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// The populated buckets so far.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Halve the resolution: merge adjacent bucket pairs, double the
    /// width. Totals are conserved exactly.
    fn coalesce(&mut self) {
        let n = self.slices.len().div_ceil(2);
        for i in 0..n {
            let mut merged = self.slices[2 * i];
            if let Some(right) = self.slices.get(2 * i + 1) {
                merged.merge(right);
            }
            self.slices[i] = merged;
        }
        self.slices.truncate(n);
        self.width_ns *= 2;
        self.shift += 1;
    }

    /// Make the bucket containing instant `t` exist, coarsening first
    /// if it would land beyond the bucket budget.
    fn ensure(&mut self, t: u64) -> usize {
        while (t >> self.shift) >= self.cap as u64 {
            self.coalesce();
        }
        let idx = (t >> self.shift) as usize;
        if idx >= self.slices.len() {
            self.slices.resize(idx + 1, Slice::default());
        }
        idx
    }

    /// Mutate the bucket containing instant `t`.
    pub fn bump(&mut self, t: u64, apply: impl FnOnce(&mut Slice)) {
        let idx = self.ensure(t);
        apply(&mut self.slices[idx]);
    }

    /// Attribute a `[start, start+dur)` span, clipped exactly across
    /// interval boundaries; `apply` receives each bucket's share.
    pub fn add_span(&mut self, start: u64, dur: u64, apply: impl Fn(&mut Slice, u64)) {
        if dur == 0 {
            return;
        }
        let end = start.saturating_add(dur);
        self.ensure(end - 1);
        let mut t = start;
        while t < end {
            let idx = (t >> self.shift) as usize;
            let slice_end = (idx as u64 + 1) << self.shift;
            let take = end.min(slice_end) - t;
            apply(&mut self.slices[idx], take);
            t += take;
        }
    }

    /// Fold another slice set in, re-bucketing both sides to the
    /// coarser of the two widths first (exact because widths nest).
    fn absorb(&mut self, other: &TimeSlices) {
        let w = self.width_ns.max(other.width_ns);
        if w > self.width_ns {
            self.slices = self.rebucket_to(w);
            self.width_ns = w;
            self.shift = w.trailing_zeros();
        }
        let os = other.rebucket_to(w);
        if self.slices.len() < os.len() {
            self.slices.resize(os.len(), Slice::default());
        }
        for (a, b) in self.slices.iter_mut().zip(os.iter()) {
            a.merge(b);
        }
    }

    /// Re-bucket to a coarser width (`target` must be `width · 2^k`;
    /// exact because widths nest).
    fn rebucket_to(&self, target: u64) -> Vec<Slice> {
        debug_assert!(target >= self.width_ns && target.is_multiple_of(self.width_ns));
        let ratio = (target / self.width_ns) as usize;
        let n = self.slices.len().div_ceil(ratio.max(1));
        let mut out = vec![Slice::default(); n];
        for (i, s) in self.slices.iter().enumerate() {
            out[i / ratio].merge(s);
        }
        out
    }
}

/// Everything one PE accumulated. Lives inside that PE's
/// [`PeMetrics`] handle (lock-free) while the node runs, and is
/// flushed into the sink's slot exactly once when the handle drops.
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

    /// Fold another PE-state in. Only reached if `recorder_for` was
    /// called more than once for a PE — the kernel builds one node
    /// (one recorder) per PE, so in practice the sink slot is empty
    /// when a recorder flushes. Exact for slices, histograms and the
    /// watermark; flight events are re-pushed through the ring (the
    /// other ring's overwrite count is not carried over).
    fn absorb(&mut self, mut other: PeState) {
        self.slices.absorb(&other.slices);
        self.latency.merge(&other.latency);
        self.grain.merge(&other.grain);
        self.queue_hwm = self.queue_hwm.max(other.queue_hwm);
        let (events, _) = other.flight.drain();
        for ev in events {
            self.flight.push(ev);
        }
    }
}

/// Per-run collection point: one state block per PE. Created by
/// [`Program::run_sim`](crate::program::Program::run_sim) when metrics
/// are configured; each node records through its own [`PeMetrics`].
pub struct MetricsSink {
    cfg: MetricsConfig,
    /// User-step dispatch overhead of the hosting machine's cost model
    /// (0 on the thread backend). The node cannot see the machine's
    /// cost model, so the per-step split into dispatch vs. work is
    /// parameterized here, matching `ck_trace`'s attribution.
    dispatch_ns: u64,
    /// Control-step dispatch overhead, ditto.
    ctl_dispatch_ns: u64,
    /// One flush slot per PE, filled when that PE's [`PeMetrics`]
    /// handle drops. The mutex is touched once per run per PE, never
    /// on the recording hot path.
    state: Vec<Mutex<Option<PeState>>>,
}

impl MetricsSink {
    /// A sink for `npes` PEs on a machine with the given dispatch
    /// overheads.
    pub fn shared(npes: usize, cfg: MetricsConfig, dispatch_ns: u64, ctl_dispatch_ns: u64) -> Arc<Self> {
        Arc::new(MetricsSink {
            cfg,
            dispatch_ns,
            ctl_dispatch_ns,
            state: (0..npes).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The recording handle for one PE. The handle accumulates
    /// lock-free and flushes into this sink's slot when dropped — drop
    /// all recorders before calling [`MetricsSink::drain`].
    pub fn recorder_for(self: &Arc<Self>, pe: Pe) -> PeMetrics {
        PeMetrics {
            pe,
            st: RefCell::new(PeState::new(&self.cfg)),
            sink: Arc::clone(self),
        }
    }

    /// Collect everything recorded into a snapshot, re-bucketing all
    /// PEs to the coarsest common interval width. `end_ns` is the
    /// run's end time (needed to derive idle time per interval).
    pub fn drain(&self, end_ns: u64) -> MetricsLog {
        let mut width = self
            .state
            .iter()
            .map(|m| {
                m.lock()
                    .expect("metrics lock")
                    .as_ref()
                    .map_or(self.cfg.slice_ns, |st| st.slices.width_ns())
            })
            .max()
            .unwrap_or(self.cfg.slice_ns)
            .max(1)
            .next_power_of_two();
        // A PE coarsens only up to its *own* last event; a mostly-idle
        // PE can leave the common width far finer than the run is
        // long. Enforce the bucket budget over the whole run so the
        // drained log is O(PEs × max_slices) no matter what.
        let budget = self.cfg.max_slices.max(2) as u64;
        while end_ns.div_ceil(width) > budget {
            width *= 2;
        }
        let nslices = (end_ns.div_ceil(width) as usize).max(1);
        let per_pe = self
            .state
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let pe = Pe(i as u32);
                // Take the state out of the slot rather than cloning:
                // drain is terminal for a run, and the histograms and
                // flight ring move for free.
                match m.lock().expect("metrics lock").take() {
                    None => {
                        // No recorder flushed for this PE (or none was
                        // ever created): an all-idle metric set, still
                        // padded so every PE has `nslices` intervals.
                        let mut set = PeMetricSet::empty(pe);
                        set.slices = vec![Slice::default(); nslices];
                        set
                    }
                    Some(mut st) => {
                        let mut slices = st.slices.rebucket_to(width);
                        slices.resize(nslices, Slice::default());
                        let (flight, flight_dropped) = st.flight.drain();
                        PeMetricSet {
                            pe,
                            slices,
                            latency: st.latency,
                            grain: st.grain,
                            queue_hwm: st.queue_hwm,
                            flight,
                            flight_dropped,
                        }
                    }
                }
            })
            .collect();
        MetricsLog {
            npes: self.state.len(),
            end_ns,
            slice_ns: width,
            per_pe,
        }
    }
}

/// One PE's recording handle. Recording is plain arithmetic on state
/// owned by this handle (a `RefCell`, no lock) — no messages, no
/// simulated cost, and at ~100 ns per `Mutex` round-trip against
/// simulator events costing about the same, no per-event locking
/// either: the accumulated state is flushed into the sink exactly
/// once, when the handle drops. Deliberately not `Clone` — a second
/// handle would split the accumulation and double-flush.
pub struct PeMetrics {
    pe: Pe,
    st: RefCell<PeState>,
    sink: Arc<MetricsSink>,
}

impl Drop for PeMetrics {
    fn drop(&mut self) {
        let st = std::mem::replace(self.st.get_mut(), PeState::new(&self.sink.cfg));
        let mut slot = self.sink.state[self.pe.index()].lock().expect("metrics lock");
        match slot.as_mut() {
            None => *slot = Some(st),
            Some(cur) => cur.absorb(st),
        }
    }
}

impl PeMetrics {
    fn with(&self, f: impl FnOnce(&mut PeState)) {
        f(&mut self.st.borrow_mut());
    }

    fn flight(&self, st: &mut PeState, at_ns: u64, kind: EventKind) {
        st.flight.push(TraceEvent {
            at_ns,
            pe: self.pe,
            kind,
        });
    }

    /// A kernel envelope was posted.
    pub fn on_send(&self, at: u64, to: Pe, sys: &SysMsg, hops: u32) {
        let class = MsgClass::of(sys);
        let bytes = sys.wire_bytes();
        self.with(|st| {
            st.slices.bump(at, |s| {
                s.msgs_sent += 1;
                s.bytes_sent += bytes as u64;
            });
            self.flight(st, at, EventKind::MsgSend { to, class, bytes, hops });
        });
    }

    /// A kernel envelope arrived (after batch/frame unpacking);
    /// `sent_ns` is the machine-stamped send instant.
    pub fn on_recv(&self, at: u64, sent_ns: u64, from: Pe, class: MsgClass, bytes: u32) {
        self.with(|st| {
            st.slices.bump(at, |s| {
                s.msgs_recv += 1;
                s.bytes_recv += bytes as u64;
            });
            st.latency.record(at.saturating_sub(sent_ns));
            self.flight(st, at, EventKind::MsgRecv { from, class, bytes });
        });
    }

    /// An entry method ran, charging `grain_ns` of user work.
    pub fn on_entry(&self, at: u64, what: EntryWhat, ep: Option<EpId>, grain_ns: u64) {
        self.with(|st| {
            st.grain.record(grain_ns);
            self.flight(st, at, EventKind::EntryBegin { what, ep });
        });
    }

    /// A user scheduling step ran at `start`, charging `charged_ns`.
    /// Attributed dispatch-first, then work, clipped across intervals.
    pub fn on_user_step(&self, start: u64, charged_ns: u64) {
        let dispatch = self.sink.dispatch_ns;
        self.with(|st| {
            st.slices.add_span(start, dispatch, |s, ns| s.dispatch_ns += ns);
            st.slices
                .add_span(start + dispatch, charged_ns, |s, ns| s.work_ns += ns);
        });
    }

    /// A control scheduling step ran at `start`, charging `charged_ns`.
    pub fn on_ctl_step(&self, start: u64, charged_ns: u64) {
        let dur = self.sink.ctl_dispatch_ns + charged_ns;
        self.with(|st| {
            st.slices.add_span(start, dur, |s, ns| s.ctl_ns += ns);
        });
    }

    /// An alarm handler ran at `start`, charging `charged_ns` (the
    /// machine charges alarms no dispatch overhead).
    pub fn on_alarm(&self, start: u64, charged_ns: u64) {
        self.with(|st| {
            st.slices.add_span(start, charged_ns, |s, ns| s.ctl_ns += ns);
        });
    }

    /// The load balancer kept a seed here.
    pub fn on_seed_kept(&self, at: u64, kind: ChareKind, hops: u32) {
        self.with(|st| {
            st.slices.bump(at, |s| s.seeds_kept += 1);
            self.flight(st, at, EventKind::SeedKept { kind, hops });
        });
    }

    /// The load balancer forwarded a seed away.
    pub fn on_seed_forwarded(&self, at: u64, kind: ChareKind, to: Pe, hops: u32) {
        self.with(|st| {
            st.slices.bump(at, |s| s.seeds_forwarded += 1);
            self.flight(st, at, EventKind::SeedForwarded { kind, to, hops });
        });
    }

    /// The reliable layer re-homed a seed off an unresponsive PE.
    pub fn on_seed_redirected(&self, at: u64, to: Pe) {
        self.with(|st| {
            self.flight(st, at, EventKind::SeedRedirected { to });
        });
    }

    /// The reliable layer retransmitted a frame.
    pub fn on_retransmit(&self, at: u64, to: Pe, seq: u64) {
        self.with(|st| {
            st.slices.bump(at, |s| s.retransmits += 1);
            self.flight(st, at, EventKind::Retransmit { to, seq });
        });
    }

    /// The runnable backlog reached a new depth.
    pub fn on_queue_depth(&self, len: u64) {
        self.with(|st| {
            if len > st.queue_hwm {
                st.queue_hwm = len;
            }
        });
    }
}

/// One PE's drained metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct PeMetricSet {
    /// The recording PE.
    pub pe: Pe,
    /// Interval buckets at [`MetricsLog::slice_ns`] width, padded to
    /// cover `[0, end_ns)`.
    pub slices: Vec<Slice>,
    /// Message delivery latency (send → deliver), ns.
    pub latency: Histogram,
    /// Entry grain size (charged ns per entry execution).
    pub grain: Histogram,
    /// Deepest runnable backlog observed.
    pub queue_hwm: u64,
    /// Flight recorder: the most recent events, oldest first.
    pub flight: Vec<TraceEvent>,
    /// Flight-recorder events lost to ring overwrites.
    pub flight_dropped: u64,
}

impl PeMetricSet {
    /// An empty metric set (no intervals, nothing observed).
    pub fn empty(pe: Pe) -> Self {
        PeMetricSet {
            pe,
            slices: Vec::new(),
            latency: Histogram::new(),
            grain: Histogram::new(),
            queue_hwm: 0,
            flight: Vec::new(),
            flight_dropped: 0,
        }
    }
}

// ---- cross-process shard transport (procs backend) ---------------------
//
// Worker processes drain their own sink and ship the one populated
// `PeMetricSet` to the parent, which re-buckets every shard to the
// coarsest width and rebuilds a machine-wide `MetricsLog` — the same
// exact (power-of-two widths nest) merge `drain` performs in-process.

impl crate::wire::Wire for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        let nonzero: Vec<(u8, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as u8, c))
            .collect();
        nonzero.encode(out);
        self.count.encode(out);
        self.sum.encode(out);
        self.max.encode(out);
    }
    fn decode(r: &mut crate::wire::WireReader) -> Self {
        let nonzero = Vec::<(u8, u64)>::decode(r);
        let mut h = Histogram::new();
        for (b, c) in nonzero {
            h.counts[b as usize] = c;
        }
        h.count = u64::decode(r);
        h.sum = u64::decode(r);
        h.max = u64::decode(r);
        h
    }
}

impl crate::wire::Wire for Slice {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.work_ns,
            self.dispatch_ns,
            self.ctl_ns,
            self.msgs_sent,
            self.msgs_recv,
            self.bytes_sent,
            self.bytes_recv,
            self.seeds_kept,
            self.seeds_forwarded,
            self.retransmits,
        ] {
            v.encode(out);
        }
    }
    fn decode(r: &mut crate::wire::WireReader) -> Self {
        Slice {
            work_ns: u64::decode(r),
            dispatch_ns: u64::decode(r),
            ctl_ns: u64::decode(r),
            msgs_sent: u64::decode(r),
            msgs_recv: u64::decode(r),
            bytes_sent: u64::decode(r),
            bytes_recv: u64::decode(r),
            seeds_kept: u64::decode(r),
            seeds_forwarded: u64::decode(r),
            retransmits: u64::decode(r),
        }
    }
}

impl crate::wire::Wire for PeMetricSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pe.encode(out);
        self.slices.encode(out);
        self.latency.encode(out);
        self.grain.encode(out);
        self.queue_hwm.encode(out);
        self.flight.encode(out);
        self.flight_dropped.encode(out);
    }
    fn decode(r: &mut crate::wire::WireReader) -> Self {
        PeMetricSet {
            pe: Pe::decode(r),
            slices: Vec::<Slice>::decode(r),
            latency: Histogram::decode(r),
            grain: Histogram::decode(r),
            queue_hwm: u64::decode(r),
            flight: Vec::<TraceEvent>::decode(r),
            flight_dropped: u64::decode(r),
        }
    }
}

/// Re-bucket a drained slice vector from width `from` to the coarser
/// width `to` (both powers of two, so the merge is exact).
fn rebucket_slices(slices: &[Slice], from: u64, to: u64) -> Vec<Slice> {
    debug_assert!(to >= from && to.is_multiple_of(from));
    let ratio = (to / from).max(1) as usize;
    let n = slices.len().div_ceil(ratio);
    let mut out = vec![Slice::default(); n];
    for (i, s) in slices.iter().enumerate() {
        out[i / ratio].merge(s);
    }
    out
}

/// Rebuild a machine-wide [`MetricsLog`] from per-worker shards
/// (`(shard_slice_ns, set)` pairs, one per PE that reported), exactly as
/// [`MetricsSink::drain`] would have: all shards re-bucketed to the
/// coarsest common power-of-two width, the `max_slices` budget enforced
/// over `[0, end_ns)`, and missing PEs padded with all-idle sets.
pub(crate) fn merge_shards(
    cfg: MetricsConfig,
    npes: usize,
    end_ns: u64,
    shards: Vec<(u64, PeMetricSet)>,
) -> MetricsLog {
    let mut width = shards
        .iter()
        .map(|&(w, _)| w)
        .max()
        .unwrap_or(cfg.slice_ns)
        .max(1)
        .next_power_of_two();
    let budget = cfg.max_slices.max(2) as u64;
    while end_ns.div_ceil(width) > budget {
        width *= 2;
    }
    let nslices = (end_ns.div_ceil(width) as usize).max(1);
    let mut per_pe: Vec<PeMetricSet> = (0..npes)
        .map(|i| {
            let mut set = PeMetricSet::empty(Pe(i as u32));
            set.slices = vec![Slice::default(); nslices];
            set
        })
        .collect();
    for (w, set) in shards {
        let idx = set.pe.index();
        if idx >= npes {
            continue;
        }
        let mut slices = rebucket_slices(&set.slices, w.max(1).next_power_of_two(), width);
        slices.resize(nslices, Slice::default());
        per_pe[idx] = PeMetricSet { slices, ..set };
    }
    MetricsLog {
        npes,
        end_ns,
        slice_ns: width,
        per_pe,
    }
}

/// The final metrics snapshot of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsLog {
    /// Machine size.
    pub npes: usize,
    /// Run end time in nanoseconds.
    pub end_ns: u64,
    /// Common interval width all PEs were re-bucketed to.
    pub slice_ns: u64,
    /// One metric set per PE.
    pub per_pe: Vec<PeMetricSet>,
}

impl MetricsLog {
    /// Number of interval buckets covering the run.
    pub fn nslices(&self) -> usize {
        self.per_pe.first().map_or(0, |p| p.slices.len())
    }

    /// Machine-wide totals for interval `i`.
    pub fn slice_totals(&self, i: usize) -> Slice {
        let mut out = Slice::default();
        for p in &self.per_pe {
            if let Some(s) = p.slices.get(i) {
                out.merge(s);
            }
        }
        out
    }

    /// All PEs' latency histograms merged.
    pub fn latency_all(&self) -> Histogram {
        let mut h = Histogram::new();
        for p in &self.per_pe {
            h.merge(&p.latency);
        }
        h
    }

    /// All PEs' grain histograms merged.
    pub fn grain_all(&self) -> Histogram {
        let mut h = Histogram::new();
        for p in &self.per_pe {
            h.merge(&p.grain);
        }
        h
    }

    /// Deepest backlog any PE saw.
    pub fn queue_hwm_max(&self) -> u64 {
        self.per_pe.iter().map(|p| p.queue_hwm).max().unwrap_or(0)
    }

    /// Flight-recorder events lost to overwrites, summed over PEs.
    pub fn flight_dropped(&self) -> u64 {
        self.per_pe.iter().map(|p| p.flight_dropped).sum()
    }

    /// The machine-wide flight-recorder tail: the last `n` retained
    /// events across all PEs, time-ordered.
    pub fn flight_tail(&self, n: usize) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .per_pe
            .iter()
            .flat_map(|p| p.flight.iter().copied())
            .collect();
        all.sort_by_key(|e| (e.at_ns, e.pe.0));
        let skip = all.len().saturating_sub(n);
        all.split_off(skip)
    }
}

/// One flight-recorder event as a human-readable forensics line, e.g.
/// `  1.204ms PE 3  send chare 64B -> PE 5`.
pub fn flight_line(ev: &TraceEvent) -> String {
    let what = match ev.kind {
        EventKind::EntryBegin { what, ep } => match (what, ep) {
            (EntryWhat::Create(k), _) => format!("entry create:k{}", k.0),
            (EntryWhat::Chare(_), Some(ep)) => format!("entry chare:ep{}", ep.0),
            (EntryWhat::Chare(_), None) => "entry chare".to_string(),
            (EntryWhat::Branch(b), Some(ep)) => format!("entry boc{}:ep{}", b.0, ep.0),
            (EntryWhat::Branch(b), None) => format!("entry boc{}", b.0),
        },
        EventKind::EntryEnd { msgs_sent } => format!("entry end ({msgs_sent} msgs)"),
        EventKind::MsgSend {
            to, class, bytes, ..
        } => format!("send {} {}B -> PE {}", class.label(), bytes, to.index()),
        EventKind::MsgRecv { from, class, bytes } => {
            format!("recv {} {}B <- PE {}", class.label(), bytes, from.index())
        }
        EventKind::SeedKept { kind, hops } => format!("seed kept k{} h{}", kind.0, hops),
        EventKind::SeedForwarded { kind, to, hops } => {
            format!("seed k{} -> PE {} h{}", kind.0, to.index(), hops)
        }
        EventKind::SeedRedirected { to } => format!("seed redirect -> PE {}", to.index()),
        EventKind::Retransmit { to, seq } => {
            format!("retransmit #{} -> PE {}", seq, to.index())
        }
        EventKind::QueueSample { len } => format!("queue depth {len}"),
    };
    format!(
        "{:>10.3}ms PE {:<3} {}",
        ev.at_ns as f64 / 1e6,
        ev.pe.index(),
        what
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_convention_matches_ck_trace() {
        // Bucket b covers [2^b, 2^(b+1)); bucket 0 also holds 0.
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        let mut h = Histogram::new();
        for v in [0, 1, 5, 6, 7, 1024] {
            h.record(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets(), vec![(0, 2, 2), (4, 8, 3), (1024, 2048, 1)]);
    }

    #[test]
    fn histogram_merge_equals_bulk() {
        let samples = [0u64, 3, 9, 9, 100, 7_000_000, u64::MAX];
        let mut bulk = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in samples.iter().enumerate() {
            bulk.record(v);
            if i % 2 == 0 { a.record(v) } else { b.record(v) }
        }
        a.merge(&b);
        assert_eq!(a, bulk);
    }

    #[test]
    fn quantile_bound_is_monotone() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32] {
            h.record(v);
        }
        assert!(h.quantile_bound(0.1) <= h.quantile_bound(0.5));
        assert!(h.quantile_bound(0.5) <= h.quantile_bound(0.99));
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn slices_clip_spans_exactly() {
        let mut ts = TimeSlices::new(128, 64);
        // Span [50, 250): 78 ns in bucket [0,128), 122 in [128,256).
        ts.add_span(50, 200, |s, ns| s.work_ns += ns);
        let got: Vec<u64> = ts.slices().iter().map(|s| s.work_ns).collect();
        assert_eq!(got, vec![78, 122]);
    }

    #[test]
    fn slices_round_width_up_to_a_power_of_two() {
        let ts = TimeSlices::new(100, 64);
        assert_eq!(ts.width_ns(), 128);
        assert_eq!(TimeSlices::new(1, 64).width_ns(), 1);
    }

    #[test]
    fn slices_coalesce_conserves_totals() {
        let mut ts = TimeSlices::new(16, 4);
        for t in 0..100 {
            ts.bump(t * 10, |s| s.msgs_sent += 1);
            ts.add_span(t * 10, 7, |s, ns| s.work_ns += ns);
        }
        // ~62 initial buckets forced into 4: width grew by doubling
        // (still a power of two) and totals are exact.
        assert!(ts.slices().len() <= 4);
        assert!(ts.width_ns().is_power_of_two());
        assert!(ts.width_ns() > 16);
        let msgs: u64 = ts.slices().iter().map(|s| s.msgs_sent).sum();
        let work: u64 = ts.slices().iter().map(|s| s.work_ns).sum();
        assert_eq!(msgs, 100);
        assert_eq!(work, 700);
    }

    #[test]
    fn drain_rebuckets_pes_to_common_width() {
        let cfg = MetricsConfig {
            slice_ns: 10,
            max_slices: 4,
            flight_cap: 8,
        };
        let sink = MetricsSink::shared(2, cfg, 5, 1);
        let m0 = sink.recorder_for(Pe(0));
        let m1 = sink.recorder_for(Pe(1));
        // PE1 records far in the future, forcing its width to grow;
        // PE0 stays fine-grained until drain.
        m0.on_user_step(0, 10);
        m1.on_user_step(395, 5);
        drop((m0, m1)); // flush into the sink
        let log = sink.drain(400);
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
        let sink = MetricsSink::shared(1, cfg, 0, 0);
        let m = sink.recorder_for(Pe(0));
        for i in 0..10u64 {
            m.on_retransmit(i, Pe(0), i);
        }
        drop(m);
        let log = sink.drain(10);
        assert_eq!(log.per_pe[0].flight.len(), 4);
        assert_eq!(log.per_pe[0].flight_dropped, 6);
        let tail = log.flight_tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].at_ns, 9);
        assert_eq!(log.flight_dropped(), 6);
    }

    #[test]
    fn queue_hwm_tracks_maximum() {
        let sink = MetricsSink::shared(1, MetricsConfig::default(), 0, 0);
        let m = sink.recorder_for(Pe(0));
        m.on_queue_depth(3);
        m.on_queue_depth(7);
        m.on_queue_depth(5);
        drop(m);
        assert_eq!(sink.drain(1).queue_hwm_max(), 7);
    }
}
