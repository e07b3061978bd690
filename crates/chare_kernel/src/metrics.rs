//! Streaming kernel metrics — bounded-memory telemetry for every run.
//!
//! The [`trace`](crate::trace) module retains an *event log* and defers
//! analysis to post-mortem tooling; that cannot survive the planned
//! 100× machine scale-up, where even per-PE ring buffers of raw events
//! are too much state to keep or to ship. The metrics side of a PE's
//! [`probe`](crate::probe) folds the same events *online* into
//! aggregates that take O(PEs × buckets) memory independent of run
//! length; this module owns their data model, the exact shard merge
//! and the drained [`MetricsLog`]:
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
//! * a **flight recorder** — the last [`FLIGHT_CAP`] structured events
//!   ([`TraceEvent`]) of each PE, the tail of the one ring its probe
//!   records into, cheap enough to leave on in every run, dumped when
//!   something goes wrong (`ck_desim` attaches it to oracle failures).
//!
//! ## Interval semantics
//!
//! A scheduling step that starts at `t` and charges `c` ns is split in
//! time order: dispatch overhead first (`[t, t+dispatch)`), then user
//! work (`[t+dispatch, t+dispatch+c)`), each clipped across interval
//! boundaries, so per-slice busy time is exact, not nearest-bucket.
//! Idle time is derived at render time as `width − busy`. The slice
//! width starts at [`SLICE_NS`] and doubles (coalescing pairs) whenever
//! a run needs more than [`MAX_SLICES`] buckets; widths are always
//! powers of two, so per-PE slice sets re-bucket exactly to the
//! coarsest common width when drained — and the drained log itself
//! respects the `MAX_SLICES` budget over `[0, end_ns)`, whatever each
//! PE saw.

use multicomputer::Pe;

use crate::trace::{entry_label, EventKind, TraceEvent};

/// Turns streaming metrics on, handed to
/// [`ProgramBuilder::metrics`](crate::program::ProgramBuilder::metrics).
/// A marker: the sizes are [`SLICE_NS`], [`MAX_SLICES`] and
/// [`FLIGHT_CAP`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsConfig;

/// First interval width in nanoseconds (~16 µs: a 4 ms run fits before
/// doubling). A power of two, so bucket lookup is a shift on the
/// recording hot path.
pub const SLICE_NS: u64 = 1 << 14;

/// Most interval buckets a PE keeps, and a drained log holds per PE.
pub const MAX_SLICES: usize = 256;

/// Flight-recorder length: the most recent events kept per PE.
pub const FLIGHT_CAP: usize = 64;

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
    /// other shard's samples here, until a count saturates at
    /// `u64::MAX` (a worker process's shard may claim anything).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
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
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
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
    /// User-step nanoseconds (charged on the simulator, wall on the
    /// real backends).
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
        self.work_ns.saturating_add(self.dispatch_ns).saturating_add(self.ctl_ns)
    }

    /// Fold another slice in (coalescing intervals, summing PEs); each
    /// field saturates at `u64::MAX`.
    pub fn merge(&mut self, o: &Slice) {
        self.work_ns = self.work_ns.saturating_add(o.work_ns);
        self.dispatch_ns = self.dispatch_ns.saturating_add(o.dispatch_ns);
        self.ctl_ns = self.ctl_ns.saturating_add(o.ctl_ns);
        self.msgs_sent = self.msgs_sent.saturating_add(o.msgs_sent);
        self.msgs_recv = self.msgs_recv.saturating_add(o.msgs_recv);
        self.bytes_sent = self.bytes_sent.saturating_add(o.bytes_sent);
        self.bytes_recv = self.bytes_recv.saturating_add(o.bytes_recv);
        self.seeds_kept = self.seeds_kept.saturating_add(o.seeds_kept);
        self.seeds_forwarded = self.seeds_forwarded.saturating_add(o.seeds_forwarded);
        self.retransmits = self.retransmits.saturating_add(o.retransmits);
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
    /// `width_ns == 1 << shift` (maintained by `coalesce`).
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
}

/// One PE's drained metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct PeMetricSet {
    /// The recording PE.
    pub pe: Pe,
    /// Interval buckets at [`MetricsLog::width_ns`] width, padded to
    /// cover `[0, end_ns)`.
    pub slices: Vec<Slice>,
    /// Message delivery latency (send → deliver), ns.
    pub latency: Histogram,
    /// Entry grain size (ns per entry execution: charged on the
    /// simulator, wall on the real backends).
    pub grain: Histogram,
    /// Deepest runnable backlog observed.
    pub queue_hwm: u64,
    /// Flight recorder: the last [`FLIGHT_CAP`] events, oldest first.
    pub flight: Vec<TraceEvent>,
    /// Events recorded before the flight recorder's first: overwritten
    /// in the ring, or older than its tail.
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
// A worker process ships its node's shard, `PeMetricSet` included, to
// the parent, which hands every shard to the one merge (`probe::merge`):
// re-bucketed to the coarsest width into a machine-wide `MetricsLog` by
// the same exact (power-of-two widths nest) `merge_shards` a sim or
// threads run's merge runs over the nodes its machine handed back.

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
            match h.counts.get_mut(b as usize) {
                Some(slot) => *slot = c,
                None => r.fail("a histogram bucket below 64"),
            }
        }
        h.count = u64::decode(r);
        h.sum = u64::decode(r);
        h.max = u64::decode(r);
        h
    }
}

crate::wire_struct!(Slice { work_ns, dispatch_ns, ctl_ns, msgs_sent, msgs_recv, bytes_sent,
    bytes_recv, seeds_kept, seeds_forwarded, retransmits });
crate::wire_struct!(PeMetricSet { pe, slices, latency, grain, queue_hwm, flight, flight_dropped });

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

/// Build the machine-wide [`MetricsLog`] from per-PE shards, one per PE
/// in PE order (`(shard_width_ns, set)`, or `None` for a PE that sent
/// none — in-process probes and worker processes alike): each set filed
/// under the PE whose shard it is, whatever PE it names, all re-bucketed
/// to the coarsest common power-of-two width, the [`MAX_SLICES`] budget
/// enforced over `[0, end_ns)`, and missing PEs padded with all-idle
/// sets.
pub(crate) fn merge_shards(end_ns: u64, shards: Vec<Option<(u64, PeMetricSet)>>) -> MetricsLog {
    let mut width = shards
        .iter()
        .flatten()
        .map(|&(w, _)| w)
        .max()
        .unwrap_or(SLICE_NS)
        .max(1)
        .checked_next_power_of_two()
        .unwrap_or(1 << 63);
    // A PE coarsens only up to its *own* last event; a mostly-idle PE
    // can leave the common width far finer than the run is long.
    // Enforce the bucket budget over the whole run so the drained log
    // is O(PEs × MAX_SLICES) no matter what.
    while end_ns.div_ceil(width) > MAX_SLICES as u64 {
        width *= 2;
    }
    let nslices = (end_ns.div_ceil(width) as usize).max(1);
    let per_pe: Vec<PeMetricSet> = shards
        .into_iter()
        .zip(0..)
        .map(|(shard, i)| {
            let (w, set) = shard.unwrap_or_else(|| (width, PeMetricSet::empty(Pe(i))));
            // `width` is a power of two no smaller than any shard's `w`.
            let from = w.max(1).checked_next_power_of_two().unwrap_or(width);
            let mut slices = rebucket_slices(&set.slices, from, width);
            slices.resize(nslices, Slice::default());
            PeMetricSet { pe: Pe(i), slices, ..set }
        })
        .collect();
    MetricsLog {
        npes: per_pe.len(),
        end_ns,
        width_ns: width,
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
    pub width_ns: u64,
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

    /// Events older than the flight recorders, summed over PEs
    /// (saturating).
    pub fn flight_dropped(&self) -> u64 {
        self.per_pe.iter().fold(0, |n, p| n.saturating_add(p.flight_dropped))
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
        EventKind::EntryBegin { what, ep } => format!("entry {}", entry_label(what, ep)),
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
}
