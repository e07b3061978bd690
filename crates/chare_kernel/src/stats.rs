//! Kernel event counters, exported through the machine's run report.
//!
//! These are the quantities the paper's Table 1 characterizes per
//! benchmark (chares created, messages processed) plus the balancing and
//! shared-variable traffic the strategy experiments analyze.

use multicomputer::NodeStats;

/// Declares [`KernelCounters`] once: the struct, the canonical
/// [`KernelCounters::NAMES`] list, [`KernelCounters::to_node_stats`] and
/// the codec a procs worker ships them to its parent with are all
/// generated from the same field list, so adding a counter can never
/// leave the exported report (or a test's expected count) stale.
macro_rules! kernel_counters {
    ($( $(#[$meta:meta])* $name:ident ),+ $(,)?) => {
        /// Per-PE kernel counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct KernelCounters {
            $( $(#[$meta])* pub $name: u64, )+
        }

        impl KernelCounters {
            /// Every counter name, in export order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Flatten into the machine layer's name/value report.
            pub fn to_node_stats(&self) -> NodeStats {
                let mut s = NodeStats::new();
                $( s.push(stringify!($name), self.$name); )+
                s
            }
        }

        crate::wire_struct!(KernelCounters { $($name),+ });
    };
}

kernel_counters! {
    /// User messages sent (seeds, chare/branch messages, shared-variable
    /// operations) — the quiescence-detection "sent" counter.
    user_sent,
    /// User messages received — the quiescence-detection "recv" counter.
    user_recv,
    /// Chares constructed on this PE.
    chares_created,
    /// Entry-method executions (including constructions).
    entries_executed,
    /// Messages addressed to chares that no longer exist.
    dead_letters,
    /// Seeds this PE's balancer forwarded elsewhere.
    seeds_forwarded,
    /// Seeds this PE kept and enqueued.
    seeds_kept,
    /// Work requests sent while idle (token strategy).
    work_reqs,
    /// Work requests answered with a seed.
    work_grants,
    /// Work requests answered with a NACK.
    work_nacks,
    /// Monotonic-variable improvement broadcasts originated here.
    mono_broadcasts,
    /// Monotonic updates applied (local improvements from any source).
    mono_applied,
    /// Distributed-table operations served by this PE's shard.
    table_ops,
    /// Accumulator collects initiated from this PE.
    acc_collects,
    /// Load reports sent.
    load_reports,
    /// Quiescence-detection waves answered.
    qd_replies,
    /// High-water mark of the runnable backlog (queue + seed pool) —
    /// the per-PE memory pressure the paper's queueing discussion cares
    /// about.
    queue_hwm,
    /// Reliable frames retransmitted after an ack timeout.
    retransmits,
    /// Duplicate reliable frames discarded by the receiver.
    dup_dropped,
    /// Ack messages sent (each may cover several frames).
    acks_sent,
    /// Seeds re-dispatched to a different PE after exhausting their
    /// retry budget against an unresponsive destination.
    seeds_redirected,
    /// Chare creations *requested* on this PE (`Ctx::create`/`create_on`
    /// plus the main chare at boot) — the origination side of the
    /// exactly-once seed ledger. Forwarding, work-stealing grants and
    /// reliable-layer redirects move a seed without re-counting it, so
    /// across a whole run `Σ seeds_spawned` must equal `Σ chares_created`
    /// once every queue drains: a shortfall is a lost seed, an excess a
    /// duplicated construction. The desim campaign's seed-accounting
    /// oracle checks exactly that.
    seeds_spawned,
    /// Quiescence declarations issued by this PE's QD coordinator
    /// (only ever nonzero on PE 0).
    qd_declares,
    /// Runnable user backlog (queue + seed pool) left when the run
    /// ended — snapshot taken at stats collection, not a running count.
    /// Nonzero after a clean exit means work was legitimately abandoned
    /// (e.g. pruned search seeds); the seed-accounting oracle only
    /// demands ledger equality when this is zero everywhere.
    backlog_end,
    /// Reliable frames still carrying *counted* user traffic,
    /// unacknowledged at run end (snapshot, like `backlog_end`).
    rel_inflight_end,
    /// Arrivals still parked behind a sequence gap in a reorder buffer
    /// at run end (snapshot). Under quiescence-based termination this
    /// must be zero: QD declaring over a parked user message is exactly
    /// the unsoundness the desim quiescence oracle hunts.
    rel_reorder_end,
    /// Reliable frames of any kind, control frames included,
    /// unacknowledged at run end (snapshot). Zero everywhere means no
    /// link has an open sequence gap, so `rel_reorder_end` must be zero
    /// too; `rel_inflight_end` cannot say that, because the frame a
    /// buffer waits on may be an uncounted one (a load report, a QD
    /// poll) while everything parked behind it is already acked.
    rel_unacked_end,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn exports_all_counters() {
        let c = KernelCounters {
            user_sent: 3,
            chares_created: 2,
            ..Default::default()
        };
        let s = c.to_node_stats();
        assert_eq!(s.get("user_sent"), Some(3));
        assert_eq!(s.get("chares_created"), Some(2));
        assert_eq!(s.get("dead_letters"), Some(0));
        // Derived from the struct itself, so adding a counter cannot
        // silently break this.
        assert_eq!(s.counters.len(), KernelCounters::NAMES.len());
    }

    #[test]
    fn names_match_export_order_and_are_unique() {
        let s = KernelCounters::default().to_node_stats();
        let exported: Vec<&str> = s.counters.iter().map(|&(n, _)| n).collect();
        assert_eq!(exported, KernelCounters::NAMES);
        let unique: HashSet<&str> = KernelCounters::NAMES.iter().copied().collect();
        assert_eq!(unique.len(), KernelCounters::NAMES.len());
    }
}
