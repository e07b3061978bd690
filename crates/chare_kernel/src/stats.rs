//! Kernel event counters: what each PE's node counted, handed back in
//! its probe shard when the run ends (see [`crate::probe`]).
//!
//! These are the quantities the paper's Table 1 characterizes per
//! benchmark (chares created, messages processed) plus the balancing and
//! shared-variable traffic the strategy experiments analyze.

/// Declares [`KernelCounters`] once: the struct, the canonical
/// [`KernelCounters::NAMES`] list, the by-name read
/// [`KernelCounters::get`], the field-wise sum [`KernelCounters::total`]
/// and the codec a procs worker ships them to its parent with are all
/// generated from the same field list, so adding a counter can never
/// leave one of them (or a test's expected count) stale.
macro_rules! kernel_counters {
    ($( $(#[$meta:meta])* $name:ident ),+ $(,)?) => {
        /// Per-PE kernel counters.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct KernelCounters {
            $( $(#[$meta])* pub $name: u64, )+
        }

        impl KernelCounters {
            /// Every counter name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// The counter called `name`.
            ///
            /// # Panics
            ///
            /// If no counter has that name: a misspelt name is a bug in
            /// the caller, not a counter that stayed at 0.
            pub fn get(&self, name: &str) -> u64 {
                match name {
                    $( stringify!($name) => self.$name, )+
                    _ => panic!("no kernel counter named {name:?}"),
                }
            }

            /// Field-wise sum of `per_pe`, saturating: a sum past
            /// `u64::MAX`, which only a corrupt or hostile report reaches,
            /// reads `u64::MAX` instead of wrapping or panicking.
            pub fn total<'a>(per_pe: impl IntoIterator<Item = &'a KernelCounters>) -> Self {
                let mut sum = KernelCounters::default();
                for c in per_pe {
                    $( sum.$name = sum.$name.saturating_add(c.$name); )+
                }
                sum
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
    /// ended — snapshot taken as the node becomes its shard, not a
    /// running count.
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
    use crate::wire::{Wire, WireReader};
    use std::collections::HashSet;

    #[test]
    fn exports_all_counters() {
        let c = KernelCounters {
            user_sent: 3,
            chares_created: 2,
            ..Default::default()
        };
        assert_eq!(c.get("user_sent"), 3);
        assert_eq!(c.get("chares_created"), 2);
        assert_eq!(c.get("dead_letters"), 0);
        // Derived from the struct itself, so adding a counter cannot
        // silently break this: counters numbered 1..=n in declaration
        // order (the codec's order) read back by name.
        let n = KernelCounters::NAMES.len() as u64;
        let bytes: Vec<u8> = (1..=n).flat_map(u64::to_le_bytes).collect();
        let numbered = KernelCounters::decode(&mut WireReader::new(&bytes));
        for (i, name) in KernelCounters::NAMES.iter().enumerate() {
            assert_eq!(numbered.get(name), i as u64 + 1, "{name}");
        }
    }

    #[test]
    fn names_match_export_order_and_are_unique() {
        let unique: HashSet<&str> = KernelCounters::NAMES.iter().copied().collect();
        assert_eq!(unique.len(), KernelCounters::NAMES.len());
        assert_eq!(KernelCounters::NAMES[0], "user_sent");
        assert_eq!(KernelCounters::NAMES.last(), Some(&"rel_unacked_end"));
    }

    #[test]
    fn total_sums_field_by_field_and_saturates() {
        let a = KernelCounters { user_sent: u64::MAX, user_recv: 2, ..Default::default() };
        let b = KernelCounters { user_sent: 1, user_recv: 3, qd_declares: 1, ..Default::default() };
        let want = KernelCounters { user_sent: u64::MAX, user_recv: 5, qd_declares: 1, ..b };
        assert_eq!(KernelCounters::total(&[a, b]), want);
        assert_eq!(KernelCounters::total(&[]), KernelCounters::default());
    }
}
