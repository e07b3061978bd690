//! Pluggable per-PE scheduling queues.
//!
//! The kernel's scheduler repeatedly picks the next message to execute
//! from a queue whose *strategy* is chosen per program. The paper's
//! experiments compare four strategies and show that for speculative
//! search the choice changes the amount of work performed by orders of
//! magnitude — LIFO approximates sequential depth-first search, FIFO
//! floods memory breadth-first, and priority queues steer all PEs toward
//! the globally most promising work.
//!
//! Ties (equal priority) are always broken FIFO using a push sequence
//! number, making every strategy a total, deterministic order — a
//! prerequisite for the simulator's reproducibility.
//!
//! Like the C kernel — whose scheduler kept constant-time bucketed
//! queues because a `log n` heap operation per message *is* measurable
//! kernel overhead — the two priority disciplines here front a bucket
//! array with an occupancy bitmap: [`IntPrioQueue`] buckets a window of
//! integer keys (O(1) push/pop, intrusive FIFO per bucket),
//! [`BitPrioQueue`] radix-buckets bitvector keys on their first byte.
//! The original single-`BinaryHeap` implementations survive in
//! `tests/queue_props.rs` as the reference order the property tests
//! check the bucketed queues against, pop-for-pop.

use crate::priority::{BitPrio, Priority};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Which queue discipline the scheduler uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueingStrategy {
    /// First in, first out (the kernel's default).
    Fifo,
    /// Last in, first out — approximates depth-first traversal.
    Lifo,
    /// Integer priorities, smaller = more urgent; FIFO among equals.
    IntPriority,
    /// Bitvector priorities, lexicographically smaller = more urgent;
    /// FIFO among equals.
    BitvecPriority,
}

impl QueueingStrategy {
    /// Build an empty queue with this discipline.
    pub fn make<T: Send + 'static>(self) -> Box<dyn SchedQueue<T>> {
        match self {
            QueueingStrategy::Fifo => Box::new(FifoQueue::default()),
            QueueingStrategy::Lifo => Box::new(LifoQueue::default()),
            QueueingStrategy::IntPriority => Box::new(IntPrioQueue::default()),
            QueueingStrategy::BitvecPriority => Box::new(BitPrioQueue::default()),
        }
    }

    /// All strategies, for sweep experiments.
    pub const ALL: [QueueingStrategy; 4] = [
        QueueingStrategy::Fifo,
        QueueingStrategy::Lifo,
        QueueingStrategy::IntPriority,
        QueueingStrategy::BitvecPriority,
    ];

    /// Short stable name for tables.
    pub fn name(self) -> &'static str {
        match self {
            QueueingStrategy::Fifo => "fifo",
            QueueingStrategy::Lifo => "lifo",
            QueueingStrategy::IntPriority => "int-prio",
            QueueingStrategy::BitvecPriority => "bitvec-prio",
        }
    }
}

/// The spec-string spelling (`q=` in `ck_apps::spec`): `fifo`, `lifo`,
/// `int`, `bitvec`. [`QueueingStrategy::name`] is the table-cell form.
impl std::fmt::Display for QueueingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueueingStrategy::Fifo => "fifo",
            QueueingStrategy::Lifo => "lifo",
            QueueingStrategy::IntPriority => "int",
            QueueingStrategy::BitvecPriority => "bitvec",
        })
    }
}

impl std::str::FromStr for QueueingStrategy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        QueueingStrategy::ALL
            .into_iter()
            .find(|q| q.to_string() == s)
            .ok_or_else(|| format!("unknown queueing '{s}'"))
    }
}

/// A scheduler queue: items enter with a [`Priority`], leave in strategy
/// order.
pub trait SchedQueue<T>: Send {
    /// Enqueue `item` with `prio`.
    fn push(&mut self, prio: Priority, item: T);
    /// Remove and return the next item in strategy order.
    fn pop(&mut self) -> Option<T>;
    /// Number of queued items.
    fn len(&self) -> usize;
    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FIFO queue; ignores priorities.
pub struct FifoQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for FifoQueue<T> {
    fn default() -> Self {
        FifoQueue {
            items: VecDeque::new(),
        }
    }
}

impl<T: Send> SchedQueue<T> for FifoQueue<T> {
    fn push(&mut self, _prio: Priority, item: T) {
        self.items.push_back(item);
    }
    fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }
    fn len(&self) -> usize {
        self.items.len()
    }
}

/// LIFO stack; ignores priorities.
pub struct LifoQueue<T> {
    items: Vec<T>,
}

impl<T> Default for LifoQueue<T> {
    fn default() -> Self {
        LifoQueue { items: Vec::new() }
    }
}

impl<T: Send> SchedQueue<T> for LifoQueue<T> {
    fn push(&mut self, _prio: Priority, item: T) {
        self.items.push(item);
    }
    fn pop(&mut self) -> Option<T> {
        self.items.pop()
    }
    fn len(&self) -> usize {
        self.items.len()
    }
}

struct IntEntry<T> {
    key: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for IntEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for IntEntry<T> {}
impl<T> PartialOrd for IntEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for IntEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest (key, seq) out
        // first, so reverse.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

/// Width of the integer queue's bucketed key window.
const INT_WINDOW: usize = 1024;
/// How far below the first key the window starts. Search keys (IDA*
/// bounds, branch-and-bound costs) mostly grow, so most of the window
/// sits above the first key.
const INT_HEADROOM: i128 = 128;

/// Integer-priority queue: smaller key pops first, FIFO among equals.
///
/// Bucketed bitmap design: a window of `INT_WINDOW` consecutive keys,
/// anchored near the first key pushed, maps each key to a FIFO bucket;
/// a bitmap word per 64 buckets finds the lowest occupied bucket in a
/// few `trailing_zeros`. Push and pop are O(1) for in-window keys —
/// the key ranges the paper's search applications actually generate —
/// and out-of-window keys spill to a reference heap. Both structures
/// pop the globally smallest `(key, seq)`: a key is in exactly one of
/// them (window membership is a function of the key), so comparing the
/// best of each side is a total, deterministic order identical to one
/// binary heap's.
///
/// Window arithmetic is done in `i128` so keys near `i64::MIN`/`MAX`
/// cannot overflow.
pub struct IntPrioQueue<T> {
    /// Key of bucket 0, fixed when the first key arrives.
    base: Option<i128>,
    /// FIFO per in-window key; allocated lazily, `INT_WINDOW` long.
    buckets: Vec<VecDeque<T>>,
    /// Occupancy bit per bucket.
    bitmap: [u64; INT_WINDOW / 64],
    /// Out-of-window spill, still ordered by `(key, seq)`.
    overflow: BinaryHeap<IntEntry<T>>,
    /// Push sequence shared by both sides (FIFO among equals).
    seq: u64,
    len: usize,
}

impl<T> Default for IntPrioQueue<T> {
    fn default() -> Self {
        IntPrioQueue {
            base: None,
            buckets: Vec::new(),
            bitmap: [0; INT_WINDOW / 64],
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }
}

impl<T> IntPrioQueue<T> {
    /// Index of the lowest occupied bucket, if any.
    fn min_bucket(&self) -> Option<usize> {
        self.bitmap
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }
}

impl<T: Send> SchedQueue<T> for IntPrioQueue<T> {
    fn push(&mut self, prio: Priority, item: T) {
        let key = prio.int_key() as i128;
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let base = *self.base.get_or_insert_with(|| {
            debug_assert!(self.buckets.is_empty());
            key - INT_HEADROOM
        });
        let idx = key - base;
        if (0..INT_WINDOW as i128).contains(&idx) {
            let idx = idx as usize;
            if self.buckets.is_empty() {
                self.buckets.resize_with(INT_WINDOW, VecDeque::new);
            }
            self.buckets[idx].push_back(item);
            self.bitmap[idx / 64] |= 1 << (idx % 64);
        } else {
            self.overflow.push(IntEntry {
                key: key as i64,
                seq,
                item,
            });
        }
    }

    fn pop(&mut self) -> Option<T> {
        let bucket = self.min_bucket();
        // A key lives on exactly one side, so when both sides are
        // occupied the smaller key wins outright (never a tie).
        let from_bucket = match (bucket, self.overflow.peek()) {
            (Some(b), Some(top)) => {
                self.base.expect("bucket occupied implies base") + (b as i128) < top.key as i128
            }
            (Some(_), None) => true,
            (None, _) => false,
        };
        let popped = if from_bucket {
            let b = bucket.expect("checked above");
            let item = self.buckets[b].pop_front();
            if self.buckets[b].is_empty() {
                self.bitmap[b / 64] &= !(1 << (b % 64));
            }
            item
        } else {
            self.overflow.pop().map(|e| e.item)
        };
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    fn len(&self) -> usize {
        self.len
    }
}

struct BitEntry<T> {
    key: BitPrio,
    seq: u64,
    item: T,
}

impl<T> PartialEq for BitEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<T> Eq for BitEntry<T> {}
impl<T> PartialOrd for BitEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for BitEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Smallest (key, seq) pops first.
        match other.key.cmp(&self.key) {
            Ordering::Equal => other.seq.cmp(&self.seq),
            ord => ord,
        }
    }
}

/// Bitvector-priority queue: lexicographically smallest key pops first,
/// FIFO among equals.
///
/// Radix-bucketed front: keys are spread over 256 buckets by their
/// first byte ([`BitPrio::radix_byte`]), with an occupancy bitmap to
/// find the lowest nonempty bucket in at most four `trailing_zeros`.
/// Sound because priorities that compare equal always share their first
/// byte and a strictly greater first byte is a strictly greater key —
/// so cross-bucket order needs no key comparison at all, and the
/// expensive byte-vector comparisons are confined to the (much
/// smaller) per-bucket heaps. The push sequence is global, so FIFO
/// among equals and overall pop order match one binary heap's exactly.
pub struct BitPrioQueue<T> {
    /// Per-radix heaps; allocated lazily, 256 long.
    buckets: Vec<BinaryHeap<BitEntry<T>>>,
    /// Occupancy bit per bucket.
    bitmap: [u64; 4],
    seq: u64,
    len: usize,
}

impl<T> Default for BitPrioQueue<T> {
    fn default() -> Self {
        BitPrioQueue {
            buckets: Vec::new(),
            bitmap: [0; 4],
            seq: 0,
            len: 0,
        }
    }
}

impl<T: Send> SchedQueue<T> for BitPrioQueue<T> {
    fn push(&mut self, prio: Priority, item: T) {
        let key = prio.bit_key();
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        if self.buckets.is_empty() {
            self.buckets.resize_with(256, BinaryHeap::new);
        }
        let b = key.radix_byte() as usize;
        self.buckets[b].push(BitEntry { key, seq, item });
        self.bitmap[b / 64] |= 1 << (b % 64);
    }

    fn pop(&mut self) -> Option<T> {
        let b = self
            .bitmap
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)?;
        let item = self.buckets[b].pop().map(|e| e.item);
        if self.buckets[b].is_empty() {
            self.bitmap[b / 64] &= !(1 << (b % 64));
        }
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T>(q: &mut dyn SchedQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn spec_spelling_round_trips() {
        for q in QueueingStrategy::ALL {
            assert_eq!(q.to_string().parse(), Ok(q));
        }
        assert_eq!(QueueingStrategy::IntPriority.to_string(), "int");
        assert!("int-prio".parse::<QueueingStrategy>().is_err());
    }

    #[test]
    fn fifo_order() {
        let mut q = QueueingStrategy::Fifo.make::<u32>();
        for (p, v) in [(5, 1u32), (1, 2), (3, 3)] {
            q.push(Priority::Int(p), v);
        }
        assert_eq!(drain(q.as_mut()), vec![1, 2, 3]);
    }

    #[test]
    fn lifo_order() {
        let mut q = QueueingStrategy::Lifo.make::<u32>();
        for v in [1u32, 2, 3] {
            q.push(Priority::None, v);
        }
        assert_eq!(drain(q.as_mut()), vec![3, 2, 1]);
    }

    #[test]
    fn int_priority_order_with_fifo_ties() {
        let mut q = QueueingStrategy::IntPriority.make::<&'static str>();
        q.push(Priority::Int(5), "late");
        q.push(Priority::Int(1), "first");
        q.push(Priority::Int(5), "later");
        q.push(Priority::Int(-3), "urgent");
        assert_eq!(drain(q.as_mut()), vec!["urgent", "first", "late", "later"]);
    }

    #[test]
    fn int_priority_none_is_zero() {
        let mut q = QueueingStrategy::IntPriority.make::<u32>();
        q.push(Priority::None, 0);
        q.push(Priority::Int(-1), 1);
        q.push(Priority::Int(1), 2);
        assert_eq!(drain(q.as_mut()), vec![1, 0, 2]);
    }

    #[test]
    fn bitvec_priority_dfs_order() {
        use crate::priority::BitPrio;
        let root = BitPrio::root();
        let mut q = QueueingStrategy::BitvecPriority.make::<&'static str>();
        q.push(Priority::Bits(root.child(1, 2)), "right");
        q.push(Priority::Bits(root.child(0, 2).child(1, 2)), "left-right");
        q.push(Priority::Bits(root.child(0, 2).child(0, 2)), "left-left");
        assert_eq!(
            drain(q.as_mut()),
            vec!["left-left", "left-right", "right"]
        );
    }

    #[test]
    fn bitvec_fifo_among_equal_keys() {
        let mut q = QueueingStrategy::BitvecPriority.make::<u32>();
        for v in 0..10 {
            q.push(Priority::None, v);
        }
        assert_eq!(drain(q.as_mut()), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_push_pop() {
        for strat in QueueingStrategy::ALL {
            let mut q = strat.make::<u32>();
            assert!(q.is_empty());
            q.push(Priority::None, 1);
            q.push(Priority::Int(2), 2);
            assert_eq!(q.len(), 2, "{strat:?}");
            q.pop();
            assert_eq!(q.len(), 1, "{strat:?}");
            q.pop();
            assert!(q.is_empty(), "{strat:?}");
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn int_bucket_overflow_spill_keeps_order() {
        // Keys far outside the window (anchored near the first push)
        // must spill to the overflow heap and still pop in key order.
        let mut q = IntPrioQueue::<u32>::default();
        q.push(Priority::Int(0), 10); // anchors the window near 0
        q.push(Priority::Int(1_000_000), 40);
        q.push(Priority::Int(-1_000_000), 0);
        q.push(Priority::Int(5), 20);
        q.push(Priority::Int(2_000), 30);
        assert_eq!(drain(&mut q), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn int_bucket_extreme_keys_do_not_overflow_arithmetic() {
        let mut q = IntPrioQueue::<u32>::default();
        q.push(Priority::Int(i64::MAX), 3);
        q.push(Priority::Int(i64::MIN), 1);
        q.push(Priority::Int(0), 2);
        q.push(Priority::Int(i64::MAX - 10), 3);
        assert_eq!(drain(&mut q), vec![1, 2, 3, 3]);
    }

    #[test]
    fn int_bucket_fifo_among_equals_across_sides() {
        let mut q = IntPrioQueue::<u32>::default();
        for v in 0..6 {
            q.push(Priority::Int(7), v); // same in-window key
        }
        for v in 6..9 {
            q.push(Priority::Int(99_999), v); // same overflow key
        }
        assert_eq!(drain(&mut q), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn bitvec_radix_crosses_byte_boundaries() {
        use crate::priority::BitPrio;
        let root = BitPrio::root();
        // Keys whose first bytes differ (radix buckets) interleaved with
        // keys that share byte 0 and differ later.
        let a = root.child(0, 8).child(5, 8); // 0x00 0x05
        let b = root.child(0, 8).child(9, 8); // 0x00 0x09
        let c = root.child(1, 8); // 0x01
        let d = root.child(200, 8); // 0xC8
        let mut q = BitPrioQueue::<&str>::default();
        q.push(Priority::Bits(d.clone()), "d");
        q.push(Priority::Bits(b.clone()), "b");
        q.push(Priority::Bits(root.clone()), "root");
        q.push(Priority::Bits(c.clone()), "c");
        q.push(Priority::Bits(a.clone()), "a");
        assert_eq!(drain(&mut q), vec!["root", "a", "b", "c", "d"]);
    }

    #[test]
    fn strategy_names_unique() {
        let names: std::collections::HashSet<_> =
            QueueingStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn every_strategy_preserves_items() {
        for strat in QueueingStrategy::ALL {
            let mut q = strat.make::<u32>();
            for v in 0..100u32 {
                q.push(Priority::Int((v % 7) as i64), v);
            }
            let mut out = drain(q.as_mut());
            out.sort_unstable();
            assert_eq!(out, (0..100).collect::<Vec<_>>(), "{strat:?}");
        }
    }
}
