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
//! kernel overhead — the priority disciplines keep per-message work
//! small: [`IntPrioQueue`] buckets a window of integer keys behind an
//! occupancy bitmap (O(1) push/pop, intrusive FIFO per bucket), and
//! [`BitPrioQueue`] heaps 32-byte entries whose first 128 key bits
//! compare as one integer, with the items parked in a slab. Reference
//! single-`BinaryHeap` implementations over whole keys live in
//! `tests/queue_props.rs`; the property tests check both queues against
//! them, pop-for-pop.

use crate::priority::{int_bits, BitPrio, Priority};
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

/// A bitvector-queue heap entry: the key's first 128 bits and the push
/// sequence, with the item (and a key longer than 128 bits) parked in
/// the queue's slab at `slot`. 32 bytes, so a sift moves little.
#[derive(Clone, Copy)]
struct BitEntry {
    head: u128,
    seq: u64,
    slot: u32,
    /// The key has bits beyond `head`, kept in the slab.
    long: bool,
}

/// What a [`BitEntry`] leaves in the slab.
struct Parked<T> {
    item: T,
    /// The whole key, if it is longer than the entry's head.
    long_key: Option<BitPrio>,
}

/// Bitvector-priority queue: lexicographically smallest key pops first,
/// FIFO among equals.
///
/// A binary heap of compact 32-byte entries ordered by `(key, seq)`. One
/// `u128` comparison of the heads decides almost every pair; only keys
/// that tie on their first 128 bits and have more bits behind them have
/// their tails compared, out of the slab. The push sequence makes the
/// order total, so pop order matches one binary heap of whole keys
/// exactly. An `Int` key enters as its 64-bit [`Priority::bit_key`]
/// encoding, built straight into the head.
pub struct BitPrioQueue<T> {
    heap: Vec<BitEntry>,
    slab: Vec<Option<Parked<T>>>,
    /// Vacant slab slots.
    free: Vec<u32>,
    seq: u64,
}

impl<T> Default for BitPrioQueue<T> {
    fn default() -> Self {
        BitPrioQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }
}

impl<T> BitPrioQueue<T> {
    /// The whole key of a long entry.
    fn long_key(&self, e: &BitEntry) -> Option<&BitPrio> {
        if !e.long {
            return None;
        }
        self.slab[e.slot as usize].as_ref().and_then(|p| p.long_key.as_ref())
    }

    /// Whether `a` pops before `b`.
    fn before(&self, a: &BitEntry, b: &BitEntry) -> bool {
        let tails = || match (self.long_key(a), self.long_key(b)) {
            (None, None) => Ordering::Equal,
            (ka, kb) => {
                let root = BitPrio::root();
                ka.unwrap_or(&root).cmp_tail(kb.unwrap_or(&root))
            }
        };
        a.head.cmp(&b.head).then_with(tails).then(a.seq.cmp(&b.seq)) == Ordering::Less
    }

    /// Move the entry at `i` up to its place.
    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.before(&e, &self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
    }

    /// Move the entry at `i` down to its place.
    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.before(&self.heap[child + 1], &self.heap[child]) {
                child += 1;
            }
            if !self.before(&self.heap[child], &e) {
                break;
            }
            self.heap[i] = self.heap[child];
            i = child;
        }
        self.heap[i] = e;
    }
}

impl<T: Send> SchedQueue<T> for BitPrioQueue<T> {
    fn push(&mut self, prio: Priority, item: T) {
        let (head, long_key) = match prio {
            Priority::None => (0, None),
            Priority::Int(v) => (u128::from(int_bits(v)) << 64, None),
            Priority::Bits(b) => (b.head(), b.has_tail().then_some(b)),
        };
        let long = long_key.is_some();
        let parked = Some(Parked { item, long_key });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = parked;
                slot
            }
            None => {
                self.slab.push(parked);
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(BitEntry { head, seq: self.seq, slot, long });
        self.seq += 1;
        self.sift_up(self.heap.len() - 1);
    }

    fn pop(&mut self) -> Option<T> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        self.free.push(top.slot);
        self.slab[top.slot as usize].take().map(|p| p.item)
    }

    fn len(&self) -> usize {
        self.heap.len()
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
    fn bitvec_entries_stay_compact() {
        assert_eq!(std::mem::size_of::<BitEntry>(), 32);
    }

    #[test]
    fn bitvec_long_keys_tied_on_their_head_order_by_their_tail() {
        use crate::priority::BitPrio;
        let head = BitPrio::from_path(&[7, 7, 7, 7]); // exactly 128 bits
        let mut q = BitPrioQueue::<&str>::default();
        q.push(Priority::Bits(head.child(1, 1)), "tail 1");
        q.push(Priority::Bits(head.child(0, 1)), "tail 0, long");
        q.push(Priority::Bits(head.clone()), "no tail");
        q.push(Priority::Bits(head.child(1, 2)), "tail 01");
        assert_eq!(drain(&mut q), vec!["tail 0, long", "no tail", "tail 01", "tail 1"]);
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
