//! Property-based tests of the scheduler queues against reference
//! models: conservation, ordering, tie-breaking.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use chare_kernel::priority::{BitPrio, Priority};
use chare_kernel::queueing::{BitPrioQueue, IntPrioQueue, QueueingStrategy, SchedQueue};
use proptest::prelude::*;

/// Reference integer-priority queue: a single binary heap, `O(log n)`
/// per operation, smallest `(key, push order)` first. The specification
/// the bucketed [`IntPrioQueue`] is checked against.
#[derive(Default)]
struct HeapIntPrioQueue<T> {
    heap: BinaryHeap<Reverse<(i64, u64, T)>>,
    seq: u64,
}

impl<T: Ord + Send> SchedQueue<T> for HeapIntPrioQueue<T> {
    fn push(&mut self, prio: Priority, item: T) {
        self.heap.push(Reverse((prio.int_key(), self.seq, item)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse((_, _, item))| item)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Reference bitvector-priority queue: a single binary heap comparing
/// whole keys. The specification the compact-entry [`BitPrioQueue`] is
/// checked against.
#[derive(Default)]
struct HeapBitPrioQueue<T> {
    heap: BinaryHeap<Reverse<(BitPrio, u64, T)>>,
    seq: u64,
}

impl<T: Ord + Send> SchedQueue<T> for HeapBitPrioQueue<T> {
    fn push(&mut self, prio: Priority, item: T) {
        self.heap.push(Reverse((prio.bit_key(), self.seq, item)));
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse((_, _, item))| item)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The pop sequence of a bucketed queue must match its reference heap
/// exactly under an arbitrary interleaving of pushes and pops.
fn check_equivalence(
    mut fast: Box<dyn SchedQueue<u32>>,
    mut reference: Box<dyn SchedQueue<u32>>,
    prios: impl Fn(u32) -> Priority,
) {
    let mut v = 0u32;
    // Deterministic but irregular schedule: bursts of pushes
    // separated by partial drains.
    for round in 0..50u32 {
        for k in 0..(round % 7 + 1) {
            let p = prios(round.wrapping_mul(31).wrapping_add(k));
            fast.push(p.clone(), v);
            reference.push(p, v);
            v += 1;
        }
        for _ in 0..(round % 5) {
            assert_eq!(fast.pop(), reference.pop(), "round {round}");
            assert_eq!(fast.len(), reference.len());
        }
    }
    loop {
        let (a, b) = (fast.pop(), reference.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn int_bucket_matches_reference_heap() {
    check_equivalence(
        Box::new(IntPrioQueue::default()),
        Box::new(HeapIntPrioQueue::default()),
        |x| Priority::Int((x % 23) as i64 * 1_000 - 4_000),
    );
}

#[test]
fn bitvec_radix_matches_reference_heap() {
    check_equivalence(
        Box::new(BitPrioQueue::default()),
        Box::new(HeapBitPrioQueue::default()),
        |x| {
            let mut p = BitPrio::root();
            for i in 0..(x % 4) {
                p = p.child((x >> (i * 3)) & 7, 3);
            }
            Priority::Bits(p)
        },
    );
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::None),
        any::<i64>().prop_map(Priority::Int),
        proptest::collection::vec(0u32..16, 0..8).prop_map(|path| {
            let mut p = BitPrio::root();
            for v in path {
                p = p.child(v, 4);
            }
            Priority::Bits(p)
        }),
    ]
}

/// Three 128-bit prefixes (32 four-bit components) for long keys to
/// share: all zeros, a pattern, and the head of `Priority::Int(0)`'s
/// key (a 1 then zeros), so an `Int` key can tie with a `Bits` one.
fn shared_prefix(which: usize) -> Vec<u32> {
    match which {
        0 => vec![0; 32],
        1 => (0..32).map(|i| i % 16).collect(),
        _ => std::iter::once(8).chain(std::iter::repeat_n(0, 31)).collect(),
    }
}

/// A push of any kind: `None`, an `Int` (small, so equal keys recur,
/// or arbitrary), or a `Bits` path of up to 48 four-bit components
/// (192 bits), most of them a shared 128-bit prefix plus a short tail
/// that is often all zeros.
fn arb_long_push() -> impl Strategy<Value = Priority> {
    let shared = || {
        let tail = proptest::collection::vec(prop_oneof![Just(0u32), 0u32..16], 0..17);
        (0usize..3, tail).prop_map(|(which, tail)| bits_path(&[shared_prefix(which), tail].concat()))
    };
    // The shared-prefix alternative is listed thrice to weight it.
    prop_oneof![
        Just(Priority::None),
        (-2i64..2).prop_map(Priority::Int),
        any::<i64>().prop_map(Priority::Int),
        proptest::collection::vec(0u32..16, 0..49).prop_map(|p| bits_path(&p)),
        shared(),
        shared(),
        shared(),
    ]
}

/// A push (two in three) or a pop (`None`).
fn arb_long_op() -> impl Strategy<Value = Option<Priority>> {
    prop_oneof![
        arb_long_push().prop_map(Some),
        arb_long_push().prop_map(Some),
        Just(None),
    ]
}

fn bits_path(path: &[u32]) -> Priority {
    let mut p = BitPrio::root();
    for &x in path {
        p = p.child(x, 4);
    }
    Priority::Bits(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Keys longer than 128 bits, and keys that tie on their first 128
    /// bits: the bitvector queue pops exactly what the reference heap
    /// of whole keys pops, under pushes interleaved with pops.
    #[test]
    fn bitvec_long_keys_pop_in_reference_order(
        ops in proptest::collection::vec(arb_long_op(), 0..300)
    ) {
        let mut fast = BitPrioQueue::<u32>::default();
        let mut reference = HeapBitPrioQueue::<u32>::default();
        for (v, op) in ops.into_iter().enumerate() {
            match op {
                Some(prio) => {
                    fast.push(prio.clone(), v as u32);
                    reference.push(prio, v as u32);
                }
                None => prop_assert_eq!(fast.pop(), reference.pop()),
            }
            prop_assert_eq!(fast.len(), reference.len());
        }
        loop {
            let (a, b) = (fast.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    /// Every strategy returns exactly the pushed items (a permutation).
    #[test]
    fn conservation(items in proptest::collection::vec(arb_priority(), 0..200)) {
        for strat in QueueingStrategy::ALL {
            let mut q = strat.make::<usize>();
            for (i, p) in items.iter().enumerate() {
                q.push(p.clone(), i);
            }
            let mut out: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
            out.sort_unstable();
            prop_assert_eq!(out, (0..items.len()).collect::<Vec<_>>(), "{}", strat.name());
        }
    }

    /// FIFO pops in push order regardless of priorities.
    #[test]
    fn fifo_model(items in proptest::collection::vec(arb_priority(), 0..200)) {
        let mut q = QueueingStrategy::Fifo.make::<usize>();
        for (i, p) in items.iter().enumerate() {
            q.push(p.clone(), i);
        }
        let out: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(out, (0..items.len()).collect::<Vec<_>>());
    }

    /// LIFO pops in reverse push order.
    #[test]
    fn lifo_model(items in proptest::collection::vec(arb_priority(), 0..200)) {
        let mut q = QueueingStrategy::Lifo.make::<usize>();
        for (i, p) in items.iter().enumerate() {
            q.push(p.clone(), i);
        }
        let out: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(out, (0..items.len()).rev().collect::<Vec<_>>());
    }

    /// Integer priority pops in stable-sorted (key, push-index) order.
    #[test]
    fn int_priority_model(keys in proptest::collection::vec(-100i64..100, 0..200)) {
        let mut q = QueueingStrategy::IntPriority.make::<usize>();
        for (i, &k) in keys.iter().enumerate() {
            q.push(Priority::Int(k), i);
        }
        let out: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        let mut want: Vec<usize> = (0..keys.len()).collect();
        want.sort_by_key(|&i| (keys[i], i));
        prop_assert_eq!(out, want);
    }

    /// Bitvector priority pops in stable-sorted (bit key, push-index)
    /// order.
    #[test]
    fn bitvec_priority_model(
        paths in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..6), 0..100)
    ) {
        let prios: Vec<BitPrio> = paths
            .iter()
            .map(|path| {
                let mut p = BitPrio::root();
                for &v in path {
                    p = p.child(v, 2);
                }
                p
            })
            .collect();
        let mut q = QueueingStrategy::BitvecPriority.make::<usize>();
        for (i, p) in prios.iter().enumerate() {
            q.push(Priority::Bits(p.clone()), i);
        }
        let out: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        let mut want: Vec<usize> = (0..prios.len()).collect();
        want.sort_by(|&a, &b| prios[a].cmp(&prios[b]).then(a.cmp(&b)));
        prop_assert_eq!(out, want);
    }

    /// The bucketed integer queue pops exactly what the reference heap
    /// pops under a random interleaving of pushes (arbitrary i64 keys,
    /// in- and out-of-window) and pops.
    #[test]
    fn int_bucket_pop_order_equals_heap(
        ops in proptest::collection::vec(
            prop_oneof![
                any::<i64>().prop_map(Some),
                (-200i64..200).prop_map(Some), // in-window
                Just(None),                    // pop
            ],
            0..300,
        )
    ) {
        let mut fast = IntPrioQueue::<u32>::default();
        let mut reference = HeapIntPrioQueue::<u32>::default();
        let mut v = 0u32;
        for op in ops {
            match op {
                Some(key) => {
                    fast.push(Priority::Int(key), v);
                    reference.push(Priority::Int(key), v);
                    v += 1;
                }
                None => prop_assert_eq!(fast.pop(), reference.pop()),
            }
            prop_assert_eq!(fast.len(), reference.len());
        }
        loop {
            let (a, b) = (fast.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The radix-bucketed bitvector queue pops exactly what the
    /// reference heap pops, including FIFO among equal keys.
    #[test]
    fn bitvec_radix_pop_order_equals_heap(
        ops in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(0u32..16, 0..8).prop_map(Some),
                proptest::collection::vec(0u32..16, 0..4).prop_map(Some),
                Just(None), // pop
            ],
            0..300,
        )
    ) {
        let mut fast = BitPrioQueue::<u32>::default();
        let mut reference = HeapBitPrioQueue::<u32>::default();
        let mut v = 0u32;
        for op in ops {
            match op {
                Some(path) => {
                    let mut p = BitPrio::root();
                    for x in path {
                        p = p.child(x, 4);
                    }
                    fast.push(Priority::Bits(p.clone()), v);
                    reference.push(Priority::Bits(p), v);
                    v += 1;
                }
                None => prop_assert_eq!(fast.pop(), reference.pop()),
            }
            prop_assert_eq!(fast.len(), reference.len());
        }
        loop {
            let (a, b) = (fast.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// FIFO among equals for the bucketed queues: equal keys come back
    /// in push order no matter how they interleave with other keys.
    #[test]
    fn bucket_queues_fifo_among_equals(
        keys in proptest::collection::vec(0i64..4, 0..200)
    ) {
        let mut int_q = IntPrioQueue::<usize>::default();
        let mut bit_q = BitPrioQueue::<usize>::default();
        let prios: Vec<BitPrio> = (0..4)
            .map(|k| BitPrio::root().child(k, 2))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            int_q.push(Priority::Int(k), i);
            bit_q.push(Priority::Bits(prios[k as usize].clone()), i);
        }
        let mut want: Vec<usize> = (0..keys.len()).collect();
        want.sort_by_key(|&i| (keys[i], i));
        let int_out: Vec<usize> = std::iter::from_fn(|| int_q.pop()).collect();
        let bit_out: Vec<usize> = std::iter::from_fn(|| bit_q.pop()).collect();
        prop_assert_eq!(int_out, want.clone());
        prop_assert_eq!(bit_out, want);
    }

    /// Interleaved pushes and pops keep `len` consistent and never lose
    /// items (model: multiset cardinality).
    #[test]
    fn interleaved_len_consistent(ops in proptest::collection::vec(any::<bool>(), 0..300)) {
        for strat in QueueingStrategy::ALL {
            let mut q = strat.make::<u32>();
            let mut expected = 0usize;
            let mut next = 0u32;
            for &push in &ops {
                if push {
                    q.push(Priority::Int((next % 7) as i64), next);
                    next += 1;
                    expected += 1;
                } else if q.pop().is_some() {
                    expected -= 1;
                }
                prop_assert_eq!(q.len(), expected, "{}", strat.name());
                prop_assert_eq!(q.is_empty(), expected == 0);
            }
        }
    }
}
