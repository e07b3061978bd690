//! Quick-fit pooled memory for kernel envelopes and wire buffers.
//!
//! The C Chare Kernel devoted an entire kernel module to dynamic memory
//! management for messages: quick-fit free lists serving the handful of
//! block sizes message traffic actually uses, because a general-purpose
//! `malloc`/`free` pair per message *is* the kernel's overhead. This
//! module is the host-side analogue for the reproduction. Every kernel
//! packet wraps one [`SysMsg`] in a `Box`, and message combining ships
//! `Vec<SysMsg>` wire buffers; both are allocated and freed at the full
//! rate of simulated traffic. The pool recycles them through
//! thread-local free lists (one exact-size list for envelope boxes —
//! the quick-fit "quick list" — and capacity-classed lists for wire
//! buffers), so steady-state message traffic performs no heap
//! allocation at all.
//!
//! Pooling is **invisible to simulated results**: the same values flow
//! through the same code paths, only the host allocations differ.
//!
//! Free lists are thread-local, which makes them safe on every backend:
//! the discrete-event simulator runs a whole machine on one thread (one
//! pool), the thread backend runs one PE per thread (one pool each —
//! envelopes allocated by a sender and reclaimed by a receiver simply
//! migrate between lists), and a procs worker is one PE per process.

use std::cell::RefCell;

use multicomputer::Payload;

use crate::envelope::SysMsg;

/// Most free envelope boxes kept per thread (~64 B each).
const ENVELOPE_KEEP: usize = 8192;
/// Most free wire buffers kept per thread, per size class.
const BATCH_KEEP: usize = 512;
/// Most free ack-sequence buffers kept per thread.
const SEQ_KEEP: usize = 512;
/// Wire-buffer capacity classes: `<= 8`, `<= 32`, `<= 128`, larger.
const BATCH_CLASS_CAPS: [usize; 3] = [8, 32, 128];

#[derive(Default)]
struct Pool {
    // The boxes ARE the pooled resource: callers hold `Box<SysMsg>`
    // envelopes, and recycling must keep each heap allocation alive.
    #[allow(clippy::vec_box)]
    envelopes: Vec<Box<SysMsg>>,
    batches: [Vec<Vec<SysMsg>>; 4],
    seqs: Vec<Vec<u64>>,
    recycled: u64,
    allocated: u64,
}

/// Counters for one thread's pool (diagnostics only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub recycled: u64,
    /// Allocations that had to hit the heap.
    pub allocated: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

fn batch_class(cap: usize) -> usize {
    BATCH_CLASS_CAPS
        .iter()
        .position(|&c| cap <= c)
        .unwrap_or(BATCH_CLASS_CAPS.len())
}

/// This thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            recycled: p.recycled,
            allocated: p.allocated,
        }
    })
}

/// Box `sys` as a machine-layer payload, reusing a recycled envelope
/// allocation when one is free.
pub fn payload(sys: SysMsg) -> Payload {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.envelopes.pop() {
            Some(mut bx) => {
                p.recycled += 1;
                *bx = sys;
                bx
            }
            None => {
                p.allocated += 1;
                Box::new(sys)
            }
        }
    })
}

/// Take the message out of a received envelope and return the box's
/// allocation to the free list.
pub fn reclaim(mut bx: Box<SysMsg>) -> SysMsg {
    // `WorkNack` is the unit variant: a placeholder that costs one
    // enum-sized move and drops nothing.
    let sys = std::mem::replace(&mut *bx, SysMsg::WorkNack);
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.envelopes.len() < ENVELOPE_KEEP {
            p.envelopes.push(bx);
        }
    });
    sys
}

/// An empty wire buffer with at least `cap_hint` capacity if a recycled
/// one is available (larger classes are searched before allocating).
pub fn batch(cap_hint: usize) -> Vec<SysMsg> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        for class in batch_class(cap_hint)..p.batches.len() {
            if let Some(v) = p.batches[class].pop() {
                p.recycled += 1;
                return v;
            }
        }
        p.allocated += 1;
        Vec::with_capacity(cap_hint)
    })
}

/// Return an emptied wire buffer to its size class. A buffer that never
/// allocated has nothing worth keeping.
pub fn recycle_batch(v: Vec<SysMsg>) {
    if v.capacity() == 0 {
        return;
    }
    debug_assert!(v.is_empty(), "recycled wire buffer must be drained");
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let class = batch_class(v.capacity());
        if p.batches[class].len() < BATCH_KEEP {
            p.batches[class].push(v);
        }
    });
}

/// An empty ack-sequence buffer (reliable-delivery wire traffic).
pub fn seq_vec() -> Vec<u64> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        match p.seqs.pop() {
            Some(v) => {
                p.recycled += 1;
                v
            }
            None => {
                p.allocated += 1;
                Vec::new()
            }
        }
    })
}

/// Return an ack-sequence buffer to the free list (zero-capacity
/// buffers are dropped, as in [`recycle_batch`]).
pub fn recycle_seq_vec(mut v: Vec<u64>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.seqs.len() < SEQ_KEEP {
            p.seqs.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` on a new thread, whose thread-local pool starts empty
    /// with zeroed counters.
    fn on_fresh_pool(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("pool test thread");
    }

    #[test]
    fn envelope_round_trip_preserves_value() {
        let p = payload(SysMsg::QdPoll { wave: 42 });
        let bx = p.downcast::<SysMsg>().unwrap();
        match reclaim(bx) {
            SysMsg::QdPoll { wave } => assert_eq!(wave, 42),
            _ => panic!("wrong message came back"),
        }
    }

    #[test]
    fn recycled_envelope_allocation_is_reused() {
        let before = stats();
        let p = payload(SysMsg::WorkNack);
        let _ = reclaim(p.downcast::<SysMsg>().unwrap());
        let p2 = payload(SysMsg::QdPoll { wave: 1 });
        let after = stats();
        assert!(
            after.recycled > before.recycled,
            "second allocation must come from the free list"
        );
        let _ = reclaim(p2.downcast::<SysMsg>().unwrap());
    }

    #[test]
    fn envelope_free_list_is_bounded() {
        on_fresh_pool(|| {
            let n = ENVELOPE_KEEP + 100;
            let live: Vec<Payload> = (0..n).map(|_| payload(SysMsg::WorkNack)).collect();
            for p in live {
                let _ = reclaim(p.downcast::<SysMsg>().unwrap());
            }
            let before = stats();
            let again: Vec<Payload> = (0..n).map(|_| payload(SysMsg::WorkNack)).collect();
            let after = stats();
            assert_eq!(after.recycled - before.recycled, ENVELOPE_KEEP as u64);
            assert_eq!(after.allocated - before.allocated, 100);
            drop(again);
        });
    }

    #[test]
    fn batch_classes_round_trip() {
        let mut v = batch(4);
        v.push(SysMsg::WorkNack);
        v.clear();
        recycle_batch(v);
        let v2 = batch(100);
        assert!(v2.is_empty());
        recycle_batch(v2);
    }

    #[test]
    fn seq_vec_round_trip() {
        let mut v = seq_vec();
        v.extend([1u64, 2, 3]);
        recycle_seq_vec(v);
        let v2 = seq_vec();
        assert!(v2.is_empty(), "recycled seq buffers come back empty");
        recycle_seq_vec(v2);
    }

    #[test]
    fn zero_capacity_buffers_are_not_kept() {
        on_fresh_pool(|| {
            recycle_batch(Vec::new());
            recycle_seq_vec(Vec::new());
            let before = stats();
            let v = batch(4);
            let s = seq_vec();
            let after = stats();
            assert_eq!(after.recycled, before.recycled, "nothing was kept to reuse");
            assert_eq!(after.allocated - before.allocated, 2);
            assert!(v.capacity() >= 4 && s.is_empty());
        });
    }

    #[test]
    fn size_classes_partition_capacities() {
        assert_eq!(batch_class(0), 0);
        assert_eq!(batch_class(8), 0);
        assert_eq!(batch_class(9), 1);
        assert_eq!(batch_class(32), 1);
        assert_eq!(batch_class(128), 2);
        assert_eq!(batch_class(129), 3);
        assert_eq!(batch_class(usize::MAX), 3);
    }
}
