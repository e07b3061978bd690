//! Specifically shared variables.
//!
//! Instead of general shared memory, the kernel gives programs a small
//! set of *disciplined* sharing abstractions whose access patterns the
//! runtime can implement efficiently on nonshared-memory machines — one
//! of the paper's central design points:
//!
//! * **read-only** variables — fixed at program build, replicated
//!   everywhere ([`ReadOnly`]);
//! * **write-once** variables — created once at runtime, replicated to
//!   every PE, usable after a readiness notification
//!   ([`Ctx::write_once`](crate::ctx::Ctx::write_once), [`WoReady`]);
//! * **accumulators** — commutative-associative reduction variables with
//!   PE-local adds and an explicit, destructive collect ([`Accum`],
//!   [`Ctx::acc_add`](crate::ctx::Ctx::acc_add));
//! * **monotonic** variables — values that only ever improve, propagated
//!   asynchronously to all PEs; stale reads are safe because the value is
//!   a bound, not a truth ([`Mono`]) — this is what makes distributed
//!   branch & bound work;
//! * **distributed tables** — key/value store hash-partitioned across
//!   PEs with asynchronous insert/find/delete and reply messages
//!   ([`TableRef`], [`TableGot`], [`TableAck`]).
//!
//! This module is also the kernel's shared-variable *service*: one
//! stratum above the transport. `SharedVars` **owns** each PE's side
//! of every variable (accumulator partials, monotonic values, table
//! shards, the write-once store, collects in progress) together with
//! the initiators `Ctx` calls and the handler for the `Acc*`, `Mono*`,
//! `Table*` and `Wo*` kernel messages. It **may call** the transport,
//! through the `Port` it is handed, and the registry; it never touches
//! the scheduler or another service.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use multicomputer::Pe;

use crate::bcast::{tree_children, tree_parent, BroadcastMode};
use crate::envelope::{MsgBody, SysMsg};
use crate::ids::{AccId, MonoId, Notify, RoId, TableId, WoId};
use crate::msg::Message;
use crate::registry::Registry;
use crate::transport::Port;

/// A commutative, associative reduction.
///
/// Each PE holds a private partial value; [`Ctx::acc_add`](crate::ctx::Ctx::acc_add) combines into
/// the local partial without communication, and
/// [`Ctx::acc_collect`](crate::ctx::Ctx::acc_collect) gathers and resets
/// all partials, delivering the grand total to a chare entry point.
pub trait Accum: 'static {
    /// The accumulated value.
    type V: Send + Clone + 'static;
    /// The reduction identity.
    fn identity() -> Self::V;
    /// Fold `from` into `into`. Must be commutative and associative.
    fn combine(into: &mut Self::V, from: Self::V);
}

/// A value that only improves.
///
/// [`Ctx::mono_update`](crate::ctx::Ctx::mono_update) publishes an
/// improvement; the kernel broadcasts it and each PE keeps the best value
/// seen. [`Ctx::mono_get`](crate::ctx::Ctx::mono_get) reads the local
/// copy, which may lag the global best — safe exactly when the value is
/// used as a conservative bound.
pub trait Mono: 'static {
    /// The value type. `Sync` because improvement broadcasts share one
    /// captured value across the spanning tree.
    type V: Send + Sync + Clone + 'static;
    /// The least informative value (e.g. `+inf` for a minimizing bound).
    fn identity() -> Self::V;
    /// Whether `new` improves on `cur`.
    fn better(new: &Self::V, cur: &Self::V) -> bool;
}

/// Handle to a registered accumulator.
pub struct Acc<A: Accum> {
    /// Untyped id.
    pub id: AccId,
    pub(crate) _marker: PhantomData<fn() -> A>,
}

/// Handle to a registered monotonic variable.
pub struct MonoVar<M: Mono> {
    /// Untyped id.
    pub id: MonoId,
    pub(crate) _marker: PhantomData<fn() -> M>,
}

/// Handle to a registered distributed table with values of type `V`.
pub struct TableRef<V> {
    /// Untyped id.
    pub id: TableId,
    pub(crate) _marker: PhantomData<fn() -> V>,
}

/// Handle to a read-only variable of type `T`.
pub struct ReadOnly<T> {
    /// Untyped id.
    pub id: RoId,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

macro_rules! impl_copy_clone {
    ($name:ident < $p:ident : $bound:path >) => {
        impl<$p: $bound> Clone for $name<$p> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<$p: $bound> Copy for $name<$p> {}
    };
    ($name:ident < $p:ident >) => {
        impl<$p> Clone for $name<$p> {
            fn clone(&self) -> Self {
                *self
            }
        }
        impl<$p> Copy for $name<$p> {}
    };
}

impl_copy_clone!(Acc<A: Accum>);
impl_copy_clone!(MonoVar<M: Mono>);
impl_copy_clone!(TableRef<V>);
impl_copy_clone!(ReadOnly<T>);

impl<A: Accum> Acc<A> {
    pub(crate) fn new(id: AccId) -> Self {
        Acc {
            id,
            _marker: PhantomData,
        }
    }
}

impl<M: Mono> MonoVar<M> {
    pub(crate) fn new(id: MonoId) -> Self {
        MonoVar {
            id,
            _marker: PhantomData,
        }
    }
}

impl<V> TableRef<V> {
    pub(crate) fn new(id: TableId) -> Self {
        TableRef {
            id,
            _marker: PhantomData,
        }
    }
}

impl<T> ReadOnly<T> {
    pub(crate) fn new(id: RoId) -> Self {
        ReadOnly {
            id,
            _marker: PhantomData,
        }
    }
}

// ---------------------------------------------------------------------
// Kernel-generated notification messages.
// ---------------------------------------------------------------------

/// Delivered when quiescence detection fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuiescenceMsg;

/// Delivered when a write-once variable is replicated on every PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WoReady {
    /// The now-usable variable.
    pub id: WoId,
}

/// Reply to a table put/delete that requested notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableAck {
    /// The key operated on.
    pub key: u64,
    /// For put: whether the key already existed (old value replaced).
    /// For delete: whether the key existed (something was removed).
    pub existed: bool,
}

/// Reply to a table lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableGot<V> {
    /// The key looked up.
    pub key: u64,
    /// The value, if the key was present (a clone of the stored value).
    pub value: Option<V>,
}

/// Collected accumulator total, delivered to the entry point passed to
/// [`Ctx::acc_collect`](crate::ctx::Ctx::acc_collect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccResult<V> {
    /// The grand total across all PEs.
    pub value: V,
}

impl Message for QuiescenceMsg {}
impl Message for WoReady {}
impl Message for TableAck {}
impl<V: Send + 'static> Message for TableGot<V> {}
impl<V: Send + 'static> Message for AccResult<V> {}

// ---------------------------------------------------------------------
// Ready-made reductions.
// ---------------------------------------------------------------------

/// Sum of `u64`s.
pub struct SumU64;
impl Accum for SumU64 {
    type V = u64;
    fn identity() -> u64 {
        0
    }
    fn combine(into: &mut u64, from: u64) {
        *into += from;
    }
}

/// Sum of `f64`s.
pub struct SumF64;
impl Accum for SumF64 {
    type V = f64;
    fn identity() -> f64 {
        0.0
    }
    fn combine(into: &mut f64, from: f64) {
        *into += from;
    }
}

/// Maximum of `f64`s (identity `-inf`).
pub struct MaxF64;
impl Accum for MaxF64 {
    type V = f64;
    fn identity() -> f64 {
        f64::NEG_INFINITY
    }
    fn combine(into: &mut f64, from: f64) {
        if from > *into {
            *into = from;
        }
    }
}

/// Minimum of `u64`s (identity `u64::MAX`) — e.g. the "smallest f value
/// that exceeded the threshold" reduction of iterative-deepening search.
pub struct MinU64;
impl Accum for MinU64 {
    type V = u64;
    fn identity() -> u64 {
        u64::MAX
    }
    fn combine(into: &mut u64, from: u64) {
        if from < *into {
            *into = from;
        }
    }
}

/// Minimizing monotonic `u64` bound (identity `u64::MAX`), as used by
/// branch & bound.
pub struct MinBoundU64;
impl Mono for MinBoundU64 {
    type V = u64;
    fn identity() -> u64 {
        u64::MAX
    }
    fn better(new: &u64, cur: &u64) -> bool {
        new < cur
    }
}

// ---------------------------------------------------------------------
// The per-PE service behind the handles.
// ---------------------------------------------------------------------

/// One accumulator collect in progress on this PE.
struct CollectState {
    acc: AccId,
    /// The PE gathering this collect (root of the reduction tree).
    origin: Pe,
    /// Contributions still outstanding (tree children, or all PEs in
    /// direct mode).
    remaining: usize,
    value: MsgBody,
}

/// One PE's side of every specifically shared variable. The initiators
/// below are the bodies of the `Ctx` methods of the same names, which
/// document them.
pub(crate) struct SharedVars {
    reg: Arc<Registry>,
    acc_vals: Vec<MsgBody>,
    mono_vals: Vec<MsgBody>,
    tables: Vec<HashMap<u64, MsgBody>>,
    wo_store: HashMap<WoId, Arc<dyn Any + Send + Sync>>,
    wo_pending: HashMap<WoId, (usize, Notify)>,
    wo_counter: u32,
    collects: HashMap<u64, CollectState>,
    /// Requester side: where each collect's result goes.
    collect_notifies: HashMap<u64, Notify>,
    collect_counter: u64,
}

/// Which PE owns `key` in distributed tables.
pub(crate) fn table_home(key: u64, npes: usize) -> Pe {
    Pe::from((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % npes)
}

/// Send a table operation to the shard that owns `key`.
pub(crate) fn table_op(port: &mut Port, key: u64, op: SysMsg) {
    port.post(table_home(key, port.t.npes), op);
}

impl SharedVars {
    pub(crate) fn new(reg: Arc<Registry>) -> Self {
        SharedVars {
            acc_vals: reg.accs.iter().map(|a| (a.init)()).collect(),
            mono_vals: reg.monos.iter().map(|m| (m.init)()).collect(),
            tables: reg.tables.iter().map(|_| HashMap::new()).collect(),
            reg,
            wo_store: HashMap::new(),
            wo_pending: HashMap::new(),
            wo_counter: 0,
            collects: HashMap::new(),
            collect_notifies: HashMap::new(),
            collect_counter: 0,
        }
    }

    pub(crate) fn acc_add(&mut self, acc: AccId, delta: MsgBody) {
        (self.reg.accs[acc.0 as usize].combine)(&mut self.acc_vals[acc.0 as usize], delta);
    }

    pub(crate) fn acc_collect(&mut self, port: &mut Port, acc: AccId, notify: Notify) {
        port.counters.acc_collects += 1;
        let me = port.t.pe;
        let token = ((me.index() as u64) << 40) | self.collect_counter;
        self.collect_counter += 1;
        self.collect_notifies.insert(token, notify);
        if port.t.bcast == BroadcastMode::Direct {
            // Flat gather: expect one partial from every PE.
            let value = (self.reg.accs[acc.0 as usize].init)();
            let st = CollectState { acc, origin: me, remaining: port.t.npes, value };
            self.collects.insert(token, st);
        }
        // Tree mode builds its reduction state when the collect request
        // reaches each PE (including this one).
        let gen = move || SysMsg::AccCollect { acc, token, requester: me };
        port.post_broadcast(true, Arc::new(gen));
    }

    pub(crate) fn mono_update(&mut self, port: &mut Port, mono: MonoId, value: MsgBody) {
        let entry = &self.reg.monos[mono.0 as usize];
        let cur = &mut self.mono_vals[mono.0 as usize];
        if !(entry.better)(&value, cur) {
            return;
        }
        port.counters.mono_broadcasts += 1;
        port.counters.mono_applied += 1;
        port.post_broadcast(false, (entry.make_update_gen)(&value, mono));
        *cur = value;
    }

    pub(crate) fn mono_get(&self, mono: MonoId) -> &MsgBody {
        &self.mono_vals[mono.0 as usize]
    }

    pub(crate) fn write_once(
        &mut self,
        port: &mut Port,
        value: Arc<dyn Any + Send + Sync>,
        bytes: u32,
        notify: Notify,
    ) -> WoId {
        let wo = WoId::new(port.t.pe, self.wo_counter);
        self.wo_counter += 1;
        self.wo_pending.insert(wo, (port.t.npes, notify));
        let gen = move || SysMsg::WoStore { wo, value: Arc::clone(&value), bytes };
        port.post_broadcast(true, Arc::new(gen));
        wo
    }

    /// `None` until the value has been replicated to this PE.
    pub(crate) fn wo_get(&self, wo: WoId) -> Option<&Arc<dyn Any + Send + Sync>> {
        self.wo_store.get(&wo)
    }

    /// Handle one shared-variable kernel message.
    pub(crate) fn handle(&mut self, port: &mut Port, sys: SysMsg) {
        match sys {
            SysMsg::AccCollect { acc, token, requester } => {
                // Destructive read of this PE's partial.
                let fresh = (self.reg.accs[acc.0 as usize].init)();
                let part = std::mem::replace(&mut self.acc_vals[acc.0 as usize], fresh);
                match port.t.bcast {
                    // Flat gather: every partial goes straight to the
                    // requester (which pre-created its state).
                    BroadcastMode::Direct => {
                        port.post(requester, SysMsg::AccPart { acc, token, part });
                    }
                    // Tree reduction: combine up the same binomial tree
                    // the collect request came down. This node's state
                    // exists before any child can reply because the
                    // request is forwarded to children and processed
                    // locally in the same step.
                    BroadcastMode::Tree => {
                        let remaining = tree_children(requester, port.t.pe, port.t.npes).len();
                        let st = CollectState { acc, origin: requester, remaining, value: part };
                        if remaining == 0 {
                            self.finish_or_forward(port, token, st);
                        } else {
                            self.collects.insert(token, st);
                        }
                    }
                }
            }
            SysMsg::AccPart { acc, token, part } => {
                let st =
                    self.collects.get_mut(&token).expect("accumulator part for unknown collect");
                (self.reg.accs[acc.0 as usize].combine)(&mut st.value, part);
                st.remaining -= 1;
                if st.remaining == 0 {
                    let st = self.collects.remove(&token).expect("collect state");
                    self.finish_or_forward(port, token, st);
                }
            }
            SysMsg::MonoUpdate { mono, value } => {
                let cur = &mut self.mono_vals[mono.0 as usize];
                if (self.reg.monos[mono.0 as usize].better)(&value, cur) {
                    *cur = value;
                    port.counters.mono_applied += 1;
                }
            }
            SysMsg::TablePut { table, key, value, notify, .. } => {
                port.counters.table_ops += 1;
                let existed = self.tables[table.0 as usize].insert(key, value).is_some();
                table_ack(port, notify, key, existed);
            }
            SysMsg::TableGet { table, key, notify } => {
                port.counters.table_ops += 1;
                let val = self.tables[table.0 as usize].get(&key);
                let (body, bytes) = (self.reg.tables[table.0 as usize].make_got)(key, val);
                port.notify(notify, body, bytes);
            }
            SysMsg::TableDelete { table, key, notify } => {
                port.counters.table_ops += 1;
                let existed = self.tables[table.0 as usize].remove(&key).is_some();
                table_ack(port, notify, key, existed);
            }
            SysMsg::WoStore { wo, value, .. } => {
                self.wo_store.insert(wo, value);
                port.post(wo.creator(), SysMsg::WoAck { wo });
            }
            SysMsg::WoAck { wo } => {
                let ent =
                    self.wo_pending.get_mut(&wo).expect("ack for unknown write-once variable");
                ent.0 -= 1;
                if ent.0 == 0 {
                    let (_, notify) = self.wo_pending.remove(&wo).expect("wo state");
                    let msg = WoReady { id: wo };
                    port.notify(notify, MsgBody::new(msg), msg.bytes());
                }
            }
            _ => unreachable!("not a shared-variable message"),
        }
    }

    /// A collect subtree is fully combined: deliver the result if this
    /// PE requested the collect, otherwise pass the combined partial to
    /// the reduction-tree parent.
    fn finish_or_forward(&mut self, port: &mut Port, token: u64, st: CollectState) {
        let me = port.t.pe;
        if st.origin == me {
            let notify = self
                .collect_notifies
                .remove(&token)
                .expect("collect completed twice or never requested here");
            let (body, bytes) = (self.reg.accs[st.acc.0 as usize].wrap_result)(st.value);
            port.notify(notify, body, bytes);
        } else {
            let parent = tree_parent(st.origin, me, port.t.npes)
                .expect("non-origin node must have a tree parent");
            port.post(parent, SysMsg::AccPart { acc: st.acc, token, part: st.value });
        }
    }
}

/// Answer a table put or delete that asked for a [`TableAck`].
fn table_ack(port: &mut Port, notify: Option<Notify>, key: u64, existed: bool) {
    if let Some(n) = notify {
        let ack = TableAck { key, existed };
        port.notify(n, MsgBody::new(ack), ack.bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_u64_reduction() {
        let mut v = SumU64::identity();
        SumU64::combine(&mut v, 3);
        SumU64::combine(&mut v, 7);
        assert_eq!(v, 10);
    }

    #[test]
    fn max_f64_reduction() {
        let mut v = MaxF64::identity();
        MaxF64::combine(&mut v, 1.5);
        MaxF64::combine(&mut v, -2.0);
        assert_eq!(v, 1.5);
    }

    #[test]
    fn min_bound_improves_downward() {
        assert!(MinBoundU64::better(&5, &10));
        assert!(!MinBoundU64::better(&10, &5));
        assert!(!MinBoundU64::better(&5, &5));
        assert_eq!(MinBoundU64::identity(), u64::MAX);
    }

    #[test]
    fn handles_are_copy() {
        let a: Acc<SumU64> = Acc::new(AccId(0));
        let b = a;
        assert_eq!(a.id, b.id);
        let t: TableRef<String> = TableRef::new(TableId(1));
        let u = t;
        assert_eq!(t.id, u.id);
    }

    #[test]
    fn notification_messages_have_sizes() {
        use crate::msg::Message;
        assert!(QuiescenceMsg.bytes() <= 8);
        assert_eq!(
            TableGot::<u64> {
                key: 1,
                value: Some(2)
            }
            .bytes(),
            std::mem::size_of::<TableGot<u64>>() as u32
        );
    }
}
