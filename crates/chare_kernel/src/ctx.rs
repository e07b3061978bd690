//! The kernel context handed to every entry method.
//!
//! `Ctx` is the whole programming interface of the kernel: creating
//! chares, sending messages, branch-office operations, specifically
//! shared variables, quiescence detection and program exit. It borrows
//! the executing PE's node and the machine's network context for the
//! duration of one entry-method execution.
//! It owns no kernel state: each method types and boxes its arguments,
//! then calls the stratum that owns the operation (`CkNode::strata`).

use std::sync::Arc;

use multicomputer::{Cost, NetCtx, Pe};

use crate::boc::Branch;
use crate::chare::ChareInit;
use crate::envelope::{Seed, SysMsg};
use crate::ids::{Boc, BocId, ChareId, EpId, Kind, Notify, WoId};
use crate::msg::Message;
use crate::node::CkNode;
use crate::priority::Priority;
use crate::shared::{self, Acc, Accum, Mono, MonoVar, ReadOnly, TableRef};
use crate::transport::Port;

/// What kind of object is currently executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Current {
    /// A chare entry method (or constructor).
    Chare(ChareId),
    /// A branch entry method (or boot-time construction).
    Branch(BocId),
}

/// Kernel services available inside an entry method.
pub struct Ctx<'a> {
    pub(crate) node: &'a mut CkNode,
    pub(crate) net: &'a mut dyn NetCtx,
    pub(crate) current: Current,
    /// Set by [`Ctx::destroy_self`]; the scheduler frees the chare slot
    /// after the entry method returns.
    pub(crate) destroy_requested: bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(node: &'a mut CkNode, net: &'a mut dyn NetCtx, current: Current) -> Self {
        Ctx {
            node,
            net,
            current,
            destroy_requested: false,
        }
    }

    /// The transport, as this entry method may use it.
    fn port(&mut self) -> Port<'_> {
        self.node.strata(self.net).port
    }

    // -- Identity and machine info ------------------------------------

    /// The PE this entry method runs on.
    pub fn pe(&self) -> Pe {
        self.node.pe
    }

    /// Number of PEs in the machine.
    pub fn npes(&self) -> usize {
        self.node.npes
    }

    /// Current time in nanoseconds (simulated or wall clock, depending
    /// on the backend).
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    /// The executing chare's own id.
    ///
    /// # Panics
    /// Panics when called from a branch entry method.
    pub fn self_id(&self) -> ChareId {
        match self.current {
            Current::Chare(id) => id,
            Current::Branch(_) => panic!("self_id called outside a chare entry method"),
        }
    }

    /// Charge simulated compute time for work this handler performs
    /// (no-op on the thread backend, where real work takes real time).
    pub fn charge(&mut self, cost: Cost) {
        self.net.charge(cost);
    }

    /// The executing branch's own BOC handle, typed as `B`.
    ///
    /// # Panics
    /// Panics when called from a chare entry method. The type parameter
    /// is trusted — call it only from entry methods of `B` itself.
    pub fn self_boc<B: Branch>(&self) -> Boc<B> {
        match self.current {
            Current::Branch(id) => Boc::new(id),
            Current::Chare(_) => panic!("self_boc called outside a branch entry method"),
        }
    }

    // -- Chare creation and messaging ----------------------------------

    /// Create a new chare of registered type `C` from `seed`. Placement
    /// is delegated to the program's load balancing strategy; the chare
    /// may be constructed on any PE. The creator receives no handle —
    /// pass your own [`ChareId`] in the seed if you need a reply (the
    /// kernel's idiom).
    pub fn create<C: ChareInit>(&mut self, kind: Kind<C>, seed: C::Seed) {
        self.create_prio(kind, seed, Priority::None);
    }

    /// [`Ctx::create`] with an explicit scheduling priority.
    pub fn create_prio<C: ChareInit>(&mut self, kind: Kind<C>, seed: C::Seed, prio: Priority) {
        let (kind, bytes) = (kind.id, seed.bytes());
        let seed = Seed { kind, body: Box::new(seed), bytes, prio };
        self.node.create(self.net, None, seed);
    }

    /// Create a chare on a specific PE, bypassing load balancing.
    pub fn create_on<C: ChareInit>(&mut self, pe: Pe, kind: Kind<C>, seed: C::Seed) {
        self.create_on_prio(pe, kind, seed, Priority::None);
    }

    /// [`Ctx::create_on`] with an explicit scheduling priority.
    pub fn create_on_prio<C: ChareInit>(
        &mut self,
        pe: Pe,
        kind: Kind<C>,
        seed: C::Seed,
        prio: Priority,
    ) {
        let (kind, bytes) = (kind.id, seed.bytes());
        let seed = Seed { kind, body: Box::new(seed), bytes, prio };
        self.node.create(self.net, Some(pe), seed);
    }

    /// Send `msg` to entry point `ep` of chare `target`.
    pub fn send<M: Message>(&mut self, target: ChareId, ep: EpId, msg: M) {
        self.send_prio(target, ep, msg, Priority::None);
    }

    /// [`Ctx::send`] with an explicit scheduling priority.
    pub fn send_prio<M: Message>(&mut self, target: ChareId, ep: EpId, msg: M, prio: Priority) {
        let bytes = msg.bytes();
        let to = target.pe;
        self.port().post(to, SysMsg::ChareMsg { target, ep, body: Box::new(msg), bytes, prio });
    }

    /// Destroy the executing chare after this entry method returns.
    /// Messages still in flight to it become dead letters.
    ///
    /// # Panics
    /// Panics when called from a branch entry method (branches live for
    /// the whole program).
    pub fn destroy_self(&mut self) {
        match self.current {
            Current::Chare(_) => self.destroy_requested = true,
            Current::Branch(_) => panic!("branches cannot be destroyed"),
        }
    }

    // -- Branch-office chares ------------------------------------------

    /// Send `msg` to entry point `ep` of the branch of `boc` on `pe`.
    pub fn send_branch<B: Branch, M: Message>(&mut self, boc: Boc<B>, pe: Pe, ep: EpId, msg: M) {
        self.send_branch_prio(boc, pe, ep, msg, Priority::None);
    }

    /// [`Ctx::send_branch`] with an explicit priority.
    pub fn send_branch_prio<B: Branch, M: Message>(
        &mut self,
        boc: Boc<B>,
        pe: Pe,
        ep: EpId,
        msg: M,
        prio: Priority,
    ) {
        let bytes = msg.bytes();
        self.port()
            .post(pe, SysMsg::BranchMsg { boc: boc.id, ep, body: Box::new(msg), bytes, prio });
    }

    /// Send a copy of `msg` to entry point `ep` of every branch of
    /// `boc` (including this PE's). Distributed along the kernel's
    /// spanning tree unless the program selected direct broadcasts.
    pub fn broadcast_branch<B: Branch, M: Message + Clone + Sync>(
        &mut self,
        boc: Boc<B>,
        ep: EpId,
        msg: M,
    ) {
        let bytes = msg.bytes();
        let boc_id = boc.id;
        self.port().post_broadcast(
            true,
            Arc::new(move || SysMsg::BranchMsg {
                boc: boc_id,
                ep,
                body: Box::new(msg.clone()),
                bytes,
                prio: Priority::None,
            }),
        );
    }

    /// Call this PE's local branch of `boc` synchronously — the paper's
    /// "local branch call", used for fast PE-local services.
    ///
    /// # Panics
    /// Panics if `boc`'s branch is the object currently executing
    /// (re-entrant local calls are not allowed) or if `B` is not the
    /// branch's type.
    pub fn with_branch<B: Branch, R>(
        &mut self,
        boc: Boc<B>,
        f: impl FnOnce(&mut B, &mut Ctx) -> R,
    ) -> R {
        let mut obj = self
            .node
            .take_branch(boc.id)
            .unwrap_or_else(|| panic!("branch {} unavailable (re-entrant call?)", boc.id.0));
        let result = {
            let b = obj
                .as_any_mut()
                .downcast_mut::<B>()
                .expect("branch type mismatch");
            f(b, self)
        };
        self.node.put_branch(boc.id, obj);
        result
    }

    // -- Specifically shared variables ----------------------------------

    /// Read a read-only variable (replicated at program build).
    pub fn read_only<T: Send + Sync + 'static>(&self, ro: ReadOnly<T>) -> Arc<T> {
        Arc::clone(&self.node.reg.read_only[ro.id.0 as usize])
            .downcast::<T>()
            .expect("read-only variable type mismatch")
    }

    /// Fold `delta` into this PE's partial of accumulator `acc`.
    /// No communication happens until a collect.
    pub fn acc_add<A: Accum>(&mut self, acc: Acc<A>, delta: A::V) {
        self.node.shared.acc_add(acc.id, Box::new(delta));
    }

    /// Collect accumulator `acc` across all PEs: every PE's partial is
    /// taken (and reset to the identity), combined, and delivered to
    /// `notify` as an [`AccResult<A::V>`](crate::shared::AccResult).
    pub fn acc_collect<A: Accum>(&mut self, acc: Acc<A>, notify: Notify) {
        let mut s = self.node.strata(self.net);
        s.shared.acc_collect(&mut s.port, acc.id, notify);
    }

    /// Publish an improvement to monotonic variable `mono`. If it beats
    /// this PE's current value it is stored and broadcast; otherwise it
    /// is dropped (someone already knew better).
    pub fn mono_update<M: Mono>(&mut self, mono: MonoVar<M>, value: M::V) {
        let mut s = self.node.strata(self.net);
        s.shared.mono_update(&mut s.port, mono.id, Box::new(value));
    }

    /// Read this PE's current value of monotonic variable `mono`. May
    /// lag the global best — safe when used as a conservative bound.
    pub fn mono_get<M: Mono>(&self, mono: MonoVar<M>) -> M::V {
        self.node
            .shared
            .mono_get(mono.id)
            .downcast_ref::<M::V>()
            .expect("monotonic variable type mismatch")
            .clone()
    }

    /// Which PE owns `key` in distributed tables.
    pub fn table_home(&self, key: u64) -> Pe {
        shared::table_home(key, self.node.npes)
    }

    /// Insert `(key, value)` into table `table`. If `notify` is given, a
    /// [`TableAck`](crate::shared::TableAck) is delivered on completion.
    pub fn table_put<V: Clone + Send + 'static>(
        &mut self,
        table: TableRef<V>,
        key: u64,
        value: V,
        notify: Option<Notify>,
    ) {
        let op = SysMsg::TablePut {
            table: table.id,
            key,
            value: Box::new(value),
            bytes: std::mem::size_of::<V>() as u32,
            notify,
        };
        shared::table_op(&mut self.port(), key, op);
    }

    /// Look up `key` in `table`; a [`TableGot<V>`](crate::shared::TableGot)
    /// is delivered to `notify`.
    pub fn table_get<V: Clone + Send + 'static>(
        &mut self,
        table: TableRef<V>,
        key: u64,
        notify: Notify,
    ) {
        let table = table.id;
        shared::table_op(&mut self.port(), key, SysMsg::TableGet { table, key, notify });
    }

    /// Delete `key` from `table`. If `notify` is given, a
    /// [`TableAck`](crate::shared::TableAck) reports whether it existed.
    pub fn table_delete<V: Clone + Send + 'static>(
        &mut self,
        table: TableRef<V>,
        key: u64,
        notify: Option<Notify>,
    ) {
        let table = table.id;
        shared::table_op(&mut self.port(), key, SysMsg::TableDelete { table, key, notify });
    }

    /// Create a write-once variable holding `value`. The value is
    /// replicated to every PE; when replication completes, a
    /// [`WoReady`](crate::shared::WoReady) carrying the new [`WoId`] is
    /// delivered to `notify`, after which any PE may read it with
    /// [`Ctx::wo_get`].
    pub fn write_once<T: Send + Sync + 'static>(&mut self, value: T, notify: Notify) -> WoId {
        let bytes = std::mem::size_of::<T>() as u32;
        let mut s = self.node.strata(self.net);
        s.shared.write_once(&mut s.port, Arc::new(value), bytes, notify)
    }

    /// Read a replicated write-once variable.
    ///
    /// # Panics
    /// Panics if the variable has not been replicated to this PE yet —
    /// only read it after the [`WoReady`](crate::shared::WoReady)
    /// notification.
    pub fn wo_get<T: Send + Sync + 'static>(&self, id: WoId) -> Arc<T> {
        let value = self
            .node
            .shared
            .wo_get(id)
            .expect("write-once variable not (yet) replicated on this PE");
        Arc::clone(value).downcast::<T>().expect("write-once variable type mismatch")
    }

    // -- Quiescence and termination --------------------------------------

    /// Ask the kernel to deliver a
    /// [`QuiescenceMsg`](crate::shared::QuiescenceMsg) to `notify` once
    /// no user message is queued or in flight anywhere.
    pub fn start_quiescence(&mut self, notify: Notify) {
        self.port().post(Pe::ZERO, SysMsg::QdStart { notify });
    }

    /// End the program (the kernel's `CkExit`), recording `result` as
    /// the program's result. Queued and in-flight messages are
    /// discarded.
    pub fn exit<R: Send + 'static>(&mut self, result: R) {
        self.net.deposit(Box::new(result));
        self.net.stop();
    }

    /// Number of runnable user messages queued on this PE (exposed for
    /// adaptive grain-size decisions, as some kernel programs used).
    pub fn local_backlog(&self) -> usize {
        self.node.user_load()
    }
}

