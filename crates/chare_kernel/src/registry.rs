//! The program registry: type tables shared by every PE.
//!
//! The C-era kernel's translator emitted tables of chare definitions,
//! entry points and shared-variable descriptors that were identical on
//! every node. `Registry` is the Rust equivalent: built once by the
//! [`ProgramBuilder`](crate::program::ProgramBuilder), then shared
//! (`Arc`) by all PEs of a run and read-only from then on.
//!
//! An entry that captures nothing is a plain `fn` pointer, which a PE
//! copies out of the table and calls: no entry call clones the `Arc` or
//! writes any other refcount, so once a run starts no PE writes the
//! registry's cache lines. Only the two entries that carry a value
//! (`BocEntry::create` holds the branch configuration,
//! `MainSpec::make_seed` the main chare's seed) stay boxed closures;
//! they run once per PE at boot. Every entry is `Send + Sync` because
//! the thread backend invokes them concurrently from PE threads.

use std::any::Any;
use std::sync::Arc;

use crate::boc::{BranchInit, BranchObj};
use crate::chare::{Chare, ChareInit};
use crate::ctx::Ctx;
use crate::envelope::{CastGen, MsgBody, SysMsg};
use crate::ids::MonoId;
use crate::ids::ChareKind;
use crate::msg::Message;
use crate::shared::{AccResult, Accum, Mono, TableGot};

type CreateChareFn = fn(MsgBody, &mut Ctx) -> Option<Box<dyn Chare>>;
type CreateBranchFn = Box<dyn Fn(&mut Ctx) -> Box<dyn BranchObj> + Send + Sync>;
type InitValFn = fn() -> MsgBody;
type CombineFn = fn(&mut MsgBody, MsgBody);
type BetterFn = fn(&MsgBody, &MsgBody) -> bool;
type UpdateGenFn = fn(&MsgBody, MonoId) -> CastGen;
type MakeGotFn = fn(u64, Option<&MsgBody>) -> (MsgBody, u32);
type MakeSeedFn = Box<dyn Fn() -> (MsgBody, u32) + Send + Sync>;
type WrapResultFn = fn(MsgBody) -> (MsgBody, u32);

/// A registered chare type.
pub(crate) struct ChareEntry {
    /// Type name, for diagnostics.
    #[allow(dead_code)]
    pub name: &'static str,
    /// Constructs the chare from its (type-erased) seed: `None` when the
    /// constructor destroyed it, which is then never boxed.
    pub create: CreateChareFn,
}

impl ChareEntry {
    pub(crate) fn of<C: ChareInit>() -> Self {
        ChareEntry {
            name: std::any::type_name::<C>(),
            create: |seed, ctx| {
                let seed = seed
                    .take::<C::Seed>()
                    .unwrap_or_else(|_| panic!("wrong seed type for {}", std::any::type_name::<C>()));
                let chare = C::create(seed, ctx);
                (!ctx.destroy_requested).then(|| Box::new(chare) as Box<dyn Chare>)
            },
        }
    }
}

/// A registered branch-office chare type plus its configuration.
pub(crate) struct BocEntry {
    /// Type name, for diagnostics.
    #[allow(dead_code)]
    pub name: &'static str,
    /// Constructs this PE's branch at boot.
    pub create: CreateBranchFn,
}

impl BocEntry {
    pub(crate) fn of<B: BranchInit>(cfg: B::Cfg) -> Self {
        BocEntry {
            name: std::any::type_name::<B>(),
            create: Box::new(move |ctx| Box::new(B::create(cfg.clone(), ctx))),
        }
    }
}

/// A registered accumulator: erased identity, combine and result
/// wrapping.
pub(crate) struct AccEntry {
    pub init: InitValFn,
    pub combine: CombineFn,
    /// Wrap a combined total into an `AccResult<V>` message body plus
    /// its wire size.
    pub wrap_result: WrapResultFn,
}

impl AccEntry {
    pub(crate) fn of<A: Accum>() -> Self {
        AccEntry {
            init: || MsgBody::new(A::identity()),
            combine: |into, from| {
                let into = into
                    .downcast_mut::<A::V>()
                    .expect("accumulator value type mismatch");
                let from = from
                    .take::<A::V>()
                    .unwrap_or_else(|_| panic!("accumulator part type mismatch"));
                A::combine(into, from);
            },
            wrap_result: |total| {
                let value = total
                    .take::<A::V>()
                    .unwrap_or_else(|_| panic!("accumulator total type mismatch"));
                let msg = AccResult { value };
                let bytes = msg.bytes();
                (MsgBody::new(msg), bytes)
            },
        }
    }
}

/// A registered monotonic variable: erased identity and comparison.
pub(crate) struct MonoEntry {
    pub init: InitValFn,
    pub better: BetterFn,
    /// Build a broadcast generator minting `MonoUpdate` copies of a
    /// value (used by the spanning-tree broadcast).
    pub make_update_gen: UpdateGenFn,
}

impl MonoEntry {
    pub(crate) fn of<M: Mono>() -> Self {
        MonoEntry {
            init: || MsgBody::new(M::identity()),
            better: |new, cur| {
                let new = new.downcast_ref::<M::V>().expect("mono type mismatch");
                let cur = cur.downcast_ref::<M::V>().expect("mono type mismatch");
                M::better(new, cur)
            },
            make_update_gen: |v, id| {
                let v = v
                    .downcast_ref::<M::V>()
                    .expect("mono type mismatch")
                    .clone();
                std::sync::Arc::new(move || SysMsg::MonoUpdate {
                    mono: id,
                    value: MsgBody::new(v.clone()),
                })
            },
        }
    }
}

/// A registered distributed table: erased value cloning and reply
/// construction.
pub(crate) struct TableEntry {
    pub make_got: MakeGotFn,
}

impl TableEntry {
    pub(crate) fn of<V: Clone + Send + 'static>() -> Self {
        TableEntry {
            make_got: |key, val| {
                let value = val.map(|v| {
                    v.downcast_ref::<V>()
                        .expect("table value type mismatch")
                        .clone()
                });
                let got = TableGot { key, value };
                let bytes = got.bytes();
                (MsgBody::new(got), bytes)
            },
        }
    }
}

/// The main chare specification.
pub(crate) struct MainSpec {
    pub kind: ChareKind,
    pub make_seed: MakeSeedFn,
}

/// All per-program type information, shared by every PE.
pub(crate) struct Registry {
    pub chares: Vec<ChareEntry>,
    pub bocs: Vec<BocEntry>,
    pub read_only: Vec<Arc<dyn Any + Send + Sync>>,
    pub accs: Vec<AccEntry>,
    pub monos: Vec<MonoEntry>,
    pub tables: Vec<TableEntry>,
    pub main: Option<MainSpec>,
    /// Byte codecs for message-body types that may cross process
    /// boundaries (see [`crate::wire`]); unused by the in-process
    /// backends.
    pub wire: crate::wire::WireTable,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            chares: Vec::new(),
            bocs: Vec::new(),
            read_only: Vec::new(),
            accs: Vec::new(),
            monos: Vec::new(),
            tables: Vec::new(),
            main: None,
            wire: crate::wire::WireTable::new(),
        }
    }
}
