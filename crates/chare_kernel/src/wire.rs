//! Byte-level wire codec for kernel envelopes crossing process
//! boundaries.
//!
//! The simulator and thread backends move [`SysMsg`] envelopes between
//! PEs as in-memory boxes: message bodies stay type-erased [`MsgBody`]
//! values and never need a byte representation. The multi-process
//! backend ([`proc`](crate::proc)) cannot do that — every envelope
//! crossing a socket must become bytes and come back — so this module
//! defines:
//!
//! * [`Wire`] — a small explicit codec trait (`encode` into a byte
//!   vector, `decode` from a [`WireReader`]), implemented for the
//!   primitives, the kernel id types, priorities, and trace/metric
//!   snapshot types. What a type looks like on the wire is declared
//!   once, as a list both directions are generated from:
//!   [`wire_struct!`](crate::wire_struct) over a struct's fields,
//!   [`wire_enum!`](crate::wire_enum) over an enum's variants — the
//!   kernel's own types, the kernel envelope [`SysMsg`] and the procs
//!   control messages among them, and an application's message and seed
//!   types alike. Only three codecs here are written out by hand, each
//!   for a reason a list cannot state: `BitPrio` (bit packing),
//!   `BalanceStrategy` (travels as its spec-grammar text) and
//!   `Histogram` (only its occupied buckets travel);
//! * a **wire table** inside the program `Registry`: message *bodies*
//!   are type-erased ([`MsgBody`]), so each concrete body type a
//!   program sends between PEs must be registered up front with
//!   [`ProgramBuilder::wire`](crate::program::ProgramBuilder::wire).
//!   Registration order assigns each type a small integer tag; because
//!   the parent and every worker process construct the *same* program
//!   (same registration sequence), the tags agree, and a fingerprint of
//!   the table is checked at the socket handshake to catch drift. The
//!   `SysMsg` list is coded in a context, `Frame`, that carries the
//!   registry for the few fields only it can code — a body, a
//!   broadcast's generator, a reliable slot, a batch — each by hand
//!   through the crate-private `WireIn`; every other field by its `Wire`.
//!
//! Decoding never panics on what the peer sent. A short read, a length
//! prefix past the bytes left, an unknown tag or a non-UTF-8 string
//! records the first such malformation on the [`WireReader`], leaves it
//! exhausted — every later read and count comes back zero, so decoding
//! terminates — and yields a placeholder value. Envelopes nested deeper
//! than any sender nests them are such a malformation too, so the
//! decoder's recursion is bounded by a constant, not by the frame cap.
//! Whoever cut the frame asks [`WireReader::finish`] once the value is
//! decoded and maps an error to its own failure: the parent to
//! `ProcAbortReason::Protocol`, a worker to `EXIT_BAD_FRAME` (see
//! [`proc`](crate::proc)).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use multicomputer::{Cost, Pe, Topology};

use crate::balance::BalanceStrategy;
use crate::bcast::BroadcastMode;
use crate::envelope::{CastGen, MsgBody, RelSlot, Seed, SysMsg};
use crate::ids::{AccId, Boc, BocId, ChareId, ChareKind, EpId, Kind, MonoId, Notify, RoId, TableId, WoId};
use crate::metrics::MetricsConfig;
use crate::priority::{BitPrio, Priority};
use crate::queueing::QueueingStrategy;
use crate::registry::Registry;
use crate::reliable::ReliableConfig;
use crate::shared::{Acc, Accum, Mono, MonoVar, QuiescenceMsg, ReadOnly, TableRef};
use crate::trace::{EntryWhat, EventKind, MsgClass, TraceConfig, TraceEvent};

/// The first malformation a [`WireReader`] met in its buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Offset at which decoding stopped: at a short read, just past a
    /// bad tag or length prefix.
    pub at: usize,
    /// What was wanted there.
    pub wanted: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: malformed frame at byte {}: wanted {}", self.at, self.wanted)
    }
}

impl std::error::Error for WireError {}

/// Cursor over a received byte buffer.
pub struct WireReader<'a> {
    /// Not yet consumed.
    rest: &'a [u8],
    /// Length of the whole buffer (positions are reported against it).
    len: usize,
    error: Option<WireError>,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            rest: buf,
            len: buf.len(),
            error: None,
        }
    }

    /// Bytes not yet consumed (0 once decoding has failed).
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The bytes are not an encoding of what is being decoded: record
    /// what was `wanted` here, unless an earlier failure already is, and
    /// skip to the end of the buffer. Hand-written codecs call this for
    /// a tag they do not know, then return any value.
    #[cold]
    pub fn fail(&mut self, wanted: &'static str) {
        let at = self.len - self.rest.len();
        self.error.get_or_insert(WireError { at, wanted });
        self.rest = &[];
    }

    /// Whether the buffer was exactly one well-formed value: the first
    /// malformation met, or trailing bytes, is the error. The question a
    /// frame boundary asks after decoding.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.error {
            Some(e) => Err(e),
            None if self.rest.is_empty() => Ok(()),
            None => Err(WireError {
                at: self.len - self.rest.len(),
                wanted: "the end of the frame",
            }),
        }
    }

    /// Read `N` bytes (zeros on a short read).
    fn array<const N: usize>(&mut self) -> [u8; N] {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                *head
            }
            None => {
                self.fail("more bytes than are left");
                [0; N]
            }
        }
    }

    /// Read one byte (0 on a short read).
    pub fn u8(&mut self) -> u8 {
        u8::from_le_bytes(self.array())
    }

    /// Read a little-endian `u16` (0 on a short read).
    pub fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.array())
    }

    /// Read a little-endian `u32` (0 on a short read).
    pub fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.array())
    }

    /// Read a little-endian `u64` (0 on a short read).
    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.array())
    }

    /// Read `n` raw bytes (none on a short read).
    pub fn bytes(&mut self, n: usize) -> &'a [u8] {
        match self.rest.split_at_checked(n) {
            Some((head, tail)) => {
                self.rest = tail;
                head
            }
            None => {
                self.fail("more bytes than are left");
                &[]
            }
        }
    }

    /// Read a one-byte variant tag below `variants`. Any other byte
    /// fails the reader and reads as tag 0, so a decoder matches the
    /// tags it knows and lets `_` stand for the last of them.
    pub fn tag(&mut self, variants: u8, wanted: &'static str) -> u8 {
        let t = self.u8();
        if t < variants {
            return t;
        }
        self.fail(wanted);
        0
    }

    /// Read a `u32` count of `T`s that follow. The prefix is outside
    /// input, so it is checked against the bytes present before
    /// anything is reserved for it: a non-zero-sized `T` encodes to at
    /// least one byte (a zero-sized one reserves nothing).
    fn count<T>(&mut self) -> usize {
        let n = self.u32() as usize;
        if std::mem::size_of::<T>() != 0 && n > self.remaining() {
            self.fail("a length prefix within the bytes left");
            return 0;
        }
        n
    }
}

/// Explicit byte codec for values that cross process boundaries.
///
/// Implementations must be self-delimiting: `decode` reads exactly the
/// bytes `encode` wrote. Derive-style helpers: [`wire_struct!`](crate::wire_struct),
/// [`wire_enum!`](crate::wire_enum).
pub trait Wire: Sized + 'static {
    /// Append this value's byte representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Read one value back. On malformed input the reader records the
    /// failure (see [`WireReader::finish`]) and the value is a placeholder.
    fn decode(r: &mut WireReader) -> Self;
    /// Append `items` in a row (what a `Vec` encodes its elements with):
    /// the bytes of each `encode`, one after the other. Provided; the
    /// fixed-width primitives override it to write the whole run at once.
    #[doc(hidden)]
    fn encode_n(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.encode(out);
        }
    }
    /// Read `n` values in a row (what a `Vec` decodes its elements
    /// with). Provided; the fixed-width primitives override it to take
    /// the whole run as one slice of the buffer, because a failure that
    /// is a state rather than a panic keeps a per-element loop from
    /// compiling to the one copy it is.
    #[doc(hidden)]
    fn decode_n(r: &mut WireReader, n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::decode(r)).collect()
    }
}

/// Append `items` as one run of `W`-byte values, each written by `le`:
/// one `resize`, then a write per chunk, so the loop has no capacity
/// check inside it.
fn encode_run<T, const W: usize>(items: &[T], out: &mut Vec<u8>, le: impl Fn(&T) -> [u8; W]) {
    let start = out.len();
    out.resize(start + items.len() * W, 0);
    for (chunk, v) in out[start..].chunks_exact_mut(W).zip(items) {
        chunk.copy_from_slice(&le(v));
    }
}

/// Read `n` values of `W` bytes each, read by `from_le`, out of one
/// slice of the buffer. A short run fails the reader and reads as no
/// values at all.
fn decode_run<T, const W: usize>(r: &mut WireReader, n: usize, from_le: impl Fn([u8; W]) -> T) -> Vec<T> {
    let run = r.bytes(n.saturating_mul(W));
    run.chunks_exact(W).map(|c| from_le(c.try_into().expect("a chunk of W bytes"))).collect()
}

macro_rules! wire_int {
    ($($t:ty => $rd:ident),+ $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader) -> Self {
                r.$rd() as $t
            }
            fn encode_n(items: &[Self], out: &mut Vec<u8>) {
                encode_run(items, out, |v| v.to_le_bytes());
            }
            fn decode_n(r: &mut WireReader, n: usize) -> Vec<Self> {
                decode_run(r, n, <$t>::from_le_bytes)
            }
        }
    )+};
}

// The signed integers travel as the unsigned ones of their width.
wire_int!(u16 => u16, u32 => u32, u64 => u64, i32 => u32, i64 => u64);

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader) -> Self {
        r.u8()
    }
    fn encode_n(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_n(r: &mut WireReader, n: usize) -> Vec<u8> {
        r.bytes(n).to_vec()
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut WireReader) -> Self {
        f64::from_bits(r.u64())
    }
    fn encode_n(items: &[f64], out: &mut Vec<u8>) {
        encode_run(items, out, |v| v.to_le_bytes());
    }
    fn decode_n(r: &mut WireReader, n: usize) -> Vec<f64> {
        decode_run(r, n, f64::from_le_bytes)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader) -> Self {
        r.u8() != 0
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader) -> Self {}
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader) -> Self {
        let n = r.u32() as usize;
        String::from_utf8(r.bytes(n).to_vec()).unwrap_or_else(|_| {
            r.fail("a UTF-8 string");
            String::new()
        })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_n(self, out);
    }
    fn decode(r: &mut WireReader) -> Self {
        let n = r.count::<T>();
        T::decode_n(r, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader) -> Self {
        match r.u8() {
            0 => None,
            _ => Some(T::decode(r)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader) -> Self {
        Box::new(T::decode(r))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader) -> Self {
        (A::decode(r), B::decode(r))
    }
}

// ---- declaring a codec: one list, both directions -----------------------

/// Implement [`Wire`] for a struct by listing its fields in declaration
/// order; a generic struct lists its type parameters first, and each is
/// bounded by `Wire`:
///
/// ```ignore
/// wire_struct!(FibSeed { n, grain, parent, fib });
/// wire_struct!(<V> TableGot<V> { key, value });
/// ```
///
/// Field types must themselves implement `Wire`. Keep the field list in
/// sync with the struct — the codec is positional.
#[macro_export]
macro_rules! wire_struct {
    (<$($param:ident),*> $ty:ty { $($field:ident),+ $(,)? }) => {
        impl<$($param: $crate::wire::Wire),*> $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )+
            }
            fn decode(r: &mut $crate::wire::WireReader) -> Self {
                Self { $( $field: $crate::wire::Wire::decode(r) ),+ }
            }
        }
    };
    // Crate-private: each field coded in context `$cx` (see `WireIn`).
    ($ty:ident in $cx:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::WireIn<$cx> for $ty {
            fn encode_in(&self, cx: &$cx, out: &mut Vec<u8>) {
                $( $crate::wire::WireIn::encode_in(&self.$field, cx, out); )+
            }
            fn decode_in(cx: &$cx, r: &mut $crate::wire::WireReader) -> Self {
                Self { $( $field: $crate::wire::WireIn::decode_in(cx, r) ),+ }
            }
        }
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::wire_struct!(<> $ty { $($field),+ });
    };
}

/// Implement [`Wire`] for an enum by listing its variants in declaration
/// order — unit, tuple (one name per field) and struct forms:
///
/// ```ignore
/// wire_enum!(Control { Sweep(main), Stop });
/// wire_enum!(Topology { Hypercube, Mesh2D { rows, cols }, Ring, FullyConnected, Bus });
/// ```
///
/// A variant travels as one tag byte, its position in the list, then
/// its fields in the order listed, each by its own `Wire`. The one list
/// drives both directions: `encode` matches on it, so a variant left out
/// does not compile, and `decode` reads the tag with [`WireReader::tag`],
/// so a byte that is no position in it is a recorded error like any
/// other malformation, and the placeholder is the first variant. As with
/// [`wire_struct!`](crate::wire_struct) the codec is positional: keep the
/// list in the enum's order, and append rather than insert.
#[macro_export]
macro_rules! wire_enum {
    // Crate-private: each field coded in context `$cx` (see `WireIn`).
    ($ty:ident in $cx:ty { $($list:tt)+ }) => {
        impl $crate::wire::WireIn<$cx> for $ty {
            fn encode_in(&self, cx: &$cx, out: &mut Vec<u8>) {
                $crate::wire_enum!(@encode self out [cx] $($list)+);
            }
            fn decode_in(cx: &$cx, r: &mut $crate::wire::WireReader) -> Self {
                $crate::wire_enum!(@decode $ty, r [cx] $($list)+)
            }
        }
    };
    ($ty:ty { $($list:tt)+ }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire_enum!(@encode self out [] $($list)+);
            }
            fn decode(r: &mut $crate::wire::WireReader) -> Self {
                $crate::wire_enum!(@decode $ty, r [] $($list)+)
            }
        }
    };
    (@encode $self:tt $out:ident $cx:tt $( $variant:ident
        $( ( $($elem:ident),+ $(,)? ) )?
        $( { $($field:ident),+ $(,)? } )?
    ),+ $(,)?) => {{
        $crate::wire_enum!(@tags $($variant)+);
        match $self {
            $( Self::$variant $( ( $($elem),+ ) )? $( { $($field),+ } )? => {
                $out.push(Tag::$variant as u8);
                $( $( $crate::wire_enum!(@put $cx $elem $out); )+ )?
                $( $( $crate::wire_enum!(@put $cx $field $out); )+ )?
            } )+
        }
    }};
    (@decode $ty:ty, $r:ident $cx:tt $( $variant:ident
        $( ( $($elem:ident),+ $(,)? ) )?
        $( { $($field:ident),+ $(,)? } )?
    ),+ $(,)?) => {{
        $crate::wire_enum!(@tags $($variant)+);
        let count = [$(Tag::$variant as u8),+].len() as u8;
        let tag = $r.tag(count, concat!("a variant tag of ", stringify!($ty)));
        $( if tag == Tag::$variant as u8 {
            return Self::$variant
                $( ( $( $crate::wire_enum!(@get $cx $r $elem) ),+ ) )?
                $( { $( $field: $crate::wire_enum!(@get $cx $r $field) ),+ } )?;
        } )+
        unreachable!("WireReader::tag lets through only the tags listed")
    }};
    // The listed variants as a fieldless enum: `Tag::V as u8` is V's
    // position in the list.
    (@tags $($variant:ident)+) => {
        #[allow(dead_code, clippy::enum_variant_names)]
        enum Tag { $($variant),+ }
    };
    // One field, plainly or in context.
    (@put [] $v:ident $out:ident) => { $crate::wire::Wire::encode($v, $out) };
    (@put [$cx:ident] $v:ident $out:ident) => { $crate::wire::WireIn::encode_in($v, $cx, $out) };
    (@get [] $r:ident $v:ident) => { $crate::wire::Wire::decode($r) };
    (@get [$cx:ident] $r:ident $v:ident) => { $crate::wire::WireIn::decode_in($cx, $r) };
}

/// A codec that needs a context `C` beyond the bytes — what the
/// crate-private `T in C` forms of [`wire_struct!`](crate::wire_struct)
/// and [`wire_enum!`](crate::wire_enum) code each field through. Every
/// [`Wire`] type codes the same in any context; only a field that cannot
/// code itself (a message body, which needs the program's registry)
/// implements it by hand.
pub(crate) trait WireIn<C>: Sized {
    /// Append this value's bytes to `out`.
    fn encode_in(&self, cx: &C, out: &mut Vec<u8>);
    /// Read one value back (a placeholder on malformed input, as for
    /// [`Wire::decode`]).
    fn decode_in(cx: &C, r: &mut WireReader) -> Self;
}

impl<C, T: Wire> WireIn<C> for T {
    fn encode_in(&self, _cx: &C, out: &mut Vec<u8>) {
        self.encode(out);
    }
    fn decode_in(_cx: &C, r: &mut WireReader) -> Self {
        T::decode(r)
    }
}

// ---- kernel id types ---------------------------------------------------

macro_rules! wire_newtype {
    ($rd:ident: $($t:ident),+ $(,)?) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
            fn decode(r: &mut WireReader) -> Self {
                $t(r.$rd())
            }
        }
    )+};
}

wire_newtype!(u32: Pe, ChareKind, EpId, BocId, AccId, MonoId, TableId, RoId);
wire_newtype!(u64: WoId, Cost);

crate::wire_struct!(ChareId { pe, local });
crate::wire_enum!(Notify { Chare(id, ep), Branch(boc, pe, ep) });

/// A typed handle travels as the untyped id it wraps.
macro_rules! wire_handle {
    ($($handle:ident<$p:ident $(: $bound:path)?>),+ $(,)?) => {$(
        impl<$p: 'static $(+ $bound)?> Wire for $handle<$p> {
            fn encode(&self, out: &mut Vec<u8>) {
                self.id.encode(out);
            }
            fn decode(r: &mut WireReader) -> Self {
                $handle::new(Wire::decode(r))
            }
        }
    )+};
}

wire_handle!(Kind<C>, Boc<B>, Acc<A: Accum>, MonoVar<M: Mono>, TableRef<V>, ReadOnly<T>);

impl Wire for BitPrio {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader) -> Self {
        let len = r.u32();
        let bytes = r.bytes(len.div_ceil(8) as usize);
        // A short read comes back empty: the root then.
        let len = if bytes.is_empty() { 0 } else { len };
        BitPrio::from_bytes(bytes, len)
    }
}

crate::wire_enum!(Priority { None, Int(key), Bits(bits) });

// ---- trace types (for shipping worker telemetry to the parent) ---------

crate::wire_enum!(MsgClass { Seed, Chare, Branch, Broadcast, Shared, Qd, Balance, Transport, Batch });
crate::wire_enum!(EntryWhat { Create(kind), Chare(slot), Branch(boc) });
crate::wire_enum!(EventKind {
    EntryBegin { what, ep },
    EntryEnd { msgs_sent },
    MsgSend { to, class, bytes, hops },
    MsgRecv { from, class, bytes },
    SeedKept { kind, hops },
    SeedForwarded { kind, to, hops },
    SeedRedirected { to },
    Retransmit { to, seq },
    QueueSample { len },
    Step { user, span_ns },
});
crate::wire_struct!(TraceEvent { at_ns, pe, kind });

// ---- run options (what the procs backend's `Go` carries to a worker) ---

/// Travels as a `u64`, so the two ends need not share a word size.
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader) -> Self {
        usize::try_from(r.u64()).unwrap_or_else(|_| {
            r.fail("a count that fits a usize");
            0
        })
    }
}

crate::wire_enum!(Topology { Hypercube, Mesh2D { rows, cols }, Ring, FullyConnected, Bus });
crate::wire_enum!(QueueingStrategy { Fifo, Lifo, IntPriority, BitvecPriority });
crate::wire_enum!(BroadcastMode { Tree, Direct });

/// Travels as its `Display` text: the spec grammar's printer and parser
/// already know every variant and ACWN's two numbers.
impl Wire for BalanceStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_string().encode(out);
    }
    fn decode(r: &mut WireReader) -> Self {
        String::decode(r).parse().unwrap_or_else(|_| {
            r.fail("a balance strategy as `Display` prints it");
            BalanceStrategy::Local
        })
    }
}

crate::wire_struct!(ReliableConfig { timeout, seed_retry_limit, window });

/// A unit struct travels as no bytes at all: an `Option` of one is its
/// tag byte alone.
macro_rules! wire_unit {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn encode(&self, _out: &mut Vec<u8>) {}
            fn decode(_r: &mut WireReader) -> Self {
                $ty
            }
        }
    )+};
}

wire_unit!(TraceConfig, MetricsConfig);

// Kernel notification bodies every program may receive.

wire_unit!(QuiescenceMsg);

crate::wire_struct!(crate::shared::WoReady { id });
crate::wire_struct!(crate::shared::TableAck { key, existed });

crate::wire_struct!(<V> crate::shared::TableGot<V> { key, value });
crate::wire_struct!(<V> crate::shared::AccResult<V> { value });

// ---- the body-type registry --------------------------------------------

type EncodeFn = Box<dyn Fn(&dyn Any, &mut Vec<u8>) + Send + Sync>;
type DecodeFn = Box<dyn Fn(&mut WireReader) -> MsgBody + Send + Sync>;
type DecodeSharedFn = Box<dyn Fn(&mut WireReader) -> Arc<dyn Any + Send + Sync> + Send + Sync>;

struct WireEntry {
    name: &'static str,
    encode: EncodeFn,
    decode: DecodeFn,
    decode_shared: DecodeSharedFn,
}

/// Registration-ordered table of message-body codecs.
///
/// Tags are indices into the registration order, so two processes that
/// build the same program get the same tags; [`WireTable::fingerprint`]
/// is checked at the socket handshake to catch any divergence.
pub(crate) struct WireTable {
    tags: HashMap<TypeId, u32>,
    entries: Vec<WireEntry>,
}

impl WireTable {
    /// A table pre-seeded with the primitives and kernel notification
    /// bodies every program may send (fixed tags 0..N).
    pub(crate) fn new() -> Self {
        let mut t = WireTable {
            tags: HashMap::new(),
            entries: Vec::new(),
        };
        t.register::<()>();
        t.register::<bool>();
        t.register::<u8>();
        t.register::<u16>();
        t.register::<u32>();
        t.register::<u64>();
        t.register::<i64>();
        t.register::<f64>();
        t.register::<String>();
        t.register::<QuiescenceMsg>();
        t.register::<crate::shared::WoReady>();
        t.register::<crate::shared::TableAck>();
        t
    }

    /// Register `T`'s codec (idempotent; repeat registrations keep the
    /// first tag).
    pub(crate) fn register<T: Wire + Send + Sync + 'static>(&mut self) {
        let id = TypeId::of::<T>();
        if self.tags.contains_key(&id) {
            return;
        }
        self.tags.insert(id, self.entries.len() as u32);
        self.entries.push(WireEntry {
            name: std::any::type_name::<T>(),
            encode: Box::new(|v, out| {
                v.downcast_ref::<T>().expect("tag/type mismatch").encode(out);
            }),
            decode: Box::new(|r| MsgBody::new(T::decode(r))),
            decode_shared: Box::new(|r| Arc::new(T::decode(r))),
        });
    }

    /// The registered body types by name, in tag order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name)
    }

    /// FNV-1a hash over the registration sequence; parent and workers
    /// compare these at handshake before exchanging envelopes.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in &self.entries {
            eat(e.name.as_bytes());
            eat(&[0xff]);
        }
        h
    }

    /// Encode a type-erased body as `tag + bytes`. Panics (naming the
    /// context and the registered set) if the concrete type was never
    /// registered.
    pub(crate) fn encode_body(&self, what: &str, body: &dyn Any, out: &mut Vec<u8>) {
        let id = body.type_id();
        let Some(&tag) = self.tags.get(&id) else {
            panic!(
                "wire: {what} carries a body type with no registered codec ({id:?}); \
                 register it with ProgramBuilder::wire::<T>() so the procs backend \
                 can serialize it (registered: {})",
                self.names().collect::<Vec<_>>().join(", ")
            )
        };
        tag.encode(out);
        (self.entries[tag as usize].encode)(body, out);
    }

    /// Read a body tag and look its codec up. A tag past the table is
    /// malformed input: it fails the reader, and the placeholder body
    /// is tag 0's `()`.
    fn tagged(&self, r: &mut WireReader) -> &WireEntry {
        let tag = r.u32() as usize;
        self.entries.get(tag).unwrap_or_else(|| {
            r.fail("a body tag inside the wire table");
            &self.entries[0]
        })
    }

    /// Decode a `tag + bytes` body back into a value.
    pub(crate) fn decode_body(&self, r: &mut WireReader) -> MsgBody {
        (self.tagged(r).decode)(r)
    }

    /// Decode a `tag + bytes` body into a shared (`Arc`) value — the
    /// write-once store replicates bodies by reference.
    pub(crate) fn decode_shared(&self, r: &mut WireReader) -> Arc<dyn Any + Send + Sync> {
        (self.tagged(r).decode_shared)(r)
    }
}

// ---- the envelope codec ------------------------------------------------

/// What coding a kernel envelope needs beyond its bytes: the program's
/// registry, for message bodies, and how many envelopes this one sits
/// inside. The registry is an `Arc` because a decoded broadcast's
/// generator keeps it.
pub(crate) struct Frame<'a> {
    reg: &'a Arc<Registry>,
    depth: u32,
}

/// How deep envelopes may nest on the wire. An honest sender nests four
/// deep (`RelData` → `Batch` → `TreeCast` → its blob's envelope); the
/// decoder recurses once per level, so without a bound a frame well
/// under the frame cap could nest deep enough to overflow its stack.
const MAX_NESTING: u32 = 8;

impl<'a> Frame<'a> {
    /// The context of an envelope no other envelope holds.
    fn top(reg: &'a Arc<Registry>) -> Self {
        Frame { reg, depth: 0 }
    }

    /// Decode the envelope one level inside this one, refusing a level
    /// deeper than any sender nests them.
    fn nested(&self, r: &mut WireReader) -> SysMsg {
        let inner = Frame { reg: self.reg, depth: self.depth + 1 };
        if inner.depth > MAX_NESTING {
            r.fail("an envelope nested no deeper than a sender makes them");
        }
        SysMsg::decode_in(&inner, r)
    }
}

// The kernel envelope, declared once. Every body-bearing variant lists
// its body last.
crate::wire_enum!(SysMsg in Frame<'_> {
    Batch(inner),
    TreeCast { origin, counted, bytes, gen },
    NewChare { hops, seed },
    ChareMsg { target, ep, bytes, prio, body },
    BranchMsg { boc, ep, bytes, prio, body },
    AccCollect { acc, token, requester },
    AccPart { acc, token, part },
    MonoUpdate { mono, value },
    TablePut { table, key, bytes, notify, value },
    TableGet { table, key, notify },
    TableDelete { table, key, notify },
    WoStore { wo, bytes, value },
    WoAck { wo },
    QdStart { notify },
    QdPoll { wave },
    QdCount { wave, sent, recv, idle },
    LoadStatus { load },
    WorkReq { origin, ttl },
    WorkNack,
    RelData { seq, bytes, slot },
    RelAck { seqs },
});
crate::wire_struct!(Seed in Frame<'_> { kind, bytes, prio, body });

// The fields only the registry can code.

/// A message body: its wire-table tag, then its bytes.
impl WireIn<Frame<'_>> for MsgBody {
    fn encode_in(&self, cx: &Frame<'_>, out: &mut Vec<u8>) {
        cx.reg.wire.encode_body("a kernel envelope", self.as_any(), out);
    }
    fn decode_in(cx: &Frame<'_>, r: &mut WireReader) -> Self {
        cx.reg.wire.decode_body(r)
    }
}

/// A write-once value: a body, decoded shared.
impl WireIn<Frame<'_>> for Arc<dyn Any + Send + Sync> {
    fn encode_in(&self, cx: &Frame<'_>, out: &mut Vec<u8>) {
        cx.reg.wire.encode_body("a write-once value", &**self, out);
    }
    fn decode_in(cx: &Frame<'_>, r: &mut WireReader) -> Self {
        cx.reg.wire.decode_shared(r)
    }
}

/// A batch: a count, then each envelope one level down.
impl WireIn<Frame<'_>> for Vec<SysMsg> {
    fn encode_in(&self, cx: &Frame<'_>, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for m in self {
            m.encode_in(cx, out);
        }
    }
    fn decode_in(cx: &Frame<'_>, r: &mut WireReader) -> Self {
        let n = r.count::<SysMsg>();
        (0..n).map(|_| cx.nested(r)).collect()
    }
}

/// A broadcast's generator travels as one copy of what it generates, a
/// byte blob; the receiver's generator decodes the blob again per call.
impl WireIn<Frame<'_>> for CastGen {
    fn encode_in(&self, cx: &Frame<'_>, out: &mut Vec<u8>) {
        let mut blob = Vec::new();
        self().encode_in(cx, &mut blob);
        blob.encode(out);
    }
    fn decode_in(cx: &Frame<'_>, r: &mut WireReader) -> Self {
        let blob = Vec::<u8>::decode(r);
        // The generator has no one to report to: refuse a malformed
        // blob here, with the frame.
        let mut inner = WireReader::new(&blob);
        cx.nested(&mut inner);
        if inner.finish().is_err() {
            r.fail("a well-formed TreeCast envelope");
        }
        let reg = Arc::clone(cx.reg);
        Arc::new(move || SysMsg::decode_in(&Frame::top(&reg), &mut WireReader::new(&blob)))
    }
}

/// A reliable frame's slot travels as what it holds, peeked, not taken:
/// the sender keeps co-ownership for retransmission, and an already
/// taken slot is an empty frame (a pure duplicate). The receiver gets a
/// fresh slot — cross-process exactly-once comes from its sequence
/// dedup, not from slot sharing.
impl WireIn<Frame<'_>> for RelSlot {
    fn encode_in(&self, cx: &Frame<'_>, out: &mut Vec<u8>) {
        match self.lock().expect("rel slot").as_ref() {
            None => out.push(0),
            Some(inner) => {
                out.push(1);
                inner.encode_in(cx, out);
            }
        }
    }
    fn decode_in(cx: &Frame<'_>, r: &mut WireReader) -> Self {
        let inner = match r.u8() {
            0 => None,
            _ => Some(cx.nested(r)),
        };
        Arc::new(Mutex::new(inner))
    }
}

/// Append the one kernel envelope a data frame's body is, after its
/// `[sent_ns][bytes]` header (by reference: the reliable layer may send
/// the same slot again).
pub(crate) fn encode_frame(reg: &Arc<Registry>, sys: &SysMsg, out: &mut Vec<u8>) {
    sys.encode_in(&Frame::top(reg), out);
}

/// Decode the one kernel envelope `bytes` are — the body of a data
/// frame, after its header — or say what is wrong with them: the
/// boundary a worker decodes at.
pub(crate) fn decode_frame(reg: &Arc<Registry>, bytes: &[u8]) -> Result<SysMsg, WireError> {
    let mut r = WireReader::new(bytes);
    let sys = SysMsg::decode_in(&Frame::top(reg), &mut r);
    r.finish().map(|()| sys)
}

/// A frame no sender makes: `depth` `RelData` envelopes, each in the
/// slot of the one before (14 bytes a level), around a `WorkNack`. What
/// the nesting bound is held to, here and by a worker's crash hook.
pub(crate) fn reldata_nest(reg: &Arc<Registry>, depth: u32, out: &mut Vec<u8>) {
    let slot = Arc::new(Mutex::new(Some(SysMsg::WorkNack)));
    let mut level = Vec::new();
    encode_frame(reg, &SysMsg::RelData { seq: 0, bytes: 0, slot }, &mut level);
    let (head, nack) = level.split_at(14);
    for _ in 0..depth {
        out.extend_from_slice(head);
    }
    out.extend_from_slice(nack);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::priority::Priority;

    fn encoded(reg: &Arc<Registry>, sys: &SysMsg) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(reg, sys, &mut out);
        out
    }

    /// Decode one envelope that no other holds.
    fn decode_top(reg: &Arc<Registry>, r: &mut WireReader) -> SysMsg {
        SysMsg::decode_in(&Frame::top(reg), r)
    }

    /// The tag `sys` travels under: its position in the enum's list.
    fn tag_of(sys: SysMsg) -> u8 {
        encoded(&test_registry(), &sys)[0]
    }

    /// A broadcast of `QdPoll { wave: 4 }`, eight bytes declared.
    fn tree_cast() -> SysMsg {
        SysMsg::TreeCast { origin: Pe(1), counted: false, bytes: 8, gen: Arc::new(|| SysMsg::QdPoll { wave: 4 }) }
    }

    fn roundtrip_sys(reg: &Arc<Registry>, sys: &SysMsg) -> SysMsg {
        let out = encoded(reg, sys);
        let mut r = WireReader::new(&out);
        let back = decode_top(reg, &mut r);
        assert_eq!(r.remaining(), 0, "codec must be self-delimiting");
        back
    }

    fn test_registry() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    #[test]
    fn primitive_roundtrips() {
        let mut out = Vec::new();
        42u64.encode(&mut out);
        (-7i64).encode(&mut out);
        3.5f64.encode(&mut out);
        true.encode(&mut out);
        "hello".to_string().encode(&mut out);
        vec![1u32, 2, 3].encode(&mut out);
        Some(9u8).encode(&mut out);
        Option::<u8>::None.encode(&mut out);
        let mut r = WireReader::new(&out);
        assert_eq!(u64::decode(&mut r), 42);
        assert_eq!(i64::decode(&mut r), -7);
        assert_eq!(f64::decode(&mut r), 3.5);
        assert!(bool::decode(&mut r));
        assert_eq!(String::decode(&mut r), "hello");
        assert_eq!(Vec::<u32>::decode(&mut r), vec![1, 2, 3]);
        assert_eq!(Option::<u8>::decode(&mut r), Some(9));
        assert_eq!(Option::<u8>::decode(&mut r), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bit_priority_roundtrips_exactly() {
        let mut p = BitPrio::root();
        for (i, bit) in [true, false, true, true, false, false, true, false, true, true]
            .iter()
            .enumerate()
        {
            p.push_bit(*bit);
            // Roundtrip at every length, including non-byte-aligned.
            let mut out = Vec::new();
            p.encode(&mut out);
            let mut r = WireReader::new(&out);
            let back = BitPrio::decode(&mut r);
            assert_eq!(back.len(), p.len(), "len at step {i}");
            for j in 0..p.len() {
                assert_eq!(back.bit(j), p.bit(j), "bit {j} at step {i}");
            }
        }
    }

    #[test]
    fn bit_priority_padding_bits_are_dropped_on_decode() {
        // Three bits, sent with every padding bit of their byte set.
        let mut r = WireReader::new(&[3, 0, 0, 0, 0xff]);
        let p = BitPrio::decode(&mut r);
        assert_eq!(p, BitPrio::root().child(0b111, 3));
        let mut out = Vec::new();
        p.encode(&mut out);
        assert_eq!(out, [3, 0, 0, 0, 0xe0]);
    }

    #[test]
    fn priority_variants_roundtrip() {
        let reg = test_registry();
        for prio in [
            Priority::None,
            Priority::Int(-12345),
            Priority::Bits(BitPrio::root().child(5, 3)),
        ] {
            let sys = SysMsg::ChareMsg {
                target: ChareId {
                    pe: Pe(2),
                    local: 7,
                },
                ep: EpId(3),
                body: MsgBody::new(42u64),
                bytes: 8,
                prio: prio.clone(),
            };
            match roundtrip_sys(&reg, &sys) {
                SysMsg::ChareMsg {
                    target,
                    ep,
                    body,
                    bytes,
                    prio: p,
                } => {
                    assert_eq!(target, ChareId { pe: Pe(2), local: 7 });
                    assert_eq!(ep, EpId(3));
                    assert_eq!(bytes, 8);
                    assert_eq!(body.take::<u64>().unwrap(), 42);
                    assert_eq!(p.int_key(), prio.int_key());
                }
                ref _other => panic!("wrong variant"),
            }
        }
    }

    #[test]
    fn treecast_generator_survives_the_wire() {
        let reg = test_registry();
        let sys = SysMsg::TreeCast {
            origin: Pe(1),
            counted: true,
            bytes: 16,
            gen: Arc::new(|| SysMsg::MonoUpdate {
                mono: MonoId(0),
                value: MsgBody::new(99u64),
            }),
        };
        match roundtrip_sys(&reg, &sys) {
            SysMsg::TreeCast {
                origin,
                counted,
                bytes,
                gen,
            } => {
                assert_eq!(origin, Pe(1));
                assert!(counted);
                assert_eq!(bytes, 16);
                // The rebuilt generator must mint fresh copies per call.
                for _ in 0..3 {
                    match gen() {
                        SysMsg::MonoUpdate { mono, value } => {
                            assert_eq!(mono, MonoId(0));
                            assert_eq!(value.take::<u64>().unwrap(), 99);
                        }
                        ref _other => panic!("wrong inner"),
                    }
                }
            }
            ref _other => panic!("wrong variant"),
        }
    }

    #[test]
    fn reldata_decodes_into_fresh_slot() {
        let reg = test_registry();
        let slot = Arc::new(Mutex::new(Some(SysMsg::QdPoll { wave: 4 })));
        let sys = SysMsg::RelData {
            seq: 9,
            bytes: 32,
            slot: Arc::clone(&slot),
        };
        match roundtrip_sys(&reg, &sys) {
            SysMsg::RelData {
                seq,
                bytes,
                slot: got,
            } => {
                assert_eq!((seq, bytes), (9, 32));
                assert!(!Arc::ptr_eq(&slot, &got), "receiver gets its own slot");
                match got.lock().unwrap().take() {
                    Some(SysMsg::QdPoll { wave }) => assert_eq!(wave, 4),
                    ref _other => panic!("wrong inner"),
                }
                // The sender's slot is untouched — still retransmittable.
                assert!(slot.lock().unwrap().is_some());
            }
            ref _other => panic!("wrong variant"),
        }
    }

    #[test]
    fn taken_reldata_slot_encodes_as_empty_frame() {
        let reg = test_registry();
        let sys = SysMsg::RelData {
            seq: 2,
            bytes: 8,
            slot: Arc::new(Mutex::new(None)),
        };
        match roundtrip_sys(&reg, &sys) {
            SysMsg::RelData { slot, .. } => assert!(slot.lock().unwrap().is_none()),
            ref _other => panic!("wrong variant"),
        }
    }

    #[test]
    fn batch_and_control_variants_roundtrip() {
        let reg = test_registry();
        let sys = SysMsg::Batch(vec![
            SysMsg::QdCount {
                wave: 1,
                sent: 10,
                recv: 9,
                idle: false,
            },
            SysMsg::LoadStatus { load: 3 },
            SysMsg::WorkReq {
                origin: Pe(2),
                ttl: 5,
            },
            SysMsg::WorkNack,
            SysMsg::RelAck { seqs: vec![1, 2, 5] },
            SysMsg::WoAck { wo: WoId(77) },
        ]);
        match roundtrip_sys(&reg, &sys) {
            SysMsg::Batch(inner) => {
                assert_eq!(inner.len(), 6);
                assert!(matches!(inner[0], SysMsg::QdCount { wave: 1, sent: 10, recv: 9, idle: false }));
                assert!(matches!(inner[1], SysMsg::LoadStatus { load: 3 }));
                assert!(matches!(inner[3], SysMsg::WorkNack));
                match &inner[4] {
                    SysMsg::RelAck { seqs } => assert_eq!(seqs, &vec![1, 2, 5]),
                    _other => panic!("wrong ack"),
                }
            }
            ref _other => panic!("wrong variant"),
        }
    }

    #[test]
    fn wostore_shared_body_roundtrips() {
        let reg = test_registry();
        let sys = SysMsg::WoStore {
            wo: WoId(3),
            value: Arc::new("shared".to_string()),
            bytes: 6,
        };
        match roundtrip_sys(&reg, &sys) {
            SysMsg::WoStore { wo, value, bytes } => {
                assert_eq!((wo, bytes), (WoId(3), 6));
                assert_eq!(value.downcast_ref::<String>().unwrap(), "shared");
            }
            ref _other => panic!("wrong variant"),
        }
    }

    #[test]
    #[should_panic(expected = "no registered codec")]
    fn unregistered_body_type_panics_with_guidance() {
        struct Opaque;
        let reg = test_registry();
        let sys = SysMsg::MonoUpdate {
            mono: MonoId(0),
            value: MsgBody::new(Opaque),
        };
        encoded(&reg, &sys);
    }

    /// Bytes as hex, for pinning a layout.
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One envelope of every variant, each small body a `u8` (wire-table
    /// tag 2), and the bytes it travels as: a change here is a change of
    /// the wire format. Spaces separate fields. `NewChare` carries `hops`
    /// ahead of its seed, so that every body-bearing envelope ends in its
    /// body.
    #[test]
    fn every_envelope_keeps_its_layout() {
        let reg = test_registry();
        let chare = || Notify::Chare(ChareId { pe: Pe(1), local: 2 }, EpId(3));
        let body = || MsgBody::new(7u8);
        let cases: Vec<(SysMsg, &str)> = vec![
            (SysMsg::Batch(vec![SysMsg::WorkNack]), "00 01000000 12"),
            (
                SysMsg::TreeCast { origin: Pe(1), counted: true, bytes: 2, gen: Arc::new(|| SysMsg::QdPoll { wave: 3 }) },
                "01 01000000 01 02000000 09000000 0e 0300000000000000",
            ),
            (
                SysMsg::NewChare {
                    seed: Seed { kind: ChareKind(1), body: body(), bytes: 1, prio: Priority::Int(-2) },
                    hops: 3,
                },
                "02 03000000 01000000 01000000 01 feffffffffffffff 02000000 07",
            ),
            (
                SysMsg::ChareMsg {
                    target: ChareId { pe: Pe(1), local: 2 },
                    ep: EpId(3),
                    body: body(),
                    bytes: 1,
                    prio: Priority::None,
                },
                "03 01000000 02000000 03000000 01000000 00 02000000 07",
            ),
            (
                SysMsg::BranchMsg {
                    boc: BocId(1),
                    ep: EpId(2),
                    body: body(),
                    bytes: 1,
                    prio: Priority::Bits(BitPrio::root().child(5, 3)),
                },
                "04 01000000 02000000 01000000 02 03000000 a0 02000000 07",
            ),
            (SysMsg::AccCollect { acc: AccId(1), token: 2, requester: Pe(3) }, "05 01000000 0200000000000000 03000000"),
            (SysMsg::AccPart { acc: AccId(1), token: 2, part: body() }, "06 01000000 0200000000000000 02000000 07"),
            (SysMsg::MonoUpdate { mono: MonoId(1), value: body() }, "07 01000000 02000000 07"),
            (
                SysMsg::TablePut { table: TableId(1), key: 2, value: body(), bytes: 1, notify: Some(chare()) },
                "08 01000000 0200000000000000 01000000 01 00 01000000 02000000 03000000 02000000 07",
            ),
            (
                SysMsg::TableGet { table: TableId(1), key: 2, notify: Notify::Branch(BocId(1), Pe(2), EpId(3)) },
                "09 01000000 0200000000000000 01 01000000 02000000 03000000",
            ),
            (SysMsg::TableDelete { table: TableId(1), key: 2, notify: None }, "0a 01000000 0200000000000000 00"),
            (SysMsg::WoStore { wo: WoId(1), value: Arc::new(7u8), bytes: 1 }, "0b 0100000000000000 01000000 02000000 07"),
            (SysMsg::WoAck { wo: WoId(1) }, "0c 0100000000000000"),
            (SysMsg::QdStart { notify: chare() }, "0d 00 01000000 02000000 03000000"),
            (SysMsg::QdPoll { wave: 1 }, "0e 0100000000000000"),
            (SysMsg::QdCount { wave: 1, sent: 2, recv: 3, idle: true }, "0f 0100000000000000 0200000000000000 0300000000000000 01"),
            (SysMsg::LoadStatus { load: 1 }, "10 01000000"),
            (SysMsg::WorkReq { origin: Pe(1), ttl: 2 }, "11 01000000 02"),
            (SysMsg::WorkNack, "12"),
            (
                SysMsg::RelData { seq: 1, bytes: 2, slot: Arc::new(Mutex::new(Some(SysMsg::WorkNack))) },
                "13 0100000000000000 02000000 01 12",
            ),
            (SysMsg::RelAck { seqs: vec![1, 2] }, "14 02000000 0100000000000000 0200000000000000"),
        ];
        for (tag, (sys, want)) in cases.iter().enumerate() {
            let got = hex(&encoded(&reg, sys));
            assert_eq!(got, want.replace(' ', ""), "tag {tag}");
            assert_eq!(got[..2], format!("{tag:02x}"), "the variants in tag order");
        }

        use crate::proc::transport::{CtlMsg, Final, Go, Hello};
        let ctl = |msg: &CtlMsg| {
            let mut out = Vec::new();
            msg.encode(&mut out);
            hex(&out)
        };
        let opts = crate::proc::ProcOpts {
            npes: 2,
            topology: Topology::Ring,
            batch_bytes: 1,
            batch_frames: 1,
            loss: None,
            crash: None,
            run: crate::program::RunOpts::default(),
        };
        let go = Go { peers: vec!["a".into()], opts };
        let hello = Hello { rank: 1, fingerprint: 2, data_addr: "b".into() };
        for (msg, want) in [
            (CtlMsg::Hello(hello), "00 01000000 0200000000000000 01000000 62"),
            (CtlMsg::Go(Box::new(go)), "01 01000000 01000000 61 0200000000000000 02 0100000000000000 0100000000000000 00 00 00 05000000 6c6f63616c 00 00 fecaed5e00000000 00 00 00"),
            (CtlMsg::Ready, "02"),
            (CtlMsg::Start, "03"),
            (CtlMsg::Stopped { result: Some(vec![9]) }, "04 01 01000000 09"),
            (CtlMsg::Halt, "05"),
        ] {
            assert_eq!(ctl(&msg), want.replace(' ', ""), "{msg:?}");
        }
        // The kernel counters in declaration order, `user_sent` one and
        // the rest zero, then an empty shard: no events, none dropped, no
        // metrics.
        let counters = crate::stats::KernelCounters { user_sent: 1, ..Default::default() };
        let fin = Final { end_ns: 5, shard: crate::probe::Shard { counters, ..Default::default() } };
        let counted = format!("0100000000000000 {}", "00".repeat(8 * 26));
        let want = format!("06 0500000000000000 {counted} 00000000 0000000000000000 00");
        assert_eq!(ctl(&CtlMsg::Final(Box::new(fin))), want.replace(' ', ""));
    }

    #[global_allocator]
    static ALLOCATOR: crate::alloc_watch::Watching = crate::alloc_watch::Watching;

    pub(crate) use crate::alloc_watch::largest_alloc;

    /// Decode hostile input; what the reader recorded, and the largest
    /// allocation the decoding requested.
    fn decode_hostile(bytes: &[u8], decode: impl FnOnce(&mut WireReader)) -> (WireError, usize) {
        let mut r = WireReader::new(bytes);
        let largest = largest_alloc(|| decode(&mut r));
        assert_eq!(r.remaining(), 0, "a failed reader is an exhausted one");
        (r.finish().expect_err("hostile input must be refused"), largest)
    }

    #[test]
    fn hostile_prefixes_and_tags_panic_by_name_without_allocating() {
        let reg = test_registry();
        // Each case: a frame whose length prefix or body tag (`ff ff ff
        // ff`) promises far more than follows it, padded to 256 bytes.
        let frame = |head: &[u8]| [head, &[0xff; 4], &[0; 256][head.len() + 4..]].concat();
        let check = |what: &str, wanted: &'static str, at: usize, (err, largest): (WireError, usize)| {
            assert_eq!(err, WireError { at, wanted }, "{what}");
            assert!(err.to_string().starts_with("wire:"), "{what}: reads {err}");
            assert!(largest <= 256, "{what}: asked the allocator for {largest} bytes");
        };
        let prefix = "a length prefix within the bytes left";
        check(
            "Vec<u64> length",
            prefix,
            4,
            decode_hostile(&frame(&[]), |r| drop(Vec::<u64>::decode(r))),
        );
        let rel_ack = tag_of(SysMsg::RelAck { seqs: Vec::new() });
        let batch = tag_of(SysMsg::Batch(Vec::new()));
        let mono = tag_of(SysMsg::MonoUpdate { mono: MonoId(0), value: MsgBody::new(()) });
        for (what, wanted, bytes) in [
            ("RelAck seqs", prefix, frame(&[rel_ack])),
            ("Batch count", prefix, frame(&[batch])),
            ("TreeCast blob", prefix, frame(&[tag_of(tree_cast()), 0, 0, 0, 0, 1, 8, 0, 0, 0])),
            ("body tag", "a body tag inside the wire table", frame(&[mono, 0, 0, 0, 0])),
        ] {
            let at = bytes.iter().position(|&b| b == 0xff).expect("the ff run") + 4;
            check(what, wanted, at, decode_hostile(&bytes, |r| drop(decode_top(&reg, r))));
        }
    }

    #[test]
    fn the_first_malformation_is_the_one_recorded() {
        let reg = test_registry();
        let sys = |bytes: &[u8]| decode_hostile(bytes, |r| drop(decode_top(&reg, r))).0;
        // A short read: QdCount wants 8 + 8 + 8 + 1 bytes after its tag.
        let qd_count = tag_of(SysMsg::QdCount { wave: 0, sent: 0, recv: 0, idle: false });
        let short = sys(&[qd_count, 1, 2, 3]);
        assert_eq!((short.at, short.wanted), (1, "more bytes than are left"));
        // No such envelope; the placeholder is an empty batch.
        let mut r = WireReader::new(&[0xff, 9, 9]);
        assert!(matches!(decode_top(&reg, &mut r), SysMsg::Batch(inner) if inner.is_empty()));
        assert_eq!(r.finish(), Err(WireError { at: 1, wanted: "a variant tag of SysMsg" }));
        // A string of two bytes that are not UTF-8, then trailing bytes
        // the reader no longer offers.
        let mut r = WireReader::new(&[2, 0, 0, 0, 0xc3, 0x28, 7, 7]);
        assert_eq!(String::decode(&mut r), "");
        assert_eq!((r.remaining(), u64::decode(&mut r)), (0, 0));
        assert_eq!(r.finish(), Err(WireError { at: 6, wanted: "a UTF-8 string" }));
        // A TreeCast whose blob is cut short is refused with its frame,
        // not when the generator first runs.
        let mut cast = encoded(&reg, &tree_cast());
        let intact = cast.clone();
        let blob_len = cast.len() - 14;
        cast[10] = blob_len as u8 - 1;
        cast.pop();
        assert_eq!(sys(&cast).wanted, "a well-formed TreeCast envelope");
        let mut r = WireReader::new(&intact);
        decode_top(&reg, &mut r);
        assert_eq!(r.finish(), Ok(()));
        // Nothing malformed, but bytes left over: also not one value.
        let trailing = [tag_of(SysMsg::WorkNack), 0];
        let mut r = WireReader::new(&trailing);
        decode_top(&reg, &mut r);
        assert_eq!(r.finish(), Err(WireError { at: 1, wanted: "the end of the frame" }));
    }

    #[test]
    fn a_nest_deeper_than_a_sender_makes_is_refused_not_recursed_into() {
        let reg = test_registry();
        let nest = |depth| {
            let mut bytes = Vec::new();
            reldata_nest(&reg, depth, &mut bytes);
            bytes
        };
        // 1.4 MB, well under the frame cap: one stack frame per level
        // would run a worker's stack out long before the bytes did.
        let deep = nest(100_000);
        assert_eq!(deep.len(), 14 * 100_000 + 1);
        let err = decode_frame(&reg, &deep).err().expect("no sender nests 100 000 deep");
        assert_eq!(err.wanted, "an envelope nested no deeper than a sender makes them");
        assert_eq!(err.at, 14 * (MAX_NESTING as usize + 1), "refused at the first level too deep");
        assert!(decode_frame(&reg, &nest(MAX_NESTING)).is_ok());
        assert!(decode_frame(&reg, &nest(MAX_NESTING + 1)).is_err());
        // The same bound through a batch and a broadcast's blob.
        let batched = |inner: &[u8]| [&[tag_of(SysMsg::Batch(Vec::new())), 1, 0, 0, 0][..], inner].concat();
        assert!(decode_frame(&reg, &batched(&nest(MAX_NESTING - 1))).is_ok());
        assert!(decode_frame(&reg, &batched(&nest(MAX_NESTING))).is_err());
        let cast = |inner: &[u8]| {
            let mut out = vec![tag_of(tree_cast()), 0, 0, 0, 0, 1, 8, 0, 0, 0];
            inner.to_vec().encode(&mut out);
            out
        };
        assert!(decode_frame(&reg, &cast(&nest(MAX_NESTING - 1))).is_ok());
        let err = decode_frame(&reg, &cast(&nest(MAX_NESTING))).err().expect("a level too deep");
        assert_eq!(err.wanted, "a well-formed TreeCast envelope");
        // What an honest sender nests deepest: a reliable frame around a
        // batch around a broadcast of an envelope.
        let slot = Arc::new(Mutex::new(Some(SysMsg::Batch(vec![tree_cast()]))));
        let honest = encoded(&reg, &SysMsg::RelData { seq: 1, bytes: 8, slot });
        assert!(decode_frame(&reg, &honest).is_ok());
    }

    /// `value`'s bytes, which must decode back to it and to nothing more.
    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) -> Vec<u8> {
        let mut out = Vec::new();
        value.encode(&mut out);
        let mut r = WireReader::new(&out);
        assert_eq!((T::decode(&mut r), r.finish()), (value, Ok(())));
        out
    }

    #[test]
    fn a_listed_enum_travels_as_its_position_then_its_fields() {
        // Unit, tuple and struct variants; the tag is the list position.
        assert_eq!(roundtrip(MsgClass::Seed), [0]);
        assert_eq!(roundtrip(MsgClass::Batch), [8]);
        assert_eq!(roundtrip(BroadcastMode::Direct), [1]);
        for (i, q) in QueueingStrategy::ALL.into_iter().enumerate() {
            assert_eq!(roundtrip(q), [i as u8]);
        }
        assert_eq!(roundtrip(Notify::Chare(ChareId { pe: Pe(2), local: 7 }, EpId(3)))[0], 0);
        let branch = roundtrip(Notify::Branch(BocId(9), Pe(1), EpId(4)));
        assert_eq!(branch, [1, 9, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0]);
        assert_eq!(roundtrip(EntryWhat::Chare(5)), [1, 5, 0, 0, 0]);
        assert_eq!(roundtrip(Topology::Mesh2D { rows: 2, cols: 3 })[0], 1);
        assert_eq!(roundtrip(Topology::Bus), [4]);
        assert_eq!(roundtrip(EventKind::QueueSample { len: 6 }), [8, 6, 0, 0, 0]);
        assert_eq!(roundtrip(EventKind::Step { user: true, span_ns: 2 }), [9, 1, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(roundtrip(EventKind::EntryBegin { what: EntryWhat::Create(ChareKind(1)), ep: None })[0], 0);
        // `Priority` has no `PartialEq`; its three shapes by their keys.
        for prio in [Priority::None, Priority::Int(-3), Priority::Bits(BitPrio::root().child(2, 2))] {
            let mut out = Vec::new();
            prio.encode(&mut out);
            let back = Priority::decode(&mut WireReader::new(&out));
            assert_eq!(format!("{back:?}"), format!("{prio:?}"));
        }
        // A byte that is no position in the list is a recorded error
        // naming the enum, and the placeholder is the first variant.
        let mut r = WireReader::new(&[9, 1, 2, 3]);
        assert_eq!(MsgClass::decode(&mut r), MsgClass::Seed);
        assert_eq!(r.finish(), Err(WireError { at: 1, wanted: "a variant tag of MsgClass" }));
        let mut r = WireReader::new(&[2]);
        assert_eq!(BroadcastMode::decode(&mut r), BroadcastMode::Tree);
        assert_eq!(r.finish().unwrap_err().wanted, "a variant tag of BroadcastMode");
        // A tag with its fields cut short reads as exhausted, as ever.
        let mut r = WireReader::new(&branch[..6]);
        let _ = Notify::decode(&mut r);
        assert_eq!(r.finish().unwrap_err().wanted, "more bytes than are left");
    }

    #[test]
    fn fingerprint_tracks_registration_sequence() {
        let a = WireTable::new();
        let b = WireTable::new();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same sequence, same print");
        let mut c = WireTable::new();
        c.register::<Vec<u64>>();
        assert_ne!(a.fingerprint(), c.fingerprint(), "extra type changes print");
        // Idempotent re-registration keeps the fingerprint (and tags).
        let mut d = WireTable::new();
        d.register::<Vec<u64>>();
        d.register::<Vec<u64>>();
        assert_eq!(c.fingerprint(), d.fingerprint());
        assert_eq!(c.names().count(), d.names().count());
    }

    #[test]
    fn trace_event_roundtrips() {
        let evs = vec![
            TraceEvent {
                at_ns: 5,
                pe: Pe(1),
                kind: EventKind::Retransmit { to: Pe(2), seq: 7 },
            },
            TraceEvent {
                at_ns: 9,
                pe: Pe(0),
                kind: EventKind::MsgSend {
                    to: Pe(3),
                    class: MsgClass::Seed,
                    bytes: 48,
                    hops: 2,
                },
            },
            TraceEvent {
                at_ns: 11,
                pe: Pe(2),
                kind: EventKind::EntryBegin {
                    what: EntryWhat::Branch(BocId(1)),
                    ep: Some(EpId(4)),
                },
            },
        ];
        let mut out = Vec::new();
        evs.encode(&mut out);
        let mut r = WireReader::new(&out);
        assert_eq!(Vec::<TraceEvent>::decode(&mut r), evs);
        assert_eq!(r.remaining(), 0);
    }

    /// `items` as a `Vec` body, held to the format a run must keep: its
    /// bytes are the `u32` count and then each element's bytes (`le`,
    /// written out here one element at a time); they decode back to
    /// `items` bit for bit; and every cut of them is refused, not a panic.
    fn run_keeps_the_wire_format<T: Wire, const W: usize>(items: Vec<T>, le: impl Fn(&T) -> [u8; W]) {
        let mut want = (items.len() as u32).to_le_bytes().to_vec();
        for v in &items {
            want.extend_from_slice(&le(v));
        }
        let mut got = Vec::new();
        items.encode(&mut got);
        assert_eq!(got, want, "{} elements", items.len());
        let mut r = WireReader::new(&got);
        let back = Vec::<T>::decode(&mut r);
        assert_eq!(r.finish(), Ok(()));
        assert!(back.iter().map(&le).eq(items.iter().map(&le)), "{} elements", items.len());
        for cut in 0..got.len() {
            let mut r = WireReader::new(&got[..cut]);
            drop(Vec::<T>::decode(&mut r));
            let err = r.finish().expect_err("a cut run is refused");
            assert_ne!(err.wanted, "the end of the frame", "cut at {cut}: a malformation, not trailing bytes");
        }
    }

    /// Runs of 0 to 300 random values.
    fn runs<T: proptest::prelude::Arbitrary>() -> impl proptest::prelude::Strategy<Value = Vec<T>> {
        proptest::collection::vec(proptest::prelude::any::<T>(), 0..301)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn a_run_of_u8_keeps_the_wire_format(items in runs::<u8>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        #[test]
        fn a_run_of_u16_keeps_the_wire_format(items in runs::<u16>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        #[test]
        fn a_run_of_u32_keeps_the_wire_format(items in runs::<u32>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        #[test]
        fn a_run_of_u64_keeps_the_wire_format(items in runs::<u64>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        #[test]
        fn a_run_of_i32_keeps_the_wire_format(items in runs::<i32>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        #[test]
        fn a_run_of_i64_keeps_the_wire_format(items in runs::<i64>()) {
            run_keeps_the_wire_format(items, |v| v.to_le_bytes());
        }

        /// Any bits at all, NaN payloads and signed zeros among them.
        #[test]
        fn a_run_of_f64_keeps_the_wire_format(bits in runs::<u64>()) {
            run_keeps_the_wire_format(bits.into_iter().map(f64::from_bits).collect(), |v| v.to_bits().to_le_bytes());
        }
    }

    /// Two small bodies, byte for byte: the count, then the elements.
    #[test]
    fn small_runs_keep_their_bytes() {
        assert_eq!(hex(&roundtrip(vec![1u8, 0x7f, 0xff])), "03000000017fff");
        let floats = roundtrip(vec![1.0f64, -0.0, f64::INFINITY]);
        assert_eq!(hex(&floats), "03000000 000000000000f03f 0000000000000080 000000000000f07f".replace(' ', ""));
    }
}
