//! Message bodies, and all of the kernel's `unsafe` code for them.
//!
//! The fields of [`MsgBody`] are private to this module because the
//! unsafe code relies on them: `slot` holds a live value of the type
//! `vt` was made for, from `MsgBody::new` until the body is taken,
//! turned into a box or dropped, each of which happens once. Where a
//! type's value lives is fixed by its size and alignment alone (`fits`),
//! so code that names the type finds it directly; code that does not
//! goes through the type's `VTable`.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop, MaybeUninit};

/// The in-place storage: six machine words.
type Slot = MaybeUninit<[usize; 6]>;

/// The largest value, in bytes, a body stores without boxing it.
pub const INLINE_BYTES: usize = mem::size_of::<Slot>();

/// Whether a `T` is written into the slot itself; if not, a `Box<T>` is.
const fn fits<T>() -> bool {
    mem::size_of::<T>() <= INLINE_BYTES && mem::align_of::<T>() <= mem::align_of::<Slot>()
}

/// An owned, type-erased message body: one value of any `Send` type.
///
/// Every seed, entry-point message, reply and shared-variable value
/// travels as a body. A value of at most [`INLINE_BYTES`] bytes and at
/// most pointer alignment is written into the body itself, so the
/// envelope that carries the body carries the value too: sending it
/// costs no heap block of its own, and the receiving PE frees none. A
/// larger or more-aligned value is boxed, and the body holds the box.
///
/// Like the `Box<dyn Any + Send>` it replaces, a body is `Send` but not
/// `Sync`: the value it holds need not be `Sync`.
pub struct MsgBody {
    slot: Slot,
    vt: &'static VTable,
    _not_sync: PhantomData<Cell<()>>,
}

/// What a body knows of the type it holds.
struct VTable {
    type_id: TypeId,
    /// # Safety
    /// The slot holds a live value of this table's type.
    as_any: unsafe fn(&Slot) -> &(dyn Any + Send),
    /// # Safety
    /// As for `as_any`; the value is dead afterwards.
    drop: unsafe fn(&mut Slot),
    /// # Safety
    /// As for `drop`.
    into_box: unsafe fn(&mut Slot) -> Box<dyn Any + Send>,
}

/// The table of one stored type.
struct Stored<T>(PhantomData<T>);

impl<T: Any + Send> Stored<T> {
    const VT: &'static VTable = &VTable {
        type_id: TypeId::of::<T>(),
        as_any: as_any::<T>,
        drop: drop_value::<T>,
        into_box: into_box::<T>,
    };
}

/// The `T` a slot holds.
///
/// # Safety
/// `slot` holds a live `T`, written by `MsgBody::new::<T>`.
unsafe fn value<T>(slot: &Slot) -> &T {
    if fits::<T>() {
        // SAFETY: a `T` that fits was written at the slot's start, which
        // is aligned for it (`fits` checks), and is live (caller).
        unsafe { &*slot.as_ptr().cast::<T>() }
    } else {
        // SAFETY: a `T` that does not fit is held by the live `Box<T>`
        // written at the slot's start (caller); a box is one pointer.
        unsafe { &*slot.as_ptr().cast::<Box<T>>() }
    }
}

/// The `T` a slot holds, mutably.
///
/// # Safety
/// As for `value`.
unsafe fn value_mut<T>(slot: &mut Slot) -> &mut T {
    if fits::<T>() {
        // SAFETY: as in `value`; the `&mut` slot makes the access unique.
        unsafe { &mut *slot.as_mut_ptr().cast::<T>() }
    } else {
        // SAFETY: as in `value`; the `&mut` slot makes the access unique.
        unsafe { &mut *slot.as_mut_ptr().cast::<Box<T>>() }
    }
}

/// Move the `T` out of a slot.
///
/// # Safety
/// As for `value`; the slot's value is dead afterwards, so its owner
/// must not use or drop it again.
unsafe fn read<T>(slot: &mut Slot) -> T {
    if fits::<T>() {
        // SAFETY: as in `value`; the caller gives up the value.
        unsafe { slot.as_ptr().cast::<T>().read() }
    } else {
        // SAFETY: as in `value`; the caller gives up the box.
        unsafe { *slot.as_ptr().cast::<Box<T>>().read() }
    }
}

/// # Safety
/// As for `value`.
unsafe fn as_any<T: Any + Send>(slot: &Slot) -> &(dyn Any + Send) {
    // SAFETY: the caller's guarantee is `value`'s.
    unsafe { value::<T>(slot) }
}

/// # Safety
/// As for `read`.
unsafe fn drop_value<T>(slot: &mut Slot) {
    if fits::<T>() {
        // SAFETY: as in `value`; the caller gives up the value.
        unsafe { slot.as_mut_ptr().cast::<T>().drop_in_place() }
    } else {
        // SAFETY: as in `value`; the caller gives up the box.
        unsafe { slot.as_mut_ptr().cast::<Box<T>>().drop_in_place() }
    }
}

/// # Safety
/// As for `read`.
unsafe fn into_box<T: Any + Send>(slot: &mut Slot) -> Box<dyn Any + Send> {
    if fits::<T>() {
        // SAFETY: the caller's guarantee is `read`'s.
        Box::new(unsafe { read::<T>(slot) })
    } else {
        // SAFETY: as in `value`; the caller gives up the box, which is
        // handed on as it is.
        unsafe { slot.as_ptr().cast::<Box<T>>().read() }
    }
}

impl MsgBody {
    /// Wrap `value`: in place if it fits, else boxed.
    pub fn new<T: Any + Send>(value: T) -> MsgBody {
        let mut slot = Slot::uninit();
        if fits::<T>() {
            // SAFETY: the slot is at least as large and as aligned as a
            // `T` (`fits`), and nothing lives in it yet.
            unsafe { slot.as_mut_ptr().cast::<T>().write(value) }
        } else {
            // SAFETY: a box is one pointer, which the slot holds and is
            // aligned for; nothing lives in the slot yet.
            unsafe { slot.as_mut_ptr().cast::<Box<T>>().write(Box::new(value)) }
        }
        MsgBody {
            slot,
            vt: Stored::<T>::VT,
            _not_sync: PhantomData,
        }
    }

    /// Whether the body holds a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.vt.type_id == TypeId::of::<T>()
    }

    /// Move the value out if it is a `T`; otherwise hand the body back
    /// intact.
    pub fn take<T: Any>(self) -> Result<T, MsgBody> {
        if !self.is::<T>() {
            return Err(self);
        }
        let mut body = ManuallyDrop::new(self);
        // SAFETY: the slot holds a live `T` (checked above; the slot and
        // its table change together only in `new`), and the body is
        // never dropped, so the value is moved out exactly once.
        Ok(unsafe { read::<T>(&mut body.slot) })
    }

    /// Borrow the value if it is a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        // SAFETY: checked first, as in `take`.
        self.is::<T>().then(|| unsafe { value::<T>(&self.slot) })
    }

    /// Borrow the value mutably, in place, if it is a `T`.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        if !self.is::<T>() {
            return None;
        }
        // SAFETY: checked first, as in `take`.
        Some(unsafe { value_mut::<T>(&mut self.slot) })
    }

    /// The value as `dyn Any`, for code that does not name its type.
    pub fn as_any(&self) -> &(dyn Any + Send) {
        // SAFETY: the slot holds a live value of `vt`'s type.
        unsafe { (self.vt.as_any)(&self.slot) }
    }

    /// The value, boxed (a value already boxed is not moved again).
    pub fn into_any(self) -> Box<dyn Any + Send> {
        let mut body = ManuallyDrop::new(self);
        // SAFETY: the slot holds a live value of `vt`'s type, and the body
        // is never dropped, so the value is moved out exactly once.
        unsafe { (body.vt.into_box)(&mut body.slot) }
    }
}

impl Drop for MsgBody {
    fn drop(&mut self) {
        // SAFETY: the slot holds a live value of `vt`'s type (every path
        // that moves it out forgets the body first).
        unsafe { (self.vt.drop)(&mut self.slot) }
    }
}

impl fmt::Debug for MsgBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsgBody").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Drops of the test values below, on this test's thread.
        static DROPS: Cell<usize> = const { Cell::new(0) };
    }

    /// `N` bytes, alignment 1, counting its drops: `Counted<0>` is
    /// zero-sized, `Counted<48>` fills the slot exactly.
    struct Counted<const N: usize>([u8; N]);

    /// A 16-byte value aligned past a pointer, counting its drops.
    #[repr(align(16))]
    struct Wide(u128);

    impl<const N: usize> Drop for Counted<N> {
        fn drop(&mut self) {
            DROPS.set(DROPS.get() + 1);
        }
    }

    impl Drop for Wide {
        fn drop(&mut self) {
            DROPS.set(DROPS.get() + 1);
        }
    }

    /// Every fate of a body holding `make()` drops the value exactly
    /// once; `is_inline` says where it must have been stored.
    fn every_fate_drops_once<T: Any + Send>(make: fn() -> T, is_inline: bool) {
        let name = std::any::type_name::<T>();
        assert_eq!(fits::<T>(), is_inline, "{name}");
        let drops = |want| assert_eq!(DROPS.replace(0), want, "{name}");
        DROPS.set(0);
        // Taken.
        let v = MsgBody::new(make()).take::<T>().expect("the type it holds");
        drops(0);
        drop(v);
        drops(1);
        // Dropped unconsumed: a dead letter, a stopped run.
        drop(MsgBody::new(make()));
        drops(1);
        // Refused, handed back intact, dropped later.
        let back = MsgBody::new(make())
            .take::<String>()
            .expect_err("not a String");
        drops(0);
        assert!(
            back.is::<T>() && back.downcast_ref::<T>().is_some(),
            "{name}"
        );
        drop(back);
        drops(1);
        // Boxed as `dyn Any` (a procs exit result).
        let boxed = MsgBody::new(make()).into_any();
        drops(0);
        assert!(boxed.is::<T>(), "{name}");
        drop(boxed);
        drops(1);
    }

    #[test]
    fn every_value_is_dropped_exactly_once_whatever_its_fate() {
        assert_eq!(INLINE_BYTES, 6 * mem::size_of::<usize>());
        every_fate_drops_once(|| Counted::<0>([]), true);
        every_fate_drops_once(|| Counted::<8>([8; 8]), true);
        every_fate_drops_once(|| Counted::<INLINE_BYTES>([48; INLINE_BYTES]), true);
        every_fate_drops_once(
            || Counted::<{ INLINE_BYTES + 1 }>([49; INLINE_BYTES + 1]),
            false,
        );
        every_fate_drops_once(|| Wide(u128::MAX), false);
        // A vector's header sits in place; its one element is the drop.
        every_fate_drops_once(|| vec![Counted::<1>([1])], true);
    }

    #[test]
    fn a_taken_value_is_the_value_put_in() {
        let full = MsgBody::new(Counted::<INLINE_BYTES>([9; INLINE_BYTES]));
        assert_eq!(
            full.take::<Counted<INLINE_BYTES>>().expect("it").0,
            [9; INLINE_BYTES]
        );
        let over = MsgBody::new(Counted::<{ INLINE_BYTES + 1 }>([5; INLINE_BYTES + 1]));
        assert_eq!(
            over.take::<Counted<{ INLINE_BYTES + 1 }>>().expect("it").0[INLINE_BYTES],
            5
        );
        let wide = MsgBody::new(Wide(u128::MAX - 1))
            .take::<u64>()
            .expect_err("not a u64");
        assert_eq!(
            wide.as_any().downcast_ref::<Wide>().map(|w| w.0),
            Some(u128::MAX - 1)
        );
        assert_eq!(
            MsgBody::new(5u128).into_any().downcast_ref::<u128>(),
            Some(&5)
        );
    }

    #[test]
    fn a_vec_keeps_its_header_in_place_and_its_buffer_where_it_was() {
        assert!(fits::<Vec<u8>>());
        let v: Vec<u8> = (0..=255).collect();
        let at = v.as_ptr();
        let b = MsgBody::new(v);
        assert_eq!(b.downcast_ref::<Vec<u8>>().map(|v| v.as_ptr()), Some(at));
        let b = b.take::<String>().expect_err("not a String");
        let v = b.take::<Vec<u8>>().expect("a Vec<u8>");
        assert_eq!(v.as_ptr(), at);
        assert_eq!(v, (0..=255).collect::<Vec<u8>>());
        DROPS.set(0);
        drop(MsgBody::new(vec![
            Counted::<8>([0; 8]),
            Counted::<8>([1; 8]),
        ]));
        assert_eq!(DROPS.get(), 2);
    }

    #[test]
    fn downcast_mut_changes_the_value_in_place() {
        let mut inline = MsgBody::new(40u64);
        *inline.downcast_mut::<u64>().expect("a u64") += 2;
        assert!(inline.downcast_mut::<u32>().is_none());
        assert_eq!(inline.take::<u64>().expect("a u64"), 42);
        let mut boxed = MsgBody::new([1u64; 16]);
        boxed.downcast_mut::<[u64; 16]>().expect("the array")[15] = 9;
        assert_eq!(boxed.downcast_ref::<[u64; 16]>().map(|a| a[15]), Some(9));
        let mut vec = MsgBody::new(vec![1.0f64]);
        vec.downcast_mut::<Vec<f64>>().expect("a Vec").push(2.0);
        assert_eq!(vec.take::<Vec<f64>>().expect("a Vec"), [1.0, 2.0]);
    }

    #[test]
    fn as_any_and_is_name_the_held_type() {
        let b = MsgBody::new(String::from("hi"));
        assert!(b.is::<String>() && !b.is::<&str>());
        assert_eq!(b.as_any().type_id(), TypeId::of::<String>());
        assert_eq!(
            b.as_any().downcast_ref::<String>().map(String::as_str),
            Some("hi")
        );
        let big = MsgBody::new([3u8; 100]);
        assert_eq!(big.as_any().type_id(), TypeId::of::<[u8; 100]>());
        assert_eq!(format!("{big:?}"), "MsgBody { .. }");
    }

    #[test]
    fn a_body_moves_to_another_thread() {
        let b = MsgBody::new(vec![1u32, 2, 3]);
        let got = std::thread::spawn(move || b.take::<Vec<u32>>().expect("a Vec"));
        assert_eq!(got.join().expect("the thread ran"), [1, 2, 3]);
    }
}
