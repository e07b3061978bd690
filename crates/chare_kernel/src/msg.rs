//! Messages between chares.
//!
//! Messages are plain owned Rust values. They are *moved* between PEs —
//! the type system guarantees the sender keeps no alias, which is the
//! nonshared-memory discipline of the paper enforced at compile time
//! rather than by the hardware.
//!
//! The simulator and the thread backend never serialize (both run in
//! one address space), so each message type declares the size its wire
//! representation would have via [`Message::bytes`]: the simulated
//! network charges for that many bytes, and the trace and metrics count
//! them, on every backend. The procs backend does serialize — through
//! the type's [`Wire`](crate::wire::Wire) codec, whose output length is
//! what crosses the socket — and still carries the declared size in
//! each frame header, so the kernel's accounting reads the same on all
//! three. The default is `size_of::<Self>()`, correct for flat types;
//! messages carrying heap data (e.g. a `Vec`) should override it.

/// A value that can be sent to a chare entry point.
///
/// Implement with the [`message!`](crate::message) macro for flat types:
///
/// ```
/// use chare_kernel::message;
/// struct Work { n: u64, parent_hint: u32 }
/// message!(Work);
/// ```
pub trait Message: Send + 'static {
    /// Size in bytes the message would occupy on the wire. Drives the
    /// network cost model; irrelevant to correctness.
    fn bytes(&self) -> u32 {
        std::mem::size_of_val(self) as u32
    }
}

/// Implement [`Message`] for one or more flat types using the default
/// (in-memory) size.
#[macro_export]
macro_rules! message {
    ($($t:ty),+ $(,)?) => {
        $(impl $crate::msg::Message for $t {})+
    };
}

// Common flat payloads.
message!((), u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

// Kernel ids are routinely sent in messages (e.g. a child introducing
// itself to a parent).
message!(
    crate::ids::ChareId,
    crate::ids::EpId,
    crate::ids::BocId,
    crate::ids::WoId
);

impl<A: Message, B: Message> Message for (A, B) {
    fn bytes(&self) -> u32 {
        self.0.bytes() + self.1.bytes()
    }
}

impl<T: Send + 'static> Message for Vec<T> {
    fn bytes(&self) -> u32 {
        (self.len() * std::mem::size_of::<T>() + std::mem::size_of::<usize>()) as u32
    }
}

impl<T: Send + 'static> Message for Box<[T]> {
    fn bytes(&self) -> u32 {
        (self.len() * std::mem::size_of::<T>() + std::mem::size_of::<usize>()) as u32
    }
}

impl Message for String {
    fn bytes(&self) -> u32 {
        (self.len() + std::mem::size_of::<usize>()) as u32
    }
}

impl<T: Message> Message for Option<T> {
    fn bytes(&self) -> u32 {
        1 + self.as_ref().map_or(0, |v| v.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bytes_is_size_of() {
        struct Flat {
            _a: u64,
            _b: u32,
        }
        message!(Flat);
        let m = Flat { _a: 0, _b: 0 };
        assert_eq!(m.bytes(), std::mem::size_of::<Flat>() as u32);
    }

    #[test]
    fn vec_bytes_scale_with_len() {
        let v: Vec<u64> = vec![0; 100];
        assert_eq!(v.bytes() as usize, 100 * 8 + std::mem::size_of::<usize>());
    }

    #[test]
    fn tuple_bytes_sum() {
        let m = (1u32, 2u64);
        assert_eq!(m.bytes(), 12);
    }

    #[test]
    fn option_bytes() {
        assert_eq!(None::<u64>.bytes(), 1);
        assert_eq!(Some(1u64).bytes(), 9);
    }

    #[test]
    fn string_bytes() {
        let s = String::from("hello");
        assert_eq!(s.bytes() as usize, 5 + std::mem::size_of::<usize>());
    }
}
