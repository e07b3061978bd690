//! Chares: the message-driven concurrent objects of the kernel.
//!
//! A chare is a small object with private state and *entry points*. It is
//! created from a *seed message* (possibly on a different PE than its
//! creator — placement is the load balancer's job) and thereafter executes
//! only in response to messages sent to its entry points. Entry methods
//! run to completion; there is no blocking receive and no preemption.
//!
//! This module defines the two traits a chare type implements and the
//! message-downcast helper used inside `entry` methods.

use crate::ctx::Ctx;
use crate::envelope::MsgBody;
use crate::ids::EpId;
use crate::msg::Message;

/// A live chare: dispatches entry-point invocations.
///
/// The C-era kernel generated this dispatch from entry-point tables; in
/// Rust you write the `match` yourself:
///
/// ```ignore
/// impl Chare for Fib {
///     fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx) {
///         match ep {
///             RESULT => self.on_result(cast(msg), ctx),
///             _ => unreachable!("unknown entry point"),
///         }
///     }
/// }
/// ```
pub trait Chare: Send + 'static {
    /// Handle one message addressed to entry point `ep`. Runs to
    /// completion; may send messages, create chares and use shared
    /// variables through `ctx`.
    fn entry(&mut self, ep: EpId, msg: MsgBody, ctx: &mut Ctx);
}

/// A chare type that can be instantiated from a seed message.
///
/// Register with [`ProgramBuilder::chare`](crate::program::ProgramBuilder::chare)
/// to obtain the [`Kind`](crate::ids::Kind) handle used in
/// [`Ctx::create`].
pub trait ChareInit: Chare + Sized {
    /// The constructor message type.
    type Seed: Message;

    /// Construct the chare from its seed. Runs on the PE the load
    /// balancer placed the seed on; `ctx` is fully usable (the new chare
    /// may immediately send messages or create children).
    fn create(seed: Self::Seed, ctx: &mut Ctx) -> Self;
}

/// Downcast an entry-point message body to its concrete type.
///
/// # Panics
/// Panics with the expected type name if the body has a different type —
/// which indicates an entry-point numbering bug in the application.
pub fn cast<M: Message>(msg: MsgBody) -> M {
    msg.take::<M>().unwrap_or_else(|_| {
        panic!(
            "entry point received a message of the wrong type (expected {})",
            std::any::type_name::<M>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_roundtrip() {
        let body = MsgBody::new(42u64);
        assert_eq!(cast::<u64>(body), 42);
    }

    #[test]
    #[should_panic(expected = "expected u32")]
    fn cast_wrong_type_panics() {
        let body = MsgBody::new(42u64);
        let _ = cast::<u32>(body);
    }
}
