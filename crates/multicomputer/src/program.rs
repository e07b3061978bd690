//! The interface between a machine backend and the node program it hosts.
//!
//! A *node program* is the per-PE half of a message-driven runtime (in
//! this repository: one Chare Kernel node). The machine owns the event
//! loop — simulated or real — and drives every node through
//! [`NodeProgram`]; node handlers talk back to the machine through
//! [`NetCtx`]. Keeping this boundary small is what makes the kernel
//! machine-independent, mirroring the paper's portable machine layer.

use std::any::Any;

use crate::pe::Pe;
use crate::time::Cost;

/// What a scheduling step accomplished — drives how much dispatch
/// overhead the simulator charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A user-level message was scheduled and executed (full envelope
    /// handling, queue operations, handler dispatch).
    User,
    /// Only lightweight runtime control traffic was processed.
    Control,
}

/// An owned, untyped message body.
///
/// Messages are always *moved* between PEs — never shared — which
/// preserves nonshared-memory semantics even though both backends run in
/// one address space. A moved payload can only arrive once: the one way
/// a second copy comes to exist is [`NodeProgram::duplicate`], which the
/// simulator's fault layer asks for and most payloads decline.
pub type Payload = Box<dyn Any + Send>;

/// Take the `T` out of a report's result slot. A result of another type
/// stays in the slot, so the caller may try again with the right one.
pub fn take_result<T: 'static>(slot: &mut Option<Payload>) -> Option<T> {
    match slot.take()?.downcast::<T>() {
        Ok(b) => Some(*b),
        Err(r) => {
            *slot = Some(r);
            None
        }
    }
}

/// Borrow a report's result as a `T`, if it is one.
pub fn result_ref<T: 'static>(slot: &Option<Payload>) -> Option<&T> {
    slot.as_deref()?.downcast_ref::<T>()
}

/// A message in flight between two PEs.
pub struct Packet {
    /// Sending PE.
    pub from: Pe,
    /// Declared size in bytes, used by the network cost model. In-process
    /// payloads are not serialized, so senders declare the size the wire
    /// representation would have.
    pub bytes: u32,
    /// Arrival timestamp in nanoseconds: simulated arrival time on the
    /// simulator; on the thread backend the elapsed time at which the
    /// receiving PE drained the batch this packet was in. Feeds
    /// receive-side tracing; carries no protocol meaning. The real
    /// backends read the clock for it only when the receiving node
    /// [`stamps`](NodeProgram::stamps); otherwise it is 0.
    pub at_ns: u64,
    /// Send timestamp in nanoseconds: when the sending handler handed
    /// the packet to the network. `at_ns - sent_ns` is the end-to-end
    /// delivery latency (including NIC/link queueing); zero for a
    /// self-send on the thread backend, which never leaves its thread.
    /// Host-side metadata for metrics, like `at_ns`; carries no
    /// protocol meaning. The real backends stamp it only when the
    /// sending node [`stamps`](NodeProgram::stamps); otherwise it is 0.
    /// The simulator's stamps cost nothing and are always exact.
    pub sent_ns: u64,
    /// The message body, as the sender handed it to [`NetCtx::send`]: no
    /// backend rewrites or unwraps it on the way.
    pub payload: Payload,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("from", &self.from)
            .field("bytes", &self.bytes)
            .field("at_ns", &self.at_ns)
            .finish_non_exhaustive()
    }
}

/// Machine services available to a node while it boots or executes a
/// handler.
///
/// Implemented once per backend ([`crate::sim::SimMachine`] buffers sends
/// and accounts simulated time; [`crate::thread::ThreadMachine`] combines
/// sends per destination PE, pushes each batch into that PE's inbox whole,
/// and ignores charges).
pub trait NetCtx {
    /// The PE this node runs on.
    fn me(&self) -> Pe;

    /// Number of PEs in the machine.
    fn num_pes(&self) -> usize;

    /// Current time in nanoseconds — simulated on the simulator, real
    /// elapsed time on the thread backend.
    fn now_ns(&self) -> u64;

    /// Send a message to `to` (which may be `me()`; local messages bypass
    /// the network at a small fixed cost).
    fn send(&mut self, to: Pe, bytes: u32, payload: Payload);

    /// Charge simulated compute time to the currently executing handler.
    /// No-op on the thread backend, where real work takes real time.
    fn charge(&mut self, cost: Cost);

    /// Simulated nanoseconds charged so far by the currently executing
    /// handler. The simulator's clock does not advance *during* a
    /// handler, so online metrics read work done within one handler
    /// from the delta of this value. Backends without charge
    /// accounting (threads) return 0.
    fn charged_ns(&self) -> u64 {
        0
    }

    /// Request machine shutdown (the Chare Kernel's `CkExit`). In-flight
    /// and queued messages may be discarded.
    fn stop(&mut self);

    /// Store the program's result where the caller of `run` can retrieve
    /// it. Later deposits overwrite earlier ones.
    fn deposit(&mut self, result: Payload);

    /// Request that [`NodeProgram::alarm`] be invoked on this node once,
    /// `after` the current handler ends. A later call within the same
    /// handler replaces an earlier one. Protocols with timeouts
    /// (retransmission, failure suspicion) are built on this. Backends
    /// without timer support ignore the request.
    fn set_alarm(&mut self, _after: Cost) {}
}

/// The per-PE half of a message-driven runtime.
///
/// The machine calls [`boot`](NodeProgram::boot) once at startup, then
/// alternates [`incoming`](NodeProgram::incoming) (packet arrived — file
/// it, cheaply) and [`step`](NodeProgram::step) (pick one queued message
/// and run its handler to completion). The split matters on the
/// simulator: arrival and execution are separate timed events, so queueing
/// delay is modeled faithfully. When the run ends the machine hands the
/// nodes back in PE order, so what a node counted is read off the node.
pub trait NodeProgram: Send {
    /// Called once per node before any message is delivered. Startup
    /// actions (creating the main chare, constructing branch-office
    /// branches) happen here and may already send messages.
    fn boot(&mut self, net: &mut dyn NetCtx);

    /// A packet addressed to this PE has arrived. Must not execute user
    /// handlers — only enqueue.
    fn incoming(&mut self, pkt: Packet);

    /// Execute one scheduling step (at most one user handler, plus any
    /// pending runtime control work). Returns what ran, or `None` if
    /// nothing was available.
    fn step(&mut self, net: &mut dyn NetCtx) -> Option<StepKind>;

    /// Whether a call to `step` would find runnable work.
    fn has_work(&self) -> bool;

    /// A timer requested through [`NetCtx::set_alarm`] has fired. Runs
    /// like a handler: it may send, charge time and set further alarms.
    /// Default: ignore.
    fn alarm(&mut self, _net: &mut dyn NetCtx) {}

    /// Number of queued runnable messages (for load sampling / figures).
    fn backlog(&self) -> usize {
        0
    }

    /// A second copy of `payload`, for the simulator's duplication
    /// fault: a packet the fault plan marks is delivered twice only if
    /// this returns one, so duplication is honest — it happens to the
    /// payloads a protocol is prepared to see repeated (retransmittable
    /// frames, idempotent acks) and is skipped for opaque ones. Default:
    /// no payload can be copied.
    fn duplicate(_payload: &Payload) -> Option<Payload> {
        None
    }

    /// Whether this node reads [`Packet::at_ns`] and [`Packet::sent_ns`].
    /// On the real backends a clock read is a measurable share of a
    /// fine-grain message, so they stamp a packet only for a node that
    /// answers `true` here, and leave both fields 0 otherwise. A machine
    /// asks once per PE, before [`boot`](NodeProgram::boot). Default:
    /// stamp.
    fn stamps(&self) -> bool {
        true
    }
}

/// Builds one node program per PE.
pub trait NodeFactory {
    /// The node program type this factory builds.
    type Node: NodeProgram;

    /// Build the node for `pe` of a machine with `npes` PEs.
    fn build(&self, pe: Pe, npes: usize) -> Self::Node;
}

/// A [`NodeFactory`] from a closure.
pub struct FnFactory<F>(pub F);

impl<N: NodeProgram, F: Fn(Pe, usize) -> N> NodeFactory for FnFactory<F> {
    type Node = N;
    fn build(&self, pe: Pe, npes: usize) -> N {
        (self.0)(pe, npes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl NodeProgram for Dummy {
        fn boot(&mut self, _net: &mut dyn NetCtx) {}
        fn incoming(&mut self, _pkt: Packet) {}
        fn step(&mut self, _net: &mut dyn NetCtx) -> Option<StepKind> {
            None
        }
        fn has_work(&self) -> bool {
            false
        }
    }

    #[test]
    fn fn_factory_builds_per_pe() {
        let f = FnFactory(|_pe, _n| Dummy);
        let node = f.build(Pe(3), 8);
        assert!(!node.has_work());
        assert_eq!(node.backlog(), 0);
    }

    #[test]
    fn packet_debug_is_printable() {
        let p = Packet {
            from: Pe(1),
            bytes: 64,
            at_ns: 0,
            sent_ns: 0,
            payload: Box::new(42u32),
        };
        let s = format!("{p:?}");
        assert!(s.contains("PE1"));
        assert!(s.contains("64"));
    }
}
