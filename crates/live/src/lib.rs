//! The live BADABING tool: real UDP sockets, real timers, real processes.
//!
//! This crate is the deployment surface the original ~800-line C++ tool
//! occupied: a one-way active measurement tool that sends fixed-size
//! probes from a sender to a collaborating receiver, which collects them
//! and reports loss characteristics after the run (§6). Everything runs
//! on `std::net::UdpSocket` and plain threads — no async runtime — so
//! the binaries work as genuinely separate processes.
//!
//! * [`sender`] — drives the geometric experiment schedule off an
//!   absolute slot clock and stamps every packet with a monotonic send
//!   time; owns every control-plane timeout and degrades to a partial
//!   manifest with diagnostics if the receiver dies mid-run;
//! * [`receiver`] — a session server: one process serves many
//!   concurrent sender sessions from a registry keyed by session id
//!   (opened on SYN, bounded by `max_sessions` and explicit memory
//!   budgets with a reject-or-evict admission policy, reaped on
//!   completion or idle timeout). Every drain thread runs one loop on
//!   every backend — a blocking batched receive bounded by a 25 ms
//!   read timeout, woken at once on stop — with a deadline-scheduled
//!   idle watchdog, so an idle wakeup does O(1) work however many
//!   sessions are open. Per session it deduplicates arrivals by
//!   `(seq, idx)` so duplicated datagrams never mask loss, removes
//!   clock offset/skew via a lower-envelope fit (yielding *queueing*
//!   delay, which is what the α/OWDmax threshold actually needs),
//!   builds per-probe records at finalization, and answers the control
//!   plane on the same socket. Only a sender's SYN opens a session;
//! * [`control`] — the sender-side driver for the UDP control plane
//!   (SYN/SYN-ACK handshake, heartbeats, FIN + chunked report retrieval
//!   with capped exponential backoff; wire format in
//!   `badabing_wire::control`);
//! * [`provider`] — the I/O seam all of the above bind sockets through:
//!   real UDP (batched or portable syscalls) or the [`faultnet`] — a
//!   seeded in-process virtual network with virtual time and per-link
//!   loss bursts / reordering / duplication / jitter / MTU truncation,
//!   which makes fault reproduction a one-seed unit test;
//! * [`emulator`] — a user-space bottleneck: a UDP forwarder with a
//!   virtual drop-tail queue drained at a configured rate, plus scripted
//!   overload episodes — the loopback stand-in for the testbed's OC3 hop;
//! * [`analyze`] — joins the sender manifest with receiver records and
//!   runs the shared `badabing-core` detector/estimator pipeline, so the
//!   live tool and the simulator report through identical code.
//!
//! The quickstart wiring (sender → emulator → receiver on loopback) lives
//! in `examples/live_loopback.rs` at the workspace root and in this
//! crate's integration tests.

pub mod analyze;
pub mod batch_io;
pub mod cli;
pub mod cmsg;
pub mod control;
pub mod emulator;
pub mod faultnet;
pub mod persist;
pub mod provider;
pub mod receiver;
pub mod sender;
mod session_table;
pub mod skew;

pub use analyze::analyze_run;
pub use batch_io::{
    bind_reuseport, kernel_offload_caps, BatchReceiver, BatchSender, IoMode, OffloadCaps,
};
pub use control::{ControlClient, ControlConfig, ControlError};
pub use emulator::{Emulator, EmulatorConfig, EmulatorStats, SessionFlow};
pub use faultnet::{FaultDatagram, FaultNet, FaultSocket, LinkFaults};
pub use provider::{Clock, Provider, RecvBatch, SendBatch, Socket, TimestampSource};
pub use receiver::{
    start_server, PressurePolicy, ReceiverLog, ServerConfig, ServerHandle, ServerReport,
    SessionEnd, SessionOutcome, DEFAULT_SESSION_BUDGET_BYTES,
};
pub use sender::{run_sender, SenderConfig, SenderManifest, SenderOutcome};

/// Counts every allocation the calling thread makes, so a test can
/// assert a hot path allocates nothing while other tests run on
/// their own threads.
#[cfg(test)]
pub(crate) mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    fn bump() {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: defers every operation to `System`; the counter is a
    // const-initialized thread-local that never allocates itself.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            System.alloc_zeroed(layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Allocations made by this thread so far.
    pub(crate) fn allocations() -> u64 {
        ALLOCS.with(Cell::get)
    }
}
