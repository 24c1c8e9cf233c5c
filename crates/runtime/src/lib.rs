//! `lc-runtime` — a real multi-threaded executor for coalesced loops.
//!
//! The paper's dispatch mechanism is a hardware fetch&add on a shared
//! counter. Its software analogue here is one compare-and-swap on a
//! shared [`AtomicU64`] iteration counter per claimed chunk, run on real
//! threads (crossbeam's scoped threads) on the host machine, so the
//! transformation can be demonstrated end-to-end rather than only under
//! the simulator. Chunk sizes come from [`lc_sched::PolicyKind`], the
//! same rule the simulator and the analytic tables use: SS, CSS(k) and
//! GSS size a chunk from the counter alone, so the CAS claims it without
//! a lock; TSS and factoring depend on dispatch history and go through a
//! mutex-guarded [`lc_sched::Dispenser`]. The CAS never moves the counter
//! past the end of the range, so it cannot wrap near `u64::MAX`.
//!
//! * [`parallel`] — the worker pool every entry point runs on, plus
//!   `parallel_for` over a linear range and the chunk-level primitive it
//!   is built on. A panic in a loop body reaches the caller with its own
//!   message.
//! * [`nest`] — nest-level entry points mirroring the simulator's
//!   execution modes: [`nest::coalesced_for`] (odometer-based index
//!   recovery per chunk), [`nest::outer_for`] (parallel outer loop,
//!   serial inner), and [`nest::inner_sweep_for`] (a real fork-join per
//!   inner-loop instance, so the overhead coalescing removes is actually
//!   paid and measurable).
//! * [`team`] — a persistent worker team sweeping a series of inner-loop
//!   instances with barriers instead of thread forks (the era's actual
//!   execution model, separating thread-management cost from
//!   dispatch/barrier cost).
//! * [`reduce`] — partial-sum parallel reduction (the legal formulation
//!   of the reductions the coalescing checker rejects inside a doall).
//! * [`stats`] — per-worker counters (iterations, chunks, busy time) and
//!   run-level aggregates.
//!
//! [`AtomicU64`]: std::sync::atomic::AtomicU64

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod grabber;
pub mod nest;
pub mod parallel;
pub mod reduce;
pub mod stats;
pub mod team;

pub use nest::{coalesced_for, inner_sweep_for, outer_for};
pub use parallel::{parallel_for, parallel_for_chunks, RuntimeOptions};
pub use reduce::{parallel_reduce, parallel_sum};
pub use stats::{RunStats, WorkerStats};
pub use team::team_sweep_for;
