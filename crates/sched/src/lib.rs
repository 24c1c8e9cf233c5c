//! `lc-sched` — loop scheduling policies and their analytic properties.
//!
//! The paper's case for coalescing is a *scheduling* argument: a coalesced
//! loop exposes all `N = N1·…·Nm` iterations to a single dispatch point (one
//! fetch&add counter), where a nested loop needs per-level dispatch and
//! barriers, or a static per-dimension processor allocation. This crate
//! implements the dispatch side of that argument, independent of both the
//! IR (`lc-ir`) and the machine model (`lc-machine`):
//!
//! * [`policy`] — the one copy of the chunk-size rule: [`PolicyKind`]
//!   names pure self-scheduling (SS), chunked self-scheduling CSS(k),
//!   guided self-scheduling GSS (the Polychronopoulos–Kuck companion
//!   policy), trapezoid self-scheduling TSS and factoring, and the
//!   [`Dispenser`] hands out chunks under it. The simulator, the advisor
//!   and `lc-runtime`'s worker threads all size their chunks through it.
//!   Static block/cyclic pre-assignments live here too.
//! * [`dispatch`] — dispatch-operation accounting for coalesced vs nested
//!   execution of a loop nest (the paper's synchronization-count tables).
//! * [`bounds`] — static schedule-length bounds: `⌈N/p⌉` for the coalesced
//!   loop vs `Π ⌈N_k/p_k⌉` for the best per-dimension allocation, and the
//!   theorem that coalescing never lengthens a static schedule.
//! * [`mod@advise`] — the collapse-band advisor: an analytic cost model that
//!   picks how many levels to coalesce (full collapse is not always
//!   best — recovery cost is paid per iteration while the balance gain
//!   saturates at the processor count).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advise;
pub mod bounds;
pub mod dispatch;
pub mod policy;

pub use advise::{advise, Advice, AdviseParams};
pub use bounds::{best_processor_allocation, coalesced_block_length, nested_block_length};
pub use dispatch::{coalesced_dispatch, nested_dispatch, DispatchStats};
pub use policy::{Chunk, Dispenser, PolicyKind, StaticKind};
