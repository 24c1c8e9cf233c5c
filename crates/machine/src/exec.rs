//! Nest-level execution strategies: the alternatives the paper compares.
//!
//! Given a rectangular nest with trip counts `dims` and a per-iteration
//! body cost, [`simulate_nest`] measures the makespan and synchronization
//! traffic of:
//!
//! * [`ExecMode::Sequential`] — one processor, plain nested loops;
//! * [`ExecMode::OuterParallel`] — only the outermost loop is parallel and
//!   each dispatched outer iteration runs its inner subnest serially (the
//!   common manual parallelization: cheap, but exposes only `N_1` units of
//!   balance);
//! * [`ExecMode::InnerParallelSweep`] — outer levels serial, innermost
//!   level parallel, so a fork and a barrier are paid for *every* instance
//!   of the inner loop (the shape coalescing eliminates);
//! * [`ExecMode::Coalesced`] — one parallel loop over all `N` iterations,
//!   paying an index-recovery cost per iteration but a single fork/barrier
//!   and a single dispatch counter.

use lc_sched::policy::PolicyKind;

use crate::cost::CostModel;
use crate::sim::{simulate_loop, LoopSchedule, SimResult};

/// How to execute the nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One processor, nested serial loops, no parallel machinery.
    Sequential,
    /// Single parallel loop over the whole iteration space; `recovery_cost`
    /// abstract instructions are paid per iteration to recover indices
    /// (use `lc_xform::recovery::per_iteration_cost` or a measured value).
    Coalesced {
        /// Iteration distribution for the coalesced loop.
        schedule: LoopSchedule,
        /// Per-iteration index-recovery cost.
        recovery_cost: u64,
    },
    /// Parallel outermost loop, serial inner subnest per iteration.
    OuterParallel {
        /// Iteration distribution for the outer loop.
        schedule: LoopSchedule,
    },
    /// Serial outer levels; the innermost loop is a parallel loop, forked
    /// and joined once per instance.
    InnerParallelSweep {
        /// Iteration distribution for each inner-loop instance.
        schedule: LoopSchedule,
    },
}

impl ExecMode {
    /// Convenience: coalesced with dynamic policy `kind` and the given
    /// recovery cost.
    pub fn coalesced(kind: PolicyKind, recovery_cost: u64) -> ExecMode {
        ExecMode::Coalesced {
            schedule: LoopSchedule::Dynamic(kind),
            recovery_cost,
        }
    }

    /// Short display name for tables.
    pub fn name(&self) -> String {
        match self {
            ExecMode::Sequential => "SEQ".into(),
            ExecMode::Coalesced { schedule, .. } => format!("COAL/{}", schedule_name(schedule)),
            ExecMode::OuterParallel { schedule } => format!("OUTER/{}", schedule_name(schedule)),
            ExecMode::InnerParallelSweep { schedule } => {
                format!("INNER/{}", schedule_name(schedule))
            }
        }
    }
}

fn schedule_name(s: &LoopSchedule) -> String {
    match s {
        LoopSchedule::Dynamic(k) => k.name(),
        LoopSchedule::Static(lc_sched::policy::StaticKind::Block) => "BLOCK".into(),
        LoopSchedule::Static(lc_sched::policy::StaticKind::Cyclic) => "CYCLIC".into(),
    }
}

/// Aggregate result of executing a whole nest.
#[derive(Debug, Clone, PartialEq)]
pub struct NestResult {
    /// End-to-end simulated time.
    pub makespan: u64,
    /// Synchronized fetch&add operations.
    pub fetch_adds: u64,
    /// Barrier crossings (loop joins).
    pub barriers: u64,
    /// Parallel-loop forks.
    pub forks: u64,
    /// Chunks dispatched across all parallel loops.
    pub chunks: u64,
    /// Sum of body costs (for coalesced mode this includes the
    /// per-iteration recovery cost).
    pub body_work: u64,
    /// Innermost iterations executed.
    pub iterations: u64,
    /// Per-processor busy time, aggregated across all parallel loop
    /// instances (empty for sequential mode).
    pub busy: Vec<u64>,
}

/// Recover the 1-based index vector from a 0-based linear index (shared
/// implementation in `lc-space`).
fn recover(q: u64, dims: &[u64], out: &mut Vec<i64>) {
    lc_space::recover_divmod_into(q as i64 + 1, dims, out);
}

/// Exact serial execution time of the subnest `dims`, calling `body` with
/// `prefix ++ inner-indices`.
fn serial_time(
    dims: &[u64],
    prefix: &mut Vec<i64>,
    cost: &CostModel,
    body: &mut dyn FnMut(&[i64]) -> u64,
) -> u64 {
    match dims.split_first() {
        None => body(prefix),
        Some((&n, rest)) => {
            let mut t = 0;
            for i in 1..=n as i64 {
                prefix.push(i);
                t += cost.loop_overhead + serial_time(rest, prefix, cost, body);
                prefix.pop();
            }
            t
        }
    }
}

/// Simulate the nest under the chosen execution mode on `p` processors.
pub fn simulate_nest(
    dims: &[u64],
    p: usize,
    mode: ExecMode,
    cost: &CostModel,
    body: &dyn Fn(&[i64]) -> u64,
) -> NestResult {
    assert!(!dims.is_empty(), "empty nest");
    let n: u64 = dims.iter().product();

    match mode {
        ExecMode::Sequential => {
            let mut body_work = 0;
            let mut wrapped = |iv: &[i64]| {
                let w = body(iv);
                body_work += w;
                w
            };
            let mut prefix = Vec::new();
            let makespan = serial_time(dims, &mut prefix, cost, &mut wrapped);
            NestResult {
                makespan,
                fetch_adds: 0,
                barriers: 0,
                forks: 0,
                chunks: 0,
                body_work,
                iterations: n,
                busy: Vec::new(),
            }
        }
        ExecMode::Coalesced {
            schedule,
            recovery_cost,
        } => {
            let dims_owned = dims.to_vec();
            let linear_body = move |j: u64| {
                let mut iv = Vec::new();
                recover(j, &dims_owned, &mut iv);
                recovery_cost + body(&iv)
            };
            let r = simulate_loop(n, p, schedule, cost, &linear_body);
            from_single(r, 1)
        }
        ExecMode::OuterParallel { schedule } => {
            let inner_dims = dims[1..].to_vec();
            let outer_body = move |i0: u64| {
                let mut prefix = vec![i0 as i64 + 1];
                if inner_dims.is_empty() {
                    body(&prefix)
                } else {
                    let mut f = |iv: &[i64]| body(iv);
                    serial_time(&inner_dims, &mut prefix, cost, &mut f)
                }
            };
            let r = simulate_loop(dims[0], p, schedule, cost, &outer_body);
            let mut out = from_single(r, 1);
            out.iterations = n; // inner iterations ran inside each body
            out
        }
        ExecMode::InnerParallelSweep { schedule } => {
            let (outer_dims, inner_n) = (&dims[..dims.len() - 1], dims[dims.len() - 1]);
            let mut acc = NestResult {
                makespan: 0,
                fetch_adds: 0,
                barriers: 0,
                forks: 0,
                chunks: 0,
                body_work: 0,
                iterations: n,
                busy: vec![0; p.max(1)],
            };
            // Walk the outer iteration space serially.
            let outer_total: u64 = outer_dims.iter().product();
            let mut iv = Vec::new();
            for q in 0..outer_total {
                if outer_dims.is_empty() {
                    iv.clear();
                } else {
                    recover(q, outer_dims, &mut iv);
                }
                let prefix = iv.clone();
                let inner_body = |ik: u64| {
                    let mut full = prefix.clone();
                    full.push(ik as i64 + 1);
                    body(&full)
                };
                let r = simulate_loop(inner_n, p, schedule, cost, &inner_body);
                acc.makespan += cost.loop_overhead + r.makespan;
                acc.fetch_adds += r.fetch_adds;
                acc.barriers += 1;
                acc.forks += 1;
                acc.chunks += r.chunks;
                acc.body_work += r.body_work;
                for (b, rb) in acc.busy.iter_mut().zip(&r.busy) {
                    *b += rb;
                }
            }
            acc
        }
    }
}

fn from_single(r: SimResult, forks: u64) -> NestResult {
    NestResult {
        makespan: r.makespan,
        fetch_adds: r.fetch_adds,
        barriers: 1,
        forks,
        chunks: r.chunks,
        body_work: r.body_work,
        iterations: r.iterations,
        busy: r.busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_sched::policy::StaticKind;

    const UNIT: fn(&[i64]) -> u64 = |_| 10;

    fn dyn_ss() -> LoopSchedule {
        LoopSchedule::Dynamic(PolicyKind::SelfSched)
    }

    #[test]
    fn sequential_counts_headers_at_every_level() {
        let cost = CostModel::default();
        let r = simulate_nest(&[3, 4], 1, ExecMode::Sequential, &cost, &UNIT);
        // headers: 3 outer + 12 inner; body: 12 * 10.
        assert_eq!(r.makespan, (3 + 12) * cost.loop_overhead + 120);
        assert_eq!(r.iterations, 12);
        assert_eq!(r.fetch_adds + r.barriers + r.forks, 0);
    }

    #[test]
    fn coalesced_beats_inner_sweep_on_deep_nests() {
        let cost = CostModel::default();
        let dims = [8u64, 8, 8];
        let coal = simulate_nest(
            &dims,
            8,
            ExecMode::coalesced(PolicyKind::SelfSched, 12),
            &cost,
            &UNIT,
        );
        let sweep = simulate_nest(
            &dims,
            8,
            ExecMode::InnerParallelSweep { schedule: dyn_ss() },
            &cost,
            &UNIT,
        );
        assert!(
            coal.makespan < sweep.makespan,
            "coalesced {} !< sweep {}",
            coal.makespan,
            sweep.makespan
        );
        assert!(coal.forks < sweep.forks);
        assert_eq!(sweep.forks, 64);
    }

    #[test]
    fn coalesced_beats_outer_parallel_when_outer_is_narrow() {
        // N1 = 3 outer iterations on p = 8: outer-parallel wastes 5
        // processors; coalescing exposes all 3*64 iterations.
        let cost = CostModel::default();
        let dims = [3u64, 64];
        let coal = simulate_nest(
            &dims,
            8,
            ExecMode::coalesced(PolicyKind::Guided, 12),
            &cost,
            &UNIT,
        );
        let outer = simulate_nest(
            &dims,
            8,
            ExecMode::OuterParallel { schedule: dyn_ss() },
            &cost,
            &UNIT,
        );
        assert!(
            coal.makespan < outer.makespan,
            "coalesced {} !< outer {}",
            coal.makespan,
            outer.makespan
        );
    }

    #[test]
    fn outer_parallel_fine_when_outer_is_wide_and_uniform() {
        // N1 = 256 ≫ p: outer-parallel has plenty of balance and pays no
        // recovery cost, so it should be at least competitive.
        let cost = CostModel::default();
        let dims = [256u64, 16];
        let coal = simulate_nest(
            &dims,
            8,
            ExecMode::coalesced(PolicyKind::SelfSched, 12),
            &cost,
            &UNIT,
        );
        let outer = simulate_nest(
            &dims,
            8,
            ExecMode::OuterParallel { schedule: dyn_ss() },
            &cost,
            &UNIT,
        );
        assert!(outer.makespan <= coal.makespan);
    }

    #[test]
    fn all_parallel_modes_dispatch_all_iterations() {
        let cost = CostModel::default();
        let dims = [5u64, 6];
        for mode in [
            ExecMode::coalesced(PolicyKind::Guided, 5),
            ExecMode::OuterParallel { schedule: dyn_ss() },
            ExecMode::InnerParallelSweep { schedule: dyn_ss() },
        ] {
            let r = simulate_nest(&dims, 4, mode, &cost, &UNIT);
            assert_eq!(r.iterations, 30, "{}", mode.name());
            // Body work: every body instance ran exactly once (coalesced
            // mode adds recovery on top).
            assert!(r.body_work >= 300, "{}", mode.name());
        }
    }

    #[test]
    fn zero_trip_outer_level_runs_no_body() {
        let r = simulate_nest(
            &[0, 5],
            4,
            ExecMode::InnerParallelSweep { schedule: dyn_ss() },
            &CostModel::default(),
            &UNIT,
        );
        assert_eq!((r.iterations, r.body_work, r.chunks), (0, 0, 0));
    }

    #[test]
    fn coalesced_body_work_includes_recovery() {
        let cost = CostModel::free();
        let r = simulate_nest(
            &[4, 4],
            2,
            ExecMode::coalesced(PolicyKind::SelfSched, 7),
            &cost,
            &UNIT,
        );
        assert_eq!(r.body_work, 16 * (10 + 7));
    }

    #[test]
    fn static_block_coalesced_matches_bound() {
        // Free machine, unit work: makespan = ceil(N/p) * body.
        let cost = CostModel::free();
        let r = simulate_nest(
            &[5, 5],
            4,
            ExecMode::Coalesced {
                schedule: LoopSchedule::Static(StaticKind::Block),
                recovery_cost: 0,
            },
            &cost,
            &UNIT,
        );
        assert_eq!(r.makespan, 7 * 10); // ceil(25/4) = 7
    }

    #[test]
    fn triangular_workload_imbalance_is_visible_in_busy() {
        // Body cost proportional to i1: outer-parallel static block leaves
        // the last processor with much more work.
        let body = |iv: &[i64]| iv[0] as u64;
        let cost = CostModel::free();
        let r = simulate_nest(
            &[64, 4],
            4,
            ExecMode::OuterParallel {
                schedule: LoopSchedule::Static(StaticKind::Block),
            },
            &cost,
            &body,
        );
        let max = *r.busy.iter().max().unwrap();
        let min = *r.busy.iter().min().unwrap();
        assert!(max > min * 2, "busy={:?}", r.busy);
    }

    #[test]
    fn recover_helper_is_rowmajor_lexicographic() {
        let mut iv = Vec::new();
        recover(0, &[2, 3], &mut iv);
        assert_eq!(iv, vec![1, 1]);
        recover(5, &[2, 3], &mut iv);
        assert_eq!(iv, vec![2, 3]);
        recover(3, &[2, 3], &mut iv);
        assert_eq!(iv, vec![2, 1]);
    }

    #[test]
    fn mode_names() {
        assert_eq!(ExecMode::Sequential.name(), "SEQ");
        assert_eq!(
            ExecMode::coalesced(PolicyKind::Guided, 0).name(),
            "COAL/GSS"
        );
        assert_eq!(
            ExecMode::OuterParallel {
                schedule: LoopSchedule::Static(StaticKind::Block)
            }
            .name(),
            "OUTER/BLOCK"
        );
    }
}
