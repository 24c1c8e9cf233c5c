//! Nest-level executors: the runtime analogues of the simulator's
//! execution modes, run on real threads.

use lc_sched::policy::Chunk;
use lc_space::{recover_divmod_into, total_iterations, Odometer};

use crate::parallel::{self_schedule, RuntimeOptions};
use crate::stats::RunStats;

/// Execute a rectangular nest as a single **coalesced** parallel loop.
///
/// Workers claim chunks of the linear space through the shared counter;
/// within a chunk the index vector is recovered once (div/mod) and then
/// advanced incrementally (odometer) — the paper's recommended scheme for
/// chunked dispatch. `body` receives the 1-based index vector.
pub fn coalesced_for<F>(dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(&[i64]) + Sync,
{
    let n = total_iterations(dims).expect("iteration count overflows");
    // Each worker recovers into its own index buffer, which it allocates
    // on its first chunk, so dispatch allocates nothing per chunk.
    let run_chunk = |mut iv: Vec<i64>, chunk: Chunk| {
        recover_divmod_into(chunk.start as i64 + 1, dims, &mut iv);
        for _ in 0..chunk.len {
            body(&iv);
            advance(&mut iv, dims);
        }
        iv
    };
    self_schedule(n, opts, Vec::new, run_chunk).0
}

/// One odometer step on a borrowed index vector: bump the innermost
/// index, carrying outward (what [`Odometer::advance`] does in place).
fn advance(iv: &mut [i64], dims: &[u64]) {
    for k in (0..dims.len()).rev() {
        if (iv[k] as u64) < dims[k] {
            iv[k] += 1;
            return;
        }
        iv[k] = 1;
    }
}

/// Execute the nest with only the **outermost** loop parallel; each
/// claimed outer iteration runs the inner subnest serially on its worker.
pub fn outer_for<F>(dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(&[i64]) + Sync,
{
    assert!(!dims.is_empty());
    let inner_dims = &dims[1..];
    let inner_n = total_iterations(inner_dims).expect("iteration count overflows");
    // One index buffer per worker, reset for each claimed outer iteration.
    let run_chunk = |mut iv: Vec<i64>, chunk: Chunk| {
        for i0 in chunk.start..chunk.end() {
            iv.clear();
            iv.push(i0 as i64 + 1);
            iv.resize(dims.len(), 1);
            // The empty product is 1, so a depth-1 nest runs the body once
            // per outer iteration with just `[i0]` as the index vector.
            for _ in 0..inner_n {
                body(&iv);
                advance(&mut iv[1..], inner_dims);
            }
        }
        iv
    };
    self_schedule(dims[0], opts, Vec::new, run_chunk).0
}

/// Execute the nest with the **innermost** loop parallel and everything
/// above it serial: a real thread-team fork and join is paid for every
/// inner-loop instance. This is the configuration whose overhead the
/// paper's transformation eliminates — expect it to lose badly once the
/// outer product grows.
pub fn inner_sweep_for<F>(dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(&[i64]) + Sync,
{
    assert!(!dims.is_empty());
    let (outer_dims, inner_n) = (&dims[..dims.len() - 1], dims[dims.len() - 1]);
    let outer_total = total_iterations(outer_dims).expect("iteration count overflows");

    let mut acc = RunStats::default();
    let mut odo = Odometer::new(outer_dims);
    for _ in 0..outer_total {
        let prefix = odo.indices();
        // One index buffer per worker per instance, not per iteration.
        let run_chunk = |mut iv: Vec<i64>, chunk: Chunk| {
            for ik in chunk.start..chunk.end() {
                iv.clear();
                iv.extend_from_slice(prefix);
                iv.push(ik as i64 + 1);
                body(&iv);
            }
            iv
        };
        acc.accumulate(&self_schedule(inner_n, opts, Vec::new, run_chunk).0);
        odo.advance();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_sched::policy::PolicyKind;
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    fn opts(threads: usize, policy: PolicyKind) -> RuntimeOptions {
        RuntimeOptions { threads, policy }
    }

    /// Run a mode and record each visited cell exactly once in a flat grid.
    fn check_visits_all(dims: &[u64], run: impl FnOnce(&(dyn Fn(&[i64]) + Sync))) {
        let n = total_iterations(dims).unwrap();
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let strides = lc_space::strides(dims);
        let body = |iv: &[i64]| {
            let mut flat = 0u64;
            for (k, &ix) in iv.iter().enumerate() {
                flat += (ix as u64 - 1) * strides[k];
            }
            hits[flat as usize].fetch_add(1, Ordering::Relaxed);
        };
        run(&body);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "cell {i} visited wrongly");
        }
    }

    #[test]
    fn coalesced_visits_every_cell_once() {
        for policy in [
            PolicyKind::SelfSched,
            PolicyKind::Guided,
            PolicyKind::Chunked(13),
        ] {
            check_visits_all(&[7, 9, 5], |body| {
                coalesced_for(&[7, 9, 5], &opts(4, policy), body);
            });
        }
    }

    #[test]
    fn outer_visits_every_cell_once() {
        check_visits_all(&[12, 8], |body| {
            outer_for(&[12, 8], &opts(4, PolicyKind::SelfSched), body);
        });
    }

    #[test]
    fn inner_sweep_visits_every_cell_once() {
        check_visits_all(&[6, 10], |body| {
            inner_sweep_for(&[6, 10], &opts(4, PolicyKind::SelfSched), body);
        });
    }

    #[test]
    fn coalesced_depth_one_works() {
        check_visits_all(&[50], |body| {
            coalesced_for(&[50], &opts(2, PolicyKind::Guided), body);
        });
    }

    #[test]
    fn outer_depth_one_works() {
        check_visits_all(&[50], |body| {
            outer_for(&[50], &opts(2, PolicyKind::Guided), body);
        });
    }

    #[test]
    fn coalesced_matmul_matches_serial() {
        // C = A * B over i64, output via atomics (disjoint writes).
        let (n, m, k) = (9usize, 7usize, 8usize);
        let a: Vec<i64> = (0..n * k).map(|x| (x % 5) as i64 - 2).collect();
        let b: Vec<i64> = (0..k * m).map(|x| (x % 7) as i64 - 3).collect();
        let c: Vec<AtomicI64> = (0..n * m).map(|_| AtomicI64::new(0)).collect();

        coalesced_for(&[n as u64, m as u64], &opts(4, PolicyKind::Guided), |iv| {
            let (i, j) = (iv[0] as usize - 1, iv[1] as usize - 1);
            let mut acc = 0i64;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * m + j];
            }
            c[i * m + j].store(acc, Ordering::Relaxed);
        });

        for i in 0..n {
            for j in 0..m {
                let want: i64 = (0..k).map(|kk| a[i * k + kk] * b[kk * m + j]).sum();
                assert_eq!(c[i * m + j].load(Ordering::Relaxed), want);
            }
        }
    }

    #[test]
    fn inner_sweep_accumulates_stats_across_instances() {
        let stats = inner_sweep_for(&[5, 100], &opts(2, PolicyKind::SelfSched), |_| {});
        assert_eq!(stats.total_iterations(), 500);
        // One parallel loop per outer iteration.
        assert!(stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn zero_trip_outer_level_runs_nothing() {
        let calls = AtomicU64::new(0);
        let stats = inner_sweep_for(&[0, 5], &opts(2, PolicyKind::SelfSched), |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(stats.total_iterations(), 0);
    }

    #[test]
    fn stats_report_policy_and_threads() {
        let stats = coalesced_for(&[8, 8], &opts(3, PolicyKind::Chunked(4)), |_| {});
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.policy, "CSS(4)");
        assert_eq!(stats.total_iterations(), 64);
    }
}
