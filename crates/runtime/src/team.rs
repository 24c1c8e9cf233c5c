//! A persistent worker team: one thread spawn for a whole *series* of
//! parallel loops, with a barrier between consecutive loops.
//!
//! This is the execution model the paper's machines actually used:
//! processors join a team once, then sweep a sequence of parallel loop
//! instances separated by barriers. Comparing [`team_sweep_for`] against
//! [`crate::inner_sweep_for`] (a real thread fork per instance) and
//! [`crate::coalesced_for`] (one instance total) separates the two
//! overheads the transformation removes: thread management (team reuse
//! fixes that too) and per-instance dispatch + barrier (only coalescing
//! fixes that).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use lc_sched::policy::PolicyKind;
use lc_space::{total_iterations, Odometer};

use crate::grabber::Grabber;
use crate::parallel::{run_workers, RuntimeOptions};
use crate::stats::{RunStats, WorkerStats};

/// Execute the nest with the innermost loop parallel and the outer levels
/// serial — like [`crate::inner_sweep_for`], but with one persistent
/// thread team and a barrier between instances instead of a fork/join per
/// instance. Dispatch within each instance is pure self-scheduling on a
/// per-instance counter (`opts.policy` is ignored; the instance trip
/// counts are typically too small for chunking to matter).
///
/// A panic in `body` stops the team at the next barrier and reaches the
/// caller with its own payload.
pub fn team_sweep_for<F>(dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(&[i64]) + Sync,
{
    assert!(!dims.is_empty());
    let (outer_dims, inner_n) = (&dims[..dims.len() - 1], dims[dims.len() - 1]);
    let outer_total = total_iterations(outer_dims).expect("iteration count overflows");
    let threads = opts.resolved_threads();

    // One dispatch counter per instance, pre-allocated so workers never
    // race on counter reset.
    let grabbers: Vec<Grabber> = (0..outer_total)
        .map(|_| Grabber::new(inner_n, threads, PolicyKind::SelfSched))
        .collect();
    // Pre-compute the outer index vectors once.
    let prefixes: Vec<Vec<i64>> = {
        let mut odo = Odometer::new(outer_dims);
        (0..outer_total)
            .map(|_| {
                let v = odo.indices().to_vec();
                odo.advance();
                v
            })
            .collect()
    };
    let barrier = Barrier::new(threads);
    let failed = AtomicBool::new(false);

    let team = |ws: &mut WorkerStats, ()| {
        let mut iv: Vec<i64> = Vec::with_capacity(dims.len());
        let mut payload = None;
        for (grabber, prefix) in grabbers.iter().zip(&prefixes) {
            // Once a body has panicked no worker starts another instance,
            // but every worker still meets every barrier, so none of them
            // waits forever for the one that unwound.
            if !failed.load(Ordering::Relaxed) {
                let instance = panic::catch_unwind(AssertUnwindSafe(|| {
                    while let Some(chunk) = grabber.grab() {
                        ws.chunks += 1;
                        ws.iterations += chunk.len;
                        for i in chunk.start..chunk.end() {
                            iv.clear();
                            iv.extend_from_slice(prefix);
                            iv.push(i as i64 + 1);
                            body(&iv);
                        }
                    }
                }));
                if let Err(p) = instance {
                    failed.store(true, Ordering::Relaxed);
                    payload = Some(p);
                }
            }
            barrier.wait();
        }
        // `run_workers` hands the body's own payload to the caller.
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    };
    run_workers(threads, "TEAM/SS".into(), || (), team).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as Cell, Ordering};

    fn opts(threads: usize) -> RuntimeOptions {
        RuntimeOptions {
            threads,
            policy: PolicyKind::SelfSched,
        }
    }

    #[test]
    fn team_sweep_visits_every_cell_once() {
        let dims = [6u64, 10];
        let n: u64 = dims.iter().product();
        let hits: Vec<Cell> = (0..n).map(|_| Cell::new(0)).collect();
        let strides = lc_space::strides(&dims);
        let stats = team_sweep_for(&dims, &opts(4), |iv| {
            let flat: u64 = iv
                .iter()
                .enumerate()
                .map(|(k, &ix)| (ix as u64 - 1) * strides[k])
                .sum();
            hits[flat as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.total_iterations(), n);
        assert_eq!(stats.policy, "TEAM/SS");
    }

    #[test]
    fn team_sweep_depth_three() {
        let dims = [3u64, 4, 5];
        let n: u64 = dims.iter().product();
        let count = Cell::new(0);
        let stats = team_sweep_for(&dims, &opts(3), |iv| {
            assert_eq!(iv.len(), 3);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(stats.total_iterations(), n);
    }

    #[test]
    fn team_sweep_depth_one_behaves_like_single_parallel_loop() {
        let dims = [40u64];
        let count = Cell::new(0);
        team_sweep_for(&dims, &opts(2), |iv| {
            assert_eq!(iv.len(), 1);
            count.fetch_add(iv[0] as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 40 * 41 / 2);
    }

    #[test]
    fn barrier_orders_instances() {
        // Writes of instance k must all happen before any write of
        // instance k+1: record a max-so-far and assert monotonicity.
        let dims = [8u64, 16];
        let max_seen = Cell::new(0);
        team_sweep_for(&dims, &opts(4), |iv| {
            let inst = iv[0] as u64;
            let prev = max_seen.fetch_max(inst, Ordering::SeqCst);
            // An earlier instance may never appear after a later one has
            // fully completed. With the barrier, prev is at most inst
            // (instances in flight are never more than one).
            assert!(
                prev <= inst,
                "instance {inst} observed after instance {prev}"
            );
        });
    }

    #[test]
    fn zero_trip_outer_level_runs_nothing() {
        for dims in [[0u64, 5], [5, 0]] {
            let calls = Cell::new(0);
            let stats = team_sweep_for(&dims, &opts(2), |_| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.load(Ordering::Relaxed), 0, "{dims:?}");
            assert_eq!(stats.total_iterations(), 0, "{dims:?}");
        }
    }

    #[test]
    fn a_panicking_body_keeps_its_message_instead_of_hanging() {
        // Run on a helper thread so a regression fails the test instead
        // of wedging the whole suite at the barrier.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(|| {
                team_sweep_for(&[4, 64], &opts(2), |iv| {
                    if iv == [2, 10] {
                        panic!("boom at {iv:?}");
                    }
                });
            });
            let _ = tx.send(run.map_err(|p| p.downcast::<String>().map(|s| *s)));
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("team_sweep_for hung after a body panicked");
        helper.join().expect("the helper thread catches the panic");
        match run {
            Err(Ok(msg)) => assert_eq!(msg, "boom at [2, 10]"),
            other => panic!("expected the body's panic message, got {other:?}"),
        }
    }

    #[test]
    fn single_thread_team_works() {
        let dims = [5u64, 5];
        let count = Cell::new(0);
        team_sweep_for(&dims, &opts(1), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 25);
    }
}
