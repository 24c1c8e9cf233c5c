//! Chunk acquisition from a shared counter — the software fetch&add.

use std::sync::atomic::{AtomicU64, Ordering};

use lc_sched::policy::{Chunk, Dispenser, PolicyKind};
use parking_lot::Mutex;

/// A thread-safe source of iteration chunks; [`PolicyKind`] sizes them.
pub(crate) enum Grabber {
    /// SS, CSS(k) and GSS: the size is a function of the counter alone, so
    /// one compare-and-swap claims a chunk — the paper's one synchronized
    /// operation per dispatch, with no lock.
    Counter {
        next: AtomicU64,
        n: u64,
        p: usize,
        kind: PolicyKind,
    },
    /// TSS and factoring: the size depends on dispatch history, which an
    /// atomic counter cannot carry, so a mutex guards a [`Dispenser`].
    /// Boxed so the common arm stays small: `team_sweep_for` keeps one
    /// grabber per loop instance.
    Locked(Box<Mutex<Dispenser>>),
}

impl Grabber {
    /// Dispatch `n` iterations among `p` workers under `kind`.
    pub(crate) fn new(n: u64, p: usize, kind: PolicyKind) -> Self {
        match kind {
            PolicyKind::Trapezoid | PolicyKind::Factoring => {
                Grabber::Locked(Box::new(Mutex::new(Dispenser::with_kind(n, p, kind))))
            }
            _ => Grabber::Counter {
                next: AtomicU64::new(0),
                n,
                p,
                kind,
            },
        }
    }

    /// Claim the next chunk, or `None` when the loop is exhausted.
    pub(crate) fn grab(&self) -> Option<Chunk> {
        let (next, n, p, kind) = match self {
            Grabber::Locked(dispenser) => return dispenser.lock().grab(),
            Grabber::Counter { next, n, p, kind } => (next, *n, *p, *kind),
        };
        // The counter only ever moves to `start + len ≤ n`, and polls after
        // exhaustion leave it alone. A plain `fetch_add` would keep
        // incrementing, and near `u64::MAX` it would wrap and re-dispatch
        // iterations that already ran.
        let mut len = 0;
        let start = next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                if c >= n {
                    return None;
                }
                len = kind.chunk_for(n - c, p)?;
                Some(c + len)
            })
            .ok()?;
        Some(Chunk { start, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex as StdMutex;

    fn drain_parallel(grabber: &Grabber, threads: usize) -> Vec<Chunk> {
        let chunks = StdMutex::new(Vec::new());
        crossbeam::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| {
                    while let Some(c) = grabber.grab() {
                        chunks.lock().unwrap().push(c);
                    }
                });
            }
        })
        .unwrap();
        chunks.into_inner().unwrap()
    }

    fn assert_exact_cover(chunks: &[Chunk], n: u64) {
        let mut seen = HashSet::new();
        for c in chunks {
            for i in c.start..c.end() {
                assert!(seen.insert(i), "iteration {i} dispatched twice");
            }
        }
        assert_eq!(seen.len() as u64, n, "not all iterations dispatched");
    }

    #[test]
    fn counter_arm_stays_small() {
        assert!(std::mem::size_of::<Grabber>() <= 48);
    }

    #[test]
    fn fetch_add_covers_exactly_under_contention() {
        let g = Grabber::new(100_000, 8, PolicyKind::SelfSched);
        let chunks = drain_parallel(&g, 8);
        assert_exact_cover(&chunks, 100_000);
    }

    #[test]
    fn chunked_covers_exactly_with_ragged_tail() {
        let g = Grabber::new(1003, 4, PolicyKind::Chunked(7));
        let chunks = drain_parallel(&g, 4);
        assert_exact_cover(&chunks, 1003);
        assert!(chunks.iter().any(|c| c.len == 7));
        assert!(chunks.iter().any(|c| c.len == 1003 % 7));
    }

    #[test]
    fn guided_covers_exactly_and_decays() {
        let g = Grabber::new(10_000, 8, PolicyKind::Guided);
        let chunks = drain_parallel(&g, 8);
        assert_exact_cover(&chunks, 10_000);
        // Far fewer chunks than iterations.
        assert!(chunks.len() < 200, "{}", chunks.len());
    }

    #[test]
    fn locked_trapezoid_covers_exactly() {
        let g = Grabber::new(5000, 4, PolicyKind::Trapezoid);
        let chunks = drain_parallel(&g, 4);
        assert_exact_cover(&chunks, 5000);
    }

    #[test]
    fn locked_factoring_covers_exactly() {
        let g = Grabber::new(777, 3, PolicyKind::Factoring);
        let chunks = drain_parallel(&g, 3);
        assert_exact_cover(&chunks, 777);
    }

    #[test]
    fn empty_loop_yields_nothing() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
        ] {
            let g = Grabber::new(0, 4, kind);
            assert!(g.grab().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn empty_range_yields_nothing_for_every_grabber() {
        assert!(Grabber::new(0, 1, PolicyKind::SelfSched).grab().is_none());
        assert!(Grabber::new(0, 1, PolicyKind::Chunked(64)).grab().is_none());
        assert!(Grabber::new(0, 8, PolicyKind::Guided).grab().is_none());
        assert!(Grabber::new(0, 4, PolicyKind::Factoring).grab().is_none());
        // And stays empty on repeated polls.
        let g = Grabber::new(0, 1, PolicyKind::Chunked(3));
        for _ in 0..4 {
            assert!(g.grab().is_none());
        }
    }

    #[test]
    fn single_iteration_range_dispatches_exactly_once() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(16),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let g = Grabber::new(1, 4, kind);
            let c = g.grab().unwrap_or_else(|| panic!("{kind:?} gave nothing"));
            assert_eq!((c.start, c.len), (0, 1), "{kind:?}");
            assert_eq!(c.end(), 1, "{kind:?}");
            assert!(g.grab().is_none(), "{kind:?} dispatched twice");
        }
    }

    #[test]
    fn fetch_add_near_u64_max_never_wraps_or_overflows() {
        // Chunk larger than half the domain: the second claim takes the
        // rest of it. Before the `fetch_update` fix the third grab saw
        // a wrapped (small) counter and re-dispatched iteration 0.
        let chunk = u64::MAX / 2 + 3;
        let g = Grabber::new(u64::MAX, 1, PolicyKind::Chunked(chunk));
        let a = g.grab().unwrap();
        assert_eq!((a.start, a.len), (0, chunk));
        assert_eq!(a.end(), chunk);
        let b = g.grab().unwrap();
        assert_eq!(b.start, chunk);
        assert_eq!(b.len, u64::MAX - chunk);
        assert_eq!(b.end(), u64::MAX); // no overflow in Chunk::end
        for _ in 0..8 {
            assert!(g.grab().is_none(), "counter wrapped after exhaustion");
        }
    }

    #[test]
    fn chunked_tail_at_u64_max_stays_in_range() {
        // Start the last chunk 5 iterations before the end of the
        // domain: len must clamp so Chunk::end == u64::MAX exactly.
        let g = Grabber::new(u64::MAX, 1, PolicyKind::Chunked(7));
        if let Grabber::Counter { next, .. } = &g {
            next.store(u64::MAX - 5, Ordering::Relaxed);
        }
        let c = g.grab().unwrap();
        assert_eq!((c.start, c.len), (u64::MAX - 5, 5));
        assert_eq!(c.end(), u64::MAX);
        assert!(g.grab().is_none());
    }

    #[test]
    fn guided_near_u64_max_never_overflows() {
        // remaining/p with p=1 takes the whole domain in one chunk; the
        // CAS target is exactly n, never past it.
        let g = Grabber::new(u64::MAX, 1, PolicyKind::Guided);
        let c = g.grab().unwrap();
        assert_eq!((c.start, c.len), (0, u64::MAX));
        assert_eq!(c.end(), u64::MAX);
        assert!(g.grab().is_none());

        // With many workers the first chunks stay near remaining/p and
        // every end() is in range.
        let g = Grabber::new(u64::MAX, 1024, PolicyKind::Guided);
        let mut claimed = 0u64;
        for _ in 0..64 {
            let c = g.grab().unwrap();
            assert_eq!(c.start, claimed);
            assert!(
                c.start.checked_add(c.len).is_some(),
                "end() must not overflow"
            );
            claimed = c.end();
        }
    }

    #[test]
    fn single_thread_drain_matches_n() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(16),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let g = Grabber::new(1234, 4, kind);
            let mut total = 0;
            while let Some(c) = g.grab() {
                total += c.len;
            }
            assert_eq!(total, 1234, "{kind:?}");
        }
    }
}
