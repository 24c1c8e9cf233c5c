//! Dynamic chunking policies and the shared-counter dispenser.
//!
//! A [`PolicyKind`] decides how many consecutive iterations the next
//! requesting processor receives. For SS, CSS(k) and GSS that is a function
//! of how many iterations remain and how many processors share the loop
//! ([`PolicyKind::chunk_for`]); TSS and factoring also depend on how many
//! chunks went before. The [`Dispenser`] applies a policy to the shared
//! iteration counter — the software analogue of the fetch&add dispatch the
//! paper assumes — and counts the synchronized operations it performs.
//! Every scheduler in the workspace (the analytic tables, the simulator,
//! the advisor and the real-thread runtime) sizes its chunks here.

use std::fmt;

/// A contiguous block of coalesced iterations: 0-based `[start, start+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration index (0-based).
    pub start: u64,
    /// Number of iterations.
    pub len: u64,
}

impl Chunk {
    /// One-past-the-end iteration index.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// Static pre-assignment shapes (no shared counter at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticKind {
    /// Processor `q` gets the contiguous block `q·⌈n/p⌉ …`.
    Block,
    /// Processor `q` gets iterations `q, q+p, q+2p, …`.
    Cyclic,
}

/// Compute the static assignment of `n` iterations to `p` workers. Returns
/// one chunk list per worker (cyclic assignments have length-1 chunks).
pub fn static_assignment(n: u64, p: usize, kind: StaticKind) -> Vec<Vec<Chunk>> {
    let p = p.max(1);
    let mut out = vec![Vec::new(); p];
    match kind {
        StaticKind::Block => {
            let b = n.div_ceil(p as u64);
            for (q, chunks) in out.iter_mut().enumerate() {
                let start = (q as u64) * b;
                if start >= n {
                    break;
                }
                chunks.push(Chunk {
                    start,
                    len: b.min(n - start),
                });
            }
        }
        StaticKind::Cyclic => {
            for i in 0..n {
                out[(i % p as u64) as usize].push(Chunk { start: i, len: 1 });
            }
        }
    }
    out
}

/// A dynamic chunking policy. Each loop execution gets its own
/// [`Dispenser`], which carries the little history TSS and factoring need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Pure self-scheduling SS: one iteration per dispatch (maximal
    /// balance, maximal synchronization traffic).
    SelfSched,
    /// Chunked self-scheduling CSS(k): a fixed `k` iterations per dispatch.
    Chunked(u64),
    /// Guided self-scheduling GSS: each dispatch takes `⌈remaining / p⌉`
    /// iterations, so chunks decay geometrically and the tail
    /// self-balances.
    Guided,
    /// Trapezoid self-scheduling TSS(f, 1): chunk sizes shrink linearly
    /// from `f = ⌈n / 2p⌉` to 1 over the life of the loop.
    Trapezoid,
    /// Factoring: iterations are handed out in batches of `p` equal
    /// chunks, each batch taking half of what remains at batch start.
    Factoring,
}

impl PolicyKind {
    /// The next chunk size for the policies whose size is a function of
    /// the undispatched count alone: SS, CSS(k) and GSS. `remaining` must
    /// be positive; the result lies in `1..=remaining`. `None` for TSS and
    /// factoring, whose sizes depend on dispatch history (see
    /// [`Dispenser`]).
    pub fn chunk_for(self, remaining: u64, p: usize) -> Option<u64> {
        let size = match self {
            PolicyKind::SelfSched => 1,
            PolicyKind::Chunked(k) => k.max(1),
            PolicyKind::Guided => remaining.div_ceil(p.max(1) as u64),
            PolicyKind::Trapezoid | PolicyKind::Factoring => return None,
        };
        Some(size.min(remaining))
    }

    /// Short display name.
    pub fn name(self) -> String {
        match self {
            PolicyKind::SelfSched => "SS".into(),
            PolicyKind::Chunked(k) => format!("CSS({k})"),
            PolicyKind::Guided => "GSS".into(),
            PolicyKind::Trapezoid => "TSS".into(),
            PolicyKind::Factoring => "FAC".into(),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The shared iteration counter: each [`Dispenser::grab`] models one
/// synchronized fetch&add on the loop's dispatch variable.
pub struct Dispenser {
    kind: PolicyKind,
    n: u64,
    p: usize,
    next: u64,
    fetch_ops: u64,
    /// TSS: the current chunk size and its per-grab decrement, fixed point
    /// ×1024. `u128` keeps `n` near `u64::MAX` from overflowing.
    tss_fp: (u128, u128),
    /// Factoring: the current batch's chunk size and the grabs left in it.
    batch: (u64, usize),
}

impl Dispenser {
    /// A dispenser over `n` iterations shared by `p` processors.
    pub fn with_kind(n: u64, p: usize, kind: PolicyKind) -> Self {
        let p = p.max(1);
        let tss_fp = if kind == PolicyKind::Trapezoid {
            // f = ⌈n / 2p⌉, l = 1; C = ⌈2n / (f + l)⌉ dispatches, each
            // shrinking the size by δ = (f − l) / (C − 1).
            let first = u128::from(n.div_ceil(2 * p as u64).max(1));
            let grabs = (2 * u128::from(n)).div_ceil(first + 1).max(1);
            let step = if grabs > 1 {
                (first - 1) * 1024 / (grabs - 1)
            } else {
                0
            };
            (first * 1024, step)
        } else {
            (0, 0)
        };
        Dispenser {
            kind,
            n,
            p,
            next: 0,
            fetch_ops: 0,
            tss_fp,
            batch: (0, 0),
        }
    }

    /// Take the next chunk. Every call — including the final empty one each
    /// processor uses to discover exhaustion — counts as one fetch&add.
    pub fn grab(&mut self) -> Option<Chunk> {
        self.fetch_ops += 1;
        if self.next >= self.n {
            return None;
        }
        let remaining = self.n - self.next;
        let len = match self.kind {
            PolicyKind::Trapezoid => {
                let (size_fp, step_fp) = &mut self.tss_fp;
                // The size never exceeds f, so it fits in a u64.
                let size = (*size_fp / 1024) as u64;
                *size_fp = size_fp.saturating_sub(*step_fp);
                size
            }
            PolicyKind::Factoring => {
                let (size, left) = &mut self.batch;
                if *left == 0 {
                    *size = remaining.div_ceil(2).div_ceil(self.p as u64);
                    *left = self.p;
                }
                *left -= 1;
                *size
            }
            kind => kind.chunk_for(remaining, self.p)?,
        }
        .clamp(1, remaining);
        let c = Chunk {
            start: self.next,
            len,
        };
        self.next += len;
        Some(c)
    }

    /// Number of synchronized fetch&add operations performed so far.
    pub fn fetch_ops(&self) -> u64 {
        self.fetch_ops
    }

    /// Drain the dispenser, returning the full chunk sequence (as a single
    /// consumer would see it).
    pub fn drain(mut self) -> Vec<Chunk> {
        let mut out = Vec::new();
        while let Some(c) = self.grab() {
            out.push(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_sizes(n: u64, p: usize, kind: PolicyKind) -> Vec<u64> {
        Dispenser::with_kind(n, p, kind)
            .drain()
            .iter()
            .map(|c| c.len)
            .collect()
    }

    fn check_covers(n: u64, p: usize, kind: PolicyKind) {
        let chunks = Dispenser::with_kind(n, p, kind).drain();
        let mut expected_start = 0;
        for c in &chunks {
            assert_eq!(c.start, expected_start, "{kind:?} left a gap");
            assert!(c.len >= 1);
            expected_start = c.end();
        }
        assert_eq!(expected_start, n, "{kind:?} did not cover 0..{n}");
    }

    #[test]
    fn all_policies_cover_the_iteration_space() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(1),
            PolicyKind::Chunked(7),
            PolicyKind::Chunked(1000),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            for n in [1u64, 2, 10, 100, 1000, 12345] {
                for p in [1usize, 2, 7, 16, 64] {
                    check_covers(n, p, kind);
                }
            }
        }
    }

    #[test]
    fn self_sched_hands_out_singles() {
        assert_eq!(
            chunk_sizes(5, 4, PolicyKind::SelfSched),
            vec![1, 1, 1, 1, 1]
        );
    }

    #[test]
    fn chunked_hands_out_fixed_blocks_with_ragged_tail() {
        assert_eq!(chunk_sizes(10, 4, PolicyKind::Chunked(4)), vec![4, 4, 2]);
    }

    #[test]
    fn guided_chunks_decay_geometrically() {
        let sizes = chunk_sizes(100, 4, PolicyKind::Guided);
        // First chunk is ceil(100/4) = 25; sizes never increase; tail is 1s.
        assert_eq!(sizes[0], 25);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "GSS sizes must be non-increasing: {sizes:?}");
        }
        assert_eq!(*sizes.last().unwrap(), 1);
        // The classic bound: roughly p·ln(n/p) + p dispatches — far fewer
        // than n.
        assert!(sizes.len() < 30, "{}", sizes.len());
    }

    #[test]
    fn gss_first_chunk_formula() {
        for (n, p) in [(1000u64, 8usize), (37, 5), (64, 64), (5, 16)] {
            let sizes = chunk_sizes(n, p, PolicyKind::Guided);
            assert_eq!(sizes[0], n.div_ceil(p as u64));
        }
    }

    #[test]
    fn trapezoid_decreases_linearly() {
        let sizes = chunk_sizes(1000, 4, PolicyKind::Trapezoid);
        assert_eq!(sizes[0], 125); // ceil(1000 / (2*4))
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "TSS sizes must be non-increasing: {sizes:?}");
        }
    }

    #[test]
    fn factoring_produces_equal_batches() {
        let sizes = chunk_sizes(100, 4, PolicyKind::Factoring);
        // First batch: 4 chunks of ceil(50/4)=13.
        assert_eq!(&sizes[..4], &[13, 13, 13, 13]);
        // Second batch: remaining 48 → 4 chunks of ceil(24/4)=6.
        assert_eq!(&sizes[4..8], &[6, 6, 6, 6]);
    }

    #[test]
    fn dispenser_counts_fetch_ops_including_empty_grab() {
        let mut d = Dispenser::with_kind(3, 2, PolicyKind::SelfSched);
        let mut grabbed = 0;
        while d.grab().is_some() {
            grabbed += 1;
        }
        assert_eq!(grabbed, 3);
        assert_eq!(d.fetch_ops(), 4); // 3 successful + 1 empty
    }

    #[test]
    fn static_block_assignment_covers_and_balances() {
        let a = static_assignment(10, 4, StaticKind::Block);
        let sizes: Vec<u64> = a
            .iter()
            .map(|cs| cs.iter().map(|c| c.len).sum::<u64>())
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), 10);
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn static_cyclic_assignment_interleaves() {
        let a = static_assignment(7, 3, StaticKind::Cyclic);
        assert_eq!(
            a[0].iter().map(|c| c.start).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        assert_eq!(a[1].iter().map(|c| c.start).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(a[2].iter().map(|c| c.start).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn static_block_with_more_processors_than_iterations() {
        let a = static_assignment(3, 8, StaticKind::Block);
        let total: u64 = a.iter().flatten().map(|c| c.len).sum();
        assert_eq!(total, 3);
        assert!(a[3].is_empty());
    }

    #[test]
    fn zero_iteration_loop_dispenses_nothing() {
        let mut d = Dispenser::with_kind(0, 4, PolicyKind::Guided);
        assert!(d.grab().is_none());
        assert_eq!(d.fetch_ops(), 1);
    }

    #[test]
    fn every_policy_stays_in_range_at_u64_max() {
        // TSS used to compute 2n and f·1024 in u64 and overflowed once
        // n reached 2^58.
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(7),
            PolicyKind::Chunked(u64::MAX),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let mut d = Dispenser::with_kind(u64::MAX, 4, kind);
            let mut next = 0u64;
            let mut prev_len = u64::MAX;
            for _ in 0..64 {
                let Some(c) = d.grab() else { break };
                assert_eq!(c.start, next, "{kind:?} left a gap");
                assert!(c.len >= 1, "{kind:?}");
                next = c
                    .start
                    .checked_add(c.len)
                    .unwrap_or_else(|| panic!("{kind:?} ran past u64::MAX"));
                if matches!(kind, PolicyKind::Guided | PolicyKind::Trapezoid) {
                    assert!(c.len <= prev_len, "{kind:?} grew a chunk");
                }
                prev_len = c.len;
            }
        }
    }

    #[test]
    fn trapezoid_first_chunk_is_exact_past_2_pow_58() {
        let n = 1u64 << 58;
        let mut d = Dispenser::with_kind(n, 4, PolicyKind::Trapezoid);
        let sizes: Vec<u64> = (0..3).map(|_| d.grab().unwrap().len).collect();
        assert_eq!(sizes[0], n / 8);
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2], "{sizes:?}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PolicyKind::SelfSched.name(), "SS");
        assert_eq!(PolicyKind::Chunked(8).name(), "CSS(8)");
        assert_eq!(PolicyKind::Guided.name(), "GSS");
        assert_eq!(PolicyKind::Trapezoid.to_string(), "TSS");
        assert_eq!(PolicyKind::Factoring.name(), "FAC");
    }
}
