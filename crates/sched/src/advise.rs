//! Collapse-band advisor: how many levels should be coalesced?
//!
//! The F4 ablation shows that full collapse is not always best — index
//! recovery is paid per iteration, while the balance benefit saturates
//! once the coalesced band exposes "enough" iterations for the processor
//! count. This module picks the contiguous band `[s, e)` minimizing an
//! analytic makespan estimate:
//!
//! ```text
//! total(s, e) = Π_{k<s} N_k · ( fork + barrier + dispatch(s, e)
//!               + ⌈Π_{k∈[s,e)} N_k / p⌉ · C(s, e) )
//! C(s, e)     = recovery(dims[s..e]) + loop_overhead
//!               + Π_{k≥e} N_k · (body + loop_overhead)
//! ```
//!
//! with GSS dispatch (`≈ p·ln(N/p) + p` chunks). The estimate intentionally
//! mirrors `lc-machine`'s simulator — an experiment (`A1`) checks the
//! advisor's choice against exhaustively simulating every band.
//!
//! Recovery cost arrives as a typed [`RecoveryCost`] from the shared
//! recovery-expression builder — the same count the rewrite itself emits
//! — so the advisor and the analytic tables cannot drift apart.

use lc_ir::build::RecoveryCost;

use crate::dispatch::single_loop_dispatch;
use crate::policy::PolicyKind;

/// Machine and workload parameters for the estimate. These mirror
/// `lc_machine::CostModel` plus a constant per-iteration body cost.
#[derive(Debug, Clone, Copy)]
pub struct AdviseParams {
    /// Cost of one synchronized fetch&add.
    pub fetch_add: u64,
    /// Barrier cost per crossing.
    pub barrier: u64,
    /// Fork cost per parallel-loop instance.
    pub fork: u64,
    /// Per-iteration loop bookkeeping.
    pub loop_overhead: u64,
    /// Estimated innermost-body cost per iteration.
    pub body_cost: u64,
    /// Processor count.
    pub p: u64,
}

impl Default for AdviseParams {
    fn default() -> Self {
        AdviseParams {
            fetch_add: 8,
            barrier: 16,
            fork: 100,
            loop_overhead: 2,
            body_cost: 50,
            p: 16,
        }
    }
}

/// One candidate band with its estimated makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandEstimate {
    /// The band `[start, end)`.
    pub band: (usize, usize),
    /// Estimated makespan in abstract instructions.
    pub estimate: u64,
}

/// The advisor's output: the chosen band and every candidate's estimate
/// (sorted best-first) for inspection.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The recommended band.
    pub band: (usize, usize),
    /// Every candidate, best first.
    pub candidates: Vec<BandEstimate>,
}

/// Estimate the makespan of coalescing band `[s, e)` of `dims` under the
/// given parameters. `recovery_cost(dims_band)` supplies the typed
/// per-iteration index-recovery cost for a band (e.g.
/// `lc_xform::recovery::per_iteration_cost`); the estimate charges its
/// weighted [`RecoveryCost::units`].
pub fn estimate_band(
    dims: &[u64],
    band: (usize, usize),
    params: &AdviseParams,
    recovery_cost: &dyn Fn(&[u64]) -> RecoveryCost,
) -> u64 {
    let (s, e) = band;
    assert!(s < e && e <= dims.len(), "invalid band");
    let p = params.p.max(1);

    let outer: u64 = dims[..s].iter().product();
    let n_band: u64 = dims[s..e].iter().product();
    let inner: u64 = dims[e..].iter().product();

    // Serial inner subnest per coalesced iteration: headers + bodies.
    let inner_headers: u64 = {
        let mut acc = 0;
        let mut inst = 1;
        for &d in &dims[e..] {
            inst *= d;
            acc += inst;
        }
        acc
    };
    let per_iter = recovery_cost(&dims[s..e]).units()
        + params.loop_overhead
        + inner_headers * params.loop_overhead
        + inner * params.body_cost;

    // Counted exactly by a GSS dispenser, not by the logarithmic
    // approximation, so the estimate stays integer-exact.
    let chunks = single_loop_dispatch(n_band, p as usize, PolicyKind::Guided).chunks;
    // Dispatch on the critical path: each processor's share of the chunk
    // grabs plus its final empty grab.
    let dispatch = (chunks.div_ceil(p) + 1) * params.fetch_add;
    let critical_iters = n_band.div_ceil(p);

    let per_instance = params.fork + params.barrier + dispatch + critical_iters * per_iter;
    // Outer serial levels run the whole parallel instance once each, plus
    // their own header bookkeeping.
    outer * (per_instance + params.loop_overhead)
}

/// Evaluate every contiguous band of doall-legal levels and return the
/// best. `legal[k]` marks levels that may participate (the caller derives
/// this from dependence analysis); bands must consist of consecutive
/// legal levels. Panics if no level is legal.
pub fn advise(
    dims: &[u64],
    legal: &[bool],
    params: &AdviseParams,
    recovery_cost: &dyn Fn(&[u64]) -> RecoveryCost,
) -> Advice {
    assert_eq!(dims.len(), legal.len());
    let mut candidates = Vec::new();
    for s in 0..dims.len() {
        for e in (s + 1)..=dims.len() {
            if (s..e).all(|k| legal[k]) {
                candidates.push(BandEstimate {
                    band: (s, e),
                    estimate: estimate_band(dims, (s, e), params, recovery_cost),
                });
            }
        }
    }
    assert!(
        !candidates.is_empty(),
        "no coalescible band (no legal level)"
    );
    candidates.sort_by_key(|c| (c.estimate, c.band.0, c.band.1));
    Advice {
        band: candidates[0].band,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recovery-cost stand-in matching the shape of the real one:
    /// ~22 weighted units per level beyond the first, 1 for a single
    /// level (expressed as bare add units; only `units()` matters here).
    fn rec(dims: &[u64]) -> RecoveryCost {
        let units = if dims.len() <= 1 {
            1
        } else {
            22 * dims.len() as u64 - 21
        };
        RecoveryCost {
            adds: units,
            ..RecoveryCost::default()
        }
    }

    #[test]
    fn advisor_prefers_partial_collapse_on_deep_nests() {
        // The F4 scenario: 8^4 nest, p=16 — two levels expose 64
        // iterations, enough for 16 processors; deeper collapse only adds
        // recovery cost.
        let dims = [8u64, 8, 8, 8];
        let advice = advise(&dims, &[true; 4], &AdviseParams::default(), &rec);
        let (s, e) = advice.band;
        assert!(e - s < 4, "advisor chose full collapse: {advice:?}");
        assert!((e - s) >= 1);
        // The chosen band must expose at least p iterations.
        let n: u64 = dims[s..e].iter().product();
        assert!(n >= 16, "band too narrow: {advice:?}");
    }

    #[test]
    fn advisor_collapses_fully_when_outer_is_narrow() {
        // 2×2×2 on p=16: even full collapse only yields 8 iterations —
        // the advisor must take everything it can get.
        let dims = [2u64, 2, 2];
        let advice = advise(&dims, &[true; 3], &AdviseParams::default(), &rec);
        assert_eq!(advice.band, (0, 3), "{advice:?}");
    }

    #[test]
    fn advisor_respects_legality_mask() {
        // Level 1 is illegal: only bands within {0} or {2,3} qualify.
        let dims = [4u64, 4, 4, 4];
        let legal = [true, false, true, true];
        let advice = advise(&dims, &legal, &AdviseParams::default(), &rec);
        let (s, e) = advice.band;
        assert!(
            (s == 0 && e == 1) || (s >= 2),
            "band crosses illegal level: {advice:?}"
        );
        for c in &advice.candidates {
            assert!((c.band.0..c.band.1).all(|k| legal[k]));
        }
    }

    #[test]
    fn single_level_nest_has_one_candidate() {
        let advice = advise(&[100], &[true], &AdviseParams::default(), &rec);
        assert_eq!(advice.band, (0, 1));
        assert_eq!(advice.candidates.len(), 1);
    }

    #[test]
    fn estimates_increase_with_body_cost() {
        let dims = [16u64, 16];
        let cheap = estimate_band(
            &dims,
            (0, 2),
            &AdviseParams {
                body_cost: 10,
                ..Default::default()
            },
            &rec,
        );
        let pricey = estimate_band(
            &dims,
            (0, 2),
            &AdviseParams {
                body_cost: 1000,
                ..Default::default()
            },
            &rec,
        );
        assert!(pricey > cheap);
    }

    #[test]
    #[should_panic(expected = "no coalescible band")]
    fn all_illegal_panics() {
        let _ = advise(&[4, 4], &[false, false], &AdviseParams::default(), &rec);
    }
}
