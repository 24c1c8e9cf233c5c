//! The standard pipeline's passes, as one closed enum.
//!
//! Each pass sees one top-level nest at a time through its `NestState`:
//! the nest's [`NestAnalyses`] cache plus what earlier passes decided.
//! A pass reports a [`TraceOutcome`] — applied / skipped-with-diagnostic
//! / no-op / analyzed — which the [`crate::Driver`] timestamps into the
//! [`crate::trace::PipelineTrace`].
//!
//! The standard pipeline order follows the paper's presentation, with
//! the static analyzer in front:
//!
//! 1. `analyze` — run the `lc-lint` checks (race, overflow, non-affine,
//!    dead-induction, reduction) and veto the nest when a
//!    `deny`-severity lint fires;
//! 2. `normalize` — put headers in `1..=N step 1` form (cached);
//! 3. `perfect` — sink prologue/epilogue statements to perfect the nest
//!    (guarded statement distribution);
//! 4. `interchange` — move a serial outermost level inward when the
//!    level below it is parallel, so DOALL levels sit outermost;
//! 5. `advise` — pick the best legal collapse band analytically;
//! 6. `coalesce` — the transformation itself, routed by
//!    [`coalesce_nest`] (normalized nest, or the raw nest when a bound
//!    is symbolic);
//! 7. `strength-reduce` — report the recovery-CSE savings.
//!
//! Passes 3–5 are *enabling* passes: their failures are recorded as
//! skips, never escalated — a nest that cannot be perfected may still
//! coalesce as-is. Once a nest has a decision (coalesced, skipped, or
//! vetoed by a denied lint) every later pass except `strength-reduce`
//! is a no-op.

use std::time::Instant;

use lc_ir::stmt::{Loop, Stmt};
use lc_ir::{Error, Result, SkipReason};
use lc_lint::{ConstEnv, Finding, LintCode, NestLinter, Severity};
use lc_xform::cache::NestAnalyses;
use lc_xform::coalesce::{coalesce_nest, CoalesceInfo, NestError};
use lc_xform::interchange::interchange;
use lc_xform::perfect::perfect_recursively;
use lc_xform::recovery::per_iteration_cost;

use crate::trace::TraceEvent;
use crate::trace::TraceOutcome::{self, Analyzed, Applied, Noop, Skipped};
use crate::{DriverOptions, Skip};

/// The final disposition of a nest, produced by the `coalesce` pass (or
/// by `analyze` when a denied lint vetoes the nest).
#[derive(Debug)]
pub(crate) enum Decision {
    /// The nest was rewritten into these statements (preamble + loop for
    /// the symbolic path, a single loop otherwise).
    Coalesced {
        stmts: Vec<Stmt>,
        info: CoalesceInfo,
    },
    /// The nest is left untouched, with the diagnostic.
    Skipped(Skip),
}

/// Mutable per-nest state threaded through the pipeline.
pub(crate) struct NestState {
    /// Index of the nest's statement in the program body.
    pub index: usize,
    /// Constant-propagation environment from the straight-line scalar
    /// assignments preceding this nest (LC002's bounded-symbolic trips).
    pub env: ConstEnv,
    /// Memoized analyses of the nest's current form.
    pub cache: NestAnalyses,
    /// Band chosen by `advise`, overriding the configured band.
    pub band_override: Option<(usize, usize)>,
    /// Set once the nest is decided; later passes become no-ops.
    pub decision: Option<Decision>,
}

impl NestState {
    /// Fresh state for the loop `l` at body position `index`, under the
    /// constants the statements before it established.
    pub fn new(index: usize, l: &Loop, env: ConstEnv) -> Self {
        NestState {
            index,
            env,
            cache: NestAnalyses::new(l),
            band_override: None,
            decision: None,
        }
    }
}

/// One pipeline pass. Passes are stateless, so one pipeline serves
/// concurrent batch workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    Analyze,
    Normalize,
    Perfect,
    Interchange,
    Advise,
    Coalesce,
    StrengthReduce,
}

impl Pass {
    /// Stable name used in pipelines, traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Analyze => "analyze",
            Pass::Normalize => "normalize",
            Pass::Perfect => "perfect",
            Pass::Interchange => "interchange",
            Pass::Advise => "advise",
            Pass::Coalesce => "coalesce",
            Pass::StrengthReduce => "strength-reduce",
        }
    }

    /// The pass called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Pass> {
        Some(match name {
            "analyze" => Pass::Analyze,
            "normalize" => Pass::Normalize,
            "perfect" => Pass::Perfect,
            "interchange" => Pass::Interchange,
            "advise" => Pass::Advise,
            "coalesce" => Pass::Coalesce,
            "strength-reduce" => Pass::StrengthReduce,
            _ => return None,
        })
    }

    /// Whether an `Applied` outcome means the program's code changed (as
    /// opposed to analysis state or advice). Structural passes are
    /// eligible for the per-pass validation hook.
    pub fn structural(self) -> bool {
        matches!(self, Pass::Perfect | Pass::Interchange | Pass::Coalesce)
    }

    /// Run over one nest. `Err` aborts the whole compilation; a pass that
    /// merely cannot apply returns `Ok(Skipped { .. })`. The `analyze`
    /// pass also pushes one `lint:LCxxx` event per lint into `events`
    /// and its findings into `lints`.
    pub fn run(
        self,
        nest: &mut NestState,
        options: &DriverOptions,
        events: &mut Vec<TraceEvent>,
        lints: &mut Vec<Finding>,
    ) -> Result<TraceOutcome> {
        if nest.decision.is_some() && self != Pass::StrengthReduce {
            return Ok(Noop);
        }
        match self {
            Pass::Analyze => Ok(analyze(nest, options, events, lints)),
            Pass::Normalize => normalize(nest),
            Pass::Perfect => Ok(perfect(nest)),
            Pass::Interchange => Ok(interchange_outer(nest)),
            Pass::Advise => Ok(advise(nest, options)),
            Pass::Coalesce => coalesce(nest, options),
            Pass::StrengthReduce => Ok(strength_reduce(nest, options)),
        }
    }
}

/// Static analysis (`lc-lint`).
///
/// Runs every lint enabled in [`DriverOptions::lints`] over the nest
/// (including sub-nests below imperfect levels), timing each lint
/// individually. Findings never abort the compilation; a lint
/// configured at `deny` severity instead *vetoes the nest* — the pass
/// records a [`SkipReason::LintDenied`] decision, so every later pass
/// no-ops and the nest is emitted untransformed. This is the
/// conservative reading of a denied lint: refusing to transform is
/// always safe, transforming a racy nest is not.
fn analyze(
    nest: &mut NestState,
    options: &DriverOptions,
    events: &mut Vec<TraceEvent>,
    lints: &mut Vec<Finding>,
) -> TraceOutcome {
    let set = &options.lints;
    if set.all_allowed() {
        return Noop;
    }
    let mut linter = NestLinter::new(nest.cache.current(), nest.index, &nest.env);
    let mut findings = Vec::new();
    let mut per_lint = Vec::new();
    for code in LintCode::ALL {
        let sev = set.level(code);
        if sev == Severity::Allow {
            continue;
        }
        let start = Instant::now();
        findings.extend(linter.run(code, sev));
        per_lint.push((code, start.elapsed().as_nanos().max(1) as u64));
    }
    // One event per lint that ran; the driver then records the stage
    // summary this returns.
    for (code, nanos) in per_lint {
        events.push(TraceEvent {
            nest: Some(nest.index),
            pass: format!("lint:{code}"),
            outcome: analyzed(findings.iter().filter(|f| f.code == code)),
            nanos,
        });
    }
    if let Some(deny) = findings.iter().find(|f| f.severity == Severity::Deny) {
        nest.decision = Some(Decision::Skipped(Skip {
            nest: nest.index,
            reason: SkipReason::LintDenied {
                code: deny.code.code().to_string(),
                message: deny.message.clone(),
            },
            fallback: None,
        }));
    }
    let outcome = analyzed(findings.iter());
    lints.extend(findings);
    outcome
}

/// Count `findings`, and those of them at `deny` severity.
fn analyzed<'a>(findings: impl Iterator<Item = &'a Finding> + Clone) -> TraceOutcome {
    Analyzed {
        findings: findings.clone().count() as u64,
        denied: findings.filter(|f| f.severity == Severity::Deny).count() as u64,
    }
}

/// Loop normalization (via the analysis cache).
///
/// Reports how many headers needed rewriting; a symbolic-bound failure
/// is recorded here but the final constant-vs-symbolic routing happens
/// in `coalesce`.
fn normalize(nest: &mut NestState) -> Result<TraceOutcome> {
    let cache = &mut nest.cache;
    let unnormalized = cache
        .nest()
        .loops
        .iter()
        .filter(|h| !h.is_normalized())
        .count() as u64;
    match cache.normalized() {
        Ok(_) if unnormalized == 0 => Ok(Noop),
        Ok(_) => Ok(Applied {
            rewrites: unnormalized,
        }),
        Err(Error::Unsupported(reason)) => Ok(Skipped { reason }),
        Err(e) => Err(e),
    }
}

/// The outcome of an enabling rewrite: a new loop replaces the nest's
/// current form (invalidating its cached analyses), and any failure is a
/// skip — an enabling pass never aborts the compilation, since the nest
/// may still coalesce (or skip) as-is.
fn enabling(cache: &mut NestAnalyses, rewritten: Result<Loop>) -> TraceOutcome {
    match rewritten {
        Ok(l) => {
            cache.rewrite(l);
            Applied { rewrites: 1 }
        }
        Err(Error::Unsupported(reason)) => Skipped { reason },
        Err(e) => Skipped {
            reason: SkipReason::Other(e.to_string()),
        },
    }
}

/// Nest perfection (sink prologue/epilogue statements into the inner
/// loop under first/last-iteration guards). Structural.
fn perfect(nest: &mut NestState) -> TraceOutcome {
    match perfect_recursively(nest.cache.current()) {
        Ok(p) if p == *nest.cache.current() => Noop,
        rewritten => enabling(&mut nest.cache, rewritten),
    }
}

/// Loop interchange. When the outermost level carries a dependence but
/// the level below it is parallel, swap them so the parallel level moves
/// outward — the classical enabling step the paper positions coalescing
/// against. Structural.
fn interchange_outer(nest: &mut NestState) -> TraceOutcome {
    let cache = &mut nest.cache;
    let depth = cache.nest().depth();
    if depth < 2 || cache.normalized().is_err() {
        // Depth-1 or symbolic nests: nothing to interchange here.
        return Noop;
    }
    let carried: Vec<bool> = match cache.deps() {
        Ok(d) => (0..depth).map(|k| d.carried_at(k)).collect(),
        // Let the coalesce pass surface analysis problems.
        Err(_) => return Noop,
    };
    let Some(level) = (0..depth - 1).find(|&k| carried[k] && !carried[k + 1]) else {
        return Noop;
    };
    let rewritten = interchange(cache.current(), level);
    enabling(cache, rewritten)
}

/// Analytic band advice (only when [`DriverOptions::advise`] is set).
/// Evaluates every contiguous DOALL-legal band under the machine model
/// and overrides the configured band with the winner.
fn advise(nest: &mut NestState, options: &DriverOptions) -> TraceOutcome {
    let Some(params) = &options.advise else {
        return Noop;
    };
    let symbolic = Skipped {
        reason: SkipReason::SymbolicBounds,
    };
    let dims = match nest.cache.normalized() {
        Ok(n) => match n.trip_counts() {
            Some(d) => d,
            None => return symbolic,
        },
        Err(_) => return symbolic,
    };
    let legal: Vec<bool> = match nest.cache.deps() {
        Ok(d) => (0..dims.len()).map(|k| !d.carried_at(k)).collect(),
        Err(_) => return Noop,
    };
    if !legal.iter().any(|&x| x) {
        return Skipped {
            reason: SkipReason::NothingLegal,
        };
    }
    let scheme = options.coalesce.scheme;
    let advice = lc_sched::advise::advise(&dims, &legal, params, &|band| {
        per_iteration_cost(scheme, band)
    });
    nest.band_override = Some(advice.band);
    Applied {
        rewrites: (advice.band.1 - advice.band.0) as u64,
    }
}

/// The coalescing transformation, with every analysis drawn from the
/// nest's cache. A symbolic-bound skip reports both reasons: why
/// normalization stopped, and why the raw nest did not coalesce either.
fn coalesce(nest: &mut NestState, options: &DriverOptions) -> Result<TraceOutcome> {
    let depth = nest.cache.nest().depth();
    let mut opts = options.coalesce.clone().clamped_to_depth(depth);
    if let Some(band) = nest.band_override {
        opts.levels = Some(band);
    }
    let band = opts.levels.unwrap_or((0, depth));
    let width = band.1.saturating_sub(band.0) as u64;

    let result = match coalesce_nest(&mut nest.cache, &opts) {
        Ok(result) => result,
        Err(NestError {
            symbolic,
            error: Error::Unsupported(reason),
        }) => {
            return Ok(match symbolic {
                Some(first) => skip(nest, first, Some(reason)),
                None => skip(nest, reason, None),
            })
        }
        Err(NestError { error, .. }) => return Err(error),
    };
    nest.decision = Some(Decision::Coalesced {
        stmts: result.stmts(),
        info: result.info,
    });
    Ok(Applied { rewrites: width })
}

/// Record a skip decision and report it.
fn skip(nest: &mut NestState, reason: SkipReason, fallback: Option<SkipReason>) -> TraceOutcome {
    nest.decision = Some(Decision::Skipped(Skip {
        nest: nest.index,
        reason: reason.clone(),
        fallback,
    }));
    Skipped { reason }
}

/// Recovery strength reduction reporting.
///
/// The common-subexpression extraction over recovery statements is fused
/// into `coalesce_band`'s emission (it needs the fresh-temp namespace
/// computed there), so this pass does not rewrite — it reports the
/// per-iteration cost units the CSE saved, making the paper's
/// strength-reduction remark visible in the trace.
fn strength_reduce(nest: &NestState, options: &DriverOptions) -> TraceOutcome {
    if !options.coalesce.strength_reduce {
        return Noop;
    }
    match &nest.decision {
        Some(Decision::Coalesced { info, .. }) if !info.dims.is_empty() => {
            let naive = per_iteration_cost(info.scheme, &info.dims).units();
            Applied {
                rewrites: naive.saturating_sub(info.recovery_cost_per_iteration),
            }
        }
        _ => Noop,
    }
}
