//! The [`Driver`]: a pass pipeline over whole programs, timing every
//! pass invocation into a [`PipelineTrace`].
//!
//! The pipeline is a *list of pass names*: [`DEFAULT_PASS_ORDER`]
//! reproduces the paper's presentation, and [`Driver::with_pipeline`]
//! accepts any subset or reordering of it for tests and tooling.

use std::time::Instant;

use lc_ir::parser::parse_program;
use lc_ir::printer::print_program;
use lc_ir::program::Program;
use lc_ir::stmt::Stmt;
use lc_ir::Result;
use lc_lint::LintSet;
use lc_xform::coalesce::CoalesceOptions;
use lc_xform::validate::check_equivalent;

use crate::batch::{self, BatchItem};
use crate::pass::{Decision, NestState, Pass};
use crate::trace::{PipelineTrace, TraceEvent, TraceOutcome};
use crate::{DriverOptions, DriverOutput};

/// Seed for the pipeline's built-in equivalence check — the same value
/// the facade has used since the seed commit, so validation remains
/// deterministic and comparable.
pub const VALIDATE_SEED: u64 = 0xC0A1E5CE;

/// The standard pipeline order: analyze → normalize → perfect →
/// interchange → advise → coalesce → strength-reduce — the static
/// analyzer first (it sees the nest exactly as written), then the
/// paper's presentation. Every pass in the list is invoked and traced;
/// `analyze`, `advise` and `strength-reduce` no-op unless their
/// [`DriverOptions`] field enables them.
pub const DEFAULT_PASS_ORDER: [&str; 7] = [
    "analyze",
    "normalize",
    "perfect",
    "interchange",
    "advise",
    "coalesce",
    "strength-reduce",
];

/// The single entry point: a configured pass pipeline ready to compile
/// programs (and batches of programs).
///
/// A driver is immutable after construction (passes are stateless), so
/// one instance can serve many compilations — including concurrently
/// from [`Driver::compile_batch`] workers.
#[derive(Debug, Clone)]
pub struct Driver {
    options: DriverOptions,
    passes: Vec<Pass>,
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new(DriverOptions::default())
    }
}

impl Driver {
    /// Build a driver running [`DEFAULT_PASS_ORDER`] under `options`.
    pub fn new(options: DriverOptions) -> Self {
        Driver::with_pipeline(options, &DEFAULT_PASS_ORDER)
            .expect("every pass in DEFAULT_PASS_ORDER exists")
    }

    /// Build a driver running exactly the named passes, in order. An
    /// unknown pass name is reported as an error — the entry point for
    /// callers assembling pipelines from untrusted or generated input,
    /// such as the differential fuzzer permuting [`DEFAULT_PASS_ORDER`].
    pub fn with_pipeline(
        options: DriverOptions,
        order: &[&str],
    ) -> std::result::Result<Self, String> {
        let passes = order
            .iter()
            .map(|name| {
                Pass::parse(name).ok_or_else(|| {
                    format!(
                        "unknown pass `{name}` (known: {})",
                        DEFAULT_PASS_ORDER.join(", ")
                    )
                })
            })
            .collect::<std::result::Result<_, _>>()?;
        Ok(Driver { options, passes })
    }

    /// The driver the `loop_coalescing` facade uses to stay
    /// byte-compatible with the seed `coalesce_source` pipeline: the
    /// standard order without the structural enabling passes `perfect`
    /// and `interchange`, and every lint at `allow` (the seed pipeline
    /// predates the analyzer).
    pub fn facade_compat(coalesce: CoalesceOptions) -> Self {
        let options = DriverOptions {
            coalesce,
            lints: LintSet::all_allow(),
            ..DriverOptions::default()
        };
        let order = [
            "analyze",
            "normalize",
            "advise",
            "coalesce",
            "strength-reduce",
        ];
        Driver::with_pipeline(options, &order).expect("every facade pass exists")
    }

    /// Names of the configured pipeline's passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The configured options.
    pub fn options(&self) -> &DriverOptions {
        &self.options
    }

    /// Parse DSL source and compile it.
    pub fn compile(&self, src: &str) -> Result<DriverOutput> {
        self.compile_program(&parse_program(src)?)
    }

    /// Compile every source in parallel on a self-scheduled worker
    /// pool. Results preserve input order and are identical to calling
    /// [`Driver::compile`] sequentially; each [`BatchItem`] additionally
    /// records its own wall time, and a panic while compiling one item
    /// becomes that item's error instead of aborting the batch.
    pub fn compile_batch<S: AsRef<str> + Sync>(&self, sources: &[S]) -> Vec<BatchItem> {
        batch::compile_batch(self, sources)
    }

    /// Compile one program: run every pass over every top-level loop
    /// nest, validate the rewrite, and return the transformed program
    /// with its diagnostics and trace.
    pub fn compile_program(&self, original: &Program) -> Result<DriverOutput> {
        let t0 = Instant::now();
        let mut transformed = original.clone();
        transformed.body.clear();
        let mut coalesced = Vec::new();
        let mut skipped = Vec::new();
        let mut lints = Vec::new();
        let mut trace = PipelineTrace::default();
        // Constant environment from the straight-line statements seen so
        // far; the analyze stage lints each nest under the constants
        // established *before* it (LC002's bounded-symbolic trips).
        let mut env = lc_lint::ConstEnv::new();

        for (idx, stmt) in original.body.iter().enumerate() {
            let Stmt::Loop(l) = stmt else {
                lc_lint::absorb_stmt(&mut env, stmt);
                transformed.body.push(stmt.clone());
                continue;
            };
            let mut nest = NestState::new(idx, l, env.clone());
            lc_lint::absorb_stmt(&mut env, stmt);
            for &pass in &self.passes {
                let start = Instant::now();
                let outcome = pass.run(&mut nest, &self.options, &mut trace.events, &mut lints)?;
                let applied = matches!(outcome, TraceOutcome::Applied { .. });
                trace.events.push(TraceEvent {
                    nest: Some(idx),
                    pass: pass.name().to_string(),
                    outcome,
                    nanos: start.elapsed().as_nanos().max(1) as u64,
                });
                // Per-pass validation hook: after every structural
                // rewrite, interpret-and-compare the program with this
                // nest in its current (partially transformed) state.
                if self.options.validate_each_pass && applied && pass.structural() {
                    let vstart = Instant::now();
                    let mut candidate = original.clone();
                    candidate.body.remove(idx);
                    let current: Vec<Stmt> = match &nest.decision {
                        Some(Decision::Coalesced { stmts, .. }) => stmts.clone(),
                        _ => vec![Stmt::Loop(nest.cache.current().clone())],
                    };
                    for (off, s) in current.into_iter().enumerate() {
                        candidate.body.insert(idx + off, s);
                    }
                    check_equivalent(original, &candidate, VALIDATE_SEED)?;
                    trace.events.push(TraceEvent {
                        nest: Some(idx),
                        pass: format!("validate:{}", pass.name()),
                        outcome: TraceOutcome::Validated,
                        nanos: vstart.elapsed().as_nanos().max(1) as u64,
                    });
                }
            }
            trace.cache.absorb(&nest.cache.stats);
            match nest.decision {
                Some(Decision::Coalesced { stmts, info }) => {
                    transformed.body.extend(stmts);
                    coalesced.push(info);
                }
                Some(Decision::Skipped(skip)) => {
                    transformed.body.push(stmt.clone());
                    skipped.push(skip);
                }
                // Defensive: the coalesce pass always decides, but an
                // undecided nest must never be dropped from the output.
                None => transformed.body.push(stmt.clone()),
            }
        }

        // Belt and braces: the rewritten program must agree with the
        // original (same policy and seed as the seed pipeline).
        if self.options.validate && !coalesced.is_empty() {
            let start = Instant::now();
            check_equivalent(original, &transformed, VALIDATE_SEED)?;
            trace.events.push(TraceEvent {
                nest: None,
                pass: "validate".to_string(),
                outcome: TraceOutcome::Validated,
                nanos: start.elapsed().as_nanos().max(1) as u64,
            });
        }

        trace.total_nanos = t0.elapsed().as_nanos().max(1) as u64;
        Ok(DriverOutput {
            transformed_source: print_program(&transformed),
            transformed,
            coalesced,
            skipped,
            lints,
            trace,
        })
    }
}
