//! `lc-driver` — the instrumented pass driver for the loop-coalescing
//! workspace.
//!
//! The seed pipeline (`loop_coalescing::coalesce_source`) wired the
//! transformation entry points together ad hoc: every entry point
//! re-extracted, re-normalized, and re-analyzed its nest, and the only
//! observable output was the final program. This crate replaces that
//! wiring with a proper driver:
//!
//! * [`Driver`] — runs a pass pipeline ([`DEFAULT_PASS_ORDER`]: analyze
//!   → normalize → perfect → interchange → advise → coalesce →
//!   strength-reduce, or any subset via [`Driver::with_pipeline`]) over
//!   every top-level nest, then validates the rewrite against the
//!   interpreter. The pass list is the only switch: a pass acts exactly
//!   when it is in the pipeline. The `analyze` stage runs the `lc-lint`
//!   checks and can veto a nest (`deny` severity →
//!   [`SkipReason::LintDenied`]).
//! * [`lc_xform::cache::NestAnalyses`] — memoizes nest extraction,
//!   normalization, and dependence analysis per nest, with hit/miss
//!   counters ([`CacheStats`]); each analysis runs **at most once per
//!   nest** per compilation. The `coalesce` pass hands it to
//!   [`lc_xform::coalesce::coalesce_nest`], the same routing
//!   `coalesce_loop` uses.
//! * [`trace::PipelineTrace`] — a timed, JSON-serializable record of
//!   every pass invocation (applied / skipped-with-diagnostic /
//!   validated), plus a human-readable [`trace::PipelineTrace::report`].
//!   The crate writes JSON but never reads its own documents back:
//!   [`json::Json::parse`] exists for request bodies.
//! * [`Driver::compile_batch`] — compiles many programs on a
//!   self-scheduled worker pool (one shared atomic counter, in the
//!   spirit of the paper's fetch&add dispatcher) with deterministic,
//!   input-ordered results.
//!
//! # Quick example
//!
//! ```
//! use lc_driver::Driver;
//!
//! let out = Driver::default()
//!     .compile(
//!         "
//!         array A[100][50];
//!         doall i = 1..100 {
//!             doall j = 1..50 {
//!                 A[i][j] = i * j;
//!             }
//!         }
//!         ",
//!     )
//!     .unwrap();
//! assert!(out.transformed_source.contains("doall jc = 1..5000"));
//! assert_eq!(out.trace.cache.deps_computed, 1); // analyzed exactly once
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod json;
mod pass;
pub mod pipeline;
pub mod sync;
pub mod trace;

use std::fmt;

use lc_ir::program::Program;
use lc_ir::SkipReason;
use lc_lint::{Finding, LintSet};
use lc_sched::advise::AdviseParams;
use lc_xform::coalesce::{CoalesceInfo, CoalesceOptions};

pub use batch::BatchItem;
pub use lc_xform::cache::CacheStats;
pub use pipeline::{Driver, DEFAULT_PASS_ORDER};
pub use trace::{PipelineTrace, TraceEvent, TraceOutcome};

/// A nest the pipeline left untouched, with its typed diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skip {
    /// Index of the nest's statement in the program body.
    pub nest: usize,
    /// Why the constant-path coalescing declined.
    pub reason: SkipReason,
    /// When the symbolic fallback was tried and also declined, its
    /// reason.
    pub fallback: Option<SkipReason>,
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.fallback {
            Some(fb) => write!(f, "{}; symbolic fallback: {}", self.reason, fb),
            None => write!(f, "{}", self.reason),
        }
    }
}

impl Skip {
    /// Serialize as a tagged JSON object.
    pub fn to_json(&self) -> json::Json {
        let mut pairs = vec![
            ("nest", json::Json::Int(self.nest as i64)),
            ("reason", trace::skip_reason_to_json(&self.reason)),
        ];
        if let Some(fb) = &self.fallback {
            pairs.push(("fallback", trace::skip_reason_to_json(fb)));
        }
        json::Json::obj(pairs)
    }
}

/// Driver configuration. Which passes run is the pipeline's pass list
/// ([`Driver::with_pipeline`]), not an option.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Options forwarded to the coalescing transformation (band, scheme,
    /// strength reduction).
    pub coalesce: CoalesceOptions,
    /// Validate the transformed program against the interpreter.
    pub validate: bool,
    /// When set, the advise pass picks the best legal collapse band for
    /// these machine parameters, overriding `coalesce.levels` per nest.
    pub advise: Option<AdviseParams>,
    /// Interpret-and-compare the program against the original after
    /// every *structural* pass application (perfection, interchange,
    /// coalesce), not just once at the end. Each check is traced as a
    /// `validate:{pass}` event; a divergence aborts the compilation.
    /// Expensive — a debugging aid for pass development, off by default.
    pub validate_each_pass: bool,
    /// Per-lint severities for the `analyze` stage. The default is
    /// every lint at `warn`: findings are collected into
    /// [`DriverOutput::lints`] and traced, but never block the
    /// pipeline. A lint at `deny` turns its first finding on a nest
    /// into a [`SkipReason::LintDenied`] skip — the nest is left
    /// untransformed. [`LintSet::all_allow`] disables the stage.
    pub lints: LintSet,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            coalesce: CoalesceOptions::default(),
            validate: true,
            advise: None,
            validate_each_pass: false,
            lints: LintSet::default(),
        }
    }
}

/// Everything one compilation produced.
#[derive(Debug, Clone)]
pub struct DriverOutput {
    /// The transformed program.
    pub transformed: Program,
    /// The transformed program pretty-printed as DSL source.
    pub transformed_source: String,
    /// Metadata for every nest that was coalesced, in body order. A nest
    /// coalesced through the *symbolic* fallback reports empty `dims`
    /// and zero `total_iterations`.
    pub coalesced: Vec<CoalesceInfo>,
    /// Nests left untouched, with typed diagnostics.
    pub skipped: Vec<Skip>,
    /// Findings the `analyze` stage reported, in nest order. Empty when
    /// the stage is not in the pipeline or every lint is at `allow`.
    pub lints: Vec<Finding>,
    /// The timed record of every pass invocation plus cache counters.
    pub trace: PipelineTrace,
}

// The serving layer shares one `Driver` across a worker pool; keep the
// whole output type tree thread-mobile too.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Driver>();
    assert_send_sync::<DriverOptions>();
    assert_send_sync::<DriverOutput>();
    assert_send_sync::<BatchItem>();
};
