//! In-process replay of one input through the public layer functions,
//! for the traced run: `parse_program`, `lint_program`,
//! `Driver::compile_program` (with its `PipelineTrace`),
//! `check_equivalent`, `print_program` and `Interp::run_on`.

use std::time::Instant;

use lc_driver::Driver;
use lc_ir::interp::Interp;
use lc_lint::LintSet;
use lc_xform::validate::{check_equivalent, seeded_store};

use crate::check::CHECK_SEED;
use crate::gen::Kind;
use crate::trace::{Layer, Open, Recorder};

/// Driver passes whose per-pass time the traced run reports, their span
/// names, and the layer that does each pass's work.
pub const PASSES: [(&str, &str, Layer); 8] = [
    ("analyze", "driver.pass.analyze", Layer::Lint),
    ("normalize", "driver.pass.normalize", Layer::Xform),
    ("perfect", "driver.pass.perfect", Layer::Xform),
    ("interchange", "driver.pass.interchange", Layer::Xform),
    ("advise", "driver.pass.advise", Layer::Sched),
    ("coalesce", "driver.pass.coalesce", Layer::Xform),
    (
        "strength-reduce",
        "driver.pass.strength-reduce",
        Layer::Xform,
    ),
    ("validate", "driver.pass.validate", Layer::Xform),
];

/// What one replay measured and counted.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// `parse_program` time.
    pub parse_ns: u64,
    /// `lint_program` time.
    pub lint_ns: u64,
    /// Lint findings.
    pub findings: u64,
    /// `compile_program` time (0 for `/analyze`).
    pub compile_ns: u64,
    /// Per-pass time from the returned `PipelineTrace`, in [`PASSES`] order.
    pub pass_ns: [u64; 8],
    /// `PipelineTrace::total_nanos`.
    pub trace_total_ns: u64,
    /// Nests coalesced.
    pub coalesced: u64,
    /// Nests the coalescer tried (coalesced + skipped).
    pub nests: u64,
    /// Nest-analysis cache hits.
    pub nest_cache_hits: u64,
    /// Nest-analysis cache computations.
    pub nest_cache_computed: u64,
    /// `check_equivalent` time (0 when no nest was coalesced).
    pub check_ns: u64,
    /// Why `check_equivalent` rejected the compiled program, if it did.
    pub check_error: Option<String>,
    /// `print_program` time.
    pub print_ns: u64,
    /// `Interp::run_on` time for the original program.
    pub interp_ns: u64,
    /// `ExecStats::steps` of the original program.
    pub steps: u64,
    /// `ExecStats::ops` of the transformed program (when counted).
    pub generated_ops: u64,
    /// Iterations of the coalesced loops (when counted).
    pub coalesced_iters: u64,
}

/// Replay `src` as a request of `kind`, recording spans under `root`.
/// `count_ops` also interprets the transformed program, for the
/// generated-code operation count.
pub fn replay(
    rec: &mut Recorder,
    op: u64,
    root: Open,
    kind: Kind,
    src: &str,
    driver: &Driver,
    count_ops: bool,
) -> Replay {
    let mut r = Replay::default();
    let lints = LintSet::default();

    let s = rec.open(op, Some(root), "ir.parse_program", Layer::Ir);
    let t = Instant::now();
    let prog = lc_ir::parser::parse_program(src).expect("generated programs parse");
    r.parse_ns = elapsed(t);
    rec.close(s);

    let s = rec.open(op, Some(root), "lint.lint_program", Layer::Lint);
    let t = Instant::now();
    r.findings = lc_lint::lint_program(&prog, &lints).len() as u64;
    r.lint_ns = elapsed(t);
    rec.close(s);

    if kind == Kind::Analyze {
        return r;
    }

    let s = rec.open(op, Some(root), "driver.compile_program", Layer::Driver);
    let t = Instant::now();
    let out = driver
        .compile_program(&prog)
        .expect("generated programs compile");
    r.compile_ns = elapsed(t);
    rec.close(s);
    let trace = &out.trace;
    let mut offset = 0;
    for (k, (pass, span, layer)) in PASSES.iter().enumerate() {
        // Summed over nests and laid out in pipeline order; the lint
        // sub-steps (`lint:LCxxx`) run inside `analyze`.
        let ns = trace.pass_nanos(pass);
        r.pass_ns[k] = ns;
        if ns > 0 {
            rec.synthetic(op, s, span, *layer, offset, ns);
            offset += ns;
        }
    }
    r.trace_total_ns = trace.total_nanos;
    r.coalesced = out.coalesced.len() as u64;
    r.nests = (out.coalesced.len() + out.skipped.len()) as u64;
    r.nest_cache_hits = trace.cache.hits();
    r.nest_cache_computed = trace.cache.computed();

    // Like lc-driver's pipeline, check only programs with a coalesced nest: a
    // program left as written may be racy, and so order-dependent.
    if !out.coalesced.is_empty() {
        let s = rec.open(op, Some(root), "xform.check_equivalent", Layer::Xform);
        let t = Instant::now();
        r.check_error = check_equivalent(&prog, &out.transformed, CHECK_SEED)
            .err()
            .map(|e| e.to_string());
        r.check_ns = elapsed(t);
        rec.close(s);
    }

    let s = rec.open(op, Some(root), "ir.print_program", Layer::Ir);
    let t = Instant::now();
    let printed = lc_ir::printer::print_program(&out.transformed);
    r.print_ns = elapsed(t);
    std::hint::black_box(printed);
    rec.close(s);

    let store = seeded_store(&prog, CHECK_SEED);
    let s = rec.open(op, Some(root), "ir.interp", Layer::Ir);
    let t = Instant::now();
    let (_, stats) = Interp::new()
        .run_on(&prog, store.clone())
        .expect("generated programs run");
    r.interp_ns = elapsed(t);
    r.steps = stats.steps;
    rec.close(s);

    if count_ops {
        let iters: u64 = out.coalesced.iter().map(|c| c.total_iterations).sum();
        if iters > 0 {
            let s = rec.open(op, Some(root), "ir.interp.transformed", Layer::Ir);
            let (_, stats) = Interp::new()
                .run_on(&out.transformed, store)
                .expect("compiled programs run");
            rec.close(s);
            r.generated_ops = stats.ops;
            r.coalesced_iters = iters;
        }
    }
    r
}

fn elapsed(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
