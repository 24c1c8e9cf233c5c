//! Per-pass observability: timed, serializable pipeline traces.
//!
//! Every pass invocation the [`crate::Driver`] makes is recorded as
//! a [`TraceEvent`]: which nest, which pass, what happened
//! ([`TraceOutcome`]), and how long it took (nanoseconds, clamped to a
//! minimum of 1 so "this pass ran" is always distinguishable from "this
//! pass never ran"). The whole [`PipelineTrace`] serializes to JSON (see
//! [`crate::json`] for why not serde) and renders as a human-readable
//! report.

use std::fmt::Write as _;

use lc_ir::{BoundPart, SkipReason, Symbol};

use crate::json::Json;
use lc_xform::cache::CacheStats;

/// What a pass did to one nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The pass rewrote something; `rewrites` counts the pass's own unit
    /// of work (headers normalized, levels coalesced, cost units saved).
    Applied {
        /// Pass-specific rewrite count.
        rewrites: u64,
    },
    /// The pass declined, with a typed diagnostic.
    Skipped {
        /// Why the pass did not apply.
        reason: SkipReason,
    },
    /// The pass ran and had nothing to do.
    Noop,
    /// A validation step ran and the program passed.
    Validated,
    /// The `analyze` stage (or one of its `lint:LCxxx` sub-steps) ran.
    Analyzed {
        /// Findings reported.
        findings: u64,
        /// Findings at `deny` severity (each vetoes its nest).
        denied: u64,
    },
}

/// One timed pass invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the nest in the program body, or `None` for
    /// program-level steps (validation).
    pub nest: Option<usize>,
    /// Pass name (`"normalize"`, `"coalesce"`, …).
    pub pass: String,
    /// What happened.
    pub outcome: TraceOutcome,
    /// Wall time of the invocation in nanoseconds (always ≥ 1).
    pub nanos: u64,
}

/// The full record of one compilation: every pass event, the aggregated
/// analysis-cache counters, and total wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Pass events in execution order.
    pub events: Vec<TraceEvent>,
    /// Analysis-cache counters summed over all nests.
    pub cache: CacheStats,
    /// Total wall time of the compilation in nanoseconds.
    pub total_nanos: u64,
}

impl PipelineTrace {
    /// Distinct pass names in first-seen order.
    pub fn passes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.pass.as_str()) {
                out.push(&e.pass);
            }
        }
        out
    }

    /// Events recorded for one nest.
    pub fn events_for(&self, nest: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.nest == Some(nest))
    }

    /// Names of passes that reported [`TraceOutcome::Applied`] on `nest`.
    pub fn applied_passes(&self, nest: usize) -> Vec<&str> {
        self.events_for(nest)
            .filter(|e| matches!(e.outcome, TraceOutcome::Applied { .. }))
            .map(|e| e.pass.as_str())
            .collect()
    }

    /// Total rewrites reported by a pass across all nests.
    pub fn rewrites(&self, pass: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pass == pass)
            .map(|e| match e.outcome {
                TraceOutcome::Applied { rewrites } => rewrites,
                _ => 0,
            })
            .sum()
    }

    /// Per-pass rewrite totals in first-seen order — the pipeline's
    /// work summary, computed from the events (the serialized trace
    /// schema is unchanged). Passes that never applied report `0`.
    pub fn pass_rewrites(&self) -> Vec<(&str, u64)> {
        self.passes()
            .into_iter()
            .map(|p| (p, self.rewrites(p)))
            .collect()
    }

    /// Total time spent in a pass (nanoseconds) across all nests.
    pub fn pass_nanos(&self, pass: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pass == pass)
            .map(|e| e.nanos)
            .sum()
    }

    /// Render a human-readable report: one line per event plus per-pass
    /// and cache summaries.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "pipeline trace ({} events)", self.events.len());
        for e in &self.events {
            let where_ = match e.nest {
                Some(n) => format!("nest {n}"),
                None => "program".to_string(),
            };
            let what = match &e.outcome {
                TraceOutcome::Applied { rewrites } => format!("applied ({rewrites} rewrites)"),
                TraceOutcome::Skipped { reason } => format!("skipped: {reason}"),
                TraceOutcome::Noop => "no-op".to_string(),
                TraceOutcome::Validated => "validated".to_string(),
                TraceOutcome::Analyzed { findings, denied } => {
                    format!("analyzed ({findings} findings, {denied} denied)")
                }
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<16} {:>10}ns  {}",
                where_, e.pass, e.nanos, what
            );
        }
        let _ = writeln!(out, "per-pass totals:");
        for (pass, rewrites) in self.pass_rewrites() {
            let _ = writeln!(
                out,
                "  {:<16} {:>10}ns  {} rewrites",
                pass,
                self.pass_nanos(pass),
                rewrites
            );
        }
        let c = &self.cache;
        let _ = writeln!(
            out,
            "analysis cache: nest {}+{}h, normalize {}+{}h, deps {}+{}h",
            c.nest_computed,
            c.nest_hits,
            c.normalize_computed,
            c.normalize_hits,
            c.deps_computed,
            c.deps_hits
        );
        let _ = writeln!(out, "total: {}ns", self.total_nanos);
        out
    }

    /// Serialize the trace to a JSON document.
    pub fn to_json(&self) -> Json {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    (
                        "nest",
                        match e.nest {
                            Some(n) => Json::Int(n as i64),
                            None => Json::Null,
                        },
                    ),
                    ("pass", Json::Str(e.pass.clone())),
                    ("outcome", outcome_to_json(&e.outcome)),
                    ("nanos", Json::Int(e.nanos as i64)),
                ])
            })
            .collect();
        let c = &self.cache;
        Json::obj(vec![
            ("events", Json::Arr(events)),
            (
                "cache",
                Json::obj(vec![
                    ("nest_computed", Json::Int(c.nest_computed as i64)),
                    ("nest_hits", Json::Int(c.nest_hits as i64)),
                    ("normalize_computed", Json::Int(c.normalize_computed as i64)),
                    ("normalize_hits", Json::Int(c.normalize_hits as i64)),
                    ("deps_computed", Json::Int(c.deps_computed as i64)),
                    ("deps_hits", Json::Int(c.deps_hits as i64)),
                ]),
            ),
            ("total_nanos", Json::Int(self.total_nanos as i64)),
        ])
    }

    /// Serialize to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

fn outcome_to_json(o: &TraceOutcome) -> Json {
    match o {
        TraceOutcome::Applied { rewrites } => Json::obj(vec![
            ("kind", Json::Str("applied".into())),
            ("rewrites", Json::Int(*rewrites as i64)),
        ]),
        TraceOutcome::Skipped { reason } => Json::obj(vec![
            ("kind", Json::Str("skipped".into())),
            ("reason", skip_reason_to_json(reason)),
        ]),
        TraceOutcome::Noop => Json::obj(vec![("kind", Json::Str("noop".into()))]),
        TraceOutcome::Validated => Json::obj(vec![("kind", Json::Str("validated".into()))]),
        TraceOutcome::Analyzed { findings, denied } => Json::obj(vec![
            ("kind", Json::Str("analyzed".into())),
            ("findings", Json::Int(*findings as i64)),
            ("denied", Json::Int(*denied as i64)),
        ]),
    }
}

fn bound_part_str(p: BoundPart) -> &'static str {
    match p {
        BoundPart::Lower => "lower",
        BoundPart::Upper => "upper",
        BoundPart::Step => "step",
    }
}

/// Serialize a [`SkipReason`] as a tagged JSON object.
pub fn skip_reason_to_json(r: &SkipReason) -> Json {
    let kind = |k: &str| ("kind", Json::Str(k.into()));
    let sym = |k: &'static str, s: &Symbol| (k, Json::Str(s.as_str().into()));
    match r {
        SkipReason::BandOutOfRange { start, end, depth } => Json::obj(vec![
            kind("band-out-of-range"),
            ("start", Json::Int(*start as i64)),
            ("end", Json::Int(*end as i64)),
            ("depth", Json::Int(*depth as i64)),
        ]),
        SkipReason::CarriedDependence { level, var } => Json::obj(vec![
            kind("carried-dependence"),
            ("level", Json::Int(*level as i64)),
            sym("var", var),
        ]),
        SkipReason::ScalarReduction { var } => {
            Json::obj(vec![kind("scalar-reduction"), sym("var", var)])
        }
        SkipReason::SymbolicBound { var, part } => Json::obj(vec![
            kind("symbolic-bound"),
            sym("var", var),
            ("part", Json::Str(bound_part_str(*part).into())),
        ]),
        SkipReason::SymbolicBounds => Json::obj(vec![kind("symbolic-bounds")]),
        SkipReason::NotNormalized { var } => {
            Json::obj(vec![kind("not-normalized"), sym("var", var)])
        }
        SkipReason::NotUnitNormalized { var } => {
            Json::obj(vec![kind("not-unit-normalized"), sym("var", var)])
        }
        SkipReason::VariantBound { var, dep } => Json::obj(vec![
            kind("variant-bound"),
            sym("var", var),
            sym("dep", dep),
        ]),
        SkipReason::InterchangeOutOfRange { level, depth } => Json::obj(vec![
            kind("interchange-out-of-range"),
            ("level", Json::Int(*level as i64)),
            ("depth", Json::Int(*depth as i64)),
        ]),
        SkipReason::NotRectangular { var, other } => Json::obj(vec![
            kind("not-rectangular"),
            sym("var", var),
            sym("other", other),
        ]),
        SkipReason::InterchangeIllegal { level, array } => Json::obj(vec![
            kind("interchange-illegal"),
            ("level", Json::Int(*level as i64)),
            sym("array", array),
        ]),
        SkipReason::ImperfectNest { found } => Json::obj(vec![
            kind("imperfect-nest"),
            ("found", Json::Int(*found as i64)),
        ]),
        SkipReason::NothingLegal => Json::obj(vec![kind("nothing-legal")]),
        SkipReason::LintDenied { code, message } => Json::obj(vec![
            kind("lint-denied"),
            ("code", Json::Str(code.clone())),
            ("message", Json::Str(message.clone())),
        ]),
        SkipReason::Other(m) => Json::obj(vec![kind("other"), ("message", Json::Str(m.clone()))]),
        // `SkipReason` is #[non_exhaustive]; future variants degrade to a
        // message-only encoding rather than failing to serialize.
        other => Json::obj(vec![
            kind("other"),
            ("message", Json::Str(other.to_string())),
        ]),
    }
}

/// Serialize one `lc-lint` [`Finding`](lc_lint::Finding) as a JSON
/// object, mirroring `lc_lint::render::finding_to_json`'s key order so
/// service envelopes and the CLI agree on the schema.
pub fn finding_to_json(f: &lc_lint::Finding) -> Json {
    let opt = |v: Option<usize>| match v {
        Some(n) => Json::Int(n as i64),
        None => Json::Null,
    };
    Json::obj(vec![
        ("code", Json::Str(f.code.code().into())),
        ("slug", Json::Str(f.code.slug().into())),
        ("severity", Json::Str(f.severity.name().into())),
        ("nest", Json::Int(f.nest as i64)),
        ("level", opt(f.level)),
        ("line", opt(f.line)),
        ("message", Json::Str(f.message.clone())),
        (
            "details",
            Json::Obj(
                f.details
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_reason_kinds_are_distinct() {
        let var = Symbol::new("i");
        let reasons = [
            SkipReason::BandOutOfRange {
                start: 0,
                end: 3,
                depth: 2,
            },
            SkipReason::CarriedDependence {
                level: 1,
                var: var.clone(),
            },
            SkipReason::ScalarReduction { var: var.clone() },
            SkipReason::SymbolicBound {
                var: var.clone(),
                part: BoundPart::Upper,
            },
            SkipReason::SymbolicBounds,
            SkipReason::NotNormalized { var: var.clone() },
            SkipReason::NotUnitNormalized { var: var.clone() },
            SkipReason::VariantBound {
                var: var.clone(),
                dep: Symbol::new("n"),
            },
            SkipReason::InterchangeOutOfRange { level: 3, depth: 2 },
            SkipReason::NotRectangular {
                var: var.clone(),
                other: Symbol::new("j"),
            },
            SkipReason::InterchangeIllegal {
                level: 0,
                array: Symbol::new("A"),
            },
            SkipReason::ImperfectNest { found: 2 },
            SkipReason::NothingLegal,
            SkipReason::LintDenied {
                code: "LC001".into(),
                message: "race".into(),
            },
            SkipReason::Other("free-form".into()),
        ];
        let kinds: Vec<String> = reasons
            .iter()
            .map(|r| {
                let json = skip_reason_to_json(r);
                json.get("kind").and_then(Json::as_str).unwrap().to_string()
            })
            .collect();
        for (a, ka) in kinds.iter().enumerate() {
            for kb in &kinds[a + 1..] {
                assert_ne!(ka, kb, "two variants share the kind `{ka}`");
            }
            let is_other = matches!(reasons[a], SkipReason::Other(_));
            assert_eq!(ka == "other", is_other, "{:?} has kind `{ka}`", reasons[a]);
        }
    }

    #[test]
    fn report_mentions_every_pass() {
        let trace = PipelineTrace {
            events: vec![TraceEvent {
                nest: Some(0),
                pass: "coalesce".into(),
                outcome: TraceOutcome::Applied { rewrites: 2 },
                nanos: 10,
            }],
            cache: CacheStats::default(),
            total_nanos: 10,
        };
        let report = trace.report();
        assert!(report.contains("coalesce"));
        assert!(report.contains("2 rewrites"));
        assert!(report.contains("analysis cache"));
    }
}
