//! Golden fixture for the code the coalescer emits.
//!
//! Every top-level loop of the 72-program corpus and of the first
//! [`FUZZ_CASES`] generated programs of [`FUZZ_SEED`] is coalesced under
//! {Ceiling, DivMod} × {strength reduction off, on} × {whole nest, inner
//! band `1..depth`}. The printed preamble and loop plus every
//! `CoalesceInfo` field — or the skip reason — must match
//! `tests/fixtures/emitted_code.txt` byte for byte. Regenerate it with
//! `UPDATE_FIXTURE=1 cargo test --test emitted_code` only when an
//! intentional change to the emitted code is being made.

use std::collections::HashSet;
use std::fmt::Write as _;

use lc_fuzz::gen::{generate, GenConfig};
use lc_fuzz::rng::Rng;
use lc_service::corpus::corpus72;
use loop_coalescing::ir::analysis::nest::extract_nest;
use loop_coalescing::ir::parser::parse_program;
use loop_coalescing::ir::printer::print_stmt_str;
use loop_coalescing::ir::program::Program;
use loop_coalescing::ir::stmt::{Loop, Stmt};
use loop_coalescing::xform::coalesce::{coalesce_loop, CoalesceOptions};
use loop_coalescing::xform::recovery::RecoveryScheme;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/emitted_code.txt"
);
/// The CI fuzz seed; cases are derived per case as `lc-fuzz` does.
const FUZZ_SEED: u64 = 0xC0A1E5CE;
const FUZZ_CASES: u64 = 40;

/// Which banded trip counts are compile-time constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BandKind {
    Constant,
    Mixed,
    Symbolic,
}

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = corpus72()
        .iter()
        .enumerate()
        .map(|(k, src)| {
            let prog = parse_program(src).expect("corpus programs parse");
            (format!("corpus {k}"), prog)
        })
        .collect();
    let root = Rng::new(FUZZ_SEED);
    for case in 0..FUZZ_CASES {
        let prog = generate(&mut root.fork(case), &GenConfig::default()).program;
        out.push((format!("fuzz {case}"), prog));
    }
    out
}

fn band_kind(l: &Loop, levels: Option<(usize, usize)>) -> BandKind {
    let nest = extract_nest(l);
    let (start, end) = levels.unwrap_or((0, nest.depth()));
    let constant = nest.loops[start..end]
        .iter()
        .filter(|h| h.const_trip_count().is_some())
        .count();
    match constant {
        0 => BandKind::Symbolic,
        c if c == end - start => BandKind::Constant,
        _ => BandKind::Mixed,
    }
}

/// Render the fixture and collect which (scheme, CSE, band kind)
/// combinations coalesced successfully.
fn render() -> (String, HashSet<(&'static str, bool, BandKind)>) {
    let mut out = String::new();
    let mut seen = HashSet::new();
    for (name, prog) in programs() {
        for (idx, stmt) in prog.body.iter().enumerate() {
            let Stmt::Loop(l) = stmt else { continue };
            let depth = extract_nest(l).depth();
            let mut bands = vec![None];
            if depth >= 2 {
                bands.push(Some((1, depth)));
            }
            for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
                for cse in [false, true] {
                    for &levels in &bands {
                        let opts = CoalesceOptions::builder()
                            .scheme(scheme)
                            .strength_reduce(cse)
                            .levels_opt(levels)
                            .build();
                        let band = match levels {
                            None => "whole".to_string(),
                            Some((s, e)) => format!("{s}..{e}"),
                        };
                        let _ = writeln!(
                            out,
                            "== {name} stmt {idx} {} cse={cse} band={band}",
                            scheme.name()
                        );
                        match coalesce_loop(l, &opts) {
                            Ok(r) => {
                                seen.insert((scheme.name(), cse, band_kind(l, levels)));
                                let i = &r.info;
                                let _ = writeln!(
                                    out,
                                    "dims={:?} total={} cost={} scheme={} levels={:?} depth={} var={}",
                                    i.dims,
                                    i.total_iterations,
                                    i.recovery_cost_per_iteration,
                                    i.scheme.name(),
                                    i.levels,
                                    i.original_depth,
                                    i.coalesced_var
                                );
                                for s in r.stmts() {
                                    out.push_str(&print_stmt_str(&s));
                                }
                            }
                            Err(e) => {
                                let _ = writeln!(out, "skip: {e}");
                            }
                        }
                    }
                }
            }
        }
    }
    (out, seen)
}

#[test]
fn emitted_code_matches_the_golden_fixture() {
    let (got, seen) = render();
    for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
        for cse in [false, true] {
            for kind in [BandKind::Constant, BandKind::Mixed, BandKind::Symbolic] {
                assert!(
                    seen.contains(&(scheme.name(), cse, kind)),
                    "fixture lacks a coalesced {kind:?} band for {scheme:?} cse={cse}"
                );
            }
        }
    }

    if std::env::var_os("UPDATE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; regenerate with UPDATE_FIXTURE=1");
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "emitted code diverged from the fixture at line {}",
            k + 1
        );
    }
    assert_eq!(
        got, want,
        "emitted code line count diverged from the fixture"
    );
}
