//! Failure-injection integration tests: every layer must reject bad input
//! with a descriptive error instead of panicking or silently mis-running.

use lc_lint::{lint_source, LintSet};
use loop_coalescing::coalesce_source;
use loop_coalescing::driver::{Driver, DriverOptions};
use loop_coalescing::ir::interp::Interp;
use loop_coalescing::ir::parser::parse_program;
use loop_coalescing::ir::{Error, Stmt};
use loop_coalescing::xform::coalesce::{coalesce_loop, CoalesceOptions};

#[test]
fn parse_errors_surface_through_the_pipeline() {
    for bad in [
        "doall i = 1..4 { A[i] = ",       // truncated
        "array A[4]; doall i 1..4 { }",   // missing '='
        "array A[4]; A[0x] = 1;",         // bad token
        "array A; A[1] = 1;",             // missing extent
        "array A[4]; if i { A[1] = 1; }", // condition without comparison
    ] {
        match coalesce_source(bad) {
            Err(Error::Parse { .. }) => {}
            other => panic!("`{bad}` should be a parse error, got {other:?}"),
        }
    }
}

#[test]
fn semantic_check_errors_surface() {
    assert!(matches!(
        coalesce_source("B[1] = 0;"),
        Err(Error::UnknownArray(_))
    ));
    assert!(matches!(
        coalesce_source("array A[2][2]; A[1] = 0;"),
        Err(Error::RankMismatch { .. })
    ));
    assert!(matches!(
        coalesce_source("array A[2]; array A[3]; A[1] = 0;"),
        Err(Error::DuplicateArray(_))
    ));
}

#[test]
fn runtime_errors_are_reported_not_hidden() {
    // Division by zero inside a loop body.
    let p = parse_program(
        "
        array A[4];
        doall i = 1..4 {
            A[i] = 10 / (i - 2);
        }
        ",
    )
    .unwrap();
    assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));

    // Out-of-bounds subscript.
    let p = parse_program(
        "
        array A[4];
        doall i = 1..5 {
            A[i] = i;
        }
        ",
    )
    .unwrap();
    assert!(matches!(
        Interp::new().run(&p),
        Err(Error::OutOfBounds { .. })
    ));
}

#[test]
fn transformed_programs_preserve_runtime_errors() {
    // The coalesced version of a program that traps must also trap (same
    // error kind) — the rewrite may not mask faults.
    let src = "
        array A[6][6];
        doall i = 1..6 {
            doall j = 1..6 {
                A[i][j] = 100 / (i + j - 2);
            }
        }
        ";
    let p = parse_program(src).unwrap();
    let Stmt::Loop(l) = &p.body[0] else { panic!() };
    let out = coalesce_loop(l, &CoalesceOptions::default()).unwrap();
    let mut p2 = p.clone();
    p2.body[0] = Stmt::Loop(out.transformed);
    assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));
    assert_eq!(Interp::new().run(&p2), Err(Error::DivisionByZero));
}

#[test]
fn step_budget_guards_against_runaway_transformed_loops() {
    let src = "
        array A[64][64];
        doall i = 1..64 {
            doall j = 1..64 {
                A[i][j] = i;
            }
        }
        ";
    let p = parse_program(src).unwrap();
    let r = Interp::new().with_budget(100).run(&p);
    assert!(matches!(r, Err(Error::StepBudgetExceeded { .. })));
}

#[test]
fn coalesce_error_messages_name_the_obstacle() {
    let cases = [
        ("array A[8]; for i = 2..8 { A[i] = A[i - 1]; }", "carried"),
        (
            "array A[8]; s = 0; for i = 1..8 { s = s + A[i]; }",
            "scalar",
        ),
    ];
    for (src, needle) in cases {
        let p = parse_program(src).unwrap();
        let l = p
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop(l) => Some(l),
                _ => None,
            })
            .unwrap();
        match coalesce_loop(l, &CoalesceOptions::default()) {
            Err(Error::Unsupported(m)) => {
                let msg = m.to_string();
                assert!(msg.contains(needle), "message `{msg}` lacks `{needle}`")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn overflowing_iteration_space_is_rejected() {
    use loop_coalescing::xform::recovery::total_iterations;
    assert!(total_iterations(&[u64::MAX, 2]).is_err());
    assert!(total_iterations(&[1 << 32, 1 << 32]).is_err());
}

#[test]
fn trip_count_past_i64_max_is_exact_and_panics_nowhere() {
    // 2^64 - 1 iterations: the span `hi - lo` overflows i64, so every
    // layer that counts trips has to do it wider. Run in a debug build,
    // where an overflowing subtraction panics instead of wrapping.
    let src = "
        array A[1];
        doall i = -9223372036854775807..9223372036854775807 {
            A[1] = 0;
        }
    ";
    let program = parse_program(src).unwrap();
    let Stmt::Loop(l) = &program.body[0] else {
        panic!("expected a loop")
    };
    assert_eq!(l.const_trip_count(), Some(18446744073709551615));

    assert!(lint_source(src, &LintSet::default()).is_ok());

    // `1..=2^64 - 1` does not fit a normalized header: a typed error.
    let compiled = std::panic::catch_unwind(|| Driver::new(DriverOptions::default()).compile(src))
        .expect("Driver::compile panicked");
    assert!(matches!(compiled, Err(Error::Overflow)), "{compiled:?}");
}

#[test]
fn array_cell_count_past_usize_is_a_parse_error() {
    // 2^32 × 2^32 cells is 2^64: the product overflows `usize`. Run in a
    // debug build, where an overflowing multiplication panics.
    let src = "
        array A[4294967296][4294967296];
        doall i = 1..2 {
            doall j = 1..2 {
                A[i][j] = i;
            }
        }
    ";
    let parsed = std::panic::catch_unwind(|| parse_program(src)).expect("parse_program panicked");
    assert!(matches!(parsed, Err(Error::Parse { .. })), "{parsed:?}");
    let compiled = std::panic::catch_unwind(|| Driver::new(DriverOptions::default()).compile(src))
        .expect("Driver::compile panicked");
    assert!(matches!(compiled, Err(Error::Parse { .. })), "{compiled:?}");
}

#[test]
fn empty_and_degenerate_loops_flow_through_every_layer() {
    // Zero-trip nests coalesce to an empty loop and run cleanly.
    let out = coalesce_source(
        "
        array A[4][4];
        doall i = 1..0 {
            doall j = 1..4 {
                A[i][j] = 1;
            }
        }
        ",
    )
    .unwrap();
    assert_eq!(out.coalesced.len(), 1);
    assert_eq!(out.coalesced[0].total_iterations, 0);
    let store = Interp::new().run(&out.transformed).unwrap();
    assert_eq!(store.get("A", &[1, 1]).unwrap(), 0);
}
