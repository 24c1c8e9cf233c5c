//! Strength reduction of index-recovery code: common-subexpression
//! extraction over the emitted division terms.
//!
//! The paper observes that adjacent recovery formulas share their ceiling
//! terms — `i_k` needs `⌈j/P_k⌉` and `⌈j/P_{k+1}⌉`, and `i_{k+1}` needs
//! `⌈j/P_{k+1}⌉` again. Hoisting each repeated division into a temporary
//! roughly halves the per-iteration division count for deep nests.
//!
//! The extraction machinery itself lives in the shared
//! recovery-expression builder ([`lc_ir::ExprBuilder`]); this module is
//! the reporting wrapper over it. The coalescer calls it on every
//! all-constant band when [`crate::coalesce::CoalesceOptions::strength_reduce`]
//! is set, and bench table T1 reports its savings.

use lc_ir::build::{ExprBuilder, RecoveryCost};
use lc_ir::stmt::Stmt;

/// What a [`cse_recovery`] run achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CseReport {
    /// Number of temporaries introduced.
    pub hoisted: usize,
    /// Total abstract op cost of the statements before.
    pub cost_before: u64,
    /// Total abstract op cost after (including the temporaries).
    pub cost_after: u64,
}

/// Hoist repeated division subexpressions out of a straight-line block of
/// scalar assignments (the shape [`crate::recovery::recovery_stmts`]
/// emits). Returns the rewritten statements — temporaries first — and a
/// savings report. Statements other than scalar assignments are passed
/// through untouched (their expressions still participate in counting).
pub fn cse_recovery(stmts: &[Stmt], temp_prefix: &str) -> (Vec<Stmt>, CseReport) {
    let mut builder = ExprBuilder::from_stmts(stmts.to_vec());
    let cost_before = builder.cost().units();
    let hoisted = builder.intern_shared_divisions(temp_prefix);
    let out = builder.into_stmts();
    let report = CseReport {
        hoisted,
        cost_before,
        cost_after: RecoveryCost::of_stmts(&out).units(),
    };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{recovery_stmts, RecoveryScheme};
    use lc_ir::expr::Expr;
    use lc_ir::interp::Interp;
    use lc_ir::program::Program;
    use lc_ir::stmt::Loop;
    use lc_ir::symbol::Symbol;

    fn recovery_block(scheme: RecoveryScheme, dims: &[u64]) -> Vec<Stmt> {
        let j = Symbol::new("j");
        let vars: Vec<Symbol> = (0..dims.len())
            .map(|k| Symbol::new(format!("i{k}")))
            .collect();
        recovery_stmts(scheme, &j, &vars, dims)
    }

    #[test]
    fn cse_reduces_ceiling_recovery_cost_for_deep_nests() {
        let dims = [4u64, 5, 6, 7];
        let block = recovery_block(RecoveryScheme::Ceiling, &dims);
        let (opt, report) = cse_recovery(&block, "t");
        assert!(report.hoisted >= 1, "{report:?}");
        assert!(
            report.cost_after < report.cost_before,
            "no savings: {report:?}"
        );
        assert!(opt.len() > block.len());
    }

    #[test]
    fn cse_preserves_semantics() {
        for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
            let dims = [3u64, 4, 5];
            let block = recovery_block(scheme, &dims);
            let (opt, _) = cse_recovery(&block, "t");

            // Evaluate both blocks for every j and compare the recovered
            // indices via the interpreter.
            let n: u64 = dims.iter().product();
            let finish = |body: Vec<Stmt>| {
                let mut b = body;
                b.push(Stmt::store(
                    "OUT",
                    vec![Expr::var("j")],
                    (Expr::var("i0") * Expr::lit(100) + Expr::var("i1") * Expr::lit(10))
                        + Expr::var("i2"),
                ));
                Program::new()
                    .with_array("OUT", vec![n as usize])
                    .with_stmt(Stmt::Loop(Loop::doall("j", n as i64, b)))
            };
            let a = Interp::new().run(&finish(block.clone())).unwrap();
            let b = Interp::new().run(&finish(opt.clone())).unwrap();
            assert_eq!(a, b, "CSE changed results for {scheme:?}");
        }
    }

    #[test]
    fn no_duplicates_means_no_hoisting() {
        let stmts = vec![Stmt::assign("x", Expr::var("a").floor_div(Expr::lit(3)))];
        let (out, report) = cse_recovery(&stmts, "t");
        assert_eq!(report.hoisted, 0);
        assert_eq!(out, stmts);
        assert_eq!(report.cost_before, report.cost_after);
    }

    #[test]
    fn shared_division_is_hoisted_once() {
        // x = a/3 + a/3  → t0 = a/3; x = t0 + t0
        let d = Expr::var("a").floor_div(Expr::lit(3));
        let stmts = vec![Stmt::assign("x", d.clone() + d)];
        let (out, report) = cse_recovery(&stmts, "t");
        assert_eq!(report.hoisted, 1);
        assert_eq!(out.len(), 2);
        match &out[0] {
            Stmt::AssignScalar { var, .. } => assert_eq!(var.as_str(), "t0"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn temporaries_precede_uses_and_respect_dependencies() {
        // Nested sharing: (a/3)/5 appears twice and contains a/3 which
        // appears (after hoisting) inside the temp — ordering must put the
        // inner division first.
        let inner = Expr::var("a").floor_div(Expr::lit(3));
        let outer = inner.clone().floor_div(Expr::lit(5));
        let stmts = vec![
            Stmt::assign("x", outer.clone() + inner.clone()),
            Stmt::assign("y", outer + inner),
        ];
        let (out, report) = cse_recovery(&stmts, "t");
        assert!(report.hoisted >= 2, "{report:?}");
        // Execute to prove ordering correctness.
        let mut body = vec![Stmt::assign("a", Expr::lit(47))];
        body.extend(out);
        body.push(Stmt::store("OUT", vec![Expr::lit(1)], Expr::var("x")));
        body.push(Stmt::store("OUT", vec![Expr::lit(2)], Expr::var("y")));
        let prog = Program::new()
            .with_array("OUT", vec![2])
            .with_stmt_all(body);
        let store = Interp::new().run(&prog).unwrap();
        let expect = (47 / 3) / 5 + 47 / 3;
        assert_eq!(store.get("OUT", &[1]).unwrap(), expect);
        assert_eq!(store.get("OUT", &[2]).unwrap(), expect);
    }
}
