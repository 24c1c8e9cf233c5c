//! The facts every analysis asks of a statement tree, computed in one
//! place: what each statement evaluates and binds, which reads happen
//! before their scalar is defined, constant values, and trip counts.
//!
//! * [`walk`] visits statements in pre-order. Each [`Visit`] reports the
//!   expressions the statement evaluates ([`Visit::exprs`]), what it binds
//!   ([`Visit::binds`]), and the loops enclosing it ([`Visit::scope`]), so
//!   callers can tell a loop index from an outer scalar of the same name.
//!   Callers filter what it reports; the walker itself has no modes.
//! * [`undefined_reads`] is the definite-assignment scan behind scalar
//!   privatization: which reads in one iteration may see a value from
//!   outside that iteration.
//! * [`eval_const`] folds an expression under known scalar values.
//! * [`trip_count`] counts the iterations of `lo..hi step s` in `i128`, so
//!   spans past `i64::MAX` are exact.

use std::collections::{BTreeMap, BTreeSet};

use crate::expr::{ArrayRef, BinOp, Cond, Expr, UnOp};
use crate::stmt::{Loop, Stmt};
use crate::symbol::Symbol;

/// What a statement binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binds<'a> {
    /// `var = …;`
    Scalar(&'a Symbol),
    /// `A[…] = …;` — the element written. Its subscripts are among the
    /// statement's evaluated expressions.
    Element(&'a ArrayRef),
    /// A loop index, in scope for the loop's body only.
    LoopVar(&'a Symbol),
}

/// One statement as [`walk`] reports it.
#[derive(Debug, Clone, Copy)]
pub struct Visit<'a, 's> {
    /// The statement.
    pub stmt: &'a Stmt,
    /// The loops enclosing `stmt` within the walked tree, outermost first.
    /// A loop's own header is evaluated outside its scope.
    pub scope: &'s [&'a Loop],
}

impl<'a> Visit<'a, '_> {
    /// What the statement binds; `None` for an `if`.
    pub fn binds(&self) -> Option<Binds<'a>> {
        match self.stmt {
            Stmt::AssignScalar { var, .. } => Some(Binds::Scalar(var)),
            Stmt::AssignArray { target, .. } => Some(Binds::Element(target)),
            Stmt::Loop(l) => Some(Binds::LoopVar(&l.var)),
            Stmt::If { .. } => None,
        }
    }

    /// The expressions the statement itself evaluates, in evaluation
    /// order: a scalar assignment's value; an array assignment's
    /// subscripts, then its value; a loop's lower bound, upper bound and
    /// step; every comparison operand of an `if` condition. Nested
    /// statements are visited separately.
    pub fn exprs(&self) -> Vec<&'a Expr> {
        evaluated(self.stmt)
    }

    /// Every variable the statement reads, in evaluation order, with
    /// duplicates. A read of an enclosing loop's index (see
    /// [`Visit::scope`]) is of that index, not of an outer scalar.
    pub fn reads(&self) -> Vec<Symbol> {
        reads(self.stmt)
    }
}

/// Visit every statement in `stmts` and below, in pre-order (a loop or
/// `if` before its body; a `then` branch before its `else`).
pub fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&Visit<'a, '_>)) {
    walk_in(stmts, &mut Vec::new(), f);
}

fn walk_in<'a>(stmts: &'a [Stmt], scope: &mut Vec<&'a Loop>, f: &mut impl FnMut(&Visit<'a, '_>)) {
    for stmt in stmts {
        f(&Visit { stmt, scope });
        match stmt {
            Stmt::AssignScalar { .. } | Stmt::AssignArray { .. } => {}
            Stmt::Loop(l) => {
                scope.push(l);
                walk_in(&l.body, scope, f);
                scope.pop();
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                walk_in(then_body, scope, f);
                walk_in(else_body, scope, f);
            }
        }
    }
}

fn evaluated(stmt: &Stmt) -> Vec<&Expr> {
    match stmt {
        Stmt::AssignScalar { value, .. } => vec![value],
        Stmt::AssignArray { target, value } => target
            .indices
            .iter()
            .chain(std::iter::once(value))
            .collect(),
        Stmt::Loop(l) => vec![&l.lower, &l.upper, &l.step],
        Stmt::If { cond, .. } => {
            let mut out = Vec::new();
            cond_operands(cond, &mut out);
            out
        }
    }
}

fn cond_operands<'a>(c: &'a Cond, out: &mut Vec<&'a Expr>) {
    match c {
        Cond::Cmp(_, a, b) => out.extend([a, b]),
        Cond::Not(x) => cond_operands(x, out),
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_operands(a, out);
            cond_operands(b, out);
        }
    }
}

/// Every variable `stmt` itself reads (see [`Visit::exprs`]), in
/// evaluation order, with duplicates. Nested statements are not included.
pub fn reads(stmt: &Stmt) -> Vec<Symbol> {
    let mut out = Vec::new();
    for e in evaluated(stmt) {
        e.variables(&mut out);
    }
    out
}

/// Report every subscript in `e` as `f(array, dim, subscript)`: the
/// dimensions of each array read in order, each one before the reads
/// nested inside it.
pub fn subscripts<'a>(e: &'a Expr, f: &mut impl FnMut(&'a ArrayRef, usize, &'a Expr)) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Read(r) => {
            for (dim, ix) in r.indices.iter().enumerate() {
                f(r, dim, ix);
                subscripts(ix, f);
            }
        }
        Expr::Unary(_, a) => subscripts(a, f),
        Expr::Binary(_, a, b) => {
            subscripts(a, f);
            subscripts(b, f);
        }
    }
}

/// Definite-assignment scan over one iteration of `stmts`: calls
/// `f(var, stmt)` for each read of `var` by `stmt`, in evaluation order,
/// when `var` is not yet defined there.
///
/// A variable is defined when it is in `defined` on entry, is the index
/// of an enclosing loop, or is assigned on every path through the
/// statements before the read. A loop body may run zero times, so its
/// assignments do not count after the loop; an `if` defines what both of
/// its branches define. On return `defined` holds what is defined after
/// `stmts`.
pub fn undefined_reads<'a>(
    stmts: &'a [Stmt],
    defined: &mut BTreeSet<Symbol>,
    f: &mut impl FnMut(&Symbol, &'a Stmt),
) {
    for stmt in stmts {
        for var in reads(stmt) {
            if !defined.contains(&var) {
                f(&var, stmt);
            }
        }
        match stmt {
            Stmt::AssignScalar { var, .. } => {
                defined.insert(var.clone());
            }
            Stmt::AssignArray { .. } => {}
            Stmt::Loop(l) => {
                let mut inner = defined.clone();
                inner.insert(l.var.clone());
                undefined_reads(&l.body, &mut inner, f);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut t = defined.clone();
                undefined_reads(then_body, &mut t, f);
                let mut e = defined.clone();
                undefined_reads(else_body, &mut e, f);
                *defined = &t & &e;
            }
        }
    }
}

/// Fold `e` to a constant, looking scalars up in `env`. Division and
/// modulus are deliberately not folded (their rounding conventions belong
/// to the interpreter), nor are array reads or anything that overflows:
/// `None` means "unknown".
pub fn eval_const(e: &Expr, env: &BTreeMap<Symbol, i64>) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(s) => env.get(s).copied(),
        Expr::Read(_) => None,
        Expr::Unary(UnOp::Neg, a) => eval_const(a, env)?.checked_neg(),
        Expr::Binary(op, a, b) => {
            let (a, b) = (eval_const(a, env)?, eval_const(b, env)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Min => Some(a.min(b)),
                BinOp::Max => Some(a.max(b)),
                BinOp::Div | BinOp::Mod | BinOp::CeilDiv => None,
            }
        }
    }
}

/// Iterations of the inclusive range `lo..hi step step`, computed in
/// `i128` so no span overflows. `None` for a zero step or a count past
/// `u64::MAX` (only `i64::MIN..i64::MAX` at unit step); an empty range is
/// `Some(0)`.
pub fn trip_count(lo: i64, hi: i64, step: i64) -> Option<u64> {
    let (lo, hi, step) = (lo as i128, hi as i128, step as i128);
    let span = match step.signum() {
        0 => return None,
        1 => hi - lo,
        _ => lo - hi,
    };
    if span < 0 {
        return Some(0);
    }
    u64::try_from(span / step.abs() + 1).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn body(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().body
    }

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn loop_variable_shadows_an_outer_scalar() {
        // `i` is a scalar at the top and a loop index inside the loop:
        // only the first read is of the scalar.
        let stmts = body(
            "
            array A[4];
            i = 2;
            A[i] = 0;
            for i = 1..i {
                A[i] = i;
            }
            ",
        );
        let mut scalar_reads = 0;
        let mut index_reads = 0;
        walk(&stmts, &mut |v| {
            for r in v.reads().iter().filter(|r| **r == sym("i")) {
                if v.scope.iter().any(|l| l.var == *r) {
                    index_reads += 1;
                } else {
                    scalar_reads += 1;
                }
            }
        });
        // `A[i] = 0` and the loop's upper bound read the scalar; the body
        // reads the index twice.
        assert_eq!((scalar_reads, index_reads), (2, 2));
    }

    #[test]
    fn reports_reads_in_bounds_subscripts_and_conditions() {
        let stmts = body(
            "
            array A[10];
            for i = lo..hi step st {
                if (a < b && !(c == 1)) {
                    A[i + k] = v;
                }
            }
            ",
        );
        let mut seen = Vec::new();
        walk(&stmts, &mut |v| seen.extend(v.reads()));
        let names: Vec<&str> = seen.iter().map(Symbol::as_str).collect();
        assert_eq!(names, ["lo", "hi", "st", "a", "b", "c", "i", "k", "v"]);
    }

    #[test]
    fn binds_and_scope_in_pre_order() {
        let stmts = body(
            "
            array A[4][4];
            doall i = 1..4 {
                s = i;
                for j = 1..4 {
                    A[i][j] = s;
                }
            }
            ",
        );
        let mut seen = Vec::new();
        walk(&stmts, &mut |v| {
            let what = match v.binds() {
                Some(Binds::Scalar(s)) => format!("scalar {s}"),
                Some(Binds::Element(r)) => format!("element {}", r.array),
                Some(Binds::LoopVar(s)) => format!("index {s}"),
                None => "if".to_string(),
            };
            seen.push((what, v.scope.len()));
        });
        assert_eq!(
            seen,
            [
                ("index i".to_string(), 0),
                ("scalar s".to_string(), 1),
                ("index j".to_string(), 1),
                ("element A".to_string(), 2),
            ]
        );
    }

    #[test]
    fn subscripts_report_each_dimension_before_nested_reads() {
        let stmts = body("array A[4][4]; array B[4]; x = A[B[i]][j];");
        let Stmt::AssignScalar { value, .. } = &stmts[0] else {
            panic!("expected an assignment")
        };
        let mut seen = Vec::new();
        subscripts(value, &mut |r, dim, ix| {
            seen.push(format!(
                "{}{dim}={}",
                r.array,
                crate::printer::print_expr(ix)
            ))
        });
        assert_eq!(seen, ["A0=B[i]", "B0=i", "A1=j"]);
    }

    fn undefined(src: &str, defined: &[&str]) -> Vec<String> {
        let stmts = body(src);
        let mut defined: BTreeSet<Symbol> = defined.iter().map(|s| sym(s)).collect();
        let mut out = Vec::new();
        undefined_reads(&stmts, &mut defined, &mut |v, _| out.push(v.to_string()));
        out
    }

    #[test]
    fn assignment_in_one_branch_is_not_definite() {
        let src = "
            array A[4];
            if (i == 1) {
                t = i;
            }
            A[i] = t;
        ";
        assert_eq!(undefined(src, &["i"]), ["t"]);
    }

    #[test]
    fn assignment_in_both_branches_is_definite() {
        let src = "
            array A[4];
            if (i == 1) {
                t = i;
            } else {
                t = 0;
            }
            A[i] = t;
        ";
        assert!(undefined(src, &["i"]).is_empty());
    }

    #[test]
    fn loop_body_assignments_do_not_escape_the_loop() {
        let src = "
            array A[4];
            for j = 1..n {
                t = j;
                A[j] = t;
            }
            A[1] = t;
        ";
        // `n` and the trailing `t` are undefined; the index `j` and the
        // `t` read after its assignment inside the body are not.
        assert_eq!(undefined(src, &[]), ["n", "t"]);
    }

    #[test]
    fn eval_const_folds_known_scalars_only() {
        let env: BTreeMap<Symbol, i64> = [(sym("n"), 7)].into_iter().collect();
        let e = |src: &str| match &body(&format!("x = {src};"))[0] {
            Stmt::AssignScalar { value, .. } => value.clone(),
            _ => unreachable!(),
        };
        assert_eq!(eval_const(&e("n * 3 - 1"), &env), Some(20));
        assert_eq!(eval_const(&e("min(n, 2) + max(n, 2)"), &env), Some(9));
        assert_eq!(eval_const(&e("-n"), &env), Some(-7));
        assert_eq!(eval_const(&e("m + 1"), &env), None);
        assert_eq!(eval_const(&e("n / 2"), &env), None);
        assert_eq!(eval_const(&e("9223372036854775807 + n"), &env), None);
    }

    #[test]
    fn trip_count_edges() {
        assert_eq!(trip_count(1, 10, 1), Some(10));
        assert_eq!(trip_count(3, 11, 4), Some(3));
        assert_eq!(trip_count(10, 1, -3), Some(4));
        assert_eq!(trip_count(1, 10, -1), Some(0));
        assert_eq!(trip_count(1, 5, 0), None);
        assert_eq!(trip_count(5, 4, 1), Some(0));
        assert_eq!(trip_count(i64::MAX, i64::MIN, -1), None);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 1), None);
        assert_eq!(trip_count(i64::MIN, i64::MAX, 2), Some(1 << 63));
        assert_eq!(trip_count(-i64::MAX, i64::MAX, 1), Some(u64::MAX));
    }
}
