//! Randomized property tests for the SMT pipeline, driven by the
//! vendored PRNG (offline, no external crates).
//!
//! Two oracles anchor the whole solver:
//!
//! 1. Random term generators + the ground evaluator check that whatever
//!    the full pipeline (Ackermann → bit-blast → CDCL) claims `Sat` is a
//!    genuine model, and that formulas with a known witness are never
//!    reported `Unsat`.
//! 2. Random small CNFs are solved both by the CDCL core and by brute
//!    force, and the sat/unsat verdicts must agree.

mod common;

use common::XorShift64;
use hk_smt::eval::{Assignment, Value};
use hk_smt::sat::{SatOutcome, SatSolver};
use hk_smt::term::TermData;
use hk_smt::{BvBinOp, CmpOp, Ctx, SatResult, Solver, Sort};

// ---------------------------------------------------------------------
// CDCL vs brute force on random CNFs.
// ---------------------------------------------------------------------

fn brute_force_sat(num_vars: u32, clauses: &[Vec<i32>]) -> bool {
    'outer: for bits in 0..(1u64 << num_vars) {
        for c in clauses {
            let sat = c.iter().any(|&l| {
                let v = l.unsigned_abs() as u64;
                let val = bits >> (v - 1) & 1 == 1;
                (l > 0) == val
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

#[test]
fn cdcl_agrees_with_brute_force() {
    let mut rng = XorShift64::new(0xc0ffee);
    for _case in 0..256 {
        let n_clauses = 1 + rng.below(23) as usize;
        let clauses: Vec<Vec<i32>> = (0..n_clauses)
            .map(|_| {
                let len = 1 + rng.below(3) as usize;
                (0..len)
                    .map(|_| {
                        let v = 1 + rng.below(8) as i32;
                        if rng.chance(1, 2) {
                            -v
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let expected = brute_force_sat(8, &clauses);
        let mut s = SatSolver::new();
        s.reserve_vars(8);
        let mut ok = true;
        for c in &clauses {
            if !s.add_clause(c) {
                ok = false;
                break;
            }
        }
        let outcome = if ok { s.solve() } else { SatOutcome::Unsat };
        match outcome {
            SatOutcome::Sat => {
                assert!(
                    expected,
                    "CDCL said sat, brute force says unsat: {clauses:?}"
                )
            }
            SatOutcome::Unsat => {
                assert!(
                    !expected,
                    "CDCL said unsat, brute force says sat: {clauses:?}"
                )
            }
            SatOutcome::Unknown => panic!("unexpected unknown on {clauses:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Bit-blasted operations vs the ground evaluator.
// ---------------------------------------------------------------------

/// Checks that asserting `op(a, b) == expected` (computed by the
/// evaluator) is satisfiable, and that asserting a disagreement is not.
fn check_binop(width: u32, op: BvBinOp, a: u64, b: u64) {
    let mut ctx = Ctx::new();
    let x = ctx.var("x", Sort::Bv(width));
    let y = ctx.var("y", Sort::Bv(width));
    let r = ctx.bv_bin(op, x, y);
    let ca = ctx.bv_const(width, a);
    let cb = ctx.bv_const(width, b);
    let expected = op.apply(
        width,
        a & hk_smt::term::mask(width),
        b & hk_smt::term::mask(width),
    );
    let cexp = ctx.bv_const(width, expected);
    let ex = ctx.eq(x, ca);
    let ey = ctx.eq(y, cb);
    let er = ctx.ne(r, cexp);
    // x == a && y == b && op(x,y) != expected must be UNSAT.
    let mut s = Solver::new();
    s.assert(&mut ctx, ex);
    s.assert(&mut ctx, ey);
    s.assert(&mut ctx, er);
    match s.check(&mut ctx) {
        SatResult::Unsat => {}
        SatResult::Sat(m) => panic!(
            "circuit for {op:?} w{width} disagrees with evaluator on ({a}, {b}): circuit gave {:?}, expected {expected}",
            m.eval_bv(&ctx, r)
        ),
        SatResult::Unknown => panic!("unknown"),
    }
}

fn check_cmp(width: u32, op: CmpOp, a: u64, b: u64) {
    let mut ctx = Ctx::new();
    let x = ctx.var("x", Sort::Bv(width));
    let y = ctx.var("y", Sort::Bv(width));
    let r = ctx.cmp(op, x, y);
    let ca = ctx.bv_const(width, a);
    let cb = ctx.bv_const(width, b);
    let m = hk_smt::term::mask(width);
    let expected = op.apply(width, a & m, b & m);
    let ex = ctx.eq(x, ca);
    let ey = ctx.eq(y, cb);
    let target = ctx.bool_const(!expected);
    let er = ctx.eq(r, target);
    let mut s = Solver::new();
    s.assert(&mut ctx, ex);
    s.assert(&mut ctx, ey);
    s.assert(&mut ctx, er);
    assert!(
        s.check(&mut ctx).is_unsat(),
        "comparison {op:?} w{width} disagrees with evaluator on ({a}, {b})"
    );
}

const BIN_OPS: [BvBinOp; 11] = [
    BvBinOp::Add,
    BvBinOp::Sub,
    BvBinOp::Mul,
    BvBinOp::Udiv,
    BvBinOp::Urem,
    BvBinOp::And,
    BvBinOp::Or,
    BvBinOp::Xor,
    BvBinOp::Shl,
    BvBinOp::Lshr,
    BvBinOp::Ashr,
];

#[test]
fn binop_circuits_match_evaluator() {
    let widths = [8u32, 13, 64];
    let mut rng = XorShift64::new(1);
    for _case in 0..48 {
        let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
        let w = widths[rng.below(3) as usize];
        check_binop(w, op, rng.next_u64(), rng.next_u64());
    }
}

#[test]
fn cmp_circuits_match_evaluator() {
    let ops = [CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
    let widths = [8u32, 13, 64];
    let mut rng = XorShift64::new(2);
    for _case in 0..48 {
        let op = ops[rng.below(4) as usize];
        let w = widths[rng.below(3) as usize];
        check_cmp(w, op, rng.next_u64(), rng.next_u64());
    }
}

#[test]
fn shift_amounts_including_oversize() {
    let ops = [BvBinOp::Shl, BvBinOp::Lshr, BvBinOp::Ashr];
    let mut rng = XorShift64::new(3);
    for _case in 0..48 {
        let op = ops[rng.below(3) as usize];
        let a = rng.next_u64();
        let amt = rng.below(130);
        check_binop(64, op, a, amt);
        check_binop(8, op, a, amt);
    }
}

// ---------------------------------------------------------------------
// Models returned by the solver always satisfy the assertions (the
// solver validates internally; this exercises that path end to end with
// UFs in the mix).
// ---------------------------------------------------------------------

#[test]
fn uf_formulas_model_or_unsat() {
    let mut rng = XorShift64::new(4);
    for _case in 0..32 {
        let k1 = rng.below(4);
        let k2 = rng.below(4);
        let v1 = rng.below(256) as u8;
        let v2 = rng.below(256) as u8;
        let mut ctx = Ctx::new();
        let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(8));
        let i1 = ctx.bv_const(64, k1);
        let i2 = ctx.bv_const(64, k2);
        let a1 = ctx.apply(f, &[i1]);
        let a2 = ctx.apply(f, &[i2]);
        let c1 = ctx.bv_const(8, v1 as u64);
        let c2 = ctx.bv_const(8, v2 as u64);
        let e1 = ctx.eq(a1, c1);
        let e2 = ctx.eq(a2, c2);
        let mut s = Solver::new();
        s.assert(&mut ctx, e1);
        s.assert(&mut ctx, e2);
        let result = s.check(&mut ctx);
        // Satisfiable unless the same index is constrained to two values.
        let should_be_sat = k1 != k2 || v1 == v2;
        assert_eq!(result.is_sat(), should_be_sat);
        if let SatResult::Sat(m) = result {
            assert_eq!(m.eval_bv(&ctx, a1), Some(v1 as u64));
        }
    }
}

#[test]
fn ite_chains_evaluate_consistently() {
    let mut rng = XorShift64::new(5);
    for _case in 0..32 {
        let sel = rng.below(8);
        let vals: Vec<u8> = (0..8).map(|_| rng.below(256) as u8).collect();
        // read(sel) over an 8-entry ite chain equals vals[sel].
        let mut ctx = Ctx::new();
        let idx = ctx.var("idx", Sort::Bv(64));
        let mut read = ctx.bv_const(8, 0);
        for i in (0..8).rev() {
            let ci = ctx.bv_const(64, i as u64);
            let cond = ctx.eq(idx, ci);
            let v = ctx.bv_const(8, vals[i] as u64);
            read = ctx.ite(cond, v, read);
        }
        let csel = ctx.bv_const(64, sel);
        let esel = ctx.eq(idx, csel);
        let cval = ctx.bv_const(8, vals[sel as usize] as u64);
        let ne = ctx.ne(read, cval);
        let mut s = Solver::new();
        s.assert(&mut ctx, esel);
        s.assert(&mut ctx, ne);
        assert!(s.check(&mut ctx).is_unsat());
        // And the evaluator agrees.
        let mut asg = Assignment::new();
        if let TermData::Var(v) = ctx.data(idx) {
            asg.set_var(*v, Value::Bv(sel));
        }
        assert_eq!(
            hk_smt::eval::eval_bv(&ctx, read, &asg),
            vals[sel as usize] as u64
        );
    }
}
