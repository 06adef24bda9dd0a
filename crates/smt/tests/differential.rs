//! Differential testing of the full solver pipeline against two
//! independent oracles, on randomly generated QF_BV / EUF term DAGs:
//!
//! * **Sat direction**: any model the solver returns must satisfy every
//!   assertion under the ground evaluator.
//! * **Unsat direction**: for UF-free formulas over tiny domains
//!   (≤ 12 assignment bits), exhaustive enumeration of every variable
//!   assignment must agree that no witness exists — and when a witness
//!   does exist, the solver must find one.
//!
//! Formulas with uninterpreted functions cannot be enumerated cheaply,
//! so there the Unsat direction is cross-checked by sampling random
//! concrete function tables: a sampled witness refutes an `Unsat` claim.
//!
//! A third test runs 8-bit formulas through every solver configuration
//! that can change how a verdict is reached — worker count, pipeline
//! shape, certification — and requires one verdict from all of them.
//!
//! Everything runs on the vendored PRNG — no network, no external
//! crates.

mod common;

use std::sync::Arc;

use common::XorShift64;
use hk_smt::eval::{eval_bool, Assignment, Value};
use hk_smt::term::TermData;
use hk_smt::{
    BvBinOp, CmpOp, CoreBudget, Ctx, FuncId, ParallelConfig, SatResult, Solver, SolverConfig, Sort,
    TermId, VarId,
};

/// Re-runs an Unsat verdict under certified mode, in both pipeline
/// configurations: the verdicts must agree, and the certified solver
/// itself panics if the independent checker rejects its proof.
fn assert_certified_rerun_agrees(ctx: &mut Ctx, assertions: &[TermId], case: u64) {
    for incremental in [false, true] {
        let mut s = Solver::with_config(SolverConfig {
            certify: true,
            incremental,
            ..SolverConfig::default()
        });
        for &t in assertions {
            s.assert(ctx, t);
        }
        assert!(
            s.check(ctx).is_unsat(),
            "case {case}: certified re-run (incremental={incremental}) disagrees with Unsat"
        );
        assert_eq!(
            s.stats.certified_unsat, s.stats.unsat_queries,
            "case {case}: Unsat answer left uncertified (incremental={incremental})"
        );
    }
}

/// Bit-vector width of the enumerated formulas: with `b`, 2^9 points.
const WIDTH: u32 = 4;

/// The generator's vocabulary: two bit-vector variables of one width,
/// one boolean variable, and (optionally) a unary uninterpreted function.
struct Vocab {
    width: u32,
    bv_vars: Vec<(TermId, VarId)>,
    bool_var: (TermId, VarId),
    func: Option<FuncId>,
    /// Bias bit-vector terms toward `Ite`, `Extract` and `Concat`.
    sliced: bool,
}

fn vocab(ctx: &mut Ctx, width: u32, with_func: bool) -> Vocab {
    let var_id = |ctx: &Ctx, t: TermId| match ctx.data(t) {
        TermData::Var(v) => *v,
        _ => unreachable!("fresh var"),
    };
    let x = ctx.var("x", Sort::Bv(width));
    let y = ctx.var("y", Sort::Bv(width));
    let b = ctx.var("b", Sort::Bool);
    Vocab {
        width,
        bv_vars: vec![(x, var_id(ctx, x)), (y, var_id(ctx, y))],
        bool_var: (b, var_id(ctx, b)),
        func: with_func.then(|| ctx.func("f", vec![Sort::Bv(width)], Sort::Bv(width))),
        sliced: false,
    }
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

/// Node kinds of a sliced vocabulary, by draw: binary operators twice
/// as likely as the rest, no function applications.
const SLICED_KINDS: [u64; 8] = [0, 1, 2, 2, 3, 5, 6, 7];

fn gen_bv(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    let w = v.width;
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize].0
        } else {
            let c = rng.below(1 << w);
            ctx.bv_const(w, c)
        };
    }
    let kind = if v.sliced {
        SLICED_KINDS[rng.below(SLICED_KINDS.len() as u64) as usize]
    } else {
        rng.below(if v.func.is_some() { 5 } else { 4 })
    };
    match kind {
        0 => {
            let c = rng.below(1 << w);
            ctx.bv_const(w, c)
        }
        1 => v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize].0,
        2 => {
            let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            ctx.bv_bin(op, a, b)
        }
        3 => {
            let c = gen_bool(ctx, rng, v, depth - 1);
            let t = gen_bv(ctx, rng, v, depth - 1);
            let e = gen_bv(ctx, rng, v, depth - 1);
            ctx.ite(c, t, e)
        }
        4 => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            ctx.apply(v.func.unwrap(), &[a])
        }
        5 => {
            // Extract a random proper sub-range, then pad back to the
            // vocabulary width.
            let a = gen_bv(ctx, rng, v, depth - 1);
            let lo = rng.below(u64::from(w) - 1) as u32;
            let hi = lo + rng.below(u64::from(w - 1 - lo)) as u32;
            let ex = ctx.extract(a, hi, lo);
            if rng.chance(1, 2) {
                ctx.zext(ex, w)
            } else {
                ctx.sext(ex, w)
            }
        }
        6 => {
            // Concat two halves back to the vocabulary width.
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            let hi = ctx.extract(a, w - 1, w / 2);
            let lo = ctx.extract(b, w / 2 - 1, 0);
            ctx.concat(hi, lo)
        }
        _ => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            ctx.bv_not(a)
        }
    }
}

fn gen_bool(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bool_var.0
        } else {
            let b = rng.chance(1, 2);
            ctx.bool_const(b)
        };
    }
    match rng.below(6) {
        0 => {
            let ops = [CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
            let op = ops[rng.below(4) as usize];
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            ctx.cmp(op, a, b)
        }
        1 => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            if rng.chance(1, 2) {
                ctx.eq(a, b)
            } else {
                ctx.ne(a, b)
            }
        }
        2 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            let b = gen_bool(ctx, rng, v, depth - 1);
            ctx.and(&[a, b])
        }
        3 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            let b = gen_bool(ctx, rng, v, depth - 1);
            ctx.or(&[a, b])
        }
        4 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            ctx.not(a)
        }
        _ => v.bool_var.0,
    }
}

/// Builds the assignment `{x, y := bits, b := bit}` for one point of the
/// 2^9 domain.
fn assignment_at(v: &Vocab, point: u64) -> Assignment {
    let mut asg = Assignment::new();
    for (i, &(_, var)) in v.bv_vars.iter().enumerate() {
        asg.set_var(
            var,
            Value::Bv(point >> (i as u32 * v.width) & ((1 << v.width) - 1)),
        );
    }
    asg.set_var(
        v.bool_var.1,
        Value::Bool(point >> (v.bv_vars.len() as u32 * v.width) & 1 == 1),
    );
    asg
}

/// Exhaustively searches the (tiny) assignment space for a witness.
fn enumerate_witness(ctx: &Ctx, v: &Vocab, assertions: &[TermId]) -> Option<u64> {
    let points = 1u64 << (v.bv_vars.len() as u32 * v.width + 1);
    (0..points).find(|&p| {
        let asg = assignment_at(v, p);
        assertions.iter().all(|&t| eval_bool(ctx, t, &asg))
    })
}

#[test]
fn random_bv_formulas_agree_with_enumeration() {
    let mut rng = XorShift64::new(0xd1f0);
    for case in 0..96 {
        let mut ctx = Ctx::new();
        let v = vocab(&mut ctx, WIDTH, false);
        let n = 1 + rng.below(3);
        let assertions: Vec<TermId> = (0..n)
            .map(|_| gen_bool(&mut ctx, &mut rng, &v, 4))
            .collect();
        let mut s = Solver::new();
        for &t in &assertions {
            s.assert(&mut ctx, t);
        }
        let witness = enumerate_witness(&ctx, &v, &assertions);
        match s.check(&mut ctx) {
            SatResult::Sat(m) => {
                assert!(
                    assertions
                        .iter()
                        .all(|&t| eval_bool(&ctx, t, &m.assignment)),
                    "case {case}: solver model fails the evaluator"
                );
                assert!(
                    witness.is_some(),
                    "case {case}: solver said sat, enumeration found no witness"
                );
            }
            SatResult::Unsat => {
                assert!(
                    witness.is_none(),
                    "case {case}: solver said unsat, enumeration found witness at {witness:?}"
                );
                assert_certified_rerun_agrees(&mut ctx, &assertions, case);
            }
            SatResult::Unknown => panic!("case {case}: unexpected unknown"),
        }
    }
}

#[test]
fn random_uf_formulas_validate_against_sampling() {
    let mut rng = XorShift64::new(0xef03);
    for case in 0..64 {
        let mut ctx = Ctx::new();
        let v = vocab(&mut ctx, WIDTH, true);
        let n = 1 + rng.below(3);
        let assertions: Vec<TermId> = (0..n)
            .map(|_| gen_bool(&mut ctx, &mut rng, &v, 4))
            .collect();
        let mut s = Solver::new();
        for &t in &assertions {
            s.assert(&mut ctx, t);
        }
        let result = s.check(&mut ctx);
        // Sat direction: the model must satisfy every assertion.
        if let SatResult::Sat(m) = &result {
            assert!(
                assertions
                    .iter()
                    .all(|&t| eval_bool(&ctx, t, &m.assignment)),
                "case {case}: solver model fails the evaluator"
            );
        }
        // Unsat direction: a sampled concrete witness (variables plus a
        // full random table for `f`) refutes an unsat claim.
        if result.is_unsat() {
            let f = v.func.unwrap();
            for _ in 0..200 {
                let mut asg = assignment_at(&v, rng.below(1 << 9));
                let fi = asg.func_mut(f);
                for arg in 0..1u64 << WIDTH {
                    fi.set(vec![arg], rng.below(1 << WIDTH));
                }
                assert!(
                    !assertions.iter().all(|&t| eval_bool(&ctx, t, &asg)),
                    "case {case}: solver said unsat but sampling found a witness"
                );
            }
            assert_certified_rerun_agrees(&mut ctx, &assertions, case);
        }
    }
}

/// Sliced 8-bit formulas get one verdict from every solver
/// configuration: 1 or 2 workers, oneshot or incremental, certify off
/// or on. With a zero conflict threshold every 2-worker query that
/// reaches the SAT core races, and each certified Unsat must carry a
/// checked proof.
#[test]
fn certified_racing_verdicts_agree_across_configs() {
    let mut rng = XorShift64::new(0xc01e);
    let mut races = 0;
    for case in 0..48u64 {
        let mut ctx = Ctx::new();
        let v = Vocab {
            sliced: true,
            ..vocab(&mut ctx, 8, false)
        };
        let n = 1 + rng.below(3);
        let assertions: Vec<TermId> = (0..n)
            .map(|_| gen_bool(&mut ctx, &mut rng, &v, 4))
            .collect();
        let mut baseline: Option<bool> = None;
        for workers in [1usize, 2] {
            for incremental in [false, true] {
                for certify in [false, true] {
                    let parallel = ParallelConfig {
                        workers,
                        conflict_threshold: 0,
                        budget: (workers > 1).then(|| Arc::new(CoreBudget::new(workers))),
                        ..ParallelConfig::default()
                    };
                    let mut s = Solver::with_config(SolverConfig {
                        incremental,
                        certify,
                        parallel,
                        ..SolverConfig::default()
                    });
                    for &t in &assertions {
                        s.assert(&mut ctx, t);
                    }
                    let r = s.check(&mut ctx);
                    races += s.stats.races;
                    if certify {
                        assert_eq!(
                            s.stats.certified_unsat, s.stats.unsat_queries,
                            "case {case}: Unsat left uncertified (workers={workers} \
                             incremental={incremental})"
                        );
                    }
                    let sat = match r {
                        SatResult::Sat(m) => {
                            for &t in &assertions {
                                assert!(
                                    eval_bool(&ctx, t, &m.assignment),
                                    "case {case}: model fails an assertion (workers={workers} \
                                     incremental={incremental} certify={certify})"
                                );
                            }
                            true
                        }
                        SatResult::Unsat => false,
                        SatResult::Unknown => panic!("case {case}: unexpected unknown"),
                    };
                    match baseline {
                        None => baseline = Some(sat),
                        Some(b) => assert_eq!(
                            b, sat,
                            "case {case}: verdict flipped (workers={workers} \
                             incremental={incremental} certify={certify})"
                        ),
                    }
                }
            }
        }
    }
    assert!(races > 0, "no 2-worker query raced");
}
