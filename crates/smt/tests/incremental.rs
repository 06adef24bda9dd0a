//! Differential testing of incremental solving against the one-shot
//! baseline, on randomized query sequences over QF_BV / EUF term DAGs.
//!
//! Each case drives ONE long-lived incremental solver through a random
//! interleaving of base-level assertions, `push`/`pop` scopes, scoped
//! assertions, and `check` calls. At every `check` the same active
//! assertion set is also handed to a brand-new one-shot solver
//! (`incremental: false`); the two must agree Sat/Unsat, and every model
//! the incremental solver returns must satisfy the active assertions
//! under the ground evaluator.
//!
//! This exercises exactly the machinery the verifier relies on: the
//! persistent Ackermann table, the monotone CNF encoding, activation
//! literals for retracted scopes, and learnt clauses surviving pops.
//!
//! Everything runs on the vendored PRNG — no network, no external
//! crates.

mod common;

use common::XorShift64;
use hk_smt::eval::eval_bool;
use hk_smt::{BvBinOp, CmpOp, Ctx, FuncId, SatResult, Solver, SolverConfig, Sort, TermId};

const WIDTH: u32 = 4;

struct Vocab {
    bv_vars: Vec<TermId>,
    bool_var: TermId,
    func: Option<FuncId>,
}

fn vocab(ctx: &mut Ctx, with_func: bool) -> Vocab {
    let x = ctx.var("x", Sort::Bv(WIDTH));
    let y = ctx.var("y", Sort::Bv(WIDTH));
    let b = ctx.var("b", Sort::Bool);
    Vocab {
        bv_vars: vec![x, y],
        bool_var: b,
        func: with_func.then(|| ctx.func("f", vec![Sort::Bv(WIDTH)], Sort::Bv(WIDTH))),
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

fn gen_bv(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize]
        } else {
            let c = rng.below(1 << WIDTH);
            ctx.bv_const(WIDTH, c)
        };
    }
    match rng.below(if v.func.is_some() { 5 } else { 4 }) {
        0 => {
            let c = rng.below(1 << WIDTH);
            ctx.bv_const(WIDTH, c)
        }
        1 => v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize],
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
        _ => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            ctx.apply(v.func.unwrap(), &[a])
        }
    }
}

fn gen_bool(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bool_var
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
        _ => v.bool_var,
    }
}

/// Decides the same active assertion set with a fresh one-shot solver.
fn oneshot_verdict(ctx: &mut Ctx, active: &[TermId]) -> bool {
    let mut s = Solver::with_config(SolverConfig {
        incremental: false,
        ..SolverConfig::default()
    });
    for &t in active {
        s.assert(ctx, t);
    }
    match s.check(ctx) {
        SatResult::Sat(_) => true,
        SatResult::Unsat => false,
        SatResult::Unknown => panic!("oneshot baseline ran out of budget"),
    }
}

/// One randomized session: a shared context, one incremental solver, and
/// a mirror of its assertion frames for replaying into the baseline.
/// With `certify` the incremental solver re-checks every Unsat against
/// its session-spanning proof stream (scope pops, deletions and all).
fn run_session(case: u64, with_func: bool, certify: bool) {
    let mut rng = XorShift64::new(0xbeef ^ (case.wrapping_mul(0x9e37_79b9)));
    let mut ctx = Ctx::new();
    let v = vocab(&mut ctx, with_func);
    let mut inc = Solver::with_config(SolverConfig {
        certify,
        ..SolverConfig::default()
    });
    // frames[0] is the base level; frames[1..] mirror open scopes.
    let mut frames: Vec<Vec<TermId>> = vec![Vec::new()];
    let mut checks = 0u32;
    let ops = 24 + rng.below(16);
    for _ in 0..ops {
        match rng.below(10) {
            // Assert into the innermost frame (base or scope).
            0..=3 => {
                let t = gen_bool(&mut ctx, &mut rng, &v, 3);
                inc.assert(&mut ctx, t);
                if ctx.const_bool(t) != Some(true) {
                    frames.last_mut().unwrap().push(t);
                }
            }
            4..=5 => {
                inc.push();
                frames.push(Vec::new());
            }
            6 => {
                if inc.num_scopes() > 0 {
                    inc.pop();
                    frames.pop();
                }
            }
            // Check and compare against the baseline.
            _ => {
                checks += 1;
                let active: Vec<TermId> = frames.iter().flatten().copied().collect();
                let trivially_unsat = active.iter().any(|&t| ctx.const_bool(t) == Some(false));
                let expect_sat = !trivially_unsat && oneshot_verdict(&mut ctx, &active);
                match inc.check(&mut ctx) {
                    SatResult::Sat(m) => {
                        assert!(
                            expect_sat,
                            "case {case}: incremental said sat, baseline said unsat \
                             ({} active assertions, {} scopes)",
                            active.len(),
                            inc.num_scopes()
                        );
                        for &t in &active {
                            assert!(
                                eval_bool(&ctx, t, &m.assignment),
                                "case {case}: incremental model fails assertion {}",
                                ctx.display(t)
                            );
                        }
                    }
                    SatResult::Unsat => {
                        assert!(
                            !expect_sat,
                            "case {case}: incremental said unsat, baseline found a model \
                             ({} active assertions, {} scopes)",
                            active.len(),
                            inc.num_scopes()
                        );
                        assert_eq!(
                            inc.stats.certified_unsat,
                            u64::from(certify),
                            "case {case}: Unsat left uncertified"
                        );
                    }
                    SatResult::Unknown => panic!("case {case}: unexpected unknown"),
                }
            }
        }
        // Once the base level is unsatisfiable every later verdict is
        // Unsat by monotonicity; end the session early to keep the
        // generator exploring interesting (satisfiable) prefixes.
        if frames[0].iter().any(|&t| ctx.const_bool(t) == Some(false)) {
            break;
        }
    }
    // Every session must actually have compared something, unless it was
    // cut short by a trivially-false base assertion.
    let _ = checks;
}

#[test]
fn incremental_matches_oneshot_on_bv_sequences() {
    for case in 0..48 {
        run_session(case, false, false);
    }
}

#[test]
fn incremental_matches_oneshot_on_uf_sequences() {
    for case in 0..32 {
        run_session(case, true, false);
    }
}

#[test]
fn certified_incremental_matches_oneshot_on_bv_sequences() {
    for case in 0..24 {
        run_session(case, false, true);
    }
}

#[test]
fn certified_incremental_matches_oneshot_on_uf_sequences() {
    for case in 0..16 {
        run_session(case, true, true);
    }
}

/// Regression shape from the verifier: a fixed satisfiable base (the
/// "invariant") probed by many unsatisfiable scoped queries in a row —
/// the exact pattern of refinement batches, where learnt clauses and the
/// base encoding must survive every pop. Run certified, so each of the
/// 20 refutations is independently re-derived from the proof stream.
#[test]
fn repeated_probe_batches_stay_sound_and_certified() {
    let mut ctx = Ctx::new();
    let x = ctx.var("x", Sort::Bv(8));
    let y = ctx.var("y", Sort::Bv(8));
    let mut s = Solver::with_config(SolverConfig {
        certify: true,
        ..SolverConfig::default()
    });
    // Base: y == x + 1, x < 100.
    let one = ctx.bv_const(8, 1);
    let xp1 = ctx.bv_add(x, one);
    let e = ctx.eq(y, xp1);
    s.assert(&mut ctx, e);
    let c100 = ctx.bv_const(8, 100);
    let lt = ctx.ult(x, c100);
    s.assert(&mut ctx, lt);
    for k in 0..20u64 {
        // Probe: x == k && y != k + 1 — refuted by the base every time.
        s.push();
        let ck = ctx.bv_const(8, k);
        let ek = ctx.eq(x, ck);
        s.assert(&mut ctx, ek);
        let ck1 = ctx.bv_const(8, k + 1);
        let nk = ctx.ne(y, ck1);
        s.assert(&mut ctx, nk);
        assert!(s.check(&mut ctx).is_unsat(), "probe {k} wrongly sat");
        s.pop();
        // And the base stays satisfiable between probes.
        match s.check(&mut ctx) {
            SatResult::Sat(m) => {
                let xv = m.eval_bv(&ctx, x).expect("x assigned");
                let yv = m.eval_bv(&ctx, y).expect("y assigned");
                assert_eq!(yv, (xv + 1) & 0xff);
            }
            r => panic!("base became {r:?} after probe {k}"),
        }
    }
    assert_eq!(s.totals.checks, 40);
    assert_eq!(s.totals.unsat_queries, 20);
    assert_eq!(s.totals.certified_unsat, 20);
    assert_eq!(s.totals.proofs_checked, 20);
    assert!(s.totals.proof_steps > 0);
    // Session-length scaling, by count: the checker parses each lemma of
    // the session stream once and RUP-checks each at most once, so the
    // summed per-call deltas obey core <= lemmas <= steps. Re-checking
    // the whole stream at every Unsat would count the same lemmas again
    // at each of the 20 probes.
    let t = &s.totals;
    assert!(
        t.proof_core_steps <= t.proof_lemmas && t.proof_lemmas <= t.proof_steps,
        "core {} <= lemmas {} <= steps {} violated",
        t.proof_core_steps,
        t.proof_lemmas,
        t.proof_steps
    );
}

/// Asserts an n-pigeons / m-holes instance over fresh Bool variables —
/// conflict-heavy for the SAT core when n > m, so a scope that carries
/// one leaves behind a large learnt-clause database.
fn assert_pigeonhole(ctx: &mut Ctx, s: &mut Solver, tag: &str, n: u32, m: u32) {
    let p: Vec<Vec<TermId>> = (0..n)
        .map(|i| {
            (0..m)
                .map(|j| ctx.var(format!("{tag}_p{i}_{j}"), Sort::Bool))
                .collect()
        })
        .collect();
    for row in &p {
        let some_hole = ctx.or(row);
        s.assert(ctx, some_hole);
    }
    for (a, row_a) in p.iter().enumerate() {
        for row_b in &p[a + 1..] {
            for (&pa, &pb) in row_a.iter().zip(row_b) {
                let both = ctx.and(&[pa, pb]);
                let not_both = ctx.not(both);
                s.assert(ctx, not_both);
            }
        }
    }
}

/// The regression test for the PR 2 incremental slowdown: a scope that
/// learns a large clause database is popped, and scope-local GC must
/// actually reclaim it so later queries in the session don't pay for
/// retired garbage.
#[test]
fn popped_scopes_are_garbage_collected() {
    let mut ctx = Ctx::new();
    let mut s = Solver::with_config(SolverConfig {
        incremental: true,
        ..SolverConfig::default()
    });
    let x = ctx.var("x", Sort::Bv(8));
    let c5 = ctx.bv_const(8, 5);
    let base = ctx.ult(x, c5);
    s.assert(&mut ctx, base);

    // Conflict-heavy scope: refuting PHP(7,6) learns many clauses.
    s.push();
    assert_pigeonhole(&mut ctx, &mut s, "a", 7, 6);
    assert!(s.check(&mut ctx).is_unsat());
    let scope_conflicts = s.stats.conflicts;
    assert!(
        scope_conflicts > 50,
        "pigeonhole scope was not conflict-heavy ({scope_conflicts} conflicts)"
    );
    s.pop();

    // The pop retires the scope's activation literal; the next check
    // absorbs the GC delta. Everything the scope asserted — guarded
    // problem clauses and learnt clauses alike — is now dead.
    assert!(s.check(&mut ctx).is_sat());
    assert!(
        s.stats.scope_gc_clauses > 100,
        "scope GC reclaimed only {} clauses",
        s.stats.scope_gc_clauses
    );

    // Hygiene: a later trivial scoped query must not pay for the
    // popped scope. This is the assertion that would have caught the
    // PR 2 regression (retained learnt clauses poisoning subsequent
    // solves).
    s.push();
    let c3 = ctx.bv_const(8, 3);
    let probe = ctx.eq(x, c3);
    s.assert(&mut ctx, probe);
    assert!(s.check(&mut ctx).is_sat());
    assert!(
        s.stats.conflicts < scope_conflicts / 2,
        "post-pop probe still paid {} conflicts (scope had {})",
        s.stats.conflicts,
        scope_conflicts
    );
    s.pop();
}
