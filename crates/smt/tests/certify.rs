//! Certified-Unsat integration: the CDCL core logs binary-DRAT proofs
//! and the independent checker in `hk-proof` must accept every Unsat,
//! in oneshot and incremental (assumption-driven) configurations alike.

use hk_proof::{check_proof, CheckOutcome, ProofSession};
use hk_smt::sat::{SatOutcome, SatSolver};

/// Checks the solver's proof stream and asserts the refutation target.
/// `expected` is the concluding clause the Unsat answer claims: empty
/// for an unconditional Unsat, the negated failed-assumption set for an
/// assumption-driven one (the checker may also conclude the stronger
/// empty clause).
fn assert_proof_checks(s: &SatSolver, expected: &[i32]) -> CheckOutcome {
    let proof = s.proof().expect("proof logging was started");
    let out = check_proof(proof.bytes())
        .unwrap_or_else(|e| panic!("proof rejected by independent checker: {e}"));
    let mut want = expected.to_vec();
    want.sort_unstable();
    want.dedup();
    assert!(
        out.final_clause.is_empty() || out.final_clause == want,
        "final clause {:?} proves neither the empty clause nor {:?}",
        out.final_clause,
        want
    );
    out
}

/// Like [`assert_proof_checks`], and also certifies the stream through
/// `session`, the checker the incremental solver keeps: it must reach
/// the fresh checker's verdict and final clause. Returns the fresh
/// (whole-stream) outcome.
fn assert_session_agrees(
    session: &mut ProofSession,
    s: &SatSolver,
    expected: &[i32],
) -> CheckOutcome {
    let fresh = assert_proof_checks(s, expected);
    let proof = s.proof().expect("proof logging was started");
    let out = session
        .check(proof.bytes())
        .unwrap_or_else(|e| panic!("session rejected a proof the fresh checker accepts: {e}"));
    assert_eq!(out.final_clause, fresh.final_clause);
    fresh
}

fn pigeonhole(n: i32, m: i32) -> Vec<Vec<i32>> {
    let v = |i: i32, j: i32| i * m + j + 1;
    let mut clauses: Vec<Vec<i32>> = Vec::new();
    for i in 0..n {
        clauses.push((0..m).map(|j| v(i, j)).collect());
    }
    for j in 0..m {
        for a in 0..n {
            for b in (a + 1)..n {
                clauses.push(vec![-v(a, j), -v(b, j)]);
            }
        }
    }
    clauses
}

#[test]
fn pigeonhole_refutation_is_certified() {
    let mut s = SatSolver::new();
    s.start_proof();
    for c in pigeonhole(5, 4) {
        if !s.add_clause(&c) {
            break;
        }
    }
    assert_eq!(s.solve(), SatOutcome::Unsat);
    let out = assert_proof_checks(&s, &[]);
    assert!(out.final_clause.is_empty());
    assert!(out.lemmas > 0, "a real refutation learns clauses");
}

#[test]
fn trivially_false_clause_is_certified() {
    let mut s = SatSolver::new();
    s.start_proof();
    assert!(s.add_clause(&[1, 2]));
    assert!(s.add_clause(&[-1]));
    assert!(!s.add_clause(&[-2])); // empties at level 0
    assert_eq!(s.solve(), SatOutcome::Unsat);
    assert_proof_checks(&s, &[]);
}

#[test]
fn assumption_conflict_lemma_is_certified() {
    let mut s = SatSolver::new();
    s.start_proof();
    assert!(s.add_clause(&[1, 2]));
    assert!(s.add_clause(&[-1, 3]));
    assert_eq!(s.solve_with_assumptions(&[1, -3]), SatOutcome::Unsat);
    let expected: Vec<i32> = s.failed_assumptions().iter().map(|&l| -l).collect();
    assert_proof_checks(&s, &expected);
}

#[test]
fn duplicate_contradictory_assumptions_yield_a_tautology_lemma() {
    let mut s = SatSolver::new();
    s.start_proof();
    assert!(s.add_clause(&[1, 2, 3]));
    assert_eq!(s.solve_with_assumptions(&[2, -2]), SatOutcome::Unsat);
    let expected: Vec<i32> = s.failed_assumptions().iter().map(|&l| -l).collect();
    assert_proof_checks(&s, &expected);
}

#[test]
fn incremental_session_with_deletions_is_certified_at_each_unsat() {
    // Activation-literal driven session over a pigeonhole instance large
    // enough to trigger learnt-clause database reductions, interleaving
    // Sat and Unsat calls. Each Unsat's proof must check over the whole
    // stream logged so far — the exact shape the certified solver uses —
    // both fresh and through one session that sees every Unsat.
    let n = 6i32;
    let m = 5i32;
    let act = n * m + 1;
    let v = |i: i32, j: i32| i * m + j + 1;
    let mut s = SatSolver::new();
    s.start_proof();
    let mut session = ProofSession::new();
    for i in 0..n {
        let mut c: Vec<i32> = (0..m).map(|j| v(i, j)).collect();
        c.push(-act);
        s.add_clause(&c);
    }
    for j in 0..m {
        for a in 0..n {
            for b in (a + 1)..n {
                s.add_clause(&[-v(a, j), -v(b, j), -act]);
            }
        }
    }
    assert_eq!(s.solve_with_assumptions(&[act]), SatOutcome::Unsat);
    let expected: Vec<i32> = s.failed_assumptions().iter().map(|&l| -l).collect();
    let first = assert_session_agrees(&mut session, &s, &expected);

    // A Sat interlude (deactivated scope) must not corrupt the stream.
    assert_eq!(s.solve_with_assumptions(&[-act]), SatOutcome::Sat);

    // Re-query the unsat scope: learnt clauses are reused, the stream
    // now holds two concluding lemmas, and the last one is the target.
    assert_eq!(s.solve_with_assumptions(&[act]), SatOutcome::Unsat);
    let expected: Vec<i32> = s.failed_assumptions().iter().map(|&l| -l).collect();
    let second = assert_session_agrees(&mut session, &s, &expected);
    assert!(second.steps >= first.steps);

    // Permanently close the scope and pin the contradiction: the stream
    // ends in the empty clause.
    s.add_clause(&[act]);
    assert_eq!(s.solve(), SatOutcome::Unsat);
    let last = assert_session_agrees(&mut session, &s, &[]);
    assert!(last.final_clause.is_empty());
}

#[test]
fn proof_trimming_reports_a_core() {
    // Refute pigeonhole(4, 3) alongside an irrelevant satisfiable
    // subformula: the trimmed core must not need every lemma learnt
    // while the solver wandered the irrelevant part.
    let mut s = SatSolver::new();
    s.start_proof();
    let base = 100;
    for i in 0..8 {
        s.add_clause(&[base + i, base + i + 1]);
    }
    for c in pigeonhole(4, 3) {
        if !s.add_clause(&c) {
            break;
        }
    }
    assert_eq!(s.solve(), SatOutcome::Unsat);
    let out = assert_proof_checks(&s, &[]);
    assert!(out.core_lemmas <= out.lemmas);
    assert!(out.trim_ratio() <= 1.0);
}

#[test]
fn disabled_logging_emits_nothing() {
    let mut s = SatSolver::new();
    for c in pigeonhole(3, 2) {
        s.add_clause(&c);
    }
    assert_eq!(s.solve(), SatOutcome::Unsat);
    assert!(s.proof().is_none());
}

// ----------------------------------------------------------------------
// Solver-level certification: the full Ackermann + bit-blast pipeline.
// ----------------------------------------------------------------------

use hk_smt::{Ctx, SolverConfig, Sort, TermId};
use std::sync::Arc;

fn certified(incremental: bool) -> SolverConfig {
    SolverConfig {
        incremental,
        certify: true,
        ..SolverConfig::default()
    }
}

/// `x < 5 && 10 < x` — unsat through the whole pipeline.
fn unsat_vc(ctx: &mut Ctx) -> Vec<TermId> {
    let x = ctx.var("x", Sort::Bv(16));
    let c5 = ctx.bv_const(16, 5);
    let c10 = ctx.bv_const(16, 10);
    vec![ctx.ult(x, c5), ctx.ult(c10, x)]
}

#[test]
fn solver_certifies_unsat_oneshot_and_incremental() {
    for incremental in [false, true] {
        let mut ctx = Ctx::new();
        let mut s = hk_smt::Solver::with_config(certified(incremental));
        for t in unsat_vc(&mut ctx) {
            s.assert(&mut ctx, t);
        }
        assert!(s.check(&mut ctx).is_unsat());
        assert_eq!(s.stats.unsat_queries, 1, "incremental={incremental}");
        assert_eq!(s.stats.certified_unsat, 1, "incremental={incremental}");
        assert_eq!(s.stats.proofs_checked, 1);
        assert!(s.stats.proof_steps > 0, "a refutation emits proof steps");
        assert!(s.stats.proof_bytes > 0);
    }
}

#[test]
fn certified_incremental_session_across_push_pop() {
    // The shape the verifier drives: one persistent solver, scoped
    // queries, Sat and Unsat interleaved, every Unsat certified against
    // a proof stream that spans the entire session.
    let mut ctx = Ctx::new();
    let mut s = hk_smt::Solver::with_config(certified(true));
    let x = ctx.var("x", Sort::Bv(16));
    let c5 = ctx.bv_const(16, 5);
    let lt = ctx.ult(x, c5);
    s.assert(&mut ctx, lt);

    s.push();
    let c10 = ctx.bv_const(16, 10);
    let gt = ctx.ult(c10, x);
    s.assert(&mut ctx, gt);
    assert!(s.check(&mut ctx).is_unsat());
    assert_eq!(s.stats.certified_unsat, 1);
    s.pop();

    // Retracted: Sat again; the Sat path must not disturb the stream.
    assert!(s.check(&mut ctx).is_sat());
    assert_eq!(s.stats.certified_unsat, 0);

    // A second scoped contradiction over grown state.
    s.push();
    let c4 = ctx.bv_const(16, 4);
    let ge4 = ctx.ule(c4, x);
    s.assert(&mut ctx, ge4);
    let c3 = ctx.bv_const(16, 3);
    let le3 = ctx.ule(x, c3);
    s.assert(&mut ctx, le3);
    assert!(s.check(&mut ctx).is_unsat());
    assert_eq!(s.stats.certified_unsat, 1);
    s.pop();

    assert_eq!(s.totals.unsat_queries, 2);
    assert_eq!(s.totals.certified_unsat, 2);
    assert_eq!(s.totals.proofs_checked, 2);
}

#[test]
fn trivially_false_assertions_are_vacuously_certified() {
    for incremental in [false, true] {
        let mut ctx = Ctx::new();
        let mut s = hk_smt::Solver::with_config(certified(incremental));
        let f = ctx.fls();
        s.assert(&mut ctx, f);
        assert!(s.check(&mut ctx).is_unsat());
        assert_eq!(s.stats.unsat_queries, 1);
        assert_eq!(s.stats.certified_unsat, 1);
        assert_eq!(s.stats.proofs_checked, 0, "nothing was encoded");
    }
}

#[test]
fn certify_bypasses_the_query_cache() {
    // Seed a cache with an Unsat verdict, then certify the same VC: the
    // solver must re-solve and re-check rather than trust the entry.
    let cache = Arc::new(hk_smt::QueryCache::new(64));
    let mut ctx = Ctx::new();
    let mut warm = hk_smt::Solver::with_config(SolverConfig {
        cache: Some(cache.clone()),
        ..SolverConfig::default()
    });
    for t in unsat_vc(&mut ctx) {
        warm.assert(&mut ctx, t);
    }
    assert!(warm.check(&mut ctx).is_unsat());
    assert_eq!(warm.stats.cache_misses, 1);

    let mut ctx2 = Ctx::new();
    let mut s = hk_smt::Solver::with_config(SolverConfig {
        cache: Some(cache.clone()),
        certify: true,
        ..SolverConfig::default()
    });
    for t in unsat_vc(&mut ctx2) {
        s.assert(&mut ctx2, t);
    }
    assert!(s.check(&mut ctx2).is_unsat());
    assert_eq!(
        s.stats.cache_hits, 0,
        "certify must not consume cached verdicts"
    );
    assert_eq!(
        s.stats.cache_misses, 0,
        "certify must not touch the cache at all"
    );
    assert_eq!(s.stats.certified_unsat, 1);
    assert_eq!(cache.stats().hits, 0);
}

#[test]
fn uncertified_unsat_logs_no_proof() {
    for incremental in [false, true] {
        let mut ctx = Ctx::new();
        let mut s = hk_smt::Solver::with_config(SolverConfig {
            incremental,
            ..SolverConfig::default()
        });
        for t in unsat_vc(&mut ctx) {
            s.assert(&mut ctx, t);
        }
        assert!(s.check(&mut ctx).is_unsat());
        assert_eq!(s.stats.proof_steps, 0, "incremental={incremental}");
        assert_eq!(s.stats.proof_bytes, 0, "incremental={incremental}");
        assert_eq!(s.stats.proofs_checked, 0, "incremental={incremental}");
        assert_eq!(s.stats.certified_unsat, 0, "incremental={incremental}");
    }
}

#[test]
fn per_call_deltas_sum_to_sat_lifetime_totals_across_pop_without_solve() {
    // The attribution regression: scope churn between checks (pops that
    // plant unit clauses, encodes that load the delta) does SAT-core
    // work outside any `solve` call. Every such unit must land in
    // exactly one per-call delta, so the field-wise sum of the deltas —
    // `totals` — equals the core's own lifetime counters.
    let mut ctx = Ctx::new();
    let mut s = hk_smt::Solver::with_config(certified(true));
    let x = ctx.var("x", Sort::Bv(16));
    let y = ctx.var("y", Sort::Bv(16));
    let sum = ctx.bv_add(x, y);
    let c50 = ctx.bv_const(16, 50);
    let base = ctx.eq(sum, c50);
    s.assert(&mut ctx, base);
    assert!(s.check(&mut ctx).is_sat());

    // Two scopes popped back-to-back with no solve in between: both
    // activation-literal units propagate between checks.
    for k in [7u64, 9u64] {
        s.push();
        let ck = ctx.bv_const(16, k);
        let ek = ctx.eq(x, ck);
        s.assert(&mut ctx, ek);
        assert!(s.check(&mut ctx).is_sat());
        s.pop();
    }
    s.push();
    let c99 = ctx.bv_const(16, 99);
    let gt = ctx.ult(c99, x);
    let c10 = ctx.bv_const(16, 10);
    let lt = ctx.ult(x, c10);
    s.assert(&mut ctx, gt);
    s.assert(&mut ctx, lt);
    assert!(s.check(&mut ctx).is_unsat());
    assert_eq!(s.stats.certified_unsat, 1);
    s.pop();
    // Final check after the last pop so no between-check work is still
    // pending attribution.
    assert!(s.check(&mut ctx).is_sat());

    let sat = s.sat_lifetime_stats().expect("incremental engine exists");
    assert_eq!(s.totals.conflicts, sat.conflicts, "conflicts attribution");
    assert_eq!(s.totals.decisions, sat.decisions, "decisions attribution");
    assert_eq!(
        s.totals.propagations, sat.propagations,
        "propagations attribution (pop-without-solve work must not be dropped)"
    );
    assert_eq!(s.totals.checks, 5);
}
