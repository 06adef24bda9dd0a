//! Timing benches for the SMT substrate: SAT on structured and random
//! instances, an incremental SAT session shaped like the SMT layer's, the
//! DRAT checker on that session's proof, and bit-blasting of the
//! operators the kernel leans on. Runs offline with no harness
//! dependencies (`cargo bench -p hk-bench --bench solver`).
//!
//! `sat_incremental_session` prints its conflict count and rate next to
//! the time, so a change to the CDCL core can be read in seconds: the
//! same count on both sides means the same search, and the rate is then
//! the speed of the core alone. `proof_session` does the same for the
//! checker: the same steps and core lemmas on both sides mean the same
//! checking work, and steps/s is then the speed of the checker alone.

use hk_bench::{bench_loop, XorShift64};
use hk_proof::ProofSession;
use hk_smt::{Ctx, SatResult, SatSolver, Solver, Sort};

/// Adds pigeonhole `n` into `n - 1` to `s`, each clause extended by the
/// literals of `guard`.
fn add_pigeonhole(s: &mut SatSolver, n: i32, guard: &[i32]) {
    let m = n - 1;
    let v = |i: i32, j: i32| i * m + j + 1;
    for i in 0..n {
        let c: Vec<i32> = (0..m)
            .map(|j| v(i, j))
            .chain(guard.iter().copied())
            .collect();
        s.add_clause(&c);
    }
    for j in 0..m {
        for a in 0..n {
            for b in (a + 1)..n {
                let c: Vec<i32> = [-v(a, j), -v(b, j)]
                    .into_iter()
                    .chain(guard.iter().copied())
                    .collect();
                s.add_clause(&c);
            }
        }
    }
}

/// Adds `clauses` random 3-literal clauses over `vars` variables to `s`,
/// each extended by the literals of `guard`. Returns `false` if the
/// formula became trivially unsatisfiable.
fn add_random_3cnf(
    s: &mut SatSolver,
    rng: &mut XorShift64,
    vars: u32,
    clauses: usize,
    guard: &[i32],
) -> bool {
    for _ in 0..clauses {
        let c: Vec<i32> = (0..3)
            .map(|_| {
                let v = rng.below(vars as u64) as i32 + 1;
                if rng.chance(1, 2) {
                    -v
                } else {
                    v
                }
            })
            .chain(guard.iter().copied())
            .collect();
        if !s.add_clause(&c) {
            return false;
        }
    }
    true
}

fn pigeonhole(n: i32) -> bool {
    let mut s = SatSolver::new();
    add_pigeonhole(&mut s, n, &[]);
    matches!(s.solve(), hk_smt::sat::SatOutcome::Unsat)
}

/// Random 3-CNF at the satisfiable side of the phase transition.
fn random_3cnf(rng: &mut XorShift64, vars: u32, clauses: usize) {
    let mut s = SatSolver::new();
    s.reserve_vars(vars);
    if add_random_3cnf(&mut s, rng, vars, clauses, &[]) {
        std::hint::black_box(s.solve());
    }
}

/// One incremental session of the shape the SMT layer gives the core:
/// activation-guarded scopes of random 3-CNF near the threshold ratio and
/// of pigeonhole, each solved under its activation literal and then
/// retired with the unit `-act` and root-level GC (`simplify`), on the
/// default `SatConfig`. With `log_proof`, the core logs a DRAT stream,
/// and the stream's length after each scope's solve is returned with the
/// solver.
fn incremental_session(log_proof: bool) -> (SatSolver, Vec<usize>) {
    const VARS: u32 = 200;
    let mut rng = XorShift64::new(0x5a7_5e55);
    let mut s = SatSolver::new();
    if log_proof {
        s.start_proof();
    }
    let mut solved = Vec::new();
    for scope in 0..6 {
        let act = VARS as i32 + 1 + scope;
        if scope % 3 == 2 {
            add_pigeonhole(&mut s, 8, &[-act]);
        } else {
            add_random_3cnf(
                &mut s,
                &mut rng,
                VARS,
                (VARS as f64 * 4.26) as usize,
                &[-act],
            );
        }
        std::hint::black_box(s.solve_with_assumptions(&[act]));
        solved.extend(s.proof().map(|p| p.byte_len()));
        s.add_clause(&[-act]);
        s.simplify();
    }
    (s, solved)
}

/// Checks the proof of `incremental_session` as the incremental engine
/// does: one `ProofSession` fed the stream as it stood after each scope's
/// solve. Returns the steps and the core lemmas the session checked.
fn proof_session(bytes: &[u8], solved: &[usize]) -> (usize, usize) {
    let mut session = ProofSession::new();
    let (mut steps, mut core) = (0, 0);
    for &end in solved {
        let out = session.check(&bytes[..end]).expect("the proof checks");
        steps += out.steps;
        core += out.core_lemmas;
    }
    (steps, core)
}

fn main() {
    println!("== sat ==");
    bench_loop("pigeonhole_7", 5, || assert!(pigeonhole(7)));
    bench_loop("random_3cnf_60v_240c", 20, || {
        let mut rng = XorShift64::new(42);
        random_3cnf(&mut rng, 60, 240);
    });
    let mut conflicts = 0;
    let best = bench_loop("sat_incremental_session", 3, || {
        conflicts = incremental_session(false).0.stats.conflicts;
    });
    println!(
        "{:<28} {conflicts} conflicts, {:.0} conflicts/s at the min",
        "",
        conflicts as f64 / best.as_secs_f64()
    );
    let (s, solved) = incremental_session(true);
    let bytes = s.proof().expect("proof logging was started").bytes();
    let (mut steps, mut core) = (0, 0);
    let best = bench_loop("proof_session", 3, || {
        (steps, core) = proof_session(bytes, &solved);
    });
    println!(
        "{:<28} {steps} steps, {core} core lemmas, {:.0} steps/s at the min",
        "",
        steps as f64 / best.as_secs_f64()
    );

    println!("== bitblast ==");
    bench_loop("mul64_equation", 5, || {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let c7 = ctx.bv_const(64, 7);
        let p = ctx.bv_mul(x, c7);
        let t = ctx.bv_const(64, 693);
        let eq = ctx.eq(p, t);
        let mut s = Solver::new();
        s.assert(&mut ctx, eq);
        assert!(matches!(s.check(&mut ctx), SatResult::Sat(_)));
    });
    bench_loop("uf_congruence", 20, || {
        let mut ctx = Ctx::new();
        let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(64));
        let x = ctx.var("x", Sort::Bv(64));
        let y = ctx.var("y", Sort::Bv(64));
        let e = ctx.eq(x, y);
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let ne = ctx.ne(fx, fy);
        let mut s = Solver::new();
        s.assert(&mut ctx, e);
        s.assert(&mut ctx, ne);
        assert!(s.check(&mut ctx).is_unsat());
    });
}
