//! Budget-escalation behavior: a query that exhausts its conflict
//! budget is retried once with 4x the budget before `Unknown` is
//! reported (the fix for `sys_alloc_pdpt` going `UNKNOWN` in the
//! BENCH_PR2 table). The escalated retry must stay inside the per-call
//! stats delta, and a query starved even at 4x still reports `Unknown`
//! after exactly one retry.

use hk_smt::{Ctx, SatResult, Solver, SolverConfig, Sort, TermId};

/// A conflict-heavy Unsat instance: n-pigeons / m-holes over Bools.
fn assert_pigeonhole(ctx: &mut Ctx, s: &mut Solver, n: u32, m: u32) {
    let p: Vec<Vec<TermId>> = (0..n)
        .map(|i| {
            (0..m)
                .map(|j| ctx.var(format!("e_p{i}_{j}"), Sort::Bool))
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

fn config(incremental: bool, budget: Option<u64>) -> SolverConfig {
    let mut c = SolverConfig {
        incremental,
        ..SolverConfig::default()
    };
    c.sat.max_conflicts = budget;
    c
}

/// Conflicts the instance actually needs under the given pipeline.
fn conflicts_needed(incremental: bool) -> u64 {
    let mut ctx = Ctx::new();
    let mut s = Solver::with_config(config(incremental, None));
    assert_pigeonhole(&mut ctx, &mut s, 7, 6);
    assert!(s.check(&mut ctx).is_unsat());
    s.stats.conflicts
}

#[test]
fn unknown_escalates_once_and_resolves() {
    for incremental in [false, true] {
        let needed = conflicts_needed(incremental);
        assert!(
            needed > 4,
            "instance too easy to starve ({needed} conflicts)"
        );
        // Starve the first attempt, leave the 4x retry plenty of room.
        let budget = needed / 2 + 1;
        let mut ctx = Ctx::new();
        let mut s = Solver::with_config(config(incremental, Some(budget)));
        assert_pigeonhole(&mut ctx, &mut s, 7, 6);
        assert!(
            s.check(&mut ctx).is_unsat(),
            "incremental={incremental}: escalated retry failed to resolve"
        );
        assert_eq!(
            s.stats.escalations, 1,
            "incremental={incremental}: escalation not recorded"
        );
        // The delta invariant: both attempts' work lands in this call's
        // stats, so the conflict count exceeds the starved budget.
        assert!(
            s.stats.conflicts > budget,
            "incremental={incremental}: stats dropped the first attempt"
        );
    }
}

#[test]
fn query_starved_at_4x_reports_unknown_after_one_escalation() {
    for incremental in [false, true] {
        let needed = conflicts_needed(incremental);
        // The first attempt gets a tenth of the conflicts the instance
        // needs and the retry four tenths, so the retry runs out too.
        let budget = needed / 10;
        let mut ctx = Ctx::new();
        let mut s = Solver::with_config(config(incremental, Some(budget)));
        assert_pigeonhole(&mut ctx, &mut s, 7, 6);
        assert!(
            matches!(s.check(&mut ctx), SatResult::Unknown),
            "incremental={incremental}: query starved at 4x did not report Unknown"
        );
        assert_eq!(
            s.stats.escalations, 1,
            "incremental={incremental}: expected exactly one escalation"
        );
    }
}

#[test]
fn satisfiable_queries_never_escalate() {
    let mut ctx = Ctx::new();
    let mut s = Solver::with_config(config(true, Some(100_000)));
    let x = ctx.var("x", Sort::Bv(8));
    let c1 = ctx.bv_const(8, 1);
    let gt = ctx.ult(c1, x);
    s.assert(&mut ctx, gt);
    assert!(s.check(&mut ctx).is_sat());
    assert_eq!(s.stats.escalations, 0);
}
