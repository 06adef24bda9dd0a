//! Theorem 1: specification–implementation refinement (paper §3.1,
//! Definition 1).
//!
//! For each handler `f`, starting from a fully symbolic state `s`
//! constrained only by the representation invariant `I(s)`:
//!
//! 1. **UB query**: some execution path reaches undefined behaviour —
//!    must be UNSAT.
//! 2. **Refinement query**: some path ends with a return value, state
//!    cell, or invariant differing from the specification — must be
//!    UNSAT.
//!
//! Because the symbolic executor and the specification share the same
//! state representation (one uninterpreted function per kernel field),
//! equivalence is literal cell-by-cell equality and the equivalence
//! function of §2.4 is the identity.

use std::time::{Duration, Instant};

use hk_abi::Sysno;
use hk_smt::{Ctx, SatResult, Solver, SolverConfig, Sort, TermId};
use hk_spec::{spec_transition, SpecState};
use hk_symx::{sym_exec_bounded, SymxConfig};

use crate::event::PhaseStats;
use crate::testgen::TestCase;

/// Outcome of verifying one handler.
#[derive(Debug)]
pub enum HandlerOutcome {
    /// Both queries UNSAT: the handler is verified.
    Verified,
    /// A path reaches undefined behaviour.
    UbBug {
        /// What kind of UB (from the side check).
        kind: String,
        /// The concrete trigger.
        test_case: Box<TestCase>,
    },
    /// The implementation diverges from the specification (wrong return
    /// value, wrong state, or broken invariant).
    RefinementBug {
        /// A description of the first violated aspect.
        detail: String,
        /// The concrete trigger.
        test_case: Box<TestCase>,
    },
    /// Symbolic execution failed (non-finite handler).
    SymxFailed(String),
    /// The solver gave up within its budget.
    Unknown,
}

impl HandlerOutcome {
    /// True if verified.
    pub fn is_verified(&self) -> bool {
        matches!(self, HandlerOutcome::Verified)
    }
}

/// Full report for one handler.
#[derive(Debug)]
pub struct HandlerReport {
    /// The handler.
    pub sysno: Sysno,
    /// The verdict.
    pub outcome: HandlerOutcome,
    /// Execution paths explored.
    pub paths: usize,
    /// UB side checks discharged.
    pub side_checks: usize,
    /// Wall-clock time for the whole handler.
    pub time: Duration,
    /// Largest CNF clause count encoded by a single solver call (rough
    /// problem size; under incremental solving later calls only encode
    /// deltas, so this is dominated by the first query).
    pub cnf_clauses: usize,
    /// SAT conflicts summed over all refinement queries.
    pub conflicts: u64,
    /// Per-phase timings and query-cache counters.
    pub phases: PhaseStats,
}

impl HandlerReport {
    /// Short verdict mnemonic for progress lines and tables.
    pub fn verdict(&self) -> &'static str {
        match &self.outcome {
            HandlerOutcome::Verified => "ok",
            HandlerOutcome::UbBug { .. } => "UB-BUG",
            HandlerOutcome::RefinementBug { .. } => "REFINE-BUG",
            HandlerOutcome::SymxFailed(_) => "SYMX-FAIL",
            HandlerOutcome::Unknown => "UNKNOWN",
        }
    }
}

/// Everything needed to verify handlers, borrowed from the kernel image.
pub struct VerifyCtx<'a> {
    /// The compiled kernel module.
    pub module: &'a hk_hir::Module,
    /// Global shapes (for building abstract states).
    pub shapes: &'a [hk_spec::GlobalShape],
    /// Size parameters.
    pub params: hk_abi::KernelParams,
    /// Handler entry points by trap number.
    pub handler: &'a (dyn Fn(Sysno) -> hk_hir::FuncId + Sync),
    /// `check_rep_invariant` entry point.
    pub rep_invariant: hk_hir::FuncId,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// Symbolic-execution configuration.
    pub symx: SymxConfig,
    /// Loop bounds proven by the static-analysis phase. When present,
    /// the symbolic executor asserts these unrolling limits instead of
    /// probing the solver at every loop back edge.
    pub bounds: Option<&'a hk_hir::LoopBounds>,
}

/// Symbolically evaluates the representation invariant on a state.
/// `check_rep_invariant` is branch-free by construction, so this always
/// yields exactly one path and no side checks.
pub fn invariant_term(
    ctx: &mut Ctx,
    vctx: &VerifyCtx,
    state: &SpecState,
) -> Result<TermId, String> {
    let r = sym_exec_bounded(
        ctx,
        vctx.module,
        vctx.rep_invariant,
        &[],
        state.clone(),
        &vctx.symx,
        vctx.bounds,
    )
    .map_err(|e| e.to_string())?;
    if r.paths.len() != 1 {
        return Err(format!(
            "check_rep_invariant is not branch-free: {} paths",
            r.paths.len()
        ));
    }
    if !r.side_checks.is_empty() {
        return Err("check_rep_invariant has UB side conditions".to_string());
    }
    let one = ctx.i64_const(1);
    Ok(ctx.eq(r.paths[0].ret, one))
}

/// Verifies one handler (Theorem 1). See module docs for the two
/// queries.
pub fn verify_handler(vctx: &VerifyCtx, sysno: Sysno) -> HandlerReport {
    let start = Instant::now();
    let mut phases = PhaseStats::default();
    let mut ctx = Ctx::new();
    let st0 = SpecState::fresh(&mut ctx, vctx.shapes, vctx.params);
    let args: Vec<TermId> = (0..sysno.arg_count())
        .map(|i| ctx.var(format!("arg{i}"), Sort::Bv(64)))
        .collect();
    // Precondition: the representation invariant holds.
    let symx_start = Instant::now();
    let i_pre = match invariant_term(&mut ctx, vctx, &st0) {
        Ok(t) => t,
        Err(e) => {
            phases.symx_time += symx_start.elapsed();
            return HandlerReport {
                sysno,
                outcome: HandlerOutcome::SymxFailed(e),
                paths: 0,
                side_checks: 0,
                time: start.elapsed(),
                cnf_clauses: 0,
                conflicts: 0,
                phases,
            };
        }
    };
    // Specification transition.
    let mut spec_post = st0.clone();
    let spec_ret = spec_transition(&mut ctx, &mut spec_post, sysno, &args);
    // Implementation paths.
    let impl_res = match sym_exec_bounded(
        &mut ctx,
        vctx.module,
        (vctx.handler)(sysno),
        &args,
        st0.clone(),
        &vctx.symx,
        vctx.bounds,
    ) {
        Ok(r) => r,
        Err(e) => {
            phases.symx_time += symx_start.elapsed();
            return HandlerReport {
                sysno,
                outcome: HandlerOutcome::SymxFailed(e.to_string()),
                paths: 0,
                side_checks: 0,
                time: start.elapsed(),
                cnf_clauses: 0,
                conflicts: 0,
                phases,
            };
        }
    };
    phases.symx_time += symx_start.elapsed();
    let n_paths = impl_res.paths.len();
    let n_checks = impl_res.side_checks.len();
    let mut impl_state = impl_res.state.clone();
    // One solver for the handler's whole lifetime: the representation
    // invariant is asserted (and encoded) exactly once at the base
    // level, and every query below — the UB disjunction and each
    // refinement probe batch — runs in its own push/pop scope guarded by
    // an activation literal. Learnt clauses, variable activities, and
    // the term→literal encoding all carry over from query to query.
    let mut solver = Solver::with_config(vctx.solver.clone());
    solver.assert(&mut ctx, i_pre);
    // ---- Query 1: undefined behaviour. ----
    if !impl_res.side_checks.is_empty() {
        let disjuncts: Vec<TermId> = impl_res.side_checks.iter().map(|c| c.cond).collect();
        let any_ub = ctx.or(&disjuncts);
        solver.push();
        solver.assert(&mut ctx, any_ub);
        let ub_result = solver.check(&mut ctx);
        phases.absorb(&solver.stats);
        match ub_result {
            SatResult::Sat(model) => {
                // Identify which check fired.
                let kind = impl_res
                    .side_checks
                    .iter()
                    .find(|c| model.eval_bool(&ctx, c.cond) == Some(true))
                    .map(|c| format!("{} in {}", c.kind, c.func))
                    .unwrap_or_else(|| "unknown UB".to_string());
                let tc = TestCase::from_model(&ctx, &model, &st0, sysno, &args);
                return HandlerReport {
                    sysno,
                    outcome: HandlerOutcome::UbBug {
                        kind,
                        test_case: Box::new(tc),
                    },
                    paths: n_paths,
                    side_checks: n_checks,
                    time: start.elapsed(),
                    cnf_clauses: solver.stats.cnf_clauses,
                    conflicts: solver.stats.conflicts,
                    phases,
                };
            }
            SatResult::Unknown => {
                return HandlerReport {
                    sysno,
                    outcome: HandlerOutcome::Unknown,
                    paths: n_paths,
                    side_checks: n_checks,
                    time: start.elapsed(),
                    cnf_clauses: solver.stats.cnf_clauses,
                    conflicts: solver.stats.conflicts,
                    phases,
                };
            }
            SatResult::Unsat => {}
        }
        solver.pop();
    }
    // ---- Query 2: refinement. ----
    // The executor's guarded-write encoding gives one merged final state
    // valid under every path condition, so one cell-by-cell comparison
    // and one invariant evaluation cover all paths; only the return
    // value is merged per path.
    let cells = st0.all_cells();
    let impl_ret = impl_res.merged_ret(&mut ctx);
    let ret_eq = ctx.eq(spec_ret, impl_ret);
    let mut probes: Vec<(String, TermId)> = Vec::new();
    let mut cell_eqs: Vec<TermId> = Vec::new();
    for (g, f, idx) in &cells {
        let idx_terms: Vec<TermId> = idx.iter().map(|&v| ctx.i64_const(v as i64)).collect();
        let s = spec_post.read(&mut ctx, g, f, &idx_terms);
        let m = impl_state.read(&mut ctx, g, f, &idx_terms);
        let eq = ctx.eq(s, m);
        if ctx.const_bool(eq) != Some(true) {
            probes.push((format!("{g}.{f}{idx:?}"), eq));
            cell_eqs.push(eq);
        }
    }
    let symx_start = Instant::now();
    let i_post = match invariant_term(&mut ctx, vctx, &impl_state) {
        Ok(t) => t,
        Err(e) => {
            phases.symx_time += symx_start.elapsed();
            return HandlerReport {
                sysno,
                outcome: HandlerOutcome::SymxFailed(e),
                paths: n_paths,
                side_checks: n_checks,
                time: start.elapsed(),
                cnf_clauses: 0,
                conflicts: 0,
                phases,
            };
        }
    };
    phases.symx_time += symx_start.elapsed();
    // Return value and invariant preservation get their own queries
    // (they are the structurally hardest obligations). The invariant is
    // a conjunction of several hundred independent bound checks; they
    // are split so each solver call refutes a digestible slice.
    let mut tail_probes = vec![("return value".to_string(), ret_eq)];
    match ctx.data(i_post).clone() {
        hk_smt::TermData::And(parts) => {
            for (ci, chunk) in parts.chunks(48).enumerate() {
                let t = ctx.and(chunk);
                tail_probes.push((format!("invariant part {ci}"), t));
            }
        }
        _ => tail_probes.push(("invariant".to_string(), i_post)),
    }
    // The obligations are independent, so the query is sliced into
    // batches: each batch refutes the disjunction of a handful of probe
    // violations against the already-encoded invariant. Monolithic
    // queries reach millions of clauses on page-heavy handlers; slices
    // stay in the hundreds of thousands, and with the shared solver the
    // invariant encoding and anything learnt while refuting batch i
    // carry into batch i+1.
    const BATCH: usize = 24;
    let mut total_clauses = 0usize;
    let mut total_conflicts = 0u64;
    let mut outcome = HandlerOutcome::Verified;
    let mut batches: Vec<&[(String, TermId)]> = probes.chunks(BATCH).collect();
    for i in 0..tail_probes.len() {
        batches.push(&tail_probes[i..i + 1]);
    }
    for batch in batches {
        let negs: Vec<TermId> = batch.iter().map(|(_, p)| ctx.not(*p)).collect();
        let any_bad = ctx.or(&negs);
        solver.push();
        solver.assert(&mut ctx, any_bad);
        let result = solver.check(&mut ctx);
        solver.pop();
        phases.absorb(&solver.stats);
        total_clauses = total_clauses.max(solver.stats.cnf_clauses);
        total_conflicts += solver.stats.conflicts;
        match result {
            SatResult::Unsat => {}
            SatResult::Unknown => {
                outcome = HandlerOutcome::Unknown;
                break;
            }
            SatResult::Sat(model) => {
                let detail = batch
                    .iter()
                    .find(|(_, probe)| model.eval_bool(&ctx, *probe) == Some(false))
                    .map(|(what, _)| what.clone())
                    .unwrap_or_else(|| "unidentified divergence".to_string());
                let tc = TestCase::from_model(&ctx, &model, &st0, sysno, &args);
                outcome = HandlerOutcome::RefinementBug {
                    detail,
                    test_case: Box::new(tc),
                };
                break;
            }
        }
    }
    HandlerReport {
        sysno,
        outcome,
        paths: n_paths,
        side_checks: n_checks,
        time: start.elapsed(),
        cnf_clauses: total_clauses,
        conflicts: total_conflicts,
        phases,
    }
}
