//! Theorem 2: the state-machine specification satisfies the declarative
//! specification (paper §3.1, Definition 2).
//!
//! For every trap handler's specified transition `f_spec` and the
//! conjunction `P` of all declarative properties, check that
//! `P(s) => P(f_spec(s, x))` by refuting `P(s) && !P(f_spec(s, x))`.
//! The properties are checked as one mutually-supporting conjunction and
//! reported individually through probe terms.
//!
//! The memory-isolation statement (paper Property 5) is a *consequence*
//! of the conjunction, checked once per state rather than per
//! transition: `P(s) && walk-assumptions && !walk-conclusion` must be
//! unsatisfiable.

use std::time::{Duration, Instant};

use hk_abi::{KernelParams, Sysno};
use hk_smt::{Ctx, SatResult, Solver, SolverConfig, Sort, TermId};
use hk_spec::decl::{all_properties, isolation_lemma, DeclProperty};
use hk_spec::{spec_transition, GlobalShape, SpecState};

/// Outcome of checking one property against one transition.
#[derive(Debug)]
pub enum PropertyOutcome {
    /// Preserved.
    Holds,
    /// Violated; carries the minimized counterexample rendering.
    Violated(String),
    /// Solver gave up.
    Unknown,
}

impl PropertyOutcome {
    /// True if the property holds.
    pub fn holds(&self) -> bool {
        matches!(self, PropertyOutcome::Holds)
    }
}

/// Report for one (handler, property-set) check.
#[derive(Debug)]
pub struct PropertyReport {
    /// The transition checked.
    pub sysno: Sysno,
    /// Names of violated properties (empty = all preserved).
    pub violated: Vec<String>,
    /// Overall verdict.
    pub outcome: PropertyOutcome,
    /// Wall-clock time.
    pub time: Duration,
    /// SAT conflicts.
    pub conflicts: u64,
}

/// Checks that every declarative property is preserved by `sysno`'s
/// specified transition.
pub fn check_transition(
    shapes: &[GlobalShape],
    params: KernelParams,
    sysno: Sysno,
    solver_config: &SolverConfig,
) -> PropertyReport {
    check_transition_with(shapes, params, sysno, &all_properties(), solver_config)
}

/// Like [`check_transition`] with an explicit property set (used by the
/// bug-injection experiments to isolate single properties).
pub fn check_transition_with(
    shapes: &[GlobalShape],
    params: KernelParams,
    sysno: Sysno,
    props: &[DeclProperty],
    solver_config: &SolverConfig,
) -> PropertyReport {
    let start = Instant::now();
    let mut ctx = Ctx::new();
    let mut st0 = SpecState::fresh(&mut ctx, shapes, params);
    let p_pre = hk_spec::decl::conjunction(&mut ctx, &mut st0, props);
    let args: Vec<TermId> = (0..sysno.arg_count())
        .map(|i| ctx.var(format!("arg{i}"), Sort::Bv(64)))
        .collect();
    let mut post = st0.clone();
    let _ret = spec_transition(&mut ctx, &mut post, sysno, &args);
    let probes: Vec<(String, TermId)> = props
        .iter()
        .map(|p| (p.name.to_string(), (p.build)(&mut ctx, &mut post)))
        .collect();
    let post_terms: Vec<TermId> = probes.iter().map(|(_, t)| *t).collect();
    let p_post = ctx.and(&post_terms);
    let violated_cond = ctx.not(p_post);
    let mut solver = Solver::with_config(solver_config.clone());
    solver.assert(&mut ctx, p_pre);
    solver.assert(&mut ctx, violated_cond);
    let (outcome, violated) = match solver.check(&mut ctx) {
        SatResult::Unsat => (PropertyOutcome::Holds, Vec::new()),
        SatResult::Unknown => (PropertyOutcome::Unknown, Vec::new()),
        SatResult::Sat(model) => {
            let violated: Vec<String> = probes
                .iter()
                .filter(|(_, t)| model.eval_bool(&ctx, *t) == Some(false))
                .map(|(n, _)| n.clone())
                .collect();
            let tc = crate::testgen::TestCase::from_model(&ctx, &model, &st0, sysno, &args);
            (PropertyOutcome::Violated(tc.display_minimized()), violated)
        }
    };
    PropertyReport {
        sysno,
        violated,
        outcome,
        time: start.elapsed(),
        conflicts: solver.stats.conflicts,
    }
}

/// Proves the memory-isolation lemma (paper Property 5): any state
/// satisfying the declarative conjunction admits no 4-level walk that
/// resolves outside the walking process's own frames.
pub fn check_isolation(
    shapes: &[GlobalShape],
    params: KernelParams,
    solver_config: &SolverConfig,
) -> (PropertyOutcome, Duration) {
    let start = Instant::now();
    let mut ctx = Ctx::new();
    let mut st = SpecState::fresh(&mut ctx, shapes, params);
    let props = all_properties();
    let p = hk_spec::decl::conjunction(&mut ctx, &mut st, &props);
    let (assumption, conclusion) = isolation_lemma(&mut ctx, &mut st);
    let bad = ctx.not(conclusion);
    let mut solver = Solver::with_config(solver_config.clone());
    solver.assert(&mut ctx, p);
    solver.assert(&mut ctx, assumption);
    solver.assert(&mut ctx, bad);
    let outcome = match solver.check(&mut ctx) {
        SatResult::Unsat => PropertyOutcome::Holds,
        SatResult::Unknown => PropertyOutcome::Unknown,
        SatResult::Sat(model) => {
            let mut ctx2 = Ctx::new();
            let _ = &mut ctx2;
            PropertyOutcome::Violated(model.display_relevant(&ctx, solver.assertions()))
        }
    };
    (outcome, start.elapsed())
}

/// Deprecated single-entry shim kept for API stability.
pub fn check_property() {}
