//! The solver front door: Ackermannize, bit-blast, SAT-solve, lift the
//! model, and validate it against the original assertions.
//!
//! Every `Sat` answer is re-checked with the ground evaluator before being
//! returned, so a bug anywhere in the pipeline surfaces as a loud failure
//! rather than a bogus counterexample.
//!
//! # Incremental solving
//!
//! By default ([`SolverConfig::incremental`]) a `Solver` keeps **one**
//! persistent encoding pipeline for its whole lifetime: the Ackermann
//! reduction, the bit-blaster's term→literal cache, and the CDCL core
//! (with its learnt clauses, VSIDS activities, and saved phases) all
//! survive across [`Solver::check`] calls. Assertions made between checks
//! are encoded once, monotonically. Retractable assertions go through
//! scopes: [`Solver::push`] opens a scope whose assertions are guarded by
//! a fresh activation literal `a` (each encoded as the clause `¬a ∨ t`),
//! `check` solves under the assumption set of all open scopes' activation
//! literals, and [`Solver::pop`] retires the scope with the single unit
//! clause `¬a`. Learnt clauses derived while one scope was active remain
//! valid for every later query, which is what lets refinement batch *i*
//! prune batch *i+1*.
//!
//! With `incremental` disabled the solver re-runs the full pipeline on
//! the active assertion set at every `check` — the fresh-solver baseline
//! the benchmarks compare against.
//!
//! Either way, each `check` first consults the content-addressed
//! [`QueryCache`] (when configured) keyed by the *active* assertions, so
//! warm reruns short-circuit before any encoding happens.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use hk_proof::ProofSession;

use crate::ackermann::{Ackermann, AppInstance};
use crate::bitblast::BitBlaster;
use crate::cache::{self, CachedVerdict, QueryCache};
use crate::cnf::Lit;
use crate::eval::{eval_bool, Value};
use crate::model::Model;
use crate::sat::{SatConfig, SatOutcome, SatSolver, SatStats};
use crate::stats::SolverStats;
use crate::term::{Ctx, FuncId, Sort, TermId, VarId};

/// Solver configuration; wraps the SAT heuristics.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Heuristics of the CDCL core.
    pub sat: SatConfig,
    /// Skip the model-validation pass. For benchmarking the raw
    /// pipeline, and for `hk_symx`'s loop back-edge feasibility probes,
    /// which read only `is_unsat()` and never the model.
    pub skip_validation: bool,
    /// Content-addressed verdict cache shared across solver instances
    /// (and worker threads). `None` disables caching.
    pub cache: Option<Arc<QueryCache>>,
    /// Keep one persistent encoding + SAT core across `check` calls
    /// (assumption-based scopes, learnt-clause reuse). Disable to get
    /// the fresh-pipeline-per-check baseline.
    pub incremental: bool,
    /// Garbage-collect the SAT core on every `pop`: after the scope's
    /// activation literal is retired, clauses guarded by it are satisfied
    /// at the root and reclaimed, so dead scopes never slow later
    /// queries. Only meaningful in incremental mode.
    pub scope_gc: bool,
    /// On an `Unknown` caused by the conflict budget, retry the query
    /// once with a 4x budget before reporting `Unknown`.
    pub escalate_unknown: bool,
    /// Log a binary-DRAT proof stream in the CDCL core (implied by
    /// `certify`). On its own this only pays the logging cost and fills
    /// the `proof_steps`/`proof_bytes` stats.
    pub proof_log: bool,
    /// Re-check every `Unsat` answer with the independent proof checker
    /// in `hk-proof` before returning it. A rejected proof panics, the
    /// same way a bogus model fails validation on the `Sat` side. Certify
    /// bypasses the query cache: a cached verdict has no proof to check.
    pub certify: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            sat: SatConfig::default(),
            skip_validation: false,
            cache: None,
            incremental: true,
            scope_gc: true,
            escalate_unknown: true,
            proof_log: false,
            certify: false,
        }
    }
}

/// Result of a `check` call.
#[derive(Debug)]
pub enum SatResult {
    /// The assertions are unsatisfiable.
    Unsat,
    /// A validated model of the assertions.
    Sat(Box<Model>),
    /// The conflict budget was exhausted.
    Unknown,
}

impl SatResult {
    /// True if the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// True if the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// One retractable assertion scope.
#[derive(Debug, Default)]
struct Scope {
    /// Assertions made while this scope was the innermost one.
    assertions: Vec<TermId>,
    /// A constant-false assertion landed here.
    trivially_false: bool,
    /// Activation literal guarding the scope's encoded clauses
    /// (allocated lazily on first encode).
    act: Option<Lit>,
    /// How many of `assertions` are already encoded.
    encoded: usize,
}

/// The persistent incremental pipeline: encode once, extend monotonically.
#[derive(Debug)]
struct Engine {
    ack: Ackermann,
    bb: BitBlaster,
    sat: SatSolver,
    /// Base-level assertions already encoded.
    encoded_base: usize,
    /// SAT-core counters as of the **end** of the previous `check`. The
    /// per-call delta is `sat.stats - snap`, so work done *between*
    /// checks — clause-loading propagation, the unit clause a `pop`
    /// plants — is attributed to exactly one call (the next one), never
    /// dropped and never double-counted.
    snap: SatStats,
    /// Proof steps emitted as of the end of the previous `check`.
    proof_steps_snap: u64,
    /// Proof bytes emitted as of the end of the previous `check`.
    proof_bytes_snap: u64,
    /// The checker session over `sat`'s proof stream: each Unsat
    /// certifies against the whole stream, but only the steps logged
    /// since the previous certification are parsed, and lemmas an
    /// earlier certification verified are not checked again.
    checker: ProofSession,
}

/// An SMT solver instance holding a set of assertions.
#[derive(Debug, Default)]
pub struct Solver {
    config: SolverConfig,
    /// Base-level (permanent) assertions.
    assertions: Vec<TermId>,
    trivially_false: bool,
    scopes: Vec<Scope>,
    engine: Option<Engine>,
    /// Statistics from the most recent `check` (per-call delta).
    pub stats: SolverStats,
    /// Every `check`'s delta merged: lifetime totals of this solver.
    pub totals: SolverStats,
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            config,
            ..Self::default()
        }
    }

    /// Adds an assertion to the innermost open scope (or permanently, if
    /// no scope is open).
    pub fn assert(&mut self, ctx: &mut Ctx, t: TermId) {
        assert_eq!(ctx.sort(t), Sort::Bool, "assertion must be boolean");
        match ctx.const_bool(t) {
            Some(true) => {}
            Some(false) => match self.scopes.last_mut() {
                Some(s) => s.trivially_false = true,
                None => self.trivially_false = true,
            },
            None => match self.scopes.last_mut() {
                Some(s) => s.assertions.push(t),
                None => self.assertions.push(t),
            },
        }
    }

    /// Opens a retractable assertion scope.
    pub fn push(&mut self) {
        self.scopes.push(Scope::default());
    }

    /// Closes the innermost scope, retracting its assertions. Already
    /// encoded clauses are permanently disabled via the scope's
    /// activation literal and — with [`SolverConfig::scope_gc`] on —
    /// physically reclaimed right away, together with every learnt clause
    /// derived from them (all such clauses contain the retired `¬act` and
    /// are now satisfied at the root). Learnt clauses that do not mention
    /// the scope survive.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let s = self.scopes.pop().expect("pop without matching push");
        if let (Some(engine), Some(act)) = (self.engine.as_mut(), s.act) {
            engine.sat.add_clause(&[-act]);
            if self.config.scope_gc {
                engine.sat.simplify();
            }
        }
    }

    /// Open scopes.
    pub fn num_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// The persistent SAT core's cumulative lifetime counters (`None`
    /// before the first incremental `check`, and always in oneshot
    /// mode). Every unit of core work shows up in exactly one per-call
    /// [`SolverStats`] delta, so these equal the field-wise sum of the
    /// deltas — the invariant the stats tests pin down.
    pub fn sat_lifetime_stats(&self) -> Option<SatStats> {
        self.engine.as_ref().map(|e| e.sat.stats)
    }

    /// The base-level (permanent) assertions.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// The assertions currently in force: base level plus every open
    /// scope, in assertion order.
    pub fn active_assertions(&self) -> Vec<TermId> {
        let mut out = self.assertions.clone();
        for s in &self.scopes {
            out.extend_from_slice(&s.assertions);
        }
        out
    }

    /// Decides satisfiability of the conjunction of the active
    /// assertions.
    pub fn check(&mut self, ctx: &mut Ctx) -> SatResult {
        #[cfg(debug_assertions)]
        if let Err(e) = ctx.validate() {
            panic!("term store failed validation at query entry: {e}");
        }
        self.stats = SolverStats {
            checks: 1,
            ..SolverStats::default()
        };
        let result = self.check_inner(ctx);
        if result.is_unsat() {
            self.stats.unsat_queries = 1;
        }
        self.totals.merge(&self.stats);
        result
    }

    fn check_inner(&mut self, ctx: &mut Ctx) -> SatResult {
        if self.trivially_false || self.scopes.iter().any(|s| s.trivially_false) {
            // A syntactically false assertion needs no refutation proof:
            // the claim is its own certificate.
            if self.config.certify {
                self.stats.certified_unsat = 1;
            }
            return SatResult::Unsat;
        }
        let active = self.active_assertions();
        self.stats.assertions = active.len();
        if active.is_empty() {
            return SatResult::Sat(Box::default());
        }
        // 0. Query cache: key the active VC by its canonical content
        // hash, *before* any encoding work. Certified runs skip the
        // cache entirely — a cached Unsat has no proof to re-check.
        let cache_cfg = if self.config.certify {
            None
        } else {
            self.config.cache.clone()
        };
        let fp = cache_cfg.as_ref().map(|_| cache::fingerprint(ctx, &active));
        if let (Some(c), Some(fp)) = (cache_cfg.clone(), fp.as_ref()) {
            match c.lookup(&fp.key) {
                Some(CachedVerdict::Unsat) => {
                    self.stats.cache_hits = 1;
                    return SatResult::Unsat;
                }
                Some(CachedVerdict::Sat(cm)) => {
                    // Rehydrate into this context and re-validate before
                    // trusting the entry: a collision or stale snapshot
                    // must never produce a bogus counterexample.
                    let model = cache::rehydrate(fp, &cm)
                        .filter(|m| active.iter().all(|&t| eval_bool(ctx, t, &m.assignment)));
                    match model {
                        Some(m) => {
                            self.stats.cache_hits = 1;
                            return SatResult::Sat(Box::new(m));
                        }
                        None => {
                            c.invalidate(&fp.key);
                            self.stats.cache_misses = 1;
                        }
                    }
                }
                None => self.stats.cache_misses = 1,
            }
        }
        let mut result = if self.config.incremental {
            self.check_incremental(ctx, &active)
        } else {
            self.check_oneshot(ctx, &active)
        };
        // Budget escalation: an `Unknown` under a conflict budget gets
        // one retry at 4x before being reported. In incremental mode the
        // retry resumes the same core (learnt clauses from the first
        // attempt included); in oneshot mode the pipeline re-runs.
        if matches!(result, SatResult::Unknown) && self.config.escalate_unknown {
            if let Some(base) = self.config.sat.max_conflicts {
                let boosted = base.saturating_mul(4);
                self.stats.escalations = 1;
                if self.config.incremental {
                    if let Some(e) = self.engine.as_mut() {
                        e.sat.set_max_conflicts(Some(boosted));
                    }
                    result = self.check_incremental(ctx, &active);
                    if let Some(e) = self.engine.as_mut() {
                        e.sat.set_max_conflicts(Some(base));
                    }
                } else {
                    self.config.sat.max_conflicts = Some(boosted);
                    result = self.check_oneshot(ctx, &active);
                    self.config.sat.max_conflicts = Some(base);
                }
            }
        }
        if let (Some(c), Some(fp)) = (cache_cfg.as_ref(), fp.as_ref()) {
            match &result {
                SatResult::Unsat => c.insert(fp.key, CachedVerdict::Unsat),
                SatResult::Sat(m) => c.insert(fp.key, CachedVerdict::Sat(cache::dehydrate(fp, m))),
                SatResult::Unknown => {}
            }
        }
        result
    }

    /// Runs the independent checker session over the proof stream,
    /// validates that it concludes what this `Unsat` answer claims
    /// (`expected` = the negated failed-assumption set, or empty for an
    /// unconditional refutation; the empty clause is always acceptable
    /// as stronger), and fills the proof-checking stats. Panics on a
    /// rejected or off-target proof — the Unsat twin of failed model
    /// validation.
    fn certify_unsat(
        stats: &mut SolverStats,
        checker: &mut ProofSession,
        proof_bytes: &[u8],
        expected: &[i32],
    ) {
        let check_start = Instant::now();
        let out = checker.check(proof_bytes).unwrap_or_else(|e| {
            panic!("certified-unsat check failed: independent checker rejected the proof: {e}")
        });
        stats.proof_check_time += check_start.elapsed();
        stats.proofs_checked += 1;
        stats.proof_lemmas += out.lemmas as u64;
        stats.proof_core_steps += out.core_lemmas as u64;
        let mut want = expected.to_vec();
        want.sort_unstable();
        want.dedup();
        assert!(
            out.final_clause.is_empty() || out.final_clause == want,
            "certified-unsat check failed: proof concludes {:?}, answer claims {:?}",
            out.final_clause,
            want
        );
        stats.certified_unsat = 1;
    }

    // ------------------------------------------------------------------
    // Incremental path: persistent Ackermann + bit-blaster + CDCL core.
    // ------------------------------------------------------------------

    fn check_incremental(&mut self, ctx: &mut Ctx, active: &[TermId]) -> SatResult {
        if self.engine.is_none() {
            let mut sat = SatSolver::with_config(self.config.sat.clone());
            if self.config.proof_log || self.config.certify {
                // Before any clause exists, so the stream is complete.
                sat.start_proof();
            }
            self.engine = Some(Engine {
                ack: Ackermann::new(),
                bb: BitBlaster::new(),
                sat,
                encoded_base: 0,
                snap: SatStats::default(),
                proof_steps_snap: 0,
                proof_bytes_snap: 0,
                checker: ProofSession::new(),
            });
        }
        let encode_start = Instant::now();
        // 1. Ackermann-rewrite the assertions not yet encoded.
        let engine = self.engine.as_mut().expect("engine just installed");
        let rewritten_base: Vec<TermId> = self.assertions[engine.encoded_base..]
            .iter()
            .map(|&t| engine.ack.rewrite(ctx, t))
            .collect();
        engine.encoded_base = self.assertions.len();
        let mut rewritten_scoped: Vec<(usize, TermId)> = Vec::new();
        for (si, s) in self.scopes.iter_mut().enumerate() {
            for &t in &s.assertions[s.encoded..] {
                rewritten_scoped.push((si, engine.ack.rewrite(ctx, t)));
            }
            s.encoded = s.assertions.len();
        }
        // Congruence constraints are consequences of the UF semantics
        // alone, so they are always asserted at the base level.
        let new_constraints = engine.ack.take_new_constraints();
        // Stats fields accumulate (`+=`) rather than assign: an escalated
        // retry re-enters this function within the same `check`, and both
        // attempts' work belongs to that one call.
        self.stats.ackermann_constraints += new_constraints.len();
        let ack_elapsed = encode_start.elapsed();
        self.stats.ack_time += ack_elapsed;
        // 2. Bit-blast the delta. Constant-false terms blast to the
        // reserved false literal, so no special-casing is needed: a base
        // falsity yields the unit clause ¬⊤ and the solver goes
        // permanently unsat; a scoped one yields ¬act ∨ ¬⊤, forcing the
        // activation literal off.
        for &t in rewritten_base.iter().chain(new_constraints.iter()) {
            engine.bb.assert_term(ctx, t);
        }
        for &(si, t) in &rewritten_scoped {
            let act = *self.scopes[si]
                .act
                .get_or_insert_with(|| engine.bb.builder.new_var());
            engine.bb.assert_term_under(ctx, act, t);
        }
        // 3. Feed the CNF delta to the persistent SAT core.
        let (num_vars, new_clauses) = engine.bb.builder.take_new();
        engine.sat.reserve_vars(num_vars);
        for c in &new_clauses {
            if !engine.sat.add_clause(c) {
                break;
            }
        }
        self.stats.cnf_vars = num_vars;
        self.stats.cnf_clauses += new_clauses.len();
        let encode_elapsed = encode_start.elapsed();
        self.stats.encode_time += encode_elapsed;
        self.stats.bitblast_time += encode_elapsed.saturating_sub(ack_elapsed);
        // 4. Solve under the open scopes' activation literals.
        let assumptions: Vec<Lit> = self.scopes.iter().filter_map(|s| s.act).collect();
        let solve_start = Instant::now();
        let outcome = engine.sat.solve_with_assumptions(&assumptions);
        self.stats.solve_time += solve_start.elapsed();
        // Per-call deltas are taken against the end-of-previous-check
        // snapshot, not a start-of-solve one: clause-loading and
        // `pop`-planted units (with their scope GC) that ran between
        // checks land here, once.
        add_sat_work(&mut self.stats, &engine.sat.stats, &engine.snap);
        engine.snap = engine.sat.stats;
        if let Some(pr) = engine.sat.proof() {
            self.stats.proof_steps += pr.num_steps() - engine.proof_steps_snap;
            self.stats.proof_bytes += pr.byte_len() as u64 - engine.proof_bytes_snap;
            engine.proof_steps_snap = pr.num_steps();
            engine.proof_bytes_snap = pr.byte_len() as u64;
        }
        match outcome {
            SatOutcome::Unsat => {
                if self.config.certify {
                    // The claim being certified: the failed-assumption
                    // set is refutable (or, with no failed assumptions,
                    // the clauses themselves are).
                    let expected: Vec<i32> = if engine.sat.is_ok() {
                        engine
                            .sat
                            .failed_assumptions()
                            .iter()
                            .map(|&l| -l)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let proof = engine
                        .sat
                        .proof()
                        .expect("certify implies proof logging")
                        .bytes();
                    Self::certify_unsat(&mut self.stats, &mut engine.checker, proof, &expected);
                }
                SatResult::Unsat
            }
            SatOutcome::Unknown => SatResult::Unknown,
            SatOutcome::Sat => {
                let engine = self.engine.as_ref().expect("engine exists");
                let model = lift_model(
                    ctx,
                    &engine.sat,
                    &engine.bb.var_bv,
                    &engine.bb.var_bool,
                    &engine.ack.instances,
                );
                if !self.config.skip_validation {
                    for &t in active {
                        assert!(
                            eval_bool(ctx, t, &model.assignment),
                            "model validation failed for assertion: {}",
                            ctx.display(t)
                        );
                    }
                }
                SatResult::Sat(Box::new(model))
            }
        }
    }

    // ------------------------------------------------------------------
    // One-shot path: the fresh-pipeline-per-check baseline.
    // ------------------------------------------------------------------

    fn check_oneshot(&mut self, ctx: &mut Ctx, active: &[TermId]) -> SatResult {
        let encode_start = Instant::now();
        // 1. Ackermann reduction.
        let mut ack = Ackermann::new();
        let rewritten: Vec<TermId> = active.iter().map(|&t| ack.rewrite(ctx, t)).collect();
        let constraints = ack.constraints.clone();
        // `+=` like the incremental path: an escalated retry re-runs the
        // whole pipeline inside the same `check`.
        self.stats.ackermann_constraints += constraints.len();
        let ack_elapsed = encode_start.elapsed();
        self.stats.ack_time += ack_elapsed;
        // 2. Bit-blast.
        let mut bb = BitBlaster::new();
        let mut trivially_false = false;
        for &t in rewritten.iter().chain(constraints.iter()) {
            if ctx.const_bool(t) == Some(false) {
                trivially_false = true;
                break;
            }
            if ctx.const_bool(t) == Some(true) {
                continue;
            }
            bb.assert_term(ctx, t);
        }
        if trivially_false {
            // Syntactic falsity, nothing was encoded: vacuously certified.
            if self.config.certify {
                self.stats.certified_unsat = 1;
            }
            return SatResult::Unsat;
        }
        let var_bv = bb.var_bv.clone();
        let var_bool = bb.var_bool.clone();
        let (num_vars, clauses) = bb.builder.finish();
        self.stats.cnf_vars = num_vars;
        self.stats.cnf_clauses += clauses.len();
        // 3. Feed the CNF to a fresh SAT core. Clause loading scales with
        // formula size, not search difficulty, so it counts toward
        // encode_time — mirroring the incremental path, where the delta
        // is loaded inside the encode window.
        let mut sat = SatSolver::with_config(self.config.sat.clone());
        if self.config.proof_log || self.config.certify {
            sat.start_proof();
        }
        sat.reserve_vars(num_vars);
        let mut ok = true;
        for c in &clauses {
            if !sat.add_clause(c) {
                ok = false;
                break;
            }
        }
        let encode_elapsed = encode_start.elapsed();
        self.stats.encode_time += encode_elapsed;
        self.stats.bitblast_time += encode_elapsed.saturating_sub(ack_elapsed);
        // 4. SAT.
        let solve_start = Instant::now();
        let outcome = if ok {
            sat.solve_with_assumptions(&[])
        } else {
            SatOutcome::Unsat
        };
        self.stats.solve_time += solve_start.elapsed();
        add_sat_work(&mut self.stats, &sat.stats, &SatStats::default());
        if let Some(pr) = sat.proof() {
            self.stats.proof_steps += pr.num_steps();
            self.stats.proof_bytes += pr.byte_len() as u64;
        }
        match outcome {
            SatOutcome::Unsat => {
                if self.config.certify {
                    // An unassumed refutation always concludes the
                    // empty clause.
                    let proof = sat.proof().expect("certify implies proof logging").bytes();
                    Self::certify_unsat(&mut self.stats, &mut ProofSession::new(), proof, &[]);
                }
                SatResult::Unsat
            }
            SatOutcome::Unknown => SatResult::Unknown,
            SatOutcome::Sat => {
                let model = lift_model(ctx, &sat, &var_bv, &var_bool, &ack.instances);
                if !self.config.skip_validation {
                    for &t in active {
                        assert!(
                            eval_bool(ctx, t, &model.assignment),
                            "model validation failed for assertion: {}",
                            ctx.display(t)
                        );
                    }
                }
                SatResult::Sat(Box::new(model))
            }
        }
    }
}

/// Adds the CDCL work a SAT core did between the counter snapshots
/// `since` and `now` to the per-call stats.
fn add_sat_work(stats: &mut SolverStats, now: &SatStats, since: &SatStats) {
    stats.conflicts += now.conflicts - since.conflicts;
    stats.decisions += now.decisions - since.decisions;
    stats.propagations += now.propagations - since.propagations;
    stats.restarts += now.restarts - since.restarts;
    stats.db_reductions += now.db_reductions - since.db_reductions;
    stats.learnts_removed += now.learnts_removed - since.learnts_removed;
    stats.scope_gc_clauses += now.gc_clauses - since.gc_clauses;
    stats.probe_units += now.probe_units - since.probe_units;
    stats.subsumed += now.subsumed - since.subsumed;
    stats.strengthened += now.strengthened - since.strengthened;
}

/// Lifts a SAT model back to term variables and UF interpretations.
fn lift_model(
    ctx: &Ctx,
    sat: &SatSolver,
    var_bv: &HashMap<VarId, Vec<Lit>>,
    var_bool: &HashMap<VarId, Lit>,
    instances: &HashMap<FuncId, Vec<AppInstance>>,
) -> Model {
    let mut model = Model::default();
    let lit_val = |l: Lit| -> bool {
        if l > 0 {
            sat.model_value(l as u32)
        } else {
            !sat.model_value((-l) as u32)
        }
    };
    for (v, bits) in var_bv {
        let mut val = 0u64;
        for (i, &l) in bits.iter().enumerate() {
            if lit_val(l) {
                val |= 1 << i;
            }
        }
        model.assignment.set_var(*v, Value::Bv(val));
    }
    for (v, &l) in var_bool {
        model.assignment.set_var(*v, Value::Bool(lit_val(l)));
    }
    // Lift UF interpretations through the instance table.
    for (f, insts) in instances {
        for inst in insts {
            let args: Vec<u64> = inst
                .args
                .iter()
                .map(|&a| match model.eval(ctx, a) {
                    Value::Bv(v) => v,
                    Value::Bool(b) => b as u64,
                })
                .collect();
            let val = match model.eval(ctx, inst.var) {
                Value::Bv(v) => v,
                Value::Bool(b) => b as u64,
            };
            model.assignment.func_mut(*f).set(args, val);
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_with_model() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(32));
        let y = ctx.var("y", Sort::Bv(32));
        let sum = ctx.bv_add(x, y);
        let c100 = ctx.bv_const(32, 100);
        let c10 = ctx.bv_const(32, 10);
        let e1 = ctx.eq(sum, c100);
        let e2 = ctx.eq(x, c10);
        let mut s = Solver::new();
        s.assert(&mut ctx, e1);
        s.assert(&mut ctx, e2);
        match s.check(&mut ctx) {
            SatResult::Sat(m) => {
                assert_eq!(m.eval_bv(&ctx, x), Some(10));
                assert_eq!(m.eval_bv(&ctx, y), Some(90));
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn unsat_bv_facts() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        // x < 5 && x > 10 is unsat.
        let c5 = ctx.bv_const(16, 5);
        let c10 = ctx.bv_const(16, 10);
        let lt = ctx.ult(x, c5);
        let gt = ctx.ult(c10, x);
        let mut s = Solver::new();
        s.assert(&mut ctx, lt);
        s.assert(&mut ctx, gt);
        assert!(s.check(&mut ctx).is_unsat());
    }

    #[test]
    fn uf_congruence_unsat() {
        let mut ctx = Ctx::new();
        let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(64));
        let x = ctx.var("x", Sort::Bv(64));
        let y = ctx.var("y", Sort::Bv(64));
        // x == y && f(x) != f(y) is unsat.
        let e = ctx.eq(x, y);
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let ne = ctx.ne(fx, fy);
        let mut s = Solver::new();
        s.assert(&mut ctx, e);
        s.assert(&mut ctx, ne);
        assert!(s.check(&mut ctx).is_unsat());
    }

    #[test]
    fn uf_model_lifting() {
        let mut ctx = Ctx::new();
        let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(64));
        let c1 = ctx.bv_const(64, 1);
        let c2 = ctx.bv_const(64, 2);
        let f1 = ctx.apply(f, &[c1]);
        let f2 = ctx.apply(f, &[c2]);
        let c10 = ctx.bv_const(64, 10);
        let c20 = ctx.bv_const(64, 20);
        let e1 = ctx.eq(f1, c10);
        let e2 = ctx.eq(f2, c20);
        let mut s = Solver::new();
        s.assert(&mut ctx, e1);
        s.assert(&mut ctx, e2);
        match s.check(&mut ctx) {
            SatResult::Sat(m) => {
                let fi = m.func_interp(f).expect("f interpreted");
                assert_eq!(fi.get(&[1]), 10);
                assert_eq!(fi.get(&[2]), 20);
                // Re-evaluating the applications agrees.
                assert_eq!(m.eval_bv(&ctx, f1), Some(10));
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn empty_is_sat() {
        let mut ctx = Ctx::new();
        let mut s = Solver::new();
        assert!(s.check(&mut ctx).is_sat());
    }

    #[test]
    fn trivially_false_assertion() {
        let mut ctx = Ctx::new();
        let f = ctx.fls();
        let mut s = Solver::new();
        s.assert(&mut ctx, f);
        assert!(s.check(&mut ctx).is_unsat());
    }

    fn cached_config(cache: &Arc<QueryCache>) -> SolverConfig {
        SolverConfig {
            cache: Some(cache.clone()),
            ..SolverConfig::default()
        }
    }

    /// Builds `x < 5 && 10 < x` (unsat) in any context.
    fn unsat_vc(ctx: &mut Ctx) -> Vec<TermId> {
        let x = ctx.var("x", Sort::Bv(16));
        let c5 = ctx.bv_const(16, 5);
        let c10 = ctx.bv_const(16, 10);
        vec![ctx.ult(x, c5), ctx.ult(c10, x)]
    }

    #[test]
    fn cache_hits_unsat_across_contexts() {
        let cache = Arc::new(QueryCache::new(64));
        let mut ctx1 = Ctx::new();
        let mut s1 = Solver::with_config(cached_config(&cache));
        for t in unsat_vc(&mut ctx1) {
            s1.assert(&mut ctx1, t);
        }
        assert!(s1.check(&mut ctx1).is_unsat());
        assert_eq!(s1.stats.cache_misses, 1);
        assert_eq!(s1.stats.cache_hits, 0);
        // Same VC, brand-new context: must hit without solving.
        let mut ctx2 = Ctx::new();
        let mut s2 = Solver::with_config(cached_config(&cache));
        for t in unsat_vc(&mut ctx2) {
            s2.assert(&mut ctx2, t);
        }
        assert!(s2.check(&mut ctx2).is_unsat());
        assert_eq!(s2.stats.cache_hits, 1);
        assert_eq!(s2.stats.cache_misses, 0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_hits_sat_with_valid_model() {
        let cache = Arc::new(QueryCache::new(64));
        let build = |ctx: &mut Ctx| {
            let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(64));
            let x = ctx.var("x", Sort::Bv(64));
            let fx = ctx.apply(f, &[x]);
            let c7 = ctx.bv_const(64, 7);
            let c3 = ctx.bv_const(64, 3);
            let e1 = ctx.eq(fx, c7);
            let e2 = ctx.eq(x, c3);
            (vec![e1, e2], x, fx)
        };
        let mut ctx1 = Ctx::new();
        let (vc1, _, _) = build(&mut ctx1);
        let mut s1 = Solver::with_config(cached_config(&cache));
        for t in vc1 {
            s1.assert(&mut ctx1, t);
        }
        assert!(s1.check(&mut ctx1).is_sat());
        // Fresh context: the rehydrated model must satisfy the VC.
        let mut ctx2 = Ctx::new();
        let (vc2, x2, fx2) = build(&mut ctx2);
        let mut s2 = Solver::with_config(cached_config(&cache));
        for t in vc2 {
            s2.assert(&mut ctx2, t);
        }
        match s2.check(&mut ctx2) {
            SatResult::Sat(m) => {
                assert_eq!(m.eval_bv(&ctx2, x2), Some(3));
                assert_eq!(m.eval_bv(&ctx2, fx2), Some(7));
            }
            r => panic!("expected sat, got {r:?}"),
        }
        assert_eq!(s2.stats.cache_hits, 1);
    }

    #[test]
    fn cache_does_not_cross_different_vcs() {
        let cache = Arc::new(QueryCache::new(64));
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let c5 = ctx.bv_const(16, 5);
        let c10 = ctx.bv_const(16, 10);
        let lt = ctx.ult(x, c5);
        let gt = ctx.ult(c10, x);
        let mut s1 = Solver::with_config(cached_config(&cache));
        s1.assert(&mut ctx, lt);
        s1.assert(&mut ctx, gt);
        assert!(s1.check(&mut ctx).is_unsat());
        // The one-sided query is satisfiable and must not be served the
        // cached Unsat of the conjunction.
        let mut s2 = Solver::with_config(cached_config(&cache));
        s2.assert(&mut ctx, lt);
        assert!(s2.check(&mut ctx).is_sat());
        assert_eq!(s2.stats.cache_hits, 0);
    }

    // ------------------------------------------------------------------
    // Incremental scopes.
    // ------------------------------------------------------------------

    #[test]
    fn push_pop_retracts_assertions() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let c5 = ctx.bv_const(16, 5);
        let c10 = ctx.bv_const(16, 10);
        let lt = ctx.ult(x, c5);
        let gt = ctx.ult(c10, x);
        let mut s = Solver::new();
        s.assert(&mut ctx, lt);
        // Scope 1: the contradiction.
        s.push();
        s.assert(&mut ctx, gt);
        assert!(s.check(&mut ctx).is_unsat());
        s.pop();
        // Retracted: satisfiable again, and the model respects the base
        // assertion.
        match s.check(&mut ctx) {
            SatResult::Sat(m) => assert!(m.eval_bv(&ctx, x).expect("x assigned") < 5),
            r => panic!("expected sat after pop, got {r:?}"),
        }
    }

    #[test]
    fn scopes_nest_and_base_grows_between_checks() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let mut s = Solver::new();
        let c3 = ctx.bv_const(8, 3);
        let e1 = ctx.ult(x, c3);
        s.assert(&mut ctx, e1); // x < 3
        assert!(s.check(&mut ctx).is_sat());
        // Grow the base after a check: y == x + 1.
        let one = ctx.bv_const(8, 1);
        let xp1 = ctx.bv_add(x, one);
        let e2 = ctx.eq(y, xp1);
        s.assert(&mut ctx, e2);
        s.push();
        let c2 = ctx.bv_const(8, 2);
        let e3 = ctx.eq(x, c2);
        s.assert(&mut ctx, e3); // x == 2
        s.push();
        let c9 = ctx.bv_const(8, 9);
        let e4 = ctx.eq(y, c9);
        s.assert(&mut ctx, e4); // y == 9, contradicts y == x+1 == 3
        assert!(s.check(&mut ctx).is_unsat());
        s.pop();
        match s.check(&mut ctx) {
            SatResult::Sat(m) => {
                assert_eq!(m.eval_bv(&ctx, x), Some(2));
                assert_eq!(m.eval_bv(&ctx, y), Some(3));
            }
            r => panic!("expected sat, got {r:?}"),
        }
        s.pop();
        assert_eq!(s.num_scopes(), 0);
        assert!(s.check(&mut ctx).is_sat());
    }

    #[test]
    fn trivially_false_scope_recovers_after_pop() {
        let mut ctx = Ctx::new();
        let mut s = Solver::new();
        let x = ctx.var("x", Sort::Bool);
        s.assert(&mut ctx, x);
        s.push();
        let f = ctx.fls();
        s.assert(&mut ctx, f);
        assert!(s.check(&mut ctx).is_unsat());
        s.pop();
        assert!(s.check(&mut ctx).is_sat());
    }

    #[test]
    fn uf_congruence_across_scopes() {
        // Congruence constraints must hold between an application asserted
        // in the base and one asserted inside a scope.
        let mut ctx = Ctx::new();
        let f = ctx.func("f", vec![Sort::Bv(64)], Sort::Bv(64));
        let x = ctx.var("x", Sort::Bv(64));
        let y = ctx.var("y", Sort::Bv(64));
        let fx = ctx.apply(f, &[x]);
        let fy = ctx.apply(f, &[y]);
        let mut s = Solver::new();
        let exy = ctx.eq(x, y);
        s.assert(&mut ctx, exy);
        let c1 = ctx.bv_const(64, 1);
        let e1 = ctx.eq(fx, c1);
        s.assert(&mut ctx, e1); // f(x) == 1
        assert!(s.check(&mut ctx).is_sat());
        s.push();
        let c2 = ctx.bv_const(64, 2);
        let e2 = ctx.eq(fy, c2); // f(y) == 2, but x == y forces f(x) == f(y)
        s.assert(&mut ctx, e2);
        assert!(s.check(&mut ctx).is_unsat());
        s.pop();
        assert!(s.check(&mut ctx).is_sat());
    }

    #[test]
    fn per_call_stats_are_deltas_and_totals_accumulate() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(32));
        let y = ctx.var("y", Sort::Bv(32));
        let prod = ctx.bv_mul(x, y);
        let c91 = ctx.bv_const(32, 91);
        let e = ctx.eq(prod, c91);
        let mut s = Solver::new();
        s.assert(&mut ctx, e);
        assert!(s.check(&mut ctx).is_sat());
        let first_clauses = s.stats.cnf_clauses;
        assert!(first_clauses > 0);
        // Second check with a tiny scoped addition: the encode delta must
        // be far smaller than the initial encoding.
        s.push();
        let two = ctx.bv_const(32, 2);
        let ex = ctx.ult(two, x);
        s.assert(&mut ctx, ex);
        assert!(s.check(&mut ctx).is_sat());
        assert!(
            s.stats.cnf_clauses < first_clauses / 4,
            "delta {} vs initial {}",
            s.stats.cnf_clauses,
            first_clauses
        );
        assert_eq!(s.totals.checks, 2);
        assert_eq!(
            s.totals.cnf_clauses,
            first_clauses + s.stats.cnf_clauses,
            "totals must be the sum of per-call deltas"
        );
        s.pop();
    }

    #[test]
    fn oneshot_config_still_answers_correctly() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let c5 = ctx.bv_const(16, 5);
        let lt = ctx.ult(x, c5);
        let mut s = Solver::with_config(SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        });
        s.assert(&mut ctx, lt);
        s.push();
        let c3 = ctx.bv_const(16, 3);
        let gt = ctx.ult(c3, x);
        s.assert(&mut ctx, gt);
        match s.check(&mut ctx) {
            SatResult::Sat(m) => assert_eq!(m.eval_bv(&ctx, x), Some(4)),
            r => panic!("expected sat, got {r:?}"),
        }
        s.pop();
        s.push();
        let gt5 = {
            let c = ctx.bv_const(16, 5);
            ctx.ule(c, x)
        };
        s.assert(&mut ctx, gt5);
        assert!(s.check(&mut ctx).is_unsat());
        s.pop();
    }
}
