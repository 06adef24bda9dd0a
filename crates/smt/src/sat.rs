//! A CDCL SAT solver in the MiniSat/Glucose lineage.
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis
//! with clause minimization, exponential VSIDS variable activities,
//! phase saving, Luby restarts, and learnt-clause database reduction
//! driven by LBD ("glue") quality scores on a Glucose-style conflict
//! schedule. Every backjump goes to the learnt clause's assertion level,
//! so the trail is always in decision-level order. The heuristic knobs
//! are exposed through [`SatConfig`] so the Figure 9 stability experiment
//! can sweep them (standing in for the paper's sweep over historic Z3
//! versions).
//!
//! Two maintenance passes keep a long-lived incremental solver healthy:
//!
//! * [`SatSolver::simplify`] — root-level garbage collection: clauses
//!   satisfied by the level-0 trail are deleted and the clause arena is
//!   compacted. The SMT layer calls this after every scope `pop`, so
//!   clauses dead under a retired activation literal are reclaimed
//!   instead of poisoning every later query (the PR 2 regression).
//! * A lightweight **inprocessing** pass (subsumption, self-subsuming
//!   resolution, failed-literal probing on the root level), run when the
//!   clause database has grown enough since the last pass.
//!
//! The solver is **incremental**: [`SatSolver::solve_with_assumptions`]
//! decides the formula under a set of assumption literals (treated as
//! pseudo-decisions below all real decisions, MiniSat-style), and the
//! solver returns to decision level 0 after every call, so clauses and
//! variables can be added between calls while learnt clauses, VSIDS
//! activities, and saved phases carry over. When a query is unsatisfiable
//! *because of* its assumptions, the responsible subset is recovered via
//! final-conflict analysis ([`SatSolver::failed_assumptions`]).
//!
//! Each `solve*` call is one sequential search on the calling thread.
//! Verification gets its parallelism one level up, where the driver
//! verifies handlers on a thread pool, one solver per handler (paper §6.3).
//!
//! The solver can additionally log a binary-DRAT **proof** of its work
//! (see [`SatSolver::start_proof`]): every input clause, learnt clause,
//! deletion, and concluding conflict clause goes into an
//! [`hk_proof::ProofWriter`] stream that the independent checker in
//! `hk-proof` re-derives from scratch. Logging is off by default and
//! every log site is behind an `Option` check, so the disabled cost is
//! one branch per clause event.

use hk_proof::ProofWriter;

/// Truth value lattice used internally.
const UNDEF: u8 = 2;
const TRUE: u8 = 1;
const FALSE: u8 = 0;

/// Sentinel for "no reason clause".
const NO_REASON: u32 = u32::MAX;

/// Learnt-clause activity decay factor. Activity breaks ties between
/// clauses of equal glue when the database is reduced.
const CLAUSE_DECAY: f64 = 0.999;

/// Heuristic configuration.
#[derive(Debug, Clone)]
pub struct SatConfig {
    /// VSIDS activity decay factor (e.g. 0.95).
    pub var_decay: f64,
    /// Whether to restart at all (Luby schedule).
    pub restarts: bool,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Whether to reuse the last assigned polarity when deciding. A
    /// variable with no saved phase is decided `false`.
    pub phase_saving: bool,
    /// Conflicts before the first learnt-clause database reduction.
    pub reduce_base: u64,
    /// Schedule increment: each reduction pushes the next one this much
    /// further out (in conflicts).
    pub reduce_incr: u64,
    /// Root-level inprocessing (subsumption, self-subsuming resolution,
    /// failed-literal probing) when the clause database has grown enough.
    pub inprocessing: bool,
    /// Optional conflict budget; `None` means run to completion.
    pub max_conflicts: Option<u64>,
    /// Optional wall-clock budget per `solve` call, in milliseconds.
    /// Checked once per search-loop round, so a call overshoots by at
    /// most one decide/propagate round. `None` means run to completion.
    pub max_solve_ms: Option<u64>,
}

impl Default for SatConfig {
    fn default() -> Self {
        SatConfig {
            var_decay: 0.95,
            restarts: true,
            restart_base: 100,
            phase_saving: true,
            reduce_base: 2000,
            reduce_incr: 300,
            inprocessing: true,
            max_conflicts: None,
            max_solve_ms: None,
        }
    }
}

/// Outcome of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment was found (read it via [`SatSolver::model_value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

/// Runtime statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt-database reductions performed.
    pub db_reductions: u64,
    /// Learnt clauses deleted by database reductions.
    pub learnts_removed: u64,
    /// Clauses reclaimed by root-level garbage collection
    /// ([`SatSolver::simplify`], notably after scope pops).
    pub gc_clauses: u64,
    /// Literals probed by failed-literal inprocessing.
    pub probed_literals: u64,
    /// Unit clauses learnt from failed literals.
    pub probe_units: u64,
    /// Clauses deleted because another clause subsumes them.
    pub subsumed: u64,
    /// Clauses strengthened by self-subsuming resolution.
    pub strengthened: u64,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<u32>,
    learnt: bool,
    deleted: bool,
    activity: f64,
    /// Literal block distance (glue) at learning time, refreshed downward
    /// whenever the clause participates in conflict analysis. Zero for
    /// problem clauses (never consulted).
    lbd: u32,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: u32,
}

/// What the branching step produced.
enum Branch {
    /// A decision (assumption or heap pick) was enqueued.
    Decided,
    /// An assumption is falsified by the current level-0-closed state.
    AssumptionFailed(u32),
    /// Every variable is assigned: the formula is satisfied.
    AllAssigned,
}

/// The solver.
///
/// Cloning a solver clones its whole state — clause database, learnt
/// clauses, heuristics, and proof stream — so a clone continues as an
/// independent but warm copy.
#[derive(Debug, Clone)]
pub struct SatSolver {
    config: SatConfig,
    ok: bool,
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<u8>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<u32>,
    heap_pos: Vec<i32>,
    trail: Vec<u32>,
    trail_lim: Vec<usize>,
    reason: Vec<u32>,
    level: Vec<u32>,
    seen: Vec<bool>,
    qhead: usize,
    /// `stats.conflicts` at the last LBD-scheduled reduction.
    conflicts_at_reduce: u64,
    /// Clause count that triggers the next inprocessing pass.
    inprocess_at: usize,
    /// Watermark into the level-0 trail: literals below it are already
    /// present as units in the proof stream (input units, probe/learnt
    /// unit lemmas, or lemmas logged by `simplify`). Root-level GC must
    /// not delete a propagated literal's reason clause before the fact
    /// itself is preserved as a unit lemma, or later RUP checks lose it.
    units_logged: usize,
    /// Level-stamp scratch for LBD computation.
    lbd_seen: Vec<u64>,
    lbd_stamp: u64,
    /// Model snapshot from the last `Sat` answer (the trail itself is
    /// unwound to level 0 before `solve*` returns).
    model: Vec<u8>,
    /// Failed-assumption set from the last assumption-driven `Unsat`.
    conflict: Vec<i32>,
    /// Statistics for benchmarking and diagnostics. Cumulative across
    /// `solve*` calls; snapshot before a call to obtain per-call deltas.
    pub stats: SatStats,
    /// Binary-DRAT proof stream, when logging is on.
    proof: Option<ProofWriter>,
}

#[inline]
fn lit_from_dimacs(l: i32) -> u32 {
    debug_assert!(l != 0);
    let v = (l.unsigned_abs() - 1) * 2;
    if l < 0 {
        v + 1
    } else {
        v
    }
}

#[inline]
fn lit_to_dimacs(l: u32) -> i32 {
    let v = (l >> 1) as i32 + 1;
    if l & 1 == 1 {
        -v
    } else {
        v
    }
}

#[inline]
fn lit_var(l: u32) -> usize {
    (l >> 1) as usize
}

#[inline]
fn lit_neg(l: u32) -> u32 {
    l ^ 1
}

#[inline]
fn lit_sign(l: u32) -> bool {
    l & 1 == 1
}

impl SatSolver {
    /// Creates a solver with the given heuristics.
    pub fn with_config(config: SatConfig) -> Self {
        SatSolver {
            config,
            ok: true,
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            qhead: 0,
            conflicts_at_reduce: 0,
            inprocess_at: 1,
            units_logged: 0,
            lbd_seen: Vec::new(),
            lbd_stamp: 0,
            model: Vec::new(),
            conflict: Vec::new(),
            stats: SatStats::default(),
            proof: None,
        }
    }

    /// Turns on binary-DRAT proof logging. Must be called before any
    /// clause is added: a proof that misses clauses cannot check.
    pub fn start_proof(&mut self) {
        assert!(
            self.clauses.is_empty() && self.trail.is_empty(),
            "start_proof on a solver that already holds clauses"
        );
        self.proof = Some(ProofWriter::new());
    }

    /// The proof stream, when [`SatSolver::start_proof`] was called.
    pub fn proof(&self) -> Option<&ProofWriter> {
        self.proof.as_ref()
    }

    /// Logs the empty clause, concluding the refutation.
    #[inline]
    fn proof_log_empty(&mut self) {
        if let Some(pr) = self.proof.as_mut() {
            pr.add_lemma(&[]);
        }
    }

    /// Creates a solver with default heuristics.
    pub fn new() -> Self {
        Self::with_config(SatConfig::default())
    }

    /// Ensures variables `1..=n` (DIMACS numbering) exist.
    pub fn reserve_vars(&mut self, n: u32) {
        while self.assigns.len() < n as usize {
            let v = self.assigns.len() as u32;
            self.assigns.push(UNDEF);
            self.polarity.push(false);
            self.activity.push(0.0);
            self.reason.push(NO_REASON);
            self.level.push(0);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.heap_pos.push(-1);
            self.heap_insert(v);
        }
    }

    /// Adds a clause in DIMACS literals. Returns `false` if the formula
    /// became trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: &[i32]) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        // Log the clause exactly as given: the checker does its own
        // normalization, and the original clause (not the level-0
        // simplified one) is the actual axiom.
        if let Some(pr) = self.proof.as_mut() {
            pr.add_input(lits);
        }
        let max_var = lits.iter().map(|l| l.unsigned_abs()).max().unwrap_or(0);
        self.reserve_vars(max_var);
        let mut ls: Vec<u32> = lits.iter().map(|&l| lit_from_dimacs(l)).collect();
        ls.sort_unstable();
        ls.dedup();
        // Tautology and level-0 simplification.
        let mut out: Vec<u32> = Vec::with_capacity(ls.len());
        for &l in &ls {
            if ls.binary_search(&lit_neg(l)).is_ok() {
                return true; // tautology
            }
            match self.value_lit(l) {
                TRUE => return true,
                FALSE => {}
                _ => out.push(l),
            }
        }
        // When level-0-false literals were stripped, the attached form
        // differs from the logged input. Log the stripped form as a
        // lemma too (RUP: the falsifying facts are unit-propagable from
        // the active set), so that a later deletion — which logs the
        // attached literals — retires this copy in the checker rather
        // than mis-matching the original input clause.
        if out.len() < ls.len() && !out.is_empty() {
            let stripped: Vec<i32> = out.iter().map(|&l| lit_to_dimacs(l)).collect();
            if let Some(pr) = self.proof.as_mut() {
                pr.add_lemma(&stripped);
            }
        }
        match out.len() {
            0 => {
                self.proof_log_empty();
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], NO_REASON);
                if self.propagate().is_some() {
                    self.proof_log_empty();
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(out, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<u32>, learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        self.watches[lit_neg(lits[0]) as usize].push(Watch {
            cref,
            blocker: lits[1],
        });
        self.watches[lit_neg(lits[1]) as usize].push(Watch {
            cref,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
            lbd,
        });
        cref
    }

    #[inline]
    fn value_lit(&self, l: u32) -> u8 {
        let a = self.assigns[lit_var(l)];
        if a == UNDEF {
            UNDEF
        } else if lit_sign(l) {
            a ^ 1
        } else {
            a
        }
    }

    #[inline]
    fn enqueue(&mut self, l: u32, reason: u32) {
        debug_assert_eq!(self.value_lit(l), UNDEF);
        let v = lit_var(l);
        self.assigns[v] = if lit_sign(l) { FALSE } else { TRUE };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        if self.config.phase_saving {
            self.polarity[v] = !lit_sign(l);
        }
        self.trail.push(l);
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns a conflicting clause reference if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p as usize]);
            let mut conflict: Option<u32> = None;
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Blocker shortcut.
                if self.value_lit(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                // The false literal must be at position 1.
                {
                    let c = &mut self.clauses[cref];
                    if c.lits[0] == lit_neg(p) {
                        c.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.value_lit(first) == TRUE {
                    ws[j] = Watch {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref].lits[k];
                    if self.value_lit(lk) != FALSE {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[lit_neg(lk) as usize].push(Watch {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = Watch {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == FALSE {
                    // Conflict: copy remaining watches back and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    conflict = Some(w.cref);
                } else {
                    self.enqueue(first, w.cref);
                }
            }
            ws.truncate(j);
            self.watches[p as usize] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v] >= 0 {
            self.heap_sift_up(self.heap_pos[v] as usize);
        }
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal block distance: the number of distinct decision levels
    /// among a clause's (currently assigned) literals.
    fn clause_lbd(&mut self, lits: &[u32]) -> u32 {
        self.lbd_stamp += 1;
        let stamp = self.lbd_stamp;
        let mut glue = 0u32;
        for &l in lits {
            let lvl = self.level[lit_var(l)] as usize;
            if self.lbd_seen.len() <= lvl {
                self.lbd_seen.resize(lvl + 1, 0);
            }
            if self.lbd_seen[lvl] != stamp {
                self.lbd_seen[lvl] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first), the backjump level, and the clause's LBD.
    fn analyze(&mut self, mut confl: u32) -> (Vec<u32>, u32, u32) {
        let mut learnt: Vec<u32> = vec![0]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<u32> = None;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(confl);
            let lits = self.clauses[confl as usize].lits.clone();
            // A learnt clause re-used in analysis gets its glue refreshed
            // (downward only), Glucose-style: clauses that keep proving
            // useful at low glue are the ones reduction should protect.
            if self.clauses[confl as usize].learnt {
                let glue = self.clause_lbd(&lits);
                let c = &mut self.clauses[confl as usize];
                if glue < c.lbd {
                    c.lbd = glue;
                }
            }
            for &q in &lits {
                // Skip the literal being resolved on (by value, so the
                // watched-literal positions are never disturbed).
                if Some(q) == p {
                    continue;
                }
                let v = lit_var(q);
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[lit_var(l)] {
                    p = Some(l);
                    break;
                }
            }
            let pv = lit_var(p.unwrap());
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = lit_neg(p.unwrap());
                break;
            }
            confl = self.reason[pv];
            debug_assert_ne!(confl, NO_REASON);
        }
        // Clause minimization: drop literals implied by the rest.
        let keep: Vec<u32> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.literal_redundant(l))
            .collect();
        let mut minimized = vec![learnt[0]];
        minimized.extend(keep);
        // Clear seen flags.
        for &l in &learnt {
            self.seen[lit_var(l)] = false;
        }
        // Backjump level: highest level among the non-asserting literals.
        let mut bt = 0;
        if minimized.len() > 1 {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[lit_var(minimized[i])] > self.level[lit_var(minimized[max_i])] {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            bt = self.level[lit_var(minimized[1])];
        }
        let lbd = self.clause_lbd(&minimized);
        (minimized, bt, lbd)
    }

    /// A literal is redundant if its reason clause's literals are all
    /// already in the learnt clause (seen) or assigned at level 0.
    fn literal_redundant(&self, l: u32) -> bool {
        let v = lit_var(l);
        let r = self.reason[v];
        if r == NO_REASON {
            return false;
        }
        self.clauses[r as usize].lits.iter().all(|&q| {
            let qv = lit_var(q);
            qv == v || self.seen[qv] || self.level[qv] == 0
        })
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in lim..self.trail.len() {
            let v = lit_var(self.trail[i]);
            debug_assert!(self.level[v] > level, "trail out of level order");
            self.assigns[v] = UNDEF;
            self.reason[v] = NO_REASON;
            if self.heap_pos[v] < 0 {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v as usize] == UNDEF {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let l = if self.polarity[v as usize] {
                    v * 2
                } else {
                    v * 2 + 1
                };
                self.enqueue(l, NO_REASON);
                return true;
            }
        }
        false
    }

    /// Marks a clause deleted, logging the deletion to the proof stream.
    fn delete_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        debug_assert!(!c.deleted);
        c.deleted = true;
        if let Some(pr) = self.proof.as_mut() {
            let lits: Vec<i32> = self.clauses[cref as usize]
                .lits
                .iter()
                .map(|&l| lit_to_dimacs(l))
                .collect();
            pr.delete(&lits);
        }
    }

    /// Rebuilds every watch list from the (non-deleted) clause arena.
    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for cref in 0..self.clauses.len() as u32 {
            let c = &self.clauses[cref as usize];
            if c.deleted {
                continue;
            }
            let (l0, l1) = (c.lits[0], c.lits[1]);
            self.watches[lit_neg(l0) as usize].push(Watch { cref, blocker: l1 });
            self.watches[lit_neg(l1) as usize].push(Watch { cref, blocker: l0 });
        }
    }

    fn reduce_db(&mut self) {
        self.stats.db_reductions += 1;
        let mut learnt_refs: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| {
                let c = &self.clauses[i as usize];
                // Binary and low-glue ("glue clauses" proper) learnt
                // clauses are always kept.
                c.learnt && !c.deleted && c.lits.len() > 2 && c.lbd > 2
            })
            .collect();
        // Worst candidates first: highest glue, then least active.
        learnt_refs.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let locked: Vec<bool> = (0..self.clauses.len() as u32)
            .map(|cref| {
                self.clauses[cref as usize]
                    .lits
                    .first()
                    .map(|&l| self.value_lit(l) == TRUE && self.reason[lit_var(l)] == cref)
                    .unwrap_or(false)
            })
            .collect();
        let half = learnt_refs.len() / 2;
        let mut removed = 0u64;
        for &cref in &learnt_refs[..half] {
            if !locked[cref as usize] {
                self.delete_clause(cref);
                removed += 1;
            }
        }
        self.stats.learnts_removed += removed;
        if removed == 0 {
            return;
        }
        self.rebuild_watches();
    }

    /// Root-level garbage collection: removes every clause satisfied by
    /// the level-0 trail (with a DRAT `delete` record each) and compacts
    /// the clause arena, dropping tombstones left by earlier reductions.
    /// This is the scope-GC hook — after the SMT layer retires a scope's
    /// activation literal with a unit `¬act`, every clause guarded by
    /// that scope is satisfied at level 0 and reclaimed here. Returns the
    /// number of satisfied clauses deleted.
    ///
    /// Must be called at decision level 0. Safe to call between `solve*`
    /// calls: level-0 reasons are never dereferenced (conflict analysis
    /// stops at level 0), so they are cleared and the arena is free to
    /// move.
    pub fn simplify(&mut self) -> u64 {
        if !self.ok {
            return 0;
        }
        debug_assert_eq!(self.decision_level(), 0, "simplify above level 0");
        if self.qhead < self.trail.len() && self.propagate().is_some() {
            self.proof_log_empty();
            self.ok = false;
            return 0;
        }
        // Level-0 facts derived by propagation exist only through their
        // reason clauses, which are satisfied at level 0 and about to be
        // deleted. Preserve each new fact as a unit lemma (trivially RUP:
        // the checker's propagation re-derives it from the still-active
        // reason chain) before the chain is torn down. Facts enqueued
        // with no reason are already units in the stream.
        for i in self.units_logged..self.trail.len() {
            let l = self.trail[i];
            if self.reason[lit_var(l)] == NO_REASON {
                continue;
            }
            let d = lit_to_dimacs(l);
            if let Some(pr) = self.proof.as_mut() {
                pr.add_lemma(&[d]);
            }
        }
        self.units_logged = self.trail.len();
        for &l in &self.trail {
            self.reason[lit_var(l)] = NO_REASON;
        }
        let old = std::mem::take(&mut self.clauses);
        let mut kept: Vec<Clause> = Vec::with_capacity(old.len());
        let mut removed = 0u64;
        let mut pending_deletes: Vec<Vec<i32>> = Vec::new();
        for c in old {
            if c.deleted {
                continue; // tombstone: already logged at deletion time
            }
            if c.lits.iter().any(|&l| self.value_lit(l) == TRUE) {
                removed += 1;
                if self.proof.is_some() {
                    pending_deletes.push(c.lits.iter().map(|&l| lit_to_dimacs(l)).collect());
                }
                continue;
            }
            kept.push(c);
        }
        if let Some(pr) = self.proof.as_mut() {
            for lits in &pending_deletes {
                pr.delete(lits);
            }
        }
        self.clauses = kept;
        self.rebuild_watches();
        self.stats.gc_clauses += removed;
        removed
    }

    /// Root-level inprocessing: garbage-collect satisfied clauses, then
    /// run bounded subsumption / self-subsuming resolution and
    /// failed-literal probing. All derived facts are DRAT-logged in
    /// derivation order, so proofs stay checkable.
    fn inprocess(&mut self) {
        self.simplify();
        if !self.ok {
            return;
        }
        self.subsume_pass();
        if !self.ok {
            return;
        }
        self.probe_pass();
    }

    /// Bounded backward subsumption and self-subsuming resolution
    /// (SatELite-style): for each small clause `C`, scan the occurrence
    /// list of its rarest literal for clauses `D` that `C` subsumes
    /// outright (delete `D`) or subsumes modulo one flipped literal
    /// (strengthen `D` by resolving that literal away). The strengthened
    /// clause is RUP from `C` and `D`, so it is logged as a lemma before
    /// `D`'s deletion.
    fn subsume_pass(&mut self) {
        const SUBSUMER_MAX_LEN: usize = 16;
        // Literal-visit budget: keeps the pass linear-ish on the big
        // bit-blasted instances.
        let mut budget: u64 = 2_000_000;
        // Occurrence lists are per *variable* (either polarity), so a
        // scan finds both subsumption and self-subsumption partners.
        let nvars = self.assigns.len();
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); nvars];
        let mut sig: Vec<u64> = Vec::with_capacity(self.clauses.len());
        for (i, c) in self.clauses.iter().enumerate() {
            let mut s = 0u64;
            if !c.deleted {
                for &l in &c.lits {
                    occ[lit_var(l)].push(i as u32);
                    s |= 1u64 << (lit_var(l) % 64);
                }
            }
            sig.push(s);
        }
        let mut mark: Vec<u8> = vec![0; self.watches.len()];
        let mut pending_units: Vec<u32> = Vec::new();
        let n = self.clauses.len();
        'subsumers: for i in 0..n {
            if budget == 0 {
                break;
            }
            let c = &self.clauses[i];
            if c.deleted || c.lits.len() > SUBSUMER_MAX_LEN {
                continue;
            }
            let clits = c.lits.clone();
            let csig = sig[i];
            let pv = lit_var(
                *clits
                    .iter()
                    .min_by_key(|&&l| occ[lit_var(l)].len())
                    .unwrap(),
            );
            // Indexed: the body deletes clauses through `&mut self`, so
            // holding an iterator over `occ[pv]` would alias the borrow.
            #[allow(clippy::needless_range_loop)]
            for idx in 0..occ[pv].len() {
                if budget == 0 {
                    continue 'subsumers;
                }
                let d = occ[pv][idx] as usize;
                if d == i {
                    continue;
                }
                let dc = &self.clauses[d];
                if dc.deleted || dc.lits.len() < clits.len() || csig & !sig[d] != 0 {
                    continue;
                }
                budget = budget.saturating_sub(dc.lits.len() as u64 + clits.len() as u64);
                for &l in &dc.lits {
                    mark[l as usize] = 1;
                }
                // Does C subsume D, possibly modulo one flipped literal?
                let mut flipped: Option<u32> = None;
                let mut ok = true;
                for &l in &clits {
                    if mark[l as usize] == 1 {
                        continue;
                    }
                    if mark[lit_neg(l) as usize] == 1 && flipped.is_none() {
                        flipped = Some(l);
                    } else {
                        ok = false;
                        break;
                    }
                }
                for &l in &self.clauses[d].lits {
                    mark[l as usize] = 0;
                }
                if !ok {
                    continue;
                }
                match flipped {
                    None => {
                        self.delete_clause(d as u32);
                        self.stats.subsumed += 1;
                    }
                    Some(l) => {
                        // Self-subsuming resolution: D := D \ {¬l}.
                        let nl = lit_neg(l);
                        let new_lits: Vec<u32> = self.clauses[d]
                            .lits
                            .iter()
                            .copied()
                            .filter(|&q| q != nl)
                            .collect();
                        if let Some(pr) = self.proof.as_mut() {
                            let lemma: Vec<i32> =
                                new_lits.iter().map(|&q| lit_to_dimacs(q)).collect();
                            pr.add_lemma(&lemma);
                        }
                        let learnt = self.clauses[d].learnt;
                        let activity = self.clauses[d].activity;
                        let lbd = self.clauses[d].lbd.min(new_lits.len() as u32);
                        self.delete_clause(d as u32);
                        self.stats.strengthened += 1;
                        if new_lits.len() == 1 {
                            // Enqueued after the watch rebuild below, so
                            // propagation never runs over stale watches.
                            pending_units.push(new_lits[0]);
                        } else {
                            let cref = self.attach_clause(new_lits, learnt, lbd);
                            self.clauses[cref as usize].activity = activity;
                            sig.push(sig[d]);
                        }
                    }
                }
            }
        }
        // Deletions and additions above invalidated the watch lists
        // (attach pushed watches while deleted clauses kept theirs):
        // rebuild, then flush any strengthened-to-unit facts.
        self.rebuild_watches();
        for u in pending_units {
            match self.value_lit(u) {
                TRUE => {}
                FALSE => {
                    self.proof_log_empty();
                    self.ok = false;
                    return;
                }
                _ => self.enqueue(u, NO_REASON),
            }
        }
        if self.propagate().is_some() {
            self.proof_log_empty();
            self.ok = false;
        }
    }

    /// Bounded failed-literal probing at the root: assume a candidate
    /// literal, propagate, and if that conflicts, learn its negation as a
    /// unit (which is RUP: asserting the literal unit-propagates to the
    /// observed conflict). Candidates are literals occurring in binary
    /// clauses, where a probe actually propagates something.
    fn probe_pass(&mut self) {
        const PROBE_MAX: usize = 256;
        const PROP_BUDGET: u64 = 200_000;
        debug_assert_eq!(self.decision_level(), 0);
        let mut cand: Vec<u32> = Vec::new();
        let mut cand_seen: Vec<bool> = vec![false; self.watches.len()];
        'collect: for c in &self.clauses {
            if c.deleted || c.lits.len() != 2 {
                continue;
            }
            for &l in &c.lits {
                // Probe the negation: falsifying one side of a binary
                // clause is guaranteed to propagate the other.
                let probe = lit_neg(l);
                if !cand_seen[probe as usize] {
                    cand_seen[probe as usize] = true;
                    cand.push(probe);
                    if cand.len() >= PROBE_MAX {
                        break 'collect;
                    }
                }
            }
        }
        // Probes must not disturb saved phases: a probe assignment says
        // nothing about where a solution lies.
        let saved_phase_saving = self.config.phase_saving;
        self.config.phase_saving = false;
        let prop_floor = self.stats.propagations;
        for p in cand {
            if self.stats.propagations - prop_floor > PROP_BUDGET {
                break;
            }
            if self.value_lit(p) != UNDEF {
                continue;
            }
            self.stats.probed_literals += 1;
            self.trail_lim.push(self.trail.len());
            self.enqueue(p, NO_REASON);
            let confl = self.propagate();
            self.backtrack_to(0);
            if confl.is_some() {
                if let Some(pr) = self.proof.as_mut() {
                    pr.add_lemma(&[lit_to_dimacs(lit_neg(p))]);
                }
                self.stats.probe_units += 1;
                self.enqueue(lit_neg(p), NO_REASON);
                if self.propagate().is_some() {
                    self.proof_log_empty();
                    self.ok = false;
                    break;
                }
            }
        }
        self.config.phase_saving = saved_phase_saving;
    }

    /// Runs the CDCL loop with no assumptions.
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_with_assumptions(&[])
    }

    /// Runs the CDCL loop under the given assumption literals (DIMACS
    /// numbering). The assumptions act as pseudo-decisions below all real
    /// decisions, so every learnt clause is implied by the clause database
    /// alone and remains valid for later calls with *different*
    /// assumptions. The solver always returns at decision level 0, so
    /// [`SatSolver::add_clause`] and further `solve*` calls may follow any
    /// answer; learnt clauses, activities, and phases are retained.
    ///
    /// On `Sat`, the model is read via [`SatSolver::model_value`]. On
    /// `Unsat` caused by the assumptions, the responsible subset is
    /// available from [`SatSolver::failed_assumptions`]; an empty failed
    /// set means the clauses are unsatisfiable regardless of assumptions
    /// (and the solver is permanently `Unsat` from then on).
    pub fn solve_with_assumptions(&mut self, assumptions: &[i32]) -> SatOutcome {
        self.conflict.clear();
        if !self.ok {
            return SatOutcome::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0, "solve above level 0");
        let max_var = assumptions
            .iter()
            .map(|l| l.unsigned_abs())
            .max()
            .unwrap_or(0);
        self.reserve_vars(max_var);
        let assumps: Vec<u32> = assumptions.iter().map(|&l| lit_from_dimacs(l)).collect();
        if self.propagate().is_some() {
            self.proof_log_empty();
            self.ok = false;
            return SatOutcome::Unsat;
        }
        if self.config.inprocessing && self.clauses.len() >= self.inprocess_at {
            self.inprocess();
            if !self.ok {
                return SatOutcome::Unsat;
            }
            self.inprocess_at = self.clauses.len() + (self.clauses.len() / 4).max(1000);
        }
        let mut restart_round: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        // The conflict budget is per call, so a long-lived incremental
        // solver is not starved by its own history.
        let conflict_floor = self.stats.conflicts;
        // Wall-clock deadline. Without one the clock is never read.
        let deadline = self
            .config
            .max_solve_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        loop {
            // The deadline is checked per loop round, not per conflict: a
            // conflict-light instance can sink arbitrary time into the
            // decide/propagate path without ever reaching the conflict
            // branch. One round is at least one `propagate` call, so a
            // clock read per round is noise.
            if let Some(deadline) = deadline {
                if std::time::Instant::now() >= deadline {
                    self.backtrack_to(0);
                    return SatOutcome::Unknown;
                }
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if let Some(budget) = self.config.max_conflicts {
                    if self.stats.conflicts - conflict_floor > budget {
                        self.backtrack_to(0);
                        return SatOutcome::Unknown;
                    }
                }
                debug_assert!(
                    self.clauses[confl as usize]
                        .lits
                        .iter()
                        .any(|&l| self.level[lit_var(l)] == self.decision_level()),
                    "conflict below the current decision level"
                );
                if self.decision_level() == 0 {
                    self.proof_log_empty();
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let (learnt, bt, lbd) = self.analyze(confl);
                if let Some(pr) = self.proof.as_mut() {
                    let lemma: Vec<i32> = learnt.iter().map(|&l| lit_to_dimacs(l)).collect();
                    pr.add_lemma(&lemma);
                }
                self.backtrack_to(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_clause(learnt, true, lbd);
                    self.bump_clause(cref);
                    self.enqueue(asserting, cref);
                }
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= CLAUSE_DECAY;
            } else {
                // No conflict.
                if self.config.restarts
                    && conflicts_since_restart >= luby(restart_round) * self.config.restart_base
                {
                    restart_round += 1;
                    conflicts_since_restart = 0;
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                }
                // Glucose-style schedule: reductions come on a conflict
                // count that persists across solve calls, each one pushing
                // the next further out — an incremental solver keeps
                // shedding clauses instead of hoarding its history.
                let due =
                    self.config.reduce_base + self.config.reduce_incr * self.stats.db_reductions;
                if self.stats.conflicts - self.conflicts_at_reduce >= due {
                    self.conflicts_at_reduce = self.stats.conflicts;
                    self.reduce_db();
                }
                match self.pick_branch(&assumps) {
                    Branch::Decided => {}
                    Branch::AssumptionFailed(p) => {
                        self.analyze_final(p);
                        // Conclude the proof with the negation of the
                        // failed-assumption set: it is derivable by unit
                        // propagation from the clauses alone, and it is
                        // exactly what this `Unsat` answer claims. (With
                        // contradictory duplicate assumptions it is a
                        // tautology, which the checker accepts as such.)
                        if let Some(pr) = self.proof.as_mut() {
                            let lemma: Vec<i32> = self.conflict.iter().map(|&l| -l).collect();
                            pr.add_lemma(&lemma);
                        }
                        self.backtrack_to(0);
                        return SatOutcome::Unsat;
                    }
                    Branch::AllAssigned => {
                        self.model.clear();
                        self.model.extend_from_slice(&self.assigns);
                        self.backtrack_to(0);
                        return SatOutcome::Sat;
                    }
                }
            }
        }
    }

    /// The next branch: pending assumptions first (MiniSat-style — an
    /// already-true assumption opens an empty pseudo-level so later
    /// backjumps never skip it), then the activity heap.
    fn pick_branch(&mut self, assumps: &[u32]) -> Branch {
        while (self.decision_level() as usize) < assumps.len() {
            let p = assumps[self.decision_level() as usize];
            match self.value_lit(p) {
                TRUE => self.trail_lim.push(self.trail.len()),
                FALSE => return Branch::AssumptionFailed(p),
                _ => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.enqueue(p, NO_REASON);
                    return Branch::Decided;
                }
            }
        }
        if self.decide() {
            Branch::Decided
        } else {
            Branch::AllAssigned
        }
    }

    /// Final-conflict analysis: starting from a falsified assumption `p`,
    /// walks the implication graph backwards and collects the assumption
    /// decisions that contributed, yielding the failed-assumption set
    /// (every decision on the trail is an assumption when this runs).
    fn analyze_final(&mut self, p: u32) {
        self.conflict.push(lit_to_dimacs(p));
        if self.decision_level() == 0 {
            // `p` is refuted by the clauses alone; it fails on its own.
            return;
        }
        self.seen[lit_var(p)] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = lit_var(l);
            if !self.seen[v] {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                debug_assert!(self.level[v] > 0);
                self.conflict.push(lit_to_dimacs(l));
            } else {
                let lits = self.clauses[r as usize].lits.clone();
                for &q in &lits {
                    let qv = lit_var(q);
                    if qv != v && self.level[qv] > 0 {
                        self.seen[qv] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[lit_var(p)] = false;
    }

    /// The subset of the assumptions responsible for the last
    /// assumption-driven `Unsat` (DIMACS literals, unspecified order).
    /// Empty after an unconditional `Unsat`.
    pub fn failed_assumptions(&self) -> &[i32] {
        &self.conflict
    }

    /// Model value of DIMACS variable `v` after a `Sat` answer.
    pub fn model_value(&self, v: u32) -> bool {
        debug_assert!(v >= 1);
        self.model
            .get((v - 1) as usize)
            .map(|&a| a == TRUE)
            .unwrap_or(false)
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> u32 {
        self.assigns.len() as u32
    }

    /// Clauses currently attached (original problem clauses plus learnt,
    /// excluding deleted ones).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Learnt clauses currently in the database.
    pub fn num_learnt_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.learnt && !c.deleted)
            .count()
    }

    /// False once the clause set is unsatisfiable regardless of
    /// assumptions (every later `solve*` call returns `Unsat`).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adjusts the per-call conflict budget of a live solver (used by the
    /// SMT layer's budget escalation on `Unknown`).
    pub fn set_max_conflicts(&mut self, budget: Option<u64>) {
        self.config.max_conflicts = budget;
    }

    // ------------------------------------------------------------------
    // Activity heap (max-heap with position index).
    // ------------------------------------------------------------------

    fn heap_less(&self, a: u32, b: u32) -> bool {
        self.activity[a as usize] > self.activity[b as usize]
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.heap_sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top as usize] = -1;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    fn heap_sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a] as usize] = a as i32;
        self.heap_pos[self.heap[b] as usize] = b as i32;
    }
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
fn luby(i: u64) -> u64 {
    let mut k = 1u32;
    loop {
        if i + 1 == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        if i + 1 < (1 << k) - 1 {
            return luby(i + 1 - (1 << (k - 1)));
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_clauses(clauses: &[&[i32]]) -> SatOutcome {
        let mut s = SatSolver::new();
        for c in clauses {
            if !s.add_clause(c) {
                return SatOutcome::Unsat;
            }
        }
        s.solve()
    }

    #[test]
    fn trivial_sat() {
        assert_eq!(solve_clauses(&[&[1], &[2, 3]]), SatOutcome::Sat);
    }

    #[test]
    fn trivial_unsat() {
        assert_eq!(solve_clauses(&[&[1], &[-1]]), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_clauses() {
        let clauses: &[&[i32]] = &[&[1, 2], &[-1, 3], &[-2, -3], &[2, 3]];
        let mut s = SatSolver::new();
        for c in clauses {
            assert!(s.add_clause(c));
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        for c in clauses {
            assert!(
                c.iter()
                    .any(|&l| s.model_value(l.unsigned_abs()) == (l > 0)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p(i,j): pigeon i in hole j; vars 1..=6 as i*2+j+1.
        let v = |i: i32, j: i32| i * 2 + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-v(a, j), -v(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert_eq!(solve_clauses(&refs), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5i32;
        let m = 4i32;
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
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert_eq!(solve_clauses(&refs), SatOutcome::Unsat);
    }

    #[test]
    fn chain_implication_unsat() {
        // 1 -> 2 -> ... -> 50, assert 1 and -50.
        let mut clauses: Vec<Vec<i32>> = vec![vec![1], vec![-50]];
        for i in 1..50 {
            clauses.push(vec![-i, i + 1]);
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        assert_eq!(solve_clauses(&refs), SatOutcome::Unsat);
    }

    #[test]
    fn luby_sequence() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn assumptions_are_satisfied_by_the_model() {
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[1, 2]));
        assert!(s.add_clause(&[-1, 3]));
        assert_eq!(s.solve_with_assumptions(&[1, -3]), SatOutcome::Unsat);
        // 1 forces 3, contradicting -3: both assumptions are implicated.
        let mut failed = s.failed_assumptions().to_vec();
        failed.sort_unstable();
        assert_eq!(failed, vec![-3, 1]);
        // The same clauses under compatible assumptions are Sat, and the
        // model honours the assumptions.
        assert_eq!(s.solve_with_assumptions(&[-1, 2]), SatOutcome::Sat);
        assert!(!s.model_value(1));
        assert!(s.model_value(2));
        // And with no assumptions the formula is still Sat.
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn failed_assumption_alone_when_refuted_by_clauses() {
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[1]));
        assert!(s.add_clause(&[-1, 2]));
        assert_eq!(s.solve_with_assumptions(&[-2]), SatOutcome::Unsat);
        assert_eq!(s.failed_assumptions(), &[-2]);
        // Not permanently unsat: dropping the assumption recovers Sat.
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.model_value(1) && s.model_value(2));
    }

    #[test]
    fn unconditional_unsat_has_empty_failed_set() {
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[1, 2]));
        assert!(s.add_clause(&[-1]));
        // The last clause empties at level 0: trivially unsat from here.
        assert!(!s.add_clause(&[-2]));
        assert_eq!(s.solve_with_assumptions(&[3]), SatOutcome::Unsat);
        assert!(s.failed_assumptions().is_empty());
        assert!(!s.is_ok());
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn interleaved_add_clause_and_solve_is_stable() {
        // Grow a chain 1 -> 2 -> ... -> n, probing reachability under
        // assumptions between additions; verdicts must match the obvious
        // semantics at every step, and learnt state must never corrupt
        // later answers.
        let mut s = SatSolver::new();
        for i in 1..20i32 {
            assert!(s.add_clause(&[-i, i + 1]));
            // Assume the chain head true and the new tail false: the
            // implications force a contradiction.
            assert_eq!(s.solve_with_assumptions(&[1, -(i + 1)]), SatOutcome::Unsat);
            assert!(!s.failed_assumptions().is_empty());
            // Head false is always satisfiable.
            assert_eq!(s.solve_with_assumptions(&[-1]), SatOutcome::Sat);
            assert!(!s.model_value(1));
            // Head true propagates the whole chain in the model.
            assert_eq!(s.solve_with_assumptions(&[1]), SatOutcome::Sat);
            for j in 1..=i + 1 {
                assert!(s.model_value(j as u32), "chain var {j} after {i} links");
            }
        }
        // Finally pin both ends permanently and flip to unconditional
        // unsat.
        assert!(s.add_clause(&[1]));
        s.add_clause(&[-20]);
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn learnt_clauses_survive_across_calls() {
        // Pigeonhole refutations under an activation literal: the second
        // identical query must reuse learnt clauses and finish with
        // strictly fewer new conflicts than the first.
        let n = 6i32;
        let m = 5i32;
        let act = n * m + 1; // activation literal guarding all clauses
        let v = |i: i32, j: i32| i * m + j + 1;
        let mut s = SatSolver::new();
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
        assert_eq!(s.failed_assumptions(), &[act]);
        let first = s.stats.conflicts;
        assert!(first > 0);
        assert_eq!(s.solve_with_assumptions(&[act]), SatOutcome::Unsat);
        let second = s.stats.conflicts - first;
        assert!(
            second < first,
            "warm call took {second} conflicts vs cold {first}"
        );
        // Deactivated, the formula is satisfiable.
        assert_eq!(s.solve_with_assumptions(&[-act]), SatOutcome::Sat);
    }

    #[test]
    fn duplicate_and_conflicting_assumptions() {
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[1, 2, 3]));
        assert_eq!(s.solve_with_assumptions(&[2, 2]), SatOutcome::Sat);
        assert!(s.model_value(2));
        assert_eq!(s.solve_with_assumptions(&[2, -2]), SatOutcome::Unsat);
        let mut failed = s.failed_assumptions().to_vec();
        failed.sort_unstable();
        assert_eq!(failed, vec![-2, 2]);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance with a tiny budget.
        let n = 8i32;
        let m = 7i32;
        let v = |i: i32, j: i32| i * m + j + 1;
        let mut s = SatSolver::with_config(SatConfig {
            max_conflicts: Some(5),
            ..SatConfig::default()
        });
        for i in 0..n {
            let c: Vec<i32> = (0..m).map(|j| v(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause(&[-v(a, j), -v(b, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }

    /// Pigeonhole clauses guarded by an activation literal.
    fn add_guarded_pigeonhole(s: &mut SatSolver, n: i32, m: i32, act: i32) {
        let v = |i: i32, j: i32| i * m + j + 1;
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
    }

    #[test]
    fn simplify_reclaims_activation_dead_clauses() {
        let n = 6i32;
        let m = 5i32;
        let act = n * m + 1;
        let mut s = SatSolver::new();
        add_guarded_pigeonhole(&mut s, n, m, act);
        let input_clauses = s.num_clauses();
        assert_eq!(s.solve_with_assumptions(&[act]), SatOutcome::Unsat);
        assert!(s.num_learnt_clauses() > 0, "expected learnt clauses");
        // Retire the scope: every clause contains -act and dies with it.
        assert!(s.add_clause(&[-act]));
        let reclaimed = s.simplify();
        assert!(
            reclaimed >= input_clauses as u64,
            "reclaimed {reclaimed} of {input_clauses} input clauses"
        );
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.num_learnt_clauses(), 0);
        assert_eq!(s.stats.gc_clauses, reclaimed);
        // The solver stays fully usable.
        assert!(s.add_clause(&[1, 2]));
        assert_eq!(s.solve(), SatOutcome::Sat);
    }

    #[test]
    fn verdicts_agree_with_restarts_on_and_off() {
        // The same instance must get the same verdicts with and without
        // restarts.
        for restarts in [true, false] {
            let config = SatConfig {
                restarts,
                ..SatConfig::default()
            };
            let mut s = SatSolver::with_config(config.clone());
            add_guarded_pigeonhole(&mut s, 6, 5, 31);
            assert_eq!(
                s.solve_with_assumptions(&[31]),
                SatOutcome::Unsat,
                "{config:?}"
            );
            assert_eq!(s.failed_assumptions(), &[31]);
            assert_eq!(
                s.solve_with_assumptions(&[-31]),
                SatOutcome::Sat,
                "{config:?}"
            );
        }
    }

    #[test]
    fn inprocessing_subsumes_and_strengthens() {
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[1, 2]));
        assert!(s.add_clause(&[1, 2, 3])); // subsumed by [1, 2]
        assert!(s.add_clause(&[-1, 2, 4])); // strengthened to [2, 4]
        assert!(s.add_clause(&[-4, 5]));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.stats.subsumed >= 1, "stats: {:?}", s.stats);
        assert!(s.stats.strengthened >= 1, "stats: {:?}", s.stats);
    }

    #[test]
    fn probing_learns_failed_literals() {
        // Assigning 1 propagates 2, then 3, contradicting [-1, -3]:
        // probing must learn -1. (No pair of these clauses subsumes or
        // strengthens another, so the fact is probing's alone to find.)
        let mut s = SatSolver::new();
        assert!(s.add_clause(&[-1, 2]));
        assert!(s.add_clause(&[-2, 3]));
        assert!(s.add_clause(&[-1, -3]));
        assert!(s.add_clause(&[1, 4, 5]));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.stats.probe_units >= 1, "stats: {:?}", s.stats);
        assert!(!s.model_value(1));
    }

    #[test]
    fn lbd_reduction_fires_on_conflict_schedule() {
        let config = SatConfig {
            reduce_base: 50,
            reduce_incr: 20,
            ..SatConfig::default()
        };
        let mut s = SatSolver::with_config(config);
        add_guarded_pigeonhole(&mut s, 7, 6, 43);
        assert_eq!(s.solve_with_assumptions(&[43]), SatOutcome::Unsat);
        assert!(s.stats.db_reductions > 0, "stats: {:?}", s.stats);
        assert!(s.stats.learnts_removed > 0, "stats: {:?}", s.stats);
        // Reduction must not have damaged soundness.
        assert_eq!(s.solve_with_assumptions(&[-43]), SatOutcome::Sat);
    }

    #[test]
    fn time_budget_reports_unknown() {
        // The deadline is read at the top of every search-loop round, so
        // an already-expired one must surface as `Unknown` on pigeonhole
        // 9-into-8 rather than letting the search run to completion.
        let n = 9i32;
        let m = 8i32;
        let v = |i: i32, j: i32| i * m + j + 1;
        let mut s = SatSolver::with_config(SatConfig {
            max_solve_ms: Some(0),
            ..SatConfig::default()
        });
        for i in 0..n {
            let c: Vec<i32> = (0..m).map(|j| v(i, j)).collect();
            s.add_clause(&c);
        }
        for j in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause(&[-v(a, j), -v(b, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }
}
