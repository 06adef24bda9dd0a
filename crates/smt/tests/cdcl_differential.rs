//! Differential and fuzz testing of the modernized CDCL core, at the
//! `SatSolver` level, on randomized CNF instances (vendored PRNG, fully
//! offline):
//!
//! * **Verdict agreement**: every instance is solved under the
//!   configuration matrix {restarts on/off} x {oneshot, incremental
//!   push/pop via an activation literal}, with clause-DB reduction on an
//!   aggressive schedule, and all verdicts must agree with a reference
//!   run. Sat answers are validated against the clause set; Unsat
//!   answers must certify via the independent `hk_proof::check_proof`.
//! * **Proof integrity under deletion**: randomized incremental
//!   sessions with aggressively scheduled clause-DB reduction, scope
//!   GC, and inprocessing exercise every DRAT `delete` path; the
//!   checker must accept 100% of the generated proofs, and corrupting a
//!   single deletion record must be rejected.
//! * **Session agreement**: every Unsat of an incremental session is
//!   certified through one `hk_proof::ProofSession` kept across the
//!   session, and must match a fresh `check_proof` of the same bytes.
//! * **Pinned search trajectory**: the summed search counters and a
//!   hash of the proof streams of a fixed corpus must equal constants,
//!   so a change meant to leave the search alone (a layout or a speed
//!   change) is shown to make exactly the same decisions.
//! * **Pinned checker outcomes**: over the same corpus, the checker's
//!   summed counts and a hash of its final clauses, from a fresh check
//!   of each stream and from the session fed at every Unsat, must equal
//!   constants, so a change to the checker's layout is shown to check
//!   exactly the same lemmas.

mod common;

use common::XorShift64;
use hk_proof::{check_proof, parse_proof, CheckOutcome, ProofSession, ProofWriter, StepKind};
use hk_smt::sat::SatOutcome;
use hk_smt::{SatConfig, SatSolver};

/// A random CNF instance over `nvars` variables: mostly ternary clauses
/// with some binaries mixed in, around the 3-SAT hardness ratio so both
/// verdicts occur across seeds.
fn random_cnf(rng: &mut XorShift64, nvars: u64, nclauses: u64) -> Vec<Vec<i32>> {
    let mut clauses = Vec::with_capacity(nclauses as usize);
    for _ in 0..nclauses {
        let len = if rng.chance(1, 4) { 2 } else { 3 };
        let mut clause = Vec::with_capacity(len);
        while clause.len() < len {
            let v = rng.below(nvars) as i32 + 1;
            let lit = if rng.chance(1, 2) { v } else { -v };
            if !clause.contains(&lit) && !clause.contains(&-lit) {
                clause.push(lit);
            }
        }
        clauses.push(clause);
    }
    clauses
}

fn model_satisfies(s: &SatSolver, clauses: &[Vec<i32>]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|&l| s.model_value(l.unsigned_abs()) == (l > 0))
    })
}

/// Certifies the stream logged so far through `session` and through a
/// fresh `check_proof` of the same bytes: both must accept, with the same
/// final clause. Returns the session's outcome.
fn certify_in_session(session: &mut ProofSession, s: &SatSolver, case: u64) -> CheckOutcome {
    let bytes = s.proof().expect("proof logging was started").bytes();
    let fresh = check_proof(bytes).unwrap_or_else(|e| panic!("case {case}: proof rejected: {e}"));
    let out = session.check(bytes).unwrap_or_else(|e| {
        panic!("case {case}: session rejected a proof the fresh checker accepts: {e}")
    });
    assert_eq!(
        out.final_clause, fresh.final_clause,
        "case {case}: session and fresh check conclude differently"
    );
    out
}

/// Solves `clauses` oneshot under `config`, certifying any Unsat.
fn solve_oneshot(clauses: &[Vec<i32>], config: SatConfig, case: u64) -> SatOutcome {
    let mut s = SatSolver::with_config(config);
    s.start_proof();
    for c in clauses {
        if !s.add_clause(c) {
            break;
        }
    }
    let out = s.solve();
    match out {
        SatOutcome::Sat => assert!(
            model_satisfies(&s, clauses),
            "case {case}: model does not satisfy the instance"
        ),
        SatOutcome::Unsat => {
            let proof = s.proof().expect("proof logging was started");
            let chk = check_proof(proof.bytes())
                .unwrap_or_else(|e| panic!("case {case}: oneshot proof rejected: {e}"));
            assert!(
                chk.final_clause.is_empty(),
                "case {case}: refutation did not conclude the empty clause"
            );
        }
        SatOutcome::Unknown => panic!("case {case}: unexpected Unknown without a budget"),
    }
    out
}

/// Solves `clauses` inside an activation-guarded scope (the shape the
/// incremental SMT layer produces), then retires the scope with a unit
/// and root-level GC. A prelude scope is opened and popped first so the
/// solve under test runs on a solver that already did scope GC.
fn solve_incremental(clauses: &[Vec<i32>], nvars: u64, config: SatConfig, case: u64) -> SatOutcome {
    let mut s = SatSolver::with_config(config);
    s.start_proof();
    let mut session = ProofSession::new();
    let act0 = nvars as i32 + 1;
    let act1 = nvars as i32 + 2;
    // Prelude scope: half the instance, solved and retired.
    for c in clauses.iter().take(clauses.len() / 2) {
        let mut guarded = vec![-act0];
        guarded.extend_from_slice(c);
        if !s.add_clause(&guarded) {
            break;
        }
    }
    if s.solve_with_assumptions(&[act0]) == SatOutcome::Unsat {
        certify_in_session(&mut session, &s, case);
    }
    s.add_clause(&[-act0]);
    s.simplify();
    // Scope under test: the full instance under a fresh activation var.
    for c in clauses {
        let mut guarded = vec![-act1];
        guarded.extend_from_slice(c);
        if !s.add_clause(&guarded) {
            break;
        }
    }
    let out = s.solve_with_assumptions(&[act1]);
    match out {
        SatOutcome::Sat => assert!(
            model_satisfies(&s, clauses),
            "case {case}: incremental model does not satisfy the instance"
        ),
        SatOutcome::Unsat => {
            let final_clause = certify_in_session(&mut session, &s, case).final_clause;
            assert!(
                final_clause.is_empty() || final_clause == vec![-act1],
                "case {case}: final clause {final_clause:?} proves neither [] nor [{}]",
                -act1
            );
        }
        SatOutcome::Unknown => panic!("case {case}: unexpected Unknown without a budget"),
    }
    out
}

fn matrix_configs() -> Vec<SatConfig> {
    [true, false]
        .into_iter()
        .map(|restarts| SatConfig {
            restarts,
            // Aggressive schedule so reduction actually fires on
            // instances this small.
            reduce_base: 50,
            reduce_incr: 25,
            ..SatConfig::default()
        })
        .collect()
}

#[test]
fn cdcl_config_matrix_agrees_on_random_cnf() {
    let mut rng = XorShift64::new(0x5eed_cdc1);
    let (mut sats, mut unsats) = (0u32, 0u32);
    for case in 0..40u64 {
        let nvars = 15 + rng.below(20);
        let nclauses = (nvars as f64 * 4.2) as u64 + rng.below(10);
        let clauses = random_cnf(&mut rng, nvars, nclauses);
        let reference = solve_oneshot(&clauses, SatConfig::default(), case);
        match reference {
            SatOutcome::Sat => sats += 1,
            SatOutcome::Unsat => unsats += 1,
            SatOutcome::Unknown => unreachable!(),
        }
        for (ci, config) in matrix_configs().into_iter().enumerate() {
            let one = solve_oneshot(&clauses, config.clone(), case);
            assert_eq!(
                one, reference,
                "case {case} config {ci}: oneshot verdict disagrees"
            );
            let inc = solve_incremental(&clauses, nvars, config, case);
            assert_eq!(
                inc, reference,
                "case {case} config {ci}: incremental verdict disagrees"
            );
        }
    }
    // The generator straddles the phase transition; both verdicts must
    // actually be exercised or the matrix proves nothing.
    assert!(sats > 0, "corpus produced no Sat instance");
    assert!(unsats > 0, "corpus produced no Unsat instance");
}

/// One randomized incremental session: several scopes of random CNF,
/// each solved under its activation literal and then retired with scope
/// GC, with DB reduction and inprocessing forced on tiny schedules.
/// Every Unsat is certified in one checker session (and fresh). Returns
/// the solver (for stats and the accumulated proof stream).
fn random_session(seed: u64) -> SatSolver {
    random_session_checks(seed).0
}

/// [`random_session`], with the session's outcome at each Unsat.
fn random_session_checks(seed: u64) -> (SatSolver, Vec<CheckOutcome>) {
    let mut rng = XorShift64::new(seed);
    let mut s = SatSolver::with_config(SatConfig {
        reduce_base: 10,
        reduce_incr: 5,
        ..SatConfig::default()
    });
    s.start_proof();
    let mut session = ProofSession::new();
    let mut checks = Vec::new();
    let nvars = 20 + rng.below(15);
    let scopes = 3 + rng.below(3);
    for scope in 0..scopes {
        let act = (nvars + 1 + scope) as i32;
        let nclauses = (nvars as f64 * 4.0) as u64 + rng.below(20);
        for c in random_cnf(&mut rng, nvars, nclauses) {
            let mut guarded = vec![-act];
            guarded.extend_from_slice(&c);
            if !s.add_clause(&guarded) {
                return (s, checks);
            }
        }
        if s.solve_with_assumptions(&[act]) == SatOutcome::Unsat {
            checks.push(certify_in_session(&mut session, &s, seed));
            if !s.is_ok() {
                // Globally unsat: the stream ends in the empty clause.
                return (s, checks);
            }
        }
        s.add_clause(&[-act]);
        s.simplify();
    }
    (s, checks)
}

#[test]
fn fuzzed_incremental_sessions_produce_checkable_proofs() {
    let mut reductions = 0u64;
    let mut gc = 0u64;
    let mut deletions = 0u64;
    for seed in 1..=25u64 {
        let s = random_session(seed);
        let proof = s.proof().expect("proof logging was started");
        check_proof(proof.bytes())
            .unwrap_or_else(|e| panic!("seed {seed}: checker rejected the session proof: {e}"));
        reductions += s.stats.db_reductions;
        gc += s.stats.gc_clauses;
        let steps = parse_proof(proof.bytes()).expect("stream parses");
        deletions += steps.iter().filter(|t| t.kind == StepKind::Delete).count() as u64;
    }
    // The schedule is tuned so the fuzz corpus actually exercises every
    // deletion path; a silent zero here would make the test vacuous.
    assert!(reductions > 0, "no DB reduction fired across the corpus");
    assert!(gc > 0, "no scope GC fired across the corpus");
    assert!(deletions > 0, "no deletion records were logged");
}

#[test]
fn corrupted_deletion_record_is_rejected() {
    // Find a session whose proof checks and contains a deletion.
    let mut found = None;
    for seed in 1..=25u64 {
        let s = random_session(seed);
        let bytes = s
            .proof()
            .expect("proof logging was started")
            .bytes()
            .to_vec();
        if check_proof(&bytes).is_ok() {
            let steps = parse_proof(&bytes).expect("stream parses");
            if steps.iter().any(|t| t.kind == StepKind::Delete) {
                found = Some(steps);
                break;
            }
        }
    }
    let steps = found.expect("fuzz corpus contains a checkable proof with deletions");
    // Rebuild the stream, retargeting the first deletion at a clause
    // that was never added: the checker must reject the stream rather
    // than silently ignore a deletion it cannot resolve.
    let mut w = ProofWriter::new();
    let mut corrupted = false;
    for step in &steps {
        match step.kind {
            StepKind::Input => w.add_input(&step.lits),
            StepKind::Add => w.add_lemma(&step.lits),
            StepKind::Delete => {
                if corrupted {
                    w.delete(&step.lits);
                } else {
                    corrupted = true;
                    w.delete(&[9001, -9002]);
                }
            }
        }
    }
    assert!(corrupted, "stream lost its deletion records");
    assert!(
        check_proof(w.bytes()).is_err(),
        "checker accepted a deletion of a clause that was never added"
    );
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A larger activation-guarded session: pigeonhole 8 into 7, then two
/// scopes of random 3-CNF over 150 variables (one Sat, one Unsat), each
/// retired with a unit and scope GC. The reduction schedule is shrunk so
/// learnt clauses above the glue cut are actually evicted.
fn large_session() -> SatSolver {
    large_session_checks().0
}

/// [`large_session`], with every Unsat certified in one checker session
/// (and fresh), and the session's outcome at each.
fn large_session_checks() -> (SatSolver, Vec<CheckOutcome>) {
    let mut s = SatSolver::with_config(SatConfig {
        reduce_base: 200,
        reduce_incr: 50,
        ..SatConfig::default()
    });
    s.start_proof();
    let mut session = ProofSession::new();
    let mut checks = Vec::new();
    let (n, m) = (8i32, 7i32);
    let v = |i: i32, j: i32| i * m + j + 1;
    let php_act = n * m + 1;
    for i in 0..n {
        let mut c: Vec<i32> = (0..m).map(|j| v(i, j)).collect();
        c.push(-php_act);
        s.add_clause(&c);
    }
    for j in 0..m {
        for a in 0..n {
            for b in (a + 1)..n {
                s.add_clause(&[-v(a, j), -v(b, j), -php_act]);
            }
        }
    }
    assert_eq!(s.solve_with_assumptions(&[php_act]), SatOutcome::Unsat);
    checks.push(certify_in_session(&mut session, &s, 0));
    s.add_clause(&[-php_act]);
    s.simplify();
    // Random 3-CNF near the threshold ratio (4.26): hard enough at 150
    // variables for thousands of conflicts per scope.
    let mut rng = XorShift64::new(0x3c_f001);
    for scope in 1..=2 {
        let act = php_act + 150 + scope;
        for _ in 0..640 {
            let mut c = vec![-act];
            while c.len() < 4 {
                let v = php_act + 1 + rng.below(150) as i32;
                if !c.iter().any(|&l| l.abs() == v) {
                    c.push(if rng.chance(1, 2) { v } else { -v });
                }
            }
            s.add_clause(&c);
        }
        if s.solve_with_assumptions(&[act]) == SatOutcome::Unsat {
            checks.push(certify_in_session(&mut session, &s, scope as u64));
        }
        s.add_clause(&[-act]);
        s.simplify();
    }
    (s, checks)
}

/// The search path itself, not only its verdicts: the summed counters
/// and the proof streams of `random_session` for seeds 1..=25 plus
/// `large_session` must equal the constants below. A change that means
/// to alter the search (a heuristic, a schedule, literal order inside a
/// clause) updates them and says so; a layout or speed change must not.
#[test]
fn search_trajectory_is_pinned() {
    let mut total = [0u64; 11];
    let mut proof_bytes = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let sessions = (1..=25u64)
        .map(random_session)
        .chain(std::iter::once(large_session()));
    for s in sessions {
        let st = s.stats;
        let counters = [
            st.conflicts,
            st.decisions,
            st.propagations,
            st.restarts,
            st.db_reductions,
            st.learnts_removed,
            st.gc_clauses,
            st.probed_literals,
            st.probe_units,
            st.subsumed,
            st.strengthened,
        ];
        for (t, c) in total.iter_mut().zip(counters) {
            *t += c;
        }
        let bytes = s.proof().expect("proof logging was started").bytes();
        proof_bytes += bytes.len() as u64;
        hash = fnv1a(hash, bytes);
    }
    assert_eq!(
        total,
        [10_655, 13_144, 221_081, 51, 35, 7_468, 15_966, 24, 5, 140, 277],
        "summed [conflicts, decisions, propagations, restarts, db_reductions, \
         learnts_removed, gc_clauses, probed_literals, probe_units, subsumed, strengthened]"
    );
    assert_eq!(proof_bytes, 593_802, "total proof bytes");
    assert_eq!(hash, 0xd88a_fa65_ce78_a61e, "FNV-1a of the proof streams");
}

/// Summed checker counts over a run of checks, and an FNV-1a hash of
/// their final clauses in order.
struct CheckTotals {
    /// `[steps, lemmas, deletions, core_lemmas, core_inputs]`.
    counts: [usize; 5],
    final_clauses: u64,
}

impl CheckTotals {
    fn new() -> Self {
        CheckTotals {
            counts: [0; 5],
            final_clauses: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn add(&mut self, out: &CheckOutcome) {
        let counts = [
            out.steps,
            out.lemmas,
            out.deletions,
            out.core_lemmas,
            out.core_inputs,
        ];
        for (t, c) in self.counts.iter_mut().zip(counts) {
            *t += c;
        }
        let len = out.final_clause.len() as u32;
        self.final_clauses = fnv1a(self.final_clauses, &len.to_le_bytes());
        for l in &out.final_clause {
            self.final_clauses = fnv1a(self.final_clauses, &l.to_le_bytes());
        }
    }
}

/// The checker's work, not only its verdicts: over the corpus of
/// `search_trajectory_is_pinned`, the summed counts and final clauses of
/// (a) a fresh `check_proof` of each session's final stream and (b) the
/// one `ProofSession` each session fed at every Unsat must equal the
/// constants below. A change to the checker's data layout must leave
/// them alone: it checks the same lemmas and reaches the same cores.
#[test]
fn checker_outcome_is_pinned() {
    let mut fresh = CheckTotals::new();
    let mut session = CheckTotals::new();
    let sessions = (1..=25u64)
        .map(random_session_checks)
        .chain(std::iter::once(large_session_checks()));
    for (s, checks) in sessions {
        let bytes = s.proof().expect("proof logging was started").bytes();
        fresh.add(&check_proof(bytes).expect("final stream checks"));
        for out in &checks {
            session.add(out);
        }
    }
    let fields = "summed [steps, lemmas, deletions, core_lemmas, core_inputs]";
    assert_eq!(
        fresh.counts,
        [48_006, 11_037, 23_851, 51, 26],
        "fresh checks: {fields}"
    );
    assert_eq!(
        fresh.final_clauses, 0x0691_881e_1594_6bda,
        "fresh checks: FNV-1a of the final clauses"
    );
    assert_eq!(
        session.counts,
        [43_143, 11_036, 19_096, 9_121, 2_434],
        "session checks: {fields}"
    );
    assert_eq!(
        session.final_clauses, 0xbb93_6e98_9c00_1eaa,
        "session checks: FNV-1a of the final clauses"
    );
}
