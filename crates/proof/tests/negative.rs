//! Hand-corrupted proofs must be rejected, and the error must name the
//! offending step so a failing certification is debuggable.
//!
//! Each test starts from one known-good refutation and applies exactly
//! one corruption: a flipped literal, a dropped step, or a deletion of a
//! clause that was never added. The session tests check a stream in
//! several growing calls, the way the incremental solver does, and
//! corrupt what a later call appends (or what an earlier call consumed):
//! errors must carry indices into the whole stream, and memoized state
//! must never vouch for bytes it did not see.
//!
//! The base formula is chosen so that unit propagation stalls without
//! the lemmas: `{1,2,3}×{1,-2,3}×…` forces `1` only via case splits on
//! `2` and `3`, and symmetrically forces `¬1` via splits on `4` and `5`.
//! (A denser formula like the 3-pigeon/2-hole principle is useless here:
//! it is so propagation-saturated that even a *flipped* unit lemma is
//! still RUP, and the corruption would go undetected.)

use hk_proof::{check_proof, ProofError, ProofSession, ProofWriter};

const INPUTS: [[i32; 3]; 8] = [
    [1, 2, 3],
    [1, 2, -3],
    [1, -2, 3],
    [1, -2, -3],
    [-1, 4, 5],
    [-1, 4, -5],
    [-1, -4, 5],
    [-1, -4, -5],
];

/// The refutation: two case splits derive `1`, two more refute it.
const LEMMAS: [&[i32]; 4] = [&[1, 2], &[1], &[4], &[]];

/// Inputs occupy steps 0..8; lemma `k` (with none dropped) is step 8+k.
const FIRST_LEMMA_STEP: usize = 8;

/// Builds the proof, letting tests tamper with or drop individual lemmas.
fn build(lemma_edit: impl Fn(usize, &mut Vec<i32>), drop_lemma: Option<usize>) -> ProofWriter {
    let mut w = ProofWriter::new();
    for c in &INPUTS {
        w.add_input(c);
    }
    for (k, lemma) in LEMMAS.iter().enumerate() {
        if drop_lemma == Some(k) {
            continue;
        }
        let mut lits = lemma.to_vec();
        lemma_edit(k, &mut lits);
        w.add_lemma(&lits);
    }
    w
}

#[test]
fn untampered_proof_is_accepted() {
    let out = check_proof(build(|_, _| {}, None).bytes()).expect("the baseline proof must check");
    assert!(out.final_clause.is_empty());
    assert_eq!(out.lemmas, 4);
    assert_eq!(out.inputs, 8);
}

#[test]
fn flipped_literal_is_rejected_with_step_index() {
    // Lemma 1 (`[1]`) becomes `[-1]`. Asserting `1` only touches ternary
    // clauses, so nothing propagates and the RUP check must fail — even
    // though the stream still refutes downstream (the final conflict can
    // lean on the corrupted lemma, which is exactly why it must be
    // re-derived, not trusted).
    let w = build(
        |k, lits| {
            if k == 1 {
                lits[0] = -lits[0];
            }
        },
        None,
    );
    match check_proof(w.bytes()) {
        Err(ProofError::LemmaNotImplied { step, clause }) => {
            assert_eq!(step, FIRST_LEMMA_STEP + 1);
            assert_eq!(clause, vec![-1]);
        }
        other => panic!("expected LemmaNotImplied, got {other:?}"),
    }
}

#[test]
fn dropped_step_is_rejected_at_the_first_lemma_that_needed_it() {
    // Drop lemma 0 (`[1, 2]`). Lemma `[1]` relied on it to finish the
    // split on `2`; with one step missing, every later lemma shifts down
    // by one, so the failure lands at the old step of the dropped lemma.
    let w = build(|_, _| {}, Some(0));
    match check_proof(w.bytes()) {
        Err(ProofError::LemmaNotImplied { step, clause }) => {
            assert_eq!(step, FIRST_LEMMA_STEP);
            assert_eq!(clause, vec![1]);
        }
        other => panic!("expected LemmaNotImplied, got {other:?}"),
    }
}

#[test]
fn bogus_deletion_is_rejected_with_step_index() {
    let mut w = build(|_, _| {}, None);
    // Delete a clause that was never added.
    w.delete(&[2, -5, 3]);
    match check_proof(w.bytes()) {
        Err(ProofError::BogusDeletion { step, clause }) => {
            assert_eq!(step, FIRST_LEMMA_STEP + 4);
            assert_eq!(clause, vec![2, -5, 3]);
        }
        other => panic!("expected BogusDeletion, got {other:?}"),
    }
}

#[test]
fn double_deletion_is_rejected_even_though_the_clause_existed() {
    let mut w = build(|_, _| {}, None);
    w.delete(&[1, 2, 3]); // legal: one copy exists
    w.delete(&[3, 2, 1]); // bogus: no copy left (order-insensitive)
    match check_proof(w.bytes()) {
        Err(ProofError::BogusDeletion { step, .. }) => {
            assert_eq!(step, FIRST_LEMMA_STEP + 5);
        }
        other => panic!("expected BogusDeletion, got {other:?}"),
    }
}

#[test]
fn truncated_stream_is_rejected_with_byte_offset() {
    let w = build(|_, _| {}, None);
    let bytes = &w.bytes()[..w.byte_len() - 1];
    match check_proof(bytes) {
        Err(ProofError::Malformed { offset, .. }) => assert!(offset >= bytes.len() - 2),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn corrupted_tag_byte_is_rejected_with_byte_offset() {
    let w = build(|_, _| {}, None);
    let mut bytes = w.bytes().to_vec();
    bytes[0] = 0x7f; // clobber the first tag
    match check_proof(&bytes) {
        Err(ProofError::Malformed { offset, .. }) => assert_eq!(offset, 0),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn errors_render_the_step_index() {
    let e = ProofError::LemmaNotImplied {
        step: 42,
        clause: vec![1, -2],
    };
    assert!(e.to_string().contains("42"));
    let e = ProofError::BogusDeletion {
        step: 7,
        clause: vec![3],
    };
    assert!(e.to_string().contains("7"));
}

// ----------------------------------------------------------------------
// Sessions: one checker across a growing stream.
// ----------------------------------------------------------------------

/// The base inputs followed by `lemmas`.
fn with_lemmas(lemmas: &[&[i32]]) -> ProofWriter {
    let mut w = ProofWriter::new();
    for c in &INPUTS {
        w.add_input(c);
    }
    for l in lemmas {
        w.add_lemma(l);
    }
    w
}

#[test]
fn session_checks_a_growing_stream_like_a_fresh_checker() {
    // Check 1 certifies the unit `[1]`, check 2 the refutation. The
    // second call verifies only what the first did not: `[4]` and the
    // empty clause.
    let mut w = with_lemmas(&[&[1, 2], &[1]]);
    let mut session = ProofSession::new();
    let first = session.check(w.bytes()).expect("check 1");
    assert_eq!(first.final_clause, vec![1]);
    assert_eq!((first.steps, first.lemmas, first.core_lemmas), (10, 2, 2));
    w.add_lemma(&[4]);
    w.add_lemma(&[]);
    let second = session.check(w.bytes()).expect("check 2");
    assert!(second.final_clause.is_empty());
    assert_eq!((second.steps, second.lemmas, second.core_lemmas), (2, 2, 2));
    let fresh = check_proof(w.bytes()).expect("fresh check");
    assert_eq!(fresh.final_clause, second.final_clause);
    assert_eq!(fresh.core_lemmas, first.core_lemmas + second.core_lemmas);
    // Nothing new: the last lemma is already verified.
    let third = session.check(w.bytes()).expect("check 3");
    assert_eq!((third.steps, third.core_lemmas), (0, 0));
    assert!(third.final_clause.is_empty());
}

#[test]
fn lemma_off_the_core_at_check_one_is_rejected_when_check_two_needs_it() {
    // `[-4]` (step 8) is not implied: asserting `4` propagates nothing.
    // Check 1 certifies `[1]` without it, so it goes unchecked. The empty
    // clause appended for check 2 leans on it (`1` and `¬4` falsify the
    // `5` pair), so check 2 must reject it, at its index in the whole
    // stream although check 2 parsed one step.
    let mut w = with_lemmas(&[&[-4], &[1, 2], &[1]]);
    let mut session = ProofSession::new();
    let first = session
        .check(w.bytes())
        .expect("check 1 does not need [-4]");
    assert_eq!(first.final_clause, vec![1]);
    w.add_lemma(&[]);
    let expected = ProofError::LemmaNotImplied {
        step: FIRST_LEMMA_STEP,
        clause: vec![-4],
    };
    assert_eq!(session.check(w.bytes()), Err(expected.clone()));
    assert_eq!(check_proof(w.bytes()), Err(expected.clone()));
    // A rejected stream stays rejected.
    assert_eq!(session.check(w.bytes()), Err(expected));
}

#[test]
fn bogus_deletion_in_an_appended_suffix_reports_its_global_step() {
    let mut w = build(|_, _| {}, None);
    let mut session = ProofSession::new();
    session
        .check(w.bytes())
        .expect("the baseline proof must check");
    w.add_input(&[6, 7]);
    w.delete(&[2, -5, 3]);
    match session.check(w.bytes()) {
        Err(ProofError::BogusDeletion { step, clause }) => {
            assert_eq!(step, FIRST_LEMMA_STEP + 5);
            assert_eq!(clause, vec![2, -5, 3]);
        }
        other => panic!("expected BogusDeletion, got {other:?}"),
    }
}

#[test]
fn malformed_byte_in_an_appended_suffix_reports_its_global_offset() {
    let w = build(|_, _| {}, None);
    let mut session = ProofSession::new();
    session
        .check(w.bytes())
        .expect("the baseline proof must check");
    let mut bytes = w.bytes().to_vec();
    bytes.push(0x7f);
    match session.check(&bytes) {
        Err(ProofError::Malformed { offset, .. }) => assert_eq!(offset, w.byte_len()),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn altered_consumed_prefix_is_an_error_not_a_stale_check() {
    // Check 1 verifies the unit `[1]` (steps 8 and 9). Rewriting that
    // lemma to the non-implied `[-1]` in place and appending a refutation
    // must not be checked against the memo of the old bytes.
    let good = with_lemmas(&[&[1, 2], &[1]]);
    let mut session = ProofSession::new();
    session.check(good.bytes()).expect("check 1");
    let mut w = with_lemmas(&[&[1, 2], &[-1]]);
    w.add_lemma(&[]);
    let offset = good
        .bytes()
        .iter()
        .zip(w.bytes())
        .position(|(a, b)| a != b)
        .expect("the streams differ inside the consumed prefix");
    assert_eq!(
        session.check(w.bytes()),
        Err(ProofError::PrefixChanged { offset })
    );

    // A stream shorter than the consumed prefix is rejected too.
    let mut session = ProofSession::new();
    session.check(good.bytes()).expect("check 1");
    let cut = &good.bytes()[..good.byte_len() - 3];
    assert_eq!(
        session.check(cut),
        Err(ProofError::PrefixChanged { offset: cut.len() })
    );
}

/// A stream where the unit lemma `[11]` is attached before the input
/// `¬10 ∨ 11` that also forces `11` from the earlier `10`, so the lemma
/// is `11`'s reason until the backward walk deactivates it and swaps in
/// the input. The base inputs are gated by `¬11`, so the lemmas checked
/// after the swap (`[1]`, `[1, 2]`) need `11` to stay on the root trail.
fn gated_by_a_unit_lemma(lemma_one: i32) -> ProofWriter {
    let mut w = ProofWriter::new();
    w.add_input(&[10]);
    w.add_lemma(&[1, 2]);
    w.add_lemma(&[lemma_one]);
    w.add_lemma(&[11]);
    w.add_input(&[-10, 11]);
    for c in &INPUTS {
        let mut gated = vec![-11];
        gated.extend_from_slice(c);
        w.add_input(&gated);
    }
    w.add_lemma(&[4]);
    w.add_lemma(&[]);
    w
}

#[test]
fn swapped_reason_keeps_good_proofs_and_rejects_a_flipped_lemma() {
    let out = check_proof(gated_by_a_unit_lemma(1).bytes()).expect("the gated proof must check");
    assert!(out.final_clause.is_empty());
    assert_eq!(out.core_lemmas, 5);
    match check_proof(gated_by_a_unit_lemma(-1).bytes()) {
        Err(ProofError::LemmaNotImplied { step, clause }) => {
            assert_eq!(step, 2);
            assert_eq!(clause, vec![-1]);
        }
        other => panic!("expected LemmaNotImplied, got {other:?}"),
    }
}
