//! Parsing a binary-DRAT stream back into steps.

use crate::fmt::{decode_lit, TAG_ADD, TAG_DELETE, TAG_INPUT};
use crate::ProofError;

/// What a proof step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// An input clause (axiom).
    Input,
    /// A derived clause (RUP-checked when on the core).
    Add,
    /// A clause deletion.
    Delete,
}

/// One decoded proof step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// What the step does.
    pub kind: StepKind,
    /// The clause literals, in stream order (possibly empty).
    pub lits: Vec<i32>,
}

/// Decodes a complete proof stream. Fails with the byte offset of the
/// first malformed construct.
pub fn parse_proof(bytes: &[u8]) -> Result<Vec<Step>, ProofError> {
    let mut steps = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let (step, next) = parse_step(bytes, pos)?;
        steps.push(step);
        pos = next;
    }
    Ok(steps)
}

/// Decodes the step starting at byte `pos` and returns it with the
/// offset just past it. Error offsets index `bytes`, so a caller that
/// parses a suffix in place gets offsets into the whole stream.
pub(crate) fn parse_step(bytes: &[u8], pos: usize) -> Result<(Step, usize), ProofError> {
    let mut lits = Vec::new();
    let (kind, next) = parse_step_into(bytes, pos, &mut lits)?;
    Ok((Step { kind, lits }, next))
}

/// [`parse_step`] into the reused buffer `lits`, which it clears first,
/// returning the step's kind and the offset just past it.
pub(crate) fn parse_step_into(
    bytes: &[u8],
    pos: usize,
    lits: &mut Vec<i32>,
) -> Result<(StepKind, usize), ProofError> {
    let kind = match bytes.get(pos) {
        Some(&TAG_INPUT) => StepKind::Input,
        Some(&TAG_ADD) => StepKind::Add,
        Some(&TAG_DELETE) => StepKind::Delete,
        _ => {
            return Err(ProofError::Malformed {
                offset: pos,
                detail: "unknown step tag",
            })
        }
    };
    let mut pos = pos + 1;
    lits.clear();
    loop {
        let (next, lit) = decode_lit(bytes, pos)
            .map_err(|(offset, detail)| ProofError::Malformed { offset, detail })?;
        pos = next;
        match lit {
            Some(l) => lits.push(l),
            None => return Ok((kind, pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProofWriter;

    #[test]
    fn writer_parser_roundtrip() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, -2, 300]);
        w.add_lemma(&[-1]);
        w.delete(&[1, -2, 300]);
        w.add_lemma(&[]);
        let steps = parse_proof(w.bytes()).expect("parse");
        assert_eq!(steps.len(), 4);
        assert_eq!(w.num_steps(), 4);
        assert_eq!(
            steps[0],
            Step {
                kind: StepKind::Input,
                lits: vec![1, -2, 300]
            }
        );
        assert_eq!(
            steps[1],
            Step {
                kind: StepKind::Add,
                lits: vec![-1]
            }
        );
        assert_eq!(
            steps[2],
            Step {
                kind: StepKind::Delete,
                lits: vec![1, -2, 300]
            }
        );
        assert_eq!(
            steps[3],
            Step {
                kind: StepKind::Add,
                lits: vec![]
            }
        );
    }

    #[test]
    fn unknown_tag_is_rejected_with_offset() {
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        let mut bytes = w.bytes().to_vec();
        let off = bytes.len();
        bytes.push(b'x');
        match parse_proof(&bytes) {
            Err(ProofError::Malformed { offset, .. }) => assert_eq!(offset, off),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn truncated_step_is_rejected() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        let bytes = &w.bytes()[..w.byte_len() - 1]; // drop the terminator
        assert!(matches!(
            parse_proof(bytes),
            Err(ProofError::Malformed { .. })
        ));
    }
}
