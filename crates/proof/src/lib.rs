//! `hk-proof`: binary-DRAT proof production and independent checking.
//!
//! The verification pipeline's Unsat answers come from our own CDCL
//! solver, so by themselves they are claims, not evidence. This crate
//! closes that gap: the solver emits a compact binary proof stream
//! ([`ProofWriter`]) of every clause it learns, deletes, and concludes
//! with, and a from-scratch **backward** checker ([`check_proof`])
//! re-derives the result with nothing in common with the solver but the
//! clause database. The checker walks the proof backwards from the final
//! lemma, RUP-checking only the lemmas that the refutation actually uses
//! (proof *trimming*), and reports the used core so unsat cores can be
//! shrunk and audited. A [`ProofSession`] keeps the checker alive across
//! a growing stream, so an incremental solver's queries are certified
//! with each lemma checked at most once.
//!
//! The format (see [`fmt`]) extends binary DRAT with an input tag so a
//! single stream can interleave formula growth with derivation — which is
//! what an incremental solver does across `push`/`pop` scopes. Input
//! clauses are axioms at any position; lemmas may only depend on inputs
//! and *earlier* lemmas, which the backward pass enforces structurally.

pub mod fmt;

mod check;
mod parse;
mod writer;

pub use check::{check_proof, CheckOutcome, ProofSession};
pub use parse::{parse_proof, Step, StepKind};
pub use writer::ProofWriter;

/// Why a proof was rejected. Every structural rejection carries the
/// step index (or byte offset) of the first offending construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The byte stream is not well-formed binary DRAT.
    Malformed {
        /// Byte offset of the malformed construct.
        offset: usize,
        /// What went wrong.
        detail: &'static str,
    },
    /// The proof contains no lemma (`a`) step, so there is nothing to
    /// certify.
    NoLemma,
    /// A deletion step names a clause with no active copy in the
    /// database at that point.
    BogusDeletion {
        /// Index of the offending deletion step.
        step: usize,
        /// The clause the step tried to delete.
        clause: Vec<i32>,
    },
    /// A lemma on the proof core is not derivable by unit propagation
    /// from the clauses active at its step.
    LemmaNotImplied {
        /// Index of the offending lemma step.
        step: usize,
        /// The lemma that failed the RUP check.
        clause: Vec<i32>,
    },
    /// A [`ProofSession`] was handed a stream that does not begin with
    /// the bytes its earlier calls consumed.
    PrefixChanged {
        /// First byte offset where the stream differs from the consumed
        /// bytes (the stream's length if it is shorter).
        offset: usize,
    },
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Malformed { offset, detail } => {
                write!(f, "malformed proof at byte {offset}: {detail}")
            }
            ProofError::NoLemma => write!(f, "proof contains no lemma step"),
            ProofError::BogusDeletion { step, clause } => {
                write!(
                    f,
                    "step {step}: deletion of clause {clause:?} not in the database"
                )
            }
            ProofError::LemmaNotImplied { step, clause } => {
                write!(
                    f,
                    "step {step}: lemma {clause:?} is not implied (RUP check failed)"
                )
            }
            ProofError::PrefixChanged { offset } => {
                write!(
                    f,
                    "stream changed at byte {offset}, inside the part an earlier check consumed"
                )
            }
        }
    }
}

impl std::error::Error for ProofError {}
