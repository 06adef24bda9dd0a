//! A from-scratch SMT solver for the fragment Hyperkernel verification
//! needs: quantifier-free fixed-width bit-vectors plus uninterpreted
//! functions (QF_UFBV), decided by Ackermann reduction, Tseitin
//! bit-blasting, and a CDCL SAT core.
//!
//! The paper (§3) deliberately restricts its use of Z3 to an "effectively
//! decidable fragment of first-order logic": quantifier-free formulas over
//! bit-vectors and equality with uninterpreted functions, with quantifiers
//! appearing only in the declarative layer over *finite* resource domains.
//! That fragment is exactly what this crate decides:
//!
//! * [`term`] — hash-consed term DAG with simplifying smart constructors;
//! * [`eval`] — a ground evaluator (used for concrete spec execution, model
//!   validation, and differential testing of the bit-blaster);
//! * [`ackermann`] — uninterpreted-function elimination;
//! * [`bitblast`] — terms to CNF via Tseitin encoding;
//! * [`sat`] — a CDCL SAT solver (watched literals, VSIDS, 1UIP learning,
//!   Luby restarts, phase saving, LBD-driven learnt-clause reduction,
//!   chronological backtracking, root-level GC and inprocessing);
//! * [`model`] — counterexample models, the raw material for the verifier's
//!   test-case generation (paper §2.4);
//! * [`solver`] — the front door tying the pipeline together;
//! * [`cache`] — a content-addressed verification-condition cache so
//!   repeated `verify_all` runs reuse verdicts instead of re-solving;
//! * [`stats`] — the one list of solver counters, and the structs,
//!   merges and JSON generated from it.
//!
//! # Examples
//!
//! ```
//! use hk_smt::{Ctx, Solver, SatResult, Sort};
//!
//! let mut ctx = Ctx::new();
//! let x = ctx.var("x", Sort::Bv(64));
//! let c7 = ctx.bv_const(64, 7);
//! let sum = ctx.bv_add(x, c7);
//! let c9 = ctx.bv_const(64, 9);
//! let eq = ctx.eq(sum, c9);
//!
//! let mut solver = Solver::new();
//! solver.assert(&mut ctx, eq);
//! match solver.check(&mut ctx) {
//!     SatResult::Sat(model) => assert_eq!(model.eval_bv(&ctx, x), Some(2)),
//!     _ => panic!("expected sat"),
//! }
//! ```

#![deny(clippy::needless_pass_by_value)]

pub mod ackermann;
pub mod bitblast;
pub mod cache;
pub mod cnf;
pub mod eval;
pub mod model;
pub mod sat;
pub mod solver;
pub mod stats;
pub mod term;

pub use cache::{CacheStats, CachedVerdict, QueryCache, QueryKey};
pub use model::Model;
pub use sat::{ReduceStrategy, SatConfig, SatSolver};
pub use solver::{SatResult, Solver, SolverConfig};
pub use stats::{SolverStats, Stats};
pub use term::{BvBinOp, CmpOp, Ctx, FuncId, Sort, TermData, TermId, VarId};
