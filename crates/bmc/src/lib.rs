//! Bounded model checking of the trusted substrate (the "residue").
//!
//! Hyperkernel's push-button verification covers the finite syscall
//! interface, but the machine substrate the proofs stand on — hk-vm's
//! page walker, TLB, and IOMMU, and hk-user's journaling file system —
//! was only sampled by concrete tests. This crate closes that gap with
//! Kani-style *harnesses*: bounded proof obligations that lift small
//! symbolic state into hk-smt terms, mirror the real Rust code as term
//! circuits, and discharge the properties through the same incremental
//! CDCL solver stack as the kernel proofs, with every Unsat
//! optionally re-derived by the independent DRAT checker.
//!
//! Four harness families ship here:
//!
//! * [`paging`] — the 4-level walk agrees with a clean-room spec,
//!   permissions compose monotonically, no walk arithmetic overflows,
//!   and `split_va`/`join_va` round-trip;
//! * [`tlb`] — walk-after-flush equals walk-from-scratch for all
//!   symbolic probes under bounded fill/evict traces;
//! * [`iommu`] — device translations never leave the DMA region and
//!   only resolve frames some device-table entry grants;
//! * [`fslog`] — for every crash point inside a bounded commit,
//!   recovery yields the pre- or post-commit disk, never a torn one.
//!
//! The encodings themselves are validated two ways: negative fixtures
//! ([`harness::SeededBug`]) plant classic defects that each harness
//! must catch with a concrete counterexample, and the differential
//! fuzz bridge (in `tests/`) executes randomized concrete states both
//! natively and through the symbolic models, asserting agreement.

pub mod fslog;
pub mod harness;
pub mod iommu;
pub mod model;
pub mod paging;
pub mod tlb;

pub use harness::{
    harnesses, run_all, BmcConfig, BmcOutcome, HarnessDef, HarnessReport, Prover, SeededBug, Tier,
};
