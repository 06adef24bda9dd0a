//! Harness registry, bound knobs, budgets, and the certified prover.
//!
//! A harness is a named bounded proof obligation over one of the
//! substrate models. Each harness builds its symbolic model at the
//! bounds of the configured [`Tier`], discharges the property through
//! one incremental [`hk_smt::Solver`] (negation asserted in a scope,
//! `Unsat` expected), and reports per-harness solver statistics. With
//! [`BmcConfig::certify`] every `Unsat` is re-derived by the
//! independent DRAT checker, exactly as for the syscall handlers.

use std::time::{Duration, Instant};

use hk_abi::KernelParams;
use hk_smt::{Ctx, Model, SatResult, Solver, SolverConfig, TermId};

/// Bound tier: how big the symbolic state is allowed to get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// CI-sized bounds: seconds per harness.
    Fast,
    /// Nightly bounds: the full verification-profile table sizes.
    Deep,
}

impl Tier {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Deep => "deep",
        }
    }
}

/// A seeded bug for the negative-fixture tests: each variant plants one
/// classic defect in the corresponding symbolic model, and its harness
/// must produce a concrete counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// The page walker extracts the level index with a shift that is one
    /// level too low (conflates the word offset with the level-0 index).
    PagingLevelOffByOne,
    /// The TLB shootdown after a remap skips the `flush_page`, leaving a
    /// stale translation cached.
    TlbFlushSkip,
    /// The IOMMU walk drops the DMA-region confinement check, silently
    /// widening the device grant set to RAM pages.
    IommuGrantWiden,
    /// The journal writes its commit header before the log payload
    /// sectors, so a crash between the two replays garbage.
    JournalHeaderFirst,
}

/// Configuration of one BMC run.
#[derive(Debug, Clone)]
pub struct BmcConfig {
    /// Bound tier.
    pub tier: Tier,
    /// Re-check every Unsat with the independent proof checker.
    pub certify: bool,
    /// Per-query conflict budget (`None`: run to completion).
    pub max_conflicts: Option<u64>,
    /// Per-query wall-clock budget in milliseconds.
    pub max_solve_ms: Option<u64>,
    /// Plant one seeded bug (negative-fixture tests only).
    pub seeded_bug: Option<SeededBug>,
    /// Restrict the run to harnesses with these exact names.
    pub only: Option<Vec<String>>,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig {
            tier: Tier::Fast,
            certify: true,
            max_conflicts: Some(10_000_000),
            max_solve_ms: Some(600_000),
            seeded_bug: None,
            only: None,
        }
    }
}

impl BmcConfig {
    /// Kernel parameters for the paging/IOMMU models at this tier.
    ///
    /// The deep tier is exactly the verification profile; the fast tier
    /// shrinks the page counts (but not the walk depth or entry width),
    /// which is what keeps CI in seconds while nightly proves the full
    /// small-model sizes.
    pub fn params(&self) -> KernelParams {
        let mut p = KernelParams::verification();
        if self.tier == Tier::Fast {
            p.nr_pages = 4;
            p.nr_dmapages = 2;
            p.nr_devs = 2;
        }
        p
    }

    /// TLB model bounds `(capacity, pre_ops, post_ops)`.
    pub fn tlb_bounds(&self) -> (usize, usize, usize) {
        match self.tier {
            Tier::Fast => (2, 2, 1),
            Tier::Deep => (3, 3, 2),
        }
    }

    /// fs-log model bounds `(sector_words, nsectors, log_capacity)`.
    pub fn fs_bounds(&self) -> (u64, u64, u64) {
        match self.tier {
            Tier::Fast => (3, 6, 2),
            Tier::Deep => (4, 12, 3),
        }
    }
}

/// Verdict of one harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcOutcome {
    /// Every property query answered Unsat: the bound is proved.
    Proved,
    /// Some property query answered Sat; the payload is the rendered
    /// concrete counterexample (page table, trace, or disk state).
    Counterexample(String),
    /// A query exhausted its budget.
    Unknown,
}

impl BmcOutcome {
    /// Short verdict mnemonic for logs and JSON.
    pub fn verdict(&self) -> &'static str {
        match self {
            BmcOutcome::Proved => "proved",
            BmcOutcome::Counterexample(_) => "CEX",
            BmcOutcome::Unknown => "UNKNOWN",
        }
    }
}

/// Result of running one harness.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Harness name (stable identifier; `--only` matches it).
    pub name: &'static str,
    /// Harness family: `paging`, `tlb`, `iommu`, or `fslog`.
    pub family: &'static str,
    /// Human-readable bound description (knob values).
    pub bounds: String,
    /// The verdict.
    pub outcome: BmcOutcome,
    /// Property queries issued.
    pub queries: u64,
    /// CNF clauses encoded across the harness's queries.
    pub cnf_clauses: usize,
    /// CDCL conflicts across the queries.
    pub conflicts: u64,
    /// Term-to-CNF encoding time.
    pub encode_time: Duration,
    /// CDCL search time.
    pub solve_time: Duration,
    /// Whole-harness wall clock (model build + solving).
    pub time: Duration,
    /// Queries answered Unsat.
    pub unsat_queries: u64,
    /// Unsat answers confirmed by the independent proof checker.
    pub certified_unsat: u64,
    /// DRAT steps logged across the harness.
    pub proof_steps: u64,
}

/// An incremental solver session; its solver's lifetime totals are the
/// per-harness statistics.
///
/// One `Prover` per harness: base model constraints are asserted once
/// with [`Prover::assume`], then each property is discharged in its own
/// scope by [`Prover::prove`] (assert the negation, expect Unsat), so
/// consecutive properties of one model reuse the encoding and learnt
/// clauses of the previous ones.
pub struct Prover {
    /// The term context the model was built in.
    pub ctx: Ctx,
    solver: Solver,
    start: Instant,
    outcome: BmcOutcome,
}

impl Prover {
    /// A fresh session under the run configuration's solver knobs.
    pub fn new(ctx: Ctx, cfg: &BmcConfig) -> Prover {
        let mut sc = SolverConfig {
            certify: cfg.certify,
            cache: None,
            ..SolverConfig::default()
        };
        sc.sat.max_conflicts = cfg.max_conflicts;
        sc.sat.max_solve_ms = cfg.max_solve_ms;
        Prover {
            ctx,
            solver: Solver::with_config(sc),
            start: Instant::now(),
            outcome: BmcOutcome::Proved,
        }
    }

    /// Asserts a model constraint (holds for every subsequent property).
    pub fn assume(&mut self, t: TermId) {
        self.solver.assert(&mut self.ctx, t);
    }

    /// Discharges one property: asserts its negation in a scope and
    /// expects Unsat. On Sat, `render` turns the model into a concrete
    /// counterexample; the first counterexample (or Unknown) sticks.
    pub fn prove(&mut self, prop: TermId, render: impl FnOnce(&Ctx, &Model) -> String) {
        self.prove_under(&[], prop, render);
    }

    /// Like [`Prover::prove`], with extra scope-local assumptions (used
    /// when one session checks several differently-constrained
    /// instances of a model).
    pub fn prove_under(
        &mut self,
        assumptions: &[TermId],
        prop: TermId,
        render: impl FnOnce(&Ctx, &Model) -> String,
    ) {
        if matches!(self.outcome, BmcOutcome::Counterexample(_)) {
            return;
        }
        let neg = self.ctx.not(prop);
        self.solver.push();
        for &a in assumptions {
            self.solver.assert(&mut self.ctx, a);
        }
        self.solver.assert(&mut self.ctx, neg);
        let result = self.solver.check(&mut self.ctx);
        self.solver.pop();
        match result {
            SatResult::Unsat => {}
            SatResult::Sat(model) => {
                self.outcome = BmcOutcome::Counterexample(render(&self.ctx, &model));
            }
            SatResult::Unknown => self.outcome = BmcOutcome::Unknown,
        }
    }

    /// Finalizes the session into a report.
    pub fn finish(self, name: &'static str, family: &'static str, bounds: String) -> HarnessReport {
        let t = &self.solver.totals;
        HarnessReport {
            name,
            family,
            bounds,
            outcome: self.outcome,
            queries: t.checks,
            cnf_clauses: t.cnf_clauses,
            conflicts: t.conflicts,
            encode_time: t.encode_time,
            solve_time: t.solve_time,
            time: self.start.elapsed(),
            unsat_queries: t.unsat_queries,
            certified_unsat: t.certified_unsat,
            proof_steps: t.proof_steps,
        }
    }
}

/// One registered harness.
pub struct HarnessDef {
    /// Stable name.
    pub name: &'static str,
    /// Family: `paging`, `tlb`, `iommu`, `fslog`.
    pub family: &'static str,
    /// One-line property statement.
    pub describes: &'static str,
    /// Entry point.
    pub run: fn(&BmcConfig) -> HarnessReport,
}

/// The full harness registry, in run order.
pub fn harnesses() -> Vec<HarnessDef> {
    vec![
        HarnessDef {
            name: "paging_walk_agrees_spec",
            family: "paging",
            describes: "hardware walk equals the clean-room spec on all symbolic tables",
            run: crate::paging::walk_agrees_spec,
        },
        HarnessDef {
            name: "paging_perm_monotonic",
            family: "paging",
            describes: "write permission implies read permission with the same translation",
            run: crate::paging::perm_monotonic,
        },
        HarnessDef {
            name: "paging_no_overflow",
            family: "paging",
            describes: "walk address arithmetic never wraps and stays in its region",
            run: crate::paging::no_overflow,
        },
        HarnessDef {
            name: "paging_split_join_roundtrip",
            family: "paging",
            describes: "split_va/join_va invert each other on the canonical range",
            run: crate::paging::split_join_roundtrip,
        },
        HarnessDef {
            name: "tlb_coherence",
            family: "tlb",
            describes: "every TLB hit equals the current page-table walk, across a remap",
            run: crate::tlb::coherence,
        },
        HarnessDef {
            name: "tlb_flush_from_scratch",
            family: "tlb",
            describes: "after flush_all no lookup hits: walk-after-flush is walk-from-scratch",
            run: crate::tlb::flush_from_scratch,
        },
        HarnessDef {
            name: "iommu_dma_confinement",
            family: "iommu",
            describes: "device translations resolve only inside the DMA region",
            run: crate::iommu::dma_confinement,
        },
        HarnessDef {
            name: "iommu_grant_set",
            family: "iommu",
            describes: "resolved frames appear in some present device-table entry",
            run: crate::iommu::grant_set,
        },
        HarnessDef {
            name: "fslog_crash_atomicity",
            family: "fslog",
            describes: "recovery after any crash point yields pre- or post-commit data, never torn",
            run: crate::fslog::crash_atomicity,
        },
        HarnessDef {
            name: "fslog_recovery_idempotent",
            family: "fslog",
            describes: "running recovery twice equals running it once",
            run: crate::fslog::recovery_idempotent,
        },
    ]
}

/// Runs every harness selected by the configuration, in registry order.
pub fn run_all(cfg: &BmcConfig) -> Vec<HarnessReport> {
    harnesses()
        .into_iter()
        .filter(|h| match &cfg.only {
            Some(names) => names.iter().any(|n| n == h.name),
            None => true,
        })
        .map(|h| (h.run)(cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_families_complete() {
        let hs = harnesses();
        let mut names: Vec<&str> = hs.iter().map(|h| h.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), hs.len());
        for fam in ["paging", "tlb", "iommu", "fslog"] {
            assert!(hs.iter().any(|h| h.family == fam), "missing family {fam}");
        }
    }

    #[test]
    fn only_filter_selects() {
        let cfg = BmcConfig {
            only: Some(vec!["paging_split_join_roundtrip".into()]),
            ..BmcConfig::default()
        };
        let reports = run_all(&cfg);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "paging_split_join_roundtrip");
        assert_eq!(reports[0].outcome, BmcOutcome::Proved);
    }
}
