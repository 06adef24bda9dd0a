//! The bounded-model-checking phase: substrate harnesses under the
//! driver's event stream and report machinery.
//!
//! Theorems 1 and 2 treat the page walker, the TLB, the IOMMU, and the
//! fs journal as trusted substrate (they sit below the state-machine
//! specification). [`run_bmc`] discharges the `hk-bmc` harnesses over
//! those components — bounded proofs about the real code's models,
//! validated against the code by the differential fuzz bridge — and
//! reports them through the same [`EventSink`] and JSON conventions as
//! the handler phases, so one front end observes the whole run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hk_bmc::{harnesses, BmcConfig, BmcOutcome, HarnessReport};

use crate::event::{EventSink, VerifyEvent};

/// Outcome of the BMC phase.
#[derive(Debug)]
pub struct BmcReport {
    /// Per-harness results, in registry order.
    pub harnesses: Vec<HarnessReport>,
    /// Bound tier the run used (`fast` / `deep`).
    pub tier: &'static str,
    /// Whether Unsat answers were DRAT-certified.
    pub certified: bool,
    /// Whole-phase wall clock.
    pub total_time: Duration,
}

impl BmcReport {
    /// Harnesses whose bound proved.
    pub fn proved(&self) -> usize {
        self.harnesses
            .iter()
            .filter(|h| matches!(h.outcome, BmcOutcome::Proved))
            .count()
    }

    /// True when every selected harness proved.
    pub fn all_proved(&self) -> bool {
        self.proved() == self.harnesses.len()
    }

    /// Harnesses that exhausted their budget.
    pub fn unknowns(&self) -> usize {
        self.harnesses
            .iter()
            .filter(|h| matches!(h.outcome, BmcOutcome::Unknown))
            .count()
    }

    /// Unsat answers across the phase.
    pub fn unsat_queries(&self) -> u64 {
        self.harnesses.iter().map(|h| h.unsat_queries).sum()
    }

    /// Certified Unsat answers across the phase.
    pub fn certified_unsat(&self) -> u64 {
        self.harnesses.iter().map(|h| h.certified_unsat).sum()
    }

    /// Human-readable phase summary, one line per harness.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bmc ({} tier): {}/{} proved in {:.1}s",
            self.tier,
            self.proved(),
            self.harnesses.len(),
            self.total_time.as_secs_f64()
        );
        for h in &self.harnesses {
            let _ = writeln!(
                out,
                "  {:<28} {:<8} {:>7.2}s  {} queries, {} clauses, {} conflicts [{}]",
                h.name,
                h.outcome.verdict(),
                h.time.as_secs_f64(),
                h.queries,
                h.cnf_clauses,
                h.conflicts,
                h.bounds
            );
        }
        if self.certified {
            let _ = writeln!(
                out,
                "  proof: {}/{} unsat answers certified ({} DRAT steps)",
                self.certified_unsat(),
                self.unsat_queries(),
                self.harnesses.iter().map(|h| h.proof_steps).sum::<u64>()
            );
        }
        out
    }

    /// The phase as a JSON object, the payload of a report's `"bmc"`
    /// section:
    ///
    /// ```json
    /// "bmc": { "tier": "fast", "total_time_s": 1.2,
    ///          "proved": 10, "total": 10, "unknown": 0,
    ///          "proof": { "unsat_queries": 14, "certified_unsat": 14 },
    ///          "harnesses": [
    ///            { "name": "tlb_coherence", "family": "tlb",
    ///              "bounds": "capacity=2 pre_ops=2 post_ops=1",
    ///              "verdict": "proved", "detail": null,
    ///              "queries": 1, "cnf_clauses": 21203, "conflicts": 812,
    ///              "encode_s": 0.1, "solve_s": 0.5, "time_s": 0.7,
    ///              "proof": { "unsat_queries": 1, "certified_unsat": 1,
    ///                         "steps": 35011 } } ] }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"tier\": \"{}\",", self.tier);
        let _ = writeln!(
            out,
            "  \"total_time_s\": {:.6},",
            self.total_time.as_secs_f64()
        );
        let _ = writeln!(out, "  \"proved\": {},", self.proved());
        let _ = writeln!(out, "  \"total\": {},", self.harnesses.len());
        let _ = writeln!(out, "  \"unknown\": {},", self.unknowns());
        let _ = writeln!(
            out,
            "  \"proof\": {{ \"unsat_queries\": {}, \"certified_unsat\": {} }},",
            self.unsat_queries(),
            self.certified_unsat()
        );
        out.push_str("  \"harnesses\": [\n");
        for (i, h) in self.harnesses.iter().enumerate() {
            let detail = match &h.outcome {
                BmcOutcome::Counterexample(text) => {
                    format!("\"{}\"", crate::driver::json_escape(text))
                }
                _ => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{ \"name\": \"{}\", \"family\": \"{}\", \"bounds\": \"{}\", \
                 \"verdict\": \"{}\", \"detail\": {}, \"queries\": {}, \
                 \"cnf_clauses\": {}, \"conflicts\": {}, \"encode_s\": {:.6}, \
                 \"solve_s\": {:.6}, \"time_s\": {:.6}, \
                 \"proof\": {{ \"unsat_queries\": {}, \"certified_unsat\": {}, \
                 \"steps\": {} }} }}",
                h.name,
                h.family,
                crate::driver::json_escape(&h.bounds),
                h.outcome.verdict(),
                detail,
                h.queries,
                h.cnf_clauses,
                h.conflicts,
                h.encode_time.as_secs_f64(),
                h.solve_time.as_secs_f64(),
                h.time.as_secs_f64(),
                h.unsat_queries,
                h.certified_unsat,
                h.proof_steps
            );
            out.push_str(if i + 1 < self.harnesses.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the BMC phase: every harness selected by `cfg`, in registry
/// order, reporting progress through `sink`.
///
/// When `cfg.certify` is set, the phase enforces the same invariant the
/// handler driver does for its queries: every Unsat answer carries a
/// checked DRAT certificate (`certified_unsat == unsat_queries`), or the
/// phase panics — a certification gap is a soundness bug, not a result.
pub fn run_bmc(cfg: &BmcConfig, sink: &EventSink) -> BmcReport {
    let defs: Vec<_> = harnesses()
        .into_iter()
        .filter(|h| match &cfg.only {
            Some(names) => names.iter().any(|n| n == h.name),
            None => true,
        })
        .collect();
    sink.emit(&VerifyEvent::BmcStarted {
        harnesses: defs.len(),
        tier: cfg.tier.name(),
    });

    let start = Instant::now();
    let mut reports = Vec::with_capacity(defs.len());
    for def in defs {
        let r = (def.run)(cfg);
        if cfg.certify {
            assert_eq!(
                r.certified_unsat, r.unsat_queries,
                "harness {} produced uncertified unsat answers",
                r.name
            );
        }
        match &r.outcome {
            BmcOutcome::Proved => {}
            BmcOutcome::Counterexample(text) => sink.emit(&VerifyEvent::BmcFinding {
                name: r.name,
                verdict: r.outcome.verdict(),
                detail: text.clone(),
            }),
            BmcOutcome::Unknown => sink.emit(&VerifyEvent::BmcFinding {
                name: r.name,
                verdict: r.outcome.verdict(),
                detail: format!("budget exhausted at bounds [{}]", r.bounds),
            }),
        }
        reports.push(r);
    }

    let report = BmcReport {
        harnesses: reports,
        tier: cfg.tier.name(),
        certified: cfg.certify,
        total_time: start.elapsed(),
    };
    sink.emit(&VerifyEvent::BmcFinished {
        proved: report.proved(),
        total: report.harnesses.len(),
        unsat_queries: report.unsat_queries(),
        certified: report.certified_unsat(),
        time: report.total_time,
    });
    report
}
