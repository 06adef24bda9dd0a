//! Orchestration: verify all 50 handlers, optionally in parallel.
//!
//! Matches the paper's workflow (§6.3): one solver instance per handler,
//! embarrassingly parallel across cores. Both paths report through the
//! configured [`EventSink`] — the parallel path buffers finished
//! handlers and emits in submission order, so the event stream is
//! byte-identical regardless of thread count.
//!
//! Every run shares one content-addressed verification-condition cache
//! (a per-run cache is created when the configuration does not supply
//! one), so re-verifying an unchanged kernel image answers most queries
//! without touching the SAT solver.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hk_abi::{KernelParams, Sysno};
use hk_kernel::KernelImage;
use hk_smt::{CacheStats, QueryCache, SolverConfig, Stats};
use hk_spec::shapes_of;
use hk_symx::SymxConfig;

use crate::event::{EventSink, PhaseStats, VerifyEvent};
use crate::refine::{verify_handler, HandlerOutcome, HandlerReport, VerifyCtx};

/// Default capacity of the per-run verification-condition cache.
const DEFAULT_CACHE_CAPACITY: usize = 1 << 14;

/// Verification configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Kernel size parameters (use [`KernelParams::verification`]).
    pub params: KernelParams,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Solver configuration. If `solver.cache` is `None`, `verify_image`
    /// installs a fresh per-run cache so refinement batches within one
    /// run can still share verdicts. `solver.incremental` (on by
    /// default) makes each handler reuse one solver across its UB query
    /// and every refinement batch — the invariant is encoded once and
    /// learnt clauses carry over; disable it to get the
    /// fresh-solver-per-query baseline.
    pub solver: SolverConfig,
    /// Symbolic execution configuration.
    pub symx: SymxConfig,
    /// Restrict to these handlers (empty = all 50).
    pub only: Vec<Sysno>,
    /// Progress events (defaults to one line per handler on stderr).
    pub events: EventSink,
    /// If set, the query cache is loaded from this file before the run
    /// and saved back afterwards, making verdicts persist across
    /// processes. Missing or corrupt snapshots are ignored.
    pub cache_snapshot: Option<PathBuf>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            params: KernelParams::verification(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            solver: SolverConfig::default(),
            symx: SymxConfig::default(),
            only: Vec::new(),
            events: EventSink::stderr(),
            cache_snapshot: None,
        }
    }
}

/// Aggregate report.
#[derive(Debug)]
pub struct VerifyReport {
    /// Unsuppressed static-analysis findings (rendered with their
    /// HyperC source locations). Nonzero fails the run: a kernel that
    /// trips the finiteness or UB lints is not push-button verifiable.
    pub analysis_findings: Vec<String>,
    /// Loops the static analysis proved a constant bound for (the
    /// bounds themselves are consumed by the symbolic executor).
    pub loop_bounds: usize,
    /// Per-handler reports, in trap-number order.
    pub handlers: Vec<HandlerReport>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Query-cache counters at the end of the run (lifetime totals of
    /// the cache object, which may span several runs).
    pub cache: CacheStats,
    /// Entries resident in the cache at the end of the run.
    pub cache_entries: usize,
}

impl VerifyReport {
    /// True if static analysis came back clean and every handler
    /// verified.
    pub fn all_verified(&self) -> bool {
        self.analysis_findings.is_empty() && self.handlers.iter().all(|h| h.outcome.is_verified())
    }

    /// This run's totals: every handler's [`PhaseStats`] merged.
    pub fn totals(&self) -> PhaseStats {
        let mut t = PhaseStats::default();
        for h in &self.handlers {
            t.merge(&h.phases);
        }
        t
    }

    /// Unsat answers across all handlers *during this run*.
    pub fn unsat_queries(&self) -> u64 {
        self.totals().unsat_queries
    }

    /// Unsat answers confirmed by the independent proof checker (or
    /// vacuously, for trivially-false queries) *during this run*.
    pub fn certified_unsat(&self) -> u64 {
        self.totals().certified_unsat
    }

    /// True when the run was certified: every Unsat answer re-checked.
    /// (Trivially false on uncertified runs, which certify nothing.)
    pub fn fully_certified(&self) -> bool {
        self.unsat_queries() > 0 && self.certified_unsat() == self.unsat_queries()
    }

    /// Cache hit rate over this run's queries (0.0 when no queries ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let t = self.totals();
        let total = t.cache_hits + t.cache_misses;
        if total == 0 {
            0.0
        } else {
            t.cache_hits as f64 / total as f64
        }
    }

    /// A rendered summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let t = self.totals();
        let mut out = String::new();
        for f in &self.analysis_findings {
            let _ = writeln!(out, "analysis: {f}");
        }
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>7} {:>9} {:>10} {:>9} {:>9}",
            "handler", "verdict", "paths", "checks", "clauses", "cached", "time"
        );
        for h in &self.handlers {
            let verdict = match &h.outcome {
                HandlerOutcome::Verified => "ok",
                HandlerOutcome::UbBug { .. } => "UB!",
                HandlerOutcome::RefinementBug { .. } => "BUG!",
                HandlerOutcome::SymxFailed(_) => "symx!",
                HandlerOutcome::Unknown => "?",
            };
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>7} {:>9} {:>10} {:>4}/{:<4} {:>8.2}s",
                h.sysno.func_name(),
                verdict,
                h.paths,
                h.side_checks,
                h.cnf_clauses,
                h.phases.cache_hits,
                h.phases.checks,
                h.time.as_secs_f64()
            );
        }
        let _ = writeln!(
            out,
            "total: {:.1}s, {} / {} verified",
            self.total_time.as_secs_f64(),
            self.handlers
                .iter()
                .filter(|h| h.outcome.is_verified())
                .count(),
            self.handlers.len()
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses this run ({:.0}% hit rate), {} entries resident",
            t.cache_hits,
            t.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.cache_entries
        );
        if t.certified_unsat > 0 {
            let _ = writeln!(
                out,
                "proof: {}/{} unsat answers certified ({} DRAT steps, {} lemmas checked, {} bytes, {:.2}s checking)",
                t.certified_unsat,
                t.unsat_queries,
                t.proof_steps,
                t.proof_core_steps,
                t.proof_bytes,
                t.proof_check_time.as_secs_f64()
            );
        }
        out
    }

    /// The report as a JSON document (machine-readable counterpart of
    /// [`VerifyReport::summary`]). Both `phases` blocks come from the
    /// one counter writer ([`Stats::to_json`]): every [`PhaseStats`]
    /// field in declaration order, times as `<name>_s` in seconds. The
    /// top-level block is [`VerifyReport::totals`].
    ///
    /// Layout (counter blocks shortened):
    ///
    /// ```json
    /// {
    ///   "total_time_s": 1.5,
    ///   "verified": 50,
    ///   "total": 50,
    ///   "analysis": { "findings": [], "loop_bounds": 12 },
    ///   "cache": { "hit_rate": 0.9375, "entries": 128 },
    ///   "phases": { "symx_time_s": 0.8, "checks": 128, "assertions": 3, ...,
    ///               "cache_hits": 120, "cache_misses": 8, "conflicts": 3104, ...,
    ///               "unsat_queries": 96, "certified_unsat": 96, ...,
    ///               "proof_check_time_s": 0.42 },
    ///   "handlers": [
    ///     { "name": "sys_dup", "trap": 23, "verdict": "verified", "detail": null,
    ///       "paths": 4, "side_checks": 9, "cnf_clauses": 1042, "conflicts": 3,
    ///       "time_s": 0.200000, "phases": { "symx_time_s": 0.1, "checks": 6, ... } }
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"total_time_s\": {:.6},",
            self.total_time.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "  \"verified\": {},",
            self.handlers
                .iter()
                .filter(|h| h.outcome.is_verified())
                .count()
        );
        let _ = writeln!(out, "  \"total\": {},", self.handlers.len());
        let findings: Vec<String> = self
            .analysis_findings
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let _ = writeln!(
            out,
            "  \"analysis\": {{ \"findings\": [{}], \"loop_bounds\": {} }},",
            findings.join(", "),
            self.loop_bounds
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{ \"hit_rate\": {:.6}, \"entries\": {} }},",
            self.cache_hit_rate(),
            self.cache_entries
        );
        let _ = writeln!(out, "  \"phases\": {},", self.totals().to_json());
        out.push_str("  \"handlers\": [\n");
        for (i, h) in self.handlers.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&h.to_json());
            out.push_str(if i + 1 < self.handlers.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl HandlerReport {
    /// The handler as one single-line JSON object: verdict, the
    /// handler-level counts, wall time, and its [`PhaseStats`] from the
    /// one counter writer.
    pub fn to_json(&self) -> String {
        let (verdict, detail) = match &self.outcome {
            HandlerOutcome::Verified => ("verified", None),
            HandlerOutcome::UbBug { kind, .. } => ("ub_bug", Some(kind.as_str())),
            HandlerOutcome::RefinementBug { detail, .. } => {
                ("refinement_bug", Some(detail.as_str()))
            }
            HandlerOutcome::SymxFailed(e) => ("symx_failed", Some(e.as_str())),
            HandlerOutcome::Unknown => ("unknown", None),
        };
        let detail = match detail {
            Some(d) => format!("\"{}\"", json_escape(d)),
            None => "null".to_string(),
        };
        format!(
            "{{ \"name\": \"{}\", \"trap\": {}, \"verdict\": \"{verdict}\", \"detail\": {detail}, \
             \"paths\": {}, \"side_checks\": {}, \"cnf_clauses\": {}, \"conflicts\": {}, \
             \"time_s\": {:.6}, \"phases\": {} }}",
            json_escape(self.sysno.func_name()),
            self.sysno.number(),
            self.paths,
            self.side_checks,
            self.cnf_clauses,
            self.conflicts,
            self.time.as_secs_f64(),
            self.phases.to_json()
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Verifies the kernel (Theorem 1 for every selected handler).
///
/// # Panics
///
/// Panics if the kernel image fails to build (a build error, not a
/// verification result).
pub fn verify_all(config: &VerifyConfig) -> VerifyReport {
    let image = KernelImage::build(config.params).expect("kernel build");
    verify_image(&image, config)
}

fn emit_finished(
    events: &EventSink,
    index: usize,
    total: usize,
    report: &HandlerReport,
    certify: bool,
) {
    events.emit(&VerifyEvent::HandlerFinished {
        sysno: report.sysno,
        index,
        total,
        verdict: report.verdict(),
        time: report.time,
        paths: report.paths,
        side_checks: report.side_checks,
        phases: Box::new(report.phases),
    });
    if certify {
        // In certified mode every Unsat answer must have been confirmed
        // by the independent checker (or vacuously, for trivially-false
        // queries). The solver already panics when a check *fails*; this
        // guards the accounting — an Unsat that slipped past
        // certification entirely would silently weaken the trust story.
        let p = &report.phases;
        assert_eq!(
            p.certified_unsat,
            p.unsat_queries,
            "{}: {} of {} Unsat answers left uncertified",
            report.sysno.func_name(),
            p.unsat_queries - p.certified_unsat,
            p.unsat_queries
        );
        events.emit(&VerifyEvent::HandlerCertified {
            sysno: report.sysno,
            index,
            total,
            unsat_queries: p.unsat_queries,
            certified: p.certified_unsat,
            proof_steps: p.proof_steps,
            core_steps: p.proof_core_steps,
            proof_bytes: p.proof_bytes,
            check_time: p.proof_check_time,
        });
    }
}

/// Verifies an explicit (possibly deliberately broken) kernel image —
/// the entry point the bug-injection experiments use.
pub fn verify_image(image: &KernelImage, config: &VerifyConfig) -> VerifyReport {
    let start = Instant::now();
    let shapes = shapes_of(&image.module);
    let targets: Vec<Sysno> = if config.only.is_empty() {
        Sysno::ALL.to_vec()
    } else {
        config.only.clone()
    };
    // Every handler in the run shares one cache; if the caller did not
    // provide a long-lived one, a per-run cache still lets refinement
    // batches reuse each other's verdicts.
    let mut solver_config = config.solver.clone();
    let cache = match &solver_config.cache {
        Some(c) => c.clone(),
        None => {
            let c = Arc::new(QueryCache::new(DEFAULT_CACHE_CAPACITY));
            solver_config.cache = Some(c.clone());
            c
        }
    };
    if let Some(path) = &config.cache_snapshot {
        let _ = cache.load_snapshot(path);
    }
    let events = &config.events;
    // ---- Static-analysis phase (paper's finite-interface discipline,
    // checked up front): finiteness, definite initialization, and UB
    // lints over every selected handler plus the representation
    // invariant. Findings fail the run; the proven loop bounds feed the
    // symbolic executor so it asserts unrolling limits instead of
    // probing the solver at every back edge.
    let analysis_start = Instant::now();
    let mut roots: Vec<hk_hir::FuncId> = targets.iter().map(|&s| image.handler(s)).collect();
    roots.push(image.rep_invariant);
    roots.sort_unstable();
    roots.dedup();
    events.emit(&VerifyEvent::AnalysisStarted { roots: roots.len() });
    let analysis_cfg = hk_kernel::analysis_config(&image.params);
    let analysis = hk_hir::analysis::analyze_module(&image.module, &roots, &analysis_cfg);
    let mut analysis_findings = Vec::new();
    let mut allowlisted = 0usize;
    for d in &analysis.diagnostics {
        let rendered = d.render(&image.module);
        events.emit(&VerifyEvent::AnalysisFinding {
            rendered: rendered.clone(),
            allowlisted: d.allowlisted,
        });
        if d.allowlisted {
            allowlisted += 1;
        } else {
            analysis_findings.push(rendered);
        }
    }
    events.emit(&VerifyEvent::AnalysisFinished {
        findings: analysis_findings.len(),
        allowlisted,
        loop_bounds: analysis.bounds.len(),
        time: analysis_start.elapsed(),
    });
    let bounds = analysis.bounds;
    let handler_fn = |s: Sysno| image.handler(s);
    let vctx = VerifyCtx {
        module: &image.module,
        shapes: &shapes,
        params: config.params,
        handler: &handler_fn,
        rep_invariant: image.rep_invariant,
        solver: solver_config,
        symx: config.symx,
        bounds: Some(&bounds),
    };
    let total = targets.len();
    let certify = config.solver.certify;
    events.emit(&VerifyEvent::RunStarted {
        total,
        threads: config.threads.max(1),
    });
    let mut handlers: Vec<HandlerReport> = if config.threads <= 1 {
        targets
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                events.emit(&VerifyEvent::HandlerStarted {
                    sysno: s,
                    index: i,
                    total,
                });
                let r = verify_handler(&vctx, s);
                emit_finished(events, i, total, &r, certify);
                r
            })
            .collect()
    } else {
        // Work-stealing via an atomic index over the target list.
        // Finished reports land in per-index slots; whichever worker
        // completes the next-in-order slot drains it (and any ready
        // successors) while holding the lock, so events appear in
        // exactly the sequential order.
        struct Drain {
            slots: Vec<Option<HandlerReport>>,
            emitted: Vec<HandlerReport>,
            next_emit: usize,
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let drain = std::sync::Mutex::new(Drain {
            slots: (0..total).map(|_| None).collect(),
            emitted: Vec::with_capacity(total),
            next_emit: 0,
        });
        let workers = config.threads.min(total);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if i >= total {
                        break;
                    }
                    let report = verify_handler(&vctx, targets[i]);
                    let mut d = drain.lock().unwrap();
                    d.slots[i] = Some(report);
                    while d.next_emit < total {
                        let idx = d.next_emit;
                        let Some(r) = d.slots[idx].take() else { break };
                        events.emit(&VerifyEvent::HandlerStarted {
                            sysno: r.sysno,
                            index: idx,
                            total,
                        });
                        emit_finished(events, idx, total, &r, certify);
                        d.emitted.push(r);
                        d.next_emit += 1;
                    }
                });
            }
        });
        drain.into_inner().unwrap().emitted
    };
    handlers.sort_by_key(|h| h.sysno.number());
    if let Some(path) = &config.cache_snapshot {
        let _ = cache.save_snapshot(path);
    }
    let report = VerifyReport {
        analysis_findings,
        loop_bounds: bounds.len(),
        handlers,
        total_time: start.elapsed(),
        cache: cache.stats(),
        cache_entries: cache.len(),
    };
    events.emit(&VerifyEvent::RunFinished {
        verified: report
            .handlers
            .iter()
            .filter(|h| h.outcome.is_verified())
            .count(),
        total,
        total_time: report.total_time,
        cache: report.cache,
    });
    report
}
