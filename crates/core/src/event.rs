//! Verification progress events.
//!
//! Both driver paths (sequential and parallel) report progress through a
//! single [`EventSink`] rather than ad-hoc `eprintln!` calls, so front
//! ends — the CLI example, tests, future TUIs — observe the exact same
//! stream regardless of thread count. The parallel path buffers finished
//! handlers and emits their events in submission order, so a run with
//! `threads = 8` produces an event stream identical to `threads = 1`.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use hk_abi::Sysno;
use hk_smt::CacheStats;

hk_smt::solver_stats! {
    /// Per-handler phase timing and solver counters: every solver
    /// counter, folded over each query the handler issues (UB query +
    /// refinement batches) with [`PhaseStats::absorb`], after the
    /// handler's own symbolic-execution time.
    pub struct PhaseStats {
        /// Symbolic execution (handler body + both invariant evaluations).
        symx_time: Duration = sum,
    }
}

/// One progress event from a verification run.
///
/// Events carry owned, cheap-to-clone data so sinks can forward them
/// across threads or serialize them without borrowing the run state.
#[derive(Debug, Clone)]
pub enum VerifyEvent {
    /// The static-analysis phase (finiteness + UB lints) has started.
    AnalysisStarted {
        /// Entry points analysed (handlers + the representation
        /// invariant).
        roots: usize,
    },
    /// One static-analysis finding. Emitted for allowlisted findings
    /// too, so suppressions stay visible in verification logs.
    AnalysisFinding {
        /// The finding, rendered as `file:line:col: code: message`.
        rendered: String,
        /// Whether an allowlist rule suppressed it.
        allowlisted: bool,
    },
    /// The static-analysis phase has finished.
    AnalysisFinished {
        /// Unsuppressed findings (nonzero fails the run).
        findings: usize,
        /// Allowlisted findings.
        allowlisted: usize,
        /// Loops with a proven constant bound, handed to the symbolic
        /// executor.
        loop_bounds: usize,
        /// Wall-clock time of the phase.
        time: Duration,
    },
    /// The run has started.
    RunStarted {
        /// Handlers selected for verification.
        total: usize,
        /// Worker threads.
        threads: usize,
    },
    /// A handler's verification has started (in the parallel path this
    /// is emitted in submission order, paired with its `HandlerFinished`).
    HandlerStarted {
        /// The handler.
        sysno: Sysno,
        /// Position in the run, `0..total`.
        index: usize,
        /// Handlers selected for verification.
        total: usize,
    },
    /// A handler's verification has finished.
    HandlerFinished {
        /// The handler.
        sysno: Sysno,
        /// Position in the run, `0..total`.
        index: usize,
        /// Handlers selected for verification.
        total: usize,
        /// Short verdict mnemonic (`ok`, `UB-BUG`, `REFINE-BUG`,
        /// `SYMX-FAIL`, `UNKNOWN`).
        verdict: &'static str,
        /// Wall-clock time for the handler.
        time: Duration,
        /// Execution paths explored.
        paths: usize,
        /// UB side checks discharged.
        side_checks: usize,
        /// Phase timings and cache counters (boxed: the stats block has
        /// grown far past every other variant's payload).
        phases: Box<PhaseStats>,
    },
    /// A handler's Unsat verdicts have been re-checked by the
    /// independent proof checker. Emitted directly after
    /// `HandlerFinished` when the run has `solver.certify` set; the
    /// driver has already enforced `certified == unsat_queries`, so
    /// this event reports a *confirmed* certification, never a partial
    /// one.
    HandlerCertified {
        /// The handler.
        sysno: Sysno,
        /// Position in the run, `0..total`.
        index: usize,
        /// Handlers selected for verification.
        total: usize,
        /// Unsat answers the handler's queries produced.
        unsat_queries: u64,
        /// How many were certified (equals `unsat_queries`).
        certified: u64,
        /// DRAT steps logged by the SAT core across the handler.
        proof_steps: u64,
        /// Lemmas the checker RUP-verified, each once per handler session.
        core_steps: u64,
        /// Bytes of binary-DRAT proof produced.
        proof_bytes: u64,
        /// Time spent inside the independent checker.
        check_time: Duration,
    },
    /// The bounded-model-checking phase over the substrate models
    /// (page walker, TLB, IOMMU, fs log) has started.
    BmcStarted {
        /// Harnesses selected for the phase.
        harnesses: usize,
        /// Bound tier (`fast` / `deep`).
        tier: &'static str,
    },
    /// A BMC harness failed to prove its bound: a concrete
    /// counterexample or an exhausted budget.
    BmcFinding {
        /// Harness name.
        name: &'static str,
        /// Verdict mnemonic (`CEX`, `UNKNOWN`).
        verdict: &'static str,
        /// Rendered counterexample (concrete page tables, TLB trace, or
        /// crashed disk), or the exhausted bounds.
        detail: String,
    },
    /// The BMC phase has finished.
    BmcFinished {
        /// Harnesses whose bound proved.
        proved: usize,
        /// Harnesses run.
        total: usize,
        /// Unsat answers across the phase.
        unsat_queries: u64,
        /// DRAT-certified Unsat answers (equals `unsat_queries` on
        /// certified runs; the phase enforces it).
        certified: u64,
        /// Wall-clock time of the phase.
        time: Duration,
    },
    /// The run has finished.
    RunFinished {
        /// Handlers that verified.
        verified: usize,
        /// Handlers selected for verification.
        total: usize,
        /// Total wall-clock time.
        total_time: Duration,
        /// Query-cache statistics at the end of the run.
        cache: CacheStats,
    },
}

type SinkFn = dyn Fn(&VerifyEvent) + Send + Sync;

/// Where verification progress goes.
///
/// Cloning is cheap (an `Arc`). The default sink discards events; use
/// [`EventSink::stderr`] for the classic one-line-per-handler progress
/// log, or [`EventSink::new`] to capture events programmatically.
#[derive(Clone, Default)]
pub struct EventSink(Option<Arc<SinkFn>>);

impl EventSink {
    /// A sink that invokes `f` for every event. `f` may be called from
    /// worker threads, but never concurrently for events of one run.
    pub fn new(f: impl Fn(&VerifyEvent) + Send + Sync + 'static) -> Self {
        EventSink(Some(Arc::new(f)))
    }

    /// A sink that discards all events.
    pub fn null() -> Self {
        EventSink(None)
    }

    /// A sink that logs one line per handler to stderr.
    pub fn stderr() -> Self {
        EventSink::new(|ev| match ev {
            VerifyEvent::AnalysisStarted { roots } => {
                eprintln!("[verify] static analysis over {roots} entry points");
            }
            VerifyEvent::AnalysisFinding {
                rendered,
                allowlisted,
            } => {
                let tag = if *allowlisted { " (allowlisted)" } else { "" };
                eprintln!("[verify] finding: {rendered}{tag}");
            }
            VerifyEvent::AnalysisFinished {
                findings,
                allowlisted,
                loop_bounds,
                time,
            } => {
                eprintln!(
                    "[verify] analysis done in {:.2}s: {findings} findings ({allowlisted} allowlisted), {loop_bounds} loop bounds",
                    time.as_secs_f64()
                );
            }
            VerifyEvent::RunStarted { total, threads } => {
                eprintln!("[verify] {total} handlers on {threads} thread(s)");
            }
            VerifyEvent::HandlerStarted { .. } => {}
            VerifyEvent::HandlerFinished {
                sysno,
                verdict,
                time,
                paths,
                side_checks,
                phases,
                ..
            } => {
                eprintln!(
                    "[verify] {:<24} {:<10} {:>6.1}s ({} paths, {} checks, {}/{} cached)",
                    sysno.func_name(),
                    verdict,
                    time.as_secs_f64(),
                    paths,
                    side_checks,
                    phases.cache_hits,
                    phases.checks
                );
            }
            VerifyEvent::HandlerCertified {
                sysno,
                unsat_queries,
                certified,
                proof_steps,
                core_steps,
                check_time,
                ..
            } => {
                eprintln!(
                    "[verify] {:<24} certified  {certified}/{unsat_queries} unsat ({proof_steps} proof steps, {core_steps} lemmas checked, {:.2}s check)",
                    sysno.func_name(),
                    check_time.as_secs_f64()
                );
            }
            VerifyEvent::BmcStarted { harnesses, tier } => {
                eprintln!("[verify] bmc: {harnesses} harnesses at the {tier} tier");
            }
            VerifyEvent::BmcFinding {
                name,
                verdict,
                detail,
            } => {
                eprintln!("[verify] bmc: {name} {verdict}\n{detail}");
            }
            VerifyEvent::BmcFinished {
                proved,
                total,
                unsat_queries,
                certified,
                time,
            } => {
                eprintln!(
                    "[verify] bmc done in {:.1}s: {proved}/{total} proved, {certified}/{unsat_queries} unsat certified",
                    time.as_secs_f64()
                );
            }
            VerifyEvent::RunFinished {
                verified,
                total,
                total_time,
                cache,
            } => {
                eprintln!(
                    "[verify] done in {:.1}s: {verified}/{total} verified, cache {} hits / {} misses",
                    total_time.as_secs_f64(),
                    cache.hits,
                    cache.misses
                );
            }
        })
    }

    /// Emits one event (no-op for the null sink).
    pub fn emit(&self, ev: &VerifyEvent) {
        if let Some(f) = &self.0 {
            f(ev);
        }
    }
}

impl fmt::Debug for EventSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "EventSink(..)"
        } else {
            "EventSink(null)"
        })
    }
}
