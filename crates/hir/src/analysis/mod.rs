//! Static-analysis framework over HIR.
//!
//! Hyperkernel's push-button decidability rests on a *finite interface*:
//! no recursion, no unbounded loops, and an explicit UB taxonomy at the
//! IR level. This module enforces those properties *before* symbolic
//! execution, with source-span diagnostics, instead of letting a
//! non-finite or UB-prone handler fail late inside the solver:
//!
//! * [`cfg`](mod@cfg) — per-function CFG, dominator tree, natural loops;
//! * [`dataflow`] — a small forward-dataflow engine;
//! * [`callgraph`] — interprocedural call graph, recursion detection,
//!   and the worst-case stack bound `checkers` consumes;
//! * [`init`] — definite initialization (use-before-def on registers
//!   along all CFG paths, including undef values flowing into branch
//!   conditions or memory addresses);
//! * [`absint`] — an abstract interpreter over a constant/interval
//!   domain that proves a constant trip-count bound for every loop
//!   (exported as [`LoopBounds`] so `symx` asserts its unrolling limit
//!   instead of guessing) and flags possible division by zero,
//!   out-of-range shifts, and out-of-bounds GEP indexes.
//!
//! [`analyze_module`] orchestrates all passes over a set of entry
//! points (the kernel runs it over every syscall/trap handler plus the
//! representational invariant) and returns structured [`Diagnostic`]s
//! plus the loop bounds. Findings that are expected can be suppressed
//! with [`AllowRule`]s; suppressed findings stay in the result, flagged
//! `allowlisted`, so they remain visible in verification logs.

pub mod absint;
pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod init;

use std::collections::HashMap;

use crate::func::Span;
use crate::module::{FuncId, Module};

pub use callgraph::CallGraph;
pub use cfg::{Cfg, NaturalLoop};

/// Machine-readable category of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// The call graph contains a cycle.
    Recursion,
    /// A loop has no provable constant trip-count bound.
    UnboundedLoop,
    /// The abstract interpreter ran out of budget before finishing; no
    /// loop bounds are exported for any function the affected entry
    /// point reaches.
    AnalysisBudget,
    /// A register may be read before it is assigned.
    UseBeforeDef,
    /// A possibly-undef value flows into a branch condition.
    UndefBranch,
    /// A possibly-undef value flows into a memory address.
    UndefAddress,
    /// A `udiv`/`urem` divisor may be zero.
    PossibleDivByZero,
    /// A shift amount may fall outside `[0, 64)`.
    PossibleShiftRange,
    /// A GEP element index may fall outside the global's bounds.
    PossibleOobIndex,
    /// A GEP sub-index may fall outside the field's bounds.
    PossibleOobSub,
}

impl DiagnosticCode {
    /// Stable kebab-case name, used in rendered diagnostics and
    /// allowlist entries.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::Recursion => "recursion",
            DiagnosticCode::UnboundedLoop => "unbounded-loop",
            DiagnosticCode::AnalysisBudget => "analysis-budget",
            DiagnosticCode::UseBeforeDef => "use-before-def",
            DiagnosticCode::UndefBranch => "undef-branch",
            DiagnosticCode::UndefAddress => "undef-address",
            DiagnosticCode::PossibleDivByZero => "possible-div-by-zero",
            DiagnosticCode::PossibleShiftRange => "possible-shift-range",
            DiagnosticCode::PossibleOobIndex => "possible-oob-index",
            DiagnosticCode::PossibleOobSub => "possible-oob-sub",
        }
    }
}

/// One finding, anchored to a HyperC source span when the IR carries
/// one.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Category.
    pub code: DiagnosticCode,
    /// Function the finding is in.
    pub func: String,
    /// Source span (may be [`Span::NONE`] for hand-built IR).
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Whether an [`AllowRule`] suppressed this finding.
    pub allowlisted: bool,
}

impl Diagnostic {
    /// Renders as `file:line:col: code: message (in func)`, with the
    /// location omitted when no span is known.
    pub fn render(&self, module: &Module) -> String {
        let loc = if self.span.is_known() {
            let file = module.file_name(self.span.file).unwrap_or("<unknown>");
            format!("{file}:{}:{}: ", self.span.line, self.span.col)
        } else {
            String::new()
        };
        format!(
            "{loc}{}: {} (in `{}`)",
            self.code.as_str(),
            self.message,
            self.func
        )
    }
}

/// Suppresses findings of `code` inside function `func`.
#[derive(Debug, Clone)]
pub struct AllowRule {
    /// Kebab-case code name (see [`DiagnosticCode::as_str`]).
    pub code: String,
    /// Function name the rule applies to.
    pub func: String,
}

/// Declares the value range of a global field, assumed on loads.
///
/// These encode the representation invariant the kernel maintains (see
/// `repinv.hc`): the analysis, like the symbolic executor, reasons
/// about a handler *under* the invariant. A load is only trusted when
/// its element index provably lies in `[min_index, elems)`.
#[derive(Debug, Clone)]
pub struct FieldRangeRule {
    /// Global name.
    pub global: String,
    /// Field name.
    pub field: String,
    /// Inclusive lower bound of the field's value.
    pub lo: i64,
    /// Inclusive upper bound of the field's value.
    pub hi: i64,
    /// First element index the invariant covers (e.g. `procs` starts
    /// at 1: slot 0 is never a valid process).
    pub min_index: u64,
}

/// The guard of a [`CondRangeRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// Guard holds when the condition field equals the constant.
    EqConst(i64),
    /// Guard holds when the condition field differs from the constant.
    NeConst(i64),
}

/// A conditional field range: when `global[i].cond_field` satisfies
/// `kind`, then `global[i].target_field` lies in `[lo, hi]`.
///
/// Mirrors implications in the representation invariant, e.g.
/// `page_desc[pn].parent_pn != -1  =>  parent_idx in [0, PAGE_WORDS)`.
#[derive(Debug, Clone)]
pub struct CondRangeRule {
    /// Global name.
    pub global: String,
    /// Field tested by the guard.
    pub cond_field: String,
    /// Guard shape.
    pub kind: CondKind,
    /// Field whose range the guard implies.
    pub target_field: String,
    /// Inclusive lower bound implied on the target field.
    pub lo: i64,
    /// Inclusive upper bound implied on the target field.
    pub hi: i64,
}

/// Configuration for [`analyze_module`].
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Per-activation cap on entries into any single block; exceeding
    /// it makes the loop "unbounded" for analysis purposes.
    pub max_block_visits: u32,
    /// Global abstract-step budget per entry point.
    pub max_steps: u64,
    /// Unconditional field ranges (representation invariant).
    pub field_ranges: Vec<FieldRangeRule>,
    /// Conditional field ranges (invariant implications).
    pub cond_ranges: Vec<CondRangeRule>,
    /// Findings to suppress.
    pub allow: Vec<AllowRule>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_block_visits: 4096,
            max_steps: 4_000_000,
            field_ranges: Vec::new(),
            cond_ranges: Vec::new(),
            allow: Vec::new(),
        }
    }
}

/// Proven per-loop bounds: the maximum number of times any single
/// activation of a function enters a given block, maximised over all
/// abstract paths.
///
/// The count matches `symx`'s per-frame visit counters exactly: a
/// `for`-loop that runs `N` iterations enters its header `N + 1` times
/// (once from the preheader, `N` times around the back edge). At a
/// symbolic branch, `symx` enters `b` while the frame's entries into it
/// are below `bound(f, b) = Some(k)`, and treats a `k + 1`-th entry as
/// infeasible. A block without a bound is entered once; a re-entry
/// fails closed. Every function reachable from a poisoned entry point
/// (an unbounded loop or an exhausted budget) has no bounds at all.
#[derive(Debug, Clone, Default)]
pub struct LoopBounds {
    map: HashMap<(FuncId, u32), u32>,
}

impl LoopBounds {
    /// The proven entry bound for block `block` of `func`, if any.
    pub fn bound(&self, func: FuncId, block: u32) -> Option<u32> {
        self.map.get(&(func, block)).copied()
    }

    /// Records an observed entry count, keeping the maximum.
    pub fn observe(&mut self, func: FuncId, block: u32, count: u32) {
        let e = self.map.entry((func, block)).or_insert(0);
        *e = (*e).max(count);
    }

    /// Removes every bound for `func`; [`analyze_module`] does so for
    /// each function a poisoned entry point reaches.
    pub fn clear_func(&mut self, func: FuncId) {
        self.map.retain(|&(f, _), _| f != func);
    }

    /// Number of recorded bounds.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no bounds are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merges another bounds map, keeping maxima.
    pub fn merge(&mut self, other: &LoopBounds) {
        for (&(f, b), &c) in &other.map {
            self.observe(f, b, c);
        }
    }
}

/// Result of [`analyze_module`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    /// All findings, including allowlisted ones.
    pub diagnostics: Vec<Diagnostic>,
    /// Proven loop bounds for every analysed function.
    pub bounds: LoopBounds,
}

impl AnalysisResult {
    /// Findings not suppressed by the allowlist.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.allowlisted)
    }

    /// Whether any unsuppressed finding exists.
    pub fn has_findings(&self) -> bool {
        self.unsuppressed().next().is_some()
    }
}

/// Runs the full pass suite over `roots` (entry points) and every
/// function reachable from them.
pub fn analyze_module(
    module: &Module,
    roots: &[FuncId],
    config: &AnalysisConfig,
) -> AnalysisResult {
    let mut result = AnalysisResult::default();
    let graph = CallGraph::build(module);

    // Recursion is fatal for everything downstream (stack bounds, loop
    // bounds, symbolic execution): report it and stop.
    if let Some(cycle) = graph.find_cycle() {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&f| module.func_def(f).name.as_str())
            .collect();
        let span = graph.call_site(cycle[0], cycle[1]).unwrap_or(Span::NONE);
        result.diagnostics.push(Diagnostic {
            code: DiagnosticCode::Recursion,
            func: names[0].to_string(),
            span,
            message: format!("recursive call cycle: {}", names.join(" -> ")),
            allowlisted: false,
        });
        apply_allowlist(&mut result.diagnostics, config);
        return result;
    }

    // Definite initialization per function.
    for f in graph.reachable(roots) {
        init::check_func(module, f, &mut result.diagnostics);
    }

    // Abstract interpretation per entry point: UB lints, finiteness,
    // and loop bounds.
    let mut absint = absint::AbsInt::new(module, config);
    let mut poisoned = Vec::new();
    for &root in roots {
        if !absint.analyze(root, &mut result.diagnostics, &mut result.bounds) {
            poisoned.push(root);
        }
    }
    // A helper a poisoned root shares with a clean root keeps only the
    // clean root's counts, which do not bound the poisoned root's calls:
    // drop every bound reachable from a poisoned root.
    for f in graph.reachable(&poisoned) {
        result.bounds.clear_func(f);
    }

    apply_allowlist(&mut result.diagnostics, config);
    result
}

fn apply_allowlist(diags: &mut [Diagnostic], config: &AnalysisConfig) {
    for d in diags.iter_mut() {
        if config
            .allow
            .iter()
            .any(|a| a.code == d.code.as_str() && a.func == d.func)
        {
            d.allowlisted = true;
        }
    }
}
