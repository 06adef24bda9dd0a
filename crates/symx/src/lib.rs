//! Exhaustive (all-paths) symbolic execution of HIR into SMT terms —
//! the implementation half of the verifier (paper §3.2).
//!
//! The executor unrolls every loop and traverses every branch, and
//! only builds terms: it never calls the solver. Finiteness comes from
//! the static-analysis phase (`hk_hir::analysis`), whose proven
//! [`LoopBounds`] govern unrolling. A symbolic branch enters a block
//! while the frame's entries into it stay below the block's proven
//! bound; a block without a bound is entered once, and a re-entry
//! fails closed with [`SymxError::UnboundedLoop`]. A loop whose branch
//! is concrete on every iteration runs until the instruction budget
//! stops it.
//!
//! Memory is modelled the paper's way: each `(global, field)` pair is an
//! uninterpreted function, writes become guarded write chains, reads
//! resolve through them — implemented by reusing [`hk_spec::SpecState`],
//! so the verifier can compare implementation and specification states
//! cell by cell without any translation layer (the equivalence function
//! of §2.4 becomes name identity).
//!
//! Undefined behaviour is *side-checked*, per §3.2:
//!
//! * immediate UB (division by zero, out-of-range shift amounts — LLVM
//!   poison treated conservatively — and out-of-bounds global accesses)
//!   produces [`SideCheck`] obligations the verifier must refute;
//! * undefined values (uninitialized register reads) become fresh
//!   symbolic variables;
//! * volatile reads (DMA-visible fields) also produce fresh variables on
//!   every read.

use hk_hir::{BinOp, CmpKind, FuncId, Gep, Inst, LoopBounds, Module, Operand, Reg, Terminator};
use hk_smt::{BvBinOp, Ctx, Sort, TermId};
use hk_spec::SpecState;

/// One undefined-behaviour obligation: UB occurs exactly when `cond`
/// holds (the path condition is already conjoined in).
#[derive(Debug, Clone)]
pub struct SideCheck {
    /// Condition under which UB would occur.
    pub cond: TermId,
    /// Kind of UB, human-readable.
    pub kind: String,
    /// Function in which the instruction sits.
    pub func: String,
}

/// One completed execution path.
#[derive(Debug, Clone)]
pub struct Path {
    /// The path condition.
    pub cond: TermId,
    /// The returned value.
    pub ret: TermId,
}

/// Result of exhaustively executing one function.
///
/// All paths share one final state: every store was recorded guarded by
/// the path condition at the time it executed, and sibling paths have
/// disjoint conditions, so the single write chain is simultaneously the
/// final state of every path (a standard guarded-update encoding; it
/// also means error paths — which write nothing — add no terms at all).
#[derive(Debug)]
pub struct SymxResult {
    /// All feasible-by-construction paths (conditions may still be
    /// unsatisfiable; the solver sorts that out).
    pub paths: Vec<Path>,
    /// The merged final state (valid under every path's condition).
    pub state: SpecState,
    /// All UB obligations encountered anywhere.
    pub side_checks: Vec<SideCheck>,
    /// Total symbolic instructions executed (for statistics).
    pub executed: u64,
}

impl SymxResult {
    /// The return value as a single term: the ite-merge of the per-path
    /// returns over their (disjoint, exhaustive) conditions.
    pub fn merged_ret(&self, ctx: &mut Ctx) -> TermId {
        let mut it = self.paths.iter();
        let first = it.next().expect("at least one path");
        let mut ret = first.ret;
        for p in it {
            ret = ctx.ite(p.cond, p.ret, ret);
        }
        ret
    }
}

/// Symbolic execution errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymxError {
    /// The instruction budget was exhausted: the function is not finite.
    BudgetExhausted {
        /// The offending function.
        func: String,
    },
    /// Too many simultaneous paths.
    PathExplosion {
        /// The offending function.
        func: String,
        /// The configured limit.
        limit: usize,
    },
    /// A symbolic branch re-enters a block for which the static
    /// analysis proved no loop bound.
    UnboundedLoop {
        /// The function the block belongs to.
        func: String,
        /// The re-entered block.
        block: u32,
    },
}

impl std::fmt::Display for SymxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymxError::BudgetExhausted { func } => {
                write!(
                    f,
                    "{func}: instruction budget exhausted (non-finite handler?)"
                )
            }
            SymxError::PathExplosion { func, limit } => {
                write!(f, "{func}: more than {limit} paths")
            }
            SymxError::UnboundedLoop { func, block } => {
                write!(
                    f,
                    "{func}: block {block} re-entered without a proven loop bound"
                )
            }
        }
    }
}

impl std::error::Error for SymxError {}

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct SymxConfig {
    /// Total instruction budget across all paths.
    pub max_instructions: u64,
    /// Maximum number of pending + finished paths.
    pub max_paths: usize,
}

impl Default for SymxConfig {
    fn default() -> Self {
        SymxConfig {
            max_instructions: 50_000_000,
            max_paths: 4096,
        }
    }
}

/// Whether a symbolic branch in `frame` may enter `block` once more.
fn may_enter(
    module: &Module,
    bounds: &LoopBounds,
    frame: &Frame,
    block: u32,
) -> Result<bool, SymxError> {
    let entries = frame.visits.get(&block).copied().unwrap_or(0);
    match bounds.bound(frame.func, block) {
        // The analysis proved no execution enters `block` more than
        // `bound` times per activation: an arm at the bound is
        // infeasible.
        Some(bound) => Ok(entries < bound),
        None if entries == 0 => Ok(true),
        None => Err(SymxError::UnboundedLoop {
            func: module.func_def(frame.func).name.clone(),
            block,
        }),
    }
}

/// A call frame.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    regs: Vec<Option<TermId>>,
    block: u32,
    inst: usize,
    /// Where the callee's return value goes in the caller.
    ret_dst: Option<Reg>,
    /// How often each block has been entered in this frame, checked
    /// against the proven loop bounds.
    visits: std::collections::HashMap<u32, u32>,
}

/// An in-flight path. State is shared: see [`SymxResult`].
#[derive(Debug, Clone)]
struct Task {
    cond: TermId,
    stack: Vec<Frame>,
}

/// Exhaustively executes `func` on `state` with the given argument
/// terms, unrolling loops up to the trip-count `bounds` proven by the
/// static analysis (`hk_hir::analysis`; see the module docs).
pub fn sym_exec(
    ctx: &mut Ctx,
    module: &Module,
    func: FuncId,
    args: &[TermId],
    state: SpecState,
    config: &SymxConfig,
    bounds: &LoopBounds,
) -> Result<SymxResult, SymxError> {
    let f = module.func_def(func);
    assert_eq!(
        args.len(),
        f.num_params as usize,
        "symx arity for {}",
        f.name
    );
    let mut regs = vec![None; f.num_regs as usize];
    for (i, &a) in args.iter().enumerate() {
        regs[i] = Some(a);
    }
    let root_name = f.name.clone();
    let mut worklist = vec![Task {
        cond: ctx.tru(),
        stack: vec![Frame {
            func,
            regs,
            block: 0,
            inst: 0,
            ret_dst: None,
            visits: std::collections::HashMap::new(),
        }],
    }];
    let mut result = SymxResult {
        paths: Vec::new(),
        state,
        side_checks: Vec::new(),
        executed: 0,
    };
    let mut fresh_counter = 0u64;
    while let Some(mut task) = worklist.pop() {
        if worklist.len() + result.paths.len() > config.max_paths {
            return Err(SymxError::PathExplosion {
                func: root_name,
                limit: config.max_paths,
            });
        }
        'task: loop {
            if result.executed > config.max_instructions {
                return Err(SymxError::BudgetExhausted { func: root_name });
            }
            let frame = task.stack.last().expect("nonempty stack");
            let fdef = module.func_def(frame.func);
            let block = &fdef.blocks[frame.block as usize];
            // Execute the remaining instructions of the current block.
            if frame.inst < block.insts.len() {
                let inst = block.insts[frame.inst].clone();
                result.executed += 1;
                step(
                    ctx,
                    module,
                    &mut task,
                    &mut result.state,
                    &inst,
                    &mut result.side_checks,
                    &mut fresh_counter,
                );
                // `step` may have pushed a callee frame; only advance the
                // pc of the frame the instruction belonged to.
                continue 'task;
            }
            // Terminator.
            match block.term.clone() {
                Terminator::Jmp(t) => {
                    let frame = task.stack.last_mut().unwrap();
                    *frame.visits.entry(t.0).or_insert(0) += 1;
                    frame.block = t.0;
                    frame.inst = 0;
                }
                Terminator::Br { cond, then_, else_ } => {
                    let fdef_name = fdef.name.clone();
                    let c = operand(ctx, &mut task, cond, &fdef_name, &mut fresh_counter);
                    let zero = ctx.i64_const(0);
                    let taken = ctx.ne(c, zero);
                    match ctx.const_bool(taken) {
                        Some(true) => {
                            let frame = task.stack.last_mut().unwrap();
                            *frame.visits.entry(then_.0).or_insert(0) += 1;
                            frame.block = then_.0;
                            frame.inst = 0;
                        }
                        Some(false) => {
                            let frame = task.stack.last_mut().unwrap();
                            *frame.visits.entry(else_.0).or_insert(0) += 1;
                            frame.block = else_.0;
                            frame.inst = 0;
                        }
                        None => {
                            // Fork; each arm obeys the proven loop bounds.
                            let frame = task.stack.last().unwrap();
                            let else_ok = may_enter(module, bounds, frame, else_.0)?;
                            let then_ok = may_enter(module, bounds, frame, then_.0)?;
                            let not_taken = ctx.not(taken);
                            let else_cond = ctx.and2(task.cond, not_taken);
                            let then_cond = ctx.and2(task.cond, taken);
                            if else_ok {
                                let mut other = task.clone();
                                other.cond = else_cond;
                                let frame = other.stack.last_mut().unwrap();
                                *frame.visits.entry(else_.0).or_insert(0) += 1;
                                frame.block = else_.0;
                                frame.inst = 0;
                                worklist.push(other);
                            }
                            if then_ok {
                                task.cond = then_cond;
                                let frame = task.stack.last_mut().unwrap();
                                *frame.visits.entry(then_.0).or_insert(0) += 1;
                                frame.block = then_.0;
                                frame.inst = 0;
                            } else {
                                break 'task;
                            }
                        }
                    }
                }
                Terminator::Ret(v) => {
                    let fdef_name = fdef.name.clone();
                    let val = operand(ctx, &mut task, v, &fdef_name, &mut fresh_counter);
                    let finished = task.stack.pop().unwrap();
                    if let Some(caller) = task.stack.last_mut() {
                        if let Some(dst) = finished.ret_dst {
                            caller.regs[dst.0 as usize] = Some(val);
                        }
                        caller.inst += 1;
                    } else {
                        result.paths.push(Path {
                            cond: task.cond,
                            ret: val,
                        });
                        break 'task;
                    }
                }
            }
        }
    }
    Ok(result)
}

fn operand(
    ctx: &mut Ctx,
    task: &mut Task,
    op: Operand,
    func_name: &str,
    fresh_counter: &mut u64,
) -> TermId {
    match op {
        Operand::Const(c) => ctx.i64_const(c),
        Operand::Reg(r) => {
            let frame = task.stack.last_mut().unwrap();
            if let Some(t) = frame.regs[r.0 as usize] {
                t
            } else {
                // Undefined value: a fresh symbolic variable (LLVM undef
                // semantics, paper §3.2).
                *fresh_counter += 1;
                let v = ctx.var(
                    format!("undef!{}!r{}!{}", func_name, r.0, fresh_counter),
                    Sort::Bv(64),
                );
                frame.regs[r.0 as usize] = Some(v);
                v
            }
        }
    }
}

/// Resolves a GEP: emits the bounds side checks and returns the
/// (global, field, index terms) triple.
fn resolve_gep(
    ctx: &mut Ctx,
    module: &Module,
    task: &mut Task,
    gep: &Gep,
    func_name: &str,
    side_checks: &mut Vec<SideCheck>,
    fresh_counter: &mut u64,
) -> (String, String, Vec<TermId>, bool) {
    let g = module.global_decl(gep.global);
    let fld = &g.fields[gep.field.0 as usize];
    let index = operand(ctx, task, gep.index, func_name, fresh_counter);
    let sub = operand(ctx, task, gep.sub, func_name, fresh_counter);
    // Bounds side checks (skipped when statically in range).
    for (term, hi, what) in [(index, g.elems, "index"), (sub, fld.elems, "sub-index")] {
        let zero = ctx.i64_const(0);
        let h = ctx.i64_const(hi as i64);
        let ge = ctx.sle(zero, term);
        let lt = ctx.slt(term, h);
        let in_bounds = ctx.and2(ge, lt);
        let oob = ctx.not(in_bounds);
        let cond = ctx.and2(task.cond, oob);
        if ctx.const_bool(cond) != Some(false) {
            side_checks.push(SideCheck {
                cond,
                kind: format!("{what} out of bounds for {}.{}", g.name, fld.name),
                func: func_name.to_string(),
            });
        }
    }
    let mut idx = Vec::new();
    if g.elems > 1 {
        idx.push(index);
    }
    if fld.elems > 1 {
        idx.push(sub);
    }
    (g.name.clone(), fld.name.clone(), idx, fld.volatile)
}

fn step(
    ctx: &mut Ctx,
    module: &Module,
    task: &mut Task,
    state: &mut SpecState,
    inst: &Inst,
    side_checks: &mut Vec<SideCheck>,
    fresh_counter: &mut u64,
) {
    let func_name = {
        let frame = task.stack.last().unwrap();
        module.func_def(frame.func).name.clone()
    };
    match inst {
        Inst::Bin { dst, op, a, b } => {
            let x = operand(ctx, task, *a, &func_name, fresh_counter);
            let y = operand(ctx, task, *b, &func_name, fresh_counter);
            let r = sym_bin(ctx, task, *op, x, y, &func_name, side_checks);
            let frame = task.stack.last_mut().unwrap();
            frame.regs[dst.0 as usize] = Some(r);
            frame.inst += 1;
        }
        Inst::Cmp { dst, op, a, b } => {
            let x = operand(ctx, task, *a, &func_name, fresh_counter);
            let y = operand(ctx, task, *b, &func_name, fresh_counter);
            let c = match op {
                CmpKind::Eq => ctx.eq(x, y),
                CmpKind::Ne => ctx.ne(x, y),
                CmpKind::Slt => ctx.slt(x, y),
                CmpKind::Sle => ctx.sle(x, y),
                CmpKind::Ult => ctx.ult(x, y),
                CmpKind::Ule => ctx.ule(x, y),
            };
            let one = ctx.i64_const(1);
            let zero = ctx.i64_const(0);
            let r = ctx.ite(c, one, zero);
            let frame = task.stack.last_mut().unwrap();
            frame.regs[dst.0 as usize] = Some(r);
            frame.inst += 1;
        }
        Inst::Copy { dst, src } => {
            let v = operand(ctx, task, *src, &func_name, fresh_counter);
            let frame = task.stack.last_mut().unwrap();
            frame.regs[dst.0 as usize] = Some(v);
            frame.inst += 1;
        }
        Inst::Load { dst, gep } => {
            let (g, f, idx, volatile) = resolve_gep(
                ctx,
                module,
                task,
                gep,
                &func_name,
                side_checks,
                fresh_counter,
            );
            let v = if volatile {
                // Volatile read: any value at all (paper §3.2).
                *fresh_counter += 1;
                ctx.var(format!("volatile!{g}.{f}!{fresh_counter}"), Sort::Bv(64))
            } else {
                state.read(ctx, &g, &f, &idx)
            };
            let frame = task.stack.last_mut().unwrap();
            frame.regs[dst.0 as usize] = Some(v);
            frame.inst += 1;
        }
        Inst::Store { gep, val } => {
            let v = operand(ctx, task, *val, &func_name, fresh_counter);
            let (g, f, idx, _volatile) = resolve_gep(
                ctx,
                module,
                task,
                gep,
                &func_name,
                side_checks,
                fresh_counter,
            );
            // Guarded by the path condition: sibling paths have disjoint
            // conditions, so one shared write chain serves all paths.
            let cond = task.cond;
            state.write_if(ctx, cond, &g, &f, &idx, v);
            let frame = task.stack.last_mut().unwrap();
            frame.inst += 1;
        }
        Inst::Call { dst, func, args } => {
            let vals: Vec<TermId> = args
                .iter()
                .map(|&a| operand(ctx, task, a, &func_name, fresh_counter))
                .collect();
            let callee = module.func_def(*func);
            let mut regs = vec![None; callee.num_regs as usize];
            for (i, &v) in vals.iter().enumerate() {
                regs[i] = Some(v);
            }
            task.stack.push(Frame {
                func: *func,
                regs,
                block: 0,
                inst: 0,
                ret_dst: Some(*dst),
                visits: std::collections::HashMap::new(),
            });
        }
    }
}

fn sym_bin(
    ctx: &mut Ctx,
    task: &mut Task,
    op: BinOp,
    x: TermId,
    y: TermId,
    func_name: &str,
    side_checks: &mut Vec<SideCheck>,
) -> TermId {
    match op {
        BinOp::Add => ctx.bv_add(x, y),
        BinOp::Sub => ctx.bv_sub(x, y),
        BinOp::Mul => ctx.bv_mul(x, y),
        BinOp::UDiv | BinOp::URem => {
            let zero = ctx.i64_const(0);
            let div0 = ctx.eq(y, zero);
            let cond = ctx.and2(task.cond, div0);
            if ctx.const_bool(cond) != Some(false) {
                side_checks.push(SideCheck {
                    cond,
                    kind: "division by zero".to_string(),
                    func: func_name.to_string(),
                });
            }
            let o = if op == BinOp::UDiv {
                BvBinOp::Udiv
            } else {
                BvBinOp::Urem
            };
            ctx.bv_bin(o, x, y)
        }
        BinOp::And => ctx.bv_bin(BvBinOp::And, x, y),
        BinOp::Or => ctx.bv_bin(BvBinOp::Or, x, y),
        BinOp::Xor => ctx.bv_bin(BvBinOp::Xor, x, y),
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            // Out-of-range shift amounts are LLVM poison; the verifier
            // treats poison as immediate UB (paper §3.2).
            let zero = ctx.i64_const(0);
            let sixty_four = ctx.i64_const(64);
            let ge = ctx.sle(zero, y);
            let lt = ctx.slt(y, sixty_four);
            let in_range = ctx.and2(ge, lt);
            let oob = ctx.not(in_range);
            let cond = ctx.and2(task.cond, oob);
            if ctx.const_bool(cond) != Some(false) {
                side_checks.push(SideCheck {
                    cond,
                    kind: "shift amount out of range".to_string(),
                    func: func_name.to_string(),
                });
            }
            let o = match op {
                BinOp::Shl => BvBinOp::Shl,
                BinOp::LShr => BvBinOp::Lshr,
                _ => BvBinOp::Ashr,
            };
            ctx.bv_bin(o, x, y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_smt::eval::{Assignment, Value};
    use hk_smt::TermData;

    /// Compiles HyperC source and returns module + shapes.
    fn compile(src: &str, globals: &[(&str, u64, u64)]) -> (Module, Vec<hk_spec::GlobalShape>) {
        let mut module = Module::new();
        for (name, elems, felems) in globals {
            module.declare_global(hk_hir::GlobalDecl {
                name: name.to_string(),
                elems: *elems,
                fields: vec![hk_hir::FieldDecl {
                    name: "value".into(),
                    elems: *felems,
                    volatile: false,
                }],
            });
        }
        let mut c = hk_hcc::Compiler::new(&mut module);
        c.compile(src).expect("compile");
        let shapes = hk_spec::shapes_of(&module);
        (module, shapes)
    }

    /// Executes `name` from a fresh state under `bounds`, with a budget
    /// that stops a divergent loop within a fraction of a second.
    fn exec(
        ctx: &mut Ctx,
        (module, shapes): &(Module, Vec<hk_spec::GlobalShape>),
        name: &str,
        args: &[TermId],
        bounds: &LoopBounds,
    ) -> Result<SymxResult, SymxError> {
        let st = SpecState::fresh(ctx, shapes, hk_abi::KernelParams::verification());
        let cfg = SymxConfig {
            max_instructions: 100_000,
            ..SymxConfig::default()
        };
        sym_exec(
            ctx,
            module,
            module.func(name).unwrap(),
            args,
            st,
            &cfg,
            bounds,
        )
    }

    fn var_id(ctx: &Ctx, t: TermId) -> hk_smt::VarId {
        match ctx.data(t) {
            TermData::Var(v) => *v,
            _ => panic!("not a var"),
        }
    }

    #[test]
    fn straight_line_single_path() {
        let m = compile("i64 f(i64 x) { return x + 1; }", &[]);
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let r = exec(&mut ctx, &m, "f", &[x], &LoopBounds::default()).unwrap();
        assert_eq!(r.paths.len(), 1);
        assert!(r.side_checks.is_empty());
        // ret == x + 1 for any x.
        let mut asg = Assignment::new();
        asg.set_var(var_id(&ctx, x), Value::Bv(41));
        assert_eq!(hk_smt::eval::eval_bv(&ctx, r.paths[0].ret, &asg), 42);
    }

    #[test]
    fn branches_fork_paths() {
        let m = compile("i64 f(i64 x) { if (x > 0) { return 1; } return 2; }", &[]);
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let r = exec(&mut ctx, &m, "f", &[x], &LoopBounds::default()).unwrap();
        assert_eq!(r.paths.len(), 2);
    }

    #[test]
    fn constant_loops_unroll_single_path() {
        let src =
            "i64 f() { i64 s = 0; i64 i; for (i = 0; i < 8; i = i + 1) { s = s + i; } return s; }";
        let mut ctx = Ctx::new();
        let r = exec(
            &mut ctx,
            &compile(src, &[]),
            "f",
            &[],
            &LoopBounds::default(),
        )
        .unwrap();
        assert_eq!(r.paths.len(), 1);
        assert_eq!(ctx.const_value(r.paths[0].ret), Some(28));
    }

    #[test]
    fn exported_loop_bounds_drive_unrolling() {
        // A loop bounded by a validated argument forks once per trip
        // count; the proven bounds both permit the unrolling and stop
        // it at the bound.
        let src = "i64 f(i64 n) { i64 s = 0; i64 i; if (n < 0 || n > 4) { return 0 - 1; } for (i = 0; i < n; i = i + 1) { s = s + 2; } return s; }";
        let m = compile(src, &[]);
        let f = m.0.func("f").unwrap();
        let analysis =
            hk_hir::analysis::analyze_module(&m.0, &[f], &hk_hir::AnalysisConfig::default());
        assert!(!analysis.has_findings(), "{:?}", analysis.diagnostics);
        assert!(!analysis.bounds.is_empty());
        let mut ctx = Ctx::new();
        let n = ctx.var("n", Sort::Bv(64));
        let r = exec(&mut ctx, &m, "f", &[n], &analysis.bounds).unwrap();
        // 2 invalid paths (n<0, n>4) + 5 loop-count paths (0..=4).
        assert_eq!(r.paths.len(), 7);
    }

    #[test]
    fn divergent_loop_fails_closed() {
        // The loop header's second entry from a symbolic branch has no
        // proven bound: execution stops with an error instead of
        // unrolling until the budget runs out.
        let m = compile(
            "i64 f(i64 x) { while (x != 0) { x = x + 0; } return 0; }",
            &[],
        );
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let err = exec(&mut ctx, &m, "f", &[x], &LoopBounds::default());
        assert!(
            matches!(&err, Err(SymxError::UnboundedLoop { func, .. }) if func == "f"),
            "{err:?}"
        );
    }

    #[test]
    fn concrete_divergence_exhausts_budget() {
        // A branch that is concrete on every iteration never consults
        // the bounds; the instruction budget stops it.
        let m = compile(
            "i64 f() { i64 x = 1; while (x != 0) { x = x + 0; } return 0; }",
            &[],
        );
        let err = exec(&mut Ctx::new(), &m, "f", &[], &LoopBounds::default());
        assert!(
            matches!(err, Err(SymxError::BudgetExhausted { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn poisoned_root_shares_no_loop_bounds() {
        // `b` drives `h`'s loop with an unbounded argument, so its
        // analysis is poisoned; `a` proves `h`'s header bound of 3.
        // Applied to `b`, that bound would silently cut the loop after
        // two trips. Every function reachable from `b` must lose its
        // bounds, whichever root the analysis sees first.
        let src = r#"
            i64 h(i64 n) { i64 s = 0; i64 i; for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }
            i64 a() { return h(2); }
            i64 b(i64 x) { return h(x); }
        "#;
        let m = compile(src, &[]);
        let (a, b) = (m.0.func("a").unwrap(), m.0.func("b").unwrap());
        let acfg = hk_hir::AnalysisConfig {
            max_block_visits: 64,
            ..hk_hir::AnalysisConfig::default()
        };
        for roots in [[a, b], [b, a]] {
            let analysis = hk_hir::analysis::analyze_module(&m.0, &roots, &acfg);
            assert!(analysis
                .unsuppressed()
                .any(|d| d.code == hk_hir::DiagnosticCode::UnboundedLoop && d.func == "h"));
            let mut ctx = Ctx::new();
            let x = ctx.var("x", Sort::Bv(64));
            let err = exec(&mut ctx, &m, "b", &[x], &analysis.bounds);
            assert!(
                matches!(&err, Err(SymxError::UnboundedLoop { func, .. }) if func == "h"),
                "{err:?}"
            );
            // `a`'s call is concrete: it needs no bound and still runs.
            let r = exec(&mut ctx, &m, "a", &[], &analysis.bounds).unwrap();
            assert_eq!(r.paths.len(), 1);
            assert_eq!(ctx.const_value(r.paths[0].ret), Some(2));
        }
    }

    #[test]
    fn ub_side_checks_emitted() {
        let m = compile("i64 f(i64 x, i64 y) { return x / y + (x << y); }", &[]);
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let y = ctx.var("y", Sort::Bv(64));
        let r = exec(&mut ctx, &m, "f", &[x, y], &LoopBounds::default()).unwrap();
        assert_eq!(r.side_checks.len(), 2);
        assert!(r.side_checks.iter().any(|c| c.kind.contains("division")));
        assert!(r.side_checks.iter().any(|c| c.kind.contains("shift")));
    }

    #[test]
    fn memory_reads_track_writes() {
        let src = "i64 f(i64 i, i64 v) { table[i] = v; return table[i] + table[0]; }";
        let m = compile(src, &[("table", 8, 1)]);
        let mut ctx = Ctx::new();
        let i = ctx.var("i", Sort::Bv(64));
        let v = ctx.var("v", Sort::Bv(64));
        let r = exec(&mut ctx, &m, "f", &[i, v], &LoopBounds::default()).unwrap();
        assert_eq!(r.paths.len(), 1);
        // Bounds side checks for the three accesses exist (i unconstrained)
        // — the constant index 0 should NOT produce one.
        assert_eq!(r.side_checks.len(), 2);
        // Evaluate: i=3, v=10, base table = 7 everywhere.
        let mut asg = Assignment::new();
        asg.set_var(var_id(&ctx, i), Value::Bv(3));
        asg.set_var(var_id(&ctx, v), Value::Bv(10));
        let base = r.state.map("table", "value").base;
        asg.func_mut(base).default = 7;
        // table[3] = 10; ret = 10 + table[0] = 17.
        assert_eq!(hk_smt::eval::eval_bv(&ctx, r.paths[0].ret, &asg), 17);
    }

    #[test]
    fn helper_calls_inline() {
        let src = r#"
            i64 helper(i64 x) { if (x > 10) { return 1; } return 0; }
            i64 f(i64 x) { if (helper(x) == 1) { return 100; } return 200; }
        "#;
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(64));
        let r = exec(
            &mut ctx,
            &compile(src, &[]),
            "f",
            &[x],
            &LoopBounds::default(),
        )
        .unwrap();
        // helper forks 2 paths; the comparison in f is then constant per
        // path, so 2 total.
        assert_eq!(r.paths.len(), 2);
    }
}
