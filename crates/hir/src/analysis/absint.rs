//! Abstract interpretation over a constant/interval domain.
//!
//! This pass walks every abstract path through an entry point (inlining
//! calls, forking at undecided branches) and proves three things at
//! once:
//!
//! 1. **Finiteness**: every loop terminates within a constant bound.
//!    Per-frame block-entry counts are capped; the observed maxima are
//!    exported as [`LoopBounds`] with counting semantics identical to
//!    `symx`'s per-frame visit counters; they alone govern the symbolic
//!    executor's unrolling.
//! 2. **UB lints**: possible division/remainder by zero, shift amounts
//!    outside `[0, 64)`, and out-of-bounds GEP indexes, flagged with
//!    HyperC source spans.
//! 3. **Value tracking** precise enough that the kernel's validation
//!    idioms (`if (pid < 1 || pid >= NR_PROCS) return;`), branch-free
//!    select patterns (`b + (a - b) * c`), guarded multiplies
//!    (`slot * is_open`), and masked ring-buffer indexes
//!    (`(rp + i) & (PIPE_WORDS - 1)`) all verify without findings.
//!
//! Values are hash-consed into *value numbers* so that equal
//! expressions in different functions (after inlining) share
//! assumptions and interval refinements. The domain additionally
//! carries relational upper-bound facts (`a <= b + delta`, recorded
//! when a comparison against a non-constant bound is narrowed), a
//! per-(global, field) load memo with store invalidation, and
//! optional *field range rules* encoding the kernel's representation
//! invariant (see [`super::FieldRangeRule`], [`super::CondRangeRule`]).

use std::collections::{HashMap, HashSet};

use super::{AnalysisConfig, CondKind, Diagnostic, DiagnosticCode, LoopBounds};
use crate::func::{BinOp, CmpKind, Gep, Inst, Operand, Reg, Span, Terminator};
use crate::interp;
use crate::module::{FieldId, FuncId, GlobalId, Module};

/// A value number: an index into the hash-consed expression table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Vn(u32);

/// Comparison shapes kept after canonicalization (`Ne`, `Sle`, `Ule`
/// are rewritten into `Not` of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CmpOp {
    Eq,
    Slt,
    Ult,
}

/// A canonical expression. `Not(x)` denotes `x == 0 ? 1 : 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Expr {
    Const(i64),
    Opaque(u32),
    Bin(BinOp, Vn, Vn),
    Cmp(CmpOp, Vn, Vn),
    Not(Vn),
}

#[derive(Default)]
struct VnTable {
    exprs: Vec<Expr>,
    map: HashMap<Expr, Vn>,
    next_opaque: u32,
}

impl VnTable {
    fn intern(&mut self, e: Expr) -> Vn {
        if let Some(&v) = self.map.get(&e) {
            return v;
        }
        let v = Vn(self.exprs.len() as u32);
        self.exprs.push(e);
        self.map.insert(e, v);
        v
    }

    fn lookup(&self, e: &Expr) -> Option<Vn> {
        self.map.get(e).copied()
    }

    fn konst(&mut self, v: i64) -> Vn {
        self.intern(Expr::Const(v))
    }

    fn fresh(&mut self) -> Vn {
        let id = self.next_opaque;
        self.next_opaque += 1;
        self.intern(Expr::Opaque(id))
    }

    fn expr(&self, v: Vn) -> Expr {
        self.exprs[v.0 as usize]
    }
}

/// A closed integer interval `[lo, hi]`; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    fn new(lo: i64, hi: i64) -> Interval {
        Interval { lo, hi }
    }

    fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    fn excludes_zero(&self) -> bool {
        !self.is_empty() && !self.contains(0)
    }

    fn intersect(self, o: Interval) -> Interval {
        Interval::new(self.lo.max(o.lo), self.hi.min(o.hi))
    }

    fn hull(self, o: Interval) -> Interval {
        if self.is_empty() {
            return o;
        }
        if o.is_empty() {
            return self;
        }
        Interval::new(self.lo.min(o.lo), self.hi.max(o.hi))
    }

    /// Whether the interval is non-empty and within `[lo, hi]`.
    fn within(&self, lo: i64, hi: i64) -> bool {
        !self.is_empty() && self.lo >= lo && self.hi <= hi
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let end = |v: i64, f: &mut std::fmt::Formatter<'_>| {
            if v == i64::MIN {
                write!(f, "-inf")
            } else if v == i64::MAX {
                write!(f, "+inf")
            } else {
                write!(f, "{v}")
            }
        };
        write!(f, "[")?;
        end(self.lo, f)?;
        write!(f, ", ")?;
        end(self.hi, f)?;
        write!(f, "]")
    }
}

fn clamp128(lo: i128, hi: i128) -> Interval {
    if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
        // The true range leaves i64: the wrapping result can be anything.
        Interval::TOP
    } else {
        Interval::new(lo as i64, hi as i64)
    }
}

/// Smallest `2^k - 1 >= v` for `v >= 0`.
fn pow2_mask(v: i64) -> i64 {
    let mut m: i64 = 0;
    while m < v {
        m = m.wrapping_shl(1) | 1;
        if m == -1 {
            return i64::MAX;
        }
    }
    m
}

fn interval_bin(op: BinOp, a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::TOP;
    }
    match op {
        BinOp::Add => clamp128(a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128),
        BinOp::Sub => clamp128(a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128),
        BinOp::Mul => {
            let ps = [
                a.lo as i128 * b.lo as i128,
                a.lo as i128 * b.hi as i128,
                a.hi as i128 * b.lo as i128,
                a.hi as i128 * b.hi as i128,
            ];
            clamp128(*ps.iter().min().unwrap(), *ps.iter().max().unwrap())
        }
        BinOp::UDiv => {
            if a.lo >= 0 && b.lo >= 1 {
                Interval::new(a.lo / b.hi, a.hi / b.lo)
            } else {
                Interval::TOP
            }
        }
        BinOp::URem => {
            if a.lo >= 0 && b.lo >= 1 {
                Interval::new(0, (b.hi - 1).min(a.hi))
            } else {
                Interval::TOP
            }
        }
        BinOp::And => {
            // If either side is wholly non-negative, the result is
            // bounded by it regardless of the other side's sign.
            let mut hi = i64::MAX;
            if a.lo >= 0 {
                hi = hi.min(a.hi);
            }
            if b.lo >= 0 {
                hi = hi.min(b.hi);
            }
            if hi < i64::MAX {
                Interval::new(0, hi)
            } else {
                Interval::TOP
            }
        }
        BinOp::Or => {
            if a.lo >= 0 && b.lo >= 0 {
                Interval::new(a.lo.max(b.lo), pow2_mask(a.hi.max(b.hi)))
            } else {
                Interval::TOP
            }
        }
        BinOp::Xor => {
            if a.lo >= 0 && b.lo >= 0 {
                Interval::new(0, pow2_mask(a.hi.max(b.hi)))
            } else {
                Interval::TOP
            }
        }
        BinOp::Shl => {
            if a.lo >= 0 && b.within(0, 63) {
                clamp128((a.lo as i128) << b.lo as u32, (a.hi as i128) << b.hi as u32)
            } else {
                Interval::TOP
            }
        }
        BinOp::LShr => {
            if a.lo >= 0 && b.within(0, 63) {
                Interval::new(a.lo >> b.hi, a.hi >> b.lo)
            } else {
                Interval::TOP
            }
        }
        BinOp::AShr => {
            if b.within(0, 63) {
                let cands = [a.lo >> b.lo, a.lo >> b.hi, a.hi >> b.lo, a.hi >> b.hi];
                Interval::new(*cands.iter().min().unwrap(), *cands.iter().max().unwrap())
            } else {
                Interval::TOP
            }
        }
    }
}

fn interval_cmp(op: CmpOp, a: Interval, b: Interval) -> Interval {
    if a.is_empty() || b.is_empty() {
        return Interval::new(0, 1);
    }
    match op {
        CmpOp::Eq => {
            if a.hi < b.lo || b.hi < a.lo {
                Interval::point(0)
            } else if a.lo == a.hi && a == b {
                Interval::point(1)
            } else {
                Interval::new(0, 1)
            }
        }
        CmpOp::Slt => {
            if a.hi < b.lo {
                Interval::point(1)
            } else if a.lo >= b.hi {
                Interval::point(0)
            } else {
                Interval::new(0, 1)
            }
        }
        CmpOp::Ult => {
            // Only decide when signs make unsigned order match signed.
            if a.lo >= 0 && b.lo >= 0 {
                interval_cmp(CmpOp::Slt, a, b)
            } else {
                Interval::new(0, 1)
            }
        }
    }
}

/// The narrowable, fork-cloned part of a path: intervals, boolean
/// assumptions, and relational upper-bound facts, all keyed by [`Vn`].
#[derive(Clone, Default)]
struct Env {
    intervals: HashMap<Vn, Interval>,
    assumptions: HashMap<Vn, bool>,
    /// `key <= bound + delta` for each `(bound, delta)`.
    facts: HashMap<Vn, Vec<(Vn, i64)>>,
}

type Memo = HashMap<(GlobalId, FieldId, Vn, Vn), Vn>;

#[derive(Clone)]
struct Frame {
    func: FuncId,
    regs: Vec<Option<Vn>>,
    block: u32,
    inst: usize,
    ret_dst: Option<Reg>,
    visits: HashMap<u32, u32>,
}

#[derive(Clone)]
struct PathState {
    env: Env,
    memo: Memo,
    dirty: HashMap<(GlobalId, FieldId), Interval>,
    frames: Vec<Frame>,
}

struct RFieldRange {
    global: GlobalId,
    field: FieldId,
    iv: Interval,
    min_index: u64,
}

struct RCondRange {
    global: GlobalId,
    cond_field: FieldId,
    kind: CondKind,
    target_field: FieldId,
    iv: Interval,
}

/// The abstract interpreter; one instance analyses many entry points,
/// sharing its value-number table.
pub(crate) struct AbsInt<'a> {
    module: &'a Module,
    config: &'a AnalysisConfig,
    field_ranges: Vec<RFieldRange>,
    cond_ranges: Vec<RCondRange>,
    vns: VnTable,
    zero: Vn,
    /// Dedup of reported findings by (code, func, block, inst-or-term).
    reported: HashSet<(DiagnosticCode, FuncId, u32, u32)>,
}

const REVAL_DEPTH: u32 = 6;
const MAX_FACTS_PER_VN: usize = 4;

impl<'a> AbsInt<'a> {
    pub(crate) fn new(module: &'a Module, config: &'a AnalysisConfig) -> AbsInt<'a> {
        let mut vns = VnTable::default();
        let zero = vns.konst(0);
        let mut field_ranges = Vec::new();
        for r in &config.field_ranges {
            let Some(g) = module.global(&r.global) else {
                continue;
            };
            let Some(f) = module.global_decl(g).field(&r.field) else {
                continue;
            };
            field_ranges.push(RFieldRange {
                global: g,
                field: f,
                iv: Interval::new(r.lo, r.hi),
                min_index: r.min_index,
            });
        }
        let mut cond_ranges = Vec::new();
        for r in &config.cond_ranges {
            let Some(g) = module.global(&r.global) else {
                continue;
            };
            let decl = module.global_decl(g);
            let (Some(cf), Some(tf)) = (decl.field(&r.cond_field), decl.field(&r.target_field))
            else {
                continue;
            };
            cond_ranges.push(RCondRange {
                global: g,
                cond_field: cf,
                kind: r.kind,
                target_field: tf,
                iv: Interval::new(r.lo, r.hi),
            });
        }
        AbsInt {
            module,
            config,
            field_ranges,
            cond_ranges,
            vns,
            zero,
            reported: HashSet::new(),
        }
    }

    /// Analyses every abstract path through `root`, appending findings
    /// to `diags`. When the analysis completes within budget and every
    /// loop stays bounded, merges the proven loop bounds into `bounds`
    /// and returns true; otherwise the root is poisoned and this
    /// returns false.
    pub(crate) fn analyze(
        &mut self,
        root: FuncId,
        diags: &mut Vec<Diagnostic>,
        bounds: &mut LoopBounds,
    ) -> bool {
        let module = self.module;
        let func = module.func_def(root);
        let mut frame = Frame {
            func: root,
            regs: vec![None; func.num_regs as usize],
            block: 0,
            inst: 0,
            ret_dst: None,
            visits: HashMap::new(),
        };
        for p in 0..func.num_params {
            frame.regs[p as usize] = Some(self.vns.fresh());
        }
        let mut local = LoopBounds::default();
        let mut poisoned = false;
        let mut steps: u64 = 0;
        let mut worklist = vec![PathState {
            env: Env::default(),
            memo: Memo::new(),
            dirty: HashMap::new(),
            frames: vec![frame],
        }];
        while let Some(st) = worklist.pop() {
            if !self.run_path(
                st,
                &mut worklist,
                diags,
                &mut local,
                &mut steps,
                &mut poisoned,
            ) {
                // Budget exhausted: partial visit counts are not proofs.
                diags.push(Diagnostic {
                    code: DiagnosticCode::AnalysisBudget,
                    func: func.name.clone(),
                    span: Span::NONE,
                    message: format!(
                        "analysis budget of {} steps exhausted; no loop bounds exported",
                        self.config.max_steps
                    ),
                    allowlisted: false,
                });
                poisoned = true;
                break;
            }
        }
        if !poisoned {
            bounds.merge(&local);
        }
        !poisoned
    }

    /// Runs one path to completion; forked siblings go to `worklist`.
    /// Returns false when the global step budget is exhausted.
    fn run_path(
        &mut self,
        mut st: PathState,
        worklist: &mut Vec<PathState>,
        diags: &mut Vec<Diagnostic>,
        bounds: &mut LoopBounds,
        steps: &mut u64,
        poisoned: &mut bool,
    ) -> bool {
        let module = self.module;
        loop {
            *steps += 1;
            if *steps > self.config.max_steps {
                return false;
            }
            let fi = st.frames.len() - 1;
            let (func_id, block, inst_idx) = {
                let f = &st.frames[fi];
                (f.func, f.block, f.inst)
            };
            let func = module.func_def(func_id);
            let blk = &func.blocks[block as usize];
            if inst_idx < blk.insts.len() {
                st.frames[fi].inst += 1;
                let span = blk.inst_span(inst_idx);
                let site = (func_id, block, inst_idx as u32);
                self.exec_inst(&mut st, &blk.insts[inst_idx], span, site, diags);
                continue;
            }
            match &blk.term {
                Terminator::Jmp(t) => {
                    if !self.enter(&mut st, t.0, bounds, diags, poisoned) {
                        return true;
                    }
                }
                Terminator::Br { cond, then_, else_ } => {
                    let vc = self.op_vn(&mut st, *cond);
                    let decided = st.env.assumptions.get(&vc).copied().or_else(|| {
                        let iv = self.reval(&st.env, vc);
                        if iv.excludes_zero() {
                            Some(true)
                        } else if iv == Interval::point(0) {
                            Some(false)
                        } else {
                            None
                        }
                    });
                    match decided {
                        Some(true) => {
                            if !self.enter(&mut st, then_.0, bounds, diags, poisoned) {
                                return true;
                            }
                        }
                        Some(false) => {
                            if !self.enter(&mut st, else_.0, bounds, diags, poisoned) {
                                return true;
                            }
                        }
                        None => {
                            let mut else_st = st.clone();
                            if self.narrow(&mut else_st.env, &else_st.memo, vc, false)
                                && self.enter(&mut else_st, else_.0, bounds, diags, poisoned)
                            {
                                worklist.push(else_st);
                            }
                            if !(self.narrow(&mut st.env, &st.memo, vc, true)
                                && self.enter(&mut st, then_.0, bounds, diags, poisoned))
                            {
                                return true;
                            }
                        }
                    }
                }
                Terminator::Ret(v) => {
                    let vr = self.op_vn(&mut st, *v);
                    let done = st.frames.pop().expect("active frame");
                    match st.frames.last_mut() {
                        Some(caller) => {
                            if let Some(dst) = done.ret_dst {
                                caller.regs[dst.0 as usize] = Some(vr);
                            }
                        }
                        None => return true, // path complete
                    }
                }
            }
        }
    }

    /// Enters `target` in the current frame, bumping its visit count.
    /// Returns false (killing the path) when the per-activation cap is
    /// exceeded, which also reports an unbounded-loop finding.
    fn enter(
        &mut self,
        st: &mut PathState,
        target: u32,
        bounds: &mut LoopBounds,
        diags: &mut Vec<Diagnostic>,
        poisoned: &mut bool,
    ) -> bool {
        let frame = st.frames.last_mut().expect("active frame");
        let c = frame.visits.entry(target).or_insert(0);
        *c += 1;
        let count = *c;
        let func_id = frame.func;
        bounds.observe(func_id, target, count);
        if count > self.config.max_block_visits {
            *poisoned = true;
            let func = self.module.func_def(func_id);
            let blk = &func.blocks[target as usize];
            let span = if !blk.spans.is_empty() {
                blk.spans[0]
            } else {
                blk.term_span
            };
            self.report(
                diags,
                DiagnosticCode::UnboundedLoop,
                (func_id, target, u32::MAX),
                span,
                format!(
                    "loop entered more than {} times without a provable constant bound",
                    self.config.max_block_visits
                ),
            );
            return false;
        }
        let frame = st.frames.last_mut().expect("active frame");
        frame.block = target;
        frame.inst = 0;
        true
    }

    fn report(
        &mut self,
        diags: &mut Vec<Diagnostic>,
        code: DiagnosticCode,
        site: (FuncId, u32, u32),
        span: Span,
        message: String,
    ) {
        if !self.reported.insert((code, site.0, site.1, site.2)) {
            return;
        }
        diags.push(Diagnostic {
            code,
            func: self.module.func_def(site.0).name.clone(),
            span,
            message,
            allowlisted: false,
        });
    }

    fn op_vn(&mut self, st: &mut PathState, op: Operand) -> Vn {
        match op {
            Operand::Const(c) => self.vns.konst(c),
            Operand::Reg(r) => {
                let frame = st.frames.last_mut().expect("active frame");
                match frame.regs[r.0 as usize] {
                    Some(v) => v,
                    None => {
                        // Undef read; the definite-init pass reports it.
                        let v = self.vns.fresh();
                        frame.regs[r.0 as usize] = Some(v);
                        v
                    }
                }
            }
        }
    }

    fn set_reg(&mut self, st: &mut PathState, r: Reg, v: Vn) {
        let frame = st.frames.last_mut().expect("active frame");
        frame.regs[r.0 as usize] = Some(v);
    }

    fn exec_inst(
        &mut self,
        st: &mut PathState,
        inst: &Inst,
        span: Span,
        site: (FuncId, u32, u32),
        diags: &mut Vec<Diagnostic>,
    ) {
        match inst {
            Inst::Bin { dst, op, a, b } => {
                let va = self.op_vn(st, *a);
                let vb = self.op_vn(st, *b);
                match op {
                    BinOp::UDiv | BinOp::URem => {
                        let iv = self.reval(&st.env, vb);
                        let known_nonzero =
                            iv.excludes_zero() || st.env.assumptions.get(&vb) == Some(&true);
                        if !known_nonzero {
                            self.report(
                                diags,
                                DiagnosticCode::PossibleDivByZero,
                                site,
                                span,
                                format!("divisor may be zero (interval {iv})"),
                            );
                        }
                    }
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        let iv = self.reval(&st.env, vb);
                        if !iv.within(0, 63) {
                            self.report(
                                diags,
                                DiagnosticCode::PossibleShiftRange,
                                site,
                                span,
                                format!("shift amount may fall outside [0, 64) (interval {iv})"),
                            );
                        }
                    }
                    _ => {}
                }
                let vn = self.mk_bin(&mut st.env, &st.memo, *op, va, vb);
                self.set_reg(st, *dst, vn);
            }
            Inst::Cmp { dst, op, a, b } => {
                let va = self.op_vn(st, *a);
                let vb = self.op_vn(st, *b);
                let vn = self.mk_cmp(&mut st.env, *op, va, vb);
                self.set_reg(st, *dst, vn);
            }
            Inst::Copy { dst, src } => {
                let v = self.op_vn(st, *src);
                self.set_reg(st, *dst, v);
            }
            Inst::Load { dst, gep } => {
                let (vidx, vsub) = self.check_gep(st, gep, span, site, diags);
                let v = self.load_value(st, gep.global, gep.field, vidx, vsub);
                self.set_reg(st, *dst, v);
            }
            Inst::Store { gep, val } => {
                let (vidx, vsub) = self.check_gep(st, gep, span, site, diags);
                let vval = self.op_vn(st, *val);
                let g = gep.global;
                let f = gep.field;
                if !self.module.global_decl(g).fields[f.0 as usize].volatile {
                    // Invalidate possibly-aliasing memo entries; the
                    // exact slot remembers the stored value.
                    st.memo.retain(|&(mg, mf, mi, ms), _| {
                        mg != g || mf != f || (mi == vidx && ms == vsub)
                    });
                    st.memo.insert((g, f, vidx, vsub), vval);
                }
                let iv = self.reval(&st.env, vval);
                st.dirty
                    .entry((g, f))
                    .and_modify(|d| *d = d.hull(iv))
                    .or_insert(iv);
            }
            Inst::Call { dst, func, args } => {
                let mut avs = Vec::with_capacity(args.len());
                for a in args {
                    avs.push(self.op_vn(st, *a));
                }
                let callee = self.module.func_def(*func);
                let mut regs = vec![None; callee.num_regs as usize];
                for (i, v) in avs.into_iter().enumerate() {
                    regs[i] = Some(v);
                }
                st.frames.push(Frame {
                    func: *func,
                    regs,
                    block: 0,
                    inst: 0,
                    ret_dst: Some(*dst),
                    visits: HashMap::new(),
                });
            }
        }
    }

    /// Bounds-checks a GEP, reporting findings; returns (index, sub)
    /// value numbers.
    fn check_gep(
        &mut self,
        st: &mut PathState,
        gep: &Gep,
        span: Span,
        site: (FuncId, u32, u32),
        diags: &mut Vec<Diagnostic>,
    ) -> (Vn, Vn) {
        let vidx = self.op_vn(st, gep.index);
        let vsub = self.op_vn(st, gep.sub);
        let decl = self.module.global_decl(gep.global);
        let field = &decl.fields[gep.field.0 as usize];
        let ii = self.reval(&st.env, vidx);
        if !ii.within(0, decl.elems as i64 - 1) {
            self.report(
                diags,
                DiagnosticCode::PossibleOobIndex,
                site,
                span,
                format!(
                    "index into `{}` may fall outside [0, {}) (interval {ii})",
                    decl.name, decl.elems
                ),
            );
        }
        let is = self.reval(&st.env, vsub);
        if !is.within(0, field.elems as i64 - 1) {
            self.report(
                diags,
                DiagnosticCode::PossibleOobSub,
                site,
                span,
                format!(
                    "index into field `{}` of `{}` may fall outside [0, {}) (interval {is})",
                    field.name, decl.name, field.elems
                ),
            );
        }
        (vidx, vsub)
    }

    /// The value of a load, via the memo or a fresh opaque value
    /// constrained by the field-range rules.
    fn load_value(
        &mut self,
        st: &mut PathState,
        g: GlobalId,
        f: FieldId,
        vidx: Vn,
        vsub: Vn,
    ) -> Vn {
        let decl = self.module.global_decl(g);
        if decl.fields[f.0 as usize].volatile {
            // DMA-visible memory reads as anything, every time.
            return self.vns.fresh();
        }
        if let Some(&v) = st.memo.get(&(g, f, vidx, vsub)) {
            return v;
        }
        let fresh = self.vns.fresh();
        let mut iv = Interval::TOP;
        if let Some(rule) = self
            .field_ranges
            .iter()
            .find(|r| r.global == g && r.field == f)
        {
            let ii = self.reval(&st.env, vidx);
            if ii.within(rule.min_index as i64, decl.elems as i64 - 1) {
                let mut base = rule.iv;
                if let Some(d) = st.dirty.get(&(g, f)) {
                    base = base.hull(*d);
                }
                iv = base;
            }
        }
        for ri in 0..self.cond_ranges.len() {
            let (rg, cf, kind, tf, riv) = {
                let r = &self.cond_ranges[ri];
                (r.global, r.cond_field, r.kind, r.target_field, r.iv)
            };
            if rg != g || tf != f {
                continue;
            }
            if let Some(&cvn) = st.memo.get(&(g, cf, vidx, self.zero)) {
                if self.cond_guard_holds(&st.env, cvn, kind) {
                    iv = iv.intersect(riv);
                }
            }
        }
        self.tighten(&mut st.env, fresh, iv);
        st.memo.insert((g, f, vidx, vsub), fresh);
        fresh
    }

    /// Whether a conditional-range guard provably holds for the
    /// memoized condition value `cvn`.
    fn cond_guard_holds(&self, env: &Env, cvn: Vn, kind: CondKind) -> bool {
        let iv = self.reval(env, cvn);
        match kind {
            CondKind::EqConst(k) => {
                if iv == Interval::point(k) {
                    return true;
                }
                self.eq_assumption(env, cvn, k) == Some(true)
            }
            CondKind::NeConst(k) => {
                if !iv.is_empty() && !iv.contains(k) {
                    return true;
                }
                self.eq_assumption(env, cvn, k) == Some(false)
            }
        }
    }

    /// Looks up the recorded truth of `cvn == k`, if any.
    fn eq_assumption(&self, env: &Env, cvn: Vn, k: i64) -> Option<bool> {
        if k == 0 {
            // `x == 0` canonicalizes to `Not(x)`, and assumptions on
            // `Not(x)` are always pushed down onto `x` itself.
            return env.assumptions.get(&cvn).map(|&t| !t);
        }
        let kv = self.vns.lookup(&Expr::Const(k))?;
        let (a, b) = if cvn <= kv { (cvn, kv) } else { (kv, cvn) };
        let eq = self.vns.lookup(&Expr::Cmp(CmpOp::Eq, a, b))?;
        env.assumptions.get(&eq).copied()
    }

    fn tighten(&self, env: &mut Env, vn: Vn, iv: Interval) {
        if let Expr::Const(_) = self.vns.expr(vn) {
            return;
        }
        env.intervals
            .entry(vn)
            .and_modify(|cur| *cur = cur.intersect(iv))
            .or_insert(iv);
    }

    /// Re-evaluates `vn`'s interval from its structure, the stored
    /// per-path interval, and relational upper-bound facts.
    fn reval(&self, env: &Env, vn: Vn) -> Interval {
        self.reval_d(env, vn, REVAL_DEPTH)
    }

    fn reval_d(&self, env: &Env, vn: Vn, d: u32) -> Interval {
        let stored = env.intervals.get(&vn).copied().unwrap_or(Interval::TOP);
        if d == 0 {
            return stored;
        }
        let structural = match self.vns.expr(vn) {
            Expr::Const(c) => Interval::point(c),
            Expr::Opaque(_) => Interval::TOP,
            Expr::Not(x) => {
                let ix = self.reval_d(env, x, d - 1);
                if ix.excludes_zero() {
                    Interval::point(0)
                } else if ix == Interval::point(0) {
                    Interval::point(1)
                } else {
                    Interval::new(0, 1)
                }
            }
            Expr::Bin(op, a, b) => {
                interval_bin(op, self.reval_d(env, a, d - 1), self.reval_d(env, b, d - 1))
            }
            Expr::Cmp(op, a, b) => {
                interval_cmp(op, self.reval_d(env, a, d - 1), self.reval_d(env, b, d - 1))
            }
        };
        let mut iv = stored.intersect(structural);
        if let Some(fs) = env.facts.get(&vn) {
            for &(bvn, delta) in fs {
                let bh = self.reval_d(env, bvn, d - 1).hi.saturating_add(delta);
                iv.hi = iv.hi.min(bh);
            }
        }
        iv
    }

    /// Re-evaluates `target` in a scratch copy of `env` narrowed under
    /// `guard == truth`; `None` if the guard is infeasible.
    fn reval_under(
        &self,
        env: &Env,
        memo: &Memo,
        guard: Vn,
        truth: bool,
        target: Vn,
    ) -> Option<Interval> {
        let mut scratch = env.clone();
        if !self.narrow(&mut scratch, memo, guard, truth) {
            return None;
        }
        Some(self.reval(&scratch, target))
    }

    fn mk_bin(&mut self, env: &mut Env, memo: &Memo, op: BinOp, va: Vn, vb: Vn) -> Vn {
        let ea = self.vns.expr(va);
        let eb = self.vns.expr(vb);
        if let (Expr::Const(x), Expr::Const(y)) = (ea, eb) {
            if let Ok(v) = interp::eval_bin(op, x, y) {
                return self.vns.konst(v);
            }
        }
        // Algebraic identities keep value numbers canonical across
        // loop iterations and inlined helpers.
        match (op, ea, eb) {
            (BinOp::Add, Expr::Const(0), _) => return vb,
            (BinOp::Add | BinOp::Sub, _, Expr::Const(0)) => return va,
            (BinOp::Mul, Expr::Const(0), _) | (BinOp::Mul, _, Expr::Const(0)) => return self.zero,
            (BinOp::Mul, Expr::Const(1), _) => return vb,
            (BinOp::Mul, _, Expr::Const(1)) => return va,
            (BinOp::And, Expr::Const(-1), _) | (BinOp::Or | BinOp::Xor, Expr::Const(0), _) => {
                return vb
            }
            (BinOp::And, _, Expr::Const(-1)) | (BinOp::Or | BinOp::Xor, _, Expr::Const(0)) => {
                return va
            }
            (BinOp::And, Expr::Const(0), _) | (BinOp::And, _, Expr::Const(0)) => return self.zero,
            (BinOp::Shl | BinOp::LShr | BinOp::AShr, _, Expr::Const(0)) => return va,
            _ => {}
        }
        let commutative = matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        );
        let (ca, cb) = if commutative && vb < va {
            (vb, va)
        } else {
            (va, vb)
        };
        let vn = self.vns.intern(Expr::Bin(op, ca, cb));
        let ia = self.reval(env, ca);
        let ib = self.reval(env, cb);
        let mut iv = interval_bin(op, ia, ib);
        if op == BinOp::Mul {
            // Guarded multiply `x * flag` with `flag in [0,1]`: the
            // result is 0 or x-refined-under-the-guard.
            for (guard, x) in [(ca, cb), (cb, ca)] {
                let ig = self.reval(env, guard);
                if !matches!(self.vns.expr(guard), Expr::Const(_)) && ig.within(0, 1) {
                    let refined = match self.reval_under(env, memo, guard, true, x) {
                        Some(ix) => Interval::point(0).hull(ix),
                        None => Interval::point(0),
                    };
                    iv = iv.intersect(refined);
                }
            }
        }
        if op == BinOp::Add {
            // Branch-free select `x + (a - x) * c` with `c in [0,1]`
            // (the kernel's `blend`): result is x (c=0) or a (c=1).
            for (m, x) in [(ca, cb), (cb, ca)] {
                if let Expr::Bin(BinOp::Mul, p, q) = self.vns.expr(m) {
                    for (s, c) in [(p, q), (q, p)] {
                        if let Expr::Bin(BinOp::Sub, av, bv) = self.vns.expr(s) {
                            if bv == x && self.reval(env, c).within(0, 1) {
                                let mut h = self.reval(env, x);
                                if let Some(iav) = self.reval_under(env, memo, c, true, av) {
                                    h = h.hull(iav);
                                }
                                iv = iv.intersect(h);
                            }
                        }
                    }
                }
            }
        }
        self.tighten(env, vn, iv);
        vn
    }

    fn mk_cmp(&mut self, env: &mut Env, op: CmpKind, va: Vn, vb: Vn) -> Vn {
        match op {
            CmpKind::Eq => self.mk_eq(env, va, vb),
            CmpKind::Ne => {
                let eq = self.mk_eq(env, va, vb);
                self.mk_not(env, eq)
            }
            CmpKind::Slt => self.mk_ord(env, CmpOp::Slt, va, vb),
            CmpKind::Sle => {
                let lt = self.mk_ord(env, CmpOp::Slt, vb, va);
                self.mk_not(env, lt)
            }
            CmpKind::Ult => self.mk_ord(env, CmpOp::Ult, va, vb),
            CmpKind::Ule => {
                let lt = self.mk_ord(env, CmpOp::Ult, vb, va);
                self.mk_not(env, lt)
            }
        }
    }

    fn mk_eq(&mut self, env: &mut Env, va: Vn, vb: Vn) -> Vn {
        if va == vb {
            return self.vns.konst(1);
        }
        let ea = self.vns.expr(va);
        let eb = self.vns.expr(vb);
        if let (Expr::Const(x), Expr::Const(y)) = (ea, eb) {
            return self.vns.konst((x == y) as i64);
        }
        // `x == 0` is `Not(x)`, for any x.
        if eb == Expr::Const(0) {
            return self.mk_not(env, va);
        }
        if ea == Expr::Const(0) {
            return self.mk_not(env, vb);
        }
        let (a, b) = if vb < va { (vb, va) } else { (va, vb) };
        let vn = self.vns.intern(Expr::Cmp(CmpOp::Eq, a, b));
        let iv = interval_cmp(CmpOp::Eq, self.reval(env, a), self.reval(env, b));
        self.tighten(env, vn, iv);
        vn
    }

    fn mk_ord(&mut self, env: &mut Env, op: CmpOp, va: Vn, vb: Vn) -> Vn {
        if va == vb {
            return self.zero;
        }
        if let (Expr::Const(x), Expr::Const(y)) = (self.vns.expr(va), self.vns.expr(vb)) {
            let r = match op {
                CmpOp::Slt => x < y,
                CmpOp::Ult => (x as u64) < (y as u64),
                CmpOp::Eq => unreachable!(),
            };
            return self.vns.konst(r as i64);
        }
        let vn = self.vns.intern(Expr::Cmp(op, va, vb));
        let iv = interval_cmp(op, self.reval(env, va), self.reval(env, vb));
        self.tighten(env, vn, iv);
        vn
    }

    fn mk_not(&mut self, env: &mut Env, x: Vn) -> Vn {
        match self.vns.expr(x) {
            Expr::Const(c) => return self.vns.konst((c == 0) as i64),
            Expr::Not(y) => {
                // `!!y == y` only when y is boolean-valued.
                if matches!(self.vns.expr(y), Expr::Cmp(..) | Expr::Not(_)) {
                    return y;
                }
            }
            _ => {}
        }
        let vn = self.vns.intern(Expr::Not(x));
        let ix = self.reval(env, x);
        let iv = if ix.excludes_zero() {
            Interval::point(0)
        } else if ix == Interval::point(0) {
            Interval::point(1)
        } else {
            Interval::new(0, 1)
        };
        self.tighten(env, vn, iv);
        vn
    }

    /// Assumes `vn != 0` (truth) or `vn == 0` (!truth), narrowing
    /// intervals structurally. Returns false when the assumption
    /// contradicts the current state (the path is infeasible).
    fn narrow(&self, env: &mut Env, memo: &Memo, vn: Vn, truth: bool) -> bool {
        if let Some(&t) = env.assumptions.get(&vn) {
            return t == truth;
        }
        let iv = self.reval(env, vn);
        if truth && iv == Interval::point(0) {
            return false;
        }
        if !truth && iv.excludes_zero() {
            return false;
        }
        if iv.is_empty() {
            return false;
        }
        env.assumptions.insert(vn, truth);
        // Narrow this value's own interval.
        if truth {
            let mut nv = iv;
            if nv.lo == 0 {
                nv.lo = 1;
            }
            if nv.hi == 0 {
                nv.hi = -1;
            }
            if nv.is_empty() {
                return false;
            }
            self.tighten(env, vn, nv);
        } else {
            self.tighten(env, vn, Interval::point(0));
        }
        // Structural descent.
        let descended = match self.vns.expr(vn) {
            Expr::Not(x) => self.narrow(env, memo, x, !truth),
            Expr::Cmp(CmpOp::Eq, a, b) => self.narrow_eq(env, memo, a, b, truth),
            Expr::Cmp(CmpOp::Slt, a, b) => self.narrow_slt(env, a, b, truth),
            Expr::Cmp(CmpOp::Ult, a, b) => {
                let ia = self.reval(env, a);
                let ib = self.reval(env, b);
                if truth {
                    // a <u b with b >= 0 pins a into [0, b.hi - 1].
                    if ib.lo >= 0 {
                        let na = ia.intersect(Interval::new(0, ib.hi.saturating_sub(1)));
                        if na.is_empty() {
                            return false;
                        }
                        self.tighten(env, a, na);
                    }
                    true
                } else if ia.lo >= 0 && ib.lo >= 0 {
                    self.narrow_slt(env, a, b, false)
                } else {
                    true
                }
            }
            // x & y != 0 implies both operands are nonzero.
            Expr::Bin(BinOp::And, a, b) if truth => {
                self.narrow(env, memo, a, true) && self.narrow(env, memo, b, true)
            }
            // x | y == 0 implies both operands are zero.
            Expr::Bin(BinOp::Or, a, b) if !truth => {
                self.narrow(env, memo, a, false) && self.narrow(env, memo, b, false)
            }
            _ => true,
        };
        if !descended {
            return false;
        }
        // A directly-memoized condition field being zero/nonzero may
        // unlock a conditional range (guards against constant 0).
        self.apply_cond_rules(env, memo, vn, 0, !truth)
    }

    fn narrow_eq(&self, env: &mut Env, memo: &Memo, a: Vn, b: Vn, truth: bool) -> bool {
        let ia = self.reval(env, a);
        let ib = self.reval(env, b);
        if truth {
            let m = ia.intersect(ib);
            if m.is_empty() {
                return false;
            }
            self.tighten(env, a, m);
            self.tighten(env, b, m);
        } else {
            // Trim matching endpoints when one side is constant.
            for (cv, ov, oiv) in [(a, b, ib), (b, a, ia)] {
                if let Expr::Const(k) = self.vns.expr(cv) {
                    let mut nv = oiv;
                    if nv.lo == k {
                        nv.lo = k.saturating_add(1);
                    }
                    if nv.hi == k {
                        nv.hi = k.saturating_sub(1);
                    }
                    if nv.is_empty() {
                        return false;
                    }
                    self.tighten(env, ov, nv);
                }
            }
        }
        // Conditional ranges keyed on `field == k` / `field != k`.
        for (cv, ov) in [(a, b), (b, a)] {
            if let Expr::Const(k) = self.vns.expr(cv) {
                if !self.apply_cond_rules(env, memo, ov, k, truth) {
                    return false;
                }
            }
        }
        true
    }

    fn narrow_slt(&self, env: &mut Env, a: Vn, b: Vn, truth: bool) -> bool {
        let ia = self.reval(env, a);
        let ib = self.reval(env, b);
        if truth {
            // a < b
            let na = ia.intersect(Interval::new(i64::MIN, ib.hi.saturating_sub(1)));
            let nb = ib.intersect(Interval::new(ia.lo.saturating_add(1), i64::MAX));
            if na.is_empty() || nb.is_empty() {
                return false;
            }
            self.tighten(env, a, na);
            self.tighten(env, b, nb);
            if !matches!(self.vns.expr(b), Expr::Const(_)) {
                push_fact(env, a, b, -1);
            }
        } else {
            // a >= b
            let na = ia.intersect(Interval::new(ib.lo, i64::MAX));
            let nb = ib.intersect(Interval::new(i64::MIN, ia.hi));
            if na.is_empty() || nb.is_empty() {
                return false;
            }
            self.tighten(env, a, na);
            self.tighten(env, b, nb);
            if !matches!(self.vns.expr(a), Expr::Const(_)) {
                push_fact(env, b, a, 0);
            }
        }
        true
    }

    /// Applies conditional-range rules after learning that the value
    /// `cvn` is (`holds_eq`) or is not equal to the constant `k`.
    /// Returns false if a narrowed target becomes empty.
    fn apply_cond_rules(
        &self,
        env: &mut Env,
        memo: &Memo,
        cvn: Vn,
        k: i64,
        holds_eq: bool,
    ) -> bool {
        if self.cond_ranges.is_empty() {
            return true;
        }
        // Find memo slots whose current value is `cvn`.
        for (&(mg, mf, midx, _), &mvn) in memo.iter() {
            if mvn != cvn {
                continue;
            }
            for r in &self.cond_ranges {
                if r.global != mg || r.cond_field != mf {
                    continue;
                }
                let guard_holds = match r.kind {
                    CondKind::EqConst(rk) => holds_eq && rk == k,
                    CondKind::NeConst(rk) => (holds_eq && rk != k) || (!holds_eq && rk == k),
                };
                if !guard_holds {
                    continue;
                }
                if let Some(&tvn) = memo.get(&(mg, r.target_field, midx, self.zero)) {
                    let cur = self.reval(env, tvn);
                    let nv = cur.intersect(r.iv);
                    if nv.is_empty() {
                        return false;
                    }
                    self.tighten(env, tvn, nv);
                }
            }
        }
        true
    }
}

fn push_fact(env: &mut Env, key: Vn, bound: Vn, delta: i64) {
    let fs = env.facts.entry(key).or_default();
    if fs.len() < MAX_FACTS_PER_VN && !fs.contains(&(bound, delta)) {
        fs.push((bound, delta));
    }
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_module, AnalysisConfig, DiagnosticCode, FieldRangeRule};
    use crate::builder::FuncBuilder;
    use crate::func::{BinOp, CmpKind, Operand};
    use crate::module::{FieldDecl, GlobalDecl, Module};

    fn analyze(
        module: &Module,
        root: &str,
        config: &AnalysisConfig,
    ) -> super::super::AnalysisResult {
        let f = module.func(root).expect("root");
        analyze_module(module, &[f], config)
    }

    #[test]
    fn constant_loop_bound_is_exported() {
        // for (i = 0; i < 3; i++) {}
        let mut fb = FuncBuilder::new("f", 0);
        let i = fb.new_reg();
        fb.copy_to(i, Operand::Const(0));
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jmp(header);
        fb.switch_to(header);
        let c = fb.cmp(CmpKind::Slt, Operand::Reg(i), Operand::Const(3));
        fb.br(Operand::Reg(c), body, exit);
        fb.switch_to(body);
        let ni = fb.bin(BinOp::Add, Operand::Reg(i), Operand::Const(1));
        fb.copy_to(i, Operand::Reg(ni));
        fb.jmp(header);
        fb.switch_to(exit);
        fb.ret(Operand::Const(0));
        let mut m = Module::new();
        let fid = m.add_func(fb.finish());
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
        // Header entered 4 times: preheader jump + 3 back edges.
        assert_eq!(res.bounds.bound(fid, 1), Some(4));
        assert_eq!(res.bounds.bound(fid, 2), Some(3));
    }

    #[test]
    fn unbounded_loop_is_flagged_and_bounds_are_withheld() {
        // while (x != 0) { x = x >> 1; }  -- x unconstrained
        let mut fb = FuncBuilder::new("f", 1);
        let x = crate::func::Reg(0);
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.jmp(header);
        fb.switch_to(header);
        let c = fb.cmp(CmpKind::Ne, Operand::Reg(x), Operand::Const(0));
        fb.br(Operand::Reg(c), body, exit);
        fb.switch_to(body);
        let nx = fb.bin(BinOp::AShr, Operand::Reg(x), Operand::Const(1));
        fb.copy_to(x, Operand::Reg(nx));
        fb.jmp(header);
        fb.switch_to(exit);
        fb.ret(Operand::Const(0));
        let mut m = Module::new();
        m.add_func(fb.finish());
        let config = AnalysisConfig {
            max_block_visits: 16,
            ..AnalysisConfig::default()
        };
        let res = analyze(&m, "f", &config);
        assert!(res
            .unsuppressed()
            .any(|d| d.code == DiagnosticCode::UnboundedLoop));
        assert!(res.bounds.is_empty());
    }

    #[test]
    fn division_guard_suppresses_div_by_zero() {
        // g: return a / d            -> finding
        // f: if (d != 0) return a / d; return 0   -> clean
        let mut m = Module::new();
        let mut fb = FuncBuilder::new("g", 2);
        let q = fb.bin(
            BinOp::UDiv,
            Operand::Reg(crate::func::Reg(0)),
            Operand::Reg(crate::func::Reg(1)),
        );
        fb.ret(Operand::Reg(q));
        m.add_func(fb.finish());
        let mut fb = FuncBuilder::new("f", 2);
        let d = crate::func::Reg(1);
        let c = fb.cmp(CmpKind::Ne, Operand::Reg(d), Operand::Const(0));
        let then_b = fb.new_block();
        let else_b = fb.new_block();
        fb.br(Operand::Reg(c), then_b, else_b);
        fb.switch_to(then_b);
        let q = fb.bin(
            BinOp::UDiv,
            Operand::Reg(crate::func::Reg(0)),
            Operand::Reg(d),
        );
        fb.ret(Operand::Reg(q));
        fb.switch_to(else_b);
        fb.ret(Operand::Const(0));
        m.add_func(fb.finish());
        let res = analyze(&m, "g", &AnalysisConfig::default());
        assert!(res
            .unsuppressed()
            .any(|d| d.code == DiagnosticCode::PossibleDivByZero));
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
    }

    fn table_module() -> Module {
        let mut m = Module::new();
        m.declare_global(GlobalDecl {
            name: "table".into(),
            elems: 8,
            fields: vec![FieldDecl {
                name: "value".into(),
                elems: 1,
                volatile: false,
            }],
        });
        m
    }

    #[test]
    fn oob_index_is_flagged_and_validated_index_is_clean() {
        // g: table[i] unvalidated     -> finding
        // f: if (i < 0 || i >= 8) return 0; table[i]   -> clean
        let mut m = table_module();
        let g = m.global("table").unwrap();
        let gep = |idx| crate::func::Gep {
            global: g,
            index: idx,
            field: crate::module::FieldId(0),
            sub: Operand::Const(0),
        };
        let mut fb = FuncBuilder::new("g", 1);
        let v = fb.load(gep(Operand::Reg(crate::func::Reg(0))));
        fb.ret(Operand::Reg(v));
        m.add_func(fb.finish());
        let mut fb = FuncBuilder::new("f", 1);
        let i = crate::func::Reg(0);
        let lo = fb.cmp(CmpKind::Slt, Operand::Reg(i), Operand::Const(0));
        let hi = fb.cmp(CmpKind::Sle, Operand::Const(8), Operand::Reg(i));
        let bad = fb.bin(BinOp::Or, Operand::Reg(lo), Operand::Reg(hi));
        let err_b = fb.new_block();
        let ok_b = fb.new_block();
        fb.br(Operand::Reg(bad), err_b, ok_b);
        fb.switch_to(err_b);
        fb.ret(Operand::Const(0));
        fb.switch_to(ok_b);
        let v = fb.load(gep(Operand::Reg(i)));
        fb.ret(Operand::Reg(v));
        m.add_func(fb.finish());
        let res = analyze(&m, "g", &AnalysisConfig::default());
        assert!(res
            .unsuppressed()
            .any(|d| d.code == DiagnosticCode::PossibleOobIndex));
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
    }

    #[test]
    fn field_range_rule_covers_loaded_index() {
        // table.value in [0, 8) by invariant; table[table[0]] is clean
        // with the rule, flagged without it.
        let mut m = table_module();
        let g = m.global("table").unwrap();
        let gep = |idx| crate::func::Gep {
            global: g,
            index: idx,
            field: crate::module::FieldId(0),
            sub: Operand::Const(0),
        };
        let mut fb = FuncBuilder::new("f", 0);
        let x = fb.load(gep(Operand::Const(0)));
        let v = fb.load(gep(Operand::Reg(x)));
        fb.ret(Operand::Reg(v));
        m.add_func(fb.finish());
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(res
            .unsuppressed()
            .any(|d| d.code == DiagnosticCode::PossibleOobIndex));
        let config = AnalysisConfig {
            field_ranges: vec![FieldRangeRule {
                global: "table".into(),
                field: "value".into(),
                lo: 0,
                hi: 7,
                min_index: 0,
            }],
            ..AnalysisConfig::default()
        };
        let res = analyze(&m, "f", &config);
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
    }

    #[test]
    fn masked_index_is_in_bounds() {
        // table[(x + y) & 7] is always within [0, 8).
        let mut m = table_module();
        let g = m.global("table").unwrap();
        let mut fb = FuncBuilder::new("f", 2);
        let s = fb.bin(
            BinOp::Add,
            Operand::Reg(crate::func::Reg(0)),
            Operand::Reg(crate::func::Reg(1)),
        );
        let idx = fb.bin(BinOp::And, Operand::Reg(s), Operand::Const(7));
        let v = fb.load(crate::func::Gep {
            global: g,
            index: Operand::Reg(idx),
            field: crate::module::FieldId(0),
            sub: Operand::Const(0),
        });
        fb.ret(Operand::Reg(v));
        m.add_func(fb.finish());
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
    }

    #[test]
    fn guarded_multiply_bounds_the_slot() {
        // flag = x < 8 (0/1); slot = i * flag where i in [0,8) under
        // the guard; table[slot] is clean.
        let mut m = table_module();
        let g = m.global("table").unwrap();
        let mut fb = FuncBuilder::new("f", 1);
        let i = crate::func::Reg(0);
        let lo_ok = fb.cmp(CmpKind::Sle, Operand::Const(0), Operand::Reg(i));
        let hi_ok = fb.cmp(CmpKind::Slt, Operand::Reg(i), Operand::Const(8));
        let flag = fb.bin(BinOp::And, Operand::Reg(lo_ok), Operand::Reg(hi_ok));
        let slot = fb.bin(BinOp::Mul, Operand::Reg(i), Operand::Reg(flag));
        let v = fb.load(crate::func::Gep {
            global: g,
            index: Operand::Reg(slot),
            field: crate::module::FieldId(0),
            sub: Operand::Const(0),
        });
        fb.ret(Operand::Reg(v));
        m.add_func(fb.finish());
        let res = analyze(&m, "f", &AnalysisConfig::default());
        assert!(!res.has_findings(), "{:?}", res.diagnostics);
    }
}
