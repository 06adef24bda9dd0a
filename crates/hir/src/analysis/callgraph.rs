//! Interprocedural call graph: recursion detection and the worst-case
//! stack-depth bound.
//!
//! This is the single home for call-graph reasoning; both the HIR module
//! verifier and `checkers`' stack checker consume it instead of
//! re-deriving their own DFS.

use std::collections::HashMap;

use crate::func::{Inst, Span};
use crate::module::{FuncId, Module};

/// The module-wide call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Deduplicated direct callees of each function, indexed by
    /// [`FuncId`].
    callees: Vec<Vec<FuncId>>,
    /// Span of the first call site for each `(caller, callee)` edge.
    sites: HashMap<(FuncId, FuncId), Span>,
}

impl CallGraph {
    /// Builds the call graph of `module`.
    pub fn build(module: &Module) -> CallGraph {
        let mut callees = Vec::with_capacity(module.funcs.len());
        let mut sites = HashMap::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let caller = FuncId(fi as u32);
            let mut out: Vec<FuncId> = Vec::new();
            for b in &f.blocks {
                for (i, inst) in b.insts.iter().enumerate() {
                    if let Inst::Call { func, .. } = inst {
                        // Out-of-range targets are a well-formedness error
                        // reported elsewhere; keep the graph indexable.
                        if func.0 as usize >= module.funcs.len() {
                            continue;
                        }
                        sites
                            .entry((caller, *func))
                            .or_insert_with(|| b.inst_span(i));
                        out.push(*func);
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        CallGraph { callees, sites }
    }

    /// Direct callees of `f`.
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        &self.callees[f.0 as usize]
    }

    /// Every function reachable from `roots` (roots included), in
    /// ascending order.
    pub(crate) fn reachable(&self, roots: &[FuncId]) -> Vec<FuncId> {
        let mut reach: Vec<FuncId> = Vec::new();
        let mut stack: Vec<FuncId> = roots.to_vec();
        while let Some(f) = stack.pop() {
            if reach.contains(&f) {
                continue;
            }
            reach.push(f);
            stack.extend_from_slice(self.callees(f));
        }
        reach.sort_unstable();
        reach
    }

    /// Span of the first `caller -> callee` call site, if that edge
    /// exists.
    pub fn call_site(&self, caller: FuncId, callee: FuncId) -> Option<Span> {
        self.sites.get(&(caller, callee)).copied()
    }

    /// Finds a call cycle, returned as a path `f0 -> f1 -> ... -> f0`
    /// (first element repeated at the end). Returns `None` when the
    /// graph is acyclic, i.e. recursion-free.
    pub fn find_cycle(&self) -> Option<Vec<FuncId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.callees.len();
        let mut color = vec![Color::White; n];
        let mut path: Vec<FuncId> = Vec::new();
        // Iterative DFS keeping the gray path explicit.
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(FuncId, usize)> = vec![(FuncId(start as u32), 0)];
            color[start] = Color::Gray;
            path.push(FuncId(start as u32));
            while let Some(&mut (f, ref mut i)) = stack.last_mut() {
                let cs = &self.callees[f.0 as usize];
                if *i < cs.len() {
                    let c = cs[*i];
                    *i += 1;
                    match color[c.0 as usize] {
                        Color::Gray => {
                            // Found a cycle: slice the gray path from c.
                            let pos = path.iter().position(|&p| p == c).unwrap();
                            let mut cyc: Vec<FuncId> = path[pos..].to_vec();
                            cyc.push(c);
                            return Some(cyc);
                        }
                        Color::White => {
                            color[c.0 as usize] = Color::Gray;
                            path.push(c);
                            stack.push((c, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[f.0 as usize] = Color::Black;
                    path.pop();
                    stack.pop();
                }
            }
        }
        None
    }

    /// Worst-case stack bytes for a call rooted at `root`, where each
    /// activation of function `f` costs `f.num_regs * 8 + overhead`
    /// bytes. Returns `None` if `root` can reach a call cycle (the bound
    /// is then infinite).
    pub fn max_stack_bytes(&self, module: &Module, root: FuncId, overhead: u64) -> Option<u64> {
        let mut memo: HashMap<FuncId, Option<u64>> = HashMap::new();
        self.max_stack_rec(module, root, overhead, &mut memo, &mut Vec::new())
    }

    fn max_stack_rec(
        &self,
        module: &Module,
        f: FuncId,
        overhead: u64,
        memo: &mut HashMap<FuncId, Option<u64>>,
        active: &mut Vec<FuncId>,
    ) -> Option<u64> {
        if let Some(&m) = memo.get(&f) {
            return m;
        }
        if active.contains(&f) {
            return None; // cycle
        }
        active.push(f);
        let own = module.func_def(f).num_regs as u64 * 8 + overhead;
        let mut worst_callee = 0u64;
        let mut result = Some(own);
        for &c in self.callees(f) {
            match self.max_stack_rec(module, c, overhead, memo, active) {
                Some(d) => worst_callee = worst_callee.max(d),
                None => {
                    result = None;
                    break;
                }
            }
        }
        active.pop();
        let out = result.map(|own| own + worst_callee);
        memo.insert(f, out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::Operand;

    fn leaf(module: &mut Module, name: &str, extra_regs: u32) -> FuncId {
        let mut fb = FuncBuilder::new(name, 0);
        for _ in 0..extra_regs {
            fb.new_reg();
        }
        fb.ret(Operand::Const(0));
        module.add_func(fb.finish())
    }

    fn caller(module: &mut Module, name: &str, callees: &[FuncId]) -> FuncId {
        let mut fb = FuncBuilder::new(name, 0);
        for &c in callees {
            fb.call(c, Vec::new());
        }
        fb.ret(Operand::Const(0));
        module.add_func(fb.finish())
    }

    #[test]
    fn acyclic_graph_has_no_cycle_and_a_stack_bound() {
        let mut m = Module::new();
        let a = leaf(&mut m, "a", 2); // 2 regs
        let b = caller(&mut m, "b", &[a, a]); // 2 call dsts = 2 regs
        let g = CallGraph::build(&m);
        assert_eq!(g.callees(b), &[a]);
        assert!(g.find_cycle().is_none());
        // b: 2*8+16 = 32, a: 2*8+16 = 32 -> 64.
        assert_eq!(g.max_stack_bytes(&m, b, 16), Some(64));
        assert_eq!(g.max_stack_bytes(&m, a, 16), Some(32));
    }

    #[test]
    fn cycle_is_detected_with_its_path() {
        let mut m = Module::new();
        // Build mutual recursion by hand: a calls b, b calls a.
        // add_func assigns ids in order, so predict them.
        let a_id = FuncId(0);
        let b_id = FuncId(1);
        let mut fb = FuncBuilder::new("a", 0);
        fb.call(b_id, Vec::new());
        fb.ret(Operand::Const(0));
        m.add_func(fb.finish());
        let mut fb = FuncBuilder::new("b", 0);
        fb.call(a_id, Vec::new());
        fb.ret(Operand::Const(0));
        m.add_func(fb.finish());
        let g = CallGraph::build(&m);
        let cyc = g.find_cycle().expect("cycle");
        assert_eq!(cyc.first(), cyc.last());
        assert!(cyc.len() >= 3);
        assert_eq!(g.max_stack_bytes(&m, a_id, 16), None);
    }
}
