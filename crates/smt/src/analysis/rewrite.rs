//! Fact-directed rewriting of asserted conjuncts.
//!
//! A [`Facts`] set is harvested from every active conjunct: abstract
//! seeds (see [`super::domain`]) plus an equality substitution map from
//! asserted top-level `Eq`s. A [`Rewriter`] then rebuilds one conjunct
//! bottom-up through the `Ctx` smart constructors, replacing terms the
//! visible facts decide — with the conjunct's own contribution hidden,
//! so a fact can never be used to delete itself.
//!
//! Soundness: rewriting conjunct `Cᵢ` into `Cᵢ'` uses only facts
//! implied by the *other* conjuncts (and outer/base-level ones in the
//! incremental case), so `⋀ⱼ≠ᵢ Cⱼ ⊨ (Cᵢ ↔ Cᵢ')`. Replacing every
//! conjunct simultaneously keeps only one direction: the original
//! conjunction implies the rewritten one (each `Cᵢ'` follows from `Cᵢ`
//! and the originals it was rewritten under), so an Unsat answer for
//! the rewritten set holds for the original. It does **not** preserve
//! the models: the side conditions refer to the original conjuncts,
//! which are gone once all are replaced. `[x = y, x = 5]` becomes
//! `[y = 5, y = 5]`, whose models leave `x` free. A model of the
//! rewritten set must therefore be validated against the originals
//! (`tests/review_soundness.rs` records the case). Identical conjuncts are
//! deduplicated before harvest, and a fact asserted by more than one
//! conjunct is demoted to [`MULTI_ORIGIN`], which the rewriting view
//! hides, so two conjuncts cannot delete each other outright.

use std::collections::HashMap;

use crate::term::{Ctx, Sort, TermData, TermId};

use super::domain::{Analysis, SeedView, Seeds, MULTI_ORIGIN};

/// One oriented equality substitution.
#[derive(Debug, Clone, Copy)]
struct SubstEntry {
    origin: u32,
    level: u32,
    to: TermId,
}

/// Everything the active conjuncts tell us: abstract seeds plus an
/// equality substitution map.
#[derive(Debug, Default)]
pub struct Facts {
    /// Abstract constraints seeded on terms.
    pub seeds: Seeds,
    /// Oriented replacements from asserted `Eq`s. Orientations are
    /// chosen terminating: variable → constant, higher variable → lower
    /// variable, compound → constant. Keys are never constants, so
    /// chains strictly descend and bottom out.
    subst: HashMap<TermId, SubstEntry>,
}

impl Facts {
    /// Harvests seeds and substitutions from one conjunct.
    pub fn harvest(&mut self, ctx: &Ctx, t: TermId, origin: u32, level: u32) {
        self.seeds.add_fact(ctx, t, origin, level, true);
        if let TermData::Eq(a, b) = ctx.data(t) {
            let (a, b) = (*a, *b);
            if ctx.sort(a) == Sort::Bool {
                return;
            }
            let a_const = ctx.const_value(a).is_some();
            let b_const = ctx.const_value(b).is_some();
            let a_var = matches!(ctx.data(a), TermData::Var(_));
            let b_var = matches!(ctx.data(b), TermData::Var(_));
            let oriented = match (a_const, b_const) {
                (true, false) => Some((b, a)),
                (false, true) => Some((a, b)),
                (false, false) if a_var && b_var => {
                    // Replace the higher id by the lower one.
                    Some((a.max(b), a.min(b)))
                }
                _ => None,
            };
            if let Some((from, to)) = oriented {
                // Keep the first orientation for a key; a clashing
                // second equality still lands in the seeds, where the
                // meet exposes any contradiction.
                self.subst
                    .entry(from)
                    .or_insert(SubstEntry { origin, level, to });
            }
        }
    }

    fn lookup(&self, view: SeedView, t: TermId) -> Option<TermId> {
        let e = self.subst.get(&t)?;
        match view {
            SeedView::Full => None,
            SeedView::Rewriting { exclude, max_level } => {
                if e.origin != MULTI_ORIGIN && Some(e.origin) != exclude && e.level <= max_level {
                    Some(e.to)
                } else {
                    None
                }
            }
        }
    }
}

/// Counters reported by one rewrite run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RewriteStats {
    /// Nodes whose rebuilt form differs from the original.
    pub rewrites: u64,
    /// Bits of bit-vector terms replaced by constants.
    pub bits_pinned: u64,
    /// Terms visited by the backing abstract analysis.
    pub visited: u64,
}

/// Rewrites terms bottom-up under one fixed [`SeedView`].
pub struct Rewriter<'f> {
    facts: &'f Facts,
    view: SeedView,
    analysis: Analysis<'f>,
    memo: HashMap<TermId, TermId>,
    /// Counters accumulated across `rewrite` calls.
    pub stats: RewriteStats,
}

impl<'f> Rewriter<'f> {
    /// Creates a rewriter over `facts` restricted to `view`.
    pub fn new(facts: &'f Facts, view: SeedView) -> Rewriter<'f> {
        Rewriter {
            facts,
            view,
            analysis: Analysis::new(&facts.seeds, view),
            memo: HashMap::new(),
            stats: RewriteStats::default(),
        }
    }

    /// Rewrites `t`, memoized across calls on this rewriter.
    pub fn rewrite(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        let mut stack = vec![(t, false)];
        while let Some((n, ready)) = stack.pop() {
            if self.memo.contains_key(&n) {
                continue;
            }
            if !ready {
                stack.push((n, true));
                for c in crate::bitblast::term_children(ctx, n) {
                    if !self.memo.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
                continue;
            }
            let out = self.process(ctx, n);
            if out != n {
                self.stats.rewrites += 1;
            }
            self.memo.insert(n, out);
        }
        self.stats.visited = self.analysis.visited;
        self.memo[&t]
    }

    /// True when the analysis met an empty abstraction: the facts
    /// visible to this view are unsatisfiable together.
    pub fn saw_contradiction(&self) -> bool {
        self.analysis.contradiction
    }

    fn process(&mut self, ctx: &mut Ctx, n: TermId) -> TermId {
        let rebuilt = self.rebuild(ctx, n);
        let substituted = self.chase_subst(if rebuilt != n {
            // Both the original and the rebuilt node may be substitution
            // keys (compound keys are recorded pre-rewrite).
            self.facts.lookup(self.view, n).unwrap_or(rebuilt)
        } else {
            rebuilt
        });
        self.fold_by_abstraction(ctx, substituted)
    }

    /// Follows substitution chains (`x → y → c`); orientations strictly
    /// descend, so this terminates.
    fn chase_subst(&self, mut t: TermId) -> TermId {
        while let Some(next) = self.facts.lookup(self.view, t) {
            if next == t {
                break;
            }
            t = next;
        }
        t
    }

    /// Replaces `t` by a constant when the visible facts decide it.
    fn fold_by_abstraction(&mut self, ctx: &mut Ctx, t: TermId) -> TermId {
        match ctx.sort(t) {
            Sort::Bool => {
                if ctx.const_bool(t).is_some() {
                    return t;
                }
                match self.analysis.abs(ctx, t).as_bool() {
                    Some(v) => ctx.bool_const(v),
                    None => t,
                }
            }
            Sort::Bv(w) => {
                if ctx.const_value(t).is_some() {
                    return t;
                }
                match self.analysis.abs(ctx, t).as_bv().and_then(|a| a.as_const()) {
                    Some(v) => {
                        self.stats.bits_pinned += u64::from(w);
                        ctx.bv_const(w, v)
                    }
                    None => t,
                }
            }
        }
    }

    /// Rebuilds `n` from its rewritten children through the smart
    /// constructors (which constant-fold and apply algebraic
    /// identities at every step).
    fn rebuild(&mut self, ctx: &mut Ctx, n: TermId) -> TermId {
        let data = ctx.data(n).clone();
        match data {
            TermData::True | TermData::False | TermData::BvConst { .. } | TermData::Var(_) => n,
            TermData::Not(a) => {
                let a = self.memo[&a];
                ctx.not(a)
            }
            TermData::And(args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.memo[a]).collect();
                ctx.and(&args)
            }
            TermData::Or(args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.memo[a]).collect();
                ctx.or(&args)
            }
            TermData::Eq(a, b) => {
                let (a, b) = (self.memo[&a], self.memo[&b]);
                ctx.eq(a, b)
            }
            TermData::Ite(c, t, e) => {
                let (c, t, e) = (self.memo[&c], self.memo[&t], self.memo[&e]);
                ctx.ite(c, t, e)
            }
            TermData::BvNot(a) => {
                let a = self.memo[&a];
                ctx.bv_not(a)
            }
            TermData::BvBin(op, a, b) => {
                let (a, b) = (self.memo[&a], self.memo[&b]);
                ctx.bv_bin(op, a, b)
            }
            TermData::Cmp(op, a, b) => {
                let (a, b) = (self.memo[&a], self.memo[&b]);
                ctx.cmp(op, a, b)
            }
            TermData::ZExt(a, w) => {
                let a = self.memo[&a];
                ctx.zext(a, w)
            }
            TermData::SExt(a, w) => {
                let a = self.memo[&a];
                ctx.sext(a, w)
            }
            TermData::Extract(a, hi, lo) => {
                let a = self.memo[&a];
                ctx.extract(a, hi, lo)
            }
            TermData::Concat(a, b) => {
                let (a, b) = (self.memo[&a], self.memo[&b]);
                ctx.concat(a, b)
            }
            TermData::Apply(f, args) => {
                let args: Vec<TermId> = args.iter().map(|a| self.memo[a]).collect();
                ctx.apply(f, &args)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn rewriting_all() -> SeedView {
        SeedView::Rewriting {
            exclude: None,
            max_level: u32::MAX,
        }
    }

    #[test]
    fn substitutes_var_with_const() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let five = ctx.bv_const(8, 5);
        let eq = ctx.eq(x, five);
        let sum = ctx.bv_add(x, y);

        let mut facts = Facts::default();
        facts.harvest(&ctx, eq, 0, 0);
        let mut rw = Rewriter::new(&facts, rewriting_all());
        let out = rw.rewrite(&mut ctx, sum);
        let expect = ctx.bv_add(five, y);
        assert_eq!(out, expect);
        assert!(rw.stats.rewrites > 0);
    }

    #[test]
    fn own_origin_is_excluded() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let five = ctx.bv_const(8, 5);
        let eq = ctx.eq(x, five);

        let mut facts = Facts::default();
        facts.harvest(&ctx, eq, 7, 0);
        // Rewriting the defining conjunct itself: nothing may change.
        let mut rw = Rewriter::new(
            &facts,
            SeedView::Rewriting {
                exclude: Some(7),
                max_level: u32::MAX,
            },
        );
        assert_eq!(rw.rewrite(&mut ctx, eq), eq);
        // Rewriting any other conjunct: the equality applies.
        let mut rw2 = Rewriter::new(&facts, rewriting_all());
        assert_eq!(rw2.rewrite(&mut ctx, eq), ctx.tru());
    }

    #[test]
    fn interval_fact_decides_comparison() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let ten = ctx.bv_const(16, 10);
        let hundred = ctx.bv_const(16, 100);
        let bound = ctx.ult(x, ten); // fact: x < 10
        let weak = ctx.ult(x, hundred); // conjunct: x < 100

        let mut facts = Facts::default();
        facts.harvest(&ctx, bound, 0, 0);
        let mut rw = Rewriter::new(&facts, rewriting_all());
        assert_eq!(rw.rewrite(&mut ctx, weak), ctx.tru());
    }

    #[test]
    fn knownbits_pin_through_extract() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let low = ctx.extract(x, 5, 0); // 6 bits: always < 64
        let wide = ctx.zext(low, 16);
        let sixty_four = ctx.bv_const(16, 64);
        let q = ctx.ult(wide, sixty_four);

        let facts = Facts::default();
        let mut rw = Rewriter::new(&facts, rewriting_all());
        assert_eq!(rw.rewrite(&mut ctx, q), ctx.tru());
    }

    #[test]
    fn var_chain_terminates() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let c = ctx.bv_const(8, 3);
        let e1 = ctx.eq(x, y); // orient: max(x,y) -> min(x,y)
        let e2 = ctx.eq(x.min(y), c); // lower var -> const
        let mut facts = Facts::default();
        facts.harvest(&ctx, e1, 0, 0);
        facts.harvest(&ctx, e2, 1, 0);
        let mut rw = Rewriter::new(&facts, rewriting_all());
        let hi = x.max(y);
        assert_eq!(rw.rewrite(&mut ctx, hi), c);
    }
}
