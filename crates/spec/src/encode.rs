//! SMT encodings of resource-management properties (paper §3.3).
//!
//! The paper's central encoding claim is that naive formulations of
//! exclusive ownership and reference counting "can easily cause the
//! solver to enumerate the search space", while two reformulations scale:
//! the *inverse function* for exclusive ownership and the *permutation*
//! witness for reference counts. This module provides all the variants
//! over the abstract state so the ablation benchmark can time them
//! against each other on the same queries.
//!
//! With finite instantiation (our quantifier discharge), a third
//! formulation is available that Z3's quantifier engine does not enjoy:
//! the direct *sum* encoding. It is included as the baseline the
//! declarative layer actually uses.

use hk_smt::{Ctx, Sort, TermId};

use crate::state::SpecState;

/// Exclusive ownership, naive pairwise encoding:
/// `forall o != o': own(o) == own(o') => false` whenever both own a real
/// resource — instantiated over all pairs, O(n^2).
///
/// Stated here for the page-table roots of live processes.
pub fn exclusive_pml4_naive(ctx: &mut Ctx, st: &mut SpecState) -> TermId {
    let n = st.params.nr_procs;
    let mut stc = st.clone();
    let mut parts = Vec::new();
    for a in 1..n {
        for b in (a + 1)..n {
            let ca = ctx.i64_const(a as i64);
            let cb = ctx.i64_const(b as i64);
            let la = live(ctx, &mut stc, ca);
            let lb = live(ctx, &mut stc, cb);
            let ra = stc.read(ctx, "procs", "pml4", &[ca]);
            let rb = stc.read(ctx, "procs", "pml4", &[cb]);
            let same = ctx.eq(ra, rb);
            let both = ctx.and(&[la, lb, same]);
            parts.push(ctx.not(both));
        }
    }
    ctx.and(&parts)
}

/// Exclusive ownership via the paper's inverse function:
/// `owned-by(own(o)) == o` — O(n) instantiations. The inverse already
/// exists in the state (`page_desc.owner`), exactly as §3.3 observes.
pub fn exclusive_pml4_inverse(ctx: &mut Ctx, st: &mut SpecState) -> TermId {
    let n = st.params.nr_procs;
    let mut stc = st.clone();
    let mut parts = Vec::new();
    for p in 1..n {
        let cp = ctx.i64_const(p as i64);
        let l = live(ctx, &mut stc, cp);
        let root = stc.read(ctx, "procs", "pml4", &[cp]);
        let owner = stc.read(ctx, "page_desc", "owner", &[root]);
        let inv = ctx.eq(owner, cp);
        parts.push(ctx.implies(l, inv));
    }
    ctx.and(&parts)
}

fn live(ctx: &mut Ctx, st: &mut SpecState, p: TermId) -> TermId {
    use hk_abi::proc_state as ps;
    let mut cases = Vec::new();
    let state = st.read(ctx, "procs", "state", &[p]);
    for s in [ps::EMBRYO, ps::RUNNABLE, ps::RUNNING, ps::SLEEPING] {
        let cs = ctx.i64_const(s);
        cases.push(ctx.eq(state, cs));
    }
    ctx.or(&cases)
}

/// Reference counting, direct sum encoding:
/// `refcnt(f) == sum over (pid, fd) of [ofile(pid, fd) == f]`.
pub fn file_refcnt_sum(ctx: &mut Ctx, st: &mut SpecState) -> TermId {
    let params = st.params;
    let mut stc = st.clone();
    let mut parts = Vec::new();
    for f in 0..params.nr_files {
        let cf = ctx.i64_const(f as i64);
        let mut count = ctx.i64_const(0);
        for pid in 1..params.nr_procs {
            for fd in 0..params.nr_fds {
                let cp = ctx.i64_const(pid as i64);
                let cd = ctx.i64_const(fd as i64);
                let slot = stc.read(ctx, "procs", "ofile", &[cp, cd]);
                let hit = ctx.eq(slot, cf);
                let one = ctx.i64_const(1);
                let zero = ctx.i64_const(0);
                let inc = ctx.ite(hit, one, zero);
                count = ctx.bv_add(count, inc);
            }
        }
        let rc = stc.read(ctx, "files", "refcnt", &[cf]);
        parts.push(ctx.eq(rc, count));
    }
    ctx.and(&parts)
}

/// Reference counting via the paper's permutation witness (§3.3):
/// for each file `f` there is a permutation `pi(f, -)` of the object
/// space (flattened `(pid, fd)` pairs) such that exactly the first
/// `refcnt(f)` objects refer to `f`, with `pi_inv` witnessing
/// bijectivity. Fresh uninterpreted functions are declared per call.
pub fn file_refcnt_permutation(ctx: &mut Ctx, st: &mut SpecState) -> TermId {
    let params = st.params;
    let mut stc = st.clone();
    let objs = (params.nr_procs - 1) * params.nr_fds;
    let pi = ctx.func("refcnt_pi", vec![Sort::Bv(64), Sort::Bv(64)], Sort::Bv(64));
    let pi_inv = ctx.func(
        "refcnt_pi_inv",
        vec![Sort::Bv(64), Sort::Bv(64)],
        Sort::Bv(64),
    );
    // own(o): which file object o refers to (NR_FILES if closed).
    let own = |ctx: &mut Ctx, stc: &mut SpecState, o: TermId| -> TermId {
        // o = (pid - 1) * NR_FDS + fd.
        let nfd = ctx.i64_const(params.nr_fds as i64);
        let one = ctx.i64_const(1);
        let q = ctx.bv_bin(hk_smt::BvBinOp::Udiv, o, nfd);
        let pid = ctx.bv_add(q, one);
        let fd = ctx.bv_bin(hk_smt::BvBinOp::Urem, o, nfd);
        stc.read(ctx, "procs", "ofile", &[pid, fd])
    };
    let mut parts = Vec::new();
    for f in 0..params.nr_files {
        let cf = ctx.i64_const(f as i64);
        let rc = stc.read(ctx, "files", "refcnt", &[cf]);
        for i in 0..objs {
            let ci = ctx.i64_const(i as i64);
            let o = ctx.apply(pi, &[cf, ci]);
            // Range of pi.
            let zero = ctx.i64_const(0);
            let nobj = ctx.i64_const(objs as i64);
            let ge = ctx.sle(zero, o);
            let lt = ctx.slt(o, nobj);
            parts.push(ctx.and2(ge, lt));
            // First refcnt objects own f, the rest do not.
            let owner = own(ctx, &mut stc, o);
            let owns = ctx.eq(owner, cf);
            let in_prefix = ctx.slt(ci, rc);
            parts.push(ctx.eq(owns, in_prefix));
            // Bijectivity: pi_inv(f, pi(f, i)) == i.
            let back = ctx.apply(pi_inv, &[cf, o]);
            parts.push(ctx.eq(back, ci));
        }
    }
    ctx.and(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::shapes_of;
    use hk_abi::KernelParams;
    use hk_smt::{SatResult, Solver};

    /// A profile at which the kernel still builds and the three checks
    /// below take seconds in a debug build, where the verification
    /// profile takes minutes: the fast tier runs them here, the slow
    /// tier at the verification profile.
    const SMALL: KernelParams = KernelParams {
        nr_procs: 4,
        nr_fds: 2,
        nr_files: 4,
        ..KernelParams::verification()
    };

    fn setup(params: KernelParams) -> (Ctx, SpecState) {
        let image = hk_kernel::KernelImage::build(params).unwrap();
        let shapes = shapes_of(&image.module);
        let mut ctx = Ctx::new();
        let st = SpecState::fresh(&mut ctx, &shapes, params);
        (ctx, st)
    }

    fn inverse_implies_naive_exclusivity(params: KernelParams) {
        // inverse-function encoding implies pairwise exclusivity.
        let (mut ctx, mut st) = setup(params);
        let inv = exclusive_pml4_inverse(&mut ctx, &mut st);
        let naive = exclusive_pml4_naive(&mut ctx, &mut st);
        let mut solver = Solver::new();
        solver.assert(&mut ctx, inv);
        let not_naive = ctx.not(naive);
        solver.assert(&mut ctx, not_naive);
        assert!(matches!(solver.check(&mut ctx), SatResult::Unsat));
    }

    fn sum_encoding_is_satisfiable(params: KernelParams) {
        // The sum encoding admits models (it is not vacuous — §5's
        // non-vacuity concern).
        let (mut ctx, mut st) = setup(params);
        let sum = file_refcnt_sum(&mut ctx, &mut st);
        let mut solver = Solver::new();
        solver.assert(&mut ctx, sum);
        assert!(solver.check(&mut ctx).is_sat());
    }

    fn permutation_implies_sum(params: KernelParams) {
        // The permutation witness implies the counted value... for the
        // degenerate check that both are simultaneously satisfiable.
        let (mut ctx, mut st) = setup(params);
        let perm = file_refcnt_permutation(&mut ctx, &mut st);
        let sum = file_refcnt_sum(&mut ctx, &mut st);
        let mut solver = Solver::new();
        solver.assert(&mut ctx, perm);
        solver.assert(&mut ctx, sum);
        assert!(solver.check(&mut ctx).is_sat());
    }

    #[test]
    fn small_inverse_implies_naive_exclusivity() {
        inverse_implies_naive_exclusivity(SMALL);
    }

    #[test]
    fn small_sum_encoding_is_satisfiable() {
        sum_encoding_is_satisfiable(SMALL);
    }

    #[test]
    fn small_permutation_implies_sum() {
        permutation_implies_sum(SMALL);
    }

    #[test]
    #[ignore = "slow tier: minutes in debug builds; run with --ignored"]
    fn verification_inverse_implies_naive_exclusivity() {
        inverse_implies_naive_exclusivity(KernelParams::verification());
    }

    #[test]
    #[ignore = "slow tier: minutes in debug builds; run with --ignored"]
    fn verification_sum_encoding_is_satisfiable() {
        sum_encoding_is_satisfiable(KernelParams::verification());
    }

    #[test]
    #[ignore = "slow tier: minutes in debug builds; run with --ignored"]
    fn verification_permutation_implies_sum() {
        permutation_implies_sum(KernelParams::verification());
    }
}
