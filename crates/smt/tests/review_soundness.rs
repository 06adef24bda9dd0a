//! The simplifier's rewritten conjunction must keep every variable the
//! originals constrain, or a model of the rewritten set need not satisfy
//! the originals.

use hk_smt::analysis::{simplify_query, SimplifyOutcome};
use hk_smt::bitblast::term_children;
use hk_smt::term::{Ctx, Sort, TermId};

fn mentions(ctx: &Ctx, t: TermId, x: TermId) -> bool {
    t == x
        || term_children(ctx, t)
            .into_iter()
            .any(|c| mentions(ctx, c, x))
}

#[test]
#[ignore = "known simplifier defect: simultaneous rewriting turns [x = y, x = 5] into \
            [y = 5, y = 5], dropping every constraint on x"]
fn mutual_rewrite_loses_x_constraint() {
    let mut ctx = Ctx::new();
    let y = ctx.var("y", Sort::Bv(8));
    let x = ctx.var("x", Sort::Bv(8)); // x has the higher TermId
    let c5 = ctx.bv_const(8, 5);
    let exy = ctx.eq(x, y);
    let exc = ctx.eq(x, c5);
    match simplify_query(&mut ctx, &[exy, exc], 2, false) {
        SimplifyOutcome::Simplified { assertions, .. } => {
            let rendered: Vec<String> = assertions.iter().map(|&a| ctx.display(a)).collect();
            assert!(
                assertions.iter().any(|&a| mentions(&ctx, a, x)),
                "x dropped from the conjunction: {rendered:?}"
            );
        }
        other => panic!("unexpected: {other:?}"),
    }
}
