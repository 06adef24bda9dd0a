//! TLB coherence harnesses over bounded symbolic fill/evict traces.
//!
//! The model is a capacity-`C` slot array mirroring `hk_vm::tlb::Tlb`,
//! with the `HashMap`'s arbitrary eviction choice lifted into a free
//! symbolic victim per step — so a proof over the model covers every
//! eviction order the real hash map can exhibit. The page-table walk
//! is abstracted as uninterpreted functions `walk0` (before a remap)
//! and `walk1` (after), constrained to agree everywhere except the
//! remapped page. Coherence then says: after the remap's shootdown,
//! every TLB hit equals the *current* walk — walk-after-flush is
//! walk-from-scratch.

use hk_smt::{Ctx, Model, Sort, TermId};

use crate::harness::{BmcConfig, HarnessReport, Prover, SeededBug};

/// Symbolic knobs of one trace step.
pub struct TlbOp {
    /// Operation selector, Bv(2): 0 insert, 1 flush_page, 2 flush_all,
    /// 3 nop.
    pub op: TermId,
    /// Virtual page operand (insert / flush_page).
    pub arg: TermId,
    /// Eviction victim slot for a full insert, Bv(64) `< capacity`.
    pub victim: TermId,
}

/// Uninterpreted walk functions of the trace.
pub struct TlbFuncs {
    /// Frame translation before the remap.
    pub walk0_pfn: hk_smt::FuncId,
    /// Writability before the remap (Bv(1)).
    pub walk0_w: hk_smt::FuncId,
    /// Frame translation after the remap.
    pub walk1_pfn: hk_smt::FuncId,
    /// Writability after the remap (Bv(1)).
    pub walk1_w: hk_smt::FuncId,
}

/// The encoded trace with its probe observation.
pub struct TlbTrace {
    /// Modeled capacity.
    pub capacity: usize,
    /// All steps, pre-remap ops first.
    pub ops: Vec<TlbOp>,
    /// How many of `ops` run before the remap.
    pub n_pre: usize,
    /// The virtual page remapped between the phases.
    pub remap_va: TermId,
    /// Probed virtual page.
    pub probe: TermId,
    /// Probe is a write access (Bool).
    pub probe_write: TermId,
    /// Probe hits (Bool).
    pub hit: TermId,
    /// Frame returned on a hit.
    pub hit_pfn: TermId,
    /// Writability returned on a hit (Bv(1)).
    pub hit_w: TermId,
    /// `walk1` applied at the probe (frame, writability).
    pub walk_pfn_probe: TermId,
    /// See [`TlbTrace::walk_pfn_probe`].
    pub walk_w_probe: TermId,
    /// Per-slot valid bits after the whole trace.
    pub final_valid: Vec<TermId>,
    /// Constraints the model needs (victim bounds, walk agreement off
    /// the remapped page); assert via [`Prover::assume`] or satisfy
    /// when binding concretely.
    pub assumptions: Vec<TermId>,
    /// The walk functions, for concrete binding in the fuzz bridge.
    pub funcs: TlbFuncs,
}

struct Slots {
    valid: Vec<TermId>,
    vp: Vec<TermId>,
    pfn: Vec<TermId>,
    w: Vec<TermId>,
}

impl Slots {
    fn empty(ctx: &mut Ctx, capacity: usize) -> Slots {
        let f = ctx.fls();
        let z64 = ctx.bv_const(64, 0);
        let z1 = ctx.bv_const(1, 0);
        Slots {
            valid: vec![f; capacity],
            vp: vec![z64; capacity],
            pfn: vec![z64; capacity],
            w: vec![z1; capacity],
        }
    }
}

/// One step of the slot machine: insert / flush_page / flush_all / nop
/// selected by `op.op`, with insert mirroring `Tlb::insert` (evict the
/// victim when full, then update the matching slot or the first free
/// one).
fn apply_op(ctx: &mut Ctx, s: &Slots, op: &TlbOp, pfn_new: TermId, w_new: TermId) -> Slots {
    let cap = s.valid.len();
    let full = ctx.and(&s.valid);

    // Insert.
    let mut after_evict = Vec::with_capacity(cap);
    for (j, &valid) in s.valid.iter().enumerate() {
        let jc = ctx.bv_const(64, j as u64);
        let chosen = ctx.eq(op.victim, jc);
        let evict = ctx.and2(full, chosen);
        let keep = ctx.not(evict);
        after_evict.push(ctx.and2(valid, keep));
    }
    let mut matches = Vec::with_capacity(cap);
    for (j, &ae) in after_evict.iter().enumerate() {
        let same = ctx.eq(s.vp[j], op.arg);
        matches.push(ctx.and2(ae, same));
    }
    let any_match = ctx.or(&matches);
    let mut ins = Slots {
        valid: Vec::new(),
        vp: Vec::new(),
        pfn: Vec::new(),
        w: Vec::new(),
    };
    for j in 0..cap {
        let mut ff = vec![ctx.not(after_evict[j])];
        ff.extend_from_slice(&after_evict[..j]);
        let first_free = ctx.and(&ff);
        let place = ctx.ite(any_match, matches[j], first_free);
        ins.valid.push(ctx.or2(after_evict[j], place));
        ins.vp.push(ctx.ite(place, op.arg, s.vp[j]));
        ins.pfn.push(ctx.ite(place, pfn_new, s.pfn[j]));
        ins.w.push(ctx.ite(place, w_new, s.w[j]));
    }

    // flush_page / flush_all.
    let fp_valid: Vec<TermId> = (0..cap)
        .map(|j| {
            let differs = ctx.ne(s.vp[j], op.arg);
            ctx.and2(s.valid[j], differs)
        })
        .collect();
    let fls = ctx.fls();

    let c0 = ctx.bv_const(2, 0);
    let c1 = ctx.bv_const(2, 1);
    let c2 = ctx.bv_const(2, 2);
    let is_ins = ctx.eq(op.op, c0);
    let is_fp = ctx.eq(op.op, c1);
    let is_fa = ctx.eq(op.op, c2);
    let mut out = Slots {
        valid: Vec::new(),
        vp: Vec::new(),
        pfn: Vec::new(),
        w: Vec::new(),
    };
    // `j` strides five parallel slot vectors at once; a zip would bury
    // the symmetry.
    #[allow(clippy::needless_range_loop)]
    for j in 0..cap {
        let v2 = ctx.ite(is_fa, fls, s.valid[j]);
        let v1 = ctx.ite(is_fp, fp_valid[j], v2);
        out.valid.push(ctx.ite(is_ins, ins.valid[j], v1));
        out.vp.push(ctx.ite(is_ins, ins.vp[j], s.vp[j]));
        out.pfn.push(ctx.ite(is_ins, ins.pfn[j], s.pfn[j]));
        out.w.push(ctx.ite(is_ins, ins.w[j], s.w[j]));
    }
    out
}

/// Encodes a bounded trace: `n_pre` symbolic ops against `walk0`, a
/// remap of `remap_va` (with its `flush_page` shootdown unless
/// `flush_on_remap` is false — the seeded bug), `n_post` symbolic ops
/// against `walk1`, an optional forced `flush_all`, then one probe.
pub fn encode_tlb_trace(
    ctx: &mut Ctx,
    capacity: usize,
    n_pre: usize,
    n_post: usize,
    flush_on_remap: bool,
    final_flush: bool,
) -> TlbTrace {
    let walk0_pfn = ctx.func("walk0_pfn", vec![Sort::Bv(64)], Sort::Bv(64));
    let walk0_w = ctx.func("walk0_w", vec![Sort::Bv(64)], Sort::Bv(1));
    let walk1_pfn = ctx.func("walk1_pfn", vec![Sort::Bv(64)], Sort::Bv(64));
    let walk1_w = ctx.func("walk1_w", vec![Sort::Bv(64)], Sort::Bv(1));
    let remap_va = ctx.var("remap_va", Sort::Bv(64));
    let probe = ctx.var("probe", Sort::Bv(64));
    let probe_write = ctx.var("probe_write", Sort::Bool);

    let mut assumptions = Vec::new();
    let cap_c = ctx.bv_const(64, capacity as u64);
    let mut ops = Vec::new();
    let mut slots = Slots::empty(ctx, capacity);
    let mut sites = vec![probe];

    for i in 0..n_pre + n_post {
        let pre = i < n_pre;
        let tag = if pre { "pre" } else { "post" };
        let op = TlbOp {
            op: ctx.var(format!("{tag}_op{i}"), Sort::Bv(2)),
            arg: ctx.var(format!("{tag}_arg{i}"), Sort::Bv(64)),
            victim: ctx.var(format!("{tag}_victim{i}"), Sort::Bv(64)),
        };
        assumptions.push(ctx.ult(op.victim, cap_c));
        sites.push(op.arg);
        let (fp, fw) = if pre {
            (walk0_pfn, walk0_w)
        } else {
            (walk1_pfn, walk1_w)
        };
        let pfn_new = ctx.apply(fp, &[op.arg]);
        let w_new = ctx.apply(fw, &[op.arg]);
        slots = apply_op(ctx, &slots, &op, pfn_new, w_new);
        ops.push(op);

        if i + 1 == n_pre && flush_on_remap {
            // The remap's TLB shootdown (INVLPG on the remapped page).
            let shoot = TlbOp {
                op: ctx.bv_const(2, 1),
                arg: remap_va,
                victim: ctx.bv_const(64, 0),
            };
            let z64 = ctx.bv_const(64, 0);
            let z1 = ctx.bv_const(1, 0);
            slots = apply_op(ctx, &slots, &shoot, z64, z1);
        }
    }
    if final_flush {
        let fa = TlbOp {
            op: ctx.bv_const(2, 2),
            arg: ctx.bv_const(64, 0),
            victim: ctx.bv_const(64, 0),
        };
        let z64 = ctx.bv_const(64, 0);
        let z1 = ctx.bv_const(1, 0);
        slots = apply_op(ctx, &slots, &fa, z64, z1);
    }

    // The remap changed the walk only at remap_va: walk1 == walk0 on
    // every other page, stated at each ground application site.
    for t in sites {
        let differs = ctx.ne(t, remap_va);
        let p0 = ctx.apply(walk0_pfn, &[t]);
        let p1 = ctx.apply(walk1_pfn, &[t]);
        let w0 = ctx.apply(walk0_w, &[t]);
        let w1 = ctx.apply(walk1_w, &[t]);
        let pe = ctx.eq(p0, p1);
        let we = ctx.eq(w0, w1);
        let agree = ctx.and2(pe, we);
        assumptions.push(ctx.implies(differs, agree));
    }

    // Probe: a write through a read-only entry misses, as in
    // `Tlb::lookup`.
    let one1 = ctx.bv_const(1, 1);
    let mut hit = ctx.fls();
    let mut hit_pfn = ctx.bv_const(64, 0);
    let mut hit_w = ctx.bv_const(1, 0);
    for j in 0..capacity {
        let same = ctx.eq(slots.vp[j], probe);
        let w_ok = ctx.eq(slots.w[j], one1);
        let nw = ctx.not(probe_write);
        let perm = ctx.or2(nw, w_ok);
        let hj = ctx.and(&[slots.valid[j], same, perm]);
        hit = ctx.or2(hit, hj);
        hit_pfn = ctx.ite(hj, slots.pfn[j], hit_pfn);
        hit_w = ctx.ite(hj, slots.w[j], hit_w);
    }

    let walk_pfn_probe = ctx.apply(walk1_pfn, &[probe]);
    let walk_w_probe = ctx.apply(walk1_w, &[probe]);

    TlbTrace {
        capacity,
        ops,
        n_pre,
        remap_va,
        probe,
        probe_write,
        hit,
        hit_pfn,
        hit_w,
        walk_pfn_probe,
        walk_w_probe,
        final_valid: slots.valid,
        assumptions,
        funcs: TlbFuncs {
            walk0_pfn,
            walk0_w,
            walk1_pfn,
            walk1_w,
        },
    }
}

/// Concrete reference simulator with the model's explicit-victim insert
/// semantics, for the differential fuzz bridge. The real
/// `hk_vm::tlb::Tlb` is one victim policy of this machine.
#[derive(Debug, Clone)]
pub struct RefTlb {
    slots: Vec<Option<(u64, u64, bool)>>,
}

impl RefTlb {
    /// An empty TLB with `capacity` slots.
    pub fn new(capacity: usize) -> RefTlb {
        RefTlb {
            slots: vec![None; capacity],
        }
    }

    /// Lookup with the write-through-read-only-misses rule.
    pub fn lookup(&self, vp: u64, write: bool) -> Option<(u64, bool)> {
        self.slots
            .iter()
            .flatten()
            .find(|(v, _, w)| *v == vp && (!write || *w))
            .map(|&(_, pfn, w)| (pfn, w))
    }

    /// Insert, evicting slot `victim` when full.
    pub fn insert(&mut self, vp: u64, pfn: u64, w: bool, victim: usize) {
        if self.slots.iter().all(Option::is_some) {
            self.slots[victim] = None;
        }
        let target = self
            .slots
            .iter()
            .position(|s| matches!(s, Some((v, _, _)) if *v == vp))
            .or_else(|| self.slots.iter().position(Option::is_none));
        self.slots[target.expect("eviction freed a slot")] = Some((vp, pfn, w));
    }

    /// Drops any entry for `vp`.
    pub fn flush_page(&mut self, vp: u64) {
        for s in &mut self.slots {
            if matches!(s, Some((v, _, _)) if *v == vp) {
                *s = None;
            }
        }
    }

    /// Drops everything.
    pub fn flush_all(&mut self) {
        self.slots = vec![None; self.slots.len()];
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn render_trace_cex(ctx: &Ctx, model: &Model, t: &TlbTrace) -> String {
    let mut out = String::from("tlb counterexample trace:\n");
    for (i, op) in t.ops.iter().enumerate() {
        let code = model.eval_bv(ctx, op.op).unwrap_or(3);
        let arg = model.eval_bv(ctx, op.arg).unwrap_or(0);
        let victim = model.eval_bv(ctx, op.victim).unwrap_or(0);
        let name = match code {
            0 => "insert",
            1 => "flush_page",
            2 => "flush_all",
            _ => "nop",
        };
        let phase = if i < t.n_pre { "pre " } else { "post" };
        out.push_str(&format!("  [{phase}] {name}(vp={arg}) victim={victim}\n"));
    }
    let remap = model.eval_bv(ctx, t.remap_va).unwrap_or(0);
    let probe = model.eval_bv(ctx, t.probe).unwrap_or(0);
    let write = model.eval_bool(ctx, t.probe_write).unwrap_or(false);
    out.push_str(&format!(
        "  remap_va={remap}\n  probe vp={probe} write={write}\n"
    ));
    out.push_str(&format!(
        "  hit={} hit_pfn={} hit_w={} / walk_now pfn={} w={}\n",
        model.eval_bool(ctx, t.hit).unwrap_or(false),
        model.eval_bv(ctx, t.hit_pfn).unwrap_or(0),
        model.eval_bv(ctx, t.hit_w).unwrap_or(0),
        model.eval_bv(ctx, t.walk_pfn_probe).unwrap_or(0),
        model.eval_bv(ctx, t.walk_w_probe).unwrap_or(0),
    ));
    out
}

fn bounds_of(cfg: &BmcConfig) -> String {
    let (c, pre, post) = cfg.tlb_bounds();
    format!("capacity={c} pre_ops={pre} post_ops={post}")
}

/// Harness: after a remap's shootdown, every TLB hit agrees with the
/// current walk for all symbolic traces, probes, and eviction orders.
pub fn coherence(cfg: &BmcConfig) -> HarnessReport {
    let (capacity, n_pre, n_post) = cfg.tlb_bounds();
    let flush_on_remap = cfg.seeded_bug != Some(SeededBug::TlbFlushSkip);
    let mut ctx = Ctx::new();
    let t = encode_tlb_trace(&mut ctx, capacity, n_pre, n_post, flush_on_remap, false);
    let pfn_ok = ctx.eq(t.hit_pfn, t.walk_pfn_probe);
    let w_ok = ctx.eq(t.hit_w, t.walk_w_probe);
    let agree = ctx.and2(pfn_ok, w_ok);
    let prop = ctx.implies(t.hit, agree);

    let mut prover = Prover::new(ctx);
    for &a in &t.assumptions {
        prover.assume(a);
    }
    prover.prove(prop, |ctx, model| render_trace_cex(ctx, model, &t));
    prover.finish("tlb_coherence", "tlb", bounds_of(cfg))
}

/// Harness: a final `flush_all` empties the TLB — no probe can hit, so
/// the next access walks from scratch.
pub fn flush_from_scratch(cfg: &BmcConfig) -> HarnessReport {
    let (capacity, n_pre, n_post) = cfg.tlb_bounds();
    let mut ctx = Ctx::new();
    let t = encode_tlb_trace(&mut ctx, capacity, n_pre, n_post, true, true);
    let no_hit = ctx.not(t.hit);
    let mut claims = vec![no_hit];
    for &v in &t.final_valid {
        claims.push(ctx.not(v));
    }
    let prop = ctx.and(&claims);

    let mut prover = Prover::new(ctx);
    for &a in &t.assumptions {
        prover.assume(a);
    }
    prover.prove(prop, |ctx, model| render_trace_cex(ctx, model, &t));
    prover.finish("tlb_flush_from_scratch", "tlb", bounds_of(cfg))
}
