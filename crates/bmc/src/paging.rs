//! Page-walker harnesses: spec agreement, permission monotonicity,
//! overflow freedom, and the split/join round trip.
//!
//! The clean-room spec here is deliberately written with different
//! machinery than the walker model in [`crate::model`]: bit-field
//! `extract`s instead of shift-and-mask, a flat memory read instead of
//! the nested page/word selection, and root-first `ite` nesting instead
//! of a fault accumulator. Agreement between the two circuits (and,
//! via the fuzz bridge, with the real `hk_vm::paging::walk`) is the
//! paging tentpole property.

use hk_abi::{KernelParams, PT_LEVELS};
use hk_smt::{BvBinOp, Ctx, Model, Sort, TermId};
use hk_vm::MemoryMap;

use crate::harness::{BmcConfig, HarnessReport, Prover};
use crate::model::{
    encode_walk, fault_name, render_tables, SymMem, WalkFlavor, FAULT_BAD_FRAME,
    FAULT_NON_CANONICAL, FAULT_NOT_PRESENT, FAULT_NOT_USER, FAULT_NOT_WRITABLE,
};

/// Kernel-region words used by every BMC memory map. The value is
/// arbitrary (it only offsets the region bases); 64 matches the vm unit
/// tests.
pub const KERNEL_WORDS: u64 = 64;

/// Outputs of the clean-room spec walk circuit.
pub struct SpecWalk {
    /// Translation succeeded.
    pub ok: TermId,
    /// Leaf frame number.
    pub pfn: TermId,
    /// Translated physical word address.
    pub phys_addr: TermId,
    /// Leaf grants writes (Bool).
    pub writable: TermId,
    /// First fault code, Bv(4).
    pub fault_code: TermId,
    /// First fault level, Bv(4).
    pub fault_level: TermId,
}

/// Encodes the clean-room executable spec of the 4-level walk.
pub fn encode_spec_walk(
    ctx: &mut Ctx,
    mem: &SymMem,
    map: &MemoryMap,
    root_pn: TermId,
    va: TermId,
    is_write: TermId,
) -> SpecWalk {
    let params = &map.params;
    let k = params.page_words.trailing_zeros();
    let total_bits = k * (PT_LEVELS as u32 + 1);
    let nr_pages = ctx.bv_const(64, params.nr_pages);
    let nr_pfns = ctx.bv_const(64, params.nr_pfns());
    let zero_bit = |ctx: &mut Ctx, t: TermId, bit: u32| {
        let b = ctx.extract(t, bit, bit);
        let z = ctx.bv_const(1, 0);
        ctx.eq(b, z)
    };

    // Bit-field decomposition of the VA.
    let noncanon = if total_bits < 64 {
        let hi = ctx.extract(va, 63, total_bits);
        let z = ctx.bv_const(64 - total_bits, 0);
        ctx.ne(hi, z)
    } else {
        ctx.fls()
    };
    let off_bits = ctx.extract(va, k - 1, 0);
    let offset = ctx.zext(off_bits, 64);

    // Walk the levels root-first, collecting per-level predicates.
    struct Level {
        table_ok: TermId,
        present: TermId,
        user: TermId,
        frame_ok: TermId,
        entry: TermId,
        level: u64,
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut pn = root_pn;
    for i in 0..PT_LEVELS as u32 {
        let level = PT_LEVELS as u32 - 1 - i;
        let idx_bits = ctx.extract(va, k * (level + 2) - 1, k * (level + 1));
        let ix = ctx.zext(idx_bits, 64);
        let table_ok = ctx.ult(pn, nr_pages);
        let entry = mem.read_flat(ctx, pn, ix);
        let np = zero_bit(ctx, entry, 0);
        let present = ctx.not(np);
        let nu = zero_bit(ctx, entry, 2);
        let user = ctx.not(nu);
        let pfn_bits = ctx.extract(entry, 63, 12);
        let pfn = ctx.sext(pfn_bits, 64);
        let frame_ok = ctx.ult(pfn, nr_pfns);
        levels.push(Level {
            table_ok,
            present,
            user,
            frame_ok,
            entry,
            level: level as u64,
        });
        pn = pfn;
    }
    let leaf_entry = levels.last().unwrap().entry;
    let nw = zero_bit(ctx, leaf_entry, 1);
    let writable = ctx.not(nw);

    // Fault selection, innermost (leaf write check) outward to the
    // root, then the canonicality check on the very outside.
    let mut ok = {
        let nw_denied = ctx.and2(is_write, nw);
        ctx.not(nw_denied)
    };
    let mut code = ctx.bv_const(4, FAULT_NOT_WRITABLE);
    let mut level_t = ctx.bv_const(4, 0);
    for l in levels.iter().rev() {
        let lvl_ok = ctx.and(&[l.table_ok, l.present, l.user, l.frame_ok]);
        let bad = ctx.bv_const(4, FAULT_BAD_FRAME);
        let np = ctx.bv_const(4, FAULT_NOT_PRESENT);
        let nu = ctx.bv_const(4, FAULT_NOT_USER);
        let c1 = ctx.ite(l.user, bad, nu);
        let c2 = ctx.ite(l.present, c1, np);
        let lvl_code = ctx.ite(l.table_ok, c2, bad);
        let lc = ctx.bv_const(4, l.level);
        code = ctx.ite(lvl_ok, code, lvl_code);
        level_t = ctx.ite(lvl_ok, level_t, lc);
        ok = ctx.and2(lvl_ok, ok);
    }
    let ncc = ctx.bv_const(4, FAULT_NON_CANONICAL);
    let ncl = ctx.bv_const(4, PT_LEVELS - 1);
    code = ctx.ite(noncanon, ncc, code);
    level_t = ctx.ite(noncanon, ncl, level_t);
    let canon = ctx.not(noncanon);
    ok = ctx.and2(canon, ok);

    // Address join: page base Or'd with the (disjoint) word offset.
    let kc = ctx.bv_const(64, k as u64);
    let in_ram = ctx.ult(pn, nr_pages);
    let pages_base = ctx.bv_const(64, map.pages_base());
    let dma_base = ctx.bv_const(64, map.dma_base());
    let ram_off = ctx.bv_bin(BvBinOp::Shl, pn, kc);
    let ram_base = ctx.bv_add(pages_base, ram_off);
    let dpfn = ctx.bv_sub(pn, nr_pages);
    let dma_off = ctx.bv_bin(BvBinOp::Shl, dpfn, kc);
    let dma_addr = ctx.bv_add(dma_base, dma_off);
    let page_addr = ctx.ite(in_ram, ram_base, dma_addr);
    let phys_addr = ctx.bv_bin(BvBinOp::Or, page_addr, offset);

    SpecWalk {
        ok,
        pfn: pn,
        phys_addr,
        writable,
        fault_code: code,
        fault_level: level_t,
    }
}

/// Concrete clean-room walk for the differential fuzz bridge: a third
/// implementation (after `hk_vm::paging::walk` and the two circuits)
/// using division/modulo arithmetic over a plain word slice.
///
/// `ram` is the RAM-page region only (`nr_pages * page_words` words);
/// `kernel_words` fixes the region bases. Returns
/// `Ok((pfn, phys_addr, writable))` or `Err((fault_code, level))` in
/// the [`crate::model`] fault-code convention.
pub fn spec_walk(
    params: &KernelParams,
    kernel_words: u64,
    ram: &[i64],
    root_pn: u64,
    va: u64,
    write: bool,
) -> Result<(u64, u64, bool), (u64, u64)> {
    let pw = params.page_words;
    let levels = PT_LEVELS;
    let va_limit = pw.checked_pow(levels as u32 + 1).expect("va space fits");
    if va >= va_limit {
        return Err((FAULT_NON_CANONICAL, levels - 1));
    }
    let pages_base = kernel_words;
    let dma_base = pages_base + params.nr_pages * pw;
    let mut pn = root_pn;
    let mut entry = 0i64;
    for i in 0..levels {
        let level = levels - 1 - i;
        if pn >= params.nr_pages {
            return Err((FAULT_BAD_FRAME, level));
        }
        let ix = (va / pw.pow(level as u32 + 1)) % pw;
        entry = ram[(pn * pw + ix) as usize];
        if entry.rem_euclid(2) == 0 {
            return Err((FAULT_NOT_PRESENT, level));
        }
        if entry.div_euclid(4).rem_euclid(2) == 0 {
            return Err((FAULT_NOT_USER, level));
        }
        let pfn = entry.div_euclid(4096);
        if pfn < 0 || pfn as u64 >= params.nr_pfns() {
            return Err((FAULT_BAD_FRAME, level));
        }
        pn = pfn as u64;
    }
    let writable = entry.div_euclid(2).rem_euclid(2) != 0;
    if write && !writable {
        return Err((FAULT_NOT_WRITABLE, 0));
    }
    let page_addr = if pn < params.nr_pages {
        pages_base + pn * pw
    } else {
        dma_base + (pn - params.nr_pages) * pw
    };
    Ok((pn, page_addr + va % pw, writable))
}

struct WalkSetup {
    mem: SymMem,
    map: MemoryMap,
    root: TermId,
    va: TermId,
}

fn setup(ctx: &mut Ctx, cfg: &BmcConfig) -> WalkSetup {
    let params = cfg.params();
    let map = MemoryMap::new(params, KERNEL_WORDS);
    let mem = SymMem::new(ctx, &params);
    let root = ctx.var("root_pn", Sort::Bv(64));
    let va = ctx.var("va", Sort::Bv(64));
    WalkSetup { mem, map, root, va }
}

fn bounds_of(params: &KernelParams) -> String {
    format!(
        "nr_pages={} page_words={} nr_dmapages={}",
        params.nr_pages, params.page_words, params.nr_dmapages
    )
}

fn render_walk_cex(
    ctx: &Ctx,
    model: &Model,
    mem: &SymMem,
    root: TermId,
    va: TermId,
    detail: &str,
) -> String {
    let r = model.eval_bv(ctx, root).unwrap_or(0);
    let v = model.eval_bv(ctx, va).unwrap_or(0);
    format!(
        "paging counterexample: root_pn={r} va={v:#x}\n{detail}\nconcrete page tables:\n{}",
        render_tables(ctx, model, mem)
    )
}

fn render_outcome(ctx: &Ctx, model: &Model, ok: TermId, code: TermId, level: TermId) -> String {
    if model.eval_bool(ctx, ok).unwrap_or(false) {
        "ok".to_string()
    } else {
        let c = model.eval_bv(ctx, code).unwrap_or(15);
        let l = model.eval_bv(ctx, level).unwrap_or(15);
        format!("fault {} at level {l}", fault_name(c))
    }
}

/// Harness: the walker model and the clean-room spec agree on verdict,
/// translation, and fault classification for every bounded table state.
pub fn walk_agrees_spec(cfg: &BmcConfig) -> HarnessReport {
    let mut ctx = Ctx::new();
    let s = setup(&mut ctx, cfg);
    let is_write = ctx.var("is_write", Sort::Bool);
    let w = encode_walk(
        &mut ctx,
        &s.mem,
        &s.map,
        s.root,
        s.va,
        is_write,
        WalkFlavor::Cpu,
        None,
        cfg.seeded_bug,
    );
    let spec = encode_spec_walk(&mut ctx, &s.mem, &s.map, s.root, s.va, is_write);

    let same_ok = ctx.eq(w.ok, spec.ok);
    let same_pfn = ctx.eq(w.pfn, spec.pfn);
    let same_addr = ctx.eq(w.phys_addr, spec.phys_addr);
    let same_w = ctx.eq(w.writable, spec.writable);
    let ok_agree = ctx.and(&[same_pfn, same_addr, same_w]);
    let when_ok = ctx.implies(w.ok, ok_agree);
    let same_code = ctx.eq(w.fault_code, spec.fault_code);
    let same_level = ctx.eq(w.fault_level, spec.fault_level);
    let fault_agree = ctx.and2(same_code, same_level);
    let not_ok = ctx.not(w.ok);
    let when_fault = ctx.implies(not_ok, fault_agree);
    let prop = ctx.and(&[same_ok, when_ok, when_fault]);

    let mut prover = Prover::new(ctx);
    let (mem, root, va) = (&s.mem, s.root, s.va);
    prover.prove(prop, |ctx, model| {
        let detail = format!(
            "write={} walker: {} / spec: {}",
            model.eval_bool(ctx, is_write).unwrap_or(false),
            render_outcome(ctx, model, w.ok, w.fault_code, w.fault_level),
            render_outcome(ctx, model, spec.ok, spec.fault_code, spec.fault_level),
        );
        render_walk_cex(ctx, model, mem, root, va, &detail)
    });
    prover.finish(
        "paging_walk_agrees_spec",
        "paging",
        bounds_of(&cfg.params()),
    )
}

/// Harness: permissions compose monotonically — a successful write walk
/// implies a successful read walk with the identical translation, and a
/// writable read walk implies the write walk succeeds.
pub fn perm_monotonic(cfg: &BmcConfig) -> HarnessReport {
    let mut ctx = Ctx::new();
    let s = setup(&mut ctx, cfg);
    let t = ctx.tru();
    let f = ctx.fls();
    let ww = encode_walk(
        &mut ctx,
        &s.mem,
        &s.map,
        s.root,
        s.va,
        t,
        WalkFlavor::Cpu,
        None,
        cfg.seeded_bug,
    );
    let wr = encode_walk(
        &mut ctx,
        &s.mem,
        &s.map,
        s.root,
        s.va,
        f,
        WalkFlavor::Cpu,
        None,
        cfg.seeded_bug,
    );

    let same_pfn = ctx.eq(ww.pfn, wr.pfn);
    let same_addr = ctx.eq(ww.phys_addr, wr.phys_addr);
    let strong = ctx.and(&[wr.ok, same_pfn, same_addr, ww.writable, wr.writable]);
    let write_implies_read = ctx.implies(ww.ok, strong);
    let writable_read = ctx.and2(wr.ok, wr.writable);
    let read_implies_write = ctx.implies(writable_read, ww.ok);
    let prop = ctx.and2(write_implies_read, read_implies_write);

    let mut prover = Prover::new(ctx);
    let (mem, root, va) = (&s.mem, s.root, s.va);
    prover.prove(prop, |ctx, model| {
        let detail = format!(
            "write walk: {} / read walk: {}",
            render_outcome(ctx, model, ww.ok, ww.fault_code, ww.fault_level),
            render_outcome(ctx, model, wr.ok, wr.fault_code, wr.fault_level),
        );
        render_walk_cex(ctx, model, mem, root, va, &detail)
    });
    prover.finish("paging_perm_monotonic", "paging", bounds_of(&cfg.params()))
}

/// Harness: every address the walk computes — each level's entry
/// address and the final translation — equals its 66-bit recomputation
/// (no wrap) and stays inside its region.
pub fn no_overflow(cfg: &BmcConfig) -> HarnessReport {
    let mut ctx = Ctx::new();
    let s = setup(&mut ctx, cfg);
    let is_write = ctx.var("is_write", Sort::Bool);
    let w = encode_walk(
        &mut ctx,
        &s.mem,
        &s.map,
        s.root,
        s.va,
        is_write,
        WalkFlavor::Cpu,
        None,
        cfg.seeded_bug,
    );

    let pages_base = ctx.bv_const(64, s.map.pages_base());
    let dma_base = ctx.bv_const(64, s.map.dma_base());
    let total = ctx.bv_const(64, s.map.total_words());
    let mut claims = Vec::new();
    for l in &w.levels {
        let no_wrap = ctx.not(l.entry_addr_ovf);
        let lo = ctx.ule(pages_base, l.entry_addr);
        let hi = ctx.ult(l.entry_addr, dma_base);
        let in_region = ctx.and(&[no_wrap, lo, hi]);
        claims.push(ctx.implies(l.reached, in_region));
    }
    let no_wrap = ctx.not(w.phys_addr_ovf);
    let lo = ctx.ule(pages_base, w.phys_addr);
    let hi = ctx.ult(w.phys_addr, total);
    let final_in = ctx.and(&[no_wrap, lo, hi]);
    claims.push(ctx.implies(w.ok, final_in));
    let prop = ctx.and(&claims);

    let mut prover = Prover::new(ctx);
    let (mem, root, va) = (&s.mem, s.root, s.va);
    prover.prove(prop, |ctx, model| {
        let detail = format!(
            "walk: {}",
            render_outcome(ctx, model, w.ok, w.fault_code, w.fault_level)
        );
        render_walk_cex(ctx, model, mem, root, va, &detail)
    });
    prover.finish("paging_no_overflow", "paging", bounds_of(&cfg.params()))
}

/// Harness: `split_va`/`join_va` invert each other — join-after-split
/// is the identity on canonical addresses, and split-after-join
/// recovers in-range indices and offset exactly.
pub fn split_join_roundtrip(cfg: &BmcConfig) -> HarnessReport {
    let params = cfg.params();
    let k = params.page_words.trailing_zeros();
    let mask = params.page_words - 1;
    let mut ctx = Ctx::new();

    // Direction 1: canonical va => join(split(va)) == va.
    let va = ctx.var("va", Sort::Bv(64));
    let total_bits = k * (PT_LEVELS as u32 + 1);
    let hi = ctx.extract(va, 63, total_bits);
    let zhi = ctx.bv_const(64 - total_bits, 0);
    let canon = ctx.eq(hi, zhi);
    let mask_c = ctx.bv_const(64, mask);
    let mut rejoin = ctx.bv_bin(BvBinOp::And, va, mask_c);
    for level in 0..PT_LEVELS {
        let sc = ctx.bv_const(64, k as u64 * (level + 1));
        let sh = ctx.bv_bin(BvBinOp::Lshr, va, sc);
        let ix = ctx.bv_bin(BvBinOp::And, sh, mask_c);
        let back = ctx.bv_bin(BvBinOp::Shl, ix, sc);
        rejoin = ctx.bv_bin(BvBinOp::Or, rejoin, back);
    }
    let same = ctx.eq(rejoin, va);
    let dir1 = ctx.implies(canon, same);

    // Direction 2: in-range parts => split(join(parts)) == parts, and
    // the joined address is canonical.
    let pw = ctx.bv_const(64, params.page_words);
    let off = ctx.var("off", Sort::Bv(64));
    let mut parts = vec![off];
    let mut in_range = vec![ctx.ult(off, pw)];
    let mut joined = off;
    for level in 0..PT_LEVELS {
        let ix = ctx.var(format!("ix{level}"), Sort::Bv(64));
        parts.push(ix);
        in_range.push(ctx.ult(ix, pw));
        let sc = ctx.bv_const(64, k as u64 * (level + 1));
        let back = ctx.bv_bin(BvBinOp::Shl, ix, sc);
        joined = ctx.bv_bin(BvBinOp::Or, joined, back);
    }
    let mut recovered = vec![ctx.bv_bin(BvBinOp::And, joined, mask_c)];
    for level in 0..PT_LEVELS {
        let sc = ctx.bv_const(64, k as u64 * (level + 1));
        let sh = ctx.bv_bin(BvBinOp::Lshr, joined, sc);
        recovered.push(ctx.bv_bin(BvBinOp::And, sh, mask_c));
    }
    let hi2 = ctx.extract(joined, 63, total_bits);
    let mut claims = vec![ctx.eq(hi2, zhi)];
    for (p, r) in parts.iter().zip(recovered.iter()) {
        claims.push(ctx.eq(*p, *r));
    }
    let all = ctx.and(&claims);
    let pre = ctx.and(&in_range);
    let dir2 = ctx.implies(pre, all);
    let prop = ctx.and2(dir1, dir2);

    let mut prover = Prover::new(ctx);
    prover.prove(prop, |ctx, model| {
        format!(
            "split/join mismatch: va={:#x} joined={:#x}",
            model.eval_bv(ctx, va).unwrap_or(0),
            model.eval_bv(ctx, joined).unwrap_or(0),
        )
    });
    prover.finish("paging_split_join_roundtrip", "paging", bounds_of(&params))
}
