//! IOMMU/DMA harnesses: device translations are confined to the DMA
//! region and always come from the symbolic device-table grant set.
//!
//! The model wraps the shared walker ([`crate::model::encode_walk`],
//! IOMMU flavor: no user-bit check, `NoRoot` before everything,
//! `OutsideDmaRegion` at the leaf) with a symbolic device table: one
//! `(root_set, root_pn)` pair per device, selected by a symbolic
//! device id.

use hk_smt::{BvBinOp, Ctx, Model, Sort, TermId};
use hk_vm::iommu::DmaFault;
use hk_vm::MemoryMap;

use crate::harness::{BmcConfig, HarnessReport, Prover};
use crate::model::{
    encode_walk, fault_name, render_tables, SymMem, WalkFlavor, WalkModel, FAULT_BAD_FRAME,
    FAULT_NON_CANONICAL, FAULT_NOT_PRESENT, FAULT_NOT_WRITABLE, FAULT_NO_ROOT, FAULT_OUTSIDE_DMA,
};
use crate::paging::KERNEL_WORDS;

/// The symbolic IOMMU instance.
pub struct IommuModel {
    /// RAM holding the device page tables.
    pub mem: SymMem,
    /// Region geometry.
    pub map: MemoryMap,
    /// Symbolic device id (assumed `< nr_devs`).
    pub dev: TermId,
    /// Per-device "root programmed" bit.
    pub root_set: Vec<TermId>,
    /// Per-device root page number.
    pub root_pn: Vec<TermId>,
    /// Symbolic device address.
    pub dva: TermId,
    /// Write access (Bool).
    pub is_write: TermId,
    /// The encoded walk.
    pub walk: WalkModel,
    /// Constraints to assume (device id in range).
    pub assumptions: Vec<TermId>,
}

/// Encodes the IOMMU walk for a symbolic device over symbolic tables.
pub fn encode_iommu(ctx: &mut Ctx, cfg: &BmcConfig) -> IommuModel {
    let params = cfg.params();
    let map = MemoryMap::new(params, KERNEL_WORDS);
    let mem = SymMem::new(ctx, &params);
    let dev = ctx.var("dev", Sort::Bv(64));
    let dva = ctx.var("dva", Sort::Bv(64));
    let is_write = ctx.var("dma_write", Sort::Bool);

    let mut root_set = Vec::new();
    let mut root_pn = Vec::new();
    for d in 0..params.nr_devs {
        root_set.push(ctx.var(format!("root_set{d}"), Sort::Bool));
        root_pn.push(ctx.var(format!("root_pn{d}"), Sort::Bv(64)));
    }
    let mut sel_set = ctx.fls();
    let mut sel_pn = ctx.bv_const(64, 0);
    for d in (0..params.nr_devs as usize).rev() {
        let dc = ctx.bv_const(64, d as u64);
        let here = ctx.eq(dev, dc);
        sel_set = ctx.ite(here, root_set[d], sel_set);
        sel_pn = ctx.ite(here, root_pn[d], sel_pn);
    }
    let no_root = ctx.not(sel_set);

    let walk = encode_walk(
        ctx,
        &mem,
        &map,
        sel_pn,
        dva,
        is_write,
        WalkFlavor::Iommu,
        Some(no_root),
        cfg.seeded_bug,
    );

    let nr_devs = ctx.bv_const(64, params.nr_devs);
    let assumptions = vec![ctx.ult(dev, nr_devs)];
    IommuModel {
        mem,
        map,
        dev,
        root_set,
        root_pn,
        dva,
        is_write,
        walk,
        assumptions,
    }
}

/// Maps a concrete [`DmaFault`] into the model's `(code, level)`
/// convention (`level` is `None` for variants that don't carry one).
pub fn dma_fault_code(f: &DmaFault) -> (u64, Option<u64>) {
    match f {
        DmaFault::NoRoot => (FAULT_NO_ROOT, None),
        DmaFault::NonCanonical => (FAULT_NON_CANONICAL, None),
        DmaFault::NotPresent { level } => (FAULT_NOT_PRESENT, Some(*level as u64)),
        DmaFault::NotWritable => (FAULT_NOT_WRITABLE, None),
        DmaFault::OutsideDmaRegion => (FAULT_OUTSIDE_DMA, None),
        DmaFault::BadFrame { level } => (FAULT_BAD_FRAME, Some(*level as u64)),
    }
}

fn render_iommu_cex(ctx: &Ctx, model: &Model, m: &IommuModel, what: &str) -> String {
    let dev = model.eval_bv(ctx, m.dev).unwrap_or(0);
    let dva = model.eval_bv(ctx, m.dva).unwrap_or(0);
    let write = model.eval_bool(ctx, m.is_write).unwrap_or(false);
    let mut out = format!("iommu counterexample ({what}): dev={dev} dva={dva:#x} write={write}\n");
    out.push_str("  device table:");
    for d in 0..m.root_set.len() {
        if model.eval_bool(ctx, m.root_set[d]).unwrap_or(false) {
            let pn = model.eval_bv(ctx, m.root_pn[d]).unwrap_or(0);
            out.push_str(&format!(" dev{d}->root {pn}"));
        } else {
            out.push_str(&format!(" dev{d}->unset"));
        }
    }
    out.push('\n');
    if model.eval_bool(ctx, m.walk.ok).unwrap_or(false) {
        out.push_str(&format!(
            "  resolved pfn={} phys_addr={}\n",
            model.eval_bv(ctx, m.walk.pfn).unwrap_or(0),
            model.eval_bv(ctx, m.walk.phys_addr).unwrap_or(0),
        ));
    } else {
        let c = model.eval_bv(ctx, m.walk.fault_code).unwrap_or(15);
        out.push_str(&format!("  faulted: {}\n", fault_name(c)));
    }
    out.push_str("concrete page tables:\n");
    out.push_str(&render_tables(ctx, model, &m.mem));
    out
}

fn bounds_of(cfg: &BmcConfig) -> String {
    let p = cfg.params();
    format!(
        "nr_devs={} nr_pages={} nr_dmapages={}",
        p.nr_devs, p.nr_pages, p.nr_dmapages
    )
}

/// Harness: a successful device translation always lands in the DMA
/// region — frame in `[nr_pages, nr_pfns)`, address in
/// `[dma_base, total_words)`, with no wrap in the address arithmetic.
pub fn dma_confinement(cfg: &BmcConfig) -> HarnessReport {
    let mut ctx = Ctx::new();
    let m = encode_iommu(&mut ctx, cfg);
    let p = cfg.params();
    let nr_pages = ctx.bv_const(64, p.nr_pages);
    let nr_pfns = ctx.bv_const(64, p.nr_pfns());
    let dma_base = ctx.bv_const(64, m.map.dma_base());
    let total = ctx.bv_const(64, m.map.total_words());
    let pfn_lo = ctx.ule(nr_pages, m.walk.pfn);
    let pfn_hi = ctx.ult(m.walk.pfn, nr_pfns);
    let addr_lo = ctx.ule(dma_base, m.walk.phys_addr);
    let addr_hi = ctx.ult(m.walk.phys_addr, total);
    let no_wrap = ctx.not(m.walk.phys_addr_ovf);
    let confined = ctx.and(&[pfn_lo, pfn_hi, addr_lo, addr_hi, no_wrap]);
    let prop = ctx.implies(m.walk.ok, confined);

    let mut prover = Prover::new(ctx);
    for &a in &m.assumptions {
        prover.assume(a);
    }
    prover.prove(prop, |ctx, model| {
        render_iommu_cex(ctx, model, &m, "translation escaped the DMA region")
    });
    prover.finish("iommu_dma_confinement", "iommu", bounds_of(cfg))
}

/// Harness: every frame a device resolves is granted by some present
/// entry of the in-memory device tables — the walk cannot invent a
/// frame that no table entry names.
pub fn grant_set(cfg: &BmcConfig) -> HarnessReport {
    let mut ctx = Ctx::new();
    let m = encode_iommu(&mut ctx, cfg);
    let p = cfg.params();
    let one = ctx.bv_const(64, 1);
    let shift = ctx.bv_const(64, hk_abi::PTE_PFN_SHIFT as u64);
    let zero = ctx.bv_const(64, 0);
    let mut granted = Vec::new();
    for pn in 0..p.nr_pages {
        for w in 0..p.page_words {
            let word = m.mem.word(pn, w);
            let p_bit = ctx.bv_bin(BvBinOp::And, word, one);
            let present = ctx.ne(p_bit, zero);
            let pfn = ctx.bv_bin(BvBinOp::Ashr, word, shift);
            let names = ctx.eq(pfn, m.walk.pfn);
            granted.push(ctx.and2(present, names));
        }
    }
    let any = ctx.or(&granted);
    let prop = ctx.implies(m.walk.ok, any);

    let mut prover = Prover::new(ctx);
    for &a in &m.assumptions {
        prover.assume(a);
    }
    prover.prove(prop, |ctx, model| {
        render_iommu_cex(ctx, model, &m, "resolved frame granted by no table entry")
    });
    prover.finish("iommu_grant_set", "iommu", bounds_of(cfg))
}
