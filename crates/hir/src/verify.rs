//! Module well-formedness checking.
//!
//! Catches structural errors before interpretation or symbolic execution:
//! register/block/global references out of range, call arity mismatches,
//! and — crucially for the finite-interface discipline — recursion in the
//! call graph, which would make a handler non-finite.

use crate::analysis::CallGraph;
use crate::func::{Gep, Inst, Operand, Span, Terminator};
use crate::module::Module;

/// Formats ` at file:line:col` when the span is known, empty otherwise.
fn span_suffix(module: &Module, span: Span) -> String {
    if span.is_known() {
        let file = module.file_name(span.file).unwrap_or("<unknown>");
        format!(" at {file}:{}:{}", span.line, span.col)
    } else {
        String::new()
    }
}

/// Checks a module; returns all problems found (empty means well-formed).
pub fn check_module(module: &Module) -> Vec<String> {
    let mut errors = Vec::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        let fname = &f.name;
        if f.blocks.is_empty() {
            errors.push(format!("{fname}: no blocks"));
            continue;
        }
        if f.num_params > f.num_regs {
            errors.push(format!("{fname}: more params than registers"));
        }
        let check_reg = |r: u32, errors: &mut Vec<String>| {
            if r >= f.num_regs {
                errors.push(format!("{fname}: register r{r} out of range"));
            }
        };
        let check_op = |op: Operand, errors: &mut Vec<String>| {
            if let Operand::Reg(r) = op {
                check_reg(r.0, errors);
            }
        };
        let check_gep = |gep: &Gep, errors: &mut Vec<String>| {
            if gep.global.0 as usize >= module.globals.len() {
                errors.push(format!("{fname}: global id {} out of range", gep.global.0));
                return;
            }
            let g = module.global_decl(gep.global);
            if gep.field.0 as usize >= g.fields.len() {
                errors.push(format!(
                    "{fname}: field id {} out of range for global {}",
                    gep.field.0, g.name
                ));
            }
            check_op(gep.index, errors);
            check_op(gep.sub, errors);
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                match inst {
                    Inst::Bin { dst, a, b, .. } | Inst::Cmp { dst, a, b, .. } => {
                        check_reg(dst.0, &mut errors);
                        check_op(*a, &mut errors);
                        check_op(*b, &mut errors);
                    }
                    Inst::Copy { dst, src } => {
                        check_reg(dst.0, &mut errors);
                        check_op(*src, &mut errors);
                    }
                    Inst::Load { dst, gep } => {
                        check_reg(dst.0, &mut errors);
                        check_gep(gep, &mut errors);
                    }
                    Inst::Store { gep, val } => {
                        check_gep(gep, &mut errors);
                        check_op(*val, &mut errors);
                    }
                    Inst::Call { dst, func, args } => {
                        check_reg(dst.0, &mut errors);
                        if func.0 as usize >= module.funcs.len() {
                            errors.push(format!("{fname}: call to unknown function id {}", func.0));
                        } else {
                            let callee = module.func_def(*func);
                            if callee.num_params as usize != args.len() {
                                errors.push(format!(
                                    "{fname}: call to {} with {} args, expected {}",
                                    callee.name,
                                    args.len(),
                                    callee.num_params
                                ));
                            }
                        }
                        for a in args {
                            check_op(*a, &mut errors);
                        }
                    }
                }
            }
            let check_target = |t: crate::func::BlockId, errors: &mut Vec<String>| {
                if t.0 as usize >= f.blocks.len() {
                    errors.push(format!(
                        "{fname}: block {bi} jumps to missing block {}{}",
                        t.0,
                        span_suffix(module, b.term_span)
                    ));
                }
            };
            match &b.term {
                Terminator::Jmp(t) => check_target(*t, &mut errors),
                Terminator::Br { cond, then_, else_ } => {
                    check_op(*cond, &mut errors);
                    check_target(*then_, &mut errors);
                    check_target(*else_, &mut errors);
                }
                Terminator::Ret(v) => check_op(*v, &mut errors),
            }
        }
        let _ = fi;
    }
    let graph = CallGraph::build(module);
    if let Some(cycle) = graph.find_cycle() {
        let names: Vec<&str> = cycle
            .iter()
            .map(|f| module.func_def(*f).name.as_str())
            .collect();
        let site = graph.call_site(cycle[0], cycle[1]).unwrap_or(Span::NONE);
        errors.push(format!(
            "recursion detected (non-finite interface): {}{}",
            names.join(" -> "),
            span_suffix(module, site)
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::func::{BinOp, Inst, Operand, Reg};

    #[test]
    fn clean_module_passes() {
        let mut m = Module::new();
        let mut fb = FuncBuilder::new("f", 1);
        let x = fb.param(0);
        let r = fb.bin(BinOp::Add, Operand::Reg(x), Operand::Const(1));
        fb.ret(Operand::Reg(r));
        m.add_func(fb.finish());
        assert!(check_module(&m).is_empty());
    }

    #[test]
    fn recursion_is_rejected() {
        let mut m = Module::new();
        // Two mutually recursive functions; ids assigned in order.
        let mut fb = FuncBuilder::new("even", 1);
        let r = fb.call(crate::module::FuncId(1), vec![Operand::Reg(fb.param(0))]);
        fb.ret(Operand::Reg(r));
        m.add_func(fb.finish());
        let mut fb = FuncBuilder::new("odd", 1);
        let r = fb.call(crate::module::FuncId(0), vec![Operand::Reg(fb.param(0))]);
        fb.ret(Operand::Reg(r));
        m.add_func(fb.finish());
        let errors = check_module(&m);
        assert!(errors.iter().any(|e| e.contains("recursion")), "{errors:?}");
    }

    #[test]
    fn missing_block_target_reports_span() {
        let mut m = Module::new();
        let file = m.intern_file("t.hc");
        let mut fb = FuncBuilder::new("f", 0);
        fb.set_span(Span::new(file, 7, 3));
        fb.jmp(crate::func::BlockId(9));
        m.add_func(fb.finish());
        let errors = check_module(&m);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing block 9") && e.contains("t.hc:7:3")),
            "{errors:?}"
        );
    }

    #[test]
    fn bad_register_is_reported() {
        let mut m = Module::new();
        let mut fb = FuncBuilder::new("f", 0);
        fb.ret(Operand::Const(0));
        let mut f = fb.finish();
        // Corrupt: reference a register beyond num_regs.
        f.blocks[0].insts.push(Inst::Copy {
            dst: Reg(99),
            src: Operand::Const(1),
        });
        m.add_func(f);
        let errors = check_module(&m);
        assert!(errors.iter().any(|e| e.contains("r99")), "{errors:?}");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut m = Module::new();
        let mut fb = FuncBuilder::new("callee", 2);
        fb.ret(Operand::Const(0));
        let callee = m.add_func(fb.finish());
        let mut fb = FuncBuilder::new("caller", 0);
        let r = fb.call(callee, vec![Operand::Const(1)]);
        fb.ret(Operand::Reg(r));
        m.add_func(fb.finish());
        let errors = check_module(&m);
        assert!(
            errors.iter().any(|e| e.contains("expected 2")),
            "{errors:?}"
        );
    }
}
