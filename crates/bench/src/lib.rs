//! Shared plumbing for the evaluation harness: the runtime benchmark
//! bodies (used by both the printable-table binaries and the plain
//! timing benches), a vendored PRNG, and table-formatting helpers.
//!
//! Every table and figure of the paper's §6 has a regenerator here:
//!
//! | artifact | binary |
//! |----------|--------|
//! | Figure 7 (xv6 bugs)              | `fig7_bugs` |
//! | Figure 8 (lines of code)         | `fig8_loc` |
//! | Figure 9 (verifier stability)    | `fig9_stability` |
//! | Figure 10 (runtime benchmarks)   | `fig10_runtime` |
//! | Figure 11 (syscall vs hypercall) | `fig11_hypercall` |
//! | §6.3 scaling (pages x2/x4/x100)  | `tab_scaling` |
//! | §3.3 encodings ablation          | `tab_encodings` |

use hk_abi::{KernelParams, Sysno, PTE_P, PTE_U, PTE_W};
use hk_kernel::{boot::boot, Kernel};
use hk_mono::MonoSys;
use hk_vm::{CostModel, Machine};

/// A tiny vendored xorshift64* PRNG, so the harness (and the randomized
/// tests elsewhere in the workspace) need no external crates and run
/// fully offline. Deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a PRNG from a nonzero seed (zero is mapped away).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform value in `[lo, hi)` as i64; `lo < hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// A coin flip with probability `num/den` of true.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Times `iters` runs of `f` and prints min/mean per-iteration wall
/// clock — the offline stand-in for the Criterion harness. Returns the
/// min.
pub fn bench_loop<F: FnMut()>(label: &str, iters: u32, mut f: F) -> std::time::Duration {
    let mut best = std::time::Duration::MAX;
    let total_start = std::time::Instant::now();
    for _ in 0..iters {
        let start = std::time::Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    let mean = total_start.elapsed() / iters.max(1);
    println!(
        "{label:<28} {:>12} {:>12}   ({iters} iters)",
        format!("min {:.3?}", best),
        format!("mean {:.3?}", mean),
    );
    best
}

/// Prints a row of a paper-vs-measured table.
pub fn row(label: &str, cols: &[String]) {
    print!("{label:<28}");
    for c in cols {
        print!(" {c:>14}");
    }
    println!();
}

/// A booted Hyperkernel machine for runtime measurements.
pub struct HkBench {
    /// The kernel.
    pub kernel: Kernel,
    /// The machine.
    pub machine: Machine,
    /// PT page holding the benchmark mappings.
    pub pt: i64,
    /// First mapped frame page number.
    pub first_frame: i64,
    /// Number of mapped pages.
    pub mapped: i64,
}

impl HkBench {
    /// Boots and maps `n` writable pages at PT slots `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if setup syscalls fail (kernel bug).
    pub fn new(params: KernelParams, cost: CostModel, n: i64) -> HkBench {
        assert!(n <= params.page_words as i64, "one PT only");
        let kernel = Kernel::new(params).expect("kernel");
        let mut machine = kernel.new_machine(cost);
        boot(&kernel, &mut machine);
        let all = PTE_P | PTE_W | PTE_U;
        let t = |m: &mut Machine, s, a: &[i64]| kernel.trap(m, s, a).unwrap();
        assert_eq!(t(&mut machine, Sysno::AllocPdpt, &[1, 0, 0, 3, all]), 0);
        assert_eq!(t(&mut machine, Sysno::AllocPd, &[1, 3, 0, 4, all]), 0);
        assert_eq!(t(&mut machine, Sysno::AllocPt, &[1, 4, 0, 5, all]), 0);
        for i in 0..n {
            assert_eq!(
                t(&mut machine, Sysno::AllocFrame, &[1, 5, i, 6 + i, all]),
                0,
                "map page {i}"
            );
        }
        HkBench {
            kernel,
            machine,
            pt: 5,
            first_frame: 6,
            mapped: n,
        }
    }

    /// One hypercall round trip into the verified kernel (`sys_nop`).
    pub fn nop(&mut self) -> u64 {
        let before = self.machine.cycles.total;
        self.machine.charge_hypercall_roundtrip();
        self.kernel
            .trap(&mut self.machine, Sysno::Nop, &[])
            .unwrap();
        self.machine.cycles.total - before
    }

    /// Virtual address of mapped page `i`, word 0.
    pub fn va(&self, i: i64) -> u64 {
        (i as u64) * self.machine.params().page_words
    }

    /// mprotect analogue through the verified interface.
    pub fn protect(&mut self, i: i64, writable: bool) -> u64 {
        let before = self.machine.cycles.total;
        let perm = if writable {
            PTE_P | PTE_W | PTE_U
        } else {
            PTE_P | PTE_U
        };
        self.machine.charge_hypercall_roundtrip();
        let r = self
            .kernel
            .trap(
                &mut self.machine,
                Sysno::ProtectFrame,
                &[self.pt, i, self.first_frame + i, perm],
            )
            .unwrap();
        assert_eq!(r, 0);
        self.machine.cycles.total - before
    }

    /// The `fault` benchmark: cycles to deliver a write-protection fault
    /// to a user-space handler. Protection setup/teardown is outside the
    /// measured window, as in the paper.
    pub fn fault_dispatch(&mut self, i: i64) -> u64 {
        self.protect(i, false);
        let va = self.va(i);
        let before = self.machine.cycles.total;
        let r = self.machine.guest_write(va, 1);
        assert!(r.is_err(), "expected a fault");
        self.machine.charge_fault_direct_user();
        let cost = self.machine.cycles.total - before;
        self.protect(i, true);
        cost
    }

    /// The Appel-Li "prot1+trap+unprot" step on page `i`: protect one
    /// page, take the write fault, unprotect in the handler, retry.
    pub fn appel1_step(&mut self, i: i64) -> u64 {
        let before = self.machine.cycles.total;
        self.protect(i, false);
        let va = self.va(i);
        assert!(self.machine.guest_write(va, 7).is_err());
        self.machine.charge_fault_direct_user();
        self.protect(i, true); // the user handler unprotects
        assert!(self.machine.guest_write(va, 7).is_ok());
        self.machine.cycles.total - before
    }

    /// The Appel-Li "protN+trap+unprot" round over all mapped pages.
    pub fn appel2_round(&mut self) -> u64 {
        let before = self.machine.cycles.total;
        for i in 0..self.mapped {
            self.protect(i, false);
        }
        for i in 0..self.mapped {
            let va = self.va(i);
            assert!(self.machine.guest_write(va, 9).is_err());
            self.machine.charge_fault_direct_user();
            self.protect(i, true);
            assert!(self.machine.guest_write(va, 9).is_ok());
        }
        self.machine.cycles.total - before
    }
}

/// The baseline (monolithic) machine with `n` mapped pages.
pub struct MonoBench {
    /// The baseline system.
    pub sys: MonoSys,
    /// Number of mapped pages.
    pub mapped: i64,
}

impl MonoBench {
    /// Boots the baseline and maps `n` pages.
    pub fn new(params: KernelParams, cost: CostModel, n: i64) -> MonoBench {
        let mut sys = MonoSys::boot(params, cost);
        for i in 0..n {
            let va = sys.page_va(i as u64 + 1);
            sys.sys_mmap_page(va).expect("mmap");
            sys.user_write(va, 0).expect("touch");
        }
        MonoBench { sys, mapped: n }
    }

    /// Null syscall cost.
    pub fn nop(&mut self) -> u64 {
        let before = self.sys.machine.cycles.total;
        self.sys.sys_nop();
        self.sys.machine.cycles.total - before
    }

    /// Kernel-mediated fault dispatch cost.
    pub fn fault_dispatch(&mut self) -> u64 {
        let va = self.sys.page_va(1);
        self.sys.sys_mprotect(va, false).unwrap();
        self.sys.sys_sigaction();
        let before = self.sys.machine.cycles.total;
        let _ = self.sys.user_write(va, 1);
        let cost = self.sys.machine.cycles.total - before;
        self.sys.sys_mprotect(va, true).unwrap();
        cost
    }

    /// Appel-Li prot1 step on page `i`.
    pub fn appel1_step(&mut self, i: i64) -> u64 {
        let va = self.sys.page_va(i as u64 + 1);
        self.sys.sys_sigaction();
        let before = self.sys.machine.cycles.total;
        self.sys.sys_mprotect(va, false).unwrap();
        let _ = self.sys.user_write(va, 7);
        self.sys.sys_mprotect(va, true).unwrap();
        self.sys.user_write(va, 7).unwrap();
        self.sys.machine.cycles.total - before
    }

    /// Appel-Li protN round over all mapped pages.
    pub fn appel2_round(&mut self) -> u64 {
        self.sys.sys_sigaction();
        let before = self.sys.machine.cycles.total;
        for i in 0..self.mapped {
            let va = self.sys.page_va(i as u64 + 1);
            self.sys.sys_mprotect(va, false).unwrap();
        }
        for i in 0..self.mapped {
            let va = self.sys.page_va(i as u64 + 1);
            let _ = self.sys.user_write(va, 9);
            self.sys.sys_mprotect(va, true).unwrap();
            self.sys.user_write(va, 9).unwrap();
        }
        self.sys.machine.cycles.total - before
    }
}

/// Hyp-Linux null-syscall cost: in-process interception (Figure 10's
/// third column), measured through the emulator's dispatch constant.
pub fn hyp_linux_nop_cycles() -> u64 {
    136
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_shapes_match_figure_10() {
        let params = KernelParams::production();
        let cost = CostModel::default_model();
        let mut hk = HkBench::new(params, cost, 16);
        let mut mono = MonoBench::new(params, cost, 16);
        // Null syscall: hypercall ~5x slower than syscall (Figure 10 row 1).
        let hk_nop = hk.nop();
        let mono_nop = mono.nop();
        assert!(
            hk_nop > 3 * mono_nop && hk_nop < 8 * mono_nop,
            "hk {hk_nop} vs mono {mono_nop}"
        );
        // Fault dispatch: direct user delivery beats the kernel-mediated
        // path by ~3-6x (Figure 10 row 2 inverts the winner).
        let hk_fault = hk.fault_dispatch(0);
        let mono_fault = mono.fault_dispatch();
        assert!(
            mono_fault > 2 * hk_fault,
            "hk {hk_fault} vs mono {mono_fault}"
        );
        // Appel-Li: Hyperkernel wins (Figure 10 rows 3-4).
        let hk_a1: u64 = (0..8).map(|i| hk.appel1_step(i)).sum();
        let mono_a1: u64 = (0..8).map(|i| mono.appel1_step(i)).sum();
        assert!(hk_a1 < mono_a1, "hk {hk_a1} vs mono {mono_a1}");
        let hk_a2 = hk.appel2_round();
        let mono_a2 = mono.appel2_round();
        assert!(hk_a2 < mono_a2, "hk {hk_a2} vs mono {mono_a2}");
    }
}
