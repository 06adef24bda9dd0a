//! Driver-level properties of the verification orchestrator:
//!
//! * thread count must not change verdicts, report order, or the event
//!   stream (the parallel path re-serializes events);
//! * a shared query cache must make a second run over the unchanged
//!   image nearly free (≥ 90 % hit rate), and that must show up in the
//!   JSON report;
//! * the cache must never serve a stale verdict after the kernel image
//!   changes — the content-addressed key has to miss.

use std::sync::{Arc, Mutex};

use hk_abi::{KernelParams, Sysno};
use hk_core::{verify_image, EventSink, HandlerOutcome, VerifyConfig, VerifyEvent};
use hk_kernel::KernelImage;
use hk_smt::QueryCache;

/// Small but non-trivial subset: a no-op, an interrupt path, and a
/// file-descriptor path with real invariant obligations.
const SUBSET: [Sysno; 3] = [Sysno::Nop, Sysno::AckIntr, Sysno::Dup];

/// Renders an event with every nondeterministic field (timings, thread
/// count, cache counters) stripped, for cross-run comparison. Returns
/// `None` for events that are timing-dependent by design and so
/// excluded from determinism comparisons entirely.
fn stable_view(ev: &VerifyEvent) -> Option<String> {
    Some(match ev {
        // Whether (and how wide) a query races depends on spare core
        // budget at the moment it runs; the event documents this and
        // the verdict-bearing events below are what must stay stable.
        VerifyEvent::PortfolioStarted { .. } => return None,
        VerifyEvent::AnalysisStarted { roots } => format!("analysis roots={roots}"),
        VerifyEvent::AnalysisFinding {
            rendered,
            allowlisted,
        } => format!("finding allowlisted={allowlisted} {rendered}"),
        VerifyEvent::AnalysisFinished {
            findings,
            allowlisted,
            loop_bounds,
            ..
        } => format!(
            "analysis done findings={findings} allowlisted={allowlisted} bounds={loop_bounds}"
        ),
        VerifyEvent::RunStarted { total, .. } => format!("start total={total}"),
        VerifyEvent::HandlerStarted {
            sysno,
            index,
            total,
        } => {
            format!("begin[{index}/{total}] {}", sysno.func_name())
        }
        VerifyEvent::HandlerFinished {
            sysno,
            index,
            total,
            verdict,
            paths,
            side_checks,
            ..
        } => format!(
            "end[{index}/{total}] {} {verdict} paths={paths} checks={side_checks}",
            sysno.func_name()
        ),
        VerifyEvent::HandlerCertified {
            sysno,
            index,
            total,
            unsat_queries,
            certified,
            ..
        } => format!(
            "certified[{index}/{total}] {} {certified}/{unsat_queries}",
            sysno.func_name()
        ),
        VerifyEvent::RunFinished {
            verified, total, ..
        } => {
            format!("done {verified}/{total}")
        }
        // BMC-phase events never fire from verify_image; covered by
        // tests/bmc_phase.rs.
        VerifyEvent::BmcStarted { .. }
        | VerifyEvent::BmcFinding { .. }
        | VerifyEvent::BmcFinished { .. } => return None,
    })
}

fn run_with_threads(image: &KernelImage, threads: usize) -> (Vec<String>, Vec<(Sysno, String)>) {
    run_subset(image, threads, true)
}

fn run_subset(
    image: &KernelImage,
    threads: usize,
    incremental: bool,
) -> (Vec<String>, Vec<(Sysno, String)>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink_log = log.clone();
    let mut config = VerifyConfig {
        params: KernelParams::verification(),
        threads,
        only: SUBSET.to_vec(),
        events: EventSink::new(move |ev| {
            if let Some(s) = stable_view(ev) {
                sink_log.lock().unwrap().push(s);
            }
        }),
        ..VerifyConfig::default()
    };
    config.solver.incremental = incremental;
    let report = verify_image(image, &config);
    let outcomes = report
        .handlers
        .iter()
        .map(|h| (h.sysno, h.verdict().to_string()))
        .collect();
    let events = log.lock().unwrap().clone();
    (events, outcomes)
}

#[test]
fn parallel_run_is_deterministic() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    let (seq_events, seq_outcomes) = run_with_threads(&image, 1);
    let (par_events, par_outcomes) = run_with_threads(&image, 4);
    assert_eq!(
        seq_outcomes, par_outcomes,
        "thread count changed verdicts or report order"
    );
    assert_eq!(
        seq_events, par_events,
        "thread count changed the event stream"
    );
    // Sanity: the stream has the expected shape — the static-analysis
    // phase (clean: no finding events) precedes the run itself.
    assert_eq!(seq_events.first().unwrap(), "analysis roots=4");
    assert!(seq_events[1].starts_with("analysis done findings=0"));
    assert_eq!(seq_events[2], "start total=3");
    assert_eq!(seq_events.last().unwrap(), "done 3/3");
    assert_eq!(seq_events.len(), 4 + 2 * SUBSET.len());
}

/// The incremental per-handler solver and the fresh-solver-per-query
/// baseline must report identical handler outcomes and event streams,
/// sequentially and in parallel — incrementality is an optimization,
/// never a semantic change.
#[test]
fn incremental_and_oneshot_agree() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    let (inc_seq_events, inc_seq) = run_subset(&image, 1, true);
    let (inc_par_events, inc_par) = run_subset(&image, 4, true);
    let (one_seq_events, one_seq) = run_subset(&image, 1, false);
    let (one_par_events, one_par) = run_subset(&image, 4, false);
    assert_eq!(inc_seq, one_seq, "incremental changed verdicts (threads=1)");
    assert_eq!(inc_par, one_par, "incremental changed verdicts (threads=4)");
    assert_eq!(
        inc_seq, inc_par,
        "thread count changed incremental verdicts"
    );
    assert_eq!(
        inc_seq_events, one_seq_events,
        "incremental changed the event stream (threads=1)"
    );
    assert_eq!(
        inc_par_events, one_par_events,
        "incremental changed the event stream (threads=4)"
    );
}

#[test]
fn warm_cache_run_hits_and_reports() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    let cache = Arc::new(QueryCache::new(1 << 14));
    let mut config = VerifyConfig {
        params: KernelParams::verification(),
        threads: 1,
        only: vec![Sysno::Nop, Sysno::AckIntr],
        events: EventSink::null(),
        ..VerifyConfig::default()
    };
    config.solver.cache = Some(cache.clone());
    let cold = verify_image(&image, &config);
    assert!(cold.all_verified());
    assert!(
        cold.totals().cache_misses > 0,
        "first run must solve something"
    );
    let warm = verify_image(&image, &config);
    assert!(warm.all_verified());
    let totals = warm.totals();
    assert_eq!(
        totals.cache_misses, 0,
        "unchanged image re-solved {} queries",
        totals.cache_misses
    );
    assert!(totals.cache_hits > 0);
    assert!(
        warm.cache_hit_rate() >= 0.9,
        "hit rate {:.2} below 90%",
        warm.cache_hit_rate()
    );
    // The JSON report carries the cache section, the run's totals and
    // per-handler phases.
    let json = warm.to_json();
    assert!(json.contains("\"hit_rate\": 1.000000"), "{json}");
    assert!(json.contains("\"cache\": {"), "{json}");
    assert!(
        json.contains(&format!(
            "\"cache_hits\": {}, \"cache_misses\": 0",
            totals.cache_hits
        )),
        "{json}"
    );
    assert_eq!(
        json.matches("\"phases\": {").count(),
        1 + warm.handlers.len(),
        "{json}"
    );
    assert!(json.contains("\"verdict\": \"verified\""), "{json}");
    // And the human summary mentions the cache too.
    assert!(warm.summary().contains("hit rate"));
}

/// Runs the subset with portfolio racing forced on every query
/// (probe threshold 0) and certification enabled, returning the stable
/// event stream, the verdicts, the deterministic projection of the JSON
/// report, and the total race count.
fn run_racing(
    image: &KernelImage,
    threads: usize,
) -> (Vec<String>, Vec<(Sysno, String)>, String, u64) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink_log = log.clone();
    let mut config = VerifyConfig {
        params: KernelParams::verification(),
        threads,
        only: SUBSET.to_vec(),
        events: EventSink::new(move |ev| {
            if let Some(s) = stable_view(ev) {
                sink_log.lock().unwrap().push(s);
            }
        }),
        ..VerifyConfig::default()
    };
    // Race every query: the probe threshold is the only thing keeping
    // cheap queries sequential, so zeroing it maximizes portfolio
    // activity (and the chance that different configs win on different
    // runs — which must not show anywhere in the outputs compared).
    config.solver.parallel.conflict_threshold = 0;
    config.solver.certify = true;
    let report = verify_image(image, &config);
    assert!(report.all_verified(), "racing changed a verdict");
    let outcomes: Vec<(Sysno, String)> = report
        .handlers
        .iter()
        .map(|h| (h.sysno, h.verdict().to_string()))
        .collect();
    let races = report.handlers.iter().map(|h| h.phases.races).sum();
    let events = log.lock().unwrap().clone();
    (events, outcomes, stable_json(&report.to_json()), races)
}

/// Projects a driver JSON report onto its deterministic fields: the
/// verified/total counts and, per handler, everything up to the first
/// search-dependent counter (`conflicts`). Timings, cache and search
/// counters, proof sizes and parallel stats all legitimately vary run
/// to run (and with thread count); verdicts never may.
fn stable_json(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        let t = line.trim_start();
        if t.starts_with("\"verified\"") || t.starts_with("\"total\"") {
            out.push_str(t);
            out.push('\n');
        } else if t.starts_with("{ \"name\"") {
            let stable = t.split(", \"conflicts\"").next().unwrap();
            out.push_str(stable);
            out.push('\n');
        }
    }
    out
}

/// Determinism under racing: repeated runs and thread counts 1 vs 4
/// must produce identical stable event streams, verdicts, and JSON
/// projections even though which portfolio config wins each race is
/// timing-dependent — and every Unsat must still certify (enforced
/// inside the run by `certify`). This is the driver-level twin of the
/// solver-level differential in crates/smt/tests/portfolio.rs.
#[test]
fn racing_runs_are_deterministic() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    let (seq_events, seq_outcomes, seq_json, seq_races) = run_racing(&image, 1);
    // threads=1 installs no core budget: racing must never trigger.
    assert_eq!(seq_races, 0, "sequential run raced");
    let mut raced_at_least_once = false;
    for round in 0..2 {
        let (par_events, par_outcomes, par_json, par_races) = run_racing(&image, 4);
        raced_at_least_once |= par_races > 0;
        assert_eq!(
            seq_outcomes, par_outcomes,
            "racing changed verdicts (round {round})"
        );
        assert_eq!(
            seq_events, par_events,
            "racing changed the stable event stream (round {round})"
        );
        assert_eq!(
            seq_json, par_json,
            "racing changed the stable JSON projection (round {round})"
        );
    }
    // 4 threads over 3 handlers leaves at least one spare core from the
    // start, and the threshold is 0: the portfolio must actually run —
    // otherwise this test silently stops covering racing.
    assert!(raced_at_least_once, "no query raced at threads=4");
}

#[test]
fn cache_does_not_serve_stale_verdicts_across_image_change() {
    let params = KernelParams::verification();
    let cache = Arc::new(QueryCache::new(1 << 14));
    let mut config = VerifyConfig {
        params,
        threads: 1,
        only: vec![Sysno::Dup],
        events: EventSink::null(),
        ..VerifyConfig::default()
    };
    config.solver.cache = Some(cache.clone());
    // Pass 1: the stock kernel verifies, filling the cache.
    let stock = KernelImage::build(params).expect("kernel build");
    let report = verify_image(&stock, &config);
    assert!(report.all_verified());
    assert!(!cache.is_empty());
    // Pass 2: the classic forgotten-refcount bug is injected into dup.
    // Its verification conditions differ, so the content-addressed key
    // must miss and the bug must be found despite the warm cache.
    let sources: Vec<(&'static str, String)> = hk_kernel::image::SOURCES
        .iter()
        .map(|&(name, src)| {
            let patched = if name == "fd.hc" {
                src.replacen(
                    "    files[f].refcnt = files[f].refcnt + 1;\n    return 0;\n}\n\n// dup2",
                    "    return 0;\n}\n\n// dup2",
                    1,
                )
            } else {
                src.to_string()
            };
            (name, patched)
        })
        .collect();
    let buggy = KernelImage::build_with_sources(params, sources).expect("buggy build");
    let report = verify_image(&buggy, &config);
    match &report.handlers[0].outcome {
        HandlerOutcome::RefinementBug { .. } => {}
        other => panic!("stale cache verdict? dup reported {other:?}"),
    }
}
