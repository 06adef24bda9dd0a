//! End-to-end certified verification: with `solver.certify` set, every
//! Unsat answer the driver produces — and a verified handler is nothing
//! but a stack of Unsat answers — is re-derived by the independent DRAT
//! checker from the proof the SAT core logged, in both the incremental
//! per-handler-solver pipeline and the fresh-solver-per-query baseline.
//! The driver then reports the certification through a dedicated event,
//! the JSON report, and the human summary.

use std::sync::{Arc, Mutex};

use hk_abi::{KernelParams, Sysno};
use hk_core::{verify_image, EventSink, VerifyConfig, VerifyEvent, VerifyReport};
use hk_kernel::KernelImage;

/// Same subset the driver determinism tests use: a no-op, an interrupt
/// path, and a file-descriptor path with real invariant obligations.
const SUBSET: [Sysno; 3] = [Sysno::Nop, Sysno::AckIntr, Sysno::Dup];

/// Renders the events a certified run emits, timings stripped, keeping
/// enough structure to check ordering (each `certified` line must
/// directly follow its handler's `end` line).
fn stable_view(ev: &VerifyEvent) -> Option<String> {
    match ev {
        VerifyEvent::HandlerStarted { sysno, index, .. } => {
            Some(format!("begin[{index}] {}", sysno.func_name()))
        }
        VerifyEvent::HandlerFinished {
            sysno,
            index,
            verdict,
            ..
        } => Some(format!("end[{index}] {} {verdict}", sysno.func_name())),
        VerifyEvent::HandlerCertified {
            sysno,
            index,
            unsat_queries,
            certified,
            ..
        } => Some(format!(
            "certified[{index}] {} {certified}/{unsat_queries}",
            sysno.func_name()
        )),
        _ => None,
    }
}

fn run_certified(
    image: &KernelImage,
    incremental: bool,
    threads: usize,
) -> (VerifyReport, Vec<String>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink_log = log.clone();
    let mut config = VerifyConfig {
        params: KernelParams::verification(),
        threads,
        only: SUBSET.to_vec(),
        events: EventSink::new(move |ev| {
            if let Some(line) = stable_view(ev) {
                sink_log.lock().unwrap().push(line);
            }
        }),
        ..VerifyConfig::default()
    };
    config.solver.incremental = incremental;
    config.solver.certify = true;
    let report = verify_image(image, &config);
    let events = log.lock().unwrap().clone();
    (report, events)
}

#[test]
fn certified_run_checks_every_unsat_answer() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    for incremental in [true, false] {
        let (report, events) = run_certified(&image, incremental, 1);
        assert!(
            report.all_verified(),
            "certification changed verdicts (incremental={incremental})"
        );
        // Every handler produced Unsat answers and every one of them was
        // certified; real proofs were replayed (not just vacuous
        // trivially-false queries).
        for h in &report.handlers {
            assert!(
                h.phases.unsat_queries > 0,
                "{}: a verified handler with no Unsat answers",
                h.sysno.func_name()
            );
            assert_eq!(
                h.phases.certified_unsat,
                h.phases.unsat_queries,
                "{}: Unsat answers left uncertified",
                h.sysno.func_name()
            );
        }
        assert!(report.fully_certified());
        let checked: u64 = report
            .handlers
            .iter()
            .map(|h| h.phases.proofs_checked)
            .sum();
        let steps: u64 = report.handlers.iter().map(|h| h.phases.proof_steps).sum();
        assert!(checked > 0, "no proof was ever replayed");
        assert!(steps > 0, "no DRAT steps were logged");
        // One certification event per handler.
        let certified_lines: Vec<&String> = events
            .iter()
            .filter(|l| l.starts_with("certified["))
            .collect();
        assert_eq!(certified_lines.len(), SUBSET.len(), "{events:?}");
        // The reports carry the proof story: the run's totals in the JSON
        // and the summary line both present.
        let json = report.to_json();
        assert!(
            json.contains(&format!(
                "\"proofs_checked\": {checked}, \"proof_steps\": {steps}"
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"unsat_queries\": {}, \"certified_unsat\": {}",
                report.unsat_queries(),
                report.certified_unsat()
            )),
            "{json}"
        );
        assert!(report.summary().contains("unsat answers certified"));
    }
}

/// Certification must not perturb the driver's determinism guarantee:
/// the event stream (now including the certification events, each
/// directly after its handler's finish line) is identical across thread
/// counts.
#[test]
fn certified_event_stream_is_deterministic() {
    let image = KernelImage::build(KernelParams::verification()).expect("kernel build");
    let (seq_report, seq_events) = run_certified(&image, true, 1);
    let (par_report, par_events) = run_certified(&image, true, 4);
    assert_eq!(seq_events, par_events, "thread count changed the stream");
    assert_eq!(
        seq_report.certified_unsat(),
        par_report.certified_unsat(),
        "thread count changed certification totals"
    );
    // Shape: begin / end / certified triplets, in submission order.
    assert_eq!(seq_events.len(), 3 * SUBSET.len());
    for (i, chunk) in seq_events.chunks(3).enumerate() {
        let name = SUBSET[i].func_name();
        assert!(
            chunk[0].starts_with(&format!("begin[{i}] {name}")),
            "{chunk:?}"
        );
        assert!(
            chunk[1].starts_with(&format!("end[{i}] {name} ok")),
            "{chunk:?}"
        );
        assert!(
            chunk[2].starts_with(&format!("certified[{i}] {name}")),
            "{chunk:?}"
        );
    }
}
