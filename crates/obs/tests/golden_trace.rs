//! Golden-trace regression test: one fixed difftest corpus program runs
//! on `1b-4VL` with tracing armed, and the text rendering of the event
//! log must byte-match the committed golden file. Any change to event
//! ordering, emit sites or the text format shows up as a diff here.
//!
//! To re-bless after an intentional change:
//! `BLESS=1 cargo test -p bvl-obs --test golden_trace`
//!
//! The Chrome JSON rendering of the same log is also validated as
//! parseable `trace_event` JSON (what `--trace-out` writes for
//! Perfetto / chrome://tracing).

use bvl_difftest::{difftest_workload, DtProgram};
use bvl_sim::{simulate_with, Hooks, SimParams, SystemKind};
use std::path::PathBuf;

const CORPUS_PROGRAM: &str = "seed_0ae89775f52a28c8";

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn traced_corpus_run() -> bvl_obs::TraceLog {
    let text = std::fs::read_to_string(manifest_path(&format!(
        "../difftest/corpus/{CORPUS_PROGRAM}.s"
    )))
    .expect("read corpus program");
    let dt = DtProgram::parse(&text).expect("parse corpus program");
    let program = dt.assemble().expect("assemble corpus program");
    let (serial, vector) = (
        program.label("serial").expect("serial label"),
        program.label("vector").expect("vector label"),
    );
    let workload = difftest_workload(&program, serial, vector);
    let params = SimParams {
        trace: true,
        ..SimParams::default()
    };
    simulate_with(SystemKind::B4Vl, &workload, &params, Hooks::default())
        .expect("traced simulation")
        .finished()
        .and_then(|run| run.trace)
        .expect("a traced run finishes with a log")
}

#[test]
fn corpus_trace_matches_golden() {
    let log = traced_corpus_run();
    assert!(!log.is_empty(), "traced run emitted no events");
    let rendered = log.to_text();

    let golden_path = manifest_path(&format!("tests/golden/{CORPUS_PROGRAM}.b4vl.txt"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).expect("bless golden trace");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {} ({e}) — bless with BLESS=1", golden_path.display()));
    assert_eq!(
        rendered,
        golden,
        "trace diverged from {} — re-bless with BLESS=1 if intentional",
        golden_path.display()
    );
}

#[test]
fn corpus_trace_chrome_json_is_valid_trace_event_format() {
    let log = traced_corpus_run();
    let json: serde_json::Value =
        serde_json::from_str(&log.to_chrome_json()).expect("chrome trace JSON parses");
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let field = |e: &serde_json::Value, k: &str| -> serde_json::Value {
        e.get(k)
            .unwrap_or_else(|| panic!("event missing `{k}`"))
            .clone()
    };
    let mut instants = 0usize;
    for e in events {
        assert!(field(e, "name").as_str().is_some());
        assert_eq!(field(e, "pid").as_u64(), Some(0));
        assert!(field(e, "tid").as_u64().is_some());
        match field(e, "ph").as_str().expect("ph string") {
            "i" => {
                assert!(field(e, "ts").as_u64().is_some(), "instant event needs ts");
                instants += 1;
            }
            "M" => assert_eq!(field(e, "name").as_str(), Some("thread_name")),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(instants, log.len());
    assert_eq!(
        json.get("otherData")
            .and_then(|o| o.get("dropped"))
            .and_then(|d| d.as_u64()),
        Some(log.dropped())
    );
}
