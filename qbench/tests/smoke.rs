//! Tiny-size smoke runs of every workload (untraced and traced), and
//! the benchmark's own predicate evaluator checked against the engine's
//! plain-SQL selections.

use qbench::data::{self, Scale, Truth};
use qbench::live::StreamGen;
use qbench::pred::{CmpOp, Pred, Query};
use qbench::{run, RunConfig, Workload};
use queryer_core::{ExecMode, QueryEngine};
use queryer_storage::{RecordId, Table};
use std::path::PathBuf;
use std::sync::Mutex;

/// Workloads switch the snapshot layer through the process
/// environment, so runs in one test process must not overlap.
static ENV: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "qbench-smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::TINY,
        min_rounds: 2,
        tmp_dir: base.join("tmp"),
        out_dir: base.join("out"),
    }
}

/// The benchmark's description, which names every metric a run prints.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Sorted metric names of one section (`end_to_end` or `per_layer`).
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let end = body.find(']').expect("section is a list");
    let mut names: Vec<String> = body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect();
    names.sort_unstable();
    names
}

fn smoke(workload: Workload) {
    let _guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = tiny(workload, false);
    let out = run(&cfg);
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert!(out.correct);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let names: Vec<String> = out.metrics.keys().cloned().collect();
    assert_eq!(names, declared("end_to_end"));
    for (k, (v, _)) in &out.metrics {
        assert!(v.is_finite() && *v > 0.0, "{k} = {v}");
    }
    assert!(!cfg.tmp_dir.exists(), "scratch dir removed at exit");

    let cfg = tiny(workload, true);
    let out = run(&cfg);
    assert!(out.problems.is_empty(), "{:?}", out.problems);
    assert!(out.correct);
    let names: Vec<String> = out.metrics.keys().cloned().collect();
    assert_eq!(
        names,
        declared("per_layer"),
        "traced runs report layers only"
    );
    let spans = cfg
        .out_dir
        .join(format!("spans-{}-seed7.json", workload.name()));
    let text = std::fs::read_to_string(&spans).expect("span file written");
    assert!(text.contains("\"name\":\"engine.execute\""));
    let _ = std::fs::remove_dir_all(cfg.out_dir.parent().expect("base dir"));
}

#[test]
fn cold_queries_smoke() {
    smoke(Workload::ColdQueries);
}

#[test]
fn explore_session_smoke() {
    smoke(Workload::ExploreSession);
}

#[test]
fn live_ingest_smoke() {
    smoke(Workload::LiveIngest);
}

fn plain_ids(engine: &QueryEngine, table: &str, pred: &Pred) -> Vec<RecordId> {
    let sql = format!("SELECT id FROM {table} WHERE {}", pred.sql(None));
    let res = engine
        .execute_with(&sql, ExecMode::Plain)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut ids: Vec<RecordId> = res
        .rows
        .iter()
        .map(|r| r[0].as_int().expect("selected ids are ints") as RecordId)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn predicate_evaluator_matches_plain_sql() {
    let _guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
    qbench::set_snapshot_mode("off", None);
    let dsd = data::dsd(Scale::TINY, 3);
    let (_, ppl) = data::oao_ppl(Scale::TINY, 3);
    // A live table: deleted rows are all-NULL, inserted rows are dirty.
    let mut live: Table = dsd.table.clone();
    let mut truth = Truth::of(&dsd);
    let mut gen = StreamGen::new(3);
    for _ in 0..3 {
        gen.batch(&mut live, &mut truth);
    }
    let mut engine = QueryEngine::new(queryer_er::ErConfig::default());
    engine.register_table(live.clone()).unwrap();
    engine.register_table(ppl.table.clone()).unwrap();

    let mut queries: Vec<Query> = qbench::cold::ladder(&dsd, &ppl);
    queries.extend(qbench::explore::session(&dsd, &ppl, 3).into_iter().take(60));
    queries.push(Query::sp("new", "dsd", Pred::range("id", 790, 900)));
    queries.push(Query::sp("in", "dsd", Pred::In("id", vec![1, 5, 799, 805])));
    queries.push(Query::sp("ge", "dsd", Pred::Cmp("year", CmpOp::Ge, 2015)));
    let mut nonempty = 0;
    queries.retain(|q| q.pred.is_some());
    for q in &queries {
        let pred = q.pred.as_ref().expect("kept queries select");
        let table = if q.table == "dsd" { &live } else { &ppl.table };
        let ours = q.selection(table);
        assert_eq!(ours, plain_ids(&engine, q.table, pred), "{}", q.sql());
        nonempty += usize::from(!ours.is_empty());
    }
    assert!(
        nonempty * 10 > queries.len() * 9,
        "selections are not vacuous"
    );
}
