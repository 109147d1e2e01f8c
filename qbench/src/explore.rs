//! `explore_session`: a restart from index snapshots followed by a long
//! seeded analyst session — point and narrow-range lookups, `LIKE`
//! keywords, a few joins, and the overlapping-range progression Q10–Q13
//! at fixed positions (Fig. 11).
//!
//! Setup is dominated by snapshot open (read, CRC, decode); most
//! queries are served by the warming Link Index and caches, so parse,
//! plan, the relational operators and closure dominate while the
//! comparison kernels idle — the opposite balance from `cold_queries`.

use crate::cold::{check_answer, PPL_OAO};
use crate::data::{self, column_names, Truth};
use crate::pred::{CmpOp, Pred, Query};
use crate::quality;
use crate::{
    link_index_metrics, loop_layer_metrics, probe, rounds, set_snapshot_mode, stats, total_links,
    Client, EndToEnd, RunConfig, Schemas, WorkloadResult,
};
use queryer_core::{ExecMode, QueryEngine};
use queryer_datagen::Dataset;
use queryer_storage::{RecordId, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Session length in queries.
pub const SESSION_LEN: usize = 300;
/// Positions of Q10–Q13 in the session.
pub const RANGE_POS: [usize; 4] = [40, 110, 180, 250];
/// Table fractions of Q10–Q13 (each ≈30% more than the previous).
const RANGE_FRACTIONS: [f64; 4] = [0.38, 0.494, 0.6422, 0.8349];
/// Batch Approach runs after each session.
const BA_PER_RESTART: usize = 2;
/// Every this-many-th session query (offset by half) is re-asked on a
/// build-registered engine.
const SAMPLE_EVERY: usize = 10;

#[derive(Clone, Copy)]
enum Kind {
    Point,
    Range,
    Like,
    Join,
}

/// The repeating mix of session query kinds: 10 point lookups, 6
/// narrow ranges, 8 keyword searches and 1 join in every 25 queries.
const MIX: [Kind; 25] = {
    use Kind::*;
    [
        Point, Like, Range, Point, Like, Point, Range, Like, Point, Point, Like, Range, Join,
        Point, Like, Range, Point, Like, Point, Range, Like, Point, Point, Like, Range,
    ]
};

/// The seeded session over `dsd`, `ppl` and `oao`.
pub fn session(dsd: &Dataset, ppl: &Dataset, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1011);
    let title = dsd.table.schema().index_of("title").expect("dsd.title");
    let year = dsd.table.schema().index_of("year").expect("dsd.year");
    let mut out = Vec::with_capacity(SESSION_LEN);
    for i in 0..SESSION_LEN {
        if let Some(k) = RANGE_POS.iter().position(|&p| p == i) {
            let cutoff = (dsd.len() as f64 * RANGE_FRACTIONS[k]).round() as i64;
            out.push(Query::sp(
                format!("Q{}", 10 + k),
                "dsd",
                Pred::Cmp("id", CmpOp::Lt, cutoff),
            ));
            continue;
        }
        // The kind of query at each position is fixed, so every seed's
        // session has the same mix; the seed picks tables, ids, keywords.
        let (t, n): (&'static str, usize) = if i % 2 == 0 {
            ("dsd", dsd.len())
        } else {
            ("ppl", ppl.len())
        };
        let q = match MIX[i % MIX.len()] {
            Kind::Point => {
                let id = rng.random_range(0..n) as i64;
                Query::sp(format!("s{i}-point"), t, Pred::Cmp("id", CmpOp::Eq, id))
            }
            Kind::Range => {
                let w = rng.random_range(20..=60i64);
                let lo = rng.random_range(0..n as i64 - w);
                Query::sp(format!("s{i}-range"), t, Pred::range("id", lo, lo + w))
            }
            Kind::Like => {
                let (kw, y) = keyword(&mut rng, &dsd.table, title, year);
                Query::sp(
                    format!("s{i}-like"),
                    "dsd",
                    Pred::And(vec![
                        Pred::Contains("title", kw),
                        Pred::Cmp("year", CmpOp::Eq, y),
                    ]),
                )
            }
            Kind::Join => {
                let lo = rng.random_range(0..ppl.len() as i64 - 100);
                Query::spj(
                    format!("s{i}-join"),
                    "ppl",
                    PPL_OAO,
                    Pred::range("id", lo, lo + 100),
                )
            }
        };
        out.push(q);
    }
    out
}

/// A title keyword (an alphanumeric word of five or more letters) and
/// the year of a random record carrying it.
fn keyword(rng: &mut StdRng, t: &Table, title: usize, year: usize) -> (String, i64) {
    loop {
        let r = t.record_unchecked(rng.random_range(0..t.len()) as RecordId);
        let (Some(s), Some(y)) = (r.value(title).as_str(), r.value(year).as_int()) else {
            continue;
        };
        let words: Vec<&str> = s
            .split_whitespace()
            .filter(|w| w.len() >= 5 && w.chars().all(char::is_alphanumeric))
            .collect();
        if !words.is_empty() {
            return (words[rng.random_range(0..words.len())].to_string(), y);
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, client: &mut Client, tmp: &Path) -> WorkloadResult {
    let dsd = data::dsd(cfg.scale, cfg.seed);
    let (oao, ppl) = data::oao_ppl(cfg.scale, cfg.seed);
    let truth = [Truth::of(&dsd), Truth::of(&ppl), Truth::of(&oao)];
    let tables = [&dsd.table, &ppl.table, &oao.table];
    let mut schemas = Schemas::default();
    for t in tables {
        schemas.add(t.name(), column_names(t));
    }
    let queries = session(&dsd, &ppl, cfg.seed);
    let ba_query = Query::sp(
        "BA",
        "dsd",
        Pred::Cmp("id", CmpOp::Lt, dsd.len() as i64 / 20),
    );

    // Untimed preparation: write the index snapshots.
    let t_prep = std::time::Instant::now();
    let snap_dir = tmp.join("snapshots");
    set_snapshot_mode("on", Some(&snap_dir));
    let mut prep = QueryEngine::new(queryer_er::ErConfig::default());
    for t in tables {
        prep.register_table(t.clone())
            .map_err(|e| format!("writing the {} snapshot: {e}", t.name()))?;
    }
    drop(prep);
    let written = std::fs::read_dir(&snap_dir).map_or(0, |d| d.count());
    if written != tables.len() {
        return Err(format!(
            "expected {} snapshots, found {written}",
            tables.len()
        ));
    }
    // From here a failed open is an error, never a silent rebuild.
    set_snapshot_mode("required", Some(&snap_dir));

    let prep_s = t_prep.elapsed().as_secs_f64();
    let t_loop = std::time::Instant::now();
    let mut e2e = EndToEnd::default();
    let mut problems = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; queries.len()];
    let selections: Vec<Vec<RecordId>> = queries
        .iter()
        .map(|q| {
            q.selection(if q.table == "dsd" {
                &dsd.table
            } else {
                &ppl.table
            })
        })
        .collect();
    let mut max_cluster = 0;
    let mut links = 0;
    let mut rss_after_setup = 0.0;
    let mut last_engine: Option<QueryEngine> = None;
    let mut setup_error = None;
    let n_rounds = rounds(cfg.seconds, cfg.min_rounds, |round| {
        client.tracer.enabled = cfg.trace && round % 2 == 0;
        drop(last_engine.take());
        let engine = match client.setup(&tables) {
            Ok((e, s)) => {
                e2e.setup_s.push(s);
                e
            }
            Err(e) => {
                setup_error = Some(e);
                return false;
            }
        };
        if round == 0 {
            rss_after_setup = stats::rss_mb().unwrap_or(0.0);
        }
        let session = client.tracer.begin("session");
        for (i, q) in queries.iter().enumerate() {
            let Some((res, took)) = client.dedup(&engine, &schemas, q, Some(&selections[i])) else {
                continue;
            };
            e2e.query_ms.push(took);
            e2e.op(took);
            let d = quality::digest(&res);
            match digests[i] {
                None => {
                    digests[i] = Some(d);
                    let (left, lt, right) = if q.join.is_some() {
                        (&ppl.table, &truth[1], Some((&oao.table, &truth[2])))
                    } else if q.table == "dsd" {
                        (&dsd.table, &truth[0], None)
                    } else {
                        (&ppl.table, &truth[1], None)
                    };
                    match check_answer(q, &res, left, lt, right, &mut e2e.quality) {
                        Ok(m) => max_cluster = max_cluster.max(m),
                        Err(e) => problems.push(format!("{}: {e}", q.name)),
                    }
                }
                Some(prev) if prev != d => {
                    problems.push(format!("{}: answer changed between sessions", q.name))
                }
                Some(_) => {}
            }
        }
        client.tracer.end(session);
        links = total_links(&engine);
        for _ in 0..BA_PER_RESTART {
            if let Some((_, took)) = client.batch(&engine, &ba_query) {
                e2e.ba_ms.push(took);
                e2e.op(took);
            }
        }
        last_engine = Some(engine);
        true
    });
    client.tracer.enabled = false;
    if let Some(e) = setup_error {
        return Err(e);
    }
    let engine = last_engine.ok_or("no session ran")?;
    let loop_s = t_loop.elapsed().as_secs_f64();
    let t_check = std::time::Instant::now();

    // DQ ≡ BAQ for every distinct session query (the last BA op left
    // every table batch-cleaned, so each of these only answers).
    for (q, d) in queries.iter().zip(&digests) {
        match engine.execute_with(&q.sql(), ExecMode::Batch) {
            Ok(r) if Some(quality::digest(&r)) == *d => {}
            Ok(_) => problems.push(format!("{}: BA answer differs from AES", q.name)),
            Err(e) => problems.push(format!("{}: BA check failed: {e}", q.name)),
        }
    }
    let mut layer_metrics = crate::Metrics::new();
    if cfg.trace {
        loop_layer_metrics(client, &mut layer_metrics);
        link_index_metrics(links, max_cluster, &mut layer_metrics);
    }
    drop(engine);

    // Snapshot-opened answers must equal build-registered answers.
    set_snapshot_mode("off", None);
    let mut built = QueryEngine::new(queryer_er::ErConfig::default());
    for t in tables {
        built
            .register_table(t.clone())
            .map_err(|e| format!("build-registering {}: {e}", t.name()))?;
    }
    let mut sampled = 0;
    for (i, q) in queries
        .iter()
        .enumerate()
        .skip(SAMPLE_EVERY / 2)
        .step_by(SAMPLE_EVERY)
    {
        sampled += 1;
        match built.execute_with(&q.sql(), ExecMode::Aes) {
            Ok(r) if Some(quality::digest(&r)) == digests[i] => {}
            Ok(_) => problems.push(format!("{}: snapshot and build answers differ", q.name)),
            Err(e) => problems.push(format!("{}: build check failed: {e}", q.name)),
        }
    }
    drop(built);
    problems.extend(e2e.floor_problems());

    let mut notes = vec![
        format!(
            "explore_session: {n_rounds} restarts x {} queries; {sampled} re-asked on a built engine",
            queries.len()
        ),
        format!(
            "  harness: prepare {prep_s:.1} s, loop {loop_s:.1} s, checks {:.1} s",
            t_check.elapsed().as_secs_f64()
        ),
    ];
    match stats::tail_percentile(&e2e.query_ms, 0.95) {
        Some(p95) => notes.push(format!(
            "  query_ms.p95 = {p95:.3} ms ({} samples)",
            e2e.query_ms.len()
        )),
        None => notes.push("  query_ms.p95 withheld: too few samples".into()),
    }
    let session_s: f64 = e2e.ops_s - e2e.ba_ms.iter().sum::<f64>() / 1e3;
    notes.push(format!(
        "  queries_per_s = {:.2}",
        e2e.query_ms.len() as f64 / session_s
    ));

    notes.push(e2e.quality.note());
    let metrics = if cfg.trace {
        let mut m = layer_metrics;
        m.insert("proc.rss_after_setup_mb".into(), (rss_after_setup, "MB"));
        probe::run(client, &dsd, tmp, &mut m)?;
        m
    } else {
        e2e.metrics()?
    };
    Ok((metrics, notes, problems))
}
