//! `live_ingest`: one live `dsd` table driven by a seeded stream that
//! alternates `QueryEngine::ingest` batches with `DEDUP` queries over
//! the rows just written, compacting at fixed points.
//!
//! Writes sit beside reads on one index: delta apply, invalidation, the
//! stats recompute and re-resolution after invalidation dominate.

use crate::cold::check_answer;
use crate::data::{self, column_names, Truth};
use crate::pred::{Pred, Query};
use crate::quality;
use crate::{
    link_index_metrics, loop_layer_metrics, probe, rounds, stats, total_links, Client, EndToEnd,
    RunConfig, Schemas, WorkloadResult,
};
use queryer_core::{ExecMode, QueryEngine};
use queryer_datagen::{CorruptionConfig, Corruptor};
use queryer_er::{Affected, DeltaOp};
use queryer_storage::{RecordId, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Ingest batches per round; the round ends with a compaction.
pub const BATCHES_PER_ROUND: usize = 6;
/// Inserts per batch: dirty copies of existing live records.
pub const INSERTS: usize = 10;
/// Updates per batch: a live record re-corrupted in place.
pub const UPDATES: usize = 4;
/// Deletes per batch.
pub const DELETES: usize = 2;

/// Columns the corruptor may touch (everything but `id`).
const CORRUPTIBLE: [usize; 4] = [1, 2, 3, 4];

/// What one generated batch wrote.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The ops, in order.
    pub ops: Vec<DeltaOp>,
    /// Ids the inserts received: `first_new..end`.
    pub first_new: RecordId,
    /// One past the last inserted id.
    pub end: RecordId,
    /// Ids updated in place.
    pub updated: Vec<RecordId>,
}

/// Seeded generator of ingest batches. It applies each batch to the
/// caller's mirror of the table and to the ground truth, so inserts can
/// copy live records and the benchmark can compute selections itself.
pub struct StreamGen {
    rng: StdRng,
    corruptor: Corruptor,
}

impl StreamGen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x11FE_16E5),
            corruptor: Corruptor::new(CorruptionConfig::default()),
        }
    }

    fn live_id(&mut self, truth: &Truth, exclude: &[RecordId]) -> RecordId {
        loop {
            let id = self.rng.random_range(0..truth.len()) as RecordId;
            if truth.label(id).is_some() && !exclude.contains(&id) {
                return id;
            }
        }
    }

    /// Draws one batch and applies it to `mirror` and `truth`.
    pub fn batch(&mut self, mirror: &mut Table, truth: &mut Truth) -> Batch {
        let first_new = mirror.len() as RecordId;
        let mut ops = Vec::with_capacity(INSERTS + UPDATES + DELETES);
        let mut touched: Vec<RecordId> = Vec::new();
        for _ in 0..INSERTS {
            let origin = self.live_id(truth, &[]);
            let mut values = mirror.record_unchecked(origin).values.clone();
            self.corruptor
                .corrupt_record(&mut self.rng, &mut values, &CORRUPTIBLE);
            let id = truth.push(truth.label(origin));
            values[0] = Value::Int(i64::from(id));
            mirror.push_row(values.clone()).expect("schema arity");
            ops.push(DeltaOp::Insert { values });
        }
        let end = mirror.len() as RecordId;
        let mut updated = Vec::with_capacity(UPDATES);
        for _ in 0..UPDATES {
            let id = self.live_id(truth, &touched);
            touched.push(id);
            updated.push(id);
            let mut values = mirror.record_unchecked(id).values.clone();
            self.corruptor
                .corrupt_record(&mut self.rng, &mut values, &CORRUPTIBLE);
            mirror.set_row(id, values.clone()).expect("schema arity");
            ops.push(DeltaOp::Update { id, values });
        }
        for _ in 0..DELETES {
            let id = self.live_id(truth, &touched);
            touched.push(id);
            truth.delete(id);
            mirror
                .set_row(id, vec![Value::Null; mirror.schema().len()])
                .expect("schema arity");
            ops.push(DeltaOp::Delete { id });
        }
        updated.sort_unstable();
        Batch {
            ops,
            first_new,
            end,
            updated,
        }
    }
}

/// Table state at a compaction point, with the answers the live engine
/// gave there, for the fresh-engine check.
struct Checkpoint {
    rows: Table,
    answers: Vec<(Query, u64)>,
}

/// Ingests one batch, checking the harness really took the incremental
/// path: a shared index handle would turn it into a rebuild, reported
/// as `Affected::All` with no pending ops.
fn ingest(client: &mut Client, engine: &mut QueryEngine, batch: &Batch) -> Option<f64> {
    client.attempted += 1;
    let (res, took) = client
        .tracer
        .time("engine.ingest", || engine.ingest("dsd", &batch.ops));
    match res {
        Ok(applied) if matches!(applied.affected, Affected::Ids(_)) => {
            Some(took.as_secs_f64() * 1e3)
        }
        Ok(_) => {
            client
                .problems
                .push("ingest fell back to a full rebuild (index handle held?)".into());
            Some(took.as_secs_f64() * 1e3)
        }
        Err(e) => {
            client.failed += 1;
            client.problems.push(format!("ingest: {e}"));
            None
        }
    }
}

/// Answers of `qs` on a fresh engine registered from `rows`, under AES
/// and under the Batch Approach.
fn fresh_answers(rows: &Table, qs: &[Query]) -> Result<Vec<(u64, u64)>, String> {
    let mut e = QueryEngine::new(queryer_er::ErConfig::default());
    e.register_table(rows.clone())
        .map_err(|e| format!("fresh engine: {e}"))?;
    qs.iter()
        .map(|q| {
            let sql = q.sql();
            let aes = e
                .execute_with(&sql, ExecMode::Aes)
                .map_err(|e| e.to_string())?;
            let ba = e
                .execute_with(&sql, ExecMode::Batch)
                .map_err(|e| e.to_string())?;
            Ok((quality::digest(&aes), quality::digest(&ba)))
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, client: &mut Client, tmp: &Path) -> WorkloadResult {
    let dsd = data::dsd(cfg.scale, cfg.seed);
    let mut schemas = Schemas::default();
    schemas.add("dsd", column_names(&dsd.table));

    let mut e2e = EndToEnd::default();
    let mut engine = e2e.setups(client, &[&dsd.table])?;
    let rss_after_setup = stats::rss_mb().unwrap_or(0.0);

    let mut mirror = dsd.table.clone();
    let mut truth = Truth::of(&dsd);
    let mut gen = StreamGen::new(cfg.seed);
    let mut problems = Vec::new();
    let mut ingest_ms = Vec::new();
    let mut compact_ms = Vec::new();
    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    let mut written: Vec<Query> = Vec::new();
    let mut max_cluster = 0;
    let mut links = 0;

    // One query op plus its checks against the mirror and the truth.
    let mut query = |client: &mut Client,
                     engine: &QueryEngine,
                     mirror: &Table,
                     truth: &Truth,
                     e2e: &mut EndToEnd,
                     problems: &mut Vec<String>,
                     q: &Query|
     -> Option<u64> {
        let selection = q.selection(mirror);
        let (res, took) = client.dedup(engine, &schemas, q, Some(&selection))?;
        e2e.query_ms.push(took);
        e2e.op(took);
        match check_answer(q, &res, mirror, truth, None, &mut e2e.quality) {
            Ok(m) => max_cluster = max_cluster.max(m),
            Err(e) => problems.push(format!("{}: {e}", q.name)),
        }
        Some(quality::digest(&res))
    };

    let n_rounds = rounds(cfg.seconds, cfg.min_rounds, |round| {
        client.tracer.enabled = cfg.trace && round % 2 == 0;
        let round_start = mirror.len() as RecordId;
        for b in 0..BATCHES_PER_ROUND {
            let batch = gen.batch(&mut mirror, &mut truth);
            let Some(took) = ingest(client, &mut engine, &batch) else {
                return false;
            };
            ingest_ms.push(took);
            e2e.op(took);
            // One query over every row the batch wrote: a single query
            // shape keeps the median on one kind of query.
            let ids = (batch.first_new..batch.end)
                .chain(batch.updated.iter().copied())
                .map(i64::from)
                .collect();
            let q = Query::sp(format!("r{round}b{b}-written"), "dsd", Pred::In("id", ids));
            query(
                client,
                &engine,
                &mirror,
                &truth,
                &mut e2e,
                &mut problems,
                &q,
            );
            written.push(q);
        }
        client.attempted += 1;
        let (res, took) = client
            .tracer
            .time("engine.compact", || engine.compact("dsd"));
        if let Err(e) = res {
            client.failed += 1;
            client.problems.push(format!("compact: {e}"));
            return false;
        }
        let took = took.as_secs_f64() * 1e3;
        compact_ms.push(took);
        e2e.op(took);
        let round_rows = Query::sp(
            format!("r{round}-all"),
            "dsd",
            Pred::range("id", i64::from(round_start), mirror.len() as i64),
        );
        let digest = query(
            client,
            &engine,
            &mirror,
            &truth,
            &mut e2e,
            &mut problems,
            &round_rows,
        );
        links = total_links(&engine);
        if let Some((res, took)) = client.batch(&engine, &round_rows) {
            e2e.ba_ms.push(took);
            e2e.op(took);
            if digest.is_some_and(|d| d != quality::digest(&res)) {
                problems.push(format!("{}: BA answer differs from AES", round_rows.name));
            }
        }
        if let Some(d) = digest {
            checkpoints.push(Checkpoint {
                rows: mirror.clone(),
                answers: vec![(round_rows, d)],
            });
        }
        true
    });
    client.tracer.enabled = false;

    // After the stream: every batch's written rows, asked again on the
    // final state, must match a fresh engine over the final rows.
    if let Some(last) = checkpoints.last_mut() {
        for q in &written {
            match engine.execute_with(&q.sql(), ExecMode::Aes) {
                Ok(r) => last.answers.push((q.clone(), quality::digest(&r))),
                Err(e) => problems.push(format!("{}: final re-ask failed: {e}", q.name)),
            }
        }
    }
    let final_rows_match = engine
        .table("dsd")
        .map(|t| t.records() == mirror.records())
        .unwrap_or(false);
    if !final_rows_match {
        problems.push("engine rows differ from the benchmark's mirror".into());
    }
    for cp in &checkpoints {
        let qs: Vec<Query> = cp.answers.iter().map(|(q, _)| q.clone()).collect();
        match fresh_answers(&cp.rows, &qs) {
            Ok(fresh) => {
                for ((q, live), (aes, ba)) in cp.answers.iter().zip(fresh) {
                    if *live != aes {
                        problems.push(format!(
                            "{}: live answer differs from a fresh engine",
                            q.name
                        ));
                    }
                    if aes != ba {
                        problems.push(format!("{}: fresh BA answer differs from AES", q.name));
                    }
                }
            }
            Err(e) => problems.push(e),
        }
    }
    problems.extend(e2e.floor_problems());

    let mut notes = vec![
        format!(
            "live_ingest: {n_rounds} rounds x {BATCHES_PER_ROUND} batches of {} ops; |dsd| {} -> {}",
            INSERTS + UPDATES + DELETES,
            dsd.len(),
            mirror.len()
        ),
        format!(
            "  ingest_ms.p50 = {:.2} ms ({} batches); compact median {:.2} ms ({})",
            stats::median(&ingest_ms).unwrap_or(0.0),
            ingest_ms.len(),
            stats::median(&compact_ms).unwrap_or(0.0),
            compact_ms.len()
        ),
    ];

    notes.push(e2e.quality.note());
    let metrics = if cfg.trace {
        let mut m = crate::Metrics::new();
        loop_layer_metrics(client, &mut m);
        link_index_metrics(links, max_cluster, &mut m);
        m.insert("proc.rss_after_setup_mb".into(), (rss_after_setup, "MB"));
        drop(engine);
        probe::run(client, &dsd, tmp, &mut m)?;
        m
    } else {
        e2e.metrics()?
    };
    Ok((metrics, notes, problems))
}
