//! `cold_queries`: the paper's query ladder (Fig. 9, Fig. 12, Table 6),
//! every query from a cold state, with the Batch Approach beside it.
//!
//! Edge pruning and the comparison kernels do nearly all the work here
//! and SQL/planning almost none; BA exercises the resolve-all path
//! beside the per-query path.

use crate::data::{self, column_names, Truth};
use crate::pred::{CmpOp, Join, Pred, Query};
use crate::quality::{self, Quality};
use crate::{
    cold_reset, link_index_metrics, loop_layer_metrics, probe, rounds, stats, total_links, Client,
    EndToEnd, RunConfig, Schemas, WorkloadResult,
};
use queryer_common::FxHashSet;
use queryer_datagen::workload::{selectivity_threshold, SP_SELECTIVITIES};
use queryer_datagen::Dataset;
use queryer_storage::{RecordId, Table};
use std::path::Path;

/// Batch Approach runs per round of the query list.
const BA_PER_ROUND: usize = 2;

/// `ppl ⋈ oao` on the person's organisation name.
pub const PPL_OAO: Join = Join {
    right: "oao",
    left_col: "org",
    right_col: "name",
};

/// SP Q1–Q5 (the `year` ladder, S ≈ 5% → 80%) and Q9 (`MOD(id, 10) < 1`)
/// on `dsd`.
pub fn sp_ladder(dsd: &Dataset) -> Vec<Query> {
    let mut qs: Vec<Query> = SP_SELECTIVITIES
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let v = selectivity_threshold(dsd, "year", s);
            Query::sp(
                format!("Q{}", i + 1),
                "dsd",
                Pred::Cmp("year", CmpOp::Le, v),
            )
        })
        .collect();
    qs.push(Query::sp("Q9", "dsd", Pred::ModLt("id", 10, 1)));
    qs
}

/// The fixed query list: [`sp_ladder`], then on `ppl ⋈ oao` SPJ Q6a
/// (S = 7%), a Q7a-style query (S = 75%) and a Q8a-style one (S = 100%).
///
/// Nine queries put the median query time on one query's own samples
/// (Q3's, on every seed tried) rather than between two; the join costs
/// move more between seeds than the `dsd` ladder's.
pub fn ladder(dsd: &Dataset, ppl: &Dataset) -> Vec<Query> {
    let mut qs = sp_ladder(dsd);
    for (name, s) in [("Q6a", 0.07), ("Q7a", 0.75)] {
        let cutoff = (ppl.len() as f64 * s).round() as i64;
        qs.push(Query::spj(
            name,
            "ppl",
            PPL_OAO,
            Pred::Cmp("id", CmpOp::Lt, cutoff),
        ));
    }
    qs.push(Query {
        name: "Q8a".into(),
        table: "ppl",
        join: Some(PPL_OAO),
        pred: None,
    });
    qs
}

/// Checks one answer of `q` (selection property) and adds it to the
/// quality tally; returns the largest id list.
pub fn check_answer(
    q: &Query,
    res: &queryer_core::QueryResult,
    left: &Table,
    left_truth: &Truth,
    right: Option<(&Table, &Truth)>,
    tally: &mut Quality,
) -> Result<usize, String> {
    let selection = q.selection(left);
    let lists = quality::id_lists(res, 0)?;
    match (q.join, right) {
        (None, _) => quality::check_sp_selection(&selection, &lists)?,
        (Some(j), Some((r, r_truth))) => {
            let must = joinable(&selection, left, j.left_col, r, j.right_col);
            quality::check_spj_selection(&selection, &must, &lists)?;
            let right_lists = quality::id_lists(res, left.schema().len())?;
            tally.add_precision(&right_lists, r_truth);
        }
        (Some(_), None) => return Err(format!("{}: join without right table", q.name)),
    }
    tally.add_pc(&selection, &lists, left_truth);
    tally.add_precision(&lists, left_truth);
    Ok(lists.iter().map(Vec::len).max().unwrap_or(0))
}

/// Selected ids whose own join value equals some right row's value.
fn joinable(
    selection: &[RecordId],
    left: &Table,
    left_col: &str,
    right: &Table,
    right_col: &str,
) -> Vec<RecordId> {
    let lc = left.schema().index_of(left_col).expect("join column");
    let rc = right.schema().index_of(right_col).expect("join column");
    let keys: FxHashSet<String> = right
        .records()
        .iter()
        .filter_map(|r| r.value(rc).as_str().map(str::to_string))
        .collect();
    selection
        .iter()
        .copied()
        .filter(|&id| {
            left.record_unchecked(id)
                .value(lc)
                .as_str()
                .is_some_and(|v| keys.contains(v))
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, client: &mut Client, tmp: &Path) -> WorkloadResult {
    let dsd = data::dsd(cfg.scale, cfg.seed);
    let (oao, ppl) = data::oao_ppl(cfg.scale, cfg.seed);
    let truth = [Truth::of(&dsd), Truth::of(&ppl), Truth::of(&oao)];
    let queries = ladder(&dsd, &ppl);
    let mut schemas = Schemas::default();
    for ds in [&dsd, &ppl, &oao] {
        schemas.add(ds.table.name(), column_names(&ds.table));
    }

    let mut e2e = EndToEnd::default();
    let engine = e2e.setups(client, &[&dsd.table, &ppl.table, &oao.table])?;
    let rss_after_setup = stats::rss_mb().unwrap_or(0.0);

    let mut problems = Vec::new();
    let mut per_query_ms: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
    let mut digests: Vec<Option<u64>> = vec![None; queries.len()];
    let mut max_cluster = 0;
    let mut links = 0;
    let ba_query = &queries[0];
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
    let n_rounds = rounds(cfg.seconds, cfg.min_rounds, |round| {
        client.tracer.enabled = cfg.trace && round % 2 == 0;
        for (i, q) in queries.iter().enumerate() {
            cold_reset(&engine);
            let Some((res, took)) = client.dedup(&engine, &schemas, q, Some(&selections[i])) else {
                continue;
            };
            per_query_ms[i].push(took);
            e2e.query_ms.push(took);
            e2e.op(took);
            let d = quality::digest(&res);
            match digests[i] {
                None => {
                    digests[i] = Some(d);
                    let (left, lt, right) = if q.join.is_some() {
                        (&ppl.table, &truth[1], Some((&oao.table, &truth[2])))
                    } else {
                        (&dsd.table, &truth[0], None)
                    };
                    match check_answer(q, &res, left, lt, right, &mut e2e.quality) {
                        Ok(m) => max_cluster = max_cluster.max(m),
                        Err(e) => problems.push(format!("{}: {e}", q.name)),
                    }
                }
                Some(prev) if prev != d => {
                    problems.push(format!("{}: answer changed between rounds", q.name))
                }
                Some(_) => {}
            }
        }
        links = total_links(&engine);
        for _ in 0..BA_PER_ROUND {
            if let Some((res, took)) = client.batch(&engine, ba_query) {
                e2e.ba_ms.push(took);
                e2e.op(took);
                if digests[0].is_some_and(|d| d != quality::digest(&res)) {
                    problems.push("Q1: BA answer differs from AES".into());
                }
            }
        }
        true
    });
    client.tracer.enabled = false;

    // DQ ≡ BAQ for every query (the batch cleaning from the last BA op
    // is still cached, so each of these only answers).
    for (i, q) in queries.iter().enumerate() {
        match engine.execute_with(&q.sql(), queryer_core::ExecMode::Batch) {
            Ok(r) if Some(quality::digest(&r)) == digests[i] => {}
            Ok(_) => problems.push(format!("{}: BA answer differs from AES", q.name)),
            Err(e) => problems.push(format!("{}: BA check failed: {e}", q.name)),
        }
    }
    problems.extend(e2e.floor_problems());

    let mut notes = vec![format!(
        "cold_queries: {n_rounds} rounds of {} queries + {BA_PER_ROUND} BA; |dsd|={} |ppl|={} |oao|={}",
        queries.len(),
        dsd.len(),
        ppl.len(),
        oao.len()
    )];
    let mut ladder_s = 0.0;
    for (q, xs) in queries.iter().zip(&per_query_ms) {
        let med = stats::median(xs).unwrap_or(0.0);
        ladder_s += med / 1e3;
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        notes.push(format!(
            "  {:<4} median {med:>9.2} ms  min {lo:>9.2}  max {hi:>9.2}  ({} runs)",
            q.name,
            xs.len()
        ));
    }
    notes.push(format!(
        "  ladder_s (sum of per-query medians) = {ladder_s:.4} s"
    ));

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
