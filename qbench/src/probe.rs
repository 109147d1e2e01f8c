//! Standalone layer probes of the traced run. Each probe calls one
//! layer's public function directly on the run's `dsd` table, so every
//! workload's traced run reports every per-layer metric, measured the
//! same way.

use crate::live::StreamGen;
use crate::{stats, Client, Metrics};
use queryer_core::planner::stats::compute_table_stats;
use queryer_core::QueryEngine;
use queryer_datagen::Dataset;
use queryer_er::{
    content_fingerprint, edge_pruning, open_index_snapshot, write_index_snapshot, Affected,
    DedupMetrics, ErConfig, KernelScratch, LinkIndex, Matcher, ResolveRequest, TableErIndex,
};
use queryer_storage::{RecordId, SnapshotReader};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// Repetitions of each cheap probe; the median is reported.
const REPS: usize = 3;
/// Candidate pairs in the kernel sample.
const KERNEL_PAIRS: usize = 20_000;
/// Delta probe: compaction cycles, and ingest batches per cycle.
const DELTA_CYCLES: usize = 3;
const BATCHES_PER_CYCLE: usize = 2;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every probe on `ds` (the run's `dsd`) and adds its metrics to
/// `m`. The resolve probe runs the selections of SP Q1–Q5 and Q9 cold.
pub fn run(client: &mut Client, ds: &Dataset, tmp: &Path, m: &mut Metrics) -> Result<(), String> {
    crate::set_snapshot_mode("off", None);
    client.tracer.enabled = true;
    let cfg = ErConfig::default();
    let table = &ds.table;
    let tr = &mut client.tracer;
    let probe = tr.begin("probe");

    // Index build and the planner's stats pass.
    let mut builds = Vec::new();
    let mut idx = None;
    for _ in 0..REPS {
        drop(idx.take());
        let (i, d) = tr.time("er.index.build", || TableErIndex::build(table, &cfg));
        builds.push(ms(d));
        idx = Some(i);
    }
    let idx = idx.expect("REPS > 0");
    let stats_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            ms(tr
                .time("planner.stats", || compute_table_stats(table, &idx))
                .1)
        })
        .collect();
    let threads = cfg.effective_ep_threads();
    let bulk_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let (v, d) = tr.time("er.edge_pruning.bulk_thresholds", || {
                edge_pruning::bulk_node_thresholds(&idx, threads)
            });
            black_box(v);
            ms(d)
        })
        .collect();

    // Cold resolves of each SP selection, then of the whole table.
    let mut qe_ms = 0.0;
    let mut dm = DedupMetrics::default();
    for q in &crate::cold::sp_ladder(ds) {
        let sel = q.selection(table);
        idx.clear_ep_cache();
        let mut li = LinkIndex::new(table.len());
        let (r, d) = tr.time("er.resolve.records", || {
            idx.run(ResolveRequest::records(table, &sel, &mut li).metrics(&mut dm))
        });
        r.map_err(|e| format!("probe resolve {}: {e}", q.name))?;
        qe_ms += ms(d);
    }
    let mut all_ms = Vec::new();
    for _ in 0..REPS {
        idx.clear_ep_cache();
        let mut li = LinkIndex::new(table.len());
        let (r, d) = tr.time("er.resolve.all", || {
            idx.run(ResolveRequest::all(table, &mut li))
        });
        r.map_err(|e| format!("probe resolve all: {e}"))?;
        all_ms.push(ms(d));
    }

    // Comparison kernel over pairs that share a retained block.
    let pairs = kernel_sample(&idx);
    let matcher = Matcher::new(&cfg, idx.skip_col()).compile(&idx);
    let mut scratch = KernelScratch::new();
    let kernel_ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let (hits, d) = tr.time("er.kernel.decide", || {
                pairs
                    .iter()
                    .filter(|&&(a, b)| matcher.decide(black_box(a), black_box(b), &mut scratch))
                    .count()
            });
            black_box(hits);
            d.as_secs_f64() * 1e9 / pairs.len().max(1) as f64
        })
        .collect();

    // Snapshot write, then open through each layer. Caches are dropped
    // first so the file matches what registration writes.
    idx.clear_ep_cache();
    let path = tmp.join("probe-dsd.snap");
    let li = LinkIndex::new(table.len());
    write_index_snapshot(&path, &idx, &li, table).map_err(|e| format!("probe snapshot: {e}"))?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading probe snapshot: {e}"))?;
    let (mut er_open, mut fp_ms, mut st_open, mut crc) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPS {
        let (r, d) = tr.time("er.snapshot.open", || {
            open_index_snapshot(&path, table, &cfg)
        });
        r.map_err(|e| format!("probe snapshot open: {e}"))?;
        er_open.push(ms(d));
        let (fp, d) = tr.time("er.snapshot.fingerprint", || {
            content_fingerprint(table, &cfg)
        });
        fp_ms.push(ms(d));
        let (r, d) = tr.time("storage.snapshot.open", || SnapshotReader::open(&path, fp));
        r.map_err(|e| format!("probe snapshot read: {e}"))?;
        st_open.push(ms(d));
        let (c, d) = tr.time("common.checksum.crc32c", || queryer_common::crc32c(&bytes));
        black_box(c);
        crc.push(bytes.len() as f64 / 1e6 / d.as_secs_f64());
    }
    let _ = std::fs::remove_file(&path);

    // Delta: the same batches through the engine and through a
    // standalone index, so ingest splits into apply, stats and the rest.
    // The standalone index starts as registration leaves the engine's:
    // freshly built, with the stats pass run once.
    drop(idx);
    let mut engine = QueryEngine::new(cfg.clone());
    engine
        .register_table(table.clone())
        .map_err(|e| format!("probe engine: {e}"))?;
    let mut idx = TableErIndex::build(table, &cfg);
    compute_table_stats(table, &idx);
    let mut mirror = table.clone();
    let mut truth = crate::data::Truth::of(ds);
    let mut gen = StreamGen::new(0x9_0BE);
    let (mut ingest_ms, mut apply_ms, mut rest_ms, mut affected, mut compact_ms) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..DELTA_CYCLES {
        for _ in 0..BATCHES_PER_CYCLE {
            let batch = gen.batch(&mut mirror, &mut truth);
            let (r, ingest) = tr.time("engine.ingest", || engine.ingest("dsd", &batch.ops));
            r.map_err(|e| format!("probe ingest: {e}"))?;
            let (applied, apply) =
                tr.time("er.delta.apply", || idx.apply_delta(&mirror, &batch.ops));
            let applied = applied.map_err(|e| format!("probe apply_delta: {e}"))?;
            let n_affected = match &applied.affected {
                Affected::Ids(ids) => ids.len(),
                Affected::All => mirror.len(),
            };
            let (_, st) = tr.time("planner.stats", || compute_table_stats(&mirror, &idx));
            ingest_ms.push(ms(ingest));
            apply_ms.push(ms(apply));
            rest_ms.push(ms(ingest) - ms(apply) - ms(st));
            affected.push(n_affected as f64 / batch.ops.len() as f64);
        }
        let (r, d) = tr.time("engine.compact", || engine.compact("dsd"));
        r.map_err(|e| format!("probe compact: {e}"))?;
        compact_ms.push(ms(d));
        idx.compact(&mirror)
            .map_err(|e| format!("probe index compact: {e}"))?;
    }
    tr.end(probe);

    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.insert(name.to_string(), (v, unit));
    };
    put("er.index.build_ms", med(&builds), "ms");
    put("planner.stats_ms", med(&stats_ms), "ms");
    put("er.edge_pruning.bulk_thresholds_ms", med(&bulk_ms), "ms");
    put("er.resolve.qe_ms", qe_ms, "ms");
    put("er.resolve.all_ms", med(&all_ms), "ms");
    put("er.resolve.comparisons", dm.comparisons as f64, "count");
    put(
        "er.resolve.candidate_pairs",
        dm.candidate_pairs as f64,
        "count",
    );
    put("er.resolve.matches", dm.matches_found as f64, "count");
    put(
        "er.resolve.ns_per_comparison",
        qe_ms * 1e6 / dm.comparisons.max(1) as f64,
        "ns",
    );
    put("er.kernel.ns_per_decision", med(&kernel_ns), "ns");
    put("er.snapshot.open_ms", med(&er_open), "ms");
    put("er.snapshot.fingerprint_ms", med(&fp_ms), "ms");
    put("storage.snapshot.open_ms", med(&st_open), "ms");
    put("storage.snapshot.bytes", bytes.len() as f64, "bytes");
    put("common.checksum.crc32c_mb_per_s", med(&crc), "MB/s");
    put("engine.ingest_ms", med(&ingest_ms), "ms");
    put("er.delta.apply_ms", med(&apply_ms), "ms");
    put("engine.ingest_rest_ms", med(&rest_ms), "ms");
    put("er.delta.affected_per_op", med(&affected), "count");
    put("er.delta.compact_ms", med(&compact_ms), "ms");
    Ok(())
}

/// Up to [`KERNEL_PAIRS`] record pairs sharing a retained (unpurged)
/// block, taken block by block in id order.
fn kernel_sample(idx: &TableErIndex) -> Vec<(RecordId, RecordId)> {
    let mut pairs = Vec::with_capacity(KERNEL_PAIRS);
    for b in 0..idx.n_blocks() as u32 {
        if idx.is_purged(b) {
            continue;
        }
        let members = idx.filtered_block(b);
        for (i, &a) in members.iter().enumerate().take(16) {
            for &c in &members[i + 1..members.len().min(i + 9)] {
                pairs.push((a, c));
                if pairs.len() == KERNEL_PAIRS {
                    return pairs;
                }
            }
        }
    }
    pairs
}
