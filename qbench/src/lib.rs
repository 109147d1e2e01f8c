//! End-to-end QueryER benchmark: one client thread in a closed loop
//! sends SQL text to [`QueryEngine`] and times it until result rows
//! come back. Three workloads stress opposite layers (see README.md):
//!
//! * `cold_queries` — the paper's Fig. 9 / Fig. 12 ladder, every query
//!   from a cold state, with the Batch Approach beside it;
//! * `explore_session` — a restart from index snapshots followed by a
//!   long seeded analyst session over a warming Link Index;
//! * `live_ingest` — a seeded stream of ingest batches, compactions and
//!   queries over the rows just written.
//!
//! Untraced runs report end-to-end metrics only. Traced runs record
//! spans around the calls the benchmark makes into each layer, run a
//! fixed set of standalone layer probes, and report per-layer metrics.

pub mod cold;
pub mod data;
pub mod explore;
pub mod live;
pub mod pred;
pub mod probe;
pub mod quality;
pub mod stats;
pub mod trace;

use pred::Query;
use queryer_common::FxHashMap;
use queryer_core::{ExecMode, QueryEngine, QueryResult};
use queryer_sql::SchemaProvider;
use queryer_storage::RecordId;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Registrations timed per run where setup is cheap (`cold_queries`,
/// `live_ingest`); `setup_s` is their median. `explore_session` times
/// one registration per restart instead.
pub const SETUP_REPS: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold paper queries plus the Batch Approach.
    ColdQueries,
    /// Snapshot restart plus a long exploration session.
    ExploreSession,
    /// Live ingest stream with queries and compactions.
    LiveIngest,
}

impl Workload {
    /// Every workload, in README order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdQueries,
        Workload::ExploreSession,
        Workload::LiveIngest,
    ];

    /// The name `--workload` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdQueries => "cold_queries",
            Workload::ExploreSession => "explore_session",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same tables and streams.
    pub seed: u64,
    /// Measured loop length; the loop always completes whole rounds and
    /// at least [`RunConfig::min_rounds`] of them.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Table sizes.
    pub scale: data::Scale,
    /// Minimum rounds of the measured loop.
    pub min_rounds: usize,
    /// Directory for scratch files (snapshots); removed at exit.
    pub tmp_dir: PathBuf,
    /// Directory the span file is written to.
    pub out_dir: PathBuf,
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed (failed operations excluded).
    pub correct: bool,
    /// Operations the client attempted.
    pub attempted: u64,
    /// Operations the engine refused with an error.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Failed checks and operation errors.
    pub problems: Vec<String>,
}

/// Column names per registered table, for `plan_select` in traced runs
/// (the benchmark keeps its own copy so it never holds a table handle).
#[derive(Debug, Clone, Default)]
pub struct Schemas(FxHashMap<String, Vec<String>>);

impl Schemas {
    /// Records a table's columns.
    pub fn add(&mut self, name: &str, cols: Vec<String>) {
        self.0.insert(name.to_lowercase(), cols);
    }
}

impl SchemaProvider for Schemas {
    fn table_columns(&self, table: &str) -> Option<Vec<String>> {
        self.0.get(&table.to_lowercase()).cloned()
    }
}

/// Per-layer samples, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// Adds a sample.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`'s samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        stats::median(self.get(name))
    }

    /// Sum of `name`'s samples.
    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// The client: issues operations, times them, counts attempts and
/// failures, and (in traced rounds) records per-layer spans.
pub struct Client {
    /// Span recorder; `enabled` is toggled per round in traced runs.
    pub tracer: Tracer,
    /// Per-layer samples.
    pub layers: Layers,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Error texts.
    pub problems: Vec<String>,
    /// Query op times (ms) in traced rounds, for the tracing overhead.
    pub traced_query_ms: Vec<f64>,
    /// Query op times (ms) in untraced rounds.
    pub untraced_query_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Client {
    /// A client; `traced` enables span recording.
    pub fn new(traced: bool) -> Self {
        Self {
            tracer: Tracer::new(traced),
            layers: Layers::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            traced_query_ms: Vec::new(),
            untraced_query_ms: Vec::new(),
        }
    }

    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        self.problems.push(format!("{what}: {e}"));
    }

    /// Runs one `DEDUP` query under AES and returns its answer and wall
    /// time in ms (SQL text in, rows out). In traced rounds the query is
    /// also parsed, planned and explained separately first, and the Link
    /// Index closure of `selection` is timed after it.
    pub fn dedup(
        &mut self,
        engine: &QueryEngine,
        schemas: &Schemas,
        q: &Query,
        selection: Option<&[RecordId]>,
    ) -> Option<(QueryResult, f64)> {
        self.attempted += 1;
        let sql = q.sql();
        let traced = self.tracer.enabled;
        let op = self.tracer.begin("op.query");
        let mut explain_ms = 0.0;
        if traced {
            let (stmt, parse) = self
                .tracer
                .time("sql.parse", || queryer_sql::parse_select(&sql));
            let (plan, logical) = match stmt {
                Ok(stmt) => self.tracer.time("sql.logical_plan", || {
                    queryer_sql::plan_select(&stmt, schemas)
                }),
                Err(e) => (Err(e), Duration::ZERO),
            };
            if let Err(e) = plan {
                self.tracer.end(op);
                self.fail(&q.name, e);
                return None;
            }
            let (_, explain) = self
                .tracer
                .time("planner.explain", || engine.explain(&sql, ExecMode::Aes));
            self.layers.push("sql.parse_us", parse.as_secs_f64() * 1e6);
            self.layers
                .push("sql.logical_plan_us", logical.as_secs_f64() * 1e6);
            // Signed: physical planning is a few microseconds, below the
            // noise of timing parse and plan separately.
            self.layers
                .push("planner.physical_ms", ms(explain) - ms(parse + logical));
            explain_ms = ms(explain);
        }
        let (res, took) = self.tracer.time("engine.execute", || {
            engine.execute_with(&sql, ExecMode::Aes)
        });
        let took = ms(took);
        if traced {
            self.layers.push("engine.exec_ms", took - explain_ms);
            if let Some(sel) = selection {
                let (_, closure) = self.tracer.time("er.link_index.closure", || {
                    engine.with_link_index(q.table, |li| li.closure(sel.iter().copied()).len())
                });
                self.layers
                    .push("er.link_index.closure_us", closure.as_secs_f64() * 1e6);
            }
            self.traced_query_ms.push(took);
        } else {
            self.untraced_query_ms.push(took);
        }
        self.tracer.end(op);
        match res {
            Ok(r) => {
                let m = &r.metrics;
                self.layers.push("engine.qe_entities", m.qe_entities as f64);
                self.layers.push("engine.dr_entities", m.dr_entities as f64);
                self.layers.push("engine.rows_out", r.rows.len() as f64);
                self.layers.push("cache.ep_hits", m.er.ep_cache_hits as f64);
                self.layers
                    .push("cache.ep_misses", m.er.ep_cache_misses as f64);
                self.layers
                    .push("cache.decision_hits", m.er.decision_cache_hits as f64);
                self.layers
                    .push("cache.decision_misses", m.er.decision_cache_misses as f64);
                Some((r, took))
            }
            Err(e) => {
                self.fail(&q.name, e);
                None
            }
        }
    }

    /// Runs the Batch Approach from a cold state: drops the Link
    /// Indexes, resolve caches and cached batch cleanings, then runs `q`
    /// under [`ExecMode::Batch`] (clean every registered table, then
    /// answer). Timed from outside the engine: the engine's own
    /// `QueryMetrics::total` counts the first batch clean twice.
    pub fn batch(&mut self, engine: &QueryEngine, q: &Query) -> Option<(QueryResult, f64)> {
        self.attempted += 1;
        cold_reset(engine);
        engine.clear_batch_cache();
        let sql = q.sql();
        let (res, took) = self
            .tracer
            .time("op.batch", || engine.execute_with(&sql, ExecMode::Batch));
        match res {
            Ok(r) => Some((r, ms(took))),
            Err(e) => {
                self.fail(&format!("BA {}", q.name), e);
                None
            }
        }
    }

    /// Registers `tables` in a fresh engine and returns it with the
    /// wall time in seconds.
    pub fn setup(
        &mut self,
        tables: &[&queryer_storage::Table],
    ) -> Result<(QueryEngine, f64), String> {
        let copies: Vec<_> = tables.iter().map(|t| (*t).clone()).collect();
        let open = self.tracer.begin("setup");
        let mut engine = QueryEngine::new(queryer_er::ErConfig::default());
        let mut failure = None;
        for t in copies {
            let name = t.name().to_string();
            let (r, took) = self
                .tracer
                .time("engine.register_table", || engine.register_table(t));
            if let Err(e) = r {
                failure = Some(format!("registering {name}: {e}"));
                break;
            }
            self.layers.push("engine.register_ms", ms(took));
        }
        let took = self.tracer.end(open);
        match failure {
            Some(e) => Err(e),
            None => Ok((engine, took.as_secs_f64())),
        }
    }
}

/// Drops every table's Link Index and resolve caches, so the next query
/// starts cold. `clear_link_indices` alone leaves the EP and decision
/// caches warm.
pub fn cold_reset(engine: &QueryEngine) {
    engine.clear_link_indices();
    for name in engine.table_names() {
        if let Ok(er) = engine.er_index(name) {
            er.clear_ep_cache();
        }
    }
}

/// Runs `f` until at least `min_rounds` rounds are done and `seconds`
/// have passed; `f` gets the round number. Returns the rounds run.
pub fn rounds(seconds: f64, min_rounds: usize, mut f: impl FnMut(usize) -> bool) -> usize {
    let start = Instant::now();
    let mut r = 0;
    while r < min_rounds || start.elapsed().as_secs_f64() < seconds {
        if !f(r) {
            break;
        }
        r += 1;
    }
    r
}

/// A scratch directory removed when dropped (also on unwinding).
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates `root/<pid>-<nanos>`.
    pub fn new(root: &Path) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = root.join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes the root too once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Selects the snapshot layer's mode for registrations that follow.
/// Only called between engine calls, while no engine thread runs.
pub fn set_snapshot_mode(mode: &str, dir: Option<&Path>) {
    std::env::set_var("QUERYER_SNAPSHOT", mode);
    if let Some(d) = dir {
        std::env::set_var("QUERYER_SNAPSHOT_DIR", d);
    }
}

/// Quality floors every workload's answers must clear (see README.md).
pub const PC_FLOOR: f64 = 0.80;
/// Precision floor: the closure fault keeps `dsd` answers well below 1.
pub const PRECISION_FLOOR: f64 = 0.50;

/// The end-to-end metrics every workload reports, from its samples.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Setup wall times, s.
    pub setup_s: Vec<f64>,
    /// DEDUP query wall times, ms.
    pub query_ms: Vec<f64>,
    /// Batch Approach wall times, ms.
    pub ba_ms: Vec<f64>,
    /// Operations completed in the measured loop.
    pub ops: u64,
    /// Summed wall time of those operations, s.
    pub ops_s: f64,
    /// Answer quality.
    pub quality: quality::Quality,
}

impl EndToEnd {
    /// Counts one completed operation of `took_ms`.
    pub fn op(&mut self, took_ms: f64) {
        self.ops += 1;
        self.ops_s += took_ms / 1e3;
    }

    /// Registers `tables` [`SETUP_REPS`] times, each in a fresh engine,
    /// recording each wall time; returns the last engine.
    pub fn setups(
        &mut self,
        client: &mut Client,
        tables: &[&queryer_storage::Table],
    ) -> Result<QueryEngine, String> {
        let mut engine = None;
        for _ in 0..SETUP_REPS {
            drop(engine.take());
            let (e, s) = client.setup(tables)?;
            self.setup_s.push(s);
            engine = Some(e);
        }
        Ok(engine.expect("SETUP_REPS > 0"))
    }

    /// Failed quality floors, as problems.
    pub fn floor_problems(&self) -> Vec<String> {
        let (pc, precision) = (self.quality.pc(), self.quality.precision());
        let mut out = Vec::new();
        if pc < PC_FLOOR {
            out.push(format!("pc {pc} below floor {PC_FLOOR}"));
        }
        if precision < PRECISION_FLOOR {
            out.push(format!(
                "precision {precision} below floor {PRECISION_FLOOR}"
            ));
        }
        out
    }

    /// Renders the shared end-to-end metric set.
    pub fn metrics(&self) -> Result<Metrics, String> {
        let need = |name: &str, v: Option<f64>| v.ok_or_else(|| format!("no samples for {name}"));
        let mut m = Metrics::new();
        m.insert(
            "setup_s".into(),
            (need("setup_s", stats::median(&self.setup_s))?, "s"),
        );
        m.insert(
            "query_ms.p50".into(),
            (need("query_ms", stats::median(&self.query_ms))?, "ms"),
        );
        m.insert(
            "ba_s".into(),
            (need("ba_s", stats::median(&self.ba_ms))? / 1e3, "s"),
        );
        if self.ops == 0 || self.ops_s <= 0.0 {
            return Err("no operations completed".into());
        }
        m.insert("ops_per_s".into(), (self.ops as f64 / self.ops_s, "1/s"));
        m.insert(
            "peak_rss_mb".into(),
            (need("peak_rss_mb", stats::peak_rss_mb())?, "MB"),
        );
        m.insert("pc".into(), (self.quality.pc(), "ratio"));
        m.insert("precision".into(), (self.quality.precision(), "ratio"));
        Ok(m)
    }
}

/// Per-layer metrics drawn from the client's samples (the loop side;
/// [`probe`] adds the standalone layer probes).
pub fn loop_layer_metrics(client: &Client, m: &mut Metrics) {
    let l = &client.layers;
    for (name, unit) in [
        ("sql.parse_us", "us"),
        ("sql.logical_plan_us", "us"),
        ("planner.physical_ms", "ms"),
        ("engine.exec_ms", "ms"),
        ("engine.register_ms", "ms"),
        ("er.link_index.closure_us", "us"),
    ] {
        if let Some(v) = l.median(name) {
            m.insert(name.into(), (v, unit));
        }
    }
    let n = l.get("engine.rows_out").len().max(1) as f64;
    for name in [
        "engine.qe_entities",
        "engine.dr_entities",
        "engine.rows_out",
    ] {
        m.insert(name.into(), (l.sum(name) / n, "count"));
    }
    let ratio = |h: f64, miss: f64| if h + miss > 0.0 { h / (h + miss) } else { 0.0 };
    m.insert(
        "er.cache.ep_hit_ratio".into(),
        (
            ratio(l.sum("cache.ep_hits"), l.sum("cache.ep_misses")),
            "ratio",
        ),
    );
    m.insert(
        "er.cache.decision_hit_ratio".into(),
        (
            ratio(l.sum("cache.decision_hits"), l.sum("cache.decision_misses")),
            "ratio",
        ),
    );
    if let (Some(t), Some(u)) = (
        stats::median(&client.traced_query_ms),
        stats::median(&client.untraced_query_ms),
    ) {
        m.insert("trace.overhead_pct".into(), (100.0 * (t - u) / u, "%"));
    }
    m.insert(
        "trace.spans".into(),
        (client.tracer.spans().len() as f64, "count"),
    );
}

/// Links in the Link Indexes of every registered table (read before a
/// BA op's cold reset empties them).
pub fn total_links(engine: &QueryEngine) -> usize {
    engine
        .table_names()
        .into_iter()
        .filter_map(|t| engine.link_index_stats(t).ok())
        .map(|(_, links)| links)
        .sum()
}

/// Link Index figures of the loop: links held after the last queries of
/// a round, and the largest id list seen in any answer.
pub fn link_index_metrics(links: usize, max_cluster: usize, m: &mut Metrics) {
    m.insert("er.link_index.links".into(), (links as f64, "count"));
    m.insert(
        "er.link_index.max_cluster".into(),
        (max_cluster as f64, "count"),
    );
}

/// Runs one configured workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let tmp = match TmpDir::new(&cfg.tmp_dir) {
        Ok(t) => t,
        Err(e) => {
            return Outcome {
                problems: vec![format!("creating scratch dir: {e}")],
                ..Outcome::default()
            }
        }
    };
    let mut client = Client::new(cfg.trace);
    // A caller's environment must not switch the snapshot layer on for
    // workloads that build their indexes.
    set_snapshot_mode("off", Some(&tmp.path().join("snapshots")));
    let result = match cfg.workload {
        Workload::ColdQueries => cold::run(cfg, &mut client, tmp.path()),
        Workload::ExploreSession => explore::run(cfg, &mut client, tmp.path()),
        Workload::LiveIngest => live::run(cfg, &mut client, tmp.path()),
    };
    let mut out = Outcome {
        attempted: client.attempted,
        failed: client.failed,
        problems: std::mem::take(&mut client.problems),
        ..Outcome::default()
    };
    match result {
        Ok((metrics, notes, problems)) => {
            out.metrics = metrics;
            out.notes = notes;
            out.correct = problems.is_empty();
            out.problems.extend(problems);
        }
        Err(e) => out.problems.push(e),
    }
    if cfg.trace {
        let _ = std::fs::create_dir_all(&cfg.out_dir);
        let path = cfg.out_dir.join(format!(
            "spans-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        match std::fs::write(&path, client.tracer.to_json(cfg.workload.name(), cfg.seed)) {
            Ok(()) => out.notes.push(format!("span file: {}", path.display())),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
        let mut lines: Vec<String> = client
            .tracer
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "  {name:<28} n={:<6} total={:>10.3} ms  self={:>10.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect();
        lines.insert(0, "span totals (self = minus direct children):".into());
        out.notes.extend(lines);
    }
    out
}

/// What a workload returns: metrics, note lines, failed checks.
pub type WorkloadResult = Result<(Metrics, Vec<String>, Vec<String>), String>;
