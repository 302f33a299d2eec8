//! The traced run's in-process replay.
//!
//! The HTTP run's operations — the setup load, every acknowledged write,
//! every landed drop-folder generation and a sample of the reads — are
//! replayed in the order they happened, through each layer's public calls,
//! with a span around every call. Writes go through a durable coordinator
//! configured like `dn-serve` (same measures, shards and threads; the
//! 8-epoch checkpoint is issued by the replay so it gets its own span),
//! and again through the lower layers on their own: a scratch WAL, an
//! unsharded lake and DomainNet. Generations go through an in-process
//! ingester feeding the same coordinator, and through the ingest crate's
//! fingerprint, diff and journal calls. Reads go through the coordinator's
//! reader and views, and explain is repeated shard by shard inline, which
//! isolates the pool's scatter hand-off.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use datagen::DriftStream;
use dn_graph::{betweenness_centrality_parallel, local_clustering_coefficients, LccMethod};
use dn_ingest::{
    diff_tables, fingerprint_file, CoordinatorSink, FileEntry, IngestConfig, IngestStats, Ingester,
    Journal, JournalState,
};
use dn_server::api::{
    ErrorBody, ErrorDetail, ExplainResponse, MutationRequest, ScoreResponse, TableSummaryResponse,
    TopKResponse,
};
use dn_service::{serve_sharded_durable, serve_sharded_from_dir, CheckpointPolicy, ServiceConfig};
use dn_store::{Store, Wal};
use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::loader::load_table;
use lake::{LakeDelta, MutableLake, Table};

use crate::load::{ReadRec, Route, WRITE_OP};
use crate::spans::Recorder;
use crate::stats::{mean, median, pct, sorted};
use crate::workload::{marker_token, write_generation, Batch, Inputs, Spec};
use crate::Observed;

/// Reads replayed at most (an even sample of the HTTP run's reads).
const MAX_REPLAY_READS: usize = 20_000;
const GEN_OP: u64 = 2 << 40;
const SETUP_OP: u64 = 3 << 40;

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.read_overhead_p50_us", "us"),
    ("server.read_overhead_p99_us", "us"),
    ("server.encode_us", "us"),
    ("server.decode_ms", "ms"),
    ("server.connections_per_client", "ratio"),
    ("service.top_k_p50_us", "us"),
    ("service.top_k_p99_us", "us"),
    ("service.score_p50_us", "us"),
    ("service.score_p99_us", "us"),
    ("service.explain_p50_us", "us"),
    ("service.explain_p99_us", "us"),
    ("service.table_summary_p50_us", "us"),
    ("service.table_summary_p99_us", "us"),
    ("service.topk_cache_hit_ratio", "ratio"),
    ("service.commit_p50_ms", "ms"),
    ("service.commit_p95_ms", "ms"),
    ("service.publish_ms", "ms"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoints", "count"),
    ("service.recover_s", "s"),
    ("pool.scatter_handoff_p50_us", "us"),
    ("pool.scatter_handoff_p99_us", "us"),
    ("store.wal_append_ms", "ms"),
    ("store.wal_bytes_per_body_byte", "ratio"),
    ("store.snapshot_bytes", "bytes"),
    ("store.recover_ms", "ms"),
    ("lake.apply_batch_us", "us"),
    ("core.apply_delta_p50_ms", "ms"),
    ("core.apply_delta_p95_ms", "ms"),
    ("core.warm_rankings_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.nodes_recomputed_per_edge_changed", "ratio"),
    ("graph.exact_bc_ms", "ms"),
    ("graph.lcc_ms", "ms"),
    ("ingest.poll_p50_ms", "ms"),
    ("ingest.poll_p95_ms", "ms"),
    ("ingest.fingerprint_ms", "ms"),
    ("ingest.diff_ms", "ms"),
    ("ingest.journal_ms", "ms"),
    ("ingest.rows_diffed_per_generation", "count"),
    ("trace.recorder_overhead_us", "us"),
];

pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The per-layer self-time table, one line per row.
    pub fold: Vec<String>,
}

fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("replay {context}: {e}")
}

enum Event<'a> {
    Write(u64, &'a Batch),
    Generation(u64),
    Read(u64, &'a ReadRec),
}

/// The replay's system under test plus the layer-by-layer shadows.
struct Replay<'a> {
    rec: Recorder,
    handle: dn_service::CoordinatorHandle,
    coordinator: Arc<Mutex<dn_service::Coordinator>>,
    ingester: Ingester<CoordinatorSink>,
    journal: Journal,
    stream: DriftStream,
    drop_dir: std::path::PathBuf,
    previous: BTreeMap<String, Table>,
    wal: Wal,
    wal_seq: u64,
    wal_bytes: u64,
    body_bytes: u64,
    lake: MutableLake,
    net: DomainNet,
    commits_since_checkpoint: u64,
    checkpoints: u64,
    targets: &'a crate::load::Targets,
    /// Service time and (explain only) inline shard time per replayed read.
    read_times: HashMap<u64, (u64, Option<u64>)>,
}

fn measures() -> [Measure; 2] {
    [Measure::lcc(), Measure::exact_bc()]
}

impl Replay<'_> {
    fn cadence(&mut self, root: usize, op: u64) -> Result<(), String> {
        self.commits_since_checkpoint += 1;
        self.checkpoint_if(self.commits_since_checkpoint >= 8, root, op)
    }

    fn checkpoint_if(&mut self, due: bool, root: usize, op: u64) -> Result<(), String> {
        if due {
            let mut c = self.coordinator.lock().expect("replay coordinator lock");
            let (done, _) = self
                .rec
                .time("service.checkpoint", Some(root), op, || c.checkpoint_now());
            done.map_err(err("checkpoint"))?;
            self.commits_since_checkpoint = 0;
            self.checkpoints += 1;
        }
        Ok(())
    }

    fn shadow(&mut self, root: usize, op: u64, deltas: &[LakeDelta]) -> Result<(), String> {
        let lake = &mut self.lake;
        let (effects, _) = self.rec.time("lake.apply_batch", Some(root), op, || {
            lake.apply_batch(deltas.iter())
        });
        let effects = effects.map_err(err("apply_batch"))?;
        let (lake, net) = (&self.lake, &mut self.net);
        let (stats, _) = self.rec.time("core.apply_delta", Some(root), op, || {
            net.apply_delta(lake, &effects)
        });
        stats.map_err(err("apply_delta"))?;
        let net = &self.net;
        self.rec.time("core.warm_rankings", Some(root), op, || {
            net.warm_rankings(&measures())
        });
        Ok(())
    }

    fn write(&mut self, op: u64, batch: &Batch) -> Result<(), String> {
        let root = self.rec.begin("replay.write", None, op);
        let (parsed, _) = self.rec.time("server.decode", Some(root), op, || {
            serde_json::from_str::<MutationRequest>(&batch.body)
        });
        let parsed = parsed.map_err(err("decode"))?;
        {
            let mut c = self.coordinator.lock().expect("replay coordinator lock");
            for delta in &parsed.deltas {
                c.stage(delta.clone());
            }
            let (stats, _) = self
                .rec
                .time("service.commit", Some(root), op, || c.commit());
            stats.map_err(err("commit"))?;
            self.rec
                .time("service.publish", Some(root), op, || c.publish());
        }
        self.cadence(root, op)?;
        self.wal_seq += 1;
        let (wal, seq) = (&mut self.wal, self.wal_seq);
        let (bytes, _) = self.rec.time("store.wal_append", Some(root), op, || {
            wal.append(seq, seq, &parsed.deltas)
        });
        self.wal_bytes += bytes.map_err(err("wal append"))?;
        self.body_bytes += batch.body.len() as u64;
        self.shadow(root, op, &parsed.deltas)?;
        self.rec.end(root);
        Ok(())
    }

    fn generation(&mut self, op: u64) -> Result<(), String> {
        let root = self.rec.begin("replay.generation", None, op);
        let g = write_generation(&mut self.stream, &self.drop_dir).map_err(err("write"))?;
        let mut names: Vec<String> = std::fs::read_dir(&self.drop_dir)
            .map_err(err("list"))?
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".csv"))
            .collect();
        names.sort();
        let dir = &self.drop_dir;
        let (files, _) = self.rec.time("ingest.fingerprint", Some(root), op, || {
            names
                .iter()
                .map(|name| {
                    fingerprint_file(&dir.join(name)).map(|fingerprint| FileEntry {
                        name: name.clone(),
                        fingerprint,
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let files = files.map_err(err("fingerprint"))?;
        let mut current: BTreeMap<String, Table> = BTreeMap::new();
        for name in &names {
            let table =
                load_table(&dir.join(name), crate::checks::strict_load()).map_err(err("parse"))?;
            current.insert(table.name().to_owned(), table);
        }
        let previous = &self.previous;
        let (mut deltas, _) = self.rec.time("ingest.diff", Some(root), op, || {
            let mut deltas = Vec::new();
            for (name, table) in &current {
                match previous.get(name) {
                    Some(old) => {
                        let diff = diff_tables(old, table);
                        if !diff.delta.is_empty() {
                            deltas.push(diff.delta);
                        }
                    }
                    None => deltas.push(LakeDelta::new().add_table(table.clone())),
                }
            }
            deltas
        });
        for name in self.previous.keys().filter(|n| !current.contains_key(*n)) {
            deltas.push(LakeDelta::new().remove_table(name.clone()));
        }
        let state = JournalState {
            seq: g as u64,
            files,
            pending: None,
        };
        let journal = &self.journal;
        let (saved, _) = self
            .rec
            .time("ingest.journal", Some(root), op, || journal.save(&state));
        saved.map_err(err("journal"))?;

        // The ingester's stability guard delivers on the second poll that
        // sees a file unchanged, so one generation is two polls.
        let marker = marker_token(g);
        let ingester = &mut self.ingester;
        let (polled, _) = self.rec.time("ingest.poll", Some(root), op, || {
            ingester.poll_once().and_then(|_| ingester.poll_once())
        });
        polled.map_err(err("poll"))?;
        let view = self.handle.current();
        if view
            .measures()
            .iter()
            .all(|&m| view.score_card(m, &marker).is_none())
        {
            return Err(format!("replay: generation {g} not served after two polls"));
        }
        self.cadence(root, op)?;
        self.shadow(root, op, &deltas)?;
        self.previous = current;
        self.rec.end(root);
        Ok(())
    }

    fn read(&mut self, op: u64, read: &ReadRec, reader: &mut dn_service::CoordinatorReader) {
        reader.pin();
        let view = Arc::clone(reader.view());
        let root = self.rec.begin("replay.read", None, op);
        let value = |i: usize| self.targets.values[i].clone();
        let (service, inline) = match read.route {
            Route::TopK { bc, k } => {
                let measure = if bc {
                    Measure::exact_bc()
                } else {
                    Measure::lcc()
                };
                let (results, ns) = self
                    .rec
                    .time("service.top_k", Some(root), op, || reader.top_k(measure, k));
                let body = TopKResponse {
                    epoch: view.epoch(),
                    measure: measure.name().to_owned(),
                    k,
                    results: results.map(|r| r.as_ref().clone()).unwrap_or_default(),
                };
                self.encode(root, op, &body);
                (ns, None)
            }
            Route::Score(_) | Route::Marker(_) => {
                let value = match read.route {
                    Route::Score(i) => value(i),
                    Route::Marker(g) => marker_token(g),
                    _ => unreachable!("matched above"),
                };
                let (cards, ns) = self.rec.time("service.score", Some(root), op, || {
                    view.measures()
                        .iter()
                        .filter_map(|&m| view.score_card(m, &value))
                        .collect::<Vec<_>>()
                });
                match cards.first() {
                    Some(card) => {
                        let body = ScoreResponse {
                            epoch: view.epoch(),
                            value: card.value.clone(),
                            cards: cards.clone(),
                        };
                        self.encode(root, op, &body);
                    }
                    None => self.encode(root, op, &not_found(&value)),
                }
                (ns, None)
            }
            Route::Explain(i) => {
                let value = value(i);
                // Alternate which call goes first so neither always runs
                // on caches the other warmed.
                let inline_first = op.is_multiple_of(2);
                let mut inline = 0;
                if inline_first {
                    inline = self.inline_explain(root, op, &view, &value);
                }
                let (explanation, ns) = self
                    .rec
                    .time("service.explain", Some(root), op, || view.explain(&value));
                if !inline_first {
                    inline = self.inline_explain(root, op, &view, &value);
                }
                match explanation {
                    Some(explanation) => {
                        let body = ExplainResponse {
                            epoch: view.epoch(),
                            explanation,
                        };
                        self.encode(root, op, &body);
                    }
                    None => self.encode(root, op, &not_found(&value)),
                }
                (ns, Some(inline))
            }
            Route::Summary(i) => {
                let table = self.targets.tables[i].clone();
                let (summary, ns) = self.rec.time("service.table_summary", Some(root), op, || {
                    view.table_summary(&table, Measure::lcc(), 5)
                });
                match summary {
                    Some(summary) => {
                        let body = TableSummaryResponse {
                            epoch: view.epoch(),
                            measure: Measure::lcc().name().to_owned(),
                            summary,
                        };
                        self.encode(root, op, &body);
                    }
                    None => self.encode(root, op, &not_found(&table)),
                }
                (ns, None)
            }
        };
        self.rec.end(root);
        self.read_times.insert(op, (service, inline));
    }

    /// `serde_json::to_string` of a route's response body, as the server
    /// encodes it.
    fn encode(&mut self, root: usize, op: u64, body: &impl serde::Serialize) {
        let (encoded, _) = self.rec.time("server.encode", Some(root), op, || {
            serde_json::to_string(body)
        });
        std::hint::black_box(encoded.expect("response bodies encode"));
    }

    /// `MultiView::explain`'s work without the scatter: every shard's
    /// `Snapshot::explain`, called inline, in shard order; the first shard
    /// that answers wins, as in `MultiView::explain`.
    fn inline_explain(
        &mut self,
        root: usize,
        op: u64,
        view: &dn_service::MultiView,
        value: &str,
    ) -> u64 {
        self.rec
            .time("pool.inline_explain", Some(root), op, || {
                let answers: Vec<_> = (0..view.shard_count())
                    .map(|i| view.shard(i).explain(value))
                    .collect();
                answers.into_iter().flatten().next()
            })
            .1
    }
}

fn not_found(what: &str) -> ErrorBody {
    ErrorBody {
        error: ErrorDetail {
            status: 404,
            kind: "not_found".to_owned(),
            message: format!("{what:?} is not served in this epoch"),
        },
    }
}

fn ms_of(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&n| n as f64 / 1e6))
}

fn us_of(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&n| n as f64 / 1e3))
}

pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    observed: &Observed,
    dir: &Path,
    threads: usize,
    out_dir: &Path,
) -> Result<Layers, String> {
    std::fs::create_dir_all(dir).map_err(err("scratch"))?;
    let origin = Instant::now();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Cold build and the graph kernels on the setup lake.
    let base = MutableLake::from_catalog(&inputs.base_catalog);
    let build = |_: usize| {
        let t = Instant::now();
        let net = DomainNetBuilder::new()
            .prune_single_attribute_values(true)
            .build(&base);
        (net, t.elapsed().as_nanos() as u64)
    };
    let builds: Vec<(DomainNet, u64)> = (0..3).map(build).collect();
    values.insert(
        "core.build_ms",
        median(builds.iter().map(|(_, ns)| *ns as f64 / 1e6)),
    );
    let graph = builds[0].0.graph();
    let t = Instant::now();
    std::hint::black_box(betweenness_centrality_parallel(graph, threads));
    values.insert("graph.exact_bc_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    std::hint::black_box(local_clustering_coefficients(
        graph,
        LccMethod::ValueNeighborJaccard,
    ));
    values.insert("graph.lcc_ms", t.elapsed().as_secs_f64() * 1e3);
    drop(builds);

    // The replayed system.
    let config = ServiceConfig {
        measures: measures().to_vec(),
        cache_capacity: 64,
        prune_single_attribute_values: true,
        threads,
    };
    let (handle, coordinator) = serve_sharded_durable(
        MutableLake::new(),
        config.clone(),
        dir.join("data"),
        CheckpointPolicy::manual(),
        spec.shards,
    )
    .map_err(err("coordinator"))?;
    let coordinator = Arc::new(Mutex::new(coordinator));
    let drop_dir = dir.join("drop");
    let mut ingest = IngestConfig::new(&drop_dir);
    ingest.journal_path = dir.join("ingest.journal");
    let ingester = Ingester::new(
        ingest,
        CoordinatorSink::new(Arc::clone(&coordinator)),
        Arc::new(IngestStats::default()),
    )
    .map_err(err("ingester"))?;
    let mut net = DomainNetBuilder::new()
        .prune_single_attribute_values(true)
        .build(&MutableLake::new());
    net.set_compute_threads(threads);
    let mut replay = Replay {
        rec: Recorder::new(origin),
        handle: handle.clone(),
        coordinator,
        ingester,
        journal: Journal::new(dir.join("scratch.journal")),
        stream: DriftStream::new(inputs.drift),
        drop_dir,
        previous: BTreeMap::new(),
        wal: Wal::create(&dir.join("scratch.wal")).map_err(err("wal"))?,
        wal_seq: 0,
        wal_bytes: 0,
        body_bytes: 0,
        lake: MutableLake::new(),
        net,
        commits_since_checkpoint: 0,
        checkpoints: 0,
        targets: &observed.targets,
        read_times: HashMap::new(),
    };

    // Setup, then the timed operations in the order they took effect.
    for (i, batch) in inputs.load.iter().enumerate() {
        replay.write(SETUP_OP + i as u64, batch)?;
    }
    let reads = &observed.reader.reads;
    let every = reads.len().div_ceil(MAX_REPLAY_READS).max(1);
    let mut events: Vec<(u64, Event)> = Vec::new();
    for (i, w) in observed.writer.writes.iter().enumerate() {
        events.push((
            w.ack_ns,
            Event::Write(WRITE_OP + i as u64, &inputs.writes[i]),
        ));
    }
    for &(g, at) in &observed.landed {
        events.push((at, Event::Generation(GEN_OP + g as u64)));
    }
    for (i, r) in reads.iter().enumerate().step_by(every) {
        events.push((r.at_ns, Event::Read(i as u64, r)));
    }
    events.sort_by_key(|(at, _)| *at);
    let mut reader = handle.reader();
    for (_, event) in &events {
        match event {
            Event::Write(op, batch) => replay.write(*op, batch)?,
            Event::Generation(op) => replay.generation(*op)?,
            Event::Read(op, read) => replay.read(*op, read, &mut reader),
        }
    }
    drop(reader);
    // A run too short for the cadence still times one checkpoint.
    let root = replay.rec.begin("replay.checkpoint", None, SETUP_OP);
    replay.checkpoint_if(replay.checkpoints == 0, root, SETUP_OP)?;
    replay.rec.end(root);

    // Recovery, on copies of the data dir the last SIGKILL left behind.
    let copy = dir.join("recover-service");
    crate::serve::copy_dir(&observed.killed_dir, &copy).map_err(err("copy"))?;
    let t = Instant::now();
    let recovered = serve_sharded_from_dir(&copy, config, CheckpointPolicy::every_epochs(8))
        .map_err(err("recover"))?;
    values.insert("service.recover_s", t.elapsed().as_secs_f64());
    drop(recovered);
    let copy = dir.join("recover-store");
    crate::serve::copy_dir(&observed.killed_dir, &copy).map_err(err("copy"))?;
    let t = Instant::now();
    for i in 0..spec.shards {
        Store::recover(dn_store::shard_dir(&copy, i)).map_err(err("store"))?;
    }
    values.insert("store.recover_ms", t.elapsed().as_secs_f64() * 1e3);
    values.insert(
        "store.snapshot_bytes",
        crate::serve::bytes_matching(&observed.killed_dir, "snapshot-") as f64,
    );

    // Fold the spans into per-layer values.
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut per_op: HashMap<(u64, &'static str), u64> = HashMap::new();
    for s in replay.rec.spans() {
        by_name.entry(s.name).or_default().push(s.dur_ns());
        *per_op.entry((s.op, s.name)).or_default() += s.dur_ns();
    }
    let get = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let p = |v: &[f64], q: f64| pct(v, q);
    let http_reads: HashMap<u64, &ReadRec> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| (i as u64, r))
        .collect();
    let mut overhead = Vec::new();
    let mut handoff = Vec::new();
    for (op, (service, inline)) in &replay.read_times {
        let http = http_reads[op].ns as f64;
        overhead.push((http - *service as f64) / 1e3);
        if let Some(inline) = inline {
            handoff.push((*service as f64 - *inline as f64) / 1e3);
        }
    }
    let overhead = sorted(overhead);
    let handoff = sorted(handoff);
    values.insert("server.read_overhead_p50_us", p(&overhead, 0.5));
    values.insert("server.read_overhead_p99_us", p(&overhead, 0.99));
    values.insert("server.encode_us", p(&us_of(&get("server.encode")), 0.5));
    values.insert("server.decode_ms", p(&ms_of(&get("server.decode")), 0.5));
    let accepted = observed
        .metrics
        .get("dn_http_connections_accepted_total")
        .copied()
        .ok_or("no dn_http_connections_accepted_total in /metrics")?;
    values.insert(
        "server.connections_per_client",
        accepted / observed.connections_opened as f64,
    );
    for (route, p50, p99) in [
        (
            "service.top_k",
            "service.top_k_p50_us",
            "service.top_k_p99_us",
        ),
        (
            "service.score",
            "service.score_p50_us",
            "service.score_p99_us",
        ),
        (
            "service.explain",
            "service.explain_p50_us",
            "service.explain_p99_us",
        ),
        (
            "service.table_summary",
            "service.table_summary_p50_us",
            "service.table_summary_p99_us",
        ),
    ] {
        let v = us_of(&get(route));
        values.insert(p50, p(&v, 0.5));
        values.insert(p99, p(&v, 0.99));
    }
    let hits = observed
        .metrics
        .get("dn_cache_hits_total")
        .copied()
        .unwrap_or(0.0);
    let misses = observed
        .metrics
        .get("dn_cache_misses_total")
        .copied()
        .unwrap_or(0.0);
    values.insert("service.topk_cache_hit_ratio", hits / (hits + misses));
    let commit = ms_of(&get("service.commit"));
    values.insert("service.commit_p50_ms", p(&commit, 0.5));
    values.insert("service.commit_p95_ms", p(&commit, 0.95));
    values.insert(
        "service.publish_ms",
        p(&ms_of(&get("service.publish")), 0.5),
    );
    values.insert(
        "service.checkpoint_ms",
        p(&ms_of(&get("service.checkpoint")), 0.5),
    );
    values.insert("service.checkpoints", replay.checkpoints as f64);
    values.insert("pool.scatter_handoff_p50_us", p(&handoff, 0.5));
    values.insert("pool.scatter_handoff_p99_us", p(&handoff, 0.99));
    values.insert(
        "store.wal_append_ms",
        p(&ms_of(&get("store.wal_append")), 0.5),
    );
    values.insert(
        "store.wal_bytes_per_body_byte",
        replay.wal_bytes as f64 / replay.body_bytes as f64,
    );
    values.insert(
        "lake.apply_batch_us",
        p(&us_of(&get("lake.apply_batch")), 0.5),
    );
    let apply = ms_of(&get("core.apply_delta"));
    values.insert("core.apply_delta_p50_ms", p(&apply, 0.5));
    values.insert("core.apply_delta_p95_ms", p(&apply, 0.95));
    values.insert(
        "core.warm_rankings_ms",
        p(&ms_of(&get("core.warm_rankings")), 0.5),
    );
    let (dirty, edges) = observed
        .writer
        .writes
        .iter()
        .fold((0usize, 0usize), |(d, e), w| {
            (
                d + w.stats.dirty_values + w.stats.touched_component_nodes,
                e + w.stats.edges_added + w.stats.edges_removed,
            )
        });
    values.insert(
        "core.nodes_recomputed_per_edge_changed",
        dirty as f64 / edges as f64,
    );
    let poll = ms_of(&get("ingest.poll"));
    values.insert("ingest.poll_p50_ms", p(&poll, 0.5));
    values.insert("ingest.poll_p95_ms", p(&poll, 0.95));
    values.insert(
        "ingest.fingerprint_ms",
        p(&ms_of(&get("ingest.fingerprint")), 0.5),
    );
    values.insert("ingest.diff_ms", p(&ms_of(&get("ingest.diff")), 0.5));
    values.insert("ingest.journal_ms", p(&ms_of(&get("ingest.journal")), 0.5));
    let generations = observed.landed.len();
    values.insert(
        "ingest.rows_diffed_per_generation",
        observed
            .metrics
            .get("dn_ingest_rows_diffed_total")
            .copied()
            .unwrap_or(0.0)
            / generations as f64,
    );
    let (traced, untraced): (Vec<&ReadRec>, Vec<&ReadRec>) = reads.iter().partition(|r| r.traced);
    values.insert(
        "trace.recorder_overhead_us",
        (median(traced.iter().map(|r| r.ns as f64)) - median(untraced.iter().map(|r| r.ns as f64)))
            / 1e3,
    );

    let fold = fold(spec, observed, &per_op, &replay.read_times);

    // Keep every span: the HTTP run's and the replay's.
    let path = out_dir.join(format!("spans-{}.jsonl", spec.name));
    crate::spans::write_jsonl(
        &[&observed.reader.spans, &observed.writer.spans, &replay.rec],
        &path,
    )
    .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_owned(),
                values.get(name).copied().unwrap_or(f64::NAN),
                unit,
            )
        })
        .collect();
    Ok(Layers { metrics, fold })
}

/// Each layer's self time per operation, folded over the read and write
/// populations: the median over all operations against `read_p50_us` /
/// `write_p50_ms`, and the mean over the tail operations (at or above the
/// p99 read / p95 write) against their mean latency.
fn fold(
    spec: &Spec,
    observed: &Observed,
    per_op: &HashMap<(u64, &'static str), u64>,
    read_times: &HashMap<u64, (u64, Option<u64>)>,
) -> Vec<String> {
    let span = |op: u64, name: &'static str| per_op.get(&(op, name)).copied().unwrap_or(0) as f64;
    let mut lines = Vec::new();
    let mut table = |title: String, rows: Vec<(f64, Vec<(&'static str, f64)>)>, q: f64| {
        let totals = sorted(rows.iter().map(|(t, _)| *t));
        let (p50, tail_cut) = (pct(&totals, 0.5), pct(&totals, q));
        let tail: Vec<&(f64, Vec<(&str, f64)>)> =
            rows.iter().filter(|(t, _)| *t >= tail_cut).collect();
        let tail_total = mean(&tail.iter().map(|(t, _)| *t).collect::<Vec<_>>());
        lines.push(format!(
            "fold {} {title}: p50 {:.1} us, p{} {:.1} us ({} ops)",
            spec.name,
            p50 / 1e3,
            (q * 100.0).round(),
            tail_cut / 1e3,
            rows.len()
        ));
        let layers: Vec<&str> = rows
            .first()
            .map(|(_, l)| l.iter().map(|(n, _)| *n).collect())
            .unwrap_or_default();
        for (i, layer) in layers.iter().enumerate() {
            let self_p50 = median(rows.iter().map(|(_, l)| l[i].1));
            let tail_self = mean(&tail.iter().map(|(_, l)| l[i].1).collect::<Vec<_>>());
            lines.push(format!(
                "  {layer:<14} self p50 {:>10.1} us  share of p50 {:>6.1}%  share of tail {:>6.1}%",
                self_p50 / 1e3,
                100.0 * self_p50 / p50,
                100.0 * tail_self / tail_total
            ));
        }
    };

    let reads: Vec<(f64, Vec<(&'static str, f64)>)> = read_times
        .iter()
        .map(|(op, (service, inline))| {
            let http = observed.reader.reads[*op as usize].ns as f64;
            let service = *service as f64;
            let pool = inline.map_or(0.0, |i| (service - i as f64).max(0.0));
            (
                http,
                vec![
                    ("server", http - service),
                    ("service", service - pool),
                    ("pool", pool),
                ],
            )
        })
        .collect();
    table(
        "reads (server = HTTP minus the in-process call)".into(),
        reads,
        0.99,
    );

    let writes: Vec<(f64, Vec<(&'static str, f64)>)> = observed
        .writer
        .writes
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let op = WRITE_OP + i as u64;
            let http = (w.ack_ns - w.due_ns) as f64;
            let service = span(op, "service.commit")
                + span(op, "service.publish")
                + span(op, "service.checkpoint");
            let store = span(op, "store.wal_append");
            let lake = span(op, "lake.apply_batch");
            let core = span(op, "core.apply_delta") + span(op, "core.warm_rankings");
            (
                http,
                vec![
                    ("server+queue", http - service),
                    ("service", (service - store - lake - core).max(0.0)),
                    ("store", store),
                    ("lake", lake),
                    ("core", core),
                ],
            )
        })
        .collect();
    table(
        "writes (from due time; lower layers replayed on their own)".into(),
        writes,
        0.95,
    );
    lines
}
