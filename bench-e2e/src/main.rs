//! `e2ebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1
//!          --serve-bin PATH --out-dir DIR [--git-rev REV]
//! ```
//!
//! Spawns `dn-serve` (at its shipped defaults, on a fresh data dir under
//! `--out-dir`) as a child process, loads it over loopback HTTP with one
//! closed-loop reader and one open-loop writer while a drifter rewrites
//! its ingest drop-folder, checks every answer, then kills it with
//! SIGKILL and measures recovery. With `--trace 0` the last stdout line
//! holds the end-to-end metrics; with `--trace 1` the HTTP spans are
//! recorded, the same operations are replayed in-process through each
//! layer's public calls, and the last line holds the per-layer metrics.
//! Every file the run writes lives under `--out-dir`. See `NOTES.md`.

mod checks;
mod load;
mod replay;
mod serve;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::DriftStream;
use dn_server::api::{TablesResponse, TopKResponse};
use dn_server::Client;
use domainnet::DomainNetBuilder;
use lake::{LakeView, MutableLake};
use serde::Serialize;

use load::{Clients, DriftState, ReaderOut, Tally, Targets, WriterOut};
use serve::{ServeConfig, Server};
use workload::{Base, Inputs, Spec};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Kill-and-restart cycles per run; `recovery_s` is their median.
const RECOVERIES: usize = 15;
/// `k` of the final top-k checks.
const CHECK_K: usize = 100;
/// Length of the blocks `read_p99_us` is taken over. Four seconds hold
/// the same schedule on both workloads: whole periods of the writes and the
/// generations, and at least one 8-epoch checkpoint.
const READ_BLOCK_NS: u64 = 4_000_000_000;
/// What this benchmark cannot show yet.
const NOT_SEEN: &str = "dn-serve's idle-rotation sleep (it needs more connections than \
workers; two load connections against the default 4 workers cannot queue one)";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out_dir: PathBuf,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => {
                return Err(format!(
                    "arguments must be --flag value pairs, got {pair:?}"
                ))
            }
        }
    }
    let take = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("{name} is required"))
    };
    let number = |name: &str| -> Result<u64, String> {
        take(name)?
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let args = Args {
        workload: take("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match take("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        serve_bin: PathBuf::from(take("--serve-bin")?),
        out_dir: PathBuf::from(take("--out-dir")?),
        git_rev: flags.get("--git-rev").unwrap_or(&"unknown").to_string(),
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--serve-bin",
        "--out-dir",
        "--git-rev",
    ];
    if let Some(unknown) = flags.keys().find(|f| !known.contains(f)) {
        return Err(format!("unknown flag {unknown}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (known: {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    match run(&args, &spec) {
        Ok(result) => {
            println!("{}", result.json_line());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's scratch tree however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the final stdout line reports.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sizes of a lake's DomainNet graph.
#[derive(Debug, Clone, Serialize)]
struct LakeSizes {
    tables: usize,
    values: usize,
    attributes: usize,
    edges: usize,
    components: usize,
    largest_component: usize,
}

fn lake_sizes(lake: &MutableLake) -> LakeSizes {
    let net = DomainNetBuilder::new()
        .prune_single_attribute_values(true)
        .build(lake);
    let graph = net.graph();
    LakeSizes {
        tables: lake.live_table_names().len(),
        values: LakeView::value_count(lake),
        attributes: LakeView::attribute_count(lake),
        edges: graph.edge_count(),
        components: net.components().count(),
        largest_component: net.components().largest(),
    }
}

#[derive(Debug, Serialize)]
struct ClassCount {
    class: String,
    attempted: u64,
    failed: u64,
}

/// The full record of one run, written next to the results.
#[derive(Debug, Serialize)]
struct Record {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    /// CPU steal share over the timed phase (`None` without `/proc/stat`).
    steal_share: Option<f64>,
    git_revision: String,
    serve_argv: Vec<String>,
    base_lake: LakeSizes,
    final_lake: LakeSizes,
    scheduled_write_hz: f64,
    scheduled_generation_hz: f64,
    writer_late_p50_ms: f64,
    writer_late_max_ms: f64,
    drifter_late_p50_ms: f64,
    drifter_late_max_ms: f64,
    reads: usize,
    writes: usize,
    generations: usize,
    /// Quantiles of every timed read's latency.
    read_quantiles_us: BTreeMap<String, f64>,
    /// p99 of each 4 s block of the timed phase, in time order;
    /// `read_p99_us` is the lowest.
    read_p99_blocks_us: Vec<f64>,
    /// Every timed write's latency from its due time, ascending.
    write_ms: Vec<f64>,
    /// Every timed generation's ingest lag, ascending.
    ingest_lag_ms: Vec<f64>,
    per_class: Vec<ClassCount>,
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    paper_anchor_bc_precision: Option<f64>,
    paper_anchor_lcc_precision: Option<f64>,
    metrics: BTreeMap<String, f64>,
    failures: Vec<String>,
    /// The traced run's per-layer self-time table.
    fold: Vec<String>,
}

/// Everything the timed phase and the checks produced, for the report and
/// the in-process replay.
pub struct Observed {
    pub reader: ReaderOut,
    pub writer: WriterOut,
    /// `(generation, landed_ns)` per timed generation.
    pub landed: Vec<(usize, u64)>,
    pub drifter_late_ns: Vec<u64>,
    pub t0_ns: u64,
    pub stop_ns: u64,
    pub targets: Targets,
    pub metrics: std::collections::HashMap<String, f64>,
    pub connections_opened: u64,
    /// The data dir as the last kill left it.
    pub killed_dir: PathBuf,
}

/// Jiffies the whole machine has spent, and those stolen from it by the
/// hypervisor, from the `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// POST the setup lake and return the loaded epoch once a read answers
/// at it.
fn load_lake(client: &mut Client, inputs: &Inputs) -> Result<u64, String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut epoch = 0;
    for (i, batch) in inputs.load.iter().enumerate() {
        let r = client
            .post_json("/v1/mutations", &batch.body)
            .map_err(|e| format!("setup POST {i}: {e}"))?;
        if r.status != 200 {
            return Err(format!("setup POST {i} answered {}: {}", r.status, r.body));
        }
        epoch = r
            .json::<dn_server::api::MutationResponse>()
            .map_err(|e| format!("setup POST {i}: {e}"))?
            .epoch;
    }
    loop {
        let top = checks::top_k(client, "lcc", 1)?;
        if top.epoch >= epoch {
            return Ok(top.epoch);
        }
        if Instant::now() >= deadline {
            return Err(format!("no read answered at loaded epoch {epoch}"));
        }
    }
}

/// POST each tail write and apply it to the shadow.
fn send_tail(
    client: &mut Client,
    shadow: &mut MutableLake,
    failures: &mut Vec<String>,
    what: &str,
    deltas: Vec<lake::LakeDelta>,
) -> Result<(), String> {
    for (i, delta) in deltas.into_iter().enumerate() {
        shadow
            .apply(&delta)
            .map_err(|e| format!("{what} {i} does not apply to the shadow: {e}"))?;
        match client.post_json("/v1/mutations", &workload::Batch::new(vec![delta]).body) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => failures.push(format!("{what} {i} answered {}: {}", r.status, r.body)),
            Err(e) => failures.push(format!("{what} {i}: {e}")),
        }
    }
    Ok(())
}

fn run(args: &Args, spec: &Spec) -> Result<RunResult, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scratch = args.out_dir.join(format!("run-{}", std::process::id()));
    let _cleanup = ScratchDir(scratch.clone());
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let inputs = workload::generate(spec, args.seed, args.seconds);
    let clients = Clients::default();
    let mut failures: Vec<String> = Vec::new();

    // Set up SETUPS times on fresh dirs; keep the last server running.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let config = ServeConfig {
            bin: args.serve_bin.clone(),
            data_dir: scratch.join(format!("data-{i}")),
            ingest_dir: scratch.join(format!("drop-{i}")),
            ingest_poll_ms: workload::INGEST_POLL_MS,
            shards: spec.shards,
            log: scratch.join("dn-serve.log"),
        };
        std::fs::create_dir_all(&config.ingest_dir).map_err(|e| e.to_string())?;
        let stream = DriftStream::new(inputs.drift);
        let opened_before = clients.opened.load(Ordering::Relaxed);
        let server = Server::spawn(&config)?;
        let mut client = clients.client(server.addr);
        let epoch = load_lake(&mut client, &inputs).map_err(|e| {
            let log = std::fs::read_to_string(&config.log).unwrap_or_default();
            format!("{e}\n{log}")
        })?;
        setup_s.push(server.started.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            server.kill9();
            let _ = std::fs::remove_dir_all(&config.data_dir);
            let _ = std::fs::remove_dir_all(&config.ingest_dir);
        } else {
            kept = Some((server, config, stream, client, epoch, opened_before));
        }
    }
    let (server, config, mut stream, mut client, loaded_epoch, opened_before) =
        kept.expect("SETUPS >= 1");

    let base_sizes = lake_sizes(&MutableLake::from_catalog(&inputs.base_catalog));

    // The paper anchor, live, at the loaded epoch.
    let mut anchor = None;
    if spec.base == Base::Sb {
        match checks::paper_anchor(&mut client, &inputs.truth) {
            Ok(p) => anchor = Some(p),
            Err(e) => failures.push(e),
        }
    }

    // Read targets, fixed over the wire at the loaded epoch.
    let targets = {
        let hot: TopKResponse = client
            .get("/v1/top-k?k=64")
            .map_err(|e| format!("GET top-k: {e}"))?
            .json()
            .map_err(|e| format!("GET top-k: {e}"))?;
        let tables: TablesResponse = client
            .get("/v1/tables")
            .map_err(|e| format!("GET tables: {e}"))?
            .json()
            .map_err(|e| format!("GET tables: {e}"))?;
        let values: Vec<String> = hot.results.into_iter().map(|s| s.value).collect();
        if hot.epoch != loaded_epoch {
            failures.push(format!(
                "epoch moved from {loaded_epoch} to {} with no writer running",
                hot.epoch
            ));
        }
        Targets {
            removable: values
                .iter()
                .map(|v| inputs.rewritten.contains(v))
                .collect(),
            values,
            tables: tables.tables,
        }
    };

    // The timed phase.
    let origin = Instant::now();
    let jiffies_before = cpu_jiffies();
    let drift = Arc::new(DriftState::default());
    let first_generation = stream.generations();
    drift.landed.store(first_generation, Ordering::SeqCst);
    drift.visible.store(first_generation, Ordering::SeqCst);
    let stop = Arc::new(AtomicBool::new(false));
    let t0 = origin + Duration::from_millis(20);
    let mut landed = Vec::new();
    let mut drifter_late_ns = Vec::new();
    let (reader_out, writer_out, stop_at) = std::thread::scope(|s| {
        let reader = {
            let client = clients.client(server.addr);
            let targets = targets.clone();
            let (drift, stop) = (Arc::clone(&drift), Arc::clone(&stop));
            let (mix, seed, trace) = (spec.mix, inputs.reader_seed, args.trace);
            s.spawn(move || load::reader(client, targets, mix, seed, origin, drift, stop, trace))
        };
        let writer = {
            let client = clients.client(server.addr);
            let (batches, hz, trace) = (&inputs.writes, spec.write_hz, args.trace);
            s.spawn(move || load::writer(client, batches, hz, t0, origin, trace))
        };
        for j in 0..inputs.generations {
            // Half a generation period off the writes' schedule (the
            // generation rate is a whole multiple of the write rate):
            // generations that landed as a write was sent queued each
            // behind the other's commit, so each figure carried the other's
            // cost.
            let due = t0 + Duration::from_secs_f64((j as f64 + 0.5) / spec.gen_hz);
            sleep_until(due);
            drifter_late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            match workload::write_generation(&mut stream, &config.ingest_dir) {
                Ok(g) => {
                    landed.push((g, origin.elapsed().as_nanos() as u64));
                    drift.landed.store(g + 1, Ordering::SeqCst);
                }
                Err(e) => {
                    failures.push(format!("writing generation {j}: {e}"));
                    break;
                }
            }
        }
        let writer_out = writer.join().expect("writer thread");
        let deadline = Instant::now() + Duration::from_secs(30);
        while drift.visible.load(Ordering::SeqCst) < drift.landed.load(Ordering::SeqCst)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::SeqCst);
        let stop_at = origin.elapsed().as_nanos() as u64;
        (reader.join().expect("reader thread"), writer_out, stop_at)
    });
    // Share of the machine's CPU time the hypervisor took during the timed
    // phase: a run slowed by a busy host shows here, not as a regression.
    let steal_share = match (jiffies_before, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    if drift.visible.load(Ordering::SeqCst) < drift.landed.load(Ordering::SeqCst) {
        failures.push("the last drop-folder generation was never served".to_owned());
    }
    failures.extend(reader_out.errors.iter().take(20).cloned());
    failures.extend(writer_out.errors.iter().take(20).cloned());

    // Quiesce, then check the served state against a cold build.
    std::thread::sleep(Duration::from_millis(5 * workload::INGEST_POLL_MS));
    // Add the tail component, checkpoint, then rewrite values of it, so
    // every restart replays the same WAL suffix: the tail's rewrites and
    // nothing else.
    let mut final_shadow = inputs.shadow.clone();
    send_tail(
        &mut client,
        &mut final_shadow,
        &mut failures,
        "tail table",
        workload::tail_component(),
    )?;
    match client.post_json("/v1/admin/checkpoint", "") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => failures.push(format!("checkpoint answered {}", r.status)),
        Err(e) => failures.push(format!("checkpoint: {e}")),
    }
    send_tail(
        &mut client,
        &mut final_shadow,
        &mut failures,
        "tail rewrite",
        workload::tail_rewrites(),
    )?;
    let expected = checks::expected_lake(&final_shadow, &config.ingest_dir)?;
    let final_sizes = lake_sizes(&expected);
    let (cold_lcc, cold_bc) = checks::cold_rankings(&expected, nproc);
    let mut final_top = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last_err = String::new();
    while Instant::now() < deadline {
        let lcc = checks::top_k(&mut client, "lcc", CHECK_K)?;
        let bc = checks::top_k(&mut client, "bc", CHECK_K)?;
        let verdict = (lcc.epoch == bc.epoch)
            .then_some(())
            .ok_or_else(|| "epoch moved between the two reads".to_owned())
            .and_then(|()| checks::matches_cold(&lcc.results, &cold_lcc, CHECK_K))
            .and_then(|()| checks::matches_cold(&bc.results, &cold_bc, CHECK_K));
        match verdict {
            Ok(()) => {
                final_top = Some((lcc, bc));
                break;
            }
            Err(e) => last_err = e,
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    if final_top.is_none() {
        failures.push(format!(
            "served rankings never matched a cold build: {last_err}"
        ));
    }
    {
        // Drifter `d` first invades a foreign column in generation `d + 1`.
        let invaded = stream.generations().saturating_sub(1);
        for token in stream.drift_tokens().into_iter().take(invaded) {
            let path = format!("/v1/score/{}", lake::normalize(&token));
            match client.get(&path) {
                Ok(r) if r.status == 200 => {}
                Ok(r) => failures.push(format!("drifter {token} not served: {}", r.status)),
                Err(e) => failures.push(format!("GET {path}: {e}")),
            }
        }
    }

    let mut scrape_client = clients.client(server.addr);
    let metrics = load::scrape(&mut scrape_client)?;
    let connections_opened = clients.opened.load(Ordering::Relaxed) - opened_before;
    let peak_rss_mb = server.peak_rss_mb()?;
    drop((client, scrape_client));
    server.kill9();

    // Kill -9 and restart RECOVERIES times; each restart must serve the
    // last acknowledged state bit for bit.
    let mut recovery_s = Vec::new();
    for _ in 0..RECOVERIES {
        let server = Server::spawn(&config)?;
        let mut client = clients.client(server.addr);
        let deadline = Instant::now() + Duration::from_secs(60);
        let recovered = loop {
            let lcc = checks::top_k(&mut client, "lcc", CHECK_K)?;
            let want = final_top.as_ref().map_or(0, |(l, _)| l.epoch);
            if lcc.epoch >= want || Instant::now() >= deadline {
                break lcc;
            }
        };
        recovery_s.push(server.started.elapsed().as_secs_f64());
        let bc = checks::top_k(&mut client, "bc", CHECK_K)?;
        if let Some((lcc, want_bc)) = &final_top {
            if recovered.epoch != lcc.epoch || bc.epoch != lcc.epoch {
                failures.push(format!(
                    "restart served epoch {} (bc {}), expected {}",
                    recovered.epoch, bc.epoch, lcc.epoch
                ));
            } else if !checks::bits_identical(&recovered.results, &lcc.results)
                || !checks::bits_identical(&bc.results, &want_bc.results)
            {
                failures.push("restart changed the served top-k bits".to_owned());
            }
        }
        drop(client);
        server.kill9();
    }

    let observed = Observed {
        reader: reader_out,
        writer: writer_out,
        landed,
        drifter_late_ns,
        t0_ns: (t0 - origin).as_nanos() as u64,
        stop_ns: stop_at,
        targets,
        metrics,
        connections_opened,
        killed_dir: config.data_dir.clone(),
    };

    let tally = Tally {
        attempted: observed.reader.tally().attempted
            + observed.writer.tally.attempted
            + observed.landed.len() as u64,
        failed: observed.reader.tally().failed + observed.writer.tally.failed,
    };
    let e2e = end_to_end(&observed, &setup_s, &recovery_s, peak_rss_mb);
    let (metrics, fold) = if args.trace {
        let layers = replay::run(
            spec,
            &inputs,
            &observed,
            &scratch.join("replay"),
            nproc,
            &args.out_dir,
        )?;
        (layers.metrics, layers.fold)
    } else {
        (e2e.clone(), Vec::new())
    };

    let record = Record {
        workload: spec.name.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        steal_share,
        git_revision: args.git_rev.clone(),
        serve_argv: config.argv(),
        base_lake: base_sizes,
        final_lake: final_sizes,
        scheduled_write_hz: spec.write_hz,
        scheduled_generation_hz: spec.gen_hz,
        writer_late_p50_ms: stats::median(
            observed
                .writer
                .writes
                .iter()
                .map(|w| ms(w.sent_ns.saturating_sub(w.due_ns))),
        ),
        writer_late_max_ms: observed
            .writer
            .writes
            .iter()
            .map(|w| ms(w.sent_ns.saturating_sub(w.due_ns)))
            .fold(0.0, f64::max),
        drifter_late_p50_ms: stats::median(observed.drifter_late_ns.iter().map(|&n| ms(n))),
        drifter_late_max_ms: observed
            .drifter_late_ns
            .iter()
            .map(|&n| ms(n))
            .fold(0.0, f64::max),
        reads: observed.reader.reads.len(),
        read_quantiles_us: {
            let reads = read_latencies_us(&timed_reads(&observed));
            [0.5, 0.9, 0.95, 0.99, 0.999]
                .iter()
                .map(|&q| (format!("p{}", q * 100.0), stats::pct(&reads, q)))
                .collect()
        },
        read_p99_blocks_us: read_p99_per_block_us(
            observed.t0_ns,
            observed.stop_ns,
            &timed_reads(&observed),
        ),
        write_ms: write_latencies_ms(&observed),
        ingest_lag_ms: ingest_lags_ms(&observed),
        writes: observed.writer.writes.len(),
        generations: observed.landed.len(),
        per_class: per_class(&observed),
        setup_s: setup_s.clone(),
        recovery_s: recovery_s.clone(),
        paper_anchor_bc_precision: anchor.map(|a| a.0),
        paper_anchor_lcc_precision: anchor.map(|a| a.1),
        metrics: metrics.iter().map(|(n, v, _)| (n.clone(), *v)).collect(),
        failures: failures.clone(),
        fold,
    };
    report(&record, &e2e, tally);
    let path = args.out_dir.join(format!(
        "result-{}-{}.json",
        spec.name,
        if args.trace { "trace" } else { "e2e" }
    ));
    let json = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("[record written to {}]", path.display());

    for f in &failures {
        eprintln!("check failed: {f}");
    }
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} was not measured"));
    }
    Ok(RunResult {
        correct: failures.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn per_class(observed: &Observed) -> Vec<ClassCount> {
    let mut out: Vec<ClassCount> = observed
        .reader
        .by_class
        .iter()
        .map(|(class, t)| ClassCount {
            class: format!("read.{class}"),
            attempted: t.attempted,
            failed: t.failed,
        })
        .collect();
    out.push(ClassCount {
        class: "write".to_owned(),
        attempted: observed.writer.tally.attempted,
        failed: observed.writer.tally.failed,
    });
    out.push(ClassCount {
        class: "generation".to_owned(),
        attempted: observed.landed.len() as u64,
        failed: observed
            .landed
            .len()
            .saturating_sub(observed.reader.visible.len()) as u64,
    });
    out
}

fn write_latencies_ms(observed: &Observed) -> Vec<f64> {
    stats::sorted(
        observed
            .writer
            .writes
            .iter()
            .map(|w| ms(w.ack_ns - w.due_ns)),
    )
}

/// Landing to first served read, per timed generation.
fn ingest_lags_ms(observed: &Observed) -> Vec<f64> {
    let visible: BTreeMap<usize, u64> = observed.reader.visible.iter().copied().collect();
    stats::sorted(
        observed
            .landed
            .iter()
            .filter_map(|(g, at)| visible.get(g).map(|v| ms(v.saturating_sub(*at)))),
    )
}

/// Every read sent in the timed phase.
fn timed_reads(observed: &Observed) -> Vec<&load::ReadRec> {
    observed
        .reader
        .reads
        .iter()
        .filter(|r| r.at_ns >= observed.t0_ns && r.at_ns < observed.stop_ns)
        .collect()
}

fn read_latencies_us(reads: &[&load::ReadRec]) -> Vec<f64> {
    stats::sorted(reads.iter().map(|r| r.ns as f64 / 1e3))
}

/// The p99 of each `READ_BLOCK_NS` block of the timed phase, in time order.
/// The last block also takes the remainder, so every timed read is in one
/// block. An empty block gives `NaN`.
fn read_p99_per_block_us(t0_ns: u64, stop_ns: u64, reads: &[&load::ReadRec]) -> Vec<f64> {
    let blocks = (stop_ns.saturating_sub(t0_ns) / READ_BLOCK_NS).max(1) as usize;
    let mut per_block = vec![Vec::new(); blocks];
    for r in reads {
        let i = ((r.at_ns - t0_ns) / READ_BLOCK_NS) as usize;
        per_block[i.min(blocks - 1)].push(r.ns as f64 / 1e3);
    }
    per_block
        .into_iter()
        .map(|b| stats::pct(&stats::sorted(b), 0.99))
        .collect()
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
fn end_to_end(
    observed: &Observed,
    setup_s: &[f64],
    recovery_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<(String, f64, &'static str)> {
    let timed = timed_reads(observed);
    let reads = read_latencies_us(&timed);
    // Completed reads per second, first send to last answer.
    let read_span_ns = match (timed.first(), timed.last()) {
        (Some(first), Some(last)) => (last.at_ns + last.ns - first.at_ns).max(1),
        _ => 1,
    };
    let read_rps = timed.len() as f64 * 1e9 / read_span_ns as f64;
    // The calmest block's p99: a busy host slows a few seconds of a run,
    // and the p99 of every read moved with it (up to 3x at 6% CPU steal).
    // An empty block, a reader stalled for seconds, leaves it unmeasured.
    let blocks = read_p99_per_block_us(observed.t0_ns, observed.stop_ns, &timed);
    let read_p99_us = if blocks.iter().all(|p| p.is_finite()) {
        blocks.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        f64::NAN
    };
    let writes = write_latencies_ms(observed);
    let lags = ingest_lags_ms(observed);
    vec![
        ("read_p50_us".into(), stats::pct(&reads, 0.50), "us"),
        ("read_p99_us".into(), read_p99_us, "us"),
        ("read_rps".into(), read_rps, "1/s"),
        ("write_p50_ms".into(), stats::pct(&writes, 0.50), "ms"),
        ("write_p95_ms".into(), stats::pct(&writes, 0.95), "ms"),
        ("ingest_lag_p50_ms".into(), stats::pct(&lags, 0.50), "ms"),
        ("ingest_lag_p95_ms".into(), stats::pct(&lags, 0.95), "ms"),
        (
            "setup_s".into(),
            stats::median(setup_s.iter().copied()),
            "s",
        ),
        (
            "recovery_s".into(),
            stats::median(recovery_s.iter().copied()),
            "s",
        ),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
    ]
}

fn report(record: &Record, e2e: &[(String, f64, &'static str)], tally: Tally) {
    println!(
        "== e2ebench {} seed={} seconds={} trace={} nproc={} rev={} ==",
        record.workload,
        record.seed,
        record.seconds,
        record.trace,
        record.nproc,
        record.git_revision
    );
    println!("dn-serve argv: {}", record.serve_argv.join(" "));
    let sizes = |label: &str, s: &LakeSizes| {
        println!(
            "{label}: {} tables, {} values, {} attributes, {} edges, {} components (largest {})",
            s.tables, s.values, s.attributes, s.edges, s.components, s.largest_component
        )
    };
    sizes("base lake", &record.base_lake);
    sizes("final lake", &record.final_lake);
    println!(
        "schedule: writes {}/s (late p50 {:.3} ms, max {:.3} ms), generations {}/s (late p50 {:.3} ms, max {:.3} ms)",
        record.scheduled_write_hz,
        record.writer_late_p50_ms,
        record.writer_late_max_ms,
        record.scheduled_generation_hz,
        record.drifter_late_p50_ms,
        record.drifter_late_max_ms
    );
    if let Some(steal) = record.steal_share {
        println!("cpu steal during the timed phase: {:.2}%", steal * 100.0);
    }
    for c in &record.per_class {
        println!(
            "  {:<26} attempted {:>8}  failed {}",
            c.class, c.attempted, c.failed
        );
    }
    println!(
        "end to end{} ({} reads, {} writes, {} generations):",
        if record.trace {
            ", traced run, for reference only"
        } else {
            ""
        },
        record.reads,
        record.writes,
        record.generations
    );
    for (name, value, unit) in e2e {
        println!("  {name:<20} {value:>14.4} {unit}");
    }
    println!(
        "  read p99 over every read {:.1} us; per 4 s block (read_p99_us is the lowest): {}",
        record.read_quantiles_us["p99"],
        record
            .read_p99_blocks_us
            .iter()
            .map(|p| format!("{p:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  {:<20} {:>14.6} share ({} of {})",
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if let (Some(bc), Some(lcc)) = (
        record.paper_anchor_bc_precision,
        record.paper_anchor_lcc_precision,
    ) {
        println!("paper anchor: BC precision@|truth| {bc:.3}, LCC {lcc:.3}");
    }
    for line in &record.fold {
        println!("{line}");
    }
    println!("not measured: {NOT_SEEN}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(at_ns: u64, us: u64) -> load::ReadRec {
        load::ReadRec {
            at_ns,
            ns: us * 1000,
            route: load::Route::TopK { bc: true, k: 10 },
            traced: false,
        }
    }

    #[test]
    fn read_blocks_split_from_t0_and_the_last_takes_the_remainder() {
        let t0 = 1_000;
        // 9.5 s of timed phase: two 4 s blocks, the second 5.5 s long.
        let stop = t0 + 9_500_000_000;
        let reads = [
            read(t0, 10),
            read(t0 + 3_999_999_999, 20),
            read(t0 + READ_BLOCK_NS, 30),
            read(t0 + 9_000_000_000, 40),
        ];
        let refs: Vec<&load::ReadRec> = reads.iter().collect();
        assert_eq!(read_p99_per_block_us(t0, stop, &refs), vec![20.0, 40.0]);
        // A phase shorter than a block is one block.
        assert_eq!(read_p99_per_block_us(t0, t0 + 1, &refs[..1]), vec![10.0]);
        // A block nobody read in is unmeasured, not fast.
        assert!(read_p99_per_block_us(t0, stop, &refs[2..])[0].is_nan());
    }
}
