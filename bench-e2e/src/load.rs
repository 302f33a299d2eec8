//! The load actors: a closed-loop reader and an open-loop writer, each on
//! its own thread with one keep-alive connection, plus the open-loop
//! drifter that runs on the calling thread.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dn_server::api::{
    ErrorBody, ExplainResponse, MutationResponse, ScoreResponse, TableSummaryResponse, TopKResponse,
};
use dn_server::{percent_encode, Client};
use domainnet::DeltaStats;
use lake::normalize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Recorder;
use crate::workload::{marker_token, Batch, Mix};

pub const TIMEOUT: Duration = Duration::from_secs(20);
/// Span op ids of timed writes start here (reads use their record index).
pub const WRITE_OP: u64 = 1 << 40;

/// Hands out clients and counts the sockets the benchmark meant to open
/// (one per client), to compare against the server's accepted count.
#[derive(Debug, Default)]
pub struct Clients {
    pub opened: AtomicU64,
}

impl Clients {
    pub fn client(&self, addr: SocketAddr) -> Client {
        self.opened.fetch_add(1, Ordering::Relaxed);
        Client::new(addr)
            .with_timeout(TIMEOUT)
            .without_trace_forwarding()
    }
}

/// What the reader may ask about.
#[derive(Debug, Clone)]
pub struct Targets {
    /// Values for score/explain: the hot values at the loaded epoch.
    pub values: Vec<String>,
    /// Per value, whether a timed write rewrites it, so that a 404 for it
    /// is legal.
    pub removable: Vec<bool>,
    pub tables: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    TopK {
        bc: bool,
        k: usize,
    },
    Score(usize),
    Explain(usize),
    Summary(usize),
    /// `GET /v1/score/MARKER<g>`: has generation `g` been served yet?
    Marker(usize),
}

impl Route {
    pub fn class(self) -> &'static str {
        match self {
            Route::TopK { .. } => "top_k",
            Route::Score(_) | Route::Marker(_) => "score",
            Route::Explain(_) => "explain",
            Route::Summary(_) => "table_summary",
        }
    }

    pub fn path(self, targets: &Targets) -> String {
        match self {
            Route::TopK { bc, k } => {
                format!("/v1/top-k?measure={}&k={k}", if bc { "bc" } else { "lcc" })
            }
            Route::Score(i) => format!("/v1/score/{}", percent_encode(&targets.values[i])),
            Route::Explain(i) => format!("/v1/explain/{}", percent_encode(&targets.values[i])),
            Route::Summary(i) => format!(
                "/v1/tables/{}?measure=lcc&k=5",
                percent_encode(&targets.tables[i])
            ),
            Route::Marker(g) => format!("/v1/score/{}", marker_token(g)),
        }
    }

    fn pick(mix: Mix, rng: &mut StdRng, targets: &Targets) -> Route {
        let dice = rng.gen_range(0..100u32);
        let value = |rng: &mut StdRng| rng.gen_range(0..targets.values.len());
        let (topk, score, explain) = match mix {
            Mix::Http => (50, 70, 85),
            Mix::Point => (10, 50, 85),
        };
        if dice < topk {
            let bc = rng.gen_range(0..2u32) == 0;
            let k = [10usize, 20, 50][rng.gen_range(0..3)];
            Route::TopK { bc, k }
        } else if dice < score {
            Route::Score(value(rng))
        } else if dice < explain {
            Route::Explain(value(rng))
        } else {
            Route::Summary(rng.gen_range(0..targets.tables.len()))
        }
    }
}

/// One completed read.
#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    /// Send time, ns since the run origin.
    pub at_ns: u64,
    /// Client-observed latency.
    pub ns: u64,
    pub route: Route,
    /// Whether this read ran with the span recorder on.
    pub traced: bool,
}

/// One acknowledged write.
#[derive(Debug, Clone)]
pub struct WriteRec {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub ack_ns: u64,
    pub stats: DeltaStats,
}

/// Shared state between the drifter (landing generations) and the reader
/// (probing markers).
#[derive(Debug, Default)]
pub struct DriftState {
    /// Generations landed so far (generation indices `< landed` are on disk).
    pub landed: AtomicUsize,
    /// Generations confirmed served so far.
    pub visible: AtomicUsize,
}

/// Per-actor operation counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

pub struct ReaderOut {
    pub reads: Vec<ReadRec>,
    /// `(generation, visible_ns)` for every generation the reader saw served.
    pub visible: Vec<(usize, u64)>,
    /// Attempts and failures per route class.
    pub by_class: BTreeMap<&'static str, Tally>,
    pub errors: Vec<String>,
    pub spans: Recorder,
}

impl ReaderOut {
    pub fn tally(&self) -> Tally {
        self.by_class.values().fold(Tally::default(), |t, c| Tally {
            attempted: t.attempted + c.attempted,
            failed: t.failed + c.failed,
        })
    }

    fn fail(&mut self, route: Route, message: String) {
        self.by_class.entry(route.class()).or_default().failed += 1;
        self.errors.push(message);
    }
}

/// Check one read's answer: its status, that its body decodes into the
/// route's response type, and that it answers for the value or table
/// asked about. Returns the answer's epoch (`None` for a legal 404).
fn decodes(
    route: Route,
    targets: &Targets,
    legal_404: bool,
    status: u16,
    body: &str,
) -> Result<Option<u64>, String> {
    let decoded = match (route, status) {
        (Route::TopK { .. }, 200) => {
            serde_json::from_str::<TopKResponse>(body).map(|r| (r.epoch, None))
        }
        (Route::Score(i), 200) => serde_json::from_str::<ScoreResponse>(body)
            .map(|r| (r.epoch, Some((r.value, targets.values[i].clone())))),
        (Route::Marker(g), 200) => serde_json::from_str::<ScoreResponse>(body)
            .map(|r| (r.epoch, Some((r.value, normalize(&marker_token(g)))))),
        (Route::Explain(i), 200) => serde_json::from_str::<ExplainResponse>(body).map(|r| {
            (
                r.epoch,
                Some((r.explanation.value, targets.values[i].clone())),
            )
        }),
        (Route::Summary(i), 200) => serde_json::from_str::<TableSummaryResponse>(body)
            .map(|r| (r.epoch, Some((r.summary.table, targets.tables[i].clone())))),
        (_, 404) if legal_404 => {
            return serde_json::from_str::<ErrorBody>(body)
                .map(|_| None)
                .map_err(|e| format!("404 body does not decode: {e}"));
        }
        _ => return Err(format!("unexpected status {status}: {body}")),
    };
    match decoded {
        Ok((_, Some((got, asked)))) if got != asked => {
            Err(format!("answered for {got:?}, asked about {asked:?}"))
        }
        Ok((epoch, _)) => Ok(Some(epoch)),
        Err(e) => Err(format!("200 body does not decode: {e}")),
    }
}

/// The closed-loop reader: one request at a time until `stop`, probing
/// the newest landed generation's marker at most once per millisecond
/// while one is pending.
#[allow(clippy::too_many_arguments)]
pub fn reader(
    mut client: Client,
    targets: Targets,
    mix: Mix,
    seed: u64,
    origin: Instant,
    drift: Arc<DriftState>,
    stop: Arc<AtomicBool>,
    trace: bool,
) -> ReaderOut {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ReaderOut {
        reads: Vec::with_capacity(1 << 18),
        visible: Vec::new(),
        by_class: BTreeMap::new(),
        errors: Vec::new(),
        spans: Recorder::new(origin),
    };
    let mut last_epoch = 0u64;
    let mut last_probe: Option<Instant> = None;
    let mut seen = drift.visible.load(Ordering::SeqCst);
    let mut op = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let landed = drift.landed.load(Ordering::SeqCst);
        let probe_due = landed > seen && last_probe.is_none_or(|t| t.elapsed().as_micros() >= 1000);
        let route = if probe_due {
            last_probe = Some(Instant::now());
            Route::Marker(landed - 1)
        } else {
            Route::pick(mix, &mut rng, &targets)
        };
        let path = route.path(&targets);
        let traced = trace && op.is_multiple_of(2);
        let start = Instant::now();
        let span = traced.then(|| out.spans.begin("http.read", None, out.reads.len() as u64));
        let response = client.get(&path);
        if let Some(span) = span {
            out.spans.end(span);
        }
        let end = Instant::now();
        out.by_class.entry(route.class()).or_default().attempted += 1;
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                out.fail(route, format!("GET {path}: {e}"));
                op += 1;
                continue;
            }
        };
        // A 404 is legal only for a value a timed write rewrites, or for a
        // generation not yet seen served.
        let legal_404 = match route {
            Route::Score(i) | Route::Explain(i) => targets.removable[i],
            Route::Marker(g) => g >= seen,
            Route::TopK { .. } | Route::Summary(_) => false,
        };
        match decodes(route, &targets, legal_404, response.status, &response.body) {
            Ok(Some(epoch)) if epoch < last_epoch => out.fail(
                route,
                format!("GET {path}: epoch went back from {last_epoch} to {epoch}"),
            ),
            Ok(epoch) => last_epoch = last_epoch.max(epoch.unwrap_or(0)),
            Err(e) => out.fail(route, format!("GET {path}: {e}")),
        }
        if let Route::Marker(g) = route {
            if response.status == 200 {
                let at = end.duration_since(origin).as_nanos() as u64;
                out.visible.extend((seen..=g).map(|gen| (gen, at)));
                seen = g + 1;
                drift.visible.store(seen, Ordering::SeqCst);
            }
        }
        out.reads.push(ReadRec {
            at_ns: start.duration_since(origin).as_nanos() as u64,
            ns: end.duration_since(start).as_nanos() as u64,
            route,
            traced,
        });
        op += 1;
    }
    out
}

pub struct WriterOut {
    pub writes: Vec<WriteRec>,
    pub tally: Tally,
    pub errors: Vec<String>,
    pub spans: Recorder,
}

/// The open-loop writer: batch `i` is due at `t0 + i / hz` and its latency
/// runs from that due time to the 200 ack, so a stall is charged to every
/// write queued behind it.
pub fn writer(
    mut client: Client,
    batches: &[Batch],
    hz: f64,
    t0: Instant,
    origin: Instant,
    trace: bool,
) -> WriterOut {
    let mut out = WriterOut {
        writes: Vec::with_capacity(batches.len()),
        tally: Tally::default(),
        errors: Vec::new(),
        spans: Recorder::new(origin),
    };
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let mut last_epoch = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 / hz);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let response = client.post_json("/v1/mutations", &batch.body);
        let ack = Instant::now();
        out.tally.attempted += 1;
        let parsed = match response {
            Ok(r) if r.status == 200 => r
                .json::<MutationResponse>()
                .map_err(|e| format!("mutation response does not decode: {e}")),
            Ok(r) => Err(format!("mutation answered {}: {}", r.status, r.body)),
            Err(e) => Err(format!("mutation transport error: {e}")),
        };
        match parsed {
            Ok(r) if r.epoch > last_epoch => {
                last_epoch = r.epoch;
                if trace {
                    out.spans.push("http.write", due, ack, WRITE_OP + i as u64);
                }
                out.writes.push(WriteRec {
                    due_ns: ns(due),
                    sent_ns: ns(sent),
                    ack_ns: ns(ack),
                    stats: r.stats,
                });
            }
            Ok(r) => {
                out.tally.failed += 1;
                out.errors.push(format!(
                    "write {i} acknowledged at epoch {} after {last_epoch}",
                    r.epoch
                ));
            }
            Err(e) => {
                out.tally.failed += 1;
                out.errors.push(format!("write {i}: {e}"));
            }
        }
    }
    out
}

/// Scrape `/metrics` into unlabelled `name -> value` pairs.
pub fn scrape(client: &mut Client) -> Result<HashMap<String, f64>, String> {
    let response = client
        .get("/metrics")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /metrics answered {}", response.status));
    }
    Ok(response
        .body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dn_server::api::ErrorDetail;

    fn targets() -> Targets {
        Targets {
            values: vec!["kept".into(), "rewritten".into()],
            removable: vec![false, true],
            tables: vec!["t".into()],
        }
    }

    fn not_found() -> String {
        serde_json::to_string(&ErrorBody {
            error: ErrorDetail {
                status: 404,
                kind: "not_found".into(),
                message: "gone".into(),
            },
        })
        .unwrap()
    }

    fn score(value: &str) -> String {
        serde_json::to_string(&ScoreResponse {
            epoch: 7,
            value: value.into(),
            cards: Vec::new(),
        })
        .unwrap()
    }

    #[test]
    fn a_404_is_legal_only_where_the_reader_allows_it() {
        let t = targets();
        assert_eq!(
            decodes(Route::Score(1), &t, true, 404, &not_found()),
            Ok(None)
        );
        assert!(decodes(Route::Score(0), &t, false, 404, &not_found()).is_err());
        assert!(decodes(Route::Summary(0), &t, false, 404, &not_found()).is_err());
    }

    #[test]
    fn a_200_must_answer_for_what_was_asked() {
        let t = targets();
        assert_eq!(
            decodes(Route::Score(0), &t, false, 200, &score("kept")),
            Ok(Some(7))
        );
        assert!(decodes(Route::Score(0), &t, false, 200, &score("rewritten")).is_err());
        let marker = normalize(&marker_token(3));
        assert_eq!(
            decodes(Route::Marker(3), &t, true, 200, &score(&marker)),
            Ok(Some(7))
        );
        assert!(decodes(Route::TopK { bc: true, k: 10 }, &t, false, 200, "{}").is_err());
    }
}
