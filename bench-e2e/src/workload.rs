//! Workload definitions and the seeded inputs each one generates.
//!
//! Every workload runs the same three actors against one `dn-serve`: a
//! closed-loop reader, an open-loop HTTP writer, and an open-loop drifter
//! that rewrites the server's `--ingest-dir` drop-folder. The workloads
//! differ in the lake, the shard count, the read mix and the rates, so
//! each stresses a different layer. `dn-serve` only ever sees the
//! generated requests and files; the seed stays on this side.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use datagen::{DriftConfig, MutationConfig, MutationStream, SbGenerator, TusConfig, TusGenerator};
use dn_server::api::MutationRequest;
use domainnet::DomainNetBuilder;
use lake::{LakeCatalog, LakeDelta, LakeOp, LakeView, MutableLake, Table, TableBuilder};

/// The read mix of the closed-loop reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `exp_http`'s mix: 50% top-k, 20% score, 15% explain, 15% table summary.
    Http,
    /// Weighted to point queries: 10% top-k, 40% score, 35% explain, 15% table summary.
    Point,
}

/// Which lake the setup loads, one `AddTable` POST per table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base {
    /// The paper's synthetic benchmark.
    Sb,
    /// The TUS-like lake at scale 0.1.
    Tus,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub base: Base,
    pub shards: usize,
    pub mix: Mix,
    /// Scheduled `POST /v1/mutations` per second.
    pub write_hz: f64,
    /// Scheduled drop-folder generations per second.
    pub gen_hz: f64,
}

pub const WORKLOADS: &[&str] = &["sb-read", "tus-shard4-mixed"];

/// `dn-serve --ingest-poll-ms`: at the 500 ms default the ingest lag is
/// all polling.
pub const INGEST_POLL_MS: u64 = 20;

pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "sb-read" => Spec {
            name: "sb-read",
            base: Base::Sb,
            shards: 1,
            mix: Mix::Http,
            write_hz: 2.0,
            gen_hz: 4.0,
        },
        "tus-shard4-mixed" => Spec {
            name: "tus-shard4-mixed",
            base: Base::Tus,
            shards: 4,
            mix: Mix::Point,
            write_hz: 1.0,
            gen_hz: 1.0,
        },
        _ => return None,
    };
    Some(spec)
}

/// One pre-generated HTTP write: its `POST /v1/mutations` body.
#[derive(Debug, Clone)]
pub struct Batch {
    pub body: String,
}

impl Batch {
    pub fn new(deltas: Vec<LakeDelta>) -> Batch {
        let body =
            serde_json::to_string(&MutationRequest { deltas }).expect("mutation batches encode");
        Batch { body }
    }
}

/// Everything a run sends, fixed by the seed before the server starts.
pub struct Inputs {
    /// Tables the setup POSTs, one batch each.
    pub load: Vec<Batch>,
    pub base_catalog: LakeCatalog,
    /// Ground-truth homographs of the SB lake (empty otherwise).
    pub truth: std::collections::BTreeSet<String>,
    /// The timed writer's batches, in send order.
    pub writes: Vec<Batch>,
    /// The normalized values those batches rewrite: the only values a
    /// score or explain read may legally find gone.
    pub rewritten: HashSet<String>,
    /// The writer's shadow: base lake plus every timed write.
    pub shadow: MutableLake,
    pub drift: DriftConfig,
    /// Timed drop-folder generations.
    pub generations: usize,
    pub reader_seed: u64,
}

/// The TUS-like lake at scale 0.1: 64 tables, ~200 attributes, one giant
/// component — the largest TUS scale exact BC keeps interactive.
fn tus_scale_0_1(seed: u64) -> TusConfig {
    let base = TusConfig::default();
    let scaled = |n: usize, min: usize| ((n as f64 * 0.1).round() as usize).max(min);
    TusConfig {
        seed,
        domain_count: scaled(base.domain_count, 8),
        max_domain_vocab: scaled(base.max_domain_vocab, 60),
        rows_per_source: scaled(base.rows_per_source, 60),
        shared_pool_size: scaled(base.shared_pool_size, 20),
        ..base
    }
}

/// The SB lake `tests/sb_end_to_end.rs` pins the paper's results on.
const SB_SEED: u64 = 2021;
/// `TusConfig`'s default seed.
const TUS_SEED: u64 = 42;
/// Seed of the stream the written values come from (see `generate`).
const WRITE_TARGETS_SEED: u64 = 2021;

/// The run's inputs. The SB and TUS lakes are fixed (their exact-BC cost
/// swings several-fold between generator seeds, which would drown every
/// other effect), and so are the values the writes rewrite; the seed
/// drives everything else sent to them: the reads, the order of the
/// writes, and the drop-folder generations.
pub fn generate(spec: &Spec, seed: u64, seconds: u64) -> Inputs {
    let (base_catalog, truth) = match spec.base {
        Base::Sb => {
            let generated = SbGenerator::new(SB_SEED).generate();
            let truth = generated.homograph_set();
            (generated.catalog, truth)
        }
        Base::Tus => (
            TusGenerator::new(tus_scale_0_1(TUS_SEED))
                .generate()
                .catalog,
            Default::default(),
        ),
    };
    let load: Vec<Batch> = base_catalog
        .tables()
        .iter()
        .map(|t: &Table| Batch::new(vec![LakeDelta::new().add_table(t.clone())]))
        .collect();

    let mut shadow = MutableLake::from_catalog(&base_catalog);
    let giant = largest_component_values(&shadow);
    // Value rewrites only, in the largest component (see
    // `rewrites_giant_value`), each followed by the rewrite that restores
    // it. The lake so stays one edit away from the loaded lake, and each
    // write's cost depends on the value it rewrites, not on how earlier
    // writes had split the component: without the restores, the p50 of a
    // seed's writes was steady run to run but moved ~0.4 across seeds.
    // The pairs come from a fixed stream and the run seed only orders
    // them: a few values cost about three times the rest (both their
    // rewrite and their restore), so when the seed picked the values, how
    // many of those it drew decided the write p95 (SB: 27 to 54 ms).
    let mut stream = MutationStream::new(MutationConfig {
        seed: WRITE_TARGETS_SEED,
        rows_per_table: 40,
        add_weight: 0,
        remove_weight: 0,
        ..MutationConfig::default()
    });
    let write_count = ((spec.write_hz * seconds as f64).round() as usize).max(1);
    let mut pairs = Vec::with_capacity(write_count.div_ceil(2));
    let mut rewritten = HashSet::new();
    for _ in 0..1000 * write_count {
        if pairs.len() == write_count.div_ceil(2) {
            break;
        }
        let delta = stream.next_delta(&shadow);
        if !rewrites_giant_value(&shadow, &giant, &delta) {
            continue;
        }
        let mut restore = LakeDelta::new();
        for op in delta.ops() {
            if let LakeOp::ReplaceValue {
                table,
                column,
                target,
                replacement,
            } = op
            {
                rewritten.insert(target.clone());
                restore = restore.replace_value(table, column, replacement, target);
            }
        }
        pairs.push([delta, restore]);
    }
    assert_eq!(
        pairs.len(),
        write_count.div_ceil(2),
        "the lake's largest component has no served values to rewrite"
    );
    pairs.shuffle(&mut StdRng::seed_from_u64(seed.wrapping_add(1)));
    let writes: Vec<Batch> = pairs
        .into_iter()
        .flatten()
        .take(write_count)
        .map(|delta| {
            shadow
                .apply(&delta)
                .expect("generated deltas apply to the shadow");
            Batch::new(vec![delta])
        })
        .collect();

    Inputs {
        load,
        base_catalog,
        truth,
        writes,
        rewritten,
        shadow,
        // A small drifter: three 12-row tables and one drifting token.
        drift: DriftConfig {
            seed: seed.wrapping_add(2),
            tables: 3,
            rows_per_table: 12,
            drifters: 1,
            churn_per_generation: 2,
        },
        generations: ((spec.gen_hz * seconds as f64).round() as usize).max(1),
        reader_seed: seed.wrapping_add(3),
    }
}

/// The values of the largest component of `lake`'s pruned graph.
fn largest_component_values(lake: &MutableLake) -> HashSet<String> {
    let net = DomainNetBuilder::new()
        .prune_single_attribute_values(true)
        .build(lake);
    let (graph, components) = (net.graph(), net.components());
    let largest = (0..components.count())
        .max_by_key(|&c| components.sizes[c])
        .unwrap_or(0) as u32;
    graph
        .value_nodes()
        .filter(|&n| components.component_of(n) == largest)
        .map(|n| graph.node_label(n).to_owned())
        .collect()
}

/// Whether every op of `delta` rewrites a value of the base lake's
/// largest component that is in three or more attributes, so it stays
/// served after the rewrite. Each such rewrite repairs exact BC over that
/// component, so write cost has one mode. With the stream's own
/// add/remove/rewrite mix, or rewrites of any value, cheap and expensive
/// writes mixed and the p50 moved with the seed's share of each.
fn rewrites_giant_value(lake: &MutableLake, giant: &HashSet<String>, delta: &LakeDelta) -> bool {
    let mut wide = vec![false; LakeView::value_count(lake)];
    for v in lake.values_in_at_least(3) {
        wide[v.index()] = true;
    }
    delta.ops().iter().all(|op| match op {
        LakeOp::ReplaceValue { target, .. } => {
            giant.contains(target) && lake.value_id(target).is_some_and(|v| wide[v.index()])
        }
        _ => false,
    })
}

/// Values of the end-of-run tail component.
const TAIL_POOL: usize = 240;
/// Tables of the tail component, two columns each.
const TAIL_TABLES: usize = 8;
const TAIL_ROWS: usize = 60;
/// Rewrites after the checkpoint: fewer than the 8-epoch checkpoint
/// cadence, so no periodic checkpoint cuts the suffix short.
const TAIL_REWRITES: usize = 6;

/// The two columns of tail table `t`: overlapping windows of the pool,
/// one contiguous and one with stride 2.
fn tail_columns(t: usize) -> [Vec<String>; 2] {
    let value = |j: usize| format!("Tail{}", j % TAIL_POOL);
    [
        (0..TAIL_ROWS).map(|i| value(t * 23 + i)).collect(),
        (0..TAIL_ROWS).map(|i| value(t * 69 + 7 + 2 * i)).collect(),
    ]
}

/// The end-of-run tail component: [`TAIL_TABLES`] tables over
/// [`TAIL_POOL`] values found nowhere in the lake or the drop-folder, with
/// overlapping columns, so they form a component of their own that most
/// values join in two or more attributes. It is added before the
/// end-of-run checkpoint, so the snapshot holds it.
pub fn tail_component() -> Vec<LakeDelta> {
    (0..TAIL_TABLES)
        .map(|t| {
            let [a, b] = tail_columns(t);
            let table = TableBuilder::new(format!("tail_{t}"))
                .column("tail_a", a)
                .column("tail_b", b)
                .build()
                .expect("rectangular by construction");
            LakeDelta::new().add_table(table)
        })
        .collect()
}

/// Writes sent after the end-of-run checkpoint: the WAL suffix every
/// restart replays. Each rewrites, in one column, a tail value that stays
/// in two or more attributes, so replaying it repairs exact BC and LCC
/// over the tail component. The seed's writes cannot reach that
/// component, so the replay costs the same on every seed.
pub fn tail_rewrites() -> Vec<LakeDelta> {
    let mut attributes: HashMap<String, usize> = HashMap::new();
    for t in 0..TAIL_TABLES {
        for column in tail_columns(t) {
            for v in column.into_iter().collect::<HashSet<_>>() {
                *attributes.entry(v).or_default() += 1;
            }
        }
    }
    (0..TAIL_REWRITES)
        .map(|t| {
            let [a, _] = tail_columns(t);
            let target = a
                .into_iter()
                .find(|v| attributes[v] >= 3)
                .expect("the tail columns overlap");
            LakeDelta::new().replace_value(
                format!("tail_{t}"),
                "tail_a",
                &target,
                format!("TailNew{t}"),
            )
        })
        .collect()
}

/// The per-generation marker file. Its one value, `Marker<g>`, sits in two
/// columns (so it survives single-attribute pruning) and is rewritten
/// every generation; `GET /v1/score/MARKER<g>` answering 200 means the
/// generation's files are served. It sorts after every data file, and it
/// is written last, so it is diffed and applied no earlier than they are.
pub const MARKER_FILE: &str = "zz_marker.csv";

pub fn marker_token(generation: usize) -> String {
    format!("Marker{generation}")
}

/// Write one generation of the drop-folder: the drift stream's files, then
/// the marker, renamed into place so no poll sees it half-written.
pub fn write_generation(
    stream: &mut datagen::DriftStream,
    dir: &std::path::Path,
) -> std::io::Result<usize> {
    let generation = stream
        .write_next_generation(dir)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    let token = marker_token(generation.index);
    let tmp = dir.join(format!("{MARKER_FILE}.tmp"));
    std::fs::write(&tmp, format!("marker_a,marker_b\n{token},{token}\n"))?;
    std::fs::rename(&tmp, dir.join(MARKER_FILE))?;
    Ok(generation.index)
}
