//! Correctness checks on what the server answers.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;

use dn_server::api::TopKResponse;
use dn_server::Client;
use domainnet::{precision_recall_at_k, DomainNetBuilder, Measure, ScoredValue};
use lake::loader::{load_table, LoadOptions};
use lake::{LakeDelta, MutableLake};

/// Scores served and recomputed may differ by float summation order only.
pub const TOLERANCE: f64 = 1e-9;

pub fn top_k(client: &mut Client, measure: &str, k: usize) -> Result<TopKResponse, String> {
    let path = format!("/v1/top-k?measure={measure}&k={k}");
    let response = client.get(&path).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path} answered {}", response.status));
    }
    response
        .json()
        .map_err(|e| format!("GET {path} does not decode: {e}"))
}

/// CSV parsing as the ingester does it: ragged rows are an error.
pub fn strict_load() -> LoadOptions {
    LoadOptions {
        strict: true,
        ..LoadOptions::default()
    }
}

/// The lake the server should hold once every write is acknowledged and
/// the drop-folder is fully ingested: the writer's shadow plus every CSV
/// in the folder, parsed the way the ingester parses it.
pub fn expected_lake(shadow: &MutableLake, drop_dir: &Path) -> Result<MutableLake, String> {
    let mut lake = shadow.clone();
    let mut names: Vec<_> = std::fs::read_dir(drop_dir)
        .map_err(|e| format!("listing {}: {e}", drop_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    names.sort();
    for path in names {
        let table = load_table(&path, strict_load())
            .map_err(|e| format!("loading {}: {e}", path.display()))?;
        lake.apply(&LakeDelta::new().add_table(table))
            .map_err(|e| format!("adding {}: {e}", path.display()))?;
    }
    Ok(lake)
}

/// Cold LCC and exact-BC rankings of `lake`, as `dn-serve` configures them.
pub fn cold_rankings(lake: &MutableLake, threads: usize) -> (Vec<ScoredValue>, Vec<ScoredValue>) {
    let mut net = DomainNetBuilder::new()
        .prune_single_attribute_values(true)
        .build(lake);
    net.set_compute_threads(threads);
    (net.rank(Measure::lcc()), net.rank(Measure::exact_bc()))
}

/// Served top-k against a cold ranking: same length, scores position by
/// position within [`TOLERANCE`], and every served value carrying its cold
/// score (so values may only trade places inside a tie).
pub fn matches_cold(served: &[ScoredValue], cold: &[ScoredValue], k: usize) -> Result<(), String> {
    let want = k.min(cold.len());
    if served.len() != want {
        return Err(format!("served {} values, expected {want}", served.len()));
    }
    let cold_score: HashMap<&str, f64> = cold.iter().map(|s| (s.value.as_str(), s.score)).collect();
    for (i, s) in served.iter().enumerate() {
        if (s.score - cold[i].score).abs() > TOLERANCE {
            return Err(format!(
                "rank {i}: served {} = {}, cold {} = {}",
                s.value, s.score, cold[i].value, cold[i].score
            ));
        }
        match cold_score.get(s.value.as_str()) {
            Some(c) if (c - s.score).abs() <= TOLERANCE => {}
            other => {
                return Err(format!(
                    "rank {i}: served {} = {}, cold has {other:?}",
                    s.value, s.score
                ))
            }
        }
    }
    Ok(())
}

/// Two answers are bit-identical: same values in the same order with the
/// same score bits and counts.
pub fn bits_identical(a: &[ScoredValue], b: &[ScoredValue]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.value == y.value
                && x.score.to_bits() == y.score.to_bits()
                && x.attribute_count == y.attribute_count
                && x.cardinality == y.cardinality
        })
}

/// The paper anchor served live (the thresholds `tests/sb_end_to_end.rs`
/// pins in-process): BC precision@|truth| ≥ 0.5 and above LCC's, LCC ≤ 0.6.
pub fn paper_anchor(client: &mut Client, truth: &BTreeSet<String>) -> Result<(f64, f64), String> {
    let k = truth.len();
    let bc = top_k(client, "bc", k)?;
    let lcc = top_k(client, "lcc", k)?;
    let bc_p = precision_recall_at_k(&bc.results, truth, k).precision;
    let lcc_p = precision_recall_at_k(&lcc.results, truth, k).precision;
    if bc_p >= 0.5 && bc_p > lcc_p && lcc_p <= 0.6 {
        Ok((bc_p, lcc_p))
    } else {
        Err(format!(
            "paper anchor failed at epoch {}: BC precision@{k} {bc_p:.3}, LCC {lcc_p:.3}",
            bc.epoch
        ))
    }
}
