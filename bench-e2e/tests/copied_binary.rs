//! A copy of the benchmark binary, run from outside the repository, writes
//! only under its `--out-dir`: every file of the source tree is unchanged.
//!
//! Needs a built `dn-serve`: `cargo build --release --bin dn-serve` at the
//! repository root (or `python3 bench-e2e/run.py`, which builds it).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Length and content hash of every source file, skipping build output.
fn snapshot(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, u64)>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let entry = entry.expect("readable entry");
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if matches!(
            name.as_ref(),
            "target" | ".git" | ".bench_build" | ".bench_out"
        ) {
            continue;
        }
        let path = entry.path();
        if entry.file_type().expect("file type").is_dir() {
            snapshot(&path, out);
        } else {
            let bytes = std::fs::read(&path).expect("readable file");
            let mut hasher = DefaultHasher::new();
            bytes.hash(&mut hasher);
            out.insert(path, (bytes.len() as u64, hasher.finish()));
        }
    }
}

fn dn_serve() -> PathBuf {
    let root = repo_root();
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        candidates.push(root.join(dir).join("release/dn-serve"));
    }
    candidates.push(root.join(".bench_build/release/dn-serve"));
    candidates.push(root.join("target/release/dn-serve"));
    candidates.into_iter().find(|p| p.is_file()).expect(
        "no release dn-serve; run `cargo build --release --bin dn-serve` at the repository root",
    )
}

#[test]
fn copied_binary_leaves_the_source_tree_unchanged() {
    let root = repo_root();
    let mut before = BTreeMap::new();
    snapshot(&root, &mut before);

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("e2ebench-copy-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let copy = scratch.join("e2ebench");
    std::fs::copy(env!("CARGO_BIN_EXE_e2ebench"), &copy).expect("copy the binary");
    let out_dir = scratch.join("out");
    let output = Command::new(&copy)
        .current_dir(&scratch)
        .args([
            "--workload",
            "sb-read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .arg("--serve-bin")
        .arg(dn_serve())
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run the copied binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "copied binary failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    assert!(out_dir.join("result-sb-read-e2e.json").is_file());

    let mut after = BTreeMap::new();
    snapshot(&root, &mut after);
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");
    let changed: Vec<&PathBuf> = before
        .keys()
        .chain(after.keys())
        .filter(|p| before.get(*p) != after.get(*p))
        .collect();
    assert!(changed.is_empty(), "the run changed {changed:?}");
}
