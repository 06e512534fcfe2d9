//! Guard against ungated micro-benchmarks growing back: every
//! `[[bench]]` target of a workspace manifest (the root `Cargo.toml`
//! and `crates/*/Cargo.toml`) must be run by CI as `--bench <name>`.
//! A bench nothing runs only records numbers nobody judges; per-layer
//! timings belong in the repo benchmark (`BENCHMARK.json`).

use std::collections::BTreeSet;
use std::path::Path;

/// The `name` of every `[[bench]]` table in one manifest.
fn bench_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if in_bench {
            let value = line.strip_prefix("name").map(str::trim_start);
            if let Some(name) = value.and_then(|v| v.strip_prefix('=')) {
                names.push(name.trim().trim_matches('"').to_string());
            }
        }
    }
    names
}

fn workspace_benches(root: &Path) -> BTreeSet<String> {
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    manifests.extend(crates.flatten().map(|c| c.path().join("Cargo.toml")));
    let mut benches = BTreeSet::new();
    for manifest in manifests.iter().filter(|m| m.is_file()) {
        let text = std::fs::read_to_string(manifest).expect("readable manifest");
        benches.extend(bench_names(&text));
    }
    benches
}

/// True when `ci` runs `--bench <name>` as a whole word.
fn ci_runs(ci: &str, name: &str) -> bool {
    let flag = format!("--bench {name}");
    ci.match_indices(&flag).any(|(i, _)| {
        let next = ci[i + flag.len()..].chars().next();
        !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    })
}

#[test]
fn every_bench_target_is_run_by_ci() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benches = workspace_benches(root);
    assert!(!benches.is_empty(), "no [[bench]] targets found; is the scan broken?");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let unrun: Vec<_> = benches.iter().filter(|b| !ci_runs(&ci, b)).collect();
    assert!(
        unrun.is_empty(),
        "bench targets that no CI step runs as `--bench <name>`: {unrun:?}; gate them in \
         .github/workflows/ci.yml or delete them"
    );
}

#[test]
fn manifest_scan_reads_only_bench_tables() {
    let manifest = "[[bin]]\nname = \"tool\"\n\n[[bench]]\nname = \"a\"\nharness = false\n\n\
                    [[bench]]\nharness = false\nname=\"b_2\"\n\n[dependencies]\nname = \"x\"\n";
    assert_eq!(bench_names(manifest), ["a", "b_2"]);
    assert!(ci_runs("cargo bench --bench a\n", "a"));
    assert!(!ci_runs("cargo bench --bench ab\n", "a"));
}
