//! Layering guard: the simulator, solver, network and Algorithm 2
//! crates only emit telemetry; serving it is the job of process entry
//! points. So none of them may reach `sfn-metrics`, `sfn-httpcore` or
//! `sfn-serve` through the `[dependencies]` of `crates/*/Cargo.toml`,
//! directly or through another workspace crate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates that must stay below the serving layer.
const EMITTERS: [&str; 6] =
    ["sfn-runtime", "sfn-sim", "sfn-solver", "sfn-grid", "sfn-nn", "sfn-surrogate"];

/// The serving layer.
const SERVING: [&str; 3] = ["sfn-metrics", "sfn-httpcore", "sfn-serve"];

/// `(package name, normal dependency names)` of one manifest.
fn package_deps(manifest: &str) -> (String, Vec<String>) {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut table = String::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            if table == "[package]" && key == "name" {
                name = value.trim().trim_matches('"').to_string();
            } else if table == "[dependencies]" || table.ends_with(".dependencies]") {
                deps.push(key.split('.').next().unwrap_or(key).trim().to_string());
            }
        }
    }
    (name, deps)
}

/// Every workspace crate's normal dependencies, keyed by package name.
fn workspace_graph(root: &Path) -> BTreeMap<String, Vec<String>> {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    crates
        .flatten()
        .map(|c| c.path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .map(|m| package_deps(&std::fs::read_to_string(m).expect("readable manifest")))
        .collect()
}

/// Every crate `from` depends on, directly or through workspace crates.
fn reachable<'g>(graph: &'g BTreeMap<String, Vec<String>>, from: &str) -> BTreeSet<&'g str> {
    let deps = |krate: &str| graph.get(krate).into_iter().flatten().map(String::as_str);
    let mut seen = BTreeSet::new();
    let mut stack: Vec<&str> = deps(from).collect();
    while let Some(krate) = stack.pop() {
        if seen.insert(krate) {
            stack.extend(deps(krate));
        }
    }
    seen
}

#[test]
fn emitting_crates_never_reach_the_serving_layer() {
    let graph = workspace_graph(Path::new(env!("CARGO_MANIFEST_DIR")));
    for krate in EMITTERS.iter().chain(&SERVING) {
        assert!(graph.contains_key(*krate), "{krate} is not a workspace crate; is the scan broken?");
    }
    let breaches: Vec<String> = EMITTERS
        .iter()
        .filter_map(|krate| {
            let served: Vec<&str> =
                reachable(&graph, krate).into_iter().filter(|dep| SERVING.contains(dep)).collect();
            (!served.is_empty()).then(|| format!("{krate} reaches {served:?}"))
        })
        .collect();
    assert!(
        breaches.is_empty(),
        "emitting crates depend on the serving layer: {breaches:?}; emit an sfn-obs event \
         and let the sfn-metrics bridge or an entry point serve it"
    );
}

#[test]
fn manifest_scan_reads_only_normal_dependencies() {
    let manifest = "[package]\nname = \"sfn-a\"\nversion.workspace = true\n\n[dependencies]\n\
                    sfn-b.workspace = true\nsfn-c = { path = \"../c\" }\n\n\
                    [dev-dependencies]\nsfn-d.workspace = true\n";
    let (name, deps) = package_deps(manifest);
    assert_eq!((name.as_str(), deps), ("sfn-a", vec!["sfn-b".to_string(), "sfn-c".to_string()]));
    let graph = BTreeMap::from([
        ("a".to_string(), vec!["b".to_string()]),
        ("b".to_string(), vec!["c".to_string(), "x".to_string()]),
    ]);
    assert_eq!(reachable(&graph, "a"), BTreeSet::from(["b", "c", "x"]));
}
