//! Guard against configuration knobs growing back unannounced: every
//! `"SFN_*"` string literal in product code (`crates/*/src`, `src/`)
//! must be a row of README's "Environment" table, and every row there
//! must still be read somewhere.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The `SFN_[A-Z0-9_]+` names that appear as complete string literals.
fn knob_literals(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("\"SFN_").filter_map(|(i, _)| {
        let rest = &text[i + 1..];
        let end =
            rest.find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))?;
        rest[end..].starts_with('"').then(|| &rest[..end])
    })
}

fn product_knobs(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "only {} product files found", files.len());
    let mut knobs = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        knobs.extend(knob_literals(&text).map(str::to_string));
    }
    knobs
}

/// First-column `SFN_*` names of the table under README's
/// `## Environment` heading.
fn documented_knobs(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Environment\n"))
        .expect("README has an `## Environment` section");
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split_once('`').map(|(name, _)| name.to_string()))
        .filter(|name| name.starts_with("SFN_"))
        .collect()
}

#[test]
fn every_knob_in_product_code_is_in_the_readme_environment_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = product_knobs(root);
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let documented = documented_knobs(&readme);
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "product code reads knobs missing from README's Environment table: {undocumented:?}; \
         the table lists knobs nothing reads: {unread:?}"
    );
}

#[test]
fn literal_scan_takes_only_whole_names() {
    let src = r#"knob("SFN_A1", 1); var("SFN_B"); "SFN_C={v}"; "sfn_d"; "SFN_E""#;
    assert_eq!(
        knob_literals(src).collect::<Vec<_>>(),
        ["SFN_A1", "SFN_B", "SFN_E"]
    );
}
