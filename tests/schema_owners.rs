//! Guard against a second writer: each persisted measurement document
//! has one owner, so its schema string appears on exactly one line of
//! product code (`crates/*/src`, `src/`). Comment lines and `#[cfg(test)]`
//! modules do not count, and `crates/fuzz` is skipped because its
//! dictionaries name the formats on purpose.

use std::path::{Path, PathBuf};

const SCHEMAS: [&str; 5] = [
    "sfn-prof/kernels@1",
    "sfn-trace/summary@1",
    "sfn-trace/verdict@1",
    "sfn-trace/audit@1",
    "sfn-metrics/live@1",
];

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

/// The product lines of one source file, numbered from 1: everything
/// before its `#[cfg(test)] mod …` block, minus comment lines.
fn product_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let end = text.find("\n#[cfg(test)]\nmod ").unwrap_or(text.len());
    text[..end]
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
}

fn product_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for krate in crates.flatten() {
        if krate.file_name() != "fuzz" {
            rust_files(&krate.path().join("src"), &mut files);
        }
    }
    assert!(files.len() > 50, "only {} product files found", files.len());
    files
}

#[test]
fn every_measurement_schema_has_one_writer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites: Vec<Vec<String>> = vec![Vec::new(); SCHEMAS.len()];
    for file in product_files(root) {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for (n, line) in product_lines(&text) {
            for (schema, found) in SCHEMAS.iter().zip(&mut sites) {
                if line.contains(schema) {
                    found.push(format!("{}:{n}: {}", file.display(), line.trim()));
                }
            }
        }
    }
    for (schema, found) in SCHEMAS.iter().zip(&sites) {
        assert_eq!(found.len(), 1, "`{schema}` must appear on exactly one product line, found {found:#?}");
    }
}

#[test]
fn product_lines_skip_comments_and_the_test_module() {
    let src = "const A: &str = \"x\";\n// \"x\" in a comment\n    /// \"x\" in docs\nfn f() {}\n#[cfg(test)]\nmod tests {\n    const B: &str = \"x\";\n}\n";
    let lines: Vec<_> = product_lines(src).filter(|(_, l)| l.contains("\"x\"")).collect();
    assert_eq!(lines, [(1, "const A: &str = \"x\";")]);
}
