//! The committed regression corpus and its replay runner.
//!
//! Layout: `fuzz/corpus/<target>/<name>.bin` at the workspace root
//! (override with `SFN_FUZZ_CORPUS`). Every entry is replayed by
//! `cargo test -p sfn-fuzz` and by the CI `fuzz-smoke` job; an entry
//! that panics or fails an oracle fails the build, so fixed bugs stay
//! fixed. `sfn-fuzz gen-corpus` refreshes the generated seeds and
//! always re-emits the hand-built regression entries for the bugs this
//! harness has caught ([`regressions`]).

use crate::runner::{execute, Finding, FindingKind};
use crate::{Outcome, Target};
use std::path::{Path, PathBuf};

/// The corpus root: `SFN_FUZZ_CORPUS` if set, else `fuzz/corpus/` at
/// the workspace root (two levels above this crate's manifest).
pub fn default_corpus_root() -> PathBuf {
    if let Ok(dir) = std::env::var("SFN_FUZZ_CORPUS") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("fuzz").join("corpus")
}

/// Loads one target's corpus entries, sorted by filename so replay
/// order (and therefore replay reports) is stable across filesystems.
/// A missing directory is an empty corpus, not an error.
pub fn load_entries(root: &Path, target_name: &str) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let dir = root.join(target_name);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        entries.push((name, std::fs::read(entry.path())?));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(entries)
}

/// The result of replaying one target's corpus.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Target name.
    pub target: &'static str,
    /// Entries replayed.
    pub total: u64,
    /// Entries the boundary accepted.
    pub accepted: u64,
    /// Entries refused with a typed error.
    pub rejected: u64,
    /// `(entry name, finding)` for every unsound entry.
    pub findings: Vec<(String, Finding)>,
}

impl ReplayReport {
    /// True when every entry was accepted or rejected cleanly.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One-line summary plus any findings.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<11} {:>5} entries  {:>5} accepted  {:>5} rejected  {} findings\n",
            self.target,
            self.total,
            self.accepted,
            self.rejected,
            self.findings.len()
        );
        for (name, f) in &self.findings {
            s.push_str(&format!("  [{}] {}: {}\n", f.kind.as_str(), name, f.detail));
        }
        s
    }
}

/// Replays named entries through a target, classifying each one.
pub fn replay(target: &Target, entries: &[(String, Vec<u8>)]) -> ReplayReport {
    let mut report = ReplayReport {
        target: target.name,
        total: entries.len() as u64,
        accepted: 0,
        rejected: 0,
        findings: Vec::new(),
    };
    for (name, input) in entries {
        match execute(target, input) {
            Ok(Outcome::Accepted) => report.accepted += 1,
            Ok(Outcome::Rejected(_)) => report.rejected += 1,
            Ok(Outcome::OracleFailure(detail)) => {
                report.findings.push((
                    name.clone(),
                    Finding { kind: FindingKind::Oracle, detail, input: input.clone() },
                ));
            }
            Err(msg) => {
                report.findings.push((
                    name.clone(),
                    Finding { kind: FindingKind::Panic, detail: msg, input: input.clone() },
                ));
            }
        }
    }
    report
}

/// Writes `entries` under `root/<target>/`, named
/// `<prefix>-<fnv1a:016x>.bin` (content-addressed: regenerating an
/// identical corpus is a no-op for git).
pub fn write_entries(
    root: &Path,
    target_name: &str,
    prefix: &str,
    entries: &[Vec<u8>],
) -> std::io::Result<usize> {
    let dir = root.join(target_name);
    std::fs::create_dir_all(&dir)?;
    let mut written = 0;
    for entry in entries {
        let path = dir.join(format!("{prefix}-{:016x}.bin", sfn_rng::fnv1a(entry)));
        if !path.exists() {
            std::fs::write(&path, entry)?;
            written += 1;
        }
    }
    Ok(written)
}

// -------------------------------------------------------- regressions

/// A JSON document nested `depth` arrays deep — the stack-overflow
/// shape the parser's depth limit now rejects.
pub fn deep_nesting_doc(depth: usize) -> Vec<u8> {
    let mut doc = Vec::with_capacity(depth * 2);
    doc.resize(depth, b'[');
    doc.resize(depth * 2, b']');
    doc
}

/// The hand-built regression entries per target: one `(name, bytes)`
/// pair for every bug this harness has caught and this repo has fixed.
/// `gen-corpus` writes them and the replay test requires them present.
pub fn regressions(target_name: &str) -> Vec<(&'static str, Vec<u8>)> {
    match target_name {
        // 100k levels ≫ the 128-level limit: deep enough that pre-fix
        // parsers blow the stack, small enough to commit.
        "json" => vec![
            ("regression-depth-bomb", deep_nesting_doc(100_000)),
            ("regression-depth-bomb-objects", {
                let mut doc = b"{\"k\":".repeat(20_000);
                doc.extend_from_slice(b"null");
                doc.extend(std::iter::repeat_n(b'}', 20_000));
                doc
            }),
        ],
        // The hostile request shapes the metrics listener must keep
        // refusing: smuggled bare-LF line endings, a header flood past
        // MAX_HEADERS, and a head past MAX_REQUEST_BYTES (rejected on
        // length alone, before any parsing).
        "http" => vec![
            ("regression-bare-lf-terminator", b"GET /metrics HTTP/1.1\n\n".to_vec()),
            ("regression-bare-lf-header", b"GET /metrics HTTP/1.1\nHost: a\r\n\r\n".to_vec()),
            ("regression-header-flood", {
                let mut flood = b"GET /metrics HTTP/1.1\r\n".to_vec();
                for i in 0..sfn_httpcore::MAX_HEADERS + 1 {
                    flood.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
                }
                flood.extend_from_slice(b"\r\n");
                flood
            }),
            ("regression-oversize-head", {
                let mut huge = b"GET /".to_vec();
                huge.resize(sfn_httpcore::MAX_REQUEST_BYTES + 1, b'a');
                huge
            }),
        ],
        "model_json" => vec![
            // Overflows f32 on the way in; serializing the inf back out
            // would render `null` and break the round-trip.
            ("regression-f32-overflow", b"{\"spec\":{\"layers\":[]},\"weights\":[[1e300]]}".to_vec()),
        ],
        "serve_req" => vec![
            // Duplicate Content-Length headers must not let the second
            // value smuggle a different body length past validation.
            (
                "regression-conflicting-content-length",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 20\r\nContent-Length: 2\r\n\r\n{\"grid\":8,\"steps\":1}".to_vec(),
            ),
            // Declared body far past the cap: refuse from the header
            // alone, never allocate or wait for the bytes.
            (
                "regression-oversize-declared-body",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            ),
            // One byte past MAX_TENANT_BYTES.
            (
                "regression-overlong-tenant",
                format!(
                    "POST /simulate HTTP/1.1\r\nX-Tenant: {}\r\nContent-Length: 20\r\n\r\n{{\"grid\":8,\"steps\":1}}",
                    "a".repeat(sfn_serve::api::MAX_TENANT_BYTES + 1)
                )
                .into_bytes(),
            ),
            // Fractional grid size: numeric but not an integer cell count.
            (
                "regression-fractional-grid",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 22\r\n\r\n{\"grid\":8.5,\"steps\":1}".to_vec(),
            ),
            // 2^32 — first seed not exactly representable per the contract.
            (
                "regression-oversize-seed",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 38\r\n\r\n{\"grid\":8,\"steps\":1,\"seed\":4294967296}".to_vec(),
            ),
            // Trailing bytes after the declared body length (request
            // smuggling shape) must be a BodyMismatch, not silently eaten.
            (
                "regression-body-smuggle",
                b"POST /simulate HTTP/1.1\r\nX-Tenant: t0\r\nContent-Length: 20\r\n\r\n{\"grid\":8,\"steps\":1}GET /x HTTP/1.1\r\n\r\n".to_vec(),
            ),
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::by_name;

    #[test]
    fn regression_inputs_are_rejected_fast() {
        for target in crate::targets::all() {
            for (name, input) in regressions(target.name) {
                let start = std::time::Instant::now();
                match execute(&target, &input) {
                    Ok(Outcome::Rejected(_)) => {}
                    other => panic!("{}/{name}: expected rejection, got {other:?}", target.name),
                }
                let elapsed = start.elapsed();
                assert!(
                    elapsed.as_millis() < 10,
                    "{}/{name}: rejection took {elapsed:?}",
                    target.name
                );
            }
        }
    }

    #[test]
    fn write_then_load_round_trips_sorted() {
        let root = std::env::temp_dir().join(format!("sfn-fuzz-corpus-{}", std::process::id()));
        let entries = vec![b"bb".to_vec(), b"aa".to_vec()];
        write_entries(&root, "json", "t", &entries).unwrap();
        // Re-writing identical content is a no-op.
        assert_eq!(write_entries(&root, "json", "t", &entries).unwrap(), 0);
        let loaded = load_entries(&root, "json").unwrap();
        assert_eq!(loaded.len(), 2);
        assert!(loaded.windows(2).all(|w| w[0].0 <= w[1].0));
        let report = replay(&by_name("json").unwrap(), &loaded);
        assert_eq!(report.total, 2);
        std::fs::remove_dir_all(&root).ok();
    }
}
