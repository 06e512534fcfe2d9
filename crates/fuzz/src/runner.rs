//! The seeded fuzz loop, panic capture, and the input minimizer.
//!
//! One [`run_one`] call is a pure function of `(target, corpus, opts)`:
//! the RNG stream, the generated seeds, and every mutation derive from
//! `opts.seed`, so a finding's input is reproducible from the report
//! line alone. Panics inside the boundary under test are caught
//! (quietly — the panic hook is suppressed only on the fuzzing thread)
//! and reported as findings next to oracle failures, then emitted as
//! `fuzz.finding` trace events for `sfn-trace audit` to tally.

use crate::mutate::Mutator;
use crate::targets::seed_pool;
use crate::{Outcome, Target};
use sfn_rng::{RngExt, SeedableRng, StdRng};
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::Once;

/// Knobs of one fuzz run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// Inputs to execute.
    pub iterations: u64,
    /// Base seed; every stream below derives from it.
    pub seed: u64,
    /// Hard input-size cap (mutations never grow past it).
    pub max_len: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self { iterations: 1000, seed: 0, max_len: 1 << 16 }
    }
}

/// How a finding was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// The boundary panicked (caught by the runner).
    Panic,
    /// The boundary accepted the input but an oracle failed.
    Oracle,
}

impl FindingKind {
    /// Lowercase name for reports and events.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Oracle => "oracle",
        }
    }
}

/// One deduplicated failure: the offending input and what went wrong.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Detection class.
    pub kind: FindingKind,
    /// Panic message or oracle explanation.
    pub detail: String,
    /// The input that triggered it.
    pub input: Vec<u8>,
}

/// The result of fuzzing one target.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Target name.
    pub target: &'static str,
    /// Inputs executed.
    pub iterations: u64,
    /// Inputs the boundary accepted (all oracles held).
    pub accepted: u64,
    /// Inputs refused with a typed error.
    pub rejected: u64,
    /// Deduplicated findings (empty on a clean run).
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// True when no findings surfaced.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary, one target per line plus findings.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{:<11} {:>7} execs  {:>7} accepted  {:>7} rejected  {} findings\n",
            self.target,
            self.iterations,
            self.accepted,
            self.rejected,
            self.findings.len()
        );
        for f in &self.findings {
            s.push_str(&format!(
                "  [{}] {} ({} bytes, fnv1a {:016x})\n",
                f.kind.as_str(),
                truncate(&f.detail, 160),
                f.input.len(),
                sfn_rng::fnv1a(&f.input)
            ));
        }
        s
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut cut = max;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &s[..cut])
}

// ------------------------------------------------------ panic capture

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that stays silent while
/// the current thread is executing a fuzz input and defers to the
/// previous hook otherwise — concurrent non-fuzz panics still print.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `target` over one input, converting a panic into an `Err`.
pub fn execute(target: &Target, input: &[u8]) -> Result<Outcome, String> {
    install_quiet_hook();
    CAPTURING.with(|c| c.set(true));
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| (target.run)(input)));
    CAPTURING.with(|c| c.set(false));
    result.map_err(panic_message)
}

/// The stable deduplication/classification key of one execution.
pub fn classify(target: &Target, input: &[u8]) -> String {
    match execute(target, input) {
        Err(msg) => format!("panic:{msg}"),
        Ok(Outcome::OracleFailure(msg)) => format!("oracle:{msg}"),
        Ok(Outcome::Rejected(_)) => "rejected".to_string(),
        Ok(Outcome::Accepted) => "accepted".to_string(),
    }
}

// ---------------------------------------------------------- fuzz loop

/// Fuzzes one target: seeds the pool from the target's generators plus
/// `corpus`, then mutates/splices/regenerates for `opts.iterations`
/// executions. Deterministic per `opts`.
pub fn run_one(target: &Target, corpus: &[Vec<u8>], opts: &FuzzOptions) -> FuzzReport {
    const MAX_POOL: usize = 256;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ sfn_rng::fnv1a(target.name.as_bytes()));
    let mutator = Mutator::new(target.dict);

    let mut pool: Vec<Vec<u8>> = seed_pool(target, opts.seed);
    pool.extend(corpus.iter().cloned());
    pool.retain(|e| e.len() <= opts.max_len);
    if pool.is_empty() {
        pool.push(Vec::new());
    }

    let mut report = FuzzReport {
        target: target.name,
        iterations: opts.iterations,
        accepted: 0,
        rejected: 0,
        findings: Vec::new(),
    };
    let mut seen_keys: Vec<String> = Vec::new();

    for _ in 0..opts.iterations {
        let input = match rng.random_range(0..10u32) {
            // Fresh structurally valid documents keep the pool from
            // collapsing into rejected byte soup.
            0 => {
                let fresh = (target.seeds)(&mut rng);
                fresh.into_iter().next().unwrap_or_default()
            }
            1 => {
                let a = &pool[rng.random_range(0..pool.len())];
                let b = &pool[rng.random_range(0..pool.len())];
                mutator.splice(&mut rng, a, b, opts.max_len)
            }
            _ => {
                let mut m = pool[rng.random_range(0..pool.len())].clone();
                mutator.mutate(&mut rng, &mut m, opts.max_len);
                m
            }
        };

        match execute(target, &input) {
            Ok(Outcome::Accepted) => {
                report.accepted += 1;
                // Accepted mutants are new valid shapes — feed them back.
                if pool.len() < MAX_POOL && rng.random_unit() < 0.25 {
                    pool.push(input);
                }
            }
            Ok(Outcome::Rejected(_)) => report.rejected += 1,
            Ok(Outcome::OracleFailure(detail)) => {
                record(&mut report, &mut seen_keys, FindingKind::Oracle, detail, input)
            }
            Err(msg) => record(&mut report, &mut seen_keys, FindingKind::Panic, msg, input),
        }
    }
    report
}

fn record(
    report: &mut FuzzReport,
    seen: &mut Vec<String>,
    kind: FindingKind,
    detail: String,
    input: Vec<u8>,
) {
    let key = format!("{}:{}", kind.as_str(), truncate(&detail, 120));
    if seen.contains(&key) {
        return;
    }
    seen.push(key);
    sfn_obs::event(sfn_obs::Level::Error, "fuzz.finding")
        .field_str("target", report.target)
        .field_str("kind", kind.as_str())
        .field_u64("len", input.len() as u64)
        .field_str("detail", &truncate(&detail, 200))
        .emit();
    report.findings.push(Finding { kind, detail, input });
}

// ---------------------------------------------------------- minimizer

/// Greedy chunk-removal minimization: repeatedly drops byte ranges
/// while the classification key (panic message / oracle text /
/// rejected / accepted) is preserved, within an execution `budget`.
pub fn minimize(target: &Target, input: &[u8], budget: u64) -> Vec<u8> {
    let key = classify(target, input);
    let mut best = input.to_vec();
    let mut execs = 0u64;
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && execs < budget {
        let mut start = 0;
        let mut progressed = false;
        while start < best.len() && execs < budget {
            let end = (start + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - start));
            candidate.extend_from_slice(&best[..start]);
            candidate.extend_from_slice(&best[end..]);
            execs += 1;
            if classify(target, &candidate) == key {
                best = candidate;
                progressed = true;
                // Same offset again: the next chunk slid into place.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        chunk = if chunk > 1 { chunk / 2 } else { 1 };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets::by_name;

    /// A hostile target used only in tests: panics on inputs containing
    /// `b'P'`, fails its oracle on `b'O'`.
    fn nasty() -> Target {
        Target {
            name: "nasty",
            about: "test-only",
            run: |input| {
                assert!(!input.contains(&b'P'), "P byte reached the parser");
                if input.contains(&b'O') {
                    return crate::Outcome::OracleFailure("O byte accepted".into());
                }
                crate::Outcome::Accepted
            },
            seeds: |_| vec![b"hello".to_vec()],
            dict: &[b"P", b"O"],
        }
    }

    #[test]
    fn panics_become_findings_not_aborts() {
        let report = run_one(&nasty(), &[], &FuzzOptions { iterations: 400, seed: 1, max_len: 64 });
        assert!(!report.clean());
        assert!(report.findings.iter().any(|f| f.kind == FindingKind::Panic));
        assert!(report.findings.iter().any(|f| f.kind == FindingKind::Oracle));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let target = by_name("json").unwrap();
        let opts = FuzzOptions { iterations: 150, seed: 9, max_len: 1 << 12 };
        let a = run_one(&target, &[], &opts);
        let b = run_one(&by_name("json").unwrap(), &[], &opts);
        assert_eq!((a.accepted, a.rejected), (b.accepted, b.rejected));
        assert!(a.clean(), "{}", a.render());
    }

    #[test]
    fn minimizer_shrinks_while_preserving_the_key() {
        let target = nasty();
        let input = b"aaaaaaaaaaaaaaaaaaaaaaaaPaaaaaaaaaaaaaaaaaaaaaaa".to_vec();
        let min = minimize(&target, &input, 2000);
        assert_eq!(min, b"P".to_vec());
        assert!(classify(&target, &min).starts_with("panic:"));
    }
}
