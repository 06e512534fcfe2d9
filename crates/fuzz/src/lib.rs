//! `sfn-fuzz` — seeded, dependency-free fuzzing and differential
//! testing for every untrusted-input boundary of the pipeline.
//!
//! PR 4 made the workspace registry-free by hand-rolling its parsers:
//! the [`sfn_obs::json`] recursive-descent parser (saved models,
//! offline artifacts, fault schedules, bench caches, run summaries),
//! the checksummed `SFNM` binary weight format, and the JSONL trace
//! reader. Those are exactly the surfaces a production stack must treat
//! as hostile — a corrupt checkpoint must fail with a typed error,
//! never a stack overflow, an OOM pre-allocation, or a panic. This
//! crate supplies the adversary:
//!
//! * [`mutate`] — a byte-level mutator (bit flips, splices,
//!   truncations, interesting-value injection, dictionary tokens)
//!   driven by [`sfn_rng`];
//! * [`gen`] — generators that emit *structurally valid* inputs (JSON
//!   values, `SFNM` weight blobs, JSONL traces, `SFN_FAULTS`
//!   schedules, artifact documents) for the mutator to start from;
//! * [`targets`] — one registered [`Target`] per untrusted boundary,
//!   each wrapping the parser in a round-trip differential oracle
//!   (`parse → serialize → parse` must converge, `encode → decode`
//!   must be identity);
//! * [`runner`] — the seeded fuzz loop (panics are caught and become
//!   [`runner::Finding`]s, reported as `fuzz.finding` events) and a
//!   greedy input minimizer;
//! * [`corpus`] — the committed regression corpus under `fuzz/corpus/`
//!   and its replay runner, wired into `cargo test`.
//!
//! Everything is deterministic from a `u64` seed (the contract of
//! [`sfn_rng::prop`]), so `sfn-fuzz run json --seed 7` reproduces a
//! finding bit-for-bit, with no corpus scheduling races.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod mutate;
pub mod runner;
pub mod targets;

/// What a target did with one input.
///
/// The contract every boundary must uphold: *any* byte string lands in
/// [`Outcome::Accepted`] or [`Outcome::Rejected`] — a typed error, not
/// a panic, not an allocation proportional to forged headers.
/// [`Outcome::OracleFailure`] means the input was accepted but the
/// target's differential oracle (round-trip convergence, invariant
/// check) did not hold — a real bug, counted as a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Parsed successfully and every oracle held.
    Accepted,
    /// Refused with a typed error (the message).
    Rejected(String),
    /// Parsed, but an oracle found a contradiction (the message).
    OracleFailure(String),
}

/// One registered fuzz target: an untrusted-input boundary plus the
/// seeds and dictionary that make fuzzing it productive.
pub struct Target {
    /// CLI name (`json`, `model_io`, …).
    pub name: &'static str,
    /// One-line description for `sfn-fuzz list`.
    pub about: &'static str,
    /// Runs the boundary (parser + oracles) over one input. Must never
    /// be the thing that panics — the runner catches panics *in the
    /// boundary under test* and reports them as findings.
    pub run: fn(&[u8]) -> Outcome,
    /// Emits structurally valid seed inputs for the mutator.
    pub seeds: fn(&mut sfn_rng::StdRng) -> Vec<Vec<u8>>,
    /// Format tokens the mutator splices in (keywords, magics).
    pub dict: &'static [&'static [u8]],
}

/// FNV-1a over `bytes` — stable content addressing for corpus and
/// finding filenames.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
